//! The simulated world: nodes, medium, event dispatch and the
//! MAC / upper-layer protocol traits.
//!
//! Protocol objects (implementations of [`MacProtocol`] and
//! [`UpperLayer`]) live in vectors *parallel* to the world state, so
//! a dispatched handler can freely mutate the world through its
//! [`MacCtx`]/[`UpperCtx`] view without aliasing itself. Cross-layer
//! calls (MAC → upper delivery, upper → MAC enqueue) are queued as
//! notices and drained after the handler returns.

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use qma_des::{Scheduler, SeedSequence, SimDuration, SimTime};
use qma_phy::{
    Connectivity, EnergyMeter, EnergyReport, Medium, PhyNodeId, PhyTiming, PowerProfile, TxToken,
};

use crate::clock::FrameClock;
use crate::frame::{Address, Frame};
use crate::metrics::{LearnerSample, MetricsHub, SlotAction, TxResult};
use crate::queue::{HeadInfo, QueuedFrame, TxQueue, TxQueues};

/// Identifier of a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn phy(self) -> PhyNodeId {
        PhyNodeId(self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// How long a piggybacked neighbour queue level stays valid (see
/// [`MacCtx::queue_diff`]).
pub const NEIGHBOR_LEVEL_TTL: SimDuration = SimDuration::from_millis(1_500);

/// MAC timer classes. Each class has one outstanding instance per
/// node; re-arming cancels the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacTimerKind {
    /// Next contention subslot boundary.
    Subslot,
    /// CSMA/CA backoff expiry.
    Backoff,
    /// ACK wait timeout.
    AckTimeout,
    /// CAP start/end housekeeping.
    Cap,
    /// Protocol-defined auxiliary timer (e.g. delayed ACK turnaround).
    Aux1,
    /// Second auxiliary timer.
    Aux2,
}

impl MacTimerKind {
    const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            MacTimerKind::Subslot => 0,
            MacTimerKind::Backoff => 1,
            MacTimerKind::AckTimeout => 2,
            MacTimerKind::Cap => 3,
            MacTimerKind::Aux1 => 4,
            MacTimerKind::Aux2 => 5,
        }
    }
}

/// Who initiated an in-flight transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxOrigin {
    Mac,
    Upper,
}

/// Simulation events.
#[derive(Debug, Clone)]
enum Event {
    Start,
    EnableNode {
        node: NodeId,
    },
    MacTimer {
        node: NodeId,
        kind: MacTimerKind,
        gen: u32,
    },
    UpperTimer {
        node: NodeId,
        tag: u64,
        gen: u32,
    },
    TxEnd {
        node: NodeId,
        gen: u32,
    },
    CcaEnd {
        node: NodeId,
        gen: u32,
    },
    FrameBoundary,
    /// Fires every subslot tick due at boundary `index` (see
    /// [`TickSweep`]).
    Sweep {
        index: u64,
    },
    /// A scheduled fault from the armed [`crate::FaultPlan`] (index
    /// into its event list). Always heap-scheduled — see
    /// [`crate::faults`].
    Fault {
        idx: u32,
    },
}

#[derive(Debug)]
struct CcaState {
    saw_energy: bool,
    gen: u32,
}

/// A transmission on the air: the medium's token, the frame and who
/// started it.
#[derive(Debug)]
struct OnAir {
    token: TxToken,
    frame: Frame,
    origin: TxOrigin,
}

/// A pool entry: a transmission on the air, or a free entry.
#[derive(Debug)]
struct AirSlot {
    tx: Option<OnAir>,
    /// The next free entry while this one is free.
    next: u32,
}

/// The transmissions on the air: one `u32` per node into one pool of
/// entries, since only the nodes transmitting at that moment hold one.
///
/// Freed entries form one LIFO list linked through the entries, so an
/// ended transmission hands its entry to the next one that starts,
/// and the pool grows only with the peak number of concurrent
/// transmissions.
#[derive(Debug)]
struct AirPool {
    /// Each node's entry, or [`NO_SLOT`] while it is not transmitting.
    slot: Vec<u32>,
    entries: Vec<AirSlot>,
    /// The first free entry, or [`NO_SLOT`] when every entry is taken.
    free: u32,
}

impl AirPool {
    fn new(n: usize) -> Self {
        AirPool {
            slot: vec![NO_SLOT; n],
            entries: Vec::new(),
            free: NO_SLOT,
        }
    }

    /// Is node `i` transmitting?
    #[inline]
    fn on_air(&self, i: usize) -> bool {
        self.slot[i] != NO_SLOT
    }

    /// Puts node `i`'s transmission on the air, in the last freed
    /// entry if there is one.
    fn start(&mut self, i: usize, tx: OnAir) {
        debug_assert!(!self.on_air(i));
        let s = if self.free == NO_SLOT {
            self.entries.push(AirSlot {
                tx: Some(tx),
                next: NO_SLOT,
            });
            (self.entries.len() - 1) as u32
        } else {
            let s = self.free;
            let entry = &mut self.entries[s as usize];
            self.free = entry.next;
            entry.tx = Some(tx);
            s
        };
        self.slot[i] = s;
    }

    /// Takes node `i`'s transmission off the air and frees its entry.
    fn end(&mut self, i: usize) -> Option<OnAir> {
        let s = std::mem::replace(&mut self.slot[i], NO_SLOT);
        if s == NO_SLOT {
            return None;
        }
        let entry = &mut self.entries[s as usize];
        entry.next = self.free;
        self.free = s;
        entry.tx.take()
    }
}

/// A dense bitmap over node indices — the world's active-set
/// representation (enabled radios, armed and due subslot ticks). One
/// cache line covers 512 nodes, so sweeping the set is cache-linear
/// even at 50 000 nodes.
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    words: Vec<u64>,
    count: usize,
}

impl ActiveSet {
    /// An all-clear set over `n` indices.
    pub fn new(n: usize) -> Self {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
            count: 0,
        }
    }

    /// Is bit `i` set?
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Sets or clears bit `i`, keeping the popcount exact.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let was = *word & mask != 0;
        if value && !was {
            *word |= mask;
            self.count += 1;
        } else if !value && was {
            *word &= !mask;
            self.count -= 1;
        }
    }

    /// Number of set bits, exact in O(1).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Clears and returns the lowest set index in word `*word` or
    /// later, advancing `*word` past the all-clear words it skips. A
    /// sweep that drains the set this way sees bits cleared behind
    /// its back, because it re-reads the current word on every call.
    #[inline]
    pub fn pop_lowest(&mut self, word: &mut usize) -> Option<usize> {
        while let Some(&bits) = self.words.get(*word) {
            if bits != 0 {
                self.words[*word] = bits & (bits - 1);
                self.count -= 1;
                return Some(*word * 64 + bits.trailing_zeros() as usize);
            }
            *word += 1;
        }
        None
    }

    /// Iterates the set indices in ascending order — word-at-a-time,
    /// so a sparse set over a huge population costs O(words + set
    /// bits), not O(n).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(w * 64 + b)
            })
        })
    }
}

/// Piggybacked neighbour queue levels in CSR form: for each node, one
/// slot per *in-neighbour* (node it can hear), sorted ascending by
/// neighbour id. Replaces the former dense n×n table — O(E) instead
/// of O(n²), which is what makes 10k+-node worlds possible — while
/// iterating rows in exactly the same ascending-id order, so the
/// [`MacCtx::queue_diff`] fold is bit-identical to the dense version
/// (entries for non-neighbours could never be written anyway).
#[derive(Debug, Clone)]
struct NeighborLevels {
    /// Row `r` spans `entries[offsets[r]..offsets[r+1]]`.
    offsets: Vec<u32>,
    /// One entry per in-neighbour, ascending by id within each row.
    entries: Vec<LevelEntry>,
}

/// What a node last heard one in-neighbour piggyback: 16 B, so a row
/// search and the level it finds share one array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LevelEntry {
    /// The in-neighbour's id.
    id: u32,
    /// Whether any frame of it was heard yet; `level` and `at` are
    /// meaningless until then.
    heard: bool,
    /// The last piggybacked queue level.
    level: u8,
    /// When it was heard.
    at: SimTime,
}

impl LevelEntry {
    /// `(level, heard at)`, or `None` before the first audible frame.
    #[inline]
    fn level(&self) -> Option<(u8, SimTime)> {
        self.heard.then_some((self.level, self.at))
    }
}

/// "No CSR position": the head frame is not unicast, the queue is
/// empty, or its addressee is not an in-neighbour (see
/// [`NeighborLevels::partner_slot`]).
const NO_SLOT: u32 = u32::MAX;

impl NeighborLevels {
    /// Builds the table by inverting the connectivity's listener rows
    /// (`r` is an in-neighbour row entry of every `t` with `r ∈
    /// listeners(t)`).
    fn new(conn: &Connectivity) -> Self {
        let n = conn.len();
        let mut degree = vec![0u32; n];
        for t in 0..n {
            for &r in conn.listeners(PhyNodeId(t as u32)) {
                degree[r.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let unheard = LevelEntry {
            id: 0,
            heard: false,
            level: 0,
            at: SimTime::ZERO,
        };
        let mut entries = vec![unheard; acc as usize];
        let mut fill = offsets.clone();
        // Iterating transmitters in ascending order fills each row in
        // ascending id order.
        for t in 0..n {
            for &r in conn.listeners(PhyNodeId(t as u32)) {
                let pos = &mut fill[r.index()];
                entries[*pos as usize].id = t as u32;
                *pos += 1;
            }
        }
        NeighborLevels { offsets, entries }
    }

    #[inline]
    fn row(&self, r: usize) -> std::ops::Range<usize> {
        self.offsets[r] as usize..self.offsets[r + 1] as usize
    }

    /// The CSR position of `src` in `rx`'s row, if `rx` can hear it.
    #[inline]
    fn slot(&self, rx: usize, src: u32) -> Option<usize> {
        let range = self.row(rx);
        self.entries[range.clone()]
            .binary_search_by_key(&src, |e| e.id)
            .ok()
            .map(|pos| range.start + pos)
    }

    /// The CSR position in `rx`'s row of the node a head frame `head`
    /// is addressed to, or [`NO_SLOT`] for a broadcast head, an empty
    /// queue or an addressee `rx` cannot hear. The world keeps it per
    /// node (`Nodes::partner`), refreshed whenever the head changes,
    /// so a subslot tick reads the partner's level without a search.
    fn partner_slot(&self, rx: usize, head: Option<HeadInfo>) -> u32 {
        match head.map(|h| h.dst) {
            Some(Address::Node(dst)) => self.slot(rx, dst.0).map_or(NO_SLOT, |s| s as u32),
            _ => NO_SLOT,
        }
    }

    /// Records that `rx` heard `src` advertise `level` at `t`.
    #[inline]
    fn set(&mut self, rx: usize, src: u32, level: u8, t: SimTime) {
        if let Some(slot) = self.slot(rx, src) {
            let entry = &mut self.entries[slot];
            entry.heard = true;
            entry.level = level;
            entry.at = t;
        }
    }

    /// The last level `rx` heard from `src`, if any.
    #[inline]
    fn get(&self, rx: usize, src: u32) -> Option<(u8, SimTime)> {
        self.slot(rx, src)
            .and_then(|slot| self.entries[slot].level())
    }

    /// The last level heard at CSR position `slot`, if any; `None` for
    /// [`NO_SLOT`] too, as [`NeighborLevels::get`] answers for a node
    /// outside the row.
    #[inline]
    fn at_slot(&self, slot: u32) -> Option<(u8, SimTime)> {
        self.entries.get(slot as usize).and_then(LevelEntry::level)
    }

    /// The fresh-level fold input: `rx`'s per-in-neighbour entries in
    /// ascending id order.
    #[inline]
    fn entries(&self, rx: usize) -> &[LevelEntry] {
        &self.entries[self.row(rx)]
    }
}

/// Per-node world state in struct-of-arrays form: each field lives in
/// its own dense `Vec` indexed by [`NodeId`], so a per-subslot sweep
/// over many nodes touches only the arrays it needs (queue depths,
/// timer generations) instead of dragging every node's full record
/// through the cache. The RNGs and energy meters — cold per event —
/// stay out of the hot arrays entirely.
#[derive(Debug)]
struct Nodes {
    /// The transmit queue headers, indexed by node, and the one pool
    /// their frames live in.
    queue: TxQueues,
    /// [`NeighborLevels::partner_slot`] of each queue's head, set
    /// wherever the head changes.
    partner: Vec<u32>,
    energy: Vec<EnergyMeter>,
    /// The power draw every node's energy meter integrates.
    power: PowerProfile,
    air: AirPool,
    cca: Vec<Option<CcaState>>,
    // The event generations below move on through `bump`.
    cca_gen: Vec<u32>,
    mac_timer_gen: Vec<[u32; MacTimerKind::COUNT]>,
    /// Generation of the current in-flight transmission; a crash
    /// bumps it so the stale `TxEnd` of an aborted frame is ignored.
    tx_gen: Vec<u32>,
    /// Generation of upper-layer timers; a crash bumps it so timers
    /// armed before the outage cannot fire after the reboot (the
    /// rebooted upper re-seeds its own schedule in `start`).
    upper_gen: Vec<u32>,
    /// Signed local-clock offset per node (µs), set by a
    /// [`crate::FaultKind::ClockSkew`] fault; allocated, all zero, by
    /// the first one. Read only behind `skew_any`.
    skew_us: Vec<i64>,
    /// Fast path: no node has ever been skewed (skips the per-arm
    /// offset lookup entirely).
    skew_any: bool,
    mac_rng: Vec<StdRng>,
    upper_rng: Vec<StdRng>,
    /// Nodes whose radio is active (started and not disabled).
    enabled: ActiveSet,
    /// Nodes with an armed subslot tick — the generalisation of the
    /// idle-parking flag: a parked node is due at no sweep, has no
    /// tick on the heap and no bit here.
    tick_armed: ActiveSet,
}

/// The subslot ticks of one boundary, fired by a single
/// [`Event::Sweep`] in ascending node id instead of one scheduler
/// event per tick.
///
/// At most one sweep is pending at a time. It is scheduled when the
/// first tick is armed for its boundary, so it holds the sequence
/// position that tick would have had among heap events at the same
/// instant. Against one event per tick, only order at one instant
/// differs: the ticks run in node-id order instead of arming order,
/// all at the first tick's position. The engine goldens
/// (`engine_goldens.rs`, `determinism.rs`) pin that this order is
/// unobservable. Ascending order also turns scattered reads of
/// per-node state into streams.
///
/// Ticks no pending sweep can take go to the scheduler heap as
/// ordinary [`MacTimerKind::Subslot`] timers: a skewed node's, one
/// armed for a boundary other than the pending one, and one armed for
/// a boundary whose sweep already ran at this instant.
#[derive(Debug)]
struct TickSweep {
    /// Nodes due at the pending boundary.
    due: ActiveSet,
    /// The set the running sweep drains. All-clear between sweeps, so
    /// starting a sweep is a swap with `due` and allocates nothing.
    sweeping: ActiveSet,
    /// Boundary index of the pending sweep.
    pending: Option<u64>,
    /// Ticks armed into the pending sweep, each arm counted once —
    /// including arms a crash, a cancel or a later re-arm made stale.
    /// The per-tick engine popped and discarded those, so they count
    /// as events.
    pending_ticks: u64,
    /// Boundary index of the last sweep that ran.
    last_swept: Option<u64>,
    counts: EngineCounts,
}

impl TickSweep {
    fn new(n: usize) -> Self {
        TickSweep {
            due: ActiveSet::new(n),
            sweeping: ActiveSet::new(n),
            pending: None,
            pending_ticks: 0,
            last_swept: None,
            counts: EngineCounts::default(),
        }
    }

    /// Makes node `i`'s swept tick, if it has one, a no-op: its
    /// timer generation moved on (re-arm, cancel or crash).
    #[inline]
    fn invalidate(&mut self, i: usize) {
        self.due.set(i, false);
        self.sweeping.set(i, false);
    }
}

/// How the engine ran subslot ticks — deterministic counts, always
/// kept (see [`Sim::engine_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Events the scheduler popped, sweeps included.
    pub pops: u64,
    /// Boundary sweeps run; each is one popped event.
    pub sweeps: u64,
    /// Subslot ticks the sweeps stood for, each armed tick once (see
    /// [`Sim::events_processed`]).
    pub swept_ticks: u64,
    /// Subslot ticks armed through the scheduler heap instead.
    pub heap_ticks: u64,
}

impl Nodes {
    fn len(&self) -> usize {
        self.partner.len()
    }
}

/// Moves an event generation on and returns the new one. Generations
/// are `u32`s that wrap: a stale event is at most one airtime or one
/// subslot old, so it could pass for a live one only after 2³² re-arms
/// of one kind on one node while it is still pending — over 100 days
/// of simulated time at 440 ticks/s.
#[inline]
fn bump(gen: &mut u32) -> u32 {
    *gen = gen.wrapping_add(1);
    *gen
}

/// The `queue_diff` fold behind [`MacCtx::queue_diff`] for node `i`,
/// whose head frame's partner sits at CSR position `partner` (see
/// [`NeighborLevels::partner_slot`]). See [`MacCtx::queue_diff`] for
/// the semantics.
fn queue_diff_value(
    now: SimTime,
    i: usize,
    queue: &TxQueue,
    partner: u32,
    levels: &NeighborLevels,
) -> i32 {
    let local = queue.len() as i64;
    debug_assert_eq!(
        partner,
        levels.partner_slot(i, queue.head_info()),
        "stale partner slot of node {i}"
    );

    // Prefer the communication partner's level: the node the
    // head-of-line frame is addressed to is the one whose service
    // we compete with ("it is beneficial to give the
    // communication partner time", §1). In the paper's
    // single-sink scenarios this is exactly the neighbour set of
    // §4.2; in multi-hop trees it directs exploration pressure
    // down the forwarding chain instead of averaging it away
    // across saturated siblings.
    if let Some(HeadInfo {
        dst: Address::Node(_),
        ..
    }) = queue.head_info()
    {
        if let Some((level, at)) = levels.at_slot(partner) {
            if now.since(at) <= NEIGHBOR_LEVEL_TTL {
                return (local - i64::from(level)) as i32;
            }
        }
        // Partner unknown or stale: treat as empty (the sink before
        // its first frame, or a silent neighbour).
        return local as i32;
    }

    // Broadcast head or empty queue: fall back to the average
    // over fresh neighbour reports — a single allocation-free
    // pass over this node's CSR level row (same ascending-id
    // order as the dense table it replaced).
    let (sum, count) = levels.entries(i).iter().filter_map(LevelEntry::level).fold(
        (0i64, 0i64),
        |(sum, count), (level, at)| {
            if now.since(at) <= NEIGHBOR_LEVEL_TTL {
                (sum + i64::from(level), count + 1)
            } else {
                (sum, count)
            }
        },
    );
    if count == 0 {
        return local as i32;
    }
    round_ratio(local * count - sum, count) as i32
}

/// `n / d` for `d > 0`, rounded half away from zero — what
/// `f64::round` gives for `local − sum / count`, without the float.
/// The two agree exactly: `n / d` is either a half-integer, which an
/// `f64` holds exactly, or at least `1 / (2d)` away from one, far
/// beyond the rounding error of two `f64` operations.
fn round_ratio(n: i64, d: i64) -> i64 {
    let magnitude = (2 * n.abs() + d) / (2 * d);
    if n < 0 {
        -magnitude
    } else {
        magnitude
    }
}

enum Notice {
    DeliverUp(NodeId, Frame),
    TxResultUp(NodeId, Frame, TxResult),
    MacEnqueued(NodeId),
    UpperPhyTxEnd(NodeId, Frame, Vec<NodeId>),
}

/// Mutable world state shared by all protocol handlers.
pub struct World {
    medium: Medium,
    clock: FrameClock,
    phy: PhyTiming,
    nodes: Nodes,
    neighbor_levels: NeighborLevels,
    /// Metrics collection (public: scenarios read it directly).
    pub metrics: MetricsHub,
    notices: std::collections::VecDeque<Notice>,
    sweep: TickSweep,
}

impl World {
    /// The shared frame clock.
    pub fn clock(&self) -> &FrameClock {
        &self.clock
    }

    /// The PHY timing table.
    pub fn phy(&self) -> &PhyTiming {
        &self.phy
    }

    /// Immutable medium access (tests, assertions).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Is a node active (started and radio on)?
    pub fn is_enabled(&self, node: NodeId) -> bool {
        self.nodes.enabled.get(node.index())
    }

    /// Number of nodes whose subslot tick is currently armed (the
    /// complement of the parked set).
    pub fn armed_ticks(&self) -> usize {
        self.nodes.tick_armed.count()
    }

    /// A node's transmit queue header.
    pub fn queue(&self, node: NodeId) -> &TxQueue {
        &self.nodes.queue[node.index()]
    }

    /// The last queue level `rx` heard `src` piggyback, if any
    /// (tests, assertions).
    pub fn neighbor_level(&self, rx: NodeId, src: NodeId) -> Option<(u8, SimTime)> {
        self.neighbor_levels.get(rx.index(), src.0)
    }

    /// Closes a node's energy accounting and returns the report, its
    /// transmission attempts and CCAs taken from the node's
    /// [`crate::MacCounters`].
    pub fn energy_report(&mut self, node: NodeId, now: SimTime) -> EnergyReport {
        let mac = self.metrics.mac(node);
        EnergyReport {
            tx_attempts: mac.tx_attempts,
            ccas: mac.ccas,
            ..self.nodes.energy[node.index()].finish(&self.nodes.power, now.as_micros())
        }
    }

    fn start_tx_internal(
        &mut self,
        node: NodeId,
        mut frame: Frame,
        channel: u8,
        origin: TxOrigin,
        sched: &mut Scheduler<Event>,
    ) {
        let now = sched.now();
        let i = node.index();
        assert!(
            !self.nodes.air.on_air(i),
            "{node} started a tx while one is in flight"
        );
        frame.src = node;
        frame.queue_level = self.nodes.queue[i].level_u8();

        let airtime = SimDuration::from_micros(self.phy.frame_airtime_us(frame.psdu_octets as u64));
        self.medium.set_now(now.as_micros());
        let token = self.medium.start_tx_on(node.phy(), channel);

        // Nodes mid-CCA on this channel observe the new energy. The
        // listener set is a precomputed CSR slice — no allocation.
        for &r in self.medium.connectivity().listeners(node.phy()) {
            if self.medium.listen_channel(r) == channel {
                if let Some(cca) = &mut self.nodes.cca[r.index()] {
                    cca.saw_energy = true;
                }
            }
        }

        let nodes = &mut self.nodes;
        nodes.energy[i].set_activity(
            &nodes.power,
            now.as_micros(),
            qma_phy::RadioActivity::Transmit,
        );
        nodes.air.start(
            i,
            OnAir {
                token,
                frame,
                origin,
            },
        );
        let gen = bump(&mut nodes.tx_gen[i]);
        self.metrics.mac_mut(node).tx_attempts += 1;
        sched.schedule_at(now + airtime, Event::TxEnd { node, gen });
    }

    /// Applies a node's fault-injected clock offset to an instant —
    /// the node's *local* view of `at`. Negative offsets can reach
    /// into the past; the scheduler clamps and counts those (see
    /// [`SimBuilder::past_clamp_budget`]). Cold: only ever called
    /// once a `ClockSkew` fault has fired.
    #[cold]
    fn skewed_time(&self, i: usize, at: SimTime) -> SimTime {
        let s = self.nodes.skew_us[i];
        if s >= 0 {
            at + SimDuration::from_micros(s as u64)
        } else {
            SimTime::from_micros(at.as_micros().saturating_sub(s.unsigned_abs()))
        }
    }

    /// Arms `node`'s subslot tick for the boundary `(frame_index,
    /// subslot)` at `at` — the backend of
    /// [`MacCtx::set_subslot_timer_at`]. Any earlier tick of the node becomes a no-op. The new one joins
    /// the pending sweep if that sweep is for this boundary, or
    /// schedules the sweep if none is pending and this boundary has
    /// not been swept yet; otherwise it takes the heap (see
    /// [`TickSweep`]).
    fn arm_subslot_tick(
        &mut self,
        node: NodeId,
        at: SimTime,
        frame_index: u64,
        subslot: u16,
        sched: &mut Scheduler<Event>,
    ) {
        let i = node.index();
        let gen = bump(&mut self.nodes.mac_timer_gen[i][MacTimerKind::Subslot.index()]);
        self.nodes.tick_armed.set(i, true);
        let sweep = &mut self.sweep;
        sweep.invalidate(i);
        let skewed = self.nodes.skew_any && self.nodes.skew_us[i] != 0;
        if !skewed {
            let index = self.clock.boundary_index(frame_index, subslot);
            let joins = sweep.pending == Some(index);
            if joins || (sweep.pending.is_none() && sweep.last_swept.is_none_or(|l| index > l)) {
                if !joins {
                    sched.schedule_at(at, Event::Sweep { index });
                    sweep.pending = Some(index);
                }
                sweep.due.set(i, true);
                sweep.pending_ticks += 1;
                return;
            }
        }
        sweep.counts.heap_ticks += 1;
        // A skewed node's tick leaves the boundary grid.
        let at = if skewed { self.skewed_time(i, at) } else { at };
        sched.schedule_at(
            at,
            Event::MacTimer {
                node,
                kind: MacTimerKind::Subslot,
                gen,
            },
        );
    }

    /// Starts a CCA for `node` — the backend of [`MacCtx::start_cca`].
    /// The initial energy snapshot reads the medium now, so it
    /// observes exactly the transmissions that earlier events at the
    /// same instant already started.
    fn start_cca_internal(&mut self, node: NodeId, sched: &mut Scheduler<Event>) {
        let now = sched.now();
        let i = node.index();
        let gen = bump(&mut self.nodes.cca_gen[i]);
        self.nodes.cca[i] = Some(CcaState {
            saw_energy: self.medium.is_busy(node.phy()),
            gen,
        });
        self.metrics.mac_mut(node).ccas += 1;
        let dur = SimDuration::from_micros(self.phy.cca_us());
        sched.schedule_at(now + dur, Event::CcaEnd { node, gen });
    }

    /// Re-reads node `i`'s partner slot after its queue head changed.
    #[inline]
    fn refresh_partner(&mut self, i: usize) {
        self.nodes.partner[i] = self
            .neighbor_levels
            .partner_slot(i, self.nodes.queue[i].head_info());
    }
}

/// A subslot decision as a value: what the
/// [`MacProtocol::subslot_decide`] signature returns. Nothing in the
/// simulator builds one or calls that method. The type stays only so
/// that a delegating MAC that still forwards the method (the benchmark
/// probe's) keeps compiling.
#[derive(Debug, Clone)]
pub struct TickPlan {
    /// Re-arm the subslot timer for this boundary `(time, frame
    /// index, subslot)`, or park the tick (`None`).
    pub rearm: Option<(SimTime, u64, u16)>,
    /// The contention action for this subslot, if any.
    pub action: Option<TickAction>,
}

/// The action half of a [`TickPlan`], kept with it for the same
/// reason.
#[derive(Debug, Clone)]
pub enum TickAction {
    /// Stay in receive mode (recorded for the utilization maps).
    Backoff {
        /// Subslot index the action belongs to.
        subslot: u16,
    },
    /// Start a CCA at the subslot start.
    Cca {
        /// Subslot index the action belongs to.
        subslot: u16,
    },
    /// Transmit `frame` from the subslot start.
    Send {
        /// Subslot index the action belongs to.
        subslot: u16,
        /// The frame to put on the air.
        frame: Frame,
    },
}

/// The argument type of [`MacProtocol::subslot_decide`]. Nothing can
/// build one: it is kept, like [`TickPlan`], only so that a delegating
/// MAC that still forwards the method (the benchmark probe's) keeps
/// compiling.
pub struct TickView<'a> {
    _world: std::marker::PhantomData<&'a mut World>,
}

/// The MAC protocol interface.
///
/// One object per node. All methods receive a [`MacCtx`] scoped to
/// that node.
pub trait MacProtocol {
    /// Called once when the node becomes active.
    fn start(&mut self, ctx: &mut MacCtx<'_>);
    /// A [`MacTimerKind`] timer armed by this MAC fired.
    fn on_timer(&mut self, ctx: &mut MacCtx<'_>, kind: MacTimerKind);
    /// A frame was received cleanly (any addressee — MACs overhear).
    fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame);
    /// This node's own transmission finished its airtime.
    fn on_tx_end(&mut self, ctx: &mut MacCtx<'_>);
    /// A CCA started via [`MacCtx::start_cca`] completed.
    fn on_cca_result(&mut self, ctx: &mut MacCtx<'_>, busy: bool);
    /// The upper layer enqueued a frame into the transmit queue.
    fn on_enqueue(&mut self, ctx: &mut MacCtx<'_>);
    /// The node lost power and is coming back: reset all volatile
    /// MAC state (phase machine, pending-frame bookkeeping) before
    /// [`MacProtocol::start`] runs again. `persist_learning` keeps
    /// the learned policy (Q-table survives in flash); `false` wipes
    /// it, so the node pays the full re-learning cost. The default
    /// is a no-op — correct for memoryless MACs like CSMA whose
    /// `start` already re-initialises everything.
    fn on_reboot(&mut self, persist_learning: bool) {
        let _ = persist_learning;
    }
    /// Per-frame learning metrics (learning MACs only).
    fn learner_sample(&self) -> Option<LearnerSample> {
        None
    }
    /// The current per-subslot policy (learning MACs only), encoded
    /// as the dominant [`SlotAction`] the policy would execute.
    fn policy_snapshot(&self) -> Option<Vec<SlotAction>> {
        None
    }
    /// Always `false`: the world delivers every subslot tick through
    /// [`MacProtocol::on_timer`] and never asks. Kept, with
    /// [`MacProtocol::subslot_decide`], only for delegating MACs that
    /// still forward both (the benchmark probe's).
    fn supports_split_tick(&self) -> bool {
        false
    }
    /// Always `None`; see [`MacProtocol::supports_split_tick`].
    fn subslot_decide(&mut self, view: &mut TickView<'_>) -> Option<TickPlan> {
        let _ = view;
        None
    }
}

/// The upper layer (application, routing, DSME management).
pub trait UpperLayer {
    /// Called once when the node becomes active.
    fn start(&mut self, ctx: &mut UpperCtx<'_>);
    /// A timer armed via [`UpperCtx::schedule`] fired.
    fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, tag: u64);
    /// The MAC delivered a frame addressed to this node.
    fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame);
    /// The MAC finished a transmission chain for a queued frame.
    fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, result: TxResult);
    /// A direct PHY transmission (CFP/GTS data) finished; `delivered`
    /// lists clean receivers.
    fn on_phy_tx_end(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, delivered: &[NodeId]) {
        let _ = (ctx, frame, delivered);
    }
}

/// A no-op upper layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullUpper;

impl UpperLayer for NullUpper {
    fn start(&mut self, _: &mut UpperCtx<'_>) {}
    fn on_timer(&mut self, _: &mut UpperCtx<'_>, _: u64) {}
    fn on_deliver(&mut self, _: &mut UpperCtx<'_>, _: &Frame) {}
    fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
}

/// Context handed to [`MacProtocol`] methods.
pub struct MacCtx<'a> {
    world: &'a mut World,
    sched: &'a mut Scheduler<Event>,
    /// The node this context is scoped to.
    pub node: NodeId,
}

impl<'a> MacCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The shared frame clock.
    pub fn clock(&self) -> &FrameClock {
        self.world.clock()
    }

    /// The PHY timing table.
    pub fn phy(&self) -> &PhyTiming {
        self.world.phy()
    }

    /// This node's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.world.nodes.mac_rng[self.node.index()]
    }

    /// The transmit queue header (read only; mutate through
    /// [`MacCtx::pop_queue`] / [`MacCtx::bump_head_retries`]).
    pub fn queue(&self) -> &TxQueue {
        &self.world.nodes.queue[self.node.index()]
    }

    /// The head-of-line entry of the transmit queue, read from the
    /// world's frame pool.
    pub fn queue_head(&self) -> Option<&QueuedFrame> {
        self.world.nodes.queue.head(self.node.index())
    }

    /// Counts one more retransmission of the head frame and returns its
    /// retry count (retry bookkeeping; `None` with an empty queue).
    pub fn bump_head_retries(&mut self) -> Option<u8> {
        self.world.nodes.queue.bump_head_retries(self.node.index())
    }

    /// Pops the head frame, recording the queue-level change.
    pub fn pop_queue(&mut self) -> Option<QueuedFrame> {
        let now = self.sched.now();
        let i = self.node.index();
        let popped = self.world.nodes.queue.pop(i);
        if popped.is_some() {
            let level = self.world.nodes.queue[i].len();
            self.world.metrics.queue_level(self.node, now, level);
            self.world.refresh_partner(i);
        }
        popped
    }

    /// `local queue level − average reported neighbour queue level`,
    /// rounded — the input to QMA's parameter-based exploration
    /// (§4.2).
    ///
    /// Only *fresh* reports count ("the **current** queue level of a
    /// neighbouring node is piggybacked"): entries older than
    /// [`NEIGHBOR_LEVEL_TTL`] expire. This matters under saturation:
    /// a starving neighbour stops transmitting, its stale (full)
    /// report ages out, the local difference rises and exploration
    /// resumes — without the expiry, a fully saturated neighbourhood
    /// reports diff = 0 forever and the region deadlocks with ρ(0)=0.
    /// Neighbours that never piggybacked a level (e.g. a pure sink
    /// before its first frame) count as unknown, so an empty table
    /// yields the local level itself.
    pub fn queue_diff(&self) -> i32 {
        let i = self.node.index();
        queue_diff_value(
            self.sched.now(),
            i,
            &self.world.nodes.queue[i],
            self.world.nodes.partner[i],
            &self.world.neighbor_levels,
        )
    }

    /// Starts a frame transmission on the contention channel. The
    /// frame's `src` and `queue_level` are stamped automatically;
    /// [`MacProtocol::on_tx_end`] fires when the airtime elapses.
    pub fn start_tx(&mut self, frame: Frame) {
        self.world
            .start_tx_internal(self.node, frame, 0, TxOrigin::Mac, self.sched);
    }

    /// Starts a CCA; [`MacProtocol::on_cca_result`] fires after the
    /// 8-symbol window with `busy = true` iff energy was present at
    /// any point of the window.
    pub fn start_cca(&mut self) {
        self.world.start_cca_internal(self.node, self.sched);
    }

    /// Arms (or re-arms) a MAC timer `delay` from now. A
    /// fault-injected clock skew on this node shifts the expiry by
    /// the node's offset (its oscillator runs the timer).
    pub fn set_timer(&mut self, kind: MacTimerKind, delay: SimDuration) {
        let i = self.node.index();
        if kind == MacTimerKind::Subslot {
            self.world.sweep.invalidate(i);
        }
        let gen = bump(&mut self.world.nodes.mac_timer_gen[i][kind.index()]);
        let mut at = self.sched.now() + delay;
        if self.world.nodes.skew_any && self.world.nodes.skew_us[i] != 0 {
            at = self.world.skewed_time(i, at);
        }
        self.sched.schedule_at(
            at,
            Event::MacTimer {
                node: self.node,
                kind,
                gen,
            },
        );
    }

    /// Arms the [`MacTimerKind::Subslot`] timer for the subslot
    /// boundary `(frame_index, subslot)` firing at `at` — the
    /// slot-synchronous fast path. The tick normally costs no
    /// scheduler event: it sets the node's bit for that boundary's
    /// sweep, which fires every due node in ascending id through
    /// [`MacProtocol::on_timer`]. Ticks no sweep can take fall back
    /// to the heap. The armed-tick bit in the world's active set
    /// tracks the non-parked population.
    pub fn set_subslot_timer_at(&mut self, at: SimTime, frame_index: u64, subslot: u16) {
        self.world
            .arm_subslot_tick(self.node, at, frame_index, subslot, self.sched);
    }

    /// Is this node's subslot tick currently armed in the world's
    /// active set? A MAC re-arming after a park consults this bit
    /// before arming another tick: arming while a tick is live
    /// replaces that tick, so a MAC whose own flag disagreed with the
    /// world would move its next boundary.
    pub fn subslot_tick_armed(&self) -> bool {
        self.world.nodes.tick_armed.get(self.node.index())
    }

    /// Parks this node's subslot tick: clears its armed-tick bit and
    /// nothing else. A MAC parks from inside the tick that fired, so
    /// no tick of the node is live; [`MacCtx::subslot_tick_armed`]
    /// then reads `false` until the next
    /// [`MacCtx::set_subslot_timer_at`].
    pub fn park_subslot_tick(&mut self) {
        self.world.nodes.tick_armed.set(self.node.index(), false);
    }

    /// Cancels a MAC timer class.
    pub fn cancel_timer(&mut self, kind: MacTimerKind) {
        let i = self.node.index();
        if kind == MacTimerKind::Subslot {
            self.world.sweep.invalidate(i);
        }
        bump(&mut self.world.nodes.mac_timer_gen[i][kind.index()]);
    }

    /// Hands a received frame to the upper layer (after this handler
    /// returns).
    pub fn deliver_to_upper(&mut self, frame: Frame) {
        self.world
            .notices
            .push_back(Notice::DeliverUp(self.node, frame));
    }

    /// Reports the final outcome of a transmission chain to metrics
    /// and the upper layer.
    pub fn notify_tx_result(&mut self, frame: Frame, result: TxResult) {
        self.world.metrics.tx_result(self.node, result);
        self.world
            .notices
            .push_back(Notice::TxResultUp(self.node, frame, result));
    }

    /// Metrics collection.
    pub fn metrics(&mut self) -> &mut MetricsHub {
        &mut self.world.metrics
    }

    /// Is this node currently transmitting?
    pub fn transmitting(&self) -> bool {
        self.world.medium.is_transmitting(self.node.phy())
    }
}

/// Context handed to [`UpperLayer`] methods.
pub struct UpperCtx<'a> {
    world: &'a mut World,
    sched: &'a mut Scheduler<Event>,
    /// The node this context is scoped to.
    pub node: NodeId,
}

impl<'a> UpperCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The shared frame clock.
    pub fn clock(&self) -> &FrameClock {
        self.world.clock()
    }

    /// This node's deterministic RNG (independent of the MAC stream).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.world.nodes.upper_rng[self.node.index()]
    }

    /// Enqueues a frame for contention transmission. Returns `false`
    /// (frame dropped) when the queue is full. The MAC is notified
    /// after this handler returns.
    pub fn enqueue_mac(&mut self, frame: Frame) -> bool {
        let now = self.sched.now();
        let i = self.node.index();
        let ok = self.world.nodes.queue.push(i, frame, now);
        if ok {
            let level = self.world.nodes.queue[i].len();
            if level == 1 {
                self.world.refresh_partner(i);
            }
            self.world.metrics.queue_level(self.node, now, level);
            self.world.notices.push_back(Notice::MacEnqueued(self.node));
        }
        ok
    }

    /// Schedules [`UpperLayer::on_timer`] with `tag` after `delay`.
    /// Upper timers are one-shot and not cancellable; stale-tag
    /// filtering is the upper layer's responsibility. A crash fault
    /// invalidates all of a node's pending upper timers (the rebooted
    /// upper re-seeds its schedule in [`UpperLayer::start`]).
    pub fn schedule(&mut self, delay: SimDuration, tag: u64) {
        let gen = self.world.nodes.upper_gen[self.node.index()];
        self.sched.schedule_in(
            delay,
            Event::UpperTimer {
                node: self.node,
                tag,
                gen,
            },
        );
    }

    /// Transmits a frame directly on the PHY (bypassing the
    /// contention MAC) on `channel` — the DSME CFP/GTS data path.
    /// [`UpperLayer::on_phy_tx_end`] fires when the airtime elapses.
    pub fn phy_tx(&mut self, frame: Frame, channel: u8) {
        self.world
            .start_tx_internal(self.node, frame, channel, TxOrigin::Upper, self.sched);
    }

    /// Is a transmission from this node currently in flight?
    pub fn tx_in_flight(&self) -> bool {
        self.world.nodes.air.on_air(self.node.index())
    }

    /// Retunes this node's receiver (GTS channel hopping).
    pub fn set_listen_channel(&mut self, channel: u8) {
        self.world
            .medium
            .set_listen_channel(self.node.phy(), channel);
    }

    /// Metrics collection.
    pub fn metrics(&mut self) -> &mut MetricsHub {
        &mut self.world.metrics
    }
}

/// Factory signature for per-node MAC construction.
pub type MacFactory<M = Box<dyn MacProtocol>> = Box<dyn Fn(NodeId, &FrameClock) -> M>;
/// Factory signature for per-node upper-layer construction.
pub type UpperFactory<U = Box<dyn UpperLayer>> = Box<dyn Fn(NodeId, &FrameClock) -> U>;

// Forwarding impls: a boxed protocol object is itself a protocol
// object. This is what lets `Sim` be generic over the MAC/upper types
// (enum-based static dispatch on the hot path) while `Box<dyn …>`
// factories — tests, exotic uppers — keep working unchanged.
impl<T: MacProtocol + ?Sized> MacProtocol for Box<T> {
    #[inline]
    fn start(&mut self, ctx: &mut MacCtx<'_>) {
        (**self).start(ctx)
    }
    #[inline]
    fn on_timer(&mut self, ctx: &mut MacCtx<'_>, kind: MacTimerKind) {
        (**self).on_timer(ctx, kind)
    }
    #[inline]
    fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame) {
        (**self).on_frame(ctx, frame)
    }
    #[inline]
    fn on_tx_end(&mut self, ctx: &mut MacCtx<'_>) {
        (**self).on_tx_end(ctx)
    }
    #[inline]
    fn on_cca_result(&mut self, ctx: &mut MacCtx<'_>, busy: bool) {
        (**self).on_cca_result(ctx, busy)
    }
    #[inline]
    fn on_enqueue(&mut self, ctx: &mut MacCtx<'_>) {
        (**self).on_enqueue(ctx)
    }
    #[inline]
    fn on_reboot(&mut self, persist_learning: bool) {
        (**self).on_reboot(persist_learning)
    }
    #[inline]
    fn learner_sample(&self) -> Option<LearnerSample> {
        (**self).learner_sample()
    }
    #[inline]
    fn policy_snapshot(&self) -> Option<Vec<SlotAction>> {
        (**self).policy_snapshot()
    }
}

impl<T: UpperLayer + ?Sized> UpperLayer for Box<T> {
    #[inline]
    fn start(&mut self, ctx: &mut UpperCtx<'_>) {
        (**self).start(ctx)
    }
    #[inline]
    fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, tag: u64) {
        (**self).on_timer(ctx, tag)
    }
    #[inline]
    fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame) {
        (**self).on_deliver(ctx, frame)
    }
    #[inline]
    fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, result: TxResult) {
        (**self).on_tx_result(ctx, frame, result)
    }
    #[inline]
    fn on_phy_tx_end(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, delivered: &[NodeId]) {
        (**self).on_phy_tx_end(ctx, frame, delivered)
    }
}

/// Builder for a [`Sim`].
///
/// Generic over the MAC (`M`) and upper-layer (`U`) types stored per
/// node. The defaults are boxed trait objects, so factories returning
/// `Box<dyn …>` work exactly as before; installing a factory that
/// returns a concrete type (e.g. an enum over all protocol variants)
/// switches the whole event hot path to static dispatch.
pub struct SimBuilder<M = Box<dyn MacProtocol>, U = Box<dyn UpperLayer>> {
    conn: Connectivity,
    channels: u8,
    clock: FrameClock,
    phy: PhyTiming,
    queue_capacity: usize,
    seed: u64,
    mac_factory: Option<MacFactory<M>>,
    upper_factory: UpperFactory<U>,
    node_starts: BTreeMap<u32, SimTime>,
    record_learner: bool,
    fault_plan: Option<crate::faults::FaultPlan>,
    past_clamp_budget: u64,
}

impl SimBuilder {
    /// Starts a builder over a connectivity graph with a master seed.
    pub fn new(conn: Connectivity, seed: u64) -> Self {
        SimBuilder {
            conn,
            channels: 1,
            clock: FrameClock::dsme_so3(),
            phy: PhyTiming::oqpsk_2_4ghz(),
            queue_capacity: 8,
            seed,
            mac_factory: None,
            upper_factory: Box::new(|_, _| Box::new(NullUpper) as Box<dyn UpperLayer>),
            node_starts: BTreeMap::new(),
            record_learner: true,
            fault_plan: None,
            past_clamp_budget: u64::MAX,
        }
    }
}

impl<M: MacProtocol, U: UpperLayer> SimBuilder<M, U> {
    /// Sets the frame clock (default: DSME SO=3 with 54 subslots).
    pub fn clock(mut self, clock: FrameClock) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the number of orthogonal channels (default 1).
    pub fn channels(mut self, channels: u8) -> Self {
        self.channels = channels;
        self
    }

    /// Sets the MAC queue capacity (default 8, as in the paper).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Installs the MAC factory (required). The factory's return type
    /// selects the dispatch mode: a concrete type (enum) gives static
    /// dispatch, `Box<dyn MacProtocol>` the classic dynamic dispatch.
    pub fn mac_factory<M2, F>(self, f: F) -> SimBuilder<M2, U>
    where
        M2: MacProtocol,
        F: Fn(NodeId, &FrameClock) -> M2 + 'static,
    {
        SimBuilder {
            conn: self.conn,
            channels: self.channels,
            clock: self.clock,
            phy: self.phy,
            queue_capacity: self.queue_capacity,
            seed: self.seed,
            mac_factory: Some(Box::new(f)),
            upper_factory: self.upper_factory,
            node_starts: self.node_starts,
            record_learner: self.record_learner,
            fault_plan: self.fault_plan,
            past_clamp_budget: self.past_clamp_budget,
        }
    }

    /// Installs the upper-layer factory (default: no-op upper). Like
    /// [`SimBuilder::mac_factory`], the return type selects static or
    /// dynamic dispatch.
    pub fn upper_factory<U2, F>(self, f: F) -> SimBuilder<M, U2>
    where
        U2: UpperLayer,
        F: Fn(NodeId, &FrameClock) -> U2 + 'static,
    {
        SimBuilder {
            conn: self.conn,
            channels: self.channels,
            clock: self.clock,
            phy: self.phy,
            queue_capacity: self.queue_capacity,
            seed: self.seed,
            mac_factory: self.mac_factory,
            upper_factory: Box::new(f),
            node_starts: self.node_starts,
            record_learner: self.record_learner,
            fault_plan: self.fault_plan,
            past_clamp_budget: self.past_clamp_budget,
        }
    }

    /// Delays a node's activation (e.g. Fig. 12's node C joins the
    /// network 100 s after node A).
    pub fn node_start(mut self, node: NodeId, at: SimTime) -> Self {
        self.node_starts.insert(node.0, at);
        self
    }

    /// Enables/disables learner recording (default on): the per-frame
    /// Σ Q / ρ samples of Fig. 10–12 and the per-subslot action maps
    /// of Fig. 13–15. With it off the metrics hub keeps no slot-action
    /// map (it is built with 0 subslots), so
    /// [`MetricsHub::slot_action_counts`] and
    /// [`MetricsHub::dominant_slot_actions`] report nothing and a
    /// large world skips an `n × subslots` array written on every
    /// decision.
    pub fn record_learner(mut self, on: bool) -> Self {
        self.record_learner = on;
        self
    }

    /// Arms a deterministic fault schedule (see [`crate::faults`]).
    /// The plan's events are scheduled as first-class DES events at
    /// build time; an armed-but-empty plan changes no result
    /// (`tests::armed_empty_plan_changes_nothing`).
    pub fn fault_plan(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Caps the number of past-time schedules (clock-skew faults push
    /// timers into the past, which the scheduler clamps and counts)
    /// before the run aborts with a structured
    /// [`PastClampBudgetExceeded`] error instead of silently
    /// simulating garbage. Default: unlimited. Setting any budget
    /// also switches the scheduler to tolerant clamping (counting
    /// instead of the debug-build panic).
    pub fn past_clamp_budget(mut self, budget: u64) -> Self {
        self.past_clamp_budget = budget;
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if no MAC factory was installed.
    pub fn build(self) -> Sim<M, U> {
        let mac_factory = self.mac_factory.expect("a MAC factory is required");
        let n = self.conn.len();
        let seeds = SeedSequence::new(self.seed);
        let nodes = Nodes {
            queue: TxQueues::new(n, self.queue_capacity),
            partner: vec![NO_SLOT; n],
            energy: vec![EnergyMeter::new(); n],
            power: PowerProfile::default(),
            air: AirPool::new(n),
            cca: (0..n).map(|_| None).collect(),
            cca_gen: vec![0; n],
            mac_timer_gen: vec![[0; MacTimerKind::COUNT]; n],
            tx_gen: vec![0; n],
            upper_gen: vec![0; n],
            skew_us: Vec::new(),
            skew_any: false,
            mac_rng: (0..n)
                .map(|i| seeds.derive(1).derive(i as u64).rng())
                .collect(),
            upper_rng: (0..n)
                .map(|i| seeds.derive(2).derive(i as u64).rng())
                .collect(),
            enabled: ActiveSet::new(n),
            tick_armed: ActiveSet::new(n),
        };
        let neighbor_levels = NeighborLevels::new(&self.conn);
        let subslots = self.clock.subslots();
        let macs: Vec<M> = (0..n)
            .map(|i| mac_factory(NodeId(i as u32), &self.clock))
            .collect();
        let uppers: Vec<U> = (0..n)
            .map(|i| (self.upper_factory)(NodeId(i as u32), &self.clock))
            .collect();

        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::ZERO, Event::Start);
        // BTreeMap order: EnableNode events for nodes sharing a start
        // instant are inserted in node-id order, so heap FIFO
        // tie-breaking is identical in every process.
        for (i, &t) in &self.node_starts {
            if t > SimTime::ZERO {
                sched.schedule_at(t, Event::EnableNode { node: NodeId(*i) });
            }
        }

        // Fault events are heap-scheduled in plan order, so ties at
        // one instant fire in authoring order (see `crate::faults`).
        // A budget or an armed plan declares past-time clamps expected
        // — counted against the budget instead of the debug-build
        // panic.
        if self.past_clamp_budget != u64::MAX || self.fault_plan.is_some() {
            sched.set_clamp_tolerant(true);
        }
        if let Some(plan) = &self.fault_plan {
            for (idx, ev) in plan.events().iter().enumerate() {
                sched.schedule_at(ev.at, Event::Fault { idx: idx as u32 });
            }
        }

        Sim {
            world: World {
                medium: Medium::with_channels(self.conn, self.channels),
                clock: self.clock,
                phy: self.phy,
                nodes,
                neighbor_levels,
                metrics: MetricsHub::new(n, if self.record_learner { subslots } else { 0 }),
                notices: std::collections::VecDeque::new(),
                sweep: TickSweep::new(n),
            },
            macs,
            uppers,
            sched,
            node_starts: self.node_starts,
            record_learner: self.record_learner,
            delivered_scratch: Vec::new(),
            fault_plan: self.fault_plan,
            past_clamp_budget: self.past_clamp_budget,
        }
    }
}

/// A runnable simulation.
///
/// `M` and `U` are the per-node MAC and upper-layer types; see
/// [`SimBuilder`] for how they are chosen.
pub struct Sim<M = Box<dyn MacProtocol>, U = Box<dyn UpperLayer>> {
    world: World,
    macs: Vec<M>,
    uppers: Vec<U>,
    sched: Scheduler<Event>,
    node_starts: BTreeMap<u32, SimTime>,
    record_learner: bool,
    /// Reusable buffer for the enabled clean receivers of a
    /// transmission (the per-`TxEnd` delivered set).
    delivered_scratch: Vec<NodeId>,
    /// The armed fault schedule, if any (see [`crate::faults`]).
    fault_plan: Option<crate::faults::FaultPlan>,
    /// Abort threshold for past-time clamps (`u64::MAX` = unlimited).
    past_clamp_budget: u64,
}

/// A replication exceeded its [`SimBuilder::past_clamp_budget`]:
/// fault-injected clock skew pushed more events into the past than
/// the scenario declared tolerable, so the run aborted instead of
/// silently simulating garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PastClampBudgetExceeded {
    /// Past-time schedules observed when the run aborted.
    pub past_clamps: u64,
    /// The configured budget.
    pub budget: u64,
    /// Simulated time at the abort.
    pub at: SimTime,
}

impl std::fmt::Display for PastClampBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "past-clamp budget exceeded: {} past-time schedules > budget {} at t={:.6}s",
            self.past_clamps,
            self.budget,
            self.at.as_secs_f64()
        )
    }
}

impl std::error::Error for PastClampBudgetExceeded {}

impl<M: MacProtocol, U: UpperLayer> Sim<M, U> {
    /// Runs until simulated time `horizon`, then closes metrics.
    ///
    /// # Panics
    ///
    /// Panics when the [`SimBuilder::past_clamp_budget`] is exceeded
    /// (use [`Sim::try_run_until`] to handle that case as a value).
    pub fn run_until(&mut self, horizon: SimTime) {
        if let Err(e) = self.try_run_until(horizon) {
            panic!("{e}");
        }
    }

    /// Like [`Sim::run_until`], but reports a blown past-clamp budget
    /// as a structured error instead of panicking. Metrics are not
    /// closed on the error path — the replication is garbage by
    /// definition.
    pub fn try_run_until(&mut self, horizon: SimTime) -> Result<(), PastClampBudgetExceeded> {
        struct Driver<'s, M, U> {
            world: &'s mut World,
            macs: &'s mut [M],
            uppers: &'s mut [U],
            node_starts: &'s BTreeMap<u32, SimTime>,
            record_learner: bool,
            /// The armed fault schedule's events (empty when none).
            faults: &'s [crate::faults::FaultEvent],
            /// Enabled clean receivers of the `TxEnd` being handled.
            delivered: &'s mut Vec<NodeId>,
        }

        impl<M: MacProtocol, U: UpperLayer> Driver<'_, M, U> {
            fn enable_node(&mut self, node: NodeId, sched: &mut Scheduler<Event>) {
                self.world.nodes.enabled.set(node.index(), true);
                let mut mctx = MacCtx {
                    world: self.world,
                    sched,
                    node,
                };
                self.macs[node.index()].start(&mut mctx);
                let mut uctx = UpperCtx {
                    world: self.world,
                    sched,
                    node,
                };
                self.uppers[node.index()].start(&mut uctx);
            }

            /// Power-fails a node: radio off, every pending event
            /// generation invalidated, queue contents lost, any
            /// transmission in flight aborted mid-air. MAC and upper
            /// objects keep their (now unreachable) state until the
            /// reboot decides what survives.
            fn crash_node(&mut self, node: NodeId, sched: &mut Scheduler<Event>) {
                let i = node.index();
                if !self.world.nodes.enabled.get(i) {
                    return; // already down (or never started)
                }
                let now = sched.now();
                let nodes = &mut self.world.nodes;
                nodes.enabled.set(i, false);
                nodes.tick_armed.set(i, false);
                self.world.sweep.invalidate(i);
                for g in nodes.mac_timer_gen[i].iter_mut() {
                    bump(g);
                }
                bump(&mut nodes.cca_gen[i]);
                nodes.cca[i] = None;
                bump(&mut nodes.tx_gen[i]);
                bump(&mut nodes.upper_gen[i]);
                if let Some(tx) = nodes.air.end(i) {
                    self.world.medium.abort_tx(tx.token);
                }
                self.world.medium.drop_rx_lock(node.phy());
                let mut lost = 0u64;
                while self.world.nodes.queue.pop(i).is_some() {
                    lost += 1;
                }
                let nodes = &mut self.world.nodes;
                nodes.partner[i] = NO_SLOT;
                nodes.energy[i].set_activity(
                    &nodes.power,
                    now.as_micros(),
                    qma_phy::RadioActivity::Sleep,
                );
                if lost > 0 {
                    // Queue wipe is a *fault* loss, not a MAC drop —
                    // tracked separately so resilience metrics can
                    // attribute it.
                    self.world.metrics.count("fault_frames_lost", lost as f64);
                }
                self.world.metrics.queue_level(node, now, 0);
                self.world.metrics.count("fault_crashes", 1.0);
            }

            /// Brings a crashed node back: volatile MAC state is reset
            /// (policy optionally persisted), then the normal start
            /// sequence runs — the MAC re-arms its tick, the upper
            /// re-seeds its traffic schedule.
            fn reboot_node(
                &mut self,
                node: NodeId,
                persist_learning: bool,
                sched: &mut Scheduler<Event>,
            ) {
                if self.world.nodes.enabled.get(node.index()) {
                    return; // already up
                }
                self.macs[node.index()].on_reboot(persist_learning);
                self.world.metrics.count("fault_reboots", 1.0);
                self.enable_node(node, sched);
            }

            /// Applies one scheduled fault event. Cold by
            /// construction: plans hold a handful of events per run.
            #[cold]
            fn apply_fault(&mut self, idx: u32, sched: &mut Scheduler<Event>) {
                use crate::faults::FaultKind;
                // Reborrow the plan slice outside `self` so the match
                // arms can take `&mut self` freely.
                let faults = self.faults;
                match &faults[idx as usize].kind {
                    FaultKind::Crash { node } => self.crash_node(NodeId(*node), sched),
                    FaultKind::Reboot {
                        node,
                        persist_learning,
                    } => self.reboot_node(NodeId(*node), *persist_learning, sched),
                    FaultKind::JamStart { nodes } => {
                        for &n in nodes {
                            self.world.medium.set_jammed(PhyNodeId(n), true);
                            // A CCA window straddling the jam onset
                            // sees the jammer's energy.
                            if let Some(cca) = &mut self.world.nodes.cca[n as usize] {
                                cca.saw_energy = true;
                            }
                        }
                        self.world.metrics.count("fault_jam_bursts", 1.0);
                    }
                    FaultKind::JamEnd { nodes } => {
                        for &n in nodes {
                            self.world.medium.set_jammed(PhyNodeId(n), false);
                        }
                    }
                    FaultKind::DegradeLinks { links } => {
                        for &(t, r) in links {
                            self.world
                                .medium
                                .set_link_degraded(PhyNodeId(t), PhyNodeId(r), true);
                        }
                        self.world.metrics.count("fault_drift_episodes", 1.0);
                    }
                    FaultKind::RestoreLinks { links } => {
                        for &(t, r) in links {
                            self.world
                                .medium
                                .set_link_degraded(PhyNodeId(t), PhyNodeId(r), false);
                        }
                    }
                    FaultKind::ClockSkew { nodes, offset_us } => {
                        let n_nodes = self.world.nodes.len();
                        let skew_us = &mut self.world.nodes.skew_us;
                        if skew_us.is_empty() {
                            skew_us.resize(n_nodes, 0);
                        }
                        for &n in nodes {
                            skew_us[n as usize] = *offset_us;
                        }
                        if *offset_us != 0 {
                            self.world.nodes.skew_any = true;
                        }
                        self.world.metrics.count("fault_skew_events", 1.0);
                    }
                }
            }

            /// Runs boundary `index`'s sweep: every due node's
            /// [`MacTimerKind::Subslot`] timer, in ascending node id,
            /// each followed by the notice drain `handle` runs after
            /// an event. Ticks armed meanwhile go to the next sweep or
            /// the heap; a due node whose tick goes stale before its
            /// turn (a re-arm, say) is skipped, as its stale event was.
            fn sweep(&mut self, index: u64, sched: &mut Scheduler<Event>) {
                let sweep = &mut self.world.sweep;
                debug_assert_eq!(sweep.pending, Some(index));
                debug_assert_eq!(sweep.sweeping.count(), 0);
                sweep.pending = None;
                sweep.last_swept = Some(index);
                sweep.counts.sweeps += 1;
                sweep.counts.swept_ticks += std::mem::take(&mut sweep.pending_ticks);
                std::mem::swap(&mut sweep.due, &mut sweep.sweeping);
                let mut word = 0;
                while let Some(i) = self.world.sweep.sweeping.pop_lowest(&mut word) {
                    // A crash invalidates the node's swept tick.
                    debug_assert!(self.world.nodes.enabled.get(i));
                    let node = NodeId(i as u32);
                    let mut ctx = MacCtx {
                        world: self.world,
                        sched,
                        node,
                    };
                    self.macs[i].on_timer(&mut ctx, MacTimerKind::Subslot);
                    if !self.world.notices.is_empty() {
                        self.drain_notices(sched);
                    }
                }
            }

            /// Cold outlined part of notice draining; the hot per-event
            /// check is the inline `is_empty` in `handle`.
            fn drain_notices(&mut self, sched: &mut Scheduler<Event>) {
                while let Some(notice) = self.world.notices.pop_front() {
                    match notice {
                        Notice::DeliverUp(node, frame) => {
                            let mut ctx = UpperCtx {
                                world: self.world,
                                sched,
                                node,
                            };
                            self.uppers[node.index()].on_deliver(&mut ctx, &frame);
                        }
                        Notice::TxResultUp(node, frame, result) => {
                            let mut ctx = UpperCtx {
                                world: self.world,
                                sched,
                                node,
                            };
                            self.uppers[node.index()].on_tx_result(&mut ctx, &frame, result);
                        }
                        Notice::MacEnqueued(node) => {
                            let mut ctx = MacCtx {
                                world: self.world,
                                sched,
                                node,
                            };
                            self.macs[node.index()].on_enqueue(&mut ctx);
                        }
                        Notice::UpperPhyTxEnd(node, frame, delivered) => {
                            let mut ctx = UpperCtx {
                                world: self.world,
                                sched,
                                node,
                            };
                            self.uppers[node.index()].on_phy_tx_end(&mut ctx, &frame, &delivered);
                        }
                    }
                }
            }

            /// Processes one event occurring at `now`.
            fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
                match event {
                    Event::Start => {
                        let n = self.world.nodes.len();
                        for i in 0..n {
                            let node = NodeId(i as u32);
                            let starts_later = self
                                .node_starts
                                .get(&node.0)
                                .map(|&t| t > SimTime::ZERO)
                                .unwrap_or(false);
                            if !starts_later {
                                self.enable_node(node, sched);
                            }
                        }
                        if self.record_learner {
                            sched.schedule_in(
                                self.world.clock.frame_duration(),
                                Event::FrameBoundary,
                            );
                        }
                    }
                    Event::EnableNode { node } => {
                        self.enable_node(node, sched);
                    }
                    Event::FrameBoundary => {
                        // Cache-linear sweep over the enabled set —
                        // word-at-a-time over the active-set bitmap,
                        // not an n-wide scan.
                        let enabled = std::mem::take(&mut self.world.nodes.enabled);
                        for i in enabled.iter() {
                            if let Some(sample) = self.macs[i].learner_sample() {
                                self.world
                                    .metrics
                                    .learner_sample(NodeId(i as u32), now, sample);
                            }
                        }
                        self.world.nodes.enabled = enabled;
                        sched.schedule_in(self.world.clock.frame_duration(), Event::FrameBoundary);
                    }
                    Event::MacTimer { node, kind, gen } => {
                        let i = node.index();
                        if !self.world.nodes.enabled.get(i)
                            || self.world.nodes.mac_timer_gen[i][kind.index()] != gen
                        {
                            return;
                        }
                        let mut ctx = MacCtx {
                            world: self.world,
                            sched,
                            node,
                        };
                        self.macs[i].on_timer(&mut ctx, kind);
                    }
                    Event::UpperTimer { node, tag, gen } => {
                        if !self.world.nodes.enabled.get(node.index())
                            || self.world.nodes.upper_gen[node.index()] != gen
                        {
                            return;
                        }
                        let mut ctx = UpperCtx {
                            world: self.world,
                            sched,
                            node,
                        };
                        self.uppers[node.index()].on_timer(&mut ctx, tag);
                    }
                    Event::TxEnd { node, gen } => {
                        if self.world.nodes.tx_gen[node.index()] != gen {
                            // The frame was aborted mid-air by a
                            // crash fault; the medium already
                            // reconciled its energy.
                            return;
                        }
                        let nodes = &mut self.world.nodes;
                        let OnAir {
                            token,
                            frame,
                            origin,
                        } = nodes
                            .air
                            .end(node.index())
                            .expect("TxEnd without in-flight frame");
                        nodes.energy[node.index()].set_activity(
                            &nodes.power,
                            now.as_micros(),
                            qma_phy::RadioActivity::Listen,
                        );
                        // `end_tx` hands back a slice of the medium's
                        // scratch buffer; the enabled-filtered copy
                        // lives in the driver's reusable buffer — no
                        // allocation on this path.
                        let clean = self.world.medium.end_tx(token);
                        self.delivered.clear();
                        self.delivered.extend(
                            clean
                                .iter()
                                .map(|p| NodeId(p.0))
                                .filter(|r| self.world.nodes.enabled.get(r.index())),
                        );

                        // Queue-level piggyback: every frame is
                        // stamped with its sender's queue level at
                        // transmission time, so receivers track the
                        // backlog of all audible neighbours — data
                        // frames as in the paper (§4.2), plus ACKs,
                        // which keeps a pure sink's (empty) level
                        // visible and lets a draining forwarder
                        // release its neighbours' exploration.
                        for &r in self.delivered.iter() {
                            self.world.neighbor_levels.set(
                                r.index(),
                                frame.src.0,
                                frame.queue_level,
                                now,
                            );
                        }

                        match origin {
                            TxOrigin::Mac => {
                                let mut ctx = MacCtx {
                                    world: self.world,
                                    sched,
                                    node,
                                };
                                self.macs[node.index()].on_tx_end(&mut ctx);
                            }
                            TxOrigin::Upper => {
                                // Cold path (DSME CFP/GTS data): the
                                // notice needs owned copies because
                                // the overhearing loop below still
                                // reads the originals.
                                self.world.notices.push_back(Notice::UpperPhyTxEnd(
                                    node,
                                    frame.clone(),
                                    self.delivered.clone(),
                                ));
                            }
                        }

                        for k in 0..self.delivered.len() {
                            let r = self.delivered[k];
                            let mut ctx = MacCtx {
                                world: self.world,
                                sched,
                                node: r,
                            };
                            self.macs[r.index()].on_frame(&mut ctx, &frame);
                        }
                    }
                    Event::CcaEnd { node, gen } => {
                        let cca = &mut self.world.nodes.cca[node.index()];
                        let valid = cca.as_ref().map(|c| c.gen == gen).unwrap_or(false);
                        if !valid {
                            return;
                        }
                        let saw = cca.take().expect("checked above").saw_energy;
                        let busy = saw || self.world.medium.is_busy(node.phy());
                        if !self.world.nodes.enabled.get(node.index()) {
                            return;
                        }
                        let mut ctx = MacCtx {
                            world: self.world,
                            sched,
                            node,
                        };
                        self.macs[node.index()].on_cca_result(&mut ctx, busy);
                    }
                    Event::Sweep { index } => self.sweep(index, sched),
                    Event::Fault { idx } => {
                        self.apply_fault(idx, sched);
                    }
                }
                if !self.world.notices.is_empty() {
                    self.drain_notices(sched);
                }
            }
        }

        let mut driver = Driver {
            world: &mut self.world,
            macs: &mut self.macs,
            uppers: &mut self.uppers,
            node_starts: &self.node_starts,
            record_learner: self.record_learner,
            faults: self.fault_plan.as_ref().map(|p| p.events()).unwrap_or(&[]),
            delivered: &mut self.delivered_scratch,
        };
        let sched = &mut self.sched;
        let clamp_budget = self.past_clamp_budget;
        loop {
            // One load + compare per event; with the default unlimited
            // budget the branch never takes.
            if sched.past_clamps() > clamp_budget {
                return Err(PastClampBudgetExceeded {
                    past_clamps: sched.past_clamps(),
                    budget: clamp_budget,
                    at: sched.now(),
                });
            }
            match sched.pop_at_or_before(horizon) {
                Some(entry) => driver.handle(entry.time, entry.event, sched),
                None => break,
            }
        }
        self.world.metrics.close(horizon);
        Ok(())
    }

    /// Runs for a duration from the current simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let horizon = self.sched.now() + d;
        self.run_until(horizon);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total number of simulation events processed so far (the
    /// numerator of events/sec throughput). A boundary sweep counts
    /// as the ticks it stood for, not as one event, so the count is
    /// what one event per subslot tick would give.
    pub fn events_processed(&self) -> u64 {
        let c = self.engine_counts();
        c.pops - c.sweeps + c.swept_ticks
    }

    /// How the engine ran subslot ticks so far (see [`EngineCounts`]).
    pub fn engine_counts(&self) -> EngineCounts {
        EngineCounts {
            pops: self.sched.popped_total(),
            ..self.world.sweep.counts
        }
    }

    /// Past-time schedules clamped so far (clock-skew faults; see
    /// [`SimBuilder::past_clamp_budget`]).
    pub fn past_clamps(&self) -> u64 {
        self.sched.past_clamps()
    }

    /// The armed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&crate::faults::FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The metrics hub.
    pub fn metrics(&self) -> &MetricsHub {
        &self.world.metrics
    }

    /// Mutable metrics access (window resets).
    pub fn metrics_mut(&mut self) -> &mut MetricsHub {
        &mut self.world.metrics
    }

    /// Restarts the queue-level averaging of every node at the
    /// current time (to exclude a warmup phase from time-weighted
    /// queue metrics).
    pub fn reset_queue_accounting(&mut self) {
        let now = self.sched.now();
        for i in 0..self.world.nodes.len() {
            let level = self.world.nodes.queue[i].len();
            self.world
                .metrics
                .restart_queue_accounting(NodeId(i as u32), now, level);
        }
    }

    /// The world (tests, assertions).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Energy report for a node up to the current time.
    pub fn energy_report(&mut self, node: NodeId) -> EnergyReport {
        let now = self.sched.now();
        self.world.energy_report(node, now)
    }

    /// A MAC's current policy snapshot (learning MACs only).
    pub fn policy_snapshot(&self, node: NodeId) -> Option<Vec<SlotAction>> {
        self.macs[node.index()].policy_snapshot()
    }

    /// A MAC's current learner sample (learning MACs only).
    pub fn learner_sample(&self, node: NodeId) -> Option<LearnerSample> {
        self.macs[node.index()].learner_sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Address;

    /// A MAC that transmits its queue head immediately on enqueue and
    /// delivers received frames upward. No ACKs, no backoff.
    struct NaiveMac;

    impl MacProtocol for NaiveMac {
        fn start(&mut self, _: &mut MacCtx<'_>) {}
        fn on_timer(&mut self, _: &mut MacCtx<'_>, _: MacTimerKind) {}
        fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame) {
            if frame.dst.is_for(ctx.node) {
                ctx.deliver_to_upper(frame.clone());
            }
        }
        fn on_tx_end(&mut self, ctx: &mut MacCtx<'_>) {
            let frame = ctx.pop_queue().map(|q| q.frame);
            if let Some(f) = frame {
                ctx.notify_tx_result(f, TxResult::Delivered);
            }
            // Keep draining the queue back-to-back.
            if let Some(next) = ctx.queue_head().map(|q| q.frame.clone()) {
                ctx.start_tx(next);
            }
        }
        fn on_cca_result(&mut self, _: &mut MacCtx<'_>, _: bool) {}
        fn on_enqueue(&mut self, ctx: &mut MacCtx<'_>) {
            if !ctx.transmitting() {
                let f = ctx.queue_head().expect("just enqueued").frame.clone();
                ctx.start_tx(f);
            }
        }
    }

    /// Upper layer that sends `count` frames to node 1 at start and
    /// counts deliveries.
    struct Sender {
        count: u32,
    }

    impl UpperLayer for Sender {
        fn start(&mut self, ctx: &mut UpperCtx<'_>) {
            if ctx.node == NodeId(0) {
                for s in 0..self.count {
                    let f = Frame::data(ctx.node, Address::Node(NodeId(1)), s, 20, false);
                    ctx.enqueue_mac(f);
                }
            }
        }
        fn on_timer(&mut self, _: &mut UpperCtx<'_>, _: u64) {}
        fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, _: &Frame) {
            ctx.metrics().count("received", 1.0);
        }
        fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
    }

    fn two_node_sim(count: u32) -> Sim<Box<NaiveMac>, Box<Sender>> {
        SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(move |_, _| Box::new(Sender { count }))
            .build()
    }

    #[test]
    fn frames_flow_end_to_end() {
        let mut sim = two_node_sim(3);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().get("received"), 3.0);
        assert_eq!(sim.metrics().mac(NodeId(0)).tx_attempts, 3);
        assert_eq!(sim.metrics().mac(NodeId(0)).tx_delivered, 3);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let mut a = two_node_sim(5);
        let mut b = two_node_sim(5);
        a.run_for(SimDuration::from_secs(2));
        b.run_for(SimDuration::from_secs(2));
        assert_eq!(a.metrics().get("received"), b.metrics().get("received"));
        assert_eq!(
            a.metrics().mac(NodeId(0)).tx_attempts,
            b.metrics().mac(NodeId(0)).tx_attempts
        );
    }

    #[test]
    fn delayed_node_start() {
        struct StartProbe;
        impl UpperLayer for StartProbe {
            fn start(&mut self, ctx: &mut UpperCtx<'_>) {
                let t = ctx.now().as_secs_f64();
                let node = ctx.node;
                ctx.metrics().count_node("started_at", node, t);
            }
            fn on_timer(&mut self, _: &mut UpperCtx<'_>, _: u64) {}
            fn on_deliver(&mut self, _: &mut UpperCtx<'_>, _: &Frame) {}
            fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
        }
        let mut sim = SimBuilder::new(Connectivity::full(2), 1)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(|_, _| Box::new(StartProbe))
            .node_start(NodeId(1), SimTime::from_secs(5))
            .build();
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(sim.metrics().get_node("started_at", NodeId(0)), 0.0);
        assert_eq!(sim.metrics().get_node("started_at", NodeId(1)), 5.0);
    }

    #[test]
    fn queue_levels_recorded() {
        let mut sim = two_node_sim(4);
        sim.run_for(SimDuration::from_secs(1));
        // Queue rose to 4 then drained; average must be positive but
        // far below capacity.
        let avg = sim.metrics().avg_queue_level(NodeId(0));
        assert!(avg > 0.0 && avg < 1.0, "avg {avg}");
    }

    #[test]
    fn energy_reports_accumulate_tx_time() {
        let mut sim = two_node_sim(5);
        sim.run_for(SimDuration::from_secs(1));
        let r0 = sim.energy_report(NodeId(0));
        assert_eq!(r0.tx_attempts, 5);
        assert!(r0.transmit_us > 0);
        let r1 = sim.energy_report(NodeId(1));
        assert_eq!(r1.tx_attempts, 0);
        assert_eq!(r1.transmit_us, 0);
    }

    #[test]
    fn neighbor_queue_piggyback() {
        // After node 0 transmits with a backlog, node 1 must know it.
        struct Probe;
        impl UpperLayer for Probe {
            fn start(&mut self, ctx: &mut UpperCtx<'_>) {
                if ctx.node == NodeId(0) {
                    for s in 0..4 {
                        let f = Frame::data(ctx.node, Address::Node(NodeId(1)), s, 20, false);
                        ctx.enqueue_mac(f);
                    }
                }
            }
            fn on_timer(&mut self, _: &mut UpperCtx<'_>, _: u64) {}
            fn on_deliver(&mut self, _: &mut UpperCtx<'_>, _: &Frame) {}
            fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
        }
        let mut sim = SimBuilder::new(Connectivity::full(2), 3)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(|_, _| Box::new(Probe))
            .build();
        sim.run_for(SimDuration::from_millis(3));
        // Node 1 heard at least the first frame, which carried
        // node 0's then-current queue level (3 remaining).
        // queue_diff at node 1: local 0 − neighbour 3-ish < 0.
        // (Direct access via world for the assertion.)
        let level = sim
            .world()
            .neighbor_level(NodeId(1), NodeId(0))
            .map(|(v, _)| v);
        assert!(level.is_some(), "piggyback missing");
        assert!(level.unwrap() >= 1);
    }

    #[test]
    fn crash_wipes_queue_and_reboot_restarts() {
        use crate::faults::FaultPlan;
        let mut sim = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(move |_, _| Box::new(Sender { count: 5 }))
            .fault_plan(FaultPlan::new().crash_reboot(
                0,
                SimTime::from_millis(1),
                SimDuration::from_millis(9),
                true,
            ))
            .build();
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.metrics().get("fault_crashes"), 1.0);
        assert_eq!(sim.metrics().get("fault_reboots"), 1.0);
        // The crash caught node 0 with a backlog: those frames are
        // fault losses, not MAC drops.
        assert!(sim.metrics().get("fault_frames_lost") >= 1.0);
        assert_eq!(sim.world().queue(NodeId(0)).drops(), 0);
        // The reboot re-ran the upper's start, so a fresh batch of 5
        // flowed end-to-end after the outage.
        assert!(sim.metrics().get("received") >= 5.0);
        assert!(sim.world().is_enabled(NodeId(0)));
    }

    #[test]
    fn crash_of_transmitter_mid_air_aborts_cleanly() {
        use crate::faults::FaultPlan;
        // 20-octet frame airtime is ~1 ms; crash node 0 at 200 µs —
        // mid-flight. The stale TxEnd must be swallowed by the tx
        // generation gate, the medium's energy reconciled.
        let mut sim = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(move |_, _| Box::new(Sender { count: 1 }))
            .fault_plan(FaultPlan::new().push(
                SimTime::from_micros(200),
                crate::faults::FaultKind::Crash { node: 0 },
            ))
            .build();
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(sim.metrics().get("received"), 0.0);
        assert!(!sim.world().is_enabled(NodeId(0)));
        assert!(!sim.world().medium().is_busy(qma_phy::PhyNodeId(1)));
        assert_eq!(sim.world().medium().active_count(), 0);
    }

    #[test]
    fn jammed_receiver_gets_nothing() {
        use crate::faults::FaultPlan;
        let mut sim = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(move |_, _| Box::new(Sender { count: 3 }))
            .fault_plan(FaultPlan::new().jam(vec![1], SimTime::ZERO, SimDuration::from_secs(1)))
            .build();
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.metrics().get("fault_jam_bursts"), 1.0);
        assert_eq!(sim.metrics().get("received"), 0.0, "jam must block rx");
        assert!(sim.world().medium().is_jammed(qma_phy::PhyNodeId(1)));
    }

    /// A MAC that re-arms a 1 ms timer forever — the victim for the
    /// clock-skew / past-clamp budget tests.
    struct TickerMac;
    impl MacProtocol for TickerMac {
        fn start(&mut self, ctx: &mut MacCtx<'_>) {
            ctx.set_timer(MacTimerKind::Backoff, SimDuration::from_millis(1));
        }
        fn on_timer(&mut self, ctx: &mut MacCtx<'_>, _: MacTimerKind) {
            ctx.set_timer(MacTimerKind::Backoff, SimDuration::from_millis(1));
        }
        fn on_frame(&mut self, _: &mut MacCtx<'_>, _: &Frame) {}
        fn on_tx_end(&mut self, _: &mut MacCtx<'_>) {}
        fn on_cca_result(&mut self, _: &mut MacCtx<'_>, _: bool) {}
        fn on_enqueue(&mut self, _: &mut MacCtx<'_>) {}
    }

    #[test]
    fn negative_skew_trips_past_clamp_budget() {
        use crate::faults::FaultPlan;
        // A −10 ms skew on a 1 ms re-arm pushes every expiry into the
        // past: simulated time stops advancing and clamps pile up.
        // The budget aborts the run instead of looping forever.
        let mut sim = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(TickerMac))
            .fault_plan(FaultPlan::new().clock_skew(vec![0], SimTime::from_millis(5), -10_000))
            .past_clamp_budget(50)
            .build();
        let err = sim
            .try_run_until(SimTime::from_millis(100))
            .expect_err("budget must trip");
        assert!(err.past_clamps > 50);
        assert_eq!(err.budget, 50);
        assert!(err.to_string().contains("past-clamp budget exceeded"));
    }

    #[test]
    fn positive_skew_only_delays_timers() {
        use crate::faults::FaultPlan;
        let mut sim = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(TickerMac))
            .fault_plan(FaultPlan::new().clock_skew(vec![0], SimTime::from_millis(5), 2_500))
            .past_clamp_budget(0)
            .build();
        sim.try_run_until(SimTime::from_millis(100))
            .expect("positive skew never clamps");
        assert_eq!(sim.past_clamps(), 0);
    }

    #[test]
    fn armed_empty_plan_changes_nothing() {
        use crate::faults::FaultPlan;
        let mut plain = two_node_sim(5);
        let mut armed = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(move |_, _| Box::new(Sender { count: 5 }))
            .fault_plan(FaultPlan::new())
            .build();
        plain.run_for(SimDuration::from_secs(2));
        armed.run_for(SimDuration::from_secs(2));
        assert_eq!(
            plain.metrics().get("received"),
            armed.metrics().get("received")
        );
        assert_eq!(plain.events_processed(), armed.events_processed());
    }

    /// Arms one subslot tick at start, which node 0 cancels at once;
    /// node 1 re-arms once for the boundary it is ticking on.
    struct SweepProbe;
    impl MacProtocol for SweepProbe {
        fn start(&mut self, ctx: &mut MacCtx<'_>) {
            let (at, frame, subslot) = ctx.clock().next_subslot_start(ctx.now());
            ctx.set_subslot_timer_at(at, frame, subslot);
            if ctx.node == NodeId(0) {
                ctx.cancel_timer(MacTimerKind::Subslot);
            }
        }
        fn on_timer(&mut self, ctx: &mut MacCtx<'_>, _: MacTimerKind) {
            let node = ctx.node;
            ctx.metrics().count_node("ticks", node, 1.0);
            if ctx.metrics().get_node("ticks", node) == 1.0 {
                let now = ctx.now();
                let pos = ctx.clock().position(now);
                ctx.set_subslot_timer_at(now, pos.frame_index, pos.subslot.expect("a boundary"));
            }
        }
        fn on_frame(&mut self, _: &mut MacCtx<'_>, _: &Frame) {}
        fn on_tx_end(&mut self, _: &mut MacCtx<'_>) {}
        fn on_cca_result(&mut self, _: &mut MacCtx<'_>, _: bool) {}
        fn on_enqueue(&mut self, _: &mut MacCtx<'_>) {}
    }

    #[test]
    fn sweep_skips_cancelled_ticks_but_counts_them() {
        let mut sim = SimBuilder::new(Connectivity::full(2), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(SweepProbe))
            .build();
        sim.run_for(SimDuration::from_millis(5));
        // Node 0's cancelled tick never fires; node 1's re-arm for the
        // boundary whose sweep already ran takes the heap.
        assert_eq!(sim.metrics().get_node("ticks", NodeId(0)), 0.0);
        assert_eq!(sim.metrics().get_node("ticks", NodeId(1)), 2.0);
        let c = sim.engine_counts();
        assert_eq!(
            (c.pops, c.sweeps, c.swept_ticks, c.heap_ticks),
            (3, 1, 2, 1)
        );
        // Start, the two swept ticks (one of them stale, as its event
        // was when every tick had one) and the heap tick.
        assert_eq!(sim.events_processed(), 4);
    }

    /// Sends its queue head by head, like [`NaiveMac`], and checks at
    /// every head change that the world's partner slot is the one a
    /// fresh search finds.
    struct SlotProbe;

    impl SlotProbe {
        fn check(ctx: &MacCtx<'_>) {
            let i = ctx.node.index();
            let fresh = ctx
                .world
                .neighbor_levels
                .partner_slot(i, ctx.queue().head_info());
            assert_eq!(ctx.world.nodes.partner[i], fresh, "partner slot of {i}");
        }

        fn send_head(ctx: &mut MacCtx<'_>) {
            Self::check(ctx);
            if let Some(head) = ctx.queue_head().map(|q| q.frame.clone()) {
                ctx.start_tx(head);
            }
        }
    }

    impl MacProtocol for SlotProbe {
        fn start(&mut self, _: &mut MacCtx<'_>) {}
        fn on_timer(&mut self, _: &mut MacCtx<'_>, _: MacTimerKind) {}
        fn on_frame(&mut self, _: &mut MacCtx<'_>, _: &Frame) {}
        fn on_tx_end(&mut self, ctx: &mut MacCtx<'_>) {
            ctx.pop_queue();
            ctx.metrics().count("pops", 1.0);
            Self::send_head(ctx);
        }
        fn on_cca_result(&mut self, _: &mut MacCtx<'_>, _: bool) {}
        fn on_enqueue(&mut self, ctx: &mut MacCtx<'_>) {
            if !ctx.transmitting() {
                Self::send_head(ctx);
            }
        }
    }

    #[test]
    fn partner_slot_follows_the_head_across_destinations() {
        // Node 0 hears 1 but not 2; its queue mixes a heard partner,
        // an unheard one and broadcasts, so every pop changes which
        // slot the head needs.
        struct Mixed;
        impl UpperLayer for Mixed {
            fn start(&mut self, ctx: &mut UpperCtx<'_>) {
                if ctx.node == NodeId(0) {
                    let dsts = [1, 2, u32::MAX, 1, 1, 2];
                    for (seq, &d) in dsts.iter().enumerate() {
                        let dst = match d {
                            u32::MAX => Address::Broadcast,
                            d => Address::Node(NodeId(d)),
                        };
                        ctx.enqueue_mac(Frame::data(ctx.node, dst, seq as u32, 20, false));
                    }
                }
            }
            fn on_timer(&mut self, _: &mut UpperCtx<'_>, _: u64) {}
            fn on_deliver(&mut self, _: &mut UpperCtx<'_>, _: &Frame) {}
            fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
        }
        let conn = Connectivity::explicit(3, &[(1, 0), (0, 1), (0, 2)]);
        let mut sim = SimBuilder::new(conn, 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(SlotProbe))
            .upper_factory(|_, _| Box::new(Mixed))
            .build();
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.metrics().get("pops"), 6.0);
        assert_eq!(sim.world().nodes.partner[0], NO_SLOT);
    }

    /// Arms a heap subslot tick and supersedes it with a swept one 2 ms
    /// on, arms an ACK timeout and supersedes it, and starts a CCA
    /// twice; counts what fires and when.
    struct WrapProbe;
    impl MacProtocol for WrapProbe {
        fn start(&mut self, ctx: &mut MacCtx<'_>) {
            ctx.set_timer(MacTimerKind::Subslot, SimDuration::from_millis(1));
            let (at, frame, subslot) = ctx
                .clock()
                .next_subslot_start(ctx.now() + SimDuration::from_millis(2));
            ctx.set_subslot_timer_at(at, frame, subslot);
            ctx.set_timer(MacTimerKind::AckTimeout, SimDuration::from_millis(1));
            ctx.set_timer(MacTimerKind::AckTimeout, SimDuration::from_millis(2));
            ctx.start_cca();
            ctx.start_cca();
        }
        fn on_timer(&mut self, ctx: &mut MacCtx<'_>, kind: MacTimerKind) {
            let (count, at) = match kind {
                MacTimerKind::Subslot => ("ticks", "tick_at_us"),
                MacTimerKind::AckTimeout => ("ack_timeouts", "ack_timeout_at_us"),
                _ => ("other_timers", "other_at_us"),
            };
            let (node, now) = (ctx.node, ctx.now().as_micros() as f64);
            ctx.metrics().count_node(count, node, 1.0);
            ctx.metrics().count_node(at, node, now);
        }
        fn on_frame(&mut self, _: &mut MacCtx<'_>, _: &Frame) {}
        fn on_tx_end(&mut self, _: &mut MacCtx<'_>) {}
        fn on_cca_result(&mut self, ctx: &mut MacCtx<'_>, _: bool) {
            let node = ctx.node;
            ctx.metrics().count_node("cca_results", node, 1.0);
        }
        fn on_enqueue(&mut self, _: &mut MacCtx<'_>) {}
    }

    #[test]
    fn timer_generations_wrap_past_u32_max() {
        // Every generation starts one below the wrap: the first arm
        // takes u32::MAX and the re-arm wraps to 0 (an unwrapped
        // `+= 1` panics there in a debug build).
        let clock = FrameClock::all_cap(10, 1_000);
        let mut sim = SimBuilder::new(Connectivity::full(1), 7)
            .clock(clock)
            .mac_factory(|_, _| Box::new(WrapProbe))
            .build();
        let nodes = &mut sim.world.nodes;
        nodes.mac_timer_gen[0] = [u32::MAX - 1; MacTimerKind::COUNT];
        nodes.cca_gen[0] = u32::MAX - 1;
        sim.run_for(SimDuration::from_millis(20));
        let m = sim.metrics();
        let node = NodeId(0);
        // The superseded tick, ACK timeout and CCA are dropped; each
        // re-armed one fires once, at its own time.
        let (tick_at, _, _) = clock.next_subslot_start(SimTime::from_millis(2));
        assert_eq!(m.get_node("ticks", node), 1.0);
        assert_eq!(m.get_node("tick_at_us", node), tick_at.as_micros() as f64);
        assert_eq!(m.get_node("ack_timeouts", node), 1.0);
        assert_eq!(m.get_node("ack_timeout_at_us", node), 2_000.0);
        assert_eq!(m.get_node("other_timers", node), 0.0);
        assert_eq!(m.get_node("cca_results", node), 1.0);
        let nodes = &sim.world.nodes;
        assert_eq!(nodes.mac_timer_gen[0][MacTimerKind::Subslot.index()], 0);
        assert_eq!(nodes.mac_timer_gen[0][MacTimerKind::AckTimeout.index()], 0);
        assert_eq!(nodes.cca_gen[0], 0);
    }

    /// Nodes 0 and 1 put one frame straight on the PHY at start, as a
    /// DSME GTS does, and arm a 5 ms timer; counts what fires and
    /// whether `tx_in_flight` read true before and after the send.
    struct AirProbe;
    impl UpperLayer for AirProbe {
        fn start(&mut self, ctx: &mut UpperCtx<'_>) {
            let node = ctx.node;
            if node == NodeId(2) {
                return;
            }
            if ctx.tx_in_flight() {
                ctx.metrics().count_node("busy_before_send", node, 1.0);
            }
            ctx.phy_tx(Frame::data(node, Address::Broadcast, 0, 20, false), 0);
            if ctx.tx_in_flight() {
                ctx.metrics().count_node("sends", node, 1.0);
            }
            ctx.schedule(SimDuration::from_millis(5), 0);
        }
        fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, _: u64) {
            let node = ctx.node;
            ctx.metrics().count_node("timers", node, 1.0);
        }
        fn on_deliver(&mut self, _: &mut UpperCtx<'_>, _: &Frame) {}
        fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
        fn on_phy_tx_end(&mut self, ctx: &mut UpperCtx<'_>, _: &Frame, _: &[NodeId]) {
            let node = ctx.node;
            ctx.metrics().count_node("tx_ends", node, 1.0);
        }
    }

    #[test]
    fn air_pool_frees_a_crashed_transmitters_entry() {
        use crate::faults::FaultPlan;
        // A 20-octet frame is on the air for about 1 ms. Node 0 crashes
        // 200 µs into its frame and reboots at 3 ms. Its TX and upper
        // generations start at u32::MAX, so the send wraps the TX one
        // and the crash the upper one.
        let mut sim = SimBuilder::new(Connectivity::full(3), 7)
            .clock(FrameClock::all_cap(10, 1_000))
            .mac_factory(|_, _| Box::new(NaiveMac))
            .upper_factory(|_, _| Box::new(AirProbe))
            .fault_plan(FaultPlan::new().crash_reboot(
                0,
                SimTime::from_micros(200),
                SimDuration::from_micros(2_800),
                false,
            ))
            .build();
        sim.world.nodes.tx_gen[0] = u32::MAX;
        sim.world.nodes.upper_gen[0] = u32::MAX;
        let (n0, n1) = (NodeId(0), NodeId(1));

        sim.run_until(SimTime::from_micros(100));
        let air = &sim.world.nodes.air;
        assert_eq!(air.entries.len(), 2, "two frames on the air");
        assert!(air.on_air(0) && air.on_air(1) && !air.on_air(2));

        // The crash freed node 0's entry; its stale TxEnd was ignored.
        sim.run_until(SimTime::from_millis(2));
        let air = &sim.world.nodes.air;
        assert!(!air.on_air(0) && !air.on_air(1));
        assert_eq!(sim.metrics().get_node("tx_ends", n0), 0.0);
        assert_eq!(sim.metrics().get_node("tx_ends", n1), 1.0);

        // The rebooted node sends again from a freed entry.
        sim.run_until(SimTime::from_micros(3_100));
        let air = &sim.world.nodes.air;
        assert!(air.on_air(0));
        assert_eq!(air.entries.len(), 2);

        sim.run_until(SimTime::from_millis(20));
        let m = sim.metrics();
        assert_eq!(m.get_node("busy_before_send", n0), 0.0);
        assert_eq!(m.get_node("sends", n0), 2.0);
        assert_eq!(m.get_node("tx_ends", n0), 1.0);
        // The timer armed before the crash is dropped; the one armed
        // after the reboot fires once.
        assert_eq!(m.get_node("timers", n0), 1.0);
        assert_eq!(m.get_node("timers", n1), 1.0);
        let air = &sim.world.nodes.air;
        assert!(!air.on_air(0));
        assert_eq!(air.entries.len(), 2);
        assert_eq!(sim.world.nodes.tx_gen[0], 2);
        assert_eq!(sim.world.nodes.upper_gen[0], 0);
        assert_eq!(sim.world().medium().active_count(), 0);
    }

    #[test]
    fn active_set_tracks_bits_and_iterates() {
        let mut s = ActiveSet::new(200);
        assert_eq!(s.count(), 0);
        for i in [0usize, 63, 64, 130, 199] {
            s.set(i, true);
        }
        s.set(64, true); // idempotent
        assert_eq!(s.count(), 5);
        assert!(s.get(63) && s.get(64) && !s.get(65));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 130, 199]);
        s.set(63, false);
        s.set(63, false); // idempotent
        assert_eq!(s.count(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 130, 199]);
        // Draining pops ascending and skips a bit cleared meanwhile.
        let mut word = 0;
        assert_eq!(s.pop_lowest(&mut word), Some(0));
        s.set(130, false);
        assert_eq!(s.pop_lowest(&mut word), Some(64));
        assert_eq!(s.pop_lowest(&mut word), Some(199));
        assert_eq!(s.pop_lowest(&mut word), None);
        assert_eq!(s.count(), 0);
    }

    /// The CSR table and the partner slot against a map model.
    mod neighbor_levels_model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// A head frame addressed to `dst`.
        fn unicast_head(dst: u32) -> HeadInfo {
            HeadInfo {
                dst: Address::Node(NodeId(dst)),
                ..HeadInfo::default()
            }
        }

        proptest! {
            /// Random connectivities: up to 96 random directed edges,
            /// an empty row (the last node), a 1-entry row (the one
            /// before it) and, in about half the cases, a hidden star
            /// whose sink hears 1,000–1,100 sources that each hear
            /// only the sink. Random `set`s, then every row, `get`
            /// and the partner slot are checked against a map keyed
            /// by `(rx, src)`.
            #[test]
            fn levels_match_a_map_model(
                star in any::<bool>(),
                leaves in 1_000usize..=1_100,
                small in 3usize..=24,
                edges in prop::collection::vec((any::<u16>(), any::<u16>()), 0..=96),
                sets in prop::collection::vec(
                    (any::<u16>(), any::<u16>(), any::<u8>(), 0u64..=10_000_000, any::<bool>()),
                    0..=200
                ),
                probes in prop::collection::vec((any::<u16>(), any::<u16>()), 0..=64)
            ) {
                let base = if star { 1 + leaves } else { 0 };
                let n = base + small;
                let (isolated, single) = (n as u32 - 1, n as u32 - 2);
                // (transmitter, receiver): the receiver hears it.
                let mut heard: BTreeSet<(u32, u32)> = edges
                    .iter()
                    .map(|&(t, r)| (u32::from(t) % n as u32, u32::from(r) % n as u32))
                    .filter(|&(t, r)| t != r && r != isolated && r != single)
                    .collect();
                heard.insert((single - 1, single));
                if star {
                    for leaf in 1..=leaves as u32 {
                        heard.insert((leaf, 0));
                        heard.insert((0, leaf));
                    }
                }
                let edge_list: Vec<(u32, u32)> = heard.iter().copied().collect();
                let mut levels = NeighborLevels::new(&Connectivity::explicit(n, &edge_list));
                // Ascending in-neighbour ids per receiver: `heard`
                // iterates in transmitter order.
                let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
                for &(t, r) in &heard {
                    rows[r as usize].push(t);
                }

                let mut model: BTreeMap<(u32, u32), (u8, SimTime)> = BTreeMap::new();
                for &(rx, src, level, at_us, on_edge) in &sets {
                    let rx = u32::from(rx) % n as u32;
                    let row = &rows[rx as usize];
                    let src = if on_edge && !row.is_empty() {
                        row[usize::from(src) % row.len()]
                    } else {
                        u32::from(src) % n as u32
                    };
                    let at = SimTime::from_micros(at_us);
                    levels.set(rx as usize, src, level, at);
                    if heard.contains(&(src, rx)) {
                        model.insert((rx, src), (level, at));
                    }
                }

                // Every row: its in-neighbours in ascending id, each
                // with the last level the model holds for it.
                for (rx, expected_ids) in rows.iter().enumerate() {
                    let row = levels.entries(rx);
                    let ids: Vec<u32> = row.iter().map(|e| e.id).collect();
                    prop_assert_eq!(&ids, expected_ids);
                    let rx = rx as u32;
                    for e in row {
                        prop_assert_eq!(e.level(), model.get(&(rx, e.id)).copied());
                    }
                }
                prop_assert!(levels.entries(isolated as usize).is_empty());
                prop_assert_eq!(levels.entries(single as usize).len(), 1);
                if star {
                    prop_assert!(levels.entries(0).len() >= 1_000);
                }

                // `get` and the partner slot, at every `set` and probe
                // pair (probes into a star also aim at the sink's row).
                let pairs = sets
                    .iter()
                    .map(|&(rx, src, ..)| (rx, src))
                    .chain(probes.iter().copied())
                    .flat_map(|(rx, src)| {
                        let sink = (0, src % (leaves as u16) + 1);
                        [(rx, src)].into_iter().chain(star.then_some(sink))
                    });
                for (rx, src) in pairs {
                    let (rx, src) = (u32::from(rx) % n as u32, u32::from(src) % n as u32);
                    let expected = model.get(&(rx, src)).copied();
                    prop_assert_eq!(levels.get(rx as usize, src), expected);
                    let slot = levels.partner_slot(rx as usize, Some(unicast_head(src)));
                    if heard.contains(&(src, rx)) {
                        prop_assert!(levels.row(rx as usize).contains(&(slot as usize)));
                        prop_assert_eq!(levels.entries[slot as usize].id, src);
                    } else {
                        prop_assert_eq!(slot, NO_SLOT);
                    }
                    prop_assert_eq!(levels.at_slot(slot), expected);
                    // No unicast head: no slot.
                    prop_assert_eq!(levels.partner_slot(rx as usize, None), NO_SLOT);
                    let broadcast = HeadInfo::default();
                    prop_assert_eq!(levels.partner_slot(rx as usize, Some(broadcast)), NO_SLOT);
                }
            }
        }
    }

    /// `queue_diff_value` computes in integers what it once computed
    /// through `f64`; the old fold stays here as its oracle.
    mod queue_diff_oracle {
        use super::*;
        use proptest::prelude::*;

        /// The `f64` fold `queue_diff_value` replaced.
        fn queue_diff_f64(now: SimTime, i: usize, queue: &TxQueue, levels: &NeighborLevels) -> i32 {
            let local = queue.len() as f64;
            if let Some(head) = queue.head_info() {
                if let Address::Node(dst) = head.dst {
                    if let Some((level, at)) = levels.get(i, dst.0) {
                        if now.since(at) <= NEIGHBOR_LEVEL_TTL {
                            return (local - level as f64).round() as i32;
                        }
                    }
                    return local.round() as i32;
                }
            }
            let (sum, count) = levels.entries(i).iter().filter_map(LevelEntry::level).fold(
                (0.0f64, 0u32),
                |(sum, count), (level, at)| {
                    if now.since(at) <= NEIGHBOR_LEVEL_TTL {
                        (sum + level as f64, count + 1)
                    } else {
                        (sum, count)
                    }
                },
            );
            let avg = if count == 0 { 0.0 } else { sum / count as f64 };
            (local - avg).round() as i32
        }

        const NOW: SimTime = SimTime::from_secs(10);

        /// Node 0's level row over in-neighbours `1..=row.len()`: each
        /// entry is unheard (`None`) or a level heard `age` ago. Built
        /// as the world builds it, from a connectivity, and filled by
        /// `set`.
        fn row_levels(row: &[Option<(u8, SimDuration)>]) -> NeighborLevels {
            let n = row.len() + 1;
            let edges: Vec<(u32, u32)> = (1..n as u32).map(|t| (t, 0)).collect();
            let mut levels = NeighborLevels::new(&Connectivity::explicit(n, &edges));
            for (k, entry) in row.iter().enumerate() {
                if let Some((level, age)) = *entry {
                    levels.set(0, k as u32 + 1, level, NOW - age);
                }
            }
            levels
        }

        /// Node 0's queue of `len` frames whose head goes to `dst`.
        fn queue_to(len: usize, dst: Address) -> TxQueues {
            let mut queues = TxQueues::new(1, 256);
            for seq in 0..len as u32 {
                assert!(queues.push(0, Frame::data(NodeId(0), dst, seq, 10, false), NOW));
            }
            queues
        }

        /// Both folds on node 0, asserted equal; returns the value.
        /// The integer fold reads the partner through its slot, as a
        /// tick does.
        fn both(queues: &TxQueues, levels: &NeighborLevels) -> i32 {
            let queue = &queues[0];
            let partner = levels.partner_slot(0, queue.head_info());
            let got = queue_diff_value(NOW, 0, queue, partner, levels);
            assert_eq!(got, queue_diff_f64(NOW, 0, queue, levels));
            got
        }

        /// A stale report: heard just over the TTL ago.
        const STALE: SimDuration = SimDuration::from_micros(NEIGHBOR_LEVEL_TTL.as_micros() + 1);

        proptest! {
            /// Every branch: the partner's level (fresh, stale or
            /// unheard), and the average over fresh reports behind a
            /// broadcast head or an empty queue.
            #[test]
            fn queue_diff_matches_the_f64_fold(
                row in prop::collection::vec((any::<u8>(), 0u8..4, 0u64..=3_000_000), 0..=64),
                len in 0usize..=255,
                head in 0u8..3,
                partner in any::<usize>()
            ) {
                let row: Vec<_> = row
                    .into_iter()
                    .map(|(level, kind, age_us)| match kind {
                        0 => None,
                        // Exactly at the TTL still counts as fresh.
                        1 => Some((level, NEIGHBOR_LEVEL_TTL)),
                        _ => Some((level, SimDuration::from_micros(age_us))),
                    })
                    .collect();
                let dst = match head {
                    0 => Address::Broadcast,
                    1 if !row.is_empty() => Address::Node(NodeId(1 + (partner % row.len()) as u32)),
                    _ => Address::Node(NodeId(row.len() as u32 + 1)),
                };
                both(&queue_to(len, dst), &row_levels(&row));
            }

            /// Rows whose fresh average sits exactly on a half: `2m`
            /// fresh reports summing to `m·j` for odd `j`, among
            /// unheard and stale entries, make `local − avg` a
            /// half-integer of either sign.
            #[test]
            fn queue_diff_rounds_exact_halves_like_the_f64_fold(
                m in 1u32..=16,
                j_half in 0u32..255,
                len in 0usize..=255,
                noise in prop::collection::vec((any::<u8>(), any::<bool>()), 0..=32)
            ) {
                let mut rest = m * (2 * j_half + 1);
                let mut row: Vec<_> = (0..2 * m)
                    .map(|_| {
                        let level = rest.min(255);
                        rest -= level;
                        Some((level as u8, SimDuration::ZERO))
                    })
                    .collect();
                prop_assert_eq!(rest, 0);
                row.extend(noise.iter().map(|&(level, heard)| heard.then_some((level, STALE))));
                let got = both(&queue_to(len, Address::Broadcast), &row_levels(&row));
                // local − avg = (2·len − j) / 2, rounded away from zero.
                let twice = 2 * len as i32 - (2 * j_half as i32 + 1);
                prop_assert_eq!(got, (twice + twice.signum()) / 2);
            }
        }

        #[test]
        fn halves_round_away_from_zero_in_both_directions() {
            let fresh = |levels: &[u8]| -> Vec<_> {
                levels
                    .iter()
                    .map(|&l| Some((l, SimDuration::ZERO)))
                    .collect()
            };
            // Average 0.5 below or above the local level.
            assert_eq!(
                both(
                    &queue_to(1, Address::Broadcast),
                    &row_levels(&fresh(&[0, 1]))
                ),
                1
            );
            assert_eq!(
                both(
                    &queue_to(0, Address::Broadcast),
                    &row_levels(&fresh(&[0, 1]))
                ),
                -1
            );
            assert_eq!(
                both(
                    &queue_to(3, Address::Broadcast),
                    &row_levels(&fresh(&[1, 2]))
                ),
                2
            );
            assert_eq!(
                both(
                    &queue_to(0, Address::Broadcast),
                    &row_levels(&fresh(&[1, 2]))
                ),
                -2
            );
            // No fresh report: the local level itself.
            let stale = [Some((9, STALE)), None];
            assert_eq!(
                both(&queue_to(4, Address::Broadcast), &row_levels(&stale)),
                4
            );
        }
    }
}
