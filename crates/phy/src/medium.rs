//! The shared wireless medium with binary interference.
//!
//! This implements the *protocol model*: every node pair is either
//! audible or not (derived from a path-loss model or given
//! explicitly), a receiver locks onto the first frame that arrives
//! while it senses no other energy, and a locked frame is corrupted
//! if any other audible transmission — or a local transmission —
//! overlaps any part of its airtime. Clear-channel assessment reports
//! busy iff any audible energy is present.
//!
//! This is exactly the structure the paper's hidden-node analysis
//! relies on (§6.1): with A–B–C in a line and A, C mutually inaudible,
//! "a CCA at node A or C only fails if node B is currently sending an
//! ACK", while simultaneous data frames from A and C collide at B.
//!
//! The medium is pure bookkeeping: callers (the network simulator)
//! drive it with `start_tx` / `end_tx` calls at the appropriate
//! simulated times and deliver frames to MAC layers themselves.

use crate::geo::Position;
use crate::pathloss::PathLoss;
use crate::units::Dbm;
use std::collections::HashSet;

/// Index of a node known to the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhyNodeId(pub u32);

impl PhyNodeId {
    /// The index as usize, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PhyNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Handle for an in-flight transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxToken(u64);

/// Who can hear whom.
///
/// Alongside the boolean adjacency matrix, a CSR (offset + flat
/// slice) listener table is precomputed at construction so the
/// per-transmission fan-out in [`Medium::start_tx_on`]/[`Medium::end_tx`]
/// is a slice walk instead of an n-wide filter scan — and needs no
/// per-call allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Connectivity {
    n: usize,
    /// Row-major n×n adjacency, diagonal false. **Empty when built
    /// sparsely**: the edge-list constructors
    /// ([`Connectivity::explicit`]/[`Connectivity::symmetric`]) skip
    /// the matrix above [`Connectivity::DENSE_LIMIT`] nodes and
    /// [`Connectivity::hears`] binary-searches the CSR row instead —
    /// a dense matrix at 50 000 nodes would be 2.5 GB. The
    /// position-derived constructors ([`Connectivity::from_pathloss`],
    /// [`Connectivity::full`]) are inherently O(n²) and keep the
    /// matrix at any size.
    audible: Vec<bool>,
    /// CSR row offsets: listeners of node `i` live at
    /// `flat[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    /// Flattened listener lists, ascending within each row.
    flat: Vec<PhyNodeId>,
}

impl Connectivity {
    /// Node count above which edge-list constructors skip the dense
    /// adjacency matrix and keep only the CSR table.
    pub const DENSE_LIMIT: usize = 2_048;

    /// Finishes construction from an adjacency matrix by building the
    /// CSR listener table.
    fn from_matrix(n: usize, audible: Vec<bool>) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut flat = Vec::new();
        offsets.push(0u32);
        for i in 0..n {
            for j in 0..n {
                if audible[i * n + j] {
                    flat.push(PhyNodeId(j as u32));
                }
            }
            offsets.push(flat.len() as u32);
        }
        Connectivity {
            n,
            audible,
            offsets,
            flat,
        }
    }

    /// Builds the CSR table straight from a directed edge list,
    /// without materialising the n² matrix. Used by the edge-list
    /// constructors above [`Connectivity::DENSE_LIMIT`] nodes.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range node indices or self-loops.
    fn from_edges_sparse(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut rows: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for &(i, j) in edges {
            assert!(
                (i as usize) < n && (j as usize) < n,
                "edge ({i},{j}) out of range (n={n})"
            );
            assert_ne!(i, j, "self-loop ({i},{i})");
            rows.push((i, j));
        }
        rows.sort_unstable();
        rows.dedup();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut flat = Vec::with_capacity(rows.len());
        offsets.push(0u32);
        let mut next_row = 0usize;
        for &(i, j) in &rows {
            while next_row < i as usize {
                offsets.push(flat.len() as u32);
                next_row += 1;
            }
            flat.push(PhyNodeId(j));
        }
        while next_row < n {
            offsets.push(flat.len() as u32);
            next_row += 1;
        }
        debug_assert_eq!(offsets.len(), n + 1);
        Connectivity {
            n,
            audible: Vec::new(),
            offsets,
            flat,
        }
    }
    /// Derives connectivity from positions and a path-loss model:
    /// `j` hears `i` iff the power received from `i` at `j`'s position
    /// is at least `sensitivity`.
    pub fn from_pathloss(
        positions: &[Position],
        model: &PathLoss,
        tx_power: Dbm,
        sensitivity: Dbm,
    ) -> Self {
        let n = positions.len();
        let mut audible = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let d = positions[i].distance_to(positions[j]);
                    audible[i * n + j] = model.audible(tx_power, sensitivity, d);
                }
            }
        }
        Connectivity::from_matrix(n, audible)
    }

    /// Builds connectivity from an explicit edge list. Edges are
    /// directed `(transmitter, receiver)`; use [`Connectivity::symmetric`]
    /// for bidirectional links.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range node indices or self-loops.
    pub fn explicit(n: usize, edges: &[(u32, u32)]) -> Self {
        if n > Self::DENSE_LIMIT {
            return Connectivity::from_edges_sparse(n, edges);
        }
        let mut audible = vec![false; n * n];
        for &(i, j) in edges {
            let (i, j) = (i as usize, j as usize);
            assert!(i < n && j < n, "edge ({i},{j}) out of range (n={n})");
            assert_ne!(i, j, "self-loop ({i},{i})");
            audible[i * n + j] = true;
        }
        Connectivity::from_matrix(n, audible)
    }

    /// Builds symmetric connectivity from an undirected edge list.
    pub fn symmetric(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut both: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            both.push((a, b));
            both.push((b, a));
        }
        Connectivity::explicit(n, &both)
    }

    /// Fully connected topology on `n` nodes (single collision
    /// domain, e.g. the star testbed where "all nodes can hear each
    /// other").
    pub fn full(n: usize) -> Self {
        let mut audible = vec![true; n * n];
        for i in 0..n {
            audible[i * n + i] = false;
        }
        Connectivity::from_matrix(n, audible)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Can `rx` hear `tx`? O(1) on dense topologies, O(log degree) on
    /// sparse ones (CSR rows are sorted ascending).
    pub fn hears(&self, rx: PhyNodeId, tx: PhyNodeId) -> bool {
        if self.audible.is_empty() {
            return self.listeners(tx).binary_search(&rx).is_ok();
        }
        self.audible[tx.index() * self.n + rx.index()]
    }

    /// The nodes audible from `tx` (its interference set), ascending —
    /// a precomputed CSR row, so no work or allocation per call.
    pub fn listeners(&self, tx: PhyNodeId) -> &[PhyNodeId] {
        let i = tx.index();
        &self.flat[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterator over the nodes audible from `tx` (its interference
    /// set).
    pub fn listeners_of(&self, tx: PhyNodeId) -> impl Iterator<Item = PhyNodeId> + '_ {
        self.listeners(tx).iter().copied()
    }

    /// Neighbour count of `tx`.
    pub fn degree(&self, tx: PhyNodeId) -> usize {
        self.listeners(tx).len()
    }

    /// Returns `true` if the (i → j) and (j → i) links both exist.
    pub fn bidirectional(&self, a: PhyNodeId, b: PhyNodeId) -> bool {
        self.hears(a, b) && self.hears(b, a)
    }
}

#[derive(Debug, Clone)]
struct ActiveTx {
    token: TxToken,
    tx_node: PhyNodeId,
    channel: u8,
}

#[derive(Debug, Clone, Copy)]
struct RxLock {
    token: TxToken,
    clean: bool,
    /// The instant (µs, see [`Medium::set_now`]) the lock was taken.
    at_us: u64,
}

#[derive(Debug, Clone, Default)]
struct ReceiverState {
    /// The frame this receiver is locked onto, if any.
    lock: Option<RxLock>,
    /// Is this node itself transmitting?
    transmitting: bool,
    /// The channel this node's receiver is tuned to.
    listen_channel: u8,
    /// Is this node inside an active jammer's footprint? A jammed
    /// receiver cannot lock onto new frames and its CCA always reads
    /// busy; a reception already in progress is corrupted.
    jammed: bool,
}

/// The shared medium.
///
/// # Examples
///
/// ```
/// use qma_phy::{Connectivity, Medium, PhyNodeId};
///
/// // A — B — C chain: the classic hidden-node topology.
/// let conn = Connectivity::symmetric(3, &[(0, 1), (1, 2)]);
/// let mut medium = Medium::new(conn);
/// let a = PhyNodeId(0);
/// let b = PhyNodeId(1);
/// let c = PhyNodeId(2);
///
/// // C cannot hear A's transmission, so its CCA stays idle...
/// let tx = medium.start_tx(a);
/// assert!(!medium.is_busy(c));
/// assert!(medium.is_busy(b));
/// // ...and B receives the frame cleanly.
/// assert_eq!(medium.end_tx(tx), vec![b]);
/// ```
#[derive(Debug, Clone)]
pub struct Medium {
    conn: Connectivity,
    receivers: Vec<ReceiverState>,
    /// Number of audible in-flight transmissions per node and channel,
    /// node-major: node `r` on channel `c` is `energy[r * channels + c]`.
    energy: Vec<u32>,
    active: Vec<ActiveTx>,
    channels: u8,
    next_token: u64,
    /// The caller's current instant in µs (see [`Medium::set_now`]).
    now_us: u64,
    collisions: u64,
    clean_receptions: u64,
    /// Reusable buffer for [`Medium::end_tx`]'s delivered set, so the
    /// per-transmission hot path performs no allocation.
    delivered_scratch: Vec<PhyNodeId>,
    /// Directed links `(tx, rx)` currently degraded below the decoding
    /// threshold: the receiver still senses the energy (interference,
    /// CCA busy) but can no longer lock onto frames from that
    /// transmitter. Empty in the fault-free case, so the hot path pays
    /// one `is_empty` branch.
    degraded: HashSet<(u32, u32)>,
}

impl Medium {
    /// Creates a single-channel medium over the given connectivity.
    pub fn new(conn: Connectivity) -> Self {
        Self::with_channels(conn, 1)
    }

    /// Creates a medium with `channels` orthogonal frequency channels
    /// (IEEE 802.15.4 at 2.4 GHz offers 16; DSME spreads GTS over
    /// them). Transmissions interfere only within the same channel.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn with_channels(conn: Connectivity, channels: u8) -> Self {
        assert!(channels > 0, "need at least one channel");
        let n = conn.len();
        Medium {
            conn,
            receivers: vec![ReceiverState::default(); n],
            energy: vec![0; n * channels as usize],
            active: Vec::new(),
            channels,
            next_token: 0,
            now_us: 0,
            collisions: 0,
            clean_receptions: 0,
            delivered_scratch: Vec::new(),
            degraded: HashSet::new(),
        }
    }

    /// Number of orthogonal channels.
    pub fn channels(&self) -> u8 {
        self.channels
    }

    /// Retunes a node's receiver. Any reception in progress is lost.
    ///
    /// # Panics
    ///
    /// Panics if the channel is out of range.
    pub fn set_listen_channel(&mut self, node: PhyNodeId, channel: u8) {
        assert!(channel < self.channels, "channel {channel} out of range");
        let st = &mut self.receivers[node.index()];
        if st.listen_channel != channel {
            st.listen_channel = channel;
            st.lock = None;
        }
    }

    /// The channel a node's receiver is tuned to.
    pub fn listen_channel(&self, node: PhyNodeId) -> u8 {
        self.receivers[node.index()].listen_channel
    }

    /// The connectivity this medium was built with.
    pub fn connectivity(&self) -> &Connectivity {
        &self.conn
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.conn.len()
    }

    /// Returns `true` when the medium has no nodes.
    pub fn is_empty(&self) -> bool {
        self.conn.is_empty()
    }

    /// Tells the medium the current instant (µs). Locks remember when
    /// they were taken, so [`Medium::start_tx_on`] can tell a
    /// reception cut short from one that began at the same instant as
    /// the transmission. A caller that never sets it runs at 0.
    pub fn set_now(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    /// Begins a transmission from `tx_node` on channel 0. See
    /// [`Medium::start_tx_on`].
    pub fn start_tx(&mut self, tx_node: PhyNodeId) -> TxToken {
        self.start_tx_on(tx_node, 0)
    }

    /// Begins a transmission from `tx_node` on `channel`. The caller
    /// is responsible for calling [`Medium::end_tx`] with the
    /// returned token exactly when the frame's airtime elapses.
    ///
    /// Starting a transmission aborts any reception in progress at the
    /// transmitter (half-duplex). A reception that began earlier ends
    /// as a counted collision. One that began at this same instant is
    /// dropped uncounted: which of two same-instant starts locks first
    /// is only the caller's processing order, and the order must not
    /// change what is counted.
    ///
    /// # Panics
    ///
    /// Panics if the node is already transmitting (MAC layers must
    /// serialise their own transmissions) or the channel is out of
    /// range.
    pub fn start_tx_on(&mut self, tx_node: PhyNodeId, channel: u8) -> TxToken {
        assert!(
            !self.receivers[tx_node.index()].transmitting,
            "{tx_node} started a second concurrent transmission"
        );
        assert!(channel < self.channels, "channel {channel} out of range");
        let token = TxToken(self.next_token);
        self.next_token += 1;

        // Half-duplex: the transmitter loses anything it was receiving.
        let now_us = self.now_us;
        let me = &mut self.receivers[tx_node.index()];
        me.transmitting = true;
        match me.lock {
            Some(lock) if lock.at_us == now_us => me.lock = None,
            Some(ref mut lock) => lock.clean = false,
            None => {}
        }

        let degraded_any = !self.degraded.is_empty();
        for &r in self.conn.listeners(tx_node) {
            let energy = &mut self.energy[energy_cell(self.channels, r, channel)];
            *energy += 1;
            let energy = *energy;
            let st = &mut self.receivers[r.index()];
            if st.transmitting || st.listen_channel != channel {
                // A transmitting or differently-tuned node cannot
                // lock onto this frame.
                continue;
            }
            match &mut st.lock {
                Some(lock) => {
                    // Already locked onto another frame: that frame is
                    // now corrupted, and the new frame cannot be
                    // captured either (no capture effect).
                    lock.clean = false;
                }
                None => {
                    if energy == 1
                        && !st.jammed
                        && !(degraded_any && self.degraded.contains(&(tx_node.0, r.0)))
                    {
                        st.lock = Some(RxLock {
                            token,
                            clean: true,
                            at_us: now_us,
                        });
                    }
                    // energy > 1 without a lock: mid-air join, the new
                    // frame is not receivable. A jammed receiver or a
                    // degraded link senses the energy but cannot
                    // decode the frame.
                }
            }
        }

        self.active.push(ActiveTx {
            token,
            tx_node,
            channel,
        });
        token
    }

    /// Ends the transmission identified by `token`, releasing its
    /// energy at all listeners. Returns the nodes that received the
    /// frame cleanly (in ascending node order). The returned slice
    /// borrows a scratch buffer owned by the medium and is valid until
    /// the next `end_tx` call.
    ///
    /// # Panics
    ///
    /// Panics if the token is unknown (double `end_tx`).
    pub fn end_tx(&mut self, token: TxToken) -> &[PhyNodeId] {
        let idx = self
            .active
            .iter()
            .position(|a| a.token == token)
            .expect("end_tx with unknown token");
        let tx = self.active.swap_remove(idx);

        self.receivers[tx.tx_node.index()].transmitting = false;

        self.delivered_scratch.clear();
        for &r in self.conn.listeners(tx.tx_node) {
            let energy = &mut self.energy[energy_cell(self.channels, r, tx.channel)];
            debug_assert!(*energy > 0, "energy underflow at {r}");
            *energy -= 1;
            let st = &mut self.receivers[r.index()];
            if let Some(lock) = st.lock {
                if lock.token == token {
                    st.lock = None;
                    if lock.clean && !st.transmitting && st.listen_channel == tx.channel {
                        self.delivered_scratch.push(r);
                        self.clean_receptions += 1;
                    } else {
                        self.collisions += 1;
                    }
                }
            }
        }
        // CSR rows are ascending, so the delivered set already is.
        debug_assert!(self.delivered_scratch.is_sorted());
        &self.delivered_scratch
    }

    /// Aborts the transmission identified by `token` without
    /// delivering it — the transmitter's radio died mid-frame. Energy
    /// is released at all listeners; any receiver locked onto the
    /// frame loses it and the truncated frame counts as a collision
    /// (a real radio sees a bad CRC, not silence).
    ///
    /// # Panics
    ///
    /// Panics if the token is unknown.
    pub fn abort_tx(&mut self, token: TxToken) {
        let idx = self
            .active
            .iter()
            .position(|a| a.token == token)
            .expect("abort_tx with unknown token");
        let tx = self.active.swap_remove(idx);

        self.receivers[tx.tx_node.index()].transmitting = false;
        for &r in self.conn.listeners(tx.tx_node) {
            let energy = &mut self.energy[energy_cell(self.channels, r, tx.channel)];
            debug_assert!(*energy > 0, "energy underflow at {r}");
            *energy -= 1;
            let st = &mut self.receivers[r.index()];
            if let Some(lock) = st.lock {
                if lock.token == token {
                    st.lock = None;
                    self.collisions += 1;
                }
            }
        }
    }

    /// Drops any reception in progress at `node` — its radio was
    /// reset. Energy bookkeeping is untouched: the frame is still in
    /// the air, the node just stops decoding it.
    pub fn drop_rx_lock(&mut self, node: PhyNodeId) {
        self.receivers[node.index()].lock = None;
    }

    /// Places `node` inside (or removes it from) a jammer's
    /// footprint. While jammed, the node's CCA always reads busy and
    /// it cannot lock onto new frames; a reception already in progress
    /// is corrupted (the jammer tramples its tail). The node can still
    /// transmit — its frames are corrupted only at *jammed* receivers.
    pub fn set_jammed(&mut self, node: PhyNodeId, jammed: bool) {
        let st = &mut self.receivers[node.index()];
        st.jammed = jammed;
        if jammed {
            if let Some(lock) = &mut st.lock {
                lock.clean = false;
            }
        }
    }

    /// Is `node` currently inside a jammer's footprint?
    pub fn is_jammed(&self, node: PhyNodeId) -> bool {
        self.receivers[node.index()].jammed
    }

    /// Marks the directed link `tx → rx` as degraded below the
    /// decoding threshold (or restores it). A degraded link still
    /// carries energy — it interferes and trips CCA — but the
    /// receiver can no longer lock onto frames from `tx`; a reception
    /// from `tx` already in progress at `rx` is corrupted.
    pub fn set_link_degraded(&mut self, tx: PhyNodeId, rx: PhyNodeId, degraded: bool) {
        if degraded {
            self.degraded.insert((tx.0, rx.0));
            let locked_from_tx = match self.receivers[rx.index()].lock {
                Some(lock) => self
                    .active
                    .iter()
                    .any(|a| a.token == lock.token && a.tx_node == tx),
                None => false,
            };
            if locked_from_tx {
                if let Some(lock) = &mut self.receivers[rx.index()].lock {
                    lock.clean = false;
                }
            }
        } else {
            self.degraded.remove(&(tx.0, rx.0));
        }
    }

    /// Is the directed link `tx → rx` currently degraded?
    pub fn is_link_degraded(&self, tx: PhyNodeId, rx: PhyNodeId) -> bool {
        self.degraded.contains(&(tx.0, rx.0))
    }

    /// Clear-channel assessment at `node` on its listen channel:
    /// `true` iff any audible transmission is in flight there, a
    /// jammer covers the node, or the node itself is transmitting.
    pub fn is_busy(&self, node: PhyNodeId) -> bool {
        let st = &self.receivers[node.index()];
        st.jammed
            || self.energy[energy_cell(self.channels, node, st.listen_channel)] > 0
            || st.transmitting
    }

    /// Is this node currently transmitting?
    pub fn is_transmitting(&self, node: PhyNodeId) -> bool {
        self.receivers[node.index()].transmitting
    }

    /// Is this node currently locked onto an incoming frame?
    pub fn is_receiving(&self, node: PhyNodeId) -> bool {
        self.receivers[node.index()].lock.is_some()
    }

    /// Number of transmissions currently in flight.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Total corrupted receptions observed so far.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Total clean receptions observed so far.
    pub fn clean_receptions(&self) -> u64 {
        self.clean_receptions
    }
}

/// Index of `(node, channel)` in [`Medium`]'s flat energy array.
fn energy_cell(channels: u8, node: PhyNodeId, channel: u8) -> usize {
    node.index() * channels as usize + channel as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hidden_node_medium() -> (Medium, PhyNodeId, PhyNodeId, PhyNodeId) {
        let conn = Connectivity::symmetric(3, &[(0, 1), (1, 2)]);
        (Medium::new(conn), PhyNodeId(0), PhyNodeId(1), PhyNodeId(2))
    }

    #[test]
    fn clean_reception_single_tx() {
        let (mut m, a, b, c) = hidden_node_medium();
        let t = m.start_tx(a);
        assert!(m.is_busy(b));
        assert!(!m.is_busy(c), "C must not hear A (hidden node)");
        assert_eq!(m.end_tx(t), vec![b]);
        assert!(!m.is_busy(b));
        assert_eq!(m.clean_receptions(), 1);
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    fn hidden_node_collision_at_middle() {
        let (mut m, a, b, c) = hidden_node_medium();
        let ta = m.start_tx(a);
        let tc = m.start_tx(c);
        // B locked onto A's frame first; C's frame corrupts it.
        assert_eq!(m.end_tx(ta), vec![]);
        assert_eq!(m.end_tx(tc), vec![]);
        assert_eq!(m.clean_receptions(), 0);
        assert!(m.collisions() >= 1);
        assert!(!m.is_busy(b));
    }

    #[test]
    fn late_joiner_is_not_captured() {
        let (mut m, a, b, c) = hidden_node_medium();
        let ta = m.start_tx(a);
        let tc = m.start_tx(c);
        // A finishes; B still has energy from C but never locked onto
        // C's frame, so nothing is delivered at either end.
        assert_eq!(m.end_tx(ta), vec![]);
        assert!(m.is_busy(b), "C's frame still in the air");
        assert_eq!(m.end_tx(tc), vec![]);
    }

    #[test]
    fn half_duplex_transmitter_cannot_receive() {
        let (mut m, a, b, _c) = hidden_node_medium();
        let tb = m.start_tx(b);
        let ta = m.start_tx(a);
        // B is transmitting, so it never locks onto A's frame.
        assert_eq!(m.end_tx(ta), vec![]);
        // A (and C) receive B's frame cleanly? A locked onto B at
        // start_tx(b) — before A transmitted. A's own transmission
        // corrupts its reception (half-duplex).
        assert_eq!(m.end_tx(tb), vec![PhyNodeId(2)]);
    }

    #[test]
    fn reception_aborted_by_own_tx() {
        let (mut m, a, b, _c) = hidden_node_medium();
        let ta = m.start_tx(a); // B locks on
        assert!(m.is_receiving(b));
        let tb = m.start_tx(b); // B preempts its own reception
        assert_eq!(m.end_tx(ta), vec![], "B's rx must be aborted");
        // A hears B's frame, but A was transmitting when it started →
        // A never locked; C locked cleanly.
        assert_eq!(m.end_tx(tb), vec![PhyNodeId(2)]);
    }

    #[test]
    fn same_instant_half_duplex_loss_is_order_free() {
        // 0 → 1 → 2, one-way links: frame 0→1 and 1's own frame start
        // at one instant. Processing 0 first lets 1 lock onto it; 1
        // first leaves 1 transmitting and unable to lock. Both orders
        // must count the same.
        let run = |zero_first: bool| {
            let mut m = Medium::new(Connectivity::explicit(3, &[(0, 1), (1, 2)]));
            m.set_now(100);
            let (t0, t1) = if zero_first {
                let t0 = m.start_tx(PhyNodeId(0));
                (t0, m.start_tx(PhyNodeId(1)))
            } else {
                let t1 = m.start_tx(PhyNodeId(1));
                (m.start_tx(PhyNodeId(0)), t1)
            };
            m.set_now(900);
            let d0 = m.end_tx(t0).to_vec();
            let d1 = m.end_tx(t1).to_vec();
            (d0, d1, m.collisions(), m.clean_receptions())
        };
        let zero_first = run(true);
        assert_eq!(zero_first, run(false));
        assert_eq!(zero_first, (vec![], vec![PhyNodeId(2)], 0, 1));

        // A lock taken earlier is a reception cut short: it still
        // counts.
        let mut m = Medium::new(Connectivity::explicit(3, &[(0, 1), (1, 2)]));
        m.set_now(100);
        let t0 = m.start_tx(PhyNodeId(0));
        m.set_now(150);
        let t1 = m.start_tx(PhyNodeId(1));
        m.set_now(900);
        assert_eq!(m.end_tx(t0), vec![]);
        assert_eq!(m.end_tx(t1), vec![PhyNodeId(2)]);
        assert_eq!((m.collisions(), m.clean_receptions()), (1, 1));
    }

    #[test]
    fn cca_busy_only_within_range() {
        let (mut m, a, _b, c) = hidden_node_medium();
        let t = m.start_tx(a);
        assert!(!m.is_busy(c));
        assert!(m.is_busy(PhyNodeId(1)));
        // The transmitter itself reports busy (it cannot CCA mid-tx).
        assert!(m.is_busy(a));
        m.end_tx(t);
    }

    #[test]
    fn energy_returns_to_zero_after_overlap() {
        let conn = Connectivity::full(4);
        let mut m = Medium::new(conn);
        let t0 = m.start_tx(PhyNodeId(0));
        let t1 = m.start_tx(PhyNodeId(1));
        let t2 = m.start_tx(PhyNodeId(2));
        m.end_tx(t0);
        m.end_tx(t1);
        m.end_tx(t2);
        for i in 0..4 {
            assert!(!m.is_busy(PhyNodeId(i)), "node {i} stuck busy");
        }
        assert_eq!(m.active_count(), 0);
    }

    #[test]
    fn full_topology_broadcast_reaches_all() {
        let mut m = Medium::new(Connectivity::full(5));
        let t = m.start_tx(PhyNodeId(2));
        let got = m.end_tx(t);
        assert_eq!(
            got,
            vec![PhyNodeId(0), PhyNodeId(1), PhyNodeId(3), PhyNodeId(4)]
        );
    }

    #[test]
    #[should_panic(expected = "second concurrent transmission")]
    fn double_tx_panics() {
        let (mut m, a, _, _) = hidden_node_medium();
        let _t1 = m.start_tx(a);
        let _t2 = m.start_tx(a);
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn double_end_panics() {
        let (mut m, a, _, _) = hidden_node_medium();
        let t = m.start_tx(a);
        m.end_tx(t);
        m.end_tx(t);
    }

    #[test]
    fn explicit_asymmetric_links() {
        // 0 → 1 only: 1 hears 0 but not vice versa.
        let conn = Connectivity::explicit(2, &[(0, 1)]);
        assert!(conn.hears(PhyNodeId(1), PhyNodeId(0)));
        assert!(!conn.hears(PhyNodeId(0), PhyNodeId(1)));
        assert!(!conn.bidirectional(PhyNodeId(0), PhyNodeId(1)));
        let mut m = Medium::new(conn);
        let t = m.start_tx(PhyNodeId(1));
        assert_eq!(m.end_tx(t), vec![], "0 cannot hear 1");
    }

    #[test]
    fn connectivity_from_pathloss_matches_range() {
        use crate::geo::Position;
        use crate::units::Dbm;
        let model = PathLoss::indoor_2_4ghz();
        let tx = Dbm::new(-9.0);
        let sens = Dbm::new(-72.0);
        let range = model.max_range(tx, sens);
        let positions = [
            Position::new(0.0, 0.0),
            Position::new(range * 0.9, 0.0),
            Position::new(range * 1.8, 0.0),
        ];
        let conn = Connectivity::from_pathloss(&positions, &model, tx, sens);
        assert!(conn.bidirectional(PhyNodeId(0), PhyNodeId(1)));
        assert!(conn.bidirectional(PhyNodeId(1), PhyNodeId(2)));
        assert!(
            !conn.hears(PhyNodeId(2), PhyNodeId(0)),
            "0–2 must be hidden"
        );
        assert_eq!(conn.degree(PhyNodeId(1)), 2);
    }

    #[test]
    fn listeners_iterator() {
        let conn = Connectivity::symmetric(3, &[(0, 1), (1, 2)]);
        let l: Vec<_> = conn.listeners_of(PhyNodeId(1)).collect();
        assert_eq!(l, vec![PhyNodeId(0), PhyNodeId(2)]);
    }

    // ---- Multi-channel behaviour (DSME CFP) ----

    #[test]
    fn orthogonal_channels_do_not_interfere() {
        let mut m = Medium::with_channels(Connectivity::full(4), 4);
        m.set_listen_channel(PhyNodeId(1), 1);
        m.set_listen_channel(PhyNodeId(3), 2);
        let t0 = m.start_tx_on(PhyNodeId(0), 1); // for node 1
        let t2 = m.start_tx_on(PhyNodeId(2), 2); // for node 3
                                                 // Each receiver hears only its own channel.
        assert_eq!(m.end_tx(t0), vec![PhyNodeId(1)]);
        assert_eq!(m.end_tx(t2), vec![PhyNodeId(3)]);
    }

    #[test]
    fn same_channel_still_collides() {
        let mut m = Medium::with_channels(Connectivity::full(4), 4);
        m.set_listen_channel(PhyNodeId(1), 3);
        m.set_listen_channel(PhyNodeId(3), 3);
        let t0 = m.start_tx_on(PhyNodeId(0), 3);
        let t2 = m.start_tx_on(PhyNodeId(2), 3);
        assert_eq!(m.end_tx(t0), vec![]);
        assert_eq!(m.end_tx(t2), vec![]);
        assert!(m.collisions() >= 1);
    }

    #[test]
    fn cca_uses_listen_channel() {
        let mut m = Medium::with_channels(Connectivity::full(2), 2);
        let t = m.start_tx_on(PhyNodeId(0), 1);
        // Node 1 listens on channel 0: idle there.
        assert!(!m.is_busy(PhyNodeId(1)));
        m.set_listen_channel(PhyNodeId(1), 1);
        assert!(m.is_busy(PhyNodeId(1)));
        m.end_tx(t);
    }

    #[test]
    fn retuning_mid_reception_loses_frame() {
        let mut m = Medium::with_channels(Connectivity::full(2), 2);
        let t = m.start_tx_on(PhyNodeId(0), 0);
        assert!(m.is_receiving(PhyNodeId(1)));
        m.set_listen_channel(PhyNodeId(1), 1);
        assert!(!m.is_receiving(PhyNodeId(1)));
        assert_eq!(m.end_tx(t), vec![], "retuned receiver must lose the frame");
        // Energy bookkeeping stays consistent.
        m.set_listen_channel(PhyNodeId(1), 0);
        assert!(!m.is_busy(PhyNodeId(1)));
    }

    #[test]
    fn default_listen_channel_is_zero() {
        let m = Medium::with_channels(Connectivity::full(2), 16);
        assert_eq!(m.listen_channel(PhyNodeId(0)), 0);
        assert_eq!(m.channels(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn channel_out_of_range_panics() {
        let mut m = Medium::with_channels(Connectivity::full(2), 2);
        let _ = m.start_tx_on(PhyNodeId(0), 2);
    }

    // ---- Fault hooks (jam, drift, crash-abort) ----

    #[test]
    fn jammed_receiver_reads_busy_and_locks_nothing() {
        let (mut m, a, b, c) = hidden_node_medium();
        m.set_jammed(b, true);
        assert!(m.is_jammed(b));
        assert!(m.is_busy(b), "jammed CCA must read busy with no tx");
        assert!(!m.is_busy(c));
        let t = m.start_tx(a);
        assert!(!m.is_receiving(b), "jammed node must not lock");
        assert_eq!(m.end_tx(t), vec![], "no delivery into the jam");
        m.set_jammed(b, false);
        assert!(!m.is_busy(b), "energy consistent after jam");
        // After the jam lifts, reception works again.
        let t = m.start_tx(a);
        assert_eq!(m.end_tx(t), vec![b]);
    }

    #[test]
    fn jam_mid_flight_corrupts_reception() {
        let (mut m, a, b, _c) = hidden_node_medium();
        let t = m.start_tx(a);
        assert!(m.is_receiving(b));
        m.set_jammed(b, true);
        assert_eq!(m.end_tx(t), vec![], "jam must trample the tail");
        assert_eq!(m.collisions(), 1);
        m.set_jammed(b, false);
        assert!(!m.is_busy(b));
    }

    #[test]
    fn degraded_link_blocks_lock_but_still_interferes() {
        let (mut m, a, b, c) = hidden_node_medium();
        m.set_link_degraded(a, b, true);
        assert!(m.is_link_degraded(a, b));
        let ta = m.start_tx(a);
        assert!(!m.is_receiving(b), "degraded link must not lock");
        assert!(m.is_busy(b), "degraded energy still trips CCA");
        // C's frame arrives while A's (undecodable) energy is present:
        // mid-air join, so B cannot lock onto C either — the degraded
        // link still interferes.
        let tc = m.start_tx(c);
        assert!(!m.is_receiving(b));
        assert_eq!(m.end_tx(ta), vec![]);
        assert_eq!(m.end_tx(tc), vec![]);
        assert!(!m.is_busy(b), "energy consistent after degraded tx");
        // The reverse direction is unaffected.
        let tb = m.start_tx(b);
        assert_eq!(m.end_tx(tb), vec![a, c]);
        // Restoring the link restores reception.
        m.set_link_degraded(a, b, false);
        let ta = m.start_tx(a);
        assert_eq!(m.end_tx(ta), vec![b]);
    }

    #[test]
    fn drift_mid_flight_corrupts_reception() {
        let (mut m, a, b, _c) = hidden_node_medium();
        let t = m.start_tx(a);
        assert!(m.is_receiving(b));
        m.set_link_degraded(a, b, true);
        assert_eq!(m.end_tx(t), vec![], "drift must corrupt in-flight frame");
        assert_eq!(m.collisions(), 1);
        assert!(!m.is_busy(b));
    }

    #[test]
    fn abort_tx_releases_energy_and_counts_collision() {
        let (mut m, a, b, _c) = hidden_node_medium();
        let t = m.start_tx(a);
        assert!(m.is_receiving(b));
        m.abort_tx(t);
        assert_eq!(m.active_count(), 0);
        assert!(!m.is_busy(b), "aborted tx must release its energy");
        assert!(!m.is_receiving(b));
        assert_eq!(m.collisions(), 1, "truncated frame is a bad CRC");
        assert_eq!(m.clean_receptions(), 0);
        // The transmitter's radio is free again after reboot.
        let t = m.start_tx(a);
        assert_eq!(m.end_tx(t), vec![b]);
    }

    #[test]
    fn drop_rx_lock_loses_frame_keeps_energy() {
        let (mut m, a, b, _c) = hidden_node_medium();
        let t = m.start_tx(a);
        assert!(m.is_receiving(b));
        m.drop_rx_lock(b);
        assert!(!m.is_receiving(b));
        assert!(m.is_busy(b), "frame is still in the air");
        assert_eq!(m.end_tx(t), vec![], "reset radio must lose the frame");
        assert!(!m.is_busy(b));
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn abort_then_end_panics() {
        let (mut m, a, _, _) = hidden_node_medium();
        let t = m.start_tx(a);
        m.abort_tx(t);
        m.end_tx(t);
    }
}
