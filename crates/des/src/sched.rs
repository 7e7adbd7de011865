//! The event scheduler: a binary heap of timestamped events with
//! deterministic tie-breaking, plus an optional boundary calendar.
//!
//! ## Design
//!
//! Heap events live **inline** in a [`BinaryHeap`]: each entry holds
//! its `(time, seq)` ordering key next to the payload, so a sift moves
//! whole entries through one contiguous array and never follows an
//! index. `seq` is a per-scheduler insertion counter; it is unique, so
//! `(time, seq)` is a total order and equal timestamps pop in
//! insertion order.
//!
//! The heap is only pushed, popped and peeked. Nothing removes an
//! event early: a model that no longer wants a pending event keeps a
//! generation counter and drops the stale event when it fires, as
//! `qma-netsim`'s world does.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One pending heap event with its ordering key inline.
#[derive(Debug)]
struct HeapEntry<E> {
    time: SimTime,
    /// Insertion sequence number: the FIFO tie-breaker.
    seq: u64,
    event: E,
}

impl<E> HeapEntry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    /// Reversed `(time, seq)`: std's max-heap then pops the earliest
    /// event first.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// One pending entry of a [`BoundaryWheel`] bucket: `(seq, time,
/// event)`. The event is an `Option` only so consumption can move it
/// out while the bucket keeps its allocation (buckets are recycled
/// every wheel revolution; reallocating per revolution would put an
/// allocation back on the hot path).
type WheelEntry<E> = (u64, SimTime, Option<E>);

#[derive(Debug)]
struct WheelBucket<E> {
    /// Global boundary index currently mapped onto this ring slot
    /// (meaningful only while `entries` is non-empty).
    index: u64,
    entries: Vec<WheelEntry<E>>,
}

/// A bucketed calendar for events whose deadlines land on a known
/// monotone grid of *boundary indices* (in QMA: DSME subslot
/// boundaries, index = `frame × M + subslot`).
///
/// The caller supplies the index alongside the timestamp, so insertion
/// is O(1) — one ring lookup plus a `Vec` push — and so is popping the
/// head. Within a bucket, entries are consumed in insertion order,
/// which equals ascending global sequence number because the scheduler
/// hands out monotone sequence numbers; across buckets the caller's
/// contract (time strictly increases with index) keeps time order.
/// Together with the two-source merge in [`Scheduler::pop`] this
/// preserves the exact `(time, seq)` total order of the heap-only
/// scheduler, bit for bit.
#[derive(Debug)]
struct BoundaryWheel<E> {
    /// Ring size − 1 (size is a power of two).
    mask: u64,
    buckets: Vec<WheelBucket<E>>,
    /// Global boundary index of the bucket holding the earliest
    /// pending entries. Valid only while `len > 0`.
    cursor: u64,
    /// Consumption position inside the cursor bucket.
    head_pos: usize,
    /// Live entries across all buckets (exact).
    len: usize,
}

impl<E> BoundaryWheel<E> {
    fn new(window: usize) -> Self {
        let size = window.max(2).next_power_of_two();
        BoundaryWheel {
            mask: size as u64 - 1,
            buckets: (0..size)
                .map(|_| WheelBucket {
                    index: 0,
                    entries: Vec::new(),
                })
                .collect(),
            cursor: 0,
            head_pos: 0,
            len: 0,
        }
    }

    /// Inserts an entry; hands the event back when it does not fit the
    /// ring (outside the window, or its slot is aliased by a pending
    /// bucket of a different index) so the caller can fall back to the
    /// heap.
    fn insert(&mut self, time: SimTime, index: u64, seq: u64, event: E) -> Result<(), E> {
        if self.len == 0 {
            self.cursor = index;
            self.head_pos = 0;
        } else if index < self.cursor {
            // An earlier boundary than anything pending (e.g. a parked
            // MAC re-armed for the current subslot while others sleep
            // further ahead): move the cursor back if the slot is
            // free.
            if !self.buckets[(index & self.mask) as usize]
                .entries
                .is_empty()
            {
                return Err(event);
            }
            self.cursor = index;
            self.head_pos = 0;
        } else if index - self.cursor > self.mask {
            return Err(event); // beyond the ring window
        }
        let bucket = &mut self.buckets[(index & self.mask) as usize];
        if bucket.entries.is_empty() {
            bucket.index = index;
        } else if bucket.index != index {
            return Err(event); // ring slot aliased by another index
        } else if bucket.entries[0].1 != time {
            // The caller's `index → time` contract promises equal
            // indices map to equal instants. A violation (two times on
            // one index) would corrupt bucket time order, so route the
            // offender through the heap — delivery order stays exact
            // even under a broken contract.
            return Err(event);
        }
        bucket.entries.push((seq, time, Some(event)));
        self.len += 1;
        Ok(())
    }

    /// `(time, seq)` of the earliest pending entry.
    #[inline]
    fn head(&self) -> Option<(SimTime, u64)> {
        if self.len == 0 {
            return None;
        }
        let bucket = &self.buckets[(self.cursor & self.mask) as usize];
        let (seq, time, _) = &bucket.entries[self.head_pos];
        Some((*time, *seq))
    }

    /// Removes and returns the earliest pending entry together with
    /// the *next* head's `(time, seq)` — computed while the bucket is
    /// still hot in cache, so the scheduler's mirrored head needs no
    /// second pointer chase. Must only be called when
    /// [`BoundaryWheel::head`] is `Some`.
    fn pop(&mut self) -> (SimTime, E, Option<(SimTime, u64)>) {
        let slot = (self.cursor & self.mask) as usize;
        let bucket = &mut self.buckets[slot];
        let (time, event) = {
            let entry = &mut bucket.entries[self.head_pos];
            (entry.1, entry.2.take().expect("entry taken twice"))
        };
        self.head_pos += 1;
        self.len -= 1;
        let next_head = if self.head_pos < bucket.entries.len() {
            // Same bucket: the successor sits on the line just read.
            let (seq, t, _) = &bucket.entries[self.head_pos];
            Some((*t, *seq))
        } else {
            bucket.entries.clear(); // keep the allocation
            self.head_pos = 0;
            if self.len > 0 {
                self.advance_cursor();
                self.head()
            } else {
                None
            }
        };
        (time, event, next_head)
    }

    /// Walks the cursor forward to the next pending bucket. Bounded by
    /// the ring size; amortized O(1) because the cursor only ever
    /// moves forward through indices that held (or could have held)
    /// one bucket each.
    fn advance_cursor(&mut self) {
        loop {
            self.cursor += 1;
            let bucket = &self.buckets[(self.cursor & self.mask) as usize];
            if !bucket.entries.is_empty() && bucket.index == self.cursor {
                break;
            }
        }
    }
}

/// An event popped from the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventEntry<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The payload.
    pub event: E,
}

/// A deterministic future-event list.
///
/// Events with equal timestamps are delivered in insertion order, and
/// [`Scheduler::len`] and [`Scheduler::is_empty`] are exact in O(1).
///
/// # Examples
///
/// ```
/// use qma_des::{Scheduler, SimTime};
///
/// let mut s = Scheduler::new();
/// s.schedule_at(SimTime::from_secs(2), "b");
/// s.schedule_at(SimTime::from_secs(1), "a");
/// assert_eq!(s.pop().unwrap().event, "a");
/// assert_eq!(s.pop().unwrap().event, "b");
/// ```
// Field order groups the per-event-hot state (heap, mirrored wheel
// head, clock, sequence counter) at the front so the pop/peek merge
// works out of one or two cache lines; the cold counters follow.
#[derive(Debug)]
pub struct Scheduler<E> {
    /// Pending heap events, earliest `(time, seq)` on top.
    heap: BinaryHeap<HeapEntry<E>>,
    /// `(time, seq)` of the wheel's earliest entry, mirrored inline so
    /// the per-event peek/pop merge reads one scheduler field instead
    /// of chasing `Box → buckets → entries` twice per event.
    wheel_head: Option<(SimTime, u64)>,
    now: SimTime,
    next_seq: u64,
    /// O(1) calendar for boundary-aligned events (see
    /// [`Scheduler::schedule_boundary`]); `None` until
    /// [`Scheduler::enable_wheel`].
    wheel: Option<Box<BoundaryWheel<E>>>,
    popped_total: u64,
    past_clamps: u64,
    /// When `true`, past-time scheduling is *expected* (fault-injected
    /// clock skew) and is counted instead of panicking, even in debug
    /// builds. The caller polices the count against its budget.
    clamp_tolerant: bool,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty scheduler with room for `capacity` concurrent
    /// heap events before reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Scheduler {
            heap: BinaryHeap::with_capacity(capacity),
            wheel_head: None,
            now: SimTime::ZERO,
            next_seq: 0,
            wheel: None,
            popped_total: 0,
            past_clamps: 0,
            clamp_tolerant: false,
        }
    }

    /// Attaches a boundary calendar with (at least) `window` ring
    /// slots, enabling the O(1) path of
    /// [`Scheduler::schedule_boundary`]. The window bounds how far
    /// ahead of the earliest pending boundary an event may be wheeled;
    /// events beyond it transparently fall back to the heap. The ring
    /// size is rounded up to a power of two and capped at 4096.
    pub fn enable_wheel(&mut self, window: usize) {
        self.wheel = Some(Box::new(BoundaryWheel::new(window.min(4096))));
    }

    /// Whether a boundary calendar is attached.
    pub fn wheel_enabled(&self) -> bool {
        self.wheel.is_some()
    }

    /// The current simulated time (the timestamp of the most recently
    /// popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Scheduling in the past is a logic error; debug builds panic,
    /// release builds clamp the event to `now` (counted in
    /// [`Scheduler::past_clamps`]) so simulated time stays monotone.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let time = if time < self.now {
            self.clamp_past(time)
        } else {
            time
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }

    /// Cold path for past-time scheduling: debug builds panic (the
    /// message formatting lives here, off the hot path), release
    /// builds count the clamp and pin the event to `now`. With
    /// [`Scheduler::set_clamp_tolerant`] armed, both build profiles
    /// count instead — the run loop enforces its clamp budget.
    #[cold]
    fn clamp_past(&mut self, time: SimTime) -> SimTime {
        if cfg!(debug_assertions) && !self.clamp_tolerant {
            panic!("scheduling into the past: {time} < {}", self.now);
        }
        self.past_clamps += 1;
        self.now
    }

    /// Declares past-time scheduling an expected (budgeted) condition
    /// rather than a logic error: clamps are counted in
    /// [`Scheduler::past_clamps`] in every build profile instead of
    /// panicking in debug. Fault-injected clock skew legitimately
    /// drives timers into the past; the simulation's run loop arms this
    /// and aborts the run when the count exceeds its configured
    /// budget.
    pub fn set_clamp_tolerant(&mut self, tolerant: bool) {
        self.clamp_tolerant = tolerant;
    }

    /// Schedules `event` after the relative delay `delay`.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at the boundary instant `time` carrying the
    /// caller-computed global boundary `index` — O(1) when the wheel
    /// is enabled and the index fits its window, falling back to the
    /// ordinary heap otherwise (identical delivery order either way).
    ///
    /// Contract: over one scheduler's lifetime the `index → time`
    /// mapping must be strictly monotone and consistent (equal indices
    /// ⇒ equal times, larger index ⇒ later time). QMA's frame clock
    /// satisfies this with `index = frame × M + subslot`.
    #[inline]
    pub fn schedule_boundary(&mut self, time: SimTime, index: u64, event: E) {
        if time < self.now {
            let time = self.clamp_past(time);
            self.schedule_at(time, event);
            return;
        }
        let Some(wheel) = &mut self.wheel else {
            self.schedule_at(time, event);
            return;
        };
        let seq = self.next_seq;
        match wheel.insert(time, index, seq, event) {
            Ok(()) => {
                self.next_seq += 1;
                // Monotone seqs mean a later insert only displaces the
                // head when its (time, seq) is strictly smaller, i.e.
                // when it landed on an earlier boundary.
                if self.wheel_head.is_none_or(|h| (time, seq) < h) {
                    self.wheel_head = Some((time, seq));
                }
            }
            Err(event) => {
                self.schedule_at(time, event);
            }
        }
    }

    /// Removes and returns the earliest pending event across the heap
    /// and the boundary wheel (exact `(time, seq)` merge), advancing
    /// `now`. Returns `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        if let Some(w) = self.wheel_head {
            // Sequence numbers are globally unique, so the two heads
            // never compare equal — the merge is a total order.
            let heap_first = self.heap.peek().is_some_and(|e| e.key() < w);
            return Some(if heap_first {
                self.pop_heap()
            } else {
                self.pop_wheel()
            });
        }
        // Heap-only fast path: the common shape for schedulers without
        // a wheel (and for drained wheels).
        let HeapEntry { time, event, .. } = self.heap.pop()?;
        Some(self.fire(time, event))
    }

    /// [`Scheduler::pop`] bounded by a time horizon: pops only if the
    /// earliest pending event fires at or before `horizon`. One merged
    /// head inspection instead of a separate peek + pop — the shape
    /// a horizon-bounded run loop wants.
    #[inline]
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<EventEntry<E>> {
        if let Some(w) = self.wheel_head {
            let heap_head = self.heap.peek().map(HeapEntry::key);
            let heap_first = heap_head.is_some_and(|h| h < w);
            let head_time = if heap_first {
                heap_head.expect("checked").0
            } else {
                w.0
            };
            if head_time > horizon {
                return None;
            }
            return Some(if heap_first {
                self.pop_heap()
            } else {
                self.pop_wheel()
            });
        }
        match self.heap.peek() {
            Some(e) if e.time <= horizon => Some(self.pop_heap()),
            _ => None,
        }
    }

    /// Pops the heap's head; the caller has checked that there is one.
    #[inline]
    fn pop_heap(&mut self) -> EventEntry<E> {
        let HeapEntry { time, event, .. } = self.heap.pop().expect("heap head checked");
        self.fire(time, event)
    }

    #[inline]
    fn pop_wheel(&mut self) -> EventEntry<E> {
        let wheel = self.wheel.as_mut().expect("wheel head checked");
        let (time, event, next_head) = wheel.pop();
        self.wheel_head = next_head;
        self.fire(time, event)
    }

    /// Advances the clock to a popped event and counts it.
    #[inline]
    fn fire(&mut self, time: SimTime, event: E) -> EventEntry<E> {
        debug_assert!(time >= self.now);
        self.now = time;
        self.popped_total += 1;
        EventEntry { time, event }
    }

    /// Timestamp of the next pending event — across the heap *and* the
    /// wheel buckets — without popping it. O(1) and non-mutating.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        let Some(w) = self.wheel_head else {
            return self.heap.peek().map(|e| e.time);
        };
        match self.heap.peek() {
            Some(e) if e.key() < w => Some(e.time),
            _ => Some(w.0),
        }
    }

    /// Number of pending events (heap + wheel buckets), exact in O(1).
    pub fn len(&self) -> usize {
        self.heap.len() + self.wheel.as_deref().map_or(0, |w| w.len)
    }

    /// Returns `true` when no events are pending in either the heap or
    /// the wheel, exact in O(1).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever popped — i.e. delivered to a
    /// handler (for events/sec throughput metrics).
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }

    /// Number of events whose timestamp lay in the past and was
    /// clamped to `now` (always zero in debug builds, which panic
    /// instead).
    pub fn past_clamps(&self) -> u64 {
        self.past_clamps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(3), 3);
        s.schedule_at(SimTime::from_secs(1), 1);
        s.schedule_at(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule_at(SimTime::from_secs(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_at_or_before_takes_an_event_exactly_at_the_horizon() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(2), 9);
        let entry = s
            .pop_at_or_before(SimTime::from_secs(2))
            .expect("due at the horizon");
        assert_eq!((entry.time, entry.event), (SimTime::from_secs(2), 9));
        assert!(s.is_empty());
    }

    #[test]
    fn pop_at_or_before_leaves_later_events_queued() {
        let mut s = Scheduler::new();
        for secs in [1, 2, 3] {
            s.schedule_at(SimTime::from_secs(secs), secs);
        }
        let horizon = SimTime::from_millis(2_500);
        let popped: Vec<u64> =
            std::iter::from_fn(|| s.pop_at_or_before(horizon).map(|e| e.event)).collect();
        assert_eq!(popped, vec![1, 2]);
        assert_eq!(s.len(), 1, "the t = 3 s event stays queued");
        assert_eq!(s.now(), SimTime::from_secs(2));
        assert_eq!(s.pop().map(|e| e.event), Some(3));
    }

    #[test]
    fn now_advances_with_pops() {
        let mut s = Scheduler::new();
        s.schedule_in(SimDuration::from_millis(5), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_millis(5));
        s.schedule_in(SimDuration::from_millis(5), ());
        s.pop();
        assert_eq!(s.now(), SimTime::from_millis(10));
    }

    #[test]
    fn peek_is_non_mutating_and_skips_nothing() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(2), 2);
        s.schedule_at(SimTime::from_secs(1), 1);
        let s_ref: &Scheduler<i32> = &s; // peeking needs only &self
        assert_eq!(s_ref.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(s_ref.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!((s_ref.len(), s_ref.now()), (2, SimTime::ZERO));
        assert_eq!(s.pop().unwrap().event, 1);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(s.pop().unwrap().event, 2);
        assert_eq!(s.peek_time(), None);
    }

    #[test]
    fn randomized_against_reference_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Reference: a sorted map keyed by (time, seq), mirroring the
        // FIFO-among-equals contract: a payload mismatch is an order
        // mismatch. Times fall on the next few boundaries or a few
        // microseconds after `now`, so equal timestamps are common —
        // within the heap and, with the wheel on, across heap and
        // wheel.
        for wheel in [false, true] {
            let mut reference: std::collections::BTreeMap<(SimTime, u64), u32> = Default::default();
            let mut s: Scheduler<u32> = Scheduler::new();
            if wheel {
                s.enable_wheel(8);
            }
            let mut rng = StdRng::seed_from_u64(0xDE5);
            let mut seq = 0u64;
            let mut now = SimTime::ZERO;
            let mut wheeled = false;
            for step in 0..20_000u32 {
                // One of the four boundaries at or after `now`.
                let index = now.as_micros().div_ceil(1_000) + rng.gen_range(0u64..4);
                let popped = match rng.gen_range(0u32..10) {
                    0..=1 => {
                        s.schedule_boundary(boundary_time(index), index, step);
                        reference.insert((boundary_time(index), seq), step);
                        seq += 1;
                        None
                    }
                    2..=3 => {
                        s.schedule_at(boundary_time(index), step);
                        reference.insert((boundary_time(index), seq), step);
                        seq += 1;
                        None
                    }
                    4 => {
                        let delay = SimDuration::from_micros(rng.gen_range(0u64..3));
                        s.schedule_in(delay, step);
                        reference.insert((now + delay, seq), step);
                        seq += 1;
                        None
                    }
                    5..=7 => Some((s.pop(), reference.pop_first())),
                    _ => {
                        let horizon = now + SimDuration::from_micros(rng.gen_range(0u64..2_000));
                        let due = reference
                            .first_key_value()
                            .is_some_and(|((t, _), _)| *t <= horizon);
                        let expected = if due { reference.pop_first() } else { None };
                        Some((s.pop_at_or_before(horizon), expected))
                    }
                };
                match popped {
                    None | Some((None, None)) => {}
                    Some((Some(e), Some(((t, _), v)))) => {
                        assert_eq!(e.time, t, "time mismatch at step {step}");
                        assert_eq!(e.event, v, "payload mismatch at step {step}");
                        now = t;
                    }
                    Some((g, e)) => panic!("model mismatch at step {step}: {g:?} vs {e:?}"),
                }
                assert_eq!(s.now(), now);
                assert_eq!(s.len(), reference.len());
                assert_eq!(s.is_empty(), reference.is_empty());
                assert_eq!(
                    s.peek_time(),
                    reference.first_key_value().map(|((t, _), _)| *t)
                );
                wheeled |= on_heap(&s) < s.len();
            }
            assert_eq!(wheeled, wheel);
        }
    }

    #[test]
    fn past_scheduling_is_clamped_in_release() {
        // In debug builds this would panic, so only exercise the
        // clamping branch when debug assertions are off.
        if cfg!(debug_assertions) {
            return;
        }
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(10), "late");
        s.pop();
        s.schedule_at(SimTime::from_secs(1), "past");
        assert_eq!(s.past_clamps(), 1);
        let e = s.pop().unwrap();
        assert_eq!(e.time, SimTime::from_secs(10));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics_in_debug() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(10), ());
        s.pop();
        s.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn clamp_tolerant_counts_in_every_profile() {
        // With tolerance armed, past scheduling must count + clamp —
        // in debug builds too (skewed chaos runs would otherwise be
        // untestable under `cargo test`).
        let mut s = Scheduler::new();
        s.set_clamp_tolerant(true);
        s.schedule_at(SimTime::from_secs(10), "late");
        s.pop();
        s.schedule_at(SimTime::from_secs(1), "past");
        assert_eq!(s.past_clamps(), 1);
        let e = s.pop().unwrap();
        assert_eq!(e.time, SimTime::from_secs(10), "clamped to now");
        assert_eq!(e.event, "past");

        // The boundary path counts under the same switch.
        let mut w: Scheduler<u32> = Scheduler::new();
        w.enable_wheel(16);
        w.set_clamp_tolerant(true);
        w.schedule_at(SimTime::from_secs(10), 0);
        w.pop();
        w.schedule_boundary(boundary_time(1), 1, 1);
        assert_eq!(w.past_clamps(), 1);
        assert_eq!(w.pop().unwrap().event, 1);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut s = Scheduler::with_capacity(32);
        s.schedule_at(SimTime::from_secs(1), 1);
        assert_eq!(s.pop().unwrap().event, 1);
        assert_eq!(s.past_clamps(), 0);
    }

    // ---- boundary-wheel tests ----

    /// The boundary grid used by the wheel tests: boundary `i` fires
    /// at `i` milliseconds (strictly monotone, consistent).
    fn boundary_time(i: u64) -> SimTime {
        SimTime::from_millis(i)
    }

    /// Pending events that took the heap rather than the wheel.
    fn on_heap<E>(s: &Scheduler<E>) -> usize {
        s.heap.len()
    }

    #[test]
    fn wheel_pops_in_boundary_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_wheel(16);
        for i in [3u64, 1, 2, 1] {
            s.schedule_boundary(boundary_time(i), i, i as u32);
        }
        assert_eq!(on_heap(&s), 0);
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 1, 2, 3]);
    }

    #[test]
    fn wheel_len_is_empty_peek_account_for_buckets() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_wheel(16);
        assert!(s.is_empty());

        // Non-empty wheel, empty heap.
        s.schedule_boundary(boundary_time(2), 2, 20);
        s.schedule_boundary(boundary_time(2), 2, 21);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.peek_time(), Some(boundary_time(2)));

        // Empty wheel, non-empty heap.
        let mut h: Scheduler<u32> = Scheduler::new();
        h.enable_wheel(16);
        h.schedule_at(SimTime::from_millis(5), 50);
        assert_eq!(h.len(), 1);
        assert!(!h.is_empty());
        assert_eq!(h.peek_time(), Some(SimTime::from_millis(5)));

        // Both populated: peek sees the earlier source.
        h.schedule_boundary(boundary_time(1), 1, 10);
        assert_eq!(h.len(), 2);
        assert_eq!(h.peek_time(), Some(boundary_time(1)));
        assert_eq!(h.pop().unwrap().event, 10);
        assert_eq!(h.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(h.pop().unwrap().event, 50);
        assert!(h.is_empty());
        assert_eq!(h.peek_time(), None);
    }

    #[test]
    fn wheel_heap_tie_breaks_by_sequence_both_ways() {
        // Heap first, wheel second at the same instant: FIFO says the
        // heap event fires first.
        let mut s: Scheduler<&str> = Scheduler::new();
        s.enable_wheel(16);
        s.schedule_at(boundary_time(4), "heap");
        s.schedule_boundary(boundary_time(4), 4, "wheel");
        assert_eq!(s.pop().unwrap().event, "heap");
        assert_eq!(s.pop().unwrap().event, "wheel");

        // Wheel first, heap second: the wheel event fires first.
        let mut s: Scheduler<&str> = Scheduler::new();
        s.enable_wheel(16);
        s.schedule_boundary(boundary_time(4), 4, "wheel");
        s.schedule_at(boundary_time(4), "heap");
        assert_eq!(s.pop().unwrap().event, "wheel");
        assert_eq!(s.pop().unwrap().event, "heap");
    }

    #[test]
    fn wheel_window_overflow_falls_back_to_heap() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_wheel(4); // ring size 4
        s.schedule_boundary(boundary_time(1), 1, 1);
        // Index 100 is far outside the 4-slot window → heap fallback,
        // but ordering must be preserved regardless.
        s.schedule_boundary(boundary_time(100), 100, 100);
        s.schedule_boundary(boundary_time(2), 2, 2);
        assert_eq!(s.len(), 3);
        assert_eq!(on_heap(&s), 1);
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 100]);
    }

    #[test]
    fn wheel_cursor_moves_back_for_earlier_boundary() {
        // A parked node re-arming for an earlier boundary than the
        // earliest pending one (the on_enqueue wake-up pattern).
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_wheel(16);
        s.schedule_boundary(boundary_time(9), 9, 9);
        s.schedule_boundary(boundary_time(3), 3, 3);
        assert_eq!(s.peek_time(), Some(boundary_time(3)));
        assert_eq!(s.pop().unwrap().event, 3);
        assert_eq!(s.pop().unwrap().event, 9);
    }

    #[test]
    fn without_wheel_schedule_boundary_uses_the_heap() {
        let mut s: Scheduler<u32> = Scheduler::new();
        assert!(!s.wheel_enabled());
        s.schedule_boundary(boundary_time(2), 2, 2);
        s.schedule_boundary(boundary_time(1), 1, 1);
        assert_eq!(on_heap(&s), 2);
        assert_eq!(s.pop().unwrap().event, 1);
        assert_eq!(s.pop().unwrap().event, 2);
    }

    #[test]
    fn wheel_alias_collision_always_falls_back_to_heap() {
        // Regression (PR 5 satellite): an index whose ring slot
        // collides with a pending bucket of a *different* index
        // (`index & mask` aliasing) must take the heap fallback — it
        // must never fire a full window early or corrupt bucket order.
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_wheel(4); // ring size 4, mask 3

        // Move-back aliasing: bucket slot 1 holds index 9 (9 & 3 = 1);
        // an earlier boundary 1 aliases onto the same slot (1 & 3 = 1)
        // and must be rejected into the heap, not merged into the
        // index-9 bucket (which would fire it 8 boundaries late).
        s.schedule_boundary(boundary_time(9), 9, 9);
        s.schedule_boundary(boundary_time(1), 1, 1);
        assert_eq!(on_heap(&s), 1, "alias must go to the heap");
        assert_eq!(s.len(), 2);

        // Forward aliasing beyond the window: 13 & 3 = 1 also collides
        // and 13 − 9 > mask, so it must fall back too — *not* land in
        // the index-9 bucket and fire a full window early.
        s.schedule_boundary(boundary_time(13), 13, 13);
        assert_eq!(on_heap(&s), 2);

        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|e| e.event)).collect();
        assert_eq!(
            order,
            vec![1, 9, 13],
            "delivery order must survive aliasing"
        );
    }

    #[test]
    fn wheel_rejects_inconsistent_index_time_mapping() {
        // Hardening: if a caller violates the monotone `index → time`
        // contract (same index, two instants), the offender is routed
        // through the heap instead of corrupting the bucket's
        // single-instant invariant.
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_wheel(16);
        s.schedule_boundary(boundary_time(3), 3, 30);
        s.schedule_boundary(boundary_time(4), 3, 40); // same index, later time
        assert_eq!(on_heap(&s), 1);
        assert_eq!(s.pop().unwrap().event, 30);
        assert_eq!(s.pop().unwrap().event, 40);
        assert!(s.pop().is_none());
    }

    #[test]
    fn past_clamp_parity_wheel_vs_heap_path() {
        // PR 5 satellite: events scheduled into the past must clamp
        // and count identically whether they arrive through
        // `schedule_boundary` (the wheel path) or `schedule_at` (the
        // heap path). The clamp itself only exists in release builds —
        // debug builds panic (covered below) — so the counting half is
        // gated like `past_scheduling_is_clamped_in_release`.
        if cfg!(debug_assertions) {
            return;
        }
        let mut wheel: Scheduler<u32> = Scheduler::new();
        wheel.enable_wheel(16);
        let mut heap: Scheduler<u32> = Scheduler::new();
        for s in [&mut wheel, &mut heap] {
            s.schedule_at(SimTime::from_secs(10), 0);
            s.pop();
        }
        wheel.schedule_boundary(boundary_time(1), 1, 1); // past via the wheel path
        heap.schedule_at(boundary_time(1), 1); // past via the heap path
        assert_eq!(wheel.past_clamps(), 1, "wheel path must count the clamp");
        assert_eq!(heap.past_clamps(), 1);
        // Both deliver the clamped event at `now`, exactly once.
        for s in [&mut wheel, &mut heap] {
            let e = s.pop().unwrap();
            assert_eq!(e.time, SimTime::from_secs(10));
            assert_eq!(e.event, 1);
            assert!(s.pop().is_none());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn past_boundary_scheduling_panics_in_debug() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_wheel(16);
        s.schedule_at(SimTime::from_secs(10), 0);
        s.pop();
        s.schedule_boundary(boundary_time(1), 1, 1);
    }

    #[test]
    fn wheel_and_heap_merge_matches_reference_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Mixed workload: boundary events on a ms grid through the
        // wheel, aperiodic events through the heap, popped against a
        // BTreeMap reference keyed by (time, seq).
        let mut reference: std::collections::BTreeMap<(SimTime, u64), u32> = Default::default();
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_wheel(64);
        let mut rng = StdRng::seed_from_u64(0x1EE7);
        let mut seq = 0u64;
        for step in 0..30_000u32 {
            match rng.gen_range(0u32..10) {
                // 30% boundary schedule (one of the next 32 boundaries
                // strictly after `now`, so the grid contract holds)
                0..=2 => {
                    let now_ms = s.now().as_micros() / 1_000;
                    let i = now_ms + 1 + rng.gen_range(0u64..32);
                    let t = boundary_time(i);
                    s.schedule_boundary(t, i, step);
                    reference.insert((t, seq), step);
                    seq += 1;
                }
                // 30% aperiodic heap schedule
                3..=5 => {
                    let t =
                        s.now() + crate::time::SimDuration::from_micros(rng.gen_range(0u64..5_000));
                    s.schedule_at(t, step);
                    reference.insert((t, seq), step);
                    seq += 1;
                }
                // 40% pop
                _ => {
                    let expected = reference.pop_first();
                    let got = s.pop();
                    match (expected, got) {
                        (None, None) => {}
                        (Some(((t, _), v)), Some(e)) => {
                            assert_eq!(e.time, t, "time mismatch at step {step}");
                            assert_eq!(e.event, v, "payload mismatch at step {step}");
                        }
                        (e, g) => panic!("model mismatch at step {step}: {e:?} vs {g:?}"),
                    }
                }
            }
            assert_eq!(s.len(), reference.len());
            assert_eq!(
                s.peek_time(),
                reference.first_key_value().map(|((t, _), _)| *t)
            );
        }
    }
}
