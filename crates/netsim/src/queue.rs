//! The bounded MAC transmit queues of a world.
//!
//! The paper's evaluation uses "the maximum queue size of 8 packets";
//! under overload "most packets are lost due to queue drops as
//! packets cannot be transmitted fast enough" (§6.1.1) — so drop
//! accounting matters as much as the queue itself.
//!
//! A world holds far fewer queued frames than its queues could hold
//! (a 10,000-node grid peaks at about 1.7 per node against a bound of
//! 8), so the frames do not live in per-node buffers. [`TxQueues`]
//! keeps one small [`TxQueue`] header per node and every queued frame
//! in one pool of fixed pages, which grows with the peak number of
//! frames queued at once.

use std::ops::Index;

use qma_des::SimTime;

use crate::frame::{Address, Frame};

/// Frame slots per pool page (64 × 120 B = 7.5 KiB).
const PAGE_SLOTS: usize = 64;

/// "No slot": the end of a queue's chain or of the free list.
const NIL: u32 = u32::MAX;

/// An entry waiting for transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedFrame {
    /// The frame to transmit.
    pub frame: Frame,
    /// When it entered the queue (MAC delay accounting).
    pub enqueued_at: SimTime,
    /// Retransmissions already attempted.
    pub retries: u8,
}

/// The fields of the head-of-line frame a subslot tick reads, copied
/// out of the frame so a tick touches no frame slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadInfo {
    /// The head frame's destination.
    pub dst: Address,
    /// The head frame's PSDU length in octets.
    pub psdu_octets: u16,
    /// Whether the head frame requests an acknowledgement.
    pub ack_request: bool,
}

impl Default for HeadInfo {
    fn default() -> Self {
        HeadInfo {
            dst: Address::Broadcast,
            psdu_octets: 0,
            ack_request: false,
        }
    }
}

impl HeadInfo {
    fn of(frame: &Frame) -> Self {
        HeadInfo {
            dst: frame.dst,
            psdu_octets: frame.psdu_octets,
            ack_request: frame.ack_request,
        }
    }
}

/// One node's bounded FIFO transmit queue: the header a subslot tick
/// reads.
///
/// The header holds the length, the drop counts and a [`HeadInfo`]
/// copy of the head frame, refreshed on every push and pop; the frames
/// themselves sit in the [`TxQueues`] pool, chained from `first` to
/// `last`. The head frame can only have its retry count bumped in
/// place, so the copy cannot drift from it.
#[derive(Debug, Clone)]
pub struct TxQueue {
    /// The head frame's tick fields; meaningless while empty.
    head: HeadInfo,
    len: u32,
    capacity: u32,
    /// Pool slots of the head and the tail frame; meaningless while
    /// empty.
    first: u32,
    last: u32,
    drops: u64,
    enqueued_total: u64,
}

impl TxQueue {
    /// The head frame's tick fields, read without touching the pool.
    #[inline]
    pub fn head_info(&self) -> Option<HeadInfo> {
        (self.len > 0).then_some(self.head)
    }

    /// Number of queued frames.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Frames rejected because the queue was full.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Frames accepted so far.
    pub fn enqueued_total(&self) -> u64 {
        self.enqueued_total
    }

    /// The queue level as piggybacked in frames (saturating u8).
    pub fn level_u8(&self) -> u8 {
        self.len.min(u32::from(u8::MAX)) as u8
    }
}

/// A pool slot: a queued frame, or a free slot.
#[derive(Debug, Clone)]
struct Slot {
    entry: Option<QueuedFrame>,
    /// The next slot of the same queue, or of the free list.
    next: u32,
}

/// The page and the offset of pool slot `slot`.
#[inline]
fn locate(slot: u32) -> (usize, usize) {
    (slot as usize / PAGE_SLOTS, slot as usize % PAGE_SLOTS)
}

/// Every node's transmit queue: one [`TxQueue`] header per node
/// (reached by indexing with the node index) and one pool of frame
/// slots shared by all of them.
///
/// The pool is a list of 64-slot pages. Free slots form one LIFO list
/// linked through the slots themselves, so a pop hands its slot to the
/// next push and the pool only grows, by one page, when every slot is
/// taken. The first page is allocated by the first push. Each node's
/// queue stays exactly FIFO; slot indices never leave this type.
///
/// # Examples
///
/// ```
/// use qma_netsim::{Frame, NodeId, TxQueues};
/// use qma_des::SimTime;
///
/// let mut queues = TxQueues::new(3, 2);
/// let f = Frame::data(NodeId(0), NodeId(1).into(), 0, 10, true);
/// assert!(queues.push(0, f.clone(), SimTime::ZERO));
/// assert!(queues.push(0, f.clone(), SimTime::ZERO));
/// assert!(!queues.push(0, f, SimTime::ZERO)); // full → dropped
/// assert_eq!(queues[0].len(), 2);
/// assert_eq!(queues[0].drops(), 1);
/// assert!(queues[1].is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TxQueues {
    queues: Vec<TxQueue>,
    pages: Vec<Box<[Slot; PAGE_SLOTS]>>,
    /// The first free slot, or [`NIL`] when every page is full.
    free: u32,
}

impl TxQueues {
    /// Creates `nodes` empty queues of the given capacity. Allocates
    /// no frame slot.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit in a `u32`.
    pub fn new(nodes: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let capacity = u32::try_from(capacity).expect("queue capacity fits in u32");
        let empty = TxQueue {
            head: HeadInfo::default(),
            len: 0,
            capacity,
            first: NIL,
            last: NIL,
            drops: 0,
            enqueued_total: 0,
        };
        TxQueues {
            queues: vec![empty; nodes],
            pages: Vec::new(),
            free: NIL,
        }
    }

    /// Appends a frame to `node`'s queue; returns `false` (and counts
    /// a drop) when that queue is full.
    pub fn push(&mut self, node: usize, frame: Frame, now: SimTime) -> bool {
        let q = &mut self.queues[node];
        if q.len >= q.capacity {
            q.drops += 1;
            return false;
        }
        q.enqueued_total += 1;
        let head = HeadInfo::of(&frame);
        let slot = self.take_free_slot(QueuedFrame {
            frame,
            enqueued_at: now,
            retries: 0,
        });
        let q = &mut self.queues[node];
        if q.len == 0 {
            q.head = head;
            q.first = slot;
        } else {
            let (p, k) = locate(q.last);
            self.pages[p][k].next = slot;
        }
        q.last = slot;
        q.len += 1;
        true
    }

    /// The head-of-line entry of `node`'s queue, if any.
    pub fn head(&self, node: usize) -> Option<&QueuedFrame> {
        let q = &self.queues[node];
        (q.len > 0).then(|| self.entry(q.first))
    }

    /// Counts one more retransmission of `node`'s head entry and
    /// returns its retry count.
    pub fn bump_head_retries(&mut self, node: usize) -> Option<u8> {
        let q = &self.queues[node];
        if q.len == 0 {
            return None;
        }
        let (p, k) = locate(q.first);
        let head = self.pages[p][k]
            .entry
            .as_mut()
            .expect("a queued slot holds a frame");
        head.retries += 1;
        Some(head.retries)
    }

    /// Removes and returns `node`'s head entry, freeing its slot.
    pub fn pop(&mut self, node: usize) -> Option<QueuedFrame> {
        let q = &mut self.queues[node];
        if q.len == 0 {
            return None;
        }
        let popped = q.first;
        let (p, k) = locate(popped);
        let slot = &mut self.pages[p][k];
        let entry = slot.entry.take().expect("a queued slot holds a frame");
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = popped;
        q.len -= 1;
        if q.len > 0 {
            q.first = next;
            let (p, k) = locate(next);
            let frame = &self.pages[p][k]
                .entry
                .as_ref()
                .expect("a queued slot holds a frame")
                .frame;
            q.head = HeadInfo::of(frame);
        }
        Some(entry)
    }

    fn entry(&self, slot: u32) -> &QueuedFrame {
        let (p, k) = locate(slot);
        self.pages[p][k]
            .entry
            .as_ref()
            .expect("a queued slot holds a frame")
    }

    /// Stores `entry` in the first free slot, as the end of a chain,
    /// and returns the slot.
    fn take_free_slot(&mut self, entry: QueuedFrame) -> u32 {
        if self.free == NIL {
            self.add_page();
        }
        let taken = self.free;
        let (p, k) = locate(taken);
        let slot = &mut self.pages[p][k];
        self.free = std::mem::replace(&mut slot.next, NIL);
        slot.entry = Some(entry);
        taken
    }

    /// Adds a page whose slots form the whole free list, lowest index
    /// first. Only called with an empty free list.
    #[cold]
    fn add_page(&mut self) {
        let end = u32::try_from((self.pages.len() + 1) * PAGE_SLOTS)
            .ok()
            .filter(|&end| end < NIL)
            .expect("the frame pool fits u32 slot indices");
        let base = end - PAGE_SLOTS as u32;
        self.pages.push(Box::new(std::array::from_fn(|k| Slot {
            entry: None,
            next: if k + 1 < PAGE_SLOTS {
                base + k as u32 + 1
            } else {
                NIL
            },
        })));
        self.free = base;
    }
}

impl Index<usize> for TxQueues {
    type Output = TxQueue;

    /// The queue header of node index `node`.
    #[inline]
    fn index(&self, node: usize) -> &TxQueue {
        &self.queues[node]
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::world::NodeId;

    fn frame(seq: u32) -> Frame {
        Frame::data(NodeId(0), NodeId(1).into(), seq, 10, true)
    }

    #[test]
    fn fifo_order() {
        let mut q = TxQueues::new(1, 8);
        for s in 0..3 {
            assert!(q.push(0, frame(s), SimTime::from_secs(s as u64)));
        }
        assert_eq!(q[0].len(), 3);
        assert_eq!(q.pop(0).unwrap().frame.seq, 0);
        assert_eq!(q.pop(0).unwrap().frame.seq, 1);
        assert_eq!(q.pop(0).unwrap().frame.seq, 2);
        assert!(q.pop(0).is_none());
    }

    #[test]
    fn capacity_enforced_with_drop_count() {
        let mut q = TxQueues::new(1, 8);
        for s in 0..8 {
            assert!(q.push(0, frame(s), SimTime::ZERO));
        }
        for s in 8..11 {
            assert!(!q.push(0, frame(s), SimTime::ZERO));
        }
        assert_eq!(q[0].len(), 8);
        assert_eq!(q[0].drops(), 3);
        assert_eq!(q[0].enqueued_total(), 8);
    }

    #[test]
    fn head_and_retries() {
        let mut q = TxQueues::new(1, 2);
        assert_eq!(q.bump_head_retries(0), None);
        q.push(0, frame(0), SimTime::from_millis(5));
        assert_eq!(q.head(0).unwrap().retries, 0);
        assert_eq!(q.bump_head_retries(0), Some(1));
        assert_eq!(q.head(0).unwrap().retries, 1);
        assert_eq!(q.head(0).unwrap().enqueued_at, SimTime::from_millis(5));
    }

    #[test]
    fn level_saturates() {
        let mut q = TxQueues::new(1, 300);
        for s in 0..300 {
            q.push(0, frame(s), SimTime::ZERO);
        }
        assert_eq!(q[0].level_u8(), 255);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TxQueues::new(1, 0);
    }

    #[test]
    fn pages_come_with_the_first_push_and_the_peak() {
        let mut q = TxQueues::new(100, 8);
        assert!(q.pages.is_empty(), "building allocates no page");
        for node in 0..65 {
            q.push(node, frame(node as u32), SimTime::ZERO);
        }
        assert_eq!(q.pages.len(), 2);
        for node in 0..65 {
            q.pop(node);
        }
        // Freed slots are reused before the pool grows again.
        for node in 0..65 {
            q.push(99 - node, frame(node as u32), SimTime::ZERO);
        }
        assert_eq!(q.pages.len(), 2);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push { node: usize, dst: u32, payload: u16 },
        Pop(usize),
        Bump(usize),
        Wipe(usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..16, 0u32..6, 1u16..100).prop_map(|(node, dst, payload)| Op::Push {
                node,
                dst,
                payload
            }),
            (0usize..16, 0u32..6, 1u16..100).prop_map(|(node, dst, payload)| Op::Push {
                node,
                dst,
                payload
            }),
            (0usize..16).prop_map(Op::Pop),
            (0usize..16).prop_map(Op::Bump),
            (0usize..16).prop_map(Op::Wipe),
        ]
    }

    /// What a node's queue holds, per its model: a plain FIFO list.
    #[derive(Debug, Default)]
    struct Model {
        items: Vec<QueuedFrame>,
        drops: u64,
        enqueued_total: u64,
    }

    impl Model {
        fn pop(&mut self) -> Option<QueuedFrame> {
            (!self.items.is_empty()).then(|| self.items.remove(0))
        }
    }

    proptest! {
        /// Every node's queue behaves exactly like its own bounded
        /// FIFO list under interleaved pushes, pops, retry bumps and
        /// crash wipes; the pool holds exactly the modelled frames and
        /// never has more pages than the peak number of live frames
        /// needs.
        #[test]
        fn pool_queues_match_per_node_fifos(
            nodes in 1usize..=16,
            capacity in 1usize..=8,
            ops in prop::collection::vec(arb_op(), 0..400)
        ) {
            let mut pool = TxQueues::new(nodes, capacity);
            let mut models: Vec<Model> = (0..nodes).map(|_| Model::default()).collect();
            let mut peak_live = 0usize;
            for (step, op) in ops.into_iter().enumerate() {
                let now = SimTime::from_micros(step as u64);
                match op {
                    Op::Push { node, dst, payload } => {
                        let node = node % nodes;
                        let dst = if dst == 5 { Address::Broadcast } else { NodeId(dst).into() };
                        let f = Frame::data(NodeId(node as u32), dst, step as u32, payload, dst != Address::Broadcast);
                        let model = &mut models[node];
                        let fits = model.items.len() < capacity;
                        if fits {
                            model.enqueued_total += 1;
                            model.items.push(QueuedFrame { frame: f.clone(), enqueued_at: now, retries: 0 });
                        } else {
                            model.drops += 1;
                        }
                        prop_assert_eq!(pool.push(node, f, now), fits);
                    }
                    Op::Pop(node) => {
                        let node = node % nodes;
                        prop_assert_eq!(pool.pop(node), models[node].pop());
                    }
                    Op::Bump(node) => {
                        let node = node % nodes;
                        let want = models[node].items.first_mut().map(|h| {
                            h.retries += 1;
                            h.retries
                        });
                        prop_assert_eq!(pool.bump_head_retries(node), want);
                    }
                    Op::Wipe(node) => {
                        let node = node % nodes;
                        while let Some(popped) = pool.pop(node) {
                            prop_assert_eq!(Some(popped), models[node].pop());
                        }
                        prop_assert!(models[node].items.is_empty());
                    }
                }
                let mut live = 0;
                let mut drained = pool.clone();
                for (node, model) in models.iter().enumerate() {
                    let q = &pool[node];
                    prop_assert_eq!(q.len(), model.items.len());
                    prop_assert_eq!(q.is_empty(), model.items.is_empty());
                    prop_assert_eq!(q.capacity(), capacity);
                    prop_assert_eq!(q.drops(), model.drops);
                    prop_assert_eq!(q.enqueued_total(), model.enqueued_total);
                    prop_assert_eq!(pool.head(node), model.items.first());
                    prop_assert_eq!(q.head_info(), model.items.first().map(|h| HeadInfo::of(&h.frame)));
                    let queued: Vec<QueuedFrame> = std::iter::from_fn(|| drained.pop(node)).collect();
                    prop_assert!(queued.iter().eq(model.items.iter()));
                    live += model.items.len();
                }
                peak_live = peak_live.max(live);
                let occupied = pool.pages.iter().flat_map(|p| p.iter()).filter(|s| s.entry.is_some()).count();
                prop_assert_eq!(occupied, live);
                prop_assert!(pool.pages.len() <= peak_live.div_ceil(PAGE_SLOTS));
            }
        }
    }
}
