//! The bounded MAC transmit queue.
//!
//! The paper's evaluation uses "the maximum queue size of 8 packets";
//! under overload "most packets are lost due to queue drops as
//! packets cannot be transmitted fast enough" (§6.1.1) — so drop
//! accounting matters as much as the queue itself.

use std::collections::VecDeque;

use qma_des::SimTime;

use crate::frame::{Address, Frame};

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
/// out of the frame so a tick touches no queue buffer.
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

/// Bounded FIFO transmit queue with drop counting.
///
/// The queue keeps a [`HeadInfo`] copy of the head frame next to its
/// length, refreshed on every push and pop; the head frame itself can
/// only have its retry count bumped in place, so the copy cannot drift
/// from it.
///
/// # Examples
///
/// ```
/// use qma_netsim::{Frame, NodeId, TxQueue};
/// use qma_des::SimTime;
///
/// let mut q = TxQueue::new(2);
/// let f = Frame::data(NodeId(0), NodeId(1).into(), 0, 10, true);
/// assert!(q.push(f.clone(), SimTime::ZERO));
/// assert!(q.push(f.clone(), SimTime::ZERO));
/// assert!(!q.push(f, SimTime::ZERO)); // full → dropped
/// assert_eq!(q.drops(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TxQueue {
    items: VecDeque<QueuedFrame>,
    /// The head frame's tick fields; meaningless while empty.
    head: HeadInfo,
    capacity: u32,
    drops: u64,
    enqueued_total: u64,
}

impl TxQueue {
    /// Creates a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit in a `u32`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        TxQueue {
            items: VecDeque::with_capacity(capacity),
            head: HeadInfo::default(),
            capacity: u32::try_from(capacity).expect("queue capacity fits in u32"),
            drops: 0,
            enqueued_total: 0,
        }
    }

    /// Appends a frame; returns `false` (and counts a drop) when the
    /// queue is full.
    pub fn push(&mut self, frame: Frame, now: SimTime) -> bool {
        if self.items.len() >= self.capacity() {
            self.drops += 1;
            return false;
        }
        self.enqueued_total += 1;
        if self.items.is_empty() {
            self.head = HeadInfo::of(&frame);
        }
        self.items.push_back(QueuedFrame {
            frame,
            enqueued_at: now,
            retries: 0,
        });
        true
    }

    /// The head-of-line entry, if any.
    pub fn head(&self) -> Option<&QueuedFrame> {
        self.items.front()
    }

    /// The head frame's tick fields, read without touching the queue
    /// buffer.
    #[inline]
    pub fn head_info(&self) -> Option<HeadInfo> {
        (!self.items.is_empty()).then_some(self.head)
    }

    /// Counts one more retransmission of the head entry and returns
    /// its retry count.
    pub fn bump_head_retries(&mut self) -> Option<u8> {
        let head = self.items.front_mut()?;
        head.retries += 1;
        Some(head.retries)
    }

    /// Removes and returns the head entry.
    pub fn pop(&mut self) -> Option<QueuedFrame> {
        let popped = self.items.pop_front();
        if let Some(next) = self.items.front() {
            self.head = HeadInfo::of(&next.frame);
        }
        popped
    }

    /// Number of queued frames.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
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
        self.items.len().min(u8::MAX as usize) as u8
    }

    /// Iterates over queued entries, head first.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedFrame> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::NodeId;

    fn frame(seq: u32) -> Frame {
        Frame::data(NodeId(0), NodeId(1).into(), seq, 10, true)
    }

    #[test]
    fn fifo_order() {
        let mut q = TxQueue::new(8);
        for s in 0..3 {
            assert!(q.push(frame(s), SimTime::from_secs(s as u64)));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().frame.seq, 0);
        assert_eq!(q.pop().unwrap().frame.seq, 1);
        assert_eq!(q.pop().unwrap().frame.seq, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn capacity_enforced_with_drop_count() {
        let mut q = TxQueue::new(8);
        for s in 0..8 {
            assert!(q.push(frame(s), SimTime::ZERO));
        }
        for s in 8..11 {
            assert!(!q.push(frame(s), SimTime::ZERO));
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.drops(), 3);
        assert_eq!(q.enqueued_total(), 8);
    }

    #[test]
    fn head_and_retries() {
        let mut q = TxQueue::new(2);
        assert_eq!(q.bump_head_retries(), None);
        q.push(frame(0), SimTime::from_millis(5));
        assert_eq!(q.head().unwrap().retries, 0);
        assert_eq!(q.bump_head_retries(), Some(1));
        assert_eq!(q.head().unwrap().retries, 1);
        assert_eq!(q.head().unwrap().enqueued_at, SimTime::from_millis(5));
    }

    #[test]
    fn level_saturates() {
        let mut q = TxQueue::new(300);
        for s in 0..300 {
            q.push(frame(s), SimTime::ZERO);
        }
        assert_eq!(q.level_u8(), 255);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TxQueue::new(0);
    }

    #[test]
    fn iter_in_order() {
        let mut q = TxQueue::new(4);
        for s in 0..4 {
            q.push(frame(s), SimTime::ZERO);
        }
        let seqs: Vec<u32> = q.iter().map(|e| e.frame.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }
}
