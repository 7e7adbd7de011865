//! Receiver-side machinery shared by all MACs: acknowledgement
//! generation after the rx→tx turnaround, duplicate suppression, and
//! upward delivery.

use qma_des::SimDuration;
use qma_netsim::{Frame, FrameKind, MacCtx, MacTimerKind, NodeId};

/// What [`ReceiverCommon::on_frame`] observed, for the MAC to react
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxEvent {
    /// Nothing relevant for the MAC state machine (frame handled /
    /// overheard).
    None,
    /// An acknowledgement addressed to this node, with the acked
    /// sequence number.
    AckForMe(u32),
}

/// Shared receiver state.
///
/// Kept out of line and built on first use: a MAC's timer paths never
/// read it, and a node that is never addressed never needs it, so the
/// per-node MAC stays small and a world's set-up allocates nothing for
/// it.
#[derive(Debug, Clone, Default)]
pub struct ReceiverCommon {
    state: Option<Box<RxState>>,
}

/// What a node that has been addressed remembers: the ACK it owes and
/// the last sequence number it delivered from each source.
#[derive(Debug, Clone, Default)]
struct RxState {
    /// Addressee and sequence number of the ACK to send when the
    /// turnaround timer fires; the frame is built then.
    pending_ack: Option<(NodeId, u32)>,
    /// `(source, last delivered sequence number)`, sorted by source.
    last_delivered: Vec<(u32, u32)>,
}

/// Does `frame` ask its addressee for an immediate ACK? Unicast frames
/// with the ACK-request bit do.
fn wants_ack(frame: &Frame) -> bool {
    frame.ack_request && !frame.dst.is_broadcast()
}

impl RxState {
    /// Records a frame addressed to this node: notes the ACK it asks
    /// for and returns whether it is new, that is, not a retransmission
    /// of the source's last delivered frame.
    fn receive(&mut self, frame: &Frame) -> bool {
        if wants_ack(frame) {
            self.pending_ack = Some((frame.src, frame.seq));
        }
        let src = frame.src.0;
        match self.last_delivered.binary_search_by_key(&src, |&(s, _)| s) {
            Ok(k) if self.last_delivered[k].1 == frame.seq => false,
            Ok(k) => {
                self.last_delivered[k].1 = frame.seq;
                true
            }
            Err(k) => {
                self.last_delivered.insert(k, (src, frame.seq));
                true
            }
        }
    }

    /// Takes the pending ACK, built as [`Frame::ack_for`] builds it.
    fn take_ack(&mut self, me: NodeId) -> Option<Frame> {
        self.pending_ack
            .take()
            .map(|(to, seq)| Frame::ack(me, to, seq))
    }
}

impl ReceiverCommon {
    /// Creates the receiver state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes a cleanly received frame: schedules an ACK when
    /// requested (via the `Aux1` timer after the turnaround time),
    /// delivers data/management frames addressed to this node to the
    /// upper layer with duplicate suppression, and reports ACKs
    /// addressed to this node.
    pub fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame) -> RxEvent {
        if frame.kind == FrameKind::Ack {
            if frame.dst.is_for(ctx.node) {
                return RxEvent::AckForMe(frame.seq);
            }
            return RxEvent::None;
        }
        if !frame.dst.is_for(ctx.node) {
            return RxEvent::None;
        }
        // Duplicate suppression: a retransmission whose ACK was lost
        // must be re-acknowledged but not re-delivered.
        let new = self.state.get_or_insert_default().receive(frame);
        // Unicast frames requesting an ACK get one after aTurnaround.
        if wants_ack(frame) {
            ctx.set_timer(
                MacTimerKind::Aux1,
                SimDuration::from_micros(ctx.phy().turnaround_us()),
            );
        }
        if new {
            ctx.deliver_to_upper(frame.clone());
        }
        RxEvent::None
    }

    /// Handles the `Aux1` (ACK turnaround) timer: transmit the pending
    /// acknowledgement unless this node is mid-transmission.
    /// Returns `true` if an ACK transmission was started.
    pub fn on_ack_timer(&mut self, ctx: &mut MacCtx<'_>) -> bool {
        if let Some(ack) = self.state.as_mut().and_then(|s| s.take_ack(ctx.node)) {
            if !ctx.transmitting() {
                ctx.start_tx(ack);
                return true;
            }
        }
        false
    }

    /// Is an ACK transmission pending?
    pub fn ack_pending(&self) -> bool {
        self.state.as_ref().is_some_and(|s| s.pending_ack.is_some())
    }
}

#[cfg(test)]
mod tests {
    // ReceiverCommon needs a live MacCtx; it is exercised end-to-end
    // in the csma/qma integration tests below and in `tests/` at the
    // workspace root. Here we test the state it keeps.
    use std::collections::BTreeMap;

    use qma_netsim::Address;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn default_state_is_clean() {
        let r = ReceiverCommon::new();
        assert!(!r.ack_pending());
    }

    /// The receiver state as it was kept before: the whole ACK frame,
    /// and a map from source to last delivered sequence number.
    #[derive(Default)]
    struct MapModel {
        pending_ack: Option<Frame>,
        last_delivered: BTreeMap<u32, u32>,
    }

    impl MapModel {
        fn receive(&mut self, me: NodeId, frame: &Frame) -> bool {
            if frame.ack_request && !frame.dst.is_broadcast() {
                self.pending_ack = Some(Frame::ack_for(frame, me));
            }
            let dup = self.last_delivered.get(&frame.src.0) == Some(&frame.seq);
            if !dup {
                self.last_delivered.insert(frame.src.0, frame.seq);
            }
            !dup
        }
    }

    /// Over random streams of frames addressed to one node (varied
    /// sources, sequence numbers, retransmissions, ACK requests and
    /// broadcasts, with the turnaround timer firing in between), the
    /// lean state delivers exactly the frames the map model delivers
    /// and sends exactly its ACK frames.
    #[test]
    fn lean_state_matches_the_map_model() {
        let me = NodeId(7);
        for case in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut lean = RxState::default();
            let mut model = MapModel::default();
            let sources = rng.gen_range(1..12u32);
            let seqs = rng.gen_range(1..5u32);
            let mut last: Option<Frame> = None;
            for step in 0..rng.gen_range(0..300) {
                let retransmit = rng.gen_bool(0.3);
                let frame = match &last {
                    Some(prev) if retransmit => prev.clone(),
                    _ => {
                        let src = NodeId(rng.gen_range(0..sources) * 3);
                        let dst = if rng.gen_bool(0.1) {
                            Address::Broadcast
                        } else {
                            me.into()
                        };
                        let seq = rng.gen_range(0..seqs);
                        Frame::data(src, dst, seq, 20, rng.gen_bool(0.8))
                    }
                };
                assert_eq!(
                    lean.receive(&frame),
                    model.receive(me, &frame),
                    "case {case} step {step}: delivery of {frame:?}"
                );
                if rng.gen_bool(0.5) {
                    assert_eq!(
                        lean.take_ack(me),
                        model.pending_ack.take(),
                        "case {case} step {step}: ACK"
                    );
                }
                let sorted = lean.last_delivered.windows(2).all(|w| w[0].0 < w[1].0);
                assert!(sorted, "case {case}: sources out of order");
                last = Some(frame);
            }
            let from_map: Vec<(u32, u32)> = model.last_delivered.into_iter().collect();
            assert_eq!(lean.last_delivered, from_map, "case {case}");
        }
    }
}
