//! Receiver-side machinery shared by all MACs: acknowledgement
//! generation after the rx→tx turnaround, duplicate suppression, and
//! upward delivery.

use std::collections::BTreeMap;

use qma_des::SimDuration;
use qma_netsim::{Frame, FrameKind, MacCtx, MacTimerKind};

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

#[derive(Debug, Clone, Default)]
struct RxState {
    pending_ack: Option<Frame>,
    last_delivered: BTreeMap<u32, u32>,
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
        let state = self.state.get_or_insert_default();
        // Unicast frames requesting an ACK get one after aTurnaround.
        if frame.ack_request && !frame.dst.is_broadcast() {
            state.pending_ack = Some(Frame::ack_for(frame, ctx.node));
            ctx.set_timer(
                MacTimerKind::Aux1,
                SimDuration::from_micros(ctx.phy().turnaround_us()),
            );
        }
        // Duplicate suppression: a retransmission whose ACK was lost
        // must be re-acknowledged but not re-delivered.
        let dup = state.last_delivered.get(&frame.src.0) == Some(&frame.seq);
        if !dup {
            state.last_delivered.insert(frame.src.0, frame.seq);
            ctx.deliver_to_upper(frame.clone());
        }
        RxEvent::None
    }

    /// Handles the `Aux1` (ACK turnaround) timer: transmit the pending
    /// acknowledgement unless this node is mid-transmission.
    /// Returns `true` if an ACK transmission was started.
    pub fn on_ack_timer(&mut self, ctx: &mut MacCtx<'_>) -> bool {
        if let Some(ack) = self.state.as_mut().and_then(|s| s.pending_ack.take()) {
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
    // workspace root. Here we only test the pure parts.
    use super::*;

    #[test]
    fn default_state_is_clean() {
        let r = ReceiverCommon::new();
        assert!(!r.ack_pending());
    }
}
