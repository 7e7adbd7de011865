//! IEEE 802.15.4 CSMA/CA — both the unslotted and the slotted
//! variant, the baselines of every comparison in the paper.
//!
//! Unslotted (§6.2.5.1 of the standard): for each attempt wait a
//! random backoff of `0..2^BE−1` unit backoff periods (320 µs), then
//! one CCA; busy → `NB += 1`, `BE = min(BE+1, macMaxBE)`, retry; more
//! than `macMaxCSMABackoffs` busy CCAs → channel-access failure.
//!
//! Slotted: backoffs and CCAs align to backoff-period boundaries
//! anchored at the CAP start, and `CW = 2` consecutive idle CCAs are
//! required before transmitting.
//!
//! Both variants operate only inside the CAP: transactions that do
//! not fit before the CAP end are deferred to the next superframe
//! (the standard's rule; it also keeps the comparison with QMA fair,
//! since QMA inherits the same constraint).
//!
//! Acknowledged frames are retransmitted up to `macMaxFrameRetries`
//! times, each retransmission restarting the CSMA procedure.

use qma_des::{SimDuration, SimTime};
use rand::Rng;

use qma_netsim::{Frame, FrameClock, MacCtx, MacProtocol, MacTimerKind, TxResult};

use crate::consts::{
    CSMA_CW, MAC_MAX_BE, MAC_MAX_CSMA_BACKOFFS, MAC_MAX_FRAME_RETRIES, MAC_MIN_BE,
};
use crate::recv::{ReceiverCommon, RxEvent};

/// CSMA/CA parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsmaConfig {
    /// Slotted (backoff-boundary aligned, CW=2) or unslotted.
    pub slotted: bool,
    /// macMinBE.
    pub min_be: u8,
    /// macMaxBE.
    pub max_be: u8,
    /// macMaxCSMABackoffs.
    pub max_backoffs: u8,
    /// macMaxFrameRetries.
    pub max_retries: u8,
}

impl CsmaConfig {
    /// Standard unslotted CSMA/CA.
    pub const fn unslotted() -> Self {
        CsmaConfig {
            slotted: false,
            min_be: MAC_MIN_BE,
            max_be: MAC_MAX_BE,
            max_backoffs: MAC_MAX_CSMA_BACKOFFS,
            max_retries: MAC_MAX_FRAME_RETRIES,
        }
    }

    /// Standard slotted CSMA/CA.
    pub const fn slotted() -> Self {
        CsmaConfig {
            slotted: true,
            ..Self::unslotted()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No transmission pending.
    Idle,
    /// Waiting for the next CAP (transaction did not fit).
    WaitCap,
    /// Backoff timer armed.
    Backoff,
    /// CCA in progress; `cw_left` idle CCAs still required after it.
    Cca { cw_left: u8 },
    /// rx→tx turnaround before the data frame.
    Turnaround,
    /// Data frame on air.
    TxInFlight,
    /// Waiting for the acknowledgement.
    WaitAck,
}

/// IEEE 802.15.4 CSMA/CA MAC.
pub struct CsmaMac {
    cfg: CsmaConfig,
    clock: FrameClock,
    recv: ReceiverCommon,
    phase: Phase,
    nb: u8,
    be: u8,
    ack_in_flight: bool,
}

impl CsmaMac {
    /// Creates a CSMA/CA MAC over the shared frame clock.
    pub fn new(cfg: CsmaConfig, clock: FrameClock) -> Self {
        CsmaMac {
            cfg,
            clock,
            recv: ReceiverCommon::new(),
            phase: Phase::Idle,
            nb: 0,
            be: cfg.min_be,
            ack_in_flight: false,
        }
    }

    /// The variant name, for reports.
    pub fn name(&self) -> &'static str {
        if self.cfg.slotted {
            "slotted CSMA/CA"
        } else {
            "unslotted CSMA/CA"
        }
    }

    fn begin_attempt(&mut self, ctx: &mut MacCtx<'_>) {
        self.nb = 0;
        self.be = self.cfg.min_be;
        self.schedule_backoff(ctx);
    }

    /// Whether a full transaction for the head frame fits in the CAP
    /// starting at `t`.
    fn fits_in_cap(&self, ctx: &MacCtx<'_>, t: SimTime) -> bool {
        if !self.clock.in_cap(t) {
            return false;
        }
        let Some(head) = ctx.queue().head_info() else {
            return false;
        };
        let phy = ctx.phy();
        let needed = phy.cca_us()
            + phy.turnaround_us()
            + phy.frame_airtime_us(head.psdu_octets as u64)
            + if head.ack_request {
                phy.ack_wait_us()
            } else {
                0
            };
        t + SimDuration::from_micros(needed) <= self.clock.cap_end(t)
    }

    /// Defers the attempt to the start of the next CAP.
    fn defer_to_cap(&mut self, ctx: &mut MacCtx<'_>) {
        self.phase = Phase::WaitCap;
        let now = ctx.now();
        let (mut target, _, _) = self.clock.next_subslot_start(now);
        // If we are before this frame's CAP, next_subslot_start may
        // return a time at which the transaction still won't fit;
        // walking frame by frame terminates because an empty CAP
        // always fits a transaction at its very start.
        while !self.fits_in_cap(ctx, target) {
            let (t, _, _) = self.clock.next_subslot_start(target);
            target = t;
            if target.since(now) > self.clock.frame_duration() * 3 {
                break; // safety: give up searching, retry there anyway
            }
        }
        ctx.set_timer(MacTimerKind::Cap, target.since(now));
    }

    fn schedule_backoff(&mut self, ctx: &mut MacCtx<'_>) {
        let now = ctx.now();
        if !self.fits_in_cap(ctx, now) {
            self.defer_to_cap(ctx);
            return;
        }
        let unit = SimDuration::from_micros(ctx.phy().unit_backoff_us());
        let units = ctx.rng().gen_range(0..(1u32 << self.be)) as u64;
        let mut delay = unit * units;
        if self.cfg.slotted {
            // Align the end of the backoff to a backoff-period
            // boundary anchored at the CAP start.
            let target = now + delay;
            delay = self.align_to_boundary(target, unit).since(now);
        }
        self.phase = Phase::Backoff;
        ctx.set_timer(MacTimerKind::Backoff, delay);
    }

    /// Rounds `t` up to the next backoff-period boundary (slotted
    /// mode).
    fn align_to_boundary(&self, t: SimTime, unit: SimDuration) -> SimTime {
        let frame_idx = self.clock.frame_index(t);
        let (cap_offset, _) = self.clock.cap_window();
        let cap_start = self.clock.frame_start(frame_idx) + cap_offset;
        if t <= cap_start {
            return cap_start;
        }
        let off = t.since(cap_start);
        let k = off.as_micros().div_ceil(unit.as_micros());
        cap_start + unit * k
    }

    fn start_cca(&mut self, ctx: &mut MacCtx<'_>, cw_left: u8) {
        if ctx.transmitting() {
            // Our own ACK is on the air; count as a busy channel.
            self.cca_busy(ctx);
            return;
        }
        self.phase = Phase::Cca { cw_left };
        ctx.start_cca();
    }

    fn cca_busy(&mut self, ctx: &mut MacCtx<'_>) {
        self.nb += 1;
        self.be = (self.be + 1).min(self.cfg.max_be);
        if self.nb > self.cfg.max_backoffs {
            // Channel-access failure: the frame is dropped.
            let dropped = ctx.pop_queue().expect("attempt without head frame");
            ctx.notify_tx_result(dropped.frame, TxResult::ChannelAccessFailure);
            self.phase = Phase::Idle;
            self.next_packet(ctx);
        } else {
            self.schedule_backoff(ctx);
        }
    }

    fn transmit_head(&mut self, ctx: &mut MacCtx<'_>) {
        let frame = ctx
            .queue_head()
            .expect("transmit without head frame")
            .frame
            .clone();
        self.phase = Phase::TxInFlight;
        ctx.start_tx(frame);
    }

    fn complete_head(&mut self, ctx: &mut MacCtx<'_>, result: TxResult) {
        let done = ctx.pop_queue().expect("completing without head frame");
        ctx.notify_tx_result(done.frame, result);
        self.phase = Phase::Idle;
        self.next_packet(ctx);
    }

    fn next_packet(&mut self, ctx: &mut MacCtx<'_>) {
        if !ctx.queue().is_empty() && self.phase == Phase::Idle {
            self.begin_attempt(ctx);
        }
    }
}

impl MacProtocol for CsmaMac {
    fn start(&mut self, _ctx: &mut MacCtx<'_>) {}

    fn on_timer(&mut self, ctx: &mut MacCtx<'_>, kind: MacTimerKind) {
        match kind {
            MacTimerKind::Backoff => match self.phase {
                Phase::Backoff => {
                    if !self.fits_in_cap(ctx, ctx.now()) {
                        self.defer_to_cap(ctx);
                        return;
                    }
                    self.start_cca(ctx, CSMA_CW.saturating_sub(1));
                }
                Phase::Cca { cw_left } => {
                    // Second CCA of the slotted contention window.
                    self.start_cca(ctx, cw_left);
                }
                _ => {}
            },
            MacTimerKind::Cap if self.phase == Phase::WaitCap => {
                self.schedule_backoff(ctx);
            }
            MacTimerKind::AckTimeout if self.phase == Phase::WaitAck => {
                let retries = ctx.bump_head_retries().expect("WaitAck without head");
                if retries > self.cfg.max_retries {
                    self.complete_head(ctx, TxResult::RetryLimit);
                } else {
                    self.begin_attempt(ctx);
                }
            }
            // Deliberately not a match guard (clippy suggests
            // collapsing): on_ack_timer mutates receiver state and
            // must stay in statement position so it visibly runs
            // exactly when Aux1 fires.
            #[allow(clippy::collapsible_match)]
            MacTimerKind::Aux1 => {
                if self.recv.on_ack_timer(ctx) {
                    self.ack_in_flight = true;
                }
            }
            MacTimerKind::Aux2 => self.handle_aux2(ctx),
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame) {
        match self.recv.on_frame(ctx, frame) {
            RxEvent::AckForMe(seq) => {
                if self.phase == Phase::WaitAck {
                    let matches = ctx
                        .queue_head()
                        .map(|h| h.frame.seq == seq)
                        .unwrap_or(false);
                    if matches {
                        ctx.cancel_timer(MacTimerKind::AckTimeout);
                        self.complete_head(ctx, TxResult::Delivered);
                    }
                }
            }
            RxEvent::None => {}
        }
    }

    fn on_tx_end(&mut self, ctx: &mut MacCtx<'_>) {
        if self.ack_in_flight {
            self.ack_in_flight = false;
            return;
        }
        if self.phase != Phase::TxInFlight {
            return;
        }
        let ack_requested = ctx.queue().head_info().is_some_and(|h| h.ack_request);
        if ack_requested {
            self.phase = Phase::WaitAck;
            ctx.set_timer(
                MacTimerKind::AckTimeout,
                SimDuration::from_micros(ctx.phy().ack_wait_us()),
            );
        } else {
            self.complete_head(ctx, TxResult::Delivered);
        }
    }

    fn on_cca_result(&mut self, ctx: &mut MacCtx<'_>, busy: bool) {
        let Phase::Cca { cw_left } = self.phase else {
            return;
        };
        if busy || ctx.transmitting() {
            self.cca_busy(ctx);
            return;
        }
        if self.cfg.slotted && cw_left > 0 {
            // Idle, but CW requires another CCA at the next boundary.
            let unit = SimDuration::from_micros(ctx.phy().unit_backoff_us());
            let next = self.align_to_boundary(ctx.now(), unit);
            self.phase = Phase::Cca {
                cw_left: cw_left - 1,
            };
            ctx.set_timer(MacTimerKind::Backoff, next.since(ctx.now()));
        } else {
            self.phase = Phase::Turnaround;
            ctx.set_timer(
                MacTimerKind::Aux2,
                SimDuration::from_micros(ctx.phy().turnaround_us()),
            );
        }
    }

    fn on_enqueue(&mut self, ctx: &mut MacCtx<'_>) {
        if self.phase == Phase::Idle {
            self.begin_attempt(ctx);
        }
    }

    fn on_reboot(&mut self, _persist_learning: bool) {
        // CSMA/CA learns nothing, so `persist_learning` is moot; the
        // volatile state machine still has to come back clean —
        // `start` is a no-op, so a stale `WaitAck` phase with an empty
        // queue would otherwise wedge the node forever.
        self.recv = ReceiverCommon::new();
        self.phase = Phase::Idle;
        self.nb = 0;
        self.be = self.cfg.min_be;
        self.ack_in_flight = false;
    }
}

impl CsmaMac {
    fn on_turnaround(&mut self, ctx: &mut MacCtx<'_>) {
        if self.phase != Phase::Turnaround {
            return;
        }
        if ctx.transmitting() {
            self.cca_busy(ctx);
            return;
        }
        self.transmit_head(ctx);
    }
}

// Aux2 is routed through on_timer; keep the dispatch in one place.
impl CsmaMac {
    /// Routes the Aux2 (turnaround) timer. Called from `on_timer`.
    fn handle_aux2(&mut self, ctx: &mut MacCtx<'_>) {
        self.on_turnaround(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qma_des::SimDuration;
    use qma_netsim::{Address, FrameClock, NodeId, SimBuilder, UpperCtx, UpperLayer};
    use qma_phy::Connectivity;

    /// Upper layer that sends `count` unicast frames to node `dst`
    /// spaced `gap_ms` apart and records outcomes.
    struct Source {
        dst: NodeId,
        count: u32,
        gap_ms: u64,
        sent: u32,
    }

    impl UpperLayer for Source {
        fn start(&mut self, ctx: &mut UpperCtx<'_>) {
            if self.count > 0 && ctx.node != self.dst {
                ctx.schedule(SimDuration::from_millis(self.gap_ms), 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, _tag: u64) {
            let node = ctx.node;
            let f = Frame::data(node, Address::Node(self.dst), self.sent, 40, true);
            ctx.metrics().app_generated(node);
            ctx.enqueue_mac(f);
            self.sent += 1;
            if self.sent < self.count {
                ctx.schedule(SimDuration::from_millis(self.gap_ms), 0);
            }
        }
        fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame) {
            ctx.metrics().count("delivered_up", 1.0);
            let _ = frame;
        }
        fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, _f: &Frame, result: TxResult) {
            match result {
                TxResult::Delivered => ctx.metrics().count("mac_delivered", 1.0),
                TxResult::RetryLimit => ctx.metrics().count("mac_retry_drop", 1.0),
                TxResult::ChannelAccessFailure => ctx.metrics().count("mac_ca_drop", 1.0),
            }
        }
    }

    fn run_pair(
        cfg: CsmaConfig,
        count: u32,
        gap_ms: u64,
    ) -> qma_netsim::Sim<Box<CsmaMac>, Box<Source>> {
        let mut sim = SimBuilder::new(Connectivity::full(2), 11)
            .clock(FrameClock::dsme_so3())
            .mac_factory(move |_, clock| Box::new(CsmaMac::new(cfg, *clock)))
            .upper_factory(move |_, _| {
                Box::new(Source {
                    dst: NodeId(1),
                    count,
                    gap_ms,
                    sent: 0,
                })
            })
            .build();
        sim.run_for(SimDuration::from_secs(30));
        sim
    }

    #[test]
    fn unslotted_delivers_under_light_load() {
        let sim = run_pair(CsmaConfig::unslotted(), 50, 200);
        assert_eq!(sim.metrics().get("mac_delivered"), 50.0);
        assert_eq!(sim.metrics().get("delivered_up"), 50.0);
        assert_eq!(sim.metrics().get("mac_retry_drop"), 0.0);
        assert_eq!(sim.metrics().get("mac_ca_drop"), 0.0);
    }

    #[test]
    fn slotted_delivers_under_light_load() {
        let sim = run_pair(CsmaConfig::slotted(), 50, 200);
        assert_eq!(sim.metrics().get("mac_delivered"), 50.0);
        assert_eq!(sim.metrics().get("delivered_up"), 50.0);
    }

    #[test]
    fn ack_exchange_counts_attempts() {
        let mut sim = run_pair(CsmaConfig::unslotted(), 10, 100);
        // 10 data transmissions at node 0, 10 ACK transmissions at
        // node 1 (no losses in a clean 2-node channel).
        assert_eq!(sim.metrics().mac(NodeId(0)).tx_attempts, 10);
        assert_eq!(sim.metrics().mac(NodeId(1)).tx_attempts, 10);
        assert_eq!(sim.metrics().mac(NodeId(0)).ccas, 10);
        // The energy report counts the same operations.
        let r = sim.energy_report(NodeId(0));
        assert_eq!((r.tx_attempts, r.ccas), (10, 10));
        let r = sim.energy_report(NodeId(1));
        assert_eq!((r.tx_attempts, r.ccas), (10, 0));
    }

    #[test]
    fn hidden_node_collisions_cause_retry_drops() {
        // A and C both blast at B; they cannot hear each other, so
        // CCA never helps and heavy loss is expected.
        let conn = Connectivity::symmetric(3, &[(0, 1), (1, 2)]);
        let mut sim = SimBuilder::new(conn, 5)
            .clock(FrameClock::dsme_so3())
            .mac_factory(|_, clock| Box::new(CsmaMac::new(CsmaConfig::unslotted(), *clock)))
            .upper_factory(|node, _| {
                let count = if node == NodeId(1) { 0 } else { 200 };
                Box::new(Source {
                    dst: NodeId(1),
                    count,
                    gap_ms: 5,
                    sent: 0,
                })
            })
            .build();
        sim.run_for(SimDuration::from_secs(20));
        let m = sim.metrics();
        // Some frames get through, but the hidden-node structure
        // forces retry drops that a CCA cannot prevent.
        assert!(m.get("mac_delivered") > 0.0);
        assert!(
            m.get("mac_retry_drop") > 0.0,
            "expected hidden-node losses, got none"
        );
    }

    #[test]
    fn broadcast_completes_without_ack() {
        struct Bcast;
        impl UpperLayer for Bcast {
            fn start(&mut self, ctx: &mut UpperCtx<'_>) {
                if ctx.node == NodeId(0) {
                    let f = Frame::data(ctx.node, Address::Broadcast, 0, 20, false);
                    ctx.enqueue_mac(f);
                }
            }
            fn on_timer(&mut self, _: &mut UpperCtx<'_>, _: u64) {}
            fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, _: &Frame) {
                ctx.metrics().count("bcast_rx", 1.0);
            }
            fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, _: &Frame, r: TxResult) {
                if r == TxResult::Delivered {
                    ctx.metrics().count("bcast_done", 1.0);
                }
            }
        }
        let mut sim = SimBuilder::new(Connectivity::full(3), 2)
            .clock(FrameClock::dsme_so3())
            .mac_factory(|_, clock| Box::new(CsmaMac::new(CsmaConfig::unslotted(), *clock)))
            .upper_factory(|_, _| Box::new(Bcast))
            .build();
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.metrics().get("bcast_done"), 1.0);
        assert_eq!(sim.metrics().get("bcast_rx"), 2.0);
        // No ACKs were transmitted.
        assert_eq!(sim.metrics().mac(NodeId(1)).tx_attempts, 0);
        assert_eq!(sim.metrics().mac(NodeId(2)).tx_attempts, 0);
    }

    #[test]
    fn transactions_stay_inside_cap() {
        // With the DSME clock, nothing may be on the air outside the
        // CAP. Track violations via a probe on tx attempts vs time —
        // the simplest check: run a busy source and assert deliveries
        // still happen (deferral works, no deadlock).
        let sim = run_pair(CsmaConfig::slotted(), 100, 10);
        assert!(sim.metrics().get("mac_delivered") >= 99.0);
    }
}
