//! Delegating MAC and upper-layer wrappers that count every callback
//! the world makes into a node and time it.
//!
//! The wrappers forward every trait method, including
//! `supports_split_tick` and `subslot_decide`, so the simulation takes
//! exactly the path it takes unwrapped. Statistics live in one
//! thread-local record: a replication runs on one thread, and a plain
//! `Cell`-style record costs far less per callback than atomics.

use std::cell::RefCell;

use qma_mac::MacImpl;
use qma_netsim::{
    Frame, LearnerSample, MacCtx, MacProtocol, MacTimerKind, NodeId, SlotAction, TickPlan,
    TickView, TxResult, UpperCtx, UpperLayer,
};
use qma_scenarios::UpperImpl;

use crate::replica::Layers;
use crate::timing::Stopwatch;

/// Calls into one callback and the host time they took (inclusive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Number of calls.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: u64,
}

impl Span {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }
}

/// Everything the wrappers record during one or more traced runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// `MacProtocol::start`.
    pub mac_start: Span,
    /// `MacProtocol::on_timer`, every timer kind.
    pub mac_timer: Span,
    /// `MacProtocol::on_frame`.
    pub mac_frame: Span,
    /// `MacProtocol::on_tx_end`.
    pub mac_tx_end: Span,
    /// `MacProtocol::on_cca_result`.
    pub mac_cca: Span,
    /// `MacProtocol::on_enqueue`.
    pub mac_enqueue: Span,
    /// Subslot ticks among the timer calls (these ride the wheel).
    pub subslot_ticks: u64,
    /// Subslot ticks of QMA nodes: one `QmaAgent` decision each.
    pub qma_ticks: u64,
    /// Every `UpperLayer` callback.
    pub upper: Span,
}

thread_local! {
    static STATS: RefCell<CallStats> = RefCell::new(CallStats::default());
}

/// Returns the statistics recorded on this thread so far and resets
/// them.
pub fn take_stats() -> CallStats {
    STATS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

fn record(f: impl FnOnce(&mut CallStats)) {
    STATS.with(|s| f(&mut s.borrow_mut()));
}

/// The layers wrapped in [`TracedMac`] and [`TracedUpper`].
pub struct Traced;

impl Layers for Traced {
    type Mac = TracedMac;
    type Upper = TracedUpper;
    fn mac(inner: MacImpl) -> TracedMac {
        TracedMac {
            qma: matches!(inner, MacImpl::Qma(_)),
            inner,
        }
    }
    fn upper(inner: UpperImpl) -> TracedUpper {
        TracedUpper { inner }
    }
}

/// A MAC that forwards to `inner` and records each callback.
pub struct TracedMac {
    inner: MacImpl,
    qma: bool,
}

impl MacProtocol for TracedMac {
    fn start(&mut self, ctx: &mut MacCtx<'_>) {
        let w = Stopwatch::start();
        self.inner.start(ctx);
        let ns = w.ns();
        record(|s| s.mac_start.add(ns));
    }

    fn on_timer(&mut self, ctx: &mut MacCtx<'_>, kind: MacTimerKind) {
        let w = Stopwatch::start();
        self.inner.on_timer(ctx, kind);
        let ns = w.ns();
        let qma = self.qma;
        record(|s| {
            s.mac_timer.add(ns);
            if kind == MacTimerKind::Subslot {
                s.subslot_ticks += 1;
                s.qma_ticks += u64::from(qma);
            }
        });
    }

    fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame) {
        let w = Stopwatch::start();
        self.inner.on_frame(ctx, frame);
        let ns = w.ns();
        record(|s| s.mac_frame.add(ns));
    }

    fn on_tx_end(&mut self, ctx: &mut MacCtx<'_>) {
        let w = Stopwatch::start();
        self.inner.on_tx_end(ctx);
        let ns = w.ns();
        record(|s| s.mac_tx_end.add(ns));
    }

    fn on_cca_result(&mut self, ctx: &mut MacCtx<'_>, busy: bool) {
        let w = Stopwatch::start();
        self.inner.on_cca_result(ctx, busy);
        let ns = w.ns();
        record(|s| s.mac_cca.add(ns));
    }

    fn on_enqueue(&mut self, ctx: &mut MacCtx<'_>) {
        let w = Stopwatch::start();
        self.inner.on_enqueue(ctx);
        let ns = w.ns();
        record(|s| s.mac_enqueue.add(ns));
    }

    fn on_reboot(&mut self, persist_learning: bool) {
        self.inner.on_reboot(persist_learning)
    }

    fn learner_sample(&self) -> Option<LearnerSample> {
        self.inner.learner_sample()
    }

    fn policy_snapshot(&self) -> Option<Vec<SlotAction>> {
        self.inner.policy_snapshot()
    }

    fn supports_split_tick(&self) -> bool {
        self.inner.supports_split_tick()
    }

    fn subslot_decide(&mut self, view: &mut TickView<'_>) -> Option<TickPlan> {
        self.inner.subslot_decide(view)
    }
}

/// An upper layer that forwards to `inner` and records each callback.
pub struct TracedUpper {
    inner: UpperImpl,
}

impl TracedUpper {
    fn timed(&mut self, f: impl FnOnce(&mut UpperImpl)) {
        let w = Stopwatch::start();
        f(&mut self.inner);
        let ns = w.ns();
        record(|s| s.upper.add(ns));
    }
}

impl UpperLayer for TracedUpper {
    fn start(&mut self, ctx: &mut UpperCtx<'_>) {
        self.timed(|u| u.start(ctx));
    }

    fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, tag: u64) {
        self.timed(|u| u.on_timer(ctx, tag));
    }

    fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame) {
        self.timed(|u| u.on_deliver(ctx, frame));
    }

    fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, result: TxResult) {
        self.timed(|u| u.on_tx_result(ctx, frame, result));
    }

    fn on_phy_tx_end(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, delivered: &[NodeId]) {
        self.timed(|u| u.on_phy_tx_end(ctx, frame, delivered));
    }
}
