//! Static dispatch over the workspace's MAC implementations.
//!
//! [`MacImpl`] is a closed enum over the three channel-access schemes
//! of the paper's evaluation (QMA, slotted and unslotted CSMA/CA are
//! the latter two — both [`CsmaMac`] configurations). Storing it
//! directly in `qma_netsim::Sim` (instead of `Box<dyn MacProtocol>`)
//! devirtualizes every per-event MAC callback: the compiler sees a
//! two-way match and can inline the protocol bodies into the event
//! loop. The [`MacImpl::Custom`] variant keeps trait objects available
//! for tests and exotic MACs without giving up the enum on the hot
//! path.

use qma_netsim::{Frame, FrameClock, LearnerSample, MacCtx, MacProtocol, MacTimerKind, SlotAction};

use crate::csma::{CsmaConfig, CsmaMac};
use crate::qma_mac::{QmaMac, QmaMacConfig};

/// A MAC instance with enum-based static dispatch.
pub enum MacImpl {
    /// The paper's Q-learning MAC.
    Qma(QmaMac),
    /// IEEE 802.15.4 CSMA/CA (slotted or unslotted per its config).
    Csma(CsmaMac),
    /// Escape hatch: any other [`MacProtocol`] behind a trait object.
    Custom(Box<dyn MacProtocol>),
}

impl MacImpl {
    /// Builds a QMA MAC.
    pub fn qma(cfg: QmaMacConfig, clock: FrameClock) -> Self {
        MacImpl::Qma(QmaMac::new(cfg, clock))
    }

    /// Builds a CSMA/CA MAC (slotted or unslotted per `cfg`).
    pub fn csma(cfg: CsmaConfig, clock: FrameClock) -> Self {
        MacImpl::Csma(CsmaMac::new(cfg, clock))
    }

    /// Wraps an arbitrary MAC behind dynamic dispatch.
    pub fn custom(mac: impl MacProtocol + 'static) -> Self {
        MacImpl::Custom(Box::new(mac))
    }

    /// The scheme name, for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MacImpl::Qma(m) => m.name(),
            MacImpl::Csma(m) => m.name(),
            MacImpl::Custom(_) => "custom",
        }
    }
}

impl From<QmaMac> for MacImpl {
    fn from(m: QmaMac) -> Self {
        MacImpl::Qma(m)
    }
}

impl From<CsmaMac> for MacImpl {
    fn from(m: CsmaMac) -> Self {
        MacImpl::Csma(m)
    }
}

impl MacProtocol for MacImpl {
    #[inline]
    fn start(&mut self, ctx: &mut MacCtx<'_>) {
        match self {
            MacImpl::Qma(m) => m.start(ctx),
            MacImpl::Csma(m) => m.start(ctx),
            MacImpl::Custom(m) => m.start(ctx),
        }
    }

    #[inline]
    fn on_timer(&mut self, ctx: &mut MacCtx<'_>, kind: MacTimerKind) {
        match self {
            MacImpl::Qma(m) => m.on_timer(ctx, kind),
            MacImpl::Csma(m) => m.on_timer(ctx, kind),
            MacImpl::Custom(m) => m.on_timer(ctx, kind),
        }
    }

    #[inline]
    fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame) {
        match self {
            MacImpl::Qma(m) => m.on_frame(ctx, frame),
            MacImpl::Csma(m) => m.on_frame(ctx, frame),
            MacImpl::Custom(m) => m.on_frame(ctx, frame),
        }
    }

    #[inline]
    fn on_tx_end(&mut self, ctx: &mut MacCtx<'_>) {
        match self {
            MacImpl::Qma(m) => m.on_tx_end(ctx),
            MacImpl::Csma(m) => m.on_tx_end(ctx),
            MacImpl::Custom(m) => m.on_tx_end(ctx),
        }
    }

    #[inline]
    fn on_cca_result(&mut self, ctx: &mut MacCtx<'_>, busy: bool) {
        match self {
            MacImpl::Qma(m) => m.on_cca_result(ctx, busy),
            MacImpl::Csma(m) => m.on_cca_result(ctx, busy),
            MacImpl::Custom(m) => m.on_cca_result(ctx, busy),
        }
    }

    #[inline]
    fn on_enqueue(&mut self, ctx: &mut MacCtx<'_>) {
        match self {
            MacImpl::Qma(m) => m.on_enqueue(ctx),
            MacImpl::Csma(m) => m.on_enqueue(ctx),
            MacImpl::Custom(m) => m.on_enqueue(ctx),
        }
    }

    #[inline]
    fn on_reboot(&mut self, persist_learning: bool) {
        match self {
            MacImpl::Qma(m) => m.on_reboot(persist_learning),
            MacImpl::Csma(m) => m.on_reboot(persist_learning),
            MacImpl::Custom(m) => m.on_reboot(persist_learning),
        }
    }

    #[inline]
    fn learner_sample(&self) -> Option<LearnerSample> {
        match self {
            MacImpl::Qma(m) => m.learner_sample(),
            MacImpl::Csma(m) => m.learner_sample(),
            MacImpl::Custom(m) => m.learner_sample(),
        }
    }

    #[inline]
    fn policy_snapshot(&self) -> Option<Vec<SlotAction>> {
        match self {
            MacImpl::Qma(m) => m.policy_snapshot(),
            MacImpl::Csma(m) => m.policy_snapshot(),
            MacImpl::Custom(m) => m.policy_snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_variant() {
        let clock = FrameClock::dsme_so3();
        assert_eq!(MacImpl::qma(QmaMacConfig::default(), clock).name(), "QMA");
        assert_eq!(
            MacImpl::csma(CsmaConfig::slotted(), clock).name(),
            "slotted CSMA/CA"
        );
        assert_eq!(
            MacImpl::csma(CsmaConfig::unslotted(), clock).name(),
            "unslotted CSMA/CA"
        );
        let custom = MacImpl::custom(QmaMac::new(QmaMacConfig::default(), clock));
        assert_eq!(custom.name(), "custom");
    }

    #[test]
    fn from_impls_wrap_statically() {
        let clock = FrameClock::dsme_so3();
        let m: MacImpl = QmaMac::new(QmaMacConfig::default(), clock).into();
        assert!(matches!(m, MacImpl::Qma(_)));
        let c: MacImpl = CsmaMac::new(CsmaConfig::unslotted(), clock).into();
        assert!(matches!(c, MacImpl::Csma(_)));
    }
}
