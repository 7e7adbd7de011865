//! Shared machinery: MAC selection, the collection-traffic world,
//! management background traffic, replication across threads.

use qma_des::{SimDuration, SimTime};
use qma_mac::{CsmaConfig, MacImpl, QmaMacConfig, QmaShared};
use qma_net::{CollectionApp, CollectionConfig, TrafficPattern};
use qma_netsim::{Frame, FrameClock, NodeId, SimBuilder, TxResult, UpperCtx, UpperLayer};
use qma_topo::Topology;

/// Which channel-access scheme a scenario runs — the three columns of
/// every comparison in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacKind {
    /// The paper's contribution.
    Qma,
    /// IEEE 802.15.4 slotted CSMA/CA.
    SlottedCsma,
    /// IEEE 802.15.4 unslotted CSMA/CA.
    UnslottedCsma,
}

impl MacKind {
    /// All three schemes, in the paper's legend order.
    pub const ALL: [MacKind; 3] = [MacKind::Qma, MacKind::SlottedCsma, MacKind::UnslottedCsma];

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            MacKind::Qma => "QMA",
            MacKind::SlottedCsma => "slotted CSMA/CA",
            MacKind::UnslottedCsma => "unslotted CSMA/CA",
        }
    }

    /// Canonical machine-readable key, the inverse of
    /// [`MacKind::parse`] — used in campaign specs and artifacts.
    pub fn key(self) -> &'static str {
        match self {
            MacKind::Qma => "qma",
            MacKind::SlottedCsma => "slotted_csma",
            MacKind::UnslottedCsma => "unslotted_csma",
        }
    }

    /// Parses a campaign-spec scheme name (`qma`, `slotted_csma`,
    /// `unslotted_csma`; `csma` aliases the unslotted variant).
    pub fn parse(s: &str) -> Option<MacKind> {
        match s {
            "qma" => Some(MacKind::Qma),
            "slotted_csma" => Some(MacKind::SlottedCsma),
            "unslotted_csma" | "csma" => Some(MacKind::UnslottedCsma),
            _ => None,
        }
    }

    /// Builds the MAC instance for one node as a statically
    /// dispatched [`MacImpl`] (no per-event vtable indirection), with
    /// the QMA configuration `qma_cfg` (CSMA variants ignore it).
    /// Scenarios build a whole world's MACs with
    /// [`MacKind::world_factory`] instead.
    pub fn build_with(self, clock: &FrameClock, qma_cfg: &QmaMacConfig) -> MacImpl {
        match self {
            MacKind::Qma => MacImpl::qma(qma_cfg.clone(), *clock),
            MacKind::SlottedCsma => MacImpl::csma(CsmaConfig::slotted(), *clock),
            MacKind::UnslottedCsma => MacImpl::csma(CsmaConfig::unslotted(), *clock),
        }
    }

    /// The MAC factory of a `nodes`-node world on `clock`, for
    /// `SimBuilder::mac_factory`. QMA nodes share one configuration
    /// and one subslot-major Q arena ([`QmaShared`]), each with a
    /// table of its own, so they learn exactly as MACs built one by
    /// one with [`MacKind::build_with`]; CSMA nodes are built as by
    /// `build_with`.
    pub fn world_factory(
        self,
        qma_cfg: &QmaMacConfig,
        clock: FrameClock,
        nodes: usize,
    ) -> impl Fn(NodeId, &FrameClock) -> MacImpl + 'static {
        let qma_cfg = qma_cfg.clone();
        let qma = (self == MacKind::Qma).then(|| QmaShared::new(&qma_cfg, &clock, nodes));
        move |node, node_clock| {
            assert_eq!(*node_clock, clock, "the world runs on another clock");
            match &qma {
                Some(shared) => MacImpl::Qma(shared.mac(node)),
                None => self.build_with(node_clock, &qma_cfg),
            }
        }
    }
}

impl std::fmt::Display for MacKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Wraps an upper layer and adds low-rate periodic management
/// traffic — the paper's association/management exchange that
/// precedes data generation ("Generation of data packets starts
/// after 100 s to allow the MAC protocol to associate with the
/// network and exchange management information"). This is what QMA
/// first learns from in Fig. 10.
///
/// Management frames are **unicast to the node's parent and
/// acknowledged**, like DSME association requests: the coordinator's
/// ACKs carry its (empty) queue level, which seeds the queue-level
/// piggybacking that parameter-based exploration needs (§4.2).
pub struct WithManagement<U> {
    inner: U,
    target: NodeId,
    period: SimDuration,
    octets: u16,
    seq: u32,
}

const TAG_MGMT: u64 = u64::MAX; // disjoint from inner tags by convention

/// Management-frame discriminator for background chatter.
pub const MGMT_BACKGROUND: u8 = 0x01;

impl<U> WithManagement<U> {
    /// Adds `period`-spaced management unicasts toward `target` to
    /// `inner`.
    pub fn new_towards(inner: U, target: NodeId, period: SimDuration) -> Self {
        WithManagement {
            inner,
            target,
            period,
            octets: 12,
            seq: 0,
        }
    }
}

impl<U: UpperLayer> UpperLayer for WithManagement<U> {
    fn start(&mut self, ctx: &mut UpperCtx<'_>) {
        use rand::Rng;
        self.inner.start(ctx);
        let jitter = ctx.rng().gen_range(0..self.period.as_micros().max(1));
        ctx.schedule(SimDuration::from_micros(jitter), TAG_MGMT);
    }

    fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, tag: u64) {
        if tag == TAG_MGMT {
            self.seq = self.seq.wrapping_add(1);
            let dst = qma_netsim::Address::Node(self.target);
            let f = Frame::management(ctx.node, dst, MGMT_BACKGROUND, self.seq, self.octets, true);
            ctx.enqueue_mac(f);
            ctx.schedule(self.period, TAG_MGMT);
        } else {
            self.inner.on_timer(ctx, tag);
        }
    }

    fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame) {
        self.inner.on_deliver(ctx, frame);
    }

    fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, result: TxResult) {
        self.inner.on_tx_result(ctx, frame, result);
    }

    fn on_phy_tx_end(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, delivered: &[NodeId]) {
        self.inner.on_phy_tx_end(ctx, frame, delivered);
    }
}

/// The upper layers the standard scenarios run, as a closed enum so
/// `Sim` dispatches them statically (mirroring [`MacImpl`] on the MAC
/// side). `Custom` keeps trait objects available for exotic uppers.
pub enum UpperImpl {
    /// A bare collection app (typically the sink).
    Collection(qma_net::CollectionApp),
    /// A collection app with management background chatter (sources).
    Managed(WithManagement<qma_net::CollectionApp>),
    /// The single-hop massive-access app (see [`crate::massive`]).
    Massive(crate::massive::MassiveApp),
    /// Escape hatch: any other [`UpperLayer`] behind a trait object.
    Custom(Box<dyn UpperLayer>),
}

impl UpperImpl {
    /// Wraps an arbitrary upper layer behind dynamic dispatch.
    pub fn custom(upper: impl UpperLayer + 'static) -> Self {
        UpperImpl::Custom(Box::new(upper))
    }
}

impl UpperLayer for UpperImpl {
    #[inline]
    fn start(&mut self, ctx: &mut UpperCtx<'_>) {
        match self {
            UpperImpl::Collection(u) => u.start(ctx),
            UpperImpl::Managed(u) => u.start(ctx),
            UpperImpl::Massive(u) => u.start(ctx),
            UpperImpl::Custom(u) => u.start(ctx),
        }
    }

    #[inline]
    fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, tag: u64) {
        match self {
            UpperImpl::Collection(u) => u.on_timer(ctx, tag),
            UpperImpl::Managed(u) => u.on_timer(ctx, tag),
            UpperImpl::Massive(u) => u.on_timer(ctx, tag),
            UpperImpl::Custom(u) => u.on_timer(ctx, tag),
        }
    }

    #[inline]
    fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame) {
        match self {
            UpperImpl::Collection(u) => u.on_deliver(ctx, frame),
            UpperImpl::Managed(u) => u.on_deliver(ctx, frame),
            UpperImpl::Massive(u) => u.on_deliver(ctx, frame),
            UpperImpl::Custom(u) => u.on_deliver(ctx, frame),
        }
    }

    #[inline]
    fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, result: TxResult) {
        match self {
            UpperImpl::Collection(u) => u.on_tx_result(ctx, frame, result),
            UpperImpl::Managed(u) => u.on_tx_result(ctx, frame, result),
            UpperImpl::Massive(u) => u.on_tx_result(ctx, frame, result),
            UpperImpl::Custom(u) => u.on_tx_result(ctx, frame, result),
        }
    }

    #[inline]
    fn on_phy_tx_end(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame, delivered: &[NodeId]) {
        match self {
            UpperImpl::Collection(u) => u.on_phy_tx_end(ctx, frame, delivered),
            UpperImpl::Managed(u) => u.on_phy_tx_end(ctx, frame, delivered),
            UpperImpl::Massive(u) => u.on_phy_tx_end(ctx, frame, delivered),
            UpperImpl::Custom(u) => u.on_phy_tx_end(ctx, frame, delivered),
        }
    }
}

/// Wraps a collection app for a node: sources get the management
/// background chatter, the sink does not — its management traffic
/// (beacons, association responses) rides in the beacon slot in DSME,
/// not in the CAP. Giving the sink CAP chatter would also poison the
/// queue-level piggyback: a sink has no exploration pressure, its
/// queue would back up and its advertised level would suppress the
/// sources' exploration (§4.2 assumes the sink's queue is empty).
pub fn collection_upper(
    app: qma_net::CollectionApp,
    is_sink: bool,
    mgmt_period: SimDuration,
) -> UpperImpl {
    if is_sink {
        return UpperImpl::Collection(app);
    }
    let target = app.config().next_hop.expect("a source has a next hop");
    UpperImpl::Managed(WithManagement::new_towards(app, target, mgmt_period))
}

/// The paper's management-chatter period (one frame every 5 s).
const MGMT_PERIOD: SimDuration = SimDuration::from_secs(5);

/// The world of the paper's one traffic model (§6.1–6.2): every source
/// sends `pattern(source)` toward its parent in `topology` and chats
/// with it every 5 s ([`collection_upper`]); the sink stays silent and
/// only listens. The MACs come from [`MacKind::world_factory`].
/// Returns the builder, so a runner can still set learner recording,
/// late starts or channels.
pub fn collection_sim(
    topology: &Topology,
    mac: MacKind,
    qma_cfg: &QmaMacConfig,
    clock: FrameClock,
    seed: u64,
    payload_octets: u16,
    pattern: impl Fn(NodeId) -> TrafficPattern + 'static,
) -> SimBuilder<MacImpl, UpperImpl> {
    let sink = NodeId(topology.sink as u32);
    let parents = parent_ids(topology);
    SimBuilder::new(topology.connectivity.clone(), seed)
        .clock(clock)
        .mac_factory(mac.world_factory(qma_cfg, clock, topology.len()))
        .upper_factory(move |node, _| {
            let is_sink = node == sink;
            let app = CollectionApp::new(CollectionConfig {
                pattern: if is_sink {
                    TrafficPattern::Silent
                } else {
                    pattern(node)
                },
                next_hop: parents[node.index()],
                sink,
                payload_octets,
            });
            collection_upper(app, is_sink, MGMT_PERIOD)
        })
}

/// Poisson data at `rate` pkt/s from t = 100 s, once the management
/// phase is over (§6.1), stopping after `limit` packets when given.
pub(crate) fn data_after_management(rate: f64, limit: Option<u64>) -> TrafficPattern {
    TrafficPattern::Poisson {
        rate,
        start: SimTime::from_secs(100),
        limit,
    }
}

/// Each node's parent in `topology` (`None` for the sink).
pub(crate) fn parent_ids(topology: &Topology) -> Vec<Option<NodeId>> {
    let parent_id = |p: &Option<usize>| p.map(|i| NodeId(i as u32));
    topology.parent.iter().map(parent_id).collect()
}

/// The nodes of `topology` other than the sink, in id order.
pub(crate) fn source_ids(topology: &Topology) -> Vec<NodeId> {
    topology.sources().map(|i| NodeId(i as u32)).collect()
}

/// Runs `reps` independent replications of `run` (seeded 0..reps) on
/// the rayon worker pool and collects the results in seed order, so
/// the aggregate is identical to a serial run
/// (`RAYON_NUM_THREADS=1` forces one).
pub fn replicate<T, F>(reps: u64, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    use rayon::prelude::*;
    (0..reps)
        .collect::<Vec<u64>>()
        .into_par_iter()
        .map(run)
        .collect()
}

/// The paper's standard simulation horizon for a δ-rate hidden-node
/// run: 100 s of management, 1000 packets at δ, plus drain time.
pub fn hidden_node_horizon(delta: f64, packets: u64) -> SimTime {
    let gen_time = packets as f64 / delta;
    SimTime::from_secs_f64(100.0 + gen_time + 30.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_kinds_build() {
        let clock = FrameClock::dsme_so3();
        for kind in MacKind::ALL {
            let _mac = kind.build_with(&clock, &QmaMacConfig::default());
            assert!(!kind.name().is_empty());
        }
        assert_eq!(MacKind::Qma.to_string(), "QMA");
    }

    #[test]
    fn replicate_preserves_order_and_count() {
        let out = replicate(16, |seed| seed * 2);
        assert_eq!(out.len(), 16);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn replicate_single() {
        assert_eq!(replicate(1, |s| s + 7), vec![7]);
    }

    #[test]
    fn horizon_scales_with_rate() {
        assert!(hidden_node_horizon(1.0, 1000) > SimTime::from_secs(1100));
        assert!(hidden_node_horizon(100.0, 1000) < SimTime::from_secs(150));
    }
}
