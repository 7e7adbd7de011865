//! One replication of a campaign grid point, rebuilt from the
//! simulator's public parts so that the MAC and upper layers can be
//! swapped for delegating wrappers.
//!
//! The build mirrors `qma_scenarios::hidden_node::run_grid` and
//! `qma_scenarios::massive::run_grid` step for step. The trace command
//! checks every rebuilt replication against `run_scenario` itself, so
//! a scenario change that this mirror misses shows up as a failed
//! check, never as silently different numbers.

use qma_des::{SimDuration, SimTime};
use qma_mac::MacImpl;
use qma_net::{CollectionApp, CollectionConfig, TrafficPattern};
use qma_netsim::{MacCounters, MacProtocol, NodeId, Sim, SimBuilder, UpperLayer};
use qma_scenarios::common::{collection_upper, hidden_node_horizon};
use qma_scenarios::massive::{self, MassiveApp};
use qma_scenarios::{Resilience, RunMetrics, ScenarioKind, ScenarioParams, UpperImpl};
use qma_topo::Topology;

use crate::timing::timed;

/// Hidden-node data traffic starts after the 100 s management phase.
const HIDDEN_NODE_TRAFFIC_START: SimTime = SimTime::from_secs(100);
/// Massive-scenario sources start at 1 s (no management warm-up).
const MASSIVE_TRAFFIC_START: SimTime = SimTime::from_secs(1);
/// Management chatter period of hidden-node sources.
const MGMT_PERIOD: SimDuration = SimDuration::from_secs(5);
/// Application payload of both scenario families.
const PAYLOAD_OCTETS: u16 = 60;

/// How the per-node MAC and upper layer are held: as-is, or wrapped.
pub trait Layers: 'static {
    /// Per-node MAC type.
    type Mac: MacProtocol + 'static;
    /// Per-node upper-layer type.
    type Upper: UpperLayer + 'static;
    /// Wraps one node's MAC.
    fn mac(inner: MacImpl) -> Self::Mac;
    /// Wraps one node's upper layer.
    fn upper(inner: UpperImpl) -> Self::Upper;
}

/// The layers exactly as the scenarios build them.
pub struct Plain;

impl Layers for Plain {
    type Mac = MacImpl;
    type Upper = UpperImpl;
    fn mac(inner: MacImpl) -> MacImpl {
        inner
    }
    fn upper(inner: UpperImpl) -> UpperImpl {
        inner
    }
}

/// Rejects scenario kinds the benchmark's workloads do not use.
pub fn supported(kind: ScenarioKind) -> Result<(), String> {
    match kind {
        ScenarioKind::HiddenNode | ScenarioKind::Massive => Ok(()),
        other => Err(format!("scenario {other} is not a benchmark workload")),
    }
}

/// The grid point's topology (`qma-topo`).
pub fn topology(kind: ScenarioKind, p: &ScenarioParams) -> Topology {
    match kind {
        ScenarioKind::Massive => massive::build_topology(p),
        _ => qma_topo::hidden_star(p.nodes - 1),
    }
}

/// The grid point's simulation builder, with `L` wrapping every node.
pub fn builder<L: Layers>(
    kind: ScenarioKind,
    p: &ScenarioParams,
    topo: &Topology,
    seed: u64,
) -> SimBuilder<L::Mac, L::Upper> {
    let mac = p.mac;
    let qma_cfg = p.qma_mac_config();
    let base = SimBuilder::new(topo.connectivity.clone(), seed)
        .clock(p.clock())
        .record_learner(false)
        .mac_factory(move |_, clock| L::mac(mac.build_with(clock, &qma_cfg)));
    match kind {
        ScenarioKind::Massive => {
            let parents: Vec<Option<NodeId>> = topo
                .parent
                .iter()
                .map(|q| q.map(|i| NodeId(i as u32)))
                .collect();
            let (delta, packets) = (p.delta, p.packets);
            base.upper_factory(move |node, _| {
                let dst = parents[node.index()];
                let pattern = match dst {
                    Some(_) => TrafficPattern::Poisson {
                        rate: delta,
                        start: MASSIVE_TRAFFIC_START,
                        limit: Some(packets),
                    },
                    None => TrafficPattern::Silent,
                };
                L::upper(UpperImpl::Massive(MassiveApp::new(
                    pattern,
                    dst,
                    PAYLOAD_OCTETS,
                )))
            })
        }
        _ => {
            let sink = NodeId(topo.sink as u32);
            let source_pattern = TrafficPattern::Poisson {
                rate: p.delta,
                start: HIDDEN_NODE_TRAFFIC_START,
                limit: Some(p.packets),
            };
            base.upper_factory(move |node, _| {
                let is_sink = node == sink;
                let app = CollectionApp::new(CollectionConfig {
                    pattern: if is_sink {
                        TrafficPattern::Silent
                    } else {
                        source_pattern.clone()
                    },
                    next_hop: (!is_sink).then_some(sink),
                    sink,
                    payload_octets: PAYLOAD_OCTETS,
                });
                L::upper(collection_upper(app, is_sink, MGMT_PERIOD))
            })
        }
    }
}

/// Simulator counters of one finished replication, read through
/// public getters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counters {
    /// `Sim::past_clamps`.
    pub past_clamps: u64,
    /// `Medium::collisions`.
    pub collisions: u64,
    /// `Medium::clean_receptions`.
    pub clean_receptions: u64,
    /// `MacCounters` summed over every node.
    pub mac: MacCounters,
}

impl Counters {
    /// Adds another replication's counters.
    pub fn add(&mut self, o: &Counters) {
        self.past_clamps += o.past_clamps;
        self.collisions += o.collisions;
        self.clean_receptions += o.clean_receptions;
        add_mac(&mut self.mac, &o.mac);
    }
}

fn add_mac(total: &mut MacCounters, c: &MacCounters) {
    total.tx_attempts += c.tx_attempts;
    total.tx_delivered += c.tx_delivered;
    total.drops_retry += c.drops_retry;
    total.drops_channel_access += c.drops_channel_access;
    total.ccas += c.ccas;
}

/// A finished replication.
#[derive(Debug, Clone)]
pub struct Finished {
    /// The uniform record the campaign aggregates.
    pub metrics: RunMetrics,
    /// Host seconds spent inside `Sim::run_until`.
    pub run_s: f64,
    /// Host seconds spent collecting the metric record.
    pub collect_s: f64,
    /// Simulator counters.
    pub counters: Counters,
}

/// Runs a built replication to its horizon and collects its record,
/// exactly as the scenario's `run_grid` does.
pub fn run<M: MacProtocol, U: UpperLayer>(
    kind: ScenarioKind,
    p: &ScenarioParams,
    topo: &Topology,
    sim: &mut Sim<M, U>,
) -> Finished {
    let sources: Vec<NodeId> = topo.sources().map(|i| NodeId(i as u32)).collect();
    let ((), run_s) = timed(|| match kind {
        ScenarioKind::Massive => sim.run_until(SimTime::from_secs(p.duration_s)),
        _ => {
            sim.run_until(HIDDEN_NODE_TRAFFIC_START);
            sim.reset_queue_accounting();
            sim.run_until(hidden_node_horizon(p.delta, p.packets));
        }
    });
    let (metrics, collect_s) = timed(|| {
        let m = sim.metrics();
        let aux = match kind {
            ScenarioKind::Massive => {
                let delivered: u64 = sources.iter().map(|&s| m.delivered(s)).sum();
                delivered as f64 / p.duration_s as f64
            }
            _ => {
                let traffic_end = SimTime::from_secs_f64(100.0 + p.packets as f64 / p.delta);
                sources
                    .iter()
                    .map(|&s| m.avg_queue_level_until(s, traffic_end))
                    .sum::<f64>()
                    / sources.len() as f64
            }
        };
        collect(sim, &sources, aux)
    });
    let medium = sim.world().medium();
    let mut counters = Counters {
        past_clamps: sim.past_clamps(),
        collisions: medium.collisions(),
        clean_receptions: medium.clean_receptions(),
        mac: MacCounters::default(),
    };
    for i in 0..topo.len() {
        add_mac(&mut counters.mac, sim.metrics().mac(NodeId(i as u32)));
    }
    Finished {
        metrics,
        run_s,
        collect_s,
        counters,
    }
}

/// `qma_scenarios::params::collect_metrics`, for any MAC/upper types.
fn collect<M: MacProtocol, U: UpperLayer>(
    sim: &Sim<M, U>,
    sources: &[NodeId],
    aux: f64,
) -> RunMetrics {
    let m = sim.metrics();
    let retry_drops: u64 = sources.iter().map(|&s| m.mac(s).drops_retry).sum();
    let queue_drops: u64 = m.get("app_mac_ca_drop") as u64
        + sources
            .iter()
            .map(|&s| sim.world().queue(s).drops())
            .sum::<u64>();
    RunMetrics {
        pdr: m.pdr_of(sources.iter().copied()).unwrap_or(0.0),
        delay_s: m.mean_delay_of(sources.iter().copied()).unwrap_or(0.0),
        retry_drops,
        queue_drops,
        events: sim.events_processed(),
        sim_seconds: sim.now().as_micros() as f64 / 1e6,
        aux,
        resilience: Resilience::default(),
    }
}
