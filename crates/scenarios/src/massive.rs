//! The massive-access stress scenario: 1k–50k nodes on one radio
//! plane — the workload the slot-synchronous kernel (one tick sweep
//! per subslot boundary over a SoA world) exists for.
//!
//! Two topology families, both O(E) in memory thanks to the sparse
//! connectivity and CSR neighbour-level tables:
//!
//! * **hidden-star** — `n − 1` mutually hidden sources around one
//!   sink: the paper's Fig. 6 constellation pushed to massive-access
//!   scale, in the spirit of the mMTC random-access literature
//!   (all sources contend for a single receiver, so the sink is the
//!   bottleneck and the PDR measures collision survival).
//! * **grid** — a √n × √n lattice where every node unicasts to its
//!   tree parent one hop away: spatially local traffic with massive
//!   frequency reuse, so throughput scales with the population while
//!   each neighbourhood still fights its own hidden-node battles.
//!
//! Traffic is deliberately single-hop (delivery is accounted at the
//! first-hop receiver) so the measured quantity is MAC-layer access
//! at scale, not routing-tree congestion.

use qma_des::SimTime;
use qma_mac::MacImpl;
use qma_net::TrafficPattern;
use qma_netsim::{
    Address, AppInfo, Frame, NodeId, Sim, SimBuilder, TxResult, UpperCtx, UpperLayer,
};
use qma_topo::Topology;

use crate::common::{parent_ids, source_ids, UpperImpl};
use crate::params::{MassiveTopology, RunMetrics, ScenarioParams};

/// Instant at which massive-scenario sources start generating data.
/// No 100 s management warmup here: at 10k+ nodes the interesting
/// regime starts immediately and the warmup would dominate wall-clock.
const TRAFFIC_START: SimTime = SimTime::from_secs(1);

/// The single-hop massive-access application: generates a bounded
/// Poisson flow toward a fixed first-hop destination and accounts
/// delivery at the receiver (no forwarding).
#[derive(Debug)]
pub struct MassiveApp {
    pattern: TrafficPattern,
    /// First-hop destination (`None` for the sink / a tree root).
    dst: Option<NodeId>,
    payload_octets: u16,
    generated: u64,
    seq: u32,
}

const TAG_ARRIVAL: u64 = 1;

impl MassiveApp {
    /// Creates the app for one node.
    pub fn new(pattern: TrafficPattern, dst: Option<NodeId>, payload_octets: u16) -> Self {
        MassiveApp {
            pattern,
            dst,
            payload_octets,
            generated: 0,
            seq: 0,
        }
    }

    fn schedule_next_arrival(&mut self, ctx: &mut UpperCtx<'_>) {
        let now = ctx.now();
        if let Some(at) = self.pattern.next_arrival(now, self.generated, ctx.rng()) {
            ctx.schedule(at.since(now), TAG_ARRIVAL);
        }
    }
}

impl UpperLayer for MassiveApp {
    fn start(&mut self, ctx: &mut UpperCtx<'_>) {
        if self.dst.is_some() {
            self.schedule_next_arrival(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, tag: u64) {
        if tag != TAG_ARRIVAL {
            return;
        }
        let Some(dst) = self.dst else { return };
        let node = ctx.node;
        self.generated += 1;
        ctx.metrics().app_generated(node);
        let app = AppInfo {
            origin: node,
            id: self.generated,
            created_at: ctx.now(),
            hops: 0,
        };
        self.seq = self.seq.wrapping_add(1);
        let frame = Frame::data(
            node,
            Address::Node(dst),
            self.seq,
            self.payload_octets,
            true,
        )
        .with_app(app);
        ctx.enqueue_mac(frame);
        self.schedule_next_arrival(ctx);
    }

    fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, frame: &Frame) {
        // Single-hop semantics: any app frame that reaches its
        // addressee counts as delivered for its origin.
        if let Some(app) = frame.app {
            let delay = ctx.now().since(app.created_at).as_secs_f64();
            ctx.metrics().app_delivered(app.origin, delay);
        }
    }

    fn on_tx_result(&mut self, ctx: &mut UpperCtx<'_>, _frame: &Frame, result: TxResult) {
        let name = match result {
            TxResult::Delivered => "app_mac_delivered",
            TxResult::RetryLimit => "app_mac_retry_drop",
            TxResult::ChannelAccessFailure => "app_mac_ca_drop",
        };
        ctx.metrics().count(name, 1.0);
    }
}

/// Resolves the topology for a grid point: the node count actually
/// simulated (grid populations round down to a full `w × h` lattice)
/// plus the per-node first-hop destination.
pub fn build_topology(p: &ScenarioParams) -> Topology {
    match p.topology {
        MassiveTopology::HiddenStar => qma_topo::hidden_star(p.nodes - 1),
        MassiveTopology::Grid => {
            let w = (p.nodes as f64).sqrt().floor().max(2.0) as usize;
            let h = (p.nodes / w).max(2);
            qma_topo::grid(w, h, 30.0)
        }
    }
}

/// Runs one replication of the massive grid point. The auxiliary
/// metric is the network-wide delivered throughput in packets per
/// simulated second (deterministic, unlike wall-clock rates — the
/// campaign artifacts must stay byte-identical across machines).
pub fn run_grid(p: &ScenarioParams, seed: u64) -> RunMetrics {
    let (mut sim, sources) = build_sim(p, seed);
    sim.run_until(SimTime::from_secs(p.duration_s));

    let m = sim.metrics();
    let delivered: u64 = sources.iter().map(|&s| m.delivered(s)).sum();
    // Normalised by the configured horizon (not the last-event time,
    // which depends on when the final queue drained).
    let aux = delivered as f64 / p.duration_s as f64;
    crate::params::collect_metrics(&sim, &sources, aux)
}

/// Builds one replication of the massive grid point, ready to run to
/// `p.duration_s`, together with its traffic sources.
pub fn build_sim(p: &ScenarioParams, seed: u64) -> (Sim<MacImpl, UpperImpl>, Vec<NodeId>) {
    let topo = build_topology(p);
    let (builder, sources) = sim_builder(p, &topo, seed, Some(p.packets));
    (builder.build(), sources)
}

/// The builder of a massive-access world on `topo` (see
/// [`build_topology`]), together with its traffic sources: every
/// source sends `limit` Poisson packets (`None`: an unbounded flow) at
/// δ = `p.delta` from t = 1 s to its first hop, the sink stays silent.
pub fn sim_builder(
    p: &ScenarioParams,
    topo: &Topology,
    seed: u64,
    limit: Option<u64>,
) -> (SimBuilder<MacImpl, UpperImpl>, Vec<NodeId>) {
    let parents = parent_ids(topo);
    let delta = p.delta;
    let builder = SimBuilder::new(topo.connectivity.clone(), seed)
        .clock(p.clock())
        // At 10k+ nodes, per-frame learner sampling would dominate
        // both time and memory; massive runs collect aggregates only.
        .record_learner(false)
        .mac_factory(
            p.mac
                .world_factory(&p.qma_mac_config(), p.clock(), topo.len()),
        )
        .upper_factory(move |node, _| {
            let pattern = if parents[node.index()].is_some() {
                TrafficPattern::Poisson {
                    rate: delta,
                    start: TRAFFIC_START,
                    limit,
                }
            } else {
                TrafficPattern::Silent
            };
            UpperImpl::Massive(MassiveApp::new(pattern, parents[node.index()], 60))
        });
    (builder, source_ids(topo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ScenarioKind;

    fn tiny(topology: MassiveTopology, nodes: usize) -> ScenarioParams {
        ScenarioParams {
            topology,
            nodes,
            delta: 2.0,
            packets: 5,
            duration_s: 10,
            ..ScenarioParams::default()
        }
    }

    #[test]
    fn star_delivers_under_light_load() {
        let p = tiny(MassiveTopology::HiddenStar, 9);
        p.validate_for(ScenarioKind::Massive).unwrap();
        let m = run_grid(&p, 42);
        assert!(m.events > 1_000, "suspiciously few events: {}", m.events);
        assert!(
            m.pdr > 0.5,
            "light-load star should mostly deliver: {}",
            m.pdr
        );
        assert!(m.aux > 0.0, "throughput must be positive");
        assert!(m.sim_seconds > 1.0 && m.sim_seconds <= 10.0);
    }

    #[test]
    fn grid_delivers_locally() {
        let p = tiny(MassiveTopology::Grid, 16);
        let m = run_grid(&p, 7);
        assert!(m.pdr > 0.5, "grid local traffic should deliver: {}", m.pdr);
    }

    #[test]
    fn grid_rounds_population_to_lattice() {
        let p = tiny(MassiveTopology::Grid, 1000);
        let topo = build_topology(&p);
        assert_eq!(topo.len(), 31 * 32);
    }

    #[test]
    fn fixed_seed_is_reproducible() {
        let p = tiny(MassiveTopology::HiddenStar, 6);
        let a = run_grid(&p, 11);
        let b = run_grid(&p, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn thousand_node_star_runs_quickly() {
        // The scale smoke: 1k sources, sparse connectivity, parked
        // ticks. Keeps CI honest about the O(E) memory claim.
        let p = ScenarioParams {
            topology: MassiveTopology::HiddenStar,
            nodes: 1_001,
            delta: 0.05,
            packets: 1,
            duration_s: 25,
            ..ScenarioParams::default()
        };
        let m = run_grid(&p, 3);
        assert!(m.events > 10_000);
        assert!(m.pdr > 0.0, "some packets must survive: {}", m.pdr);
    }
}
