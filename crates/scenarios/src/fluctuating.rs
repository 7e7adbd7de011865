//! Adaptability under fluctuating traffic (§6.1.2, Fig. 12).
//!
//! Node A alternates between δ = 10 and δ = 100 pkt/s every 100 s;
//! node C generates a constant δ = 25 pkt/s but joins the network
//! 100 s after node A. The cumulative Q-values of both nodes track
//! the traffic switches.

use qma_des::{SimDuration, SimTime};
use qma_mac::{MacImpl, QmaMacConfig};
use qma_net::TrafficPattern;
use qma_netsim::{FrameClock, NodeId, Sim};
use qma_stats::TimeSeries;
use qma_topo::Topology;

use crate::common::{collection_sim, data_after_management, source_ids, MacKind, UpperImpl};
use crate::params::{collect_metrics, RunMetrics, ScenarioParams};

/// Result of the fluctuating-traffic run.
#[derive(Debug, Clone)]
pub struct FluctuatingRun {
    /// Node A's per-frame cumulative Q (Fig. 12, "node A").
    pub q_sum_a: TimeSeries,
    /// Node C's per-frame cumulative Q (Fig. 12, "node C").
    pub q_sum_c: TimeSeries,
    /// Overall PDR of both sources.
    pub pdr: f64,
}

/// Runs the Fig. 12 scenario for `duration_s` seconds (the paper
/// shows 1400 s).
pub fn run(duration_s: u64, seed: u64) -> FluctuatingRun {
    let topo = qma_topo::hidden_node();
    let cfg = QmaMacConfig::default();
    // Base rate 10: A alternates 10 ↔ 100 pkt/s, C sends 25 pkt/s.
    let (mut sim, sources) = world(
        &topo,
        MacKind::Qma,
        &cfg,
        FrameClock::dsme_so3(),
        10.0,
        seed,
    );
    sim.run_until(SimTime::from_secs(duration_s));
    let m = sim.metrics();
    FluctuatingRun {
        q_sum_a: m.q_sum_series(sources[0]).clone(),
        q_sum_c: m.q_sum_series(sources[1]).clone(),
        pdr: m.pdr_of(sources.iter().copied()).unwrap_or(0.0),
    }
}

/// Runs one replication of a campaign grid point: source 0 alternates
/// between δ = `p.delta` and 10·δ every 100 s (the Fig. 12 pattern,
/// rescaled by the grid's δ); any further sources generate a constant
/// 2.5·δ but join the network 100 s late, like the paper's node C.
/// The auxiliary metric is the adaptation swing — how far source 0's
/// cumulative Q moves between the settled slow and fast phases
/// (|mean Q(60–100 s) − mean Q(160–200 s)|); larger means the learner
/// visibly tracks the traffic switches.
pub fn run_grid(p: &ScenarioParams, seed: u64) -> RunMetrics {
    let topo = qma_topo::hidden_star(p.nodes - 1);
    let (mut sim, sources) = world(&topo, p.mac, &p.qma_mac_config(), p.clock(), p.delta, seed);
    sim.run_until(SimTime::from_secs(p.duration_s));
    let q_a = sim.metrics().q_sum_series(sources[0]);
    let swing = match (
        window_mean(q_a, 60.0, 100.0),
        window_mean(q_a, 160.0, 200.0),
    ) {
        (Some(slow), Some(fast)) => (slow - fast).abs(),
        _ => 0.0,
    };
    collect_metrics(&sim, &sources, swing)
}

/// The Fig. 12 world at base rate δ: the first source alternates
/// between δ and 10·δ every 100 s from t = 0; the others send 2.5·δ
/// and join the network 100 s late (Fig. 12: "joining the network
/// late does not influence the performance of node C").
fn world(
    topo: &Topology,
    mac: MacKind,
    qma_cfg: &QmaMacConfig,
    clock: FrameClock,
    delta: f64,
    seed: u64,
) -> (Sim<MacImpl, UpperImpl>, Vec<NodeId>) {
    let sources = source_ids(topo);
    let first = sources[0];
    let mut builder = collection_sim(topo, mac, qma_cfg, clock, seed, 60, move |node| {
        if node == first {
            TrafficPattern::Alternating {
                rates: (delta, 10.0 * delta),
                period: SimDuration::from_secs(100),
                start: SimTime::ZERO,
                limit: None,
            }
        } else {
            data_after_management(2.5 * delta, None)
        }
    });
    for &late in &sources[1..] {
        builder = builder.node_start(late, SimTime::from_secs(100));
    }
    (builder.build(), sources)
}

/// Mean of a series within a time window (`None` when empty).
pub fn window_mean(series: &TimeSeries, from_s: f64, to_s: f64) -> Option<f64> {
    let vals: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t >= from_s && *t < to_s)
        .map(|(_, v)| v)
        .collect();
    (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_a_reacts_to_traffic_switches() {
        // Fig. 12: "node A immediately reacts to changes in its packet
        // generation pattern with increasing and decreasing Q-values".
        let r = run(400, 11);
        // Phase 1 (δ=10, settled): 50–100 s. Phase 2 (δ=100): 100–200.
        let slow = window_mean(&r.q_sum_a, 60.0, 100.0).unwrap();
        let fast = window_mean(&r.q_sum_a, 160.0, 200.0).unwrap();
        assert!(
            (slow - fast).abs() > 20.0,
            "Q-sum did not react to the rate switch: {slow} vs {fast}"
        );
    }

    #[test]
    fn late_joiner_still_learns() {
        let r = run(400, 13);
        // C starts at −540 (54 × −10) and must have risen by the end.
        let first = r.q_sum_c.values().first().copied().unwrap_or(-540.0);
        let last = *r.q_sum_c.values().last().expect("C recorded");
        assert!(last > first, "node C never learned: {first} → {last}");
        // And the network still delivers.
        assert!(r.pdr > 0.3, "pdr {}", r.pdr);
    }
}
