//! The hidden-node experiment of §6.1 — Fig. 7 (PDR), Fig. 8 (queue
//! level), Fig. 9 (end-to-end delay).
//!
//! Topology Fig. 6: A — B — C with A, C mutually hidden; B is the
//! sink. A and C generate 1000 Poisson packets at δ ∈
//! {1, 2, 4, 6, 8, 10, 25, 50, 100} pkt/s starting at t = 100 s;
//! management chatter runs from t = 0. 15 repetitions per scheme,
//! 95 % confidence intervals.

use qma_des::SimTime;
use qma_mac::{MacImpl, QmaMacConfig};
use qma_netsim::{FrameClock, Sim};
use qma_stats::{mean_ci95, ConfidenceInterval};
use qma_topo::Topology;

use crate::common::{
    collection_sim, data_after_management, hidden_node_horizon, replicate, source_ids, MacKind,
    UpperImpl,
};
use crate::params::{collect_metrics, RunMetrics, ScenarioParams};

/// The paper's δ sweep (packets per second).
pub const PAPER_DELTAS: [f64; 9] = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 25.0, 50.0, 100.0];

/// Number of packets each source generates.
pub const PACKETS_PER_SOURCE: u64 = 1000;

/// Raw metrics of one replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HiddenNodeRun {
    /// PDR over nodes A and C.
    pub pdr: f64,
    /// Average queue level over A and C (time-weighted).
    pub queue: f64,
    /// Mean end-to-end delay over A and C, seconds.
    pub delay: f64,
    /// Retry drops at A and C (loss-cause analysis, §6.1.1).
    pub retry_drops: u64,
    /// Queue-overflow drops at A and C.
    pub queue_drops: u64,
    /// Simulation events processed.
    pub events: u64,
}

/// One `(δ, scheme)` cell of Fig. 7/8/9 with confidence intervals.
#[derive(Debug, Clone)]
pub struct HiddenNodeCell {
    /// Packet generation rate δ.
    pub delta: f64,
    /// Channel-access scheme.
    pub mac: MacKind,
    /// PDR (Fig. 7).
    pub pdr: ConfidenceInterval,
    /// Average queue level (Fig. 8).
    pub queue: ConfidenceInterval,
    /// Average end-to-end delay in seconds (Fig. 9).
    pub delay: ConfidenceInterval,
}

/// Runs one replication.
pub fn run_once(mac: MacKind, delta: f64, packets: u64, seed: u64) -> HiddenNodeRun {
    run_once_with(mac, &QmaMacConfig::default(), delta, packets, seed)
}

/// [`run_once`] with an explicit QMA configuration (the ablations'
/// variants).
pub(crate) fn run_once_with(
    mac: MacKind,
    qma_cfg: &QmaMacConfig,
    delta: f64,
    packets: u64,
    seed: u64,
) -> HiddenNodeRun {
    let topo = qma_topo::hidden_node();
    let clock = FrameClock::dsme_so3();
    let sim = collection_sim(&topo, mac, qma_cfg, clock, seed, 60, move |_| {
        data_after_management(delta, Some(packets))
    });
    let m = run_data_phase(sim.build(), &topo, delta, packets);
    HiddenNodeRun {
        pdr: m.pdr,
        queue: m.aux,
        delay: m.delay_s,
        retry_drops: m.retry_drops,
        queue_drops: m.queue_drops,
        events: m.events,
    }
}

/// Runs one replication of a campaign grid point: `p.nodes − 1`
/// mutually hidden sources each generate `p.packets` Poisson packets
/// at δ = `p.delta` starting at t = 100 s, and the run drains like
/// the paper's Fig. 7–9 setup. The auxiliary metric is the mean
/// data-phase queue level over all sources (the Fig. 8 quantity).
pub fn run_grid(p: &ScenarioParams, seed: u64) -> RunMetrics {
    let topo = qma_topo::hidden_star(p.nodes - 1);
    let (delta, packets) = (p.delta, p.packets);
    let sim = collection_sim(
        &topo,
        p.mac,
        &p.qma_mac_config(),
        p.clock(),
        seed,
        60,
        move |_| data_after_management(delta, Some(packets)),
    );
    run_data_phase(sim.record_learner(false).build(), &topo, delta, packets)
}

/// Runs a hidden-node world through the 100 s management phase, the
/// data phase and the drain to [`hidden_node_horizon`]. The queue
/// metric (Fig. 8) characterises the data phase, so queue accounting
/// restarts when data starts and stops when it ends; the auxiliary
/// metric is that mean queue level over the sources.
fn run_data_phase(
    mut sim: Sim<MacImpl, UpperImpl>,
    topo: &Topology,
    delta: f64,
    packets: u64,
) -> RunMetrics {
    let sources = source_ids(topo);
    sim.run_until(SimTime::from_secs(100));
    sim.reset_queue_accounting();
    let traffic_end = SimTime::from_secs_f64(100.0 + packets as f64 / delta);
    sim.run_until(hidden_node_horizon(delta, packets));
    let queue = sources
        .iter()
        .map(|&s| sim.metrics().avg_queue_level_until(s, traffic_end))
        .sum::<f64>()
        / sources.len() as f64;
    collect_metrics(&sim, &sources, queue)
}

/// Runs the full sweep for Fig. 7/8/9.
///
/// `quick` reduces the sweep to 4 rates, 3 replications and 150
/// packets — same shape, minutes instead of hours.
pub fn sweep(quick: bool, master_seed: u64) -> Vec<HiddenNodeCell> {
    let deltas: Vec<f64> = if quick {
        vec![2.0, 10.0, 25.0, 50.0]
    } else {
        PAPER_DELTAS.to_vec()
    };
    let reps = if quick { 3 } else { 15 };
    let packets = if quick { 150 } else { PACKETS_PER_SOURCE };

    let mut cells = Vec::new();
    for &delta in &deltas {
        for mac in MacKind::ALL {
            let runs = replicate(reps, |rep| {
                run_once(mac, delta, packets, master_seed ^ (rep * 7919 + 13))
            });
            let pdr: Vec<f64> = runs.iter().map(|r| r.pdr).collect();
            let queue: Vec<f64> = runs.iter().map(|r| r.queue).collect();
            let delay: Vec<f64> = runs.iter().map(|r| r.delay).collect();
            cells.push(HiddenNodeCell {
                delta,
                mac,
                pdr: mean_ci95(&pdr),
                queue: mean_ci95(&queue),
                delay: mean_ci95(&delay),
            });
        }
    }
    cells
}

/// Formats a sweep as a markdown table with one row per δ and one
/// metric column per scheme (`metric` selects pdr/queue/delay).
pub fn format_table(cells: &[HiddenNodeCell], metric: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "| delta [pkt/s] | {} | {} | {} |\n|---|---|---|---|\n",
        MacKind::Qma.name(),
        MacKind::SlottedCsma.name(),
        MacKind::UnslottedCsma.name()
    ));
    let mut deltas: Vec<f64> = cells.iter().map(|c| c.delta).collect();
    deltas.dedup();
    for delta in deltas {
        let get = |mac: MacKind| -> String {
            cells
                .iter()
                .find(|c| c.delta == delta && c.mac == mac)
                .map(|c| {
                    let ci = match metric {
                        "pdr" => c.pdr,
                        "queue" => c.queue,
                        "delay" => c.delay,
                        other => panic!("unknown metric {other}"),
                    };
                    format!("{ci}")
                })
                .unwrap_or_else(|| "-".into())
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            delta,
            get(MacKind::Qma),
            get(MacKind::SlottedCsma),
            get(MacKind::UnslottedCsma)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qma_beats_csma_at_high_rate() {
        // The paper's headline (Fig. 7): at δ = 25 pkt/s QMA keeps a
        // high PDR while CSMA/CA collapses under hidden-node
        // collisions.
        let qma = run_once(MacKind::Qma, 25.0, 250, 42);
        let csma = run_once(MacKind::UnslottedCsma, 25.0, 250, 42);
        assert!(
            qma.pdr > csma.pdr + 0.2,
            "QMA {:.3} vs CSMA {:.3}",
            qma.pdr,
            csma.pdr
        );
        assert!(qma.pdr > 0.8, "QMA pdr {:.3}", qma.pdr);
    }

    #[test]
    fn low_rate_closes_the_gap() {
        // Fig. 7: "the performance difference becomes smaller for
        // lower rates".
        let qma = run_once(MacKind::Qma, 2.0, 60, 7);
        let csma = run_once(MacKind::UnslottedCsma, 2.0, 60, 7);
        assert!(qma.pdr > 0.85);
        assert!(csma.pdr > 0.5, "CSMA should work at low rate: {}", csma.pdr);
    }

    #[test]
    fn format_table_has_all_rows() {
        let cells = vec![HiddenNodeCell {
            delta: 1.0,
            mac: MacKind::Qma,
            pdr: qma_stats::mean_ci95(&[0.9, 0.92]),
            queue: qma_stats::mean_ci95(&[0.5]),
            delay: qma_stats::mean_ci95(&[0.01]),
        }];
        let t = format_table(&cells, "pdr");
        assert!(t.contains("| 1 |"));
        assert!(t.contains("0.91"));
    }
}
