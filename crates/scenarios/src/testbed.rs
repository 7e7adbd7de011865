//! The FIT IoT-LAB verification scenarios of §6.2 — Fig. 18 (tree,
//! per-node PDR), Fig. 19 (star, per-node PDR) and the §6.2.1 energy
//! parity observation.
//!
//! The paper runs these on hardware; we run them on the reconstructed
//! topologies (`qma-topo::testbed`) with the same traffic (δ = 10
//! pkt/s Poisson, 1000 packets, 10 repetitions) and compare QMA with
//! unslotted CSMA/CA, as the paper does ("slotted and unslotted
//! CSMA/CA perform almost the same").

use qma_mac::QmaMacConfig;
use qma_netsim::{FrameClock, NodeId};
use qma_stats::{mean_ci95, ConfidenceInterval};
use qma_topo::Topology;

use crate::common::{
    collection_sim, data_after_management, hidden_node_horizon, replicate, source_ids, MacKind,
};

/// Which testbed deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Testbed {
    /// Fig. 16 routing tree (10 nodes, depth 4).
    Tree,
    /// Fig. 17 star (17 nodes).
    Star,
}

impl Testbed {
    /// Builds the topology.
    pub fn topology(self) -> Topology {
        match self {
            Testbed::Tree => qma_topo::iotlab_tree(),
            Testbed::Star => qma_topo::iotlab_star(),
        }
    }
}

/// Per-node result of one scheme.
#[derive(Debug, Clone)]
pub struct PerNodePdr {
    /// Paper label of the node (x-axis of Fig. 18/19).
    pub label: u32,
    /// PDR with 95 % CI over replications.
    pub pdr: ConfidenceInterval,
}

/// Energy/radio-activity summary (§6.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergySummary {
    /// Mean per-node energy in millijoules.
    pub mean_mj: f64,
    /// Total transmission attempts across nodes.
    pub tx_attempts: u64,
    /// Total CCAs across nodes.
    pub ccas: u64,
}

/// Result of a testbed sweep for one scheme.
#[derive(Debug, Clone)]
pub struct TestbedResult {
    /// The scheme.
    pub mac: MacKind,
    /// Per-node PDR, ordered by paper label.
    pub per_node: Vec<PerNodePdr>,
    /// Aggregate PDR over all sources.
    pub total_pdr: ConfidenceInterval,
    /// Energy summary (mean over replications).
    pub energy: EnergySummary,
}

/// One replication: per-source delivered/generated plus energy.
pub fn run_once(
    testbed: Testbed,
    mac: MacKind,
    rate: f64,
    packets: u64,
    seed: u64,
) -> (Vec<(u32, f64)>, f64, EnergySummary) {
    let topo = testbed.topology();
    // Short sensor readings (the tree's inner collision domain carries
    // ~140 pkt/s of forwarded traffic — with the 30-octet payloads
    // typical of openDSME data requests the CAP sustains it, as on the
    // testbed).
    let payload_octets = 16;
    let mut sim = collection_sim(
        &topo,
        mac,
        &QmaMacConfig::default(),
        FrameClock::dsme_so3(),
        seed,
        payload_octets,
        move |_| data_after_management(rate, Some(packets)),
    )
    .build();
    sim.run_until(hidden_node_horizon(rate, packets));

    let sources = source_ids(&topo);
    let per_node = sources
        .iter()
        .map(|&s| (topo.labels[s.index()], sim.metrics().pdr(s).unwrap_or(0.0)))
        .collect();
    let total = sim.metrics().pdr_of(sources).unwrap_or(0.0);
    let mut energy = EnergySummary::default();
    let n = topo.len();
    for i in 0..n {
        let report = sim.energy_report(NodeId(i as u32));
        energy.mean_mj += report.total_mj / n as f64;
        energy.tx_attempts += report.tx_attempts;
        energy.ccas += report.ccas;
    }
    (per_node, total, energy)
}

/// Runs the Fig. 18/19 experiment for one scheme.
pub fn sweep(testbed: Testbed, mac: MacKind, quick: bool, master_seed: u64) -> TestbedResult {
    let reps = if quick { 2 } else { 10 };
    let packets = if quick { 400 } else { 1000 };
    let runs = replicate(reps, |rep| {
        run_once(testbed, mac, 10.0, packets, master_seed ^ (rep * 6151 + 5))
    });

    let labels: Vec<u32> = runs[0].0.iter().map(|(l, _)| *l).collect();
    let per_node = labels
        .iter()
        .map(|&label| {
            let samples: Vec<f64> = runs
                .iter()
                .map(|(per, _, _)| {
                    per.iter()
                        .find(|(l, _)| *l == label)
                        .map(|(_, p)| *p)
                        .unwrap_or(0.0)
                })
                .collect();
            PerNodePdr {
                label,
                pdr: mean_ci95(&samples),
            }
        })
        .collect();
    let totals: Vec<f64> = runs.iter().map(|(_, t, _)| *t).collect();
    let reps_f = runs.len() as f64;
    let energy = EnergySummary {
        mean_mj: runs.iter().map(|(_, _, e)| e.mean_mj).sum::<f64>() / reps_f,
        tx_attempts: (runs.iter().map(|(_, _, e)| e.tx_attempts).sum::<u64>() as f64 / reps_f)
            as u64,
        ccas: (runs.iter().map(|(_, _, e)| e.ccas).sum::<u64>() as f64 / reps_f) as u64,
    };
    TestbedResult {
        mac,
        per_node,
        total_pdr: mean_ci95(&totals),
        energy,
    }
}

/// Formats Fig. 18/19 as a markdown table: one row per node label,
/// one column per scheme.
pub fn format_table(results: &[TestbedResult]) -> String {
    let mut out = String::from("| node |");
    for r in results {
        out.push_str(&format!(" {} |", r.mac.name()));
    }
    out.push_str("\n|---|");
    for _ in results {
        out.push_str("---|");
    }
    out.push('\n');
    if let Some(first) = results.first() {
        for (i, pn) in first.per_node.iter().enumerate() {
            out.push_str(&format!("| {} |", pn.label));
            for r in results {
                out.push_str(&format!(" {} |", r.per_node[i].pdr));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_qma_beats_unslotted_csma() {
        // Fig. 18: "QMA achieves a higher PDR at all nodes of the tree
        // topology than unslotted CSMA/CA" — we assert the aggregate
        // (per-node noise at reduced packet budgets is large). Needs
        // enough packets for the slot-acquisition cascade to reach the
        // leaves; runs are deterministic per seed.
        let (per, qma, _) = run_once(Testbed::Tree, MacKind::Qma, 10.0, 400, 0);
        let (_, csma, _) = run_once(Testbed::Tree, MacKind::UnslottedCsma, 10.0, 400, 0);
        assert!(qma > csma, "tree: QMA {qma:.3} must beat CSMA {csma:.3}");
        // The upper tree (heard by the drained sink) reaches
        // near-perfect delivery, as in Fig. 18.
        let top: Vec<f64> = per
            .iter()
            .filter(|(l, _)| [18, 15].contains(l))
            .map(|(_, p)| *p)
            .collect();
        assert!(top.iter().all(|&p| p > 0.9), "root children {top:?}");
    }

    #[test]
    fn star_stays_close_and_energy_parity_holds() {
        // Fig. 19: in the single-collision-domain star "the PDR of QMA
        // and unslotted CSMA/CA is closer … as CSMA/CA's CCA prevents
        // many collisions" — assert closeness; §6.2.1: energy parity
        // ("both … conduct about the same number of transmission
        // attempts").
        let (_, star_q, e_q) = run_once(Testbed::Star, MacKind::Qma, 10.0, 400, 3);
        let (_, star_c, e_c) = run_once(Testbed::Star, MacKind::UnslottedCsma, 10.0, 400, 3);
        assert!(
            (star_q - star_c).abs() < 0.15,
            "star PDRs diverged: QMA {star_q:.3} vs CSMA {star_c:.3}"
        );
        let ratio = e_q.mean_mj / e_c.mean_mj;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "energy ratio QMA/CSMA = {ratio:.3}"
        );
    }
}
