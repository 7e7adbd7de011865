//! Convergence and exploration dynamics (§6.1.2) — Fig. 10
//! (cumulative Q-values per frame) and Fig. 11 (exploration
//! probability ρ, rolling 10-frame average).

use qma_des::SimTime;
use qma_mac::{MacImpl, QmaMacConfig};
use qma_netsim::{FrameClock, NodeId, SimBuilder};
use qma_stats::TimeSeries;

use crate::common::{collection_sim, data_after_management, source_ids, MacKind, UpperImpl};

/// The rates plotted in Fig. 10/11.
pub const PAPER_DELTAS: [f64; 3] = [1.0, 10.0, 100.0];

/// Result of one convergence run.
#[derive(Debug, Clone)]
pub struct ConvergenceRun {
    /// δ in pkt/s.
    pub delta: f64,
    /// Per-frame Σₘ Q(m, π(m)) of node A (Fig. 10).
    pub q_sum: TimeSeries,
    /// ρ of node A, smoothed over 10 frames (Fig. 11).
    pub rho: TimeSeries,
    /// Time at which the cumulative Q stabilised (first instant after
    /// which it changes by < 1 % of its final range), seconds.
    pub settle_time: Option<f64>,
}

/// The Fig. 6 hidden-node world with QMA at the paper's defaults on
/// every node and unlimited data at δ from t = 100 s — the setting of
/// Fig. 10, 11 and 13–15.
pub(crate) fn learning_sim(delta: f64, seed: u64) -> SimBuilder<MacImpl, UpperImpl> {
    collection_sim(
        &qma_topo::hidden_node(),
        MacKind::Qma,
        &QmaMacConfig::default(),
        FrameClock::dsme_so3(),
        seed,
        60,
        move |_| data_after_management(delta, None),
    )
}

/// Runs QMA in the hidden-node topology at rate `delta`, recording
/// the learning traces of node A.
pub fn run(delta: f64, duration_s: u64, seed: u64) -> ConvergenceRun {
    let mut sim = learning_sim(delta, seed).build();
    sim.run_until(SimTime::from_secs(duration_s));

    let q_sum = sim.metrics().q_sum_series(NodeId(0)).clone();
    let rho = sim.metrics().rho_series(NodeId(0)).rolling_average(10);
    let settle_time = settle_time(&q_sum);
    ConvergenceRun {
        delta,
        q_sum,
        rho,
        settle_time,
    }
}

/// Runs one replication of a campaign grid point: unlimited Poisson
/// traffic at δ = `p.delta` from every source for `p.duration_s`
/// simulated seconds, learner traces on. The auxiliary metric is the
/// settle time of source 0's cumulative Q (seconds; the horizon when
/// the series never settles), i.e. the Fig. 10 convergence speed as
/// one scalar.
pub fn run_grid(p: &crate::ScenarioParams, seed: u64) -> crate::RunMetrics {
    let topo = qma_topo::hidden_star(p.nodes - 1);
    let delta = p.delta;
    let mut sim = collection_sim(
        &topo,
        p.mac,
        &p.qma_mac_config(),
        p.clock(),
        seed,
        60,
        move |_| data_after_management(delta, None),
    )
    .build();
    sim.run_until(SimTime::from_secs(p.duration_s));

    let sources = source_ids(&topo);
    let settle = settle_time(sim.metrics().q_sum_series(sources[0])).unwrap_or(p.duration_s as f64);
    crate::params::collect_metrics(&sim, &sources, settle)
}

/// First time after which the series stays within 1 % of its final
/// range.
pub fn settle_time(series: &TimeSeries) -> Option<f64> {
    let values = series.values();
    if values.len() < 2 {
        return None;
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let tol = (max - min).abs() * 0.01;
    let last = *values.last().expect("non-empty");
    let mut settle_idx = values.len() - 1;
    for i in (0..values.len()).rev() {
        if (values[i] - last).abs() <= tol {
            settle_idx = i;
        } else {
            break;
        }
    }
    Some(series.times()[settle_idx])
}

/// Formats a series for plotting: `time<TAB>value` rows, thinned.
pub fn format_series(series: &TimeSeries, max_points: usize) -> String {
    let mut out = String::from("time_s\tvalue\n");
    for (t, v) in series.thin(max_points).iter() {
        out.push_str(&format!("{t:.2}\t{v:.3}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learning_raises_cumulative_q() {
        let r = run(10.0, 200, 3);
        let first = r.q_sum.values()[0];
        let last = *r.q_sum.values().last().unwrap();
        assert!(last > first + 50.0, "no visible learning: {first} → {last}");
    }

    #[test]
    fn management_traffic_starts_learning_before_data() {
        // Fig. 10: "QMA immediately reacts to the first transmitted
        // management packets" — the Q-sum must move before t = 100 s.
        let r = run(10.0, 150, 5);
        let early = r.q_sum.value_at(90.0).unwrap();
        assert!(
            early > -540.0 + 10.0,
            "no learning from management traffic: {early}"
        );
    }

    #[test]
    fn rho_rises_with_saturation() {
        // Fig. 11: δ=100 oversaturates the CAP → queues fill → the
        // exploration probability climbs well above the δ=1 trace.
        let high = run(100.0, 200, 7);
        let low = run(1.0, 200, 7);
        let max_high = high.rho.values().iter().cloned().fold(0.0, f64::max);
        let max_low = low.rho.values().iter().cloned().fold(0.0, f64::max);
        assert!(
            max_high > max_low,
            "ρ(δ=100)={max_high} should exceed ρ(δ=1)={max_low}"
        );
        assert!(max_high >= 0.02, "saturated ρ {max_high} too small");
    }

    #[test]
    fn settle_time_detects_constant_tail() {
        let mut s = TimeSeries::new();
        for i in 0..50 {
            s.push(i as f64, if i < 20 { i as f64 } else { 20.0 });
        }
        let t = settle_time(&s).unwrap();
        assert!((t - 20.0).abs() <= 1.0, "settle at {t}");
    }

    #[test]
    fn format_series_shape() {
        let s: TimeSeries = [(0.0, 1.0), (1.0, 2.0)].into_iter().collect();
        let f = format_series(&s, 10);
        assert!(f.starts_with("time_s\tvalue\n"));
        assert_eq!(f.lines().count(), 3);
    }
}
