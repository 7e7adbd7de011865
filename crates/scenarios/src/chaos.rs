//! The chaos scenario: a massive-access topology under a
//! deterministic fault plan, measuring *recovery* instead of steady
//! state.
//!
//! The topology and traffic reuse [`crate::massive`] (hidden-star or
//! grid, single-hop Poisson uplinks), but the flow is unbounded — a
//! PDR can only *recover* if packets keep coming after the fault
//! clears. At [`ChaosKnobs::fault_start_s`] the plan strikes: a
//! seed-drawn cohort of sources crashes (rebooting with or without
//! their Q-tables), a jammer switches on over another cohort, source
//! uplinks drift below decodability, clocks skew, optionally the sink
//! goes dark. Everything lifts [`ChaosKnobs::fault_duration_s`]
//! later, and the run then steps the simulation in one-second
//! increments, watching the windowed PDR climb back toward its
//! pre-fault level.
//!
//! Every quantity here — cohorts, instants, measurement windows — is
//! derived from the replication seed and stepped on fixed one-second
//! boundaries, so a chaos replication is exactly as deterministic as
//! an undisturbed one: fault events travel through the scheduler's
//! heap among the subslot-boundary sweeps, and the engine goldens pin
//! the result.

use qma_des::{SeedSequence, SimDuration, SimTime};
use qma_mac::MacImpl;
use qma_netsim::{FaultPlan, NodeId, Sim};
use rand::Rng;

use crate::common::UpperImpl;
use crate::massive::{build_topology, sim_builder};
use crate::params::{collect_metrics, ChaosKnobs, Resilience, RunMetrics, ScenarioParams};

/// Recovery threshold: the windowed PDR must reach this fraction of
/// the pre-fault level to count as recovered.
const RECOVERY_FRACTION: f64 = 0.95;

/// Draws `frac` of `candidates` without replacement (partial
/// Fisher–Yates), returning the cohort in ascending order so the
/// fault plan's event order is independent of the draw order.
fn draw_cohort<R: Rng + ?Sized>(rng: &mut R, candidates: &[u32], frac: f64) -> Vec<u32> {
    let k = ((candidates.len() as f64) * frac).round() as usize;
    let k = k.min(candidates.len());
    let mut pool = candidates.to_vec();
    for i in 0..k {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool.sort_unstable();
    pool
}

/// Expands the chaos knobs into a concrete fault plan for one
/// replication. Cohorts come from `derive(3)` of the replication
/// seed — disjoint from the builder's per-node MAC (`derive(1)`) and
/// upper (`derive(2)`) streams, so arming a plan never perturbs the
/// traffic it disturbs.
pub fn build_plan(topo: &qma_topo::Topology, c: &ChaosKnobs, seed: u64) -> FaultPlan {
    let mut rng = SeedSequence::new(seed).derive(3).rng();
    let sources: Vec<u32> = topo.sources().map(|i| i as u32).collect();
    let at = SimTime::from_secs(c.fault_start_s);
    let dur = SimDuration::from_secs(c.fault_duration_s);

    let mut plan = FaultPlan::new();
    if c.sink_outage {
        plan = plan.sink_outage(topo.sink as u32, at, dur);
    }
    for node in draw_cohort(&mut rng, &sources, c.crash_frac) {
        plan = plan.crash_reboot(node, at, dur, c.persist_q);
    }
    let jammed = draw_cohort(&mut rng, &sources, c.jam_frac);
    if !jammed.is_empty() {
        plan = plan.jam(jammed, at, dur);
    }
    let drifted: Vec<(u32, u32)> = draw_cohort(&mut rng, &sources, c.drift_frac)
        .into_iter()
        .filter_map(|s| topo.parent[s as usize].map(|parent| (s, parent as u32)))
        .collect();
    if !drifted.is_empty() {
        plan = plan.drift(drifted, at, dur);
    }
    if c.skew_us != 0 {
        // The skew axis hits a tenth of the sources (at least one)
        // and never lifts — drifted oscillators do not self-correct.
        let skewed = draw_cohort(&mut rng, &sources, 0.1f64.max(1.0 / sources.len() as f64));
        plan = plan.clock_skew(skewed, at, c.skew_us);
    }
    plan
}

/// Per-step snapshot of the counters the resilience metrics window.
fn snapshot(sim: &Sim<MacImpl, UpperImpl>, sources: &[NodeId]) -> (f64, f64, f64) {
    let m = sim.metrics();
    let generated: u64 = sources.iter().map(|&s| m.generated(s)).sum();
    let delivered: u64 = sources.iter().map(|&s| m.delivered(s)).sum();
    let collisions = sim.world().medium().collisions();
    (generated as f64, delivered as f64, collisions as f64)
}

/// Builds one replication of the chaos grid point with its fault plan
/// armed, together with its traffic sources: the massive world with
/// an unbounded flow, since recovery is only observable while packets
/// keep arriving after the fault clears.
pub fn build_sim(p: &ScenarioParams, seed: u64) -> (Sim<MacImpl, UpperImpl>, Vec<NodeId>) {
    let topo = build_topology(p);
    let plan = build_plan(&topo, &p.chaos, seed);
    let (builder, sources) = sim_builder(p, &topo, seed, None);
    let sim = builder
        .fault_plan(plan)
        .past_clamp_budget(p.chaos.clamp_budget)
        .build();
    (sim, sources)
}

/// Runs one replication of the chaos grid point.
pub fn run_grid(p: &ScenarioParams, seed: u64) -> RunMetrics {
    let c = p.chaos;
    let (mut sim, sources) = build_sim(p, seed);

    let horizon = SimTime::from_secs(p.duration_s);
    let fault_start = SimTime::from_secs(c.fault_start_s);
    let fault_end = fault_start + SimDuration::from_secs(c.fault_duration_s);
    // Final fifth of the horizon (clamped to start after the fault
    // clears) — the "re-learning settled" window. All step instants
    // are whole seconds, so the tail boundary is hit exactly.
    let tail_start_s =
        (p.duration_s - (p.duration_s / 5).max(1)).max(c.fault_start_s + c.fault_duration_s);

    // Pre-fault baseline.
    sim.run_until(fault_start);
    let (gen0, del0, col0) = snapshot(&sim, &sources);
    let pre_pdr = if gen0 > 0.0 { del0 / gen0 } else { 0.0 };
    let pre_col_rate = col0 / c.fault_start_s as f64;

    // The fault window.
    sim.run_until(fault_end);
    let (gen1, del1, col1) = snapshot(&sim, &sources);
    let lost_in_outage = ((gen1 - gen0) - (del1 - del0)).max(0.0);

    // Post-fault: step on one-second boundaries, watching the
    // windowed PDR climb back. The stepping sequence is a pure
    // function of the parameters, so the artifacts are too.
    let mut recovery_s = None;
    let mut tail_snap = (gen1, del1);
    let mut prev = (gen1, del1);
    let mut t = fault_end;
    while t < horizon {
        t = (t + SimDuration::from_secs(1)).min(horizon);
        sim.run_until(t);
        let (g, d, _) = snapshot(&sim, &sources);
        if recovery_s.is_none() {
            let (dg, dd) = (g - prev.0, d - prev.1);
            if dg > 0.0 && dd / dg >= RECOVERY_FRACTION * pre_pdr {
                recovery_s = Some(t.since(fault_end).as_secs_f64());
            }
        }
        if t <= SimTime::from_secs(tail_start_s) {
            tail_snap = (g, d);
        }
        prev = (g, d);
    }
    let (gen_f, del_f, col_f) = snapshot(&sim, &sources);

    let post_secs = horizon.since(fault_end).as_secs_f64();
    let post_col_rate = if post_secs > 0.0 {
        (col_f - col1) / post_secs
    } else {
        0.0
    };
    let tail_gen = gen_f - tail_snap.0;
    let tail_pdr = if tail_gen > 0.0 {
        (del_f - tail_snap.1) / tail_gen
    } else {
        pre_pdr
    };

    let resilience = Resilience {
        // Censored at the horizon: "never recovered" reports the full
        // post-fault window, which dominates every recovered run.
        recovery_s: recovery_s.unwrap_or(post_secs),
        collision_regret: post_col_rate - pre_col_rate,
        lost_in_outage,
        steady_state_delta: tail_pdr - pre_pdr,
    };

    let delivered: u64 = sources.iter().map(|&s| sim.metrics().delivered(s)).sum();
    let aux = delivered as f64 / p.duration_s as f64;
    let mut m = collect_metrics(&sim, &sources, aux);
    m.resilience = resilience;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{MassiveTopology, ScenarioKind};

    fn small_chaos() -> ScenarioParams {
        ScenarioParams {
            topology: MassiveTopology::HiddenStar,
            nodes: 7,
            delta: 8.0,
            duration_s: 60,
            chaos: ChaosKnobs {
                fault_start_s: 20,
                fault_duration_s: 10,
                crash_frac: 0.5,
                ..ChaosKnobs::default()
            },
            ..ScenarioParams::default()
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        let p = small_chaos();
        let topo = build_topology(&p);
        let a = build_plan(&topo, &p.chaos, 17);
        let b = build_plan(&topo, &p.chaos, 17);
        assert_eq!(a, b);
        let c = build_plan(&topo, &p.chaos, 18);
        assert_ne!(a, c, "different seeds must draw different cohorts");
        // 3 of 6 sources crash: one crash + one reboot each.
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn sink_outage_loses_and_recovers() {
        let mut p = small_chaos();
        p.chaos.crash_frac = 0.0;
        p.chaos.sink_outage = true;
        p.validate_for(ScenarioKind::Chaos).unwrap();
        let m = run_grid(&p, 11);
        let r = m.resilience;
        assert!(
            r.lost_in_outage > 0.0,
            "a dark sink must lose traffic: {r:?}"
        );
        assert!(
            r.recovery_s < 30.0,
            "a persisted-state sink should recover within the horizon: {r:?}"
        );
        assert!((0.0..=1.0).contains(&m.pdr));
        assert!(r.collision_regret.is_finite() && r.steady_state_delta.is_finite());
    }

    #[test]
    fn crash_cohort_run_is_reproducible() {
        let p = small_chaos();
        p.validate_for(ScenarioKind::Chaos).unwrap();
        let a = run_grid(&p, 5);
        let b = run_grid(&p, 5);
        assert_eq!(a, b, "same seed must reproduce the full record");
        assert!(a.events > 0 && (59.0..=60.0).contains(&a.sim_seconds));
    }

    #[test]
    fn faultless_knobs_report_near_zero_resilience_cost() {
        let mut p = small_chaos();
        p.chaos.crash_frac = 0.0; // empty plan axes: nothing strikes
        let m = run_grid(&p, 9);
        // Window-edge lag: packets in flight when the (disturbance-
        // free) window closes count as "lost", bounded by what the
        // pipeline holds — nowhere near an actual outage.
        assert!(
            m.resilience.lost_in_outage < 7.0,
            "no outage, so only in-flight edge lag: {:?}",
            m.resilience
        );
        assert!(
            m.resilience.recovery_s <= 2.0,
            "undisturbed run recovers immediately: {:?}",
            m.resilience
        );
    }

    #[test]
    fn negative_skew_without_budget_is_rejected() {
        let mut p = small_chaos();
        p.chaos.skew_us = -500;
        assert!(p.validate_for(ScenarioKind::Chaos).is_err());
        p.chaos.clamp_budget = 100_000;
        p.validate_for(ScenarioKind::Chaos).unwrap();
    }
}
