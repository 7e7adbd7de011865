//! The engine's subslot-tick counts (`Sim::engine_counts`): boundary
//! sweeps run, the ticks they stood for, and the ticks that took the
//! scheduler heap instead. The counts are deterministic and always
//! kept.

use qma_des::SimTime;
use qma_scenarios::{
    chaos, massive, run_scenario, ChaosKnobs, MacKind, MassiveTopology, ScenarioKind,
    ScenarioParams,
};

#[test]
fn grid_ticks_are_swept_and_counted_as_events() {
    // The short 400-node lattice of `alloc_rate.rs`.
    let p = ScenarioParams {
        mac: MacKind::Qma,
        nodes: 400,
        delta: 2.0,
        packets: 5,
        duration_s: 5,
        topology: MassiveTopology::Grid,
        ..ScenarioParams::default()
    };
    let (mut sim, _) = massive::build_sim(&p, 2021);
    sim.run_until(SimTime::from_secs(p.duration_s));
    let c = sim.engine_counts();

    // Every sweep stands for its due ticks; every other pop is one
    // event.
    assert_eq!(sim.events_processed(), c.swept_ticks + (c.pops - c.sweeps));
    assert_eq!(
        sim.events_processed(),
        run_scenario(ScenarioKind::Massive, &p, 2021).events
    );
    // Sweeps batch: many ticks per boundary, not one.
    assert!(
        c.sweeps > 0 && c.swept_ticks > 10 * c.sweeps,
        "{c:?}: too few ticks per sweep"
    );
    // Unskewed ticks go to a sweep, fewer than 1 in 10,000 to the heap.
    assert!(
        c.heap_ticks * 10_000 < c.swept_ticks,
        "{c:?}: too many heap-path ticks"
    );
}

#[test]
fn skewed_ticks_take_the_heap() {
    // The grid half of `engine_skew.toml` (bench crate goldens): from
    // t = 4 s a tenth of the sources run 250 µs late, so their ticks
    // leave the boundary grid.
    let p = ScenarioParams {
        topology: MassiveTopology::Grid,
        nodes: 120,
        delta: 0.6,
        duration_s: 12,
        chaos: ChaosKnobs {
            fault_start_s: 4,
            fault_duration_s: 3,
            crash_frac: 0.25,
            skew_us: 250,
            clamp_budget: 100_000,
            ..ChaosKnobs::default()
        },
        ..ScenarioParams::default()
    };
    p.validate_for(ScenarioKind::Chaos).unwrap();
    let (mut sim, _) = chaos::build_sim(&p, 7);
    sim.run_until(SimTime::from_secs(p.chaos.fault_start_s));
    let before = sim.engine_counts();
    assert_eq!(
        before.heap_ticks, 0,
        "{before:?}: heap ticks before the skew"
    );
    sim.run_until(SimTime::from_secs(p.duration_s));
    let after = sim.engine_counts();
    assert!(
        after.heap_ticks > 1_000,
        "{after:?}: skewed ticks must take the heap"
    );
    assert!(after.swept_ticks > before.swept_ticks);
    assert_eq!(
        sim.events_processed(),
        after.swept_ticks + (after.pops - after.sweeps)
    );
}
