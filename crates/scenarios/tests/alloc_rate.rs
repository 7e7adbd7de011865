//! Heap allocations per simulation event. After a world is built, the
//! event hot path (DES pop → dispatch → MAC → medium) must not touch
//! the allocator: each case runs one grid point twice at the same
//! seed, once short and once long, and the allocations the longer run
//! adds per extra event must stay (near) zero. Building a world
//! allocates per world, not per node, and requests the same bytes per
//! node at any population.
//!
//! A counting global allocator counts `alloc` and `realloc` calls,
//! and sums the bytes they request, on the calling thread only. The
//! counters are `const`-initialised thread-locals without a
//! destructor, so reading them never allocates, and libtest's other
//! threads cannot change a test's counts.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qma_scenarios::{
    massive, run_scenario, MacKind, MassiveTopology, ScenarioKind, ScenarioParams,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation call that requests `bytes`.
fn count_one(bytes: usize) {
    // `try_with`: never panic inside the allocator, even while the
    // thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// The system allocator, counting allocation calls and requested
/// bytes per thread.
struct CountingAlloc;

// SAFETY: every method forwards its arguments verbatim to the system
// allocator; the only addition is two thread-local counter increments,
// which neither allocate nor touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `alloc` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`;
        // the caller's `realloc` contract is passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SEED: u64 = 2021;

/// Runs one grid point; returns (allocations on this thread, events).
fn measure(kind: ScenarioKind, p: &ScenarioParams) -> (u64, u64) {
    let before = ALLOCS.with(Cell::get);
    let metrics = run_scenario(kind, p, SEED);
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, metrics.events)
}

#[test]
fn hidden_node_allocations_do_not_grow_with_traffic() {
    // The 3-node hidden-node cell at δ = 25 pkt/s, 100 vs 1000 packets
    // per source: ten times the traffic must not add one allocation,
    // under QMA and both CSMA variants.
    for mac in MacKind::ALL {
        let short = ScenarioParams {
            mac,
            delta: 25.0,
            packets: 100,
            ..ScenarioParams::default()
        };
        let long = ScenarioParams {
            packets: 1000,
            ..short.clone()
        };
        let (short_allocs, short_events) = measure(ScenarioKind::HiddenNode, &short);
        let (long_allocs, long_events) = measure(ScenarioKind::HiddenNode, &long);
        assert!(
            long_events > short_events + 10_000,
            "{mac:?}: the long run must add events ({short_events} vs {long_events})"
        );
        assert_eq!(
            short_allocs, long_allocs,
            "{mac:?}: allocations grew with the run ({short_events} → {long_events} events)"
        );
    }
}

#[test]
fn massive_grid_allocates_at_most_1e4_per_extra_event() {
    // A 400-node QMA lattice at δ = 2 pkt/s: 5 packets over 5 s vs 20
    // packets over 20 s, about 0.4M vs 1.2M events. The longer run
    // still adds a few allocations (30 at this seed), so this case
    // bounds the marginal rate instead of asserting equality.
    let short = ScenarioParams {
        mac: MacKind::Qma,
        nodes: 400,
        delta: 2.0,
        packets: 5,
        duration_s: 5,
        topology: MassiveTopology::Grid,
        ..ScenarioParams::default()
    };
    let long = ScenarioParams {
        packets: 20,
        duration_s: 20,
        ..short.clone()
    };
    let (short_allocs, short_events) = measure(ScenarioKind::Massive, &short);
    let (long_allocs, long_events) = measure(ScenarioKind::Massive, &long);
    assert!(
        long_events > 2 * short_events,
        "the long run must add events ({short_events} vs {long_events})"
    );
    let rate =
        long_allocs.saturating_sub(short_allocs) as f64 / (long_events - short_events) as f64;
    assert!(
        rate <= 1e-4,
        "{rate:.2e} allocations per extra event ({short_allocs} allocations for \
         {short_events} events, {long_allocs} for {long_events})"
    );
}

/// A QMA lattice of `nodes` nodes at δ = 2 pkt/s, 5 packets, 5 s.
fn qma_grid(nodes: usize) -> ScenarioParams {
    ScenarioParams {
        mac: MacKind::Qma,
        nodes,
        delta: 2.0,
        packets: 5,
        duration_s: 5,
        topology: MassiveTopology::Grid,
        ..ScenarioParams::default()
    }
}

#[test]
fn building_a_grid_allocates_the_same_at_any_size() {
    // `SimBuilder::build` over QMA lattices of 100, 1,024 and 4,096
    // nodes: every per-node table is one array and the transmit
    // queues' frame pool starts empty, so the count does not grow
    // with the population.
    let counts: Vec<u64> = [100, 1024, 4096]
        .into_iter()
        .map(|nodes| {
            let p = qma_grid(nodes);
            let topo = massive::build_topology(&p);
            let (builder, _) = massive::sim_builder(&p, &topo, SEED, Some(p.packets));
            let before = ALLOCS.with(Cell::get);
            let sim = builder.build();
            let allocs = ALLOCS.with(Cell::get) - before;
            drop(sim);
            allocs
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "build allocations grew with the population: {counts:?} at 100, 1,024 and 4,096 nodes"
    );
}

#[test]
fn building_a_grid_requests_the_same_bytes_per_node_at_any_size() {
    // The topology plus the built world, over QMA lattices of 1,024,
    // 2,025 and 4,096 nodes (32², 45² and 64²): the audibility graph
    // and every per-node table take O(n + E) bytes, so the bytes
    // requested per node stay within 5 % of the 4,096-node figure.
    let per_node: Vec<f64> = [1024, 2025, 4096]
        .into_iter()
        .map(|nodes| {
            let p = qma_grid(nodes);
            let before = BYTES.with(Cell::get);
            let topo = massive::build_topology(&p);
            let (builder, _) = massive::sim_builder(&p, &topo, SEED, Some(p.packets));
            let sim = builder.build();
            let bytes = BYTES.with(Cell::get) - before;
            assert_eq!(topo.len(), nodes, "{nodes} nodes is a square lattice");
            drop(sim);
            bytes as f64 / nodes as f64
        })
        .collect();
    let reference = per_node[2];
    assert!(
        per_node.iter().all(|b| (b / reference - 1.0).abs() <= 0.05),
        "bytes per node at 1,024, 2,025 and 4,096 nodes: {per_node:.0?}"
    );
}
