//! Machine-readable performance baseline for the perf trajectory.
//!
//! Measures the paper-relevant hot paths and writes a flat JSON
//! report (default `BENCH_pr7.json`, override with `QMA_BENCH_OUT`):
//!
//! * `q_update_f32_ns` / `q_update_fixed16_ns` — one Q-table update,
//!   the operation the paper bounds at "two multiplications, three
//!   additions and |A|+1 array lookups",
//! * `sched_schedule_pop_ns` — one schedule+pop pair on the DES
//!   scheduler at depth 16,
//! * `sched_cancel_ns` — one schedule+cancel pair at depth 16
//!   (O(log n) true removal on the indexed heap),
//! * `replications_per_sec` — end-to-end hidden-node replications
//!   per wall-clock second through the parallel runner,
//! * `replications_per_sec_serial` — the same with one worker,
//! * `events_per_sec` / `ns_per_event` — simulation events through
//!   the whole stack (DES pop → dispatch → MAC → medium) per
//!   wall-clock second in the serial run (boundary-wheel scheduler),
//! * `events_per_sec_heap` / `wheel_heap_ratio` — the same workload
//!   with the wheel disabled (every event through the binary heap);
//!   the ratio is the slot-kernel speedup, and the run asserts the
//!   two engines produce bit-identical aggregates,
//! * `nodes_per_sec_10k` — simulated node-seconds per wall-clock
//!   second on a 10 000-node massive hidden-star replication, plus
//!   `massive_events_per_sec` / `massive_pdr_10k` for the same run,
//! * `chaos_overhead_pct` — wall-clock cost of the same replication
//!   with an armed-but-empty fault plan (the fault subsystem's
//!   standing overhead; results are asserted bit-identical),
//! * `allocs_per_event` — heap allocations per simulation event
//!   (only with `--features alloc-count`, which installs a counting
//!   global allocator; the zero-allocation hot path keeps this at
//!   effectively zero once per-run setup is amortised).
//!
//! ```text
//! cargo run --release -p qma-bench --features alloc-count --bin bench
//! ```

use std::time::Duration;

use qma_bench::runner::{run_seeds, Parallelism};
use qma_bench::timing::{ns_per_call, time_once, JsonReport};
use qma_core::qtable::UpdateParams;
use qma_core::{Fixed16, QTable, QmaAction};
use qma_des::{Scheduler, SimTime};
use qma_scenarios::{hidden_node, MacKind};

/// A counting global allocator: wraps the system allocator and counts
/// `alloc`/`realloc` calls, so the macro-benchmark can report heap
/// allocations per simulation event. Feature-gated because a global
/// allocator is process-wide; the default build keeps the system
/// allocator untouched.
#[cfg(feature = "alloc-count")]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that counts allocation calls.
    pub struct CountingAlloc;

    /// Number of allocation calls (alloc + realloc) so far.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    // SAFETY: defers entirely to the system allocator; the counter is
    // a relaxed atomic increment with no further invariants.
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: forwarded verbatim to the system allocator.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: forwarded verbatim to the system allocator.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: forwarded verbatim to the system allocator.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

fn bench_q_update_f32(budget: Duration) -> f64 {
    let params = UpdateParams::default();
    let mut t: QTable<f32> = QTable::new(54, -10.0);
    let mut m = 0u16;
    ns_per_call(budget, || {
        t.update(
            std::hint::black_box(m),
            QmaAction::Send,
            4.0,
            m + 1,
            &params,
        );
        m = (m + 1) % 54;
    })
}

fn bench_q_update_fixed16(budget: Duration) -> f64 {
    let params = UpdateParams::default();
    let mut t: QTable<Fixed16> = QTable::new(54, -10.0);
    let mut m = 0u16;
    ns_per_call(budget, || {
        t.update(
            std::hint::black_box(m),
            QmaAction::Send,
            4.0,
            m + 1,
            &params,
        );
        m = (m + 1) % 54;
    })
}

/// One schedule+pop pair, measured over batches of 16 to exercise a
/// realistic heap depth.
fn bench_sched_schedule_pop(budget: Duration) -> f64 {
    let mut s: Scheduler<u32> = Scheduler::new();
    let mut t = 0u64;
    ns_per_call(budget, || {
        for k in 0..16u64 {
            s.schedule_at(
                SimTime::from_micros(t + k * 7),
                std::hint::black_box(k as u32),
            );
        }
        for _ in 0..16 {
            std::hint::black_box(s.pop());
        }
        t += 200;
    }) / 16.0
}

/// One schedule+cancel pair at depth 16: cancellation must be a true
/// O(log n) removal, not a deferred tombstone.
fn bench_sched_cancel(budget: Duration) -> f64 {
    let mut s: Scheduler<u32> = Scheduler::new();
    let mut t = 1u64;

    ns_per_call(budget, || {
        let keys: Vec<_> = (0..16u64)
            .map(|k| s.schedule_at(SimTime::from_micros(t + k * 7), k as u32))
            .collect();
        // Cancel from the middle out — the expensive positions.
        for k in keys {
            s.cancel(std::hint::black_box(k));
        }
        assert!(s.is_empty());
        t += 200;
    }) / 16.0
}

fn replication() -> impl Fn(u64, qma_des::SeedSequence) -> (f64, u64) + Sync {
    |_rep, seeds| {
        let run = hidden_node::run_once(MacKind::Qma, 25.0, 100, seeds.seed());
        (run.pdr, run.events)
    }
}

struct Throughput {
    replications_per_sec: f64,
    mean_pdr: f64,
    events_per_sec: f64,
    total_events: u64,
    allocs: u64,
}

fn bench_replication_throughput(reps: u64, mode: Parallelism) -> Throughput {
    #[cfg(feature = "alloc-count")]
    let allocs_before = alloc_count::allocations();
    let (runs, elapsed) = time_once(|| run_seeds(reps, qma_bench::seed(), mode, replication()));
    #[cfg(feature = "alloc-count")]
    let allocs = alloc_count::allocations() - allocs_before;
    #[cfg(not(feature = "alloc-count"))]
    let allocs = 0;
    let mean_pdr = runs.iter().map(|&(pdr, _)| pdr).sum::<f64>() / runs.len() as f64;
    let total_events: u64 = runs.iter().map(|&(_, ev)| ev).sum();
    Throughput {
        replications_per_sec: reps as f64 / elapsed.as_secs_f64(),
        mean_pdr,
        events_per_sec: total_events as f64 / elapsed.as_secs_f64(),
        total_events,
        allocs,
    }
}

/// Wall-clock metrics of one massive-scale replication.
struct MassiveBench {
    nodes: usize,
    nodes_per_sec: f64,
    events_per_sec: f64,
    pdr: f64,
}

/// One 10k-node massive hidden-star replication under wall-clock
/// timing: `nodes_per_sec` is simulated node-seconds per wall second,
/// the scale figure of merit (events/sec undercounts parked nodes).
/// With `armed`, the same replication carries an armed-but-empty
/// fault plan — the fault subsystem's standing cost, reported as
/// `chaos_overhead_pct`.
fn bench_massive_10k(fast: bool, armed: bool) -> MassiveBench {
    let p = qma_scenarios::ScenarioParams {
        nodes: 10_001,
        delta: 0.2,
        packets: 5,
        duration_s: if fast { 6 } else { 30 },
        topology: qma_scenarios::MassiveTopology::HiddenStar,
        ..qma_scenarios::ScenarioParams::default()
    };
    let run_one = if armed {
        qma_scenarios::massive::run_once_armed
    } else {
        qma_scenarios::massive::run_once
    };
    let (run, elapsed) = time_once(|| run_one(&p, qma_bench::seed()));
    let wall = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    MassiveBench {
        nodes: run.nodes,
        nodes_per_sec: run.nodes as f64 * run.sim_seconds / wall,
        events_per_sec: run.events as f64 / wall,
        pdr: run.pdr,
    }
}

fn main() {
    let env = qma_bench::BenchEnv::from_env();
    let out_path = env.out_or("BENCH_pr7.json");
    let budget = env.budget();
    let reps = env.reps_or(12);

    println!("# bench — hot-path baseline (budget {budget:?}, {reps} replications)");

    let q32 = bench_q_update_f32(budget);
    println!("q_update/f32            {q32:>10.2} ns/op");
    let q16 = bench_q_update_fixed16(budget);
    println!("q_update/fixed16        {q16:>10.2} ns/op");
    let sp = bench_sched_schedule_pop(budget);
    println!("sched/schedule+pop      {sp:>10.2} ns/op");
    let ca = bench_sched_cancel(budget);
    println!("sched/schedule+cancel   {ca:>10.2} ns/op");

    let par = bench_replication_throughput(reps, Parallelism::Rayon);
    println!(
        "replications/sec (par)  {:>10.2}  (mean PDR {:.3})",
        par.replications_per_sec, par.mean_pdr
    );
    let ser = bench_replication_throughput(reps, Parallelism::Serial);
    println!(
        "replications/sec (ser)  {:>10.2}  (mean PDR {:.3})",
        ser.replications_per_sec, ser.mean_pdr
    );
    assert_eq!(
        par.mean_pdr.to_bits(),
        ser.mean_pdr.to_bits(),
        "parallel and serial replication aggregates must be bit-identical"
    );
    let ns_per_event = 1e9 / (ser.events_per_sec.max(f64::MIN_POSITIVE));
    println!(
        "events/sec (ser)        {:>10.0}  ({ns_per_event:.1} ns/event, {} events)",
        ser.events_per_sec, ser.total_events
    );

    // The same serial workload with the boundary wheel disabled:
    // every event through the binary heap. Aggregates must be
    // bit-identical — the wheel changes *when work happens in the
    // scheduler*, never *what the simulation computes*.
    qma_netsim::set_default_scheduler_wheel(false);
    let heap = bench_replication_throughput(reps, Parallelism::Serial);
    qma_netsim::set_default_scheduler_wheel(true);
    assert_eq!(
        ser.mean_pdr.to_bits(),
        heap.mean_pdr.to_bits(),
        "wheel and heap scheduling must produce bit-identical PDR"
    );
    assert_eq!(
        ser.total_events, heap.total_events,
        "wheel and heap scheduling must process identical event counts"
    );
    let wheel_heap_ratio = ser.events_per_sec / heap.events_per_sec.max(f64::MIN_POSITIVE);
    println!(
        "events/sec (heap)       {:>10.0}  (wheel/heap ratio {wheel_heap_ratio:.2})",
        heap.events_per_sec
    );

    let massive = bench_massive_10k(env.fast, false);
    println!(
        "massive 10k nodes/sec   {:>10.0}  ({:.0} events/sec, {} nodes, PDR {:.3})",
        massive.nodes_per_sec, massive.events_per_sec, massive.nodes, massive.pdr
    );

    // The same replication with an armed-but-empty fault plan: the
    // fault-injection subsystem's standing cost when no fault ever
    // fires. Results are bit-identical by construction (asserted), so
    // the wall-clock delta is pure bookkeeping overhead — the design
    // target is < 1 %, though single-run wall-clock noise means the
    // reported figure can wobble around zero.
    let armed = bench_massive_10k(env.fast, true);
    assert_eq!(
        massive.pdr.to_bits(),
        armed.pdr.to_bits(),
        "an armed-but-empty fault plan must not change simulation results"
    );
    let chaos_overhead_pct =
        (massive.nodes_per_sec / armed.nodes_per_sec.max(f64::MIN_POSITIVE) - 1.0) * 100.0;
    println!(
        "chaos overhead (armed)  {:>10.2}  % ({:.0} nodes/sec armed)",
        chaos_overhead_pct, armed.nodes_per_sec
    );

    let allocs_per_event = ser.allocs as f64 / ser.total_events.max(1) as f64;
    if cfg!(feature = "alloc-count") {
        println!(
            "allocs/event (ser)      {allocs_per_event:>10.4}  ({} allocations)",
            ser.allocs
        );
    }

    let mut report = JsonReport::new();
    report
        .string("bench", "qma hot paths")
        .string("pr", "7")
        .integer("threads", rayon::current_num_threads() as u64)
        .integer("replications", reps)
        .number("q_update_f32_ns", q32)
        .number("q_update_fixed16_ns", q16)
        .number("sched_schedule_pop_ns", sp)
        .number("sched_cancel_ns", ca)
        .number("replications_per_sec", par.replications_per_sec)
        .number("replications_per_sec_serial", ser.replications_per_sec)
        .number("replication_mean_pdr", par.mean_pdr)
        .number("events_per_sec", ser.events_per_sec)
        .number("ns_per_event", ns_per_event)
        .number("events_per_sec_heap", heap.events_per_sec)
        .number("wheel_heap_ratio", wheel_heap_ratio)
        .integer("massive_nodes", massive.nodes as u64)
        .number("nodes_per_sec_10k", massive.nodes_per_sec)
        .number("massive_events_per_sec", massive.events_per_sec)
        .number("massive_pdr_10k", massive.pdr)
        .number("chaos_overhead_pct", chaos_overhead_pct)
        .integer("events_per_replication", ser.total_events / reps.max(1));
    if cfg!(feature = "alloc-count") {
        report.number("allocs_per_event", allocs_per_event);
    }
    std::fs::write(&out_path, report.render()).expect("write benchmark report");
    println!("# wrote {out_path}");
}
