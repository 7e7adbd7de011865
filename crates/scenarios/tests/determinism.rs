//! Engine-equivalence regression tests: a fixed-seed replication must
//! produce identical `MetricsHub` counters whether
//!
//! * the MAC is dispatched statically through the [`MacImpl`] enum or
//!   dynamically through its `MacImpl::Custom(Box<dyn MacProtocol>)`
//!   escape hatch (the PR 2 devirtualization), and
//! * subslot ticks are scheduled through the O(1) boundary wheel or
//!   the plain binary heap (the PR 4 slot kernel) — the wheel changes
//!   *where events wait*, never *what the simulation computes*, and
//! * fault plans (crash/jam/drift chaos runs) are active — fault
//!   events are heap events, so they compose with both scheduler
//!   engines bit-identically.
//!
//! (The byte-identical-campaign-CSV half of the wheel/heap guarantee
//! lives in `crates/bench/tests/scheduler_equivalence.rs`, next to
//! the campaign engine it exercises.)

use qma_des::SimDuration;
use qma_mac::{MacImpl, QmaMac, QmaMacConfig};
use qma_net::{CollectionApp, CollectionConfig, TrafficPattern};
use qma_netsim::{FrameClock, MacCounters, MacProtocol, NodeId, Sim, SimBuilder, UpperLayer};
use qma_scenarios::common::collection_upper;

/// Serialises the tests that flip the process-wide scheduler default
/// (`set_default_scheduler_wheel`). The test harness runs this
/// binary's tests on parallel threads; without the lock, one test's
/// default could leak into another's sim builds — at best noise, at
/// worst making an equivalence test vacuous (a wheel-vs-heap test
/// silently comparing heap against heap).
static EXEC_DEFAULTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_exec_defaults() -> std::sync::MutexGuard<'static, ()> {
    EXEC_DEFAULTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Everything a replication observes, flattened for comparison.
#[derive(Debug, PartialEq)]
struct Digest {
    per_node: Vec<(MacCounters, u64, u64)>, // (mac counters, generated, delivered)
    pdr_bits: Option<u64>,
    delay_bits: Option<u64>,
    collisions: u64,
    clean_receptions: u64,
    events: u64,
}

fn digest<M: MacProtocol, U: UpperLayer>(sim: &Sim<M, U>) -> Digest {
    let m = sim.metrics();
    let n = m.nodes();
    let nodes: Vec<NodeId> = (0..n).map(|i| NodeId(i as u32)).collect();
    Digest {
        per_node: nodes
            .iter()
            .map(|&node| (*m.mac(node), m.generated(node), m.delivered(node)))
            .collect(),
        pdr_bits: m.pdr_of(nodes.iter().copied()).map(f64::to_bits),
        delay_bits: m.mean_delay_of(nodes.iter().copied()).map(f64::to_bits),
        collisions: sim.world().medium().collisions(),
        clean_receptions: sim.world().medium().clean_receptions(),
        events: sim.events_processed(),
    }
}

/// Runs the §6.1 hidden-node workload (δ = 25 pkt/s, 60 packets per
/// source) with a caller-supplied MAC factory and digests the result.
fn run_hidden_node<F>(seed: u64, mac_factory: F) -> Digest
where
    F: Fn(NodeId, &FrameClock) -> MacImpl + 'static,
{
    run_hidden_node_sched(seed, mac_factory, true)
}

/// [`run_hidden_node`] with an explicit scheduler engine: `wheel`
/// routes subslot ticks through the boundary calendar, `!wheel`
/// through the binary heap.
fn run_hidden_node_sched<F>(seed: u64, mac_factory: F, wheel: bool) -> Digest
where
    F: Fn(NodeId, &FrameClock) -> MacImpl + 'static,
{
    let topo = qma_topo::hidden_node();
    let sink = NodeId(topo.sink as u32);
    let mut sim = SimBuilder::new(topo.connectivity.clone(), seed)
        .clock(FrameClock::dsme_so3())
        .scheduler_wheel(wheel)
        .mac_factory(mac_factory)
        .upper_factory(move |node, _| {
            let pattern = if node == sink {
                TrafficPattern::Silent
            } else {
                TrafficPattern::Poisson {
                    rate: 25.0,
                    start: qma_des::SimTime::from_secs(100),
                    limit: Some(60),
                }
            };
            let app = CollectionApp::new(CollectionConfig {
                pattern,
                next_hop: (node != sink).then_some(sink),
                sink,
                payload_octets: 60,
            });
            collection_upper(app, node == sink, SimDuration::from_secs(5))
        })
        .build();
    sim.run_until(qma_des::SimTime::from_secs(120));
    digest(&sim)
}

#[test]
fn enum_and_boxed_dispatch_produce_identical_metrics() {
    for seed in [2021u64, 7, 42] {
        let enum_run = run_hidden_node(seed, |_, clock| {
            MacImpl::qma(QmaMacConfig::default(), *clock)
        });
        let boxed_run = run_hidden_node(seed, |_, clock| {
            MacImpl::custom(QmaMac::new(QmaMacConfig::default(), *clock))
        });
        assert_eq!(
            enum_run, boxed_run,
            "static and dynamic dispatch diverged for seed {seed}"
        );
        // The run must have actually exercised the stack.
        assert!(enum_run.events > 10_000, "suspiciously few events");
        assert!(
            enum_run.per_node[0].0.tx_attempts > 0,
            "node A never transmitted"
        );
    }
}

#[test]
fn fixed_seed_replications_are_reproducible() {
    // Same seed, same factory → bit-identical digests (guards the
    // scratch-buffer/CSR refactor against hidden iteration-order or
    // reuse bugs).
    let a = run_hidden_node(11, |_, clock| MacImpl::qma(QmaMacConfig::default(), *clock));
    let b = run_hidden_node(11, |_, clock| MacImpl::qma(QmaMacConfig::default(), *clock));
    assert_eq!(a, b);
}

#[test]
fn wheel_and_heap_scheduling_produce_identical_metrics() {
    for seed in [2021u64, 7, 42] {
        let wheel = run_hidden_node_sched(
            seed,
            |_, clock| MacImpl::qma(QmaMacConfig::default(), *clock),
            true,
        );
        let heap = run_hidden_node_sched(
            seed,
            |_, clock| MacImpl::qma(QmaMacConfig::default(), *clock),
            false,
        );
        assert_eq!(
            wheel, heap,
            "wheel and heap scheduling diverged for seed {seed}"
        );
        assert!(wheel.events > 10_000, "suspiciously few events");
    }
}

#[test]
fn boundary_exact_enqueue_never_double_arms_the_tick() {
    // PR 5 satellite (re-arm double-tick): wheel ticks are
    // uncancellable, so a node that parks its tick and is re-enqueued
    // at the *exact* boundary it parked on must end up with exactly
    // one live tick. The workload forces the case: an `all_cap` clock
    // with 1 ms subslots and arrivals on exact 1 ms multiples, so
    // every post-park enqueue lands precisely on a boundary. The
    // assertion is behavioural (wheel ≡ heap counters plus a sane
    // armed count) — a duplicated live tick would double-fire the
    // boundary and desynchronise the two engines' event counts.
    use qma_des::SimTime;
    use qma_netsim::{Address, Frame, TxResult, UpperCtx};

    struct BoundaryExactSource {
        dst: NodeId,
        remaining: u32,
    }

    impl qma_netsim::UpperLayer for BoundaryExactSource {
        fn start(&mut self, ctx: &mut UpperCtx<'_>) {
            if ctx.node != self.dst {
                // First arrival at t = 20 ms, an exact boundary.
                ctx.schedule(SimDuration::from_millis(20), 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut UpperCtx<'_>, _tag: u64) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            let node = ctx.node;
            let f = Frame::data(node, Address::Node(self.dst), self.remaining, 30, true);
            ctx.metrics().app_generated(node);
            ctx.enqueue_mac(f);
            // Long gap (30 subslots) so the queue drains and the MAC
            // parks before the next boundary-exact arrival.
            ctx.schedule(SimDuration::from_millis(30), 0);
        }
        fn on_deliver(&mut self, ctx: &mut UpperCtx<'_>, _f: &Frame) {
            ctx.metrics().count("delivered_up", 1.0);
        }
        fn on_tx_result(&mut self, _: &mut UpperCtx<'_>, _: &Frame, _: TxResult) {}
    }

    let run = |wheel: bool| {
        let mut sim = SimBuilder::new(qma_topo::hidden_star(2).connectivity.clone(), 17)
            .clock(FrameClock::all_cap(10, 1_000))
            .scheduler_wheel(wheel)
            .mac_factory(|_, clock| MacImpl::qma(QmaMacConfig::default(), *clock))
            .upper_factory(|_, _| {
                qma_scenarios::common::UpperImpl::custom(BoundaryExactSource {
                    dst: NodeId(2),
                    remaining: 40,
                })
            })
            .build();
        sim.run_until(SimTime::from_secs(3));
        let armed = sim.world().armed_ticks();
        (digest(&sim), armed)
    };
    let (wheel_digest, wheel_armed) = run(true);
    let (heap_digest, heap_armed) = run(false);
    assert_eq!(wheel_digest, heap_digest, "wheel vs heap diverged");
    assert_eq!(wheel_armed, heap_armed);
    assert!(
        wheel_armed <= 3,
        "at most one live tick per node, got {wheel_armed}"
    );
    assert!(wheel_digest.per_node[0].1 > 0, "no packets generated");
    assert!(
        wheel_digest.per_node[0].0.tx_attempts > 0,
        "source never transmitted"
    );
}

#[test]
fn chaos_faults_are_scheduler_invariant() {
    use qma_scenarios::{run_scenario, ChaosKnobs, MassiveTopology, ScenarioKind, ScenarioParams};

    let _guard = lock_exec_defaults();
    // Crash + jam + drift striking at t = 4 s. Fault events live on
    // the binary heap whichever engine schedules the subslot ticks:
    // every per-counter metric — including the resilience block —
    // must be bit-identical under the wheel and under the heap.
    let p = ScenarioParams {
        topology: MassiveTopology::HiddenStar,
        nodes: 121,
        delta: 0.8,
        packets: 4,
        duration_s: 14,
        chaos: ChaosKnobs {
            fault_start_s: 4,
            fault_duration_s: 3,
            crash_frac: 0.25,
            jam_frac: 0.15,
            drift_frac: 0.25,
            ..ChaosKnobs::default()
        },
        ..ScenarioParams::default()
    };
    p.validate_for(ScenarioKind::Chaos).unwrap();
    let run_with = |wheel: bool| {
        qma_netsim::set_default_scheduler_wheel(wheel);
        let out: Vec<_> = (0..2u64)
            .map(|rep| run_scenario(ScenarioKind::Chaos, &p, 700 + rep))
            .collect();
        qma_netsim::set_default_scheduler_wheel(true);
        out
    };
    let wheel = run_with(true);
    assert_eq!(wheel, run_with(false), "chaos run diverged wheel vs heap");
    assert!(wheel.iter().all(|m| m.events > 1_000));
    // Different seeds must still produce different runs — identical
    // outputs across engines would be vacuous if the workload
    // collapsed.
    assert_ne!(wheel[0], wheel[1]);
}

#[test]
fn massive_star_is_scheduler_invariant_serial_and_parallel() {
    use qma_scenarios::{run_scenario, MassiveTopology, ScenarioKind, ScenarioParams};

    let p = ScenarioParams {
        topology: MassiveTopology::HiddenStar,
        nodes: 201,
        delta: 0.5,
        packets: 3,
        duration_s: 12,
        ..ScenarioParams::default()
    };
    p.validate_for(ScenarioKind::Massive).unwrap();
    // The scheduler engine is selected per simulation at build time;
    // flip the process default around each batch, holding the
    // defaults lock so no other test builds sims meanwhile.
    let _guard = lock_exec_defaults();
    let run_batch = |wheel: bool| {
        qma_netsim::set_default_scheduler_wheel(wheel);
        let serial: Vec<_> = (0..3u64)
            .map(|rep| run_scenario(ScenarioKind::Massive, &p, 1000 + rep))
            .collect();
        let parallel = qma_scenarios::common::replicate(3, |rep| {
            run_scenario(ScenarioKind::Massive, &p, 1000 + rep)
        });
        qma_netsim::set_default_scheduler_wheel(true);
        (serial, parallel)
    };
    let (wheel_serial, wheel_parallel) = run_batch(true);
    let (heap_serial, heap_parallel) = run_batch(false);
    assert_eq!(wheel_serial, wheel_parallel, "serial vs rayon diverged");
    assert_eq!(wheel_serial, heap_serial, "wheel vs heap diverged");
    assert_eq!(heap_serial, heap_parallel, "heap serial vs rayon diverged");
    assert!(wheel_serial.iter().all(|m| m.events > 1_000));
}
