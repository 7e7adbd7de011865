//! Engine regression tests: a fixed-seed replication must produce
//! identical `MetricsHub` counters whether the MAC is dispatched
//! statically through the [`MacImpl`] enum or dynamically through its
//! `MacImpl::Custom(Box<dyn MacProtocol>)` escape hatch, and every run
//! below must reproduce the expected digests in
//! `tests/golden/digests.txt`.
//!
//! Those digests were generated by the per-tick engine, which
//! scheduled one event per subslot tick and fired a boundary's ticks
//! in arming order, on a boundary wheel or on the plain heap (the two
//! agreed on every digest). The per-boundary sweep fires them in
//! node-id order; the digests pin that the order is unobservable,
//! also under crash, jam and drift faults. (The campaign-artifact half
//! lives in `crates/bench/tests/engine_goldens.rs`.) The `fig_*` lines
//! pin the per-figure runners of `qma-scenarios` at small budgets.

use qma_des::SimDuration;
use qma_mac::{MacImpl, QmaMac, QmaMacConfig};
use qma_net::{CollectionApp, CollectionConfig, TrafficPattern};
use qma_netsim::{FrameClock, MacCounters, MacProtocol, NodeId, Sim, SimBuilder, UpperLayer};
use qma_scenarios::common::collection_upper;

/// Expected values, one `name = <Debug of the value>` line each.
const DIGESTS: &str = include_str!("golden/digests.txt");

/// Asserts that `actual`'s `Debug` rendering equals the `name` line of
/// `tests/golden/digests.txt`. `f64` renders as its shortest exact
/// round-trip form, so equal text means equal bits.
fn assert_golden(name: &str, actual: &impl std::fmt::Debug) {
    let actual = format!("{actual:?}");
    let expected = DIGESTS
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(" = "))
        .unwrap_or_else(|| panic!("tests/golden/digests.txt has no `{name}` line"));
    assert_eq!(
        actual, expected,
        "{name} differs from tests/golden/digests.txt"
    );
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
    let topo = qma_topo::hidden_node();
    let sink = NodeId(topo.sink as u32);
    let mut sim = SimBuilder::new(topo.connectivity.clone(), seed)
        .clock(FrameClock::dsme_so3())
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
fn hidden_node_digests_match_golden() {
    let mut runs = Vec::new();
    for seed in [2021u64, 7, 42] {
        let run = run_hidden_node(seed, |_, clock| {
            MacImpl::qma(QmaMacConfig::default(), *clock)
        });
        assert_golden(&format!("hidden_node_seed_{seed}"), &run);
        assert!(run.events > 10_000, "suspiciously few events");
        runs.push(run);
    }
    // Distinct seeds must give distinct runs, or matching the golden
    // would say little.
    assert_ne!(runs[0], runs[1]);
    assert_ne!(runs[1], runs[2]);
}

#[test]
fn boundary_exact_enqueue_matches_golden_and_arms_one_tick() {
    // The re-arm double-tick case: a node that parks its tick
    // and is re-enqueued at the *exact* boundary it parked on must end
    // up with exactly one live tick. The workload forces the case: an
    // `all_cap` clock with 1 ms subslots and arrivals on exact 1 ms
    // multiples, so every post-park enqueue lands precisely on a
    // boundary, after that boundary's sweep has run. The assertion is
    // behavioural (the golden counters plus a sane armed count) — a
    // duplicated live tick would double-fire the boundary and move
    // the event count.
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

    let (digest, armed) = {
        let mut sim = SimBuilder::new(qma_topo::hidden_star(2).connectivity.clone(), 17)
            .clock(FrameClock::all_cap(10, 1_000))
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
    assert_golden("boundary_exact_enqueue", &(&digest, armed));
    assert!(armed <= 3, "at most one live tick per node, got {armed}");
    assert!(digest.per_node[0].1 > 0, "no packets generated");
    assert!(
        digest.per_node[0].0.tx_attempts > 0,
        "source never transmitted"
    );
}

#[test]
fn chaos_fault_runs_match_golden() {
    use qma_scenarios::{run_scenario, ChaosKnobs, MassiveTopology, ScenarioKind, ScenarioParams};

    // Crash + jam + drift striking at t = 4 s. Fault events live on
    // the binary heap among the boundary sweeps: every per-counter
    // metric — including the resilience block — must match the
    // golden.
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
    let runs: Vec<_> = (0..2u64)
        .map(|rep| run_scenario(ScenarioKind::Chaos, &p, 700 + rep))
        .collect();
    assert_golden("chaos_faults", &runs);
    assert!(runs.iter().all(|m| m.events > 1_000));
    // Different seeds must still produce different runs — matching
    // the golden would be vacuous if the workload collapsed.
    assert_ne!(runs[0], runs[1]);
}

#[test]
fn massive_star_matches_golden_serial_and_parallel() {
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
    let serial: Vec<_> = (0..3u64)
        .map(|rep| run_scenario(ScenarioKind::Massive, &p, 1000 + rep))
        .collect();
    let parallel = qma_scenarios::common::replicate(3, |rep| {
        run_scenario(ScenarioKind::Massive, &p, 1000 + rep)
    });
    assert_eq!(serial, parallel, "serial vs rayon diverged");
    assert_golden("massive_star", &serial);
    assert!(serial.iter().all(|m| m.events > 1_000));
    assert_ne!(serial[0], serial[1]);
}

/// A `TimeSeries` as its length plus an FNV-1a hash over the bits of
/// every time and value, so a digest line stays short.
fn series_digest(series: &qma_stats::TimeSeries) -> (usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (t, v) in series.iter() {
        for byte in t
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(v.to_bits().to_le_bytes())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (series.len(), hash)
}

/// A subslot map as one character per subslot: `-` nothing recorded,
/// `B` backoff, `C` CCA, `T` transmit.
fn slot_map(map: &[Option<qma_netsim::SlotAction>]) -> String {
    use qma_netsim::SlotAction;
    map.iter()
        .map(|a| match a {
            None => '-',
            Some(SlotAction::Backoff) => 'B',
            Some(SlotAction::Cca) => 'C',
            Some(SlotAction::Tx) => 'T',
        })
        .collect()
}

// The per-figure runners at small budgets. Each keeps its own
// topology, seeds and builder settings, so these lines pin that
// rewiring how a runner builds its world changes none of its numbers.

#[test]
fn hidden_node_runner_matches_golden() {
    use qma_scenarios::{hidden_node, MacKind};
    let runs: Vec<_> = MacKind::ALL
        .into_iter()
        .map(|mac| hidden_node::run_once(mac, 25.0, 40, 2021))
        .collect();
    assert_golden("fig_hidden_node", &runs);
    assert!(runs.iter().all(|r| r.events > 1_000));
}

#[test]
fn learning_runners_match_golden() {
    use qma_scenarios::{convergence, fluctuating, slots};
    let c = convergence::run(100.0, 130, 7);
    assert_golden(
        "fig_convergence",
        &(
            series_digest(&c.q_sum),
            series_digest(&c.rho),
            c.settle_time,
        ),
    );
    assert!(c.q_sum.len() > 100, "no learner trace recorded");

    let f = fluctuating::run(210, 11);
    assert_golden(
        "fig_fluctuating",
        &(series_digest(&f.q_sum_a), series_digest(&f.q_sum_c), f.pdr),
    );
    assert!(!f.q_sum_c.is_empty(), "the late joiner recorded nothing");

    let u = slots::run(100.0, 180, 9);
    assert_golden(
        "fig_slots",
        &[&u.early_a, &u.early_c, &u.final_a, &u.final_c].map(|m| slot_map(m)),
    );
    assert!(slots::tx_slots(&u.final_a) > 0, "node A holds no subslot");
}

#[test]
fn ablation_variants_match_golden() {
    use qma_scenarios::ablation;
    let results: Vec<_> = ablation::variants()
        .iter()
        .map(|v| ablation::run_variant(v, 25.0, 40, 3))
        .collect();
    assert_golden("fig_ablations", &results);
    assert_eq!(results.len(), 6);
}

#[test]
fn testbed_and_dsme_runners_match_golden() {
    use qma_scenarios::testbed::{run_once, Testbed};
    use qma_scenarios::{dsme_scale, MacKind};
    for (name, testbed) in [
        ("fig_testbed_tree", Testbed::Tree),
        ("fig_testbed_star", Testbed::Star),
    ] {
        let runs: Vec<_> = [MacKind::Qma, MacKind::UnslottedCsma]
            .into_iter()
            .map(|mac| run_once(testbed, mac, 10.0, 30, 5))
            .collect();
        assert_golden(name, &runs);
        assert!(
            runs.iter().all(|(_, pdr, _)| *pdr > 0.0),
            "{name}: nothing delivered"
        );
    }
    let dsme: Vec<_> = MacKind::ALL
        .into_iter()
        .map(|mac| dsme_scale::run_once(1, mac, 60, 2))
        .collect();
    assert_golden("fig_dsme_one_ring", &dsme);
    assert!(dsme.iter().all(|r| r.secondary_pdr > 0.0));
}
