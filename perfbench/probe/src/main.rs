//! `perfbench-probe`: the in-process half of the QMA benchmark.
//!
//! ```text
//! perfbench-probe setup SPEC.toml COUNT     # set-up time samples
//! perfbench-probe trace SPEC.toml           # layer-attributed run
//! ```
//!
//! `setup` repeats `COUNT` times what a campaign does before its first
//! `Sim::run_until`: parse the spec, expand the grid, build the first
//! replication's topology and `Sim`. It prints one JSON object with
//! every sample. The count is fixed rather than a time budget because
//! the allocator's behaviour drifts with the number of builds a process
//! has done, so a time budget would make the figure depend on speed.
//!
//! `trace` runs every replication of the spec three times: through
//! `run_scenario` (what the `campaign` binary runs), rebuilt from
//! public parts, and rebuilt with every MAC and upper layer wrapped in
//! a recording delegate. It checks that the three agree bit for bit,
//! then replays single operations of each layer at the workload's
//! shape, and prints the raw counts and times as one JSON object.
//! `perfbench/run.py` reduces both outputs to the reported metrics.

mod replay;
mod replica;
mod timing;
mod traced;

use qma_bench::campaign::grid::ConfigPoint;
use qma_bench::campaign::spec::CampaignSpec;
use qma_scenarios::{run_scenario, ScenarioKind, ScenarioParams};

use crate::replica::{Counters, Finished, Layers, Plain};
use crate::timing::timed;
use crate::traced::{Span, Traced};

/// A parsed and validated campaign spec.
struct Grid {
    spec: CampaignSpec,
    points: Vec<(ConfigPoint, ScenarioParams)>,
}

impl Grid {
    /// Parses, expands and validates a spec as the campaign does.
    fn load(text: &str) -> Result<Grid, String> {
        let spec = CampaignSpec::parse(text)?;
        replica::supported(spec.scenario)?;
        let points = spec
            .expand()?
            .into_iter()
            .map(|point| {
                let p = point
                    .scenario_params()
                    .and_then(|p| p.validate_for(spec.scenario).map(|()| p))
                    .map_err(|e| format!("config {}: {e}", point.key()))?;
                Ok((point, p))
            })
            .collect::<Result<_, String>>()?;
        Ok(Grid { spec, points })
    }

    fn kind(&self) -> ScenarioKind {
        self.spec.scenario
    }

    /// Every `(config, params, rep, seed)` the campaign would run, in
    /// its order, with its content-addressed seeds.
    fn replications(&self) -> impl Iterator<Item = (&ConfigPoint, &ScenarioParams, u64, u64)> {
        self.points.iter().flat_map(move |(point, p)| {
            let stream = point.seed_stream(self.spec.master_seed);
            (0..self.spec.replications).map(move |rep| (point, p, rep, stream.derive(rep).seed()))
        })
    }
}

fn json_array(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", cells.join(", "))
}

fn json_span(s: &Span) -> String {
    format!("[{}, {}]", s.calls, s.ns)
}

fn setup(text: &str, count: usize) -> Result<String, String> {
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let (sim, secs) = timed(|| -> Result<_, String> {
            let grid = Grid::load(text)?;
            let (_, p, _, seed) = grid.replications().next().ok_or("empty grid")?;
            let topo = replica::topology(grid.kind(), p);
            Ok(replica::builder::<Plain>(grid.kind(), p, &topo, seed).build())
        });
        std::hint::black_box(&sim?);
        samples.push(secs);
    }
    Ok(format!("{{\"setup_s\": {}}}", json_array(&samples)))
}

/// Builds and runs one replication with layers `L`, recording the
/// topology and `SimBuilder::build` times.
fn rebuild<L: Layers>(
    kind: ScenarioKind,
    p: &ScenarioParams,
    seed: u64,
    topo_s: &mut Vec<f64>,
    build_s: &mut Vec<f64>,
) -> Finished {
    let (topo, t) = timed(|| replica::topology(kind, p));
    topo_s.push(t);
    let (mut sim, b) = timed(|| replica::builder::<L>(kind, p, &topo, seed).build());
    build_s.push(b);
    replica::run(kind, p, &topo, &mut sim)
}

/// Bit-exact comparison of two records (`Debug` renders every `f64`
/// as its shortest round-trip form, so equal text means equal bits).
fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn trace(text: &str) -> Result<String, String> {
    let grid = Grid::load(text)?;
    let kind = grid.kind();
    let mut rep_s = Vec::new();
    let mut topo_s = Vec::new();
    let mut build_s = Vec::new();
    let (mut run_plain_s, mut run_traced_s, mut collect_s) = (0.0, 0.0, 0.0);
    let mut events = 0u64;
    let mut counters = Counters::default();
    let mut mismatches: Vec<String> = Vec::new();
    traced::take_stats();
    for (point, p, rep, seed) in grid.replications() {
        let (reference, secs) = timed(|| run_scenario(kind, p, seed));
        rep_s.push(secs);
        let plain = rebuild::<Plain>(kind, p, seed, &mut topo_s, &mut build_s);
        let wrapped = rebuild::<Traced>(kind, p, seed, &mut topo_s, &mut build_s);
        if !same(&reference, &plain.metrics) {
            mismatches.push(format!(
                "{} rep {rep}: public-parts rebuild {:?} != run_scenario {:?}",
                point.key(),
                plain.metrics,
                reference
            ));
        }
        if !same(&plain.metrics, &wrapped.metrics) || plain.counters != wrapped.counters {
            mismatches.push(format!(
                "{} rep {rep}: traced run {:?} {:?} != untraced {:?} {:?}",
                point.key(),
                wrapped.metrics,
                wrapped.counters,
                plain.metrics,
                plain.counters
            ));
        }
        run_plain_s += plain.run_s;
        run_traced_s += wrapped.run_s;
        collect_s += plain.collect_s;
        events += plain.metrics.events;
        counters.add(&plain.counters);
    }
    let stats = traced::take_stats();

    // Replays at the workload's shape: its population, its medium.
    let (_, p0) = grid.points.first().ok_or("empty grid")?;
    let topo = replica::topology(kind, p0);
    let tx = replay::widest_transmitter(&topo.connectivity);
    let fanout = topo.connectivity.degree(tx);
    let population = topo.len();
    let replays = [
        ("q_update_f32_ns", replay::q_update_f32()),
        ("q_update_fixed16_ns", replay::q_update_fixed16()),
        ("decide_complete_ns", replay::decide_complete()),
        ("wheel_push_pop_ns", replay::push_pop(population, true)),
        ("heap_push_pop_ns", replay::push_pop(population, false)),
        (
            "tx_roundtrip_ns",
            replay::tx_roundtrip(&topo.connectivity, tx),
        ),
        ("clock_pair_ns", replay::clock_pair()),
    ];
    let replay_json: Vec<String> = replays
        .iter()
        .map(|(name, samples)| format!("\"{name}\": {}", json_array(samples)))
        .collect();
    let mismatch_json: Vec<String> = mismatches
        .iter()
        .map(|m| format!("\"{}\"", m.replace('\\', "\\\\").replace('"', "'")))
        .collect();

    Ok(format!(
        "{{\"replications\": {reps}, \"events\": {events}, \"past_clamps\": {clamps}, \
         \"collisions\": {coll}, \"clean_receptions\": {clean}, \"tx_attempts\": {tx_att}, \
         \"tx_delivered\": {tx_del}, \"drops_retry\": {drops}, \
         \"mac\": {{\"start\": {m_start}, \"timer\": {m_timer}, \"frame\": {m_frame}, \
         \"tx_end\": {m_tx_end}, \"cca\": {m_cca}, \"enqueue\": {m_enq}}}, \
         \"subslot_ticks\": {ticks}, \"qma_ticks\": {qma_ticks}, \"upper\": {upper}, \
         \"rep_s\": {rep_s}, \"topo_build_s\": {topo_s}, \"sim_build_s\": {build_s}, \
         \"run_plain_s\": {run_plain_s}, \"run_traced_s\": {run_traced_s}, \
         \"collect_s\": {collect_s}, \"population\": {population}, \"fanout\": {fanout}, \
         \"replay\": {{{replay}}}, \"mismatches\": [{mismatch}]}}",
        reps = rep_s.len(),
        clamps = counters.past_clamps,
        coll = counters.collisions,
        clean = counters.clean_receptions,
        tx_att = counters.mac.tx_attempts,
        tx_del = counters.mac.tx_delivered,
        drops = counters.mac.drops_retry,
        m_start = json_span(&stats.mac_start),
        m_timer = json_span(&stats.mac_timer),
        m_frame = json_span(&stats.mac_frame),
        m_tx_end = json_span(&stats.mac_tx_end),
        m_cca = json_span(&stats.mac_cca),
        m_enq = json_span(&stats.mac_enqueue),
        ticks = stats.subslot_ticks,
        qma_ticks = stats.qma_ticks,
        upper = json_span(&stats.upper),
        rep_s = json_array(&rep_s),
        topo_s = json_array(&topo_s),
        build_s = json_array(&build_s),
        replay = replay_json.join(", "),
        mismatch = mismatch_json.join(", "),
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, spec, rest @ ..] => match std::fs::read_to_string(spec) {
            Err(e) => Err(format!("read {spec}: {e}")),
            Ok(text) => match (cmd.as_str(), rest) {
                ("setup", [count]) => count
                    .parse::<usize>()
                    .map_err(|e| format!("bad COUNT {count:?}: {e}"))
                    .and_then(|count| setup(&text, count)),
                ("trace", []) => trace(&text),
                _ => Err(format!("unknown command {args:?}")),
            },
        },
        _ => Err("usage: perfbench-probe setup SPEC COUNT | trace SPEC".into()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qma_scenarios::{MacKind, MassiveTopology};

    fn run_both(kind: ScenarioKind, p: &ScenarioParams, seed: u64) -> (String, String) {
        let topo = replica::topology(kind, p);
        let mut plain = replica::builder::<Plain>(kind, p, &topo, seed).build();
        let mut wrapped = replica::builder::<Traced>(kind, p, &topo, seed).build();
        let a = replica::run(kind, p, &topo, &mut plain);
        let b = replica::run(kind, p, &topo, &mut wrapped);
        assert!(same(&a.metrics, &b.metrics), "{a:?} vs {b:?}");
        assert_eq!(a.counters, b.counters);
        assert!(same(&a.metrics, &run_scenario(kind, p, seed)));
        (
            format!("{:?}", plain.metrics()),
            format!("{:?}", wrapped.metrics()),
        )
    }

    #[test]
    fn wrapped_hidden_node_run_matches_unwrapped_metrics_hub() {
        for mac in MacKind::ALL {
            let p = ScenarioParams {
                mac,
                packets: 40,
                delta: 10.0,
                ..ScenarioParams::default()
            };
            let (plain, wrapped) = run_both(ScenarioKind::HiddenNode, &p, 11);
            assert_eq!(plain, wrapped, "{mac}");
        }
    }

    #[test]
    fn wrapped_massive_runs_match_unwrapped_metrics_hub() {
        for topology in [MassiveTopology::Grid, MassiveTopology::HiddenStar] {
            let p = ScenarioParams {
                topology,
                nodes: 25,
                delta: 2.0,
                packets: 5,
                duration_s: 5,
                ..ScenarioParams::default()
            };
            let (plain, wrapped) = run_both(ScenarioKind::Massive, &p, 5);
            assert_eq!(plain, wrapped, "{topology}");
        }
    }

    #[test]
    fn wrappers_record_every_layer() {
        traced::take_stats();
        let p = ScenarioParams {
            packets: 20,
            ..ScenarioParams::default()
        };
        run_both(ScenarioKind::HiddenNode, &p, 3);
        let s = traced::take_stats();
        assert!(s.mac_timer.calls > 0 && s.mac_frame.calls > 0 && s.upper.calls > 0);
        assert!(s.qma_ticks > 0 && s.qma_ticks == s.subslot_ticks);
        assert_eq!(traced::take_stats(), traced::CallStats::default());
    }

    #[test]
    fn grid_seeds_follow_the_campaign() {
        let spec = "[campaign]\nname = \"t\"\nscenario = \"hidden_node\"\nseed = 9\n\
                    replications = 2\n[grid]\nmac = [\"qma\", \"slotted_csma\"]\n";
        let grid = Grid::load(spec).unwrap();
        let reps: Vec<_> = grid.replications().collect();
        assert_eq!(reps.len(), 4);
        let (point, _, rep, seed) = reps[1];
        assert_eq!(rep, 1);
        assert_eq!(seed, point.seed_stream(9).derive(1).seed());
        assert!(Grid::load(&spec.replace("hidden_node", "chaos")).is_err());
    }
}
