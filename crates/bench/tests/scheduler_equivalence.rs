//! Wheel-vs-heap campaign equivalence: the boundary-wheel scheduler
//! must be unobservable in campaign artifacts. The same spec run with
//! the wheel and with every event through the binary heap (switched
//! by the process default, `qma_netsim::set_default_scheduler_wheel`)
//! must produce **byte-identical** CSV and JSON artifacts, serially
//! and in parallel.

use std::path::PathBuf;

use qma_bench::campaign::fabric::{run_fabric, FabricConfig};
use qma_bench::campaign::spec::CampaignSpec;
use qma_bench::runner::Parallelism;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qma-wheel-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn artifacts(spec: &CampaignSpec, tag: &str, mode: Parallelism, wheel: bool) -> (Vec<u8>, Vec<u8>) {
    qma_netsim::set_default_scheduler_wheel(wheel);
    let dir = tmp_dir(tag);
    let cfg = FabricConfig {
        mode,
        ..FabricConfig::default()
    };
    let out = run_fabric(spec, &dir, &cfg, &|_| {}).expect("campaign runs");
    qma_netsim::set_default_scheduler_wheel(true);
    let csv = std::fs::read(&out.csv_path).unwrap();
    let json = std::fs::read(&out.json_path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (csv, json)
}

/// One test (not several) because it toggles the process-wide
/// scheduler default; splitting it would let the cases race on that
/// global within this test binary.
#[test]
fn campaign_artifacts_are_scheduler_invariant() {
    // A hidden-node point (heap-heavy ACK timers + wheel ticks), a
    // massive point (wheel-dominant, sparse connectivity) and a chaos
    // point (crash + jam + drift striking mid-run: heap fault events
    // among wheel ticks, resilience columns in the artifact) — all
    // tiny enough for CI.
    for spec_text in [
        r#"
[campaign]
name = "eq-hidden"
scenario = "hidden_node"
seed = 11
replications = 2

[fixed]
delta = 50.0
packets = 20

[grid]
mac = ["qma", "unslotted_csma"]
"#,
        r#"
[campaign]
name = "eq-massive"
scenario = "massive"
seed = 7
replications = 2

[fixed]
delta = 1.0
packets = 3
duration_s = 10

[grid]
nodes = [40]
topology = ["hidden_star", "grid"]
"#,
        r#"
[campaign]
name = "eq-chaos"
scenario = "chaos"
seed = 7
replications = 2

[fixed]
delta = 0.6
duration_s = 12
fault_start_s = 4
fault_duration_s = 3
crash_frac = 0.25
jam_frac = 0.15
drift_frac = 0.25
clamp_budget = 100000

[grid]
nodes = [120]
topology = ["hidden_star", "grid"]
"#,
    ] {
        let spec = CampaignSpec::parse(spec_text).unwrap();
        let (csv_wheel, json_wheel) = artifacts(&spec, "w-ser", Parallelism::Serial, true);
        let (csv_heap, json_heap) = artifacts(&spec, "h-ser", Parallelism::Serial, false);
        assert_eq!(
            csv_wheel, csv_heap,
            "{}: serial CSV bytes diverge between wheel and heap",
            spec.name
        );
        assert_eq!(
            json_wheel, json_heap,
            "{}: serial JSON bytes diverge between wheel and heap",
            spec.name
        );

        let (csv_par, json_par) = artifacts(&spec, "h-par", Parallelism::Rayon, false);
        assert_eq!(
            csv_wheel, csv_par,
            "{}: parallel heap CSV bytes diverge from serial wheel",
            spec.name
        );
        assert_eq!(
            json_wheel, json_par,
            "{}: parallel heap JSON diverges",
            spec.name
        );
    }
}
