//! The simulation engine's byte reference at campaign level. Each
//! `tests/golden/engine_*.toml` spec must reproduce the committed
//! `engine_*.csv` and `engine_*.json` next to it byte for byte.
//! `fabric_process.rs` checks the same at one and at four pool
//! threads.
//!
//! The files were generated by the per-tick engine, which scheduled
//! one event per subslot tick and fired a boundary's ticks in arming
//! order, on either a boundary wheel or the plain heap (the two agreed
//! byte for byte on all four specs). The per-boundary sweep fires them
//! in node-id order instead; these files pin that the order is
//! unobservable. The four specs cover a hidden-node cell, sparse
//! massive worlds, a chaos run (crash, jam and drift) and a skewed
//! chaos run, whose late-running nodes tick through the heap.
//!
//! `fold_order` pins the order in which a config's replications fold
//! into its aggregate: its sixteen replications per config put several
//! printed means exactly on a rounding tie, so a pool that handed the
//! results back in any other order would change its bytes.

use std::path::PathBuf;

use qma_bench::campaign::fabric::{run_fabric, FabricConfig};
use qma_bench::campaign::spec::CampaignSpec;

/// Runs `tests/golden/<name>.toml` and compares both artifacts with
/// the committed files.
fn assert_matches_golden(name: &str, spec_text: &str, csv: &str, json: &str) {
    let spec = CampaignSpec::parse(spec_text).unwrap();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("qma-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run_fabric(&spec, &dir, &FabricConfig::default(), &|_| {}).expect("campaign runs");
    let got_csv = std::fs::read_to_string(&out.csv_path).unwrap();
    let got_json = std::fs::read_to_string(&out.json_path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        got_csv, csv,
        "{name}: CSV differs from tests/golden/{name}.csv"
    );
    assert_eq!(
        got_json, json,
        "{name}: JSON differs from tests/golden/{name}.json"
    );
}

macro_rules! golden_test {
    ($test:ident, $name:literal) => {
        #[test]
        fn $test() {
            assert_matches_golden(
                $name,
                include_str!(concat!("golden/", $name, ".toml")),
                include_str!(concat!("golden/", $name, ".csv")),
                include_str!(concat!("golden/", $name, ".json")),
            );
        }
    };
}

golden_test!(hidden_node_artifacts_match_golden, "engine_hidden");
golden_test!(massive_artifacts_match_golden, "engine_massive");
golden_test!(chaos_artifacts_match_golden, "engine_chaos");
golden_test!(skewed_chaos_artifacts_match_golden, "engine_skew");
golden_test!(replication_fold_order_matches_golden, "fold_order");
