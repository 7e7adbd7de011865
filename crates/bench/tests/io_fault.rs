//! I/O failure injection (via the `io_fault` hook in
//! `campaign::durable`): write and rename errors pushed into artifact
//! and journal paths must leave campaigns resumable, keep every
//! already-succeeded config byte-identical through recovery, and
//! never leave a torn artifact under a final name.

use std::path::{Path, PathBuf};
use std::time::Duration;

use qma_bench::campaign::durable::io_fault;
use qma_bench::campaign::fabric::{run_fabric, FabricConfig};
use qma_bench::campaign::spec::CampaignSpec;
use qma_bench::service::journal::{CampaignState, Journal};

const SPEC: &str = r#"
[campaign]
name = "iofault"
scenario = "hidden_node"
seed = 11
replications = 2

[fixed]
delta = 50.0
packets = 20

[grid]
mac = ["qma", "unslotted_csma"]
"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qma-iofault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg(id: &str) -> FabricConfig {
    FabricConfig {
        worker_id: id.into(),
        heartbeat: Duration::from_millis(50),
        lease_stale: Duration::from_secs(5),
        ..FabricConfig::default()
    }
}

/// No temp file (any `.tmp*` sibling) may survive under `dir`,
/// recursively: a lingering temp is a torn publish.
fn assert_no_temps(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            assert_no_temps(&path);
        } else {
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(!name.contains(".tmp"), "torn publish left behind: {name}");
        }
    }
}

#[test]
fn shard_write_failure_leaves_campaign_resumable_and_bytes_identical() {
    let _hook = io_fault::exclusive();
    let spec = CampaignSpec::parse(SPEC).unwrap();

    let clean_dir = tmp_dir("shard-clean");
    let clean = run_fabric(&spec, &clean_dir, &cfg("clean"), &|_| {}).unwrap();

    // Fail the second shard publish (its "write" checkpoint): the
    // first config lands durably, the second dies mid-campaign.
    // write_atomic crosses two checkpoints per call (write + rename),
    // so the first successful publish consumes two skips.
    let faulty_dir = tmp_dir("shard-fault");
    io_fault::arm(".fabric/shards/", 2, 1);
    let err = run_fabric(&spec, &faulty_dir, &cfg("w1"), &|_| {}).unwrap_err();
    io_fault::disarm();
    assert!(err.contains("injected I/O fault"), "{err}");
    assert_no_temps(&faulty_dir);
    assert!(
        !faulty_dir.join("iofault.csv").exists(),
        "no merged artifact may exist for an unfinished campaign"
    );

    // Resume: the surviving shard is reused, the lost config re-runs,
    // and the merged bytes match an uninterrupted campaign exactly.
    let resumed = run_fabric(&spec, &faulty_dir, &cfg("w2"), &|_| {}).unwrap();
    assert_eq!(resumed.resumed, 1, "first config's shard must survive");
    assert_eq!(
        std::fs::read(&resumed.csv_path).unwrap(),
        std::fs::read(&clean.csv_path).unwrap(),
        "recovered campaign must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&faulty_dir);
}

#[test]
fn merge_rename_failure_leaves_no_torn_csv() {
    let _hook = io_fault::exclusive();
    let spec = CampaignSpec::parse(SPEC).unwrap();

    // Skip the merged CSV's "write" checkpoint, fail its "rename":
    // the crash lands exactly between data-on-disk and name-on-disk.
    let dir = tmp_dir("merge-rename");
    io_fault::arm("iofault.csv", 1, 1);
    let err = run_fabric(&spec, &dir, &cfg("w1"), &|_| {}).unwrap_err();
    io_fault::disarm();
    assert!(err.contains("injected I/O fault"), "{err}");
    assert!(
        !dir.join("iofault.csv").exists(),
        "a failed rename must not surface a final name"
    );
    assert_no_temps(&dir);

    // Every config already resolved; the re-run only re-merges.
    let resumed = run_fabric(&spec, &dir, &cfg("w2"), &|_| {}).unwrap();
    assert_eq!(resumed.executed, 0, "merge retry must not re-simulate");
    assert_eq!(resumed.resumed, 2);
    assert!(dir.join("iofault.csv").exists());
    assert!(dir.join("iofault.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_append_failure_keeps_journal_valid_and_replayable() {
    let _hook = io_fault::exclusive();
    let dir = tmp_dir("journal");
    let path = dir.join("c.journal");

    let mut journal = Journal::open(&path).unwrap();
    journal
        .transition(CampaignState::Queued, Some("spec accepted"))
        .unwrap();
    journal.transition(CampaignState::Expanding, None).unwrap();

    io_fault::arm("c.journal", 0, 1);
    let err = journal
        .transition(CampaignState::Running, None)
        .unwrap_err();
    io_fault::disarm();
    assert!(err.contains("injected I/O fault"), "{err}");

    // The failed append must not have advanced the on-disk record: a
    // fresh replay still lands on the last durable state, and the
    // journal keeps accepting the same transition afterwards.
    let mut reopened = Journal::open(&path).unwrap();
    assert_eq!(reopened.state(), Some(CampaignState::Expanding));
    reopened.transition(CampaignState::Running, None).unwrap();
    assert_eq!(reopened.state(), Some(CampaignState::Running));
    assert_eq!(
        Journal::open(&path).unwrap().state(),
        Some(CampaignState::Running)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
