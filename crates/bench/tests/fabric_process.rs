//! Process-level fabric fault tolerance: a real `campaign` worker
//! process is `kill -9`'d mid-config and the fabric must recover —
//! the stale lease is reclaimed, the killed config re-executes from
//! its content-addressed seed, and the merged artifacts are
//! byte-identical to an undisturbed run. A separate case drives a
//! permanently failing spec through a child worker and checks the
//! quarantine exit contract (non-zero exit, reproduction seed and
//! quarantine record printed, grid still completed). A third checks
//! that deleted flags are refused before any work starts, and a
//! fourth that `--serial` and a four-thread pool give the same bytes
//! and the same failure report.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qma_bench::campaign::fabric::{quarantine_record_path, run_fabric, FabricConfig};
use qma_bench::campaign::spec::CampaignSpec;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qma-fabric-proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A hidden-node spec heavy enough (in a debug build) that each
/// config runs for a long stretch relative to the kill latency — the
/// SIGKILL below must land *mid-config*, while the victim holds a
/// lease.
const KILL_SPEC: &str = r#"
[campaign]
name = "killtest"
scenario = "hidden_node"
seed = 5
replications = 2

[fixed]
delta = 50.0
packets = 150

[grid]
mac = ["qma", "unslotted_csma"]
"#;

/// The deterministically panicking chaos config (a −100 ms skew
/// against a 4-clamp budget) next to a healthy sibling — the
/// quarantine workload.
const POISON_SPEC: &str = r#"
[campaign]
name = "poison"
scenario = "chaos"
seed = 11
replications = 2

[fixed]
nodes = 9
duration_s = 5
fault_start_s = 2
fault_duration_s = 1
crash_frac = 0.0
clamp_budget = 4

[grid]
skew_us = [0, -100000]
"#;

fn write_spec(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

/// Spawns a `campaign` worker. Without `--serial` in `extra` its pool
/// runs four threads, set on the child so that it fans out on any
/// host; `--serial` pins it to one.
fn spawn_worker(spec: &Path, fabric_dir: &Path, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .env("RAYON_NUM_THREADS", "4")
        .arg("--out-dir")
        .arg(fabric_dir)
        .args(extra)
        .arg(spec)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn campaign worker")
}

#[test]
fn killed_worker_is_reclaimed_and_merge_stays_byte_identical() {
    let work = tmp_dir("kill");
    let spec_path = write_spec(&work, "killtest.toml", KILL_SPEC);
    let spec = CampaignSpec::parse(KILL_SPEC).unwrap();
    let fabric_dir = work.join("out");

    // The victim heartbeats fast so its lease is visibly *live* right
    // up to the SIGKILL — what goes stale afterwards is purely the
    // death, not a lazy cadence.
    let mut victim = spawn_worker(
        &spec_path,
        &fabric_dir,
        &["--serial", "--worker-id", "victim", "--heartbeat-ms", "25"],
    );

    // Wait for the victim to lease its first config, then kill -9.
    let leases = fabric_dir.join(format!("{}.fabric/leases", spec.name));
    let deadline = Instant::now() + Duration::from_secs(120);
    let lease_seen = loop {
        if let Ok(entries) = std::fs::read_dir(&leases) {
            let held: Vec<_> = entries.flatten().collect();
            if !held.is_empty() {
                break true;
            }
        }
        if Instant::now() > deadline {
            break false;
        }
        if let Some(status) = victim.try_wait().unwrap() {
            panic!("victim exited ({status}) before taking a lease");
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(lease_seen, "victim never leased a config");
    victim.kill().unwrap(); // SIGKILL: no destructors, no lease release
    victim.wait().unwrap();
    assert!(
        std::fs::read_dir(&leases).unwrap().flatten().count() > 0,
        "SIGKILL must leave the orphaned lease behind"
    );

    // A surviving worker (in-process) finishes the campaign: it must
    // reclaim the dead lease once stale and re-execute the killed
    // config from its content-addressed seed.
    let cfg = FabricConfig {
        worker_id: "survivor".into(),
        heartbeat: Duration::from_millis(25),
        lease_stale: Duration::from_millis(500),
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
        ..FabricConfig::default()
    };
    let mut notes = Vec::new();
    let notes_sink = std::sync::Mutex::new(&mut notes);
    let out = run_fabric(&spec, &fabric_dir, &cfg, &|line| {
        notes_sink.lock().unwrap().push(line.to_string());
    })
    .unwrap();
    assert!(
        out.reclaimed >= 1,
        "the victim's stale lease must be reclaimed: {notes:?}"
    );
    assert!(
        out.executed >= 1,
        "the killed config must re-execute (victim died mid-config)"
    );
    assert!(out.quarantined.is_empty(), "a single death is not poison");
    assert!(
        notes.iter().any(|l| l.contains("reclaimed stale lease")),
        "reclaim not narrated: {notes:?}"
    );

    // Byte-identity: the post-crash merge equals a fresh, uncontended
    // run in a separate directory — same rows, same order, no
    // duplicates from the interrupted first execution.
    let fresh = run_fabric(&spec, &work.join("fresh"), &cfg, &|_| {}).unwrap();
    assert_eq!(
        std::fs::read(&out.csv_path).unwrap(),
        std::fs::read(&fresh.csv_path).unwrap(),
        "crash-recovered CSV must be byte-identical"
    );
    assert_eq!(
        std::fs::read(&out.json_path).unwrap(),
        std::fs::read(&fresh.json_path).unwrap(),
        "crash-recovered JSON must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn quarantined_campaign_exits_nonzero_with_reproduction_seed() {
    let work = tmp_dir("poison");
    let spec_path = write_spec(&work, "poison.toml", POISON_SPEC);
    let fabric_dir = work.join("out");

    let child = spawn_worker(
        &spec_path,
        &fabric_dir,
        &["--serial", "--max-attempts", "2"],
    );
    let output = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    assert_eq!(
        output.status.code(),
        Some(1),
        "quarantine must exit 1\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("QUARANTINED") && stdout.contains("1 quarantined"),
        "quarantine not narrated:\n{stdout}"
    );
    assert!(
        stderr.contains("# FAILED") && stderr.contains("seed"),
        "failure report must carry the reproduction seed:\n{stderr}"
    );

    // A re-run skips the config while its quarantine record exists,
    // so the retry hint must name that record.
    let spec = CampaignSpec::parse(POISON_SPEC).unwrap();
    let poisoned = spec
        .expand()
        .unwrap()
        .into_iter()
        .find(|p| p.key().contains("skew_us=-100000"))
        .unwrap();
    let record_path = quarantine_record_path(&fabric_dir, &spec.name, &poisoned.stem());
    assert!(
        stderr.contains(&format!("delete {}", record_path.display())),
        "failure report must name the quarantine record to delete:\n{stderr}"
    );

    // The grid still completed: the healthy config has its artifact
    // row, the poisoned one has a quarantine record carrying its key.
    let csv = std::fs::read_to_string(fabric_dir.join(format!("{}.csv", spec.name))).unwrap();
    assert_eq!(csv.lines().count(), 2, "header + healthy row:\n{csv}");
    let quarantine_dir = fabric_dir.join(format!("{}.fabric/quarantine", spec.name));
    let records: Vec<_> = std::fs::read_dir(&quarantine_dir)
        .unwrap()
        .flatten()
        .collect();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].path(), record_path);
    let record = std::fs::read_to_string(&record_path).unwrap();
    for field in [
        "config_key",
        "attempts",
        "seed",
        "message",
        "skew_us=-100000",
    ] {
        assert!(
            record.contains(field),
            "quarantine record lacks {field}:\n{record}"
        );
    }
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn deleted_flags_are_refused_before_any_work() {
    // `--scheduler` and `--join` were deleted: each must be an unknown
    // flag (exit 2, usage error) that never reaches the spec, so no
    // fabric directory appears in the default out dir or the one
    // `--join` named.
    let work = tmp_dir("flags");
    let spec_path = write_spec(&work, "poison.toml", POISON_SPEC);
    let joined = work.join("joined");
    let joined_arg = joined.to_str().unwrap();
    for flags in [["--scheduler", "heap"], ["--join", joined_arg]] {
        let output = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .current_dir(&work)
            .args(flags)
            .arg(&spec_path)
            .output()
            .expect("run campaign");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{flags:?} must be a usage error\nstderr:\n{stderr}"
        );
        assert!(
            stderr.contains(&format!("unknown flag {}", flags[0])),
            "{flags:?} not refused as unknown:\n{stderr}"
        );
        for dir in [&work, &joined] {
            assert!(
                !dir.join("poison.fabric").exists(),
                "{flags:?} left {}/poison.fabric behind",
                dir.display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn serial_and_pool_runs_match_golden_and_fail_alike() {
    let work = tmp_dir("pool");
    let golden = write_spec(
        &work,
        "engine_hidden.toml",
        include_str!("golden/engine_hidden.toml"),
    );
    let poison = write_spec(&work, "poison.toml", POISON_SPEC);
    let mut reports = Vec::new();
    for (tag, mode) in [("serial", &["--serial"][..]), ("pool", &[])] {
        let out_dir = work.join(tag);
        let run = |spec: &Path, more: &[&str]| {
            let child = spawn_worker(spec, &out_dir, &[mode, more].concat());
            child.wait_with_output().unwrap()
        };
        let output = run(&golden, &[]);
        assert!(
            output.status.success(),
            "{tag}: campaign failed\nstderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        for (ext, want) in [
            ("csv", include_str!("golden/engine_hidden.csv")),
            ("json", include_str!("golden/engine_hidden.json")),
        ] {
            let got = std::fs::read_to_string(out_dir.join(format!("engine_hidden.{ext}")));
            assert_eq!(
                got.unwrap(),
                want,
                "{tag}: differs from tests/golden/engine_hidden.{ext}"
            );
        }

        let output = run(&poison, &["--max-attempts", "2"]);
        assert_eq!(output.status.code(), Some(1), "{tag}: quarantine exits 1");
        let failed: Vec<String> = String::from_utf8_lossy(&output.stderr)
            .lines()
            .filter(|l| l.starts_with("# FAILED"))
            .map(str::to_string)
            .collect();
        assert!(!failed.is_empty(), "{tag}: no # FAILED line");
        reports.push(failed);
    }
    assert_eq!(
        reports[0], reports[1],
        "--serial and the pool must report the same failures"
    );
    let _ = std::fs::remove_dir_all(&work);
}
