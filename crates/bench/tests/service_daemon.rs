//! Process-level service tests: a real `qmad` daemon (spawning real
//! worker processes) driven through the crash, drain and degradation
//! drills the service exists for — SIGKILL of workers and of the
//! daemon itself with byte-identical recovery, the exit of a worker
//! whose parent died, SIGTERM lame-duck exit 0, circuit-breaker
//! quarantine of a worker-killing campaign, and machine-readable
//! admission refusals from `campaignctl`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qma_bench::campaign::fabric::{run_fabric, FabricConfig};
use qma_bench::campaign::spec::CampaignSpec;
use qma_bench::service::ServicePaths;

/// The drills' campaign: two QMA configs that are slow by
/// construction, so a worker holds each lease for a long stretch and
/// SIGKILL/SIGTERM land mid-config whatever the build profile. A
/// config is 2 replications of a saturated hidden-node star, about
/// half a second on one idle core in either profile: 80 sources
/// (about 5M events) in a release build, 8 sources (about 0.45M) in a
/// debug build, which runs each event about ten times slower.
fn long_spec() -> String {
    let nodes = if cfg!(debug_assertions) { 9 } else { 81 };
    format!(
        r#"
[campaign]
name = "svclong"
scenario = "hidden_node"
seed = 5
replications = 2

[fixed]
mac = "qma"
nodes = {nodes}
packets = 300

[grid]
delta = [25.0, 50.0]
"#
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qma-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A spawned `qmad`, SIGKILLed when dropped: a test that fails (its
/// panic unwinds through the guard) leaves no daemon running. After a
/// clean exit the kill is a no-op.
struct Daemon(Child);

impl std::ops::Deref for Daemon {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl std::ops::DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_daemon(root: &Path, extra: &[&str]) -> Daemon {
    let log = std::fs::File::create(root.join("daemon.log")).unwrap();
    let elog = std::fs::File::create(root.join("daemon.err")).unwrap();
    let child = Command::new(env!("CARGO_BIN_EXE_qmad"))
        .arg("--root")
        .arg(root)
        .args(["--heartbeat-ms", "25", "--lease-stale-ms", "500"])
        .args(extra)
        .stdout(Stdio::from(log))
        .stderr(Stdio::from(elog))
        .spawn()
        .expect("spawn qmad");
    Daemon(child)
}

fn ctl(root: &Path, args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_campaignctl"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("run campaignctl");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn submit(root: &Path, spec: &Path) -> String {
    let (code, stdout) = ctl(root, &["submit", spec.to_str().unwrap()]);
    assert_eq!(code, 0, "submit refused: {stdout}");
    json_str_field(&stdout, "id").expect("submit must echo the campaign id")
}

/// Minimal `"key": "value"` extraction from campaignctl/status JSON.
fn json_str_field(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let at = text.find(&needle)? + needle.len();
    text[at..].split('"').next().map(str::to_string)
}

/// Worker pids from a rendered `status.json` (daemon_pid excluded —
/// the needle requires the quote right before `pid`).
fn worker_pids(status: &str) -> Vec<u32> {
    status
        .match_indices("\"pid\": ")
        .filter_map(|(at, needle)| {
            status[at + needle.len()..]
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .collect()
}

/// Read-only journal-state probe (`Journal::open` would repair a
/// torn tail in place, which must never be done to a live daemon's
/// journal from outside).
fn journal_reached(paths: &ServicePaths, id: &str, state: &str) -> bool {
    std::fs::read_to_string(paths.journal_file(id))
        .map(|text| text.contains(&format!("state={state}")))
        .unwrap_or(false)
}

fn wait_for<F: FnMut() -> bool>(what: &str, deadline: Duration, mut ready: F) {
    let limit = Instant::now() + deadline;
    while !ready() {
        assert!(Instant::now() < limit, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits until the campaign's fabric holds at least one lease — a
/// worker is mid-config right now.
fn wait_for_lease(paths: &ServicePaths, id: &str, spec_name: &str) {
    let leases = paths.out_dir(id).join(format!("{spec_name}.fabric/leases"));
    wait_for("a worker lease", Duration::from_secs(120), || {
        std::fs::read_dir(&leases)
            .map(|entries| entries.flatten().count() > 0)
            .unwrap_or(false)
    });
}

/// Waits until `status.json` lists at least one worker pid. A lease
/// can appear a beat before the supervisor's next status snapshot
/// lists the worker that holds it, so one read is not enough.
fn wait_for_worker_pids(paths: &ServicePaths) -> Vec<u32> {
    let mut pids = Vec::new();
    wait_for(
        "status.json to expose worker pids",
        Duration::from_secs(30),
        || {
            pids = std::fs::read_to_string(&paths.status)
                .map(|s| worker_pids(&s))
                .unwrap_or_default();
            !pids.is_empty()
        },
    );
    pids
}

/// Whether process `pid` still runs: it exists and is not a zombie
/// (an exited orphan that its new parent has not reaped yet).
fn process_alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat")).is_ok_and(|stat| {
        // The state field follows the parenthesised command name.
        stat.rsplit_once(')')
            .is_some_and(|(_, rest)| !rest.trim_start().starts_with(['Z', 'X']))
    })
}

fn sigterm(pid: u32) {
    assert!(Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .unwrap()
        .success());
}

fn sigkill(pid: u32) {
    let _ = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .unwrap();
}

/// Runs [`long_spec`] fresh and uncontended under `work/fresh`;
/// returns the path of its CSV, the bytes every recovered run must
/// match.
fn fresh_run(work: &Path) -> PathBuf {
    let spec = CampaignSpec::parse(&long_spec()).unwrap();
    let cfg = FabricConfig {
        worker_id: "fresh".into(),
        ..FabricConfig::default()
    };
    run_fabric(&spec, &work.join("fresh"), &cfg, &|_| {})
        .unwrap()
        .csv_path
}

fn wait_exit(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let limit = Instant::now() + deadline;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(Instant::now() < limit, "daemon did not exit in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn killed_worker_and_daemon_recover_byte_identical() {
    let work = tmp_dir("crash");
    let root = work.join("root");
    std::fs::create_dir_all(&root).unwrap();
    let spec_path = work.join("svclong.toml");
    std::fs::write(&spec_path, long_spec()).unwrap();
    let paths = ServicePaths::new(&root);

    let mut daemon = spawn_daemon(&root, &["--workers", "2"]);
    let id = submit(&root, &spec_path);
    wait_for_lease(&paths, &id, "svclong");

    // Drill 1: SIGKILL a worker mid-config. The supervisor must
    // notice the death and the campaign must still converge.
    let pids = wait_for_worker_pids(&paths);
    sigkill(pids[0]);
    wait_for(
        "status.json to drop the killed worker",
        Duration::from_secs(30),
        || {
            std::fs::read_to_string(&paths.status)
                .is_ok_and(|s| !worker_pids(&s).contains(&pids[0]))
        },
    );

    // Drill 2: SIGKILL the daemon itself — no destructors, no drain.
    // Its workers, the respawned one included, notice within a
    // heartbeat and exit.
    let mut first_workers = pids;
    first_workers.extend(wait_for_worker_pids(&paths));
    daemon.kill().unwrap();
    daemon.wait().unwrap();
    wait_for(
        "the first incarnation's workers to exit",
        Duration::from_secs(30),
        || first_workers.iter().all(|&pid| !process_alive(pid)),
    );

    // Restart: the journal replays, the fabric resumes, the campaign
    // archives.
    let mut daemon = spawn_daemon(&root, &["--workers", "2"]);
    let archived_csv = paths.archive.join(&id).join("svclong.csv");
    wait_for(
        "the restarted daemon to archive",
        Duration::from_secs(300),
        || archived_csv.exists(),
    );
    wait_for(
        "the archived journal state",
        Duration::from_secs(60),
        || journal_reached(&paths, &id, "archived"),
    );

    // Byte-identity: the crash-riddled service run equals a fresh,
    // uncontended in-process run.
    let fresh = fresh_run(&work);
    assert_eq!(
        std::fs::read(&archived_csv).unwrap(),
        std::fs::read(fresh).unwrap(),
        "service-recovered CSV must be byte-identical to an undisturbed run"
    );

    // The working directory is retired once archived.
    wait_for("working state cleanup", Duration::from_secs(60), || {
        !paths.out_dir(&id).exists() && !paths.active_spec(&id).exists()
    });

    sigterm(daemon.id());
    assert!(wait_exit(&mut daemon, Duration::from_secs(60)).success());
    let _ = std::fs::remove_dir_all(&work);
}

/// SIGKILLs a process when dropped, so a failing test leaves no
/// stray worker running.
struct KillOnDrop(u32);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        sigkill(self.0);
    }
}

#[test]
fn orphaned_worker_exits_with_its_parent() {
    let work = tmp_dir("orphan");
    // Sixty of the drills' configs: a worker left alone would run for
    // about half a minute.
    let deltas: Vec<String> = (0..60).map(|k| format!("{}.0", 20 + k)).collect();
    let spec = long_spec()
        .replace("svclong", "orphan")
        .replace("[25.0, 50.0]", &format!("[{}]", deltas.join(", ")));
    let spec_path = work.join("orphan.toml");
    std::fs::write(&spec_path, spec).unwrap();
    let out = work.join("out");
    let leases = out.join("orphan.fabric/leases");

    // A parent that starts a worker, waits until it holds a lease (so
    // it has noted its parent), prints its pid and exits: what a
    // SIGKILLed daemon leaves behind.
    let script = r#""$0" --worker --spec "$1" --out "$2" --worker-id orphan \
        --drain-flag "$3" --heartbeat-ms 25 >/dev/null 2>&1 &
        worker=$!
        for _ in $(seq 1500); do
            [ -n "$(ls "$4" 2>/dev/null)" ] && break
            sleep 0.02
        done
        echo "$worker""#;
    let parent = Command::new("sh")
        .arg("-c")
        .arg(script)
        .arg(env!("CARGO_BIN_EXE_qmad"))
        .arg(&spec_path)
        .arg(&out)
        .arg(work.join("drain"))
        .arg(&leases)
        .output()
        .expect("run the worker's parent");
    assert!(parent.status.success());
    let pid: u32 = String::from_utf8_lossy(&parent.stdout)
        .trim()
        .parse()
        .expect("the worker's pid");
    let _guard = KillOnDrop(pid);
    assert!(leases.exists(), "the worker never started its campaign");

    wait_for(
        "the orphaned worker to exit",
        Duration::from_secs(10),
        || !process_alive(pid),
    );
    assert!(
        !out.join("orphan.csv").exists(),
        "the orphan ran its campaign to the end"
    );
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn sigterm_drains_to_exit_zero_and_restart_completes() {
    let work = tmp_dir("drain");
    let root = work.join("root");
    std::fs::create_dir_all(&root).unwrap();
    let spec_path = work.join("svclong.toml");
    std::fs::write(&spec_path, long_spec()).unwrap();
    let paths = ServicePaths::new(&root);

    let mut daemon = spawn_daemon(&root, &["--workers", "2", "--drain-deadline-s", "240"]);
    let id = submit(&root, &spec_path);
    wait_for_lease(&paths, &id, "svclong");

    // Lame duck: leased configs finish, nothing new starts, exit 0.
    sigterm(daemon.id());
    let status = wait_exit(&mut daemon, Duration::from_secs(240));
    assert!(status.success(), "drain must exit 0, got {status}");
    assert_eq!(status.code(), Some(0));

    // No worker survives the drain, so no lease survives it either.
    let leases = paths.out_dir(&id).join("svclong.fabric/leases");
    let held = std::fs::read_dir(&leases)
        .map(|entries| entries.flatten().count())
        .unwrap_or(0);
    assert_eq!(held, 0, "drained workers must have released their leases");

    // While stopped, submissions are refused with the drain reason.
    let (code, stdout) = ctl(&root, &["submit", spec_path.to_str().unwrap()]);
    assert_eq!(code, 1, "a draining/stopped root must refuse: {stdout}");
    assert!(stdout.contains("draining"), "{stdout}");

    // Restart: the drained campaign resumes and archives; its bytes
    // match an undisturbed run.
    let mut daemon = spawn_daemon(&root, &["--workers", "2"]);
    let archived_csv = paths.archive.join(&id).join("svclong.csv");
    wait_for(
        "the restarted daemon to archive",
        Duration::from_secs(300),
        || archived_csv.exists(),
    );
    assert_eq!(
        std::fs::read(&archived_csv).unwrap(),
        std::fs::read(fresh_run(&work)).unwrap()
    );

    // An idle daemon drains instantly.
    sigterm(daemon.id());
    assert!(wait_exit(&mut daemon, Duration::from_secs(60)).success());
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn circuit_breaker_quarantines_a_worker_killing_campaign() {
    let work = tmp_dir("breaker");
    let root = work.join("root");
    std::fs::create_dir_all(&root).unwrap();
    let spec_path = work.join("svclong.toml");
    std::fs::write(&spec_path, long_spec()).unwrap();
    let paths = ServicePaths::new(&root);

    // kill-limit 1: the first worker death trips the breaker. (The
    // spec is healthy — the deaths are injected — but the daemon
    // cannot tell a crashy config from a crashy host, which is
    // exactly why the quarantine carries reproduction state.)
    let mut daemon = spawn_daemon(&root, &["--workers", "1", "--worker-kill-limit", "1"]);
    let id = submit(&root, &spec_path);
    wait_for_lease(&paths, &id, "svclong");
    let pids = wait_for_worker_pids(&paths);
    sigkill(pids[0]);

    let reason_file = paths.quarantine.join(&id).join("reason.json");
    wait_for(
        "the circuit breaker to trip",
        Duration::from_secs(120),
        || reason_file.exists(),
    );
    let reason = std::fs::read_to_string(&reason_file).unwrap();
    assert!(
        reason.contains("worker"),
        "unhelpful breaker reason: {reason}"
    );
    // The daemon publishes `reason.json` first and journals `failed`
    // last, so the rest of the quarantine is only complete then.
    wait_for("the failed journal state", Duration::from_secs(60), || {
        journal_reached(&paths, &id, "failed")
    });
    assert!(
        paths.quarantine.join(&id).join("spec.toml").exists(),
        "quarantine must carry the spec for reproduction"
    );

    sigterm(daemon.id());
    assert!(wait_exit(&mut daemon, Duration::from_secs(60)).success());
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn admission_refusals_are_machine_readable() {
    let work = tmp_dir("admission");
    let root = work.join("root");
    std::fs::create_dir_all(&root).unwrap();
    let spec_a = work.join("a.toml");
    let spec_b = work.join("b.toml");
    std::fs::write(&spec_a, long_spec()).unwrap();
    std::fs::write(&spec_b, long_spec().replace("seed = 5", "seed = 6")).unwrap();

    // No daemon: submission is pure directory protocol, refusals
    // come from the same admission code the daemon runs.
    let (code, stdout) = ctl(
        &root,
        &["--max-queue-depth", "1", "submit", spec_a.to_str().unwrap()],
    );
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"accepted\": true"), "{stdout}");

    // Identical bytes: idempotent duplicate, not a second campaign.
    let (code, stdout) = ctl(
        &root,
        &["--max-queue-depth", "1", "submit", spec_a.to_str().unwrap()],
    );
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"duplicate\": true"), "{stdout}");

    // Queue full: refused with a machine-readable reason, recorded
    // under rejected/.
    let (code, stdout) = ctl(
        &root,
        &["--max-queue-depth", "1", "submit", spec_b.to_str().unwrap()],
    );
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(
        json_str_field(&stdout, "reason_code").as_deref(),
        Some("queue_depth"),
        "{stdout}"
    );
    let rejected_id = json_str_field(&stdout, "id").unwrap();
    let record = std::fs::read_to_string(
        ServicePaths::new(&root)
            .rejected
            .join(format!("{rejected_id}.json")),
    )
    .unwrap();
    assert!(record.contains("queue_depth"), "{record}");

    // Disk pressure: a 1-byte budget is always exceeded.
    let (code, stdout) = ctl(
        &root,
        &[
            "--disk-budget-bytes",
            "1",
            "submit",
            spec_b.to_str().unwrap(),
        ],
    );
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(
        json_str_field(&stdout, "reason_code").as_deref(),
        Some("disk_pressure"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&work);
}
