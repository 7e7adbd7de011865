//! `qmad` — the supervised campaign service daemon.
//!
//! ```text
//! cargo run --release -p qma-bench --bin qmad -- --root DIR [options]
//! ```
//!
//! Watches `<root>/queue/` for submitted campaign specs (see
//! `campaignctl submit`), drives each through the journalled
//! lifecycle `queued → expanding → running → draining → merging →
//! archived | failed`, and supervises a standing fleet of fabric
//! worker processes. `kill -9` the daemon at any point and restart
//! it: the journal replays, the fabric resumes, and the merged
//! artifacts come out byte-identical to an uninterrupted run.
//!
//! Options:
//!
//! * `--root DIR` — the service root (required; created if missing),
//! * `--workers N` — fleet size per campaign (default 2),
//! * `--max-queue-depth N` — admission: refuse submissions past this
//!   queue depth (default 32),
//! * `--disk-budget-bytes B` — admission: refuse submissions once the
//!   service root holds more than `B` bytes (default: unlimited),
//! * `--drain-deadline-s S` — SIGTERM lame-duck deadline; workers
//!   still running after `S` seconds are killed (default 30),
//! * `--worker-kill-limit N` — circuit breaker: quarantine a campaign
//!   after it kills `N` workers (default 3),
//! * `--heartbeat-ms MS` / `--lease-stale-ms MS` / `--max-attempts M`
//!   / `--rep-timeout-ms MS` — fabric knobs handed to every worker.
//!
//! SIGTERM (or SIGINT) enters lame-duck mode: running workers finish
//! the configs they hold a lease on, acquire nothing new, flush their
//! shards, and the daemon exits 0 — within the drain deadline —
//! leaving the journal at a state the next daemon resumes from.
//!
//! The binary doubles as its own fleet: the daemon respawns itself
//! with the hidden `--worker` flag, one process per worker, so a
//! worker crash is a real process death (stale lease → reclaim), not
//! a caught panic. Worker exit codes: 0 merged clean, 1 merged with
//! quarantined configs, 2 campaign error, 3 drained, 4 orphaned. A
//! worker whose daemon died (its parent process changed) exits with 4
//! within one heartbeat, mid-config or not: the restarted daemon
//! reclaims its lease, as after any worker crash.

// The only unsafe in the workspace: registering a libc signal
// handler, which has no safe std equivalent. The workspace lint is
// `deny` (overridable here), not `forbid`, for exactly this binary.
#![allow(unsafe_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use qma_bench::campaign::fabric::{run_fabric, FabricConfig};
use qma_bench::campaign::spec::CampaignSpec;
use qma_bench::runner::pin_pool_to_one_thread;
use qma_bench::service::daemon::Daemon;
use qma_bench::service::ServiceConfig;

/// Set from the signal handler; polled by the daemon loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    unsafe extern "C" {
        // POSIX `signal(2)`. Good enough here: we need no siginfo, no
        // masking — just a flag flip on SIGTERM/SIGINT.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's handler registration; the
    // handler passed is an `extern "C" fn(i32)` that only performs an
    // atomic store (async-signal-safe). No Rust state is touched from
    // signal context.
    unsafe {
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
        signal(SIGINT, on_shutdown_signal as *const () as usize);
    }
}

struct WorkerArgs {
    /// The parent process at start-up: the daemon that spawned us.
    daemon: u32,
    spec: PathBuf,
    out: PathBuf,
    worker_id: String,
    drain_flag: PathBuf,
    heartbeat: Duration,
    lease_stale: Duration,
    max_attempts: u32,
    rep_timeout: Option<Duration>,
}

/// Exit code of a worker that outlived its daemon.
const ORPHANED: i32 = 4;

/// Exits the process once its parent is no longer `daemon`: the daemon
/// died and the worker was re-parented, so nobody supervises it or
/// reads its result, and the next daemon may already be deleting its
/// working directory. Polled every `every`. Exiting mid-config is a
/// crash, which the fabric recovers from (stale lease, then reclaim).
fn exit_when_orphaned(daemon: u32, every: Duration) {
    let watch = move || loop {
        std::thread::sleep(every);
        if std::os::unix::process::parent_id() != daemon {
            eprintln!("qmad worker: daemon {daemon} is gone; exiting");
            std::process::exit(ORPHANED);
        }
    };
    if let Err(e) = std::thread::Builder::new()
        .name("qmad-orphan-watch".into())
        .spawn(watch)
    {
        eprintln!("qmad worker: cannot watch daemon {daemon}: {e}");
    }
}

/// The hidden `--worker` mode: one fabric worker over one spec, with
/// the exit-code protocol the supervisor decodes.
fn run_worker(args: WorkerArgs) -> i32 {
    exit_when_orphaned(args.daemon, args.heartbeat);
    let text = match std::fs::read_to_string(&args.spec) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("read {}: {e}", args.spec.display());
            return 2;
        }
    };
    let spec = match CampaignSpec::parse(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{}: {e}", args.spec.display());
            return 2;
        }
    };
    let cfg = FabricConfig {
        worker_id: args.worker_id,
        max_attempts: args.max_attempts,
        heartbeat: args.heartbeat,
        lease_stale: args.lease_stale,
        rep_timeout: args.rep_timeout,
        drain_flag: Some(args.drain_flag),
        ..FabricConfig::default()
    };
    match run_fabric(&spec, &args.out, &cfg, &|line| println!("{line}")) {
        Ok(outcome) if outcome.drained => 3,
        Ok(outcome) if outcome.quarantined.is_empty() => 0,
        Ok(_) => 1,
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

fn parse_duration_ms(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<Duration, String> {
    argv.next()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms >= 1)
        .map(Duration::from_millis)
        .ok_or(format!("{flag} needs a positive millisecond count"))
}

fn parse_worker_args(mut argv: impl Iterator<Item = String>) -> Result<WorkerArgs, String> {
    let daemon = std::os::unix::process::parent_id();
    let defaults = FabricConfig::default();
    let mut spec = None;
    let mut out = None;
    let mut worker_id = None;
    let mut drain_flag = None;
    let mut heartbeat = defaults.heartbeat;
    let mut lease_stale = defaults.lease_stale;
    let mut max_attempts = defaults.max_attempts;
    let mut rep_timeout = None;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--spec" => spec = argv.next().map(PathBuf::from),
            "--out" => out = argv.next().map(PathBuf::from),
            "--worker-id" => worker_id = argv.next(),
            "--drain-flag" => drain_flag = argv.next().map(PathBuf::from),
            "--heartbeat-ms" => heartbeat = parse_duration_ms(&mut argv, "--heartbeat-ms")?,
            "--lease-stale-ms" => lease_stale = parse_duration_ms(&mut argv, "--lease-stale-ms")?,
            "--rep-timeout-ms" => {
                rep_timeout = Some(parse_duration_ms(&mut argv, "--rep-timeout-ms")?)
            }
            "--max-attempts" => {
                max_attempts = argv
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&m| m >= 1)
                    .ok_or("--max-attempts needs a positive attempt count")?;
            }
            other => return Err(format!("unknown worker flag {other}")),
        }
    }
    Ok(WorkerArgs {
        daemon,
        spec: spec.ok_or("--worker needs --spec")?,
        out: out.ok_or("--worker needs --out")?,
        worker_id: worker_id.ok_or("--worker needs --worker-id")?,
        drain_flag: drain_flag.ok_or("--worker needs --drain-flag")?,
        heartbeat,
        lease_stale,
        max_attempts,
        rep_timeout,
    })
}

fn parse_daemon_args(mut argv: impl Iterator<Item = String>) -> Result<ServiceConfig, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut root = None;
    let mut cfg = ServiceConfig::new(PathBuf::new(), exe);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => root = argv.next().map(PathBuf::from),
            "--workers" => {
                cfg.workers = argv
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--workers needs a positive worker count")?;
            }
            "--max-queue-depth" => {
                cfg.max_queue_depth = argv
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--max-queue-depth needs a positive count")?;
            }
            "--disk-budget-bytes" => {
                cfg.disk_budget_bytes = Some(
                    argv.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or("--disk-budget-bytes needs a byte count")?,
                );
            }
            "--drain-deadline-s" => {
                let s = argv
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|&s| s > 0.0)
                    .ok_or("--drain-deadline-s needs a positive number of seconds")?;
                cfg.drain_deadline = Duration::from_secs_f64(s);
            }
            "--worker-kill-limit" => {
                cfg.worker_kill_limit = argv
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--worker-kill-limit needs a positive count")?;
            }
            "--heartbeat-ms" => cfg.heartbeat = parse_duration_ms(&mut argv, "--heartbeat-ms")?,
            "--lease-stale-ms" => {
                cfg.lease_stale = parse_duration_ms(&mut argv, "--lease-stale-ms")?
            }
            "--rep-timeout-ms" => {
                cfg.rep_timeout = Some(parse_duration_ms(&mut argv, "--rep-timeout-ms")?)
            }
            "--max-attempts" => {
                cfg.max_attempts = argv
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&m| m >= 1)
                    .ok_or("--max-attempts needs a positive attempt count")?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: qmad --root DIR [--workers N] [--max-queue-depth N] \
                     [--disk-budget-bytes B] [--drain-deadline-s S] [--worker-kill-limit N] \
                     [--heartbeat-ms MS] [--lease-stale-ms MS] [--max-attempts M] \
                     [--rep-timeout-ms MS]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    cfg.root = root.ok_or("qmad needs --root DIR (see --help)")?;
    Ok(cfg)
}

fn main() {
    // One replication thread per process: the fleet is the parallel
    // axis. Spawned workers inherit the setting.
    pin_pool_to_one_thread();
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--worker") {
        argv.next();
        let code = match parse_worker_args(argv) {
            Ok(args) => run_worker(args),
            Err(e) => {
                eprintln!("{e}");
                2
            }
        };
        std::process::exit(code);
    }
    let cfg = match parse_daemon_args(argv) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    install_signal_handlers();
    let mut daemon = match Daemon::new(cfg, Box::new(|line| println!("qmad: {line}"))) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("qmad: {e}");
            std::process::exit(1);
        }
    };
    println!("qmad: serving (pid {})", std::process::id());
    match daemon.run(&|| SHUTDOWN.load(Ordering::SeqCst)) {
        Ok(()) => {} // drained: exit 0
        Err(e) => {
            eprintln!("qmad: {e}");
            std::process::exit(1);
        }
    }
}
