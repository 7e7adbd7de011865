//! Declarative experiment-campaign runner.
//!
//! ```text
//! cargo run --release -p qma-bench --bin campaign -- specs/<name>.toml [more specs...]
//! ```
//!
//! Every run is a fabric run (see `campaign::fabric`): workers claim
//! configs through leases under `<out>/<name>.fabric/`, publish one
//! shard per finished config, and merge the shards in grid order into
//! `<name>.csv` and `<name>.json`.
//!
//! Options:
//!
//! * `--serial` — pin the worker pool to one thread (bit-identical
//!   results),
//! * `--out-dir DIR` — artifact and fabric directory (default: the
//!   working directory). Launch the same command on several processes
//!   or hosts sharing `DIR`; they split the grid, survive each other's
//!   crashes, and any of them merges the final artifacts —
//!   byte-identical to a 1-worker run.
//! * `--dry-run` — expand and list the config matrix without
//!   simulating,
//! * `--rep-timeout-s S` — per-replication wall-clock watchdog: a
//!   replication exceeding `S` seconds becomes a failed attempt (with
//!   its reproduction seed) instead of hanging the campaign.
//! * `--workers N` — run `N` cooperating fabric workers in this
//!   process (default 1).
//! * `--worker-id ID` — explicit fabric worker identity (default:
//!   process-id based).
//! * `--max-attempts M` — attempts before a config is quarantined
//!   (default 3).
//! * `--heartbeat-ms MS` / `--lease-stale-ms MS` — lease heartbeat
//!   cadence and staleness threshold (a dead worker's lease is
//!   reclaimed once its heartbeat is older than the threshold).
//!
//! Re-running a half-finished campaign resumes from its shards:
//! finished configs are skipped and re-emitted verbatim, so the final
//! artifacts are byte-identical to an uninterrupted run.
//!
//! Each spec ends with a summary line on stdout: configs computed and
//! resumed, wall time, events per wall second and, where
//! `/proc/self/status` exists, the process's peak resident set so far
//! (`peak RSS N MB`, from `VmHWM`, in MiB).
//!
//! A panicking replication is isolated: its config is retried up to
//! `--max-attempts` times and then quarantined, the rest of the grid
//! still completes, and the process exits non-zero at the end. A
//! `# FAILED` line names the config, replication index, exact seed and
//! panic message, plus the quarantine record to delete for a retry.

use std::path::{Path, PathBuf};
use std::time::Duration;

use qma_bench::campaign::fabric::{quarantine_record_path, run_fabric_workers, FabricConfig};
use qma_bench::campaign::grid::ConfigPoint;
use qma_bench::campaign::spec::CampaignSpec;
use qma_bench::campaign::{failure_report, FailedRep};
use qma_bench::runner::pin_pool_to_one_thread;

struct Args {
    specs: Vec<PathBuf>,
    out_dir: PathBuf,
    serial: bool,
    dry_run: bool,
    rep_timeout: Option<Duration>,
    workers: usize,
    worker_id: Option<String>,
    max_attempts: u32,
    heartbeat: Duration,
    lease_stale: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut specs = Vec::new();
    let mut out_dir = PathBuf::from(".");
    let mut serial = false;
    let mut dry_run = false;
    let mut rep_timeout = None;
    let mut workers = 1;
    let mut worker_id = None;
    let defaults = FabricConfig::default();
    let mut max_attempts = defaults.max_attempts;
    let mut heartbeat = defaults.heartbeat;
    let mut lease_stale = defaults.lease_stale;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--serial" => serial = true,
            "--dry-run" => dry_run = true,
            "--out-dir" => {
                out_dir = PathBuf::from(argv.next().ok_or("--out-dir needs a directory")?)
            }
            "--rep-timeout-s" => {
                let s = argv
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|&s| s > 0.0)
                    .ok_or("--rep-timeout-s needs a positive number of seconds")?;
                rep_timeout = Some(Duration::from_secs_f64(s));
            }
            "--workers" => {
                workers = argv
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--workers needs a positive worker count")?;
            }
            "--worker-id" => {
                worker_id = Some(argv.next().ok_or("--worker-id needs an identifier")?)
            }
            "--max-attempts" => {
                max_attempts = argv
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|&m| m >= 1)
                    .ok_or("--max-attempts needs a positive attempt count")?;
            }
            "--heartbeat-ms" => {
                let ms = argv
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&ms| ms >= 1)
                    .ok_or("--heartbeat-ms needs a positive millisecond count")?;
                heartbeat = Duration::from_millis(ms);
            }
            "--lease-stale-ms" => {
                let ms = argv
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&ms| ms >= 1)
                    .ok_or("--lease-stale-ms needs a positive millisecond count")?;
                lease_stale = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                return Err("usage: campaign [--serial] [--dry-run] [--out-dir DIR] \
                     [--rep-timeout-s S] [--workers N] [--worker-id ID] [--max-attempts M] \
                     [--heartbeat-ms MS] [--lease-stale-ms MS] SPEC.toml..."
                    .into())
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            spec => specs.push(PathBuf::from(spec)),
        }
    }
    if specs.is_empty() {
        return Err("no spec files given (usage: campaign SPEC.toml...)".into());
    }
    Ok(Args {
        specs,
        out_dir,
        serial,
        dry_run,
        rep_timeout,
        workers,
        worker_id,
        max_attempts,
        heartbeat,
        lease_stale,
    })
}

fn print_failures(
    spec_path: &Path,
    out_dir: &Path,
    spec: &CampaignSpec,
    points: &[ConfigPoint],
    failures: &[FailedRep],
) {
    // One deterministic `# FAILED` report, sorted by (config, rep) —
    // byte-identical whichever worker observed the failures.
    for line in failure_report(failures) {
        eprintln!("{line}");
    }
    for f in failures {
        eprintln!(
            "#   reproduce: seeds are content-addressed, so rep {} of `{}` re-runs under seed {}",
            f.rep, f.config_key, f.seed
        );
        if let Some(point) = points.iter().find(|p| p.key() == f.config_key) {
            eprintln!(
                "#   retry: delete {} and re-run {} — every run skips the config while \
                 that quarantine record exists",
                quarantine_record_path(out_dir, &spec.name, &point.stem()).display(),
                spec_path.display()
            );
        }
    }
}

/// Runs one spec; returns its count of quarantined (permanently
/// failed) configs.
fn run_spec(args: &Args, path: &Path) -> Result<usize, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec = CampaignSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let points = spec
        .expand()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "# campaign {} — scenario {}, {} configs × {} replications, seed {}",
        spec.name,
        spec.scenario,
        points.len(),
        spec.replications,
        spec.master_seed
    );
    if args.dry_run {
        for (i, point) in points.iter().enumerate() {
            println!("  [{}/{}] {}", i + 1, points.len(), point.key());
        }
        return Ok(0);
    }
    let started = std::time::Instant::now();
    let mut cfg = FabricConfig {
        max_attempts: args.max_attempts,
        heartbeat: args.heartbeat,
        lease_stale: args.lease_stale,
        rep_timeout: args.rep_timeout,
        ..FabricConfig::default()
    };
    if let Some(id) = &args.worker_id {
        cfg.worker_id.clone_from(id);
    }
    println!(
        "# fabric: {} worker(s) as '{}' on {} (max {} attempts, heartbeat {}ms, stale {}ms)",
        args.workers,
        cfg.worker_id,
        args.out_dir.join(format!("{}.fabric", spec.name)).display(),
        cfg.max_attempts,
        cfg.heartbeat.as_millis(),
        cfg.lease_stale.as_millis(),
    );
    let progress = |line: &str| println!("  {line}");
    let outcome = run_fabric_workers(&spec, &args.out_dir, &cfg, args.workers, &progress)?;
    let elapsed = started.elapsed().as_secs_f64();
    let events: u64 = outcome
        .rows
        .iter()
        .filter_map(|r| r.get("events_total")?.parse::<u64>().ok())
        .sum();
    // Wall-clock throughput and memory go to stdout only — the
    // artifacts stay host-independent.
    let peak_rss = peak_rss_mb()
        .map(|mb| format!(", peak RSS {mb:.1} MB"))
        .unwrap_or_default();
    println!(
        "# {}: {} computed, {} resumed, {} lease(s) reclaimed, {} quarantined in {elapsed:.2}s \
         ({:.0} events/sec wall{peak_rss})",
        spec.name,
        outcome.executed,
        outcome.resumed,
        outcome.reclaimed,
        outcome.quarantined.len(),
        if elapsed > 0.0 {
            events as f64 / elapsed
        } else {
            0.0
        }
    );
    println!("# wrote {}", outcome.csv_path.display());
    println!("# wrote {}", outcome.json_path.display());
    print_failures(path, &args.out_dir, &spec, &points, &outcome.failures);
    Ok(outcome.quarantined.len())
}

/// This process's peak resident set so far, in MiB, read from
/// `VmHWM` in `/proc/self/status`; `None` where that file does not
/// exist.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim_end()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.serial {
        pin_pool_to_one_thread();
    }
    let mut permanent = 0usize;
    for path in &args.specs {
        match run_spec(&args, path) {
            Err(e) => {
                eprintln!("campaign failed: {e}");
                std::process::exit(1);
            }
            Ok(quarantined) => permanent += quarantined,
        }
    }
    if permanent > 0 {
        eprintln!("{permanent} config(s) failed permanently — see FAILED lines above");
        std::process::exit(1);
    }
}
