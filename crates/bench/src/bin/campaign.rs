//! Declarative experiment-campaign runner.
//!
//! ```text
//! cargo run --release -p qma-bench --bin campaign -- specs/<name>.toml [more specs...]
//! ```
//!
//! Options:
//!
//! * `--serial` — replications on one thread (bit-identical results),
//! * `--out-dir DIR` — artifact directory (also `QMA_BENCH_OUT_DIR`;
//!   default: the working directory),
//! * `--dry-run` — expand and list the config matrix without
//!   simulating,
//! * `--scheduler wheel|heap` — scheduling engine (default `wheel`;
//!   `heap` routes every event through the binary heap). Artifacts
//!   are byte-identical either way — the flag exists to prove exactly
//!   that, and to benchmark the boundary wheel against its fallback.
//! * `--rep-timeout-s S` — per-replication wall-clock watchdog: a
//!   replication exceeding `S` seconds becomes a `# FAILED` line
//!   (with its reproduction seed) instead of hanging the campaign.
//!
//! Distributed fabric options (see `campaign::fabric`):
//!
//! * `--workers N` — run `N` cooperating fabric workers in this
//!   process (lease-based work queue under `<out>/<name>.fabric/`).
//! * `--join DIR` — join (or start) the fabric in `DIR` as one
//!   worker. Launch the same command on several processes or hosts
//!   sharing `DIR`; they split the grid, survive each other's
//!   crashes, and any of them merges the final artifacts —
//!   byte-identical to a single-process `--serial` run.
//! * `--worker-id ID` — explicit fabric worker identity (default:
//!   process-id based).
//! * `--max-attempts M` — attempts before a config is quarantined
//!   (default 3).
//! * `--heartbeat-ms MS` / `--lease-stale-ms MS` — lease heartbeat
//!   cadence and staleness threshold (a dead worker's lease is
//!   reclaimed once its heartbeat is older than the threshold).
//!
//! Each spec produces `<name>.csv` and `<name>.json` in the artifact
//! directory. Re-running a half-finished campaign resumes: configs
//! whose rows already exist are skipped and re-emitted verbatim, so
//! the final artifacts are byte-identical to an uninterrupted run.
//!
//! A panicking replication is isolated: its config gets no artifact
//! row, a `# FAILED` line names the config, replication index, exact
//! seed and panic message (plus a reproduction command), the rest of
//! the grid still runs, and the process exits non-zero at the end.
//! Under the fabric, a config failing `--max-attempts` times is
//! quarantined with its reproduction seed; the grid still completes.

use std::path::PathBuf;
use std::time::Duration;

use qma_bench::campaign::fabric::{run_fabric_workers, FabricConfig};
use qma_bench::campaign::spec::CampaignSpec;
use qma_bench::campaign::{failure_report, run_campaign_opts, CampaignOptions, FailedRep};
use qma_bench::runner::Parallelism;
use qma_bench::BenchEnv;

struct Args {
    specs: Vec<PathBuf>,
    out_dir: PathBuf,
    mode: Parallelism,
    dry_run: bool,
    rep_timeout: Option<Duration>,
    /// `Some(n)` ⇒ fabric mode with `n` in-process workers.
    fabric_workers: Option<usize>,
    worker_id: Option<String>,
    max_attempts: u32,
    heartbeat: Duration,
    lease_stale: Duration,
}

fn parse_args() -> Result<Args, String> {
    let env = BenchEnv::from_env();
    let mut specs = Vec::new();
    let mut out_dir = env.out_dir_or_cwd();
    let mut mode = Parallelism::Rayon;
    let mut dry_run = false;
    let mut rep_timeout = None;
    let mut fabric_workers = None;
    let mut worker_id = None;
    let defaults = FabricConfig::default();
    let mut max_attempts = defaults.max_attempts;
    let mut heartbeat = defaults.heartbeat;
    let mut lease_stale = defaults.lease_stale;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--serial" => mode = Parallelism::Serial,
            "--dry-run" => dry_run = true,
            "--out-dir" => {
                out_dir = PathBuf::from(argv.next().ok_or("--out-dir needs a directory")?)
            }
            "--scheduler" => {
                match argv.next().as_deref() {
                    Some("wheel") => qma_netsim::set_default_scheduler_wheel(true),
                    Some("heap") => qma_netsim::set_default_scheduler_wheel(false),
                    other => {
                        return Err(format!(
                            "--scheduler needs `wheel` or `heap`, got {other:?}"
                        ))
                    }
                };
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
                let n = argv
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--workers needs a positive worker count")?;
                fabric_workers = Some(n);
            }
            "--join" => {
                out_dir = PathBuf::from(argv.next().ok_or("--join needs a directory")?);
                fabric_workers = Some(fabric_workers.unwrap_or(1));
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
                     [--scheduler wheel|heap] [--rep-timeout-s S] \
                     [--workers N] [--join DIR] [--worker-id ID] [--max-attempts M] \
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
        mode,
        dry_run,
        rep_timeout,
        fabric_workers,
        worker_id,
        max_attempts,
        heartbeat,
        lease_stale,
    })
}

/// What one spec's run produced, unified across the single-process
/// and fabric paths: the count of *permanent* failures — quarantined
/// configs on the fabric path, every failed config on the
/// single-process path (where there is no retry, so each failure is
/// final for exit-code purposes).
struct SpecResult {
    permanent: usize,
}

fn print_failures(path: &std::path::Path, failures: &[FailedRep]) {
    // One deterministic `# FAILED` report, sorted by (config, rep) —
    // byte-identical whether one process or N fabric workers observed
    // the failures.
    for line in failure_report(failures) {
        eprintln!("{line}");
    }
    for f in failures {
        eprintln!(
            "#   reproduce: cargo run --release -p qma-bench --bin campaign -- {} --serial   \
             (config `{}` has no artifact row, so it recomputes; seeds are content-addressed, \
             so rep {} re-runs under seed {})",
            path.display(),
            f.config_key,
            f.rep,
            f.seed
        );
    }
}

fn run_spec(args: &Args, path: &PathBuf) -> Result<Option<SpecResult>, String> {
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
        return Ok(None);
    }
    let started = std::time::Instant::now();
    if let Some(workers) = args.fabric_workers {
        let mut cfg = FabricConfig {
            max_attempts: args.max_attempts,
            heartbeat: args.heartbeat,
            lease_stale: args.lease_stale,
            rep_timeout: args.rep_timeout,
            mode: args.mode,
            ..FabricConfig::default()
        };
        if let Some(id) = &args.worker_id {
            cfg.worker_id.clone_from(id);
        }
        println!(
            "# fabric: {} worker(s) as '{}' on {} (max {} attempts, heartbeat {}ms, stale {}ms)",
            workers,
            cfg.worker_id,
            args.out_dir.join(format!("{}.fabric", spec.name)).display(),
            cfg.max_attempts,
            cfg.heartbeat.as_millis(),
            cfg.lease_stale.as_millis(),
        );
        let progress = |line: &str| println!("  {line}");
        let outcome = run_fabric_workers(&spec, &args.out_dir, &cfg, workers, &progress)?;
        let elapsed = started.elapsed().as_secs_f64();
        println!(
            "# {}: {} computed, {} resumed, {} lease(s) reclaimed, {} quarantined in {elapsed:.2}s",
            spec.name,
            outcome.executed,
            outcome.resumed,
            outcome.reclaimed,
            outcome.quarantined.len(),
        );
        println!("# wrote {}", outcome.csv_path.display());
        println!("# wrote {}", outcome.json_path.display());
        print_failures(path, &outcome.failures);
        return Ok(Some(SpecResult {
            permanent: outcome.quarantined.len(),
        }));
    }
    let opts = CampaignOptions {
        mode: args.mode,
        rep_timeout: args.rep_timeout,
    };
    let outcome = run_campaign_opts(&spec, &args.out_dir, &opts, |line| println!("  {line}"))?;
    let elapsed = started.elapsed().as_secs_f64();
    let events: u64 = outcome
        .rows
        .iter()
        .filter_map(|r| r.get("events_total")?.parse::<u64>().ok())
        .sum();
    // Wall-clock throughput goes to stdout only — the artifacts stay
    // host-independent.
    println!(
        "# {}: {} computed, {} resumed in {elapsed:.2}s ({:.0} events/sec wall)",
        spec.name,
        outcome.executed,
        outcome.skipped,
        if elapsed > 0.0 {
            events as f64 / elapsed
        } else {
            0.0
        }
    );
    println!("# wrote {}", outcome.csv_path.display());
    println!("# wrote {}", outcome.json_path.display());
    // Panic-isolated replications: each failure is reported with the
    // content-addressed seed and a standalone reproduction command;
    // the campaign still wrote every healthy config's rows.
    print_failures(path, &outcome.failures);
    Ok(Some(SpecResult {
        permanent: outcome.failures.len(),
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut permanent = 0usize;
    for path in &args.specs {
        match run_spec(&args, path) {
            Err(e) => {
                eprintln!("campaign failed: {e}");
                std::process::exit(1);
            }
            Ok(Some(result)) => permanent += result.permanent,
            Ok(None) => {}
        }
    }
    if permanent > 0 {
        eprintln!("{permanent} config(s) failed permanently — see FAILED lines above");
        std::process::exit(1);
    }
}
