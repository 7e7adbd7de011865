//! The fault-tolerant distributed campaign fabric.
//!
//! Every campaign run is a fabric run. N independent workers — threads
//! in one process (`--workers N`), separate processes, or processes on
//! different hosts pointing `--out-dir` at one shared mount —
//! cooperatively execute one campaign spec; a plain `campaign` run is
//! a fabric of one worker. Coordination is pure filesystem protocol
//! under `<out_dir>/<name>.fabric/`:
//!
//! * **Leases** (`leases/<stem>.lease`): a worker claims a config by
//!   atomically creating its lease file (`O_CREAT|O_EXCL` + fsync).
//!   The file carries the worker id, the attempt number and the
//!   canonical config key; a heartbeat thread renews it (tmp + rename
//!   refreshes the mtime) on a fixed cadence while the config runs.
//! * **Reclaim**: a lease whose mtime is older than the staleness
//!   threshold belongs to a dead worker (`kill -9`, OOM, power loss —
//!   anything that stops the heartbeat); any peer may remove it and
//!   re-execute the config. The removal renames the lease aside first
//!   and deletes only the stale lease it read, so two peers reclaiming
//!   one lease never delete the fresh lease one of them acquired.
//!   Re-execution is **benign by determinism**: a config's shard is a
//!   pure function of `(config key, master seed)`, so even the worst
//!   reclaim race — a presumed-dead worker finishing late — writes
//!   byte-identical bytes.
//! * **Backoff**: a worker finding every remaining config leased backs
//!   off with capped exponential delays indexed by the retry round —
//!   deterministic, no jitter, and no wall-clock value ever reaches an
//!   artifact.
//! * **Shards** (`shards/<stem>`): one rendered artifact row per
//!   completed config, written with the same tmp + rename discipline
//!   as the campaign artifacts (no torn shard can ever exist under its
//!   final name).
//! * **Quarantine** (`attempts/`, `quarantine/<stem>.json`): a config
//!   that fails `max_attempts` times — panic, watchdog timeout, or a
//!   worker death while holding its lease — is quarantined with its
//!   reproduction seed instead of wedging the grid. The grid still
//!   completes; only the poisoned config has no row.
//! * **Merge**: once every config is resolved (shard or quarantine),
//!   any worker folds the shards **in grid order** into the campaign's
//!   CSV/JSON artifacts — byte-identical whatever the worker count or
//!   pool width — and derives the failure report from the
//!   quarantine set with deterministic `(config key, rep)` ordering.
//!   The merge is idempotent; every worker may (and does) run it.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use qma_scenarios::ScenarioParams;

use super::agg::ConfigAggregate;
use super::artifact::{self, json_str, ArtifactRow, CampaignMeta};
use super::durable::{fsync_dir, rename_durable};
use super::grid::{fnv1a64, ConfigPoint};
use super::spec::CampaignSpec;
use super::{json_field, run_config, write_atomic, FailedRep};

/// Tuning knobs of one fabric worker.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Unique worker identity carried in lease files. Must differ
    /// between workers sharing a fabric directory; the default is
    /// process-id based, [`run_fabric_workers`] suffixes a thread
    /// index.
    pub worker_id: String,
    /// Attempts (across all workers) before a config is quarantined.
    pub max_attempts: u32,
    /// Lease heartbeat renewal cadence.
    pub heartbeat: Duration,
    /// A lease whose mtime is older than this is considered dead and
    /// may be reclaimed. Must be comfortably larger than the
    /// heartbeat (enforced: ≥ 2×).
    pub lease_stale: Duration,
    /// First backoff delay when every remaining config is leased.
    pub backoff_base: Duration,
    /// Backoff ceiling (capped exponential, round-indexed).
    pub backoff_cap: Duration,
    /// Per-replication wall-clock watchdog: a replication that takes
    /// longer becomes a [`FailedRep`] (with its reproduction seed)
    /// instead of hanging the worker. `None` disables the watchdog —
    /// and with it the per-replication helper-thread hop. It is the
    /// liveness complement to the heartbeat: a hung replication keeps
    /// heartbeating (the process is alive), so only the watchdog can
    /// turn it into a failed attempt.
    pub rep_timeout: Option<Duration>,
    /// Lame-duck flag: when this file exists, the worker acquires no
    /// new leases — it finishes the config it holds (if any), flushes
    /// its shard, and returns with [`FabricOutcome::drained`] set
    /// instead of spinning until the grid resolves. The service
    /// daemon's SIGTERM path creates the file; `None` (the default)
    /// disables the check entirely.
    pub drain_flag: Option<PathBuf>,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig {
            worker_id: format!("w{}", std::process::id()),
            max_attempts: 3,
            heartbeat: Duration::from_millis(500),
            lease_stale: Duration::from_secs(10),
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            rep_timeout: None,
            drain_flag: None,
        }
    }
}

impl FabricConfig {
    /// `true` once the worker's drain flag exists — the signal to
    /// stop acquiring leases and return.
    fn drain_requested(&self) -> bool {
        self.drain_flag.as_deref().is_some_and(Path::exists)
    }
}

/// A permanently failed config: `max_attempts` exhausted, removed
/// from the grid with everything needed to reproduce it standalone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Canonical key of the quarantined config.
    pub config_key: String,
    /// Attempts consumed (≥ the configured maximum).
    pub attempts: u32,
    /// The maximum that was in force.
    pub max_attempts: u32,
    /// Master seed the attempts ran under (staleness guard).
    pub master_seed: u64,
    /// Replication index of the recorded failure.
    pub rep: u64,
    /// The failing replication's content-addressed seed — the
    /// reproduction pointer.
    pub seed: u64,
    /// Failure message of the last recorded attempt.
    pub message: String,
}

impl QuarantineRecord {
    /// The record's [`FailedRep`] view, for the shared failure report.
    pub fn to_failed_rep(&self) -> FailedRep {
        FailedRep {
            config_key: self.config_key.clone(),
            rep: self.rep,
            seed: self.seed,
            message: self.message.clone(),
        }
    }

    fn render(&self) -> String {
        format!(
            "{{\n  \"config_key\": {},\n  \"attempts\": {},\n  \"max_attempts\": {},\n  \
             \"master_seed\": {},\n  \"rep\": {},\n  \"seed\": {},\n  \"message\": {}\n}}\n",
            json_str(&self.config_key),
            self.attempts,
            self.max_attempts,
            self.master_seed,
            self.rep,
            self.seed,
            json_str(&self.message),
        )
    }

    fn parse(text: &str) -> Option<QuarantineRecord> {
        Some(QuarantineRecord {
            config_key: json_string_field(text, "config_key")?,
            attempts: json_field(text, "attempts")?.parse().ok()?,
            max_attempts: json_field(text, "max_attempts")?.parse().ok()?,
            master_seed: json_field(text, "master_seed")?.parse().ok()?,
            rep: json_field(text, "rep")?.parse().ok()?,
            seed: json_field(text, "seed")?.parse().ok()?,
            message: json_string_field(text, "message")?,
        })
    }
}

/// What one [`run_fabric`] worker (and the merge it ran) did.
#[derive(Debug, Clone)]
pub struct FabricOutcome {
    /// Configs this worker executed to a shard itself.
    pub executed: usize,
    /// Configs resolved by other workers or a previous run.
    pub resumed: usize,
    /// Stale leases this worker reclaimed from dead peers.
    pub reclaimed: usize,
    /// `true` when the worker stopped early because its drain flag
    /// appeared while configs were still unresolved: no merge ran,
    /// [`FabricOutcome::rows`] is empty and the artifact paths may
    /// not exist yet. A later (or resumed) worker completes the
    /// campaign.
    pub drained: bool,
    /// Quarantined configs, in grid order — the permanent failures
    /// (the only condition a fabric run exits non-zero for).
    pub quarantined: Vec<QuarantineRecord>,
    /// The quarantine set as [`FailedRep`]s, for
    /// [`super::failure_report`].
    pub failures: Vec<FailedRep>,
    /// Path of the merged CSV artifact.
    pub csv_path: PathBuf,
    /// Path of the merged JSON artifact.
    pub json_path: PathBuf,
    /// All merged rows, in grid order.
    pub rows: Vec<ArtifactRow>,
}

/// The fabric's deterministic backoff: `base · 2^round`, capped.
/// Round-indexed and jitter-free, so the schedule is a pure function
/// of the configuration — no wall-clock value leaks anywhere near an
/// artifact.
pub fn backoff_delay(cfg: &FabricConfig, round: u32) -> Duration {
    let factor = 1u32 << round.min(16);
    cfg.backoff_cap.min(cfg.backoff_base.saturating_mul(factor))
}

/// The worker's deterministic de-synchronisation factor in `[0, 1)`:
/// FNV-1a over the worker id. A pure function of the id — the same
/// worker always jitters identically (reproducible schedules), while
/// distinct workers spread out instead of acting in lockstep.
fn worker_jitter01(worker_id: &str) -> f64 {
    (fnv1a64(worker_id.as_bytes()) % 1024) as f64 / 1024.0
}

/// The worker's heartbeat renewal cadence: the configured cadence
/// scaled into `[0.75, 1.0)` by the id-derived jitter. Renewing
/// *early* is always safe (a lease can only look fresher), so the
/// staleness threshold's `≥ 2× heartbeat` contract is unaffected —
/// while a fleet of workers started in the same instant stops
/// hammering the shared directory on one synchronized beat.
pub fn heartbeat_cadence(cfg: &FabricConfig) -> Duration {
    cfg.heartbeat
        .mul_f64(0.75 + 0.25 * worker_jitter01(&cfg.worker_id))
}

/// [`backoff_delay`] stretched into `[1.0, 1.5)` by the id-derived
/// jitter — the delay before a worker re-scans for stale leases when
/// everything is leased by peers. Without it, N workers that joined
/// together wake on the same round schedule and stampede the reclaim
/// scan (and the `remove_file` race) in lockstep; with it, their
/// scans interleave deterministically.
pub fn reclaim_scan_delay(cfg: &FabricConfig, round: u32) -> Duration {
    backoff_delay(cfg, round).mul_f64(1.0 + 0.5 * worker_jitter01(&cfg.worker_id))
}

/// The fabric coordination directory of one campaign.
struct FabricDirs {
    leases: PathBuf,
    shards: PathBuf,
    attempts: PathBuf,
    quarantine: PathBuf,
}

impl FabricDirs {
    fn new(out_dir: &Path, name: &str) -> FabricDirs {
        let root = out_dir.join(format!("{name}.fabric"));
        FabricDirs {
            leases: root.join("leases"),
            shards: root.join("shards"),
            attempts: root.join("attempts"),
            quarantine: root.join("quarantine"),
        }
    }

    fn create(&self) -> Result<(), String> {
        for dir in [&self.leases, &self.shards, &self.attempts, &self.quarantine] {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        Ok(())
    }

    fn lease(&self, stem: &str) -> PathBuf {
        self.leases.join(format!("{stem}.lease"))
    }

    fn shard(&self, stem: &str) -> PathBuf {
        self.shards.join(stem)
    }

    fn attempt(&self, stem: &str) -> PathBuf {
        self.attempts.join(format!("{stem}.json"))
    }

    fn quarantine(&self, stem: &str) -> PathBuf {
        self.quarantine.join(format!("{stem}.json"))
    }
}

/// Where the fabric under `out_dir` keeps the quarantine record of the
/// config with this [`ConfigPoint::stem`]. While the record exists,
/// every run skips the config; deleting it lets the next run retry.
pub fn quarantine_record_path(out_dir: &Path, campaign: &str, stem: &str) -> PathBuf {
    FabricDirs::new(out_dir, campaign).quarantine(stem)
}

/// A held lease: removing the file on drop releases it; a background
/// thread renews the heartbeat until then.
struct Lease {
    path: PathBuf,
    worker_id: String,
    stop: Option<std::sync::mpsc::Sender<()>>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

impl Lease {
    /// Tries to acquire the config's lease atomically. `Ok(None)`
    /// means a peer holds it.
    fn acquire(
        dirs: &FabricDirs,
        stem: &str,
        key: &str,
        cfg: &FabricConfig,
        attempt: u32,
    ) -> Result<Option<Lease>, String> {
        let path = dirs.lease(stem);
        let body = lease_body(&cfg.worker_id, attempt, key);
        // qma-lint: allow(raw-durability) — O_EXCL create_new IS the
        // atomic claim primitive; the body is fsynced below and the
        // directory entry is fsynced before the config runs.
        let mut file = match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(None),
            Err(e) => return Err(format!("acquire lease {}: {e}", path.display())),
        };
        file.write_all(body.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("write lease {}: {e}", path.display()))?;
        drop(file);
        // The claim must be durable before the config runs: a lease
        // whose directory entry evaporates in a power loss would let
        // two recovered workers run the same config concurrently
        // with neither able to see the other.
        fsync_dir(&dirs.leases)?;

        // The heartbeat thread renews the lease (refreshing its mtime
        // via tmp + rename) while the config runs; it dies with the
        // process, which is exactly what makes a killed worker's
        // lease go stale. Renewal is ownership-checked: if a peer
        // already reclaimed the lease (we were presumed dead), it is
        // theirs now — clobbering it would stall *their* heartbeat,
        // while our late shard write stays benign (byte-identical by
        // determinism).
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let hb_path = path.clone();
        let hb_id = cfg.worker_id.clone();
        // Id-jittered cadence (always ≤ the configured heartbeat):
        // a fleet of workers spawned together renews out of phase
        // instead of stampeding the directory in lockstep.
        let cadence = heartbeat_cadence(cfg);
        let heartbeat = std::thread::Builder::new()
            .name("qma-lease-heartbeat".into())
            .spawn(move || loop {
                match stopped.recv_timeout(cadence) {
                    Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        match std::fs::read_to_string(&hb_path) {
                            Ok(cur) if lease_owner(&cur) == Some(hb_id.as_str()) => {
                                let tmp = hb_path.with_extension(format!("renew-{hb_id}"));
                                // qma-lint: allow(raw-durability) — heartbeat renewal
                                // only bumps the lease mtime; a lost tmp write costs
                                // one renewal tick, and the publish itself still goes
                                // through rename_durable below.
                                let renewed = std::fs::write(&tmp, &cur)
                                    .map_err(|e| e.to_string())
                                    .and_then(|()| rename_durable(&tmp, &hb_path));
                                if renewed.is_err() {
                                    return;
                                }
                            }
                            // A peer checking a stale lease moves it aside
                            // for a moment and puts a live one back
                            // (`remove_stale_lease`): try again next tick.
                            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                            _ => return, // taken over or unreadable: stop renewing
                        }
                    }
                }
            })
            .map_err(|e| format!("spawn heartbeat: {e}"))?;
        Ok(Some(Lease {
            path,
            worker_id: cfg.worker_id.clone(),
            stop: Some(stop),
            heartbeat: Some(heartbeat),
        }))
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(stop) = self.stop.take() {
            let _ = stop.send(());
        }
        if let Some(hb) = self.heartbeat.take() {
            let _ = hb.join();
        }
        // Release only if still ours — a reclaimed-and-reacquired
        // lease belongs to the peer now.
        if let Ok(cur) = std::fs::read_to_string(&self.path) {
            if lease_owner(&cur) == Some(self.worker_id.as_str()) {
                let _ = std::fs::remove_file(&self.path);
            }
        }
    }
}

fn lease_body(worker_id: &str, attempt: u32, key: &str) -> String {
    format!("worker={worker_id}\nattempt={attempt}\nkey={key}\n")
}

fn lease_owner(body: &str) -> Option<&str> {
    body.lines().find_map(|l| l.strip_prefix("worker="))
}

fn lease_attempt(body: &str) -> Option<u32> {
    body.lines()
        .find_map(|l| l.strip_prefix("attempt="))
        .and_then(|v| v.parse().ok())
}

/// Quote-aware JSON string field extraction (the generic
/// [`json_field`] cuts at commas, which failure messages may
/// contain). Unescapes exactly what [`json_str`] escapes.
fn json_string_field(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let at = text.find(&needle)? + needle.len();
    let mut out = String::new();
    let mut chars = text[at..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(match chars.next()? {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let mut code = 0;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    char::from_u32(code)?
                }
                c => c,
            }),
            c => out.push(c),
        }
    }
}

/// Reads and validates the config's shard row. A shard written under
/// a different campaign setting (the stem is content-addressed by the
/// config key alone, so an edited master seed would otherwise reuse
/// stale bytes) is deleted and reported as absent — the config simply
/// recomputes.
fn shard_row(
    dirs: &FabricDirs,
    spec: &CampaignSpec,
    point: &ConfigPoint,
    stem: &str,
) -> Result<Option<ArtifactRow>, String> {
    let path = dirs.shard(stem);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read shard {}: {e}", path.display())),
    };
    let row =
        ArtifactRow::from_cells(shard_cells(&text)).map_err(|e| format!("shard {stem}: {e}"))?;
    if row.config_key() != point.key()
        || !row.matches_campaign(spec.scenario, spec.master_seed, spec.replications)
    {
        let _ = std::fs::remove_file(&path);
        return Ok(None);
    }
    Ok(Some(row))
}

/// A shard file's text split into its row's cells.
fn shard_cells(text: &str) -> Vec<String> {
    text.trim_end_matches('\n')
        .split(',')
        .map(str::to_string)
        .collect()
}

/// Reads a quarantine or attempt record, discarding one recorded
/// under a different campaign key/seed (stale fabric directory).
fn read_note(path: &Path, key: &str, master_seed: u64) -> Option<QuarantineRecord> {
    let text = std::fs::read_to_string(path).ok()?;
    let note = QuarantineRecord::parse(&text)?;
    if note.config_key != key || note.master_seed != master_seed {
        let _ = std::fs::remove_file(path);
        return None;
    }
    Some(note)
}

/// Returns the config's lease body if its heartbeat is stale —
/// without removing the lease. Reclaim is a two-step sequence (read
/// body, record the dead attempt, *then* [`remove_stale_lease`]) so
/// the dead worker's consumed attempt is durably on disk while the
/// stale lease file still blocks acquisition; removing first would
/// open a window where a racing acquirer reads the attempt count
/// without the death in it.
fn stale_lease_body(dirs: &FabricDirs, stem: &str, stale: Duration) -> Option<String> {
    let path = dirs.lease(stem);
    let meta = std::fs::metadata(&path).ok()?;
    let modified = meta.modified().ok()?;
    // qma-lint: allow(wall-clock) — lease staleness is real elapsed
    // time by design (detecting killed workers); never simulation state.
    let age = std::time::SystemTime::now().duration_since(modified).ok()?;
    if age <= stale {
        return None;
    }
    std::fs::read_to_string(&path).ok()
}

/// Removes a stale lease once its dead attempt is recorded: the lease
/// whose body the caller read as stale (`stale_body`), and only while
/// it is still stale. The inspection and the removal are one step. The
/// reclaimer first renames the lease aside under a name of its own, so
/// no peer can change what it inspects. If the file it moved is not
/// that stale lease — a peer reclaimed it first and acquired a fresh
/// one, or the owner's late heartbeat renewed it — the file goes back
/// under the lease name without overwriting anything (a hard link, then
/// the aside name is removed). A check-then-remove on the lease path
/// itself could delete a peer's fresh lease and run the config twice.
/// A double-recorded dead attempt is harmless (attempt accounting is
/// monotonic — see [`record_attempt`]).
fn remove_stale_lease(
    dirs: &FabricDirs,
    stem: &str,
    stale: Duration,
    stale_body: &str,
    reclaimer: &str,
) -> bool {
    let path = dirs.lease(stem);
    #[cfg(test)]
    if let Some(peer) = RECLAIM_HOOK.with(|hook| hook.borrow_mut().take()) {
        peer();
    }
    let aside = path.with_extension(format!("reclaim-{reclaimer}"));
    // qma-lint: allow(raw-durability) — the move makes the inspection
    // below atomic, not durable: the file is deleted or restored right
    // after, and a reclaim lost to a power cut is simply redone.
    if std::fs::rename(&path, &aside).is_err() {
        return false; // released, or a peer moved it first
    }
    let still_stale = std::fs::read_to_string(&aside).is_ok_and(|moved| moved == stale_body)
        && std::fs::metadata(&aside)
            .and_then(|meta| meta.modified())
            .ok()
            // qma-lint: allow(wall-clock) — last-instant staleness recheck
            // before removing a dead peer's lease; real time by design.
            .and_then(|m| std::time::SystemTime::now().duration_since(m).ok())
            .is_some_and(|age| age > stale);
    if !still_stale {
        let _ = std::fs::hard_link(&aside, &path);
    }
    let _ = std::fs::remove_file(&aside);
    still_stale
}

#[cfg(test)]
thread_local! {
    /// Runs inside this thread's next [`remove_stale_lease`], between
    /// the caller's staleness check and the move: a unit test plays a
    /// racing peer there.
    static RECLAIM_HOOK: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
}

/// How one config executes inside a fabric worker. Production is
/// [`run_config`] (real simulations); the state-machine property
/// tests inject scripted executors to drive hundreds of
/// claim/crash/reclaim/retry interleavings without simulating.
pub(crate) type ConfigRunner<'a> = dyn Fn(
        &CampaignSpec,
        &ConfigPoint,
        &ScenarioParams,
        &FabricConfig,
    ) -> Result<ConfigAggregate, FailedRep>
    + Sync
    + 'a;

/// Runs one fabric worker over the spec until every config is
/// resolved, then merges. See the module docs for the protocol.
pub fn run_fabric(
    spec: &CampaignSpec,
    out_dir: &Path,
    cfg: &FabricConfig,
    progress: &(dyn Fn(&str) + Sync),
) -> Result<FabricOutcome, String> {
    run_fabric_with(spec, out_dir, cfg, progress, &run_config)
}

/// [`run_fabric`] with an injected per-config executor.
pub(crate) fn run_fabric_with(
    spec: &CampaignSpec,
    out_dir: &Path,
    cfg: &FabricConfig,
    progress: &(dyn Fn(&str) + Sync),
    exec: &ConfigRunner,
) -> Result<FabricOutcome, String> {
    if cfg.lease_stale < cfg.heartbeat * 2 {
        return Err(format!(
            "lease_stale ({:?}) must be at least twice the heartbeat ({:?}) — \
             a live worker would look dead between renewals",
            cfg.lease_stale, cfg.heartbeat
        ));
    }
    if cfg.max_attempts == 0 {
        return Err("max_attempts must be at least 1".into());
    }
    let points = spec.expand()?;
    let params: Vec<ScenarioParams> = points
        .iter()
        .map(|point| {
            point
                .scenario_params()
                .and_then(|p| p.validate_for(spec.scenario).map(|()| p))
                .map_err(|e| format!("config {}: {e}", point.key()))
        })
        .collect::<Result<_, _>>()?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let dirs = FabricDirs::new(out_dir, &spec.name);
    dirs.create()?;

    let mut executed = 0usize;
    let mut reclaimed = 0usize;
    let mut round = 0u32;
    loop {
        // One pass over the grid. A pass makes progress by executing,
        // failing (attempt recorded — retried next pass) or
        // quarantining a config; a pass that leaves zero configs
        // unresolved ends the run. A pass that cannot progress at
        // all — every remaining config is leased by a peer — reclaims
        // stale leases or backs off.
        let mut unresolved = 0usize;
        let mut leased_by_peers: Vec<usize> = Vec::new();
        let mut progressed = false;
        for (i, (point, p)) in points.iter().zip(&params).enumerate() {
            let stem = point.stem();
            let key = point.key();
            let resolved = shard_row(&dirs, spec, point, &stem)?.is_some()
                || read_note(&dirs.quarantine(&stem), &key, spec.master_seed).is_some();
            if resolved {
                continue;
            }
            // A config counts as unresolved only if it still is once
            // its own iteration ends: one this worker resolves here
            // (shard or quarantine) must not hold the grid open, nor
            // be counted twice when a drain stops the worker.
            if cfg.drain_requested() {
                // Lame duck: finish nothing new. The config stays
                // unresolved for a peer or a restart to pick up.
                unresolved += 1;
                continue;
            }
            let attempts = read_note(&dirs.attempt(&stem), &key, spec.master_seed)
                .map(|n| n.attempts)
                .unwrap_or(0);
            if attempts >= cfg.max_attempts {
                // A peer recorded the final failed attempt but died
                // before promoting it (or we just did, below, on a
                // prior round): promote to quarantine so the grid can
                // complete.
                promote_to_quarantine(&dirs, &stem, &key, spec, progress)?;
                progressed = true;
                continue;
            }
            let Some(lease) = Lease::acquire(&dirs, &stem, &key, cfg, attempts + 1)? else {
                unresolved += 1;
                leased_by_peers.push(i);
                continue;
            };
            // The attempt count was read before the acquire; only the
            // lease serializes attempt accounting. If a peer's reclaim
            // recorded a dead attempt in between, the lease body (and
            // the attempt number any failure below would record) is
            // stale — release and re-read on the next pass.
            let under_lease = read_note(&dirs.attempt(&stem), &key, spec.master_seed)
                .map(|n| n.attempts)
                .unwrap_or(0);
            if under_lease != attempts {
                drop(lease);
                unresolved += 1;
                progressed = true;
                continue;
            }
            progressed = true;
            progress(&format!(
                "[{}/{}] {key} — attempt {}/{} (worker {})",
                i + 1,
                points.len(),
                attempts + 1,
                cfg.max_attempts,
                cfg.worker_id
            ));
            match exec(spec, point, p, cfg) {
                Ok(agg) => {
                    let row =
                        ArtifactRow::from_aggregate(&key, spec.scenario, spec.master_seed, &agg);
                    write_atomic(&dirs.shard(&stem), &format!("{}\n", row.to_csv_line()))?;
                    executed += 1;
                    progress(&format!(
                        "[{}/{}] {key} — pdr {} ± {}, {} events",
                        i + 1,
                        points.len(),
                        row.get("pdr_mean").unwrap_or("?"),
                        row.get("pdr_ci95").unwrap_or("?"),
                        row.get("events_total").unwrap_or("?"),
                    ));
                }
                Err(fail) => {
                    let consumed = attempts + 1;
                    record_attempt(&dirs, &stem, spec, cfg, consumed, &fail)?;
                    progress(&format!(
                        "[{}/{}] {key} — FAILED attempt {}/{} at rep {} (seed {}): {}",
                        i + 1,
                        points.len(),
                        consumed,
                        cfg.max_attempts,
                        fail.rep,
                        fail.seed,
                        fail.message
                    ));
                    if consumed >= cfg.max_attempts {
                        promote_to_quarantine(&dirs, &stem, &key, spec, progress)?;
                    } else {
                        unresolved += 1;
                    }
                }
            }
            drop(lease);
        }
        if unresolved == 0 {
            break;
        }
        if cfg.drain_requested() {
            // Configs remain but the worker must not take them:
            // report a clean partial stop, no merge. Everything
            // already shard-written stays durable for whoever
            // finishes the campaign.
            progress(&format!(
                "worker {} draining: {unresolved} config(s) left unresolved",
                cfg.worker_id
            ));
            return Ok(FabricOutcome {
                executed,
                resumed: points.len() - unresolved - executed,
                reclaimed,
                drained: true,
                quarantined: Vec::new(),
                failures: Vec::new(),
                csv_path: out_dir.join(format!("{}.csv", spec.name)),
                json_path: out_dir.join(format!("{}.json", spec.name)),
                rows: Vec::new(),
            });
        }
        if progressed {
            round = 0;
            continue;
        }
        // Everything left is leased by peers: reclaim what is stale,
        // otherwise back off deterministically and re-scan.
        let mut reclaimed_now = 0usize;
        for &i in &leased_by_peers {
            let point = &points[i];
            let stem = point.stem();
            let Some(body) = stale_lease_body(&dirs, &stem, cfg.lease_stale) else {
                continue;
            };
            // The dead worker's in-flight attempt counts: a config
            // that reliably kills its worker must converge on
            // quarantine instead of killing every worker that ever
            // joins the fabric. Record it while the stale lease still
            // blocks acquisition, then remove the lease.
            let dead_attempt = lease_attempt(&body).unwrap_or(1);
            let owner = lease_owner(&body).unwrap_or("?").to_string();
            let key = point.key();
            let fail = FailedRep {
                config_key: key.clone(),
                rep: 0,
                seed: point.seed_stream(spec.master_seed).derive(0).seed(),
                message: format!(
                    "worker '{owner}' died or hung mid-config (lease went stale \
                     at attempt {dead_attempt}; reclaimed)"
                ),
            };
            record_attempt(&dirs, &stem, spec, cfg, dead_attempt, &fail)?;
            if remove_stale_lease(&dirs, &stem, cfg.lease_stale, &body, &cfg.worker_id) {
                progress(&format!(
                    "reclaimed stale lease of worker '{owner}' on {key} (attempt {dead_attempt})"
                ));
                reclaimed_now += 1;
            }
        }
        if reclaimed_now > 0 {
            reclaimed += reclaimed_now;
            round = 0;
            continue;
        }
        std::thread::sleep(reclaim_scan_delay(cfg, round));
        round = round.saturating_add(1);
    }

    // Every config is resolved: fold the shards in grid order. Any
    // worker may do this — the write is atomic and the bytes are a
    // pure function of the resolved set.
    let (rows, quarantined) = merge(spec, &points, &dirs)?;
    let csv_path = out_dir.join(format!("{}.csv", spec.name));
    let json_path = out_dir.join(format!("{}.json", spec.name));
    write_atomic(&csv_path, &artifact::render_csv(&rows))?;
    let meta = CampaignMeta {
        name: spec.name.clone(),
        scenario: spec.scenario,
        master_seed: spec.master_seed,
        replications: spec.replications,
    };
    write_atomic(&json_path, &artifact::render_json(&meta, &rows))?;

    let failures: Vec<FailedRep> = quarantined
        .iter()
        .map(QuarantineRecord::to_failed_rep)
        .collect();
    Ok(FabricOutcome {
        executed,
        resumed: points.len() - executed - quarantined.len(),
        reclaimed,
        drained: false,
        quarantined,
        failures,
        csv_path,
        json_path,
        rows,
    })
}

/// Records a failed attempt. Monotonic: live workers record under
/// the config's lease, but a reclaimer records a dead worker's
/// attempt without one, so concurrent recorders are possible — the
/// consumed-attempt count must never roll backwards or the budget a
/// poisoned config burns before quarantine becomes unbounded.
fn record_attempt(
    dirs: &FabricDirs,
    stem: &str,
    spec: &CampaignSpec,
    cfg: &FabricConfig,
    attempts: u32,
    fail: &FailedRep,
) -> Result<(), String> {
    if read_note(&dirs.attempt(stem), &fail.config_key, spec.master_seed)
        .is_some_and(|existing| existing.attempts >= attempts)
    {
        return Ok(());
    }
    let note = QuarantineRecord {
        config_key: fail.config_key.clone(),
        attempts,
        max_attempts: cfg.max_attempts,
        master_seed: spec.master_seed,
        rep: fail.rep,
        seed: fail.seed,
        message: fail.message.clone(),
    };
    write_atomic(&dirs.attempt(stem), &note.render())
}

/// Promotes the config's recorded attempts into a quarantine record.
fn promote_to_quarantine(
    dirs: &FabricDirs,
    stem: &str,
    key: &str,
    spec: &CampaignSpec,
    progress: &(dyn Fn(&str) + Sync),
) -> Result<(), String> {
    let note = read_note(&dirs.attempt(stem), key, spec.master_seed).ok_or_else(|| {
        format!("config {key}: attempt record vanished before quarantine promotion")
    })?;
    write_atomic(&dirs.quarantine(stem), &note.render())?;
    progress(&format!(
        "QUARANTINED {key} after {} attempt(s) — reproduce with rep {} seed {}: {}",
        note.attempts, note.rep, note.seed, note.message
    ));
    Ok(())
}

/// Folds the per-config shards into the campaign's rows, in grid
/// order — so the bytes do not depend on which worker finished which
/// config. Quarantined configs contribute no row.
fn merge(
    spec: &CampaignSpec,
    points: &[ConfigPoint],
    dirs: &FabricDirs,
) -> Result<(Vec<ArtifactRow>, Vec<QuarantineRecord>), String> {
    let mut rows = Vec::with_capacity(points.len());
    let mut quarantined = Vec::new();
    for point in points {
        let stem = point.stem();
        let key = point.key();
        if let Some(note) = read_note(&dirs.quarantine(&stem), &key, spec.master_seed) {
            quarantined.push(note);
            continue;
        }
        match shard_row(dirs, spec, point, &stem)? {
            Some(row) => rows.push(row),
            None => {
                return Err(format!(
                    "merge: config {key} has neither shard nor quarantine record \
                     (fabric directory mutated underfoot?)"
                ))
            }
        }
    }
    Ok((rows, quarantined))
}

/// Spawns `workers` in-process fabric workers (scoped threads) over
/// one spec and combines their outcomes. The merged artifacts are
/// identical whichever worker wrote them last; per-worker counters
/// are summed.
pub fn run_fabric_workers(
    spec: &CampaignSpec,
    out_dir: &Path,
    cfg: &FabricConfig,
    workers: usize,
    progress: &(dyn Fn(&str) + Sync),
) -> Result<FabricOutcome, String> {
    if workers <= 1 {
        return run_fabric(spec, out_dir, cfg, progress);
    }
    let outcomes: Vec<Result<FabricOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let mut wcfg = cfg.clone();
                wcfg.worker_id = format!("{}-t{t}", cfg.worker_id);
                scope.spawn(move || run_fabric(spec, out_dir, &wcfg, progress))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("fabric worker panicked".into()))
            })
            .collect()
    });
    let mut combined: Option<FabricOutcome> = None;
    let mut executed = 0usize;
    let mut reclaimed = 0usize;
    for outcome in outcomes {
        let outcome = outcome?;
        executed += outcome.executed;
        reclaimed += outcome.reclaimed;
        combined = Some(outcome);
    }
    let mut combined = combined.expect("workers >= 1");
    combined.executed = executed;
    combined.reclaimed = reclaimed;
    combined.resumed = spec
        .expand()
        .map(|p| p.len())
        .unwrap_or(0)
        .saturating_sub(executed + combined.quarantined.len());
    Ok(combined)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine's byte reference: `tests/golden/tiny.toml` and the
    /// artifacts it produced when they were committed.
    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::parse(include_str!("../../tests/golden/tiny.toml")).unwrap()
    }

    /// Asserts that a merged run wrote exactly the golden artifacts.
    fn assert_golden(out: &FabricOutcome) {
        assert_eq!(
            std::fs::read(&out.csv_path).unwrap(),
            include_bytes!("../../tests/golden/tiny.csv"),
            "CSV differs from tests/golden/tiny.csv"
        );
        assert_eq!(
            std::fs::read(&out.json_path).unwrap(),
            include_bytes!("../../tests/golden/tiny.json"),
            "JSON differs from tests/golden/tiny.json"
        );
    }

    fn poisoned_spec(name: &str) -> CampaignSpec {
        // The chaos config with a −100 ms skew and a 4-clamp budget
        // panics deterministically on every attempt; its sibling with
        // no skew completes.
        CampaignSpec::parse(&format!(
            r#"
[campaign]
name = "{name}"
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
"#
        ))
        .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qma-fabric-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fast_cfg(id: &str) -> FabricConfig {
        FabricConfig {
            worker_id: id.into(),
            heartbeat: Duration::from_millis(25),
            // Generous vs the heartbeat so a CI scheduling stall never
            // triggers a spurious reclaim (which would double-count
            // `executed` — harmless for bytes, fatal for the asserts).
            lease_stale: Duration::from_millis(800),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            ..FabricConfig::default()
        }
    }

    #[test]
    fn single_worker_matches_golden_and_resumes_verbatim() {
        let fabric_dir = tmp_dir("one");
        let spec = tiny_spec();
        let out = run_fabric(&spec, &fabric_dir, &fast_cfg("w0"), &|_| {}).unwrap();
        assert_eq!(out.executed, 2);
        assert_eq!(out.resumed, 0);
        assert!(out.quarantined.is_empty());
        assert_golden(&out);
        assert_eq!(
            std::fs::read_dir(FabricDirs::new(&fabric_dir, &spec.name).leases)
                .unwrap()
                .count(),
            0,
            "a clean run must release every lease"
        );

        // Re-joining a finished fabric resumes everything and merges
        // to the same bytes.
        let again = run_fabric(&spec, &fabric_dir, &fast_cfg("w1"), &|_| {}).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.resumed, 2);
        assert_golden(&again);
        let _ = std::fs::remove_dir_all(&fabric_dir);
    }

    #[test]
    fn three_workers_split_the_grid_and_merge_identically() {
        let fabric_dir = tmp_dir("three");
        let out =
            run_fabric_workers(&tiny_spec(), &fabric_dir, &fast_cfg("w"), 3, &|_| {}).unwrap();
        assert_eq!(out.executed, 2, "each config must execute exactly once");
        assert!(out.quarantined.is_empty());
        assert_golden(&out);
        let _ = std::fs::remove_dir_all(&fabric_dir);
    }

    #[test]
    fn poisoned_config_is_quarantined_and_grid_completes() {
        let fabric_dir = tmp_dir("quarantine");
        let spec = poisoned_spec("t");
        let mut cfg = fast_cfg("w0");
        cfg.max_attempts = 2;
        let mut notes = Vec::new();
        let notes_sink = std::sync::Mutex::new(&mut notes);
        let out = run_fabric(&spec, &fabric_dir, &cfg, &|line| {
            notes_sink.lock().unwrap().push(line.to_string());
        })
        .unwrap();
        assert_eq!(out.executed, 1, "healthy config must still complete");
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert!(q.config_key.contains("skew_us=-100000"));
        assert_eq!(q.attempts, 2);
        assert_eq!(q.rep, 0, "lowest panicking rep must be reported");
        assert!(q.message.contains("past-clamp budget exceeded"));
        let point = spec
            .expand()
            .unwrap()
            .into_iter()
            .find(|p| p.key() == q.config_key)
            .unwrap();
        assert_eq!(
            q.seed,
            point.seed_stream(spec.master_seed).derive(0).seed(),
            "reported seed must be the replication's actual stream seed"
        );
        assert!(
            notes.iter().any(|l| l.contains("QUARANTINED")),
            "quarantine not narrated: {notes:?}"
        );
        // Header + exactly the healthy config's row.
        let csv = std::fs::read_to_string(&out.csv_path).unwrap();
        assert_eq!(csv.lines().count(), 2);

        // A later worker must not retry the quarantined config.
        let again = run_fabric(&spec, &fabric_dir, &fast_cfg("w1"), &|_| {}).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.quarantined.len(), 1);
        let _ = std::fs::remove_dir_all(&fabric_dir);
    }

    #[test]
    fn stale_lease_is_reclaimed_and_config_reexecuted() {
        let fabric_dir = tmp_dir("reclaim");
        let spec = tiny_spec();
        let cfg = fast_cfg("w0");

        // Fake a dead worker: a lease with no heartbeat behind it.
        let dirs = FabricDirs::new(&fabric_dir, &spec.name);
        dirs.create().unwrap();
        let victim_point = &spec.expand().unwrap()[0];
        std::fs::write(
            dirs.lease(&victim_point.stem()),
            lease_body("victim", 1, &victim_point.key()),
        )
        .unwrap();

        let out = run_fabric(&spec, &fabric_dir, &cfg, &|_| {}).unwrap();
        assert_eq!(
            out.reclaimed, 1,
            "the dead worker's lease must be reclaimed"
        );
        assert_eq!(out.executed, 2, "the reclaimed config must re-execute");
        assert!(out.quarantined.is_empty());
        assert_golden(&out);
        let _ = std::fs::remove_dir_all(&fabric_dir);
    }

    /// Two workers reclaim one dead lease. The slower one read the
    /// stale body, then stalls just before its removal; meanwhile the
    /// faster one reclaims the lease and acquires a fresh one. The
    /// slower reclaim must leave that fresh lease in place.
    #[test]
    fn a_late_reclaim_never_removes_a_fresh_lease() {
        let fabric_dir = tmp_dir("reclaim-race");
        let dirs = FabricDirs::new(&fabric_dir, "race");
        dirs.create().unwrap();
        let stem = "cfg";
        let lease = dirs.lease(stem);
        std::fs::write(&lease, lease_body("victim", 1, "k=1")).unwrap();
        let long_dead = std::time::SystemTime::now() - Duration::from_secs(3600);
        std::fs::File::options()
            .write(true)
            .open(&lease)
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_modified(long_dead))
            .unwrap();
        let stale = Duration::from_secs(600);
        let body = stale_lease_body(&dirs, stem, stale).expect("the planted lease is stale");

        let fast_dirs = FabricDirs::new(&fabric_dir, "race");
        let fast_body = body.clone();
        RECLAIM_HOOK.with(|hook| {
            *hook.borrow_mut() = Some(Box::new(move || {
                assert!(remove_stale_lease(
                    &fast_dirs, stem, stale, &fast_body, "fast"
                ));
                std::fs::write(fast_dirs.lease(stem), lease_body("fast", 2, "k=1")).unwrap();
            }));
        });
        assert!(
            !remove_stale_lease(&dirs, stem, stale, &body, "slow"),
            "the slower reclaimer must find no stale lease left"
        );
        assert_eq!(
            std::fs::read_to_string(&lease).ok(),
            Some(lease_body("fast", 2, "k=1")),
            "the fresh lease must survive the late reclaim"
        );
        let left: Vec<_> = std::fs::read_dir(&dirs.leases)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left.len(), 1, "aside copies left behind: {left:?}");
        let _ = std::fs::remove_dir_all(&fabric_dir);
    }

    #[test]
    fn stale_shards_from_an_edited_seed_are_recomputed() {
        // Editing the spec's master seed or replication count must
        // not silently reuse shards computed under the old setting —
        // that would break the "fixed master seed ⇒ byte-identical
        // artifacts" guarantee.
        let mut reseeded = tiny_spec();
        reseeded.master_seed = 7;
        let mut more_reps = tiny_spec();
        more_reps.replications = 3;
        for (tag, edited) in [("seed", reseeded), ("reps", more_reps)] {
            let fabric_dir = tmp_dir(&format!("edit-{tag}"));
            let fresh_dir = tmp_dir(&format!("edit-{tag}-fresh"));
            run_fabric(&tiny_spec(), &fabric_dir, &fast_cfg("w0"), &|_| {}).unwrap();
            let out = run_fabric(&edited, &fabric_dir, &fast_cfg("w1"), &|_| {}).unwrap();
            assert_eq!(
                (out.executed, out.resumed),
                (2, 0),
                "{tag}: stale shards must not satisfy the edited spec"
            );
            let fresh = run_fabric(&edited, &fresh_dir, &fast_cfg("w2"), &|_| {}).unwrap();
            assert_eq!(
                std::fs::read(&out.csv_path).unwrap(),
                std::fs::read(&fresh.csv_path).unwrap(),
                "{tag}"
            );
            let _ = std::fs::remove_dir_all(&fabric_dir);
            let _ = std::fs::remove_dir_all(&fresh_dir);
        }
    }

    #[test]
    fn rep_timeout_watchdog_converts_a_slow_rep_into_a_failed_rep() {
        // A 1 ms budget against replications that are slow by
        // construction: every config must fail through the watchdog,
        // each failure carrying its reproduction seed; the grid still
        // completes (no rows). A generous budget must change nothing.
        //
        // Each config is 32 hidden QMA sources ticking through 100 s
        // of warm-up and 300 packets each: about 1M events, ~80 ms in
        // a release build and under a second in a debug build, where
        // the two detached over-budget threads run to completion.
        // (`tiny_spec` replications finish inside 1 ms in release.)
        let dir = tmp_dir("watchdog");
        let slow = CampaignSpec::parse(
            r#"
[campaign]
name = "t"
scenario = "hidden_node"
seed = 11
replications = 2

[fixed]
mac = "qma"
nodes = 33
packets = 300

[grid]
delta = [25.0, 50.0]
"#,
        )
        .unwrap();
        // One attempt per config, so exactly one thread per config
        // is detached.
        let strict = FabricConfig {
            max_attempts: 1,
            rep_timeout: Some(Duration::from_millis(1)),
            ..fast_cfg("w0")
        };
        let out = run_fabric(&slow, &dir, &strict, &|_| {}).unwrap();
        assert_eq!(out.executed, 0);
        assert_eq!(out.failures.len(), 2, "every config must trip the watchdog");
        for fail in &out.failures {
            assert!(
                fail.message.contains("wall-clock watchdog"),
                "unhelpful watchdog message: {}",
                fail.message
            );
            let point = slow
                .expand()
                .unwrap()
                .into_iter()
                .find(|p| p.key() == fail.config_key)
                .unwrap();
            assert_eq!(
                fail.seed,
                point.seed_stream(slow.master_seed).derive(fail.rep).seed(),
                "watchdog failure must carry the replication's stream seed"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);

        // The watchdog hop must not perturb determinism.
        let generous = FabricConfig {
            rep_timeout: Some(Duration::from_secs(600)),
            ..fast_cfg("w0")
        };
        let out = run_fabric(&tiny_spec(), &dir, &generous, &|_| {}).unwrap();
        assert_eq!(out.executed, 2);
        assert!(out.failures.is_empty());
        assert_golden(&out);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_specific_constraints_are_enforced() {
        // A fluctuating campaign whose horizon ends before the
        // 160–200 s measurement window must be rejected up front.
        let dir = tmp_dir("short");
        let spec = CampaignSpec::parse(
            r#"
[campaign]
name = "t"
scenario = "fluctuating"

[fixed]
duration_s = 150
"#,
        )
        .unwrap();
        let err = run_fabric(&spec, &dir, &fast_cfg("w0"), &|_| {}).unwrap_err();
        assert!(err.contains("duration_s"), "unhelpful error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_grid_point_fails_before_running() {
        let dir = tmp_dir("invalid");
        let mut spec = tiny_spec();
        spec.grid.push((
            "nodes".into(),
            vec![crate::campaign::grid::ParamValue::Int(1)], // < 2 nodes is invalid
        ));
        let err = run_fabric(&spec, &dir, &fast_cfg("w0"), &|_| {}).unwrap_err();
        assert!(err.contains("nodes"), "unhelpful error: {err}");
        for left in ["tiny.csv", "tiny.fabric"] {
            assert!(
                !dir.join(left).exists(),
                "a rejected campaign must not leave {left} behind"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let cfg = FabricConfig {
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(400),
            ..FabricConfig::default()
        };
        let delays: Vec<u64> = (0..8)
            .map(|r| backoff_delay(&cfg, r).as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![25, 50, 100, 200, 400, 400, 400, 400]);
        // Round-indexed pure function: same inputs, same schedule.
        assert_eq!(backoff_delay(&cfg, 3), backoff_delay(&cfg, 3));
        // No overflow panic at absurd rounds.
        assert_eq!(backoff_delay(&cfg, u32::MAX), Duration::from_millis(400));
    }

    #[test]
    fn quarantine_record_roundtrips_through_json() {
        let note = QuarantineRecord {
            config_key: "mac=qma;skew_us=-100000".into(),
            attempts: 3,
            max_attempts: 3,
            master_seed: 11,
            rep: 0,
            seed: 0xDEAD_BEEF,
            message: "assertion `left == right` failed: \"budget, exceeded\"\n  \
                      left: 2\n right:\t3\r\u{1}"
                .into(),
        };
        let rendered = note.render();
        // Control characters are escaped, so the record keeps one line
        // per field and stays valid JSON.
        assert_eq!(rendered.lines().count(), 9, "{rendered}");
        let parsed = QuarantineRecord::parse(&rendered).unwrap();
        assert_eq!(
            parsed, note,
            "commas, quotes and control characters in messages must survive"
        );
    }

    #[test]
    fn worker_jitter_is_deterministic_and_bounded() {
        let mk = |id: &str| FabricConfig {
            worker_id: id.into(),
            heartbeat: Duration::from_millis(400),
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(400),
            ..FabricConfig::default()
        };
        for id in ["w0", "w1", "host-a-t7", "w0g3"] {
            let cfg = mk(id);
            // Pure function of the id: identical across calls.
            assert_eq!(heartbeat_cadence(&cfg), heartbeat_cadence(&cfg));
            assert_eq!(reclaim_scan_delay(&cfg, 2), reclaim_scan_delay(&cfg, 2));
            // Heartbeat only ever shrinks (renewing early is safe), so
            // the `lease_stale ≥ 2× heartbeat` contract stays intact.
            let hb = heartbeat_cadence(&cfg);
            assert!(hb <= cfg.heartbeat, "{id}: {hb:?}");
            assert!(hb >= cfg.heartbeat.mul_f64(0.75), "{id}: {hb:?}");
            // Reclaim scan only ever stretches.
            let scan = reclaim_scan_delay(&cfg, 2);
            assert!(scan >= backoff_delay(&cfg, 2), "{id}: {scan:?}");
            assert!(
                scan <= backoff_delay(&cfg, 2).mul_f64(1.5),
                "{id}: {scan:?}"
            );
        }
        // Distinct ids de-synchronize (the point of the jitter).
        assert_ne!(heartbeat_cadence(&mk("w0")), heartbeat_cadence(&mk("w1")));
    }

    #[test]
    fn drain_flag_stops_lease_acquisition_and_resumes_cleanly() {
        let fabric_dir = tmp_dir("drain");
        let spec = tiny_spec();
        let flag = fabric_dir.join("drain.flag");
        std::fs::create_dir_all(&fabric_dir).unwrap();
        std::fs::write(&flag, "drain\n").unwrap();
        let mut cfg = fast_cfg("w0");
        cfg.drain_flag = Some(flag.clone());

        // A pre-drained worker takes nothing and merges nothing.
        let out = run_fabric(&spec, &fabric_dir, &cfg, &|_| {}).unwrap();
        assert!(out.drained);
        assert_eq!(out.executed, 0);
        assert!(!out.csv_path.exists(), "a drained worker must not merge");

        // Clearing the flag resumes to the golden artifacts.
        std::fs::remove_file(&flag).unwrap();
        let out = run_fabric(&spec, &fabric_dir, &cfg, &|_| {}).unwrap();
        assert!(!out.drained);
        assert_eq!(out.executed, 2);
        assert_golden(&out);
        let _ = std::fs::remove_dir_all(&fabric_dir);
    }

    /// Runs `tiny_spec` through one worker whose executor raises the
    /// drain flag while it runs the grid's `nth` config. Returns the
    /// fabric directory, the flag and the worker's outcome.
    fn drain_during(tag: &str, nth: usize) -> (PathBuf, PathBuf, FabricOutcome) {
        let dir = tmp_dir(tag);
        let spec = tiny_spec();
        let flag = dir.join("drain.flag");
        let cfg = FabricConfig {
            drain_flag: Some(flag.clone()),
            ..fast_cfg("w0")
        };
        let raise_on = spec.expand().unwrap()[nth].key();
        let exec = |spec: &CampaignSpec,
                    point: &ConfigPoint,
                    params: &ScenarioParams,
                    cfg: &FabricConfig| {
            if point.key() == raise_on {
                std::fs::write(&flag, "drain\n").unwrap();
            }
            run_config(spec, point, params, cfg)
        };
        let out = run_fabric_with(&spec, &dir, &cfg, &|_| {}, &exec).unwrap();
        (dir, flag, out)
    }

    #[test]
    fn drain_raised_mid_config_counts_that_config_once() {
        // The config running when the flag appears is executed, not
        // unresolved: nothing is counted twice, nothing resumed.
        let (dir, flag, out) = drain_during("drain-first", 0);
        assert!(out.drained);
        assert_eq!(out.executed, 1);
        assert_eq!(out.resumed, 0);
        assert!(!out.csv_path.exists(), "a drained worker must not merge");

        std::fs::remove_file(&flag).unwrap();
        let out = run_fabric(&tiny_spec(), &dir, &fast_cfg("w1"), &|_| {}).unwrap();
        assert!(!out.drained);
        assert_eq!((out.executed, out.resumed), (1, 1));
        assert_golden(&out);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_raised_during_the_last_config_still_merges() {
        // Nothing is left unresolved, so the drained worker finishes
        // the campaign instead of reporting a partial stop.
        let (dir, _flag, out) = drain_during("drain-last", 1);
        assert!(!out.drained);
        assert_eq!((out.executed, out.resumed), (2, 0));
        assert_golden(&out);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misconfigured_heartbeat_is_rejected() {
        let spec = tiny_spec();
        let cfg = FabricConfig {
            heartbeat: Duration::from_secs(10),
            lease_stale: Duration::from_secs(1),
            ..FabricConfig::default()
        };
        let err = run_fabric(&spec, &tmp_dir("misconf"), &cfg, &|_| {}).unwrap_err();
        assert!(err.contains("lease_stale"), "unhelpful error: {err}");
    }

    mod readers {
        //! Never-panic and round-trip properties for the on-disk state
        //! every campaign resumes from: shard rows, attempt and
        //! quarantine records, and lease bodies.

        use super::*;
        use proptest::prelude::*;

        /// Arbitrary text: random bytes, lossily decoded.
        fn arb_text() -> impl Strategy<Value = String> {
            prop::collection::vec(any::<u8>(), 0..256)
                .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
        }

        fn sample_note() -> QuarantineRecord {
            QuarantineRecord {
                config_key: "mac=qma;skew_us=-100000".into(),
                attempts: 2,
                max_attempts: 3,
                master_seed: 11,
                rep: 1,
                seed: 0xDEAD_BEEF,
                message: "boom, \"quoted\"\n\u{1}".into(),
            }
        }

        proptest! {
            #[test]
            fn on_disk_readers_never_panic(text in arb_text(), cut in 0usize..512) {
                // Noise alone rarely gets past a parser's first check,
                // so each valid file is also torn at an arbitrary byte
                // and continued with the noise.
                let golden_row = include_str!("../../tests/golden/tiny.csv")
                    .lines()
                    .nth(1)
                    .unwrap()
                    .to_string();
                let valid = [
                    sample_note().render(),
                    format!("{golden_row}\n"),
                    lease_body("w0-t1", 2, "mac=qma"),
                ];
                for file in &valid {
                    let mut bytes = file.as_bytes()[..cut.min(file.len())].to_vec();
                    bytes.extend_from_slice(text.as_bytes());
                    let torn = String::from_utf8_lossy(&bytes).into_owned();
                    for input in [&text, &torn] {
                        let _ = ArtifactRow::from_cells(shard_cells(input));
                        let _ = QuarantineRecord::parse(input);
                        let _ = lease_owner(input);
                        let _ = lease_attempt(input);
                    }
                }
            }

            #[test]
            fn quarantine_record_render_then_parse_roundtrips(
                config_key in arb_text(),
                message in arb_text(),
                attempts in any::<u32>(),
                seed in any::<u64>(),
            ) {
                let note = QuarantineRecord {
                    config_key,
                    message,
                    attempts,
                    seed,
                    ..sample_note()
                };
                prop_assert_eq!(QuarantineRecord::parse(&note.render()), Some(note));
            }
        }
    }

    mod interleavings {
        //! The lease/quarantine state-machine property test: across
        //! arbitrary interleavings of claim, scripted failure (crash),
        //! planted dead-worker reclaim and retry — under 1–3
        //! concurrent workers — every grid config must land in
        //! exactly one terminal set (merged XOR quarantined), nothing
        //! lost, nothing duplicated, and the merged bytes must be a
        //! pure function of the failure script.

        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;
        use std::sync::Mutex;

        /// A four-config grid; simulation is replaced by a scripted
        /// executor, so the spec only has to expand and validate.
        fn grid_spec() -> CampaignSpec {
            CampaignSpec::parse(
                r#"
[campaign]
name = "t"
scenario = "hidden_node"
seed = 11
replications = 2

[fixed]
packets = 20

[grid]
mac = ["qma", "unslotted_csma"]
delta = [30.0, 50.0]
"#,
            )
            .unwrap()
        }

        /// Deterministic synthetic metrics: a pure function of the
        /// config key and replication index, so merged artifacts are
        /// comparable across runs without simulating.
        fn synthetic_agg(spec: &CampaignSpec, point: &ConfigPoint) -> ConfigAggregate {
            let mut agg = ConfigAggregate::new();
            for rep in 0..spec.replications {
                let h = fnv1a64(format!("{}#{rep}", point.key()).as_bytes());
                agg.push(&qma_scenarios::RunMetrics {
                    pdr: (h % 1000) as f64 / 1000.0,
                    delay_s: (h % 97) as f64 / 1000.0,
                    retry_drops: h % 5,
                    queue_drops: h % 3,
                    events: 1000 + h % 100,
                    sim_seconds: 100.0,
                    aux: (h % 77) as f64,
                    resilience: qma_scenarios::Resilience::default(),
                });
            }
            agg
        }

        /// Runs `workers` concurrent fabric workers whose executor
        /// fails each config's first `fails[key]` invocations, over a
        /// directory optionally pre-planted with dead-worker leases.
        /// Returns the surviving outcome (any worker's — merged state
        /// is shared).
        fn run_scripted(
            dir: &Path,
            spec: &CampaignSpec,
            fails: &BTreeMap<String, u32>,
            planted: &[usize],
            workers: usize,
        ) -> FabricOutcome {
            let points = spec.expand().unwrap();
            let dirs = FabricDirs::new(dir, &spec.name);
            dirs.create().unwrap();
            for &i in planted {
                // A dead peer: lease file, no heartbeat behind it.
                // Backdated by an hour, so it is stale at once under
                // the ten-minute threshold below.
                let lease = dirs.lease(&points[i].stem());
                std::fs::write(&lease, lease_body("victim", 1, &points[i].key())).unwrap();
                let long_dead = std::time::SystemTime::now() - Duration::from_secs(3600);
                std::fs::File::options()
                    .write(true)
                    .open(&lease)
                    .unwrap()
                    .set_times(std::fs::FileTimes::new().set_modified(long_dead))
                    .unwrap();
            }
            let invocations: Mutex<BTreeMap<String, u32>> = Mutex::new(BTreeMap::new());
            let exec = move |spec: &CampaignSpec,
                             point: &ConfigPoint,
                             _params: &ScenarioParams,
                             _cfg: &FabricConfig|
                  -> Result<ConfigAggregate, FailedRep> {
                let key = point.key();
                let so_far = {
                    let mut counts = invocations.lock().unwrap();
                    let c = counts.entry(key.clone()).or_insert(0);
                    *c += 1;
                    *c
                };
                if so_far <= fails.get(&key).copied().unwrap_or(0) {
                    Err(FailedRep {
                        config_key: key,
                        rep: 0,
                        seed: point.seed_stream(spec.master_seed).derive(0).seed(),
                        message: "scripted crash".into(),
                    })
                } else {
                    Ok(synthetic_agg(spec, point))
                }
            };
            let cfg = |id: String| FabricConfig {
                worker_id: id,
                max_attempts: 2,
                heartbeat: Duration::from_millis(20),
                // Far above any scheduling stall: a live worker whose
                // heartbeat a loaded box starves must keep its lease.
                // A reclaimed live lease records the same attempt
                // number as the owner's own failure, so the scripted
                // failures would outrun the attempt count.
                lease_stale: Duration::from_secs(600),
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(10),
                ..FabricConfig::default()
            };
            let outcomes: Vec<FabricOutcome> = std::thread::scope(|scope| {
                (0..workers)
                    .map(|t| {
                        let exec = &exec;
                        scope.spawn(move || {
                            run_fabric_with(spec, dir, &cfg(format!("p{t}")), &|_| {}, exec)
                                .unwrap()
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            outcomes.into_iter().next_back().unwrap()
        }

        proptest! {
            #[test]
            fn every_config_lands_in_exactly_one_terminal_set(
                fail_counts in prop::collection::vec(0u32..4, 4),
                plant_mask in 0usize..16,
                workers in 1usize..4,
            ) {
                let spec = grid_spec();
                let points = spec.expand().unwrap();
                prop_assert_eq!(points.len(), 4);
                let fails: BTreeMap<String, u32> = points
                    .iter()
                    .zip(&fail_counts)
                    .map(|(p, &f)| (p.key(), f))
                    .collect();
                let planted: Vec<usize> =
                    (0..4).filter(|i| plant_mask & (1 << i) != 0).collect();

                let dir = tmp_dir(&format!(
                    "prop-{}-{plant_mask}-{workers}",
                    fail_counts.iter().map(u32::to_string).collect::<Vec<_>>().join("")
                ));
                let out = run_scripted(&dir, &spec, &fails, &planted, workers);

                // Partition: merged ∪ quarantined == grid, disjoint,
                // no duplicates, nothing lost.
                let merged: Vec<String> =
                    out.rows.iter().map(|r| r.config_key().to_string()).collect();
                let quarantined: Vec<String> =
                    out.quarantined.iter().map(|q| q.config_key.clone()).collect();
                let mut all: Vec<String> =
                    merged.iter().chain(quarantined.iter()).cloned().collect();
                all.sort();
                let mut expected: Vec<String> = points.iter().map(|p| p.key()).collect();
                expected.sort();
                prop_assert_eq!(&all, &expected, "lost or duplicated config");
                for key in &merged {
                    prop_assert!(!quarantined.contains(key), "{} in both terminal sets", key);
                }

                // The terminal set is the predicted pure function of
                // the script: one planted dead attempt plus scripted
                // failures reach the 2-attempt limit or they don't.
                for (i, point) in points.iter().enumerate() {
                    let effective =
                        fail_counts[i] + u32::from(planted.contains(&i));
                    let key = point.key();
                    if effective >= 2 {
                        prop_assert!(
                            quarantined.contains(&key),
                            "{} should be quarantined ({} effective failures)",
                            key,
                            effective
                        );
                    } else {
                        prop_assert!(
                            merged.contains(&key),
                            "{} should be merged ({} effective failures)",
                            key,
                            effective
                        );
                    }
                }

                // Byte-determinism: an uncontended fresh run under the
                // same script merges identical artifacts.
                let ref_dir = tmp_dir(&format!(
                    "propref-{}-{plant_mask}-{workers}",
                    fail_counts.iter().map(u32::to_string).collect::<Vec<_>>().join("")
                ));
                let reference = run_scripted(&ref_dir, &spec, &fails, &planted, 1);
                prop_assert_eq!(
                    std::fs::read(&out.csv_path).unwrap(),
                    std::fs::read(&reference.csv_path).unwrap(),
                    "interleaving leaked into artifact bytes"
                );
                let _ = std::fs::remove_dir_all(&dir);
                let _ = std::fs::remove_dir_all(&ref_dir);
            }
        }
    }
}
