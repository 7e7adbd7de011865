//! The supervised campaign service (`qmad`).
//!
//! The PR-7 fabric made one campaign survive worker crashes; this
//! module makes a *stream* of campaigns survive everything else — it
//! is the robustness layer that turns the repo's one-shot CLI into a
//! standing benchmark service. Submitted spec files flow through a
//! crash-safe intake queue ([`intake`]), an explicit per-campaign
//! lifecycle journal ([`journal`]), a supervised fleet of fabric
//! worker processes ([`supervisor`]) and an atomically-rewritten
//! `status.json` ([`status`]), orchestrated by the daemon state
//! machine ([`daemon`]). `campaignctl` is the thin client over the
//! same directory protocol.
//!
//! Layout of a service root (everything is plain files — the service
//! inherits the fabric's property that `kill -9` anywhere is
//! recoverable by rereading the directory):
//!
//! ```text
//! <root>/
//!   queue/<id>.toml        submitted specs awaiting the daemon
//!   active/<id>.toml       the spec being executed
//!   out/<id>/              fabric working dir (shards, leases, …)
//!   archive/<id>/          terminal: merged CSV/JSON + spec copy
//!   quarantine/<id>/       terminal: circuit-broken spec + repro seeds
//!   rejected/<id>.json     machine-readable admission refusals
//!   journal/<id>.journal   append-only lifecycle records
//!   cancel/<id>            cancellation requests (touch to cancel)
//!   status.json            atomically-rewritten service snapshot
//!   drain.flag             daemon-wide lame-duck signal (SIGTERM)
//! ```
//!
//! Determinism is inherited, not re-implemented: a campaign's merged
//! artifacts are a pure function of `(spec, master seed)` no matter
//! how many daemon restarts, worker kills or drain/resume cycles
//! happened along the way — the acceptance bar is byte-identity with
//! an uninterrupted 1-worker `--serial` run.

pub mod daemon;
pub mod intake;
pub mod journal;
pub mod status;
pub mod supervisor;

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::campaign::grid::fnv1a64;

/// Tuning knobs of one `qmad` daemon.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The service root directory (created on startup).
    pub root: PathBuf,
    /// Standing worker-fleet size per campaign.
    pub workers: usize,
    /// Admission: maximum specs waiting in `queue/` before new
    /// submissions are refused.
    pub max_queue_depth: usize,
    /// Admission: refuse new specs once the bytes under the service
    /// root exceed this budget (`None` disables the check). A
    /// byte-budget rather than a free-space probe keeps the check
    /// portable and testable.
    pub disk_budget_bytes: Option<u64>,
    /// SIGTERM drain deadline: lame-duck workers that have not exited
    /// by then are killed (their leases go stale and a restart
    /// reclaims them — correctness is unaffected, only politeness).
    pub drain_deadline: Duration,
    /// Circuit breaker: worker deaths one campaign may cause before
    /// it is quarantined instead of respawned against.
    pub worker_kill_limit: u32,
    /// First respawn backoff after a worker death (capped
    /// exponential, deterministic per death count).
    pub respawn_base: Duration,
    /// Respawn backoff ceiling.
    pub respawn_cap: Duration,
    /// Fabric heartbeat cadence handed to workers.
    pub heartbeat: Duration,
    /// Fabric lease staleness threshold handed to workers.
    pub lease_stale: Duration,
    /// Fabric per-config attempt limit handed to workers.
    pub max_attempts: u32,
    /// Per-replication watchdog handed to workers.
    pub rep_timeout: Option<Duration>,
    /// The executable spawned in `--worker` mode (normally
    /// `qmad` itself via `std::env::current_exe`).
    pub worker_exe: PathBuf,
}

impl ServiceConfig {
    /// A config with production defaults rooted at `root`, spawning
    /// `worker_exe` (the daemon's own binary) as workers.
    pub fn new(root: PathBuf, worker_exe: PathBuf) -> ServiceConfig {
        ServiceConfig {
            root,
            workers: 2,
            max_queue_depth: 32,
            disk_budget_bytes: None,
            drain_deadline: Duration::from_secs(30),
            worker_kill_limit: 3,
            respawn_base: Duration::from_millis(100),
            respawn_cap: Duration::from_secs(5),
            heartbeat: Duration::from_millis(500),
            lease_stale: Duration::from_secs(10),
            max_attempts: 3,
            rep_timeout: None,
            worker_exe,
        }
    }

    /// The root's [`ServicePaths`] view.
    pub fn paths(&self) -> ServicePaths {
        ServicePaths::new(&self.root)
    }
}

/// The well-known files and directories of a service root.
#[derive(Debug, Clone)]
pub struct ServicePaths {
    /// The service root.
    pub root: PathBuf,
    /// Intake queue directory.
    pub queue: PathBuf,
    /// Claimed (executing) spec directory.
    pub active: PathBuf,
    /// Fabric working directories, one per campaign id.
    pub out: PathBuf,
    /// Terminal archive, one subdirectory per campaign id.
    pub archive: PathBuf,
    /// Terminal quarantine, one subdirectory per campaign id.
    pub quarantine: PathBuf,
    /// Machine-readable admission refusals.
    pub rejected: PathBuf,
    /// Lifecycle journals.
    pub journal: PathBuf,
    /// Cancellation request markers.
    pub cancel: PathBuf,
    /// The atomically-rewritten service snapshot.
    pub status: PathBuf,
    /// The daemon-wide lame-duck flag.
    pub drain_flag: PathBuf,
}

impl ServicePaths {
    /// The paths under `root` (no filesystem access).
    pub fn new(root: &Path) -> ServicePaths {
        ServicePaths {
            root: root.to_path_buf(),
            queue: root.join("queue"),
            active: root.join("active"),
            out: root.join("out"),
            archive: root.join("archive"),
            quarantine: root.join("quarantine"),
            rejected: root.join("rejected"),
            journal: root.join("journal"),
            cancel: root.join("cancel"),
            status: root.join("status.json"),
            drain_flag: root.join("drain.flag"),
        }
    }

    /// Creates every service directory.
    pub fn create(&self) -> Result<(), String> {
        for dir in [
            &self.queue,
            &self.active,
            &self.out,
            &self.archive,
            &self.quarantine,
            &self.rejected,
            &self.journal,
            &self.cancel,
        ] {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        Ok(())
    }

    /// `queue/<id>.toml`.
    pub fn queued_spec(&self, id: &str) -> PathBuf {
        self.queue.join(format!("{id}.toml"))
    }

    /// `active/<id>.toml`.
    pub fn active_spec(&self, id: &str) -> PathBuf {
        self.active.join(format!("{id}.toml"))
    }

    /// `out/<id>/` — the campaign's fabric working directory.
    pub fn out_dir(&self, id: &str) -> PathBuf {
        self.out.join(id)
    }

    /// `journal/<id>.journal`.
    pub fn journal_file(&self, id: &str) -> PathBuf {
        self.journal.join(format!("{id}.journal"))
    }

    /// `cancel/<id>` — existence requests cancellation.
    pub fn cancel_marker(&self, id: &str) -> PathBuf {
        self.cancel.join(id)
    }

    /// `rejected/<id>.json` — the admission refusal record.
    pub fn rejection(&self, id: &str) -> PathBuf {
        self.rejected.join(format!("{id}.json"))
    }

    /// Total bytes of regular files under the service root — the
    /// quantity the disk-pressure admission check budgets. Unreadable
    /// entries count as zero (a racing unlink must not fail the scan).
    pub fn bytes_used(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|entry| match entry.metadata() {
                    Ok(meta) if meta.is_dir() => walk(&entry.path()),
                    Ok(meta) => meta.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.root)
    }
}

/// Derives a campaign's identity from its spec file: the sanitized
/// file stem plus a FNV-1a digest of the spec *text*. Content-
/// addressed, so resubmitting identical bytes collides (idempotent
/// submission) while any edit — even whitespace — yields a distinct
/// campaign with its own journal and artifacts.
pub fn campaign_id(spec_path: &Path, spec_text: &str) -> String {
    let stem = spec_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "spec".to_string());
    let clean: String = stem
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    format!("{clean}-{:016x}", fnv1a64(spec_text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_id_is_content_addressed_and_sanitized() {
        let a = campaign_id(Path::new("/tmp/smoke.toml"), "x = 1\n");
        let b = campaign_id(Path::new("elsewhere/smoke.toml"), "x = 1\n");
        assert_eq!(a, b, "identity depends on stem + content, not location");
        let edited = campaign_id(Path::new("/tmp/smoke.toml"), "x = 2\n");
        assert_ne!(a, edited, "any content edit must change the id");
        let nasty = campaign_id(Path::new("/tmp/sm oke!.toml"), "x\n");
        assert!(
            nasty.starts_with("sm-oke--"),
            "separators must be sanitized: {nasty}"
        );
        assert!(a.len() > 17 && a.ends_with(|c: char| c.is_ascii_hexdigit()));
    }

    #[test]
    fn bytes_used_sums_nested_files() {
        let root = std::env::temp_dir().join(format!("qma-paths-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let paths = ServicePaths::new(&root);
        paths.create().unwrap();
        std::fs::write(paths.queue.join("a.toml"), "12345").unwrap();
        std::fs::write(paths.archive.join("b.csv"), "1234567").unwrap();
        assert_eq!(paths.bytes_used(), 12);
        let _ = std::fs::remove_dir_all(&root);
    }
}
