//! The `qmad` daemon core: a tick-driven state machine over the
//! campaign lifecycle journal.
//!
//! Every piece of daemon state that matters is on disk (journal,
//! queue/active spec location, fabric directory, markers); the
//! in-memory [`Daemon`] is a cache that any `kill -9` may discard.
//! [`Daemon::tick`] advances the world by one small, idempotent step
//! — claim a spec, spawn the fleet, reap a worker, merge — and every
//! step re-derives its inputs from disk, so a restarted daemon walks
//! back into exactly the state the journal last recorded and
//! continues. Determinism below (the fabric) guarantees the continued
//! campaign's artifacts are byte-identical to an uninterrupted run.
//!
//! Graceful degradation lives here too: [`Daemon::begin_drain`] puts
//! the service into lame-duck mode (workers finish held leases and
//! exit, admission refuses, `status.json` says why), and the circuit
//! breaker quarantines a campaign whose spec keeps killing workers
//! instead of burning the fleet on it.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::campaign::durable::write_atomic;
use crate::campaign::fabric::{run_fabric, FabricConfig};
use crate::campaign::spec::CampaignSpec;

use super::intake::{admit, claim_next};
use super::journal::{CampaignState, Journal};
use super::status::{CampaignStatus, StatusSnapshot};
use super::supervisor::{Fleet, WorkerExit};
use super::{ServiceConfig, ServicePaths};

/// The campaign currently owned by the daemon.
struct Active {
    id: String,
    journal: Journal,
    /// Parsed lazily (and re-parsed after every restart) from
    /// `active/<id>.toml`.
    spec: Option<CampaignSpec>,
    /// Content-addressed stems of the grid, in grid order.
    stems: Vec<String>,
    fleet: Option<Fleet>,
}

impl Active {
    fn state(&self) -> CampaignState {
        self.journal.state().unwrap_or(CampaignState::Queued)
    }
}

/// A long-running campaign service instance over one service root.
pub struct Daemon {
    cfg: ServiceConfig,
    paths: ServicePaths,
    current: Option<Active>,
    draining: bool,
    drain_started: Option<Instant>,
    last_status: Option<String>,
    log: Box<dyn FnMut(&str) + Send>,
}

impl Daemon {
    /// Opens (or initializes) the service root and recovers any
    /// interrupted campaign from its journal. A fresh daemon always
    /// starts accepting: a stale drain flag from a previous SIGTERM
    /// is removed.
    pub fn new(cfg: ServiceConfig, log: Box<dyn FnMut(&str) + Send>) -> Result<Daemon, String> {
        let paths = cfg.paths();
        paths.create()?;
        let _ = std::fs::remove_file(&paths.drain_flag);
        Ok(Daemon {
            cfg,
            paths,
            current: None,
            draining: false,
            drain_started: None,
            last_status: None,
            log,
        })
    }

    /// The root's path map.
    pub fn paths(&self) -> &ServicePaths {
        &self.paths
    }

    /// `true` once [`Daemon::begin_drain`] ran.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Lame-duck entry: persist the drain flag (admission refuses
    /// from here on), tell the active fleet to finish held leases
    /// only, and start the drain-deadline clock.
    pub fn begin_drain(&mut self) -> Result<(), String> {
        if self.draining {
            return Ok(());
        }
        self.draining = true;
        // qma-lint: allow(wall-clock) — the SIGTERM drain deadline is
        // operator-facing real time, not simulation state.
        self.drain_started = Some(Instant::now());
        write_atomic(&self.paths.drain_flag, "draining\n")?;
        (self.log)("drain requested: finishing held leases, accepting nothing new");
        if let Some(active) = &mut self.current {
            if active.state() == CampaignState::Running {
                write_atomic(
                    &self.paths.out_dir(&active.id).join("drain.flag"),
                    "drain\n",
                )?;
                if let Some(fleet) = &mut active.fleet {
                    fleet.freeze();
                }
                active
                    .journal
                    .transition(CampaignState::Draining, Some("daemon drain (SIGTERM)"))?;
            }
        }
        Ok(())
    }

    /// `true` when a draining daemon has nothing left to wait for
    /// and may exit 0.
    pub fn drained(&self) -> bool {
        self.draining
            && self
                .current
                .as_ref()
                .and_then(|a| a.fleet.as_ref())
                .is_none_or(Fleet::quiet)
    }

    /// One idempotent step of the service state machine. Returns
    /// `true` when the step changed something (the caller can skip
    /// its idle sleep).
    pub fn tick(&mut self) -> Result<bool, String> {
        let mut progressed = false;
        if self.current.is_none() && !self.draining {
            self.current = self.recover()?;
            if self.current.is_some() {
                progressed = true;
            } else if let Some(id) = claim_next(&self.paths)? {
                let mut journal = Journal::open(&self.paths.journal_file(&id))?;
                journal.transition(CampaignState::Queued, None)?;
                (self.log)(&format!("claimed campaign {id}"));
                self.current = Some(Active {
                    id,
                    journal,
                    spec: None,
                    stems: Vec::new(),
                    fleet: None,
                });
                progressed = true;
            }
        }
        if let Some(active) = self.current.take() {
            let (active, stepped) = self.step(active)?;
            progressed |= stepped;
            if !active.state().is_terminal() {
                self.current = Some(active);
            }
        }
        self.write_status()?;
        Ok(progressed)
    }

    /// Runs the daemon until `should_shutdown` turns true and the
    /// drain completes. Returns `Ok(())` — the exit-0 path — once
    /// lame-duck mode has flushed everything it could.
    pub fn run(&mut self, should_shutdown: &dyn Fn() -> bool) -> Result<(), String> {
        loop {
            if should_shutdown() && !self.draining {
                self.begin_drain()?;
            }
            let progressed = self.tick()?;
            if self.drained() {
                self.write_status()?;
                (self.log)("drain complete, exiting");
                return Ok(());
            }
            if !progressed {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }

    /// Re-adopts an interrupted campaign: a non-terminal journal, or
    /// a claimed spec that crashed before its first journal record.
    fn recover(&mut self) -> Result<Option<Active>, String> {
        let mut candidates: Vec<String> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.paths.journal) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_none_or(|x| x != "journal") {
                    continue;
                }
                let Some(id) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
                    continue;
                };
                if !Journal::open(&path)?
                    .state()
                    .is_some_and(CampaignState::is_terminal)
                {
                    candidates.push(id);
                }
            }
        }
        // A crash between the queue→active rename and the first
        // journal append leaves a journal-less active spec: adopt it.
        if let Ok(entries) = std::fs::read_dir(&self.paths.active) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|x| x == "toml") {
                    if let Some(id) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) {
                        if !candidates.contains(&id) && !self.paths.journal_file(&id).exists() {
                            candidates.push(id);
                        }
                    }
                }
            }
        }
        candidates.sort();
        let Some(id) = candidates.into_iter().next() else {
            return Ok(None);
        };
        let mut journal = Journal::open(&self.paths.journal_file(&id))?;
        // Only a journal-less adoption (crash before the first
        // append) needs the initial record; a replayed journal is
        // already mid-lifecycle and resumes from wherever it stopped.
        if journal.state().is_none() {
            journal.transition(CampaignState::Queued, Some("adopted orphaned active spec"))?;
        }
        (self.log)(&format!(
            "recovered campaign {id} at state {}",
            journal.state().unwrap_or(CampaignState::Queued)
        ));
        // A drain interrupted by the restart resumes running.
        if journal.state() == Some(CampaignState::Draining) && !self.draining {
            journal.transition(CampaignState::Running, Some("resumed after restart"))?;
        }
        Ok(Some(Active {
            id,
            journal,
            spec: None,
            stems: Vec::new(),
            fleet: None,
        }))
    }

    fn step(&mut self, mut active: Active) -> Result<(Active, bool), String> {
        match active.state() {
            CampaignState::Queued => {
                if self.paths.cancel_marker(&active.id).exists() {
                    self.fail_campaign(&mut active, "cancelled before start")?;
                    return Ok((active, true));
                }
                active.journal.transition(CampaignState::Expanding, None)?;
                Ok((active, true))
            }
            CampaignState::Expanding => {
                if let Err(e) = self.load_spec(&mut active) {
                    self.fail_campaign(&mut active, &e)?;
                    return Ok((active, true));
                }
                self.spawn_fleet(&mut active)?;
                active.journal.transition(
                    CampaignState::Running,
                    Some(&format!("fleet of {}", self.cfg.workers)),
                )?;
                Ok((active, true))
            }
            CampaignState::Running => self.step_running(active),
            CampaignState::Draining => self.step_draining(active),
            CampaignState::Merging => {
                if let Err(e) = self.load_spec(&mut active) {
                    self.fail_campaign(&mut active, &e)?;
                    return Ok((active, true));
                }
                // Any straggler worker is redundant from here: the
                // in-process merge re-executes whatever is unresolved
                // and folds the shards itself.
                active.fleet = None;
                match self.merge_and_archive(&mut active) {
                    Ok(()) => {}
                    Err(e) => self.fail_campaign(&mut active, &e)?,
                }
                Ok((active, true))
            }
            CampaignState::Archived | CampaignState::Failed => Ok((active, false)),
        }
    }

    fn step_running(&mut self, mut active: Active) -> Result<(Active, bool), String> {
        if let Err(e) = self.load_spec(&mut active) {
            self.fail_campaign(&mut active, &e)?;
            return Ok((active, true));
        }
        // Cancellation and daemon drain both flip the campaign into
        // lame duck; the difference is only the terminal state the
        // quiet fleet lands in (see `step_draining`).
        if self.paths.cancel_marker(&active.id).exists() || self.draining {
            let reason = if self.draining {
                "daemon drain (SIGTERM)"
            } else {
                "cancel requested"
            };
            write_atomic(
                &self.paths.out_dir(&active.id).join("drain.flag"),
                "drain\n",
            )?;
            if let Some(fleet) = &mut active.fleet {
                fleet.freeze();
            }
            active
                .journal
                .transition(CampaignState::Draining, Some(reason))?;
            (self.log)(&format!("campaign {} draining: {reason}", active.id));
            return Ok((active, true));
        }
        if active.fleet.is_none() {
            self.spawn_fleet(&mut active)?;
        }
        let mut progressed = false;
        let mut campaign_error: Option<String> = None;
        if let Some(fleet) = &mut active.fleet {
            for event in fleet.poll()? {
                progressed = true;
                (self.log)(&format!(
                    "worker {} exited: {:?}",
                    event.worker_id, event.exit
                ));
                if let WorkerExit::Failed(detail) = event.exit {
                    campaign_error = Some(detail);
                }
            }
        }
        if let Some(detail) = campaign_error {
            self.fail_campaign(&mut active, &format!("campaign error: {detail}"))?;
            return Ok((active, true));
        }
        let deaths = active.fleet.as_ref().map(Fleet::deaths).unwrap_or(0);
        if deaths >= self.cfg.worker_kill_limit {
            let reason = format!(
                "circuit breaker: spec killed {deaths} worker(s) \
                 (limit {}); quarantined with reproduction seeds",
                self.cfg.worker_kill_limit
            );
            self.fail_campaign(&mut active, &reason)?;
            return Ok((active, true));
        }
        let (done, total, _) = self.grid_progress(&active);
        if total > 0 && done == total {
            // Grid resolved: nothing left for the fleet to do. The
            // merge step owns the rest (and tolerates any worker that
            // already merged — the write is idempotent).
            active.journal.transition(CampaignState::Merging, None)?;
            return Ok((active, true));
        }
        if active
            .fleet
            .as_ref()
            .is_some_and(|f| f.quiet() && f.any_merged())
        {
            active.journal.transition(CampaignState::Merging, None)?;
            return Ok((active, true));
        }
        Ok((active, progressed))
    }

    fn step_draining(&mut self, mut active: Active) -> Result<(Active, bool), String> {
        let mut progressed = false;
        if let Some(fleet) = &mut active.fleet {
            fleet.freeze();
            progressed |= !fleet.poll()?.is_empty();
            if !fleet.quiet() {
                if let Some(started) = self.drain_started {
                    if started.elapsed() > self.cfg.drain_deadline {
                        (self.log)("drain deadline exceeded: killing remaining workers");
                        fleet.kill_all();
                        progressed = true;
                    }
                }
                return Ok((active, progressed));
            }
        }
        // Fleet is quiet (or was never respawned after a restart).
        if self.paths.cancel_marker(&active.id).exists() {
            self.fail_campaign(&mut active, "cancelled")?;
            return Ok((active, true));
        }
        if self.draining {
            // Daemon is exiting: leave the journal at Draining; the
            // next daemon resumes it as Running.
            return Ok((active, progressed));
        }
        // Drain cause disappeared (cancel marker removed before the
        // fleet settled): resume.
        let _ = std::fs::remove_file(self.paths.out_dir(&active.id).join("drain.flag"));
        active.fleet = None;
        active
            .journal
            .transition(CampaignState::Running, Some("drain cause cleared"))?;
        Ok((active, true))
    }

    /// Parses (once per incarnation) the campaign's spec and expands
    /// its grid stems.
    fn load_spec(&mut self, active: &mut Active) -> Result<(), String> {
        if active.spec.is_some() {
            return Ok(());
        }
        let path = self.paths.active_spec(&active.id);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("spec {} unreadable: {e}", path.display()))?;
        let spec = CampaignSpec::parse(&text).map_err(|e| format!("spec invalid: {e}"))?;
        let points = spec.expand().map_err(|e| format!("grid invalid: {e}"))?;
        active.stems = points.iter().map(|p| p.stem()).collect();
        active.spec = Some(spec);
        Ok(())
    }

    fn spawn_fleet(&mut self, active: &mut Active) -> Result<(), String> {
        let out_dir = self.paths.out_dir(&active.id);
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("create {}: {e}", out_dir.display()))?;
        // A drain flag left by an interrupted shutdown would make the
        // fresh fleet exit immediately; the campaign is resuming, so
        // clear it (a live cancel request re-creates it next tick).
        let _ = std::fs::remove_file(out_dir.join("drain.flag"));
        active.fleet = Some(Fleet::spawn(
            &self.cfg,
            &active.id,
            &self.paths.active_spec(&active.id),
            &out_dir,
            &out_dir.join("drain.flag"),
        )?);
        Ok(())
    }

    /// `(resolved, total, quarantined)` of the active grid, derived
    /// from the fabric directory — the same facts the workers act on.
    fn grid_progress(&self, active: &Active) -> (usize, usize, usize) {
        let Some(spec) = &active.spec else {
            return (0, 0, 0);
        };
        let fabric = self
            .paths
            .out_dir(&active.id)
            .join(format!("{}.fabric", spec.name));
        let mut done = 0;
        let mut quarantined = 0;
        for stem in &active.stems {
            if fabric
                .join("quarantine")
                .join(format!("{stem}.json"))
                .exists()
            {
                done += 1;
                quarantined += 1;
            } else if fabric.join("shards").join(stem).exists() {
                done += 1;
            }
        }
        (done, active.stems.len(), quarantined)
    }

    /// The merge step: finish anything unresolved in-process, fold
    /// the shards, and move the campaign into `archive/<id>/`.
    /// Idempotent — a crash anywhere in here re-runs cleanly.
    fn merge_and_archive(&mut self, active: &mut Active) -> Result<(), String> {
        let spec = active.spec.as_ref().expect("load_spec ran");
        let out_dir = self.paths.out_dir(&active.id);
        let fab = FabricConfig {
            worker_id: format!("merge-{}", std::process::id()),
            max_attempts: self.cfg.max_attempts,
            heartbeat: self.cfg.heartbeat,
            lease_stale: self.cfg.lease_stale,
            rep_timeout: self.cfg.rep_timeout,
            ..FabricConfig::default()
        };
        let log = std::sync::Mutex::new(&mut self.log);
        let outcome = run_fabric(spec, &out_dir, &fab, &|line| {
            (log.lock().unwrap())(line);
        })?;
        let dest = self.paths.archive.join(&active.id);
        std::fs::create_dir_all(&dest).map_err(|e| format!("create {}: {e}", dest.display()))?;
        for src in [&outcome.csv_path, &outcome.json_path] {
            let bytes =
                std::fs::read_to_string(src).map_err(|e| format!("read {}: {e}", src.display()))?;
            let name = src
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "artifact".into());
            write_atomic(&dest.join(name), &bytes)?;
        }
        // Preserve the spec next to its artifacts, then retire the
        // working state.
        if let Ok(spec_text) = std::fs::read_to_string(self.paths.active_spec(&active.id)) {
            write_atomic(&dest.join("spec.toml"), &spec_text)?;
        }
        let reason = if outcome.quarantined.is_empty() {
            "merged clean".to_string()
        } else {
            format!(
                "merged with {} quarantined config(s)",
                outcome.quarantined.len()
            )
        };
        active
            .journal
            .transition(CampaignState::Archived, Some(&reason))?;
        (self.log)(&format!("campaign {} archived: {reason}", active.id));
        let _ = std::fs::remove_file(self.paths.active_spec(&active.id));
        let _ = std::fs::remove_file(self.paths.cancel_marker(&active.id));
        remove_working_dir(&out_dir);
        Ok(())
    }

    /// Terminal failure path: quarantine the spec with every
    /// reproduction pointer the fabric recorded, journal `failed`,
    /// and release the working state.
    fn fail_campaign(&mut self, active: &mut Active, reason: &str) -> Result<(), String> {
        if let Some(fleet) = &mut active.fleet {
            fleet.kill_all();
        }
        active.fleet = None;
        let dest = self.paths.quarantine.join(&active.id);
        std::fs::create_dir_all(&dest).map_err(|e| format!("create {}: {e}", dest.display()))?;
        write_atomic(
            &dest.join("reason.json"),
            &format!(
                "{{\n  \"campaign\": {},\n  \"reason\": {}\n}}\n",
                crate::campaign::artifact::json_str(&active.id),
                crate::campaign::artifact::json_str(reason),
            ),
        )?;
        if let Ok(text) = std::fs::read_to_string(self.paths.active_spec(&active.id)) {
            write_atomic(&dest.join("spec.toml"), &text)?;
        }
        // The fabric's attempt/quarantine notes carry the exact
        // config keys and seeds that were in flight — copy them so
        // the failure reproduces standalone.
        if let Some(spec) = &active.spec {
            let fabric = self
                .paths
                .out_dir(&active.id)
                .join(format!("{}.fabric", spec.name));
            for sub in ["attempts", "quarantine"] {
                if let Ok(entries) = std::fs::read_dir(fabric.join(sub)) {
                    let repro = dest.join(sub);
                    let _ = std::fs::create_dir_all(&repro);
                    for entry in entries.flatten() {
                        if let (Ok(text), Some(name)) = (
                            std::fs::read_to_string(entry.path()),
                            entry.path().file_name().map(|n| n.to_os_string()),
                        ) {
                            let _ = write_atomic(&repro.join(name), &text);
                        }
                    }
                }
            }
        }
        active
            .journal
            .transition(CampaignState::Failed, Some(reason))?;
        (self.log)(&format!("campaign {} failed: {reason}", active.id));
        let _ = std::fs::remove_file(self.paths.active_spec(&active.id));
        let _ = std::fs::remove_file(self.paths.cancel_marker(&active.id));
        remove_working_dir(&self.paths.out_dir(&active.id));
        Ok(())
    }

    /// Rewrites `status.json` when (and only when) the snapshot
    /// changed — rename + fsync on every idle tick would be churn.
    fn write_status(&mut self) -> Result<(), String> {
        let snapshot = self.snapshot();
        let rendered = snapshot.render();
        if self.last_status.as_deref() == Some(rendered.as_str()) {
            return Ok(());
        }
        snapshot.write(&self.paths)?;
        self.last_status = Some(rendered);
        Ok(())
    }

    /// The current observable state (also used directly by tests).
    pub fn snapshot(&self) -> StatusSnapshot {
        let list_ids = |dir: &PathBuf| -> Vec<String> {
            let mut ids: Vec<String> = std::fs::read_dir(dir)
                .map(|entries| {
                    entries
                        .flatten()
                        .filter_map(|e| {
                            e.path()
                                .file_stem()
                                .map(|s| s.to_string_lossy().into_owned())
                        })
                        .collect()
                })
                .unwrap_or_default();
            ids.sort();
            ids
        };
        let admission = admit(&self.cfg, &self.paths);
        let campaign = self.current.as_ref().map(|active| {
            let (done, total, quarantined) = self.grid_progress(active);
            CampaignStatus {
                id: active.id.clone(),
                state: active.state(),
                configs_done: done,
                configs_total: total,
                quarantined,
            }
        });
        StatusSnapshot {
            daemon_pid: std::process::id(),
            accepting: admission.is_ok() && !self.draining,
            reason_code: admission.err().map(|r| r.code().to_string()),
            draining: self.draining,
            queued: list_ids(&self.paths.queue),
            campaign,
            workers: self
                .current
                .as_ref()
                .and_then(|a| a.fleet.as_ref())
                .map(Fleet::statuses)
                .unwrap_or_default(),
            archived: list_ids(&self.paths.archive),
            failed: list_ids(&self.paths.quarantine),
        }
    }
}

/// Deletes a retired campaign's working directory. A worker orphaned
/// by an earlier daemon incarnation (its daemon was SIGKILLed) can
/// still be publishing its own merge there: a file it creates while
/// `remove_dir_all` runs fails the final `rmdir` ("directory not
/// empty") and the directory would survive the retirement. Retrying
/// removes the newcomer. Once the directory is gone, the orphan's next
/// publish fails instead of recreating it: `write_atomic` creates no
/// parent directories.
fn remove_working_dir(dir: &Path) {
    for _ in 0..100 {
        if std::fs::remove_dir_all(dir).is_ok() || !dir.exists() {
            return;
        }
    }
}
