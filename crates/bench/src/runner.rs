//! The parallel replication runner.
//!
//! Reproducing the paper's figures means running hundreds of
//! independent DES replications (seeds × scenario configurations).
//! [`run_replications`] fans these out over a rayon-style worker
//! pool; determinism is preserved because
//!
//! 1. every replication's randomness comes from a private
//!    [`SeedSequence`] stream `root.derive(config).derive(rep)` —
//!    a pure function of `(master_seed, config, rep)`, and
//! 2. results are collected in `(config, rep)` order regardless of
//!    which worker finished first,
//!
//! so a parallel run aggregates **bit-identically** to a serial one
//! (`Parallelism::Serial`, or `RAYON_NUM_THREADS=1`).

use qma_des::SeedSequence;
use rayon::prelude::*;

/// How [`run_replications`] executes its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Plain loop on the calling thread.
    Serial,
    /// Rayon fan-out over all cores (still deterministic).
    #[default]
    Rayon,
}

impl Parallelism {
    /// Parses `--serial` from a command line, defaulting to rayon.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Parallelism {
        if args.into_iter().any(|a| a == "--serial") {
            Parallelism::Serial
        } else {
            Parallelism::Rayon
        }
    }
}

/// The replication results for one configuration, in replication
/// order.
#[derive(Debug, Clone)]
pub struct ConfigRuns<C, R> {
    /// The configuration the replications ran under.
    pub config: C,
    /// One result per replication, ordered by replication index.
    pub runs: Vec<R>,
}

/// Runs `reps` replications of every configuration, fanning the
/// `configs × reps` job grid out over the worker pool.
///
/// `f(config, rep, seeds)` receives the configuration, the
/// replication index and a dedicated seed stream
/// `SeedSequence::new(master_seed).derive(config_index).derive(rep)`.
/// Results come back grouped by configuration, replications in
/// order — identical for serial and parallel execution.
///
/// # Examples
///
/// ```
/// use qma_bench::runner::{run_replications, Parallelism};
///
/// let par = run_replications(vec![2u64, 3], 4, 99, Parallelism::Rayon,
///     |cfg, rep, seeds| cfg * rep + seeds.seed() % 7);
/// let ser = run_replications(vec![2u64, 3], 4, 99, Parallelism::Serial,
///     |cfg, rep, seeds| cfg * rep + seeds.seed() % 7);
/// assert_eq!(par.len(), 2);
/// assert_eq!(par[0].runs.len(), 4);
/// for (p, s) in par.iter().zip(&ser) {
///     assert_eq!(p.runs, s.runs); // bit-identical
/// }
/// ```
pub fn run_replications<C, R, F>(
    configs: Vec<C>,
    reps: u64,
    master_seed: u64,
    mode: Parallelism,
    f: F,
) -> Vec<ConfigRuns<C, R>>
where
    C: Sync + Send,
    R: Send,
    F: Fn(&C, u64, SeedSequence) -> R + Sync,
{
    let root = SeedSequence::new(master_seed);
    let jobs: Vec<(usize, u64)> = (0..configs.len())
        .flat_map(|c| (0..reps).map(move |r| (c, r)))
        .collect();
    let run_one = |(c, r): (usize, u64)| {
        let seeds = root.derive(c as u64).derive(r);
        f(&configs[c], r, seeds)
    };
    let flat: Vec<R> = match mode {
        Parallelism::Serial => jobs.into_iter().map(run_one).collect(),
        Parallelism::Rayon => jobs.into_par_iter().map(run_one).collect(),
    };

    let mut flat = flat.into_iter();
    configs
        .into_iter()
        .map(|config| ConfigRuns {
            config,
            runs: flat.by_ref().take(reps as usize).collect(),
        })
        .collect()
}

/// Why [`run_with_watchdog`] produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogError {
    /// No result within the wall-clock budget — the job is livelocked
    /// or thrashing.
    TimedOut,
    /// The job thread terminated without sending a result (an abort
    /// or stack overflow that killed the thread outright; ordinary
    /// panics are expected to be caught inside the job).
    Died,
}

impl std::fmt::Display for WatchdogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchdogError::TimedOut => f.write_str("exceeded its wall-clock watchdog"),
            WatchdogError::Died => f.write_str("job thread died without reporting"),
        }
    }
}

/// Runs `job` on a helper thread and waits at most `timeout` wall
/// time for its result — the liveness complement to `catch_unwind`
/// panic isolation: a replication that *hangs* (fault-injection
/// livelock, pathological contention) becomes a reportable failure
/// instead of wedging the whole campaign.
///
/// On timeout the helper thread is **detached, not killed** — Rust
/// has no safe thread cancellation — so a truly livelocked job keeps
/// burning its core until the process exits. The caller's contract is
/// to count the attempt as failed and move on; the leak is bounded by
/// the retry budget and the process lifetime, which is exactly the
/// graceful-degradation trade the campaign fabric wants.
pub fn run_with_watchdog<R: Send + 'static>(
    timeout: std::time::Duration,
    job: impl FnOnce() -> R + Send + 'static,
) -> Result<R, WatchdogError> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .name("qma-rep-watchdog".into())
        .spawn(move || {
            let _ = tx.send(job());
        })
        .expect("spawn watchdog job thread");
    match rx.recv_timeout(timeout) {
        Ok(result) => Ok(result),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Err(WatchdogError::TimedOut),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(WatchdogError::Died),
    }
}

/// Renders a payload caught by `std::panic::catch_unwind` as a
/// human-readable message. Rust panics carry `&str` or `String`
/// payloads in practice; anything else gets a stable placeholder so
/// failure reports never themselves panic.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_by_config_in_order() {
        let out = run_replications(
            vec!["a", "b", "c"],
            3,
            7,
            Parallelism::Rayon,
            |cfg, rep, _| format!("{cfg}{rep}"),
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].config, "b");
        assert_eq!(out[1].runs, vec!["b0", "b1", "b2"]);
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let work = |cfg: &u64, rep: u64, seeds: SeedSequence| {
            // Mix the seed into a float the way a simulation would, so
            // any ordering difference would show in the aggregate sum.
            (seeds.seed() % 1000) as f64 / (cfg + rep + 1) as f64
        };
        let a = run_replications(vec![1u64, 2, 3], 16, 2021, Parallelism::Serial, work);
        let b = run_replications(vec![1u64, 2, 3], 16, 2021, Parallelism::Rayon, work);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.runs, y.runs);
        }
        let sum_a: f64 = a.iter().flat_map(|g| &g.runs).sum();
        let sum_b: f64 = b.iter().flat_map(|g| &g.runs).sum();
        assert_eq!(
            sum_a.to_bits(),
            sum_b.to_bits(),
            "aggregate must be bit-identical"
        );
    }

    #[test]
    fn streams_are_independent_of_sibling_configs() {
        // Adding a config must not change the streams of existing
        // ones (hierarchical derivation, not a shared counter).
        let grab = |configs: Vec<u32>| {
            run_replications(configs, 2, 5, Parallelism::Serial, |_, _, s| s.seed())
        };
        let two = grab(vec![10, 20]);
        let three = grab(vec![10, 20, 30]);
        assert_eq!(two[0].runs, three[0].runs);
        assert_eq!(two[1].runs, three[1].runs);
    }

    #[test]
    fn from_args_parses_serial() {
        assert_eq!(
            Parallelism::from_args(vec!["--serial".to_string()]),
            Parallelism::Serial
        );
        assert_eq!(
            Parallelism::from_args(vec!["--quick".to_string()]),
            Parallelism::Rayon
        );
        assert_eq!(Parallelism::from_args(Vec::new()), Parallelism::Rayon);
    }

    #[test]
    fn panic_message_covers_both_payload_shapes() {
        let caught = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(caught), "static str");
        let caught = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(caught), "formatted 7");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(caught), "non-string panic payload");
    }

    #[test]
    fn watchdog_returns_fast_results_and_flags_hangs() {
        use std::time::Duration;
        let fast = run_with_watchdog(Duration::from_secs(30), || 41 + 1);
        assert_eq!(fast, Ok(42));

        // A job that outlives its budget is reported as timed out; the
        // helper thread is detached (it finishes harmlessly later).
        let hung = run_with_watchdog(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(400));
            0u8
        });
        assert_eq!(hung, Err(WatchdogError::TimedOut));
    }
}
