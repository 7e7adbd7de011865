//! The worker pool's one setting, and replication isolation.
//!
//! Replications fan out over the rayon shim's worker pool, whose
//! width is `RAYON_NUM_THREADS` (default: every core). Each
//! replication's randomness is a pure function of the master seed,
//! and the pool collects results in input order, so the width never
//! changes a result. [`pin_pool_to_one_thread`] is what `--serial`
//! sets.
//!
//! [`run_with_watchdog`] and [`panic_message`] turn a hung or a
//! panicking replication into a reportable failure.

/// Pins the worker pool to one thread, for this process and every
/// process it spawns, by setting `RAYON_NUM_THREADS=1`.
///
/// Call it at the top of `main`, before any thread exists: setting
/// an environment variable races with reads on other threads.
pub fn pin_pool_to_one_thread() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
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
