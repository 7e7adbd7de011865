//! The probe's only wall-clock reads. Everything the probe reports in
//! host time goes through [`Stopwatch`], so the set of places that
//! observe real time stays one file wide.

use std::time::{Duration, Instant};

/// A started wall-clock measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring now.
    #[inline]
    pub fn start() -> Stopwatch {
        // qma-lint: allow(wall-clock) — host-time measurement is this benchmark's purpose; no simulated state reads it
        Stopwatch(Instant::now())
    }

    /// Time since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Nanoseconds since [`Stopwatch::start`].
    #[inline]
    pub fn ns(&self) -> u64 {
        self.elapsed().as_nanos() as u64
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.secs())
}
