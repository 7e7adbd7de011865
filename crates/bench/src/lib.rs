//! Benchmark harness utilities shared by the per-figure binaries.
//!
//! Every figure of the paper's evaluation has a binary
//! (`fig07` … `fig26`, plus `table04`, `energy` and the `reproduce`
//! driver) that regenerates the corresponding rows/series. Binaries
//! honour these environment variables:
//!
//! * `QMA_QUICK=1` — shrink replication counts/durations (same shape,
//!   minutes instead of hours); this is the default,
//! * `QMA_FULL=1` — run the paper-scale configuration,
//! * `QMA_SEED=n` — master seed (default 2021, the paper's year),
//! * `RAYON_NUM_THREADS=n` — cap the replication fan-out (`1`
//!   degenerates to a serial run with identical results).
//!
//! The [`runner`] module is the workspace's parallel replication
//! engine: a rayon fan-out over `configs × replications` where each
//! replication draws an independent RNG stream derived from the
//! master seed via [`qma_des::SeedSequence`], and results are
//! collected in `(config, replication)` order — so aggregates are
//! **bit-identical** between serial and parallel runs.
//!
//! The [`campaign`] module is the declarative sweep engine on top of
//! it: the `campaign` binary expands a TOML spec (scenario ×
//! parameter grid) into a deterministic config matrix, runs it as a
//! lease-based fabric of one or more workers whose per-config shards
//! make every run resumable, streams replication results into
//! [`qma_stats`] accumulators and merges the shards into CSV/JSON
//! artifacts.
//!
//! The [`service`] module is the standing layer above both: the
//! `qmad` daemon supervises a crash-safe spec intake queue and a
//! fleet of fabric worker processes (journalled lifecycle, heartbeat
//! supervision, circuit breaker, lame-duck drain), and `campaignctl`
//! submits/inspects/cancels campaigns through the same directory
//! protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod runner;
pub mod service;

/// Master seed for experiment binaries.
pub fn seed() -> u64 {
    std::env::var("QMA_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2021)
}

/// `true` unless `QMA_FULL=1` requests paper-scale runs.
pub fn quick() -> bool {
    std::env::var("QMA_FULL").map(|v| v != "1").unwrap_or(true)
}

/// Standard experiment header line.
pub fn header(id: &str, what: &str) {
    println!("# {id} — {what}");
    println!(
        "# mode: {}, seed: {}",
        if quick() {
            "quick (set QMA_FULL=1 for paper scale)"
        } else {
            "full"
        },
        seed()
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn defaults() {
        // Can't touch the process environment safely in tests; just
        // exercise the call paths.
        let _ = super::seed();
        let _ = super::quick();
        super::header("figXX", "smoke");
    }
}
