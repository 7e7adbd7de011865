//! The experiment driver, the campaign engine and the campaign
//! service of the QMA workspace.
//!
//! The `reproduce` binary regenerates every table and figure of the
//! paper's evaluation as one report, one section per id (`table04`,
//! `fig07` … `fig26`, `energy`, `ablations`). It honours these
//! environment variables:
//!
//! * `QMA_FULL=1` — run the paper-scale configuration; without it,
//!   quick mode shrinks replication counts and durations (same
//!   shape, seconds instead of a minute),
//! * `QMA_SEED=n` — master seed (default 2021, the paper's year),
//! * `RAYON_NUM_THREADS=n` — the worker pool's width (default: every
//!   core). Results are bit-identical at any width; `--serial` pins
//!   it to one thread ([`runner::pin_pool_to_one_thread`]).
//!
//! The [`runner`] module holds that switch and the replication
//! watchdog.
//!
//! The [`campaign`] module is the declarative sweep engine: the
//! `campaign` binary expands a TOML spec (scenario × parameter grid)
//! into a deterministic config matrix, runs it as a lease-based
//! fabric of one or more workers whose per-config shards make every
//! run resumable, streams replication results into [`qma_stats`]
//! accumulators and merges the shards into CSV/JSON artifacts.
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

/// Master seed of the experiment driver (`QMA_SEED`, default 2021).
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
