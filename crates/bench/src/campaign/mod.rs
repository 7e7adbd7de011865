//! The declarative experiment-campaign engine.
//!
//! A campaign is a spec file ([`spec`]) naming a scenario and a
//! parameter grid; the engine expands it into a deterministic
//! config × replication matrix ([`grid`]), fans the replications out
//! over the worker pool with content-addressed seed streams, folds
//! results into streaming aggregates ([`agg`]) and emits one CSV and
//! one JSON artifact per campaign ([`artifact`]).
//!
//! Every run is a [`fabric`] run: one or more workers claim configs
//! through leases, publish one shard per finished config and merge
//! the shards in grid order. A lone `campaign --serial` is simply a
//! fabric of one worker.
//!
//! Guarantees:
//!
//! * **Determinism** — a fixed master seed produces byte-identical
//!   artifacts, independent of thread and worker count, of
//!   axis/value ordering in the spec, and of how often the campaign
//!   was interrupted and resumed (seeds are content-addressed per
//!   config, results folded in replication order, artifacts carry no
//!   wall-clock values).
//! * **Resumability** — the per-config shards under
//!   `<out>/<name>.fabric/shards/` are the durable state; a re-run
//!   skips every config whose shard exists (under the same scenario,
//!   master seed and replication count) or that is quarantined.

pub mod agg;
pub mod artifact;
pub mod durable;
pub mod fabric;
pub mod grid;
pub mod spec;

use std::panic::{catch_unwind, AssertUnwindSafe};

use qma_scenarios::{run_scenario, RunMetrics, ScenarioParams};
use rayon::prelude::*;

use crate::runner::{panic_message, run_with_watchdog, WatchdogError};
use agg::ConfigAggregate;
use fabric::FabricConfig;
use grid::ConfigPoint;
use spec::CampaignSpec;

/// A replication that panicked mid-campaign. The seed is the exact
/// content-addressed stream value the replication ran under, so the
/// failure reproduces standalone via
/// `run_scenario(scenario, params, seed)` — no campaign context
/// needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedRep {
    /// Canonical key of the configuration the replication belonged to.
    pub config_key: String,
    /// Replication index within the configuration.
    pub rep: u64,
    /// The replication's derived seed.
    pub seed: u64,
    /// The panic message.
    pub message: String,
}

/// Runs every replication of one configuration on the worker pool and
/// folds the results into a streaming aggregate in replication order,
/// so the pool's width never changes a bit of it.
///
/// Each replication runs under `catch_unwind`, so a panicking
/// simulation (a chaos config blowing its past-clamp budget, say)
/// surfaces as a [`FailedRep`] carrying the exact seed instead of
/// tearing down the campaign; with a [`FabricConfig::rep_timeout`]
/// armed, the same holds for a replication that *hangs* (the
/// watchdog detaches it and reports the seed). Failure selection is
/// deterministic: results fold in replication order, so the reported
/// failure is always the lowest-indexed panicking rep.
pub(crate) fn run_config(
    spec: &CampaignSpec,
    point: &ConfigPoint,
    params: &ScenarioParams,
    cfg: &FabricConfig,
) -> Result<ConfigAggregate, FailedRep> {
    let stream = point.seed_stream(spec.master_seed);
    let scenario = spec.scenario;
    let run_one = |rep: u64| {
        let seed = stream.derive(rep).seed();
        let fail = |message: String| FailedRep {
            config_key: point.key(),
            rep,
            seed,
            message,
        };
        match cfg.rep_timeout {
            // AssertUnwindSafe: on Err every captured reference is
            // dropped without being observed again, so a half-mutated
            // simulation state can never leak into later replications.
            None => catch_unwind(AssertUnwindSafe(|| run_scenario(scenario, params, seed)))
                .map_err(|payload| fail(panic_message(payload))),
            Some(timeout) => {
                // The watchdog thread needs `'static` inputs: clone
                // the params (cheap — plain scalars) so a detached
                // hung replication can never observe freed state.
                let params = params.clone();
                let job = move || {
                    catch_unwind(AssertUnwindSafe(|| run_scenario(scenario, &params, seed)))
                };
                match run_with_watchdog(timeout, job) {
                    Ok(Ok(metrics)) => Ok(metrics),
                    Ok(Err(payload)) => Err(fail(panic_message(payload))),
                    Err(WatchdogError::TimedOut) => Err(fail(format!(
                        "replication exceeded the {:.3}s wall-clock watchdog \
                         (livelocked or thrashing; worker thread detached)",
                        timeout.as_secs_f64()
                    ))),
                    Err(WatchdogError::Died) => {
                        Err(fail("replication thread died without reporting".into()))
                    }
                }
            }
        }
    };
    let metrics: Vec<Result<RunMetrics, FailedRep>> = (0..spec.replications)
        .collect::<Vec<u64>>()
        .into_par_iter()
        .map(run_one)
        .collect();
    let mut agg = ConfigAggregate::new();
    for m in metrics {
        agg.push(&m?);
    }
    Ok(agg)
}

/// First value of a top-level `"key": value` pair in a JSON text,
/// returned as the raw token up to the next `,`/newline/`}` (strings
/// keep their quotes). Formatting-agnostic on whitespace; good enough
/// for the numeric fields of the fabric's attempt and quarantine
/// records.
pub(crate) fn json_field(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_end().to_string())
}

pub(crate) use durable::write_atomic;

/// Renders the deterministic failure report of a fabric merge: one
/// `# FAILED` line per failure, sorted by `(config_key, rep)` — so an
/// N-worker run and a 1-worker run print byte-identical reports no
/// matter which worker observed which failure, or in what order.
pub fn failure_report(failures: &[FailedRep]) -> Vec<String> {
    let mut sorted: Vec<&FailedRep> = failures.iter().collect();
    sorted.sort_by(|a, b| (a.config_key.as_str(), a.rep).cmp(&(b.config_key.as_str(), b.rep)));
    sorted
        .iter()
        .map(|f| {
            format!(
                "# FAILED {} rep {} seed {}: {}",
                f.config_key, f.rep, f.seed, f.message
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_report_orders_by_config_key_then_rep() {
        let fail = |key: &str, rep: u64| FailedRep {
            config_key: key.into(),
            rep,
            seed: 9,
            message: "boom".into(),
        };
        // Arrival order scrambled (as N workers would produce).
        let report = failure_report(&[
            fail("b=1", 1),
            fail("a=1", 2),
            fail("b=1", 0),
            fail("a=1", 0),
        ]);
        let heads: Vec<&str> = report
            .iter()
            .map(|l| l.strip_prefix("# FAILED ").unwrap())
            .collect();
        assert!(heads[0].starts_with("a=1 rep 0"));
        assert!(heads[1].starts_with("a=1 rep 2"));
        assert!(heads[2].starts_with("b=1 rep 0"));
        assert!(heads[3].starts_with("b=1 rep 1"));
    }
}
