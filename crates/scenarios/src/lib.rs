//! Experiment definitions reproducing every table and figure of the
//! paper's evaluation (§6 and Appendix A).
//!
//! Each module owns one experiment family and returns *structured*
//! results; `qma-bench`'s `reproduce` prints them in the paper's
//! table/series shapes, and the workspace integration tests assert
//! their qualitative claims (who wins, by roughly what factor).
//!
//! | Module | Paper artefacts |
//! |---|---|
//! | [`hidden_node`] | Fig. 7 (PDR), Fig. 8 (queue), Fig. 9 (delay) |
//! | [`convergence`] | Fig. 10 (cumulative Q), Fig. 11 (ρ) |
//! | [`fluctuating`] | Fig. 12 (adaptability) |
//! | [`slots`] | Fig. 13–15 (subslot utilization) |
//! | [`testbed`] | Fig. 18/19 (per-node PDR), §6.2.1 (energy) |
//! | [`dsme_scale`] | Fig. 21 (secondary PDR), Fig. 22 (GTS requests) |
//! | [`markov`] | Fig. 26 (expected handshake messages) |
//! | [`ablation`] | design-knob ablations (ξ, exploration, startup, rewards) |
//! | [`tables`] | Tables 1–4 |
//! | [`params`] | parameterized grid-point runs for campaign sweeps |
//! | [`massive`] | 1k–50k-node massive-access stress runs |
//! | [`chaos`] | fault-injected runs with recovery metrics |
//!
//! Every experiment takes a master seed and a `quick` flag: `quick`
//! shrinks replication counts and durations for CI while preserving
//! the qualitative shape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod chaos;
pub mod common;
pub mod convergence;
pub mod dsme_scale;
pub mod fluctuating;
pub mod hidden_node;
pub mod markov;
pub mod massive;
pub mod params;
pub mod slots;
pub mod tables;
pub mod testbed;

pub use common::{MacKind, UpperImpl};
pub use params::{
    run_scenario, ChaosKnobs, MassiveTopology, Resilience, RunMetrics, ScenarioKind, ScenarioParams,
};
