//! Ablation studies of QMA's design choices (the knobs §3.1.1, §4.1,
//! §4.2 and §4.3 of the paper argue for):
//!
//! * the stochastic-environment penalty **ξ** (without it, optimistic
//!   updates pin colliding actions forever),
//! * **parameter-based exploration** vs ε-greedy-style constant rates
//!   vs no exploration,
//! * **cautious startup** on/off,
//! * the **reward balance** (the paper's table vs the "QSend = 8"
//!   variant that collapses cooperation).
//!
//! Each ablation runs the hidden-node scenario of §6.1 with one knob
//! changed and reports PDR — the metric the design choices exist to
//! protect.

use qma_core::qtable::UpdateParams;
use qma_core::{ExplorationTable, QmaConfig, RewardTable};
use qma_mac::QmaMacConfig;

use crate::common::MacKind;
use crate::hidden_node;

/// One ablation variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Display name.
    pub name: &'static str,
    /// The agent configuration to run.
    pub config: QmaConfig,
}

/// The standard ablation battery.
pub fn variants() -> Vec<Variant> {
    let base = QmaConfig::default();
    vec![
        Variant {
            name: "paper defaults",
            config: base.clone(),
        },
        Variant {
            name: "no penalty (xi = 0)",
            config: QmaConfig {
                params: UpdateParams {
                    xi: 0.0,
                    ..base.params
                },
                ..base.clone()
            },
        },
        Variant {
            name: "constant exploration (1%)",
            config: QmaConfig {
                exploration: ExplorationTable::constant(0.01),
                ..base.clone()
            },
        },
        Variant {
            name: "no exploration",
            config: QmaConfig {
                exploration: ExplorationTable::disabled(),
                ..base.clone()
            },
        },
        Variant {
            name: "no cautious startup",
            config: QmaConfig {
                startup_subslots: 0,
                ..base.clone()
            },
        },
        Variant {
            name: "greedy rewards (QSend success = 8)",
            config: QmaConfig {
                rewards: RewardTable::greedy_send(),
                ..base
            },
        },
    ]
}

/// Result of one ablation run.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Variant name.
    pub name: &'static str,
    /// Hidden-node PDR of A and C.
    pub pdr: f64,
    /// Average queue level during the data phase.
    pub queue: f64,
}

/// Runs one variant in the δ-pkt/s hidden-node scenario.
pub fn run_variant(variant: &Variant, delta: f64, packets: u64, seed: u64) -> AblationResult {
    let qma_cfg = QmaMacConfig {
        agent: variant.config.clone(),
        ..QmaMacConfig::default()
    };
    let run = hidden_node::run_once_with(MacKind::Qma, &qma_cfg, delta, packets, seed);
    AblationResult {
        name: variant.name,
        pdr: run.pdr,
        queue: run.queue,
    }
}

/// Runs the whole battery.
pub fn run_all(delta: f64, packets: u64, seed: u64) -> Vec<AblationResult> {
    variants()
        .iter()
        .map(|v| run_variant(v, delta, packets, seed))
        .collect()
}

/// Formats the battery as a markdown table.
pub fn format_table(results: &[AblationResult]) -> String {
    let mut out = String::from("| variant | PDR | avg queue |\n|---|---|---|\n");
    for r in results {
        out.push_str(&format!("| {} | {:.3} | {:.2} |\n", r.name, r.pdr, r.queue));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_covers_all_design_knobs() {
        let names: Vec<&str> = variants().iter().map(|v| v.name).collect();
        assert_eq!(names.len(), 6);
        assert!(names.contains(&"paper defaults"));
        assert!(names.contains(&"no penalty (xi = 0)"));
        assert!(names.contains(&"no exploration"));
    }

    #[test]
    fn no_exploration_never_transmits() {
        // Without any exploration the policy never leaves QBackoff:
        // nothing is ever delivered. This is the cleanest possible
        // demonstration that exploration is load-bearing (§4.2).
        let v = variants()
            .into_iter()
            .find(|v| v.name == "no exploration")
            .expect("variant exists");
        let r = run_variant(&v, 25.0, 100, 3);
        assert_eq!(r.pdr, 0.0, "no-exploration must starve");
        let base = variants().into_iter().next().expect("paper defaults");
        let b = run_variant(&base, 25.0, 100, 3);
        assert!(b.pdr > 0.8, "paper defaults deliver: {:.3}", b.pdr);
    }

    #[test]
    fn penalty_matters_under_contention() {
        // ξ = 0 keeps colliding QSend cells at their best-ever value
        // (§3.1.1); under hidden-node contention that costs delivery.
        let all = variants();
        let base = run_variant(&all[0], 50.0, 250, 11);
        let no_xi = run_variant(&all[1], 50.0, 250, 11);
        assert!(
            base.pdr >= no_xi.pdr - 0.05,
            "penalty should not hurt: base {:.3} vs xi=0 {:.3}",
            base.pdr,
            no_xi.pdr
        );
    }
}
