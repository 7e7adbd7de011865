//! # qma-core — the QMA multiple-access learning scheme
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Meyer & Turau, *QMA: A Resource-efficient, Q-learning-based
//! Multiple Access Scheme for the IIoT*, ICDCS 2021): a per-node
//! Q-learning agent that learns **which contention subslots are good
//! for transmission** and which are likely to collide, purely from
//! local observations.
//!
//! The crate is deliberately *simulator-independent*: it contains the
//! learning agent exactly as it would run on an embedded device (the
//! paper targets Cortex-M3 nodes without an FPU — see the fixed-point
//! backend in [`value`]). The workspace's `qma-mac` crate adapts it to
//! the radio simulation.
//!
//! ## Structure
//!
//! * [`action`] — the action set {QBackoff, QCCA, QSend} (§4),
//! * [`reward`] — the local reward function of Eq. 6–8 and the action
//!   outcomes that produce rewards,
//! * [`interaction`] — the conceptual global interaction of Table 4:
//!   given every agent's action in a subslot, who succeeds, who
//!   collides, and which local rewards result,
//! * [`value`] — Q-value arithmetic over `f32` or 16-bit fixed point,
//! * [`qtable`] — the Q-table with the paper's update rule (Eq. 5,
//!   including the penalty ξ for stochastic environments) and the
//!   strict-improvement policy table (Eq. 3),
//! * [`explore`] — parameter-based exploration (§4.2, Fig. 4),
//! * [`agent`] — the full QMA agent: per-subslot action selection,
//!   cautious startup (§4.3), deferred reward application,
//! * [`lauer`] — the underlying distributed Q-learning algorithm for
//!   cooperative multi-agent systems (Lauer & Riedmiller) that QMA
//!   extends, reproducing the paper's Tables 1–3,
//! * [`game`] — an abstract "subslot game" that lets the learning
//!   dynamics be exercised and tested without a radio simulator.
//!
//! ## Quick start
//!
//! ```
//! use qma_core::{QmaAgent, QmaConfig, ActionOutcome, QmaAction};
//! use rand::SeedableRng;
//!
//! let mut agent: QmaAgent = QmaAgent::new(QmaConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! // At subslot 0 with one queued packet and idle neighbours:
//! let decision = agent.decide(0, 1, &mut rng);
//! // ... execute the action on the radio; once its outcome is known:
//! match decision.action {
//!     QmaAction::Backoff => agent.complete(ActionOutcome::Backoff { overheard: false }, 1),
//!     QmaAction::Cca => agent.complete(ActionOutcome::CcaTx { acked: true }, 3),
//!     QmaAction::Send => agent.complete(ActionOutcome::SendTx { acked: true }, 3),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod agent;
pub mod explore;
pub mod game;
pub mod interaction;
pub mod lauer;
pub mod qtable;
pub mod reward;
pub mod value;

pub use action::QmaAction;
pub use agent::{Decision, QmaAgent, QmaConfig};
pub use explore::ExplorationTable;
pub use qtable::{QArena, QTable};
pub use reward::{ActionOutcome, RewardTable};
pub use value::{Fixed16, QValue};
