//! The QMA agent (paper §4, Algorithm 1, Fig. 2).
//!
//! One agent runs per node. Per subslot in which the node has traffic
//! it either follows its learned policy or explores (with the
//! parameter-based probability ρ of §4.2); the reward of the chosen
//! action only becomes known later (e.g. when an ACK arrives), so the
//! pending `(state, action)` pair is held until the caller reports the
//! [`ActionOutcome`]. New nodes pass through a cautious-startup
//! observation phase (§4.3) before acting.
//!
//! The agent is driver-agnostic: the MAC adapter in `qma-mac` drives
//! it against the radio simulation, the abstract game in
//! [`crate::game`] drives it directly.

use std::rc::Rc;

use rand::Rng;

use crate::action::QmaAction;
use crate::explore::ExplorationTable;
use crate::qtable::{QTable, UpdateParams};
use crate::reward::{ActionOutcome, RewardTable};
use crate::value::QValue;

/// Static configuration of a QMA agent.
#[derive(Debug, Clone, PartialEq)]
pub struct QmaConfig {
    /// Number of contention subslots per frame (M). The paper divides
    /// the 8 CAP slots of a DSME superframe into 54 subslots.
    pub subslots: u16,
    /// Learning parameters α, γ, ξ (evaluation: α=0.5, γ=0.9).
    pub params: UpdateParams,
    /// Initial Q-value — "a number smaller than the largest
    /// punishment"; the paper initialises to −10.
    pub q_init: f32,
    /// The local reward function (Eq. 6–8).
    pub rewards: RewardTable,
    /// Parameter-based exploration table (Fig. 4).
    pub exploration: ExplorationTable,
    /// Cautious-startup length Δ in participated subslots (§4.3);
    /// 0 disables the startup phase.
    pub startup_subslots: u32,
    /// Whether cautious startup writes the −2/−3 punishments into the
    /// QCCA/QSend cells of subslots with overheard traffic (§4.3).
    pub startup_punishments: bool,
}

impl Default for QmaConfig {
    fn default() -> Self {
        QmaConfig {
            subslots: 54,
            params: UpdateParams::default(),
            q_init: -10.0,
            rewards: RewardTable::paper(),
            exploration: ExplorationTable::paper(),
            startup_subslots: 54,
            startup_punishments: true,
        }
    }
}

/// How an action was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Forced QBackoff during cautious startup.
    Startup,
    /// Greedy: the policy action π(m).
    Greedy,
    /// A uniformly random action (exploration).
    Explore,
}

/// The result of [`QmaAgent::decide`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The action to execute in this subslot.
    pub action: QmaAction,
    /// How the action was selected.
    pub kind: DecisionKind,
    /// The exploration probability ρ that applied (recorded for the
    /// Fig. 11 metric).
    pub rho: f64,
}

/// Counters exposed for metrics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AgentStats {
    /// Total decisions taken (including startup subslots).
    pub decisions: u64,
    /// Decisions that were random explorations.
    pub explorations: u64,
    /// Q-table updates applied.
    pub updates: u64,
    /// Subslots spent in cautious startup.
    pub startup_subslots: u64,
}

/// The per-node QMA learning agent.
///
/// Generic over the Q-value backend `Q` — `f32` by default,
/// [`crate::Fixed16`] for the embedded/no-FPU configuration. The
/// configuration is shared, not copied: the agents of one world hold
/// one [`QmaConfig`] (see [`QmaAgent::with_table`]).
///
/// # Examples
///
/// ```
/// use qma_core::{ActionOutcome, QmaAgent, QmaConfig};
/// use rand::SeedableRng;
///
/// let mut cfg = QmaConfig::default();
/// cfg.startup_subslots = 0; // act immediately
/// let mut agent: QmaAgent = QmaAgent::new(cfg);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let d = agent.decide(0, 0, &mut rng);
/// // Policy is initialised to QBackoff everywhere.
/// assert_eq!(d.action, qma_core::QmaAction::Backoff);
/// agent.complete(ActionOutcome::Backoff { overheard: false }, 1);
/// ```
#[derive(Debug, Clone)]
pub struct QmaAgent<Q: QValue = f32> {
    config: Rc<QmaConfig>,
    table: QTable<Q>,
    startup_remaining: u32,
    started: bool,
    pending: Option<(u16, QmaAction)>,
    stats: AgentStats,
    last_rho: f64,
}

impl<Q: QValue> QmaAgent<Q> {
    /// Creates an agent with Q-values at `q_init` and the policy at
    /// QBackoff for every subslot (Algorithm 1's initialisation).
    pub fn new(config: QmaConfig) -> Self {
        let table = QTable::new(config.subslots, config.q_init);
        Self::with_table(Rc::new(config), table)
    }

    /// Creates an agent over a shared configuration and a table of
    /// its own, such as one of a world's [`crate::qtable::QArena`]
    /// tables. The table should be fresh: the agent starts from its
    /// rows as they are.
    ///
    /// # Panics
    ///
    /// Panics if the table's subslot count differs from the
    /// configuration's.
    pub fn with_table(config: Rc<QmaConfig>, table: QTable<Q>) -> Self {
        assert_eq!(
            table.subslots(),
            config.subslots,
            "the table must have one row per configured subslot"
        );
        QmaAgent {
            startup_remaining: config.startup_subslots,
            config,
            table,
            started: false,
            pending: None,
            stats: AgentStats::default(),
            last_rho: 0.0,
        }
    }

    /// Forgets everything learned: the table's rows return to their
    /// initial values in place, and the agent restarts with cautious
    /// startup, no pending decision and zeroed counters — the agent
    /// [`QmaAgent::new`] builds from the same configuration.
    pub fn reset(&mut self) {
        self.table.reset(self.config.q_init);
        self.startup_remaining = self.config.startup_subslots;
        self.started = false;
        self.pending = None;
        self.stats = AgentStats::default();
        self.last_rho = 0.0;
    }

    /// The agent's configuration.
    pub fn config(&self) -> &QmaConfig {
        &self.config
    }

    /// Read access to the Q-table (policy, values, Σ Q(m, π(m))).
    pub fn table(&self) -> &QTable<Q> {
        &self.table
    }

    /// Counters for metrics.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// `true` while the agent is in the cautious-startup phase.
    pub fn in_startup(&self) -> bool {
        self.started && self.startup_remaining > 0
    }

    /// `true` once the agent has participated in at least one subslot.
    pub fn has_started(&self) -> bool {
        self.started
    }

    /// The ρ used by the most recent decision (Fig. 11 metric).
    pub fn last_rho(&self) -> f64 {
        self.last_rho
    }

    /// Σₘ Q(m, π(m)) — the cumulative-Q metric plotted per frame in
    /// Fig. 10 and Fig. 12.
    pub fn policy_value_sum(&self) -> f64 {
        self.table.policy_value_sum()
    }

    /// Selects the action for `subslot` given the queue-level
    /// difference `local − neighbour average` (§4.2).
    ///
    /// Must be followed by exactly one [`QmaAgent::complete`] call
    /// once the action's outcome is known.
    ///
    /// # Panics
    ///
    /// Panics if a previous decision is still awaiting its outcome.
    pub fn decide<R: Rng + ?Sized>(
        &mut self,
        subslot: u16,
        queue_diff: i32,
        rng: &mut R,
    ) -> Decision {
        assert!(
            self.pending.is_none(),
            "decide() called while an outcome is still pending"
        );
        self.started = true;
        self.stats.decisions += 1;

        if self.in_startup() {
            self.stats.startup_subslots += 1;
            self.pending = Some((subslot, QmaAction::Backoff));
            self.last_rho = 0.0;
            return Decision {
                action: QmaAction::Backoff,
                kind: DecisionKind::Startup,
                rho: 0.0,
            };
        }

        let rho = self.config.exploration.rho(queue_diff);
        self.last_rho = rho;
        let explore = rho > 0.0 && rng.gen::<f64>() < rho;
        let (action, kind) = if explore {
            self.stats.explorations += 1;
            let idx = rng.gen_range(0..QmaAction::COUNT);
            (QmaAction::from_index(idx), DecisionKind::Explore)
        } else {
            (self.table.policy(subslot), DecisionKind::Greedy)
        };
        self.pending = Some((subslot, action));
        Decision { action, kind, rho }
    }

    /// Reports the outcome of the pending action. `next_subslot` is
    /// the subslot at which the outcome became known (`mₜ₊ᵢ` in Eq. 5;
    /// values ≥ M wrap around to the next frame).
    ///
    /// During cautious startup this applies the QBackoff observation
    /// reward and, when traffic was overheard, the −2/−3 punishments
    /// that mark the subslot as occupied (§4.3).
    ///
    /// # Panics
    ///
    /// Panics if no decision is pending or the outcome's action does
    /// not match the pending action.
    pub fn complete(&mut self, outcome: ActionOutcome, next_subslot: u16) {
        let (subslot, action) = self
            .pending
            .take()
            .expect("complete() called without a pending decision");
        assert_eq!(
            outcome.action(),
            action,
            "outcome {outcome:?} does not match pending action {action}"
        );

        let reward = self.config.rewards.reward(outcome);
        self.table
            .update(subslot, action, reward, next_subslot, &self.config.params);
        self.stats.updates += 1;

        if self.in_startup() {
            if self.config.startup_punishments {
                if let ActionOutcome::Backoff { overheard: true } = outcome {
                    self.punish_occupied(subslot, next_subslot);
                }
            }
            self.startup_remaining -= 1;
        }
    }

    /// Abandons a pending decision without updating the table (used
    /// when a frame boundary interrupts an action, e.g. the CAP ends
    /// before the ACK timeout).
    pub fn abort_pending(&mut self) {
        self.pending = None;
    }

    /// Whether a decision is awaiting its outcome.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Writes the §4.3 punishments into the QCCA/QSend cells of an
    /// observed-busy subslot.
    fn punish_occupied(&mut self, subslot: u16, next_subslot: u16) {
        let p = &self.config.params;
        self.table.update(
            subslot,
            QmaAction::Cca,
            self.config.rewards.startup_punish_cca,
            next_subslot,
            p,
        );
        self.table.update(
            subslot,
            QmaAction::Send,
            self.config.rewards.startup_punish_send,
            next_subslot,
            p,
        );
        self.stats.updates += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn no_startup_config() -> QmaConfig {
        QmaConfig {
            startup_subslots: 0,
            ..QmaConfig::default()
        }
    }

    #[test]
    fn default_config_matches_paper() {
        let c = QmaConfig::default();
        assert_eq!(c.subslots, 54);
        assert_eq!(c.params.alpha, 0.5);
        assert_eq!(c.params.gamma, 0.9);
        assert_eq!(c.q_init, -10.0);
        assert!(c.startup_punishments);
    }

    #[test]
    fn greedy_follows_initial_policy() {
        let mut agent: QmaAgent = QmaAgent::new(no_startup_config());
        let mut rng = StdRng::seed_from_u64(1);
        let d = agent.decide(7, 0, &mut rng); // diff 0 → ρ=0 → greedy
        assert_eq!(d.action, QmaAction::Backoff);
        assert_eq!(d.kind, DecisionKind::Greedy);
        assert_eq!(d.rho, 0.0);
        agent.complete(ActionOutcome::Backoff { overheard: false }, 8);
    }

    #[test]
    fn exploration_rate_is_respected() {
        let mut agent: QmaAgent = QmaAgent::new(no_startup_config());
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let mut explored = 0u32;
        for i in 0..n {
            let m = (i % 54) as u16;
            let d = agent.decide(m, 8, &mut rng); // ρ=0.3
            if d.kind == DecisionKind::Explore {
                explored += 1;
            }
            assert_eq!(d.rho, 0.3);
            // Feed a failure outcome matching whatever was chosen so
            // the policy stays at QBackoff throughout.
            let outcome = match d.action {
                QmaAction::Backoff => ActionOutcome::Backoff { overheard: false },
                QmaAction::Cca => ActionOutcome::CcaTx { acked: false },
                QmaAction::Send => ActionOutcome::SendTx { acked: false },
            };
            agent.complete(outcome, m + 1);
        }
        let rate = explored as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "exploration rate {rate}");
        assert_eq!(agent.stats().explorations as u32, explored);
    }

    #[test]
    fn startup_forces_backoff_and_punishes() {
        let cfg = QmaConfig {
            startup_subslots: 3,
            ..QmaConfig::default()
        };
        let mut agent: QmaAgent = QmaAgent::new(cfg);
        let mut rng = StdRng::seed_from_u64(3);

        assert!(!agent.has_started());
        let d = agent.decide(0, 8, &mut rng);
        assert!(agent.in_startup());
        assert_eq!(d.kind, DecisionKind::Startup);
        assert_eq!(d.action, QmaAction::Backoff);
        // Overheard traffic: B rewarded, C/S punished below init.
        agent.complete(ActionOutcome::Backoff { overheard: true }, 1);
        assert!(agent.table().q(0, QmaAction::Backoff) > -10.0);
        assert!(agent.table().q(0, QmaAction::Cca) < -10.0);
        assert!(agent.table().q(0, QmaAction::Send) < -10.0);

        // Two more participated subslots end the startup.
        for m in 1..3u16 {
            let d = agent.decide(m, 8, &mut rng);
            assert_eq!(d.kind, DecisionKind::Startup);
            agent.complete(ActionOutcome::Backoff { overheard: false }, m + 1);
        }
        assert!(!agent.in_startup());
        let d = agent.decide(3, 0, &mut rng);
        assert_ne!(d.kind, DecisionKind::Startup);
    }

    #[test]
    fn startup_without_punishments() {
        let cfg = QmaConfig {
            startup_subslots: 1,
            startup_punishments: false,
            ..QmaConfig::default()
        };
        let mut agent: QmaAgent = QmaAgent::new(cfg);
        let mut rng = StdRng::seed_from_u64(4);
        agent.decide(0, 8, &mut rng);
        agent.complete(ActionOutcome::Backoff { overheard: true }, 1);
        assert_eq!(agent.table().q(0, QmaAction::Cca), -10.0);
        assert_eq!(agent.table().q(0, QmaAction::Send), -10.0);
    }

    #[test]
    #[should_panic(expected = "still pending")]
    fn double_decide_panics() {
        let mut agent: QmaAgent = QmaAgent::new(no_startup_config());
        let mut rng = StdRng::seed_from_u64(5);
        agent.decide(0, 0, &mut rng);
        agent.decide(1, 0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "without a pending decision")]
    fn complete_without_decide_panics() {
        let mut agent: QmaAgent = QmaAgent::new(no_startup_config());
        agent.complete(ActionOutcome::Backoff { overheard: false }, 0);
    }

    #[test]
    #[should_panic(expected = "does not match pending action")]
    fn mismatched_outcome_panics() {
        let mut agent: QmaAgent = QmaAgent::new(no_startup_config());
        let mut rng = StdRng::seed_from_u64(6);
        let d = agent.decide(0, 0, &mut rng);
        assert_eq!(d.action, QmaAction::Backoff);
        agent.complete(ActionOutcome::SendTx { acked: true }, 1);
    }

    #[test]
    fn abort_pending_allows_new_decision() {
        let mut agent: QmaAgent = QmaAgent::new(no_startup_config());
        let mut rng = StdRng::seed_from_u64(7);
        agent.decide(0, 0, &mut rng);
        assert!(agent.has_pending());
        agent.abort_pending();
        assert!(!agent.has_pending());
        agent.decide(1, 0, &mut rng); // no panic
    }

    #[test]
    fn successful_transmissions_become_policy() {
        let mut agent: QmaAgent = QmaAgent::new(no_startup_config());
        let mut rng = StdRng::seed_from_u64(8);
        // Keep exploring at max rate; every transmission succeeds.
        // The policy for the subslot must converge to a transmitting
        // action (QSend's +4 dominates in the long run, but a run of
        // lucky QCCAs may legitimately hold the slot too).
        for _ in 0..1000 {
            let d = agent.decide(5, 8, &mut rng);
            let outcome = match d.action {
                QmaAction::Backoff => ActionOutcome::Backoff { overheard: false },
                QmaAction::Cca => ActionOutcome::CcaTx { acked: true },
                QmaAction::Send => ActionOutcome::SendTx { acked: true },
            };
            agent.complete(outcome, 6);
        }
        assert!(
            agent.table().policy(5).may_transmit(),
            "policy {:?} never claimed the successful slot",
            agent.table().policy(5)
        );
        // With everything succeeding, QSend's fixed point
        // q = 0.5q + 0.5(4 + 0.9·q) beats QCCA's; after enough trials
        // the policy is QSend specifically.
        assert_eq!(agent.table().policy(5), QmaAction::Send);
        // Greedy decision now picks it.
        let d = agent.decide(5, 0, &mut rng);
        assert_eq!(d.action, QmaAction::Send);
        agent.complete(ActionOutcome::SendTx { acked: true }, 6);
    }

    #[test]
    fn stats_accumulate() {
        let mut agent: QmaAgent = QmaAgent::new(no_startup_config());
        let mut rng = StdRng::seed_from_u64(9);
        for m in 0..10u16 {
            agent.decide(m, 0, &mut rng);
            agent.complete(ActionOutcome::Backoff { overheard: false }, m + 1);
        }
        let s = agent.stats();
        assert_eq!(s.decisions, 10);
        assert_eq!(s.updates, 10);
        assert_eq!(s.explorations, 0);
    }

    #[test]
    fn policy_value_sum_starts_at_init_times_subslots() {
        let agent: QmaAgent = QmaAgent::new(QmaConfig::default());
        assert_eq!(agent.policy_value_sum(), -10.0 * 54.0);
    }

    #[test]
    fn reset_matches_a_new_agent() {
        let cfg = QmaConfig {
            subslots: 4,
            startup_subslots: 2,
            ..QmaConfig::default()
        };
        let mut agent: QmaAgent = QmaAgent::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..40u16 {
            let d = agent.decide(i % 4, 8, &mut rng);
            let outcome = match d.action {
                QmaAction::Backoff => ActionOutcome::Backoff { overheard: true },
                QmaAction::Cca => ActionOutcome::CcaTx { acked: true },
                QmaAction::Send => ActionOutcome::SendTx { acked: true },
            };
            agent.complete(outcome, i % 4 + 1);
        }
        agent.decide(0, 8, &mut rng);
        agent.reset();
        let fresh: QmaAgent = QmaAgent::new(cfg);
        assert_eq!(agent.table(), fresh.table());
        assert_eq!(agent.stats(), fresh.stats());
        assert!(!agent.has_pending() && !agent.has_started());
        assert_eq!(agent.last_rho(), 0.0);
        // Cautious startup runs again.
        assert_eq!(agent.decide(1, 8, &mut rng).kind, DecisionKind::Startup);
    }

    #[test]
    fn fixed_point_agent_learns_like_float() {
        use crate::value::Fixed16;
        let mut cfg = no_startup_config();
        cfg.subslots = 4;
        let mut f_agent: QmaAgent<f32> = QmaAgent::new(cfg.clone());
        let mut x_agent: QmaAgent<Fixed16> = QmaAgent::new(cfg);
        // Drive both with identical deterministic outcome sequences.
        let mut rng_f = StdRng::seed_from_u64(10);
        let mut rng_x = StdRng::seed_from_u64(10);
        for i in 0..200u32 {
            let m = (i % 4) as u16;
            let df = f_agent.decide(m, 4, &mut rng_f);
            let dx = x_agent.decide(m, 4, &mut rng_x);
            assert_eq!(df.action, dx.action, "diverged at step {i}");
            let acked = i % 3 == 0;
            let outcome = match df.action {
                QmaAction::Backoff => ActionOutcome::Backoff { overheard: acked },
                QmaAction::Cca => ActionOutcome::CcaTx { acked },
                QmaAction::Send => ActionOutcome::SendTx { acked },
            };
            f_agent.complete(outcome, m + 1);
            x_agent.complete(outcome, m + 1);
        }
        for m in 0..4u16 {
            assert_eq!(
                f_agent.table().policy(m),
                x_agent.table().policy(m),
                "policy diverged at subslot {m}"
            );
        }
    }
}
