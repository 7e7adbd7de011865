//! The DSME 3-way GTS handshake as an absorbing Markov chain
//! (paper Fig. 25, Eq. 10, Fig. 26).
//!
//! The handshake sends GTS-request, GTS-response and GTS-notify in
//! sequence; each message is retransmitted by CSMA/CA and "dropped
//! after 3 retries" (4 attempts total). If a message is dropped, the
//! allocation attempt fails and the initiator starts over with a new
//! GTS-request. Every transmission attempt succeeds independently
//! with probability `p`.
//!
//! Two constructions are provided:
//!
//! * [`HandshakeChain::paper`] — the 12-transient-state matrix exactly
//!   as printed in the paper's Eq. 10,
//! * [`HandshakeChain::parametric`] — the same process for arbitrary
//!   message counts and retry limits, with a configurable drop policy.
//!
//! [`simulate_expected_messages`] runs the handshake directly with a
//! random number generator; the integration tests use it to confirm
//! the fundamental-matrix algebra. Note: the values annotated in the
//! paper's Fig. 26 for small `p` do not follow from the paper's own
//! Eq. 10 matrix; our exact computation
//! and the Monte-Carlo simulation agree with each other and match the
//! paper's annotations for large `p`.

use rand::Rng;

use crate::absorbing::{AbsorbingChain, ChainError};
use crate::matrix::Matrix;

/// What happens when a message exhausts its retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DropPolicy {
    /// The whole handshake restarts from the first message (the
    /// paper's model: the allocation is rolled back and retried).
    #[default]
    RestartHandshake,
    /// The handshake is abandoned (absorbed into a failure state).
    Abandon,
}

/// A parametric model of the k-message handshake with per-message
/// retry limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandshakeChain {
    /// Per-attempt success probability.
    pub p: f64,
    /// Number of messages in the handshake (3 for DSME GTS).
    pub messages: usize,
    /// Attempts allowed per message (1 initial + retries; 4 in the
    /// paper: "dropped after 3 retries").
    pub attempts_per_message: usize,
    /// Behaviour when a message is dropped.
    pub drop_policy: DropPolicy,
}

impl HandshakeChain {
    /// The paper's configuration: 3 messages, 4 attempts each, restart
    /// on drop.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    pub fn paper(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1], got {p}");
        HandshakeChain {
            p,
            messages: 3,
            attempts_per_message: 4,
            drop_policy: DropPolicy::RestartHandshake,
        }
    }

    /// A fully parametric handshake chain.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`, `messages >= 1` and
    /// `attempts_per_message >= 1`.
    pub fn parametric(
        p: f64,
        messages: usize,
        attempts_per_message: usize,
        drop_policy: DropPolicy,
    ) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1], got {p}");
        assert!(messages >= 1, "need at least one message");
        assert!(attempts_per_message >= 1, "need at least one attempt");
        HandshakeChain {
            p,
            messages,
            attempts_per_message,
            drop_policy,
        }
    }

    /// Number of transient states (`messages × attempts_per_message`);
    /// 12 for the paper's chain, matching Eq. 9's `t = 12`.
    pub fn transient_states(&self) -> usize {
        self.messages * self.attempts_per_message
    }

    /// Builds the absorbing chain. State `m·A + a` is "attempt `a` of
    /// message `m`"; the single absorbing state (plus a failure state
    /// under [`DropPolicy::Abandon`]) is Success.
    pub fn to_chain(&self) -> AbsorbingChain {
        let t = self.transient_states();
        let a = self.attempts_per_message;
        let absorbing = match self.drop_policy {
            DropPolicy::RestartHandshake => 1,
            DropPolicy::Abandon => 2,
        };
        let mut q = Matrix::zeros(t, t);
        let mut r = Matrix::zeros(t, absorbing);
        let fail = 1.0 - self.p;
        for m in 0..self.messages {
            for att in 0..a {
                let s = m * a + att;
                // Success: next message's first attempt, or absorb.
                if m + 1 < self.messages {
                    q[(s, (m + 1) * a)] += self.p;
                } else {
                    r[(s, 0)] += self.p;
                }
                // Failure: next retry, or drop.
                if att + 1 < a {
                    q[(s, s + 1)] += fail;
                } else {
                    match self.drop_policy {
                        DropPolicy::RestartHandshake => q[(s, 0)] += fail,
                        DropPolicy::Abandon => r[(s, 1)] += fail,
                    }
                }
            }
        }
        AbsorbingChain::new(q, r).expect("constructed chain is stochastic")
    }

    /// Expected number of transmitted messages until the handshake
    /// completes, starting from the first attempt of the first
    /// message (`S[0]` of Eq. 12; plotted in the paper's Fig. 26).
    ///
    /// Under [`DropPolicy::Abandon`] this counts messages until the
    /// handshake *ends* (successfully or not).
    ///
    /// # Errors
    ///
    /// Propagates [`ChainError`] from the linear solve (cannot occur
    /// for valid `p`, but the signature is honest).
    pub fn expected_messages(&self) -> Result<f64, ChainError> {
        Ok(self.to_chain().expected_steps()?[0])
    }

    /// Closed-form expected messages for
    /// [`DropPolicy::RestartHandshake`], used to cross-check the
    /// matrix algebra: with per-stage attempt expectation
    /// `A = (1−q^a)/p` and stage success `s = 1−q^a`,
    /// `E = A·Σ_{i<k} s^i / (1 − (1−s)·Σ_{i<k} s^i)`.
    pub fn closed_form_expected_messages(&self) -> f64 {
        let q = 1.0 - self.p;
        let qa = q.powi(self.attempts_per_message as i32);
        let stage_attempts = (1.0 - qa) / self.p; // E[attempts per stage]
        let s = 1.0 - qa; // stage success probability
        let geom: f64 = (0..self.messages).map(|i| s.powi(i as i32)).sum();
        match self.drop_policy {
            DropPolicy::RestartHandshake => stage_attempts * geom / (1.0 - qa * geom),
            DropPolicy::Abandon => stage_attempts * geom,
        }
    }
}

/// Monte-Carlo estimate of the expected number of transmitted
/// messages per completed handshake.
///
/// Simulates `runs` independent handshakes under the same semantics
/// as [`HandshakeChain::to_chain`] and returns the mean message
/// count.
pub fn simulate_expected_messages<R: Rng + ?Sized>(
    model: &HandshakeChain,
    runs: u64,
    rng: &mut R,
) -> f64 {
    let mut total: u64 = 0;
    for _ in 0..runs {
        total += simulate_one(model, rng);
    }
    total as f64 / runs as f64
}

fn simulate_one<R: Rng + ?Sized>(model: &HandshakeChain, rng: &mut R) -> u64 {
    let mut sent = 0u64;
    'handshake: loop {
        for _message in 0..model.messages {
            let mut delivered = false;
            for _attempt in 0..model.attempts_per_message {
                sent += 1;
                if rng.gen::<f64>() < model.p {
                    delivered = true;
                    break;
                }
            }
            if !delivered {
                match model.drop_policy {
                    DropPolicy::RestartHandshake => continue 'handshake,
                    DropPolicy::Abandon => return sent,
                }
            }
        }
        return sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perfect_channel_needs_exactly_three_messages() {
        let e = HandshakeChain::paper(1.0).expected_messages().unwrap();
        assert!((e - 3.0).abs() < 1e-9);
    }

    #[test]
    fn twelve_transient_states_as_in_eq9() {
        assert_eq!(HandshakeChain::paper(0.5).transient_states(), 12);
    }

    #[test]
    fn matches_closed_form_for_all_p() {
        for i in 1..=10 {
            let p = i as f64 / 10.0;
            let model = HandshakeChain::paper(p);
            let algebraic = model.expected_messages().unwrap();
            let closed = model.closed_form_expected_messages();
            assert!(
                (algebraic - closed).abs() < 1e-8,
                "p={p}: matrix {algebraic} vs closed form {closed}"
            );
        }
    }

    #[test]
    fn abandon_policy_matches_closed_form() {
        for p in [0.2, 0.5, 0.8] {
            let model = HandshakeChain::parametric(p, 3, 4, DropPolicy::Abandon);
            let algebraic = model.expected_messages().unwrap();
            let closed = model.closed_form_expected_messages();
            assert!(
                (algebraic - closed).abs() < 1e-8,
                "p={p}: {algebraic} vs {closed}"
            );
        }
    }

    #[test]
    fn monte_carlo_agrees_with_algebra() {
        let mut rng = StdRng::seed_from_u64(99);
        for p in [0.3, 0.5, 0.9] {
            let model = HandshakeChain::paper(p);
            let algebraic = model.expected_messages().unwrap();
            let simulated = simulate_expected_messages(&model, 200_000, &mut rng);
            let tolerance = algebraic * 0.02;
            assert!(
                (algebraic - simulated).abs() < tolerance,
                "p={p}: algebra {algebraic} vs simulation {simulated}"
            );
        }
    }

    #[test]
    fn expected_messages_decreases_in_p() {
        let mut last = f64::INFINITY;
        for i in 1..=10 {
            let p = i as f64 / 10.0;
            let e = HandshakeChain::paper(p).expected_messages().unwrap();
            assert!(e < last, "not monotone at p={p}");
            last = e;
        }
    }

    #[test]
    fn high_p_matches_paper_annotations() {
        // The paper's Fig. 26 annotations for large p, where drops are
        // rare and all models coincide: 3.0 (p=1), 3.33 (p=0.9),
        // 3.74 (p=0.8), 4.26 (p=0.7).
        for (p, expect) in [(1.0, 3.0), (0.9, 3.33), (0.8, 3.74), (0.7, 4.26)] {
            let e = HandshakeChain::paper(p).expected_messages().unwrap();
            assert!(
                (e - expect).abs() < 0.08,
                "p={p}: computed {e}, paper {expect}"
            );
        }
    }

    #[test]
    fn single_message_no_retries_is_geometric_with_restart() {
        // 1 message, 1 attempt, restart → plain geometric: 1/p.
        let model = HandshakeChain::parametric(0.25, 1, 1, DropPolicy::RestartHandshake);
        assert!((model.expected_messages().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn abandon_single_attempt_is_one_message() {
        let model = HandshakeChain::parametric(0.25, 1, 1, DropPolicy::Abandon);
        assert!((model.expected_messages().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "p must be in (0, 1]")]
    fn zero_p_rejected() {
        let _ = HandshakeChain::paper(0.0);
    }

    #[test]
    fn absorption_probability_is_one_with_restart() {
        let b = HandshakeChain::paper(0.4)
            .to_chain()
            .absorption_probabilities()
            .unwrap();
        assert!((b[(0, 0)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn abandon_absorption_probabilities_split() {
        let model = HandshakeChain::parametric(0.5, 3, 4, DropPolicy::Abandon);
        let b = model.to_chain().absorption_probabilities().unwrap();
        let s = 1.0 - 0.5f64.powi(4);
        // P(success) = s³.
        assert!((b[(0, 0)] - s.powi(3)).abs() < 1e-9);
        assert!((b[(0, 0)] + b[(0, 1)] - 1.0).abs() < 1e-9);
    }
}
