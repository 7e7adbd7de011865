//! Subslot utilization (§6.1.3, Fig. 13–15).
//!
//! For δ ∈ {1, 10, 100} the paper shows which subslots nodes A and C
//! use (a) shortly after the first exploration phase and (b) in the
//! final policy. We record the executed-action map over a window and
//! snapshot the learned policies.

use qma_des::SimTime;
use qma_netsim::{NodeId, SlotAction};

/// The checkpoint (seconds) at which the paper samples the early
/// utilization for each δ — "at 170 seconds for δ = 100, 150 seconds
/// for δ = 10, and 370 seconds for δ = 1".
pub fn paper_checkpoint(delta: f64) -> u64 {
    if delta >= 100.0 {
        170
    } else if delta >= 10.0 {
        150
    } else {
        370
    }
}

/// Result of one utilization run.
#[derive(Debug, Clone)]
pub struct SlotUtilization {
    /// δ in pkt/s.
    pub delta: f64,
    /// Dominant executed action per subslot for node A at the
    /// checkpoint (Fig. 13a–15a).
    pub early_a: Vec<Option<SlotAction>>,
    /// Same for node C.
    pub early_c: Vec<Option<SlotAction>>,
    /// Final learned policy of node A (Fig. 13b–15b); QBackoff
    /// entries are reported as `None` ("If no action is shown,
    /// QBackoff is executed").
    pub final_a: Vec<Option<SlotAction>>,
    /// Final policy of node C.
    pub final_c: Vec<Option<SlotAction>>,
}

fn policy_to_map(policy: Vec<SlotAction>) -> Vec<Option<SlotAction>> {
    policy
        .into_iter()
        .map(|a| match a {
            SlotAction::Backoff => None,
            other => Some(other),
        })
        .collect()
}

/// Runs the Fig. 13–15 scenario for one δ.
pub fn run(delta: f64, total_duration_s: u64, seed: u64) -> SlotUtilization {
    let mut sim = crate::convergence::learning_sim(delta, seed).build();

    // Sample the executed-action window around the checkpoint: reset
    // the log 20 s before, snapshot at the checkpoint.
    let checkpoint = paper_checkpoint(delta);
    sim.run_until(SimTime::from_secs(checkpoint.saturating_sub(20)));
    sim.metrics_mut().reset_slot_actions();
    sim.run_until(SimTime::from_secs(checkpoint));
    let early_a = sim.metrics().dominant_slot_actions(NodeId(0));
    let early_c = sim.metrics().dominant_slot_actions(NodeId(2));

    sim.run_until(SimTime::from_secs(total_duration_s));
    let final_a = policy_to_map(sim.policy_snapshot(NodeId(0)).expect("QMA"));
    let final_c = policy_to_map(sim.policy_snapshot(NodeId(2)).expect("QMA"));

    SlotUtilization {
        delta,
        early_a,
        early_c,
        final_a,
        final_c,
    }
}

/// Do two final policies collide (both claiming a transmit action in
/// the same subslot)?
pub fn policies_collide(a: &[Option<SlotAction>], c: &[Option<SlotAction>]) -> usize {
    a.iter()
        .zip(c)
        .filter(|(x, y)| {
            matches!(x, Some(SlotAction::Tx | SlotAction::Cca))
                && matches!(y, Some(SlotAction::Tx | SlotAction::Cca))
        })
        .count()
}

/// Number of transmit subslots in a policy map.
pub fn tx_slots(map: &[Option<SlotAction>]) -> usize {
    map.iter()
        .filter(|a| matches!(a, Some(SlotAction::Tx | SlotAction::Cca)))
        .count()
}

/// Renders the utilization strip ("`.`" backoff/unused, "`C`" CCA,
/// "`T`" transmit) — the textual analogue of Fig. 13–15.
pub fn format_strip(map: &[Option<SlotAction>]) -> String {
    map.iter()
        .map(|a| match a {
            None | Some(SlotAction::Backoff) => '.',
            Some(SlotAction::Cca) => 'C',
            Some(SlotAction::Tx) => 'T',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_policies_are_collision_free_at_moderate_rate() {
        // Fig. 14: "a collision-free schedule of subslots is created
        // for all values of δ".
        let u = run(10.0, 400, 3);
        let overlaps = policies_collide(&u.final_a, &u.final_c);
        assert!(
            overlaps <= 1,
            "A/C policies overlap in {overlaps} subslots:\nA: {}\nC: {}",
            format_strip(&u.final_a),
            format_strip(&u.final_c)
        );
        // Both nodes must hold transmission subslots.
        assert!(tx_slots(&u.final_a) >= 1, "A: {}", format_strip(&u.final_a));
        assert!(tx_slots(&u.final_c) >= 1, "C: {}", format_strip(&u.final_c));
    }

    #[test]
    fn low_rate_leaves_most_subslots_idle() {
        // Fig. 13: "many subslots are not utilized for δ = 1".
        let u = run(1.0, 420, 5);
        let used = tx_slots(&u.final_a) + tx_slots(&u.final_c);
        assert!(
            used < 27,
            "δ=1 should not claim half the CAP: {used} tx subslots"
        );
    }

    #[test]
    fn high_rate_claims_many_subslots() {
        // Fig. 15: "In this scenario, almost all subslots are
        // utilized" for δ = 100.
        let u = run(100.0, 300, 9);
        let used = tx_slots(&u.final_a) + tx_slots(&u.final_c);
        let low = run(1.0, 300, 9);
        let used_low = tx_slots(&low.final_a) + tx_slots(&low.final_c);
        assert!(
            used > used_low,
            "δ=100 ({used}) must claim more subslots than δ=1 ({used_low})"
        );
    }

    #[test]
    fn strip_rendering() {
        let map = vec![None, Some(SlotAction::Cca), Some(SlotAction::Tx)];
        assert_eq!(format_strip(&map), ".CT");
    }

    #[test]
    fn checkpoints_match_paper() {
        assert_eq!(paper_checkpoint(1.0), 370);
        assert_eq!(paper_checkpoint(10.0), 150);
        assert_eq!(paper_checkpoint(100.0), 170);
    }
}
