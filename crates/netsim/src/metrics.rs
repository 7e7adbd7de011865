//! Metrics recorders backing every figure of the evaluation.
//!
//! | Recorder | Paper artefact |
//! |---|---|
//! | app generated/delivered + delay | Fig. 7 (PDR), Fig. 9 (delay), Fig. 18/19 (per-node PDR) |
//! | queue level (time-weighted) | Fig. 8 |
//! | learner samples (Σ Q(m,π(m)), ρ) per frame | Fig. 10, 11, 12 |
//! | slot-action log | Fig. 13–15 (subslot utilization) |
//! | MAC counters | §6.2.1 energy parity, CSMA drop analysis |
//! | named counters | DSME GTS statistics (Fig. 21/22) |

use std::collections::BTreeMap;

use qma_des::SimTime;
use qma_stats::{TimeSeries, TimeWeighted, Welford};

use crate::world::NodeId;

/// Final disposition of a MAC-layer transmission attempt chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxResult {
    /// Acknowledged (or broadcast completed).
    Delivered,
    /// Dropped after exhausting retransmissions (N_R).
    RetryLimit,
    /// Dropped because CSMA/CA exceeded macMaxCSMABackoffs.
    ChannelAccessFailure,
}

/// What a MAC did in a subslot (for the Fig. 13–15 utilization maps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotAction {
    /// Backed off / only observed.
    Backoff,
    /// Performed a CCA (without transmitting).
    Cca,
    /// Transmitted.
    Tx,
}

impl SlotAction {
    fn index(self) -> usize {
        match self {
            SlotAction::Backoff => 0,
            SlotAction::Cca => 1,
            SlotAction::Tx => 2,
        }
    }
}

/// Per-frame learning metrics sampled from a learning MAC.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LearnerSample {
    /// Σₘ Q(m, π(m)) — cumulative Q-value following the policy.
    pub q_sum: f64,
    /// The exploration probability ρ currently in force.
    pub rho: f64,
}

/// Per-node MAC counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MacCounters {
    /// Frame transmission attempts (every time energy was emitted).
    pub tx_attempts: u64,
    /// Transmission chains that ended acknowledged/delivered.
    pub tx_delivered: u64,
    /// Drops after the retransmission limit.
    pub drops_retry: u64,
    /// Drops after CSMA/CA channel-access failure.
    pub drops_channel_access: u64,
    /// CCAs performed.
    pub ccas: u64,
}

/// Central metrics collection for one simulation run.
#[derive(Debug, Clone)]
pub struct MetricsHub {
    n: usize,
    app_generated: Vec<u64>,
    app_delivered: Vec<u64>,
    delay: Vec<Welford>,
    queue_level: Vec<TimeWeighted>,
    mac: Vec<MacCounters>,
    /// Per node: Σ Q over time; empty without learner recording.
    learner: Vec<TimeSeries>,
    /// Per node: ρ over time; empty without learner recording.
    rho: Vec<TimeSeries>,
    /// Node-major action counts, `subslots` cells per node: node `i`
    /// owns `slot_actions[i * subslots..(i + 1) * subslots]`.
    slot_actions: Vec<[u64; 3]>,
    subslots: usize,
    named: BTreeMap<&'static str, f64>,
    named_per_node: BTreeMap<(&'static str, u32), f64>,
    horizon: SimTime,
}

impl MetricsHub {
    /// Creates a hub for `n` nodes with `subslots` contention
    /// subslots per frame.
    ///
    /// `subslots` sizes the slot-action maps of Fig. 13–15 (one flat
    /// node-major array of `n × subslots` cells). With 0 subslots the
    /// hub records no learner: it keeps no map and no learner series,
    /// so [`MetricsHub::slot_action`] and
    /// [`MetricsHub::learner_sample`] are no-ops,
    /// [`MetricsHub::dominant_slot_actions`] returns an empty list and
    /// [`MetricsHub::q_sum_series`] and [`MetricsHub::rho_series`]
    /// an empty series. [`crate::SimBuilder::build`] passes 0 unless
    /// learner recording is on.
    pub fn new(n: usize, subslots: u16) -> Self {
        let series = if subslots > 0 { n } else { 0 };
        MetricsHub {
            n,
            app_generated: vec![0; n],
            app_delivered: vec![0; n],
            delay: vec![Welford::new(); n],
            queue_level: vec![TimeWeighted::new(0.0, 0.0); n],
            mac: vec![MacCounters::default(); n],
            learner: vec![TimeSeries::new(); series],
            rho: vec![TimeSeries::new(); series],
            slot_actions: vec![[0; 3]; n * subslots as usize],
            subslots: subslots as usize,
            named: BTreeMap::new(),
            named_per_node: BTreeMap::new(),
            horizon: SimTime::ZERO,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.n
    }

    // ---- Application / end-to-end ----

    /// Counts a generated application packet at its origin.
    pub fn app_generated(&mut self, origin: NodeId) {
        self.app_generated[origin.index()] += 1;
    }

    /// Counts a sink delivery for `origin` with end-to-end `delay`.
    pub fn app_delivered(&mut self, origin: NodeId, delay_s: f64) {
        self.app_delivered[origin.index()] += 1;
        self.delay[origin.index()].push(delay_s);
    }

    /// Packets generated by a node.
    pub fn generated(&self, origin: NodeId) -> u64 {
        self.app_generated[origin.index()]
    }

    /// Packets from `origin` delivered end-to-end.
    pub fn delivered(&self, origin: NodeId) -> u64 {
        self.app_delivered[origin.index()]
    }

    /// Packet delivery ratio of one origin (`None` if it generated
    /// nothing).
    pub fn pdr(&self, origin: NodeId) -> Option<f64> {
        let g = self.generated(origin);
        (g > 0).then(|| self.delivered(origin) as f64 / g as f64)
    }

    /// Aggregate PDR over a set of origins.
    pub fn pdr_of(&self, origins: impl IntoIterator<Item = NodeId>) -> Option<f64> {
        let mut g = 0u64;
        let mut d = 0u64;
        for o in origins {
            g += self.generated(o);
            d += self.delivered(o);
        }
        (g > 0).then(|| d as f64 / g as f64)
    }

    /// Mean end-to-end delay of one origin, seconds.
    pub fn mean_delay(&self, origin: NodeId) -> Option<f64> {
        let w = &self.delay[origin.index()];
        (!w.is_empty()).then(|| w.mean())
    }

    /// Mean end-to-end delay over several origins, seconds.
    pub fn mean_delay_of(&self, origins: impl IntoIterator<Item = NodeId>) -> Option<f64> {
        let mut acc = Welford::new();
        for o in origins {
            acc.merge(&self.delay[o.index()]);
        }
        (!acc.is_empty()).then(|| acc.mean())
    }

    // ---- Queue levels ----

    /// Records a queue-level change.
    pub fn queue_level(&mut self, node: NodeId, now: SimTime, level: usize) {
        self.queue_level[node.index()].record(now.as_secs_f64(), level as f64);
    }

    /// Time-weighted average queue level up to the recorded horizon.
    pub fn avg_queue_level(&self, node: NodeId) -> f64 {
        self.queue_level[node.index()].average_until(self.horizon.as_secs_f64())
    }

    /// Restarts a node's queue-level averaging window at `now` with
    /// the given current level (e.g. to exclude a warmup phase from
    /// the Fig. 8 metric).
    pub fn restart_queue_accounting(&mut self, node: NodeId, now: SimTime, level: usize) {
        self.queue_level[node.index()] = TimeWeighted::new(now.as_secs_f64(), level as f64);
    }

    /// Time-weighted average queue level up to an explicit instant
    /// (e.g. the end of the traffic phase, excluding the drain tail).
    pub fn avg_queue_level_until(&self, node: NodeId, until: SimTime) -> f64 {
        self.queue_level[node.index()].average_until(until.as_secs_f64())
    }

    // ---- MAC counters ----

    /// Mutable access to a node's MAC counters.
    pub fn mac_mut(&mut self, node: NodeId) -> &mut MacCounters {
        &mut self.mac[node.index()]
    }

    /// A node's MAC counters.
    pub fn mac(&self, node: NodeId) -> &MacCounters {
        &self.mac[node.index()]
    }

    /// Records the final result of a transmission chain.
    pub fn tx_result(&mut self, node: NodeId, result: TxResult) {
        let c = self.mac_mut(node);
        match result {
            TxResult::Delivered => c.tx_delivered += 1,
            TxResult::RetryLimit => c.drops_retry += 1,
            TxResult::ChannelAccessFailure => c.drops_channel_access += 1,
        }
    }

    // ---- Learning metrics ----

    /// Appends a per-frame learner sample (Fig. 10–12). A hub without
    /// learner recording (0 subslots) ignores it.
    pub fn learner_sample(&mut self, node: NodeId, now: SimTime, sample: LearnerSample) {
        if self.subslots == 0 {
            return;
        }
        let t = now.as_secs_f64();
        self.learner[node.index()].push(t, sample.q_sum);
        self.rho[node.index()].push(t, sample.rho);
    }

    /// The Σ Q(m, π(m)) time series of a node (empty without learner
    /// recording).
    pub fn q_sum_series(&self, node: NodeId) -> &TimeSeries {
        self.series(&self.learner, node)
    }

    /// The ρ time series of a node (empty without learner recording).
    pub fn rho_series(&self, node: NodeId) -> &TimeSeries {
        self.series(&self.rho, node)
    }

    /// A node's entry of a learner series, or the empty series on a
    /// hub that keeps none.
    fn series<'a>(&self, per_node: &'a [TimeSeries], node: NodeId) -> &'a TimeSeries {
        static EMPTY: TimeSeries = TimeSeries::new();
        if self.subslots == 0 {
            &EMPTY
        } else {
            &per_node[node.index()]
        }
    }

    // ---- Slot utilization ----

    /// Counts an executed subslot action (Fig. 13–15). A subslot
    /// outside the map (always the case with a 0-subslot hub) is
    /// ignored.
    pub fn slot_action(&mut self, node: NodeId, subslot: u16, action: SlotAction) {
        let subslot = subslot as usize;
        if subslot < self.subslots {
            self.slot_actions[node.index() * self.subslots + subslot][action.index()] += 1;
        }
    }

    /// Resets the slot-action window for all nodes (the paper shows
    /// utilization "after the first exploration phase", i.e. over a
    /// window).
    pub fn reset_slot_actions(&mut self) {
        self.slot_actions.fill([0; 3]);
    }

    /// The dominant action a node executed in each subslot over the
    /// current window (`None` for never-used subslots).
    pub fn dominant_slot_actions(&self, node: NodeId) -> Vec<Option<SlotAction>> {
        self.slot_action_counts(node)
            .iter()
            .map(|cell| {
                let total: u64 = cell.iter().sum();
                if total == 0 {
                    return None;
                }
                let best = (0..3).max_by_key(|&i| cell[i]).expect("3 actions");
                Some(match best {
                    0 => SlotAction::Backoff,
                    1 => SlotAction::Cca,
                    _ => SlotAction::Tx,
                })
            })
            .collect()
    }

    /// Raw slot-action counts for a node, one cell per subslot.
    pub fn slot_action_counts(&self, node: NodeId) -> &[[u64; 3]] {
        let start = node.index() * self.subslots;
        &self.slot_actions[start..start + self.subslots]
    }

    // ---- Named counters (protocol-specific statistics) ----

    /// Adds to a global named counter.
    pub fn count(&mut self, name: &'static str, delta: f64) {
        *self.named.entry(name).or_insert(0.0) += delta;
    }

    /// Adds to a per-node named counter.
    pub fn count_node(&mut self, name: &'static str, node: NodeId, delta: f64) {
        *self.named_per_node.entry((name, node.0)).or_insert(0.0) += delta;
    }

    /// Reads a global named counter (0 when never written).
    pub fn get(&self, name: &'static str) -> f64 {
        self.named.get(name).copied().unwrap_or(0.0)
    }

    /// Reads a per-node named counter (0 when never written).
    pub fn get_node(&self, name: &'static str, node: NodeId) -> f64 {
        self.named_per_node
            .get(&(name, node.0))
            .copied()
            .unwrap_or(0.0)
    }

    // ---- Run lifecycle ----

    /// Sets the end-of-run horizon used by time-averaged metrics.
    pub fn close(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }

    /// The recorded horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdr_accounting() {
        let mut h = MetricsHub::new(3, 8);
        let a = NodeId(0);
        for _ in 0..10 {
            h.app_generated(a);
        }
        for _ in 0..7 {
            h.app_delivered(a, 0.05);
        }
        assert_eq!(h.pdr(a), Some(0.7));
        assert_eq!(h.pdr(NodeId(1)), None);
        assert_eq!(h.pdr_of([NodeId(0), NodeId(1)]), Some(0.7));
        assert!((h.mean_delay(a).unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn queue_average_uses_horizon() {
        let mut h = MetricsHub::new(1, 8);
        h.queue_level(NodeId(0), SimTime::from_secs(1), 4);
        h.close(SimTime::from_secs(2));
        // Level 0 for 1 s, then 4 for 1 s → average 2.
        assert_eq!(h.avg_queue_level(NodeId(0)), 2.0);
    }

    #[test]
    fn mac_counters_and_results() {
        let mut h = MetricsHub::new(2, 8);
        h.mac_mut(NodeId(1)).tx_attempts += 3;
        h.tx_result(NodeId(1), TxResult::Delivered);
        h.tx_result(NodeId(1), TxResult::RetryLimit);
        h.tx_result(NodeId(1), TxResult::ChannelAccessFailure);
        let c = h.mac(NodeId(1));
        assert_eq!(c.tx_attempts, 3);
        assert_eq!(c.tx_delivered, 1);
        assert_eq!(c.drops_retry, 1);
        assert_eq!(c.drops_channel_access, 1);
    }

    #[test]
    fn learner_series() {
        let mut h = MetricsHub::new(1, 4);
        h.learner_sample(
            NodeId(0),
            SimTime::from_secs(1),
            LearnerSample {
                q_sum: -40.0,
                rho: 0.1,
            },
        );
        h.learner_sample(
            NodeId(0),
            SimTime::from_secs(2),
            LearnerSample {
                q_sum: -20.0,
                rho: 0.0,
            },
        );
        assert_eq!(h.q_sum_series(NodeId(0)).values(), &[-40.0, -20.0]);
        assert_eq!(h.rho_series(NodeId(0)).values(), &[0.1, 0.0]);
    }

    #[test]
    fn slot_actions_dominance_and_reset() {
        let mut h = MetricsHub::new(1, 4);
        let n = NodeId(0);
        h.slot_action(n, 0, SlotAction::Tx);
        h.slot_action(n, 0, SlotAction::Tx);
        h.slot_action(n, 0, SlotAction::Cca);
        h.slot_action(n, 2, SlotAction::Backoff);
        let dom = h.dominant_slot_actions(n);
        assert_eq!(dom[0], Some(SlotAction::Tx));
        assert_eq!(dom[1], None);
        assert_eq!(dom[2], Some(SlotAction::Backoff));
        h.reset_slot_actions();
        assert!(h.dominant_slot_actions(n).iter().all(|d| d.is_none()));
    }

    #[test]
    fn out_of_range_subslot_is_ignored() {
        let mut h = MetricsHub::new(2, 2);
        h.slot_action(NodeId(0), 5, SlotAction::Tx); // silently ignored
        h.slot_action(NodeId(0), 2, SlotAction::Tx); // not node 1's cell 0
        assert_eq!(h.slot_action_counts(NodeId(0)), &[[0; 3]; 2]);
        assert_eq!(h.slot_action_counts(NodeId(1)), &[[0; 3]; 2]);

        // A hub without subslots keeps no map: recording is a no-op.
        let mut h = MetricsHub::new(2, 0);
        h.slot_action(NodeId(1), 0, SlotAction::Tx);
        assert!(h.slot_action_counts(NodeId(1)).is_empty());
        assert!(h.dominant_slot_actions(NodeId(1)).is_empty());
    }

    #[test]
    fn hub_without_learner_recording_keeps_no_series() {
        let mut h = MetricsHub::new(3, 0);
        assert!(h.learner.is_empty() && h.rho.is_empty());
        let sample = LearnerSample {
            q_sum: -40.0,
            rho: 0.1,
        };
        for i in 0..3 {
            h.learner_sample(NodeId(i), SimTime::from_secs(1), sample);
        }
        assert!(h.learner.is_empty() && h.rho.is_empty());
        for i in 0..3 {
            assert!(h.q_sum_series(NodeId(i)).is_empty());
            assert!(h.rho_series(NodeId(i)).is_empty());
        }
    }

    #[test]
    fn named_counters() {
        let mut h = MetricsHub::new(2, 8);
        h.count("gts_requests", 1.0);
        h.count("gts_requests", 2.0);
        h.count_node("gts_allocated", NodeId(1), 1.0);
        assert_eq!(h.get("gts_requests"), 3.0);
        assert_eq!(h.get_node("gts_allocated", NodeId(1)), 1.0);
        assert_eq!(h.get("missing"), 0.0);
        assert_eq!(h.get_node("missing", NodeId(0)), 0.0);
    }
}
