//! Deterministic fault injection: typed disturbance schedules.
//!
//! A [`FaultPlan`] is a pre-expanded list of [`FaultEvent`]s — crash
//! and reboot of nodes, jammer bursts, link-quality drift, sink
//! outage, clock skew on a cohort — that [`crate::SimBuilder`]
//! schedules as first-class DES events before the simulation starts.
//! The plan is plain data: whoever builds it (a chaos scenario, a
//! test) derives the cohorts and instants from its own seeded RNG, so
//! the same seed always yields the same disturbance trace.
//!
//! # Determinism
//!
//! Fault events are ordinary heap events, scheduled in plan order at
//! build time. A boundary's subslot ticks run inside one sweep event
//! that holds the sequence position of the boundary's first armed
//! tick, so a fault executes at the same point relative to the ticks
//! as it did when every tick was its own event. The engine goldens
//! cover faulted runs (crash, jam, drift and clock skew).

use qma_des::{SimDuration, SimTime};

/// What a single fault event does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Power-fail a node: radio off, queue contents lost, pending
    /// timers dead, any transmission in flight aborted mid-air. A
    /// crash of the sink models a sink outage. Crashing a node that
    /// is already down (or never started) is a no-op.
    Crash {
        /// The node to take down.
        node: u32,
    },
    /// Bring a crashed node back: the MAC's volatile state is reset
    /// (see [`crate::MacProtocol::on_reboot`]) and the node runs its
    /// start sequence again. Rebooting a node that is up is a no-op.
    Reboot {
        /// The node to bring back.
        node: u32,
        /// Keep the learned policy (Q-table) across the reboot?
        /// `false` wipes it — the node re-learns from scratch, which
        /// is exactly the re-learning cost the chaos scenarios probe.
        persist_learning: bool,
    },
    /// Switch a jammer on over a set of nodes: their CCAs read busy,
    /// they cannot lock onto frames, receptions in progress are
    /// corrupted.
    JamStart {
        /// Nodes inside the jammer's footprint.
        nodes: Vec<u32>,
    },
    /// Switch the jammer off again.
    JamEnd {
        /// Nodes leaving the jammer's footprint.
        nodes: Vec<u32>,
    },
    /// Degrade directed links `(tx, rx)` below the decoding
    /// threshold: energy still arrives (interference, CCA busy) but
    /// frames no longer decode — long-term link-quality drift.
    DegradeLinks {
        /// Directed `(transmitter, receiver)` pairs.
        links: Vec<(u32, u32)>,
    },
    /// Restore previously degraded links.
    RestoreLinks {
        /// Directed `(transmitter, receiver)` pairs.
        links: Vec<(u32, u32)>,
    },
    /// Offset the local clock of a cohort: every MAC timer the
    /// affected nodes arm from now on fires `offset_us` late
    /// (positive) or early (negative). A negative skew can push
    /// events into the past, where the scheduler clamps and counts
    /// them against [`crate::SimBuilder::past_clamp_budget`].
    ClockSkew {
        /// The affected cohort.
        nodes: Vec<u32>,
        /// Signed offset in microseconds (`0` removes the skew).
        offset_us: i64,
    },
}

/// One scheduled fault: `kind` fires at `at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What it does.
    pub kind: FaultKind,
}

/// A pre-expanded, deterministic disturbance schedule.
///
/// Events fire in `(time, insertion order)` order — ties resolve by
/// the order they were pushed, so a plan is reproducible from its
/// construction sequence alone.
///
/// # Examples
///
/// ```
/// use qma_des::{SimDuration, SimTime};
/// use qma_netsim::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .crash_reboot(3, SimTime::from_secs(200), SimDuration::from_secs(30), false)
///     .jam(vec![1, 2], SimTime::from_secs(300), SimDuration::from_secs(10));
/// assert_eq!(plan.len(), 4); // crash + reboot + jam on + jam off
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan. Arming an empty plan on a simulation changes
    /// no result (`world::tests::armed_empty_plan_changes_nothing`).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends a raw fault event.
    pub fn push(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Crash `node` at `at` and reboot it `outage` later.
    pub fn crash_reboot(
        self,
        node: u32,
        at: SimTime,
        outage: SimDuration,
        persist_learning: bool,
    ) -> Self {
        self.push(at, FaultKind::Crash { node }).push(
            at + outage,
            FaultKind::Reboot {
                node,
                persist_learning,
            },
        )
    }

    /// Sink outage: crash `sink` at `at`, bring it back `outage`
    /// later with its state persisted (a sink has nothing to
    /// re-learn; what the scenario measures is the traffic lost and
    /// the recovery ramp).
    pub fn sink_outage(self, sink: u32, at: SimTime, outage: SimDuration) -> Self {
        self.crash_reboot(sink, at, outage, true)
    }

    /// Jam `nodes` from `at` for `burst`.
    pub fn jam(self, nodes: Vec<u32>, at: SimTime, burst: SimDuration) -> Self {
        self.push(
            at,
            FaultKind::JamStart {
                nodes: nodes.clone(),
            },
        )
        .push(at + burst, FaultKind::JamEnd { nodes })
    }

    /// Degrade `links` from `at` for `episode`, then restore them.
    pub fn drift(self, links: Vec<(u32, u32)>, at: SimTime, episode: SimDuration) -> Self {
        self.push(
            at,
            FaultKind::DegradeLinks {
                links: links.clone(),
            },
        )
        .push(at + episode, FaultKind::RestoreLinks { links })
    }

    /// Skew the local clocks of `nodes` by `offset_us` from `at` on.
    pub fn clock_skew(self, nodes: Vec<u32>, at: SimTime, offset_us: i64) -> Self {
        self.push(at, FaultKind::ClockSkew { nodes, offset_us })
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The latest fault instant in the plan, if any — scenarios use
    /// it to size the post-fault measurement window.
    pub fn last_at(&self) -> Option<SimTime> {
        self.events.iter().map(|e| e.at).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_expand_to_paired_events() {
        let plan = FaultPlan::new()
            .crash_reboot(7, SimTime::from_secs(10), SimDuration::from_secs(5), true)
            .jam(
                vec![1, 2],
                SimTime::from_secs(20),
                SimDuration::from_secs(2),
            )
            .drift(
                vec![(0, 1)],
                SimTime::from_secs(30),
                SimDuration::from_secs(3),
            )
            .clock_skew(vec![4], SimTime::from_secs(40), -250);
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.events()[0].kind, FaultKind::Crash { node: 7 });
        assert_eq!(
            plan.events()[1],
            FaultEvent {
                at: SimTime::from_secs(15),
                kind: FaultKind::Reboot {
                    node: 7,
                    persist_learning: true,
                },
            }
        );
        assert_eq!(plan.events()[3].at, SimTime::from_secs(22));
        assert_eq!(plan.last_at(), Some(SimTime::from_secs(40)));
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::new().last_at(), None);
    }
}
