//! Parameterized scenario constructors for campaign grid points.
//!
//! The per-figure modules ([`crate::hidden_node`],
//! [`crate::convergence`], [`crate::fluctuating`]) reproduce the
//! paper's exact hard-coded configurations. Campaign sweeps instead
//! go through [`ScenarioParams`]: one struct holding every knob a
//! grid can turn — population size, traffic rate, the QMA learning
//! parameters (α, γ, ξ), frame geometry (subslot count M) and the
//! retry budget — plus [`run_scenario`], which dispatches a grid
//! point to the matching parameterized run and returns a uniform
//! [`RunMetrics`] record ready for streaming aggregation.
//!
//! For the hidden-node, convergence and fluctuating families both
//! paths build their worlds through [`crate::common::collection_sim`]
//! and differ only in topology labelling and seeds: a per-figure run
//! uses the Fig. 6 chain (`qma_topo::hidden_node`, sink at node 1)
//! under the figure's seed, a grid point the `hidden_star` of
//! `p.nodes − 1` sources (sink last) under the campaign's
//! per-replication seed. The massive and chaos families build theirs
//! through [`crate::massive::sim_builder`].

use qma_mac::{MacImpl, QmaMacConfig};
use qma_netsim::{FrameClock, NodeId, Sim};

use crate::common::{MacKind, UpperImpl};

/// Which experiment family a campaign grid point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Mutually hidden sources around one sink; PDR/delay/drops after
    /// a bounded packet budget (the Fig. 7–9 family, generalised over
    /// the population size).
    HiddenNode,
    /// Unbounded traffic; how fast the learner settles (Fig. 10/11).
    Convergence,
    /// Alternating traffic on one source, late joiners on the rest
    /// (Fig. 12); how strongly the Q-values track the switches.
    Fluctuating,
    /// 1k–50k-node single-hop stress runs over hidden-star or grid
    /// topologies (the slot-kernel scale workload; see
    /// [`crate::massive`]).
    Massive,
    /// Massive-access topology under a deterministic fault plan —
    /// node churn, jammer bursts, link drift, sink outage — measuring
    /// recovery instead of steady state (see [`crate::chaos`]).
    Chaos,
}

impl ScenarioKind {
    /// All scenario kinds.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::HiddenNode,
        ScenarioKind::Convergence,
        ScenarioKind::Fluctuating,
        ScenarioKind::Massive,
        ScenarioKind::Chaos,
    ];

    /// Canonical spec-file name, the inverse of [`ScenarioKind::parse`].
    pub fn key(self) -> &'static str {
        match self {
            ScenarioKind::HiddenNode => "hidden_node",
            ScenarioKind::Convergence => "convergence",
            ScenarioKind::Fluctuating => "fluctuating",
            ScenarioKind::Massive => "massive",
            ScenarioKind::Chaos => "chaos",
        }
    }

    /// Parses a spec-file scenario name.
    pub fn parse(s: &str) -> Option<ScenarioKind> {
        ScenarioKind::ALL.into_iter().find(|k| k.key() == s)
    }

    /// Name of the scenario-specific auxiliary metric carried in
    /// [`RunMetrics::aux`].
    pub fn aux_name(self) -> &'static str {
        match self {
            ScenarioKind::HiddenNode => "queue_level",
            ScenarioKind::Convergence => "settle_time_s",
            ScenarioKind::Fluctuating => "q_adaptation",
            ScenarioKind::Massive => "delivered_per_s",
            ScenarioKind::Chaos => "delivered_per_s",
        }
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Topology family of the massive-access scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MassiveTopology {
    /// `nodes − 1` mutually hidden sources around a central sink.
    #[default]
    HiddenStar,
    /// A √nodes × √nodes lattice; every node unicasts to its tree
    /// parent (spatially local traffic, massive frequency reuse).
    Grid,
}

impl MassiveTopology {
    /// Canonical spec-file name, the inverse of
    /// [`MassiveTopology::parse`].
    pub fn key(self) -> &'static str {
        match self {
            MassiveTopology::HiddenStar => "hidden_star",
            MassiveTopology::Grid => "grid",
        }
    }

    /// Parses a spec-file topology name.
    pub fn parse(s: &str) -> Option<MassiveTopology> {
        match s {
            "hidden_star" => Some(MassiveTopology::HiddenStar),
            "grid" => Some(MassiveTopology::Grid),
            _ => None,
        }
    }
}

impl std::fmt::Display for MassiveTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Fault-injection knobs of the [`ScenarioKind::Chaos`] scenario.
/// All disturbances strike together at `fault_start_s` and lift
/// `fault_duration_s` later; the cohorts they hit are drawn from the
/// replication seed, so a grid point's disturbance trace is exactly
/// as reproducible as its traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosKnobs {
    /// When the disturbances strike, in simulated seconds. Must leave
    /// a pre-fault window after the 1 s traffic start to baseline
    /// PDR and collision rate against.
    pub fault_start_s: u64,
    /// How long they last (outage / burst / drift episode length).
    pub fault_duration_s: u64,
    /// Fraction of sources that crash (and reboot after the outage).
    pub crash_frac: f64,
    /// Fraction of nodes inside the jammer's footprint.
    pub jam_frac: f64,
    /// Fraction of source uplinks degraded below decodability.
    pub drift_frac: f64,
    /// Clock skew in µs applied to a tenth of the sources (`0`
    /// disables the skew axis; negative values schedule into the past
    /// and consume [`ChaosKnobs::clamp_budget`]).
    pub skew_us: i64,
    /// Do crashed nodes keep their learned Q-table across the reboot?
    pub persist_q: bool,
    /// Also take the sink down for the fault window?
    pub sink_outage: bool,
    /// Past-clamp budget for the replication (`u64::MAX` = unlimited).
    /// A negative skew requires a finite budget: a tick pushed behind
    /// `now` re-arms at the same instant forever, and only the budget
    /// turns that livelock into a structured abort.
    pub clamp_budget: u64,
}

impl Default for ChaosKnobs {
    fn default() -> Self {
        ChaosKnobs {
            fault_start_s: 30,
            fault_duration_s: 10,
            crash_frac: 0.25,
            jam_frac: 0.0,
            drift_frac: 0.0,
            skew_us: 0,
            persist_q: false,
            sink_outage: false,
            clamp_budget: u64::MAX,
        }
    }
}

/// Every knob a campaign grid can sweep. Defaults reproduce the
/// paper's evaluation setting (3 nodes, δ = 25 pkt/s, α = 0.5,
/// γ = 0.9, ξ = 1, M = 54 subslots).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioParams {
    /// Channel-access scheme.
    pub mac: MacKind,
    /// Total population including the sink (`nodes − 1` mutually
    /// hidden sources).
    pub nodes: usize,
    /// Packet generation rate δ in pkt/s per source.
    pub delta: f64,
    /// Packets per source before the run drains
    /// ([`ScenarioKind::HiddenNode`] only).
    pub packets: u64,
    /// Simulated horizon in seconds ([`ScenarioKind::Convergence`]
    /// and [`ScenarioKind::Fluctuating`]).
    pub duration_s: u64,
    /// Learning rate α.
    pub alpha: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Stochastic-environment penalty ξ.
    pub xi: f32,
    /// Subslots per frame M (frame geometry).
    pub subslots: u16,
    /// N_R — retransmissions before a packet is dropped.
    pub max_retries: u8,
    /// Topology family ([`ScenarioKind::Massive`] and
    /// [`ScenarioKind::Chaos`]; the star scenarios are hidden-star by
    /// construction).
    pub topology: MassiveTopology,
    /// Fault-injection knobs ([`ScenarioKind::Chaos`] only).
    pub chaos: ChaosKnobs,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        let mac_defaults = QmaMacConfig::default();
        ScenarioParams {
            mac: MacKind::Qma,
            nodes: 3,
            delta: 25.0,
            packets: 150,
            duration_s: 300,
            alpha: mac_defaults.agent.params.alpha,
            gamma: mac_defaults.agent.params.gamma,
            xi: mac_defaults.agent.params.xi,
            subslots: 54,
            max_retries: mac_defaults.max_retries,
            topology: MassiveTopology::default(),
            chaos: ChaosKnobs::default(),
        }
    }
}

impl ScenarioParams {
    /// The frame clock for this grid point (DSME SO3 geometry with
    /// the requested subslot count).
    pub fn clock(&self) -> FrameClock {
        FrameClock::dsme_so3_subslots(self.subslots)
    }

    /// The QMA MAC configuration for this grid point.
    pub fn qma_mac_config(&self) -> QmaMacConfig {
        let mut cfg = QmaMacConfig::default();
        cfg.agent.params.alpha = self.alpha;
        cfg.agent.params.gamma = self.gamma;
        cfg.agent.params.xi = self.xi;
        cfg.max_retries = self.max_retries;
        cfg
    }

    /// Validates structural constraints before a (possibly long)
    /// campaign starts.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err(format!(
                "nodes = {} needs at least a source and a sink",
                self.nodes
            ));
        }
        if self.delta <= 0.0 || !self.delta.is_finite() {
            return Err(format!("delta = {} must be positive", self.delta));
        }
        if self.packets == 0 {
            return Err("packets must be positive".into());
        }
        if self.duration_s == 0 {
            return Err("duration_s must be positive".into());
        }
        // The DSME SO3 CAP is 8 × 7680 µs; more subslots than CAP
        // microseconds would round the subslot duration to zero
        // (FrameClock::new would panic mid-campaign otherwise).
        if self.subslots == 0 || self.subslots as u64 > 8 * 7_680 {
            return Err(format!(
                "subslots = {} outside 1..={} (the SO3 CAP in µs)",
                self.subslots,
                8 * 7_680
            ));
        }
        for (name, v) in [("alpha", self.alpha), ("gamma", self.gamma)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} = {v} outside [0, 1]"));
            }
        }
        if self.xi < 0.0 {
            return Err(format!("xi = {} must be non-negative", self.xi));
        }
        Ok(())
    }

    /// [`ScenarioParams::validate`] plus the constraints specific to
    /// one scenario kind, so a campaign rejects a grid point whose
    /// measurements could never be taken (instead of silently
    /// reporting zeros hours into a sweep).
    pub fn validate_for(&self, kind: ScenarioKind) -> Result<(), String> {
        self.validate()?;
        match kind {
            ScenarioKind::HiddenNode => {}
            // Data traffic starts at t = 100 s; a shorter horizon
            // would measure the management phase only.
            ScenarioKind::Convergence => {
                if self.duration_s <= 100 {
                    return Err(format!(
                        "duration_s = {} must exceed the 100 s management \
                         phase for convergence",
                        self.duration_s
                    ));
                }
            }
            // The adaptation swing compares the 60–100 s slow window
            // against the 160–200 s fast window.
            ScenarioKind::Fluctuating => {
                if self.duration_s < 200 {
                    return Err(format!(
                        "duration_s = {} must cover the 200 s measurement \
                         windows of the fluctuating scenario",
                        self.duration_s
                    ));
                }
            }
            // Data starts at t = 1 s (no management warmup at scale);
            // the population must stay within the u32 node-id space
            // with headroom, and a grid needs a real lattice.
            ScenarioKind::Massive => {
                if self.duration_s < 5 {
                    return Err(format!(
                        "duration_s = {} leaves no measurement window after \
                         the 1 s massive-scenario traffic start",
                        self.duration_s
                    ));
                }
                if self.nodes > 200_000 {
                    return Err(format!(
                        "nodes = {} exceeds the 200k massive-scenario cap",
                        self.nodes
                    ));
                }
                if self.topology == MassiveTopology::Grid && self.nodes < 4 {
                    return Err(format!("nodes = {} cannot form a grid lattice", self.nodes));
                }
            }
            // The resilience measurement needs a pre-fault baseline
            // (traffic starts at 1 s), the fault window itself, and a
            // post-fault recovery window — all inside the horizon.
            ScenarioKind::Chaos => {
                let c = &self.chaos;
                if c.fault_start_s < 2 {
                    return Err(format!(
                        "chaos.fault_start_s = {} leaves no pre-fault baseline \
                         after the 1 s traffic start",
                        c.fault_start_s
                    ));
                }
                if c.fault_duration_s == 0 {
                    return Err("chaos.fault_duration_s must be positive".into());
                }
                if self.duration_s < c.fault_start_s + c.fault_duration_s + 2 {
                    return Err(format!(
                        "duration_s = {} leaves no recovery window after the \
                         fault clears at t = {} s",
                        self.duration_s,
                        c.fault_start_s + c.fault_duration_s
                    ));
                }
                for (name, v) in [
                    ("crash_frac", c.crash_frac),
                    ("jam_frac", c.jam_frac),
                    ("drift_frac", c.drift_frac),
                ] {
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!("chaos.{name} = {v} outside [0, 1]"));
                    }
                }
                if c.skew_us < 0 && c.clamp_budget == u64::MAX {
                    return Err("chaos.skew_us < 0 requires a finite chaos.clamp_budget: a \
                         timer skewed behind `now` re-arms at the same instant \
                         forever, and only the budget turns that livelock into \
                         a structured abort"
                        .into());
                }
                if self.nodes > 200_000 {
                    return Err(format!(
                        "nodes = {} exceeds the 200k massive-scenario cap",
                        self.nodes
                    ));
                }
                if self.topology == MassiveTopology::Grid && self.nodes < 4 {
                    return Err(format!("nodes = {} cannot form a grid lattice", self.nodes));
                }
            }
        }
        Ok(())
    }
}

/// Resilience metrics of a faulted replication: how hard the
/// disturbance hit and how fast the network came back. All-zero for
/// scenarios without a fault plan (`Default`), so the aggregation
/// pipeline carries one uniform record shape — no `NaN`s, no
/// `Option`s in the CSV.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resilience {
    /// Seconds after the fault cleared until the windowed PDR first
    /// reached 95 % of the pre-fault level (censored at the horizon:
    /// a network that never recovers reports the full post-fault
    /// window).
    pub recovery_s: f64,
    /// Post-fault collision rate minus pre-fault collision rate, in
    /// collisions per simulated second (negative means the re-learned
    /// schedule collides *less* than before the fault).
    pub collision_regret: f64,
    /// Packets generated during the fault window that were not
    /// delivered within it.
    pub lost_in_outage: f64,
    /// PDR over the final fifth of the horizon minus the pre-fault
    /// PDR — the permanent damage (or gain) once re-learning settled.
    pub steady_state_delta: f64,
}

/// Uniform per-replication metrics: what every scenario reports into
/// the streaming aggregator, one record per completed replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Packet delivery ratio over all sources.
    pub pdr: f64,
    /// Mean end-to-end delay over all sources, seconds.
    pub delay_s: f64,
    /// Retry-limit drops summed over all sources.
    pub retry_drops: u64,
    /// Queue-overflow drops summed over all sources.
    pub queue_drops: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Simulated seconds the replication covered.
    pub sim_seconds: f64,
    /// Scenario-specific extra (see [`ScenarioKind::aux_name`]).
    pub aux: f64,
    /// Recovery metrics (all-zero unless a fault plan was armed; see
    /// [`Resilience`]).
    pub resilience: Resilience,
}

/// Extracts the uniform metric record from a finished simulation.
pub fn collect_metrics(sim: &Sim<MacImpl, UpperImpl>, sources: &[NodeId], aux: f64) -> RunMetrics {
    let m = sim.metrics();
    let retry_drops: u64 = sources.iter().map(|&s| m.mac(s).drops_retry).sum();
    let queue_drops: u64 = m.get("app_mac_ca_drop") as u64
        + sources
            .iter()
            .map(|&s| sim.world().queue(s).drops())
            .sum::<u64>();
    RunMetrics {
        pdr: m.pdr_of(sources.iter().copied()).unwrap_or(0.0),
        delay_s: m.mean_delay_of(sources.iter().copied()).unwrap_or(0.0),
        retry_drops,
        queue_drops,
        events: sim.events_processed(),
        sim_seconds: sim.now().as_micros() as f64 / 1e6,
        aux,
        resilience: Resilience::default(),
    }
}

/// Runs one replication of the grid point `(kind, p)` under `seed`.
pub fn run_scenario(kind: ScenarioKind, p: &ScenarioParams, seed: u64) -> RunMetrics {
    match kind {
        ScenarioKind::HiddenNode => crate::hidden_node::run_grid(p, seed),
        ScenarioKind::Convergence => crate::convergence::run_grid(p, seed),
        ScenarioKind::Fluctuating => crate::fluctuating::run_grid(p, seed),
        ScenarioKind::Massive => crate::massive::run_grid(p, seed),
        ScenarioKind::Chaos => crate::chaos::run_grid(p, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_key_parse_roundtrip() {
        for kind in ScenarioKind::ALL {
            assert_eq!(ScenarioKind::parse(kind.key()), Some(kind));
            assert!(!kind.aux_name().is_empty());
        }
        assert_eq!(ScenarioKind::parse("nope"), None);
    }

    #[test]
    fn defaults_validate() {
        ScenarioParams::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let mut p = ScenarioParams {
            nodes: 1,
            ..ScenarioParams::default()
        };
        assert!(p.validate().is_err());
        p.nodes = 3;
        p.alpha = 1.5;
        assert!(p.validate().is_err());
        p.alpha = 0.5;
        p.delta = 0.0;
        assert!(p.validate().is_err());
        p.delta = 25.0;
        p.subslots = 62_000; // nonzero but beyond the SO3 CAP in µs
        assert!(p.validate().is_err());
    }

    #[test]
    fn scenario_specific_horizons_are_checked() {
        let short = ScenarioParams {
            duration_s: 150,
            ..ScenarioParams::default()
        };
        short.validate_for(ScenarioKind::HiddenNode).unwrap();
        short.validate_for(ScenarioKind::Convergence).unwrap();
        assert!(short.validate_for(ScenarioKind::Fluctuating).is_err());
        let tiny = ScenarioParams {
            duration_s: 90,
            ..ScenarioParams::default()
        };
        assert!(tiny.validate_for(ScenarioKind::Convergence).is_err());
    }

    #[test]
    fn qma_config_carries_the_knobs() {
        let p = ScenarioParams {
            alpha: 0.25,
            gamma: 0.8,
            xi: 2.0,
            max_retries: 5,
            ..ScenarioParams::default()
        };
        let cfg = p.qma_mac_config();
        assert_eq!(cfg.agent.params.alpha, 0.25);
        assert_eq!(cfg.agent.params.gamma, 0.8);
        assert_eq!(cfg.agent.params.xi, 2.0);
        assert_eq!(cfg.max_retries, 5);
    }

    #[test]
    fn subslot_knob_reaches_the_clock() {
        let p = ScenarioParams {
            subslots: 27,
            ..ScenarioParams::default()
        };
        assert_eq!(p.clock().subslots(), 27);
    }

    #[test]
    fn run_scenario_dispatches_every_kind() {
        // Tiny configurations: this is a wiring test, not a physics
        // test — each kind must run and produce sane metrics.
        let p = ScenarioParams {
            delta: 10.0,
            packets: 20,
            duration_s: 210,
            ..ScenarioParams::default()
        };
        for kind in ScenarioKind::ALL {
            p.validate_for(kind).unwrap();
            let m = run_scenario(kind, &p, 42);
            assert!(m.events > 0, "{kind}: no events");
            assert!((0.0..=1.0).contains(&m.pdr), "{kind}: pdr {}", m.pdr);
            assert!(m.sim_seconds > 0.0);
            assert!(m.aux.is_finite(), "{kind}: aux {}", m.aux);
        }
    }
}
