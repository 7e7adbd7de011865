//! Deterministic grid expansion and per-config seed derivation.
//!
//! A campaign's `[grid]` axes expand into the full cross product,
//! each point layered over the `[fixed]` scalars. Two invariants make
//! campaigns reproducible and resumable:
//!
//! 1. **Expansion is a pure function of the spec content**: axes are
//!    iterated in sorted key order (so reordering sections or axes in
//!    the file does not change the matrix) with the last sorted axis
//!    varying fastest, values in spec order.
//! 2. **Seeds are content-addressed**: a config's seed stream is
//!    derived from the FNV-1a hash of its canonical key, not from its
//!    position — adding, removing or reordering sibling configs never
//!    perturbs an existing config's randomness, which is what lets a
//!    resumed campaign produce byte-identical artifacts.

use std::fmt::Write as _;

use qma_des::SeedSequence;
use qma_scenarios::{MacKind, MassiveTopology, ScenarioParams};

use super::spec::TomlValue;

/// A scalar parameter value of a grid point.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Integer-valued knob (`nodes`, `packets`, …).
    Int(i64),
    /// Real-valued knob (`delta`, `alpha`, …).
    Float(f64),
    /// Named knob (`mac`).
    Str(String),
    /// Boolean knob (reserved for future switches).
    Bool(bool),
}

impl ParamValue {
    /// Converts a scalar TOML value (arrays are not scalars).
    pub fn from_toml(v: &TomlValue) -> Option<ParamValue> {
        match v {
            TomlValue::Int(i) => Some(ParamValue::Int(*i)),
            TomlValue::Float(f) => Some(ParamValue::Float(*f)),
            TomlValue::Str(s) => Some(ParamValue::Str(s.clone())),
            TomlValue::Bool(b) => Some(ParamValue::Bool(*b)),
            TomlValue::Array(_) => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Int(i) => Some(*i as f64),
            ParamValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            ParamValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Does `self` render to the same canonical string as `other`?
    /// Decided without allocating: a pair of one variant compares
    /// directly (shortest-roundtrip rendering is injective on non-NaN
    /// floats, and every NaN renders `NaN`); a mixed pair streams one
    /// rendering against the other.
    fn renders_like(&self, other: &ParamValue) -> bool {
        match (self, other) {
            (ParamValue::Int(a), ParamValue::Int(b)) => a == b,
            (ParamValue::Str(a), ParamValue::Str(b)) => a == b,
            (ParamValue::Float(a), ParamValue::Float(b)) => {
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
            }
            (ParamValue::Float(_), _) => other.renders_like(self),
            (ParamValue::Str(s), _) => other.renders_as(s),
            (ParamValue::Int(_) | ParamValue::Bool(_), _) => {
                let mut text = ShortText::default();
                write!(text, "{self}").is_ok() && other.renders_as(text.as_str())
            }
        }
    }

    /// Does `self` render exactly as `text`?
    fn renders_as(&self, text: &str) -> bool {
        let mut rest = Expect(text);
        write!(rest, "{self}").is_ok() && rest.0.is_empty()
    }
}

/// A `fmt::Write` sink that consumes the text it expects and fails on
/// the first byte that differs.
struct Expect<'a>(&'a str);

impl std::fmt::Write for Expect<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = self.0.strip_prefix(s).ok_or(std::fmt::Error)?;
        Ok(())
    }
}

/// A stack buffer long enough for any rendered `i64` or `bool`.
#[derive(Default)]
struct ShortText {
    bytes: [u8; 20],
    len: usize,
}

impl ShortText {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).unwrap_or_default()
    }
}

impl std::fmt::Write for ShortText {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        self.bytes
            .get_mut(self.len..end)
            .ok_or(std::fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

impl std::fmt::Display for ParamValue {
    /// Canonical rendering used in config keys. Floats use Rust's
    /// shortest-roundtrip formatting, so `25.0` and the integer `25`
    /// render identically — value identity, not syntax identity.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => write!(f, "{x}"),
            ParamValue::Str(s) => f.write_str(s),
            ParamValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One fully resolved grid point: parameter assignments sorted by
/// key.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigPoint {
    entries: Vec<(String, ParamValue)>,
}

impl ConfigPoint {
    /// Builds a point from arbitrary assignments (sorts by key).
    ///
    /// # Panics
    ///
    /// Panics on duplicate keys — expansion guarantees uniqueness.
    pub fn new(mut entries: Vec<(String, ParamValue)>) -> ConfigPoint {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        for pair in entries.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "duplicate key {}", pair[0].0);
        }
        ConfigPoint { entries }
    }

    /// The canonical identity string, e.g.
    /// `delta=25;mac=qma;nodes=5` — keys sorted, `;`-separated so the
    /// key embeds verbatim in a comma-separated CSV cell.
    pub fn key(&self) -> String {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        parts.join(";")
    }

    /// The seed-hierarchy label of this config: FNV-1a over the
    /// canonical key. Content-addressed, so it is invariant under any
    /// reordering of the spec and under adding/removing sibling
    /// configs.
    pub fn seed_label(&self) -> u64 {
        fnv1a64(self.key().as_bytes())
    }

    /// The per-config seed stream under `master_seed`.
    pub fn seed_stream(&self, master_seed: u64) -> SeedSequence {
        SeedSequence::new(master_seed).derive(self.seed_label())
    }

    /// A filesystem-safe stem for the config's fabric files (lease,
    /// shard, attempt and quarantine records): the hex-rendered
    /// [`ConfigPoint::seed_label`]. Content-addressed like the seed
    /// itself, so every worker derives the same stem with no
    /// coordination and no key character ever needs escaping.
    pub fn stem(&self) -> String {
        format!("{:016x}", self.seed_label())
    }

    /// The sorted parameter assignments.
    pub fn entries(&self) -> &[(String, ParamValue)] {
        &self.entries
    }

    /// Resolves the point into scenario parameters (defaults for
    /// every knob the point does not pin).
    pub fn scenario_params(&self) -> Result<ScenarioParams, String> {
        let mut p = ScenarioParams::default();
        for (key, value) in &self.entries {
            apply_param(&mut p, key, value)?;
        }
        p.validate()?;
        Ok(p)
    }
}

/// Applies one `key = value` assignment onto [`ScenarioParams`].
fn apply_param(p: &mut ScenarioParams, key: &str, value: &ParamValue) -> Result<(), String> {
    let bad = || format!("parameter {key} rejects value {value}");
    match key {
        "mac" => {
            let ParamValue::Str(s) = value else {
                return Err(bad());
            };
            p.mac = MacKind::parse(s).ok_or_else(bad)?;
        }
        "nodes" => p.nodes = value.as_u64().ok_or_else(bad)? as usize,
        "delta" => p.delta = value.as_f64().ok_or_else(bad)?,
        "packets" => p.packets = value.as_u64().ok_or_else(bad)?,
        "duration_s" => p.duration_s = value.as_u64().ok_or_else(bad)?,
        "alpha" => p.alpha = value.as_f64().ok_or_else(bad)? as f32,
        "gamma" => p.gamma = value.as_f64().ok_or_else(bad)? as f32,
        "xi" => p.xi = value.as_f64().ok_or_else(bad)? as f32,
        "subslots" => {
            let v = value.as_u64().ok_or_else(bad)?;
            p.subslots = u16::try_from(v).map_err(|_| bad())?;
        }
        "max_retries" => {
            let v = value.as_u64().ok_or_else(bad)?;
            p.max_retries = u8::try_from(v).map_err(|_| bad())?;
        }
        "topology" => {
            let ParamValue::Str(s) = value else {
                return Err(bad());
            };
            p.topology = MassiveTopology::parse(s).ok_or_else(bad)?;
        }
        "fault_start_s" => p.chaos.fault_start_s = value.as_u64().ok_or_else(bad)?,
        "fault_duration_s" => p.chaos.fault_duration_s = value.as_u64().ok_or_else(bad)?,
        "crash_frac" => p.chaos.crash_frac = value.as_f64().ok_or_else(bad)?,
        "jam_frac" => p.chaos.jam_frac = value.as_f64().ok_or_else(bad)?,
        "drift_frac" => p.chaos.drift_frac = value.as_f64().ok_or_else(bad)?,
        // Signed on purpose: negative skew is the interesting case
        // (it schedules into the past), so no `as_u64` here.
        "skew_us" => {
            let ParamValue::Int(i) = value else {
                return Err(bad());
            };
            p.chaos.skew_us = *i;
        }
        "persist_q" => {
            let ParamValue::Bool(b) = value else {
                return Err(bad());
            };
            p.chaos.persist_q = *b;
        }
        "sink_outage" => {
            let ParamValue::Bool(b) = value else {
                return Err(bad());
            };
            p.chaos.sink_outage = *b;
        }
        "clamp_budget" => p.chaos.clamp_budget = value.as_u64().ok_or_else(bad)?,
        other => {
            return Err(format!(
                "unknown parameter {other} (known: mac, nodes, delta, packets, \
                 duration_s, alpha, gamma, xi, subslots, max_retries, topology, \
                 fault_start_s, fault_duration_s, crash_frac, jam_frac, \
                 drift_frac, skew_us, persist_q, sink_outage, clamp_budget)"
            ))
        }
    }
    Ok(())
}

/// Expands `[fixed]` scalars × `[grid]` axes into the configuration
/// matrix: the full cross product, exactly once per combination, in
/// an order that is a pure function of the spec content.
pub fn expand_grid(
    fixed: &[(String, ParamValue)],
    grid: &[(String, Vec<ParamValue>)],
) -> Result<Vec<ConfigPoint>, String> {
    let mut axes: Vec<(&String, &Vec<ParamValue>)> = grid.iter().map(|(k, vs)| (k, vs)).collect();
    axes.sort_by(|a, b| a.0.cmp(b.0));
    for pair in axes.windows(2) {
        if pair[0].0 == pair[1].0 {
            return Err(format!("duplicate grid axis {}", pair[0].0));
        }
    }
    for (key, values) in &axes {
        if values.is_empty() {
            return Err(format!("grid axis {key} has no values"));
        }
        if fixed.iter().any(|(fk, _)| fk == *key) {
            return Err(format!("{key} appears in both [fixed] and [grid]"));
        }
        // Two values with one canonical rendering would expand into
        // configs sharing a key (and a seed): the same run, twice.
        for (i, a) in values.iter().enumerate() {
            if values[i + 1..].iter().any(|b| a.renders_like(b)) {
                return Err(format!("grid axis {key} lists {a} twice"));
            }
        }
    }

    let total: usize = axes.iter().map(|(_, vs)| vs.len()).product();
    let mut points = Vec::with_capacity(total);
    // Odometer over sorted axes, last axis fastest.
    let mut indices = vec![0usize; axes.len()];
    loop {
        let mut entries: Vec<(String, ParamValue)> = fixed.to_vec();
        for (axis, &i) in axes.iter().zip(&indices) {
            entries.push((axis.0.clone(), axis.1[i].clone()));
        }
        points.push(ConfigPoint::new(entries));
        // Advance the odometer; stop after the last combination.
        let mut pos = axes.len();
        loop {
            if pos == 0 {
                return Ok(points);
            }
            pos -= 1;
            indices[pos] += 1;
            if indices[pos] < axes[pos].1.len() {
                break;
            }
            indices[pos] = 0;
        }
    }
}

/// FNV-1a 64-bit hash (stable across platforms and releases — the
/// seed derivation contract depends on it never changing).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis(key: &str, vals: &[i64]) -> (String, Vec<ParamValue>) {
        (
            key.to_string(),
            vals.iter().map(|&v| ParamValue::Int(v)).collect(),
        )
    }

    #[test]
    fn fnv_reference_values() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn cross_product_is_complete_and_duplicate_free() {
        let grid = vec![axis("nodes", &[3, 5, 9]), axis("packets", &[10, 20])];
        let points = expand_grid(&[], &grid).unwrap();
        assert_eq!(points.len(), 6);
        let keys: std::collections::BTreeSet<String> = points.iter().map(|p| p.key()).collect();
        assert_eq!(keys.len(), 6, "duplicate configs in expansion");
        // Last sorted axis (packets) varies fastest.
        assert_eq!(points[0].key(), "nodes=3;packets=10");
        assert_eq!(points[1].key(), "nodes=3;packets=20");
        assert_eq!(points[2].key(), "nodes=5;packets=10");
    }

    #[test]
    fn axis_order_in_spec_does_not_matter() {
        let a = expand_grid(&[], &[axis("a", &[1, 2]), axis("b", &[3, 4])]).unwrap();
        let b = expand_grid(&[], &[axis("b", &[3, 4]), axis("a", &[1, 2])]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_is_content_addressed() {
        let point = ConfigPoint::new(vec![
            ("nodes".into(), ParamValue::Int(5)),
            ("delta".into(), ParamValue::Float(25.0)),
        ]);
        let reordered = ConfigPoint::new(vec![
            ("delta".into(), ParamValue::Int(25)),
            ("nodes".into(), ParamValue::Int(5)),
        ]);
        // Same content (25.0 ≡ 25 canonically) → same key → same seed.
        assert_eq!(point.key(), "delta=25;nodes=5");
        assert_eq!(point.seed_label(), reordered.seed_label());
        assert_eq!(point.seed_stream(9).seed(), reordered.seed_stream(9).seed());
        // Different content → different seed.
        let other = ConfigPoint::new(vec![("nodes".into(), ParamValue::Int(7))]);
        assert_ne!(point.seed_label(), other.seed_label());
    }

    #[test]
    fn rejects_inconsistent_grids() {
        assert!(expand_grid(&[], &[axis("a", &[])]).is_err());
        assert!(expand_grid(&[], &[axis("a", &[1]), axis("a", &[2])]).is_err());
        assert!(expand_grid(&[("a".into(), ParamValue::Int(1))], &[axis("a", &[1, 2])]).is_err());

        // A value listed twice, literally or only canonically, would
        // run one config twice under one key.
        let int = ParamValue::Int;
        let float = ParamValue::Float;
        let text = |v: &str| ParamValue::Str(v.into());
        for (values, shown) in [
            (vec![int(25), float(25.0)], "25"),
            (vec![text("qma"), text("qma")], "qma"),
            (vec![int(3), int(5), int(3)], "3"),
            (vec![float(0.5), float(0.5)], "0.5"),
            (vec![text("7"), int(7)], "7"),
        ] {
            let err = expand_grid(&[], &[("x".into(), values)]).unwrap_err();
            assert!(
                err.contains("axis x") && err.contains(shown),
                "error must name the axis and the value: {err}"
            );
        }
        // Values that only look alike stay distinct.
        for values in [
            vec![int(0), float(-0.0)],
            vec![float(0.1), float(0.10000000000000002)],
            vec![int(1), ParamValue::Bool(true)],
            vec![int(i64::MIN), int(i64::MAX)],
        ] {
            assert_eq!(expand_grid(&[], &[("x".into(), values)]).unwrap().len(), 2);
        }
    }

    #[test]
    fn empty_grid_yields_the_single_fixed_point() {
        let points = expand_grid(&[("delta".into(), ParamValue::Float(2.0))], &[]).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].key(), "delta=2");
    }

    #[test]
    fn chaos_knobs_resolve_including_negative_skew() {
        let p = ConfigPoint::new(vec![
            ("crash_frac".into(), ParamValue::Float(0.5)),
            ("fault_start_s".into(), ParamValue::Int(40)),
            ("skew_us".into(), ParamValue::Int(-250)),
            ("persist_q".into(), ParamValue::Bool(true)),
            ("sink_outage".into(), ParamValue::Bool(true)),
            ("clamp_budget".into(), ParamValue::Int(1000)),
        ])
        .scenario_params()
        .unwrap();
        assert_eq!(p.chaos.crash_frac, 0.5);
        assert_eq!(p.chaos.fault_start_s, 40);
        assert_eq!(p.chaos.skew_us, -250);
        assert!(p.chaos.persist_q && p.chaos.sink_outage);
        assert_eq!(p.chaos.clamp_budget, 1000);
        let bad = ConfigPoint::new(vec![("skew_us".into(), ParamValue::Float(1.5))]);
        assert!(bad.scenario_params().is_err());
    }

    #[test]
    fn scenario_params_resolve_and_validate() {
        let p = ConfigPoint::new(vec![
            ("mac".into(), ParamValue::Str("unslotted_csma".into())),
            ("nodes".into(), ParamValue::Int(5)),
            ("alpha".into(), ParamValue::Float(0.25)),
            ("subslots".into(), ParamValue::Int(27)),
        ])
        .scenario_params()
        .unwrap();
        assert_eq!(p.mac, MacKind::UnslottedCsma);
        assert_eq!(p.nodes, 5);
        assert_eq!(p.alpha, 0.25);
        assert_eq!(p.subslots, 27);

        for bad in [
            ("mac", ParamValue::Str("warp".into())),
            ("mac", ParamValue::Int(1)),
            ("nodes", ParamValue::Int(-3)),
            ("nodes", ParamValue::Int(1)), // fails ScenarioParams::validate
            ("alpha", ParamValue::Float(1.5)),
            ("subslots", ParamValue::Int(70_000)),
            ("warp", ParamValue::Int(1)),
        ] {
            let point = ConfigPoint::new(vec![(bad.0.into(), bad.1.clone())]);
            assert!(
                point.scenario_params().is_err(),
                "accepted {} = {}",
                bad.0,
                bad.1
            );
        }
    }
}
