//! Campaign spec files: a declarative TOML subset.
//!
//! The workspace has no route to a crate registry, so instead of the
//! `toml` crate we parse exactly the subset campaign specs need —
//! `[section]` headers, `key = value` pairs with string / integer /
//! float / boolean / flat-array values, `#` comments — and reject
//! everything else loudly.
//!
//! A spec has three sections:
//!
//! ```toml
//! [campaign]                      # required
//! name = "hidden-node-scale"      # artifact basename
//! scenario = "hidden_node"        # hidden_node | convergence | fluctuating
//! seed = 2021                     # master seed (default 2021)
//! replications = 5                # per config (default 3)
//!
//! [fixed]                         # optional scalar overrides
//! delta = 25.0
//! packets = 150
//!
//! [grid]                          # swept axes: key = [values...]
//! nodes = [3, 5, 9]
//! mac = ["qma", "unslotted_csma"]
//! ```
//!
//! The config matrix is the full cross product of the `[grid]` axes,
//! each point layered over `[fixed]` on top of the scenario defaults
//! ([`qma_scenarios::ScenarioParams::default`]).

use qma_scenarios::ScenarioKind;

use super::grid::{expand_grid, ConfigPoint, ParamValue};

/// A parsed campaign specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name — the artifact basename (`<name>.csv/.json`).
    pub name: String,
    /// Which experiment family every grid point runs.
    pub scenario: ScenarioKind,
    /// Master seed; every per-config stream is derived from it.
    pub master_seed: u64,
    /// Replications per configuration.
    pub replications: u64,
    /// Scalar parameter overrides applied to every grid point.
    pub fixed: Vec<(String, ParamValue)>,
    /// Swept axes in spec order (keys are sorted at expansion).
    pub grid: Vec<(String, Vec<ParamValue>)>,
}

impl CampaignSpec {
    /// Parses a spec file.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let sections = parse_toml(text)?;
        let mut name = None;
        let mut scenario = None;
        let mut master_seed = 2021u64;
        let mut replications = 3u64;
        let mut fixed = Vec::new();
        let mut grid = Vec::new();

        for (section, entries) in &sections {
            match section.as_str() {
                "campaign" => {
                    for (key, value) in entries {
                        match (key.as_str(), value) {
                            ("name", TomlValue::Str(s)) => {
                                if s.is_empty()
                                    || !s
                                        .chars()
                                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                                {
                                    return Err(format!(
                                        "campaign.name {s:?} must be a non-empty \
                                         [a-zA-Z0-9_-] artifact basename"
                                    ));
                                }
                                name = Some(s.clone());
                            }
                            ("scenario", TomlValue::Str(s)) => {
                                scenario = Some(ScenarioKind::parse(s).ok_or_else(|| {
                                    format!(
                                        "unknown scenario {s:?} (expected one of: {})",
                                        ScenarioKind::ALL.map(|k| k.key()).join(", ")
                                    )
                                })?);
                            }
                            ("seed", TomlValue::Int(i)) if *i >= 0 => master_seed = *i as u64,
                            ("replications", TomlValue::Int(i)) if *i > 0 => {
                                replications = *i as u64
                            }
                            (k, v) => {
                                return Err(format!("bad [campaign] entry: {k} = {v:?}"));
                            }
                        }
                    }
                }
                "fixed" => {
                    for (key, value) in entries {
                        let v = ParamValue::from_toml(value)
                            .ok_or_else(|| format!("[fixed] {key} must be a scalar"))?;
                        fixed.push((key.clone(), v));
                    }
                }
                "grid" => {
                    for (key, value) in entries {
                        let TomlValue::Array(items) = value else {
                            return Err(format!("[grid] {key} must be an array of swept values"));
                        };
                        let mut axis = Vec::with_capacity(items.len());
                        for item in items {
                            axis.push(ParamValue::from_toml(item).ok_or_else(|| {
                                format!("[grid] {key} contains a non-scalar element")
                            })?);
                        }
                        grid.push((key.clone(), axis));
                    }
                }
                other => return Err(format!("unknown section [{other}]")),
            }
        }

        Ok(CampaignSpec {
            name: name.ok_or("missing campaign.name")?,
            scenario: scenario.ok_or("missing campaign.scenario")?,
            master_seed,
            replications,
            fixed,
            grid,
        })
    }

    /// Expands the spec into its deterministic configuration matrix.
    pub fn expand(&self) -> Result<Vec<ConfigPoint>, String> {
        expand_grid(&self.fixed, &self.grid)
    }
}

/// A TOML-subset value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// `"..."` string.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// Flat array of scalars.
    Array(Vec<TomlValue>),
}

/// Parsed sections: `(section, entries)` pairs in file order.
pub type Sections = Vec<(String, Vec<(String, TomlValue)>)>;

/// Parses the TOML subset into `(section, entries)` pairs, both in
/// file order (value order inside `[grid]` arrays is meaningful for
/// expansion order).
pub fn parse_toml(text: &str) -> Result<Sections, String> {
    let mut sections: Sections = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let section = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {line_no}: unterminated section header"))?
                .trim();
            if section.is_empty() {
                return Err(format!("line {line_no}: empty section name"));
            }
            if sections.iter().any(|(s, _)| s == section) {
                return Err(format!("line {line_no}: duplicate section [{section}]"));
            }
            sections.push((section.to_string(), Vec::new()));
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {line_no}: expected `key = value`"))?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("line {line_no}: bad key {key:?}"));
        }
        let value = parse_value(value.trim()).map_err(|e| format!("line {line_no}: {e}"))?;
        let Some((_, entries)) = sections.last_mut() else {
            return Err(format!("line {line_no}: entry before any [section]"));
        };
        if entries.iter().any(|(k, _)| k == key) {
            return Err(format!("line {line_no}: duplicate key {key}"));
        }
        entries.push((key.to_string(), value));
    }
    Ok(sections)
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str) -> Result<TomlValue, String> {
    if let Some(rest) = s.strip_prefix('[') {
        let inner = rest
            .strip_suffix(']')
            .ok_or("unterminated array (arrays must be single-line)")?
            .trim();
        let mut items = Vec::new();
        if !inner.is_empty() {
            for part in split_array_items(inner)? {
                let item = parse_value(part.trim())?;
                if matches!(item, TomlValue::Array(_)) {
                    return Err("nested arrays are not supported".into());
                }
                items.push(item);
            }
        }
        return Ok(TomlValue::Array(items));
    }
    parse_scalar(s)
}

/// Splits array items on top-level commas (commas inside quoted
/// strings don't count).
fn split_array_items(inner: &str) -> Result<Vec<&str>, String> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string in array".into());
    }
    let tail = &inner[start..];
    if tail.trim().is_empty() {
        return Err("trailing comma in array".into());
    }
    items.push(tail);
    Ok(items)
}

fn parse_scalar(s: &str) -> Result<TomlValue, String> {
    if let Some(rest) = s.strip_prefix('"') {
        let body = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string {s:?}"))?;
        if body.contains('"') || body.contains('\\') {
            return Err(format!("escapes are not supported in {s:?}"));
        }
        return Ok(TomlValue::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(TomlValue::Int(i));
    }
    if let Ok(f) = s.parse::<f64>() {
        if f.is_finite() {
            return Ok(TomlValue::Float(f));
        }
    }
    Err(format!("cannot parse value {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
# A comment
[campaign]
name = "demo"          # trailing comment
scenario = "hidden_node"
seed = 7
replications = 2

[fixed]
delta = 25.0
packets = 150

[grid]
nodes = [3, 5]
mac = ["qma", "unslotted_csma"]
"#;

    #[test]
    fn parses_a_full_spec() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.scenario, ScenarioKind::HiddenNode);
        assert_eq!(spec.master_seed, 7);
        assert_eq!(spec.replications, 2);
        assert_eq!(spec.fixed.len(), 2);
        assert_eq!(spec.grid.len(), 2);
        assert_eq!(spec.grid[0].1.len(), 2);
        assert_eq!(spec.expand().unwrap().len(), 4);
    }

    #[test]
    fn defaults_apply_when_optional_keys_missing() {
        let spec =
            CampaignSpec::parse("[campaign]\nname = \"d\"\nscenario = \"convergence\"\n").unwrap();
        assert_eq!(spec.master_seed, 2021);
        assert_eq!(spec.replications, 3);
        assert!(spec.fixed.is_empty() && spec.grid.is_empty());
        assert_eq!(spec.expand().unwrap().len(), 1); // a single default config
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "name = \"x\"",                                             // entry before section
            "[campaign]\nname = \"x\"\n",                               // missing scenario
            "[campaign]\nname = \"x\"\nscenario = \"warp\"\n",          // unknown scenario
            "[campaign]\nname = \"a b\"\nscenario = \"convergence\"\n", // bad name
            "[campaign\nname = \"x\"\n",                                // unterminated header
            "[campaign]\nname = \"x\"\nname = \"y\"\nscenario = \"convergence\"\n", // dup key
            "[weird]\nx = 1\n",                                         // unknown section
            "[campaign]\nscenario = \"convergence\"\nname = \"x\"\n[grid]\nd = 5\n", // non-array axis
            "[campaign]\nscenario = \"convergence\"\nname = \"x\"\n[grid]\nd = [1,]\n", // trailing comma
            "[campaign]\nscenario = \"convergence\"\nname = \"x\"\nreplications = 0\n", // zero reps
        ] {
            assert!(CampaignSpec::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn scalar_parsing_covers_all_types() {
        assert_eq!(parse_scalar("42").unwrap(), TomlValue::Int(42));
        assert_eq!(parse_scalar("-3").unwrap(), TomlValue::Int(-3));
        assert_eq!(parse_scalar("2.5").unwrap(), TomlValue::Float(2.5));
        assert_eq!(parse_scalar("true").unwrap(), TomlValue::Bool(true));
        assert_eq!(
            parse_scalar("\"qma\"").unwrap(),
            TomlValue::Str("qma".into())
        );
        assert!(parse_scalar("nan").is_err());
        assert!(parse_scalar("\"open").is_err());
    }

    #[test]
    fn comments_respect_strings() {
        assert_eq!(strip_comment("a = \"x # y\" # real"), "a = \"x # y\" ");
        assert_eq!(strip_comment("plain"), "plain");
    }

    #[test]
    fn array_splitting_respects_strings() {
        let items = split_array_items("\"a,b\", 2").unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(
            parse_value("[\"a,b\", 2]").unwrap(),
            TomlValue::Array(vec![TomlValue::Str("a,b".into()), TomlValue::Int(2)])
        );
    }
    mod never_panics {
        //! `CampaignSpec::parse` and `expand` read operator-written
        //! files: any text either parses or is rejected with an error,
        //! never a panic.

        use super::*;
        use proptest::prelude::*;

        /// Parses `text` and, if that succeeds, expands it.
        fn parse_and_expand(text: &str) {
            if let Ok(spec) = CampaignSpec::parse(text) {
                let _ = spec.expand();
            }
        }

        /// Every committed `specs/*.toml`.
        fn committed_specs() -> Vec<(String, Vec<u8>)> {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
            let mut specs: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .filter(|path| path.extension().is_some_and(|e| e == "toml"))
                .map(|path| (path.display().to_string(), std::fs::read(&path).unwrap()))
                .collect();
            specs.sort();
            specs
        }

        #[test]
        fn committed_specs_torn_at_every_byte() {
            let specs = committed_specs();
            assert!(specs.len() >= 10, "specs/ lost its files: {}", specs.len());
            for (path, bytes) in &specs {
                let whole = String::from_utf8_lossy(bytes);
                assert!(
                    CampaignSpec::parse(&whole).is_ok(),
                    "{path} must parse whole"
                );
                for cut in 0..=bytes.len() {
                    parse_and_expand(&String::from_utf8_lossy(&bytes[..cut]));
                }
            }
        }

        /// Arbitrary text: random bytes, lossily decoded, drawn from
        /// the spec syntax's characters half of the time.
        fn arb_text() -> impl Strategy<Value = String> {
            let syntax = b"[]=\"#,.-_ \n\tabcdefgimnopqrstuxyz0123456789";
            prop_oneof![
                prop::collection::vec(any::<u8>(), 0..256),
                prop::collection::vec(0..syntax.len(), 0..256)
                    .prop_map(move |ix| ix.into_iter().map(|i| syntax[i]).collect()),
            ]
            .prop_map(|bytes: Vec<u8>| String::from_utf8_lossy(&bytes).into_owned())
        }

        proptest! {
            #[test]
            fn arbitrary_text_never_panics(text in arb_text(), cut in 0usize..2048) {
                parse_and_expand(&text);
                // Noise alone rarely gets past the section header, so
                // each committed spec is also torn at an arbitrary byte
                // and continued with the noise.
                for (_, bytes) in committed_specs() {
                    let mut torn = bytes[..cut.min(bytes.len())].to_vec();
                    torn.extend_from_slice(text.as_bytes());
                    parse_and_expand(&String::from_utf8_lossy(&torn));
                }
            }
        }
    }
}
