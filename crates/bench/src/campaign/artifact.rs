//! Campaign artifacts: a CSV and a JSON report, rendered at the merge.
//!
//! Neither file is durable state. A fabric worker publishes one
//! rendered row per finished config as a shard, and resume reads the
//! shards; the merge folds them in grid order into both artifacts
//! (values are stored pre-formatted, so a row read back from a shard
//! re-emits byte-identically). The JSON report carries the same rows
//! plus campaign metadata.
//!
//! Columns are fixed across all campaigns — grid parameters live
//! inside `config_key` (`;`-separated, so the cell embeds in the
//! comma-separated CSV without quoting).

use qma_scenarios::ScenarioKind;

use super::agg::ConfigAggregate;

/// How a column renders into JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColKind {
    Str,
    Int,
    Float,
}

/// The artifact schema: column names and JSON types, in order.
const COLUMNS: &[(&str, ColKind)] = &[
    ("config_key", ColKind::Str),
    ("scenario", ColKind::Str),
    ("master_seed", ColKind::Int),
    ("replications", ColKind::Int),
    ("pdr_mean", ColKind::Float),
    ("pdr_ci95", ColKind::Float),
    ("delay_mean_s", ColKind::Float),
    ("delay_ci95", ColKind::Float),
    ("retry_drops_mean", ColKind::Float),
    ("queue_drops_mean", ColKind::Float),
    ("aux_name", ColKind::Str),
    ("aux_mean", ColKind::Float),
    ("aux_ci95", ColKind::Float),
    ("recovery_s_mean", ColKind::Float),
    ("recovery_s_ci95", ColKind::Float),
    ("collision_regret_mean", ColKind::Float),
    ("lost_in_outage_mean", ColKind::Float),
    ("steady_delta_mean", ColKind::Float),
    ("events_total", ColKind::Int),
    ("events_per_sim_s", ColKind::Float),
];

/// Column names, in artifact order.
pub fn column_names() -> Vec<&'static str> {
    COLUMNS.iter().map(|(name, _)| *name).collect()
}

/// One completed configuration, values pre-formatted (so a row read
/// back from its shard re-emits byte-identically).
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactRow {
    values: Vec<String>,
}

impl ArtifactRow {
    /// Builds the row for one aggregated configuration.
    pub fn from_aggregate(
        config_key: &str,
        scenario: ScenarioKind,
        master_seed: u64,
        agg: &ConfigAggregate,
    ) -> ArtifactRow {
        let pdr = agg.pdr();
        let delay = agg.delay_s();
        let aux = agg.aux();
        let recovery = agg.recovery_s();
        let values = vec![
            config_key.to_string(),
            scenario.key().to_string(),
            master_seed.to_string(),
            agg.replications().to_string(),
            format!("{:.6}", pdr.mean),
            format!("{:.6}", pdr.half_width),
            format!("{:.6}", delay.mean),
            format!("{:.6}", delay.half_width),
            format!("{:.3}", agg.retry_drops_mean()),
            format!("{:.3}", agg.queue_drops_mean()),
            scenario.aux_name().to_string(),
            format!("{:.6}", aux.mean),
            format!("{:.6}", aux.half_width),
            format!("{:.6}", recovery.mean),
            format!("{:.6}", recovery.half_width),
            format!("{:.6}", agg.collision_regret_mean()),
            format!("{:.6}", agg.lost_in_outage_mean()),
            format!("{:.6}", agg.steady_delta_mean()),
            agg.events_total().to_string(),
            format!("{:.3}", agg.events_per_sim_sec()),
        ];
        debug_assert_eq!(values.len(), COLUMNS.len());
        ArtifactRow { values }
    }

    /// Rebuilds a row from pre-formatted cells, validating them
    /// against the schema. The fabric stores one rendered row per
    /// per-config shard file and folds them back through this
    /// constructor at merge time — the validation is what turns a
    /// corrupted shard into a hard error instead of a silently wrong
    /// artifact.
    pub fn from_cells(values: Vec<String>) -> Result<ArtifactRow, String> {
        validate_cells(&values)?;
        Ok(ArtifactRow { values })
    }

    /// The row as one rendered CSV line (no trailing newline) —
    /// byte-identical to its slice of [`render_csv`].
    pub fn to_csv_line(&self) -> String {
        self.values.join(",")
    }

    /// The row's `config_key` cell.
    pub fn config_key(&self) -> &str {
        &self.values[0]
    }

    /// The value of a named column.
    pub fn get(&self, column: &str) -> Option<&str> {
        COLUMNS
            .iter()
            .position(|(name, _)| *name == column)
            .map(|i| self.values[i].as_str())
    }

    /// The stored replication count (used by resume to detect rows
    /// computed under a different replication setting).
    pub fn replications(&self) -> Option<u64> {
        self.get("replications")?.parse().ok()
    }

    /// `true` when this row was computed under the given campaign
    /// setting — the resume precondition: reusing a row computed
    /// under a different seed, scenario or replication count would
    /// silently break the determinism guarantee.
    pub fn matches_campaign(
        &self,
        scenario: ScenarioKind,
        master_seed: u64,
        replications: u64,
    ) -> bool {
        self.get("scenario") == Some(scenario.key())
            && self.get("master_seed") == Some(master_seed.to_string().as_str())
            && self.replications() == Some(replications)
    }
}

/// Renders the CSV artifact (header + rows, `\n`-terminated).
pub fn render_csv(rows: &[ArtifactRow]) -> String {
    let mut out = column_names().join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.to_csv_line());
        out.push('\n');
    }
    out
}

/// Schema validation behind [`ArtifactRow::from_cells`]: every cell
/// must parse as its column's type, and the cell count must match the
/// schema.
fn validate_cells(values: &[String]) -> Result<(), String> {
    for ((name, kind), value) in COLUMNS.iter().zip(values) {
        let ok = match kind {
            ColKind::Str => true,
            ColKind::Int => value.parse::<u64>().is_ok(),
            ColKind::Float => value.parse::<f64>().map(f64::is_finite).unwrap_or(false),
        };
        if !ok {
            return Err(format!(
                "cell {name} = {value:?} is not a valid {kind:?}; \
                 delete the corrupted shard to recompute"
            ));
        }
    }
    if values.len() != COLUMNS.len() {
        return Err(format!(
            "{} cells, expected {} — truncated write? \
             delete the shard to recompute",
            values.len(),
            COLUMNS.len()
        ));
    }
    Ok(())
}

/// Campaign-level metadata carried in the JSON report.
#[derive(Debug, Clone)]
pub struct CampaignMeta {
    /// Campaign name (artifact basename).
    pub name: String,
    /// Scenario every config ran.
    pub scenario: ScenarioKind,
    /// Master seed of the campaign.
    pub master_seed: u64,
    /// Replications per configuration.
    pub replications: u64,
}

/// Renders the JSON report: campaign metadata plus one object per
/// configuration. Purely a function of the rows — no wall-clock
/// values — so fixed master seed ⇒ byte-identical reports.
pub fn render_json(meta: &CampaignMeta, rows: &[ArtifactRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"campaign\": {},\n", json_str(&meta.name)));
    out.push_str(&format!(
        "  \"scenario\": {},\n",
        json_str(meta.scenario.key())
    ));
    out.push_str(&format!("  \"master_seed\": {},\n", meta.master_seed));
    out.push_str(&format!("  \"replications\": {},\n", meta.replications));
    out.push_str(&format!(
        "  \"aux_metric\": {},\n",
        json_str(meta.scenario.aux_name())
    ));
    out.push_str(&format!("  \"configs\": {},\n", rows.len()));
    out.push_str("  \"rows\": [\n");
    for (r, row) in rows.iter().enumerate() {
        out.push_str("    {");
        for (i, ((name, kind), value)) in COLUMNS.iter().zip(&row.values).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let rendered = match kind {
                ColKind::Str => json_str(value),
                // Numeric cells were formatted by us (or validated on
                // parse), so they embed verbatim as JSON numbers.
                ColKind::Int | ColKind::Float => value.clone(),
            };
            out.push_str(&format!("\"{name}\": {rendered}"));
        }
        out.push('}');
        out.push_str(if r + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// `s` as a JSON string literal. Escapes `"`, `\` and the control
/// characters U+0000–U+001F (RFC 8259 §7), so a multi-line panic
/// message still renders as valid JSON.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qma_scenarios::RunMetrics;

    fn sample_row(key: &str) -> ArtifactRow {
        let mut agg = ConfigAggregate::new();
        for pdr in [0.9, 0.92] {
            agg.push(&RunMetrics {
                pdr,
                delay_s: 0.01,
                retry_drops: 3,
                queue_drops: 0,
                events: 5000,
                sim_seconds: 130.0,
                aux: 1.5,
                resilience: qma_scenarios::Resilience {
                    recovery_s: 4.0,
                    collision_regret: -1.25,
                    lost_in_outage: 7.0,
                    steady_state_delta: 0.002,
                },
            });
        }
        ArtifactRow::from_aggregate(key, ScenarioKind::HiddenNode, 2021, &agg)
    }

    /// The rows of a rendered CSV, read back cell by cell through
    /// [`ArtifactRow::from_cells`] (the header is checked, not parsed).
    fn rows_of(csv: &str) -> Result<Vec<ArtifactRow>, String> {
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(column_names().join(",").as_str()));
        lines
            .map(|line| ArtifactRow::from_cells(line.split(',').map(str::to_string).collect()))
            .collect()
    }

    #[test]
    fn csv_roundtrips_byte_identically() {
        let rows = vec![
            sample_row("delta=25;mac=qma"),
            sample_row("delta=25;mac=csma"),
        ];
        let csv = render_csv(&rows);
        let parsed = rows_of(&csv).unwrap();
        assert_eq!(parsed, rows);
        assert_eq!(render_csv(&parsed), csv);
        assert_eq!(parsed[0].config_key(), "delta=25;mac=qma");
        assert_eq!(parsed[0].replications(), Some(2));
        assert_eq!(parsed[0].get("aux_name"), Some("queue_level"));
        assert!(parsed[0].matches_campaign(ScenarioKind::HiddenNode, 2021, 2));
        for (scenario, seed, reps) in [
            (ScenarioKind::Convergence, 2021, 2), // wrong scenario
            (ScenarioKind::HiddenNode, 7, 2),     // wrong seed
            (ScenarioKind::HiddenNode, 2021, 3),  // wrong reps
        ] {
            assert!(!parsed[0].matches_campaign(scenario, seed, reps));
        }
    }

    #[test]
    fn from_cells_rejects_truncation() {
        let good = sample_row("k=1").to_csv_line();
        let truncated = good.rsplit_once(',').unwrap().0;
        let err = ArtifactRow::from_cells(truncated.split(',').map(str::to_string).collect())
            .unwrap_err();
        assert!(err.contains("truncated"), "unhelpful error: {err}");
        assert!(ArtifactRow::from_cells(Vec::new()).is_err());
    }

    #[test]
    fn from_cells_rejects_non_numeric_cells() {
        // Corrupt one numeric cell of an otherwise well-shaped row:
        // the merge must refuse it rather than re-emit garbage into
        // the JSON report.
        let good = render_csv(&[sample_row("k=1")]);
        let corrupted = good.replacen("0.910000", "abc", 1);
        assert_ne!(good, corrupted);
        let err = rows_of(&corrupted).unwrap_err();
        assert!(err.contains("pdr_mean"), "unhelpful error: {err}");
    }

    #[test]
    fn json_report_shape() {
        let meta = CampaignMeta {
            name: "demo".into(),
            scenario: ScenarioKind::HiddenNode,
            master_seed: 2021,
            replications: 2,
        };
        let json = render_json(&meta, &[sample_row("mac=qma")]);
        assert!(json.contains("\"campaign\": \"demo\""));
        assert!(json.contains("\"configs\": 1"));
        assert!(json.contains("\"config_key\": \"mac=qma\""));
        assert!(json.contains("\"pdr_mean\": 0.910000"));
        assert!(json.contains("\"events_total\": 10000"));
        // Balanced braces/brackets (cheap well-formedness check; CI
        // runs it through a real JSON parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_campaign_renders_valid_artifacts() {
        let csv = render_csv(&[]);
        assert_eq!(rows_of(&csv).unwrap(), Vec::<ArtifactRow>::new());
        let meta = CampaignMeta {
            name: "empty".into(),
            scenario: ScenarioKind::Convergence,
            master_seed: 1,
            replications: 1,
        };
        let json = render_json(&meta, &[]);
        assert!(json.contains("\"rows\": [\n  ]"));
    }
}
