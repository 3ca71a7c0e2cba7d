//! JSON and CSV emitters for figure tables and sweep reports.
//!
//! JSON goes through the workspace's one writer,
//! [`triangel_obs::json::Value`]; CSV is written here. Both are
//! deterministic: emitting the same data twice yields identical bytes,
//! which the harness's reproducibility tests rely on.

use triangel_obs::json::Value;
use triangel_sim::report::FigureTable;

use crate::sweep::SweepReport;

/// Serializes a figure table as JSON.
pub fn table_to_json(t: &FigureTable) -> String {
    let rows = t.rows().iter().map(|(label, vals)| {
        Value::obj([
            ("workload", label.as_str().into()),
            ("values", vals.iter().copied().collect()),
        ])
    });
    let mut fields = vec![
        ("title", t.title().into()),
        ("metric", t.metric().into()),
        ("configs", t.configs().iter().map(String::as_str).collect()),
        ("rows", rows.collect()),
    ];
    if t.has_geomean() {
        fields.push(("geomean", t.geomeans().into()));
    }
    Value::obj(fields).to_string()
}

/// Renders an `f64` as a CSV field, mirroring the JSON emitter's
/// treatment of non-finite values (an empty field, CSV's "missing").
fn csv_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        String::new()
    }
}

/// Escapes one CSV field (RFC 4180 quoting).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serializes a figure table as CSV: a header row, one row per
/// workload, and a final geomean row when the table has one.
pub fn table_to_csv(t: &FigureTable) -> String {
    let mut out = String::new();
    out.push_str("workload");
    for c in t.configs() {
        out.push(',');
        out.push_str(&csv_field(c));
    }
    out.push('\n');
    for (label, vals) in t.rows() {
        out.push_str(&csv_field(label));
        for v in vals {
            out.push_str(&format!(",{}", csv_f64(*v)));
        }
        out.push('\n');
    }
    if t.has_geomean() {
        out.push_str("geomean");
        for v in t.geomeans() {
            out.push_str(&format!(",{}", csv_f64(v)));
        }
        out.push('\n');
    }
    out
}

/// Serializes a sweep report as JSON: scheduler stats (including the
/// cache-hit counter) and one summary per job, in job order.
pub fn sweep_to_json(report: &SweepReport) -> String {
    let jobs = report
        .keys
        .iter()
        .zip(&report.results)
        .map(|(key, result)| {
            let key = ("key", key.as_str().into());
            match result {
                Ok(run) => Value::obj([
                    key,
                    ("ok", true.into()),
                    (
                        "run",
                        Value::obj([
                            ("workload", run.workload.as_str().into()),
                            ("ipc", run.ipc().into()),
                            ("dram_reads", run.dram_reads().into()),
                            ("l3_accesses", run.l3_accesses().into()),
                            ("accuracy", run.accuracy().into()),
                            ("l2_demand_misses", run.l2_demand_misses().into()),
                            ("markov_ways", run.markov_ways.into()),
                        ]),
                    ),
                ]),
                Err(e) => Value::obj([
                    key,
                    ("ok", false.into()),
                    ("error", e.message.as_str().into()),
                ]),
            }
        });
    let stats = &report.stats;
    Value::obj([
        (
            "stats",
            Value::obj([
                ("jobs", stats.jobs.into()),
                ("executed", stats.executed.into()),
                ("cache_hits", stats.cache_hits.into()),
                ("errors", stats.errors.into()),
            ]),
        ),
        ("jobs", jobs.collect()),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FigureTable {
        let mut t = FigureTable::new("T, \"quoted\"", "m", vec!["A".into(), "B".into()]);
        t.push_row("w1", vec![1.0, 2.5]);
        t.push_row("w2", vec![4.0, 0.125]);
        t
    }

    #[test]
    fn json_round_trips_exact_floats() {
        let j = table_to_json(&table());
        assert!(j.contains("\"title\":\"T, \\\"quoted\\\"\""));
        assert!(j.contains("\"values\":[1.0,2.5]"));
        assert!(j.contains("\"geomean\":[2.0,"));
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let c = table_to_csv(&table());
        let mut lines = c.lines();
        assert_eq!(lines.next(), Some("workload,A,B"));
        assert_eq!(lines.next(), Some("w1,1.0,2.5"));
        assert_eq!(lines.next(), Some("w2,4.0,0.125"));
        assert!(lines.next().unwrap().starts_with("geomean,2.0,"));
    }

    #[test]
    fn non_finite_values_agree_across_emitters() {
        let mut t = FigureTable::new("t", "m", vec!["A".into()]);
        t.push_row("w", vec![f64::NAN]);
        t.push_row("x", vec![f64::INFINITY]);
        let j = table_to_json(&t);
        assert!(j.contains("\"values\":[null]"));
        assert!(!j.contains("NaN") && !j.contains("inf"));
        let c = table_to_csv(&t);
        assert!(c.contains("w,\n"), "NaN should be an empty CSV field: {c}");
        assert!(!c.contains("NaN") && !c.contains("inf"));
    }

    #[test]
    fn emission_is_deterministic() {
        let t = table();
        assert_eq!(table_to_json(&t), table_to_json(&t));
        assert_eq!(table_to_csv(&t), table_to_csv(&t));
    }
}
