//! The `BENCH_scale.json` schema: serialization and parsing, dependency-free.
//!
//! The `scale` binary measures steady-state stepping throughput per
//! (scale, policy) pair and writes one [`ScaleReport`] as hand-rolled JSON
//! (this workspace carries no JSON dependency). The parser here reads the
//! same format back so the throughput-regression test can compare a live
//! measurement against the checked-in baseline, and so the schema itself is
//! pinned by a round-trip test.
//! Its tolerant [`field_f64`] also reads the `trace` binary's checked-in
//! span-overhead budget.
//!
//! The format is deliberately flat: one top-level object with scalar
//! metadata and a `results` array of flat objects. Unknown fields are
//! ignored on parse, so baselines may carry extra annotations (e.g. the
//! pre-change reference throughput) without breaking readers.

use fairmove_telemetry::export::{json_f64, json_string};
use std::fmt::Write as _;

/// One measured (scale, policy) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleResult {
    /// Scale preset name (`test`, `small`, `default`, `full`).
    pub scale: String,
    /// Policy name (`stay`, `cma2c-frozen`).
    pub policy: String,
    /// Slots stepped across all measured rounds.
    pub slots: u64,
    /// Displacement decisions made across all measured rounds.
    pub decisions: u64,
    /// Median-of-rounds throughput, simulated slots per second.
    pub slots_per_sec: f64,
    /// Median-of-rounds decision throughput, decisions per second.
    pub decisions_per_sec: f64,
    /// Mean heap allocations per measured slot (0.0 in steady state; only
    /// meaningful when the binary installs the counting allocator).
    pub allocs_per_slot: f64,
    /// Peak resident set size after the run, bytes (`VmHWM`; 0 off Linux).
    pub peak_rss_bytes: u64,
    /// Mean wall nanoseconds per slot inside the `observe` span (0.0 when
    /// the producing binary did not trace phases; absent in old baselines).
    pub observe_ns_per_slot: f64,
    /// Mean wall nanoseconds per slot inside the `decide` span.
    pub decide_ns_per_slot: f64,
    /// Mean wall nanoseconds per slot inside the `commit` span.
    pub commit_ns_per_slot: f64,
}

/// A full `BENCH_scale.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Worker threads configured when the report was produced.
    pub threads: usize,
    /// Measured rounds per result (median taken over these).
    pub rounds: usize,
    /// Per-(scale, policy) measurements.
    pub results: Vec<ScaleResult>,
}

impl ScaleResult {
    fn to_json(&self) -> String {
        format!(
            "{{\"scale\":{},\"policy\":{},\"slots\":{},\"decisions\":{},\
             \"slots_per_sec\":{},\"decisions_per_sec\":{},\
             \"allocs_per_slot\":{},\"peak_rss_bytes\":{},\
             \"observe_ns_per_slot\":{},\"decide_ns_per_slot\":{},\
             \"commit_ns_per_slot\":{}}}",
            json_string(&self.scale),
            json_string(&self.policy),
            self.slots,
            self.decisions,
            json_f64(self.slots_per_sec),
            json_f64(self.decisions_per_sec),
            json_f64(self.allocs_per_slot),
            self.peak_rss_bytes,
            json_f64(self.observe_ns_per_slot),
            json_f64(self.decide_ns_per_slot),
            json_f64(self.commit_ns_per_slot),
        )
    }

    fn from_object(obj: &str) -> Option<ScaleResult> {
        Some(ScaleResult {
            scale: field_string(obj, "scale")?,
            policy: field_string(obj, "policy")?,
            slots: field_f64(obj, "slots")? as u64,
            decisions: field_f64(obj, "decisions")? as u64,
            slots_per_sec: field_f64(obj, "slots_per_sec")?,
            decisions_per_sec: field_f64(obj, "decisions_per_sec")?,
            allocs_per_slot: field_f64(obj, "allocs_per_slot")?,
            peak_rss_bytes: field_f64(obj, "peak_rss_bytes")? as u64,
            // Phase timings postdate the v1 schema; baselines written
            // before them parse as 0.0 (the "not measured" value).
            observe_ns_per_slot: field_f64(obj, "observe_ns_per_slot").unwrap_or(0.0),
            decide_ns_per_slot: field_f64(obj, "decide_ns_per_slot").unwrap_or(0.0),
            commit_ns_per_slot: field_f64(obj, "commit_ns_per_slot").unwrap_or(0.0),
        })
    }
}

impl ScaleReport {
    /// Serializes the report as one line of JSON (plus trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"version\":1,\"threads\":{},\"rounds\":{},\"results\":[",
            self.threads, self.rounds
        );
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a report produced by [`Self::to_json`] (or a hand-edited
    /// baseline in the same shape). Returns `None` on any structural
    /// mismatch rather than guessing.
    pub fn from_json(text: &str) -> Option<ScaleReport> {
        let threads = field_f64(text, "threads")? as usize;
        let rounds = field_f64(text, "rounds")? as usize;
        let array = {
            let start = text.find("\"results\"")?;
            let open = text[start..].find('[')? + start;
            let close = text[open..].find(']')? + open;
            &text[open + 1..close]
        };
        let mut results = Vec::new();
        let mut rest = array;
        while let Some(open) = rest.find('{') {
            let close = rest[open..].find('}')? + open;
            results.push(ScaleResult::from_object(&rest[open..=close])?);
            rest = &rest[close + 1..];
        }
        Some(ScaleReport {
            threads,
            rounds,
            results,
        })
    }

    /// The result for one (scale, policy) pair, if present.
    pub fn result(&self, scale: &str, policy: &str) -> Option<&ScaleResult> {
        self.results
            .iter()
            .find(|r| r.scale == scale && r.policy == policy)
    }
}

/// Extracts `"key":<number>` from a flat JSON object/document.
pub fn field_f64(obj: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = obj.find(&needle)? + needle.len();
    let rest = obj[at..].trim_start();
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Extracts `"key":"<string>"` (no escape handling beyond `\"` — the names
/// this schema carries are plain identifiers).
fn field_string(obj: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let at = obj.find(&needle)? + needle.len();
    let end = obj[at..].find('"')?;
    Some(obj[at..at + end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScaleReport {
        ScaleReport {
            threads: 4,
            rounds: 3,
            results: vec![
                ScaleResult {
                    scale: "test".into(),
                    policy: "stay".into(),
                    slots: 108,
                    decisions: 5400,
                    slots_per_sec: 9183.87,
                    decisions_per_sec: 459193.5,
                    allocs_per_slot: 0.0,
                    peak_rss_bytes: 52_428_800,
                    observe_ns_per_slot: 1250.5,
                    decide_ns_per_slot: 80_000.0,
                    commit_ns_per_slot: 20_500.25,
                },
                ScaleResult {
                    scale: "default".into(),
                    policy: "cma2c-frozen".into(),
                    slots: 144,
                    decisions: 80_000,
                    slots_per_sec: 612.25,
                    decisions_per_sec: 340138.0,
                    allocs_per_slot: 0.25,
                    peak_rss_bytes: 104_857_600,
                    observe_ns_per_slot: 0.0,
                    decide_ns_per_slot: 0.0,
                    commit_ns_per_slot: 0.0,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample();
        let json = report.to_json();
        let parsed = ScaleReport::from_json(&json).expect("own output must parse");
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_is_machine_readable_shape() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"version\":1,"));
        assert!(json.ends_with("]}\n"));
        assert_eq!(json.matches("\"slots_per_sec\"").count(), 2);
    }

    #[test]
    fn result_lookup_by_scale_and_policy() {
        let report = sample();
        let r = report.result("default", "cma2c-frozen").expect("present");
        assert!((r.slots_per_sec - 612.25).abs() < 1e-12);
        assert!(report.result("default", "stay").is_none());
    }

    #[test]
    fn parser_ignores_unknown_fields() {
        let json = "{\"version\":1,\"note\":\"pre-change was 270.81\",\
                    \"threads\":1,\"rounds\":3,\"results\":[\
                    {\"scale\":\"default\",\"policy\":\"cma2c-frozen\",\
                    \"slots\":144,\"decisions\":1000,\"slots_per_sec\":541.6,\
                    \"decisions_per_sec\":3761.0,\"allocs_per_slot\":0,\
                    \"peak_rss_bytes\":0,\"extra\":7}]}";
        let report = ScaleReport::from_json(json).expect("parses with extras");
        assert_eq!(report.results.len(), 1);
        assert!((report.results[0].slots_per_sec - 541.6).abs() < 1e-12);
        // A pre-phase-timing baseline: the new fields default to 0.0.
        assert_eq!(report.results[0].observe_ns_per_slot, 0.0);
        assert_eq!(report.results[0].decide_ns_per_slot, 0.0);
        assert_eq!(report.results[0].commit_ns_per_slot, 0.0);
    }

    #[test]
    fn malformed_documents_parse_to_none() {
        assert!(ScaleReport::from_json("").is_none());
        assert!(ScaleReport::from_json("{\"threads\":1}").is_none());
        assert!(ScaleReport::from_json(
            "{\"threads\":1,\"rounds\":1,\"results\":[{\"scale\":\"x\"}]}"
        )
        .is_none());
    }
}
