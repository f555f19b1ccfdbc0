//! Metric names, units, and the result line.
//!
//! Every workload prints every end-to-end metric of [`END_TO_END`] (untraced
//! run) or every per-layer metric of [`PER_LAYER`] (traced run) in the last
//! line of its output, so the tables here and `BENCHMARK.json` must list the
//! same names; a test checks that they do. A per-layer metric of a layer the
//! workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric. All are measured with
/// tracing off, on every workload; `README.md` says what each means on each
/// workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("decisions_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, measured in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("shard.step_ms", "ms"),
    ("shard.decide_ms", "ms"),
    ("shard.decide_share", "ratio"),
    ("shard.imbalance", "ratio"),
    ("shard.contexts_per_slot", "count"),
    ("shard.candidates_per_context", "count"),
    ("shard.handoffs_per_slot", "count"),
    ("shard.allocs_per_slot", "count"),
    ("cma2c_shard.us_per_context", "us"),
    ("features.refresh_us", "us"),
    ("features.row_ns", "ns"),
    ("rl.forward_ns_per_row", "ns"),
    ("rl.forward_gflops", "GFLOP/s"),
    ("serve.service_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.shed_ratio", "ratio"),
    ("serve.write_p50_ms", "ms"),
    ("serve.read_p50_ms", "ms"),
    ("serve.request_p99_ms", "ms"),
    ("serve.recovery_ms", "ms"),
    ("journal.append_ms", "ms"),
    ("dispatch.step_ms", "ms"),
    ("dispatch.decide_ms", "ms"),
    ("env.observe_us", "us"),
    ("env.decide_us", "us"),
    ("env.commit_us", "us"),
    ("ckpt.write_ms", "ms"),
    ("ckpt.bytes", "bytes"),
    ("restart.start_ms", "ms"),
    ("restart.restore_ms", "ms"),
    ("restart.replayed", "count"),
    ("trace.overhead", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Failed operations, `ERR` replies and failed checks.
    pub failed: u64,
    /// One line per failure, printed before the result line.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line (workload-
    /// specific views of the metrics, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one check: counts it as attempted, and as failed with `what`
    /// when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Sets metric `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// of the run's table with its unit. An end-to-end metric the workload
    /// did not set is a bug in the workload and panics; an unset per-layer
    /// metric reads 0 (layer not exercised).
    pub fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("workload did not measure end-to-end metric {name}"),
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A finite float as a JSON number with all its digits (non-finite values,
/// which JSON cannot hold, print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status` (0 where that file does not exist).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.99), 5.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_every_metric_of_its_table() {
        let mut o = Outcome::default();
        for &(name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.check(true, String::new);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for &(name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        let traced = o.result_line(true);
        for &(name, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{name}\"")));
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.check(false, || "digest mismatch".into());
        assert!(!o.correct());
        assert_eq!(o.failed_ratio(), 0.5);
        assert_eq!(o.failures, vec!["digest mismatch".to_string()]);
    }
}
