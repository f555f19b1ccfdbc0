//! Test-scale runs of every workload through the benchmark's own code
//! paths, plus the inertness of the timing wrapper.

use fairmove_perfbench::paper::{self, Policy};
use fairmove_perfbench::report::{END_TO_END, PER_LAYER};
use fairmove_perfbench::{Scale, Workload, DEFAULT_SEED, WORKLOADS};
use std::sync::Mutex;
use std::time::Duration;

fn test_run(name: &str, traced: bool) -> fairmove_perfbench::report::Outcome {
    let w = Workload {
        seed: DEFAULT_SEED,
        seconds: Duration::from_millis(400),
        traced,
        scale: Scale::Test,
    };
    fairmove_perfbench::run(name, w).expect("known workload")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    // One test, so the serve workload's process-wide tracing switch never
    // overlaps another workload's run.
    for name in WORKLOADS {
        let untraced = test_run(name, false);
        assert!(untraced.correct(), "{name}: {:?}", untraced.failures);
        let line = untraced.result_line(false);
        for &(metric, unit) in END_TO_END {
            let value = untraced.values[metric];
            assert!(
                value.is_finite() && value > 0.0,
                "{name}: {metric} = {value}"
            );
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{name}: {line}"
            );
            assert!(
                line.contains(&format!("\"unit\": \"{unit}\"")),
                "{name}: {line}"
            );
        }

        let traced = test_run(name, true);
        assert!(traced.correct(), "{name} traced: {:?}", traced.failures);
        let line = traced.result_line(true);
        for &(metric, unit) in PER_LAYER {
            let value = traced.values.get(metric).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "{name}: {metric} = {value}");
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{name}: {line}"
            );
            assert!(
                line.contains(&format!("\"unit\": \"{unit}\"")),
                "{name}: {line}"
            );
        }
        assert!(traced.values.contains_key("trace.overhead"), "{name}");
    }
}

#[test]
fn the_timing_wrapper_leaves_digests_and_decisions_unchanged() {
    let config = paper::sim_config(Scale::Test, DEFAULT_SEED);
    let actor = paper::read_actor().expect("checked-in actor matches its hash");
    for policy in [Policy::Cma2c, Policy::Greedy] {
        let mut plain = paper::build_env(&config, policy, Some(&actor), None);
        let probes = Mutex::new(Vec::new());
        let mut timed = paper::build_env(&config, policy, Some(&actor), Some(&probes));
        assert_eq!(probes.lock().unwrap().len(), paper::SHARDS);
        for _ in 0..24 {
            plain.step_slot(paper::threads());
            timed.step_slot(paper::threads());
        }
        assert!(plain.decisions() > 0, "{policy:?}: nothing decided");
        assert_eq!(plain.decisions(), timed.decisions(), "{policy:?}");
        assert_eq!(plain.digest(), timed.digest(), "{policy:?}");
    }
}

#[test]
fn benchmark_json_lists_the_workloads_and_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for name in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"why\": ")),
            "{name}"
        );
    }
    for &(name, unit) in END_TO_END {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name}"
        );
    }
    for &(name, unit) in PER_LAYER {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name}"
        );
    }
    let metrics = json.matches("\"unit\": ").count();
    assert_eq!(
        metrics,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists other metrics"
    );
}

#[test]
fn unknown_workloads_are_refused() {
    let w = Workload {
        seed: 1,
        seconds: Duration::from_millis(1),
        traced: false,
        scale: Scale::Test,
    };
    assert!(fairmove_perfbench::run("paper-bogus", w).is_none());
}
