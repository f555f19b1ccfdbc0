//! Deep-tracing bench: span overhead, decide-latency percentiles, and a
//! ready-to-open Chrome trace of one slot.
//!
//! Runs frozen CMA2C inference twice over the same steady-state window —
//! tracing off, then tracing on (with the sampling profiler attached) — and
//! reports the per-slot cost of the span layer. Then it clears the rings,
//! steps one more traced slot, and dumps that slot's complete span tree
//! (`step_slot → observe → decide → dispatch`, plus `commit`) as
//! Chrome trace-event JSON.
//!
//! Outputs (all into the working directory unless `--out` moves the
//! report):
//! - `BENCH_trace.json` — traced/untraced ns per slot, span overhead,
//!   events per slot, and p50/p99/p999 decide latency.
//! - `trace_slot.json` — one slot's span tree; open in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! - `profile.folded` — folded stacks from the sampling profiler
//!   (flamegraph.pl / speedscope format).
//!
//! Flags:
//! - `--smoke`: Test scale and a short window; the CI trace-smoke job runs
//!   this on every push.
//! - `--enforce-budget`: exit nonzero if the measured span overhead exceeds
//!   the checked-in budget (`crates/bench/baselines/trace_budget.json`).
//! - `--out <path>`: where to write the report (default `BENCH_trace.json`).

use fairmove_agents::{Cma2cConfig, Cma2cPolicy};
use fairmove_bench::scale_report::field_f64;
use fairmove_bench::Scale;
use fairmove_city::City;
use fairmove_sim::{DisplacementPolicy, Environment};
use fairmove_telemetry::export::json_f64;
use fairmove_telemetry::trace;
use fairmove_telemetry::Telemetry;
use std::time::Instant;

/// Steps `slots` slots and returns elapsed nanoseconds.
fn timed_slots(env: &mut Environment, policy: &mut dyn DisplacementPolicy, slots: usize) -> u64 {
    let start = Instant::now();
    for _ in 0..slots {
        let feedback = env.step_slot(policy);
        policy.observe(feedback);
    }
    start.elapsed().as_nanos() as u64
}

/// A fresh steady-state environment + frozen policy pair at `scale`.
fn fresh(scale: Scale, telemetry: &Telemetry) -> (Environment, Cma2cPolicy) {
    let config = scale.sim();
    let city = City::generate(config.city.clone());
    let mut policy = Cma2cPolicy::new(&city, Cma2cConfig::default());
    policy.freeze();
    let mut env = Environment::new(config);
    env.disable_audit();
    env.prepare_steady_state();
    env.set_telemetry(telemetry);
    (env, policy)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce_budget = args.iter().any(|a| a == "--enforce-budget");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_trace.json");

    let (scale, warmup, slots) = if smoke {
        (Scale::Test, 6, 24)
    } else {
        (Scale::Default, 12, 48)
    };

    // Pass 1: tracing off — the baseline cost of a slot.
    trace::set_enabled(false);
    let tel_off = Telemetry::enabled();
    let (mut env, mut policy) = fresh(scale, &tel_off);
    timed_slots(&mut env, &mut policy, warmup);
    let untraced_ns = timed_slots(&mut env, &mut policy, slots);

    // Pass 2: tracing on, profiler sampling — the instrumented cost.
    trace::set_enabled(true);
    let tel_on = Telemetry::enabled();
    let (mut env, mut policy) = fresh(scale, &tel_on);
    timed_slots(&mut env, &mut policy, warmup);
    trace::reset();
    let profiler = trace::start_profiler(997);
    let traced_ns = timed_slots(&mut env, &mut policy, slots);
    let folded = profiler.stop();
    let events_per_slot =
        trace::collect_events().len().min(trace::RING_EVENTS) as f64 / slots as f64;

    // One clean slot for the Chrome trace: empty the rings, step once.
    trace::reset();
    timed_slots(&mut env, &mut policy, 1);
    trace::set_enabled(false);
    let slot_events = trace::collect_events();
    let chrome = trace::chrome_trace_json(&slot_events);
    match trace::validate_chrome_trace(&chrome) {
        Ok(n) => eprintln!("trace_slot.json: {n} events validate"),
        Err(e) => {
            eprintln!("generated Chrome trace failed validation: {e}");
            std::process::exit(1);
        }
    }
    let depths: std::collections::BTreeSet<u32> = slot_events.iter().map(|e| e.depth).collect();
    if depths.len() < 3 {
        eprintln!(
            "span tree too shallow: expected >= 3 nesting levels, got {:?}",
            depths
        );
        std::process::exit(1);
    }

    // Decide-latency percentiles from the labeled histogram.
    let snapshot = tel_on.snapshot();
    let decide = snapshot
        .histograms
        .iter()
        .find(|h| h.base_name() == "decide.latency_seconds")
        .expect("traced run must record decide latency");
    let (p50, p99, p999) = (
        decide.quantile(0.5),
        decide.quantile(0.99),
        decide.quantile(0.999),
    );

    let untraced_ns_per_slot = untraced_ns as f64 / slots as f64;
    let traced_ns_per_slot = traced_ns as f64 / slots as f64;
    let overhead_ns_per_slot = traced_ns_per_slot - untraced_ns_per_slot;

    println!(
        "{}: untraced {:.1} µs/slot, traced {:.1} µs/slot, span overhead {:.1} µs/slot",
        scale.name(),
        untraced_ns_per_slot / 1000.0,
        traced_ns_per_slot / 1000.0,
        overhead_ns_per_slot / 1000.0,
    );
    println!(
        "decide latency [{}]: p50 {:.6}s p99 {:.6}s p999 {:.6}s over {} calls",
        decide.name, p50, p99, p999, decide.count,
    );
    println!(
        "{:.1} span events/slot; {} distinct nesting levels",
        events_per_slot,
        depths.len()
    );

    let report = format!(
        "{{\"version\":1,\"scale\":\"{}\",\"slots\":{},\
         \"untraced_ns_per_slot\":{},\"traced_ns_per_slot\":{},\
         \"span_overhead_ns_per_slot\":{},\"events_per_slot\":{},\
         \"nesting_levels\":{},\
         \"decide_latency_p50_seconds\":{},\"decide_latency_p99_seconds\":{},\
         \"decide_latency_p999_seconds\":{}}}\n",
        scale.name(),
        slots,
        json_f64(untraced_ns_per_slot),
        json_f64(traced_ns_per_slot),
        json_f64(overhead_ns_per_slot),
        json_f64(events_per_slot),
        depths.len(),
        json_f64(p50),
        json_f64(p99),
        json_f64(p999),
    );

    for (path, contents) in [
        (out_path, report.as_str()),
        ("trace_slot.json", chrome.as_str()),
        ("profile.folded", folded.as_str()),
    ] {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }

    if enforce_budget {
        let budget_text = include_str!("../../baselines/trace_budget.json");
        let budget = field_f64(budget_text, "span_overhead_budget_ns_per_slot")
            .expect("trace_budget.json must carry span_overhead_budget_ns_per_slot");
        if overhead_ns_per_slot > budget {
            eprintln!(
                "span overhead {overhead_ns_per_slot:.0} ns/slot exceeds the \
                 checked-in budget of {budget:.0} ns/slot"
            );
            std::process::exit(1);
        }
        println!(
            "span overhead within budget ({:.0} ns/slot <= {:.0} ns/slot)",
            overhead_ns_per_slot, budget
        );
    }
}
