//! Paper-scale throughput bench: steady-state stepping at each scale preset,
//! written to `BENCH_scale.json`.
//!
//! For every (scale, policy) pair this measures median-of-rounds slots/s and
//! decisions/s over a contiguous steady-state window (warmup first, so
//! pooled buffers reach their high-water sizes), plus heap allocations per
//! measured slot — this binary installs the testkit's counting allocator,
//! so a non-zero `allocs_per_slot` on the hot path is visible right in the
//! report — and the process peak RSS.
//!
//! Flags:
//! - `--smoke`: Test scale only, one measured round. The CI bench-smoke job
//!   runs this to keep the report schema and the zero-alloc steady state
//!   exercised on every push.
//! - `--full`: additionally run the paper-scale preset (20,130 taxis, 491
//!   regions — minutes per round). Off by default.
//! - `--paper`: run the paper preset on the region-sharded engine (the full
//!   20,130-taxi deployment over one day; `--smoke` shrinks the window).
//! - `--policy greedy|cma2c`: which slot-granularity policy drives the
//!   `--paper` run (default `greedy`; `cma2c` is the frozen wave-batched
//!   actor on the sharded engine).
//! - `--check-baseline [path]`: after writing the report, compare it against
//!   the checked-in baseline (default
//!   `crates/bench/baselines/BENCH_scale_baseline.json`): every report row
//!   with a baseline row at the same `(scale, policy, slots)` must have an
//!   *exactly equal* decision count — a cross-machine determinism gate.
//!   Exits non-zero on mismatch or when a `--paper` row has no baseline.
//! - `--out <path>`: where to write the report (default `BENCH_scale.json`).
//!
//! Any other argument, or a flag missing its value, exits with status 2
//! before anything runs.
//!
//! Policies: `stay` (environment-dominated floor) and `cma2c-frozen` (the
//! deployed inference path: wave-batched actor forward passes, no learning).
//! The throughput-regression test in `crates/bench/tests/` compares the
//! default-scale `cma2c-frozen` row against the checked-in baseline.

use fairmove_agents::{Cma2cConfig, Cma2cPolicy};
use fairmove_bench::scale_bench::{
    ShardBenchPolicy, PAPER_FULL_WINDOW, PAPER_SHARDS, PAPER_SMOKE_WINDOW,
};
use fairmove_bench::{measure, measure_sharded, Scale, ScaleReport, ScaleResult};
use fairmove_city::City;
use fairmove_sim::StayPolicy;
use fairmove_testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Measured rounds per (scale, policy) pair; the report keeps the median.
const ROUNDS: usize = 3;
/// Unmeasured slots stepped first so pooled buffers reach steady state.
const WARMUP: usize = 12;

fn run_scale(scale: Scale, rounds: usize, warmup: usize) -> Vec<ScaleResult> {
    // Test's 1-day horizon only fits 3 rounds at 36 slots; the longer
    // horizons take 48-slot rounds for a steadier median.
    let slots_per_round = match scale {
        Scale::Test => 36,
        _ => 48,
    };
    let mut results = Vec::new();

    let mut stay = StayPolicy;
    eprintln!("measuring {}/stay ...", scale.name());
    results.push(measure(
        scale,
        &mut stay,
        "stay",
        warmup,
        rounds,
        slots_per_round,
    ));

    let city = City::generate(scale.sim().city.clone());
    let mut cma2c = Cma2cPolicy::new(&city, Cma2cConfig::default());
    cma2c.freeze();
    eprintln!("measuring {}/cma2c-frozen ...", scale.name());
    results.push(measure(
        scale,
        &mut cma2c,
        "cma2c-frozen",
        warmup,
        rounds,
        slots_per_round,
    ));

    results
}

/// Compares `report` to the checked-in baseline: rows matching on
/// `(scale, policy, slots)` must agree exactly on `decisions` (the engines
/// are deterministic, so any drift is a real behaviour change, not noise).
/// Returns the number of mismatches; `require_paper` additionally demands
/// that the report's paper rows all found a baseline row.
fn check_baseline(report: &ScaleReport, baseline: &ScaleReport, require_paper: bool) -> usize {
    let mut failures = 0;
    for row in &report.results {
        let matched = baseline
            .results
            .iter()
            .find(|b| b.scale == row.scale && b.policy == row.policy && b.slots == row.slots);
        match matched {
            Some(b) if b.decisions != row.decisions => {
                eprintln!(
                    "BASELINE MISMATCH {}/{} ({} slots): {} decisions, baseline {}",
                    row.scale, row.policy, row.slots, row.decisions, b.decisions
                );
                failures += 1;
            }
            Some(b) => {
                println!(
                    "baseline ok {}/{} ({} slots): {} decisions, {:.2}x baseline throughput",
                    row.scale,
                    row.policy,
                    row.slots,
                    row.decisions,
                    row.slots_per_sec / b.slots_per_sec,
                );
            }
            None if require_paper && row.scale == "paper" => {
                eprintln!(
                    "BASELINE MISSING {}/{} ({} slots): no baseline row at this window",
                    row.scale, row.policy, row.slots
                );
                failures += 1;
            }
            None => {
                println!(
                    "baseline skip {}/{} ({} slots): no row at this window",
                    row.scale, row.policy, row.slots
                );
            }
        }
    }
    failures
}

/// Prints `message` and exits with the usage-error status.
fn usage_error(message: &str) -> ! {
    eprintln!(
        "{message}\nusage: scale [--smoke] [--full] [--paper] [--policy greedy|cma2c] \
         [--check-baseline [path]] [--out path]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let (mut smoke, mut full, mut paper) = (false, false, false);
    let mut shard_policy = ShardBenchPolicy::Greedy;
    let mut baseline_check = None;
    let mut out_path = String::from("BENCH_scale.json");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--full" => full = true,
            "--paper" => paper = true,
            "--policy" => {
                shard_policy = match args.next().as_deref() {
                    Some("greedy") => ShardBenchPolicy::Greedy,
                    Some("cma2c") => ShardBenchPolicy::Cma2c,
                    Some(other) => usage_error(&format!(
                        "unknown --policy {other:?} (expected greedy|cma2c)"
                    )),
                    None => usage_error("--policy requires a value"),
                }
            }
            "--check-baseline" => {
                baseline_check =
                    Some(args.next_if(|v| !v.starts_with("--")).unwrap_or_else(|| {
                        "crates/bench/baselines/BENCH_scale_baseline.json".into()
                    }))
            }
            "--out" => {
                out_path = args
                    .next()
                    .unwrap_or_else(|| usage_error("--out requires a path"))
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let (scales, rounds, warmup): (&[Scale], usize, usize) = if paper {
        (&[], 1, 0) // paper runs through the sharded path below
    } else if smoke {
        (&[Scale::Test], 1, 6)
    } else if full {
        (
            &[Scale::Test, Scale::Small, Scale::Default, Scale::Full],
            ROUNDS,
            WARMUP,
        )
    } else {
        (&[Scale::Test, Scale::Small, Scale::Default], ROUNDS, WARMUP)
    };

    let mut report = ScaleReport {
        threads: fairmove_parallel::thread_count(),
        rounds,
        results: Vec::new(),
    };
    for &scale in scales {
        // The paper-scale preset gets one round: a single round is already
        // minutes of wall clock, and the medians at smaller scales cover
        // run-to-run noise.
        let scale_rounds = if scale == Scale::Full { 1 } else { rounds };
        report
            .results
            .extend(run_scale(scale, scale_rounds, warmup));
    }
    if paper {
        let (warmup, rounds, slots) = if smoke {
            PAPER_SMOKE_WINDOW
        } else {
            PAPER_FULL_WINDOW
        };
        eprintln!(
            "measuring paper/{} ({PAPER_SHARDS} shards, {} threads, {rounds}x{slots} slots) ...",
            shard_policy.name(),
            report.threads
        );
        report.results.push(measure_sharded(
            Scale::Paper,
            shard_policy,
            PAPER_SHARDS,
            report.threads,
            warmup,
            rounds,
            slots,
        ));
    }

    for r in &report.results {
        println!(
            "{}/{}: {:.2} slots/s, {:.0} decisions/s, {:.3} allocs/slot, peak RSS {:.1} MiB",
            r.scale,
            r.policy,
            r.slots_per_sec,
            r.decisions_per_sec,
            r.allocs_per_slot,
            r.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        );
        println!(
            "  phases: observe {:.1} µs/slot, decide {:.1} µs/slot, commit {:.1} µs/slot",
            r.observe_ns_per_slot / 1000.0,
            r.decide_ns_per_slot / 1000.0,
            r.commit_ns_per_slot / 1000.0,
        );
    }

    let json = report.to_json();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if let Some(baseline_path) = baseline_check {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        let baseline = match ScaleReport::from_json(&baseline) {
            Some(b) => b,
            None => {
                eprintln!("baseline {baseline_path} does not parse as a scale report");
                std::process::exit(1);
            }
        };
        let failures = check_baseline(&report, &baseline, paper);
        if failures > 0 {
            eprintln!("{failures} baseline check(s) failed");
            std::process::exit(1);
        }
        println!("baseline checks passed against {baseline_path}");
    }
}
