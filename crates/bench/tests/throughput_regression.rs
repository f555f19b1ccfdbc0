//! Tier-2 throughput-regression gate: re-measures default-scale frozen
//! inference and the paper-scale sharded day, comparing both against the
//! checked-in baseline.
//!
//! `#[ignore]`d because the pass/fail line is box-dependent — the baseline
//! was measured on one reference machine; CI and local runs opt in with
//! `cargo test -p fairmove-bench -- --ignored`. The 20% tolerance absorbs
//! ordinary run-to-run noise (observed ~6% between back-to-back runs on a
//! quiet box) while still catching the failure this test exists for: a
//! change that silently re-serializes the actor forward or puts
//! per-decision allocations back on the hot path costs far more than 20%.

use fairmove_agents::{Cma2cConfig, Cma2cPolicy};
use fairmove_bench::scale_bench::{ShardBenchPolicy, PAPER_FULL_WINDOW, PAPER_SHARDS};
use fairmove_bench::{measure, measure_sharded, Scale, ScaleReport};
use fairmove_city::City;

/// Fraction of the baseline throughput the live measurement must reach.
const MIN_RATIO: f64 = 0.8;

fn baseline() -> ScaleReport {
    let baseline_text = include_str!("../baselines/BENCH_scale_baseline.json");
    ScaleReport::from_json(baseline_text).expect("baseline JSON must parse")
}

/// Always-on schema gate over the checked-in baseline: the file must parse,
/// carry the rows the gates below look up, and hold sane numbers — so a
/// hand-edited baseline fails tier-1, not the next manual `--ignored` run.
#[test]
fn baseline_file_parses_and_carries_the_gated_rows() {
    let baseline = baseline();
    for (scale, policy, slots) in [
        ("default", "cma2c-frozen", 144u64),
        (
            "paper",
            "sharded-greedy",
            (PAPER_FULL_WINDOW.1 * PAPER_FULL_WINDOW.2) as u64,
        ),
        ("paper", "sharded-greedy", 6), // CI smoke window
        ("paper", "sharded-cma2c", 6),  // CI smoke window, frozen actor
    ] {
        let row = baseline
            .results
            .iter()
            .find(|r| r.scale == scale && r.policy == policy && r.slots == slots)
            .unwrap_or_else(|| panic!("baseline missing {scale}/{policy} at {slots} slots"));
        assert!(row.decisions > 0, "{scale}/{policy}: zero decisions");
        assert!(
            row.slots_per_sec > 0.0 && row.slots_per_sec.is_finite(),
            "{scale}/{policy}: bad slots_per_sec {}",
            row.slots_per_sec
        );
        assert!(
            row.decisions_per_sec > 0.0 && row.decisions_per_sec.is_finite(),
            "{scale}/{policy}: bad decisions_per_sec"
        );
    }
}

#[test]
#[ignore = "throughput measurement is box-sensitive; run with --ignored"]
fn paper_scale_sharded_day_stays_within_20_percent_of_baseline() {
    let baseline = baseline();
    let (warmup, rounds, slots_per_round) = PAPER_FULL_WINDOW;
    let want_slots = (rounds * slots_per_round) as u64;
    let reference = baseline
        .results
        .iter()
        .find(|r| r.scale == "paper" && r.policy == "sharded-greedy" && r.slots == want_slots)
        .expect("baseline must carry the full-window paper/sharded-greedy row");

    let result = measure_sharded(
        Scale::Paper,
        ShardBenchPolicy::Greedy,
        PAPER_SHARDS,
        fairmove_parallel::thread_count(),
        warmup,
        rounds,
        slots_per_round,
    );

    let ratio = result.slots_per_sec / reference.slots_per_sec;
    assert!(
        ratio >= MIN_RATIO,
        "paper-scale sharded day regressed: measured {:.2} slots/s \
         vs baseline {:.2} ({}% of baseline, floor is {}%)",
        result.slots_per_sec,
        reference.slots_per_sec,
        (ratio * 100.0).round(),
        MIN_RATIO * 100.0,
    );
    // Decision equality is a hard determinism gate, not a tolerance: the
    // sharded engine is bit-identical at any (shards, threads), so any
    // drift here is a behaviour change in the engine itself.
    assert_eq!(
        result.decisions, reference.decisions,
        "paper-scale decision count drifted from the baseline window"
    );
}

#[test]
#[ignore = "throughput measurement is box-sensitive; run with --ignored"]
fn default_scale_frozen_inference_stays_within_20_percent_of_baseline() {
    let baseline_text = include_str!("../baselines/BENCH_scale_baseline.json");
    let baseline = ScaleReport::from_json(baseline_text).expect("baseline JSON must parse");
    let reference = baseline
        .result("default", "cma2c-frozen")
        .expect("baseline must carry the default/cma2c-frozen row");

    let scale = Scale::Default;
    let city = City::generate(scale.sim().city.clone());
    let mut policy = Cma2cPolicy::new(&city, Cma2cConfig::default());
    policy.freeze();
    // Same window as the `scale` binary: warmup 12, then 3 rounds of 48
    // slots, median round kept.
    let result = measure(scale, &mut policy, "cma2c-frozen", 12, 3, 48);

    let ratio = result.slots_per_sec / reference.slots_per_sec;
    assert!(
        ratio >= MIN_RATIO,
        "default-scale frozen inference regressed: measured {:.2} slots/s \
         vs baseline {:.2} ({}% of baseline, floor is {}%)",
        result.slots_per_sec,
        reference.slots_per_sec,
        (ratio * 100.0).round(),
        MIN_RATIO * 100.0,
    );
    // The same run also pins the decision mix: the measured window is
    // deterministic, so a drifting decision count means the bench is no
    // longer comparing like with like.
    assert_eq!(
        result.decisions, reference.decisions,
        "decision count drifted from the baseline window"
    );
}
