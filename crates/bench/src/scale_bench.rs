//! Measurement machinery for the `scale` throughput bench.
//!
//! One [`measure`] call steps a fresh [`Environment`] at a given
//! [`Scale`]: warmup slots to reach the pooled-buffer steady state, then
//! `rounds` timed blocks of `slots_per_round` slots each, reporting the
//! median round as one [`ScaleResult`]. Heap allocations are sampled with
//! [`fairmove_testkit::allocs_in_process`], which counts every thread (the
//! sharded engine steps shards on pool helpers) but only observes anything
//! when the calling binary installs [`fairmove_testkit::CountingAlloc`] as
//! its global allocator — without it `allocs_per_slot` reads 0.0 and the
//! throughput numbers are unaffected.

use crate::scale::Scale;
use crate::scale_report::ScaleResult;
use fairmove_agents::{Cma2cConfig, Cma2cShardPolicy};
use fairmove_city::City;
use fairmove_sim::{
    Action, DecisionContext, DisplacementPolicy, Environment, GreedyDeficitPolicy, ShardPolicy,
    SlotFeedback, SlotObservation,
};
use fairmove_telemetry::{trace, Telemetry};
use std::time::Instant;

/// Wraps a policy and counts how many decision contexts it is asked to
/// resolve, so the bench can report decisions/s without touching the
/// environment's internals. Delegates every trait method; the count is
/// bumped in both `decide` and `decide_into`, which never call each other
/// through the wrapper, so each context is counted exactly once.
pub struct CountingPolicy<'a> {
    inner: &'a mut dyn DisplacementPolicy,
    decisions: u64,
}

impl<'a> CountingPolicy<'a> {
    /// Wraps `inner` with a zeroed decision counter.
    pub fn new(inner: &'a mut dyn DisplacementPolicy) -> Self {
        CountingPolicy {
            inner,
            decisions: 0,
        }
    }

    /// Decision contexts resolved since construction (or the last reset).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Resets the decision counter (e.g. after warmup).
    pub fn reset(&mut self) {
        self.decisions = 0;
    }
}

impl DisplacementPolicy for CountingPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &SlotObservation, decisions: &[DecisionContext]) -> Vec<Action> {
        self.decisions += decisions.len() as u64;
        self.inner.decide(obs, decisions)
    }

    fn decide_into(
        &mut self,
        obs: &SlotObservation,
        decisions: &[DecisionContext],
        out: &mut Vec<Action>,
    ) {
        self.decisions += decisions.len() as u64;
        self.inner.decide_into(obs, decisions, out)
    }

    fn observe(&mut self, feedback: &SlotFeedback) {
        self.inner.observe(feedback)
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.set_telemetry(telemetry)
    }

    fn is_healthy(&self) -> bool {
        self.inner.is_healthy()
    }

    fn reseed_exploration(&mut self, seed: u64) {
        self.inner.reseed_exploration(seed)
    }
}

/// Peak resident set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status`. Returns 0 where that file does not exist (non-Linux)
/// or cannot be parsed.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kib * 1024;
        }
    }
    0
}

/// Steps one environment at `scale` under `policy` and measures steady-state
/// throughput: `warmup` unmeasured slots, then `rounds` timed blocks of
/// `slots_per_round` slots. Reports the median round's slots/s and
/// decisions/s, total slots/decisions across the measured rounds, mean heap
/// allocations per measured slot, the process peak RSS, and per-phase wall
/// time (`observe`/`decide`/`commit` ns per slot, read from the span
/// tracer's per-name aggregates).
///
/// Tracing is enabled for the whole measurement (the throughput-regression
/// margin absorbs its ~1% overhead — and measuring the instrumented
/// configuration is the point: that's what production profiling runs). The
/// aggregates are reset after warmup so the phase attribution covers
/// exactly the measured slots.
///
/// The caller must ensure `warmup + rounds * slots_per_round` fits inside
/// the scale's horizon (`days * 144` slots) — stepping past the horizon
/// would measure end-of-run drain behaviour instead of steady state.
pub fn measure(
    scale: Scale,
    policy: &mut dyn DisplacementPolicy,
    policy_name: &str,
    warmup: usize,
    rounds: usize,
    slots_per_round: usize,
) -> ScaleResult {
    let config = scale.sim();
    let horizon = config.days as usize * 144;
    assert!(
        warmup + rounds * slots_per_round <= horizon,
        "measurement window exceeds the {}-slot horizon at scale {}",
        horizon,
        scale.name()
    );

    let mut env = Environment::new(config);
    env.disable_audit();
    env.prepare_steady_state();
    let mut counting = CountingPolicy::new(policy);

    let tracing_was_on = trace::is_enabled();
    trace::set_enabled(true);
    for _ in 0..warmup {
        let feedback = env.step_slot(&mut counting);
        counting.observe(feedback);
    }
    counting.reset();
    trace::reset_aggregates();

    let mut slots_per_sec = Vec::with_capacity(rounds);
    let mut decisions_per_sec = Vec::with_capacity(rounds);
    let mut total_decisions = 0u64;
    let mut total_allocs = 0u64;
    for _ in 0..rounds {
        let before = counting.decisions();
        let start = Instant::now();
        let (allocs, ()) = fairmove_testkit::allocs_in_process(|| {
            for _ in 0..slots_per_round {
                let feedback = env.step_slot(&mut counting);
                counting.observe(feedback);
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let round_decisions = counting.decisions() - before;
        total_decisions += round_decisions;
        total_allocs += allocs;
        slots_per_sec.push(slots_per_round as f64 / secs);
        decisions_per_sec.push(round_decisions as f64 / secs);
    }
    trace::set_enabled(tracing_was_on);

    let total_slots = (rounds * slots_per_round) as u64;
    let phase_ns_per_slot = |name: &'static str| {
        let (ns, _count) = trace::aggregate(trace::intern(name));
        ns as f64 / total_slots as f64
    };
    ScaleResult {
        scale: scale.name().to_string(),
        policy: policy_name.to_string(),
        slots: total_slots,
        decisions: total_decisions,
        slots_per_sec: median(&mut slots_per_sec),
        decisions_per_sec: median(&mut decisions_per_sec),
        allocs_per_slot: total_allocs as f64 / total_slots as f64,
        peak_rss_bytes: peak_rss_bytes(),
        observe_ns_per_slot: phase_ns_per_slot("observe"),
        decide_ns_per_slot: phase_ns_per_slot("decide"),
        commit_ns_per_slot: phase_ns_per_slot("commit"),
    }
}

/// Shard count used for every recorded paper-scale measurement. The digest
/// is layout-invariant, but wall-clock numbers are not; pinning the layout
/// keeps baseline comparisons apples-to-apples.
pub const PAPER_SHARDS: usize = 4;
/// Paper-preset smoke window `(warmup, rounds, slots_per_round)` — run by
/// the CI scale-bench-smoke job, small enough for a debug-cache-miss runner.
pub const PAPER_SMOKE_WINDOW: (usize, usize, usize) = (2, 1, 6);
/// Paper-preset full window `(warmup, rounds, slots_per_round)` — exactly
/// one simulated day (12 + 3·44 = 144 slots), used to record the baseline
/// and by the throughput-regression gate.
pub const PAPER_FULL_WINDOW: (usize, usize, usize) = (12, 3, 44);

/// Which slot-granularity policy drives a [`measure_sharded`] run. The
/// report row's `policy` field carries the matching name, so greedy and
/// CMA2C paper rows coexist in one baseline file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBenchPolicy {
    /// Deficit-greedy dispatch (environment-dominated throughput).
    Greedy,
    /// Frozen CMA2C actor, dispatched per region (the deployed inference
    /// path on the sharded engine).
    Cma2c,
}

impl ShardBenchPolicy {
    /// Report-row policy name.
    pub fn name(self) -> &'static str {
        match self {
            ShardBenchPolicy::Greedy => "sharded-greedy",
            ShardBenchPolicy::Cma2c => "sharded-cma2c",
        }
    }
}

/// Steps the region-sharded engine ([`fairmove_sim::ShardedEnv`]) at `scale`
/// and measures steady-state throughput with the same window protocol as
/// [`measure`]: `warmup` unmeasured slots, then `rounds` timed blocks of
/// `slots_per_round` slots, reporting the median round.
///
/// The result's `policy` is `policy.name()` and `decisions` counts the
/// engine's layout-invariant decision total (charge + displacement +
/// match), so the baseline gate can require exact equality across machines
/// and layouts. The sharded engine has no span instrumentation, so the
/// per-phase `*_ns_per_slot` fields read 0.0.
pub fn measure_sharded(
    scale: Scale,
    policy: ShardBenchPolicy,
    shards: usize,
    threads: usize,
    warmup: usize,
    rounds: usize,
    slots_per_round: usize,
) -> ScaleResult {
    let config = scale.sim();
    let horizon = config.days as usize * 144;
    assert!(
        warmup + rounds * slots_per_round <= horizon,
        "measurement window exceeds the {}-slot horizon at scale {}",
        horizon,
        scale.name()
    );

    let cma2c_config = Cma2cConfig::default();
    let factory = |city: &City| -> Box<dyn ShardPolicy> {
        match policy {
            ShardBenchPolicy::Greedy => Box::new(GreedyDeficitPolicy::default()),
            ShardBenchPolicy::Cma2c => Box::new(Cma2cShardPolicy::new(city, &cma2c_config)),
        }
    };
    let mut env = fairmove_sim::ShardedEnv::with_policy(config, shards, &factory);
    env.run(warmup as u32, threads);

    let mut slots_per_sec = Vec::with_capacity(rounds);
    let mut decisions_per_sec = Vec::with_capacity(rounds);
    let decisions_before = env.decisions();
    let mut total_allocs = 0u64;
    for _ in 0..rounds {
        let before = env.decisions();
        let start = Instant::now();
        let (allocs, ()) = fairmove_testkit::allocs_in_process(|| {
            env.run(slots_per_round as u32, threads);
        });
        let secs = start.elapsed().as_secs_f64();
        total_allocs += allocs;
        slots_per_sec.push(slots_per_round as f64 / secs);
        decisions_per_sec.push((env.decisions() - before) as f64 / secs);
    }

    let total_slots = (rounds * slots_per_round) as u64;
    ScaleResult {
        scale: scale.name().to_string(),
        policy: policy.name().to_string(),
        slots: total_slots,
        decisions: env.decisions() - decisions_before,
        slots_per_sec: median(&mut slots_per_sec),
        decisions_per_sec: median(&mut decisions_per_sec),
        allocs_per_slot: total_allocs as f64 / total_slots as f64,
        peak_rss_bytes: peak_rss_bytes(),
        observe_ns_per_slot: 0.0,
        decide_ns_per_slot: 0.0,
        commit_ns_per_slot: 0.0,
    }
}

fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no rounds");
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmove_sim::StayPolicy;

    #[test]
    fn counting_policy_counts_each_context_once() {
        let mut env = Environment::new(fairmove_sim::SimConfig::test_scale());
        let mut stay = StayPolicy;
        let mut counting = CountingPolicy::new(&mut stay);
        for _ in 0..4 {
            let feedback = env.step_slot(&mut counting);
            counting.observe(feedback);
        }
        // A 60-taxi fleet has vacant taxis every slot; the counter must
        // track them (exact value depends on demand realization).
        assert!(counting.decisions() > 0);
        counting.reset();
        assert_eq!(counting.decisions(), 0);
    }

    #[test]
    fn peak_rss_reports_something_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
    }

    #[test]
    fn measure_produces_a_consistent_result() {
        let mut stay = StayPolicy;
        let result = measure(Scale::Test, &mut stay, "stay", 4, 2, 8);
        assert_eq!(result.scale, "test");
        assert_eq!(result.policy, "stay");
        assert_eq!(result.slots, 16);
        assert!(result.slots_per_sec > 0.0);
        assert!(result.decisions >= 1);
        assert!(result.decisions_per_sec > 0.0);
        // No counting allocator installed in the test harness → 0.0.
        assert_eq!(result.allocs_per_slot, 0.0);
        // Phase attribution comes from the span tracer: every measured slot
        // runs observe and commit (decide can round to ~0 for StayPolicy,
        // but the span still fires and time is nonnegative).
        assert!(result.observe_ns_per_slot > 0.0);
        assert!(result.commit_ns_per_slot > 0.0);
        assert!(result.decide_ns_per_slot >= 0.0);
    }

    #[test]
    #[should_panic(expected = "measurement window exceeds")]
    fn measure_rejects_windows_past_the_horizon() {
        let mut stay = StayPolicy;
        let _ = measure(Scale::Test, &mut stay, "stay", 100, 3, 20);
    }

    #[test]
    fn measure_sharded_is_deterministic_across_layouts() {
        let a = measure_sharded(Scale::Test, ShardBenchPolicy::Greedy, 1, 1, 4, 2, 8);
        let b = measure_sharded(Scale::Test, ShardBenchPolicy::Greedy, 4, 2, 4, 2, 8);
        assert_eq!(a.scale, "test");
        assert_eq!(a.policy, "sharded-greedy");
        assert_eq!(a.slots, 16);
        assert!(a.decisions > 0);
        assert_eq!(
            a.decisions, b.decisions,
            "sharded decision count must be layout-invariant"
        );
        assert!(a.slots_per_sec > 0.0);
        assert_eq!(a.observe_ns_per_slot, 0.0, "sharded engine has no spans");
    }

    #[test]
    fn measure_sharded_cma2c_is_deterministic_across_layouts() {
        let a = measure_sharded(Scale::Test, ShardBenchPolicy::Cma2c, 1, 1, 2, 1, 6);
        let b = measure_sharded(Scale::Test, ShardBenchPolicy::Cma2c, 4, 2, 2, 1, 6);
        assert_eq!(a.policy, "sharded-cma2c");
        assert!(a.decisions > 0);
        assert_eq!(
            a.decisions, b.decisions,
            "sharded CMA2C decision count must be layout-invariant"
        );
    }

    #[test]
    fn median_picks_the_middle_round() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [5.0]), 5.0);
    }
}
