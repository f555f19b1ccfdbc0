//! Zero steady-state allocation tests for the simulation hot path.
//!
//! This binary installs [`CountingAlloc`] as the global allocator and
//! asserts that, after [`Environment::prepare_steady_state`] plus a warmup
//! window has grown every reusable buffer to its high-water mark, stepping a
//! slot — including the invariant audit that debug builds run every slot —
//! performs **zero** heap allocations, for both the trivial [`StayPolicy`]
//! and a frozen [`Cma2cPolicy`] — with span tracing enabled
//! throughout, and (in one test) a live telemetry context recording
//! per-slot counters and HDR latency histograms.
//!
//! The CMA2C dispatcher runs one actor forward per decision, over that
//! taxi's ~10 candidate rows, which stays far below the parallel matmul
//! threshold (`PAR_MIN_FLOPS`) at any `FAIRMOVE_THREADS` setting: all work
//! happens on the calling thread, which is exactly where
//! [`CountingAlloc`]'s thread-local counter looks. CI runs this suite under
//! `FAIRMOVE_THREADS=1` and `=4` to prove the envelope is thread-count
//! independent.
//!
//! The sharded engine's CMA2C path runs the same dispatcher, so one test
//! holds a frozen [`Cma2cShardPolicy`]'s `decide_region` to the same
//! envelope on a captured test-scale region, and another holds a whole
//! [`ShardedEnv::step_slot`] to it after a one-day warm-up, under both
//! greedy and frozen CMA2C dispatch.
//!
//! Known, deliberate exclusions from the zero-alloc envelope (all inactive
//! here): fault plans (the observation-staleness history ring clones per
//! slot), learning mode (replay buffer and training matmuls), and telemetry
//! export.

use fairmove_agents::{Cma2cConfig, Cma2cPolicy, Cma2cShardPolicy};
use fairmove_city::{City, RegionId};
use fairmove_sim::shard::rng::region_stream;
use fairmove_sim::{
    Action, DecisionContext, DisplacementPolicy, Environment, GreedyDeficitPolicy, ShardPolicy,
    ShardPolicyFactory, ShardedEnv, SimConfig, SlotObservation, StayPolicy, Telemetry,
};
use fairmove_telemetry::trace;
use fairmove_testkit::counting_alloc::{allocs_in, CountingAlloc};
use rand::rngs::StdRng;
use std::sync::{Arc, Mutex};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Every test in this binary runs with span tracing ON: the zero-alloc
/// envelope must hold for the *instrumented* hot path ("tracing you can
/// leave on"). The flag is process-global and tests run concurrently, so
/// it is enabled everywhere and never turned off mid-binary; per-thread
/// ring/stack registration (the only tracing allocation) happens on each
/// test thread's first span — inside its warmup window.
fn enable_tracing() {
    trace::set_enabled(true);
}

/// Slots stepped before measurement starts. Long enough for trips, charges,
/// station queues, and the decision scratch to reach their high-water marks
/// at test scale.
const WARMUP_SLOTS: usize = 30;
/// Slots measured after warmup; every one must allocate exactly zero times.
const MEASURED_SLOTS: usize = 8;

fn assert_steady_state_is_alloc_free(policy: &mut dyn DisplacementPolicy, label: &str) {
    enable_tracing();
    let mut env = Environment::new(SimConfig::test_scale());
    env.prepare_steady_state();
    for _ in 0..WARMUP_SLOTS {
        let feedback = env.step_slot(policy);
        policy.observe(feedback);
    }
    for slot in 0..MEASURED_SLOTS {
        let (allocs, ()) = allocs_in(|| {
            let feedback = env.step_slot(policy);
            policy.observe(feedback);
        });
        assert_eq!(
            allocs, 0,
            "{label}: measured slot {slot} performed {allocs} heap allocations"
        );
    }
}

// The four stepping tests below run the debug-build invariant auditor every
// slot, so the `seeded-bug` planted ledger bug (deliberately tripping money
// conservation) panics them before any allocation is measured — they are
// meaningless under that feature and are ignored there, like the property
// driver's clean-pass test.

#[test]
#[cfg_attr(feature = "seeded-bug", ignore = "seeded ledger bug trips the auditor")]
fn step_slot_is_alloc_free_with_stay_policy() {
    assert_steady_state_is_alloc_free(&mut StayPolicy, "stay");
}

#[test]
#[cfg_attr(feature = "seeded-bug", ignore = "seeded ledger bug trips the auditor")]
fn step_slot_is_alloc_free_with_frozen_batched_cma2c() {
    let city = Environment::new(SimConfig::test_scale()).city().clone();
    let mut policy = Cma2cPolicy::new(&city, Cma2cConfig::default());
    policy.freeze();
    assert_steady_state_is_alloc_free(&mut policy, "frozen cma2c");
}

/// With telemetry attached *and* tracing on, the steady state must still be
/// alloc-free: every metric handle (including the lazily registered
/// `decide.latency_seconds{method=...}` histogram and the per-region-group
/// match timers) is created during warmup, and from then on recording is
/// pure atomics — HDR cells included.
#[test]
#[cfg_attr(feature = "seeded-bug", ignore = "seeded ledger bug trips the auditor")]
fn step_slot_is_alloc_free_with_telemetry_and_tracing() {
    enable_tracing();
    let telemetry = Telemetry::enabled();
    let mut env = Environment::new(SimConfig::test_scale());
    env.prepare_steady_state();
    env.set_telemetry(&telemetry);
    let city = env.city().clone();
    let mut policy = Cma2cPolicy::new(&city, Cma2cConfig::default());
    policy.freeze();
    for _ in 0..WARMUP_SLOTS {
        let feedback = env.step_slot(&mut policy);
        policy.observe(feedback);
    }
    for slot in 0..MEASURED_SLOTS {
        let (allocs, ()) = allocs_in(|| {
            let feedback = env.step_slot(&mut policy);
            policy.observe(feedback);
        });
        assert_eq!(
            allocs, 0,
            "telemetry+tracing: measured slot {slot} performed {allocs} heap allocations"
        );
    }
}

/// The dispatcher itself — outside the environment loop — must also
/// be alloc-free once its scratch (feature cache, row matrix, forward
/// workspace) has warmed up.
#[test]
#[cfg_attr(feature = "seeded-bug", ignore = "seeded ledger bug trips the auditor")]
fn batched_decide_into_is_alloc_free_when_frozen() {
    enable_tracing();
    let mut env = Environment::new(SimConfig::test_scale());
    let city = env.city().clone();
    let mut policy = Cma2cPolicy::new(&city, Cma2cConfig::default());
    policy.freeze();

    // Step into mid-morning under Stay so the decision set has realistic
    // structure (mixed regions, some must-charge taxis).
    let mut stay = StayPolicy;
    for _ in 0..12 {
        env.step_slot(&mut stay);
    }
    let obs = env.observation();
    let decisions = env.decision_contexts();
    assert!(!decisions.is_empty(), "test needs at least one vacant taxi");

    let mut actions = Vec::with_capacity(decisions.len());
    // Warmup calls grow the decision scratch to its high-water mark.
    for _ in 0..3 {
        policy.decide_into(&obs, &decisions, &mut actions);
    }
    let (allocs, ()) = allocs_in(|| {
        policy.decide_into(&obs, &decisions, &mut actions);
    });
    assert_eq!(
        allocs, 0,
        "frozen batched decide_into performed {allocs} heap allocations"
    );
    assert_eq!(actions.len(), decisions.len());
}

/// One region's decision inputs, captured from a live sharded run.
type CapturedRegion = (SlotObservation, RegionId, Vec<DecisionContext>);

/// Greedy dispatch that records the largest region decision it serves.
struct CaptureLargestRegion {
    inner: GreedyDeficitPolicy,
    largest: Arc<Mutex<Option<CapturedRegion>>>,
}

impl ShardPolicy for CaptureLargestRegion {
    fn name(&self) -> &'static str {
        "capture"
    }

    fn decide_region(
        &mut self,
        city: &City,
        obs: &SlotObservation,
        region: RegionId,
        ctxs: &[DecisionContext],
        rng: &mut StdRng,
        out: &mut Vec<Action>,
    ) {
        let mut largest = self.largest.lock().expect("capture lock poisoned");
        if largest.as_ref().map_or(0, |(_, _, c)| c.len()) < ctxs.len() {
            *largest = Some((obs.clone(), region, ctxs.to_vec()));
        }
        drop(largest);
        self.inner.decide_region(city, obs, region, ctxs, rng, out);
    }
}

/// The sharded engine's CMA2C policy runs the shared dispatcher, so
/// once its scratch has warmed up, deciding a region must not allocate
/// either — the first piece of a zero-alloc shard-stepping contract.
#[test]
fn shard_decide_region_is_alloc_free_when_frozen() {
    enable_tracing();
    let config = SimConfig::test_scale();
    let city = City::generate(config.city.clone());
    let largest = Arc::new(Mutex::new(None));
    let factory = |_: &City| -> Box<dyn ShardPolicy> {
        Box::new(CaptureLargestRegion {
            inner: GreedyDeficitPolicy::default(),
            largest: Arc::clone(&largest),
        })
    };
    let mut env = ShardedEnv::with_policy(config.clone(), 1, &factory);
    env.run(12, 1);
    let (obs, region, ctxs) = largest
        .lock()
        .expect("capture lock poisoned")
        .take()
        .expect("the run decided at least one region");
    assert!(ctxs.len() > 1, "test needs a multi-taxi region");

    let mut policy = Cma2cShardPolicy::new(&city, &Cma2cConfig::default());
    let mut actions = Vec::with_capacity(ctxs.len());
    // The first pass warms the scratch on exactly the calls the second
    // pass measures, so every buffer is already at its high-water mark.
    for pass in 0..2 {
        for stream in 0..4u64 {
            let mut rng = region_stream(config.seed ^ stream, region);
            let (allocs, ()) = allocs_in(|| {
                policy.decide_region(&city, &obs, region, &ctxs, &mut rng, &mut actions);
            });
            assert_eq!(actions.len(), ctxs.len());
            if pass == 1 {
                assert_eq!(
                    allocs, 0,
                    "frozen shard decide_region (stream {stream}) performed {allocs} heap allocations"
                );
            }
        }
    }
}

/// Slots stepped before a sharded measurement: one simulated day, so every
/// shard buffer (stores, vacancy lists, station queues, delivery buckets,
/// decision scratch) has met a whole demand cycle.
const SHARD_WARMUP_SLOTS: u32 = 144;
/// Sharded slots measured after the warm-up.
const SHARD_MEASURED_SLOTS: u32 = 24;

/// A sharded slot step, at one thread (so every shard steps on the counting
/// thread), allocates nothing once a day of warm-up has grown its buffers:
/// inboxes, outboxes, vacancy lists, station scratch, delivery buckets and
/// the policy's decision scratch are all reused.
fn assert_sharded_step_is_alloc_free(factory: &ShardPolicyFactory, label: &str) {
    enable_tracing();
    let mut env = ShardedEnv::with_policy(SimConfig::test_scale(), 4, factory);
    env.run(SHARD_WARMUP_SLOTS, 1);
    for _ in 0..SHARD_MEASURED_SLOTS {
        let slot = env.slot();
        let (allocs, ()) = allocs_in(|| env.step_slot(1));
        assert_eq!(
            allocs, 0,
            "{label}: sharded slot {slot} performed {allocs} heap allocations"
        );
    }
    assert!(env.decisions() > 0);
}

#[test]
fn sharded_step_slot_is_alloc_free_with_greedy_dispatch() {
    assert_sharded_step_is_alloc_free(&|_| Box::new(GreedyDeficitPolicy::default()), "greedy");
}

#[test]
fn sharded_step_slot_is_alloc_free_with_frozen_cma2c() {
    assert_sharded_step_is_alloc_free(
        &|city| Box::new(Cma2cShardPolicy::new(city, &Cma2cConfig::default())),
        "frozen cma2c",
    );
}

/// Sanity-check the probe itself: a deliberate allocation inside the closure
/// must be visible, or every zero above would be vacuous.
#[test]
fn counting_allocator_observes_allocations() {
    let (allocs, v) = allocs_in(|| Vec::<u64>::with_capacity(32));
    assert!(allocs >= 1, "probe missed a direct Vec allocation");
    drop(v);
}
