//! Span tracing on the sharded engine's CMA2C path: the shared dispatcher
//! emits one `dispatch` span per region decision on shard threads, a
//! traced run stays bit-identical to an untraced one, and the threads that
//! emit those spans are the engine's pool workers only. This is the only
//! test in its binary, so the process-global tracing flag, span aggregates
//! and per-thread rings see no other workload.

use fairmove_agents::{Cma2cConfig, Cma2cShardPolicy};
use fairmove_city::City;
use fairmove_sim::{ShardPolicyFactory, ShardedEnv, SimConfig};
use fairmove_telemetry::trace;
use std::collections::HashSet;

/// Threads the traced run steps with.
const THREADS: usize = 2;

fn run() -> u64 {
    let factory: &ShardPolicyFactory =
        &|city: &City| Box::new(Cma2cShardPolicy::new(city, &Cma2cConfig::default()));
    let mut env = ShardedEnv::with_policy(SimConfig::test_scale(), 4, factory);
    env.run(12, THREADS);
    env.digest()
}

#[test]
fn tracing_sharded_cma2c_records_dispatch_spans_and_is_bit_identical() {
    trace::reset_aggregates();
    trace::set_enabled(true);
    let traced = run();
    trace::set_enabled(false);
    let (ns, count) = trace::aggregate(trace::intern("dispatch"));
    assert!(
        count > 0 && ns > 0,
        "traced sharded run recorded no `dispatch` spans"
    );
    // Every thread that opens a span keeps a trace ring (~393 KB) alive for
    // export, so the spans must come from a bounded set of threads: the
    // caller plus the pool's helpers, reused for every slot.
    let tids: HashSet<u32> = trace::collect_events()
        .iter()
        .filter(|e| e.name == "dispatch")
        .map(|e| e.tid)
        .collect();
    assert!(
        !tids.is_empty() && tids.len() <= THREADS,
        "12 traced slots at {THREADS} threads emitted `dispatch` spans from {} threads",
        tids.len()
    );
    assert_eq!(traced, run(), "tracing perturbed the sharded CMA2C run");
}
