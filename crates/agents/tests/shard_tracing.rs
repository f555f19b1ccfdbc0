//! Span tracing on the sharded engine's CMA2C path: the shared dispatcher
//! emits one `dispatch` span per region decision on shard threads, and a
//! traced run stays bit-identical to an untraced one. This is the only test
//! in its binary, so the process-global tracing flag and span aggregates
//! see no other workload.

use fairmove_agents::{Cma2cConfig, Cma2cShardPolicy};
use fairmove_city::City;
use fairmove_sim::{ShardPolicyFactory, ShardedEnv, SimConfig};
use fairmove_telemetry::trace;

fn run() -> u64 {
    let factory: &ShardPolicyFactory =
        &|city: &City| Box::new(Cma2cShardPolicy::new(city, &Cma2cConfig::default()));
    let mut env = ShardedEnv::with_policy(SimConfig::test_scale(), 4, factory);
    env.run(12, 2);
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
    assert_eq!(traced, run(), "tracing perturbed the sharded CMA2C run");
}
