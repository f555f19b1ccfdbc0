//! Telemetry must be deterministically inert: a run with telemetry enabled
//! must produce a **bit-identical** [`FleetLedger`] to a run with it
//! disabled. Instrumentation only reads simulation state — it never touches
//! the RNG or control flow — and this test is the contract.

use fairmove_sim::policy::StayPolicy;
use fairmove_sim::{DisplacementPolicy, Environment, FleetLedger, SimConfig, Telemetry};

fn run(telemetry: &Telemetry) -> FleetLedger {
    let mut env = Environment::new(SimConfig::test_scale());
    env.set_telemetry(telemetry);
    let mut policy = StayPolicy;
    env.run(&mut policy);
    env.ledger().clone()
}

#[test]
fn telemetry_on_vs_off_ledgers_are_bit_identical() {
    let enabled = Telemetry::enabled();
    let with_telemetry = run(&enabled);
    let without = run(&Telemetry::disabled());
    assert_eq!(
        with_telemetry, without,
        "telemetry perturbed the simulation"
    );
    // Sanity: the instrumented run actually recorded something.
    let snap = enabled.snapshot();
    assert!(!snap.is_empty());
    assert!(snap.counter("sim.trips").unwrap_or(0) > 0);
}

#[test]
fn tracing_on_vs_off_is_bit_identical_on_ledger_and_metrics() {
    use fairmove_telemetry::trace;

    // Traced run: spans record into the per-thread rings.
    trace::reset();
    trace::set_enabled(true);
    let traced_tel = Telemetry::enabled();
    let traced = run(&traced_tel);
    trace::set_enabled(false);

    // Untraced run, same config and seed.
    let untraced_tel = Telemetry::enabled();
    let untraced = run(&untraced_tel);

    assert_eq!(traced, untraced, "tracing perturbed the simulation");
    // The metrics oracle agrees too, modulo wall-time histograms.
    assert_eq!(
        traced_tel.snapshot().without_timings(),
        untraced_tel.snapshot().without_timings(),
        "tracing perturbed the recorded metrics"
    );

    // The traced run actually produced the slot span tree.
    let events = trace::collect_events();
    for name in ["step_slot", "observe", "decide", "commit"] {
        assert!(events.iter().any(|e| e.name == name), "missing span {name}");
    }
    let step = events
        .iter()
        .find(|e| e.name == "step_slot")
        .expect("step_slot span");
    let decide = events
        .iter()
        .find(|e| e.name == "decide" && e.parent == step.id)
        .expect("decide nested under step_slot");
    assert_eq!(step.depth, 0);
    assert_eq!(decide.depth, 1);
}

#[test]
fn detaching_telemetry_mid_run_is_also_inert() {
    let mut env = Environment::new(SimConfig::test_scale());
    let tel = Telemetry::enabled();
    env.set_telemetry(&tel);
    let mut policy = StayPolicy;
    for _ in 0..6 {
        let fb = env.step_slot(&mut policy);
        policy.observe(fb);
    }
    env.set_telemetry(&Telemetry::disabled());
    while !env.done() {
        let fb = env.step_slot(&mut policy);
        policy.observe(fb);
    }
    env.flush_accounting();
    assert_eq!(env.ledger().clone(), run(&Telemetry::disabled()));
    // Only the first six slots were recorded.
    assert_eq!(tel.snapshot().counter("sim.slots"), Some(6));
}
