//! Regression pins: minimal scenarios found by the fairmove-testkit
//! shrinking property driver.
//!
//! Each test below was harvested by arming the deliberately seeded ledger
//! bug (`--features seeded-bug` skips the first trip's revenue credit) and
//! letting the driver shrink the failing scenario to a local minimum. With
//! the bug off these scenarios must pass the full oracle catalog forever;
//! they pin the exact demand realizations that once exposed a
//! money-conservation hole, across both policies, every α regime the
//! generator emits, and fault-plan/no-plan runs.
//!
//! The `repro_batched_inference_*` pins below guard a different oracle:
//! `batched-vs-serial-inference`, which compares the CMA2C dispatcher with
//! a naive serial reference. Each fixes a scenario shape that stressed the
//! dispatcher's shortcuts (same-region commit collisions, which the
//! per-commit feature-cache update must track; command-loss RNG
//! interleaving; stale-observation featurization) and must stay
//! bit-identical to the serial reference forever.
//!
//! To harvest new pins after the driver finds a real bug, paste the
//! `Failure::repro()` output here (or the `repro_*.rs` artifact from
//! `FAIRMOVE_REPRO_DIR`) and keep the oracle comment.

use fairmove_faults::{FaultPlan, FaultSpec, SlotWindow};
use fairmove_testkit::{PolicyKind, Scenario, ShardPolicyKind};

/// Caught by oracle `invariant-audit` (money-conservation): T0 booked
/// 0 CNY over 1 trip while its trip log summed to 20.52 CNY. Stay policy
/// with an active demand-surge fault; shrunk from fleet 20 / 13 slots.
#[test]
fn repro_invariant_audit_seed_7799e2946dd8a097() {
    let scenario = Scenario {
        seed: 0x7799e2946dd8a097,
        n_regions: 7,
        n_stations: 1,
        charging_points: 1,
        fleet_size: 7,
        slots: 2,
        daily_trips_per_taxi: 54.10458543946552,
        alpha: 0.0,
        policy: PolicyKind::Stay,
        shards: 1,
        threads: 1,
        shard_policy: ShardPolicyKind::Greedy,
        fault_plan: Some(
            FaultPlan::new(0x4b28ce8060eafc82).with(FaultSpec::DemandSurge {
                region: 1,
                factor: 1.699188194561673,
                window: SlotWindow::new(0, 6),
            }),
        ),
    };
    fairmove_testkit::check_all(&scenario).expect("oracle must pass");
}

/// Caught by oracle `invariant-audit` (money-conservation) under the
/// ground-truth policy at α = 0.25; first violation surfaced at slot 2.
#[test]
fn repro_invariant_audit_seed_3e70a2ed0827d343() {
    let scenario = Scenario {
        seed: 0x3e70a2ed0827d343,
        n_regions: 15,
        n_stations: 4,
        charging_points: 12,
        fleet_size: 7,
        slots: 3,
        daily_trips_per_taxi: 45.050664135274246,
        alpha: 0.25,
        policy: PolicyKind::GroundTruth,
        shards: 1,
        threads: 1,
        shard_policy: ShardPolicyKind::Greedy,
        fault_plan: None,
    };
    fairmove_testkit::check_all(&scenario).expect("oracle must pass");
}

/// Caught by oracle `invariant-audit` (money-conservation) on a wide
/// low-demand fleet (23 taxis, 11.3 trips/taxi/day) — the shrinker kept
/// the fleet because thinning it below 23 lost the one early trip.
#[test]
fn repro_invariant_audit_seed_407c8e37987101cb() {
    let scenario = Scenario {
        seed: 0x407c8e37987101cb,
        n_regions: 7,
        n_stations: 4,
        charging_points: 12,
        fleet_size: 23,
        slots: 2,
        daily_trips_per_taxi: 11.343465416387309,
        alpha: 0.6,
        policy: PolicyKind::Stay,
        shards: 1,
        threads: 1,
        shard_policy: ShardPolicyKind::Greedy,
        fault_plan: None,
    };
    fairmove_testkit::check_all(&scenario).expect("oracle must pass");
}

/// Caught by oracle `invariant-audit` (money-conservation): the slowest
/// repro in the harvest — the first completed trip only lands at slot 4 in
/// a tiny 3-region city.
#[test]
fn repro_invariant_audit_seed_ab406d16a6cc460c() {
    let scenario = Scenario {
        seed: 0xab406d16a6cc460c,
        n_regions: 3,
        n_stations: 2,
        charging_points: 2,
        fleet_size: 5,
        slots: 5,
        daily_trips_per_taxi: 10.271429053890452,
        alpha: 0.0,
        policy: PolicyKind::Stay,
        shards: 1,
        threads: 1,
        shard_policy: ShardPolicyKind::Greedy,
        fault_plan: None,
    };
    fairmove_testkit::check_all(&scenario).expect("oracle must pass");
}

/// Caught by oracle `invariant-audit` (money-conservation) with the
/// smallest fleet the shrinker reached: two taxis, two slots, ground-truth
/// displacement.
#[test]
fn repro_invariant_audit_seed_f4773ad8901060df() {
    let scenario = Scenario {
        seed: 0xf4773ad8901060df,
        n_regions: 14,
        n_stations: 6,
        charging_points: 12,
        fleet_size: 2,
        slots: 2,
        daily_trips_per_taxi: 20.094577438905215,
        alpha: 0.6,
        policy: PolicyKind::GroundTruth,
        shards: 1,
        threads: 1,
        shard_policy: ShardPolicyKind::Greedy,
        fault_plan: None,
    };
    fairmove_testkit::check_all(&scenario).expect("oracle must pass");
}

/// Pinned for oracle `batched-vs-serial-inference`: a herded fleet (many
/// taxis, few regions) maximizes same-region decision collisions, the case
/// where a commit changes the features of every later candidate. During
/// bring-up of the earlier wave-batched dispatcher, stale-feature reuse in
/// exactly this shape diverged from the serial path; the per-commit cache
/// update must track it.
#[test]
fn repro_batched_inference_herded_fleet_seed_5ecb91d104a77e20() {
    let scenario = Scenario {
        seed: 0x5ecb91d104a77e20,
        n_regions: 6,
        n_stations: 2,
        charging_points: 2,
        fleet_size: 32,
        slots: 12,
        daily_trips_per_taxi: 48.0,
        alpha: 0.6,
        policy: PolicyKind::Stay,
        shards: 1,
        threads: 1,
        shard_policy: ShardPolicyKind::Greedy,
        fault_plan: None,
    };
    fairmove_testkit::check_all(&scenario).expect("oracle must pass");
}

/// Pinned for oracle `batched-vs-serial-inference`: command loss interleaves
/// environment RNG draws with the policy's own sampling, so a batched
/// dispatcher that draws its action samples in a different order than the
/// serial one desynchronizes here first. Charging scarcity (one point)
/// keeps must-charge decisions — which skip sampling entirely — in the mix.
#[test]
fn repro_batched_inference_command_loss_seed_9d30a41be2c655f7() {
    let scenario = Scenario {
        seed: 0x9d30a41be2c655f7,
        n_regions: 12,
        n_stations: 1,
        charging_points: 1,
        fleet_size: 16,
        slots: 16,
        daily_trips_per_taxi: 36.0,
        alpha: 0.25,
        policy: PolicyKind::GroundTruth,
        shards: 1,
        threads: 1,
        shard_policy: ShardPolicyKind::Greedy,
        fault_plan: Some(
            FaultPlan::new(0x71c3a9de44b08f12).with(FaultSpec::CommandLoss {
                probability: 0.35,
                window: SlotWindow::new(2, 14),
            }),
        ),
    };
    fairmove_testkit::check_all(&scenario).expect("oracle must pass");
}

/// Pinned for oracle `batched-vs-serial-inference`: observation staleness
/// makes the policy featurize from a lagged snapshot while the environment
/// moves on — the region feature cache must be rebuilt from the *stale*
/// view, not the live one, to stay bit-identical to the serial dispatcher.
#[test]
fn repro_batched_inference_stale_observation_seed_c4f0b6291ad3578e() {
    let scenario = Scenario {
        seed: 0xc4f0b6291ad3578e,
        n_regions: 10,
        n_stations: 3,
        charging_points: 6,
        fleet_size: 24,
        slots: 14,
        daily_trips_per_taxi: 30.0,
        alpha: 1.0,
        policy: PolicyKind::Stay,
        shards: 1,
        threads: 1,
        shard_policy: ShardPolicyKind::Greedy,
        fault_plan: Some(FaultPlan::new(0x2b85f6c09e1d4a73).with(
            FaultSpec::ObservationStaleness {
                lag_slots: 2,
                window: SlotWindow::new(1, 12),
            },
        )),
    };
    fairmove_testkit::check_all(&scenario).expect("oracle must pass");
}
