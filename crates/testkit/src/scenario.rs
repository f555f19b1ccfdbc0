//! Seeded random scenario generation and execution.
//!
//! A [`Scenario`] is plain data: everything needed to reproduce one short
//! simulation run — city shape, fleet size, horizon, demand level, α,
//! policy, and an optional [`FaultPlan`]. [`Scenario::generate`] derives all
//! of it from a single `u64` seed through a SplitMix64 chain, so a failing
//! seed in CI is a complete bug report, and [`Scenario::to_code`] emits the
//! literal constructor for a ready-to-paste regression test.

use fairmove_agents::GroundTruthPolicy;
use fairmove_city::CityConfig;
use fairmove_faults::{splitmix64, FaultPlan, FleetShape};
use fairmove_sim::{
    AuditViolation, DisplacementPolicy, Environment, FaultCounters, FleetLedger, InvariantAuditor,
    SimConfig, SlotFeedback, StayPolicy, Telemetry,
};
use std::fmt;

/// A tiny deterministic SplitMix64 generator for test decisions. This is
/// *not* the simulation RNG — scenarios only use it to pick their own
/// parameters, so the testkit stays dependency-free.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Uniform value in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

/// Which displacement policy drives the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`StayPolicy`]: never repositions, charges only when forced.
    Stay,
    /// [`GroundTruthPolicy`]: the data-calibrated heuristic drivers —
    /// exercises repositioning, opportunistic charging, and station queues.
    GroundTruth,
}

/// Displacement policy driving the *sharded* engine in differential checks
/// (the minute engine's policy is [`PolicyKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicyKind {
    /// Deterministic greedy deficit-chasing (the sharded engine's default).
    Greedy,
    /// Frozen CMA2C actor inference inside shard steps.
    Cma2c,
}

/// One reproducible randomized simulation run, as plain data.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Master seed: drives city generation, demand, and the policy.
    pub seed: u64,
    /// City regions.
    pub n_regions: usize,
    /// Charging stations.
    pub n_stations: usize,
    /// Total charging points across all stations.
    pub charging_points: u32,
    /// Fleet size.
    pub fleet_size: usize,
    /// Slots to step (10 sim-minutes each).
    pub slots: u32,
    /// Demand level: expected requests per taxi per day.
    pub daily_trips_per_taxi: f64,
    /// Reward weight α (only used by the reward oracles).
    pub alpha: f64,
    /// Driving policy.
    pub policy: PolicyKind,
    /// Faults to inject, if any.
    pub fault_plan: Option<FaultPlan>,
    /// Shard count for the sharded-engine differential checks.
    pub shards: usize,
    /// Worker threads for the sharded-engine differential checks.
    pub threads: usize,
    /// Policy driving the sharded engine.
    pub shard_policy: ShardPolicyKind,
}

/// Everything one scenario run produces that an oracle may want.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// Final working-cycle ledger (accounting flushed).
    pub ledger: FleetLedger,
    /// Per-slot feedback, in step order.
    pub feedbacks: Vec<SlotFeedback>,
    /// First invariant-audit violation, if any.
    pub violation: Option<AuditViolation>,
    /// Total audit violations across the run.
    pub audit_violations: u64,
    /// The environment's recovered-invariant tally (includes audit finds).
    pub invariant_violations: u64,
    /// Fault-injection tallies.
    pub fault_counters: FaultCounters,
}

/// How [`Scenario::run_with`] should treat the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Use the scenario's own plan (or none).
    AsIs,
    /// Force no plan at all.
    None,
    /// Force an *empty* plan (same seed, zero specs) — must behave exactly
    /// like [`PlanMode::None`].
    Empty,
}

impl Scenario {
    /// Derives a complete scenario from one seed. Sizes are kept small
    /// (≤ 24 regions, ≤ 48 taxis, ≤ 64 slots) so a full oracle suite runs
    /// in milliseconds and shrinking stays snappy.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = TestRng::new(seed);
        let n_regions = rng.range(6, 24) as usize;
        let n_stations = rng.range(2, 6).min(n_regions as u64) as usize;
        let charging_points = (n_stations as u32) * rng.range(1, 3) as u32;
        let fleet_size = rng.range(4, 48) as usize;
        let slots = rng.range(8, 64) as u32;
        let daily_trips_per_taxi = 20.0 + rng.f64() * 40.0;
        let alpha = [0.0, 0.25, 0.5, 0.6, 0.75, 1.0][rng.below(6) as usize];
        let policy = if rng.chance(0.5) {
            PolicyKind::GroundTruth
        } else {
            PolicyKind::Stay
        };
        let mut scenario = Scenario {
            seed: rng.next_u64(),
            n_regions,
            n_stations,
            charging_points,
            fleet_size,
            slots,
            daily_trips_per_taxi,
            alpha,
            policy,
            fault_plan: None,
            shards: 1,
            threads: 1,
            shard_policy: ShardPolicyKind::Greedy,
        };
        if rng.chance(0.5) {
            let plan_seed = rng.next_u64();
            scenario.fault_plan = Some(FaultPlan::randomized(plan_seed, &scenario.fleet_shape()));
        }
        // Sharded-engine draws are appended after every pre-existing draw so
        // the scenarios older seeds reproduce stay byte-identical.
        scenario.shards = [1, 2, 4][rng.below(3) as usize];
        scenario.threads = [1, 2, 4][rng.below(3) as usize];
        scenario.shard_policy = if rng.chance(0.25) {
            ShardPolicyKind::Cma2c
        } else {
            ShardPolicyKind::Greedy
        };
        scenario
    }

    /// The fleet shape used to randomize fault plans against this scenario.
    pub fn fleet_shape(&self) -> FleetShape {
        FleetShape {
            n_regions: self.n_regions as u16,
            n_stations: self.n_stations as u16,
            fleet_size: self.fleet_size as u32,
            horizon_slots: self.slots,
        }
    }

    /// The simulator configuration this scenario describes.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            city: CityConfig {
                n_regions: self.n_regions,
                n_stations: self.n_stations,
                total_charging_points: self.charging_points.max(self.n_stations as u32),
                seed: self.seed ^ 0xC17F,
                ..CityConfig::default()
            },
            fleet_size: self.fleet_size,
            days: self.slots.div_ceil(fairmove_city::SLOTS_PER_DAY).max(1),
            daily_trips_per_taxi: self.daily_trips_per_taxi,
            seed: self.seed,
            ..SimConfig::default()
        }
    }

    /// Runs the scenario with a recording auditor and no telemetry.
    pub fn run(&self) -> RunArtifacts {
        self.run_with(None, PlanMode::AsIs)
    }

    /// Runs the scenario with explicit telemetry and fault-plan treatment —
    /// the knobs the differential oracles twist.
    pub fn run_with(&self, telemetry: Option<&Telemetry>, plan: PlanMode) -> RunArtifacts {
        let config = self.sim_config();
        let mut env = Environment::new(config.clone());
        env.set_auditor(InvariantAuditor::recording());
        if let Some(t) = telemetry {
            env.set_telemetry(t);
        }
        match plan {
            PlanMode::AsIs => {
                if let Some(p) = &self.fault_plan {
                    env.set_fault_plan(p.clone());
                }
            }
            PlanMode::None => {}
            PlanMode::Empty => env.set_fault_plan(FaultPlan::new(self.seed)),
        }

        let mut stay = StayPolicy;
        let mut gt;
        let policy: &mut dyn DisplacementPolicy = match self.policy {
            PolicyKind::Stay => &mut stay,
            PolicyKind::GroundTruth => {
                gt = GroundTruthPolicy::for_city(env.city(), config.fleet_size, config.seed);
                &mut gt
            }
        };

        let mut feedbacks = Vec::with_capacity(self.slots as usize);
        for _ in 0..self.slots {
            let feedback = env.step_slot(policy);
            policy.observe(feedback);
            feedbacks.push(feedback.clone());
        }
        env.flush_accounting();

        let auditor = env.auditor().expect("auditor stays installed");
        RunArtifacts {
            violation: auditor.first_violation().cloned(),
            audit_violations: auditor.violations(),
            invariant_violations: env.invariant_violations(),
            fault_counters: *env.fault_counters(),
            feedbacks,
            ledger: env.ledger().clone(),
        }
    }

    /// Rust source for reconstructing this scenario verbatim — the payload
    /// of the driver's ready-to-paste regression test.
    pub fn to_code(&self) -> String {
        let policy = match self.policy {
            PolicyKind::Stay => "PolicyKind::Stay",
            PolicyKind::GroundTruth => "PolicyKind::GroundTruth",
        };
        let plan = match &self.fault_plan {
            None => "None".to_string(),
            Some(p) => {
                let mut code = format!("Some(FaultPlan::new(0x{:x})", p.seed());
                for spec in p.specs() {
                    code.push_str(&format!("\n            .with({})", spec_code(spec)));
                }
                code.push(')');
                code
            }
        };
        let shard_policy = match self.shard_policy {
            ShardPolicyKind::Greedy => "ShardPolicyKind::Greedy",
            ShardPolicyKind::Cma2c => "ShardPolicyKind::Cma2c",
        };
        format!(
            "Scenario {{\n        seed: 0x{:x},\n        n_regions: {},\n        n_stations: {},\n        charging_points: {},\n        fleet_size: {},\n        slots: {},\n        daily_trips_per_taxi: {:?},\n        alpha: {:?},\n        policy: {},\n        fault_plan: {},\n        shards: {},\n        threads: {},\n        shard_policy: {},\n    }}",
            self.seed,
            self.n_regions,
            self.n_stations,
            self.charging_points,
            self.fleet_size,
            self.slots,
            self.daily_trips_per_taxi,
            self.alpha,
            policy,
            plan,
            self.shards,
            self.threads,
            shard_policy,
        )
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed=0x{:x} regions={} stations={} points={} fleet={} slots={} trips/taxi={:.1} alpha={} policy={:?} faults={} shards={} threads={} shard_policy={:?}",
            self.seed,
            self.n_regions,
            self.n_stations,
            self.charging_points,
            self.fleet_size,
            self.slots,
            self.daily_trips_per_taxi,
            self.alpha,
            self.policy,
            self.fault_plan.as_ref().map_or(0, |p| p.specs().len()),
            self.shards,
            self.threads,
            self.shard_policy,
        )
    }
}

/// Rust source for one fault spec (used by [`Scenario::to_code`]).
fn spec_code(spec: &fairmove_faults::FaultSpec) -> String {
    use fairmove_faults::FaultSpec as S;
    let win = |w: fairmove_faults::SlotWindow| format!("SlotWindow::new({}, {})", w.start, w.end);
    match *spec {
        S::StationOutage { station, window } => format!(
            "FaultSpec::StationOutage {{ station: {station}, window: {} }}",
            win(window)
        ),
        S::DemandSurge {
            region,
            factor,
            window,
        } => format!(
            "FaultSpec::DemandSurge {{ region: {region}, factor: {factor:?}, window: {} }}",
            win(window)
        ),
        S::DemandBlackout { region, window } => format!(
            "FaultSpec::DemandBlackout {{ region: {region}, window: {} }}",
            win(window)
        ),
        S::TaxiBreakdown { taxi, window } => format!(
            "FaultSpec::TaxiBreakdown {{ taxi: {taxi}, window: {} }}",
            win(window)
        ),
        S::ObservationStaleness { lag_slots, window } => format!(
            "FaultSpec::ObservationStaleness {{ lag_slots: {lag_slots}, window: {} }}",
            win(window)
        ),
        S::ObservationDropout { region, window } => format!(
            "FaultSpec::ObservationDropout {{ region: {region}, window: {} }}",
            win(window)
        ),
        S::CommandLoss {
            probability,
            window,
        } => format!(
            "FaultSpec::CommandLoss {{ probability: {probability:?}, window: {} }}",
            win(window)
        ),
    }
}
