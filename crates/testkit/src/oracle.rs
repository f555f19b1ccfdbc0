//! The oracle catalog: differential and metamorphic checks that define
//! "correct" for a system whose only ground truth is itself.
//!
//! Each oracle takes a [`Scenario`], runs it (reusing one base run where
//! possible), and returns the first failure. The catalog:
//!
//! | oracle | guards |
//! |---|---|
//! | `invariant-audit` | every per-slot simulator invariant (money conservation, battery bounds, charger occupancy, state machine, fault counters) |
//! | `telemetry-inert` | telemetry-on ≡ telemetry-off bit-identical ledgers |
//! | `empty-plan-identity` | an attached empty [`FaultPlan`](fairmove_sim::FaultPlan) ≡ no plan at all |
//! | `serial-parallel` | `ordered_map` over worker threads ≡ the serial map |
//! | `permutation-invariance` | fleet metrics are taxi-id-order invariant |
//! | `alpha-objective` | Eq. 4 reward is affine in α; α = 1 ignores fairness, α = 0 ignores profit |
//! | `batched-vs-serial-inference` | the CMA2C dispatcher (cached features updated per commit, shared-prefix forward) ≡ a naive serial reference (`ReferenceCma2c`) on both engines: bit-identical minute-engine ledgers, and equal sharded digests and decision counts on the scenario's (shards, threads) layout; stacked actor forward ≡ per-row forwards at 1/2/4 matmul workers |
//! | `shard-differential-fidelity` | sharded engine bit-identical across the scenario's (shards, threads) grid; fleet conserved; SoC bounded; queue waits within patience; demand totals within sampling noise of the minute engine (see [`crate::differential`]) |

use crate::scenario::{PlanMode, RunArtifacts, Scenario, TestRng};
use fairmove_agents::features::{FeatureExtractor, SA_DIM};
use fairmove_agents::{Cma2cConfig, Cma2cPolicy, Cma2cShardPolicy};
use fairmove_city::{City, RegionId};
use fairmove_metrics::{gini, profit_fairness};
use fairmove_rl::loss::softmax;
use fairmove_rl::{Activation, Matrix, Mlp};
use fairmove_sim::{
    fnv64, Action, DecisionContext, DisplacementPolicy, Environment, FleetLedger, InvariantAuditor,
    ShardPolicy, ShardedEnv, SlotObservation, TaxiId, Telemetry, WorkingObservation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One failed oracle: which check, and what it saw.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// Stable oracle name (see the module table).
    pub oracle: &'static str,
    /// What diverged.
    pub message: String,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle `{}` failed: {}", self.oracle, self.message)
    }
}

fn fail(oracle: &'static str, message: String) -> Result<(), OracleFailure> {
    Err(OracleFailure { oracle, message })
}

/// Names of every oracle in catalog order.
pub const ORACLE_NAMES: [&str; 8] = [
    "invariant-audit",
    "telemetry-inert",
    "empty-plan-identity",
    "serial-parallel",
    "permutation-invariance",
    "alpha-objective",
    "batched-vs-serial-inference",
    "shard-differential-fidelity",
];

/// Runs the full oracle catalog against one scenario. Returns the first
/// failure (catalog order), or `Ok` when every check passes.
pub fn check_all(scenario: &Scenario) -> Result<(), OracleFailure> {
    let base = scenario.run();
    invariant_audit(&base)?;
    telemetry_inert(scenario, &base)?;
    empty_plan_identity(scenario, &base)?;
    serial_parallel(&base)?;
    permutation_invariance(scenario, &base)?;
    alpha_objective(scenario, &base)?;
    batched_vs_serial_inference(scenario)?;
    crate::differential::shard_differential_fidelity(scenario, &base)?;
    Ok(())
}

/// The per-slot invariant audit found nothing.
fn invariant_audit(base: &RunArtifacts) -> Result<(), OracleFailure> {
    if let Some(v) = &base.violation {
        return fail(
            "invariant-audit",
            format!("{v} ({} total violations)", base.audit_violations),
        );
    }
    if base.invariant_violations > 0 {
        return fail(
            "invariant-audit",
            format!(
                "environment recovered from {} invariant violations",
                base.invariant_violations
            ),
        );
    }
    Ok(())
}

/// Attaching telemetry must not change the simulation by one bit.
fn telemetry_inert(scenario: &Scenario, base: &RunArtifacts) -> Result<(), OracleFailure> {
    let telemetry = Telemetry::enabled();
    let instrumented = scenario.run_with(Some(&telemetry), PlanMode::AsIs);
    if instrumented.ledger != base.ledger {
        return fail(
            "telemetry-inert",
            format!(
                "telemetry-on ledger diverged from telemetry-off (first diff: {})",
                first_ledger_diff(&base.ledger, &instrumented.ledger)
            ),
        );
    }
    if instrumented.fault_counters != base.fault_counters {
        return fail(
            "telemetry-inert",
            "fault counters diverged under telemetry".to_string(),
        );
    }
    Ok(())
}

/// An attached-but-empty fault plan must be indistinguishable from none.
/// Only meaningful when the scenario itself carries no plan (otherwise the
/// base run already includes fault effects).
fn empty_plan_identity(scenario: &Scenario, base: &RunArtifacts) -> Result<(), OracleFailure> {
    if scenario.fault_plan.is_some() {
        return Ok(());
    }
    let with_empty = scenario.run_with(None, PlanMode::Empty);
    if with_empty.ledger != base.ledger {
        return fail(
            "empty-plan-identity",
            format!(
                "empty fault plan changed the run (first diff: {})",
                first_ledger_diff(&base.ledger, &with_empty.ledger)
            ),
        );
    }
    if with_empty.fault_counters != Default::default() {
        return fail(
            "empty-plan-identity",
            format!(
                "empty fault plan booked injections: {:?}",
                with_empty.fault_counters
            ),
        );
    }
    Ok(())
}

/// Fanning a pure per-slot digest over worker threads must return exactly
/// the serial result, in submission order, at every thread count.
fn serial_parallel(base: &RunArtifacts) -> Result<(), OracleFailure> {
    let digest = |profits: &Vec<f64>| {
        let mut bytes = Vec::with_capacity(profits.len() * 8);
        for p in profits {
            bytes.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        fnv64(&bytes)
    };
    let items: Vec<Vec<f64>> = base
        .feedbacks
        .iter()
        .map(|f| f.slot_profit.clone())
        .collect();
    let serial: Vec<u64> = items.iter().map(digest).collect();
    for threads in [1usize, 2, 4] {
        let parallel =
            fairmove_parallel::ordered_map_threads(threads, items.clone(), |p| digest(&p));
        if parallel != serial {
            let slot = serial
                .iter()
                .zip(&parallel)
                .position(|(a, b)| a != b)
                .unwrap_or(serial.len());
            return fail(
                "serial-parallel",
                format!("ordered_map with {threads} threads diverged at slot {slot}"),
            );
        }
    }
    Ok(())
}

/// Fleet-level fairness metrics must not depend on taxi-id order.
fn permutation_invariance(scenario: &Scenario, base: &RunArtifacts) -> Result<(), OracleFailure> {
    let pes = base.ledger.profit_efficiencies();
    if pes.len() < 2 {
        return Ok(());
    }
    // Deterministic Fisher–Yates shuffle from the scenario seed.
    let mut permuted = pes.clone();
    let mut rng = TestRng::new(scenario.seed ^ 0x9e37);
    for i in (1..permuted.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        permuted.swap(i, j);
    }
    let tol = 1e-9;
    let close = |a: f64, b: f64| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()));
    type Metric = fn(&[f64]) -> f64;
    let checks: [(&str, Metric); 2] = [
        ("profit_fairness", |v| profit_fairness(v)),
        ("gini", |v| gini(v)),
    ];
    for (name, metric) in checks {
        let original = metric(&pes);
        let shuffled = metric(&permuted);
        if !close(original, shuffled) {
            return fail(
                "permutation-invariance",
                format!("{name} changed under taxi permutation: {original:?} -> {shuffled:?}"),
            );
        }
    }
    Ok(())
}

/// Eq. 4's reward must be affine in α, reduce to the pure profit objective
/// at α = 1 (fairness ignored), and to the pure fairness objective at α = 0
/// (profit ignored). Checked on real slot feedback from the base run.
fn alpha_objective(scenario: &Scenario, base: &RunArtifacts) -> Result<(), OracleFailure> {
    let tol = 1e-9;
    for feedback in base.feedbacks.iter().take(8) {
        let taxis = feedback.slot_profit.len().min(4);
        for t in 0..taxis {
            let taxi = TaxiId(t as u32);
            let r0 = feedback.reward(0.0, taxi);
            let r1 = feedback.reward(1.0, taxi);
            let alpha = scenario.alpha;
            let blended = feedback.reward(alpha, taxi);
            let affine = alpha * r1 + (1.0 - alpha) * r0;
            if (blended - affine).abs() > tol * (1.0 + affine.abs()) {
                return fail(
                    "alpha-objective",
                    format!(
                        "reward(α={alpha}) for {taxi} is not affine in α: got {blended:?}, expected {affine:?}"
                    ),
                );
            }

            // α = 1: pure efficiency — perturbing fairness must not move it.
            let mut unfair = feedback.clone();
            unfair.pf += 123.456;
            unfair.cumulative_pe[t] += 7.0;
            if (unfair.reward(1.0, taxi) - r1).abs() > tol {
                return fail(
                    "alpha-objective",
                    format!("α=1 reward for {taxi} depends on the fairness term"),
                );
            }

            // α = 0: pure fairness — perturbing slot profit must not move it.
            let mut richer = feedback.clone();
            richer.slot_profit[t] += 50.0;
            if (richer.reward(0.0, taxi) - r0).abs() > tol {
                return fail(
                    "alpha-objective",
                    format!("α=0 reward for {taxi} depends on slot profit"),
                );
            }
        }
    }
    Ok(())
}

/// The fully serial CMA2C dispatcher, written naively: per context, every
/// candidate row from the uncached [`FeatureExtractor::all_state_actions`]
/// over a [`WorkingObservation`] of the earlier commits in scope, the state
/// ablations, one plain [`Mlp::forward`], the charge prior, and one draw
/// from the stream through `softmax` and a cumulative scan. On the minute
/// engine the scope is the whole city's decision list and the stream is
/// the policy's own; on the sharded engine the scope is one region's list
/// and the stream is the region's.
struct ReferenceCma2c {
    fx: FeatureExtractor,
    actor: Mlp,
    config: Cma2cConfig,
    /// The minute engine's exploration stream, seeded as [`Cma2cPolicy`]
    /// seeds its own.
    rng: StdRng,
}

/// [`Cma2cPolicy`]'s exploration-stream salt ("CMA2C").
const CMA2C_STREAM_SALT: u64 = 0x43_4d41_3243;

impl ReferenceCma2c {
    /// The reference over `city` with `config`'s actor initialization,
    /// charge prior and ablations.
    fn new(city: &City, config: &Cma2cConfig) -> Self {
        ReferenceCma2c {
            fx: FeatureExtractor::new(city),
            actor: Cma2cShardPolicy::new(city, config).actor().clone(),
            config: config.clone(),
            rng: StdRng::seed_from_u64(config.seed ^ CMA2C_STREAM_SALT),
        }
    }

    fn decide_with(
        &self,
        obs: &SlotObservation,
        ctxs: &[DecisionContext],
        rng: &mut StdRng,
    ) -> Vec<Action> {
        let mut view = WorkingObservation::new(obs);
        let mut out = Vec::with_capacity(ctxs.len());
        for ctx in ctxs {
            let mut rows = self.fx.all_state_actions(&view, ctx);
            for row in &mut rows {
                if self.config.ablate_global_view {
                    for i in [4, 5, 6, 7, 10] {
                        row[i] = 0.0;
                    }
                }
                if self.config.ablate_fairness_features {
                    for i in [11, 12] {
                        row[i] = 0.0;
                    }
                }
            }
            let x = Matrix::from_vec(rows.len(), SA_DIM, rows.concat());
            let raw = self.actor.forward(&x);
            let logits: Vec<f64> = ctx
                .actions
                .actions()
                .iter()
                .enumerate()
                .map(|(j, a)| {
                    let free_charge =
                        matches!(a, Action::Charge(_)) && !ctx.actions.charge_forced();
                    let prior = if free_charge {
                        self.config.charge_logit_prior
                    } else {
                        0.0
                    };
                    raw.get(j, 0) - prior
                })
                .collect();
            let draw: f64 = rng.gen();
            let mut acc = 0.0;
            let mut idx = logits.len() - 1;
            for (i, p) in softmax(&logits).into_iter().enumerate() {
                acc += p;
                if draw < acc {
                    idx = i;
                    break;
                }
            }
            let action = ctx.actions.action(idx);
            match action {
                Action::Stay => {}
                Action::MoveTo(dest) => {
                    let vacant = view.vacant_per_region_mut();
                    let o = ctx.region.index();
                    vacant[o] = vacant[o].saturating_sub(1);
                    vacant[dest.index()] += 1;
                }
                Action::Charge(station) => {
                    let vacant = view.vacant_per_region_mut();
                    let o = ctx.region.index();
                    vacant[o] = vacant[o].saturating_sub(1);
                    view.inbound_per_station_mut()[station.index()] += 1;
                }
            }
            out.push(action);
        }
        out
    }
}

impl DisplacementPolicy for ReferenceCma2c {
    fn name(&self) -> &str {
        "reference-cma2c"
    }

    fn decide(&mut self, obs: &SlotObservation, decisions: &[DecisionContext]) -> Vec<Action> {
        let mut rng = self.rng.clone();
        let out = self.decide_with(obs, decisions, &mut rng);
        self.rng = rng;
        out
    }

    fn reseed_exploration(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed ^ CMA2C_STREAM_SALT);
    }
}

impl ShardPolicy for ReferenceCma2c {
    fn name(&self) -> &'static str {
        "reference-cma2c"
    }

    fn decide_region(
        &mut self,
        _city: &City,
        obs: &SlotObservation,
        _region: RegionId,
        ctxs: &[DecisionContext],
        rng: &mut StdRng,
        out: &mut Vec<Action>,
    ) {
        *out = self.decide_with(obs, ctxs, rng);
    }
}

/// The CMA2C dispatcher must be bit-identical to the naive serial
/// [`ReferenceCma2c`]. A frozen [`Cma2cPolicy`] and the reference, with the
/// same weights and exploration seed, drive the same environment; any
/// divergence in featurization, cache updates, the shared-prefix forward,
/// commit ordering, or RNG consumption shows up as a ledger diff. The
/// sharded half does the same through [`Cma2cShardPolicy`] on the
/// scenario's shard layout and thread count, and compares digests and
/// decision counts. A further check pushes one stacked input through the
/// actor-shaped MLP and compares it row-by-row against per-row forwards,
/// and through the raw row-partitioned matmul kernel at 1, 2, and 4
/// explicit workers — the batched numerics must not depend on how many
/// rows share a forward pass or how many threads split it.
fn batched_vs_serial_inference(scenario: &Scenario) -> Result<(), OracleFailure> {
    let config = Cma2cConfig {
        seed: scenario.seed,
        ..Cma2cConfig::default()
    };
    let run = |reference: bool| -> (FleetLedger, u64) {
        let mut env = Environment::new(scenario.sim_config());
        env.set_auditor(InvariantAuditor::recording());
        if let Some(p) = &scenario.fault_plan {
            env.set_fault_plan(p.clone());
        }
        let city = env.city().clone();
        let mut policy: Box<dyn DisplacementPolicy> = if reference {
            Box::new(ReferenceCma2c::new(&city, &config))
        } else {
            let mut p = Cma2cPolicy::new(&city, config.clone());
            p.freeze();
            Box::new(p)
        };
        for _ in 0..scenario.slots {
            let feedback = env.step_slot(policy.as_mut());
            policy.observe(feedback);
        }
        env.flush_accounting();
        let violations = env.auditor().map_or(0, |a| a.violations());
        (env.ledger().clone(), violations)
    };
    let (serial, serial_violations) = run(true);
    let (batched, batched_violations) = run(false);
    if serial != batched {
        return fail(
            "batched-vs-serial-inference",
            format!(
                "dispatcher diverged from the serial reference (first diff: {})",
                first_ledger_diff(&serial, &batched)
            ),
        );
    }
    if serial_violations != batched_violations {
        return fail(
            "batched-vs-serial-inference",
            format!(
                "audit violations diverged: reference {serial_violations} vs dispatcher {batched_violations}"
            ),
        );
    }

    let run_sharded = |reference: bool| -> (u64, u64) {
        let factory = |city: &City| -> Box<dyn ShardPolicy> {
            if reference {
                Box::new(ReferenceCma2c::new(city, &config))
            } else {
                Box::new(Cma2cShardPolicy::new(city, &config))
            }
        };
        let mut env = ShardedEnv::with_policy(scenario.sim_config(), scenario.shards, &factory);
        env.run(scenario.slots, scenario.threads);
        (env.digest(), env.decisions())
    };
    let (serial, batched) = (run_sharded(true), run_sharded(false));
    if serial != batched {
        return fail(
            "batched-vs-serial-inference",
            format!(
                "sharded dispatcher diverged from the serial reference at {} shards x {} threads: \
                 digest {:016x} vs {:016x}, decisions {} vs {}",
                scenario.shards, scenario.threads, serial.0, batched.0, serial.1, batched.1
            ),
        );
    }

    // Stacked forward ≡ per-row forward through an actor-shaped MLP. 600
    // rows puts the 64→64 layer above the parallel matmul threshold, so
    // with FAIRMOVE_THREADS > 1 (CI runs 1 and 4) this also crosses the
    // threaded row-partitioned path.
    let rows = 600;
    let mlp = Mlp::new(
        &[SA_DIM, 64, 64, 1],
        Activation::Relu,
        Activation::Linear,
        scenario.seed,
    );
    let mut rng = TestRng::new(scenario.seed ^ 0xBA7C);
    let data: Vec<f64> = (0..rows * SA_DIM).map(|_| rng.f64() * 2.0 - 1.0).collect();
    let x = Matrix::from_vec(rows, SA_DIM, data);
    let stacked = mlp.forward(&x);
    for r in 0..rows {
        let single = mlp.forward_one(x.row(r));
        if single[0].to_bits() != stacked.get(r, 0).to_bits() {
            return fail(
                "batched-vs-serial-inference",
                format!(
                    "stacked forward row {r} diverged from per-row forward: {:?} vs {:?}",
                    stacked.get(r, 0),
                    single[0]
                ),
            );
        }
    }

    // The raw kernel is bit-identical at every explicit worker count.
    let w = {
        let mut wrng = TestRng::new(scenario.seed ^ 0x3A7);
        let data: Vec<f64> = (0..SA_DIM * 64).map(|_| wrng.f64() - 0.5).collect();
        Matrix::from_vec(SA_DIM, 64, data)
    };
    let serial_product = x.matmul_threads(&w, 1);
    for threads in [2usize, 4] {
        let threaded = x.matmul_threads(&w, threads);
        if threaded != serial_product {
            return fail(
                "batched-vs-serial-inference",
                format!("matmul with {threads} workers diverged from 1 worker"),
            );
        }
    }
    Ok(())
}

/// Short description of the first difference between two runs' ledgers,
/// for oracle messages.
fn first_ledger_diff(a: &FleetLedger, b: &FleetLedger) -> String {
    let (at, bt) = (a.trips(), b.trips());
    if at.len() != bt.len() {
        return format!("trip counts {} vs {}", at.len(), bt.len());
    }
    for (x, y) in at.iter().zip(bt) {
        if x != y {
            return format!(
                "trip at slot {} (taxi T{} vs T{})",
                x.dropoff_at.absolute_slot(),
                x.taxi.0,
                y.taxi.0
            );
        }
    }
    let (ac, bc) = (a.charges(), b.charges());
    if ac.len() != bc.len() {
        return format!("charge counts {} vs {}", ac.len(), bc.len());
    }
    for (x, y) in ac.iter().zip(bc) {
        if x != y {
            return format!("charge at slot {}", x.finished_at.absolute_slot());
        }
    }
    "per-taxi totals".to_string()
}
