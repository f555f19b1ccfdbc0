//! The shard fidelity harness: differential checks between the minute-stepped
//! [`Environment`](fairmove_sim::Environment) and the slot-stepped
//! [`ShardedEnv`].
//!
//! The two engines share semantics where sharding permits it and differ where
//! slot granularity forces it; this module machine-checks that split (the
//! "Fidelity contract" in DESIGN.md):
//!
//! * **Exact** — `ShardedEnv` must be bit-identical to its own single-shard
//!   single-thread run across the scenario's `(shards, threads)` grid, for
//!   the greedy *and* the CMA2C shard policy. Fleet conservation, SoC
//!   bounds, ledger-vs-counter consistency, and the queue-patience bound
//!   hold unconditionally.
//! * **Bounded** — the demand processes are independent realizations of the
//!   same per-slot intensities (minute-wise thinning vs one slot-level
//!   Poisson draw), so total request counts may differ but only within
//!   sampling noise: `|env − shard| ≤ 6·√max + 20` (≈ 4σ for two Poisson
//!   totals plus slack for requests still waiting in the minute engine's
//!   pool at cutoff). Skipped when the scenario carries a fault plan —
//!   fault injection is deliberately not ported to the sharded engine.
//! * **Golden-pinned** — the remaining legitimate deltas (service split,
//!   Eq. 3 fairness) are captured in a [`FidelityReport`] whose canonical
//!   text is pinned at fixed seeds under `tests/goldens/`, so any drift is
//!   a reviewed bless, not silent.
//!
//! [`shard_differential_fidelity`] is oracle `shard-differential-fidelity`
//! in the catalog, so every divergence found by the property driver shrinks
//! to a ready-to-paste regression like any other failure.

use crate::oracle::OracleFailure;
use crate::scenario::{RunArtifacts, Scenario, ShardPolicyKind};
use fairmove_agents::{Cma2cConfig, Cma2cShardPolicy};
use fairmove_city::{City, SLOT_MINUTES};
use fairmove_metrics::profit_fairness;
use fairmove_sim::{
    GreedyDeficitPolicy, ShardPolicy, ShardPolicyFactory, ShardedEnv, QUEUE_PATIENCE_MINUTES,
};
use std::fmt::Write as _;

fn fail(message: String) -> Result<(), OracleFailure> {
    Err(OracleFailure {
        oracle: "shard-differential-fidelity",
        message,
    })
}

/// Runs the scenario's sharded configuration once.
pub(crate) fn run_sharded(scenario: &Scenario, shards: usize, threads: usize) -> ShardedEnv {
    let config = scenario.sim_config();
    let cma2c_config = Cma2cConfig {
        seed: scenario.seed,
        ..Cma2cConfig::default()
    };
    let greedy = |_: &City| -> Box<dyn ShardPolicy> { Box::new(GreedyDeficitPolicy::default()) };
    let cma2c = |city: &City| -> Box<dyn ShardPolicy> {
        Box::new(Cma2cShardPolicy::new(city, &cma2c_config))
    };
    let factory: &ShardPolicyFactory = match scenario.shard_policy {
        ShardPolicyKind::Greedy => &greedy,
        ShardPolicyKind::Cma2c => &cma2c,
    };
    let mut env = ShardedEnv::with_policy(config, shards, factory);
    env.run(scenario.slots, threads);
    env
}

/// One scenario's slot-aligned comparison between the two engines, plus the
/// sharded engine's own layout-invariance evidence. The canonical text form
/// ([`FidelityReport::canon`]) is what the fidelity goldens pin.
#[derive(Debug, Clone)]
pub struct FidelityReport {
    /// The scenario's one-line description.
    pub scenario: String,
    /// Digest of the single-shard single-thread sharded run (the layout
    /// oracle every grid cell must match).
    pub shard_digest: u64,
    /// Sharded-engine decision count (layout-invariant).
    pub shard_decisions: u64,
    /// Sharded-engine service counters.
    pub shard_trips_served: u64,
    /// Requests the sharded engine could not match.
    pub shard_trips_unserved: u64,
    /// Eq. 3 profit fairness over the sharded engine's final per-taxi
    /// profit efficiencies.
    pub shard_pf: f64,
    /// Minute-engine served trips (from the base run's ledger).
    pub env_trips: u64,
    /// Minute-engine requests that expired unserved.
    pub env_expired: u64,
    /// Eq. 3 profit fairness over the minute engine's final ledger.
    pub env_pf: f64,
}

impl FidelityReport {
    /// Builds the report from the scenario's base (minute-engine) run and a
    /// fresh single-shard single-thread sharded run.
    pub fn build(scenario: &Scenario, base: &RunArtifacts) -> FidelityReport {
        let shard = run_sharded(scenario, 1, 1);
        let hours = f64::from(scenario.slots * SLOT_MINUTES) / 60.0;
        let pes: Vec<f64> = shard
            .taxi_rows()
            .iter()
            .map(|r| {
                if hours > 0.0 {
                    (r.revenue - r.cost) / hours
                } else {
                    0.0
                }
            })
            .collect();
        FidelityReport {
            scenario: scenario.to_string(),
            shard_digest: shard.digest(),
            shard_decisions: shard.decisions(),
            shard_trips_served: shard.trips_served(),
            shard_trips_unserved: shard.trips_unserved(),
            shard_pf: profit_fairness(&pes),
            env_trips: base.ledger.trips().len() as u64,
            env_expired: base.ledger.expired_requests,
            env_pf: profit_fairness(&base.ledger.profit_efficiencies()),
        }
    }

    /// Canonical text form for golden pinning.
    pub fn canon(&self) -> String {
        let mut s = String::new();
        writeln!(s, "fidelity-report v1").unwrap();
        writeln!(s, "scenario {}", self.scenario).unwrap();
        writeln!(s, "shard digest={:016x}", self.shard_digest).unwrap();
        writeln!(
            s,
            "shard decisions={} served={} unserved={} pf={:.6}",
            self.shard_decisions, self.shard_trips_served, self.shard_trips_unserved, self.shard_pf
        )
        .unwrap();
        writeln!(
            s,
            "env   served={} expired={} pf={:.6}",
            self.env_trips, self.env_expired, self.env_pf
        )
        .unwrap();
        s
    }
}

/// The `shard-differential-fidelity` oracle: layout-grid bit-equality plus
/// the unconditional validity checks plus the bounded demand comparison
/// (see the module docs for the contract).
pub fn shard_differential_fidelity(
    scenario: &Scenario,
    base: &RunArtifacts,
) -> Result<(), OracleFailure> {
    // --- Exact: the (shards, threads) grid is bit-identical. ---
    let oracle = run_sharded(scenario, 1, 1);
    let want = oracle.digest();
    let mut grid: Vec<(usize, usize)> = vec![(scenario.shards, 1), (1, scenario.threads)];
    grid.push((scenario.shards, scenario.threads));
    grid.retain(|&(s, t)| (s, t) != (1, 1));
    grid.dedup();
    for (shards, threads) in grid {
        let env = run_sharded(scenario, shards, threads);
        if env.digest() != want {
            return fail(format!(
                "sharded digest diverged: {shards} shards x {threads} threads != 1x1 \
                 ({:016x} vs {want:016x}, policy {:?})",
                env.digest(),
                scenario.shard_policy,
            ));
        }
    }

    // --- Exact: unconditional validity of the sharded run. ---
    let rows = oracle.taxi_rows();
    if rows.len() != scenario.fleet_size {
        return fail(format!(
            "fleet not conserved: {} taxis accounted, {} configured (policy {:?})",
            rows.len(),
            scenario.fleet_size,
            scenario.shard_policy,
        ));
    }
    let mut trips_on_rows = 0u64;
    for (i, row) in rows.iter().enumerate() {
        if row.id != i as u32 {
            return fail(format!("taxi id {} occupies ledger rank {i}", row.id));
        }
        if !(0.0..=1.0).contains(&row.soc) || !row.soc.is_finite() {
            return fail(format!("taxi {} has out-of-range soc {}", row.id, row.soc));
        }
        trips_on_rows += u64::from(row.trips);
    }
    if trips_on_rows != oracle.trips_served() {
        return fail(format!(
            "ledger/counter split: per-taxi trips sum {trips_on_rows}, engine counted {}",
            oracle.trips_served(),
        ));
    }
    let max_wait = oracle.max_queue_wait_minutes();
    if max_wait > QUEUE_PATIENCE_MINUTES + SLOT_MINUTES {
        return fail(format!(
            "queue wait {max_wait} min exceeds the patience bound {} + one slot",
            QUEUE_PATIENCE_MINUTES,
        ));
    }

    // --- Bounded: total demand realization vs the minute engine. ---
    // Skipped under fault plans (not ported to the sharded engine). The
    // minute engine's total omits requests still waiting in its pool at
    // cutoff; the +20 slack absorbs that truncation on these short runs.
    if scenario.fault_plan.is_none() {
        let env_demand = base.ledger.trips().len() as u64 + base.ledger.expired_requests;
        let shard_demand = oracle.trips_served() + oracle.trips_unserved();
        let max = env_demand.max(shard_demand).max(1) as f64;
        let bound = 6.0 * max.sqrt() + 20.0;
        let delta = env_demand.abs_diff(shard_demand) as f64;
        if delta > bound {
            return fail(format!(
                "demand realizations diverged beyond sampling noise: minute engine {env_demand}, \
                 sharded {shard_demand} (|delta| {delta} > bound {bound:.1})",
            ));
        }
    }
    Ok(())
}
