//! The shrinking property-test driver.
//!
//! [`run`] generates seeded [`Scenario`]s, checks each against the full
//! oracle catalog ([`crate::oracle::check_all`]), and on the first failure
//! greedily shrinks the scenario — halve the horizon, halve the fleet, drop
//! fault events, drop the plan, halve the city — re-checking the *same*
//! oracle after every candidate, until no reduction reproduces the failure.
//! The result is a [`Failure`] carrying both the original and the minimal
//! scenario plus a ready-to-paste `#[test]` (see [`Failure::repro`]);
//! when `FAIRMOVE_REPRO_DIR` is set the repro is also written to a file so
//! CI can upload it as an artifact.

use crate::oracle::{check_all, OracleFailure};
use crate::scenario::{Scenario, ShardPolicyKind};
use fairmove_faults::{splitmix64, FaultPlan};
use std::fmt;

/// Driver settings; see [`DriverConfig::from_env`] for the env knobs.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Scenarios to generate and check.
    pub iterations: u64,
    /// Base seed; iteration `i` checks `Scenario::generate(splitmix64(seed + i))`.
    pub seed: u64,
    /// Upper bound on accepted shrink steps (each step re-runs the oracle
    /// suite at most once per remaining candidate).
    pub max_shrink_steps: u32,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            iterations: 10,
            seed: 0xFA1A_503E,
            max_shrink_steps: 64,
        }
    }
}

impl DriverConfig {
    /// Reads `FAIRMOVE_PROP_ITERS` and `FAIRMOVE_PROP_SEED` over the
    /// defaults — how CI scales the budget without code changes.
    pub fn from_env() -> Self {
        let mut config = DriverConfig::default();
        if let Some(iters) = env_u64("FAIRMOVE_PROP_ITERS") {
            config.iterations = iters;
        }
        if let Some(seed) = env_u64("FAIRMOVE_PROP_SEED") {
            config.seed = seed;
        }
        config
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// A clean driver run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Scenarios generated and fully checked.
    pub iterations: u64,
    /// Scenarios that carried a fault plan.
    pub with_faults: u64,
}

/// A failing scenario, minimized.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The oracle that caught it.
    pub oracle: &'static str,
    /// The failure message from the *original* scenario.
    pub message: String,
    /// The scenario as generated.
    pub original: Scenario,
    /// The greedily minimized scenario (same oracle still fails).
    pub shrunk: Scenario,
    /// The failure message from the shrunk scenario.
    pub shrunk_message: String,
    /// Shrink steps accepted.
    pub shrink_steps: u32,
}

impl Failure {
    /// A ready-to-paste regression test reproducing the minimal failure.
    pub fn repro(&self) -> String {
        let slug: String = self
            .oracle
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        format!(
            "// Minimal repro found by the fairmove-testkit property driver.\n\
             // Oracle `{}`: {}\n\
             #[test]\n\
             fn repro_{}_seed_{:x}() {{\n\
             \x20   let scenario = {};\n\
             \x20   fairmove_testkit::check_all(&scenario).expect(\"oracle must pass\");\n\
             }}\n",
            self.oracle,
            self.shrunk_message,
            slug,
            self.shrunk.seed,
            self.shrunk.to_code(),
        )
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "property driver failure: {}", self.message)?;
        writeln!(f, "  original: {}", self.original)?;
        writeln!(f, "  shrunk ({} steps): {}", self.shrink_steps, self.shrunk)?;
        writeln!(f, "ready-to-paste regression test:\n{}", self.repro())
    }
}

/// Runs `config.iterations` random scenarios through the oracle catalog.
/// The first failure is shrunk and returned; a clean run returns counts.
pub fn run(config: &DriverConfig) -> Result<DriverReport, Box<Failure>> {
    let mut with_faults = 0;
    for i in 0..config.iterations {
        let scenario = Scenario::generate(splitmix64(config.seed.wrapping_add(i)));
        with_faults += u64::from(scenario.fault_plan.is_some());
        if let Err(failure) = check_all(&scenario) {
            let failure = shrink(scenario, failure, config.max_shrink_steps);
            write_repro(&failure);
            return Err(Box::new(failure));
        }
    }
    Ok(DriverReport {
        iterations: config.iterations,
        with_faults,
    })
}

/// Greedy shrink: repeatedly try each reduction; accept the first that
/// still fails the same oracle; stop when none does (a local minimum).
fn shrink(original: Scenario, first: OracleFailure, max_steps: u32) -> Failure {
    let oracle = first.oracle;
    let mut current = original.clone();
    let mut message = first.message.clone();
    let mut steps = 0;
    'outer: while steps < max_steps {
        for candidate in candidates(&current) {
            if let Err(e) = check_all(&candidate) {
                if e.oracle == oracle {
                    current = candidate;
                    message = e.message;
                    steps += 1;
                    continue 'outer;
                }
            }
        }
        break;
    }
    Failure {
        oracle,
        message: first.message,
        original,
        shrunk: current,
        shrunk_message: message,
        shrink_steps: steps,
    }
}

/// Reduction candidates, most aggressive first.
fn candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // Halve the horizon, then take smaller and smaller bites (halving alone
    // can overshoot and strand the shrink at a local minimum; single-step
    // nibbles alone stall when adjacent scenarios happen to pass).
    if s.slots > 1 {
        for bite in [s.slots / 2, 4, 2, 1] {
            if bite > 0 && bite < s.slots {
                let mut c = s.clone();
                c.slots = s.slots - bite;
                out.push(c);
            }
        }
    }
    // Halve the fleet, then nibble with decreasing bites.
    if s.fleet_size > 1 {
        for bite in [s.fleet_size / 2, 3, 2, 1] {
            if bite > 0 && bite < s.fleet_size {
                let mut c = s.clone();
                c.fleet_size = s.fleet_size - bite;
                out.push(c);
            }
        }
    }
    // Drop the fault plan entirely, then halve its specs from either end.
    if let Some(plan) = &s.fault_plan {
        let mut c = s.clone();
        c.fault_plan = None;
        out.push(c);
        let specs = plan.specs();
        if specs.len() > 1 {
            for keep in [&specs[..specs.len() / 2], &specs[specs.len() / 2..]] {
                let mut c = s.clone();
                let mut p = FaultPlan::new(plan.seed());
                for spec in keep {
                    p.push(spec.clone());
                }
                c.fault_plan = Some(p);
                out.push(c);
            }
        } else if specs.len() == 1 {
            let mut c = s.clone();
            c.fault_plan = Some(FaultPlan::new(plan.seed()));
            out.push(c);
        }
    }
    // Halve the city (regions, stations, and points together).
    if s.n_regions > 2 {
        let mut c = s.clone();
        c.n_regions = (s.n_regions / 2).max(2);
        c.n_stations = (s.n_stations / 2).max(1).min(c.n_regions);
        c.charging_points = (s.charging_points / 2).max(c.n_stations as u32);
        out.push(c);
    }
    // Collapse charging to a single one-point station. Besides being the
    // simplest infrastructure, scarcity moves queue-driven failures earlier
    // in the run, which unlocks further slot shrinks.
    if s.n_stations > 1 || s.charging_points > 1 {
        let mut c = s.clone();
        c.n_stations = 1;
        c.charging_points = 1;
        out.push(c);
    }
    // Tame the demand.
    if s.daily_trips_per_taxi > 5.0 {
        let mut c = s.clone();
        c.daily_trips_per_taxi = (s.daily_trips_per_taxi / 2.0).max(4.0);
        out.push(c);
    }
    // Collapse the sharded layout toward the serial oracle and the cheap
    // policy — a failure that survives at 1x1/greedy is a far better repro.
    if s.shards > 1 {
        let mut c = s.clone();
        c.shards = 1;
        out.push(c);
    }
    if s.threads > 1 {
        let mut c = s.clone();
        c.threads = 1;
        out.push(c);
    }
    if s.shard_policy != ShardPolicyKind::Greedy {
        let mut c = s.clone();
        c.shard_policy = ShardPolicyKind::Greedy;
        out.push(c);
    }
    out
}

/// Writes the minimized repro into `FAIRMOVE_REPRO_DIR` (if set) so CI can
/// upload it as an artifact. Best-effort: IO errors only warn.
fn write_repro(failure: &Failure) {
    let Ok(dir) = std::env::var("FAIRMOVE_REPRO_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let path = std::path::Path::new(&dir).join(format!(
        "repro_{}_{:x}.rs",
        failure.oracle, failure.shrunk.seed
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, failure.repro()))
    {
        eprintln!("warning: could not write repro to {}: {e}", path.display());
    } else {
        eprintln!("wrote minimized repro to {}", path.display());
    }
}
