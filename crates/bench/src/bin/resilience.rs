//! Resilience benchmark: how gracefully does each displacement method
//! degrade under infrastructure faults?
//!
//! ```text
//! cargo run --release -p fairmove-bench --bin resilience [-- --smoke | --scale <s>]
//!     --smoke   test scale, fewer methods (the CI smoke job)
//!     s ∈ {test, small, default, full};   default small
//! ```
//!
//! Every method is trained fault-free under the training watchdog, frozen,
//! and then evaluated once per named fault scenario (calm, charger-outage,
//! demand-shock, comms-degraded, combined — see `fairmove_faults::scenario`)
//! on the shared evaluation seed. Policies run wrapped in
//! [`ResilientPolicy`], so malformed outputs and tripped health checks
//! degrade to a stay/nearest-charge fallback instead of crashing the run.
//!
//! Per (method, scenario) one [`RunReport`] line goes to
//! `run_reports_resilience.jsonl`; its telemetry snapshot carries the
//! `faults.*` injection counters and `resilient.*` fallback counters.

use fairmove_bench::report::Table;
use fairmove_bench::{parse_scale, Scale};
use fairmove_core::method::{Method, MethodKind};
use fairmove_core::runner::Runner;
use fairmove_core::watchdog::WatchdogConfig;
use fairmove_sim::{FleetShape, ResilientPolicy};
use fairmove_telemetry::{RunReport, Telemetry};

/// Fault-plan seed: fixed so every method faces the identical scenarios.
const FAULT_SEED: u64 = 4242;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = parse_scale(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let scale = if smoke { Scale::Test } else { scale };
    let methods: &[MethodKind] = if smoke {
        &[MethodKind::Sd2, MethodKind::FairMove]
    } else {
        &[
            MethodKind::Gt,
            MethodKind::Sd2,
            MethodKind::Dqn,
            MethodKind::FairMove,
        ]
    };

    let sim = scale.sim();
    let shape = FleetShape {
        n_regions: sim.city.n_regions as u16,
        n_stations: sim.city.n_stations as u16,
        fleet_size: sim.fleet_size as u32,
        horizon_slots: sim.days * fairmove_city::SLOTS_PER_DAY,
    };
    let battery = fairmove_faults::scenario_battery(FAULT_SEED, &shape);
    println!(
        "== FairMove resilience (scale: {}, {} methods x {} scenarios) ==\n",
        scale.name(),
        methods.len(),
        battery.len()
    );

    let city = fairmove_city::City::generate(sim.city.clone());

    // One job per method: guarded fault-free training, then the frozen
    // policy against every fault scenario. Jobs are independent (own
    // environments, RNG streams, telemetry registries), so they fan out
    // over worker threads; blocks and reports are collected in method
    // order, keeping stdout and the JSONL byte-identical to a serial run.
    let per_method = fairmove_parallel::ordered_map(methods.to_vec(), |kind| {
        let mut block = String::new();
        let mut method_reports: Vec<RunReport> = Vec::new();
        let mut method = Method::build(kind, &city, &sim, 0.6);
        // Fault-free training under the watchdog (the paper's protocol:
        // evaluation faults are never seen during training).
        let trainer = Runner::new(sim.clone(), scale.train_episodes(), 0.6);
        let (curve, watchdog) = if kind.is_learning() {
            trainer.train_guarded(&mut method, &WatchdogConfig::default())
        } else {
            (Vec::new(), Default::default())
        };
        method.freeze();
        if watchdog.bad_episodes() > 0 {
            block.push_str(&format!(
                "{}: watchdog intervened during training ({} restores, {} unrecovered)\n",
                kind.name(),
                watchdog.restores,
                watchdog.unrecovered
            ));
        }

        let mut calm_pe = f64::NAN;
        let mut table = Table::new(&[
            "scenario",
            "mean PE",
            "vs calm",
            "PF",
            "trips",
            "injected",
            "fallbacks",
        ]);
        for (name, plan) in &battery {
            let telemetry = Telemetry::enabled();
            let runner = Runner::new(sim.clone(), 0, 0.6).with_telemetry(&telemetry);
            // Identical exploration stream per scenario, so differences come
            // from the faults alone.
            method.as_policy().reseed_exploration(FAULT_SEED);
            let mut wrapped = ResilientPolicy::new(method.as_policy());
            let outcome = runner.run_once_with_faults(&mut wrapped, sim.seed, Some(plan));
            let stats = *wrapped.stats();
            drop(wrapped);
            if *name == "calm" {
                calm_pe = outcome.mean_pe;
            }
            let snap = telemetry.snapshot();
            let injected = snap.counter("faults.active_slots").unwrap_or(0);
            table.row(&[
                (*name).into(),
                format!("{:.1}", outcome.mean_pe),
                if calm_pe.is_finite() && calm_pe.abs() > f64::EPSILON {
                    format!("{:+.1}%", 100.0 * (outcome.mean_pe - calm_pe) / calm_pe)
                } else {
                    "-".into()
                },
                format!("{:.1}", outcome.pf),
                outcome.ledger.trips().len().to_string(),
                injected.to_string(),
                format!(
                    "{}+{}",
                    stats.fallback_slots + stats.fallback_actions,
                    stats.health_trips
                ),
            ]);
            method_reports.push(runner.run_report(kind.name(), name, &curve, &outcome));
        }
        block.push_str(&format!("--- {} under fault scenarios ---\n", kind.name()));
        block.push_str(&table.render());
        block.push('\n');
        (block, method_reports)
    });

    let mut reports: Vec<RunReport> = Vec::new();
    for (block, mut method_reports) in per_method {
        print!("{block}");
        reports.append(&mut method_reports);
    }

    let path = "run_reports_resilience.jsonl";
    let result =
        std::fs::File::create(path).and_then(|mut f| RunReport::write_jsonl(&reports, &mut f));
    match result {
        Ok(()) => println!("run reports (JSONL): {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}
