//! Regenerates the paper's Section II data-driven findings: Fig. 2 through
//! Fig. 8 and the Table I record samples.
//!
//! ```text
//! cargo run --release -p fairmove-bench --bin figures [-- <exp…> --scale <s>]
//!     exp ∈ {fig2, fig3, fig4, fig5, fig6, fig7, fig8, table1}; default all
//!     s   ∈ {test, small, default, full};                       default small
//! ```
//!
//! Figures 3–8 are statistics of fleet behaviour, so they run one
//! ground-truth (no displacement) simulation at the chosen scale and slice
//! its ledger.

use fairmove_agents::GroundTruthPolicy;
use fairmove_bench::report::{pct, Table};
use fairmove_bench::{parse_scale, Scale};
use fairmove_city::HourOfDay;
use fairmove_data::schema::{GpsRecord, PartitionRecord, StationRecord, TransactionRecord};
use fairmove_data::{ChargingPricing, PriceBand, RegionArchetype};
use fairmove_metrics::findings;
use fairmove_sim::Environment;
use fairmove_telemetry::{RunReport, Telemetry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| a.starts_with("fig") || a.starts_with("table"))
        .map(String::as_str)
        .collect();
    let want = |name: &str| wanted.is_empty() || wanted.contains(&name);

    println!(
        "== FairMove Section II findings (scale: {}) ==\n",
        scale.name()
    );

    let needs_table1 = want("table1");
    let needs_sim = ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8"]
        .iter()
        .any(|f| want(f));

    // Table I's sample run (always at test scale) and the main ground-truth
    // simulation are independent; fan them out and print in the original
    // order once both are back. Only the main run carries telemetry.
    let telemetry = Telemetry::enabled();
    let mut envs = fairmove_parallel::ordered_map(
        vec![
            (Scale::Test.sim(), false, needs_table1),
            (scale.sim(), true, needs_sim),
        ],
        |(sim, with_telemetry, needed)| {
            needed.then(|| run_gt_sim(&sim, with_telemetry.then_some(&telemetry)))
        },
    );
    let main_env = envs.pop().expect("two sim jobs");
    let table1_env = envs.pop().expect("two sim jobs");

    if want("fig2") {
        fig2();
    }
    if let Some(env) = &table1_env {
        table1(env);
    }
    if !needs_sim {
        return;
    }

    println!("running ground-truth simulation …\n");
    let env = main_env.expect("main simulation ran");
    export_run_report(&env, &telemetry, scale);

    if want("fig3") {
        fig3(&env);
    }
    if want("fig4") {
        fig4(&env);
    }
    if want("fig5") {
        fig5(&env);
    }
    if want("fig6") {
        fig6(&env);
    }
    if want("fig7") {
        fig7(&env);
    }
    if want("fig8") {
        fig8(&env);
    }
}

/// Runs one ground-truth (no displacement) simulation to completion and
/// returns the finished environment for slicing.
fn run_gt_sim(sim: &fairmove_sim::SimConfig, telemetry: Option<&Telemetry>) -> Environment {
    let mut env = Environment::new(sim.clone());
    if let Some(t) = telemetry {
        env.set_telemetry(t);
    }
    let mut gt = GroundTruthPolicy::for_city(env.city(), sim.fleet_size, sim.seed);
    env.run(&mut gt);
    env
}

/// Serializes the ground-truth run's telemetry as a one-line JSONL run
/// report next to the text output, for cross-commit diffing.
fn export_run_report(env: &Environment, telemetry: &Telemetry, scale: Scale) {
    let pes = env.ledger().profit_efficiencies();
    let mean_pe = pes.iter().sum::<f64>() / pes.len().max(1) as f64;
    let report = RunReport {
        name: "GT".into(),
        context: format!("figures scale={}", scale.name()),
        training_curve: Vec::new(),
        // The figures run has no reward objective; serialized as null.
        average_reward: f64::NAN,
        mean_pe,
        pf: fairmove_metrics::profit_fairness(&pes),
        trips: env.ledger().trips().len() as u64,
        charges: env.ledger().charges().len() as u64,
        expired_requests: env.ledger().expired_requests,
        snapshot: telemetry.snapshot(),
    };
    let path = format!("run_report_figures_{}.jsonl", scale.name());
    let result = std::fs::File::create(&path)
        .and_then(|mut f| fairmove_telemetry::RunReport::write_jsonl([&report], &mut f));
    match result {
        Ok(()) => println!("run report (JSONL): {path}\n"),
        Err(e) => eprintln!("failed to write {path}: {e}\n"),
    }
}

/// Fig. 2: the time-variant charging pricing schedule.
fn fig2() {
    println!("--- Fig. 2: time-variant charging pricing ---");
    let pricing = ChargingPricing::default();
    let mut t = Table::new(&["hour", "band", "CNY/kWh"]);
    for h in HourOfDay::all() {
        let band = match pricing.band_at(h) {
            PriceBand::OffPeak => "off-peak",
            PriceBand::Flat => "flat",
            PriceBand::Peak => "peak",
        };
        t.row(&[
            h.to_string(),
            band.to_string(),
            format!("{:.1}", pricing.rate_at(h)),
        ]);
    }
    t.print();
    println!("paper rates: off-peak 0.9, flat 1.2, peak 1.6 CNY/kWh\n");
}

/// Table I: example records of each dataset (from the test-scale sample
/// simulation run in `main`).
fn table1(env: &Environment) {
    println!("--- Table I: dataset record samples ---");
    let trip = &env.ledger().trips()[0];
    let gps = GpsRecord {
        vehicle_id: trip.taxi.0,
        position: env.city().region(trip.origin).centroid,
        timestamp: trip.pickup_at,
        direction_deg: 135.0,
        speed_kmh: 32.0,
        occupied: true,
    };
    println!("GPS:         {}", gps.to_csv());
    let tx = TransactionRecord {
        vehicle_id: trip.taxi.0,
        pickup_time: trip.pickup_at,
        dropoff_time: trip.dropoff_at,
        pickup_pos: env.city().region(trip.origin).centroid,
        dropoff_pos: env.city().region(trip.destination).centroid,
        operating_km: trip.distance_km,
        cruising_km: f64::from(trip.cruise_minutes) * 0.25,
        fare_cny: trip.fare_cny,
    };
    println!("Transaction: {}", tx.to_csv());
    let st = env.city().stations().first().expect("has stations");
    let station = StationRecord {
        station_id: st.id,
        name: format!("Station {}", st.id),
        position: st.position,
        fast_points: st.charging_points,
    };
    println!("Station:     {}", station.to_csv());
    let r = &env.city().partition().regions()[0];
    let partition = PartitionRecord {
        region_id: r.id,
        centroid: r.centroid,
        area_km2: r.area_km2,
    };
    println!("Partition:   {}\n", partition.to_csv());
}

/// Fig. 3: CDF of per-event charge time. Paper: 73.5% of events in 45–120 min.
fn fig3(env: &Environment) {
    println!("--- Fig. 3: charge-time distribution ---");
    let cdf = findings::charge_durations(env.ledger());
    let mut t = Table::new(&["quantile", "minutes"]);
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        t.row(&[
            format!("P{:.0}", q * 100.0),
            format!("{:.0}", cdf.quantile(q)),
        ]);
    }
    t.print();
    println!(
        "fraction in 45–120 min: {} (paper: 73.5%)\n",
        pct(cdf.fraction_in(45.0, 120.0))
    );
}

/// Fig. 4: charging events per hour — peaks in the cheap windows.
fn fig4(env: &Environment) {
    println!("--- Fig. 4: charging events per hour ---");
    let pricing = ChargingPricing::default();
    let hist = findings::charge_events_by_hour(env.ledger());
    let max = *hist.iter().max().unwrap_or(&1) as f64;
    let mut t = Table::new(&["hour", "band", "events", "histogram"]);
    for h in HourOfDay::all() {
        let band = match pricing.band_at(h) {
            PriceBand::OffPeak => "off",
            PriceBand::Flat => "flat",
            PriceBand::Peak => "peak",
        };
        let n = hist[h.index()];
        let bar = "#".repeat(((f64::from(n) / max) * 40.0) as usize);
        t.row(&[h.to_string(), band.into(), n.to_string(), bar]);
    }
    t.print();
    println!("paper peaks: 2:00–6:00, 12:00–14:00, 17:00–18:00 (cheap windows)\n");
}

/// Fig. 5: CDF of first cruise time after charging.
/// Paper: 40% under 10 min, ~10% over an hour.
fn fig5(env: &Environment) {
    println!("--- Fig. 5: first cruise time after charging ---");
    let cdf = findings::first_cruise_after_charge(env.ledger());
    println!("samples: {}", cdf.len());
    println!(
        "≤ 10 min: {} (paper ≈ 40%)",
        pct(cdf.fraction_at_or_below(10.0))
    );
    println!(
        "> 60 min: {} (paper ≈ 10%)",
        pct(1.0 - cdf.fraction_at_or_below(60.0))
    );
    let mut t = Table::new(&["quantile", "minutes"]);
    for q in [0.25, 0.5, 0.75, 0.9] {
        t.row(&[
            format!("P{:.0}", q * 100.0),
            format!("{:.0}", cdf.quantile(q)),
        ]);
    }
    t.print();
    println!();
}

/// Fig. 6: first cruise time differs by charging station.
fn fig6(env: &Environment) {
    println!("--- Fig. 6: first cruise time by station (3 busiest) ---");
    let by_station = findings::first_cruise_by_station(env.ledger());
    let mut stations: Vec<_> = by_station.iter().collect();
    stations.sort_by_key(|(_, v)| std::cmp::Reverse(v.len()));
    let mut t = Table::new(&["station", "samples", "P25", "median", "P75"]);
    for (id, samples) in stations.iter().take(3) {
        let cdf = fairmove_metrics::Cdf::new(samples.iter().copied());
        t.row(&[
            id.to_string(),
            samples.len().to_string(),
            format!("{:.0}", cdf.quantile(0.25)),
            format!("{:.0}", cdf.median()),
            format!("{:.0}", cdf.quantile(0.75)),
        ]);
    }
    t.print();
    println!("paper: medians differ across stations — station choice affects t_cruise^(1)\n");
}

/// Fig. 7: average per-trip revenue by region at three time windows.
fn fig7(env: &Environment) {
    println!("--- Fig. 7: per-trip revenue by region and time window ---");
    let n = env.city().n_regions();
    let windows = [
        (0u8, 1u8, "late night 00–01"),
        (8, 9, "morning rush 08–09"),
        (18, 19, "evening rush 18–19"),
    ];
    let mut t = Table::new(&[
        "window",
        "regions",
        "min",
        "mean",
        "max",
        "airport",
        "suburb mean",
    ]);
    for (start, end, label) in windows {
        let revenue = findings::per_region_trip_revenue(env.ledger(), n, start, end);
        let vals: Vec<f64> = revenue.iter().filter_map(|v| *v).collect();
        if vals.is_empty() {
            continue;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let airport = env
            .demand()
            .airport()
            .and_then(|a| revenue[a.index()])
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "-".into());
        let suburb: Vec<f64> = (0..n)
            .filter(|&i| {
                env.demand().archetype(fairmove_city::RegionId(i as u16)) == RegionArchetype::Suburb
            })
            .filter_map(|i| revenue[i])
            .collect();
        let suburb_mean = if suburb.is_empty() {
            "-".to_string()
        } else {
            format!("{:.0}", suburb.iter().sum::<f64>() / suburb.len() as f64)
        };
        t.row(&[
            label.into(),
            vals.len().to_string(),
            format!("{min:.0}"),
            format!("{mean:.0}"),
            format!("{max:.0}"),
            airport,
            suburb_mean,
        ]);
    }
    t.print();
    println!("paper: revenue ranges several CNY → 100+ CNY; airport always high\n");
}

/// Fig. 8: CDF of hourly profit efficiency without displacement.
/// Paper: P20 ≈ 36, P80 ≈ 51 — a 42% gap.
fn fig8(env: &Environment) {
    println!("--- Fig. 8: profit-efficiency distribution (no displacement) ---");
    let cdf = findings::profit_efficiency_distribution(env.ledger());
    let mut t = Table::new(&["quantile", "CNY/h"]);
    for q in [0.05, 0.2, 0.5, 0.8, 0.95] {
        t.row(&[
            format!("P{:.0}", q * 100.0),
            format!("{:.1}", cdf.quantile(q)),
        ]);
    }
    t.print();
    let gap = cdf.quantile(0.8) / cdf.quantile(0.2).max(1e-9) - 1.0;
    println!("P80 vs P20 gap: {} (paper: +42%)\n", pct(gap));
}
