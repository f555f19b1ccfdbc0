//! Regenerates the paper's Section IV evaluation: Figs. 10–16, Tables
//! II–IV, plus the action-space ablation from DESIGN.md.
//!
//! ```text
//! cargo run --release -p fairmove-bench --bin evaluation [-- <exp…> --scale <s>]
//!     exp ∈ {summary, fig10, fig11, fig12, fig13, fig14, fig15, fig16,
//!            table2, table3, table4, ablation-k, ablation-state};
//!            default: all but the ablations
//!     s   ∈ {test, small, default, full};         default small
//! ```
//!
//! All methods are trained (where applicable), frozen, and evaluated on the
//! identical demand realization; every number is relative to the GT run.

use fairmove_bench::parse_scale;
use fairmove_bench::report::{pct, Table};
use fairmove_core::experiments::{alpha_sweep, ComparisonConfig, ComparisonResults};
use fairmove_core::method::MethodKind;
use fairmove_metrics::{comparison, findings};
use fairmove_sim::FleetLedger;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| {
            a.starts_with("fig")
                || a.starts_with("table")
                || a.starts_with("ablation")
                || *a == "summary"
        })
        .map(String::as_str)
        .collect();
    let want = |name: &str| wanted.is_empty() || wanted.contains(&name);

    println!("== FairMove evaluation (scale: {}) ==\n", scale.name());

    // The ablation sweeps train extra FairMove instances; run them only
    // when explicitly requested.
    if wanted.contains(&"ablation-k") {
        ablation_k(scale);
        if wanted == ["ablation-k"] {
            return;
        }
    }
    if wanted.contains(&"ablation-state") {
        ablation_state(scale);
        if wanted == ["ablation-state"] {
            return;
        }
    }

    if want("table4") {
        table4(scale);
        if wanted == ["table4"] {
            return;
        }
    }

    let main_experiments = [
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table2", "table3",
        "summary",
    ];
    if !main_experiments.iter().any(|e| want(e)) {
        return;
    }

    println!(
        "training + evaluating all methods ({} episodes each) …\n",
        scale.train_episodes()
    );
    let config = ComparisonConfig {
        sim: scale.sim(),
        train_episodes: scale.train_episodes(),
        alpha: 0.6,
        methods: MethodKind::baselines_and_fairmove().to_vec(),
        eval_seeds: scale.eval_seeds(),
    };
    let results = ComparisonResults::run(&config);
    export_run_reports(&results, scale.name());

    if want("summary") {
        summary(&results);
    }
    if want("fig10") {
        fig10(&results);
    }
    if want("fig11") {
        fig11(&results);
    }
    if want("fig12") {
        fig12(&results);
    }
    if want("fig13") {
        fig13(&results);
    }
    if want("fig14") {
        fig14(&results);
    }
    if want("fig15") {
        fig15(&results);
    }
    if want("fig16") {
        fig16(&results);
    }
    if want("table2") {
        table2(&results);
    }
    if want("table3") {
        table3(&results);
    }
}

/// Writes one JSONL run report per method (GT first) next to the text
/// output: slot-latency histograms, training curves, and headline metrics,
/// ready for cross-commit diffing.
fn export_run_reports(results: &ComparisonResults, scale: &str) {
    let path = format!("run_reports_eval_{scale}.jsonl");
    let result = std::fs::File::create(&path).and_then(|mut f| {
        fairmove_telemetry::RunReport::write_jsonl(results.run_reports(), &mut f)
    });
    match result {
        Ok(()) => println!("run reports (JSONL): {path}\n"),
        Err(e) => eprintln!("failed to write {path}: {e}\n"),
    }
}

/// Diagnostic: raw per-method fleet statistics (not a paper artifact, but
/// what every paper number is built from).
fn summary(results: &ComparisonResults) {
    println!("--- Run summary (diagnostics) ---");
    let mut t = Table::new(&[
        "method", "trips", "charges", "expired", "revenue", "cost", "mean PE", "PF",
    ]);
    for (name, ledger) in ledgers(results) {
        let (rev, cost) = ledger.totals();
        let pes = ledger.profit_efficiencies();
        let mean_pe = pes.iter().sum::<f64>() / pes.len().max(1) as f64;
        t.row(&[
            name.into(),
            ledger.trips().len().to_string(),
            ledger.charges().len().to_string(),
            ledger.expired_requests.to_string(),
            format!("{rev:.0}"),
            format!("{cost:.0}"),
            format!("{mean_pe:.1}"),
            format!("{:.1}", fairmove_metrics::profit_fairness(&pes)),
        ]);
    }
    t.print();
    println!();
}

fn ledgers(results: &ComparisonResults) -> Vec<(&'static str, &FleetLedger)> {
    let mut out = vec![("GT", results.gt_ledger())];
    for m in &results.methods {
        out.push((m.kind.name(), &m.outcome.ledger));
    }
    out
}

/// Fig. 10: per-trip cruise-time distribution per method.
/// Paper: GT median 6.5 min → FairMove 5.4 min, variance shrinks.
fn fig10(results: &ComparisonResults) {
    println!("--- Fig. 10: per-trip cruise time (min) ---");
    let mut t = Table::new(&["method", "P25", "median", "P75", "mean"]);
    for (name, ledger) in ledgers(results) {
        let cdf = findings::cruise_time_distribution(ledger);
        t.row(&[
            name.into(),
            format!("{:.1}", cdf.quantile(0.25)),
            format!("{:.1}", cdf.median()),
            format!("{:.1}", cdf.quantile(0.75)),
            format!("{:.1}", cdf.mean()),
        ]);
    }
    t.print();
    println!("paper: GT median 6.5 → FairMove 5.4, with smaller variance\n");
}

/// Fig. 11: average PRCT per hour of day, per method.
fn fig11(results: &ComparisonResults) {
    println!("--- Fig. 11: hourly PRCT (cruise-time reduction vs GT) ---");
    hourly_table(results, comparison::hourly_prct);
    println!("paper: FairMove >40% at 05:00–07:00 (thin-demand hours)\n");
}

/// Fig. 12: per-charge idle-time distribution per method.
/// Paper: FairMove P75 < 22 min; SD2 prolongs idle time.
fn fig12(results: &ComparisonResults) {
    println!("--- Fig. 12: per-charge idle time (min) ---");
    let mut t = Table::new(&["method", "P25", "median", "P75", "mean"]);
    for (name, ledger) in ledgers(results) {
        let cdf = findings::idle_time_distribution(ledger);
        t.row(&[
            name.into(),
            format!("{:.1}", cdf.quantile(0.25)),
            format!("{:.1}", cdf.median()),
            format!("{:.1}", cdf.quantile(0.75)),
            format!("{:.1}", cdf.mean()),
        ]);
    }
    t.print();
    println!("paper: FairMove 75% of idle < 22 min; SD2 worst (herding)\n");
}

/// Fig. 13: average PRIT per hour of day, per method.
fn fig13(results: &ComparisonResults) {
    println!("--- Fig. 13: hourly PRIT (idle-time reduction vs GT) ---");
    hourly_table(results, comparison::hourly_prit);
    println!("paper: FairMove best in charging-peak hours (04–05, 17–18)\n");
}

fn hourly_table(
    results: &ComparisonResults,
    f: impl Fn(&FleetLedger, &FleetLedger) -> [Option<f64>; 24],
) {
    let gt = results.gt_ledger();
    let mut header = vec!["hour".to_string()];
    header.extend(results.methods.iter().map(|m| m.kind.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    let series: Vec<[Option<f64>; 24]> = results
        .methods
        .iter()
        .map(|m| f(gt, &m.outcome.ledger))
        .collect();
    for h in 0..24 {
        let mut row = vec![format!("{h:02}:00")];
        for s in &series {
            row.push(s[h].map(pct).unwrap_or_else(|| "-".into()));
        }
        t.row(&row);
    }
    t.print();
}

/// Fig. 14: hourly profit-efficiency distribution per method.
/// Paper: GT median 45.2 → FairMove 53.1, variance shrinks.
fn fig14(results: &ComparisonResults) {
    println!("--- Fig. 14: per-taxi profit efficiency (CNY/h) ---");
    let mut t = Table::new(&["method", "P25", "median", "P75", "variance"]);
    for (name, ledger) in ledgers(results) {
        let pes = ledger.profit_efficiencies();
        let cdf = fairmove_metrics::Cdf::new(pes.iter().copied());
        t.row(&[
            name.into(),
            format!("{:.1}", cdf.quantile(0.25)),
            format!("{:.1}", cdf.median()),
            format!("{:.1}", cdf.quantile(0.75)),
            format!("{:.1}", fairmove_metrics::profit_fairness(&pes)),
        ]);
    }
    t.print();
    println!("paper: GT median 45.2 → FairMove 53.1, smaller variance\n");
}

/// Fig. 15: overall PIPE per method.
/// Paper: FairMove +25.2%, DQN +7.5%, SD2 −5%.
fn fig15(results: &ComparisonResults) {
    println!("--- Fig. 15: PIPE (profit-efficiency increase vs GT) ---");
    let mut t = Table::new(&["method", "PIPE"]);
    for m in &results.methods {
        t.row(&[m.kind.name().into(), pct(m.report.pipe)]);
    }
    t.print();
    println!("paper: FairMove +25.2%, DQN +7.5%, SD2 −5%\n");
}

/// Fig. 16: PIPF per method.
/// Paper: FairMove 54.7%, TQL 28.7%, DQN 17.9%, SD2/TBA ≈13%.
fn fig16(results: &ComparisonResults) {
    println!("--- Fig. 16: PIPF (profit-fairness increase vs GT) ---");
    let mut t = Table::new(&["method", "PIPF"]);
    for m in &results.methods {
        t.row(&[m.kind.name().into(), pct(m.report.pipf)]);
    }
    t.print();
    println!("paper: FairMove +54.7%, TQL +28.7%, DQN +17.9%, SD2/TBA ≈ +13%\n");
}

/// Table II: PRCT per method.
/// Paper: SD2 19.4, TQL 13.7, DQN 23.6, TBA 21.3, FairMove 32.1 (%).
fn table2(results: &ComparisonResults) {
    println!("--- Table II: PRCT per method ---");
    let mut t = Table::new(&["method", "PRCT", "paper"]);
    let paper = [
        ("SD2", 19.4),
        ("TQL", 13.7),
        ("DQN", 23.6),
        ("TBA", 21.3),
        ("FairMove", 32.1),
    ];
    for m in &results.methods {
        let reference = paper
            .iter()
            .find(|(n, _)| *n == m.kind.name())
            .map(|(_, v)| format!("+{v:.1}%"))
            .unwrap_or_else(|| "-".into());
        t.row(&[m.kind.name().into(), pct(m.report.prct), reference]);
    }
    t.print();
    println!();
}

/// Table III: PRIT per method.
/// Paper: SD2 −23.1, TQL 8.4, DQN 21, TBA 3.1, FairMove 43.3 (%).
fn table3(results: &ComparisonResults) {
    println!("--- Table III: PRIT per method ---");
    let mut t = Table::new(&["method", "PRIT", "paper"]);
    let paper = [
        ("SD2", -23.1),
        ("TQL", 8.4),
        ("DQN", 21.0),
        ("TBA", 3.1),
        ("FairMove", 43.3),
    ];
    for m in &results.methods {
        let reference = paper
            .iter()
            .find(|(n, _)| *n == m.kind.name())
            .map(|(_, v)| format!("{v:+.1}%"))
            .unwrap_or_else(|| "-".into());
        t.row(&[m.kind.name().into(), pct(m.report.prit), reference]);
    }
    t.print();
    println!();
}

/// Table IV: average CMA2C reward vs the weight α.
/// Paper: 6.95, 7.05, 7.16, 7.44, 7.39, 7.15 for α = 0 … 1 — peak at 0.6–0.8.
fn table4(scale: fairmove_bench::Scale) {
    println!("--- Table IV: average reward vs α ---");
    let alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let sweep = alpha_sweep(&scale.sim(), scale.train_episodes(), &alphas);
    let mut t = Table::new(&["alpha", "avg reward"]);
    for (alpha, reward) in &sweep {
        t.row(&[format!("{alpha:.1}"), format!("{reward:.3}")]);
    }
    t.print();
    let best = sweep
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(a, _)| *a)
        .unwrap_or(f64::NAN);
    println!("best α: {best:.1} (paper: 0.6–0.8)\n");
}

/// DESIGN.md ablation: what do the global-view and fairness state features
/// buy? Trains CMA2C with feature groups zeroed out.
fn ablation_state(scale: fairmove_bench::Scale) {
    use fairmove_agents::Cma2cConfig;
    use fairmove_city::City;
    use fairmove_core::method::Method;
    use fairmove_core::runner::Runner;

    println!("--- Ablation: state feature groups ---");
    let sim = scale.sim();
    let city = City::generate(sim.city.clone());
    let variants: [(&str, bool, bool); 3] = [
        ("full state", false, false),
        ("no global view", true, false),
        ("no fairness features", false, true),
    ];
    let mut t = Table::new(&["variant", "PIPE", "PIPF", "PRCT"]);
    // One GT reference for all variants.
    let runner = Runner::new(sim.clone(), scale.train_episodes(), 0.6);
    let mut gt = Method::build(MethodKind::Gt, &city, &sim, 0.6);
    let (_, gt_out) = runner.train_and_evaluate(&mut gt);
    // The three variants are independent training runs against the shared
    // GT reference; fan them out, keeping table rows in variant order.
    let rows = fairmove_parallel::ordered_map(variants.to_vec(), |(label, no_global, no_fair)| {
        let mut method = Method::fairmove_with(
            &city,
            Cma2cConfig {
                seed: sim.seed,
                ablate_global_view: no_global,
                ablate_fairness_features: no_fair,
                ..Cma2cConfig::default()
            },
        );
        let (_, out) = runner.train_and_evaluate(&mut method);
        let report = fairmove_metrics::MethodReport::compute(label, &gt_out.ledger, &out.ledger);
        [
            label.to_string(),
            pct(report.pipe),
            pct(report.pipf),
            pct(report.prct),
        ]
    });
    for row in &rows {
        t.row(row);
    }
    t.print();
    println!(
        "note: with short training budgets the fairness-feature effect is below\n\
sampling noise (the feature weights start random and small); run at\n\
--scale small or larger for a powered comparison.\n"
    );
}

/// DESIGN.md ablation: how many nearest stations should the charge action
/// expose? The paper fixes k = 5; this sweep shows the tradeoff.
fn ablation_k(scale: fairmove_bench::Scale) {
    println!("--- Ablation: nearest-station action count k ---");
    let mut t = Table::new(&["k", "PIPE", "PIPF", "PRIT"]);
    // Fan over the k sweep; each comparison runs its own GT + FairMove pair
    // with inner threads pinned to 1 so the sweep is the only fan-out level.
    let rows = fairmove_parallel::ordered_map(vec![1usize, 3, 5, 8], |k| {
        let mut sim = scale.sim();
        sim.city.nearest_stations_k = k;
        let config = ComparisonConfig {
            sim,
            train_episodes: scale.train_episodes(),
            alpha: 0.6,
            methods: vec![MethodKind::FairMove],
            eval_seeds: scale.eval_seeds(),
        };
        let results = ComparisonResults::run_with_threads(&config, 1);
        let m = &results.methods[0];
        [
            k.to_string(),
            pct(m.report.pipe),
            pct(m.report.pipf),
            pct(m.report.prit),
        ]
    });
    for row in &rows {
        t.row(row);
    }
    t.print();
    println!("k = 1 collapses to nearest-station (SD2-style herding); larger k\nwidens choice at the cost of action-space size. Paper uses k = 5.\n");
}
