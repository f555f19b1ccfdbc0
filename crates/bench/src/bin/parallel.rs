//! Parallel-speedup benchmark: how much walltime the worker-thread fan-out
//! buys, and proof that it buys it without changing a single bit.
//!
//! ```text
//! cargo run --release -p fairmove-bench --bin parallel [-- --smoke]
//!     --smoke   tiny sizes and one measured round (the CI smoke job)
//! ```
//!
//! Times the end-to-end train/eval comparison harness
//! ([`ComparisonResults::run_with_threads`]) at 1 vs N threads with a
//! steady clock ([`std::time::Instant`]) after a warmup round, reporting
//! the median of N measured rounds in simulated slots per second, and
//! asserts that every ledger and training curve is identical.
//!
//! Results land in `BENCH_parallel.json` (hand-rolled JSON, no deps).

use fairmove_city::SLOTS_PER_DAY;
use fairmove_core::experiments::{ComparisonConfig, ComparisonResults};
use fairmove_core::method::MethodKind;
use fairmove_sim::SimConfig;
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threads = fairmove_parallel::thread_count();
    let rounds = if smoke { 1 } else { 5 };
    println!(
        "== FairMove parallel speedup (threads: {threads}, rounds: {rounds}{}) ==\n",
        if smoke { ", smoke" } else { "" }
    );

    let compare = bench_compare(smoke, threads, rounds);

    let json =
        format!("{{\"smoke\":{smoke},\"threads\":{threads},\"rounds\":{rounds},{compare}}}\n");
    let path = "BENCH_parallel.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs `f` once unmeasured, then `rounds` measured times, returning the
/// median walltime in seconds. `Instant` is monotonic, so wall-clock
/// adjustments mid-bench cannot produce negative or skewed samples.
fn median_seconds<R>(rounds: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut result = f(); // warmup
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            result = f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], result)
}

fn bench_compare(smoke: bool, threads: usize, rounds: usize) -> String {
    let mut sim = SimConfig::test_scale();
    sim.seed = 97;
    let (train_episodes, eval_seeds, methods) = if smoke {
        (1, 1, vec![MethodKind::Sd2, MethodKind::FairMove])
    } else {
        (2, 2, MethodKind::baselines_and_fairmove().to_vec())
    };
    let config = ComparisonConfig {
        sim,
        train_episodes,
        alpha: 0.6,
        methods,
        eval_seeds,
    };
    // Every job (GT + each method) evaluates on `eval_seeds` seeds, and
    // learning methods additionally train for `train_episodes` episodes;
    // each episode/eval simulates the full horizon. That slot count is the
    // unit of throughput.
    let jobs = 1 + config.methods.len() as u32;
    let learning = config.methods.iter().filter(|m| m.is_learning()).count() as u32;
    let runs = jobs * config.eval_seeds.max(1) + learning * config.train_episodes;
    let slots = u64::from(runs) * u64::from(config.sim.days * SLOTS_PER_DAY);

    let (serial_s, serial_res) =
        median_seconds(rounds, || ComparisonResults::run_with_threads(&config, 1));
    let (parallel_s, parallel_res) = median_seconds(rounds, || {
        ComparisonResults::run_with_threads(&config, threads)
    });
    assert_eq!(
        serial_res.gt.ledger, parallel_res.gt.ledger,
        "parallel GT ledger diverged from serial"
    );
    assert_eq!(serial_res.methods.len(), parallel_res.methods.len());
    for (a, b) in serial_res.methods.iter().zip(&parallel_res.methods) {
        assert_eq!(
            a.outcome.ledger, b.outcome.ledger,
            "parallel {:?} ledger diverged from serial",
            a.kind
        );
        let bits = |curve: &[f64]| curve.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a.training_curve),
            bits(&b.training_curve),
            "parallel {:?} training curve diverged from serial",
            a.kind
        );
    }

    let serial_tput = slots as f64 / serial_s;
    let parallel_tput = slots as f64 / parallel_s;
    println!(
        "--- compare ({} methods + GT, {slots} slots) ---",
        config.methods.len()
    );
    println!("serial:   {serial_s:.3} s  ({serial_tput:.0} slots/s)");
    println!("parallel: {parallel_s:.3} s  ({parallel_tput:.0} slots/s)");
    println!(
        "speedup:  {:.2}x, ledgers identical\n",
        serial_s / parallel_s
    );

    format!(
        "\"compare\":{{\"slots\":{slots},\
         \"serial_seconds\":{serial_s},\"parallel_seconds\":{parallel_s},\
         \"serial_slots_per_second\":{serial_tput},\"parallel_slots_per_second\":{parallel_tput},\
         \"speedup\":{},\"identical\":true}}",
        serial_s / parallel_s
    )
}
