//! Parallel-speedup benchmark: how much walltime the worker-thread fan-out
//! buys, and proof that it buys it without changing a single bit.
//!
//! ```text
//! cargo run --release -p fairmove-bench --bin parallel [-- --smoke]
//!     --smoke   tiny sizes and one measured round (the CI smoke job)
//! ```
//!
//! Two workloads, each timed with a steady clock ([`std::time::Instant`])
//! after a warmup round, reporting the median of N measured rounds:
//!
//! * **matmul** — the dense actor/critic forward kernel
//!   ([`Matrix::matmul_threads`]) at serial vs full thread count, in
//!   GFLOP/s, with a bitwise-equality assertion over the output buffers;
//! * **compare** — the end-to-end train/eval comparison harness
//!   ([`ComparisonResults::run_with_threads`]) at 1 vs N threads, in
//!   simulated slots per second, with a ledger-equality assertion.
//!
//! Results land in `BENCH_parallel.json` (hand-rolled JSON, no deps).

use fairmove_city::SLOTS_PER_DAY;
use fairmove_core::experiments::{ComparisonConfig, ComparisonResults};
use fairmove_core::method::MethodKind;
use fairmove_rl::Matrix;
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

    let matmul = bench_matmul(smoke, threads, rounds);
    let compare = bench_compare(smoke, threads, rounds);

    let json = format!(
        "{{\"smoke\":{smoke},\"threads\":{threads},\"rounds\":{rounds},{matmul},{compare}}}\n"
    );
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

fn bench_matmul(smoke: bool, threads: usize, rounds: usize) -> String {
    let (m, k, n) = if smoke { (64, 64, 64) } else { (256, 384, 256) };
    // Deterministic fill: the bench must do identical arithmetic per round.
    let fill = |rows: usize, cols: usize, salt: u64| {
        let mut state = salt;
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    };
    let a = fill(m, k, 1);
    let b = fill(k, n, 2);

    let (serial_s, serial_out) = median_seconds(rounds, || a.matmul_threads(&b, 1));
    let (parallel_s, parallel_out) = median_seconds(rounds, || a.matmul_threads(&b, threads));
    let identical = serial_out
        .data()
        .iter()
        .zip(parallel_out.data())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(
        identical,
        "parallel matmul is not bitwise-identical to serial"
    );

    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let serial_gflops = flops / serial_s / 1e9;
    let parallel_gflops = flops / parallel_s / 1e9;
    println!("--- matmul {m}x{k} . {k}x{n} ---");
    println!("serial:   {serial_s:.6} s  ({serial_gflops:.2} GFLOP/s)");
    println!("parallel: {parallel_s:.6} s  ({parallel_gflops:.2} GFLOP/s)");
    println!(
        "speedup:  {:.2}x, bitwise identical\n",
        serial_s / parallel_s
    );

    format!(
        "\"matmul\":{{\"m\":{m},\"k\":{k},\"n\":{n},\
         \"serial_seconds\":{serial_s},\"parallel_seconds\":{parallel_s},\
         \"serial_gflops\":{serial_gflops},\"parallel_gflops\":{parallel_gflops},\
         \"speedup\":{},\"bitwise_identical\":true}}",
        serial_s / parallel_s
    )
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
        "parallel comparison diverged from serial"
    );

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
