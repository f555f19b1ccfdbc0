//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <paper-cma2c|paper-greedy|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines first, then one JSON line: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Exits 1 when any output check failed, 2 on bad
//! arguments.

use fairmove_perfbench::alloc::CountingAllocator;
use fairmove_perfbench::{Scale, Workload, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(name) = value("--workload") else {
        return usage("--workload is required");
    };
    let Ok(seed) = value("--seed").map_or(Ok(DEFAULT_SEED), str::parse::<u64>) else {
        return usage("--seed takes a whole number");
    };
    let seconds = match value("--seconds").map_or(Ok(10.0), str::parse::<f64>) {
        Ok(s) if s.is_finite() && s > 0.0 => Duration::from_secs_f64(s),
        _ => return usage("--seconds takes a positive number"),
    };
    let traced = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return usage("--trace takes 0 or 1"),
    };
    let w = Workload {
        seed,
        seconds,
        traced,
        scale: Scale::Full,
    };
    let Some(outcome) = fairmove_perfbench::run(name, w) else {
        return usage(&format!("unknown workload {name:?}"));
    };

    println!("workload {name} seed {seed} traced {traced}");
    for line in &outcome.notes {
        println!("  {line}");
    }
    for (metric, value) in &outcome.values {
        println!("  {metric} = {value:.6}");
    }
    println!(
        "  failed_ratio = {:.6} ({} of {} operations and checks)",
        outcome.failed_ratio(),
        outcome.failed,
        outcome.attempted
    );
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    println!("{}", outcome.result_line(traced));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
