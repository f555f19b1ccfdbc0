//! The FairMove benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced run. See `README.md` in
//! this directory for why each workload exists and which layer metric
//! should move which end-to-end metric.
//!
//! Every layer is timed from outside, through the crates' public functions;
//! the benchmark adds no span or counter inside the program.

pub mod alloc;
pub mod calib;
pub mod layers;
pub mod paper;
pub mod report;
pub mod serve;

use report::Outcome;
use std::time::Duration;

/// Reward weight α the benchmark actor is trained with (the paper's default).
pub const ACTOR_ALPHA: f64 = 0.6;
/// Training episodes of the benchmark actor.
pub const ACTOR_EPISODES: u32 = 10;
/// The seed whose paper-scale decision counts and digests are pinned.
pub const DEFAULT_SEED: u64 = 2019;
/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-cma2c", "paper-greedy", "serve-mixed"];

/// Where the trained actor lives (its hash sits beside it as `<path>.fnv64`).
pub fn actor_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/actor/cma2c_default.mlp")
}

/// World size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes: the paper preset for `paper-*`,
    /// `SimConfig::default()` for `serve-mixed`.
    Full,
    /// `SimConfig::test_scale()` for every workload (the package's tests).
    Test,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload seed: the simulator seed, and the load mix's shuffle seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
    /// World size.
    pub scale: Scale,
}

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run(name: &str, w: Workload) -> Option<Outcome> {
    Some(match name {
        "paper-cma2c" => paper::run(w, paper::Policy::Cma2c),
        "paper-greedy" => paper::run(w, paper::Policy::Greedy),
        "serve-mixed" => serve::run(w),
        _ => return None,
    })
}
