//! Trains the CMA2C actor that the `paper-cma2c` workload serves.
//!
//! Deterministic: CMA2C at `SimConfig::default()` (600 taxis, seed 2019),
//! trained through `Runner::train_guarded` for a fixed number of episodes,
//! frozen, and saved with `Cma2cPolicy::save`. The same build writes the
//! same bytes, so the FNV-1a hash written beside the weights pins them.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin train-actor
//! ```
//!
//! Writes `actor/cma2c_default.mlp` in this package and, beside it,
//! `cma2c_default.mlp.fnv64` (the hash as 16 hex digits).

use fairmove_city::City;
use fairmove_core::{Method, MethodKind, Runner, WatchdogConfig};
use fairmove_perfbench::{ACTOR_ALPHA, ACTOR_EPISODES};
use fairmove_serve::fnv64;
use fairmove_sim::SimConfig;
use std::time::Instant;

fn main() {
    let out = fairmove_perfbench::actor_path();
    let sim = SimConfig::default();
    let city = City::generate(sim.city.clone());
    let mut method = Method::build(MethodKind::FairMove, &city, &sim, ACTOR_ALPHA);
    let runner = Runner::new(sim, ACTOR_EPISODES, ACTOR_ALPHA);
    let start = Instant::now();
    let (curve, report) = runner.train_guarded(&mut method, &WatchdogConfig::default());
    method.freeze();
    let Method::FairMove(policy) = &method else {
        unreachable!("built as FairMove");
    };
    let mut bytes = Vec::new();
    policy
        .save(&mut bytes)
        .expect("writing to a Vec cannot fail");
    let hash = fnv64(&bytes);
    std::fs::write(out, &bytes).expect("write actor weights");
    std::fs::write(format!("{out}.fnv64"), format!("{hash:016x}\n")).expect("write actor hash");
    eprintln!(
        "trained {ACTOR_EPISODES} episodes in {:.1} s (watchdog: {} restores, {} unrecovered)",
        start.elapsed().as_secs_f64(),
        report.restores,
        report.unrecovered
    );
    for (i, reward) in curve.iter().enumerate() {
        eprintln!("episode {i}: average reward {reward:.6}");
    }
    println!("{out} fnv64 {hash:016x}");
}
