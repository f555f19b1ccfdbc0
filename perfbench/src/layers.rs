//! Layer probes timed from outside: feature-cache refresh, candidate-row
//! featurization, and the actor forward pass, each called through the
//! crates' public functions on inputs captured from a real run.

use fairmove_agents::features::{FeatureExtractor, RegionFeatureCache, SA_DIM, STATE_DIM};
use fairmove_city::City;
use fairmove_rl::{Matrix, Mlp, MlpWorkspace};
use fairmove_sim::{DecisionContext, SlotObservation};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::report::Outcome;

/// Wall time budget of one probe.
const PROBE_BUDGET: Duration = Duration::from_millis(300);

/// Runs `f` until [`PROBE_BUDGET`] has passed (at least 3 times) and
/// returns nanoseconds per call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || start.elapsed() < PROBE_BUDGET {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Featurizes every candidate row of `ctxs` into `rows` (one row per
/// admissible action, the layout the wave dispatcher builds) and returns
/// the row count.
fn featurize(
    fx: &FeatureExtractor,
    cache: &RegionFeatureCache,
    ctxs: &[DecisionContext],
    rows: &mut Vec<f64>,
) -> usize {
    rows.clear();
    let mut state = [0.0f64; STATE_DIM];
    let mut row = [0.0f64; SA_DIM];
    for ctx in ctxs {
        fx.write_state_cached(cache, ctx, &mut state);
        for &a in ctx.actions.actions() {
            row[..STATE_DIM].copy_from_slice(&state);
            fx.write_action_cached(cache, ctx, a, &mut row[STATE_DIM..]);
            rows.extend_from_slice(&row);
        }
    }
    rows.len() / SA_DIM
}

/// Sets `features.refresh_us` (one `RegionFeatureCache::refresh` against
/// `obs`) and `features.row_ns` (`write_state_cached` plus
/// `write_action_cached` per candidate row of `ctxs`). Returns the
/// featurized rows of `ctxs`, flattened, for the forward probe.
pub fn probe_features(
    out: &mut Outcome,
    city: &City,
    obs: &SlotObservation,
    ctxs: &[DecisionContext],
) -> Vec<f64> {
    let fx = FeatureExtractor::new(city);
    let mut cache = RegionFeatureCache::new();
    let refresh_ns = ns_per_call(|| cache.refresh(black_box(city), black_box(obs)));
    out.set("features.refresh_us", refresh_ns / 1e3);

    cache.refresh(city, obs);
    let mut rows = Vec::new();
    let n_rows = featurize(&fx, &cache, ctxs, &mut rows).max(1);
    let featurize_ns = ns_per_call(|| {
        black_box(featurize(&fx, &cache, black_box(ctxs), &mut rows));
    });
    out.set("features.row_ns", featurize_ns / n_rows as f64);
    rows
}

/// Sets `rl.forward_ns_per_row` and `rl.forward_gflops` for `actor` on
/// waves of `wave_rows` rows, filled cyclically from `sample_rows` (flat,
/// `SA_DIM` wide). Flops per row are computed from the layer shapes
/// (2 · Σ in·out), not counted.
pub fn probe_forward(out: &mut Outcome, actor: &Mlp, sample_rows: &[f64], wave_rows: usize) {
    let wave_rows = wave_rows.max(1);
    let width = actor.input_dim();
    let sample: Vec<f64> = if sample_rows.len() >= width {
        sample_rows.to_vec()
    } else {
        (0..width).map(|i| (i as f64 * 0.37).sin()).collect()
    };
    let data: Vec<f64> = sample
        .iter()
        .copied()
        .cycle()
        .take(wave_rows * width)
        .collect();
    let x = Matrix::from_vec(wave_rows, width, data);
    let mut ws = MlpWorkspace::new();
    let wave_ns = ns_per_call(|| {
        black_box(actor.forward_scratch(black_box(&x), &mut ws));
    });
    let ns_per_row = wave_ns / wave_rows as f64;
    let flops_per_row: usize = actor.layer_shapes().iter().map(|&(o, i)| 2 * o * i).sum();
    out.set("rl.forward_ns_per_row", ns_per_row);
    out.set("rl.forward_gflops", flops_per_row as f64 / ns_per_row);
    out.note(format!(
        "rl forward: waves of {wave_rows} rows, {flops_per_row} flops per row (computed from layer shapes)"
    ));
}
