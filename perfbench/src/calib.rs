//! Host-speed calibration for the paper workloads.
//!
//! The host these runs share drifts in speed by up to 2x over minutes,
//! longer than a run. So a paper run times a fixed kernel of its own on
//! every sim thread at once between slots, and scales each unit of work's
//! times by [`REFERENCE_S`] over the unit's median kernel time: a time at
//! the speed of a host on which the kernel takes [`REFERENCE_S`].
//!
//! The kernel is dense f64 dot products in the actor's shape (24→64→64→1,
//! batches of 32 rows), written here and calling nothing in the program, so
//! a change to the program does not move it while a slow host slows it and
//! the workload alike. Of the kernels tried (this one; the same layers
//! accumulated along output lanes; a dependent walk over 4 MiB; a chain of
//! integer multiply-adds) its time tracked the unit times of both paper
//! workloads best (correlation 0.93–0.94 over units).

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in seconds, of the reference host: a round figure near
/// the kernel's median on a 2-vCPU Xeon (Sapphire Rapids) KVM guest, which
/// read 6.7–9.8 ms as that host's speed drifted.
pub const REFERENCE_S: f64 = 0.008;

const IN: usize = 24;
const HIDDEN: usize = 64;
const ROWS: usize = 32;
/// Batches of one kernel call.
const REPS: usize = 96;

/// Deterministic pseudo-random f64 in `[-0.5, 0.5)`.
fn unit(i: usize) -> f64 {
    let x = (i as u64 ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// `y = relu(x · w)` for `x` of `ROWS × n_in` and `w` of `n_out × n_in`
/// (one row of weights per output), one dot product per output.
fn dense(x: &[f64], w: &[f64], n_in: usize, n_out: usize, y: &mut [f64]) {
    for (xr, yr) in x.chunks_exact(n_in).zip(y.chunks_exact_mut(n_out)) {
        for (v, wo) in yr.iter_mut().zip(w.chunks_exact(n_in)) {
            let s: f64 = xr.iter().zip(wo).map(|(a, b)| a * b).sum();
            *v = s.max(0.0);
        }
    }
}

fn kernel() -> f64 {
    let x: Vec<f64> = (0..ROWS * IN).map(unit).collect();
    let w1: Vec<f64> = (0..HIDDEN * IN).map(|i| unit(i + 7_000)).collect();
    let w2: Vec<f64> = (0..HIDDEN * HIDDEN).map(|i| unit(i + 17_000)).collect();
    let w3: Vec<f64> = (0..HIDDEN).map(|i| unit(i + 37_000)).collect();
    let (mut h1, mut h2, mut y) = (
        vec![0.0; ROWS * HIDDEN],
        vec![0.0; ROWS * HIDDEN],
        vec![0.0; ROWS],
    );
    let mut acc = 0.0;
    for _ in 0..REPS {
        dense(black_box(&x), &w1, IN, HIDDEN, &mut h1);
        dense(&h1, &w2, HIDDEN, HIDDEN, &mut h2);
        dense(&h2, &w3, HIDDEN, 1, &mut y);
        acc += y.iter().sum::<f64>();
    }
    acc
}

/// Runs the kernel once on each of `threads` threads at once and returns
/// the wall time until the last finished, in seconds.
pub fn time(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(kernel)).collect();
        for h in handles {
            black_box(h.join().expect("calibration thread panicked"));
        }
    });
    start.elapsed().as_secs_f64()
}
