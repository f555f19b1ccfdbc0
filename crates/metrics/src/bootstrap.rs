//! Bootstrap confidence intervals.
//!
//! The paper repeats every experiment 10 times "to ensure the robustness of
//! the results"; when reporting means of per-trip or per-taxi samples we
//! attach nonparametric bootstrap confidence intervals so EXPERIMENTS.md
//! can state how tight each reproduced number is.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A two-sided confidence interval for a mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (the sample mean).
    pub mean: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

/// Percentile-bootstrap CI for the mean of `samples` at the given
/// `confidence` (e.g. 0.95), using `resamples` bootstrap draws.
///
/// Deterministic in `seed`. Returns a degenerate interval for fewer than
/// two samples.
pub fn bootstrap_mean_ci(
    samples: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> ConfidenceInterval {
    assert!((0.0..1.0).contains(&confidence), "bad confidence level");
    assert!(resamples > 0, "need at least one resample");
    let n = samples.len();
    let mean = if n == 0 {
        0.0
    } else {
        samples.iter().sum::<f64>() / n as f64
    };
    if n < 2 {
        return ConfidenceInterval {
            mean,
            lo: mean,
            hi: mean,
        };
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut means: Vec<f64> = (0..resamples)
        .map(|_| {
            let mut acc = 0.0;
            for _ in 0..n {
                acc += samples[rng.gen_range(0..n)];
            }
            acc / n as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    let alpha = (1.0 - confidence) / 2.0;
    let lo_idx = ((alpha * resamples as f64) as usize).min(resamples - 1);
    let hi_idx = (((1.0 - alpha) * resamples as f64) as usize).min(resamples - 1);
    ConfidenceInterval {
        mean,
        lo: means[lo_idx],
        hi: means[hi_idx],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_contains_mean() {
        let xs: Vec<f64> = (0..100).map(|i| f64::from(i % 10)).collect();
        let ci = bootstrap_mean_ci(&xs, 0.95, 500, 1);
        assert!(ci.lo <= ci.mean && ci.mean <= ci.hi);
        assert!((ci.mean - 4.5).abs() < 1e-9);
    }

    #[test]
    fn tighter_with_more_data() {
        let small: Vec<f64> = (0..20).map(|i| f64::from(i % 10)).collect();
        let large: Vec<f64> = (0..2000).map(|i| f64::from(i % 10)).collect();
        let ci_s = bootstrap_mean_ci(&small, 0.95, 500, 2);
        let ci_l = bootstrap_mean_ci(&large, 0.95, 500, 2);
        assert!(ci_l.hi - ci_l.lo < ci_s.hi - ci_s.lo);
    }

    #[test]
    fn degenerate_inputs() {
        let ci = bootstrap_mean_ci(&[], 0.95, 100, 3);
        assert_eq!(ci.mean, 0.0);
        assert_eq!(ci.lo, ci.hi);
        let one = bootstrap_mean_ci(&[7.0], 0.95, 100, 3);
        assert_eq!(one.mean, 7.0);
        assert_eq!((one.lo, one.hi), (7.0, 7.0));
    }

    #[test]
    fn deterministic_in_seed() {
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let a = bootstrap_mean_ci(&xs, 0.9, 300, 42);
        let b = bootstrap_mean_ci(&xs, 0.9, 300, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_variance_sample_has_point_interval() {
        let xs = [5.0; 30];
        let ci = bootstrap_mean_ci(&xs, 0.95, 200, 4);
        assert_eq!(ci.lo, 5.0);
        assert_eq!(ci.hi, 5.0);
    }

    #[test]
    fn wider_at_higher_confidence() {
        let xs: Vec<f64> = (0..60).map(|i| f64::from(i % 13)).collect();
        let narrow = bootstrap_mean_ci(&xs, 0.5, 1000, 5);
        let wide = bootstrap_mean_ci(&xs, 0.99, 1000, 5);
        assert!(wide.hi - wide.lo > narrow.hi - narrow.lo);
    }
}
