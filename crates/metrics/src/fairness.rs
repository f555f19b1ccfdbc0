//! Profit fairness (the paper's Eq. 3) and auxiliary fairness indices.
//!
//! The paper defines fleet profit fairness as the *variance* of per-taxi
//! profit efficiency — motivated by driver interviews ("fair when profits
//! are proportional to working time") — so smaller is fairer. We also
//! provide the Gini coefficient as a scale-free cross-check used in the
//! ablation benches.

use crate::stats;

/// Profit fairness PF: variance of per-taxi profit efficiencies (Eq. 3).
/// Smaller is fairer.
///
/// ```
/// use fairmove_metrics::profit_fairness;
/// assert_eq!(profit_fairness(&[45.0, 45.0, 45.0]), 0.0);
/// assert!(profit_fairness(&[20.0, 45.0, 70.0]) > 0.0);
/// ```
pub fn profit_fairness(profit_efficiencies: &[f64]) -> f64 {
    stats::variance(profit_efficiencies)
}

/// Gini coefficient of a non-negative sample, in `[0, 1]`; 0 is perfectly
/// equal. Negative inputs are clamped to zero (a taxi can have negative
/// profit, but the Gini is defined on the non-negative part).
pub fn gini(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut xs: Vec<f64> = values.iter().map(|&v| v.max(0.0)).collect();
    xs.sort_by(f64::total_cmp);
    let n = xs.len() as f64;
    let total: f64 = xs.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let weighted: f64 = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

/// Jain's fairness index: `(Σx)² / (n · Σx²)`, in `(0, 1]`; 1 is perfectly
/// equal. A scale-free alternative to the variance-based PF, used in the
/// ablation benches. Negative inputs are clamped to zero.
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let xs: Vec<f64> = values.iter().map(|&v| v.max(0.0)).collect();
    let sum: f64 = xs.iter().sum();
    let sq_sum: f64 = xs.iter().map(|x| x * x).sum();
    if sq_sum <= 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_fleet_is_perfectly_fair() {
        let pes = [45.0; 10];
        assert_eq!(profit_fairness(&pes), 0.0);
        assert_eq!(gini(&pes), 0.0);
    }

    #[test]
    fn pf_matches_variance_definition() {
        let pes = [30.0, 40.0, 50.0, 60.0];
        // mean 45, deviations ±15, ±5 → variance (225+25+25+225)/4 = 125.
        assert!((profit_fairness(&pes) - 125.0).abs() < 1e-9);
    }

    #[test]
    fn more_spread_is_less_fair() {
        let tight = [44.0, 45.0, 46.0];
        let wide = [20.0, 45.0, 70.0];
        assert!(profit_fairness(&wide) > profit_fairness(&tight));
        assert!(gini(&wide) > gini(&tight));
    }

    #[test]
    fn gini_extreme_inequality() {
        // One taxi earns everything.
        let xs = [0.0, 0.0, 0.0, 100.0];
        let g = gini(&xs);
        assert!((g - 0.75).abs() < 1e-9, "gini {g}");
    }

    #[test]
    fn gini_handles_degenerate_inputs() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[5.0]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        assert_eq!(gini(&[-5.0, -1.0]), 0.0);
    }

    #[test]
    fn jain_equal_is_one() {
        assert!((jain_index(&[5.0; 8]) - 1.0).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_single_winner_is_one_over_n() {
        let xs = [0.0, 0.0, 0.0, 12.0];
        assert!((jain_index(&xs) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_orders_by_equality() {
        assert!(jain_index(&[40.0, 45.0, 50.0]) > jain_index(&[10.0, 45.0, 80.0]));
    }

    proptest! {
        #[test]
        fn jain_in_unit_interval(xs in proptest::collection::vec(0.0..1e4f64, 1..50)) {
            let j = jain_index(&xs);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&j), "jain {}", j);
        }

        #[test]
        fn jain_is_scale_invariant(xs in proptest::collection::vec(0.1..1e3f64, 2..30),
                                   scale in 0.1..100.0f64) {
            let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
            prop_assert!((jain_index(&xs) - jain_index(&scaled)).abs() < 1e-9);
        }

        #[test]
        fn gini_in_unit_interval(xs in proptest::collection::vec(0.0..1e4f64, 2..50)) {
            let g = gini(&xs);
            prop_assert!((0.0..=1.0).contains(&g), "gini {}", g);
        }

        #[test]
        fn gini_is_scale_invariant(xs in proptest::collection::vec(0.1..1e3f64, 2..30),
                                   scale in 0.1..100.0f64) {
            let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
            prop_assert!((gini(&xs) - gini(&scaled)).abs() < 1e-9);
        }

        #[test]
        fn pf_is_translation_invariant(xs in proptest::collection::vec(-100.0..100.0f64, 2..30),
                                       shift in -50.0..50.0f64) {
            let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
            prop_assert!((profit_fairness(&xs) - profit_fairness(&shifted)).abs() < 1e-6);
        }
    }
}
