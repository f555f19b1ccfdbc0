//! HDR-style log-linear histogram storage with bounded relative error.
//!
//! Every [`crate::Histogram`] records each observation twice: into its
//! caller-visible fixed buckets (kept for exporter compatibility and
//! first-registration layout pinning) and into one of these log-linear
//! arrays. The array is what quantile queries read: 64 linear sub-buckets
//! per power of two give a worst-case relative half-width of
//! `1/128 ≈ 0.78%` for any value in range, so p50/p90/p99/p999 come back
//! within 1% of the exact order statistic regardless of how skewed the
//! distribution is — the fixed buckets alone could be off by >2× on a
//! latency tail that lands inside one wide bucket.
//!
//! Layout: bucket 0 catches underflow (zero, negatives, and anything below
//! `MIN_VALUE`); then `OCTAVES × 64` buckets cover
//! `[2^MIN_EXP, 2^MAX_EXP)`; the last bucket catches overflow and NaN
//! (matching the fixed-bucket convention). The bucket index of a normal
//! `f64` in range is read straight off its bit pattern — exponent bits
//! select the octave, the top `SUB_BITS` mantissa bits the sub-bucket —
//! so recording is a shift, a mask, and one relaxed `fetch_add`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Mantissa bits used for the linear sub-bucket: 2^6 = 64 per octave.
const SUB_BITS: u32 = 6;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Smallest representable octave: 2^-31 ≈ 0.47 ns (as seconds).
const MIN_EXP: i32 = -31;
/// One past the largest octave: 2^13 = 8192 (> 2 h as seconds).
const MAX_EXP: i32 = 13;
/// Octaves covered by the main array.
const OCTAVES: usize = (MAX_EXP - MIN_EXP) as usize;
/// Smallest in-range value.
const MIN_VALUE: f64 = 4.656612873077393e-10; // 2^-31
/// One past the largest in-range value.
const MAX_VALUE: f64 = 8192.0; // 2^13
/// Main-array buckets (underflow and overflow cells are separate).
const MAIN: usize = OCTAVES * SUBS;
/// Total cells: underflow + main + overflow.
pub(crate) const CELLS: usize = MAIN + 2;

/// Index of the cell `value` lands in.
#[inline]
pub(crate) fn bucket_index(value: f64) -> usize {
    if value.is_nan() || value >= MAX_VALUE {
        CELLS - 1
    } else if value < MIN_VALUE {
        // Zero, negatives, and sub-range positives; NaN fails both
        // comparisons above but is routed to overflow first.
        0
    } else {
        let bits = value.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        1 + (exp - MIN_EXP) as usize * SUBS + sub
    }
}

/// The representative value reported for cell `index`: the arithmetic
/// midpoint of the bucket's range (0.0 for underflow, +∞ for overflow).
pub(crate) fn bucket_value(index: usize) -> f64 {
    if index == 0 {
        return 0.0;
    }
    if index >= CELLS - 1 {
        return f64::INFINITY;
    }
    let i = index - 1;
    let exp = MIN_EXP + (i / SUBS) as i32;
    let sub = (i % SUBS) as f64;
    let octave = (exp as f64).exp2();
    octave * (1.0 + (sub + 0.5) / SUBS as f64)
}

/// Lock-free log-linear storage behind every histogram cell.
#[derive(Debug)]
pub(crate) struct HdrCell {
    counts: Box<[AtomicU64]>,
}

impl HdrCell {
    pub(crate) fn new() -> Self {
        HdrCell {
            counts: (0..CELLS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one observation (one relaxed `fetch_add`).
    #[inline]
    pub(crate) fn record(&self, value: f64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Sparse copy of the non-empty buckets, index-sorted.
    pub(crate) fn snapshot(&self) -> HdrSnapshot {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HdrSnapshot { buckets }
    }
}

/// A point-in-time sparse copy of one `HdrCell`: `(bucket index, count)`
/// pairs sorted by index. Empty for snapshots that predate the log-linear
/// storage (hand-built fixtures, old baselines) — quantile queries then
/// fall back to the fixed-bucket walk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HdrSnapshot {
    /// Non-empty `(bucket index, count)` pairs, index-sorted.
    pub buckets: Vec<(u32, u64)>,
}

impl HdrSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|&(_, n)| n).sum()
    }

    /// Whether any observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The value at quantile `q` (by the nearest-rank definition): the
    /// representative value of the bucket holding the `ceil(q·count)`-th
    /// smallest observation. `None` when empty.
    pub fn value_at_quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(index, n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                return Some(bucket_value(index as usize));
            }
        }
        Some(bucket_value(CELLS - 1))
    }

    /// Folds `other`'s buckets into `self`, keeping the index order.
    pub fn merge(&mut self, other: &HdrSnapshot) {
        for &(index, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(at) => self.buckets[at].1 += n,
                Err(at) => self.buckets.insert(at, (index, n)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_round_trips_within_relative_error_bound() {
        // Sweep values across the whole range: the representative value of
        // the bucket a value lands in must be within 1/128 of the value.
        let mut v = MIN_VALUE;
        while v < MAX_VALUE {
            let mid = bucket_value(bucket_index(v));
            let rel = (mid - v).abs() / v;
            assert!(
                rel <= 1.0 / 128.0 + 1e-12,
                "value {v}: mid {mid}, rel {rel}"
            );
            v *= 1.037; // irrational-ish step so bucket edges get sampled
        }
    }

    #[test]
    fn out_of_range_values_go_to_the_edge_cells() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(MIN_VALUE / 2.0), 0);
        assert_eq!(bucket_index(MAX_VALUE), CELLS - 1);
        assert_eq!(bucket_index(f64::INFINITY), CELLS - 1);
        assert_eq!(bucket_index(f64::NAN), CELLS - 1);
        assert_eq!(bucket_value(0), 0.0);
        assert!(bucket_value(CELLS - 1).is_infinite());
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two_times_linear_steps() {
        // 1.0 is the first sub-bucket of octave 0.
        let i = bucket_index(1.0);
        assert_eq!(i, 1 + (0 - MIN_EXP) as usize * SUBS);
        // The representative sits half a sub-bucket up.
        assert!((bucket_value(i) - (1.0 + 0.5 / 64.0)).abs() < 1e-12);
        // Just below 1.0 lands one bucket earlier.
        assert_eq!(bucket_index(1.0 - 1e-9), i - 1);
    }

    #[test]
    fn quantiles_track_exact_order_statistics_within_one_percent() {
        let cell = HdrCell::new();
        // A skewed latency-like distribution: deterministic lognormal-ish
        // samples spanning 4 decades.
        let mut values: Vec<f64> = (0..10_000)
            .map(|i| {
                let x = (i as f64 * 0.7261) % 1.0;
                1e-4 * (x * 9.2).exp() // 1e-4 .. ~1.0
            })
            .collect();
        for &v in &values {
            cell.record(v);
        }
        values.sort_by(f64::total_cmp);
        let snap = cell.snapshot();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1];
            let got = snap.value_at_quantile(q).unwrap();
            let rel = (got - exact).abs() / exact;
            assert!(rel <= 0.01, "q={q}: exact {exact}, got {got}, rel {rel}");
        }
    }

    #[test]
    fn merge_adds_counts_and_inserts_missing_buckets() {
        let a = HdrCell::new();
        a.record(0.5);
        a.record(2.0);
        let b = HdrCell::new();
        b.record(0.5);
        b.record(8.0);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 4);
        let idx = bucket_index(0.5) as u32;
        let shared = m.buckets.iter().find(|&&(i, _)| i == idx).unwrap();
        assert_eq!(shared.1, 2);
        // Index order is preserved after inserts.
        assert!(m.buckets.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn empty_snapshot_has_no_quantiles() {
        let snap = HdrSnapshot::default();
        assert!(snap.is_empty());
        assert_eq!(snap.value_at_quantile(0.5), None);
        assert_eq!(snap.count(), 0);
    }
}
