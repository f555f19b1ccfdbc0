//! Reusable slot-scoped buffers for the per-slot hot path.
//!
//! The simulator and the learned policies both run the same loop shape: a
//! burst of scratch data is built up during one decision slot (candidate
//! features, per-minute arrival buckets, stacked activation matrices) and
//! is dead the moment the slot ends. Allocating that scratch from the
//! global heap every slot costs more than the arithmetic it feeds at paper
//! scale, so this crate provides the two buffer disciplines the hot path
//! uses instead, both dependency-free:
//!
//! * [`VecPool`] — a pool of reusable `Vec<T>` buffers for scratch whose
//!   count varies (per-minute arrival buckets): `take` hands out a cleared
//!   buffer, `put` returns it, and the outstanding count makes leaks
//!   auditable.
//! * [`Poison`] — debug-build sentinel values ([`poison_fill`]) so a buffer
//!   that is supposed to be fully rewritten each slot cannot silently leak
//!   last slot's values: stale reads see NaN / `u32::MAX` and the
//!   simulator's invariant auditor checks the fill between slots.
//!
//! The pool tracks a byte high-water mark so the embedding layer (sim) can
//! mirror steady-state scratch footprint into telemetry gauges without this
//! crate depending on the telemetry crate.
//!
//! The pool does not allocate after its high-water capacity is reached:
//! that is part of what the `fairmove-testkit` counting-allocator tests pin
//! for `Environment::step_slot`.

/// Pool usage counters, for telemetry mirrors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Largest backing capacity ever held, in bytes.
    pub high_water_bytes: usize,
    /// Buffers currently handed out.
    pub outstanding: usize,
    /// Total take operations served.
    pub takes: u64,
    /// Operations that had to grow or allocate (cold path).
    pub misses: u64,
}

/// A pool of reusable `Vec<T>` buffers for scratch whose *count* varies per
/// slot. [`take`](Self::take) returns a cleared buffer (reusing a pooled
/// one when available), [`put`](Self::put) returns it to the pool. The
/// [`outstanding`](Self::outstanding) count is the leak detector: between
/// slots it must be zero, and the simulator's invariant auditor checks it.
#[derive(Debug, Clone)]
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
    outstanding: usize,
    takes: u64,
    misses: u64,
    high_water_bytes: usize,
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> VecPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        VecPool {
            free: Vec::new(),
            outstanding: 0,
            takes: 0,
            misses: 0,
            high_water_bytes: 0,
        }
    }

    /// Hands out a cleared buffer, reusing pooled capacity when available.
    pub fn take(&mut self) -> Vec<T> {
        self.takes += 1;
        self.outstanding += 1;
        match self.free.pop() {
            Some(buf) => buf,
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool. The contents are dropped; the
    /// capacity is kept for the next [`take`](Self::take).
    pub fn put(&mut self, mut buf: Vec<T>) {
        assert!(self.outstanding > 0, "put without a matching take");
        buf.clear();
        self.outstanding -= 1;
        let bytes = buf.capacity() * std::mem::size_of::<T>();
        let pooled: usize = self
            .free
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<T>())
            .sum();
        self.high_water_bytes = self.high_water_bytes.max(pooled + bytes);
        self.free.push(buf);
    }

    /// Buffers currently handed out. Zero between slots, or something is
    /// leaking scratch.
    #[inline]
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// True when every taken buffer has been returned.
    #[inline]
    pub fn quiescent(&self) -> bool {
        self.outstanding == 0
    }

    /// Usage counters for telemetry mirrors.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            high_water_bytes: self.high_water_bytes,
            outstanding: self.outstanding,
            takes: self.takes,
            misses: self.misses,
        }
    }
}

/// Sentinel values for debug poison-fill: a buffer that is contractually
/// *fully rewritten* every slot is filled with poison between slots, so a
/// stale read cannot masquerade as live data.
pub trait Poison: Copy + PartialEq {
    /// The sentinel. Chosen to be loud: NaN for floats (propagates through
    /// any arithmetic), `MAX` for counters (fails range checks).
    const POISON: Self;

    /// Whether `self` is the sentinel. Separate from `==` because
    /// `f64::NAN != f64::NAN`.
    fn is_poison(&self) -> bool;
}

impl Poison for f64 {
    const POISON: Self = f64::NAN;
    #[inline]
    fn is_poison(&self) -> bool {
        self.is_nan()
    }
}

impl Poison for u32 {
    const POISON: Self = u32::MAX;
    #[inline]
    fn is_poison(&self) -> bool {
        *self == u32::MAX
    }
}

/// Overwrites every element with the poison sentinel (debug builds use
/// this between slots; release builds skip the write).
pub fn poison_fill<T: Poison>(slice: &mut [T]) {
    for v in slice.iter_mut() {
        *v = T::POISON;
    }
}

/// True when every element is still the poison sentinel — i.e. the buffer
/// is in its freshly-reset between-slots state.
pub fn is_poisoned<T: Poison>(slice: &[T]) -> bool {
    slice.iter().all(Poison::is_poison)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_returned_buffers() {
        let mut pool: VecPool<u64> = VecPool::new();
        let mut v = pool.take();
        v.extend(0..1000);
        let cap = v.capacity();
        pool.put(v);
        assert!(pool.quiescent());
        let v2 = pool.take();
        assert_eq!(v2.capacity(), cap, "capacity must be retained");
        assert!(v2.is_empty(), "pooled buffers come back cleared");
        assert_eq!(pool.stats().misses, 1, "only the first take allocates");
        pool.put(v2);
    }

    #[test]
    fn pool_outstanding_tracks_leaks() {
        let mut pool: VecPool<u8> = VecPool::new();
        let a = pool.take();
        let _leaked = pool.take();
        assert_eq!(pool.outstanding(), 2);
        pool.put(a);
        assert_eq!(pool.outstanding(), 1);
        assert!(!pool.quiescent());
    }

    #[test]
    #[should_panic(expected = "put without a matching take")]
    fn pool_rejects_unmatched_put() {
        let mut pool: VecPool<u8> = VecPool::new();
        pool.put(Vec::new());
    }

    #[test]
    fn pool_high_water_counts_all_buffers() {
        let mut pool: VecPool<u64> = VecPool::new();
        let mut a = pool.take();
        let mut b = pool.take();
        a.extend(0..100);
        b.extend(0..100);
        a.shrink_to_fit();
        b.shrink_to_fit();
        pool.put(a);
        pool.put(b);
        assert!(pool.stats().high_water_bytes >= 2 * 100 * 8);
    }

    #[test]
    fn poison_roundtrip_f64() {
        let mut v = vec![1.0f64, 2.0, 3.0];
        assert!(!is_poisoned(&v));
        poison_fill(&mut v);
        assert!(is_poisoned(&v));
        v[1] = 0.5;
        assert!(!is_poisoned(&v), "a live value breaks the poison pattern");
    }

    #[test]
    fn poison_roundtrip_u32() {
        let mut v = vec![0u32; 4];
        poison_fill(&mut v);
        assert!(v.iter().all(|&x| x == u32::MAX));
        assert!(is_poisoned(&v));
    }

    #[test]
    fn empty_slices_count_as_poisoned() {
        // Vacuous truth keeps the auditor check simple for zero-length
        // scratch (e.g. before the first slot).
        assert!(is_poisoned::<f64>(&[]));
    }
}
