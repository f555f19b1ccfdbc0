//! Row-major dense matrices.
//!
//! Sized for this workload: layer widths of tens to a few hundred, batch
//! sizes in the low thousands. The three matmul orientations are
//! row-partitioned across threads (via [`fairmove_parallel`]) and blocked
//! over the shared operand for cache reuse, but every output element is
//! still accumulated in ascending-`k` order by exactly one thread — so the
//! result is **bit-identical** for every thread count, not merely close.
//! Small products stay on the caller's stack: spawning scoped threads costs
//! more than a sub-millisecond multiply, so the auto entry points only fan
//! out above [`PAR_MIN_FLOPS`] multiply-adds.

use serde::{Deserialize, Serialize};

/// Minimum multiply-add count before the auto entry points (`matmul` & co.)
/// fan rows out across threads. Below this, thread spawn/join overhead
/// (tens of microseconds per worker) exceeds the arithmetic saved.
const PAR_MIN_FLOPS: usize = 1 << 22;

/// Rows of the shared right-hand operand processed per cache block. 64 rows
/// of up to a few hundred `f64` columns keep the block within L1/L2 while
/// it is reused across every output row of a chunk.
const BLOCK_K: usize = 64;

/// Output columns walked at once in the `matmul_transpose_b` kernel. Eight
/// independent accumulator chains hide the FP-add latency (~4 cycles) that
/// a single dot-product chain is bound by; per chain the summation order is
/// unchanged, so the unroll is invisible in the result bits.
const TB_UNROLL: usize = 8;

/// Row threshold above which `matmul_transpose_b*` first copies `other`
/// into a k-major scratch and runs the broadcast-accumulate kernel (the
/// same inner loop as [`Matrix::matmul`]): one element of the left operand
/// is broadcast against a *contiguous* scratch row, which the compiler
/// vectorizes, and an exactly-zero left element (common with ReLU
/// activations) skips its whole row of multiply-adds. Below the threshold
/// the O(k·n) transposition would cost as much as the product itself, so
/// small batches keep the dot-product path.
///
/// Both paths accumulate every output element from `+0.0` in ascending-`k`
/// order with one chain per element, and for finite operands skipping an
/// `a == 0.0` term only drops a `±0.0` addend, which can never flip any
/// partial sum that started at `+0.0` — so the two paths (and every thread
/// count) produce bit-identical results, as `transpose_b_paths_agree_bitwise`
/// pins.
const TB_TRANSPOSE_MIN_ROWS: usize = 4;

/// Output columns held in one register tile by the broadcast-accumulate
/// kernel. Eight `f64` lanes span two AVX2 vectors (or four NEON ones) and
/// leave headroom for the compiler to keep the whole tile in registers
/// across the `k` loop.
const VEC_LANES: usize = 8;

/// The broadcast-accumulate kernel for one `k` block: walks the output row
/// in [`VEC_LANES`]-wide tiles, keeping each tile's partial sums in
/// registers across the entire block instead of streaming `out_row` through
/// memory once per `k` — the fma-friendly shape a plain `i,k,j` loop denies
/// the compiler. Per output element the accumulation order over `k` is
/// *unchanged* (ascending, one chain per element, zero-skip included), so
/// the result is bit-identical to the naive triple loop on finite inputs
/// (the `reference_matmul*` oracles in this module's tests); the tile only
/// changes where a partial sum lives, never the order it is summed.
///
/// `a_block` holds the left-operand values for this block's `k` range and
/// `b_slab` the matching `(kend - kb) × n_cols` rows of the k-major right
/// operand.
#[inline]
fn axpy_block(out_row: &mut [f64], a_block: &[f64], b_slab: &[f64], n_cols: usize) {
    let mut j = 0;
    while j + VEC_LANES <= n_cols {
        let mut acc = [0.0f64; VEC_LANES];
        acc.copy_from_slice(&out_row[j..j + VEC_LANES]);
        for (k, &a) in a_block.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let b = &b_slab[k * n_cols + j..k * n_cols + j + VEC_LANES];
            for (o, &bv) in acc.iter_mut().zip(b) {
                *o += a * bv;
            }
        }
        out_row[j..j + VEC_LANES].copy_from_slice(&acc);
        j += VEC_LANES;
    }
    if j < n_cols {
        // Remainder columns (n_cols % 8): the scalar shape, still ascending-k.
        for (k, &a) in a_block.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let b_row = &b_slab[k * n_cols..(k + 1) * n_cols];
            for (o, &bv) in out_row[j..].iter_mut().zip(&b_row[j..]) {
                *o += a * bv;
            }
        }
    }
}

thread_local! {
    /// Reusable k-major scratch for the transposed-operand fast path. One
    /// buffer per thread: it grows to the largest `k × n` operand seen and
    /// is reused thereafter, so steady-state inference stays allocation-free.
    static TB_SCRATCH: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Picks the worker count for an auto entry point: all configured threads
/// when the product is large enough to amortize spawning, else serial.
fn auto_threads(flops: usize) -> usize {
    if flops >= PAR_MIN_FLOPS {
        fairmove_parallel::thread_count()
    } else {
        1
    }
}

/// Rows per parallel chunk: a few chunks per worker for load balancing
/// without fragmenting the cache blocks.
fn chunk_rows(rows: usize, threads: usize) -> usize {
    rows.div_ceil(threads.max(1) * 4).max(1)
}

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(data: Vec<f64>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows × cols` reusing the backing storage, zero-filling
    /// every element. After the backing `Vec` has grown to its high-water
    /// capacity this never allocates — the resize discipline behind the
    /// `_into` matmul variants and the pooled [`crate::MlpWorkspace`].
    pub fn resize_in_place(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `self · other` (`m×k · k×n → m×n`).
    ///
    /// Fans rows across threads above [`PAR_MIN_FLOPS`]; bit-identical to
    /// the serial product either way.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_threads(other, auto_threads(self.rows * self.cols * other.cols))
    }

    /// [`Self::matmul`] with an explicit worker count (benches and the
    /// determinism tests pin 1/2/4).
    pub fn matmul_threads(&self, other: &Matrix, threads: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_threads_into(other, threads, &mut out);
        out
    }

    /// [`Self::matmul`] writing into a caller-owned output matrix, which is
    /// resized in place (no allocation once `out` has reached its
    /// high-water capacity). Same kernel as the allocating entry points, so
    /// the result is bit-identical to them at every thread count.
    ///
    /// Each output row is owned by exactly one thread and accumulated in
    /// ascending-`k` order (cache blocks walk `k` in ascending runs), so
    /// the result is bit-identical for every `threads` value.
    pub fn matmul_threads_into(&self, other: &Matrix, threads: usize, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_in_place(self.rows, other.cols);
        if out.data.is_empty() || self.cols == 0 {
            return;
        }
        let n_cols = other.cols;
        let rows_per_chunk = chunk_rows(self.rows, threads);
        fairmove_parallel::par_chunks_mut_threads(
            threads,
            &mut out.data,
            rows_per_chunk * n_cols,
            |chunk_idx, out_chunk| {
                let row0 = chunk_idx * rows_per_chunk;
                for kb in (0..self.cols).step_by(BLOCK_K) {
                    let kend = (kb + BLOCK_K).min(self.cols);
                    for (local_i, out_row) in out_chunk.chunks_mut(n_cols).enumerate() {
                        let i = row0 + local_i;
                        let a_block = &self.data[i * self.cols + kb..i * self.cols + kend];
                        let b_slab = &other.data[kb * n_cols..kend * n_cols];
                        axpy_block(out_row, a_block, b_slab, n_cols);
                    }
                }
            },
        );
    }

    /// `self · otherᵀ` (`m×k · n×k → m×n`), without materializing the
    /// transpose. This is the hot orientation in backprop *and* the only
    /// orientation in the inference forward pass.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        self.matmul_transpose_b_threads(other, auto_threads(self.rows * self.cols * other.rows))
    }

    /// [`Self::matmul_transpose_b`] with an explicit worker count.
    pub fn matmul_transpose_b_threads(&self, other: &Matrix, threads: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transpose_b_threads_into(other, threads, &mut out);
        out
    }

    /// [`Self::matmul_transpose_b`] with the auto worker count, writing into
    /// a caller-owned output matrix (no allocation after warmup).
    pub fn matmul_transpose_b_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_transpose_b_threads_into(
            other,
            auto_threads(self.rows * self.cols * other.rows),
            out,
        );
    }

    /// Backing-store capacity in bytes (telemetry high-water mirrors).
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// [`Self::matmul_transpose_b`] writing into a caller-owned output
    /// matrix (resized in place, no allocation after warmup).
    ///
    /// Every output element is a single left-to-right dot product computed
    /// by one thread. The kernel walks [`TB_UNROLL`] output columns at once
    /// — independent accumulator chains that break the FP-add latency
    /// dependency — but each chain still sums its own dot product in
    /// ascending-`k` order, so the result is bit-identical to the naive
    /// triple loop for every `threads` value and every unroll width.
    pub fn matmul_transpose_b_threads_into(
        &self,
        other: &Matrix,
        threads: usize,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_tb {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_in_place(self.rows, other.rows);
        if out.data.is_empty() || self.cols == 0 {
            // cols == 0 means every dot product is empty: the zeroed output
            // is already the answer, and the fast path's `chunks_exact(0)`
            // transpose would panic (found by the edge-shape property test).
            return;
        }
        let n_cols = other.rows;
        let width = self.cols;
        let rows_per_chunk = chunk_rows(self.rows, threads);
        if self.rows >= TB_TRANSPOSE_MIN_ROWS {
            // The fast path's zero-skip silently drops `0.0 * b` terms —
            // harmless for finite `b` (a `±0.0` addend can't flip a partial
            // sum started at `+0.0`) but it turns `0.0 * NaN`/`0.0 * Inf`
            // into `0.0`, so on non-finite inputs the paths would disagree.
            // The inference stack guards with `params_finite`; this assert
            // formalizes the contract at the kernel boundary.
            debug_assert!(
                self.data.iter().all(|v| v.is_finite()) && other.data.iter().all(|v| v.is_finite()),
                "matmul_transpose_b fast path requires finite inputs \
                 (zero-skip drops 0*non-finite terms)"
            );
            TB_SCRATCH.with(|cell| {
                let mut scratch = cell.borrow_mut();
                scratch.clear();
                scratch.resize(width * n_cols, 0.0);
                for (j, other_row) in other.data.chunks_exact(width).enumerate() {
                    for (k, &v) in other_row.iter().enumerate() {
                        scratch[k * n_cols + j] = v;
                    }
                }
                let bt: &[f64] = &scratch;
                fairmove_parallel::par_chunks_mut_threads(
                    threads,
                    &mut out.data,
                    rows_per_chunk * n_cols,
                    |chunk_idx, out_chunk| {
                        let row0 = chunk_idx * rows_per_chunk;
                        for kb in (0..width).step_by(BLOCK_K) {
                            let kend = (kb + BLOCK_K).min(width);
                            for (local_i, out_row) in out_chunk.chunks_mut(n_cols).enumerate() {
                                let a_row = self.row(row0 + local_i);
                                let b_slab = &bt[kb * n_cols..kend * n_cols];
                                axpy_block(out_row, &a_row[kb..kend], b_slab, n_cols);
                            }
                        }
                    },
                );
            });
            return;
        }
        fairmove_parallel::par_chunks_mut_threads(
            threads,
            &mut out.data,
            rows_per_chunk * n_cols,
            |chunk_idx, out_chunk| {
                let row0 = chunk_idx * rows_per_chunk;
                // Small-batch dot-product fallback: it is already
                // TB_UNROLL-wide and transposing here would cost as much as
                // the product (see TB_TRANSPOSE_MIN_ROWS).
                // Block over `other`'s rows so a block stays cached while
                // it is dotted against every row of this chunk.
                for jb in (0..n_cols).step_by(BLOCK_K) {
                    let jend = (jb + BLOCK_K).min(n_cols);
                    for (local_i, out_row) in out_chunk.chunks_mut(n_cols).enumerate() {
                        let a_row = self.row(row0 + local_i);
                        let mut j = jb;
                        while j + TB_UNROLL <= jend {
                            let mut acc = [0.0f64; TB_UNROLL];
                            let mut b_rows = [&other.data[..0]; TB_UNROLL];
                            for (n, b_row) in b_rows.iter_mut().enumerate() {
                                *b_row = &other.data[(j + n) * width..(j + n + 1) * width];
                            }
                            for (k, &a) in a_row.iter().enumerate() {
                                for n in 0..TB_UNROLL {
                                    acc[n] += a * b_rows[n][k];
                                }
                            }
                            out_row[j..j + TB_UNROLL].copy_from_slice(&acc);
                            j += TB_UNROLL;
                        }
                        for (jj, o) in out_row[j..jend].iter_mut().enumerate() {
                            let b_row = other.row(j + jj);
                            let mut acc = 0.0;
                            for (&a, &b) in a_row.iter().zip(b_row) {
                                acc += a * b;
                            }
                            *o = acc;
                        }
                    }
                }
            },
        );
    }

    /// `selfᵀ · other` (`k×m ᵀ· k×n → m×n`).
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        self.transpose_a_matmul_threads(other, auto_threads(self.rows * self.cols * other.cols))
    }

    /// [`Self::transpose_a_matmul`] with an explicit worker count.
    pub fn transpose_a_matmul_threads(&self, other: &Matrix, threads: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_a_matmul_threads_into(other, threads, &mut out);
        out
    }

    /// [`Self::transpose_a_matmul`] writing into a caller-owned output
    /// matrix (resized in place, no allocation after warmup).
    ///
    /// Output rows (columns of `self`) are partitioned across threads; each
    /// element accumulates over `k` in ascending order exactly as the
    /// serial loop does, so the result is bit-identical for every
    /// `threads` value.
    pub fn transpose_a_matmul_threads_into(
        &self,
        other: &Matrix,
        threads: usize,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_ta ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_in_place(self.cols, other.cols);
        if out.data.is_empty() || self.rows == 0 {
            return;
        }
        let n_cols = other.cols;
        let rows_per_chunk = chunk_rows(self.cols, threads);
        fairmove_parallel::par_chunks_mut_threads(
            threads,
            &mut out.data,
            rows_per_chunk * n_cols,
            |chunk_idx, out_chunk| {
                let i0 = chunk_idx * rows_per_chunk;
                for kb in (0..self.rows).step_by(BLOCK_K) {
                    let kend = (kb + BLOCK_K).min(self.rows);
                    for (local_i, out_row) in out_chunk.chunks_mut(n_cols).enumerate() {
                        let i = i0 + local_i;
                        for k in kb..kend {
                            let a = self.data[k * self.cols + i];
                            if a == 0.0 {
                                continue;
                            }
                            let b_row = &other.data[k * n_cols..(k + 1) * n_cols];
                            for (o, &b) in out_row.iter_mut().zip(b_row) {
                                *o += a * b;
                            }
                        }
                    }
                }
            },
        );
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds `row` (length = cols) to every row, in place.
    pub fn add_row_broadcast(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(row) {
                *v += b;
            }
        }
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise product (Hadamard), in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn hadamard_inplace(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Column sums (length = cols).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scales all elements in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_transpose_b_equals_explicit() {
        let a = m(2, 3, &[1.0, -2.0, 3.0, 0.5, 4.0, -1.0]);
        let b = m(
            4,
            3,
            &[2.0, 1.0, 0.0, -1.0, 3.0, 2.0, 0.0, 0.0, 1.0, 5.0, -2.0, 0.5],
        );
        let fast = a.matmul_transpose_b(&b);
        let explicit = a.matmul(&b.transpose());
        assert_eq!(fast, explicit);
    }

    #[test]
    fn transpose_a_matmul_equals_explicit() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(0..12).map(f64::from).collect::<Vec<_>>());
        let fast = a.transpose_a_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        assert_eq!(fast, explicit);
    }

    #[test]
    fn transpose_round_trips() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast_adds_to_all_rows() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn column_sums_known() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.column_sums(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn hadamard_and_map() {
        let mut a = m(1, 3, &[1.0, -2.0, 3.0]);
        let b = m(1, 3, &[2.0, 2.0, 2.0]);
        a.hadamard_inplace(&b);
        assert_eq!(a.data(), &[2.0, -4.0, 6.0]);
        a.map_inplace(f64::abs);
        assert_eq!(a.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn row_vector_shape() {
        let v = Matrix::row_vector(vec![1.0, 2.0]);
        assert_eq!((v.rows(), v.cols()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    /// The pre-parallel triple loop: `i,k,j` with the zero skip, `k`
    /// strictly ascending per element. The blocked/threaded kernels must
    /// reproduce this bit-for-bit.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let v = a.get(i, k);
                if v == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    let cur = out.get(i, j);
                    out.set(i, j, cur + v * b.get(k, j));
                }
            }
        }
        out
    }

    fn reference_matmul_tb(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(j, k);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn reference_matmul_ta(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for k in 0..a.rows() {
            for i in 0..a.cols() {
                let v = a.get(k, i);
                if v == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    let cur = out.get(i, j);
                    out.set(i, j, cur + v * b.get(k, j));
                }
            }
        }
        out
    }

    /// Deterministic pseudo-random fill (no RNG dependency): awkward values
    /// whose sums are order-sensitive in the last ulp, plus ~10% zeros to
    /// exercise the sparsity skip.
    fn scrambled(rows: usize, cols: usize, salt: u64) -> Matrix {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 33) as u32;
                if u % 10 == 0 {
                    0.0
                } else {
                    (u as f64 / u32::MAX as f64 - 0.5) * 3.7
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn matmul_bit_identical_across_thread_counts() {
        // 70 > BLOCK_K exercises multi-block accumulation; odd row counts
        // exercise the short final chunk.
        let a = scrambled(37, 70, 1);
        let b = scrambled(70, 29, 2);
        let reference = reference_matmul(&a, &b);
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                a.matmul_threads(&b, threads),
                reference,
                "threads={threads}"
            );
        }
        assert_eq!(a.matmul(&b), reference);
    }

    #[test]
    fn matmul_transpose_b_bit_identical_across_thread_counts() {
        let a = scrambled(33, 70, 3);
        let b = scrambled(81, 70, 4);
        let reference = reference_matmul_tb(&a, &b);
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                a.matmul_transpose_b_threads(&b, threads),
                reference,
                "threads={threads}"
            );
        }
        assert_eq!(a.matmul_transpose_b(&b), reference);
    }

    #[test]
    fn transpose_b_paths_agree_bitwise() {
        // ReLU-like left operand: clamp negatives to zero so roughly half
        // the activations are exactly 0.0, exercising the fast path's
        // zero-skip against full accumulation.
        let mut a = scrambled(37, 70, 11);
        for v in a.data.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let b = scrambled(29, 70, 12);
        let reference = reference_matmul_tb(&a, &b);
        // 37 rows takes the transposed-scratch kernel at every thread count.
        for threads in [1, 2, 4] {
            assert_eq!(
                a.matmul_transpose_b_threads(&b, threads),
                reference,
                "threads={threads}"
            );
        }
        // Row i of the product depends only on row i of `a`, and a one-row
        // left operand takes the dot-product fallback: compare the two
        // kernels bitwise, row by row.
        for i in 0..a.rows() {
            let row = Matrix::from_vec(1, a.cols(), a.row(i).to_vec());
            let fallback = row.matmul_transpose_b_threads(&b, 1);
            assert_eq!(
                fallback.data(),
                &reference.data()[i * b.rows()..(i + 1) * b.rows()],
                "row {i}"
            );
        }
        // Shapes straddling the threshold agree with the naive loop too.
        for rows in [TB_TRANSPOSE_MIN_ROWS - 1, TB_TRANSPOSE_MIN_ROWS] {
            let small_a = scrambled(rows, 24, 13);
            let small_b = scrambled(7, 24, 14);
            assert_eq!(
                small_a.matmul_transpose_b_threads(&small_b, 2),
                reference_matmul_tb(&small_a, &small_b),
                "rows={rows}"
            );
        }
    }

    #[test]
    fn transpose_a_matmul_bit_identical_across_thread_counts() {
        let a = scrambled(70, 37, 5);
        let b = scrambled(70, 23, 6);
        let reference = reference_matmul_ta(&a, &b);
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                a.transpose_a_matmul_threads(&b, threads),
                reference,
                "threads={threads}"
            );
        }
        assert_eq!(a.transpose_a_matmul(&b), reference);
    }

    #[test]
    fn threaded_matmul_handles_degenerate_shapes() {
        let empty_rows = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(empty_rows.matmul_threads(&b, 4), Matrix::zeros(0, 3));
        let a = Matrix::zeros(3, 0);
        let b0 = Matrix::zeros(0, 4);
        assert_eq!(a.matmul_threads(&b0, 4), Matrix::zeros(3, 4));
        let c = Matrix::zeros(4, 0);
        assert_eq!(a.matmul_transpose_b_threads(&c, 4), Matrix::zeros(3, 4));
        assert_eq!(
            Matrix::zeros(0, 3).transpose_a_matmul_threads(&Matrix::zeros(0, 2), 4),
            Matrix::zeros(3, 2)
        );
    }

    #[test]
    fn resize_in_place_zeroes_and_keeps_capacity() {
        let mut a = scrambled(8, 8, 9);
        let ptr = a.data().as_ptr();
        a.resize_in_place(4, 4);
        assert_eq!((a.rows(), a.cols()), (4, 4));
        assert!(a.data().iter().all(|&v| v == 0.0));
        assert_eq!(a.data().as_ptr(), ptr, "shrinking must reuse the buffer");
    }

    #[test]
    fn into_variants_match_allocating_entry_points_and_reuse_storage() {
        let a = scrambled(13, 70, 7);
        let b = scrambled(70, 11, 8);
        let bt = b.transpose();
        // Seed the output with stale garbage bigger than any result below:
        // the `_into` kernels must fully overwrite it.
        let mut out = scrambled(40, 40, 10);
        let ptr = out.data().as_ptr();
        a.matmul_threads_into(&b, 2, &mut out);
        assert_eq!(out, a.matmul_threads(&b, 2));
        a.matmul_transpose_b_threads_into(&bt, 2, &mut out);
        assert_eq!(out, a.matmul_transpose_b_threads(&bt, 2));
        a.transpose_a_matmul_threads_into(&scrambled(13, 9, 11), 2, &mut out);
        assert_eq!(out, a.transpose_a_matmul_threads(&scrambled(13, 9, 11), 2));
        assert_eq!(out.data().as_ptr(), ptr, "no reallocation within capacity");
    }

    #[test]
    fn tb_unroll_edges_match_reference() {
        // Column counts straddling the unroll width (and the BLOCK_K edge)
        // exercise both the unrolled body and the scalar tail.
        for n_out in [1, 7, 8, 9, 15, 16, 17, 63, 64, 65] {
            let a = scrambled(5, 33, n_out as u64);
            let b = scrambled(n_out, 33, n_out as u64 + 100);
            assert_eq!(
                a.matmul_transpose_b_threads(&b, 1),
                reference_matmul_tb(&a, &b),
                "n_out={n_out}"
            );
        }
    }

    // The `*backend*` tests below compare the register-tiled kernel with
    // the naive scalar loops above, its only reference implementation.

    #[test]
    fn vectorized_backend_is_bitwise_equal_to_scalar() {
        // Shapes straddling BLOCK_K and VEC_LANES boundaries, with the
        // scrambled fill whose sums are order-sensitive in the last ulp:
        // any reordering in the register tile would show up here.
        for (m_rows, k, n) in [
            (1, 5, 1),
            (5, 33, 7),
            (5, 33, 8),
            (5, 33, 9),
            (37, 70, 29),
            (16, 64, 65),
            (9, 128, 16),
        ] {
            let a = scrambled(m_rows, k, (m_rows * k * n) as u64);
            let b = scrambled(k, n, (m_rows + k + n) as u64);
            let bt = b.transpose();
            for threads in [1, 2, 4] {
                assert_eq!(
                    a.matmul_threads(&b, threads),
                    reference_matmul(&a, &b),
                    "matmul {m_rows}x{k}x{n} t={threads}"
                );
                assert_eq!(
                    a.matmul_transpose_b_threads(&bt, threads),
                    reference_matmul_tb(&a, &bt),
                    "matmul_tb {m_rows}x{k}x{n} t={threads}"
                );
            }
        }
    }

    #[test]
    fn edge_shapes_agree_across_backends() {
        // 0-row / 0-col / 1×N and widths around the 8-lane tile: the
        // remainder loop is where kernels rot.
        for &(m_rows, k, n) in &[
            (0usize, 5usize, 3usize),
            (3, 0, 4),
            (3, 5, 0),
            (1, 24, 7),
            (1, 24, 8),
            (1, 24, 9),
            (2, 7, 15),
            (4, 9, 17),
        ] {
            let a = scrambled(m_rows, k, 21);
            let b = scrambled(k, n, 22);
            assert_eq!(
                a.matmul_threads(&b, 3),
                reference_matmul(&a, &b),
                "{m_rows}x{k}x{n}"
            );
            let bt = scrambled(n, k, 23);
            assert_eq!(
                a.matmul_transpose_b_threads(&bt, 3),
                reference_matmul_tb(&a, &bt),
                "tb {m_rows}x{k}x{n}"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finite inputs")]
    fn transpose_b_fast_path_rejects_nan_in_debug() {
        // ≥ TB_TRANSPOSE_MIN_ROWS rows takes the scratch fast path, whose
        // zero-skip would silently turn 0.0 * NaN into 0.0.
        let mut a = scrambled(4, 8, 31);
        a.set(2, 3, f64::NAN);
        let b = scrambled(5, 8, 32);
        let _ = a.matmul_transpose_b_threads(&b, 1);
    }

    #[test]
    fn subnormal_inputs_stay_bitwise_equal_across_backends() {
        // Subnormals are finite, so the fast-path contract holds; they flush
        // differently under unsafe-fp flags, so pin bitwise agreement here.
        let mut a = scrambled(5, 24, 41);
        let mut b = scrambled(9, 24, 42);
        for (i, v) in a.data.iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = f64::MIN_POSITIVE / ((i + 2) as f64);
            }
        }
        for (i, v) in b.data.iter_mut().enumerate() {
            if i % 4 == 0 {
                *v = -f64::MIN_POSITIVE / ((i + 3) as f64);
            }
        }
        let reference = reference_matmul_tb(&a, &b);
        for threads in [1, 2] {
            assert_eq!(
                a.matmul_transpose_b_threads(&b, threads),
                reference,
                "t={threads}"
            );
        }
    }

    proptest! {
        #[test]
        fn edge_shape_property_all_backends(
            m in 0usize..10, k in 0usize..26, n in 0usize..19,
            salt in 0u64..500,
            threads in 1usize..4,
        ) {
            let a = scrambled(m, k, salt);
            let b = scrambled(k, n, salt.wrapping_add(9));
            prop_assert_eq!(a.matmul_threads(&b, threads), reference_matmul(&a, &b));
            let bt = scrambled(n, k, salt.wrapping_add(17));
            prop_assert_eq!(
                a.matmul_transpose_b_threads(&bt, threads),
                reference_matmul_tb(&a, &bt)
            );
        }

        #[test]
        fn matmul_threads_matches_reference(
            m in 1usize..12, k in 1usize..12, n in 1usize..12,
            salt in 0u64..1000,
            threads in 1usize..5,
        ) {
            let a = scrambled(m, k, salt);
            let b = scrambled(k, n, salt.wrapping_add(77));
            prop_assert_eq!(a.matmul_threads(&b, threads), reference_matmul(&a, &b));
            prop_assert_eq!(
                a.matmul_transpose_b_threads(&b.transpose(), threads),
                reference_matmul_tb(&a, &b.transpose())
            );
            prop_assert_eq!(
                a.transpose_a_matmul_threads(&scrambled(m, n, salt ^ 5), threads),
                reference_matmul_ta(&a, &scrambled(m, n, salt ^ 5))
            );
        }

        #[test]
        fn matmul_is_associative_with_vectors(
            a in proptest::collection::vec(-5.0..5.0f64, 6),
            b in proptest::collection::vec(-5.0..5.0f64, 6),
            c in proptest::collection::vec(-5.0..5.0f64, 4),
        ) {
            let ma = Matrix::from_vec(2, 3, a);
            let mb = Matrix::from_vec(3, 2, b);
            let mc = Matrix::from_vec(2, 2, c);
            let left = ma.matmul(&mb).matmul(&mc);
            let right = ma.matmul(&mb.matmul(&mc));
            for (l, r) in left.data().iter().zip(right.data()) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }

        #[test]
        fn transpose_preserves_norm(v in proptest::collection::vec(-10.0..10.0f64, 12)) {
            let a = Matrix::from_vec(3, 4, v);
            prop_assert!((a.frobenius_norm() - a.transpose().frobenius_norm()).abs() < 1e-12);
        }
    }
}
