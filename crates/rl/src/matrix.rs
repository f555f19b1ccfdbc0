//! Row-major dense matrices.
//!
//! Sized for this workload: layer widths of tens to a few hundred, batch
//! sizes in the low thousands. The two matmul orientations backprop needs
//! and the fused dense-layer forward (`act(x · Wᵀ + b)` over pre-packed
//! weights) are row-partitioned across threads (via [`fairmove_parallel`])
//! and register-tiled, but every output element is still accumulated in
//! ascending-`k` order by exactly one thread — so the result is
//! **bit-identical** for every thread count, not merely close.
//! Small products stay on the caller's stack: spawning scoped threads costs
//! more than a sub-millisecond multiply, so the auto entry points only fan
//! out above `PAR_MIN_FLOPS` multiply-adds.

use crate::mlp::Activation;
use serde::{Deserialize, Serialize};

/// Minimum multiply-add count before the auto entry points (`matmul` & co.)
/// fan rows out across threads. Below this, thread spawn/join overhead
/// (tens of microseconds per worker) exceeds the arithmetic saved.
const PAR_MIN_FLOPS: usize = 1 << 22;

/// Rows of the shared right-hand operand processed per cache block. 64 rows
/// of up to a few hundred `f64` columns keep the block within L1/L2 while
/// it is reused across every output row of a chunk.
const BLOCK_K: usize = 64;

/// Output columns held in one register tile by the broadcast-accumulate
/// and dense-layer kernels. Eight `f64` lanes span two AVX2 vectors (or four
/// NEON ones) and leave headroom for the compiler to keep the whole tile in
/// registers across the `k` loop.
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

/// Rows of the left operand held in one register tile by the dense-layer
/// kernel. With [`VEC_LANES`] output columns per tile, four rows keep 32
/// partial sums live: eight AVX2 registers, beside two weight vectors and
/// one broadcast input.
const ROW_TILE: usize = 4;

/// Which compilation of [`dense_rows_body`] runs. Both compile the same
/// source, whose per-element operation order the compiler may not change
/// (Rust never contracts a multiply and an add into an fma), so they agree
/// bitwise. The choice exists so the tests can run each one explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelBuild {
    /// The crate's baseline target features (SSE2 on x86-64). Production
    /// code always asks for [`KernelBuild::Avx2`]; the tests run this one.
    #[cfg_attr(not(test), allow(dead_code))]
    Portable,
    /// The body compiled with AVX2 enabled, used when the running CPU has
    /// it; otherwise the portable build runs.
    Avx2,
}

/// Whether the running CPU supports AVX2 (std caches the probe).
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Where every output chain of one dense-layer call starts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChainStart<'a> {
    /// `+0.0` before column 0: the plain layer.
    Zero,
    /// The partial sums `acc` (one per output column, shared by every row)
    /// of columns `< k0`: each chain continues from `acc` at column `k0`.
    Resume { k0: usize, acc: &'a [f64] },
}

/// The operands of one dense layer as the kernel reads them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DenseLayer<'a> {
    /// `Wᵀ` (`in × out`, k-major).
    pub(crate) w_packed: &'a Matrix,
    /// One bias per output column.
    pub(crate) bias: &'a [f64],
    /// Applied to each output element on store.
    pub(crate) act: Activation,
}

/// `out = act(x · wt + bias)` over whole rows, through the `build` chosen
/// (see [`KernelBuild`]), with every chain starting at `start`. `x` is
/// `rows × k` and `out` is `rows × n`, both row-major; `wt` is the `k × n`
/// k-major packed weight and `bias` has `n` entries.
#[allow(unsafe_code)]
fn dense_rows(
    build: KernelBuild,
    x: &[f64],
    wt: &[f64],
    bias: &[f64],
    act: Activation,
    start: ChainStart<'_>,
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if build == KernelBuild::Avx2 && avx2_detected() {
        // SAFETY: `dense_rows_avx2` requires only that the CPU supports
        // AVX2, which `avx2_detected` has just confirmed at runtime.
        unsafe { dense_rows_avx2(x, wt, bias, act, start, out) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = build; // only x86-64 has a second build
    dense_rows_body(x, wt, bias, act, start, out);
}

/// [`dense_rows_body`] compiled with AVX2 enabled: two 4-lane vectors per
/// 8-column tile row. Only AVX2 is enabled, not FMA, and Rust does not
/// fuse a multiply and an add on its own, so every rounding step matches
/// the portable build. Calling it needs `unsafe`: the caller must have
/// checked that the running CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dense_rows_avx2(
    x: &[f64],
    wt: &[f64],
    bias: &[f64],
    act: Activation,
    start: ChainStart<'_>,
    out: &mut [f64],
) {
    dense_rows_body(x, wt, bias, act, start, out);
}

/// The dense-layer kernel body, compiled once per kind of chain start. The
/// plain layer's copy has no start to read, so its code is the start-free
/// loop that the two builds are checked to agree on bit for bit, NaN
/// payloads included: when both addends of a chain step are NaN, x86
/// returns the first operand's, so which NaN survives depends on how the
/// compiler orders each add.
#[inline(always)]
fn dense_rows_body(
    x: &[f64],
    wt: &[f64],
    bias: &[f64],
    act: Activation,
    start: ChainStart<'_>,
    out: &mut [f64],
) {
    match start {
        ChainStart::Zero => dense_row_tiles::<false>(x, wt, bias, act, start, out),
        ChainStart::Resume { .. } => dense_row_tiles::<true>(x, wt, bias, act, start, out),
    }
}

/// [`ROW_TILE`]-row tiles, then one 3-, 2- or 1-row tile for the
/// remainder. Each output row depends only on its own input row, so how
/// rows are grouped into tiles (or chunks across threads) never changes a
/// bit of the result. `RESUME` says whether `start` is
/// [`ChainStart::Resume`].
#[inline(always)]
fn dense_row_tiles<const RESUME: bool>(
    x: &[f64],
    wt: &[f64],
    bias: &[f64],
    act: Activation,
    start: ChainStart<'_>,
    out: &mut [f64],
) {
    const _: () = assert!(ROW_TILE == 4, "the remainder match covers 1..=3 rows");
    let n = bias.len();
    let k = wt.len() / n;
    let rows = out.len() / n;
    let tiled = rows - rows % ROW_TILE;
    let (out_tiled, out_rest) = out.split_at_mut(tiled * n);
    for (t, out_tile) in out_tiled.chunks_exact_mut(ROW_TILE * n).enumerate() {
        let x_tile = &x[t * ROW_TILE * k..(t + 1) * ROW_TILE * k];
        dense_tile::<ROW_TILE, RESUME>(x_tile, wt, bias, act, start, out_tile);
    }
    let x_rest = &x[tiled * k..rows * k];
    match rows - tiled {
        0 => {}
        1 => dense_tile::<1, RESUME>(x_rest, wt, bias, act, start, out_rest),
        2 => dense_tile::<2, RESUME>(x_rest, wt, bias, act, start, out_rest),
        _ => dense_tile::<3, RESUME>(x_rest, wt, bias, act, start, out_rest),
    }
}

/// One `R`-row band of the dense-layer kernel, walked in [`VEC_LANES`]-wide
/// column tiles whose `R × 8` partial sums stay in registers across the
/// whole `k` loop. Every output element is one chain that starts at `+0.0`
/// and adds `x[i][k] · wᵀ[k][j]` in ascending `k`; the bias is added after
/// the chain and the activation applied on store — operation for operation
/// the naive `x · Wᵀ`, then `+ b`, then `act`. Remainder columns
/// (`n % 8`) run one column at a time with `R` independent chains.
///
/// With [`ChainStart::Resume`] the chain is picked up at column `k0` from
/// the given partial sums, which must be that chain's own value after
/// columns `< k0` (rows that share those columns share the value), so the
/// result is the same bits as a chain run from `+0.0`.
///
/// No addend is skipped: on finite inputs a `±0.0` addend never changes a
/// chain that started at `+0.0`, so skipping zero activations would save
/// work without changing bits, but it would also turn `0 · NaN` into `0`.
#[inline(always)]
fn dense_tile<const R: usize, const RESUME: bool>(
    x: &[f64],
    wt: &[f64],
    bias: &[f64],
    act: Activation,
    start: ChainStart<'_>,
    out: &mut [f64],
) {
    let n = bias.len();
    let k_len = x.len() / R;
    let xs: [&[f64]; R] = std::array::from_fn(|i| &x[i * k_len..(i + 1) * k_len]);
    let wt = &wt[..k_len * n];
    let (k0, init): (usize, &[f64]) = match start {
        ChainStart::Resume { k0, acc } if RESUME => (k0, acc),
        _ => (0, &[]),
    };
    let mut j = 0;
    while j + VEC_LANES <= n {
        let acc0: [f64; VEC_LANES] = if RESUME {
            init[j..j + VEC_LANES]
                .try_into()
                .expect("a full column tile")
        } else {
            [0.0; VEC_LANES]
        };
        let mut acc = [acc0; R];
        for k in k0..k_len {
            let w: &[f64; VEC_LANES] = wt[k * n + j..k * n + j + VEC_LANES]
                .try_into()
                .expect("a full column tile");
            for i in 0..R {
                let a = xs[i][k];
                for c in 0..VEC_LANES {
                    acc[i][c] += a * w[c];
                }
            }
        }
        for i in 0..R {
            for c in 0..VEC_LANES {
                out[i * n + j + c] = act.apply(acc[i][c] + bias[j + c]);
            }
        }
        j += VEC_LANES;
    }
    for j in j..n {
        let mut acc = [if RESUME { init[j] } else { 0.0 }; R];
        for k in k0..k_len {
            let wv = wt[k * n + j];
            for i in 0..R {
                acc[i] += xs[i][k] * wv;
            }
        }
        for i in 0..R {
            out[i * n + j] = act.apply(acc[i] + bias[j]);
        }
    }
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
    /// Fans rows across threads above `PAR_MIN_FLOPS`; bit-identical to
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

    /// One dense layer, `out = act(self · Wᵀ + bias)`, with the layer's
    /// `w_packed` holding `Wᵀ` (`in × out`, k-major) so the kernel reads
    /// contiguous weight rows. Fans rows across threads above
    /// [`PAR_MIN_FLOPS`] and runs the AVX2 build when the CPU has it;
    /// neither choice changes a bit of `out`, which is resized in place (no
    /// allocation once it has reached its high-water capacity).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub(crate) fn dense_into(&self, layer: DenseLayer<'_>, out: &mut Matrix) {
        let threads = auto_threads(self.rows * self.cols * layer.w_packed.cols);
        self.dense_threads_into(layer, ChainStart::Zero, threads, KernelBuild::Avx2, out);
    }

    /// [`Self::dense_into`] for rows that all share their first `p` columns
    /// (debug builds check it), bitwise equal to it. The kernel runs once
    /// on row 0's first `p` columns with a zero bias and no activation,
    /// which yields each output column's chain after `k < p`: a chain from
    /// `+0.0` is never `-0.0`, so adding the `+0.0` bias returns it
    /// unchanged. Every row then continues those chains from column `p`.
    /// `partial` holds the zero bias and the partial sums (resized in
    /// place).
    pub(crate) fn dense_prefixed_into(
        &self,
        layer: DenseLayer<'_>,
        p: usize,
        partial: &mut Vec<f64>,
        out: &mut Matrix,
    ) {
        let threads = auto_threads(self.rows * self.cols * layer.w_packed.cols);
        self.dense_prefixed_threads_into(layer, p, partial, threads, KernelBuild::Avx2, out);
    }

    /// [`Self::dense_prefixed_into`] with an explicit worker count and
    /// build.
    pub(crate) fn dense_prefixed_threads_into(
        &self,
        layer: DenseLayer<'_>,
        p: usize,
        partial: &mut Vec<f64>,
        threads: usize,
        build: KernelBuild,
        out: &mut Matrix,
    ) {
        assert!(
            p <= self.cols,
            "prefix {p} wider than {} columns",
            self.cols
        );
        if self.rows == 0 || p == 0 {
            return self.dense_threads_into(layer, ChainStart::Zero, threads, build, out);
        }
        debug_assert!(
            self.data.chunks_exact(self.cols).all(|row| row[..p]
                .iter()
                .zip(&self.data[..p])
                .all(|(a, b)| a.to_bits() == b.to_bits())),
            "rows do not share their first {p} columns"
        );
        let n = layer.w_packed.cols;
        partial.clear();
        partial.resize(2 * n, 0.0);
        let (zeros, acc) = partial.split_at_mut(n);
        dense_rows(
            build,
            &self.data[..p],
            &layer.w_packed.data[..p * n],
            zeros,
            Activation::Linear,
            ChainStart::Zero,
            acc,
        );
        let start = ChainStart::Resume { k0: p, acc };
        self.dense_threads_into(layer, start, threads, build, out);
    }

    /// The dense layer with an explicit chain start, worker count and
    /// build.
    ///
    /// Each output row is owned by exactly one thread, and no row's result
    /// depends on which other rows share its tile, so the result is
    /// bit-identical for every `threads` value and both builds. One worker
    /// runs all rows as one band, so the kernel sees whole row tiles.
    pub(crate) fn dense_threads_into(
        &self,
        layer: DenseLayer<'_>,
        start: ChainStart<'_>,
        threads: usize,
        build: KernelBuild,
        out: &mut Matrix,
    ) {
        let DenseLayer {
            w_packed,
            bias,
            act,
        } = layer;
        assert_eq!(
            self.cols, w_packed.rows,
            "dense {}x{} · {}x{}",
            self.rows, self.cols, w_packed.rows, w_packed.cols
        );
        assert_eq!(bias.len(), w_packed.cols, "bias width mismatch");
        out.resize_in_place(self.rows, w_packed.cols);
        if out.data.is_empty() {
            return;
        }
        let n_cols = w_packed.cols;
        let width = self.cols;
        let rows_per_chunk = if threads <= 1 {
            self.rows
        } else {
            chunk_rows(self.rows, threads)
        };
        fairmove_parallel::par_chunks_mut_threads(
            threads,
            &mut out.data,
            rows_per_chunk * n_cols,
            |chunk_idx, out_chunk| {
                let row0 = chunk_idx * rows_per_chunk;
                let rows = out_chunk.len() / n_cols;
                let x = &self.data[row0 * width..(row0 + rows) * width];
                dense_rows(build, x, &w_packed.data, bias, act, start, out_chunk);
            },
        );
    }

    /// Backing-store capacity in bytes (telemetry high-water mirrors).
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
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

    const BUILDS: [KernelBuild; 2] = [KernelBuild::Portable, KernelBuild::Avx2];
    const ACTS: [Activation; 3] = [Activation::Relu, Activation::Tanh, Activation::Linear];

    /// The dense kernel on `x` with weights `w` stored `out × in`, as `Dense`
    /// keeps them, packed here the way `Dense::pack` does.
    fn dense(
        x: &Matrix,
        w: &Matrix,
        b: &[f64],
        act: Activation,
        threads: usize,
        build: KernelBuild,
    ) -> Matrix {
        dense_prefixed(x, w, b, act, 0, threads, build)
    }

    /// [`dense`] through the shared-prefix entry: rows of `x` share their
    /// first `p` columns.
    fn dense_prefixed(
        x: &Matrix,
        w: &Matrix,
        b: &[f64],
        act: Activation,
        p: usize,
        threads: usize,
        build: KernelBuild,
    ) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        let w_packed = w.transpose();
        let layer = DenseLayer {
            w_packed: &w_packed,
            bias: b,
            act,
        };
        x.dense_prefixed_threads_into(layer, p, &mut Vec::new(), threads, build, &mut out);
        out
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
    fn dense_kernel_equals_explicit() {
        let a = m(2, 3, &[1.0, -2.0, 3.0, 0.5, 4.0, -1.0]);
        let w = m(
            4,
            3,
            &[2.0, 1.0, 0.0, -1.0, 3.0, 2.0, 0.0, 0.0, 1.0, 5.0, -2.0, 0.5],
        );
        let bias = [0.5, -1.0, 0.0, 2.0];
        let mut explicit = a.matmul(&w.transpose());
        explicit.add_row_broadcast(&bias);
        assert_eq!(
            explicit.data(),
            &[0.5, -2.0, 3.0, 12.5, 5.5, 8.5, -1.0, -4.0]
        );
        for build in BUILDS {
            assert_eq!(dense(&a, &w, &bias, Activation::Linear, 1, build), explicit);
            let relu = dense(&a, &w, &bias, Activation::Relu, 1, build);
            assert_eq!(relu.data(), &[0.5, 0.0, 3.0, 12.5, 5.5, 8.5, 0.0, 0.0]);
        }
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

    /// The dense-layer oracle: the naive `x · Wᵀ` loop, then `+ b`, then the
    /// activation — the three passes the fused kernel does in one.
    fn reference_dense(x: &Matrix, w: &Matrix, b: &[f64], act: Activation) -> Matrix {
        let mut out = reference_matmul_tb(x, w);
        out.add_row_broadcast(b);
        out.map_inplace(|v| act.apply(v));
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
                if u.is_multiple_of(10) {
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
    fn dense_kernel_bit_identical_across_thread_counts() {
        let a = scrambled(33, 70, 3);
        let w = scrambled(81, 70, 4);
        let bias = scrambled(1, 81, 5).data;
        for act in ACTS {
            let reference = reference_dense(&a, &w, &bias, act);
            for build in BUILDS {
                for threads in [1, 2, 4, 8] {
                    assert_eq!(
                        dense(&a, &w, &bias, act, threads, build),
                        reference,
                        "{act:?} {build:?} threads={threads}"
                    );
                }
            }
            let mut auto = Matrix::zeros(0, 0);
            let w_packed = w.transpose();
            let layer = DenseLayer {
                w_packed: &w_packed,
                bias: &bias,
                act,
            };
            a.dense_into(layer, &mut auto);
            assert_eq!(auto, reference, "{act:?} auto");
        }
    }

    #[test]
    fn transpose_b_paths_agree_bitwise() {
        // ReLU-like left operand: clamp negatives to zero so roughly half
        // the activations are exactly 0.0. The kernel adds their `±0.0`
        // products and the naive loop adds them too; on finite inputs a
        // `±0.0` addend never changes a chain that started at `+0.0`, so
        // skipping them would not change these bits either.
        let mut a = scrambled(37, 70, 11);
        for v in a.data.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let w = scrambled(29, 70, 12);
        let bias = scrambled(1, 29, 13).data;
        let reference = reference_dense(&a, &w, &bias, Activation::Relu);
        for build in BUILDS {
            for threads in [1, 2, 4] {
                assert_eq!(
                    dense(&a, &w, &bias, Activation::Relu, threads, build),
                    reference,
                    "{build:?} threads={threads}"
                );
            }
            // Row i of the output depends only on row i of `a`, and a
            // one-row input runs the single-row band where 37 rows run
            // the ROW_TILE band: compare the two paths bitwise, row by row.
            for i in 0..a.rows() {
                let row = Matrix::from_vec(1, a.cols(), a.row(i).to_vec());
                let single = dense(&row, &w, &bias, Activation::Relu, 1, build);
                assert_eq!(
                    single.data(),
                    &reference.data()[i * w.rows()..(i + 1) * w.rows()],
                    "{build:?} row {i}"
                );
            }
            // Row counts straddling the tile agree with the naive loop too.
            for rows in [ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 2 * ROW_TILE + 3] {
                let small_a = scrambled(rows, 24, 13);
                let small_w = scrambled(7, 24, 14);
                assert_eq!(
                    dense(&small_a, &small_w, &bias[..7], Activation::Relu, 2, build),
                    reference_dense(&small_a, &small_w, &bias[..7], Activation::Relu),
                    "{build:?} rows={rows}"
                );
            }
        }
    }

    #[test]
    fn prefixed_dense_equals_reference_at_every_prefix_and_row_count() {
        // Rows share their first `p` columns; the prefixed entry must give
        // the naive loop's bits for every split of the chain, every row
        // remainder (4-row tiles, then a 3-, 2- or 1-row tile), both
        // builds, one band and several.
        let k = 24;
        let w = scrambled(19, k, 21);
        let bias = scrambled(1, 19, 22).data;
        let prefix = scrambled(1, k, 23);
        for rows in 1..=11 {
            let mut x = scrambled(rows, k, 24 + rows as u64);
            for p in [0, 1, 13, 14, 15, k - 1, k] {
                for i in 0..rows {
                    x.row_mut(i)[..p].copy_from_slice(&prefix.data[..p]);
                }
                for act in ACTS {
                    let reference = reference_dense(&x, &w, &bias, act);
                    for build in BUILDS {
                        for threads in [1, 2, 4] {
                            assert_eq!(
                                dense_prefixed(&x, &w, &bias, act, p, threads, build),
                                reference,
                                "rows={rows} p={p} {act:?} {build:?} threads={threads}"
                            );
                        }
                    }
                    let (mut auto, mut partial) = (Matrix::zeros(0, 0), Vec::new());
                    let w_packed = w.transpose();
                    let layer = DenseLayer {
                        w_packed: &w_packed,
                        bias: &bias,
                        act,
                    };
                    x.dense_prefixed_into(layer, p, &mut partial, &mut auto);
                    assert_eq!(auto, reference, "rows={rows} p={p} {act:?} auto");
                }
            }
        }
    }

    #[test]
    fn portable_and_avx2_builds_agree_bitwise() {
        if !avx2_detected() {
            eprintln!("AVX2 not detected: both builds run the portable body");
        }
        // The actor's layer shapes at the dispatcher's chunk sizes, plus
        // odd ones; non-finite inputs too, compared by bit pattern.
        for (rows, k, n) in [
            (27, 24, 64),
            (108, 64, 64),
            (430, 64, 1),
            (7, 33, 17),
            (1, 5, 9),
        ] {
            let mut a = scrambled(rows, k, (rows * k) as u64);
            a.data[0] = f64::INFINITY;
            let mut w = scrambled(n, k, (k * n) as u64);
            w.set(n - 1, k / 2, f64::NAN);
            let bias = scrambled(1, n, n as u64).data;
            for act in ACTS {
                let bits = |build| -> Vec<u64> {
                    let out = dense(&a, &w, &bias, act, 1, build);
                    out.data().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(
                    bits(KernelBuild::Portable),
                    bits(KernelBuild::Avx2),
                    "{rows}x{k}x{n} {act:?}"
                );
            }
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
        // No inputs: every output is the activated bias.
        let bias = [1.0, -2.0, 0.5, -0.25];
        let expected = m(
            3,
            4,
            &[1.0, 0.0, 0.5, 0.0, 1.0, 0.0, 0.5, 0.0, 1.0, 0.0, 0.5, 0.0],
        );
        for build in BUILDS {
            let c = Matrix::zeros(4, 0);
            assert_eq!(dense(&a, &c, &bias, Activation::Relu, 4, build), expected);
        }
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
        let bias = scrambled(1, 11, 12).data;
        let layer = DenseLayer {
            w_packed: &b,
            bias: &bias,
            act: Activation::Tanh,
        };
        a.dense_threads_into(layer, ChainStart::Zero, 2, KernelBuild::Avx2, &mut out);
        assert_eq!(
            out,
            dense(&a, &bt, &bias, Activation::Tanh, 2, KernelBuild::Avx2)
        );
        a.transpose_a_matmul_threads_into(&scrambled(13, 9, 11), 2, &mut out);
        assert_eq!(out, a.transpose_a_matmul_threads(&scrambled(13, 9, 11), 2));
        assert_eq!(out.data().as_ptr(), ptr, "no reallocation within capacity");
    }

    #[test]
    fn tb_unroll_edges_match_reference() {
        // Column counts straddling the 8-column tile exercise both the
        // tile and the column-at-a-time tail; row counts straddling
        // ROW_TILE exercise the row band and the single-row remainder.
        for n_out in [1, 7, 8, 9, 15, 16, 17, 63, 64, 65] {
            for rows in [1, ROW_TILE, ROW_TILE + 1, 2 * ROW_TILE + 3] {
                let a = scrambled(rows, 33, n_out as u64);
                let w = scrambled(n_out, 33, n_out as u64 + 100);
                let bias = scrambled(1, n_out, n_out as u64 + 200).data;
                for act in ACTS {
                    for build in BUILDS {
                        assert_eq!(
                            dense(&a, &w, &bias, act, 1, build),
                            reference_dense(&a, &w, &bias, act),
                            "rows={rows} n_out={n_out} {act:?} {build:?}"
                        );
                    }
                }
            }
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
            let bias = scrambled(1, n, (n + 7) as u64).data;
            for threads in [1, 2, 4] {
                assert_eq!(
                    a.matmul_threads(&b, threads),
                    reference_matmul(&a, &b),
                    "matmul {m_rows}x{k}x{n} t={threads}"
                );
                for build in BUILDS {
                    assert_eq!(
                        dense(&a, &bt, &bias, Activation::Linear, threads, build),
                        reference_dense(&a, &bt, &bias, Activation::Linear),
                        "dense {m_rows}x{k}x{n} t={threads} {build:?}"
                    );
                }
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
            let bias = scrambled(1, n, 24).data;
            for build in BUILDS {
                assert_eq!(
                    dense(&a, &bt, &bias, Activation::Relu, 3, build),
                    reference_dense(&a, &bt, &bias, Activation::Relu),
                    "dense {m_rows}x{k}x{n} {build:?}"
                );
            }
        }
    }

    #[test]
    fn nan_weight_yields_nan_output_at_one_and_many_rows() {
        // A kernel that skipped exactly-zero inputs would turn `0 · NaN`
        // into `0` and hide a poisoned weight behind a ReLU zero. This one
        // skips nothing: a NaN weight poisons its output column at every
        // row count, even where every input in its `k` slot is zero.
        let mut w = scrambled(5, 8, 32);
        w.set(2, 3, f64::NAN);
        let bias = scrambled(1, 5, 33).data;
        for rows in [1, ROW_TILE, ROW_TILE + 1] {
            let mut a = scrambled(rows, 8, 31);
            for r in 0..rows {
                a.set(r, 3, 0.0);
            }
            for build in BUILDS {
                for act in [Activation::Linear, Activation::Tanh] {
                    let out = dense(&a, &w, &bias, act, 1, build);
                    for r in 0..rows {
                        for j in 0..5 {
                            assert_eq!(
                                out.get(r, j).is_nan(),
                                j == 2,
                                "rows={rows} r={r} j={j} {build:?} {act:?}"
                            );
                        }
                    }
                }
            }
        }
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
        let bias = [f64::MIN_POSITIVE / 3.0; 9];
        let reference = reference_dense(&a, &b, &bias, Activation::Linear);
        for build in BUILDS {
            for threads in [1, 2] {
                assert_eq!(
                    dense(&a, &b, &bias, Activation::Linear, threads, build),
                    reference,
                    "t={threads} {build:?}"
                );
            }
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
            let bias = scrambled(1, n, salt.wrapping_add(31)).data;
            let act = ACTS[salt as usize % ACTS.len()];
            for build in BUILDS {
                prop_assert_eq!(
                    dense(&a, &bt, &bias, act, threads, build),
                    reference_dense(&a, &bt, &bias, act)
                );
            }
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
            let bias = scrambled(1, n, salt ^ 3).data;
            prop_assert_eq!(
                dense(&a, &b.transpose(), &bias, Activation::Relu, threads, KernelBuild::Avx2),
                reference_dense(&a, &b.transpose(), &bias, Activation::Relu)
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
