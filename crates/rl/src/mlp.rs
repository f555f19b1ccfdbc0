//! Multi-layer perceptrons with manual reverse-mode gradients.
//!
//! The paper's actor and critic are small dense networks over fleet-state
//! features; an MLP with ReLU hidden layers is the faithful architecture.
//! Gradients are hand-derived and verified against finite differences in
//! this module's tests.

use crate::matrix::{DenseLayer, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)` — the hidden-layer default.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear output heads: Q-values, state values, logits).
    Linear,
}

impl Activation {
    #[inline]
    pub(crate) fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Linear => x,
        }
    }

    /// Derivative given the *pre-activation* input `z`.
    fn derivative(self, z: f64) -> f64 {
        match self {
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = z.tanh();
                1.0 - t * t
            }
            Activation::Linear => 1.0,
        }
    }
}

/// One dense layer: `y = act(x · Wᵀ + b)`, `W` is `out × in`.
///
/// Serialize-only: `w_packed` is derived state, so weights enter a layer
/// only through the mutators that call [`Self::pack`] (`Mlp::new`,
/// `import_params` and the update methods), never through serde.
#[derive(Debug, Clone, Serialize)]
struct Dense {
    w: Matrix,
    /// `Wᵀ` (`in × out`, k-major), the operand the forward kernel reads.
    /// Rebuilt by [`Self::pack`], which every weight mutator calls.
    #[serde(skip)]
    w_packed: Matrix,
    b: Vec<f64>,
    activation: Activation,
    /// Cached input from the last `forward_train` call.
    #[serde(skip)]
    input: Option<Matrix>,
    /// Cached pre-activation from the last `forward_train` call.
    #[serde(skip)]
    pre_activation: Option<Matrix>,
}

impl Dense {
    fn new(input_dim: usize, output_dim: usize, activation: Activation, rng: &mut StdRng) -> Self {
        // He init for ReLU, Xavier otherwise.
        let scale = match activation {
            Activation::Relu => (2.0 / input_dim as f64).sqrt(),
            _ => (1.0 / input_dim as f64).sqrt(),
        };
        let data = (0..input_dim * output_dim)
            .map(|_| rng.gen_range(-1.0..1.0) * scale)
            .collect();
        let mut layer = Dense {
            w: Matrix::from_vec(output_dim, input_dim, data),
            w_packed: Matrix::default(),
            b: vec![0.0; output_dim],
            activation,
            input: None,
            pre_activation: None,
        };
        layer.pack();
        layer
    }

    /// Rebuilds [`Self::w_packed`] from `w`. Every change to `w` must be
    /// followed by this call, or the forward pass keeps reading the old
    /// weights.
    fn pack(&mut self) {
        self.w_packed = self.w.transpose();
    }

    fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// The kernel's view of this layer.
    fn operands(&self) -> DenseLayer<'_> {
        DenseLayer {
            w_packed: &self.w_packed,
            bias: &self.b,
            act: self.activation,
        }
    }

    /// [`Self::forward`] into a caller-owned matrix: same kernel with the
    /// same auto thread count, so the output bits match exactly — only the
    /// allocation is gone.
    fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.dense_into(self.operands(), out);
    }

    fn forward_train(&mut self, x: &Matrix) -> Matrix {
        let mut z = Matrix::zeros(0, 0);
        let linear = DenseLayer {
            act: Activation::Linear,
            ..self.operands()
        };
        x.dense_into(linear, &mut z);
        self.input = Some(x.clone());
        self.pre_activation = Some(z.clone());
        z.map_inplace(|v| self.activation.apply(v));
        z
    }

    /// Backprop through the layer. `d_out` is ∂L/∂y (batch × out).
    /// Returns `(dW, db, dX)`.
    fn backward(&self, d_out: &Matrix) -> (Matrix, Vec<f64>, Matrix) {
        let x = self.input.as_ref().expect("backward before forward_train");
        let z = self
            .pre_activation
            .as_ref()
            .expect("backward before forward_train");
        // dZ = dY ⊙ act'(Z)
        let mut dz = d_out.clone();
        for (dv, &zv) in dz.data_mut().iter_mut().zip(z.data()) {
            *dv *= self.activation.derivative(zv);
        }
        // dW = dZᵀ · X  (out × in)
        let dw = dz.transpose_a_matmul(x);
        let db = dz.column_sums();
        // dX = dZ · W  (batch × in)
        let dx = dz.matmul(&self.w);
        (dw, db, dx)
    }
}

/// Two reusable activation matrices for allocation-free MLP inference:
/// layer `i` writes into one while reading the other (ping-pong), so any
/// network depth needs exactly two buffers, plus the first layer's shared
/// partial sums for [`Mlp::forward_prefixed`]. One workspace serves any
/// number of MLPs and batch sizes — buffers are resized in place and only
/// ever grow to the largest activation seen.
#[derive(Debug, Clone)]
pub struct MlpWorkspace {
    ping: Matrix,
    pong: Matrix,
    partial: Vec<f64>,
}

impl Default for MlpWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl MlpWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        MlpWorkspace {
            ping: Matrix::zeros(0, 0),
            pong: Matrix::zeros(0, 0),
            partial: Vec::new(),
        }
    }

    /// High-water footprint of all buffers, for telemetry gauges.
    pub fn high_water_bytes(&self) -> usize {
        self.ping.capacity_bytes()
            + self.pong.capacity_bytes()
            + self.partial.capacity() * std::mem::size_of::<f64>()
    }
}

/// Per-layer parameter gradients from one backward pass.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// `(dW, db)` per layer, input side first.
    pub layers: Vec<(Matrix, Vec<f64>)>,
}

impl Gradients {
    /// Global L2 norm across all parameters (for gradient clipping).
    pub fn global_norm(&self) -> f64 {
        let mut sum = 0.0;
        for (dw, db) in &self.layers {
            sum += dw.data().iter().map(|v| v * v).sum::<f64>();
            sum += db.iter().map(|v| v * v).sum::<f64>();
        }
        sum.sqrt()
    }

    /// Scales every gradient so the global norm is at most `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f64) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for (dw, db) in &mut self.layers {
                dw.scale_inplace(s);
                for v in db {
                    *v *= s;
                }
            }
        }
    }
}

/// A feed-forward network of [`Dense`] layers. Load saved weights with
/// [`crate::load_mlp`] or [`Mlp::import_params`].
#[derive(Debug, Clone, Serialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    sizes: Vec<usize>,
}

impl Mlp {
    /// Builds an MLP with the given layer `sizes` (input first, output
    /// last), `hidden` activation on all but the last layer, and `output`
    /// activation on the last.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], hidden: Activation, output: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == sizes.len() { output } else { hidden };
                Dense::new(w[0], w[1], act, &mut rng)
            })
            .collect();
        Mlp {
            layers,
            sizes: sizes.to_vec(),
        }
    }

    /// Input dimension.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Output dimension.
    #[inline]
    pub fn output_dim(&self) -> usize {
        *self.sizes.last().expect("non-empty sizes")
    }

    /// Inference forward pass (no caches touched).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            h = layer.forward(&h);
        }
        h
    }

    /// Inference forward pass through a reusable [`MlpWorkspace`]:
    /// bit-identical to [`Self::forward`] (same kernels, same thread
    /// selection) but the per-layer activation matrices live in the
    /// workspace's two ping-pong buffers, so steady-state inference
    /// performs zero heap allocations. The returned reference points into
    /// the workspace and is valid until its next use.
    pub fn forward_scratch<'w>(&self, x: &Matrix, ws: &'w mut MlpWorkspace) -> &'w Matrix {
        self.forward_prefixed(x, 0, ws)
    }

    /// [`Self::forward_scratch`] for rows that all share their first `p`
    /// input columns (debug builds check it), such as one decision's
    /// candidate rows, which repeat its state features. The first layer
    /// sums each output's `k < p` chain once and continues it for every
    /// row from `k = p`, in the same ascending order, so the output is
    /// bitwise that of [`Self::forward_scratch`]. `p = 0` is that method.
    ///
    /// # Panics
    /// Panics if `p` exceeds the input width.
    pub fn forward_prefixed<'w>(
        &self,
        x: &Matrix,
        p: usize,
        ws: &'w mut MlpWorkspace,
    ) -> &'w Matrix {
        let first = &self.layers[0];
        x.dense_prefixed_into(first.operands(), p, &mut ws.partial, &mut ws.ping);
        let mut in_ping = true;
        for layer in &self.layers[1..] {
            if in_ping {
                layer.forward_into(&ws.ping, &mut ws.pong);
            } else {
                layer.forward_into(&ws.pong, &mut ws.ping);
            }
            in_ping = !in_ping;
        }
        if in_ping {
            &ws.ping
        } else {
            &ws.pong
        }
    }

    /// Convenience: forward a single input vector.
    pub fn forward_one(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim(), "input width mismatch");
        self.forward(&Matrix::row_vector(x.to_vec()))
            .data()
            .to_vec()
    }

    /// Training forward pass: caches activations for [`Self::backward`].
    pub fn forward_train(&mut self, x: &Matrix) -> Matrix {
        let mut h = self.layers[0].forward_train(x);
        for layer in &mut self.layers[1..] {
            h = layer.forward_train(&h);
        }
        h
    }

    /// Backward pass from ∂L/∂output. Must follow a `forward_train` on the
    /// same input.
    pub fn backward(&mut self, d_out: &Matrix) -> Gradients {
        let mut grads = vec![None; self.layers.len()];
        let mut d = d_out.clone();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (dw, db, dx) = layer.backward(&d);
            grads[i] = Some((dw, db));
            d = dx;
        }
        Gradients {
            layers: grads.into_iter().map(|g| g.expect("filled")).collect(),
        }
    }

    /// Applies parameter updates: `param += delta` where `delta` comes from
    /// an optimizer's transformation of the gradients.
    pub fn apply_updates(&mut self, updates: &Gradients) {
        assert_eq!(updates.layers.len(), self.layers.len());
        for (layer, (dw, db)) in self.layers.iter_mut().zip(&updates.layers) {
            for (w, &g) in layer.w.data_mut().iter_mut().zip(dw.data()) {
                *w += g;
            }
            for (b, &g) in layer.b.iter_mut().zip(db) {
                *b += g;
            }
            layer.pack();
        }
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.data().len() + l.b.len())
            .sum()
    }

    /// Copies parameters from another identically-shaped MLP (target-network
    /// sync in DQN/actor-critic).
    ///
    /// # Panics
    /// Panics on architecture mismatch.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(self.sizes, other.sizes, "architecture mismatch");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.w = b.w.clone();
            a.b = b.b.clone();
            a.pack();
        }
    }

    /// Soft-updates parameters toward `other`: `θ ← (1−τ)θ + τθ'`.
    pub fn soft_update_from(&mut self, other: &Mlp, tau: f64) {
        assert_eq!(self.sizes, other.sizes, "architecture mismatch");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            for (w, &w2) in a.w.data_mut().iter_mut().zip(b.w.data()) {
                *w = (1.0 - tau) * *w + tau * w2;
            }
            for (bv, &b2) in a.b.iter_mut().zip(&b.b) {
                *bv = (1.0 - tau) * *bv + tau * b2;
            }
            a.pack();
        }
    }

    /// Whether every weight and bias is finite. A single NaN/Inf parameter
    /// poisons all future forward passes, so policies expose this as their
    /// health check for the watchdog / resilience layer.
    pub fn params_finite(&self) -> bool {
        self.layers
            .iter()
            .all(|l| l.w.data().iter().all(|v| v.is_finite()) && l.b.iter().all(|v| v.is_finite()))
    }

    /// The layer shapes `(out, in)` for building optimizer state.
    pub fn layer_shapes(&self) -> Vec<(usize, usize)> {
        self.layers
            .iter()
            .map(|l| (l.w.rows(), l.w.cols()))
            .collect()
    }

    /// Copies out all parameters as `(weights, biases)` per layer
    /// (model persistence; see [`crate::serialize`]).
    pub fn export_params(&self) -> Vec<(Matrix, Vec<f64>)> {
        self.layers
            .iter()
            .map(|l| (l.w.clone(), l.b.clone()))
            .collect()
    }

    /// Replaces all parameters. Shapes must match the architecture.
    pub fn import_params(&mut self, params: &[(Matrix, Vec<f64>)]) -> Result<(), String> {
        if params.len() != self.layers.len() {
            return Err(format!(
                "layer count mismatch: {} vs {}",
                params.len(),
                self.layers.len()
            ));
        }
        for (layer, (w, b)) in self.layers.iter_mut().zip(params) {
            if (w.rows(), w.cols()) != (layer.w.rows(), layer.w.cols()) || b.len() != layer.b.len()
            {
                return Err(format!(
                    "shape mismatch: {}x{} vs {}x{}",
                    w.rows(),
                    w.cols(),
                    layer.w.rows(),
                    layer.w.cols()
                ));
            }
            layer.w = w.clone();
            layer.b = b.clone();
            layer.pack();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check: the cornerstone test for any
    /// hand-written backprop.
    #[test]
    fn gradients_match_finite_differences() {
        let mut net = Mlp::new(&[3, 5, 2], Activation::Tanh, Activation::Linear, 7);
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.1, 0.3, -0.7]);
        let target = Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 0.25]);

        // Loss = 0.5 Σ (y - t)²; dL/dy = y - t.
        let loss = |net: &Mlp| -> f64 {
            let y = net.forward(&x);
            y.data()
                .iter()
                .zip(target.data())
                .map(|(a, b)| 0.5 * (a - b).powi(2))
                .sum()
        };

        let y = net.forward_train(&x);
        let mut d = y.clone();
        for (dv, &t) in d.data_mut().iter_mut().zip(target.data()) {
            *dv -= t;
        }
        let grads = net.backward(&d);

        let eps = 1e-6;
        for li in 0..grads.layers.len() {
            // Check a handful of weight entries per layer.
            let n = grads.layers[li].0.data().len();
            for pi in [0, n / 2, n - 1] {
                let mut plus = net.clone();
                plus.layers[li].w.data_mut()[pi] += eps;
                plus.layers[li].pack();
                let mut minus = net.clone();
                minus.layers[li].w.data_mut()[pi] -= eps;
                minus.layers[li].pack();
                let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                let analytic = grads.layers[li].0.data()[pi];
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "layer {li} w[{pi}]: numeric {numeric} vs analytic {analytic}"
                );
            }
            // And the first bias.
            let mut plus = net.clone();
            plus.layers[li].b[0] += eps;
            let mut minus = net.clone();
            minus.layers[li].b[0] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let analytic = grads.layers[li].1[0];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "layer {li} b[0]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn relu_gradients_match_finite_differences() {
        let mut net = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Linear, 3);
        let x = Matrix::from_vec(1, 2, vec![0.7, -0.3]);
        let loss = |net: &Mlp| -> f64 {
            let y = net.forward(&x);
            0.5 * y.data()[0].powi(2)
        };
        let y = net.forward_train(&x);
        let grads = net.backward(&y);
        let eps = 1e-6;
        let analytic = grads.layers[0].0.data()[0];
        let mut plus = net.clone();
        plus.layers[0].w.data_mut()[0] += eps;
        plus.layers[0].pack();
        let mut minus = net.clone();
        minus.layers[0].w.data_mut()[0] -= eps;
        minus.layers[0].pack();
        let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 1e-5,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn forward_shapes() {
        let net = Mlp::new(&[4, 8, 8, 3], Activation::Relu, Activation::Linear, 1);
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.output_dim(), 3);
        let x = Matrix::zeros(5, 4);
        let y = net.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
        assert_eq!(net.forward_one(&[0.0; 4]).len(), 3);
    }

    #[test]
    fn forward_scratch_matches_forward_bitwise() {
        let mut ws = MlpWorkspace::new();
        // Odd and even depths land the result in different ping-pong
        // buffers; both must match the allocating pass exactly.
        for sizes in [
            vec![4, 3],
            vec![4, 8, 3],
            vec![4, 8, 8, 3],
            vec![4, 16, 8, 4, 2],
        ] {
            let net = Mlp::new(&sizes, Activation::Relu, Activation::Linear, 42);
            let x = Matrix::from_vec(
                3,
                4,
                (0..12).map(|i| (i as f64) * 0.37 - 1.9).collect::<Vec<_>>(),
            );
            let expected = net.forward(&x);
            let got = net.forward_scratch(&x, &mut ws);
            assert_eq!(got, &expected, "sizes={sizes:?}");
        }
    }

    #[test]
    fn forward_scratch_reuses_buffers_across_calls() {
        let net = Mlp::new(&[4, 8, 8, 3], Activation::Relu, Activation::Linear, 1);
        let x = Matrix::zeros(5, 4);
        let mut ws = MlpWorkspace::new();
        let _ = net.forward_scratch(&x, &mut ws);
        let bytes = ws.high_water_bytes();
        assert!(bytes > 0);
        for _ in 0..10 {
            let _ = net.forward_scratch(&x, &mut ws);
        }
        assert_eq!(ws.high_water_bytes(), bytes, "buffers must not regrow");
    }

    /// The forward pass computed from `export_params` alone, with the
    /// naive loop: what `forward_scratch` must match after any weight change.
    fn reference_forward(net: &Mlp, x: &Matrix, hidden: Activation) -> Matrix {
        let params = net.export_params();
        let mut h = x.clone();
        for (l, (w, b)) in params.iter().enumerate() {
            let act = if l + 1 == params.len() {
                Activation::Linear
            } else {
                hidden
            };
            let mut out = Matrix::zeros(h.rows(), w.rows());
            for i in 0..h.rows() {
                for (j, &bias) in b.iter().enumerate() {
                    let mut acc = 0.0;
                    for k in 0..w.cols() {
                        acc += h.get(i, k) * w.get(j, k);
                    }
                    out.set(i, j, act.apply(acc + bias));
                }
            }
            h = out;
        }
        h
    }

    #[test]
    fn forward_prefixed_matches_forward_and_the_naive_loop_bitwise() {
        // An actor-shaped net over candidate rows that repeat a 14-wide
        // state prefix, at every row count a decision can have.
        let net = Mlp::new(&[24, 64, 64, 1], Activation::Relu, Activation::Linear, 7);
        let mut ws = MlpWorkspace::new();
        for rows in 1..=13 {
            let x = Matrix::from_vec(
                rows,
                24,
                (0..rows * 24)
                    .map(|i| {
                        let col = i % 24;
                        let seed = if col < 14 { col } else { i } as f64;
                        (seed * 0.731).sin() * 1.7
                    })
                    .collect(),
            );
            let expected = reference_forward(&net, &x, Activation::Relu);
            assert_eq!(net.forward(&x), expected, "rows={rows}");
            for p in [0, 1, 13, 14] {
                let got = net.forward_prefixed(&x, p, &mut ws);
                assert_eq!(got, &expected, "rows={rows} p={p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn forward_prefixed_rejects_a_prefix_wider_than_the_input() {
        let net = Mlp::new(&[4, 3], Activation::Relu, Activation::Linear, 1);
        let _ = net.forward_prefixed(&Matrix::zeros(2, 4), 5, &mut MlpWorkspace::new());
    }

    #[test]
    fn every_weight_mutator_repacks() {
        // The forward kernel reads a packed copy of each weight matrix; a
        // mutator that forgot to rebuild it would leave the old weights in
        // force. Each step below changes every weight, and the forward pass
        // must then equal the naive loop over the new parameters.
        let sizes = [5, 16, 9, 3];
        let hidden = Activation::Tanh;
        let x = Matrix::from_vec(6, 5, (0..30).map(|i| (i as f64) * 0.13 - 1.7).collect());
        let mut ws = MlpWorkspace::new();
        let mut net = Mlp::new(&sizes, hidden, Activation::Linear, 3);
        let mut check = |net: &Mlp, step: &str, before: &mut Matrix| {
            let expected = reference_forward(net, &x, hidden);
            assert_ne!(&expected, before, "{step} must change the output");
            assert_eq!(net.forward_scratch(&x, &mut ws), &expected, "{step}");
            assert_eq!(net.forward(&x), expected, "{step}");
            *before = expected;
        };
        let mut before = Matrix::default();
        check(&net, "new", &mut before);

        let y = net.forward_train(&x);
        let mut grads = net.backward(&y);
        for (dw, db) in &mut grads.layers {
            dw.scale_inplace(-0.1);
            for v in db {
                *v *= -0.1;
            }
        }
        net.apply_updates(&grads);
        check(&net, "apply_updates", &mut before);

        let other = Mlp::new(&sizes, hidden, Activation::Linear, 4);
        net.soft_update_from(&other, 0.5);
        check(&net, "soft_update_from", &mut before);

        net.copy_params_from(&other);
        check(&net, "copy_params_from", &mut before);

        let mut params = net.export_params();
        for (w, _) in &mut params {
            w.scale_inplace(0.5);
        }
        net.import_params(&params).unwrap();
        check(&net, "import_params", &mut before);

        let mut saved = Vec::new();
        let fresh = Mlp::new(&sizes, hidden, Activation::Linear, 5);
        crate::save_mlp(&fresh, hidden, Activation::Linear, &mut saved).unwrap();
        let loaded = crate::load_mlp(&mut saved.as_slice()).unwrap();
        check(&loaded, "load_mlp", &mut before);
    }

    #[test]
    fn num_params_counts_weights_and_biases() {
        let net = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Linear, 1);
        // 3*5 + 5 + 5*2 + 2 = 32.
        assert_eq!(net.num_params(), 32);
    }

    #[test]
    fn deterministic_initialization() {
        let a = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Linear, 9);
        let b = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Linear, 9);
        let x = Matrix::from_vec(1, 3, vec![0.1, 0.2, 0.3]);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn copy_params_makes_outputs_equal() {
        let src = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Linear, 1);
        let mut dst = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Linear, 2);
        let x = Matrix::from_vec(1, 3, vec![0.5, -0.5, 1.0]);
        assert_ne!(src.forward(&x), dst.forward(&x));
        dst.copy_params_from(&src);
        assert_eq!(src.forward(&x), dst.forward(&x));
    }

    #[test]
    fn soft_update_converges_to_source() {
        let src = Mlp::new(&[2, 3, 1], Activation::Tanh, Activation::Linear, 1);
        let mut dst = Mlp::new(&[2, 3, 1], Activation::Tanh, Activation::Linear, 2);
        for _ in 0..200 {
            dst.soft_update_from(&src, 0.1);
        }
        let x = Matrix::from_vec(1, 2, vec![0.3, 0.6]);
        let a = src.forward(&x).data()[0];
        let b = dst.forward(&x).data()[0];
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn gradient_clipping_bounds_norm() {
        let mut net = Mlp::new(&[2, 4, 2], Activation::Relu, Activation::Linear, 5);
        let x = Matrix::from_vec(1, 2, vec![100.0, -100.0]);
        let y = net.forward_train(&x);
        let mut grads = net.backward(&y);
        grads.clip_global_norm(1.0);
        assert!(grads.global_norm() <= 1.0 + 1e-9);
    }

    #[test]
    fn params_finite_detects_poisoned_weights() {
        let mut net = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Linear, 1);
        assert!(net.params_finite());
        let mut params = net.export_params();
        *params[0].0.data_mut().first_mut().unwrap() = f64::NAN;
        net.import_params(&params).unwrap();
        assert!(!net.params_finite());
    }

    #[test]
    #[should_panic(expected = "architecture mismatch")]
    fn copy_params_rejects_mismatch() {
        let src = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Linear, 1);
        let mut dst = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Linear, 1);
        dst.copy_params_from(&src);
    }

    #[test]
    fn can_learn_a_linear_map_with_sgd_style_updates() {
        // y = 0.4x0 - 0.6x1, fit with plain gradient steps applied via
        // apply_updates (negative gradients).
        let mut net = Mlp::new(&[2, 16, 1], Activation::Tanh, Activation::Linear, 11);
        let data: Vec<([f64; 2], f64)> = (0..50)
            .map(|i| {
                let x0 = (i as f64 / 25.0) - 1.0;
                let x1 = ((i * 7 % 50) as f64 / 25.0) - 1.0;
                ([x0, x1], 0.4 * x0 - 0.6 * x1)
            })
            .collect();
        let lr = 0.05;
        for _ in 0..1500 {
            let xs = Matrix::from_vec(data.len(), 2, data.iter().flat_map(|d| d.0).collect());
            let ys = net.forward_train(&xs);
            let mut d = ys.clone();
            for (i, (_, t)) in data.iter().enumerate() {
                d.set(i, 0, (ys.get(i, 0) - t) / data.len() as f64);
            }
            let mut grads = net.backward(&d);
            for (dw, db) in &mut grads.layers {
                dw.scale_inplace(-lr);
                for v in db {
                    *v *= -lr;
                }
            }
            net.apply_updates(&grads);
        }
        let mut worst: f64 = 0.0;
        for (x, t) in &data {
            let y = net.forward_one(x)[0];
            worst = worst.max((y - t).abs());
        }
        assert!(worst < 0.1, "worst error {worst}");
    }
}
