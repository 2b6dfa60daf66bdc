//! Layer zoo: dense, conv1d, RNN, LSTM and activations.
//!
//! Every layer has two forms. The single-sample [`Layer::forward`] /
//! [`Layer::backward`] pair is the reference: `forward` caches what the
//! matching `backward` needs, and parameter gradients accumulate across
//! calls until an optimizer step clears them. The crate-internal batched
//! forms (`forward_batch` / `backward_batch`, and the cache-free
//! `infer_into`) are the ones training and rollouts run, and they must be
//! **bit-identical** to the reference.
//!
//! Accumulation-order contract. Rust never fuses `a * b + c` into an FMA
//! and never reassociates float additions, so the batched kernels may
//! order their loops freely (tiles, transposed weights, eight chains side
//! by side; see `kernel`) as long as each output element receives the
//! same additions in the same order as the reference:
//!
//! * a dense output is `b[o] + Σ_k w[o][k]·x[k]`, the sum starting from
//!   `-0.0` (the `f32: Sum` identity) and adding in ascending `k`;
//! * a conv output starts from the bias `b[f]` and adds `w[f][k]·x[m + k]`
//!   in ascending `k`;
//! * a parameter gradient accumulates its per-sample terms in row order,
//!   then (for conv) in output-position order, onto its previous value;
//! * an input gradient starts from `0.0` and adds per-output terms in
//!   ascending output order;
//! * the recurrent layers run the reference's own loops, one row at a time.
//!
//! A batched backward may skip input gradients nobody reads (the first
//! layer of a feature branch): parameter gradients never depend on them.

pub mod activation;
pub mod conv1d;
pub mod dense;
mod kernel;
pub mod lstm;
pub mod rnn;

pub use activation::{Activation, ActivationLayer};
pub use conv1d::Conv1d;
pub use dense::Dense;
pub(crate) use kernel::KernelScratch;
pub use lstm::Lstm;
pub use rnn::Rnn;

use crate::param::Param;

/// A differentiable transformation with trainable parameters.
pub trait Layer {
    /// Computes the layer output, caching activations for `backward`.
    fn forward(&mut self, x: &[f32]) -> Vec<f32>;

    /// Backpropagates `grad_out` (gradient of the loss w.r.t. this layer's
    /// output), accumulating parameter gradients and returning the gradient
    /// w.r.t. the input. Must follow a `forward` on the same input.
    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32>;

    /// Mutable access to every parameter block (weights + biases).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Visits every parameter block in [`Layer::params_mut`] order without
    /// materializing the `Vec` (the allocation-free form used by the hot
    /// update path). The default goes through `params_mut`; concrete layers
    /// override it.
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.params_mut() {
            f(p);
        }
    }

    /// Output dimensionality.
    fn out_dim(&self) -> usize;

    /// Input dimensionality.
    fn in_dim(&self) -> usize;
}

/// Closed enum over the layer zoo so networks can be cloned and stored
/// without boxed trait objects. The variant sizes differ by design — an
/// LSTM simply carries more state than an activation — and layers live in
/// `Vec`s where the uniform footprint is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyLayer {
    /// Fully connected layer.
    Dense(Dense),
    /// 1-D valid convolution over a single-channel sequence.
    Conv1d(Conv1d),
    /// Vanilla tanh RNN over a scalar sequence, emitting the last hidden state.
    Rnn(Rnn),
    /// LSTM over a scalar sequence, emitting the last hidden state.
    Lstm(Lstm),
    /// Elementwise activation.
    Act(ActivationLayer),
}

impl Layer for AnyLayer {
    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        match self {
            AnyLayer::Dense(l) => l.forward(x),
            AnyLayer::Conv1d(l) => l.forward(x),
            AnyLayer::Rnn(l) => l.forward(x),
            AnyLayer::Lstm(l) => l.forward(x),
            AnyLayer::Act(l) => l.forward(x),
        }
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        match self {
            AnyLayer::Dense(l) => l.backward(grad_out),
            AnyLayer::Conv1d(l) => l.backward(grad_out),
            AnyLayer::Rnn(l) => l.backward(grad_out),
            AnyLayer::Lstm(l) => l.backward(grad_out),
            AnyLayer::Act(l) => l.backward(grad_out),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            AnyLayer::Dense(l) => l.params_mut(),
            AnyLayer::Conv1d(l) => l.params_mut(),
            AnyLayer::Rnn(l) => l.params_mut(),
            AnyLayer::Lstm(l) => l.params_mut(),
            AnyLayer::Act(l) => l.params_mut(),
        }
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            AnyLayer::Dense(l) => l.for_each_param(f),
            AnyLayer::Conv1d(l) => l.for_each_param(f),
            AnyLayer::Rnn(l) => l.for_each_param(f),
            AnyLayer::Lstm(l) => l.for_each_param(f),
            AnyLayer::Act(l) => l.for_each_param(f),
        }
    }

    fn out_dim(&self) -> usize {
        match self {
            AnyLayer::Dense(l) => l.out_dim(),
            AnyLayer::Conv1d(l) => l.out_dim(),
            AnyLayer::Rnn(l) => l.out_dim(),
            AnyLayer::Lstm(l) => l.out_dim(),
            AnyLayer::Act(l) => l.out_dim(),
        }
    }

    fn in_dim(&self) -> usize {
        match self {
            AnyLayer::Dense(l) => l.in_dim(),
            AnyLayer::Conv1d(l) => l.in_dim(),
            AnyLayer::Rnn(l) => l.in_dim(),
            AnyLayer::Lstm(l) => l.in_dim(),
            AnyLayer::Act(l) => l.in_dim(),
        }
    }
}

/// Reusable hidden-state buffers for the recurrent layers' inference-only
/// forward passes (RNN uses the first two, LSTM all six).
#[derive(Debug, Clone, Default)]
pub(crate) struct RecurrentScratch {
    pub(crate) h0: Vec<f32>,
    pub(crate) h1: Vec<f32>,
    pub(crate) gi: Vec<f32>,
    pub(crate) gf: Vec<f32>,
    pub(crate) go: Vec<f32>,
    pub(crate) gg: Vec<f32>,
}

impl AnyLayer {
    /// Inference-only forward into a resized `y` buffer: no caches, no
    /// steady-state allocation, bit-identical values to [`Layer::forward`].
    pub(crate) fn infer_into(&self, x: &[f32], y: &mut Vec<f32>, rs: &mut RecurrentScratch) {
        // Every kernel writes all of `y`, so stale values need no zeroing.
        y.resize(self.out_dim(), 0.0);
        match self {
            AnyLayer::Dense(l) => l.infer_into(x, y),
            AnyLayer::Conv1d(l) => l.infer_into(x, y),
            AnyLayer::Rnn(l) => l.infer_into(x, y, &mut rs.h0, &mut rs.h1),
            AnyLayer::Lstm(l) => l.infer_into(
                x, y, &mut rs.h0, &mut rs.h1, &mut rs.gi, &mut rs.gf, &mut rs.go, &mut rs.gg,
            ),
            AnyLayer::Act(l) => l.infer_into(x, y),
        }
    }

    /// Batched caching forward over `n` rows: `ys` receives `n` rows of
    /// `out_dim` values, and the layer caches what
    /// [`AnyLayer::backward_batch`] needs. Per row bit-identical to
    /// [`Layer::forward`]; allocation-free after warm-up.
    pub(crate) fn forward_batch(
        &mut self,
        xs: &[f32],
        n: usize,
        ys: &mut Vec<f32>,
        ks: &mut KernelScratch,
    ) {
        match self {
            AnyLayer::Dense(l) => l.forward_batch(xs, n, ys, ks),
            AnyLayer::Conv1d(l) => l.forward_batch(xs, n, ys, ks),
            AnyLayer::Rnn(l) => l.forward_batch(xs, n, ys),
            AnyLayer::Lstm(l) => l.forward_batch(xs, n, ys),
            AnyLayer::Act(l) => l.forward_batch(xs, n, ys),
        }
    }

    /// Batched backward over the rows cached by
    /// [`AnyLayer::forward_batch`]: accumulates parameter gradients in
    /// serial row order (the exact addition sequence `n` single-sample
    /// `backward` calls would produce). With `need_dx` the per-row input
    /// gradients land in `dxs`; without it the layer skips them and leaves
    /// `dxs` empty.
    pub(crate) fn backward_batch(
        &mut self,
        dys: &[f32],
        n: usize,
        need_dx: bool,
        dxs: &mut Vec<f32>,
        ks: &mut KernelScratch,
    ) {
        match self {
            AnyLayer::Dense(l) => l.backward_batch(dys, n, need_dx, dxs, ks),
            AnyLayer::Conv1d(l) => l.backward_batch(dys, n, need_dx, dxs, ks),
            AnyLayer::Rnn(l) => l.backward_batch(dys, n, need_dx, dxs),
            AnyLayer::Lstm(l) => l.backward_batch(dys, n, need_dx, dxs),
            AnyLayer::Act(l) => l.backward_batch(dys, n, need_dx, dxs),
        }
    }
}

/// A chain of layers applied in order.
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<AnyLayer>,
}

impl Sequential {
    /// Builds a chain, checking that adjacent dimensions line up.
    ///
    /// # Panics
    /// Panics on a dimension mismatch — network topologies are constructed
    /// by the graph builder, so this is an internal invariant.
    pub fn new(layers: Vec<AnyLayer>) -> Self {
        for w in layers.windows(2) {
            assert_eq!(
                w[0].out_dim(),
                w[1].in_dim(),
                "layer dimension mismatch: {} -> {}",
                w[0].out_dim(),
                w[1].in_dim()
            );
        }
        Self { layers }
    }

    /// The contained layers.
    pub fn layers(&self) -> &[AnyLayer] {
        &self.layers
    }

    /// Number of trainable weights in the chain.
    pub fn n_weights(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Inference-only forward: the result lands in `out`, with `ping` as
    /// the ping-pong partner buffer. No layer caches are touched, no
    /// steady-state allocation happens, and the output is bit-identical to
    /// [`Layer::forward`].
    pub(crate) fn infer_into(
        &self,
        x: &[f32],
        out: &mut Vec<f32>,
        ping: &mut Vec<f32>,
        rs: &mut RecurrentScratch,
    ) {
        let Some((first, rest)) = self.layers.split_first() else {
            out.clear();
            out.extend_from_slice(x);
            return;
        };
        first.infer_into(x, out, rs);
        for l in rest {
            l.infer_into(out, ping, rs);
            std::mem::swap(out, ping);
        }
    }

    /// Batched caching forward over `n` rows: the final activations land in
    /// `out` (`n * out_dim` values), with `ping` as the ping-pong partner
    /// buffer; every layer caches its batch for
    /// [`Sequential::backward_batch`]. Per row bit-identical to
    /// [`Layer::forward`]; allocation-free after warm-up.
    pub(crate) fn forward_batch(
        &mut self,
        xs: &[f32],
        n: usize,
        out: &mut Vec<f32>,
        ping: &mut Vec<f32>,
        ks: &mut KernelScratch,
    ) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            out.clear();
            out.extend_from_slice(xs);
            return;
        };
        first.forward_batch(xs, n, out, ks);
        for l in rest {
            l.forward_batch(out, n, ping, ks);
            std::mem::swap(out, ping);
        }
    }

    /// Batched backward over the batch cached by
    /// [`Sequential::forward_batch`]: walks the chain in reverse, each layer
    /// accumulating parameter gradients in serial row order. With `need_dx`
    /// the input gradients land in `dxs` (`n * in_dim` values); without it
    /// the first layer skips them and `dxs` ends empty.
    pub(crate) fn backward_batch(
        &mut self,
        dys: &[f32],
        n: usize,
        need_dx: bool,
        dxs: &mut Vec<f32>,
        ping: &mut Vec<f32>,
        ks: &mut KernelScratch,
    ) {
        let Some((last, rest)) = self.layers.split_last_mut() else {
            dxs.clear();
            dxs.extend_from_slice(dys);
            return;
        };
        last.backward_batch(dys, n, need_dx || !rest.is_empty(), dxs, ks);
        for (i, l) in rest.iter_mut().enumerate().rev() {
            l.backward_batch(dxs, n, need_dx || i > 0, ping, ks);
            std::mem::swap(dxs, ping);
        }
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        for l in &mut self.layers {
            cur = l.forward(&cur);
        }
        cur
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        let mut cur = grad_out.to_vec();
        for l in self.layers.iter_mut().rev() {
            cur = l.backward(&cur);
        }
        cur
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.for_each_param(f);
        }
    }

    fn out_dim(&self) -> usize {
        self.layers.last().map(|l| l.out_dim()).unwrap_or(0)
    }

    fn in_dim(&self) -> usize {
        self.layers.first().map(|l| l.in_dim()).unwrap_or(0)
    }
}

/// Finite-difference gradient checking helper shared by layer tests.
#[cfg(test)]
pub(crate) mod gradcheck {
    use super::Layer;

    /// Verifies `d loss/d x` via central differences where
    /// `loss = sum(weights * forward(x))`.
    pub fn check_input_grad<L: Layer>(layer: &mut L, x: &[f32], tol: f32) {
        let y = layer.forward(x);
        // Fixed pseudo-random loss weights make the test sensitive to every
        // output coordinate.
        let wts: Vec<f32> = (0..y.len())
            .map(|i| ((i * 37 + 11) % 7) as f32 - 3.0)
            .collect();
        let dx = layer.backward(&wts);
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.to_vec();
            xp[i] += eps;
            let yp: f32 = layer
                .forward(&xp)
                .iter()
                .zip(&wts)
                .map(|(a, b)| a * b)
                .sum();
            let mut xm = x.to_vec();
            xm[i] -= eps;
            let ym: f32 = layer
                .forward(&xm)
                .iter()
                .zip(&wts)
                .map(|(a, b)| a * b)
                .sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (num - dx[i]).abs() <= tol * (1.0 + num.abs()),
                "input grad mismatch at {i}: analytic {} vs numeric {num}",
                dx[i]
            );
        }
        // Leave the cache consistent for any follow-up assertions.
        let _ = layer.forward(x);
    }

    /// Verifies parameter gradients via central differences.
    pub fn check_param_grad<L: Layer>(layer: &mut L, x: &[f32], tol: f32) {
        let y = layer.forward(x);
        let wts: Vec<f32> = (0..y.len())
            .map(|i| ((i * 53 + 5) % 5) as f32 - 2.0)
            .collect();
        for p in layer.params_mut() {
            p.zero_grad();
        }
        let _ = layer.backward(&wts);
        let analytic: Vec<Vec<f32>> = layer.params_mut().iter().map(|p| p.g.clone()).collect();
        let eps = 1e-3f32;
        for (b, block) in analytic.iter().enumerate() {
            let n = layer.params_mut()[b].len();
            // Probe a spread of weights, not all (keeps tests fast).
            let stride = (n / 7).max(1);
            for i in (0..n).step_by(stride) {
                let orig = layer.params_mut()[b].w[i];
                layer.params_mut()[b].w[i] = orig + eps;
                let yp: f32 = layer.forward(x).iter().zip(&wts).map(|(a, c)| a * c).sum();
                layer.params_mut()[b].w[i] = orig - eps;
                let ym: f32 = layer.forward(x).iter().zip(&wts).map(|(a, c)| a * c).sum();
                layer.params_mut()[b].w[i] = orig;
                let num = (yp - ym) / (2.0 * eps);
                assert!(
                    (num - block[i]).abs() <= tol * (1.0 + num.abs()),
                    "param grad mismatch block {b} index {i}: analytic {} vs numeric {num}",
                    block[i]
                );
            }
        }
        let _ = layer.forward(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequential_chains_dims() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = Sequential::new(vec![
            AnyLayer::Dense(Dense::new(4, 8, &mut rng)),
            AnyLayer::Act(ActivationLayer::new(Activation::Relu, 8)),
            AnyLayer::Dense(Dense::new(8, 2, &mut rng)),
        ]);
        assert_eq!(s.in_dim(), 4);
        assert_eq!(s.out_dim(), 2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn sequential_rejects_mismatch() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Sequential::new(vec![
            AnyLayer::Dense(Dense::new(4, 8, &mut rng)),
            AnyLayer::Dense(Dense::new(9, 2, &mut rng)),
        ]);
    }

    #[test]
    fn sequential_gradcheck() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = Sequential::new(vec![
            AnyLayer::Dense(Dense::new(5, 7, &mut rng)),
            AnyLayer::Act(ActivationLayer::new(Activation::Tanh, 7)),
            AnyLayer::Dense(Dense::new(7, 3, &mut rng)),
        ]);
        let x = [0.3, -0.7, 1.1, 0.0, 0.5];
        gradcheck::check_input_grad(&mut s, &x, 2e-2);
        gradcheck::check_param_grad(&mut s, &x, 2e-2);
    }

    /// Skipping the input gradient of a branch's first layer leaves every
    /// parameter gradient bit-identical, and the input gradient it skips
    /// matches the single-sample `backward` when it is asked for.
    #[test]
    fn skipping_the_input_gradient_keeps_parameter_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 7;
        let chains = [
            Sequential::new(vec![
                AnyLayer::Conv1d(Conv1d::new(9, 5, 3, &mut rng)),
                AnyLayer::Act(ActivationLayer::new(Activation::Relu, 35)),
            ]),
            Sequential::new(vec![
                AnyLayer::Dense(Dense::new(11, 9, &mut rng)),
                AnyLayer::Act(ActivationLayer::new(Activation::Tanh, 9)),
            ]),
            Sequential::new(vec![AnyLayer::Rnn(Rnn::new(6, 4, &mut rng))]),
            Sequential::new(vec![AnyLayer::Lstm(Lstm::new(5, 3, &mut rng))]),
        ];
        for chain in chains {
            let (d_in, d_out) = (chain.in_dim(), chain.out_dim());
            let xs: Vec<f32> = (0..n * d_in)
                .map(|i| ((i * 37 % 23) as f32 - 11.0) / 7.0)
                .collect();
            let dys: Vec<f32> = (0..n * d_out)
                .map(|i| ((i * 13 % 17) as f32 - 8.0) / 9.0)
                .collect();
            let (mut out, mut ping) = (Vec::new(), Vec::new());
            let mut ks = KernelScratch::default();
            let mut with_dx = chain.clone();
            with_dx.forward_batch(&xs, n, &mut out, &mut ping, &mut ks);
            let mut dxs = Vec::new();
            with_dx.backward_batch(&dys, n, true, &mut dxs, &mut ping, &mut ks);
            let mut without_dx = chain.clone();
            without_dx.forward_batch(&xs, n, &mut out, &mut ping, &mut ks);
            let mut skipped = Vec::new();
            without_dx.backward_batch(&dys, n, false, &mut skipped, &mut ping, &mut ks);

            let bits = |g: &[f32]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(skipped.is_empty(), "a skipped input gradient stays empty");
            for (a, b) in with_dx.params_mut().iter().zip(without_dx.params_mut()) {
                assert_eq!(bits(&a.g), bits(&b.g));
            }
            let mut serial = chain.clone();
            for (r, (x, dy)) in xs
                .chunks_exact(d_in)
                .zip(dys.chunks_exact(d_out))
                .enumerate()
            {
                let _ = serial.forward(x);
                let dx = serial.backward(dy);
                assert_eq!(bits(&dx), bits(&dxs[r * d_in..(r + 1) * d_in]), "row {r}");
            }
        }
    }

    #[test]
    fn weight_count_is_sum_of_blocks() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Sequential::new(vec![AnyLayer::Dense(Dense::new(4, 3, &mut rng))]);
        assert_eq!(s.n_weights(), 4 * 3 + 3);
    }
}
