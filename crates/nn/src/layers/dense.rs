//! Fully connected layer.

use super::kernel::{
    add_chunks, dot_rows, gather, lanes_of, outer_acc, push_transposed, store_lanes,
    store_transposed, KernelScratch, Lanes, LANES,
};
use super::Layer;
use crate::param::{xavier_limit, Param};
use rand::rngs::StdRng;

/// `y = W x + b` with `W` stored row-major `[out][in]`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Param,
    b: Param,
    cache_x: Vec<f32>,
}

impl Dense {
    /// Creates a Xavier-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dense dims must be positive");
        let limit = xavier_limit(in_dim, out_dim);
        Self {
            in_dim,
            out_dim,
            w: Param::uniform(in_dim * out_dim, limit, rng),
            b: Param::zeros(out_dim),
            cache_x: Vec::new(),
        }
    }
}

impl Dense {
    /// The one dense forward kernel: row `r` of `ys` gets
    /// `b[o] + Σ_k w[o][k]·xs[r][k]` for every output `o`, the sum starting
    /// from `-0.0` (the `f32: Sum` identity) and adding in ascending `k` —
    /// the arithmetic of [`Layer::forward`]. `cols(c)` yields the weight
    /// chunks of output chunk `c`, one per input index.
    fn forward_rows<I: Iterator<Item = Lanes> + Clone>(
        &self,
        xs: &[f32],
        n: usize,
        ys: &mut [f32],
        cols: impl Fn(usize) -> I,
    ) {
        let (n_in, n_out) = (self.in_dim, self.out_dim);
        debug_assert_eq!(xs.len(), n * n_in);
        debug_assert_eq!(ys.len(), n * n_out);
        for (c, bias) in self.b.w.chunks(LANES).enumerate() {
            let o0 = c * LANES;
            dot_rows(
                n,
                |r| &xs[r * n_in..(r + 1) * n_in],
                [-0.0; LANES],
                cols(c),
                |r, acc| {
                    for ((y, &b), &a) in ys[r * n_out + o0..].iter_mut().zip(bias).zip(acc) {
                        *y = b + a;
                    }
                },
            );
        }
    }

    /// Inference-only forward writing into `y` (`out_dim` long): no input
    /// cache, no allocation, bit-identical arithmetic to
    /// [`Layer::forward`]. Reads the weights in place, eight output rows at
    /// a time (the last chunk repeats its final row in the unused lanes).
    pub(crate) fn infer_into(&self, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_dim, "dense input size mismatch");
        debug_assert_eq!(y.len(), self.out_dim);
        let n_in = self.in_dim;
        self.forward_rows(x, 1, y, |c| {
            let rows: [&[f32]; LANES] = std::array::from_fn(|j| {
                let o = (c * LANES + j).min(self.out_dim - 1);
                &self.w.w[o * n_in..(o + 1) * n_in]
            });
            (0..n_in).map(move |k| gather(&rows, k))
        });
    }

    /// Batched caching forward over `n` rows of `in_dim` values: appends
    /// `n` rows of `out_dim` outputs to `ys` (cleared first) and caches the
    /// inputs for [`Dense::backward_batch`]. Each row is bit-identical to
    /// [`Layer::forward`]; after warm-up no call allocates. The weights are
    /// transposed once per call into chunk-major scratch so every weight
    /// chunk is one contiguous load.
    pub(crate) fn forward_batch(
        &mut self,
        xs: &[f32],
        n: usize,
        ys: &mut Vec<f32>,
        ks: &mut KernelScratch,
    ) {
        debug_assert_eq!(xs.len(), n * self.in_dim, "dense batch size mismatch");
        let (n_in, n_out) = (self.in_dim, self.out_dim);
        self.cache_x.clear();
        self.cache_x.extend_from_slice(xs);
        ks.wt.clear();
        for rows in self.w.w.chunks(LANES * n_in) {
            push_transposed(&mut ks.wt, rows, n_in);
        }
        ys.clear();
        ys.resize(n * n_out, 0.0);
        self.forward_rows(xs, n, ys, |c| {
            ks.wt[c * n_in..(c + 1) * n_in].iter().copied()
        });
    }

    /// Batched backward over the rows cached by [`Dense::forward_batch`].
    /// Parameter gradients accumulate in serial row order (so the
    /// per-weight addition sequence is exactly what `n` single-sample
    /// `backward` calls would produce), eight outputs at a time in
    /// transposed accumulators written back once per call. With
    /// `need_dx`, per-row input gradients go to `dxs`; otherwise `dxs` is
    /// left empty.
    pub(crate) fn backward_batch(
        &mut self,
        dys: &[f32],
        n: usize,
        need_dx: bool,
        dxs: &mut Vec<f32>,
        ks: &mut KernelScratch,
    ) {
        let (n_in, n_out) = (self.in_dim, self.out_dim);
        debug_assert_eq!(dys.len(), n * n_out);
        debug_assert_eq!(self.cache_x.len(), n * n_in);
        for o0 in (0..n_out).step_by(LANES) {
            let width = LANES.min(n_out - o0);
            ks.gs.clear();
            ks.gs.extend(
                dys.chunks_exact(n_out)
                    .map(|g| lanes_of(&g[o0..o0 + width])),
            );
            add_chunks(&mut self.b.g[o0..o0 + width], &ks.gs);

            let wg = &mut self.w.g[o0 * n_in..(o0 + width) * n_in];
            ks.acc.clear();
            push_transposed(&mut ks.acc, wg, n_in);
            let xs = &self.cache_x;
            outer_acc(&mut ks.acc, (n, 1), &ks.gs, |r| {
                &xs[r * n_in..(r + 1) * n_in]
            });
            store_transposed(&ks.acc, wg, n_in);
        }

        dxs.clear();
        if !need_dx {
            return;
        }
        // dx[i] = 0.0 + Σ_o go[o]·w[o][i], ascending `o`: eight inputs per
        // chunk, each chunk's weights read straight from `w`'s rows.
        dxs.resize(n * n_in, 0.0);
        let w = &self.w.w;
        for i0 in (0..n_in).step_by(LANES) {
            let width = LANES.min(n_in - i0);
            dot_rows(
                n,
                |r| &dys[r * n_out..(r + 1) * n_out],
                [0.0; LANES],
                (0..n_out).map(|o| lanes_of(&w[o * n_in + i0..o * n_in + i0 + width])),
                |r, acc| store_lanes(&mut dxs[r * n_in + i0..r * n_in + i0 + width], acc),
            );
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.in_dim, "dense input size mismatch");
        self.cache_x = x.to_vec();
        let mut y = self.b.w.clone();
        for (o, y_o) in y.iter_mut().enumerate() {
            let row = &self.w.w[o * self.in_dim..(o + 1) * self.in_dim];
            *y_o += row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f32>();
        }
        y
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        debug_assert_eq!(grad_out.len(), self.out_dim);
        let x = &self.cache_x;
        let mut dx = vec![0.0f32; self.in_dim];
        for (o, &go) in grad_out.iter().enumerate() {
            self.b.g[o] += go;
            let row_w = &self.w.w[o * self.in_dim..(o + 1) * self.in_dim];
            let row_g = &mut self.w.g[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                row_g[i] += go * x[i];
                dx[i] += go * row_w[i];
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::SeedableRng;

    #[test]
    fn identity_weights_pass_through() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(3, 3, &mut rng);
        d.w.w = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        d.b.w = vec![0.5, 0.0, -0.5];
        assert_eq!(d.forward(&[1.0, 2.0, 3.0]), vec![1.5, 2.0, 2.5]);
    }

    /// The tiled kernels start each sum where the reference does — a
    /// forward sum from `-0.0` (the `f32: Sum` identity), an input
    /// gradient from `0.0` — which only the sign of a zero result shows:
    /// negative weights times zeros give `-0.0` products.
    #[test]
    fn batched_sums_keep_the_sign_of_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Dense::new(3, 9, &mut rng);
        d.w.w.iter_mut().for_each(|w| *w = -w.abs() - 0.5);
        d.b.w.iter_mut().for_each(|b| *b = -0.0);
        let bits = |v: &[f32]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
        let (x, dy) = ([0.0f32; 3], [0.0f32; 9]);

        let y = d.forward(&x);
        assert_eq!(bits(&y), bits(&[-0.0; 9]));
        let mut inferred = vec![1.0f32; 9];
        d.infer_into(&x, &mut inferred);
        assert_eq!(bits(&inferred), bits(&y));
        let mut batched = Vec::new();
        let mut ks = KernelScratch::default();
        d.forward_batch(&x, 1, &mut batched, &mut ks);
        assert_eq!(bits(&batched), bits(&y));

        let dx = d.backward(&dy);
        assert_eq!(bits(&dx), bits(&[0.0; 3]));
        let mut dxs = Vec::new();
        d.backward_batch(&dy, 1, true, &mut dxs, &mut ks);
        assert_eq!(bits(&dxs), bits(&dx));
    }

    #[test]
    fn gradcheck_dense() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(4, 6, &mut rng);
        let x = [0.2, -1.0, 0.7, 0.05];
        gradcheck::check_input_grad(&mut d, &x, 1e-2);
        gradcheck::check_param_grad(&mut d, &x, 1e-2);
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = [1.0, 1.0];
        let _ = d.forward(&x);
        let _ = d.backward(&[1.0, 0.0]);
        let g1 = d.b.g.clone();
        let _ = d.forward(&x);
        let _ = d.backward(&[1.0, 0.0]);
        assert_eq!(d.b.g[0], 2.0 * g1[0]);
    }
}
