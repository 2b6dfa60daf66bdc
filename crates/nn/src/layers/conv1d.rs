//! 1-D valid convolution over a single-channel sequence.
//!
//! Pensieve feeds each temporal input (throughput history, download-time
//! history, next-chunk sizes) through a 1-D convolution with 128 filters and
//! kernel 4, then flattens. Output layout is filter-major:
//! `y[f * M + m]` where `M = L - K + 1`.

use super::kernel::{
    add_chunks, dot_rows, gather, lanes_of, outer_acc, push_transposed, store_transposed,
    KernelScratch, Lanes, LANES,
};
use super::Layer;
use crate::param::{xavier_limit, Param};
use rand::rngs::StdRng;

/// Single-channel 1-D convolution (stride 1, valid padding).
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_len: usize,
    filters: usize,
    kernel: usize,
    w: Param,
    b: Param,
    cache_x: Vec<f32>,
}

impl Conv1d {
    /// Creates a conv layer for inputs of length `in_len`. If the requested
    /// kernel exceeds the input length it is clamped to `in_len` (generated
    /// state programs may emit short temporal features).
    pub fn new(in_len: usize, filters: usize, kernel: usize, rng: &mut StdRng) -> Self {
        assert!(
            in_len > 0 && filters > 0 && kernel > 0,
            "conv dims must be positive"
        );
        let kernel = kernel.min(in_len);
        let limit = xavier_limit(kernel, filters);
        Self {
            in_len,
            filters,
            kernel,
            w: Param::uniform(filters * kernel, limit, rng),
            b: Param::zeros(filters),
            cache_x: Vec::new(),
        }
    }

    fn out_len(&self) -> usize {
        self.in_len - self.kernel + 1
    }

    /// Effective kernel size (after clamping to the input length).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// The one conv forward kernel: for every row of `xs`, output
    /// `y[f * M + m]` starts from the bias `b[f]` and adds
    /// `w[f][k]·x[m + k]` in ascending `k` — the arithmetic of
    /// [`Layer::forward`] — eight filters and four positions at a time.
    /// `cols(c)` yields the weight chunks of filter chunk `c`, one per
    /// kernel tap.
    fn forward_rows<I: Iterator<Item = Lanes> + Clone>(
        &self,
        xs: &[f32],
        ys: &mut [f32],
        cols: impl Fn(usize) -> I,
    ) {
        let (k_len, m_len) = (self.kernel, self.out_len());
        for (x, y) in xs
            .chunks_exact(self.in_len)
            .zip(ys.chunks_exact_mut(self.filters * m_len))
        {
            for (c, bias) in self.b.w.chunks(LANES).enumerate() {
                let f0 = c * LANES;
                dot_rows(
                    m_len,
                    |m| &x[m..m + k_len],
                    lanes_of(bias),
                    cols(c),
                    |m, acc| {
                        let mut j = 0;
                        while j < bias.len() {
                            y[(f0 + j) * m_len + m] = acc[j];
                            j += 1;
                        }
                    },
                );
            }
        }
    }

    /// Inference-only forward writing into `y` (`out_dim` long): no input
    /// cache, no allocation, bit-identical arithmetic to
    /// [`Layer::forward`]. Reads the weights in place (the last filter
    /// chunk repeats its final filter in the unused lanes).
    pub(crate) fn infer_into(&self, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_len, "conv1d input size mismatch");
        debug_assert_eq!(y.len(), self.out_dim());
        let k_len = self.kernel;
        self.forward_rows(x, y, |c| {
            let taps: [&[f32]; LANES] = std::array::from_fn(|j| {
                let f = (c * LANES + j).min(self.filters - 1);
                &self.w.w[f * k_len..(f + 1) * k_len]
            });
            (0..k_len).map(move |k| gather(&taps, k))
        });
    }

    /// Batched caching forward over `n` rows: appends `n` rows of `out_dim`
    /// outputs to `ys` and caches the inputs for
    /// [`Conv1d::backward_batch`]. Per row bit-identical to
    /// [`Layer::forward`]; allocation-free after warm-up. The weights are
    /// transposed once per call into filter-chunk-major scratch.
    pub(crate) fn forward_batch(
        &mut self,
        xs: &[f32],
        n: usize,
        ys: &mut Vec<f32>,
        ks: &mut KernelScratch,
    ) {
        debug_assert_eq!(xs.len(), n * self.in_len, "conv1d batch size mismatch");
        let k_len = self.kernel;
        self.cache_x.clear();
        self.cache_x.extend_from_slice(xs);
        ks.wt.clear();
        for rows in self.w.w.chunks(LANES * k_len) {
            push_transposed(&mut ks.wt, rows, k_len);
        }
        ys.clear();
        ys.resize(n * self.out_dim(), 0.0);
        self.forward_rows(xs, ys, |c| {
            ks.wt[c * k_len..(c + 1) * k_len].iter().copied()
        });
    }

    /// Batched backward over the rows cached by [`Conv1d::forward_batch`].
    /// Parameter gradients accumulate in serial row order, then position
    /// order (the per-weight addition sequence of `n` single-sample
    /// `backward` calls), eight filters at a time in transposed
    /// accumulators written back once per call. With `need_dx`, per-row
    /// input gradients go to `dxs`; otherwise `dxs` is left empty.
    pub(crate) fn backward_batch(
        &mut self,
        dys: &[f32],
        n: usize,
        need_dx: bool,
        dxs: &mut Vec<f32>,
        ks: &mut KernelScratch,
    ) {
        let (k_len, m_len, filters) = (self.kernel, self.out_len(), self.filters);
        debug_assert_eq!(dys.len(), n * filters * m_len);
        debug_assert_eq!(self.cache_x.len(), n * self.in_len);
        for f0 in (0..filters).step_by(LANES) {
            let width = LANES.min(filters - f0);
            ks.gs.clear();
            for g in dys.chunks_exact(filters * m_len) {
                push_transposed(&mut ks.gs, &g[f0 * m_len..(f0 + width) * m_len], m_len);
            }
            add_chunks(&mut self.b.g[f0..f0 + width], &ks.gs);

            let wg = &mut self.w.g[f0 * k_len..(f0 + width) * k_len];
            ks.acc.clear();
            push_transposed(&mut ks.acc, wg, k_len);
            let (xs, in_len) = (&self.cache_x, self.in_len);
            outer_acc(&mut ks.acc, (n, m_len), &ks.gs, |r| {
                &xs[r * in_len..(r + 1) * in_len]
            });
            store_transposed(&ks.acc, wg, k_len);
        }

        dxs.clear();
        if !need_dx {
            return;
        }
        dxs.resize(n * self.in_len, 0.0);
        for (grad_out, dx) in dys
            .chunks_exact(filters * m_len)
            .zip(dxs.chunks_exact_mut(self.in_len))
        {
            for (w, g) in self
                .w
                .w
                .chunks_exact(k_len)
                .zip(grad_out.chunks_exact(m_len))
            {
                for (m, &go) in g.iter().enumerate() {
                    for (d, &wk) in dx[m..m + k_len].iter_mut().zip(w) {
                        *d += go * wk;
                    }
                }
            }
        }
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.in_len, "conv1d input size mismatch");
        self.cache_x = x.to_vec();
        let m_len = self.out_len();
        let mut y = vec![0.0f32; self.filters * m_len];
        for f in 0..self.filters {
            let w = &self.w.w[f * self.kernel..(f + 1) * self.kernel];
            let bias = self.b.w[f];
            for m in 0..m_len {
                let mut acc = bias;
                for (k, &wk) in w.iter().enumerate() {
                    acc += wk * x[m + k];
                }
                y[f * m_len + m] = acc;
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        let m_len = self.out_len();
        debug_assert_eq!(grad_out.len(), self.filters * m_len);
        let x = &self.cache_x;
        let mut dx = vec![0.0f32; self.in_len];
        for f in 0..self.filters {
            let w = &self.w.w[f * self.kernel..(f + 1) * self.kernel];
            let wg = &mut self.w.g[f * self.kernel..(f + 1) * self.kernel];
            for m in 0..m_len {
                let go = grad_out[f * m_len + m];
                self.b.g[f] += go;
                for k in 0..self.kernel {
                    wg[k] += go * x[m + k];
                    dx[m + k] += go * w[k];
                }
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
        self.filters * self.out_len()
    }

    fn in_dim(&self) -> usize {
        self.in_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::SeedableRng;

    #[test]
    fn moving_sum_kernel() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Conv1d::new(5, 1, 2, &mut rng);
        c.w.w = vec![1.0, 1.0];
        c.b.w = vec![0.0];
        let y = c.forward(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(y, vec![3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn output_layout_is_filter_major() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Conv1d::new(3, 2, 2, &mut rng);
        c.w.w = vec![1.0, 0.0, 0.0, 1.0]; // f0 = x[m], f1 = x[m+1]
        c.b.w = vec![0.0, 0.0];
        let y = c.forward(&[10.0, 20.0, 30.0]);
        assert_eq!(y, vec![10.0, 20.0, 20.0, 30.0]);
    }

    #[test]
    fn kernel_clamps_to_short_inputs() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = Conv1d::new(2, 4, 8, &mut rng);
        assert_eq!(c.kernel(), 2);
        assert_eq!(c.out_dim(), 4); // M = 1
    }

    #[test]
    fn gradcheck_conv1d() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = Conv1d::new(8, 3, 4, &mut rng);
        let x = [0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.3, 0.9];
        gradcheck::check_input_grad(&mut c, &x, 1e-2);
        gradcheck::check_param_grad(&mut c, &x, 1e-2);
    }

    #[test]
    fn pensieve_shape() {
        // 128 filters, kernel 4 over an 8-long history: 128 * 5 outputs.
        let mut rng = StdRng::seed_from_u64(5);
        let c = Conv1d::new(8, 128, 4, &mut rng);
        assert_eq!(c.out_dim(), 640);
    }
}
