//! Vanilla tanh RNN over a scalar sequence.
//!
//! The paper's best Starlink architecture replaces Pensieve's 1-D CNN with
//! an RNN. Temporal branch inputs here are scalar sequences (one measurement
//! per history slot), so the RNN consumes one scalar per step and emits its
//! final hidden state.

use super::Layer;
use crate::param::{xavier_limit, Param};
use rand::rngs::StdRng;

/// `h_t = tanh(wx * x_t + Wh h_{t-1} + b)`, output `h_T`.
#[derive(Debug, Clone)]
pub struct Rnn {
    seq_len: usize,
    units: usize,
    /// Input weights, `[units]` (scalar input per step).
    wx: Param,
    /// Recurrent weights, row-major `[units][units]`.
    wh: Param,
    /// Bias, `[units]`.
    b: Param,
    cache_x: Vec<f32>,
    /// Hidden states `h_0..h_T`, each `units` long.
    cache_h: Vec<Vec<f32>>,
    /// Batched-forward caches: inputs (`n * seq_len`) and hidden states
    /// (`n * (seq_len + 1) * units`, `h_0..h_T` per row).
    cache_bx: Vec<f32>,
    cache_bh: Vec<f32>,
    /// Reusable BPTT scratch for [`Rnn::backward_batch`].
    scratch_da: Vec<f32>,
    scratch_dh: Vec<f32>,
    scratch_dh_prev: Vec<f32>,
}

impl Rnn {
    /// Creates an RNN for sequences of length `seq_len`.
    pub fn new(seq_len: usize, units: usize, rng: &mut StdRng) -> Self {
        assert!(seq_len > 0 && units > 0, "rnn dims must be positive");
        let lim_x = xavier_limit(1, units);
        let lim_h = xavier_limit(units, units);
        Self {
            seq_len,
            units,
            wx: Param::uniform(units, lim_x, rng),
            wh: Param::uniform(units * units, lim_h, rng),
            b: Param::zeros(units),
            cache_x: Vec::new(),
            cache_h: Vec::new(),
            cache_bx: Vec::new(),
            cache_bh: Vec::new(),
            scratch_da: Vec::new(),
            scratch_dh: Vec::new(),
            scratch_dh_prev: Vec::new(),
        }
    }
}

impl Rnn {
    /// Inference-only forward writing the final hidden state into `y`
    /// (`units` long). `h0`/`h1` are reusable hidden-state buffers; no
    /// caches are touched and the arithmetic is bit-identical to
    /// [`Layer::forward`].
    pub(crate) fn infer_into(
        &self,
        x: &[f32],
        y: &mut [f32],
        h0: &mut Vec<f32>,
        h1: &mut Vec<f32>,
    ) {
        debug_assert_eq!(x.len(), self.seq_len, "rnn input size mismatch");
        debug_assert_eq!(y.len(), self.units);
        h0.clear();
        h0.resize(self.units, 0.0);
        h1.clear();
        h1.resize(self.units, 0.0);
        for &xt in x {
            for (u, h1_u) in h1.iter_mut().enumerate() {
                let mut a = self.wx.w[u] * xt + self.b.w[u];
                let row = &self.wh.w[u * self.units..(u + 1) * self.units];
                a += row.iter().zip(h0.iter()).map(|(w, h)| w * h).sum::<f32>();
                *h1_u = a.tanh();
            }
            std::mem::swap(h0, h1);
        }
        y.copy_from_slice(h0);
    }

    /// Batched caching forward over `n` sequences: appends the `n` final
    /// hidden states to `ys` and caches the full hidden trajectories for
    /// [`Rnn::backward_batch`]. Per row bit-identical to
    /// [`Layer::forward`]; allocation-free after warm-up.
    pub(crate) fn forward_batch(&mut self, xs: &[f32], n: usize, ys: &mut Vec<f32>) {
        debug_assert_eq!(xs.len(), n * self.seq_len, "rnn batch size mismatch");
        self.cache_bx.clear();
        self.cache_bx.extend_from_slice(xs);
        let h_stride = (self.seq_len + 1) * self.units;
        self.cache_bh.clear();
        self.cache_bh.resize(n * h_stride, 0.0);
        ys.clear();
        ys.resize(n * self.units, 0.0);
        for ((x, hs), y) in xs
            .chunks_exact(self.seq_len)
            .zip(self.cache_bh.chunks_exact_mut(h_stride))
            .zip(ys.chunks_exact_mut(self.units))
        {
            // hs starts all-zero, so hs[0..units] is h_0 already.
            for (t, &xt) in x.iter().enumerate() {
                let (prev, rest) = hs.split_at_mut((t + 1) * self.units);
                let h_prev = &prev[t * self.units..];
                let h = &mut rest[..self.units];
                for (u, h_u) in h.iter_mut().enumerate() {
                    let mut a = self.wx.w[u] * xt + self.b.w[u];
                    let row = &self.wh.w[u * self.units..(u + 1) * self.units];
                    a += row.iter().zip(h_prev).map(|(w, h)| w * h).sum::<f32>();
                    *h_u = a.tanh();
                }
            }
            y.copy_from_slice(&hs[self.seq_len * self.units..]);
        }
    }

    /// Batched backward-through-time over the trajectories cached by
    /// [`Rnn::forward_batch`]: rows are processed in serial order, each
    /// mirroring the single-sample `backward` accumulation exactly. With
    /// `need_dx`, per-row input gradients go to `dxs`; otherwise `dxs` is
    /// left empty.
    pub(crate) fn backward_batch(
        &mut self,
        dys: &[f32],
        n: usize,
        need_dx: bool,
        dxs: &mut Vec<f32>,
    ) {
        debug_assert_eq!(dys.len(), n * self.units);
        let h_stride = (self.seq_len + 1) * self.units;
        debug_assert_eq!(self.cache_bh.len(), n * h_stride);
        dxs.clear();
        if need_dx {
            dxs.resize(n * self.seq_len, 0.0);
        }
        for (r, (grad_out, (x, hs))) in dys
            .chunks_exact(self.units)
            .zip(
                self.cache_bx
                    .chunks_exact(self.seq_len)
                    .zip(self.cache_bh.chunks_exact(h_stride)),
            )
            .enumerate()
        {
            self.scratch_dh.clear();
            self.scratch_dh.extend_from_slice(grad_out);
            for t in (0..self.seq_len).rev() {
                let h = &hs[(t + 1) * self.units..(t + 2) * self.units];
                let h_prev = &hs[t * self.units..(t + 1) * self.units];
                let xt = x[t];
                // da = dh ⊙ (1 - h²)
                self.scratch_da.clear();
                self.scratch_da.extend(
                    self.scratch_dh
                        .iter()
                        .zip(h)
                        .map(|(&d, &hv)| d * (1.0 - hv * hv)),
                );
                self.scratch_dh_prev.clear();
                self.scratch_dh_prev.resize(self.units, 0.0);
                let mut dxt = 0.0f32;
                for (u, &dau) in self.scratch_da.iter().enumerate().take(self.units) {
                    self.wx.g[u] += dau * xt;
                    self.b.g[u] += dau;
                    dxt += dau * self.wx.w[u];
                    let row_w = &self.wh.w[u * self.units..(u + 1) * self.units];
                    let row_g = &mut self.wh.g[u * self.units..(u + 1) * self.units];
                    for v in 0..self.units {
                        row_g[v] += dau * h_prev[v];
                        self.scratch_dh_prev[v] += dau * row_w[v];
                    }
                }
                if need_dx {
                    dxs[r * self.seq_len + t] = dxt;
                }
                std::mem::swap(&mut self.scratch_dh, &mut self.scratch_dh_prev);
            }
        }
    }
}

impl Layer for Rnn {
    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.seq_len, "rnn input size mismatch");
        self.cache_x = x.to_vec();
        self.cache_h = Vec::with_capacity(self.seq_len + 1);
        self.cache_h.push(vec![0.0; self.units]);
        for &xt in x {
            let h_prev = self.cache_h.last().expect("h0 pushed").clone();
            let mut h = vec![0.0f32; self.units];
            for u in 0..self.units {
                let mut a = self.wx.w[u] * xt + self.b.w[u];
                let row = &self.wh.w[u * self.units..(u + 1) * self.units];
                a += row.iter().zip(&h_prev).map(|(w, h)| w * h).sum::<f32>();
                h[u] = a.tanh();
            }
            self.cache_h.push(h);
        }
        self.cache_h.last().expect("non-empty").clone()
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        debug_assert_eq!(grad_out.len(), self.units);
        let mut dh = grad_out.to_vec();
        let mut dx = vec![0.0f32; self.seq_len];
        for t in (0..self.seq_len).rev() {
            let h = &self.cache_h[t + 1];
            let h_prev = &self.cache_h[t];
            let xt = self.cache_x[t];
            // da = dh ⊙ (1 - h²)
            let da: Vec<f32> = dh
                .iter()
                .zip(h)
                .map(|(&d, &hv)| d * (1.0 - hv * hv))
                .collect();
            let mut dh_prev = vec![0.0f32; self.units];
            for (u, &dau) in da.iter().enumerate().take(self.units) {
                self.wx.g[u] += dau * xt;
                self.b.g[u] += dau;
                dx[t] += dau * self.wx.w[u];
                let row_w = &self.wh.w[u * self.units..(u + 1) * self.units];
                let row_g = &mut self.wh.g[u * self.units..(u + 1) * self.units];
                for v in 0..self.units {
                    row_g[v] += dau * h_prev[v];
                    dh_prev[v] += dau * row_w[v];
                }
            }
            dh = dh_prev;
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wx);
        f(&mut self.wh);
        f(&mut self.b);
    }

    fn out_dim(&self) -> usize {
        self.units
    }

    fn in_dim(&self) -> usize {
        self.seq_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use rand::SeedableRng;

    #[test]
    fn output_is_final_hidden_state() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = Rnn::new(4, 3, &mut rng);
        let y = r.forward(&[0.1, -0.2, 0.3, 0.0]);
        assert_eq!(y.len(), 3);
        assert!(
            y.iter().all(|v| v.abs() <= 1.0),
            "tanh keeps outputs in [-1,1]"
        );
    }

    #[test]
    fn order_matters() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut r = Rnn::new(3, 4, &mut rng);
        let a = r.forward(&[1.0, 0.0, -1.0]);
        let b = r.forward(&[-1.0, 0.0, 1.0]);
        assert_ne!(a, b, "an RNN must be order-sensitive");
    }

    #[test]
    fn gradcheck_rnn() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut r = Rnn::new(5, 4, &mut rng);
        let x = [0.4, -0.6, 0.2, 0.9, -0.3];
        gradcheck::check_input_grad(&mut r, &x, 2e-2);
        gradcheck::check_param_grad(&mut r, &x, 2e-2);
    }
}
