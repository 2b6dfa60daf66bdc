//! LSTM over a scalar sequence.
//!
//! The paper's best 4G architecture swaps Pensieve's 1-D CNN for an LSTM.
//! As with [`super::Rnn`], the input is one scalar per history slot and the
//! output is the final hidden state.

use super::Layer;
use crate::param::{xavier_limit, Param};
use rand::rngs::StdRng;

/// Cached per-step values needed by backpropagation through time.
#[derive(Debug, Clone)]
struct StepCache {
    x: f32,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    o: Vec<f32>,
    g: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// Standard LSTM cell unrolled over the sequence:
///
/// ```text
/// i = σ(Wi z + bi)    f = σ(Wf z + bf)
/// o = σ(Wo z + bo)    g = tanh(Wg z + bg)
/// c_t = f ⊙ c_{t-1} + i ⊙ g
/// h_t = o ⊙ tanh(c_t)          z = [x_t ; h_{t-1}]
/// ```
#[derive(Debug, Clone)]
pub struct Lstm {
    seq_len: usize,
    units: usize,
    /// Gate weights, each row-major `[units][1 + units]` (input then hidden).
    wi: Param,
    wf: Param,
    wo: Param,
    wg: Param,
    bi: Param,
    bf: Param,
    bo: Param,
    bg: Param,
    cache: Vec<StepCache>,
    /// Batched-forward cache: per row, per step, the values `backward_batch`
    /// needs — `x` (1 value) then `h_prev, c_prev, i, f, o, g, tanh_c`
    /// (`units` values each), so `1 + 7 * units` per step.
    cache_b: Vec<f32>,
    /// Reusable forward/backward scratch for the batched kernels.
    scratch_h: Vec<f32>,
    scratch_c: Vec<f32>,
    scratch_gates: Vec<f32>,
    scratch_da: Vec<f32>,
    scratch_dh: Vec<f32>,
    scratch_dh_prev: Vec<f32>,
    scratch_dc: Vec<f32>,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Lstm {
    /// Creates an LSTM for sequences of length `seq_len`. The forget-gate
    /// bias starts at 1 (the usual trick to let gradients flow early).
    pub fn new(seq_len: usize, units: usize, rng: &mut StdRng) -> Self {
        assert!(seq_len > 0 && units > 0, "lstm dims must be positive");
        let z_dim = 1 + units;
        let lim = xavier_limit(z_dim, units);
        let gate = |rng: &mut StdRng| Param::uniform(units * z_dim, lim, rng);
        let mut bf = Param::zeros(units);
        bf.w.iter_mut().for_each(|b| *b = 1.0);
        Self {
            seq_len,
            units,
            wi: gate(rng),
            wf: gate(rng),
            wo: gate(rng),
            wg: gate(rng),
            bi: Param::zeros(units),
            bf,
            bo: Param::zeros(units),
            bg: Param::zeros(units),
            cache: Vec::new(),
            cache_b: Vec::new(),
            scratch_h: Vec::new(),
            scratch_c: Vec::new(),
            scratch_gates: Vec::new(),
            scratch_da: Vec::new(),
            scratch_dh: Vec::new(),
            scratch_dh_prev: Vec::new(),
            scratch_dc: Vec::new(),
        }
    }

    /// `W z + b` where `z = [x ; h_prev]`.
    fn gate_preact(w: &Param, b: &Param, units: usize, x: f32, h_prev: &[f32]) -> Vec<f32> {
        let z_dim = 1 + h_prev.len();
        (0..units)
            .map(|u| {
                let row = &w.w[u * z_dim..(u + 1) * z_dim];
                b.w[u] + row[0] * x + row[1..].iter().zip(h_prev).map(|(w, h)| w * h).sum::<f32>()
            })
            .collect()
    }

    /// Accumulates gate gradients; returns contributions to `dx` and `dh_prev`.
    fn gate_backward(
        w: &mut Param,
        b: &mut Param,
        da: &[f32],
        x: f32,
        h_prev: &[f32],
        dx: &mut f32,
        dh_prev: &mut [f32],
    ) {
        let units = da.len();
        let z_dim = 1 + h_prev.len();
        for (u, &dau) in da.iter().enumerate().take(units) {
            b.g[u] += dau;
            let row_w = &w.w[u * z_dim..(u + 1) * z_dim];
            let row_g = &mut w.g[u * z_dim..(u + 1) * z_dim];
            row_g[0] += dau * x;
            *dx += dau * row_w[0];
            for v in 0..h_prev.len() {
                row_g[1 + v] += dau * h_prev[v];
                dh_prev[v] += dau * row_w[1 + v];
            }
        }
    }
}

impl Lstm {
    /// [`Lstm::gate_preact`] writing into a reusable buffer (identical
    /// arithmetic, no allocation).
    fn gate_preact_into(w: &Param, b: &Param, x: f32, h_prev: &[f32], out: &mut [f32]) {
        let z_dim = 1 + h_prev.len();
        for (u, out_u) in out.iter_mut().enumerate() {
            let row = &w.w[u * z_dim..(u + 1) * z_dim];
            *out_u =
                b.w[u] + row[0] * x + row[1..].iter().zip(h_prev).map(|(w, h)| w * h).sum::<f32>();
        }
    }

    /// Inference-only forward writing the final hidden state into `y`
    /// (`units` long). The six buffers are reusable scratch; no caches are
    /// touched and the arithmetic is bit-identical to [`Layer::forward`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn infer_into(
        &self,
        x: &[f32],
        y: &mut [f32],
        h: &mut Vec<f32>,
        c: &mut Vec<f32>,
        gi: &mut Vec<f32>,
        gf: &mut Vec<f32>,
        go: &mut Vec<f32>,
        gg: &mut Vec<f32>,
    ) {
        debug_assert_eq!(x.len(), self.seq_len, "lstm input size mismatch");
        debug_assert_eq!(y.len(), self.units);
        for buf in [&mut *h, &mut *c, &mut *gi, &mut *gf, &mut *go, &mut *gg] {
            buf.clear();
            buf.resize(self.units, 0.0);
        }
        for &xt in x {
            Self::gate_preact_into(&self.wi, &self.bi, xt, h, gi);
            Self::gate_preact_into(&self.wf, &self.bf, xt, h, gf);
            Self::gate_preact_into(&self.wo, &self.bo, xt, h, go);
            Self::gate_preact_into(&self.wg, &self.bg, xt, h, gg);
            for u in 0..self.units {
                let i = sigmoid(gi[u]);
                let f = sigmoid(gf[u]);
                let o = sigmoid(go[u]);
                let g = gg[u].tanh();
                let c_new = f * c[u] + i * g;
                c[u] = c_new;
                h[u] = o * c_new.tanh();
            }
        }
        y.copy_from_slice(h);
    }

    /// Values cached per step by the batched forward (see [`Lstm::cache_b`]).
    fn step_stride(&self) -> usize {
        1 + 7 * self.units
    }

    /// Batched caching forward over `n` sequences: appends the `n` final
    /// hidden states to `ys` and caches every step's gate values for
    /// [`Lstm::backward_batch`]. Per row bit-identical to
    /// [`Layer::forward`]; allocation-free after warm-up.
    pub(crate) fn forward_batch(&mut self, xs: &[f32], n: usize, ys: &mut Vec<f32>) {
        debug_assert_eq!(xs.len(), n * self.seq_len, "lstm batch size mismatch");
        let u_n = self.units;
        let step = self.step_stride();
        self.cache_b.clear();
        self.cache_b.resize(n * self.seq_len * step, 0.0);
        self.scratch_gates.clear();
        self.scratch_gates.resize(4 * u_n, 0.0);
        ys.clear();
        ys.resize(n * u_n, 0.0);
        for ((x, row_cache), y) in xs
            .chunks_exact(self.seq_len)
            .zip(self.cache_b.chunks_exact_mut(self.seq_len * step))
            .zip(ys.chunks_exact_mut(u_n))
        {
            self.scratch_h.clear();
            self.scratch_h.resize(u_n, 0.0);
            self.scratch_c.clear();
            self.scratch_c.resize(u_n, 0.0);
            let h = &mut self.scratch_h;
            let c = &mut self.scratch_c;
            for (&xt, sc) in x.iter().zip(row_cache.chunks_exact_mut(step)) {
                let (gi, rest) = self.scratch_gates.split_at_mut(u_n);
                let (gf, rest) = rest.split_at_mut(u_n);
                let (go, gg) = rest.split_at_mut(u_n);
                Self::gate_preact_into(&self.wi, &self.bi, xt, h, gi);
                Self::gate_preact_into(&self.wf, &self.bf, xt, h, gf);
                Self::gate_preact_into(&self.wo, &self.bo, xt, h, go);
                Self::gate_preact_into(&self.wg, &self.bg, xt, h, gg);
                sc[0] = xt;
                let (c_h_prev, rest) = sc[1..].split_at_mut(u_n);
                let (c_c_prev, rest) = rest.split_at_mut(u_n);
                let (c_i, rest) = rest.split_at_mut(u_n);
                let (c_f, rest) = rest.split_at_mut(u_n);
                let (c_o, rest) = rest.split_at_mut(u_n);
                let (c_g, c_tanh) = rest.split_at_mut(u_n);
                c_h_prev.copy_from_slice(h);
                c_c_prev.copy_from_slice(c);
                for u in 0..u_n {
                    let i = sigmoid(gi[u]);
                    let f = sigmoid(gf[u]);
                    let o = sigmoid(go[u]);
                    let g = gg[u].tanh();
                    let c_new = f * c[u] + i * g;
                    let tanh_c = c_new.tanh();
                    c_i[u] = i;
                    c_f[u] = f;
                    c_o[u] = o;
                    c_g[u] = g;
                    c_tanh[u] = tanh_c;
                    c[u] = c_new;
                    h[u] = o * tanh_c;
                }
            }
            y.copy_from_slice(h);
        }
    }

    /// Batched backward-through-time over the gate values cached by
    /// [`Lstm::forward_batch`]: rows are processed in serial order, each
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
        let u_n = self.units;
        let step = self.step_stride();
        debug_assert_eq!(self.cache_b.len(), n * self.seq_len * step);
        self.scratch_da.clear();
        self.scratch_da.resize(4 * u_n, 0.0);
        dxs.clear();
        if need_dx {
            dxs.resize(n * self.seq_len, 0.0);
        }
        for (r, (grad_out, row_cache)) in dys
            .chunks_exact(u_n)
            .zip(self.cache_b.chunks_exact(self.seq_len * step))
            .enumerate()
        {
            self.scratch_dh.clear();
            self.scratch_dh.extend_from_slice(grad_out);
            self.scratch_dc.clear();
            self.scratch_dc.resize(u_n, 0.0);
            for t in (0..self.seq_len).rev() {
                let sc = &row_cache[t * step..(t + 1) * step];
                let sc_x = sc[0];
                let sc_h_prev = &sc[1..1 + u_n];
                let sc_c_prev = &sc[1 + u_n..1 + 2 * u_n];
                let sc_i = &sc[1 + 2 * u_n..1 + 3 * u_n];
                let sc_f = &sc[1 + 3 * u_n..1 + 4 * u_n];
                let sc_o = &sc[1 + 4 * u_n..1 + 5 * u_n];
                let sc_g = &sc[1 + 5 * u_n..1 + 6 * u_n];
                let sc_tanh = &sc[1 + 6 * u_n..1 + 7 * u_n];
                self.scratch_dh_prev.clear();
                self.scratch_dh_prev.resize(u_n, 0.0);
                let mut dxt = 0.0f32;
                let (da_i, rest) = self.scratch_da.split_at_mut(u_n);
                let (da_f, rest) = rest.split_at_mut(u_n);
                let (da_o, da_g) = rest.split_at_mut(u_n);
                for u in 0..u_n {
                    let do_ = self.scratch_dh[u] * sc_tanh[u];
                    da_o[u] = do_ * sc_o[u] * (1.0 - sc_o[u]);
                    let dct = self.scratch_dc[u]
                        + self.scratch_dh[u] * sc_o[u] * (1.0 - sc_tanh[u] * sc_tanh[u]);
                    let di = dct * sc_g[u];
                    da_i[u] = di * sc_i[u] * (1.0 - sc_i[u]);
                    let dg = dct * sc_i[u];
                    da_g[u] = dg * (1.0 - sc_g[u] * sc_g[u]);
                    let df = dct * sc_c_prev[u];
                    da_f[u] = df * sc_f[u] * (1.0 - sc_f[u]);
                    self.scratch_dc[u] = dct * sc_f[u];
                }
                Self::gate_backward(
                    &mut self.wi,
                    &mut self.bi,
                    da_i,
                    sc_x,
                    sc_h_prev,
                    &mut dxt,
                    &mut self.scratch_dh_prev,
                );
                Self::gate_backward(
                    &mut self.wf,
                    &mut self.bf,
                    da_f,
                    sc_x,
                    sc_h_prev,
                    &mut dxt,
                    &mut self.scratch_dh_prev,
                );
                Self::gate_backward(
                    &mut self.wo,
                    &mut self.bo,
                    da_o,
                    sc_x,
                    sc_h_prev,
                    &mut dxt,
                    &mut self.scratch_dh_prev,
                );
                Self::gate_backward(
                    &mut self.wg,
                    &mut self.bg,
                    da_g,
                    sc_x,
                    sc_h_prev,
                    &mut dxt,
                    &mut self.scratch_dh_prev,
                );
                if need_dx {
                    dxs[r * self.seq_len + t] = dxt;
                }
                std::mem::swap(&mut self.scratch_dh, &mut self.scratch_dh_prev);
            }
        }
    }
}

impl Layer for Lstm {
    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.seq_len, "lstm input size mismatch");
        self.cache.clear();
        let mut h = vec![0.0f32; self.units];
        let mut c = vec![0.0f32; self.units];
        for &xt in x {
            let i: Vec<f32> = Self::gate_preact(&self.wi, &self.bi, self.units, xt, &h)
                .into_iter()
                .map(sigmoid)
                .collect();
            let f: Vec<f32> = Self::gate_preact(&self.wf, &self.bf, self.units, xt, &h)
                .into_iter()
                .map(sigmoid)
                .collect();
            let o: Vec<f32> = Self::gate_preact(&self.wo, &self.bo, self.units, xt, &h)
                .into_iter()
                .map(sigmoid)
                .collect();
            let g: Vec<f32> = Self::gate_preact(&self.wg, &self.bg, self.units, xt, &h)
                .into_iter()
                .map(f32::tanh)
                .collect();
            let c_new: Vec<f32> = (0..self.units).map(|u| f[u] * c[u] + i[u] * g[u]).collect();
            let tanh_c: Vec<f32> = c_new.iter().map(|&v| v.tanh()).collect();
            let h_new: Vec<f32> = (0..self.units).map(|u| o[u] * tanh_c[u]).collect();
            self.cache.push(StepCache {
                x: xt,
                h_prev: h,
                c_prev: c,
                i,
                f,
                o,
                g,
                tanh_c,
            });
            h = h_new;
            c = c_new;
        }
        h
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        debug_assert_eq!(grad_out.len(), self.units);
        let mut dh = grad_out.to_vec();
        let mut dc = vec![0.0f32; self.units];
        let mut dx = vec![0.0f32; self.seq_len];
        for t in (0..self.seq_len).rev() {
            let sc = self.cache[t].clone();
            let mut dh_prev = vec![0.0f32; self.units];
            let mut dxt = 0.0f32;

            let mut da_i = vec![0.0f32; self.units];
            let mut da_f = vec![0.0f32; self.units];
            let mut da_o = vec![0.0f32; self.units];
            let mut da_g = vec![0.0f32; self.units];
            for u in 0..self.units {
                let do_ = dh[u] * sc.tanh_c[u];
                da_o[u] = do_ * sc.o[u] * (1.0 - sc.o[u]);
                let dct = dc[u] + dh[u] * sc.o[u] * (1.0 - sc.tanh_c[u] * sc.tanh_c[u]);
                let di = dct * sc.g[u];
                da_i[u] = di * sc.i[u] * (1.0 - sc.i[u]);
                let dg = dct * sc.i[u];
                da_g[u] = dg * (1.0 - sc.g[u] * sc.g[u]);
                let df = dct * sc.c_prev[u];
                da_f[u] = df * sc.f[u] * (1.0 - sc.f[u]);
                dc[u] = dct * sc.f[u];
            }
            Self::gate_backward(
                &mut self.wi,
                &mut self.bi,
                &da_i,
                sc.x,
                &sc.h_prev,
                &mut dxt,
                &mut dh_prev,
            );
            Self::gate_backward(
                &mut self.wf,
                &mut self.bf,
                &da_f,
                sc.x,
                &sc.h_prev,
                &mut dxt,
                &mut dh_prev,
            );
            Self::gate_backward(
                &mut self.wo,
                &mut self.bo,
                &da_o,
                sc.x,
                &sc.h_prev,
                &mut dxt,
                &mut dh_prev,
            );
            Self::gate_backward(
                &mut self.wg,
                &mut self.bg,
                &da_g,
                sc.x,
                &sc.h_prev,
                &mut dxt,
                &mut dh_prev,
            );
            dx[t] = dxt;
            dh = dh_prev;
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wi,
            &mut self.wf,
            &mut self.wo,
            &mut self.wg,
            &mut self.bi,
            &mut self.bf,
            &mut self.bo,
            &mut self.bg,
        ]
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wi);
        f(&mut self.wf);
        f(&mut self.wo);
        f(&mut self.wg);
        f(&mut self.bi);
        f(&mut self.bf);
        f(&mut self.bo);
        f(&mut self.bg);
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
    fn output_shape_and_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Lstm::new(6, 5, &mut rng);
        let y = l.forward(&[0.1, 0.5, -0.4, 0.0, 0.2, -0.1]);
        assert_eq!(y.len(), 5);
        assert!(
            y.iter().all(|v| v.abs() <= 1.0),
            "h = o * tanh(c) is bounded"
        );
    }

    #[test]
    fn order_matters() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Lstm::new(3, 4, &mut rng);
        let a = l.forward(&[1.0, 0.0, -1.0]);
        let b = l.forward(&[-1.0, 0.0, 1.0]);
        assert_ne!(a, b);
    }

    #[test]
    fn gradcheck_lstm() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Lstm::new(4, 3, &mut rng);
        let x = [0.4, -0.6, 0.2, 0.8];
        gradcheck::check_input_grad(&mut l, &x, 2e-2);
        gradcheck::check_param_grad(&mut l, &x, 2e-2);
    }

    #[test]
    fn forget_bias_starts_open() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Lstm::new(2, 3, &mut rng);
        assert!(l.params_mut()[5].w.iter().all(|&b| (b - 1.0).abs() < 1e-6));
    }
}
