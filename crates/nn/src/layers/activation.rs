//! Elementwise activation functions.

use super::Layer;
use crate::param::Param;

/// Runs `$body` with `$kind` rebound to a value whose variant is known at
/// compile time in each arm, so the per-element `match` inside
/// [`Activation::apply`] and [`Activation::derivative`] folds away and the
/// loop in `$body` runs branch-free over one formula.
macro_rules! with_kind {
    ($kind:expr, |$k:ident| $body:block) => {
        match $kind {
            Activation::Relu => {
                let $k = Activation::Relu;
                $body
            }
            Activation::LeakyRelu { alpha } => {
                let $k = Activation::LeakyRelu { alpha };
                $body
            }
            Activation::Tanh => {
                let $k = Activation::Tanh;
                $body
            }
            Activation::Sigmoid => {
                let $k = Activation::Sigmoid;
                $body
            }
            Activation::Linear => {
                let $k = Activation::Linear;
                $body
            }
        }
    };
}

/// Supported activation kinds. `LeakyRelu`'s slope is the paper's discovered
/// FCC architecture change; the rest appear in the original Pensieve design
/// or in generated architectures.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// `x` for `x >= 0`, `alpha * x` otherwise.
    LeakyRelu {
        /// Negative-side slope (0.01 is the common default).
        alpha: f32,
    },
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (used when a branch wants no nonlinearity).
    Linear,
}

impl Activation {
    #[inline(always)]
    fn apply(&self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu { alpha } => {
                if x >= 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Linear => x,
        }
    }

    /// `ys[i] = f(xs[i])` with the kind `match` hoisted out of the loop.
    fn apply_all(self, xs: &[f32], ys: &mut [f32]) {
        with_kind!(self, |kind| {
            for (y, &x) in ys.iter_mut().zip(xs) {
                *y = kind.apply(x);
            }
        });
    }

    /// Derivative expressed via input `x` and output `y = f(x)`.
    #[inline(always)]
    fn derivative(&self, x: f32, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu { alpha } => {
                if x > 0.0 {
                    1.0
                } else {
                    *alpha
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Linear => 1.0,
        }
    }
}

/// An activation applied elementwise to a fixed-size vector.
#[derive(Debug, Clone)]
pub struct ActivationLayer {
    kind: Activation,
    dim: usize,
    cache_x: Vec<f32>,
    cache_y: Vec<f32>,
}

impl ActivationLayer {
    /// Creates an activation layer over vectors of length `dim`.
    pub fn new(kind: Activation, dim: usize) -> Self {
        Self {
            kind,
            dim,
            cache_x: Vec::new(),
            cache_y: Vec::new(),
        }
    }

    /// The activation kind.
    pub fn kind(&self) -> Activation {
        self.kind
    }

    /// Inference-only forward writing into `y`: no caches, no allocation,
    /// bit-identical arithmetic to [`Layer::forward`].
    pub(crate) fn infer_into(&self, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.dim);
        debug_assert_eq!(y.len(), self.dim);
        self.kind.apply_all(x, y);
    }

    /// Batched caching forward over `n` rows: appends `n * dim` outputs to
    /// `ys` and caches inputs/outputs for
    /// [`ActivationLayer::backward_batch`]. Bit-identical per element to
    /// [`Layer::forward`]; allocation-free after warm-up.
    pub(crate) fn forward_batch(&mut self, xs: &[f32], n: usize, ys: &mut Vec<f32>) {
        debug_assert_eq!(xs.len(), n * self.dim);
        self.cache_x.clear();
        self.cache_x.extend_from_slice(xs);
        self.cache_y.resize(xs.len(), 0.0);
        self.kind.apply_all(xs, &mut self.cache_y);
        ys.clear();
        ys.extend_from_slice(&self.cache_y);
    }

    /// Batched backward over the rows cached by
    /// [`ActivationLayer::forward_batch`]. Stateless per element, so row
    /// order is irrelevant; gradients are bit-identical to `backward`. With
    /// `need_dx` false there is nothing to compute and `dxs` is left empty.
    pub(crate) fn backward_batch(
        &mut self,
        dys: &[f32],
        n: usize,
        need_dx: bool,
        dxs: &mut Vec<f32>,
    ) {
        debug_assert_eq!(dys.len(), n * self.dim);
        debug_assert_eq!(self.cache_x.len(), n * self.dim);
        dxs.clear();
        if !need_dx {
            return;
        }
        dxs.resize(dys.len(), 0.0);
        let (xs, ys) = (&self.cache_x, &self.cache_y);
        with_kind!(self.kind, |kind| {
            for (dx, (&g, (&x, &y))) in dxs.iter_mut().zip(dys.iter().zip(xs.iter().zip(ys))) {
                *dx = g * kind.derivative(x, y);
            }
        });
    }
}

impl Layer for ActivationLayer {
    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.dim);
        self.cache_x = x.to_vec();
        self.cache_y = x.iter().map(|&v| self.kind.apply(v)).collect();
        self.cache_y.clone()
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        grad_out
            .iter()
            .zip(self.cache_x.iter().zip(&self.cache_y))
            .map(|(&g, (&x, &y))| g * self.kind.derivative(x, y))
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn for_each_param(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn out_dim(&self) -> usize {
        self.dim
    }

    fn in_dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn relu_zeroes_negatives() {
        let mut a = ActivationLayer::new(Activation::Relu, 3);
        assert_eq!(a.forward(&[-1.0, 0.0, 2.0]), vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn leaky_relu_keeps_slope() {
        let mut a = ActivationLayer::new(Activation::LeakyRelu { alpha: 0.1 }, 2);
        let y = a.forward(&[-2.0, 2.0]);
        assert!((y[0] + 0.2).abs() < 1e-6);
        assert_eq!(y[1], 2.0);
    }

    #[test]
    fn sigmoid_is_bounded() {
        let mut a = ActivationLayer::new(Activation::Sigmoid, 2);
        let y = a.forward(&[-50.0, 50.0]);
        assert!(y[0] > 0.0 && y[0] < 1e-6);
        assert!(y[1] > 1.0 - 1e-6 && y[1] <= 1.0);
    }

    #[test]
    fn gradcheck_all_kinds() {
        for kind in [
            Activation::Relu,
            Activation::LeakyRelu { alpha: 0.05 },
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Linear,
        ] {
            let mut a = ActivationLayer::new(kind, 4);
            // Keep inputs away from ReLU's kink where the numeric gradient
            // is undefined.
            let x = [0.6, -0.8, 1.4, -0.2];
            gradcheck::check_input_grad(&mut a, &x, 1e-2);
        }
    }
}
