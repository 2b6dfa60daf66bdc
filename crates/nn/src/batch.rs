//! Batched, inference-only execution support.
//!
//! The training rollout and checkpoint evaluation only need *forward*
//! passes — caching activations for backprop there is pure overhead, and
//! allocating output vectors per layer per step dominates the small
//! networks' runtime. This module defines the flat-row feature layout the
//! batched paths speak, and the reusable scratch their kernels write into.
//!
//! The contract throughout: batched inference is **bit-identical** to the
//! caching single-sample [`crate::graph::ActorCritic::forward`] — every
//! per-element accumulation happens in the same order — so switching a
//! loop to the batched path never changes a result, only its cost.

use crate::graph::FeatureShape;
use crate::layers::{KernelScratch, RecurrentScratch};

/// The flat-row layout of a fixed feature tuple: each sample is one
/// `stride()`-long `f32` row, features concatenated in program order with
/// vector features flattened. `nada_dsl`'s `eval_batch_with` produces rows
/// in this layout; the batched network paths consume them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureLayout {
    lens: Vec<usize>,
    stride: usize,
}

impl FeatureLayout {
    /// Layout for a tuple of feature shapes.
    pub fn new(shapes: &[FeatureShape]) -> Self {
        Self::from_lens(shapes.iter().map(|s| s.len()).collect())
    }

    /// Layout from per-feature lengths.
    pub fn from_lens(lens: Vec<usize>) -> Self {
        let stride = lens.iter().sum();
        Self { lens, stride }
    }

    /// Per-feature lengths, in order.
    pub fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// Row length (sum of feature lengths).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows a flat buffer holds.
    ///
    /// # Panics
    /// Panics when `data` is not a whole number of rows.
    pub fn rows_in<'d>(&self, data: &'d [f32]) -> impl ExactSizeIterator<Item = &'d [f32]> {
        assert!(self.stride > 0, "empty feature layout");
        assert_eq!(
            data.len() % self.stride,
            0,
            "flat buffer of {} is not a whole number of {}-long rows",
            data.len(),
            self.stride
        );
        data.chunks_exact(self.stride)
    }
}

/// Reusable buffers for the inference-only network paths. One instance per
/// actor/evaluator; after warm-up no call allocates.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    pub(crate) concat: Vec<f32>,
    pub(crate) ping: Vec<f32>,
    pub(crate) branch_out: Vec<f32>,
    pub(crate) actor_feat: Vec<f32>,
    pub(crate) critic_feat: Vec<f32>,
    pub(crate) recurrent: RecurrentScratch,
}

/// Reusable buffers for the batched *training* paths
/// ([`crate::graph::ActorCritic::forward_batch`] /
/// [`crate::graph::ActorCritic::backward_batch`]): branch gather/scatter
/// staging, Sequential ping-pong partners, head feature rows and gradient
/// rows, and the kernels' own transposition buffers. One instance per
/// trainer; after warm-up no call allocates.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    pub(crate) gather: Vec<f32>,
    pub(crate) concat: Vec<f32>,
    pub(crate) ping: Vec<f32>,
    pub(crate) branch_ys: Vec<f32>,
    pub(crate) actor_rows: Vec<f32>,
    pub(crate) critic_rows: Vec<f32>,
    pub(crate) d_actor: Vec<f32>,
    pub(crate) d_critic: Vec<f32>,
    pub(crate) d_total: Vec<f32>,
    pub(crate) dconcat: Vec<f32>,
    pub(crate) dbranch: Vec<f32>,
    pub(crate) dx_sink: Vec<f32>,
    pub(crate) kernel: KernelScratch,
}

/// Numerically stable softmax computed in place — bit-identical to
/// [`crate::a2c::softmax`] (same max-shift, same exponentiation and
/// normalization order), without the allocation.
pub fn softmax_into(logits: &mut [f32]) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for z in logits.iter_mut() {
        *z = (*z - max).exp();
    }
    let sum: f32 = logits.iter().sum();
    for e in logits.iter_mut() {
        *e /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::a2c::softmax;

    #[test]
    fn layout_flattens_shapes() {
        let l = FeatureLayout::new(&[
            FeatureShape::Temporal(8),
            FeatureShape::Scalar,
            FeatureShape::Temporal(6),
        ]);
        assert_eq!(l.lens(), &[8, 1, 6]);
        assert_eq!(l.stride(), 15);
        let data = vec![0.0f32; 45];
        assert_eq!(l.rows_in(&data).len(), 3);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn layout_rejects_ragged_buffers() {
        let l = FeatureLayout::from_lens(vec![2, 1]);
        let data = vec![0.0f32; 7];
        let _ = l.rows_in(&data);
    }

    #[test]
    fn softmax_into_matches_softmax_bitwise() {
        for logits in [
            vec![1.0f32, 2.0, 3.0],
            vec![1000.0, 1001.0],
            vec![-4.5, 0.0, 7.25, 7.25],
        ] {
            let reference = softmax(&logits);
            let mut inplace = logits.clone();
            softmax_into(&mut inplace);
            assert_eq!(reference, inplace);
        }
    }
}
