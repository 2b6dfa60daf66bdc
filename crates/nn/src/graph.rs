//! Pensieve's branch-merge actor-critic topology.
//!
//! Figure 2 of the paper: every input feature enters its own branch —
//! temporal features (histories, next-chunk sizes) through a 1-D CNN in the
//! original design, scalars through a small dense layer — the branch outputs
//! are concatenated and merged by a hidden layer, and actor/critic heads
//! produce the bitrate distribution and the value estimate.
//!
//! The original Pensieve uses two fully separate networks for actor and
//! critic; one of NADA's discovered designs (5G) shares the hidden layers
//! and keeps separate output heads. [`HeadMode`] captures both. Generated
//! architecture code blocks (see `nada-dsl`) compile to an [`ArchConfig`],
//! which [`ActorCritic::build`] turns into a trainable network.

use crate::batch::{FeatureLayout, InferScratch, TrainScratch};
use crate::layers::{
    Activation, ActivationLayer, AnyLayer, Conv1d, Dense, KernelScratch, Layer, Lstm,
    RecurrentScratch, Rnn, Sequential,
};
use crate::param::Param;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shape of one state feature as produced by a state program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FeatureShape {
    /// A single number (buffer level, last bitrate, …).
    Scalar,
    /// A sequence of the given length (throughput history, chunk sizes, …).
    Temporal(usize),
}

impl FeatureShape {
    /// Number of scalar slots the feature occupies.
    pub fn len(&self) -> usize {
        match self {
            FeatureShape::Scalar => 1,
            FeatureShape::Temporal(n) => *n,
        }
    }

    /// True only for zero-length temporal features (which are invalid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The layer type used for a branch.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum BranchKind {
    /// 1-D convolution (the original design: 128 filters, kernel 4).
    Conv1d {
        /// Number of filters.
        filters: usize,
        /// Kernel width (clamped to the input length at build time).
        kernel: usize,
    },
    /// Vanilla RNN emitting its last hidden state.
    Rnn {
        /// Hidden units.
        units: usize,
    },
    /// LSTM emitting its last hidden state.
    Lstm {
        /// Hidden units.
        units: usize,
    },
    /// Dense projection (the only valid kind for scalar features).
    Dense {
        /// Output units.
        units: usize,
    },
}

/// Whether actor and critic share feature extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum HeadMode {
    /// Two fully separate networks (original Pensieve).
    Separate,
    /// One shared trunk with separate linear output heads (a NADA-discovered
    /// variant).
    Shared,
}

/// A complete architecture description — the compile target of architecture
/// code blocks.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArchConfig {
    /// Branch applied to every temporal feature.
    pub temporal_branch: BranchKind,
    /// Activation after each temporal branch (ignored for RNN/LSTM branches,
    /// whose nonlinearity is internal).
    pub temporal_activation: Activation,
    /// Branch applied to every scalar feature (must be `Dense`).
    pub scalar_branch: BranchKind,
    /// Activation after each scalar branch.
    pub scalar_activation: Activation,
    /// Width of each merge/hidden layer.
    pub hidden_units: usize,
    /// Number of hidden layers after the concat (≥ 1).
    pub hidden_layers: usize,
    /// Activation inside the hidden stack.
    pub hidden_activation: Activation,
    /// Separate or shared actor/critic feature extraction.
    pub heads: HeadMode,
}

impl ArchConfig {
    /// The original Pensieve architecture (Figure 2): conv-128-kernel-4
    /// temporal branches, dense-128 scalar branches, ReLU, one 128-wide
    /// hidden layer, fully separate actor and critic networks.
    pub fn pensieve_original() -> Self {
        Self {
            temporal_branch: BranchKind::Conv1d {
                filters: 128,
                kernel: 4,
            },
            temporal_activation: Activation::Relu,
            scalar_branch: BranchKind::Dense { units: 128 },
            scalar_activation: Activation::Relu,
            hidden_units: 128,
            hidden_layers: 1,
            hidden_activation: Activation::Relu,
            heads: HeadMode::Separate,
        }
    }

    /// A width-reduced copy for quick-scale training runs: every unit count
    /// is divided by `factor` (floored at 4). Shapes and kinds (conv vs RNN
    /// vs LSTM, head sharing) are preserved so quick runs rank designs the
    /// same way paper-scale runs do.
    pub fn scaled_down(&self, factor: usize) -> Self {
        let f = factor.max(1);
        let shrink = |u: usize| (u / f).max(4);
        let shrink_branch = |b: BranchKind| match b {
            BranchKind::Conv1d { filters, kernel } => BranchKind::Conv1d {
                filters: shrink(filters),
                kernel,
            },
            BranchKind::Rnn { units } => BranchKind::Rnn {
                units: shrink(units),
            },
            BranchKind::Lstm { units } => BranchKind::Lstm {
                units: shrink(units),
            },
            BranchKind::Dense { units } => BranchKind::Dense {
                units: shrink(units),
            },
        };
        Self {
            temporal_branch: shrink_branch(self.temporal_branch),
            temporal_activation: self.temporal_activation,
            scalar_branch: shrink_branch(self.scalar_branch),
            scalar_activation: self.scalar_activation,
            hidden_units: shrink(self.hidden_units),
            hidden_layers: self.hidden_layers,
            hidden_activation: self.hidden_activation,
            heads: self.heads,
        }
    }
}

/// Feature extractor: per-feature branches, concatenation, hidden stack.
#[derive(Debug, Clone)]
struct FeatureNet {
    branches: Vec<Sequential>,
    trunk: Sequential,
    /// Cached per-branch output lengths (for splitting the concat gradient).
    branch_dims: Vec<usize>,
    /// Cached feature lengths for input validation.
    feature_lens: Vec<usize>,
}

impl FeatureNet {
    fn build(cfg: &ArchConfig, shapes: &[FeatureShape], rng: &mut StdRng) -> FeatureNet {
        assert!(!shapes.is_empty(), "need at least one input feature");
        let mut branches = Vec::with_capacity(shapes.len());
        for shape in shapes {
            let branch = match shape {
                FeatureShape::Scalar => match cfg.scalar_branch {
                    BranchKind::Dense { units } => Sequential::new(vec![
                        AnyLayer::Dense(Dense::new(1, units, rng)),
                        AnyLayer::Act(ActivationLayer::new(cfg.scalar_activation, units)),
                    ]),
                    other => panic!("scalar branches must be Dense, got {other:?}"),
                },
                FeatureShape::Temporal(len) => {
                    let len = *len;
                    match cfg.temporal_branch {
                        BranchKind::Conv1d { filters, kernel } => {
                            let conv = Conv1d::new(len, filters, kernel, rng);
                            let out = conv.out_dim();
                            Sequential::new(vec![
                                AnyLayer::Conv1d(conv),
                                AnyLayer::Act(ActivationLayer::new(cfg.temporal_activation, out)),
                            ])
                        }
                        BranchKind::Rnn { units } => {
                            Sequential::new(vec![AnyLayer::Rnn(Rnn::new(len, units, rng))])
                        }
                        BranchKind::Lstm { units } => {
                            Sequential::new(vec![AnyLayer::Lstm(Lstm::new(len, units, rng))])
                        }
                        BranchKind::Dense { units } => Sequential::new(vec![
                            AnyLayer::Dense(Dense::new(len, units, rng)),
                            AnyLayer::Act(ActivationLayer::new(cfg.temporal_activation, units)),
                        ]),
                    }
                }
            };
            branches.push(branch);
        }
        let branch_dims: Vec<usize> = branches.iter().map(|b| b.out_dim()).collect();
        let concat_dim: usize = branch_dims.iter().sum();
        let mut trunk_layers = Vec::new();
        let mut cur = concat_dim;
        for _ in 0..cfg.hidden_layers.max(1) {
            trunk_layers.push(AnyLayer::Dense(Dense::new(cur, cfg.hidden_units, rng)));
            trunk_layers.push(AnyLayer::Act(ActivationLayer::new(
                cfg.hidden_activation,
                cfg.hidden_units,
            )));
            cur = cfg.hidden_units;
        }
        FeatureNet {
            branches,
            trunk: Sequential::new(trunk_layers),
            branch_dims,
            feature_lens: shapes.iter().map(|s| s.len()).collect(),
        }
    }

    fn forward(&mut self, features: &[Vec<f32>]) -> Vec<f32> {
        assert_eq!(
            features.len(),
            self.branches.len(),
            "feature count mismatch: network built for {} features, got {}",
            self.branches.len(),
            features.len()
        );
        let mut concat = Vec::new();
        for ((branch, feat), &len) in self
            .branches
            .iter_mut()
            .zip(features)
            .zip(&self.feature_lens)
        {
            assert_eq!(
                feat.len(),
                len,
                "feature length changed between build and forward"
            );
            concat.extend(branch.forward(feat));
        }
        self.trunk.forward(&concat)
    }

    /// [`FeatureNet::forward`] over one flat feature row (the
    /// [`FeatureLayout`] form): same layer calls on the same slices, so
    /// caches and outputs are bit-identical.
    fn forward_flat(&mut self, row: &[f32]) -> Vec<f32> {
        let mut concat = Vec::new();
        let mut off = 0;
        for (branch, &len) in self.branches.iter_mut().zip(&self.feature_lens) {
            concat.extend(branch.forward(&row[off..off + len]));
            off += len;
        }
        assert_eq!(
            off,
            row.len(),
            "flat row length mismatch: network expects {off}, got {}",
            row.len()
        );
        self.trunk.forward(&concat)
    }

    /// Inference-only [`FeatureNet::forward_flat`]: writes the trunk output
    /// into `out` using caller-owned scratch, touching no caches and
    /// allocating nothing in steady state. Bit-identical values.
    fn infer_flat(
        &self,
        row: &[f32],
        out: &mut Vec<f32>,
        concat: &mut Vec<f32>,
        ping: &mut Vec<f32>,
        branch_out: &mut Vec<f32>,
        rs: &mut RecurrentScratch,
    ) {
        concat.clear();
        let mut off = 0;
        for (branch, &len) in self.branches.iter().zip(&self.feature_lens) {
            branch.infer_into(&row[off..off + len], branch_out, ping, rs);
            concat.extend_from_slice(branch_out);
            off += len;
        }
        debug_assert_eq!(off, row.len(), "flat row length mismatch");
        self.trunk.infer_into(&concat[..], out, ping, rs);
    }

    fn backward(&mut self, grad_out: &[f32]) {
        let dconcat = self.trunk.backward(grad_out);
        let mut off = 0;
        for (branch, &dim) in self.branches.iter_mut().zip(&self.branch_dims) {
            let _ = branch.backward(&dconcat[off..off + dim]);
            off += dim;
        }
    }

    /// Batched caching [`FeatureNet::forward_flat`] over `n` flat rows:
    /// gathers each branch's input columns into contiguous rows, runs the
    /// branch batched, scatters the outputs into concat rows, and runs the
    /// trunk batched into `out` (`n * out_dim` values). Per row
    /// bit-identical to `forward_flat`; allocation-free after warm-up.
    #[allow(clippy::too_many_arguments)]
    fn forward_batch(
        &mut self,
        rows: &[f32],
        n: usize,
        out: &mut Vec<f32>,
        gather: &mut Vec<f32>,
        concat: &mut Vec<f32>,
        branch_ys: &mut Vec<f32>,
        ping: &mut Vec<f32>,
        ks: &mut KernelScratch,
    ) {
        let stride: usize = self.feature_lens.iter().sum();
        debug_assert_eq!(rows.len(), n * stride, "flat row batch size mismatch");
        let concat_dim: usize = self.branch_dims.iter().sum();
        concat.clear();
        concat.resize(n * concat_dim, 0.0);
        let mut off = 0;
        let mut coff = 0;
        for ((branch, &len), &dim) in self
            .branches
            .iter_mut()
            .zip(&self.feature_lens)
            .zip(&self.branch_dims)
        {
            gather.clear();
            for r in 0..n {
                gather.extend_from_slice(&rows[r * stride + off..r * stride + off + len]);
            }
            branch.forward_batch(gather, n, branch_ys, ping, ks);
            for (r, ys) in branch_ys.chunks_exact(dim).enumerate() {
                concat[r * concat_dim + coff..r * concat_dim + coff + dim].copy_from_slice(ys);
            }
            off += len;
            coff += dim;
        }
        self.trunk.forward_batch(concat, n, out, ping, ks);
    }

    /// Batched [`FeatureNet::backward`] over the batch cached by
    /// [`FeatureNet::forward_batch`]: trunk first, then each branch on its
    /// column slice of the concat gradient, all in serial row order. The
    /// branches' input gradients are never read, so they are not computed;
    /// `dx_sink` only partners the branches' ping-pong buffers.
    #[allow(clippy::too_many_arguments)]
    fn backward_batch(
        &mut self,
        grad_out: &[f32],
        n: usize,
        dconcat: &mut Vec<f32>,
        dbranch: &mut Vec<f32>,
        dx_sink: &mut Vec<f32>,
        ping: &mut Vec<f32>,
        ks: &mut KernelScratch,
    ) {
        self.trunk
            .backward_batch(grad_out, n, true, dconcat, ping, ks);
        let concat_dim: usize = self.branch_dims.iter().sum();
        debug_assert_eq!(dconcat.len(), n * concat_dim);
        let mut coff = 0;
        for (branch, &dim) in self.branches.iter_mut().zip(&self.branch_dims) {
            dbranch.clear();
            for r in 0..n {
                dbranch.extend_from_slice(
                    &dconcat[r * concat_dim + coff..r * concat_dim + coff + dim],
                );
            }
            branch.backward_batch(dbranch, n, false, dx_sink, ping, ks);
            coff += dim;
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps: Vec<&mut Param> = self
            .branches
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect();
        ps.extend(self.trunk.params_mut());
        ps
    }

    /// Visits every parameter block in [`FeatureNet::params_mut`] order
    /// without materializing the `Vec`.
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for b in &mut self.branches {
            b.for_each_param(f);
        }
        self.trunk.for_each_param(f);
    }

    fn out_dim(&self) -> usize {
        self.trunk.out_dim()
    }
}

/// The actor-critic policy network.
#[derive(Debug, Clone)]
pub struct ActorCritic {
    mode: HeadMode,
    actor_net: FeatureNet,
    /// `None` in shared mode.
    critic_net: Option<FeatureNet>,
    actor_head: Dense,
    critic_head: Dense,
    n_actions: usize,
}

impl ActorCritic {
    /// Builds a network for the given feature shapes and action count.
    /// Deterministic in `seed`.
    pub fn build(cfg: &ArchConfig, shapes: &[FeatureShape], n_actions: usize, seed: u64) -> Self {
        assert!(n_actions >= 2, "need at least two actions");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAC70_0000_0000_0008);
        let actor_net = FeatureNet::build(cfg, shapes, &mut rng);
        let critic_net = match cfg.heads {
            HeadMode::Separate => Some(FeatureNet::build(cfg, shapes, &mut rng)),
            HeadMode::Shared => None,
        };
        let mut actor_head = Dense::new(actor_net.out_dim(), n_actions, &mut rng);
        // Shrink the policy head's initial weights so the starting policy is
        // near-uniform; large initial logits saturate the softmax and strand
        // REINFORCE in a zero-gradient corner.
        for p in actor_head.params_mut() {
            p.w.iter_mut().for_each(|w| *w *= 0.01);
        }
        let critic_in = critic_net
            .as_ref()
            .map(|n| n.out_dim())
            .unwrap_or(actor_net.out_dim());
        let critic_head = Dense::new(critic_in, 1, &mut rng);
        Self {
            mode: cfg.heads,
            actor_net,
            critic_net,
            actor_head,
            critic_head,
            n_actions,
        }
    }

    /// Number of selectable actions (ladder levels).
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Forward pass: returns raw actor logits and the critic value.
    /// Caches everything needed for an immediate [`ActorCritic::backward`].
    pub fn forward(&mut self, features: &[Vec<f32>]) -> (Vec<f32>, f32) {
        let actor_feat = self.actor_net.forward(features);
        let logits = self.actor_head.forward(&actor_feat);
        let value = match &mut self.critic_net {
            Some(net) => {
                let critic_feat = net.forward(features);
                self.critic_head.forward(&critic_feat)[0]
            }
            None => self.critic_head.forward(&actor_feat)[0],
        };
        (logits, value)
    }

    /// [`ActorCritic::forward`] over one flat feature row (see
    /// [`FeatureLayout`]): identical layer calls on identical slices, so
    /// caches and outputs are bit-identical — an immediate
    /// [`ActorCritic::backward`] works exactly as after `forward`.
    pub fn forward_flat(&mut self, row: &[f32]) -> (Vec<f32>, f32) {
        let actor_feat = self.actor_net.forward_flat(row);
        let logits = self.actor_head.forward(&actor_feat);
        let value = match &mut self.critic_net {
            Some(net) => {
                let critic_feat = net.forward_flat(row);
                self.critic_head.forward(&critic_feat)[0]
            }
            None => self.critic_head.forward(&actor_feat)[0],
        };
        (logits, value)
    }

    /// The flat-row layout this network consumes (one entry per input
    /// feature, vector features flattened).
    pub fn feature_layout(&self) -> FeatureLayout {
        FeatureLayout::from_lens(self.actor_net.feature_lens.clone())
    }

    /// Batched, inference-only actor logits for `rows` (flat rows per
    /// `layout`), appended to `logits` as one `n_actions`-long row per
    /// sample. Touches no caches, skips the critic entirely, performs no
    /// steady-state allocation, and each logits row is bit-identical to
    /// [`ActorCritic::forward`] on the same features.
    pub fn policy_batch(
        &self,
        rows: &[f32],
        layout: &FeatureLayout,
        logits: &mut Vec<f32>,
        scratch: &mut InferScratch,
    ) {
        assert_eq!(
            layout.lens(),
            &self.actor_net.feature_lens[..],
            "feature layout does not match the network's input features"
        );
        logits.clear();
        let InferScratch {
            concat,
            ping,
            branch_out,
            actor_feat,
            recurrent,
            ..
        } = scratch;
        for row in layout.rows_in(rows) {
            self.actor_net
                .infer_flat(row, actor_feat, concat, ping, branch_out, recurrent);
            let start = logits.len();
            logits.resize(start + self.n_actions, 0.0);
            self.actor_head.infer_into(actor_feat, &mut logits[start..]);
        }
    }

    /// Batched, inference-only critic values for `rows`, appended to
    /// `values` (one per sample). Skips the actor network in
    /// [`HeadMode::Separate`] mode; each value is bit-identical to
    /// [`ActorCritic::forward`] on the same features.
    pub fn values_batch(
        &self,
        rows: &[f32],
        layout: &FeatureLayout,
        values: &mut Vec<f32>,
        scratch: &mut InferScratch,
    ) {
        assert_eq!(
            layout.lens(),
            &self.actor_net.feature_lens[..],
            "feature layout does not match the network's input features"
        );
        values.clear();
        let InferScratch {
            concat,
            ping,
            branch_out,
            critic_feat,
            recurrent,
            ..
        } = scratch;
        let net = self.critic_net.as_ref().unwrap_or(&self.actor_net);
        for row in layout.rows_in(rows) {
            net.infer_flat(row, critic_feat, concat, ping, branch_out, recurrent);
            let mut v = [0.0f32];
            self.critic_head.infer_into(critic_feat, &mut v);
            values.push(v[0]);
        }
    }

    /// Batched caching forward over `n` flat rows: `logits` receives `n`
    /// rows of `n_actions` values, `values` one value per row, and every
    /// layer caches its batch for [`ActorCritic::backward_batch`]. Per row
    /// bit-identical to [`ActorCritic::forward_flat`]; allocation-free
    /// after warm-up.
    pub fn forward_batch(
        &mut self,
        rows: &[f32],
        layout: &FeatureLayout,
        logits: &mut Vec<f32>,
        values: &mut Vec<f32>,
        scratch: &mut TrainScratch,
    ) {
        assert_eq!(
            layout.lens(),
            &self.actor_net.feature_lens[..],
            "feature layout does not match the network's input features"
        );
        let n = rows.len() / layout.stride().max(1);
        let TrainScratch {
            gather,
            concat,
            ping,
            branch_ys,
            actor_rows,
            critic_rows,
            kernel,
            ..
        } = scratch;
        self.actor_net
            .forward_batch(rows, n, actor_rows, gather, concat, branch_ys, ping, kernel);
        self.actor_head.forward_batch(actor_rows, n, logits, kernel);
        match &mut self.critic_net {
            Some(net) => {
                net.forward_batch(
                    rows,
                    n,
                    critic_rows,
                    gather,
                    concat,
                    branch_ys,
                    ping,
                    kernel,
                );
                self.critic_head
                    .forward_batch(critic_rows, n, values, kernel);
            }
            None => self
                .critic_head
                .forward_batch(actor_rows, n, values, kernel),
        }
    }

    /// Batched backward over the batch cached by
    /// [`ActorCritic::forward_batch`]: `dlogits` holds `n` rows of
    /// `n_actions` gradients, `dvalues` one per row. Every parameter
    /// gradient accumulates in serial row order, so the result is
    /// bit-identical to `n` single-sample
    /// [`ActorCritic::forward_flat`]-then-[`ActorCritic::backward`] calls.
    pub fn backward_batch(&mut self, dlogits: &[f32], dvalues: &[f32], scratch: &mut TrainScratch) {
        let n = dvalues.len();
        debug_assert_eq!(dlogits.len(), n * self.n_actions);
        let TrainScratch {
            ping,
            d_actor,
            d_critic,
            d_total,
            dconcat,
            dbranch,
            dx_sink,
            kernel,
            ..
        } = scratch;
        self.actor_head
            .backward_batch(dlogits, n, true, d_actor, kernel);
        self.critic_head
            .backward_batch(dvalues, n, true, d_critic, kernel);
        match &mut self.critic_net {
            Some(net) => {
                self.actor_net
                    .backward_batch(d_actor, n, dconcat, dbranch, dx_sink, ping, kernel);
                net.backward_batch(d_critic, n, dconcat, dbranch, dx_sink, ping, kernel);
            }
            None => {
                // Shared trunk: sum the head gradients before one backward
                // (the same elementwise `a + c` as the single-sample path).
                d_total.clear();
                d_total.extend(d_actor.iter().zip(d_critic.iter()).map(|(a, c)| a + c));
                self.actor_net
                    .backward_batch(d_total, n, dconcat, dbranch, dx_sink, ping, kernel);
            }
        }
    }

    /// Backward pass for the loss gradients w.r.t. logits and value.
    /// Must immediately follow a `forward` on the same features.
    pub fn backward(&mut self, dlogits: &[f32], dvalue: f32) {
        debug_assert_eq!(dlogits.len(), self.n_actions);
        let d_actor_feat = self.actor_head.backward(dlogits);
        let d_critic_feat = self.critic_head.backward(&[dvalue]);
        match &mut self.critic_net {
            Some(net) => {
                self.actor_net.backward(&d_actor_feat);
                net.backward(&d_critic_feat);
            }
            None => {
                // Shared trunk: sum the head gradients before one backward.
                let total: Vec<f32> = d_actor_feat
                    .iter()
                    .zip(&d_critic_feat)
                    .map(|(a, c)| a + c)
                    .collect();
                self.actor_net.backward(&total);
            }
        }
    }

    /// All trainable parameter blocks.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.actor_net.params_mut();
        if let Some(net) = &mut self.critic_net {
            ps.extend(net.params_mut());
        }
        ps.extend(self.actor_head.params_mut());
        ps.extend(self.critic_head.params_mut());
        ps
    }

    /// Visits every parameter block in [`ActorCritic::params_mut`] order
    /// without materializing the `Vec` — the allocation-free form the
    /// update path uses for gradient clipping and the optimizer step.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.actor_net.for_each_param(f);
        if let Some(net) = &mut self.critic_net {
            net.for_each_param(f);
        }
        self.actor_head.for_each_param(f);
        self.critic_head.for_each_param(f);
    }

    /// Total number of trainable weights.
    pub fn n_weights(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Head-sharing mode of this network.
    pub fn head_mode(&self) -> HeadMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pensieve_shapes() -> Vec<FeatureShape> {
        vec![
            FeatureShape::Temporal(8), // throughput history
            FeatureShape::Temporal(8), // download times
            FeatureShape::Temporal(6), // next chunk sizes
            FeatureShape::Scalar,      // buffer
            FeatureShape::Scalar,      // remaining
            FeatureShape::Scalar,      // last bitrate
        ]
    }

    fn tiny_cfg(heads: HeadMode) -> ArchConfig {
        ArchConfig {
            temporal_branch: BranchKind::Conv1d {
                filters: 4,
                kernel: 3,
            },
            temporal_activation: Activation::Relu,
            scalar_branch: BranchKind::Dense { units: 4 },
            scalar_activation: Activation::Relu,
            hidden_units: 8,
            hidden_layers: 1,
            hidden_activation: Activation::Relu,
            heads,
        }
    }

    fn pensieve_features() -> Vec<Vec<f32>> {
        vec![
            vec![0.1; 8],
            vec![0.2; 8],
            vec![0.3; 6],
            vec![0.5],
            vec![0.9],
            vec![0.25],
        ]
    }

    #[test]
    fn forward_shapes() {
        let mut net = ActorCritic::build(&tiny_cfg(HeadMode::Separate), &pensieve_shapes(), 6, 1);
        let (logits, value) = net.forward(&pensieve_features());
        assert_eq!(logits.len(), 6);
        assert!(value.is_finite());
    }

    #[test]
    fn build_is_deterministic() {
        let mut a = ActorCritic::build(&tiny_cfg(HeadMode::Separate), &pensieve_shapes(), 6, 42);
        let mut b = ActorCritic::build(&tiny_cfg(HeadMode::Separate), &pensieve_shapes(), 6, 42);
        assert_eq!(
            a.forward(&pensieve_features()),
            b.forward(&pensieve_features())
        );
    }

    #[test]
    fn shared_mode_has_fewer_weights() {
        let mut sep = ActorCritic::build(&tiny_cfg(HeadMode::Separate), &pensieve_shapes(), 6, 1);
        let mut shared = ActorCritic::build(&tiny_cfg(HeadMode::Shared), &pensieve_shapes(), 6, 1);
        assert!(shared.n_weights() < sep.n_weights());
    }

    #[test]
    fn rnn_and_lstm_branches_build() {
        for branch in [BranchKind::Rnn { units: 4 }, BranchKind::Lstm { units: 4 }] {
            let cfg = ArchConfig {
                temporal_branch: branch,
                ..tiny_cfg(HeadMode::Separate)
            };
            let mut net = ActorCritic::build(&cfg, &pensieve_shapes(), 6, 1);
            let (logits, _) = net.forward(&pensieve_features());
            assert_eq!(logits.len(), 6);
        }
    }

    #[test]
    fn backward_touches_all_params() {
        for heads in [HeadMode::Separate, HeadMode::Shared] {
            let mut net = ActorCritic::build(&tiny_cfg(heads), &pensieve_shapes(), 6, 3);
            let feats = pensieve_features();
            let _ = net.forward(&feats);
            net.backward(&[0.5, -0.5, 0.1, 0.0, 0.2, -0.3], 1.0);
            let touched = net
                .params_mut()
                .iter()
                .filter(|p| p.g.iter().any(|&g| g != 0.0))
                .count();
            let total = net.params_mut().len();
            // ReLU can zero a few blocks; most must receive gradient.
            assert!(
                touched * 2 > total,
                "{heads:?}: only {touched}/{total} blocks received gradient"
            );
        }
    }

    #[test]
    fn pensieve_original_parameter_scale() {
        let mut net =
            ActorCritic::build(&ArchConfig::pensieve_original(), &pensieve_shapes(), 6, 1);
        let n = net.n_weights();
        // Actor + critic, each ≈ 300k weights in the original topology.
        assert!(n > 400_000 && n < 1_500_000, "unexpected weight count {n}");
    }

    #[test]
    fn scaled_down_preserves_kinds() {
        let cfg = ArchConfig::pensieve_original().scaled_down(8);
        assert_eq!(
            cfg.temporal_branch,
            BranchKind::Conv1d {
                filters: 16,
                kernel: 4
            }
        );
        assert_eq!(cfg.heads, HeadMode::Separate);
        assert_eq!(cfg.hidden_units, 16);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn forward_rejects_wrong_feature_count() {
        let mut net = ActorCritic::build(&tiny_cfg(HeadMode::Separate), &pensieve_shapes(), 6, 1);
        let _ = net.forward(&[vec![0.0; 8]]);
    }
}
