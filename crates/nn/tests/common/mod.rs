//! Shapes shared by the bit-identity property tests: every tile tail of the
//! batched kernels, and the exact Tiny-scale shapes the searches train.

use nada_nn::graph::{ActorCritic, ArchConfig, BranchKind, FeatureShape, HeadMode};
use nada_nn::layers::Activation;
use rand::rngs::StdRng;
use rand::Rng;

/// Batch sizes around the four-row tiles, plus the Tiny ABR and CC episode
/// lengths.
pub const BATCH_SIZES: [usize; 6] = [1, 2, 3, 5, 54, 135];

/// A network whose tiled dimensions all equal `d` (conv filters or
/// dense-branch units, scalar-branch units, hidden units, actions) over
/// features whose lengths run with `d`, so conv input lengths and the
/// dense and trunk `in_dim`s sweep every tail too. `case` varies the
/// temporal branch kind and the head mode.
pub fn tail_net(d: usize, case: usize) -> (ActorCritic, Vec<FeatureShape>) {
    let arch = ArchConfig {
        temporal_branch: if (d + case).is_multiple_of(2) {
            BranchKind::Conv1d {
                filters: d,
                kernel: 4,
            }
        } else {
            BranchKind::Dense { units: d }
        },
        temporal_activation: Activation::Relu,
        scalar_branch: BranchKind::Dense { units: d },
        scalar_activation: Activation::LeakyRelu { alpha: 0.05 },
        hidden_units: d,
        hidden_layers: 1,
        hidden_activation: Activation::Tanh,
        heads: if case.is_multiple_of(3) {
            HeadMode::Shared
        } else {
            HeadMode::Separate
        },
    };
    let shapes = vec![
        FeatureShape::Temporal(d),
        FeatureShape::Scalar,
        FeatureShape::Temporal(d % 5 + 3),
    ];
    let net = ActorCritic::build(&arch, &shapes, d.max(2), d as u64);
    (net, shapes)
}

/// Pensieve's architecture scaled down 16× (8 filters, kernel 4, 8 hidden
/// units), as the Tiny searches train it, over the ABR feature tuple
/// `[S, S, T8, T8, T6, S]` and the CC one `[T8, T8, T8, S, S, S]`, in both
/// head modes.
pub fn tiny_nets() -> Vec<(ActorCritic, Vec<FeatureShape>)> {
    use FeatureShape::{Scalar as S, Temporal as T};
    let arch = ArchConfig::pensieve_original().scaled_down(16);
    let mut nets = Vec::new();
    for (shapes, n_actions) in [
        (vec![S, S, T(8), T(8), T(6), S], 6),
        (vec![T(8), T(8), T(8), S, S, S], 7),
    ] {
        for heads in [HeadMode::Separate, HeadMode::Shared] {
            let arch = ArchConfig {
                heads,
                ..arch.clone()
            };
            nets.push((
                ActorCritic::build(&arch, &shapes, n_actions, 7),
                shapes.clone(),
            ));
        }
    }
    nets
}

/// Gives every parameter, biases included, a random value: freshly built
/// nets have zero biases, which would hide a kernel that adds its bias in
/// the wrong place.
pub fn randomize_params(net: &mut ActorCritic, rng: &mut StdRng) {
    for p in net.params_mut() {
        p.w.iter_mut().for_each(|w| *w = rng.gen_range(-1.0..1.0));
    }
}
