//! Property tests: the inference-only batched network paths are
//! bit-identical to the caching single-sample paths, for random
//! architectures (all branch kinds, both head modes), random feature
//! shapes, and random batch sizes.

mod common;

use common::{randomize_params, tail_net, tiny_nets, BATCH_SIZES};
use nada_nn::a2c::A2cTrainer;
use nada_nn::batch::{FeatureLayout, InferScratch};
use nada_nn::graph::{ActorCritic, ArchConfig, BranchKind, FeatureShape, HeadMode};
use nada_nn::layers::Activation;
use nada_nn::A2cConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arch_for(pick: u32) -> ArchConfig {
    let temporal_branch = match pick % 4 {
        0 => BranchKind::Conv1d {
            filters: 3,
            kernel: 3,
        },
        1 => BranchKind::Rnn { units: 4 },
        2 => BranchKind::Lstm { units: 3 },
        _ => BranchKind::Dense { units: 5 },
    };
    let activation = match (pick / 4) % 4 {
        0 => Activation::Relu,
        1 => Activation::Tanh,
        2 => Activation::LeakyRelu { alpha: 0.05 },
        _ => Activation::Sigmoid,
    };
    ArchConfig {
        temporal_branch,
        temporal_activation: activation,
        scalar_branch: BranchKind::Dense { units: 4 },
        scalar_activation: activation,
        hidden_units: 8,
        hidden_layers: 1 + (pick as usize / 16) % 2,
        hidden_activation: activation,
        heads: if (pick / 32).is_multiple_of(2) {
            HeadMode::Separate
        } else {
            HeadMode::Shared
        },
    }
}

fn shapes_for(rng: &mut StdRng) -> Vec<FeatureShape> {
    let n = rng.gen_range(1..5);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.5) {
                FeatureShape::Scalar
            } else {
                FeatureShape::Temporal(rng.gen_range(3..9))
            }
        })
        .collect()
}

fn random_rows(rng: &mut StdRng, stride: usize, n: usize) -> Vec<f32> {
    (0..n * stride).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

fn split_row(row: &[f32], shapes: &[FeatureShape]) -> Vec<Vec<f32>> {
    let mut out = Vec::with_capacity(shapes.len());
    let mut off = 0;
    for s in shapes {
        out.push(row[off..off + s.len()].to_vec());
        off += s.len();
    }
    out
}

/// `policy_batch` + `values_batch` ≡ `forward`, bitwise, row by row.
fn assert_inference_matches_forward(net: &mut ActorCritic, shapes: &[FeatureShape], rows: &[f32]) {
    let n_actions = net.n_actions();
    let layout = FeatureLayout::new(shapes);
    let batch = rows.len() / layout.stride();
    let mut logits = Vec::new();
    let mut values = Vec::new();
    let mut scratch = InferScratch::default();
    net.policy_batch(rows, &layout, &mut logits, &mut scratch);
    net.values_batch(rows, &layout, &mut values, &mut scratch);
    assert_eq!(logits.len(), batch * n_actions);
    assert_eq!(values.len(), batch);

    for (b, row) in rows.chunks_exact(layout.stride()).enumerate() {
        let (ref_logits, ref_value) = net.forward(&split_row(row, shapes));
        let batch_row = &logits[b * n_actions..(b + 1) * n_actions];
        assert_eq!(
            batch_row.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            ref_logits.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "logits of row {b}"
        );
        assert_eq!(values[b].to_bits(), ref_value.to_bits(), "value of row {b}");
    }
}

/// Every tile tail: all of `in_dim`, `out_dim` and filters from 1 to 17,
/// at every batch size around the tile width.
#[test]
fn inference_matches_forward_at_every_tile_tail() {
    let mut rng = StdRng::seed_from_u64(0x7A11);
    for d in 1..=17 {
        for (case, &batch) in BATCH_SIZES.iter().enumerate() {
            let (mut net, shapes) = tail_net(d, case);
            randomize_params(&mut net, &mut rng);
            let rows = random_rows(&mut rng, FeatureLayout::new(&shapes).stride(), batch);
            assert_inference_matches_forward(&mut net, &shapes, &rows);
        }
    }
}

/// The exact Tiny-scale shapes the searches train.
#[test]
fn inference_matches_forward_at_tiny_shapes() {
    let mut rng = StdRng::seed_from_u64(0x71E7);
    for (mut net, shapes) in tiny_nets() {
        randomize_params(&mut net, &mut rng);
        for batch in BATCH_SIZES {
            let rows = random_rows(&mut rng, FeatureLayout::new(&shapes).stride(), batch);
            assert_inference_matches_forward(&mut net, &shapes, &rows);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `policy_batch` + `values_batch` ≡ `forward`, bitwise, row by row.
    #[test]
    fn batched_inference_matches_forward(seed in 0u64..1_000_000, pick in 0u32..64, batch in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shapes = shapes_for(&mut rng);
        let n_actions = rng.gen_range(2..7);
        let mut net = ActorCritic::build(&arch_for(pick), &shapes, n_actions, seed ^ 0xAB);
        let layout = FeatureLayout::new(&shapes);
        let rows = random_rows(&mut rng, layout.stride(), batch);
        assert_inference_matches_forward(&mut net, &shapes, &rows);
    }

    /// Lockstep acting with pre-drawn uniforms ≡ serial acting: a trainer
    /// that pre-draws `batch` uniforms and acts on all rows at once picks
    /// the same actions as a twin trainer calling `act_stochastic` row by
    /// row. Greedy acting agrees with `act_greedy` the same way.
    #[test]
    fn batched_acting_matches_serial_acting(seed in 0u64..1_000_000, pick in 0u32..64, batch in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAC7);
        let shapes = shapes_for(&mut rng);
        let n_actions = rng.gen_range(2..7);
        let layout = FeatureLayout::new(&shapes);
        let rows = random_rows(&mut rng, layout.stride(), batch);

        let build = || {
            let net = ActorCritic::build(&arch_for(pick), &shapes, n_actions, seed ^ 0xCD);
            A2cTrainer::new(net, A2cConfig::default(), seed ^ 0xEF)
        };

        let mut serial = build();
        let serial_actions: Vec<usize> = rows
            .chunks_exact(layout.stride())
            .map(|row| serial.act_stochastic(&split_row(row, &shapes)))
            .collect();

        let mut batched = build();
        let mut draws = Vec::new();
        batched.draw_uniforms(batch, &mut draws);
        let mut actions = Vec::new();
        batched.act_stochastic_batch(&rows, &layout, &draws, &mut actions);
        prop_assert_eq!(&actions, &serial_actions);

        let greedy_serial: Vec<usize> = rows
            .chunks_exact(layout.stride())
            .map(|row| serial.act_greedy(&split_row(row, &shapes)))
            .collect();
        batched.act_greedy_batch(&rows, &layout, &mut actions);
        prop_assert_eq!(&actions, &greedy_serial);
    }
}
