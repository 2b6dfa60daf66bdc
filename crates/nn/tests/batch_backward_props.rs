//! Property tests: the batched *training* kernels are bit-identical to the
//! single-sample caching paths — gradients, optimizer state after a step,
//! and a whole `A2cTrainer::update` against a serial reference — for random
//! architectures (all branch kinds, both head modes), random feature
//! shapes, and random batch sizes.

mod common;

use common::{randomize_params, tail_net, tiny_nets, BATCH_SIZES};
use nada_nn::a2c::{softmax, A2cTrainer, EpisodeBuffer};
use nada_nn::batch::{FeatureLayout, InferScratch, TrainScratch};
use nada_nn::graph::{ActorCritic, ArchConfig, BranchKind, FeatureShape, HeadMode};
use nada_nn::layers::Activation;
use nada_nn::param::clip_global_grad_norm;
use nada_nn::{A2cConfig, Adam};
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

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The A2C update exactly as the single-step engine ran it: per-episode
/// returns/advantages, batch-wide normalization, then one `forward_flat` +
/// `backward` round trip per step, followed by global clip and one Adam
/// step. The production `update` must match this bit for bit.
fn serial_update_reference(
    net: &mut ActorCritic,
    opt: &mut Adam,
    cfg: &A2cConfig,
    episodes: &[EpisodeBuffer],
) -> (f32, f32, f32, f32) {
    let total_steps: usize = episodes.iter().map(|e| e.len()).sum();
    let norm = 1.0 / total_steps as f32;
    let layout = net.feature_layout();
    let mut infer = InferScratch::default();
    let mut values_buf = Vec::new();

    let mut advantages: Vec<Vec<f32>> = Vec::new();
    let mut all_returns: Vec<Vec<f32>> = Vec::new();
    for ep in episodes {
        let returns = ep.returns(cfg.gamma);
        net.values_batch(ep.states_flat(), &layout, &mut values_buf, &mut infer);
        let advs: Vec<f32> = returns
            .iter()
            .zip(&values_buf)
            .map(|(&r, &value)| r - value)
            .collect();
        advantages.push(advs);
        all_returns.push(returns);
    }
    if cfg.normalize_advantages {
        let flat: Vec<f32> = advantages.iter().flatten().copied().collect();
        let mean = flat.iter().sum::<f32>() / flat.len() as f32;
        let var = flat.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / flat.len() as f32;
        let std = var.sqrt().max(1e-6);
        for advs in &mut advantages {
            for a in advs.iter_mut() {
                *a = (*a - mean) / std;
            }
        }
    }

    let mut policy_loss = 0.0f32;
    let mut value_loss = 0.0f32;
    let mut entropy_acc = 0.0f32;
    for (e, ep) in episodes.iter().enumerate() {
        let returns = &all_returns[e];
        for t in 0..ep.len() {
            let (logits, value) = net.forward_flat(ep.state_row(t));
            let probs = softmax(&logits);
            let log_probs: Vec<f32> = probs.iter().map(|p| p.max(1e-10).ln()).collect();
            let a = ep.action(t);
            let adv = advantages[e][t];
            let ent: f32 = -probs
                .iter()
                .zip(&log_probs)
                .map(|(p, lp)| p * lp)
                .sum::<f32>();

            policy_loss += -log_probs[a] * adv;
            value_loss += 0.5 * (value - returns[t]).powi(2);
            entropy_acc += ent;

            let mut dlogits = vec![0.0f32; probs.len()];
            for i in 0..probs.len() {
                let onehot = if i == a { 1.0 } else { 0.0 };
                let d_pg = (probs[i] - onehot) * adv;
                let d_ent = cfg.entropy_coeff * probs[i] * (log_probs[i] + ent);
                dlogits[i] = (d_pg + d_ent) * norm;
            }
            let dvalue = cfg.value_coeff * (value - returns[t]) * norm;
            net.backward(&dlogits, dvalue);
        }
    }

    let grad_norm = {
        let mut params = net.params_mut();
        clip_global_grad_norm(&mut params, cfg.clip_grad_norm)
    };
    let mut params = net.params_mut();
    opt.step(&mut params);
    (
        policy_loss * norm,
        value_loss * norm,
        entropy_acc * norm,
        grad_norm,
    )
}

/// `forward_batch` + `backward_batch` ≡ per-row `forward_flat` +
/// `backward`: outputs, every accumulated gradient, and the full Adam state
/// (`w`, `m`, `v`) after a step, all bitwise.
fn assert_batched_matches_serial(
    net: &ActorCritic,
    shapes: &[FeatureShape],
    rng: &mut StdRng,
    batch: usize,
) {
    let n_actions = net.n_actions();
    let mut serial = net.clone();
    let mut batched = net.clone();
    let layout = FeatureLayout::new(shapes);
    let stride = layout.stride();
    let rows = random_rows(rng, stride, batch);
    let dlogits: Vec<f32> = (0..batch * n_actions)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let dvalues: Vec<f32> = (0..batch).map(|_| rng.gen_range(-1.0..1.0)).collect();

    // Serial: immediate-backward discipline, one row at a time.
    let mut ser_logits = Vec::new();
    let mut ser_values = Vec::new();
    for (r, row) in rows.chunks_exact(stride).enumerate() {
        let (lg, v) = serial.forward_flat(row);
        ser_logits.extend(lg);
        ser_values.push(v);
        serial.backward(&dlogits[r * n_actions..(r + 1) * n_actions], dvalues[r]);
    }

    // Batched: one forward, one backward.
    let mut scratch = TrainScratch::default();
    let mut logits = Vec::new();
    let mut values = Vec::new();
    batched.forward_batch(&rows, &layout, &mut logits, &mut values, &mut scratch);
    batched.backward_batch(&dlogits, &dvalues, &mut scratch);

    assert_eq!(bits(&logits), bits(&ser_logits));
    assert_eq!(bits(&values), bits(&ser_values));
    for (pa, pb) in serial.params_mut().iter().zip(batched.params_mut().iter()) {
        assert_eq!(bits(&pa.g), bits(&pb.g));
    }

    // And the optimizer state diverges nowhere after a step.
    let mut opt_a = Adam::new(1e-3);
    opt_a.step(&mut serial.params_mut());
    let mut opt_b = Adam::new(1e-3);
    opt_b.step(&mut batched.params_mut());
    for (pa, pb) in serial.params_mut().iter().zip(batched.params_mut().iter()) {
        assert_eq!(bits(&pa.w), bits(&pb.w));
        assert_eq!(bits(&pa.m), bits(&pb.m));
        assert_eq!(bits(&pa.v), bits(&pb.v));
    }
}

/// Every tile tail: all of `in_dim`, `out_dim` and filters from 1 to 17,
/// at every batch size around the tile width.
#[test]
fn batched_backward_matches_serial_at_every_tile_tail() {
    let mut rng = StdRng::seed_from_u64(0xB7A1);
    for d in 1..=17 {
        for (case, &batch) in BATCH_SIZES.iter().enumerate() {
            let (mut net, shapes) = tail_net(d, case);
            randomize_params(&mut net, &mut rng);
            assert_batched_matches_serial(&net, &shapes, &mut rng, batch);
        }
    }
}

/// The exact Tiny-scale shapes the searches train.
#[test]
fn batched_backward_matches_serial_at_tiny_shapes() {
    let mut rng = StdRng::seed_from_u64(0xB71E);
    for (mut net, shapes) in tiny_nets() {
        randomize_params(&mut net, &mut rng);
        for batch in BATCH_SIZES {
            assert_batched_matches_serial(&net, &shapes, &mut rng, batch);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// `forward_batch` + `backward_batch` ≡ per-row `forward_flat` +
    /// `backward`, for random architectures and feature shapes.
    #[test]
    fn batched_backward_matches_serial(seed in 0u64..1_000_000, pick in 0u32..64, batch in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBB);
        let shapes = shapes_for(&mut rng);
        let n_actions = rng.gen_range(2..7);
        let net = ActorCritic::build(&arch_for(pick), &shapes, n_actions, seed ^ 0xAB);
        assert_batched_matches_serial(&net, &shapes, &mut rng, batch);
    }

    /// The production `A2cTrainer::update` ≡ the serial per-step reference:
    /// identical stats and an identical network afterwards, bitwise, over
    /// multi-episode batches.
    #[test]
    fn batched_update_matches_serial_reference(seed in 0u64..1_000_000, pick in 0u32..64, n_eps in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBC);
        let shapes = shapes_for(&mut rng);
        let n_actions = rng.gen_range(2..7);
        let layout = FeatureLayout::new(&shapes);
        let stride = layout.stride();
        let cfg = A2cConfig {
            normalize_advantages: seed.is_multiple_of(2),
            ..A2cConfig::default()
        };

        let mut episodes = Vec::new();
        for _ in 0..n_eps {
            let steps = rng.gen_range(1..6);
            let mut ep = EpisodeBuffer::new();
            let lens: Vec<usize> = shapes.iter().map(|s| s.len()).collect();
            for _ in 0..steps {
                let row = random_rows(&mut rng, stride, 1);
                let action = rng.gen_range(0..n_actions);
                let reward = rng.gen_range(-1.0..1.0);
                ep.push_row(&row, &lens, action, reward);
            }
            episodes.push(ep);
        }

        let reference = ActorCritic::build(&arch_for(pick), &shapes, n_actions, seed ^ 0xCD);
        let mut trainer = A2cTrainer::new(reference.clone(), cfg, seed ^ 0xEF);
        let stats = trainer.update(&episodes);

        let mut ref_net = reference;
        let mut ref_opt = Adam::new(cfg.lr);
        let (policy_loss, value_loss, entropy, grad_norm) =
            serial_update_reference(&mut ref_net, &mut ref_opt, &cfg, &episodes);

        prop_assert_eq!(stats.policy_loss.to_bits(), policy_loss.to_bits());
        prop_assert_eq!(stats.value_loss.to_bits(), value_loss.to_bits());
        prop_assert_eq!(stats.entropy.to_bits(), entropy.to_bits());
        prop_assert_eq!(stats.grad_norm.to_bits(), grad_norm.to_bits());
        for (pa, pb) in trainer.net_mut().params_mut().iter().zip(ref_net.params_mut().iter()) {
            prop_assert_eq!(bits(&pa.w), bits(&pb.w));
            prop_assert_eq!(bits(&pa.m), bits(&pb.m));
            prop_assert_eq!(bits(&pa.v), bits(&pb.v));
        }
    }
}
