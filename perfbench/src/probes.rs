//! Microprobes of the training kernels, run at a workload's own shapes
//! through their public entry points. The traced run multiplies each probe
//! by the exact call counts it observed, which turns the probes into
//! estimates of each kernel's share of the work.

use nada_core::bind::BindingScratch;
use nada_core::{NadaConfig, Workload};
use nada_nn::{A2cTrainer, ActorCritic, EpisodeBuffer, FeatureLayout};
use nada_traces::dataset::TraceDataset;
use std::hint::black_box;
use std::time::Instant;

/// Per-call costs of the three kernels a training step runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCosts {
    /// `CompiledState::eval_batch_with`, per one-row call.
    pub dsl_row_ns: f64,
    /// `A2cTrainer::act_stochastic_batch`, per one-row call.
    pub act_us: f64,
    /// `A2cTrainer::update`, per one-episode call.
    pub update_us: f64,
}

fn per_call_ns(calls: u32, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(calls)
}

/// Probes the seed design of `workload` at the run's configured net scale,
/// on observations from one real training episode cut to `episode_len`
/// steps (the mean length the traced run observed).
pub fn probe(
    workload: &dyn Workload,
    dataset: &TraceDataset,
    cfg: &NadaConfig,
    episode_len: usize,
) -> KernelCosts {
    let state = workload.seed_state();
    let shapes = state.feature_shapes();
    let layout = FeatureLayout::new(&shapes);

    // Record one episode's bindings so the DSL sees realistic inputs.
    let mut env = workload.train_env(&dataset.train[0], cfg.seed);
    let mut binding = BindingScratch::new();
    binding.reset(env.as_mut());
    let mut bindings = vec![binding.values().to_vec()];
    let n_actions = workload.n_actions();
    for t in 1..episode_len.max(2) {
        let out = binding.step(env.as_mut(), t % n_actions);
        bindings.push(binding.values().to_vec());
        if out.done {
            break;
        }
    }
    drop(env);

    let mut scratch = nada_dsl::EvalScratch::default();
    let mut rows = Vec::new();
    let mut k = 0usize;
    let dsl_row_ns = per_call_ns(20_000, || {
        k = (k + 1) % bindings.len();
        state
            .eval_batch_with(
                std::iter::once(bindings[k].as_slice()),
                &mut scratch,
                &mut rows,
            )
            .expect("the seed state evaluates");
        black_box(&rows);
    });

    let arch = workload.seed_arch().scaled_down(cfg.arch_scale_factor);
    let net = ActorCritic::build(&arch, &shapes, n_actions, cfg.seed);
    let mut trainer = A2cTrainer::new(net, cfg.a2c, cfg.seed);
    let mut episode = EpisodeBuffer::with_capacity(bindings.len(), layout.stride());
    let mut feature_rows = Vec::with_capacity(bindings.len());
    for (t, b) in bindings.iter().enumerate() {
        state
            .eval_batch_with(std::iter::once(b.as_slice()), &mut scratch, &mut rows)
            .expect("the seed state evaluates");
        episode.push_row(&rows, layout.lens(), t % n_actions, 0.1 * (t % 7) as f32);
        feature_rows.push(rows.clone());
    }

    let mut draws = Vec::new();
    let mut actions = Vec::new();
    let mut k = 0usize;
    let act_us = per_call_ns(5_000, || {
        k = (k + 1) % feature_rows.len();
        trainer.draw_uniforms(1, &mut draws);
        trainer.act_stochastic_batch(&feature_rows[k], &layout, &draws, &mut actions);
        black_box(&actions);
    }) / 1e3;

    let update_us = per_call_ns(100, || {
        black_box(trainer.update(std::slice::from_ref(&episode)));
    }) / 1e3;

    KernelCosts {
        dsl_row_ns,
        act_us,
        update_us,
    }
}
