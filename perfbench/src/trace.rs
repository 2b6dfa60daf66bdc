//! The traced run's instruments. Everything here sits *outside* the
//! program: spans are taken around calls into public functions, and the
//! wrappers delegate every trait method to the wrapped object, so a traced
//! search computes exactly what an untraced one does (the digest gates
//! check this).
//!
//! * [`Tracer`] — spans (search/job → stage → LLM call) and per-candidate
//!   events, kept in memory and written as JSON lines when the run ends.
//! * [`TracedWorkload`] — a [`Workload`] that counts and times
//!   `NetEnv::step` on the environments it hands out.
//! * [`TracedLlm`] — an [`LlmClient`] that times every generation call.
//! * [`obs_counter`] / [`obs_hist`] — readings of the counters the program
//!   already keeps in the `nada-obs` registry, for deltas.

use nada_core::Workload;
use nada_dsl::{CompiledState, InputSchema};
use nada_llm::{Completion, LlmClient, Prompt, TaskContext};
use nada_nn::ArchConfig;
use nada_sim::netenv::{EnvStep, FieldSpec, NetEnv, ObsValue, StepOutcome};
use nada_traces::Trace;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval. `trace` groups the spans of one search or job.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An instant in a search: a candidate accepted, rejected, trained,
/// kept or stopped early.
#[derive(Debug, Clone)]
pub struct Event {
    pub trace: u64,
    pub name: &'static str,
    pub item: u64,
    pub at_ns: u64,
}

/// In-memory span and event store.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    events: Mutex<Vec<Event>>,
}

/// An open span; [`Tracer::close`] records it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn open(&self, trace: u64, parent: u64) -> Open {
        Open {
            trace,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open, name: impl Into<String>) -> Span {
        let span = Span {
            trace: open.trace,
            id: open.id,
            parent: open.parent,
            name: name.into(),
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans
            .lock()
            .expect("span store lock")
            .push(span.clone());
        span
    }

    /// Records a span measured elsewhere; returns its id.
    pub fn record(&self, trace: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span store lock").push(Span {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    pub fn event(&self, trace: u64, name: &'static str, item: u64) {
        let at_ns = self.now_ns();
        self.events.lock().expect("event store lock").push(Event {
            trace,
            name,
            item,
            at_ns,
        });
    }

    /// Writes every span and event as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store lock").iter() {
            writeln!(
                out,
                "{{\"span\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        for e in self.events.lock().expect("event store lock").iter() {
            writeln!(
                out,
                "{{\"event\":\"{}\",\"trace\":{},\"item\":{},\"at_ns\":{}}}",
                e.name, e.trace, e.item, e.at_ns
            )?;
        }
        out.flush()
    }
}

/// Step counts and on-step time of the environments one kind of episode
/// (training or evaluation) used.
#[derive(Debug, Default)]
pub struct StepStats {
    pub steps: AtomicU64,
    pub step_ns: AtomicU64,
    pub envs: AtomicU64,
}

impl StepStats {
    pub fn read(&self) -> (u64, u64) {
        (
            self.steps.load(Ordering::Relaxed),
            self.step_ns.load(Ordering::Relaxed),
        )
    }
}

/// What a [`TracedWorkload`] observed.
#[derive(Debug, Default)]
pub struct EnvStats {
    pub train: StepStats,
    pub eval: StepStats,
    /// `(instance, ns)` whenever a pipeline asked the workload for its
    /// prompt task — the first thing every search round does.
    pub task_calls: Mutex<Vec<(u64, u64)>>,
    /// `(instance, ns)` whenever an environment the workload handed out
    /// was dropped — the end of an episode.
    pub env_drops: Mutex<Vec<(u64, u64)>>,
}

/// Delegates every [`Workload`] method to `inner`, wrapping the
/// environments it builds in [`TimedEnv`].
pub struct TracedWorkload {
    inner: Box<dyn Workload>,
    stats: Arc<EnvStats>,
    tracer: Arc<Tracer>,
    instance: u64,
}

impl TracedWorkload {
    pub fn new(
        inner: Box<dyn Workload>,
        stats: Arc<EnvStats>,
        tracer: Arc<Tracer>,
        instance: u64,
    ) -> Self {
        Self {
            inner,
            stats,
            tracer,
            instance,
        }
    }

    fn wrap<'a>(&'a self, env: Box<dyn NetEnv + 'a>, eval: bool) -> Box<dyn NetEnv + 'a> {
        let stats = if eval {
            &self.stats.eval
        } else {
            &self.stats.train
        };
        stats.envs.fetch_add(1, Ordering::Relaxed);
        Box::new(TimedEnv {
            inner: env,
            stats,
            owner: self,
        })
    }
}

impl Workload for TracedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schema(&self) -> &InputSchema {
        self.inner.schema()
    }

    fn observation_fields(&self) -> &'static [FieldSpec] {
        self.inner.observation_fields()
    }

    fn task(&self) -> TaskContext {
        let at = self.tracer.now_ns();
        self.stats
            .task_calls
            .lock()
            .expect("task log lock")
            .push((self.instance, at));
        self.inner.task()
    }

    fn seed_state_source(&self) -> &'static str {
        self.inner.seed_state_source()
    }

    fn seed_arch_source(&self) -> &'static str {
        self.inner.seed_arch_source()
    }

    fn n_actions(&self) -> usize {
        self.inner.n_actions()
    }

    fn reward_scale(&self) -> f64 {
        self.inner.reward_scale()
    }

    fn train_env<'a>(&'a self, trace: &'a Trace, seed: u64) -> Box<dyn NetEnv + 'a> {
        self.wrap(self.inner.train_env(trace, seed), false)
    }

    fn eval_env<'a>(&'a self, trace: &'a Trace, index: usize) -> Box<dyn NetEnv + 'a> {
        self.wrap(self.inner.eval_env(trace, index), true)
    }

    fn emu_env<'a>(&'a self, trace: &'a Trace, index: usize) -> Option<Box<dyn NetEnv + 'a>> {
        self.inner.emu_env(trace, index)
    }

    fn has_emulation(&self) -> bool {
        self.inner.has_emulation()
    }

    fn param_fingerprint(&self) -> u64 {
        self.inner.param_fingerprint()
    }

    fn typical_episode_len(&self) -> usize {
        self.inner.typical_episode_len()
    }

    fn seed_state(&self) -> CompiledState {
        self.inner.seed_state()
    }

    fn seed_arch(&self) -> ArchConfig {
        self.inner.seed_arch()
    }
}

/// Delegates every [`NetEnv`] method, timing the two step entry points.
struct TimedEnv<'a> {
    inner: Box<dyn NetEnv + 'a>,
    stats: &'a StepStats,
    owner: &'a TracedWorkload,
}

impl TimedEnv<'_> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn NetEnv) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        let ns = t.elapsed().as_nanos() as u64;
        self.stats.steps.fetch_add(1, Ordering::Relaxed);
        self.stats.step_ns.fetch_add(ns, Ordering::Relaxed);
        r
    }
}

impl NetEnv for TimedEnv<'_> {
    fn observation_spec(&self) -> &'static [FieldSpec] {
        self.inner.observation_spec()
    }

    fn action_space(&self) -> usize {
        self.inner.action_space()
    }

    fn reset(&mut self) -> Vec<ObsValue> {
        self.inner.reset()
    }

    fn step(&mut self, action: usize) -> EnvStep {
        self.timed(|env| env.step(action))
    }

    fn reset_into(&mut self, obs: &mut Vec<ObsValue>) {
        self.inner.reset_into(obs)
    }

    fn step_into(&mut self, action: usize, obs: &mut Vec<ObsValue>) -> StepOutcome {
        self.timed(|env| env.step_into(action, obs))
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

impl Drop for TimedEnv<'_> {
    fn drop(&mut self) {
        let at = self.owner.tracer.now_ns();
        if let Ok(mut drops) = self.owner.stats.env_drops.lock() {
            drops.push((self.owner.instance, at));
        }
    }
}

/// Delegates every [`LlmClient`] method to `inner`, recording one span
/// per generation call under `parent`.
pub struct TracedLlm<'t, L: LlmClient + ?Sized> {
    inner: &'t mut L,
    tracer: &'t Tracer,
    trace: u64,
    parent: u64,
    spent_ms: f64,
}

impl<'t, L: LlmClient + ?Sized> TracedLlm<'t, L> {
    pub fn new(inner: &'t mut L, tracer: &'t Tracer, trace: u64, parent: u64) -> Self {
        Self {
            inner,
            tracer,
            trace,
            parent,
            spent_ms: 0.0,
        }
    }

    /// Milliseconds spent in generation calls so far.
    pub fn spent_ms(&self) -> f64 {
        self.spent_ms
    }

    fn spanned<R>(&mut self, name: &str, f: impl FnOnce(&mut L) -> R) -> R {
        let open = self.tracer.open(self.trace, self.parent);
        let r = f(self.inner);
        self.spent_ms += self.tracer.close(open, name).ms();
        r
    }
}

impl<L: LlmClient + ?Sized> LlmClient for TracedLlm<'_, L> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn generate(&mut self, prompt: &Prompt) -> Completion {
        self.spanned("llm", |l| l.generate(prompt))
    }

    fn wave_size(&self) -> usize {
        self.inner.wave_size()
    }

    fn generate_wave(&mut self, prompt: &Prompt, count: usize) -> Vec<Completion> {
        self.spanned("llm", |l| l.generate_wave(prompt, count))
    }

    fn generate_batch(&mut self, prompt: &Prompt, n: usize) -> Vec<Completion> {
        self.spanned("llm", |l| l.generate_batch(prompt, n))
    }

    fn generate_batch_while(
        &mut self,
        prompt: &Prompt,
        n: usize,
        more: &mut dyn FnMut(usize) -> bool,
    ) -> Vec<Completion> {
        self.spanned("llm", |l| l.generate_batch_while(prompt, n, more))
    }
}

/// A counter's current value in the process-wide `nada-obs` registry
/// (0 when the program never registered it).
pub fn obs_counter(name: &str) -> u64 {
    match nada_obs::MetricsRegistry::global().snapshot().get(name) {
        Some(nada_obs::MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// A histogram's `(count, sum)` in the process-wide registry.
pub fn obs_hist(name: &str) -> (u64, u64) {
    match nada_obs::MetricsRegistry::global().snapshot().get(name) {
        Some(nada_obs::MetricValue::Histogram(h)) => (h.count, h.sum),
        _ => (0, 0),
    }
}
