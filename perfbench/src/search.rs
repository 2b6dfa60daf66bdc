//! `search-abr` and `search-cc`: one-shot state searches run one after
//! another, each driven stage by stage through `SearchSession` with the
//! calibrated GPT-4 mock. Tiny scale with a 32-candidate pool and six
//! probes, so the early-stop classifier is fitted and screening really
//! stops designs early.

use crate::measure::{group_means, mix, ms_since, threads_cpu_ns, Digest, SetupTimer};
use crate::probes;
use crate::trace::{obs_counter, EnvStats, TracedLlm, TracedWorkload, Tracer};
use crate::{Args, Report, SETUP_GROUPS};
use nada_core::{
    AbrWorkload, CcWorkload, FnObserver, Nada, NadaConfig, RunScale, SearchEvent, SearchOutcome,
    SearchSession, Workload,
};
use nada_llm::{DesignKind, MockLlm};
use nada_traces::dataset::DatasetKind;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Candidates per search.
pub const N_CANDIDATES: usize = 32;
/// Fully trained probes the early-stop classifier is fitted on (it needs
/// at least 4).
pub const N_PROBE: usize = 6;
/// Searches a run makes at the least, however short `--seconds` is.
const MIN_SEARCHES: usize = 4;
/// Least time of one block of pipeline builds; a block is timed after
/// every measured search.
const SETUP_BLOCK_S: f64 = 0.005;

const STAGES: [&str; 5] = ["generate", "precheck", "probe", "screen", "finalize"];

fn config(seed: u64) -> NadaConfig {
    let mut cfg = NadaConfig::new(DatasetKind::Fcc, RunScale::Tiny, seed);
    cfg.n_candidates = N_CANDIDATES;
    cfg.n_probe = N_PROBE;
    cfg
}

fn workload(cc: bool) -> Box<dyn Workload> {
    if cc {
        Box::new(CcWorkload::for_dataset(DatasetKind::Fcc))
    } else {
        Box::new(AbrWorkload::for_dataset(DatasetKind::Fcc))
    }
}

/// Everything the gates compare between two searches of the same input.
fn digest(out: &SearchOutcome) -> u64 {
    let mut d = Digest::default();
    d.f64(out.best.test_score).f64(out.original.test_score);
    for (id, score) in &out.ranked {
        d.u64(*id as u64).f64(*score);
    }
    for f in &out.finalists {
        d.f64(f.test_score).bytes(f.code.as_bytes());
    }
    let s = out.stats;
    for v in [
        s.early_stopped,
        s.fully_trained,
        s.failed,
        s.skipped,
        s.epochs_spent,
        s.epochs_saved,
        out.precheck.total,
        out.precheck.compilable,
        out.precheck.normalized,
    ] {
        d.u64(v as u64);
    }
    d.finish()
}

/// One search, stage by stage, untraced.
fn search(nada: &Nada, llm_seed: u64) -> SearchOutcome {
    let mut session = SearchSession::new(nada, DesignKind::State);
    let mut llm = MockLlm::gpt4(llm_seed);
    session.generate(&mut llm).expect("fresh session generates");
    session.precheck().expect("generated session prechecks");
    session.probe().expect("prechecked session probes");
    session.screen().expect("probed session screens");
    session.finalize().expect("screened session finalizes")
}

/// What the traced run records about one search.
#[derive(Debug, Default, Clone)]
struct SearchTrace {
    wall_ms: f64,
    stage_ms: [f64; 5],
    stage_cpu_ns: [u64; 5],
    llm_ms: f64,
    keeps: u64,
    verdicts: u64,
    workpool_items: u64,
}

/// One search with a span per stage and per LLM call, CPU readings at
/// every stage boundary and a timestamped event per candidate.
fn traced_search(
    nada: &Nada,
    llm_seed: u64,
    tracer: &Tracer,
    id: u64,
) -> (SearchOutcome, SearchTrace) {
    let keeps = AtomicU64::new(0);
    let verdicts = AtomicU64::new(0);
    let items0 = obs_counter("workpool_items_total");
    let root = tracer.open(id, 0);
    let mut tr = SearchTrace::default();
    let outcome = {
        let mut session = SearchSession::new(nada, DesignKind::State);
        session.observe(FnObserver(|e: &SearchEvent| {
            let (name, item) = match e {
                SearchEvent::CandidateAccepted { id } => ("accepted", *id),
                SearchEvent::CandidateRejected { id, .. } => ("rejected", *id),
                SearchEvent::ProbeTrained { id, .. } => ("probe_trained", *id),
                SearchEvent::EarlyStopVerdict { id, keep } => {
                    verdicts.fetch_add(1, Ordering::Relaxed);
                    if *keep {
                        keeps.fetch_add(1, Ordering::Relaxed);
                    }
                    (if *keep { "kept" } else { "stopped" }, *id)
                }
                SearchEvent::ScreenTrained { id, .. } => ("screen_trained", *id),
                SearchEvent::FinalistEvaluated { id, .. } => ("finalist", *id),
                _ => return,
            };
            tracer.event(id, name, item as u64);
        }));
        let mut outcome = None;
        for (k, stage) in STAGES.iter().enumerate() {
            let cpu0 = threads_cpu_ns();
            let open = tracer.open(id, root.id);
            match k {
                0 => {
                    let mut mock = MockLlm::gpt4(llm_seed);
                    let mut llm = TracedLlm::new(&mut mock, tracer, id, open.id);
                    session.generate(&mut llm).expect("fresh session generates");
                    tr.llm_ms = llm.spent_ms();
                }
                1 => {
                    session.precheck().expect("generated session prechecks");
                }
                2 => session.probe().expect("prechecked session probes"),
                3 => session.screen().expect("probed session screens"),
                _ => outcome = Some(session.finalize().expect("screened session finalizes")),
            }
            let span = tracer.close(open, *stage);
            tr.stage_ms[k] = span.ms();
            tr.stage_cpu_ns[k] = threads_cpu_ns().saturating_sub(cpu0);
        }
        outcome.expect("finalize ran")
    };
    tr.wall_ms = tracer.close(root, "search").ms();
    tr.keeps = keeps.into_inner();
    tr.verdicts = verdicts.into_inner();
    tr.workpool_items = obs_counter("workpool_items_total").saturating_sub(items0);
    (outcome, tr)
}

/// The LLM seed of the run's `j`-th search. Every search of a run gets a
/// different candidate pool, so a run's median spans many inputs.
fn input(seed: u64, j: usize) -> u64 {
    mix(seed, 100 + j as u64)
}

/// Records search `j`'s digest; the warm-up searched input 0 already, so
/// the first measured search is a repetition that must match it.
fn record(report: &mut Report, warmup: u64, j: usize, out: &SearchOutcome) -> u64 {
    let d = digest(out);
    report.digests.push(d);
    let same = j != 0 || d == warmup;
    report.count(same);
    report.gate(
        same,
        "a repeated search input changed its outcome digest".into(),
    );
    d
}

pub fn run(args: &Args, cc: bool, report: &mut Report) {
    let cfg = config(mix(args.seed, 1) % 1_000_000);
    let nada = Nada::with_workload(cfg.clone(), workload(cc));
    let workers = nada_exec::configured_workers();
    report.info("workers", workers.to_string());
    report.info("n_candidates", N_CANDIDATES.to_string());
    report.info("n_probe", N_PROBE.to_string());

    // Warm-up: the worker pool and allocator reach steady state, and the
    // first input's reference digest is taken.
    let warmup = digest(&search(&nada, input(args.seed, 0)));

    if args.trace {
        traced(args, cc, &cfg, &nada, warmup, report);
        return;
    }

    let mut setup = SetupTimer::new(SETUP_BLOCK_S, || {
        black_box(Nada::with_workload(cfg.clone(), workload(cc)));
    });
    let mut epochs = 0usize;
    let mut saved = 0usize;
    let cpu0 = crate::measure::process_cpu_s();
    let start = Instant::now();
    let mut j = 0;
    while start.elapsed().as_secs_f64() < args.seconds || j < MIN_SEARCHES {
        let t = Instant::now();
        let out = search(&nada, input(args.seed, j));
        report.op_ms.push(ms_since(t));
        epochs += out.stats.epochs_spent;
        saved += out.stats.epochs_saved;
        record(report, warmup, j, &out);
        j += 1;
        setup.block();
    }
    report.measured_s = start.elapsed().as_secs_f64() - setup.spent_s;
    report.setup_s = group_means(&setup.samples, SETUP_GROUPS);
    report.cpu_s = crate::measure::process_cpu_s() - cpu0 - setup.spent_s;
    report.work = epochs as f64;
    report.gate(
        saved > 0,
        "no design was early-stopped (train.epochs_saved = 0)".into(),
    );
    report.detail(
        "search_p50_s",
        crate::measure::median(&report.op_ms) / 1e3,
        "s",
    );
    report.detail_tail("search_p90_s", &report.op_ms.clone(), 0.9, 1e-3, "s");
    report.detail("epochs_per_s", report.work / report.measured_s, "1/s");
    report.detail("epochs_saved_per_search", saved as f64 / j as f64, "count");
}

fn traced(args: &Args, cc: bool, cfg: &NadaConfig, plain: &Nada, warmup: u64, report: &mut Report) {
    let tracer = Arc::new(Tracer::new());
    let stats = Arc::new(EnvStats::default());
    let nada = Nada::with_workload(
        cfg.clone(),
        Box::new(TracedWorkload::new(
            workload(cc),
            stats.clone(),
            tracer.clone(),
            0,
        )),
    );
    let workers = nada_exec::configured_workers() as f64;

    let start = Instant::now();
    let mut traces = Vec::new();
    let mut outcomes = Vec::new();
    let mut j = 0;
    while start.elapsed().as_secs_f64() < args.seconds || j < MIN_SEARCHES {
        let (out, tr) = traced_search(&nada, input(args.seed, j), &tracer, j as u64 + 1);
        let d = record(report, warmup, j, &out);
        outcomes.push((out.stats, out.precheck, d));
        traces.push(tr);
        j += 1;
    }
    let n = traces.len() as f64;

    // The same inputs again, untraced: the overhead of tracing, and proof
    // that tracing changed no result.
    let replay = traces.len().div_ceil(2);
    let mut untraced_ms = 0.0;
    for (k, (_, _, d)) in outcomes.iter().enumerate().take(replay) {
        let t = Instant::now();
        let out = search(plain, input(args.seed, k));
        untraced_ms += ms_since(t);
        let same = digest(&out) == *d;
        report.count(same);
        report.gate(
            same,
            format!("traced search {k} differs from its untraced replay"),
        );
    }
    let traced_ms: f64 = traces.iter().take(replay).map(|t| t.wall_ms).sum();
    report.layer(
        "trace.overhead_pct",
        100.0 * (traced_ms / untraced_ms - 1.0),
    );

    let sum = |f: &dyn Fn(&SearchTrace) -> f64| traces.iter().map(f).sum::<f64>();
    let wall_ms = sum(&|t| t.wall_ms);
    for (k, stage) in STAGES.iter().enumerate() {
        let mut self_ms = sum(&|t| t.stage_ms[k]);
        if k == 0 {
            self_ms -= sum(&|t| t.llm_ms);
        }
        report.layer(&format!("session.{stage}_ms"), self_ms / n);
    }
    report.layer("llm.generate_ms", sum(&|t| t.llm_ms) / n);
    let worst_unaccounted = traces
        .iter()
        .map(|t| (t.wall_ms - t.stage_ms.iter().sum::<f64>()) / t.wall_ms * 100.0)
        .fold(0.0f64, |a, b| a.max(b.abs()));
    report.layer(
        "session.unaccounted_pct",
        100.0 * (wall_ms - sum(&|t| t.stage_ms.iter().sum())) / wall_ms,
    );
    report.gate(
        worst_unaccounted <= 5.0,
        format!("stage spans miss {worst_unaccounted:.2}% of a search's wall (limit 5%)"),
    );

    let epochs: usize = outcomes.iter().map(|(s, _, _)| s.epochs_spent).sum();
    let saved: usize = outcomes.iter().map(|(s, _, _)| s.epochs_saved).sum();
    // The original design is trained by every finalize too, outside
    // `epochs_spent`.
    let trained_epochs = epochs + traces.len() * cfg.n_seeds * cfg.train_epochs;
    let train_cpu_ns: f64 =
        sum(&|t| (t.stage_cpu_ns[2] + t.stage_cpu_ns[3] + t.stage_cpu_ns[4]) as f64);
    let cpu_ns: f64 = sum(&|t| t.stage_cpu_ns.iter().sum::<u64>() as f64);
    report.layer("train.epochs", epochs as f64 / n);
    report.layer("train.epochs_saved", saved as f64 / n);
    report.layer("train.epoch_us", train_cpu_ns / 1e3 / trained_epochs as f64);
    report.gate(
        saved > 0,
        "no design was early-stopped (train.epochs_saved = 0)".into(),
    );
    let (keeps, verdicts) = (sum(&|t| t.keeps as f64), sum(&|t| t.verdicts as f64));
    report.layer("earlystop.keep_pct", 100.0 * keeps / verdicts.max(1.0));

    let (train_steps, train_ns) = stats.train.read();
    let (eval_steps, eval_ns) = stats.eval.read();
    let train_envs = stats.train.envs.load(Ordering::Relaxed).max(1);
    let costs = probes::probe(
        nada.workload(),
        nada.dataset(),
        cfg,
        (train_steps / train_envs) as usize,
    );
    report.layer("sim.train_steps", train_steps as f64 / n);
    report.layer("sim.step_ns", train_ns as f64 / train_steps.max(1) as f64);
    report.layer("sim.busy_pct", 100.0 * train_ns as f64 / cpu_ns);
    report.layer("eval.steps", eval_steps as f64 / n);
    report.layer("eval.busy_pct", 100.0 * eval_ns as f64 / cpu_ns);

    let candidates: usize = outcomes.iter().map(|(_, p, _)| p.total).sum();
    let accepted: usize = outcomes.iter().map(|(_, p, _)| p.normalized).sum();
    report.layer("dsl.eval_row_ns", costs.dsl_row_ns);
    report.layer(
        "precheck.us_per_candidate",
        sum(&|t| t.stage_ms[1]) * 1e3 / candidates as f64,
    );
    report.layer(
        "precheck.accept_pct",
        100.0 * accepted as f64 / candidates as f64,
    );
    report.layer("nn.act_batch_us", costs.act_us);
    report.layer("nn.update_us", costs.update_us);
    // Every environment step costs one policy forward; every trained
    // epoch one update (one episode per epoch at this scale).
    let nn_us =
        costs.act_us * (train_steps + eval_steps) as f64 + costs.update_us * trained_epochs as f64;
    report.layer("nn.est_pct", 100.0 * nn_us * 1e3 / cpu_ns);
    for (k, stage) in STAGES.iter().enumerate().skip(2) {
        let util = sum(&|t| t.stage_cpu_ns[k] as f64) / (sum(&|t| t.stage_ms[k]) * 1e6 * workers);
        report.layer(&format!("exec.cpu_util_pct.{stage}"), 100.0 * util);
    }
    report.layer("exec.items", sum(&|t| t.workpool_items as f64) / n);

    if let Err(e) = tracer.write_jsonl(&args.trace_path()) {
        eprintln!("perfbench: could not write spans: {e}");
    }
}
