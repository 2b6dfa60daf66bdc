//! `serve-jobs`: an in-process `nada-serve` daemon on loopback with its
//! default lanes, fed open-loop. Tiny jobs (abr and cc, 1–2 rounds) fall
//! due on a seeded schedule at a fixed rate; one job in four repeats an
//! earlier spec exactly (every evaluation can hit the shared score cache)
//! and one in four repeats an earlier spec with one more round (early
//! rounds hit, the last misses). A submit thread writes over one
//! connection; a poll thread reads `status`/`result` over a second.

use crate::measure::{median, mix, ms_since, process_cpu_s, thread_count, unit};
use crate::trace::{obs_counter, EnvStats, TracedWorkload, Tracer};
use crate::{Args, Report};
use nada_core::registry::WorkloadRegistry;
use nada_core::JobSpec;
use nada_serve::{Client, Daemon, JobResult};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Job arrival rate: about half of what two lanes complete for this mix
/// (measured at 2 cores: about 0.8 CPU-seconds per job).
pub const JOBS_PER_S: f64 = 1.0;
/// Least time between two poll RPCs, so a faster wire never turns the
/// poller into a busy loop competing with the lanes.
const POLL_GAP: Duration = Duration::from_millis(5);
/// Times the daemon is started to measure set-up, and the pause after
/// each start, so the starts span a second or two and a stall of the
/// machine meets only some of them.
const SETUPS: usize = 25;
const SETUP_GAP: Duration = Duration::from_millis(50);
/// A job that has not finished this long after the schedule ends failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Fresh,
    /// The same spec as the planned job at this index.
    Repeat(usize),
    /// The spec of the planned job at this index, with one more round.
    Extend(usize),
}

#[derive(Debug, Clone)]
struct Planned {
    due_s: f64,
    spec: JobSpec,
    kind: Kind,
}

/// A job's type: workload and rounds.
const TYPES: [(&str, usize); 4] = [("abr", 1), ("cc", 1), ("abr", 2), ("cc", 2)];
/// Jobs per period of the schedule; every period holds the same mix.
const PERIOD: usize = 8;

/// A seeded permutation of `0..4` for `(seed, stream)`.
fn shuffle4(seed: u64, stream: u64) -> [usize; 4] {
    let mut order = [0, 1, 2, 3];
    for i in (1..4).rev() {
        order.swap(
            i,
            (mix(seed, stream * 4 + i as u64) % (i as u64 + 1)) as usize,
        );
    }
    order
}

/// The seeded schedule. Each period of eight jobs holds one fresh job of
/// every type (first half, seeded order), then exact repeats of the
/// previous period's two-round jobs and one-round extensions of its
/// one-round jobs (second half, seeded order). The first period has no
/// previous one, so its second half is fresh too. Seeds vary the designs,
/// the order and the arrival jitter, not the amount or kind of work.
fn plan(seed: u64, seconds: f64) -> Vec<Planned> {
    // Whole periods only, so every seed runs the same mix.
    let n = ((seconds * JOBS_PER_S) as usize / PERIOD).max(1) * PERIOD;
    let mut jobs: Vec<Planned> = Vec::with_capacity(n);
    for i in 0..n {
        let (period, pos) = (i / PERIOD, i % PERIOD);
        let due_s = (i as f64 + 0.5 * unit(seed, 5_000 + i as u64)) / JOBS_PER_S;
        let ty = shuffle4(seed, (2 * period + pos / 4) as u64)[pos % 4];
        let fresh = || {
            let (workload, rounds) = TYPES[ty];
            let mut spec = JobSpec::new(workload, "FCC", mix(seed, 9_000 + i as u64) % 1_000_000);
            spec.rounds = rounds;
            // Every candidate of the defect-free mock passes prechecks, so
            // a job's amount of training depends on its type alone and
            // seeds vary only which designs are trained.
            spec.llm_model = "perfect".into();
            spec
        };
        let (spec, kind) = if pos < 4 || period == 0 {
            (fresh(), Kind::Fresh)
        } else {
            // The previous period's fresh job of this type.
            let j = (period - 1) * PERIOD
                + shuffle4(seed, 2 * (period as u64 - 1))
                    .iter()
                    .position(|&t| t == ty)
                    .expect("every type appears once");
            let mut spec = jobs[j].spec.clone();
            if spec.rounds == 1 {
                spec.rounds = 2;
                (spec, Kind::Extend(j))
            } else {
                (spec, Kind::Repeat(j))
            }
        };
        jobs.push(Planned { due_s, spec, kind });
    }
    jobs
}

/// A running daemon plus the connections the load generator uses.
struct Harness {
    spool: PathBuf,
    server: JoinHandle<std::io::Result<()>>,
    scheduler: Arc<nada_serve::Scheduler>,
    submit: Client,
    poll: Client,
}

fn start(spool: &Path, registry: Arc<WorkloadRegistry>) -> Harness {
    let _ = std::fs::remove_dir_all(spool);
    let daemon =
        Daemon::bind_with_registry("127.0.0.1:0", spool, nada_exec::scheduler_lanes(), registry)
            .expect("loopback daemon binds");
    let addr = daemon.local_addr().expect("bound daemon has an address");
    let scheduler = daemon.scheduler().clone();
    let server = std::thread::spawn(move || daemon.run());
    let mut submit = Client::connect(addr).expect("submit connection");
    let mut poll = Client::connect(addr).expect("poll connection");
    submit
        .ping()
        .expect("daemon answers on the submit connection");
    poll.ping().expect("daemon answers on the poll connection");
    Harness {
        spool: spool.to_path_buf(),
        server,
        scheduler,
        submit,
        poll,
    }
}

impl Harness {
    fn stop(self) {
        let Harness {
            spool,
            server,
            mut submit,
            poll,
            ..
        } = self;
        drop(poll);
        submit.shutdown().expect("daemon accepts shutdown");
        drop(submit);
        server
            .join()
            .expect("daemon thread joins")
            .expect("daemon exits cleanly");
        let _ = std::fs::remove_dir_all(spool);
    }
}

/// What the load generator saw of one job.
#[derive(Debug, Clone, Default)]
struct Seen {
    id: u64,
    due: Option<Instant>,
    /// When the submit RPC was sent.
    sent: Option<Instant>,
    finished: Option<Instant>,
    state: String,
    result: Option<JobResult>,
}

/// What one pass over a schedule measured.
#[derive(Debug, Default)]
struct Pass {
    seen: Vec<Seen>,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    result_ms: Vec<f64>,
    late_ms: Vec<f64>,
    rpc_errors: u64,
    start: Option<Instant>,
    end: Option<Instant>,
    cpu_s: f64,
}

/// Drives `jobs` open-loop against `h`: the submit thread sends each job
/// when due; the poll thread watches every submitted job until it ends.
fn drive(h: &mut Harness, jobs: &[Planned]) -> Pass {
    let start = Instant::now() + Duration::from_millis(20);
    let cpu0 = process_cpu_s();
    let (tx, rx) = mpsc::channel::<(usize, u64, Instant, Instant)>();
    let submit = &mut h.submit;
    let poll = &mut h.poll;
    let (submit_side, poll_side) = std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut submit_ms = Vec::new();
            let mut late_ms = Vec::new();
            let mut errors = 0u64;
            for (k, job) in jobs.iter().enumerate() {
                let due = start + Duration::from_secs_f64(job.due_s);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                match submit.submit(job.spec.clone()) {
                    Ok(id) => {
                        submit_ms.push(ms_since(sent));
                        tx.send((k, id, due, sent))
                            .expect("poll thread outlives the submitter");
                    }
                    Err(e) => {
                        eprintln!("perfbench: submit of job {k} failed: {e}");
                        errors += 1;
                    }
                }
            }
            (submit_ms, late_ms, errors)
        });
        let poller = scope.spawn(move || {
            let mut seen: Vec<Seen> = vec![Seen::default(); jobs.len()];
            let mut open: Vec<usize> = Vec::new();
            let mut status_ms = Vec::new();
            let mut result_ms = Vec::new();
            let mut errors = 0u64;
            let mut next = 0usize;
            let mut last_rpc = Instant::now();
            let mut submitting = true;
            let mut deadline = None;
            loop {
                // Take in what the submitter has sent; block only when
                // there is nothing to poll.
                loop {
                    let msg = if open.is_empty() && submitting {
                        rx.recv().ok()
                    } else {
                        match rx.try_recv() {
                            Ok(m) => Some(m),
                            Err(mpsc::TryRecvError::Empty) => break,
                            Err(mpsc::TryRecvError::Disconnected) => None,
                        }
                    };
                    match msg {
                        Some((k, id, due, sent)) => {
                            seen[k].id = id;
                            seen[k].due = Some(due);
                            seen[k].sent = Some(sent);
                            open.push(k);
                        }
                        None => {
                            submitting = false;
                            deadline.get_or_insert(Instant::now() + DRAIN_LIMIT);
                            break;
                        }
                    }
                }
                if open.is_empty() {
                    if submitting {
                        continue;
                    }
                    break;
                }
                if deadline.is_some_and(|d| Instant::now() > d) {
                    for &k in &open {
                        seen[k].state = "timed-out".into();
                    }
                    break;
                }
                if let Some(wait) = (last_rpc + POLL_GAP).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                next %= open.len();
                let k = open[next];
                let t = Instant::now();
                last_rpc = t;
                match poll.status(seen[k].id) {
                    Ok(status) => {
                        status_ms.push(ms_since(t));
                        if matches!(status.state.as_str(), "done" | "failed" | "cancelled") {
                            seen[k].finished = Some(Instant::now());
                            seen[k].state = status.state.clone();
                            if status.state == "done" {
                                let t = Instant::now();
                                match poll.result(seen[k].id) {
                                    Ok(r) => {
                                        result_ms.push(ms_since(t));
                                        seen[k].result = Some(r);
                                    }
                                    Err(e) => {
                                        eprintln!("perfbench: result of job {k} failed: {e}");
                                        errors += 1;
                                    }
                                }
                                last_rpc = Instant::now();
                            }
                            open.swap_remove(next);
                            continue;
                        }
                    }
                    Err(e) => {
                        eprintln!("perfbench: status of job {k} failed: {e}");
                        errors += 1;
                    }
                }
                next += 1;
            }
            (seen, status_ms, result_ms, errors)
        });
        (
            submitter.join().expect("submit thread joins"),
            poller.join().expect("poll thread joins"),
        )
    });
    let (submit_ms, late_ms, submit_errors) = submit_side;
    let (seen, status_ms, result_ms, poll_errors) = poll_side;
    let end = seen.iter().filter_map(|s| s.finished).max();
    Pass {
        seen,
        submit_ms,
        status_ms,
        result_ms,
        late_ms,
        rpc_errors: submit_errors + poll_errors,
        start: Some(start),
        end,
        cpu_s: process_cpu_s() - cpu0,
    }
}

fn job_ms(s: &Seen) -> Option<f64> {
    Some(s.finished?.saturating_duration_since(s.due?).as_secs_f64() * 1e3)
}

/// Counts every job and RPC of `pass` and applies the outcome gates:
/// every job finishes, and a repeated spec reproduces its original's
/// outcome (the cache is invisible) — fully for an exact repeat, round by
/// round for an extended one.
fn check(jobs: &[Planned], pass: &Pass, report: &mut Report) {
    for (k, (job, s)) in jobs.iter().zip(&pass.seen).enumerate() {
        let ok = s.state == "done" && s.result.is_some();
        report.count(ok);
        report.gate(ok, format!("job {k} ended `{}`", s.state));
        let (Some(result), Kind::Repeat(j) | Kind::Extend(j)) = (&s.result, job.kind) else {
            continue;
        };
        let Some(original) = &pass.seen[j].result else {
            continue;
        };
        let same = match job.kind {
            Kind::Repeat(_) => result.outcome_encoding() == original.outcome_encoding(),
            _ => result.rounds.get(..original.rounds.len()) == Some(&original.rounds[..]),
        };
        report.count(same);
        report.gate(same, format!("job {k} did not reproduce job {j}'s outcome"));
    }
    let rpcs = (pass.submit_ms.len() + pass.status_ms.len() + pass.result_ms.len()) as u64;
    report.attempted += rpcs + pass.rpc_errors;
    report.failed += pass.rpc_errors;
}

fn cache_counts() -> (u64, u64) {
    (
        obs_counter("score_cache_hits_total"),
        obs_counter("score_cache_misses_total"),
    )
}

fn spool_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => spool_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn spool_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("spool-{}-{tag}", std::process::id()))
}

pub fn run(args: &Args, report: &mut Report) {
    let jobs = plan(args.seed, args.seconds);
    let lanes = nada_exec::scheduler_lanes();
    report.info("lanes", lanes.to_string());
    report.info("workers", nada_exec::configured_workers().to_string());
    report.info("jobs_per_s", JOBS_PER_S.to_string());
    report.info("jobs", jobs.len().to_string());

    let builtin = Arc::new(WorkloadRegistry::builtin());
    let mut harness = None;
    for k in 0..SETUPS {
        if let Some(h) = harness.take() {
            Harness::stop(h);
            std::thread::sleep(SETUP_GAP);
        }
        let t = Instant::now();
        harness = Some(start(&spool_dir(&format!("setup{k}")), builtin.clone()));
        report.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut h = harness.expect("at least one set-up");

    if args.trace {
        Harness::stop(h);
        traced(args, &jobs, report);
        return;
    }

    let (hits0, misses0) = cache_counts();
    let pass = drive(&mut h, &jobs);
    Harness::stop(h);
    check(&jobs, &pass, report);
    let (hits, misses) = cache_counts();
    let (hits, misses) = (hits - hits0, misses - misses0);
    let hit_pct = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
    report.gate(hits > 0, "no evaluation hit the score cache".into());

    let latencies: Vec<f64> = pass.seen.iter().filter_map(job_ms).collect();
    let (start, end) = (
        pass.start.expect("pass started"),
        pass.end.unwrap_or_else(Instant::now),
    );
    report.measured_s = end.saturating_duration_since(start).as_secs_f64();
    report.cpu_s = pass.cpu_s;
    report.work = pass
        .seen
        .iter()
        .filter_map(|s| s.result.as_ref())
        .map(|r| r.stats.epochs_spent as f64)
        .sum();
    report.op_ms = latencies.clone();

    report.detail("job_p50_s", median(&latencies) / 1e3, "s");
    report.detail_tail("job_p90_s", &latencies, 0.9, 1e-3, "s");
    report.detail("status_p50_ms", median(&pass.status_ms), "ms");
    report.detail_tail("status_p90_ms", &pass.status_ms, 0.9, 1.0, "ms");
    report.detail_tail("status_p99_ms", &pass.status_ms, 0.99, 1.0, "ms");
    report.detail("submit_p50_ms", median(&pass.submit_ms), "ms");
    report.detail("cache_hit_pct", hit_pct, "%");
    report.detail(
        "gen_late_max_ms",
        pass.late_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    report.detail("status_rpcs", pass.status_ms.len() as f64, "count");
}

fn traced(args: &Args, jobs: &[Planned], report: &mut Report) {
    let tracer = Arc::new(Tracer::new());
    let stats = Arc::new(EnvStats::default());
    let instances = Arc::new(AtomicU64::new(0));
    let mut registry = WorkloadRegistry::builtin();
    for name in ["abr", "cc"] {
        let (tracer, stats, instances) = (tracer.clone(), stats.clone(), instances.clone());
        registry.register(name, move |kind| {
            let inner = WorkloadRegistry::builtin()
                .build(name, kind)
                .expect("builtin workload");
            // Jobs are built in submission order, one pipeline each, so
            // instance k belongs to the k-th submitted job.
            let instance = instances.fetch_add(1, Ordering::Relaxed);
            Box::new(TracedWorkload::new(
                inner,
                stats.clone(),
                tracer.clone(),
                instance,
            ))
        });
    }
    let mut h = start(&spool_dir("traced"), Arc::new(registry));
    let (hits0, misses0) = cache_counts();
    let turns0 = obs_counter("serve_turns_total");
    let items0 = obs_counter("workpool_items_total");
    let pass = drive(&mut h, jobs);
    let (hits, misses) = cache_counts();
    let turns = obs_counter("serve_turns_total") - turns0;
    let items = obs_counter("workpool_items_total") - items0;
    let entries = h.scheduler.cache().len();
    let threads = thread_count();
    let spool_kb = spool_bytes(&h.spool) as f64 / 1024.0;
    Harness::stop(h);
    check(jobs, &pass, report);
    report.gate(hits > hits0, "no evaluation hit the score cache".into());

    // Queue wait: submit sent → the job's first round asks its workload
    // for the prompt task. Round time: a round's task call → the
    // last episode it ended before the job's next round (or the end).
    let task_calls = stats.task_calls.lock().expect("task log lock").clone();
    let drops = stats.env_drops.lock().expect("drop log lock").clone();
    // Spans per job (trace id = the daemon's job id): job (due → seen
    // done), queue (submit sent → first round) and one per round.
    let mut waits = Vec::new();
    let mut rounds = Vec::new();
    for (k, s) in pass.seen.iter().enumerate() {
        let (Some(due), Some(sub), Some(done)) = (s.due, s.sent, s.finished) else {
            continue;
        };
        let job = tracer.record(s.id, 0, "job", tracer.ns_at(due), tracer.ns_at(done));
        let mut starts: Vec<u64> = task_calls
            .iter()
            .filter(|(i, _)| *i == k as u64)
            .map(|(_, t)| *t)
            .collect();
        starts.sort_unstable();
        if let Some(first) = starts.first() {
            waits.push((*first as f64 - tracer.ns_at(sub) as f64) / 1e6);
            tracer.record(s.id, job, "queue", tracer.ns_at(sub), *first);
        }
        for (r, begin) in starts.iter().enumerate() {
            let limit = starts.get(r + 1).copied().unwrap_or(u64::MAX);
            let last = drops
                .iter()
                .filter(|(i, t)| *i == k as u64 && *t >= *begin && *t < limit)
                .map(|(_, t)| *t)
                .max();
            if let Some(last) = last {
                rounds.push((last - begin) as f64 / 1e6);
                tracer.record(s.id, job, "round", *begin, last);
            }
        }
    }

    let n = jobs.len() as f64;
    report.layer(
        "cache.hit_pct",
        100.0 * (hits - hits0) as f64 / ((hits - hits0) + (misses - misses0)).max(1) as f64,
    );
    report.layer("cache.entries", entries as f64);
    report.layer("serve.queue_wait_p50_ms", median(&waits));
    report.layer("serve.round_p50_ms", median(&rounds));
    report.layer("serve.turns", turns as f64);
    report.layer("serve.threads_end", threads as f64);
    report.layer("serve.spool_kb_per_job", spool_kb / n);
    report.layer("wire.status_p50_ms", median(&pass.status_ms));
    report.layer("wire.submit_p50_ms", median(&pass.submit_ms));
    report.layer(
        "gen.late_max_ms",
        pass.late_ms.iter().copied().fold(0.0, f64::max),
    );
    report.layer("exec.items", items as f64 / n);
    let (train_steps, train_ns) = stats.train.read();
    let (eval_steps, eval_ns) = stats.eval.read();
    let cpu_ns = pass.cpu_s * 1e9;
    report.layer("sim.train_steps", train_steps as f64 / n);
    report.layer("sim.step_ns", train_ns as f64 / train_steps.max(1) as f64);
    report.layer("sim.busy_pct", 100.0 * train_ns as f64 / cpu_ns);
    report.layer("eval.steps", eval_steps as f64 / n);
    report.layer("eval.busy_pct", 100.0 * eval_ns as f64 / cpu_ns);
    let epochs: f64 = pass
        .seen
        .iter()
        .filter_map(|s| s.result.as_ref())
        .map(|r| r.stats.epochs_spent as f64)
        .sum();
    report.layer("train.epochs", epochs / n);

    // The schedule again, untraced on a fresh daemon: tracing overhead,
    // and proof that tracing changed no outcome.
    let mut plain = start(&spool_dir("replay"), Arc::new(WorkloadRegistry::builtin()));
    let replay = drive(&mut plain, jobs);
    Harness::stop(plain);
    let mut traced_ms = 0.0;
    let mut untraced_ms = 0.0;
    for (k, (a, b)) in pass.seen.iter().zip(&replay.seen).enumerate() {
        let same = match (&a.result, &b.result) {
            (Some(x), Some(y)) => x.outcome_encoding() == y.outcome_encoding(),
            _ => false,
        };
        report.count(same);
        report.gate(
            same,
            format!("traced job {k} differs from its untraced replay"),
        );
        if let (Some(x), Some(y)) = (job_ms(a), job_ms(b)) {
            traced_ms += x;
            untraced_ms += y;
        }
    }
    report.layer(
        "trace.overhead_pct",
        100.0 * (traced_ms / untraced_ms - 1.0),
    );
    if let Err(e) = tracer.write_jsonl(&args.trace_path()) {
        eprintln!("perfbench: could not write spans: {e}");
    }
}
