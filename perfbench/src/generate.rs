//! `generate-http`: the Generate and Precheck stages alone
//! (`SearchSession::generate` + `precheck`), through a `PooledClient` with
//! one connection per core, against a loopback chat-completions stub.
//!
//! The stub serves designs the calibrated GPT-4 mock wrote beforehand, so
//! prechecks accept some and reject others. It answers each request after
//! a seeded, right-skewed delay, and answers a fixed share of first
//! attempts with `429` and `Retry-After: 0`. From the wave slot a request
//! carries it knows which candidate of the batch the client asked for, and
//! labels its reply with that index, so the benchmark can check that every
//! candidate came back, once, in submission order.

use crate::measure::{group_means, median, mix, ms_since, process_cpu_s, unit, Digest, SetupTimer};
use crate::trace::{obs_counter, obs_hist, TracedLlm, Tracer};
use crate::{Args, Report, SETUP_GROUPS};
use nada_core::{FnObserver, Nada, NadaConfig, RunScale, SearchEvent, SearchSession};
use nada_llm::{DesignKind, LlmClient, MockLlm};
use nada_llm_http::{
    ConnPool, Endpoint, HttpConfig, Json, PooledClient, RateGovernor, SLOT_HEADER,
};
use nada_traces::dataset::DatasetKind;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Candidates per batch.
pub const N_CANDIDATES: usize = 32;
/// Batches before the stub's designs repeat; batch `b` and `b + PERIOD`
/// see the same designs and must get the same precheck verdicts.
const PERIOD: usize = 4;
/// Median stub latency and the spread of its logarithm.
const LATENCY_MEDIAN_MS: f64 = 2.0;
const LATENCY_LOG_SIGMA: f64 = 0.75;
/// Share of first attempts answered 429.
const THROTTLE_SHARE: f64 = 0.125;
/// Least time of one block of set-ups (pipeline, the stub's designs,
/// pooled client); a block is timed after every measured batch.
const SETUP_BLOCK_S: f64 = 0.002;

/// State shared by the stub's handler threads.
struct StubState {
    seed: u64,
    designs: Vec<String>,
    width: usize,
    /// Per wave slot: requests answered 200 so far.
    served: Mutex<Vec<u64>>,
    /// Candidates whose first attempt was answered 429.
    throttled: Mutex<Vec<bool>>,
    stop: AtomicBool,
    requests: AtomicU64,
}

/// A keep-alive chat-completions server on loopback.
struct Stub {
    port: u16,
    state: Arc<StubState>,
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
}

impl Stub {
    fn start(seed: u64, designs: Vec<String>, width: usize) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("stub binds loopback");
        listener
            .set_nonblocking(true)
            .expect("stub listener goes non-blocking");
        let port = listener.local_addr().expect("stub has an address").port();
        let state = Arc::new(StubState {
            seed,
            designs,
            width,
            served: Mutex::new(vec![0; width]),
            throttled: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
        });
        let shared = state.clone();
        let acceptor = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            while !shared.stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let state = shared.clone();
                        handlers.push(std::thread::spawn(move || serve(stream, &state)));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            handlers
        });
        Self {
            port,
            state,
            acceptor,
        }
    }

    fn base(&self) -> String {
        format!("http://127.0.0.1:{}/v1", self.port)
    }

    /// Stops accepting and joins every handler; callers drop their
    /// connections first so the handlers see end-of-stream.
    fn stop(self) {
        self.state.stop.store(true, Ordering::SeqCst);
        for h in self.acceptor.join().expect("stub acceptor joins") {
            h.join().expect("stub handler joins");
        }
    }
}

/// Reads one request; `None` at end of stream. Returns the slot header.
fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Option<Option<usize>> {
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let header = |name: &str| {
        head.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case(name)
                .then(|| v.trim().to_string())
        })
    };
    let len: usize = header("content-length")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let slot = header(SLOT_HEADER).and_then(|v| v.parse().ok());
    while buf.len() < head_end + len {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    buf.drain(..head_end + len);
    Some(slot)
}

fn serve(mut stream: TcpStream, state: &StubState) {
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::new();
    while let Some(slot) = read_request(&mut stream, &mut buf) {
        state.requests.fetch_add(1, Ordering::Relaxed);
        let slot = slot.unwrap_or(0).min(state.width - 1);
        // Waves are full and end in a barrier, so the k-th answered
        // request of slot s is candidate k * width + s of the run.
        let g = {
            let served = state.served.lock().expect("stub slot lock");
            served[slot] as usize * state.width + slot
        };
        let throttle = {
            let mut throttled = state.throttled.lock().expect("stub throttle lock");
            if throttled.len() <= g {
                throttled.resize(g + 1, false);
            }
            let first = !throttled[g];
            let throttle = first && unit(state.seed, 20_000 + g as u64) < THROTTLE_SHARE;
            throttled[g] |= throttle;
            throttle
        };
        let response = if throttle {
            let body = r#"{"error":{"message":"rate limited"}}"#;
            format!(
                "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 0\r\nContent-Length: {}\r\n\
                 Connection: keep-alive\r\n\r\n{body}",
                body.len()
            )
        } else {
            state.served.lock().expect("stub slot lock")[slot] += 1;
            let z = normal(state.seed, g as u64);
            let delay_ms = LATENCY_MEDIAN_MS * (LATENCY_LOG_SIGMA * z).exp();
            std::thread::sleep(Duration::from_secs_f64(delay_ms / 1e3));
            let content = format!(
                "candidate {g}\n```\n{}```\n",
                state.designs[g % state.designs.len()]
            );
            let body = Json::Obj(vec![(
                "choices".into(),
                Json::Arr(vec![Json::Obj(vec![(
                    "message".into(),
                    Json::Obj(vec![
                        ("role".into(), Json::Str("assistant".into())),
                        ("content".into(), Json::Str(content)),
                    ]),
                )])]),
            )])
            .render();
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
                 Connection: keep-alive\r\n\r\n{body}",
                body.len()
            )
        };
        if stream.write_all(response.as_bytes()).is_err() {
            return;
        }
    }
}

/// A standard normal draw (Box–Muller) from `(seed, stream)`.
fn normal(seed: u64, stream: u64) -> f64 {
    let u1 = unit(seed, 30_000 + 2 * stream).max(1e-12);
    let u2 = unit(seed, 30_001 + 2 * stream);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Designs the mock wrote for the state prompt, code only, each ending in
/// a newline as the HTTP client delivers them.
fn pregenerate(nada: &Nada, seed: u64) -> Vec<String> {
    let prompt = nada.prompt_for(DesignKind::State);
    let mut llm = MockLlm::gpt4(mix(seed, 2));
    llm.generate_batch(&prompt, N_CANDIDATES * PERIOD)
        .into_iter()
        .map(|c| {
            let mut code = c.code.trim_end().to_string();
            code.push('\n');
            code
        })
        .collect()
}

fn config(seed: u64) -> NadaConfig {
    let mut cfg = NadaConfig::new(DatasetKind::Fcc, RunScale::Tiny, seed);
    cfg.n_candidates = N_CANDIDATES;
    cfg
}

fn client(base: &str, width: usize) -> PooledClient {
    let cfg = HttpConfig::new(base, "gpt-4");
    let endpoint = Endpoint::parse(&cfg.base).expect("stub base parses");
    let pool = Arc::new(ConnPool::new(endpoint, cfg.timeout, width));
    PooledClient::with_parts(cfg, pool, Arc::new(RateGovernor::new(None)))
}

/// One batch: a fresh session's generate and precheck stages, with the
/// ids prechecks accepted. Traced batches get a span per stage and per
/// LLM call. Returns the digest of the precheck verdicts, the traced
/// `[generate, precheck, llm]` milliseconds and the accepted count.
fn batch(
    nada: &Nada,
    llm: &mut PooledClient,
    tracer: Option<(&Tracer, u64)>,
    designs: &[String],
    b: usize,
    report: &mut Report,
) -> (u64, [f64; 3], usize) {
    let accepted = Mutex::new(Vec::new());
    let mut session = SearchSession::new(nada, DesignKind::State);
    session.observe(FnObserver(|e: &SearchEvent| {
        if let SearchEvent::CandidateAccepted { id } = e {
            accepted.lock().expect("accepted ids lock").push(*id);
        }
    }));
    let mut ms = [0.0; 3];
    match tracer {
        None => {
            session.generate(llm).expect("fresh session generates");
            session.precheck().expect("generated session prechecks");
        }
        Some((tracer, id)) => {
            let root = tracer.open(id, 0);
            let open = tracer.open(id, root.id);
            let mut traced = TracedLlm::new(&mut *llm, tracer, id, open.id);
            session
                .generate(&mut traced)
                .expect("fresh session generates");
            ms[2] = traced.spent_ms();
            ms[0] = tracer.close(open, "generate").ms();
            let open = tracer.open(id, root.id);
            session.precheck().expect("generated session prechecks");
            ms[1] = tracer.close(open, "precheck").ms();
            tracer.close(root, "batch");
        }
    }
    let snapshot = session.snapshot();
    let got = &snapshot.candidates;
    for i in 0..N_CANDIDATES {
        let g = b * N_CANDIDATES + i;
        let ok = got.get(i).is_some_and(|c| {
            c.reasoning.as_deref() == Some(format!("candidate {g}").as_str())
                && c.code == designs[g % designs.len()]
        });
        report.count(ok);
        report.gate(
            ok,
            format!("batch {b}: candidate {i} lost, duplicated or out of order"),
        );
    }
    report.gate(
        got.len() == N_CANDIDATES,
        format!(
            "batch {b}: {} candidates for {N_CANDIDATES} requested",
            got.len()
        ),
    );
    drop(session);
    let accepted = accepted.into_inner().expect("accepted ids lock");
    let mut d = Digest::default();
    for id in &accepted {
        d.u64(*id as u64);
    }
    (d.finish(), ms, accepted.len())
}

/// Records batch `b`'s verdict digest: batches a period apart saw the
/// same designs and must agree.
fn record(report: &mut Report, b: usize, d: u64) {
    report.digests.push(d);
    if b >= PERIOD {
        let same = report.digests[b - PERIOD] == d;
        report.gate(
            same,
            format!("batch {b} disagrees with batch {}", b - PERIOD),
        );
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let width = nada_exec::configured_workers().max(1);
    report.info("conns", width.to_string());
    report.info("n_candidates", N_CANDIDATES.to_string());
    let cfg = config(mix(args.seed, 1) % 1_000_000);
    let nada = Nada::new(cfg.clone());
    let designs = pregenerate(&nada, args.seed);
    let stub = Stub::start(args.seed, designs.clone(), width);
    let mut llm = client(&stub.base(), width);

    // Warm-up: opens the connections.
    let (d, _, _) = batch(&nada, &mut llm, None, &designs, 0, report);
    record(report, 0, d);
    let mut b = 1;

    if args.trace {
        traced(args, &nada, &mut llm, &designs, b, width, report);
    } else {
        // Building a client opens no connection, so the timed ones leave
        // the stub untouched.
        let base = stub.base();
        let mut setup = SetupTimer::new(SETUP_BLOCK_S, || {
            let nada = Nada::new(cfg.clone());
            black_box(pregenerate(&nada, args.seed));
            black_box((nada, client(&base, width)));
        });
        let retries0 = obs_counter("llm_http_retries_total");
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < args.seconds || report.op_ms.len() < 2 * PERIOD {
            let t = Instant::now();
            let (d, _, _) = batch(&nada, &mut llm, None, &designs, b, report);
            report.op_ms.push(ms_since(t));
            record(report, b, d);
            b += 1;
            setup.block();
        }
        report.measured_s = start.elapsed().as_secs_f64() - setup.spent_s;
        report.cpu_s = process_cpu_s() - cpu0 - setup.spent_s;
        report.setup_s = group_means(&setup.samples, SETUP_GROUPS);
        report.work = (report.op_ms.len() * N_CANDIDATES) as f64;
        report.detail("candidates_per_s", report.work / report.measured_s, "1/s");
        report.detail("batch_p50_ms", median(&report.op_ms), "ms");
        report.detail_tail("batch_p90_ms", &report.op_ms.clone(), 0.9, 1.0, "ms");
        let retries = obs_counter("llm_http_retries_total") - retries0;
        report.detail("http_retries", retries as f64, "count");
        report.gate(
            retries > 0,
            "no request was retried (http.retries = 0)".into(),
        );
    }
    let requests = stub.state.requests.load(Ordering::Relaxed);
    report.info("stub_requests", requests.to_string());
    drop(llm);
    stub.stop();
}

fn traced(
    args: &Args,
    nada: &Nada,
    llm: &mut PooledClient,
    designs: &[String],
    mut b: usize,
    width: usize,
    report: &mut Report,
) {
    let tracer = Tracer::new();
    let counters = [
        "llm_http_requests_total",
        "llm_http_retries_total",
        "llm_pool_throttled_total",
        "llm_http_conn_reuse_total",
    ];
    let before: Vec<u64> = counters.iter().map(|c| obs_counter(c)).collect();
    let (count0, sum0) = obs_hist("llm_http_request_duration_ns");
    let start = Instant::now();
    let mut stage_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let mut accepted = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds || stage_ms.len() < 2 * PERIOD {
        let t = Instant::now();
        let (d, ms, ok) = batch(nada, llm, Some((&tracer, b as u64)), designs, b, report);
        wall_ms.push(ms_since(t));
        accepted += ok;
        record(report, b, d);
        stage_ms.push(ms);
        b += 1;
    }
    let delta: Vec<f64> = counters
        .iter()
        .zip(&before)
        .map(|(c, b)| (obs_counter(c) - b) as f64)
        .collect();
    let (count, sum) = obs_hist("llm_http_request_duration_ns");
    let n = stage_ms.len() as f64;
    let total = |k: usize| stage_ms.iter().map(|m: &[f64; 3]| m[k]).sum::<f64>();
    report.layer("session.generate_ms", (total(0) - total(2)) / n);
    report.layer("session.precheck_ms", total(1) / n);
    report.layer("llm.generate_ms", total(2) / n);
    report.layer(
        "precheck.us_per_candidate",
        total(1) * 1e3 / (n * N_CANDIDATES as f64),
    );
    report.layer(
        "precheck.accept_pct",
        100.0 * accepted as f64 / (n * N_CANDIDATES as f64),
    );
    report.layer("http.requests", delta[0] / n);
    report.layer("http.retries", delta[1] / n);
    report.layer("http.throttled", delta[2] / n);
    report.layer("http.conn_reuse", delta[3] / n);
    let (count, sum) = (count - count0, sum - sum0);
    report.layer(
        "http.request_mean_ms",
        sum as f64 / 1e6 / count.max(1) as f64,
    );
    report.layer(
        "http.conn_busy_pct",
        100.0 * sum as f64 / 1e6 / (total(2) * width as f64),
    );
    let unaccounted: f64 = wall_ms.iter().sum::<f64>() - total(0) - total(1);
    report.layer(
        "session.unaccounted_pct",
        100.0 * unaccounted / wall_ms.iter().sum::<f64>(),
    );
    report.gate(
        delta[1] > 0.0,
        "no request was retried (http.retries = 0)".into(),
    );

    // The same number of batches again, untraced: tracing overhead.
    let replay = stage_ms.len().div_ceil(2);
    let t = Instant::now();
    for _ in 0..replay {
        let (d, _, _) = batch(nada, llm, None, designs, b, report);
        record(report, b, d);
        b += 1;
    }
    let untraced = ms_since(t) / replay as f64;
    let traced = wall_ms.iter().sum::<f64>() / n;
    report.layer("trace.overhead_pct", 100.0 * (traced / untraced - 1.0));
    if let Err(e) = tracer.write_jsonl(&args.trace_path()) {
        eprintln!("perfbench: could not write spans: {e}");
    }
}
