//! NADA benchmark: end-to-end metrics per workload, and per-layer metrics
//! from a separate traced run.
//!
//! ```text
//! perfbench --workload <search-abr|search-cc|serve-jobs|generate-http>
//!           --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! Prints a short human summary, one `{"perfbench": …}` line recording the
//! run's settings and the workload's own named metrics, and as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for every metric's definition.

mod generate;
mod measure;
mod probes;
mod search;
mod serve;
mod trace;

use std::fmt::Write as _;

/// End-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_tmean_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports (`--trace 1`); a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("session.generate_ms", "ms"),
    ("session.precheck_ms", "ms"),
    ("session.probe_ms", "ms"),
    ("session.screen_ms", "ms"),
    ("session.finalize_ms", "ms"),
    ("session.unaccounted_pct", "%"),
    ("train.epochs", "count"),
    ("train.epochs_saved", "count"),
    ("train.epoch_us", "us"),
    ("earlystop.keep_pct", "%"),
    ("sim.train_steps", "count"),
    ("sim.step_ns", "ns"),
    ("sim.busy_pct", "%"),
    ("eval.steps", "count"),
    ("eval.busy_pct", "%"),
    ("dsl.eval_row_ns", "ns"),
    ("precheck.us_per_candidate", "us"),
    ("precheck.accept_pct", "%"),
    ("nn.act_batch_us", "us"),
    ("nn.update_us", "us"),
    ("nn.est_pct", "%"),
    ("exec.cpu_util_pct.probe", "%"),
    ("exec.cpu_util_pct.screen", "%"),
    ("exec.cpu_util_pct.finalize", "%"),
    ("exec.items", "count"),
    ("llm.generate_ms", "ms"),
    ("http.requests", "count"),
    ("http.retries", "count"),
    ("http.throttled", "count"),
    ("http.conn_reuse", "count"),
    ("http.request_mean_ms", "ms"),
    ("http.conn_busy_pct", "%"),
    ("cache.hit_pct", "%"),
    ("cache.entries", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.round_p50_ms", "ms"),
    ("serve.turns", "count"),
    ("serve.threads_end", "count"),
    ("serve.spool_kb_per_job", "kB"),
    ("wire.status_p50_ms", "ms"),
    ("wire.submit_p50_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Share of the fastest and of the slowest operations `op_tmean_ms` drops.
pub const OP_TRIM: f64 = 0.1;
/// Groups of consecutive set-up blocks whose means a block-timed
/// `setup_s` takes the median of.
pub const SETUP_GROUPS: usize = 5;

pub const WORKLOADS: [&str; 4] = ["search-abr", "search-cc", "serve-jobs", "generate-http"];

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub commit: String,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            commit: "unknown".into(),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = || format!("`{flag}`: bad value `{value}`");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
                    }
                }
                "--commit" => args.commit = value.clone(),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "`--workload` must be one of {WORKLOADS:?}, not `{}`",
                args.workload
            ));
        }
        if !args.seconds.is_finite() || args.seconds <= 0.0 {
            return Err("`--seconds` must be positive".into());
        }
        Ok(args)
    }

    /// Where the traced run writes its spans (inside the checkout).
    pub fn trace_path(&self) -> std::path::PathBuf {
        std::path::PathBuf::from(".bench_out")
            .join(format!("trace-{}-{}.jsonl", self.workload, self.seed))
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Seconds per set-up, one value per start or, where set-ups are timed
    /// in blocks, per group of blocks; `setup_s` is their median.
    pub setup_s: Vec<f64>,
    /// Latency of each measured operation, in ms.
    pub op_ms: Vec<f64>,
    /// Work units completed in the measured phase.
    pub work: f64,
    /// Wall time of the measured phase.
    pub measured_s: f64,
    /// Process CPU time of the measured phase.
    pub cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Self-checks that did not hold; any makes the run incorrect.
    pub gate_failures: Vec<String>,
    /// The workload's own named metrics: `(name, value, unit)`.
    pub detail: Vec<(String, f64, &'static str)>,
    pub layers: Vec<(String, f64)>,
    /// Settings worth recording with the numbers.
    pub info: Vec<(&'static str, String)>,
    /// Outcome digest of every operation, in order: the same seed must
    /// print the same list on every run and every commit that keeps
    /// results bit-identical.
    pub digests: Vec<u64>,
}

impl Report {
    /// Counts one attempted operation.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn gate(&mut self, ok: bool, what: String) {
        if !ok {
            self.gate_failures.push(what);
        }
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push((name.to_string(), value, unit));
    }

    /// Reports the `q` quantile of `xs` under `name`, only when enough
    /// samples lie beyond it.
    pub fn detail_tail(&mut self, name: &str, xs: &[f64], q: f64, scale: f64, unit: &'static str) {
        if let Some(v) = measure::tail(xs, q) {
            self.detail(name, v * scale, unit);
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.layers.push((name.to_string(), value));
    }

    pub fn info(&mut self, key: &'static str, value: String) {
        self.info.push((key, value));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot hold) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metric_map(values: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "search-abr" => search::run(&args, false, &mut report),
        "search-cc" => search::run(&args, true, &mut report),
        "serve-jobs" => serve::run(&args, &mut report),
        "generate-http" => generate::run(&args, &mut report),
        _ => unreachable!("workload validated by Args::parse"),
    }
    if report.attempted == 0 {
        eprintln!("perfbench: no operation was attempted");
        std::process::exit(1);
    }

    let end_to_end = [
        measure::median(&report.setup_s),
        measure::trimmed_mean(&report.op_ms, OP_TRIM),
        report.work / report.measured_s.max(1e-9),
        measure::peak_rss_mb(),
    ];
    if !args.trace {
        let ops = report.op_ms.len().max(1) as f64;
        report.detail("cpu_ms_per_op", report.cpu_s * 1e3 / ops, "ms");
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = report
                    .layers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                (*name, v, *unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|((name, unit), v)| (*name, v, *unit))
            .collect()
    };

    let failed_frac = report.failed as f64 / report.attempted as f64;
    report.detail("failed_frac", failed_frac, "ratio");
    let detail: Vec<(&str, f64, &str)> = report
        .detail
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, *u))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut info = format!(
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"commit\": {}, \"ops\": {}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        nproc,
        json_str(&args.commit),
        report.op_ms.len()
    );
    for (k, v) in &report.info {
        let _ = write!(info, ", {}: {}", json_str(k), json_str(v));
    }
    let gates: Vec<String> = report.gate_failures.iter().map(|g| json_str(g)).collect();
    let digests: Vec<String> = report
        .digests
        .iter()
        .map(|d| format!("\"{d:016x}\""))
        .collect();

    println!(
        "perfbench {} seed={} trace={} nproc={nproc}: {} ops, {} attempted, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.op_ms.len(),
        report.attempted,
        report.failed
    );
    for (n, v, u) in detail.iter().chain(metrics.iter()) {
        println!("  {n:<28} {v:>14.4} {u}");
    }
    for g in &report.gate_failures {
        println!("  GATE FAILED: {g}");
    }
    println!(
        "{{\"perfbench\": {{{info}, \"detail\": {}, \"gate_failures\": [{}], \"digests\": [{}]}}}}",
        metric_map(&detail),
        gates.join(", "),
        digests.join(", ")
    );
    let correct = report.failed == 0 && report.gate_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        metric_map(&metrics)
    );
}
