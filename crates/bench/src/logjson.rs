//! JSONL structured logging for search events (`--log-json PATH`).
//!
//! A [`JsonlObserver`] turns every [`SearchEvent`] into one JSON object
//! on its own line — machine-readable where `--progress` is
//! human-readable. Field names are stable (they are the contract
//! downstream analysis scripts parse): every object carries `"event"`
//! (the snake_case variant name) and `"label"` (which search within the
//! harness run emitted it), plus the variant's own payload fields.
//!
//! All observers pointing at the same path share one process-wide sink:
//! the first attach truncates the file, later ones append, so a harness
//! that runs many searches (Table 1 runs eight) logs them all into one
//! file distinguished by label. Writes are line-buffered under a mutex,
//! so concurrent per-candidate events from training workers never
//! interleave within a line.

use nada_core::{SearchEvent, SearchObserver};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Process-wide path → sink map. Holding `Arc<Mutex<File>>` per path
/// (instead of reopening per observer) is what makes "first attach
/// truncates, the rest append" true even with concurrent searches.
fn sinks() -> &'static Mutex<HashMap<PathBuf, Arc<Mutex<File>>>> {
    static SINKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<File>>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A [`SearchObserver`] that appends one JSON object per event to a
/// shared JSONL file.
pub struct JsonlObserver {
    label: String,
    sink: Arc<Mutex<File>>,
}

impl JsonlObserver {
    /// Attaches to the process-wide sink for `path`, creating (and
    /// truncating) the file if this is the first attach. `label` is
    /// stamped on every line this observer writes.
    pub fn attach(path: impl AsRef<Path>, label: impl Into<String>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut map = sinks().lock().expect("jsonl sink map lock");
        let sink = match map.get(&path) {
            Some(sink) => sink.clone(),
            None => {
                let sink = Arc::new(Mutex::new(File::create(&path)?));
                map.insert(path, sink.clone());
                sink
            }
        };
        Ok(Self {
            label: label.into(),
            sink,
        })
    }
}

impl SearchObserver for JsonlObserver {
    fn on_event(&self, event: &SearchEvent) {
        let line = event_json(&self.label, event);
        if let Ok(mut file) = self.sink.lock() {
            // Telemetry must never fail the search — drop on I/O error.
            let _ = writeln!(file, "{line}");
        }
    }
}

/// One event as a single-line JSON object. Public so tests (and
/// embedding callers) can pin the schema without going through a file.
pub fn event_json(label: &str, event: &SearchEvent) -> String {
    let mut obj = JsonObject::new();
    obj.str_field("label", label);
    match event {
        SearchEvent::StageStarted { stage } => {
            obj.str_field("event", "stage_started");
            obj.str_field("stage", stage.name());
        }
        SearchEvent::StageFinished { stage, .. } => {
            obj.str_field("event", "stage_finished");
            obj.str_field("stage", stage.name());
        }
        SearchEvent::PoolGenerated { n } => {
            obj.str_field("event", "pool_generated");
            obj.num_field("n", *n as f64);
        }
        SearchEvent::CandidateAccepted { id } => {
            obj.str_field("event", "candidate_accepted");
            obj.num_field("id", *id as f64);
        }
        SearchEvent::CandidateRejected { id, reason } => {
            obj.str_field("event", "candidate_rejected");
            obj.num_field("id", *id as f64);
            obj.str_field("reason", reason);
        }
        SearchEvent::ProbeTrained { id, epochs, failed } => {
            obj.str_field("event", "probe_trained");
            obj.num_field("id", *id as f64);
            obj.num_field("epochs", *epochs as f64);
            obj.bool_field("failed", *failed);
        }
        SearchEvent::EarlyStopVerdict { id, keep } => {
            obj.str_field("event", "early_stop_verdict");
            obj.num_field("id", *id as f64);
            obj.bool_field("keep", *keep);
        }
        SearchEvent::ScreenTrained {
            id,
            epochs,
            completed,
            failed,
        } => {
            obj.str_field("event", "screen_trained");
            obj.num_field("id", *id as f64);
            obj.num_field("epochs", *epochs as f64);
            obj.bool_field("completed", *completed);
            obj.bool_field("failed", *failed);
        }
        SearchEvent::FinalistEvaluated { id, score } => {
            obj.str_field("event", "finalist_evaluated");
            obj.num_field("id", *id as f64);
            match score {
                Some(score) => obj.num_field("score", *score),
                None => obj.null_field("score"),
            }
        }
        SearchEvent::BudgetExhausted {
            stage,
            epochs_spent,
            skipped,
        } => {
            obj.str_field("event", "budget_exhausted");
            obj.str_field("stage", stage.name());
            obj.num_field("epochs_spent", *epochs_spent as f64);
            obj.num_field("skipped", *skipped as f64);
        }
        SearchEvent::RoundStarted { round, rounds } => {
            obj.str_field("event", "round_started");
            obj.num_field("round", *round as f64);
            obj.num_field("rounds", *rounds as f64);
        }
        SearchEvent::RoundFinished {
            round,
            best_score,
            best_so_far,
            ..
        } => {
            obj.str_field("event", "round_finished");
            obj.num_field("round", *round as f64);
            obj.num_field("best_score", *best_score);
            obj.num_field("best_so_far", *best_so_far);
        }
    }
    obj.finish()
}

/// Minimal one-line JSON object builder (the workspace is
/// dependency-free; scores and reasons need real escaping).
struct JsonObject {
    out: String,
}

impl JsonObject {
    fn new() -> Self {
        Self { out: "{".into() }
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    fn str_field(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push('"');
        for c in value.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn num_field(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            self.out.push_str(&format!("{value}"));
        } else {
            // JSON has no NaN/Inf; null keeps the line parseable.
            self.out.push_str("null");
        }
    }

    fn bool_field(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }

    fn null_field(&mut self, key: &str) {
        self.key(key);
        self.out.push_str("null");
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nada_core::Stage;

    #[test]
    fn every_line_carries_event_and_label() {
        let events = [
            SearchEvent::StageStarted {
                stage: Stage::Generate,
            },
            SearchEvent::PoolGenerated { n: 4 },
            SearchEvent::CandidateRejected {
                id: 2,
                reason: "unbalanced \"quote\"".into(),
            },
            SearchEvent::FinalistEvaluated { id: 1, score: None },
            SearchEvent::RoundFinished {
                round: 0,
                best_score: -0.5,
                best_so_far: -0.5,
                elapsed: std::time::Duration::ZERO,
            },
        ];
        for event in &events {
            let line = event_json("state/fcc", event);
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"label\":\"state/fcc\""), "{line}");
            assert!(line.contains("\"event\":\""), "{line}");
            assert!(!line.contains('\n'), "{line}");
        }
    }

    #[test]
    fn schema_fields_are_stable() {
        let line = event_json(
            "arch/norway",
            &SearchEvent::ScreenTrained {
                id: 7,
                epochs: 30,
                completed: true,
                failed: false,
            },
        );
        assert_eq!(
            line,
            "{\"label\":\"arch/norway\",\"event\":\"screen_trained\",\
             \"id\":7,\"epochs\":30,\"completed\":true,\"failed\":false}"
        );
        let line = event_json("x", &SearchEvent::FinalistEvaluated { id: 0, score: None });
        assert_eq!(
            line,
            "{\"label\":\"x\",\"event\":\"finalist_evaluated\",\"id\":0,\"score\":null}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let line = event_json(
            "l",
            &SearchEvent::CandidateRejected {
                id: 0,
                reason: "line1\nline2\t\"q\" \\ end".into(),
            },
        );
        assert!(
            line.contains("line1\\nline2\\t\\\"q\\\" \\\\ end"),
            "{line}"
        );
        assert!(!line.contains('\n'), "{line}");
    }

    #[test]
    fn nonfinite_scores_become_null() {
        let line = event_json(
            "l",
            &SearchEvent::FinalistEvaluated {
                id: 0,
                score: Some(f64::NAN),
            },
        );
        assert!(line.contains("\"score\":null"), "{line}");
    }

    #[test]
    fn first_attach_truncates_then_appends() {
        let dir = std::env::temp_dir().join(format!("nada_logjson_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        std::fs::write(&path, "stale line from a previous run\n").unwrap();
        {
            let a = JsonlObserver::attach(&path, "a").unwrap();
            a.on_event(&SearchEvent::PoolGenerated { n: 1 });
            let b = JsonlObserver::attach(&path, "b").unwrap();
            b.on_event(&SearchEvent::PoolGenerated { n: 2 });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("stale"), "{text}");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"label\":\"a\""));
        assert!(lines[1].contains("\"label\":\"b\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
