//! Live search progress: a [`SearchObserver`] that narrates a session on
//! stderr.
//!
//! Attached by [`crate::experiments::common`] when a harness runs with
//! `--progress`. Stage transitions print one line each; per-candidate
//! events are folded into running counters and summarized when their
//! stage finishes, so a 3 000-candidate pool doesn't produce 3 000 lines.
//! Stdout (the report) stays untouched.

use nada_core::{SearchEvent, SearchObserver, Stage};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Prints a labelled, throttled account of one search session to stderr.
pub struct ProgressObserver {
    label: String,
    accepted: AtomicUsize,
    rejected: AtomicUsize,
    trained: AtomicUsize,
    early_stopped: AtomicUsize,
    failed: AtomicUsize,
}

impl ProgressObserver {
    /// Creates an observer whose lines are prefixed `[label]`.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            accepted: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            trained: AtomicUsize::new(0),
            early_stopped: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        }
    }

    fn line(&self, msg: &str) {
        eprintln!("[{}] {msg}", self.label);
    }
}

impl SearchObserver for ProgressObserver {
    fn on_event(&self, event: &SearchEvent) {
        match event {
            SearchEvent::StageStarted { stage } => self.line(&format!("{}...", stage.name())),
            SearchEvent::StageFinished { stage, .. } => match stage {
                Stage::Precheck => self.line(&format!(
                    "precheck done: {} accepted, {} rejected",
                    self.accepted.load(Ordering::Relaxed),
                    self.rejected.load(Ordering::Relaxed)
                )),
                Stage::Probe | Stage::Screen => self.line(&format!(
                    "{} done: {} trained, {} early-stopped, {} failed",
                    stage.name(),
                    self.trained.load(Ordering::Relaxed),
                    self.early_stopped.load(Ordering::Relaxed),
                    self.failed.load(Ordering::Relaxed)
                )),
                _ => self.line(&format!("{} done", stage.name())),
            },
            SearchEvent::PoolGenerated { n } => self.line(&format!("{n} candidates generated")),
            SearchEvent::CandidateAccepted { .. } => {
                self.accepted.fetch_add(1, Ordering::Relaxed);
            }
            SearchEvent::CandidateRejected { .. } => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
            SearchEvent::ProbeTrained { failed, .. } => {
                if *failed {
                    self.failed.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.trained.fetch_add(1, Ordering::Relaxed);
                }
            }
            SearchEvent::EarlyStopVerdict { .. } => {}
            SearchEvent::ScreenTrained {
                completed, failed, ..
            } => {
                if *failed {
                    self.failed.fetch_add(1, Ordering::Relaxed);
                } else if *completed {
                    self.trained.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.early_stopped.fetch_add(1, Ordering::Relaxed);
                }
            }
            SearchEvent::FinalistEvaluated { id, score } => match score {
                Some(s) => self.line(&format!("finalist #{id}: {s:.4}")),
                None => self.line(&format!("finalist #{id}: failed")),
            },
            SearchEvent::BudgetExhausted {
                stage,
                epochs_spent,
                skipped,
            } => self.line(&format!(
                "budget exhausted in {} after {epochs_spent} epochs ({skipped} items skipped)",
                stage.name()
            )),
            SearchEvent::RoundStarted { round, rounds } => {
                self.line(&format!("round {}/{rounds}...", round + 1))
            }
            SearchEvent::RoundFinished {
                round,
                best_score,
                best_so_far,
                ..
            } => self.line(&format!(
                "round {} done: best {best_score:.4} (best so far {best_so_far:.4})",
                round + 1
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_verdict() {
        let p = ProgressObserver::new("test");
        p.on_event(&SearchEvent::CandidateAccepted { id: 0 });
        p.on_event(&SearchEvent::CandidateRejected {
            id: 1,
            reason: "nope".into(),
        });
        p.on_event(&SearchEvent::ProbeTrained {
            id: 0,
            epochs: 5,
            failed: false,
        });
        p.on_event(&SearchEvent::ScreenTrained {
            id: 2,
            epochs: 3,
            completed: false,
            failed: false,
        });
        assert_eq!(p.accepted.load(Ordering::Relaxed), 1);
        assert_eq!(p.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(p.trained.load(Ordering::Relaxed), 1);
        assert_eq!(p.early_stopped.load(Ordering::Relaxed), 1);
    }
}
