//! Search observability: a typed event stream out of a running session.
//!
//! A [`SearchObserver`] registered on a [`crate::session::SearchSession`]
//! sees every stage transition, per-candidate verdict and budget cut as it
//! happens — this is what drives `nada-bench`'s live progress output, and
//! what a future dashboard or structured logger would hook into.
//!
//! Events are *observational only*: observers cannot influence the search,
//! and the search's results never depend on whether anyone is listening.
//! Per-candidate events are emitted from worker threads while a stage fans
//! out, so their interleaving across candidates is nondeterministic;
//! counts and per-candidate payloads are not. Stage-transition events are
//! always emitted from the session's own thread, in stage order.
//!
//! Finish events carry their own wall time (`elapsed`), stamped by the
//! session or driver that ran the stage or round, so an observer shared by
//! concurrently running searches needs no per-search timing state.

use crate::session::Stage;
use std::sync::Mutex;
use std::time::Duration;

/// One thing that happened inside a search session.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchEvent {
    /// A stage began.
    StageStarted {
        /// The stage.
        stage: Stage,
    },
    /// A stage finished.
    StageFinished {
        /// The stage.
        stage: Stage,
        /// Wall time from the stage's start to its finish.
        elapsed: Duration,
    },
    /// The generation stage produced a candidate pool.
    PoolGenerated {
        /// Number of candidates generated.
        n: usize,
    },
    /// A candidate passed both pre-checks.
    CandidateAccepted {
        /// Candidate id.
        id: usize,
    },
    /// A candidate was rejected by a pre-check.
    CandidateRejected {
        /// Candidate id.
        id: usize,
        /// Human-readable rejection reason.
        reason: String,
    },
    /// A probe design finished (or failed) full training.
    ProbeTrained {
        /// Candidate id.
        id: usize,
        /// Training epochs the probe actually ran.
        epochs: usize,
        /// True when training errored mid-run.
        failed: bool,
    },
    /// The early-stopping classifier ruled on a screened design.
    EarlyStopVerdict {
        /// Candidate id.
        id: usize,
        /// True to keep training, false to stop at the early phase.
        keep: bool,
    },
    /// A screened design finished its training (early-stopped or full).
    ScreenTrained {
        /// Candidate id.
        id: usize,
        /// Training epochs the design actually ran.
        epochs: usize,
        /// True when it trained to completion (survived early stopping).
        completed: bool,
        /// True when training errored mid-run.
        failed: bool,
    },
    /// A finalist finished the full §3.1 protocol.
    FinalistEvaluated {
        /// Candidate id.
        id: usize,
        /// Final test score (`None` when training errored).
        score: Option<f64>,
    },
    /// The budget ran out mid-stage; the remainder of the stage was
    /// skipped.
    BudgetExhausted {
        /// The stage that was truncated.
        stage: Stage,
        /// Training epochs spent when the budget cut in.
        epochs_spent: usize,
        /// Work items (candidates or finalists) left unprocessed.
        skipped: usize,
    },
    /// A [`crate::driver::SearchDriver`] began a feedback round.
    RoundStarted {
        /// Zero-based round index.
        round: usize,
        /// Total rounds the driver is configured to run.
        rounds: usize,
    },
    /// A driver round finished (its session finalized and the hall of fame
    /// was updated).
    RoundFinished {
        /// Zero-based round index.
        round: usize,
        /// This round's best full-protocol score.
        best_score: f64,
        /// The best score across all rounds so far (non-decreasing).
        best_so_far: f64,
        /// Wall time from the round's start to its finish.
        elapsed: Duration,
    },
}

/// A sink for [`SearchEvent`]s.
///
/// Implementations must be `Sync`: per-candidate events arrive
/// concurrently from the training workers. Use interior mutability
/// (atomics or a `Mutex`) to accumulate state.
pub trait SearchObserver: Sync {
    /// Called for every event the session emits.
    fn on_event(&self, event: &SearchEvent);
}

/// Shared observers: `session.observe(...)`/`driver.observe(...)` take
/// ownership, so an observer that must outlive one search (a metrics
/// bridge, a JSONL sink) is attached as an `Arc` clone.
impl<T: SearchObserver + Send + ?Sized> SearchObserver for std::sync::Arc<T> {
    fn on_event(&self, event: &SearchEvent) {
        (**self).on_event(event)
    }
}

/// Observer that invokes a closure per event.
pub struct FnObserver<F: Fn(&SearchEvent) + Sync>(pub F);

impl<F: Fn(&SearchEvent) + Sync> SearchObserver for FnObserver<F> {
    fn on_event(&self, event: &SearchEvent) {
        (self.0)(event)
    }
}

/// Observer that records every event (tests, debugging, post-hoc
/// analysis).
#[derive(Default)]
pub struct CollectingObserver {
    events: Mutex<Vec<SearchEvent>>,
}

impl CollectingObserver {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events seen so far, in arrival order.
    pub fn events(&self) -> Vec<SearchEvent> {
        self.events.lock().expect("observer lock").clone()
    }

    /// Number of events matching a predicate.
    pub fn count(&self, pred: impl Fn(&SearchEvent) -> bool) -> usize {
        self.events
            .lock()
            .expect("observer lock")
            .iter()
            .filter(|e| pred(e))
            .count()
    }
}

impl SearchObserver for CollectingObserver {
    fn on_event(&self, event: &SearchEvent) {
        self.events
            .lock()
            .expect("observer lock")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_records_in_order() {
        let c = CollectingObserver::new();
        c.on_event(&SearchEvent::StageStarted {
            stage: Stage::Generate,
        });
        c.on_event(&SearchEvent::PoolGenerated { n: 3 });
        assert_eq!(c.events().len(), 2);
        assert_eq!(
            c.count(|e| matches!(e, SearchEvent::PoolGenerated { .. })),
            1
        );
    }

    #[test]
    fn fn_observer_forwards() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        let obs = FnObserver(|_e: &SearchEvent| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        obs.on_event(&SearchEvent::StageFinished {
            stage: Stage::Probe,
            elapsed: Duration::ZERO,
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}
