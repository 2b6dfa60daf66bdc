//! Bridges the session's [`SearchEvent`] stream into the process-wide
//! `nada-obs` registry.
//!
//! [`MetricsObserver`] is a [`SearchObserver`] that turns stage
//! transitions into per-stage latency histograms and per-candidate
//! verdicts into counters. Attach one (typically behind an `Arc`, shared
//! across sessions) and a scrape of [`nada_obs::MetricsRegistry::global`]
//! shows what the pipeline is doing — without touching the search itself:
//! observers are observational by contract, and the workspace pins with a
//! bit-identity test that a metrics-instrumented search produces the
//! exact same `SearchOutcome` as a bare one.
//!
//! # Metric catalog
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `pipeline_stage_<stage>_duration_ns` | histogram | wall time per Generate/Precheck/Probe/Screen/Finalize stage |
//! | `pipeline_round_duration_ns` | histogram | wall time per driver feedback round |
//! | `pipeline_rounds_total` | counter | finished feedback rounds |
//! | `pipeline_pool_generated_total` | counter | candidates proposed by the LLM |
//! | `pipeline_candidates_accepted_total` | counter | candidates past both prechecks |
//! | `pipeline_candidates_rejected_total` | counter | candidates rejected by a precheck |
//! | `pipeline_probes_trained_total` | counter | probe designs fully trained |
//! | `pipeline_screen_early_stopped_total` | counter | screened designs cut by early stopping |
//! | `pipeline_screen_completed_total` | counter | screened designs trained to completion |
//! | `pipeline_screen_failed_total` | counter | screened designs whose training errored |
//! | `pipeline_finalists_evaluated_total` | counter | finalists through the full protocol |
//! | `pipeline_budget_exhausted_total` | counter | stages truncated by a budget |

use std::sync::Arc;

use crate::observer::{SearchEvent, SearchObserver};
use crate::session::Stage;

/// A [`SearchObserver`] recording every event into the global metrics
/// registry. Stateless: stage and round walls come stamped on the finish
/// events, so one instance (via `Arc`) can serve any number of
/// concurrently running sessions and drivers.
pub struct MetricsObserver {
    rounds: Arc<nada_obs::Counter>,
    round_duration: Arc<nada_obs::Histogram>,
    pool_generated: Arc<nada_obs::Counter>,
    accepted: Arc<nada_obs::Counter>,
    rejected: Arc<nada_obs::Counter>,
    probes: Arc<nada_obs::Counter>,
    screen_early_stopped: Arc<nada_obs::Counter>,
    screen_completed: Arc<nada_obs::Counter>,
    screen_failed: Arc<nada_obs::Counter>,
    finalists: Arc<nada_obs::Counter>,
    budget_exhausted: Arc<nada_obs::Counter>,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsObserver {
    /// Resolves all instrument handles up front so event handling never
    /// touches the registry mutex.
    pub fn new() -> Self {
        Self {
            rounds: nada_obs::counter("pipeline_rounds_total"),
            round_duration: nada_obs::latency_histogram("pipeline_round_duration_ns"),
            pool_generated: nada_obs::counter("pipeline_pool_generated_total"),
            accepted: nada_obs::counter("pipeline_candidates_accepted_total"),
            rejected: nada_obs::counter("pipeline_candidates_rejected_total"),
            probes: nada_obs::counter("pipeline_probes_trained_total"),
            screen_early_stopped: nada_obs::counter("pipeline_screen_early_stopped_total"),
            screen_completed: nada_obs::counter("pipeline_screen_completed_total"),
            screen_failed: nada_obs::counter("pipeline_screen_failed_total"),
            finalists: nada_obs::counter("pipeline_finalists_evaluated_total"),
            budget_exhausted: nada_obs::counter("pipeline_budget_exhausted_total"),
        }
    }

    fn stage_histogram(stage: Stage) -> Option<Arc<nada_obs::Histogram>> {
        // `Done` is a terminal marker, not a running stage — no histogram.
        let name = match stage {
            Stage::Generate => "pipeline_stage_generate_duration_ns",
            Stage::Precheck => "pipeline_stage_precheck_duration_ns",
            Stage::Probe => "pipeline_stage_probe_duration_ns",
            Stage::Screen => "pipeline_stage_screen_duration_ns",
            Stage::Finalize => "pipeline_stage_finalize_duration_ns",
            Stage::Done => return None,
        };
        Some(nada_obs::latency_histogram(name))
    }
}

impl SearchObserver for MetricsObserver {
    fn on_event(&self, event: &SearchEvent) {
        match event {
            SearchEvent::StageStarted { .. } | SearchEvent::RoundStarted { .. } => {}
            SearchEvent::StageFinished { stage, elapsed } => {
                if let Some(h) = Self::stage_histogram(*stage) {
                    h.record_duration(*elapsed);
                }
            }
            SearchEvent::PoolGenerated { n } => self.pool_generated.add(*n as u64),
            SearchEvent::CandidateAccepted { .. } => self.accepted.inc(),
            SearchEvent::CandidateRejected { .. } => self.rejected.inc(),
            SearchEvent::ProbeTrained { .. } => self.probes.inc(),
            SearchEvent::EarlyStopVerdict { .. } => {}
            SearchEvent::ScreenTrained {
                completed, failed, ..
            } => {
                if *failed {
                    self.screen_failed.inc();
                } else if *completed {
                    self.screen_completed.inc();
                } else {
                    self.screen_early_stopped.inc();
                }
            }
            SearchEvent::FinalistEvaluated { .. } => self.finalists.inc(),
            SearchEvent::BudgetExhausted { .. } => self.budget_exhausted.inc(),
            SearchEvent::RoundFinished { elapsed, .. } => {
                self.rounds.inc();
                self.round_duration.record_duration(*elapsed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn events_land_in_the_global_registry() {
        let obs = MetricsObserver::new();
        let (acc0, rej0, rounds0) = (obs.accepted.get(), obs.rejected.get(), obs.rounds.get());
        let screen_count0 =
            nada_obs::latency_histogram("pipeline_stage_screen_duration_ns").count();
        obs.on_event(&SearchEvent::StageStarted {
            stage: Stage::Screen,
        });
        obs.on_event(&SearchEvent::CandidateAccepted { id: 0 });
        obs.on_event(&SearchEvent::CandidateRejected {
            id: 1,
            reason: "no".into(),
        });
        obs.on_event(&SearchEvent::StageFinished {
            stage: Stage::Screen,
            elapsed: Duration::from_micros(5),
        });
        obs.on_event(&SearchEvent::RoundStarted {
            round: 0,
            rounds: 1,
        });
        obs.on_event(&SearchEvent::RoundFinished {
            round: 0,
            best_score: 1.0,
            best_so_far: 1.0,
            elapsed: Duration::from_millis(1),
        });
        assert_eq!(obs.accepted.get(), acc0 + 1);
        assert_eq!(obs.rejected.get(), rej0 + 1);
        assert_eq!(obs.rounds.get(), rounds0 + 1);
        assert!(
            nada_obs::latency_histogram("pipeline_stage_screen_duration_ns").count()
                > screen_count0
        );
    }

    #[test]
    fn screen_verdicts_split_three_ways() {
        let obs = MetricsObserver::new();
        let (es0, c0, f0) = (
            obs.screen_early_stopped.get(),
            obs.screen_completed.get(),
            obs.screen_failed.get(),
        );
        for (completed, failed) in [(false, false), (true, false), (false, true)] {
            obs.on_event(&SearchEvent::ScreenTrained {
                id: 0,
                epochs: 1,
                completed,
                failed,
            });
        }
        assert_eq!(obs.screen_early_stopped.get(), es0 + 1);
        assert_eq!(obs.screen_completed.get(), c0 + 1);
        assert_eq!(obs.screen_failed.get(), f0 + 1);
    }
}
