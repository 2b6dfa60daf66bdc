//! The multi-round feedback loop: [`SearchDriver`] runs
//! [`SearchSession`]s in sequence, feeding each round's ranked outcomes
//! back into the next round's prompt.
//!
//! The paper's pipeline is one-shot: generate, filter, train, rank. The
//! authors' follow-up work (arXiv:2508.16074) closes the loop — the LLM
//! sees what won and what got rejected before generating again. The
//! driver owns that loop and its cross-round state:
//!
//! * a [`HallOfFame`] of the top-K designs across all rounds,
//! * cumulative [`Budget`] spend (the epoch allowance is shared by every
//!   round, not reset),
//! * per-round [`RoundSummary`]s (plus the full [`SearchOutcome`]s for
//!   rounds run in this process).
//!
//! Every round boundary can persist a [`DriverCheckpoint`] through the
//! serde-shim text codec; [`SearchDriver::resume`] restarts a killed run
//! and — because each round's LLM is built fresh from the round index by
//! the caller's factory — the finished hall of fame is bit-identical to
//! an uninterrupted run's.

use crate::budget::Budget;
use crate::feedback::{feedback_for_round, DriverCheckpoint, HallEntry, HallOfFame, RoundSummary};
use crate::jobspec::JobSpec;
use crate::observer::{SearchEvent, SearchObserver};
use crate::pipeline::{Nada, SearchOutcome, SearchStats};
use crate::session::SearchSession;
use crate::snapshot::config_fingerprint;
use nada_llm::{DesignKind, LlmClient};
use serde::value::Error as CodecError;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Builds the LLM for one round. Taking the *round index* (not a client)
/// is what makes interrupted runs resumable: round `k` gets an
/// identically-seeded client whether or not rounds `0..k` ran in this
/// process.
pub type LlmFactory<'f> = dyn FnMut(usize) -> Box<dyn LlmClient> + 'f;

/// Default hall-of-fame size (how many winners feed the next prompt).
pub const DEFAULT_HALL_CAPACITY: usize = 3;

/// Why a multi-round run could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// A checkpoint could not be decoded, or belongs to a different
    /// pipeline/design kind.
    Checkpoint(String),
    /// The checkpoint file could not be read or written.
    Io(String),
    /// All configured rounds have already run.
    RoundsExhausted,
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            DriverError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            DriverError::RoundsExhausted => write!(f, "all configured rounds have run"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<CodecError> for DriverError {
    fn from(e: CodecError) -> Self {
        DriverError::Checkpoint(e.to_string())
    }
}

/// What a finished multi-round run produced.
#[derive(Debug, Clone)]
pub struct DriverOutcome {
    /// Per-round summaries, round order.
    pub rounds: Vec<RoundSummary>,
    /// The top-K designs across all rounds, best first.
    pub hall: Vec<HallEntry>,
    /// Cumulative spend across every round.
    pub stats: SearchStats,
    /// Full outcomes for the rounds that ran in this process (resumed
    /// runs only re-run the remaining rounds, so earlier entries are
    /// absent).
    pub outcomes: Vec<(usize, SearchOutcome)>,
}

impl DriverOutcome {
    /// The best design across all rounds.
    pub fn best(&self) -> Option<&HallEntry> {
        self.hall.first()
    }

    /// Best-so-far score after each round (non-decreasing).
    pub fn best_so_far_curve(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.best_so_far).collect()
    }
}

/// An iterative, checkpointed, feedback-driven search over one [`Nada`]
/// pipeline.
pub struct SearchDriver<'a> {
    nada: &'a Nada,
    kind: DesignKind,
    rounds: usize,
    budget: Budget,
    checkpoint_path: Option<PathBuf>,
    observers: Vec<Box<dyn SearchObserver + 'a>>,
    // Cross-round state (exactly what a checkpoint carries).
    next_round: usize,
    hall: HallOfFame,
    summaries: Vec<RoundSummary>,
    stats: SearchStats,
    outcomes: Vec<(usize, SearchOutcome)>,
    /// The original design's evaluation, computed by the first round run
    /// in this process and injected into later rounds (training it is
    /// deterministic, so recomputing every round would only burn time).
    /// Not checkpointed: a resumed run re-derives it once.
    original: Option<crate::pipeline::DesignResult>,
    /// The job contract, embedded in every checkpoint so resumes can
    /// refuse mismatched flags (see [`DriverCheckpoint::verify_spec`]).
    spec: Option<JobSpec>,
}

impl<'a> SearchDriver<'a> {
    /// A fresh driver at round 0.
    pub fn new(nada: &'a Nada, kind: DesignKind) -> Self {
        Self {
            nada,
            kind,
            rounds: 1,
            budget: Budget::unlimited(),
            checkpoint_path: None,
            observers: Vec::new(),
            next_round: 0,
            hall: HallOfFame::new(DEFAULT_HALL_CAPACITY),
            summaries: Vec::new(),
            stats: SearchStats::default(),
            outcomes: Vec::new(),
            original: None,
            spec: None,
        }
    }

    /// Sets how many rounds the driver runs (builder style). On a resumed
    /// driver this can only *extend* the run — shrinking below the rounds
    /// already completed (or the checkpoint's configured total) is
    /// ignored, so forgetting `--rounds` on resume finishes the original
    /// plan instead of silently running nothing.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = self.rounds.max(rounds).max(1);
        self
    }

    /// Sets the spending limits (builder style). The *epoch* allowance is
    /// cumulative — shared by every round, never reset — while the
    /// *candidate* cap applies per round (it bounds one round's pool
    /// size, like `n_candidates` does).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets how many winners the hall of fame retains and feeds back
    /// (builder style).
    pub fn with_hall_capacity(mut self, capacity: usize) -> Self {
        self.hall = HallOfFame::new(capacity);
        self
    }

    /// Persists a checkpoint to `path` after every round (builder style).
    pub fn with_checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Embeds the job contract in every checkpoint (builder style), so a
    /// later resume under different flags fails loudly instead of
    /// silently diverging. A resumed driver inherits the checkpoint's
    /// spec automatically.
    pub fn with_job_spec(mut self, spec: JobSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// The embedded job contract, if any.
    pub fn job_spec(&self) -> Option<&JobSpec> {
        self.spec.as_ref()
    }

    /// Registers an observer; it sees `RoundStarted`/`RoundFinished`
    /// plus every event of every round's session.
    pub fn observe(&mut self, observer: impl SearchObserver + 'a) -> &mut Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Which design kind this driver searches.
    pub fn kind(&self) -> DesignKind {
        self.kind
    }

    /// The next round the driver will run (== completed rounds).
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// How many rounds the driver is configured to run.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The hall of fame accumulated so far, best first.
    pub fn hall(&self) -> &[HallEntry] {
        self.hall.entries()
    }

    /// Cumulative spend across completed rounds.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    // ---- checkpoint / resume ----------------------------------------------

    /// Captures all cross-round state at the current round boundary.
    pub fn checkpoint(&self) -> DriverCheckpoint {
        DriverCheckpoint {
            fingerprint: config_fingerprint(self.nada),
            kind: self.kind,
            next_round: self.next_round,
            rounds: self.rounds,
            hall_capacity: self.hall.capacity(),
            budget: self.budget,
            hall: self.hall.entries().to_vec(),
            summaries: self.summaries.clone(),
            stats: self.stats,
            spec: self.spec.clone(),
        }
    }

    /// Reconstructs a driver from a checkpoint taken against the same
    /// pipeline. The configured round count and budget are restored from
    /// the checkpoint; `with_rounds`/`with_budget` can still extend or
    /// replace them afterwards.
    pub fn resume(nada: &'a Nada, checkpoint: DriverCheckpoint) -> Result<Self, DriverError> {
        let expected = config_fingerprint(nada);
        if checkpoint.fingerprint != expected {
            return Err(DriverError::Checkpoint(format!(
                "checkpoint was taken from a different pipeline \
                 (fingerprint {:#x}, this pipeline is {:#x})",
                checkpoint.fingerprint, expected
            )));
        }
        let mut driver =
            SearchDriver::new(nada, checkpoint.kind).with_hall_capacity(checkpoint.hall_capacity);
        driver.rounds = checkpoint.rounds.max(checkpoint.next_round).max(1);
        driver.budget = checkpoint.budget;
        driver.next_round = checkpoint.next_round;
        for entry in checkpoint.hall {
            driver.hall.push_sorted(entry);
        }
        driver.summaries = checkpoint.summaries;
        driver.stats = checkpoint.stats;
        driver.spec = checkpoint.spec;
        Ok(driver)
    }

    /// Reads, decodes and resumes from a checkpoint file.
    pub fn resume_from_file(nada: &'a Nada, path: impl AsRef<Path>) -> Result<Self, DriverError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| DriverError::Io(format!("read {}: {e}", path.display())))?;
        let checkpoint = DriverCheckpoint::decode(&text)?;
        Self::resume(nada, checkpoint)
    }

    // ---- rounds -----------------------------------------------------------

    /// Runs the next round: a full [`SearchSession`] with feedback from
    /// every completed round, then hall-of-fame/summary/checkpoint
    /// updates. Returns the round's summary.
    pub fn run_round(&mut self, llm: &mut dyn LlmClient) -> Result<&RoundSummary, DriverError> {
        if self.next_round >= self.rounds {
            return Err(DriverError::RoundsExhausted);
        }
        let round = self.next_round;
        let started = Instant::now();
        self.emit(&SearchEvent::RoundStarted {
            round,
            rounds: self.rounds,
        });

        // Each round spends from the shared allowance: the session sees
        // whatever epochs the previous rounds left over.
        let round_budget = Budget {
            max_candidates: self.budget.max_candidates,
            max_epochs: self
                .budget
                .max_epochs
                .map(|cap| cap.saturating_sub(self.stats.epochs_spent)),
            max_token_cost: self
                .budget
                .max_token_cost
                .map(|cap| cap.saturating_sub(self.stats.llm_tokens_spent)),
        };
        let outcome = {
            let mut session = SearchSession::new(self.nada, self.kind).with_budget(round_budget);
            if let Some(feedback) = feedback_for_round(round, &self.hall, &self.summaries) {
                session = session.with_feedback(feedback);
            }
            if let Some(original) = &self.original {
                session = session.with_original(original.clone());
            }
            for obs in &self.observers {
                session.observe(&**obs);
            }
            session
                .run(llm)
                .expect("a fresh session runs every stage exactly once")
        };
        if self.original.is_none() {
            self.original = Some(outcome.original.clone());
        }

        self.hall.absorb(round, &outcome);
        let best_so_far = match self.summaries.last() {
            Some(prev) if prev.best_so_far >= outcome.best.test_score => prev.best_so_far,
            _ => outcome.best.test_score,
        };
        let summary = RoundSummary {
            round,
            best_score: outcome.best.test_score,
            best_so_far,
            original_score: outcome.original.test_score,
            precheck: outcome.precheck,
            ranked: outcome.ranked.clone(),
            stats: outcome.stats,
        };
        self.accumulate(&outcome.stats);
        self.summaries.push(summary);
        self.outcomes.push((round, outcome));
        self.next_round += 1;
        self.emit(&SearchEvent::RoundFinished {
            round,
            best_score: self.summaries.last().expect("just pushed").best_score,
            best_so_far,
            elapsed: started.elapsed(),
        });
        self.write_checkpoint()?;
        Ok(self.summaries.last().expect("just pushed"))
    }

    /// Drives every remaining round (stopping early when the cumulative
    /// epoch budget is spent) and returns the collected outcome.
    pub fn run(&mut self, make_llm: &mut LlmFactory<'_>) -> Result<DriverOutcome, DriverError> {
        while self.next_round < self.rounds {
            // Round 0 always runs; later rounds stop once the shared
            // allowance is gone (mirroring the session's own wave rule).
            if self.next_round > 0
                && (self.budget.epochs_exhausted(self.stats.epochs_spent)
                    || self.budget.tokens_exhausted(self.stats.llm_tokens_spent))
            {
                break;
            }
            let mut llm = make_llm(self.next_round);
            self.run_round(llm.as_mut())?;
        }
        Ok(DriverOutcome {
            rounds: self.summaries.clone(),
            hall: self.hall.entries().to_vec(),
            stats: self.stats,
            outcomes: std::mem::take(&mut self.outcomes),
        })
    }

    // ---- plumbing ----------------------------------------------------------

    fn accumulate(&mut self, round: &SearchStats) {
        self.stats.early_stopped += round.early_stopped;
        self.stats.fully_trained += round.fully_trained;
        self.stats.failed += round.failed;
        self.stats.skipped += round.skipped;
        self.stats.epochs_spent += round.epochs_spent;
        self.stats.epochs_saved += round.epochs_saved;
        self.stats.llm_tokens_spent += round.llm_tokens_spent;
    }

    fn write_checkpoint(&self) -> Result<(), DriverError> {
        let Some(path) = &self.checkpoint_path else {
            return Ok(());
        };
        let text = self.checkpoint().encode();
        // Write-then-rename so a crash mid-write never corrupts the only
        // copy of the previous round's checkpoint.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)
            .map_err(|e| DriverError::Io(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| DriverError::Io(format!("rename to {}: {e}", path.display())))?;
        Ok(())
    }

    fn emit(&self, event: &SearchEvent) {
        for obs in &self.observers {
            obs.on_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NadaConfig, RunScale};
    use crate::observer::CollectingObserver;
    use nada_llm::MockLlm;
    use nada_traces::dataset::DatasetKind;

    fn tiny_nada(seed: u64) -> Nada {
        Nada::new(NadaConfig::new(DatasetKind::Fcc, RunScale::Tiny, seed))
    }

    fn llm_factory(seed: u64) -> impl FnMut(usize) -> Box<dyn LlmClient> {
        move |round| {
            Box::new(MockLlm::gpt4(
                seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ))
        }
    }

    #[test]
    fn single_round_driver_matches_a_plain_session() {
        let nada = tiny_nada(61);
        let mut factory = llm_factory(61);
        let driven = SearchDriver::new(&nada, DesignKind::State)
            .run(&mut factory)
            .unwrap();
        let mut llm = factory(0);
        let plain = nada.run_state_search(llm.as_mut());
        assert_eq!(driven.rounds.len(), 1);
        assert_eq!(
            driven.rounds[0].best_score.to_bits(),
            plain.best.test_score.to_bits()
        );
        assert_eq!(driven.rounds[0].ranked, plain.ranked);
        assert_eq!(driven.stats, plain.stats);
    }

    #[test]
    fn rounds_emit_events_and_build_a_hall() {
        let nada = tiny_nada(62);
        let collector = CollectingObserver::new();
        let mut driver = SearchDriver::new(&nada, DesignKind::State).with_rounds(2);
        driver.observe(&collector);
        let mut factory = llm_factory(62);
        let outcome = driver.run(&mut factory).unwrap();
        assert_eq!(outcome.rounds.len(), 2);
        assert!(!outcome.hall.is_empty());
        assert_eq!(
            collector.count(|e| matches!(e, SearchEvent::RoundStarted { .. })),
            2
        );
        assert_eq!(
            collector.count(|e| matches!(e, SearchEvent::RoundFinished { .. })),
            2
        );
        // Sessions ran inside: 5 stages per round.
        assert_eq!(
            collector.count(|e| matches!(e, SearchEvent::StageStarted { .. })),
            10
        );
        // Cumulative stats are the per-round sums.
        let spent: usize = outcome.rounds.iter().map(|r| r.stats.epochs_spent).sum();
        assert_eq!(outcome.stats.epochs_spent, spent);
    }

    #[test]
    fn cumulative_budget_spans_rounds() {
        let nada = tiny_nada(63);
        let mut driver = SearchDriver::new(&nada, DesignKind::State)
            .with_rounds(3)
            .with_budget(Budget::unlimited().with_max_epochs(1));
        let mut factory = llm_factory(63);
        let outcome = driver.run(&mut factory).unwrap();
        // Round 0 always runs (and overshoots the tiny allowance); later
        // rounds are skipped entirely.
        assert_eq!(outcome.rounds.len(), 1);
        assert!(outcome.stats.epochs_spent >= 1);
    }

    #[test]
    fn run_past_the_configured_rounds_errors() {
        let nada = tiny_nada(64);
        let mut driver = SearchDriver::new(&nada, DesignKind::State);
        let mut llm = MockLlm::perfect(64);
        driver.run_round(&mut llm).unwrap();
        assert!(matches!(
            driver.run_round(&mut llm),
            Err(DriverError::RoundsExhausted)
        ));
    }

    #[test]
    fn resume_restores_the_budget() {
        // Regression: the checkpoint used to drop the budget, so a
        // resumed run spent epochs its uninterrupted twin would not.
        let nada = tiny_nada(67);
        let mut factory = llm_factory(67);
        let budget = Budget::unlimited().with_max_epochs(1);
        let mut driver = SearchDriver::new(&nada, DesignKind::State)
            .with_rounds(3)
            .with_budget(budget);
        let mut llm = factory(0);
        driver.run_round(llm.as_mut()).unwrap();
        let mut resumed = SearchDriver::resume(&nada, driver.checkpoint()).unwrap();
        let outcome = resumed.run(&mut factory).unwrap();
        // The allowance was overspent in round 0, so — exactly like the
        // uninterrupted run — no further round runs.
        assert_eq!(outcome.rounds.len(), 1);
    }

    #[test]
    fn job_spec_survives_checkpoint_and_resume() {
        let nada = tiny_nada(68);
        let spec = JobSpec::new("abr", "FCC", 68);
        let driver = SearchDriver::new(&nada, DesignKind::State).with_job_spec(spec.clone());
        let ckpt = driver.checkpoint();
        assert!(ckpt.verify_spec(&spec).is_ok());
        let mut wrong = spec.clone();
        wrong.llm_model = "gpt-3.5".into();
        assert!(ckpt.verify_spec(&wrong).is_err());
        let resumed = SearchDriver::resume(&nada, ckpt).unwrap();
        assert_eq!(resumed.job_spec(), Some(&spec));
    }

    #[test]
    fn resume_rejects_a_different_pipeline() {
        let nada = tiny_nada(65);
        let driver = SearchDriver::new(&nada, DesignKind::State);
        let ckpt = driver.checkpoint();
        let other = tiny_nada(66);
        let err = match SearchDriver::resume(&other, ckpt) {
            Ok(_) => panic!("resume against a different pipeline must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("different pipeline"));
    }
}
