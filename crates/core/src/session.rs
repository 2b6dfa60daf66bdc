//! The staged search session: Figure 1 as a typed state machine.
//!
//! [`SearchSession`] replaces the old one-shot search monolith with five
//! individually-invocable stages over shared cross-stage state:
//!
//! ```text
//! Generate ──► Precheck ──► Probe ──► Screen ──► Finalize ──► Done
//! ```
//!
//! * **Generate** asks the LLM for the candidate pool (§2.1 prompts).
//! * **Precheck** runs the compilation + normalization checks in parallel
//!   and compiles survivors against the workload (§2.2).
//! * **Probe** fully trains a pool prefix to fit the early-stopping model.
//! * **Screen** trains everyone else through the early phase and lets the
//!   Reward-Only classifier decide who continues (§2.2).
//! * **Finalize** runs the full §3.1 protocol on the original design and
//!   the top-ranked survivors, and assembles the
//!   [`SearchOutcome`].
//!
//! Two things are first-class on the session:
//!
//! * **Observation** — every stage transition (stamped with its wall
//!   time), per-candidate verdict and budget cut is emitted to registered
//!   [`SearchObserver`]s (see [`crate::observer`]).
//! * **Budgets** — a [`Budget`] truncates the search gracefully *mid*-stage
//!   at deterministic wave boundaries, instead of only at configured pool
//!   sizes (see [`crate::budget`]).
//!
//! A session is not resumable on its own: interrupted searches restart at
//! a round boundary from a [`crate::feedback::DriverCheckpoint`] (see
//! [`crate::driver`]).
//!
//! The legacy entry points `Nada::run_state_search` /
//! `Nada::run_arch_search` are thin wrappers over this API.

use crate::budget::Budget;
use crate::candidate::{Candidate, CompiledDesign};
use crate::observer::{SearchEvent, SearchObserver};
use crate::pipeline::{DesignResult, Nada, PrecheckStats, SearchOutcome, SearchStats};
use crate::score::smoothed_score;
use crate::train::{DesignTrainer, TrainOutcome, TrainRunConfig};
use nada_dsl::CompiledState;
use nada_earlystop::classifiers::{Classifier, DesignSample, FitConfig, RewardCnnClassifier};
use nada_exec::pool_map_indexed;
use nada_llm::{DesignKind, FeedbackContext, LlmClient};
use nada_nn::ArchConfig;
use std::time::Instant;

/// One prechecked pool entry: the candidate plus the `(state, arch)` pair
/// it trains as (the non-searched component is the workload's seed).
pub type PoolEntry = (Candidate, CompiledState, ArchConfig);

/// Designs trained between budget checks when an epoch budget is set.
/// A fixed constant (not the machine's worker count) so that *which*
/// candidates a budgeted search trains is machine-independent.
pub const BUDGET_WAVE: usize = 8;

/// Number of top-ranked designs evaluated under the full §3.1 protocol.
pub const N_FINALISTS: usize = 3;

/// The session's position in the staged pipeline. Ordering follows
/// execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Generate the candidate pool from the LLM.
    Generate,
    /// Compilation + normalization checks.
    Precheck,
    /// Fully train a pool prefix to fit the early-stopping model.
    Probe,
    /// Early-stopped batch training of the remaining pool.
    Screen,
    /// Full protocol on the finalists; rank and assemble the outcome.
    Finalize,
    /// The search has produced its [`SearchOutcome`].
    Done,
}

impl Stage {
    /// Every stage, in execution order. Exhaustive by construction: tests
    /// iterate this to prove `from_name(name())` round-trips for every
    /// variant, so adding a stage without wiring its name is caught.
    pub const ALL: [Stage; 6] = [
        Stage::Generate,
        Stage::Precheck,
        Stage::Probe,
        Stage::Screen,
        Stage::Finalize,
        Stage::Done,
    ];

    /// Stable lowercase name (used by logs and reports).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Generate => "generate",
            Stage::Precheck => "precheck",
            Stage::Probe => "probe",
            Stage::Screen => "screen",
            Stage::Finalize => "finalize",
            Stage::Done => "done",
        }
    }

    /// Inverse of [`Stage::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "generate" => Some(Stage::Generate),
            "precheck" => Some(Stage::Precheck),
            "probe" => Some(Stage::Probe),
            "screen" => Some(Stage::Screen),
            "finalize" => Some(Stage::Finalize),
            "done" => Some(Stage::Done),
            _ => None,
        }
    }
}

/// A stage was invoked out of order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrongStage {
    /// The stage the session is actually at.
    pub found: Stage,
    /// The stage the caller tried to run.
    pub requested: Stage,
}

impl std::fmt::Display for WrongStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Both stages are always named — a caller debugging an already-
        // finalized session still needs to see what it tried to run.
        write!(
            f,
            "session is at stage `{}`{}, cannot run `{}`",
            self.found.name(),
            if self.found == Stage::Done {
                " (already finalized)"
            } else {
                ""
            },
            self.requested.name()
        )
    }
}

impl std::error::Error for WrongStage {}

/// The generated candidate pool of a session, as captured by
/// [`SearchSession::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The generated candidate pool, in generation order.
    pub candidates: Vec<Candidate>,
}

/// An observable, budgeted search over one [`Nada`] pipeline.
pub struct SearchSession<'a> {
    nada: &'a Nada,
    kind: DesignKind,
    budget: Budget,
    /// Fed-back outcomes of earlier rounds, applied to the Generate
    /// prompt.
    feedback: Option<FeedbackContext>,
    /// Pre-computed full-protocol evaluation of the original design.
    /// Training the original is deterministic, so multi-round drivers
    /// inject round 0's result instead of re-training every round.
    original: Option<DesignResult>,
    observers: Vec<Box<dyn SearchObserver + 'a>>,
    stage: Stage,
    candidates: Vec<Candidate>,
    precheck_stats: Option<PrecheckStats>,
    /// Compiled survivors of the pre-checks.
    pool: Vec<PoolEntry>,
    probes: Vec<(usize, Option<TrainOutcome>)>,
    screened: Vec<(usize, Option<TrainOutcome>, bool)>,
    stats: SearchStats,
}

impl<'a> SearchSession<'a> {
    /// A fresh session at the Generate stage.
    pub fn new(nada: &'a Nada, kind: DesignKind) -> Self {
        Self {
            nada,
            kind,
            budget: Budget::unlimited(),
            feedback: None,
            original: None,
            observers: Vec::new(),
            stage: Stage::Generate,
            candidates: Vec::new(),
            precheck_stats: None,
            pool: Vec::new(),
            probes: Vec::new(),
            screened: Vec::new(),
            stats: SearchStats::default(),
        }
    }

    /// Sets the session's spending limits (builder style).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches ranked outcomes of earlier search rounds (builder style).
    /// The Generate stage renders them into the LLM prompt via
    /// [`nada_llm::Prompt::with_feedback`]; see [`crate::driver`] for the
    /// loop that produces them.
    pub fn with_feedback(mut self, feedback: FeedbackContext) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Supplies a pre-computed evaluation of the original design (builder
    /// style). Must come from an identically-configured pipeline; the
    /// original's training is deterministic, so this is purely a
    /// recomputation saving (the driver reuses round 0's result instead
    /// of re-training the seed design every round).
    pub fn with_original(mut self, original: DesignResult) -> Self {
        self.original = Some(original);
        self
    }

    /// Registers an observer for the session's event stream. Pass by value
    /// to hand ownership over, or by reference (`&observer`) to inspect
    /// the observer after the search.
    pub fn observe(&mut self, observer: impl SearchObserver + 'a) -> &mut Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// The stage the session will run next.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The session's spending limits.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Spend bookkeeping accumulated so far.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Pre-check statistics, once the Precheck stage has run.
    pub fn precheck_stats(&self) -> Option<PrecheckStats> {
        self.precheck_stats
    }

    /// Which design kind this session searches.
    pub fn kind(&self) -> DesignKind {
        self.kind
    }

    // ---- stages ------------------------------------------------------------

    /// **Generate**: ask the LLM for the candidate pool. The candidate
    /// budget caps the LLM batch itself (via
    /// [`LlmClient::generate_batch_while`]), not just downstream use.
    /// Returns the number of candidates generated.
    pub fn generate(&mut self, llm: &mut dyn LlmClient) -> Result<usize, WrongStage> {
        self.expect(Stage::Generate)?;
        let started = self.start_stage(Stage::Generate);
        let want = self.nada.config().n_candidates;
        let cap = self.budget.max_candidates.unwrap_or(usize::MAX);
        let mut prompt = self.nada.prompt_for(self.kind);
        if let Some(feedback) = &self.feedback {
            prompt = prompt.with_feedback(feedback.clone());
        }
        let kind = self.kind;
        // Token spend is measured as a delta over the process-wide meter:
        // live HTTP backends record `usage` there, offline backends bill
        // zero. The hook gates *wave issuance* — every completion of an
        // already-issued wave is kept, so paid work is never discarded.
        let meter = nada_llm::global_token_meter();
        let tokens_start = meter.snapshot().total();
        let budget = self.budget;
        let completions = llm.generate_batch_while(&prompt, want, &mut |made| {
            let spent = meter.snapshot().total().saturating_sub(tokens_start);
            made < cap && !budget.tokens_exhausted(spent)
        });
        self.stats.llm_tokens_spent += meter.snapshot().total().saturating_sub(tokens_start);
        self.candidates = completions
            .into_iter()
            .enumerate()
            .map(|(id, c)| Candidate {
                id,
                kind,
                code: c.code,
                reasoning: c.reasoning,
            })
            .collect();
        let n = self.candidates.len();
        if n < want {
            self.emit(&SearchEvent::BudgetExhausted {
                stage: Stage::Generate,
                epochs_spent: self.stats.epochs_spent,
                skipped: want - n,
            });
        }
        self.emit(&SearchEvent::PoolGenerated { n });
        self.finish_stage(Stage::Generate, Stage::Precheck, started);
        Ok(n)
    }

    /// **Precheck**: run both §2.2 checks over the pool (in parallel) and
    /// compile survivors against the workload. Returns Table 2 statistics.
    pub fn precheck(&mut self) -> Result<PrecheckStats, WrongStage> {
        self.expect(Stage::Precheck)?;
        let started = self.start_stage(Stage::Precheck);
        let results = self.nada.precheck_each(&self.candidates);
        let mut stats = PrecheckStats {
            total: self.candidates.len(),
            compilable: 0,
            normalized: 0,
        };
        let seed_state = self.nada.workload().seed_state();
        let seed_arch = self.nada.workload().seed_arch();
        let mut pool: Vec<PoolEntry> = Vec::new();
        for (cand, result) in self.candidates.iter().zip(results) {
            stats.record(&result);
            match result {
                Ok(design) => {
                    match design {
                        CompiledDesign::State(s) => {
                            pool.push((cand.clone(), *s, seed_arch.clone()))
                        }
                        CompiledDesign::Arch(a) => pool.push((cand.clone(), seed_state.clone(), a)),
                    }
                    self.emit(&SearchEvent::CandidateAccepted { id: cand.id });
                }
                Err(reason) => {
                    self.emit(&SearchEvent::CandidateRejected {
                        id: cand.id,
                        reason: reason.to_string(),
                    });
                }
            }
        }
        self.pool = pool;
        self.precheck_stats = Some(stats);
        self.finish_stage(Stage::Precheck, Stage::Probe, started);
        Ok(stats)
    }

    /// Number of pool entries probed (trained fully up-front).
    fn n_probe(&self) -> usize {
        self.nada.config().n_probe.min(self.pool.len())
    }

    /// Per-design training seed (identical to the pre-session pipeline, so
    /// wrapper results are unchanged).
    fn design_seed(&self, id: usize) -> u64 {
        self.nada.config().seed.wrapping_add(7000 + id as u64)
    }

    /// The source text that identifies a candidate's *state* for score-cache
    /// keys: the candidate's own program for state searches, the workload's
    /// seed state for architecture searches (where the candidate varies the
    /// architecture instead).
    fn state_identity<'c>(&'c self, cand: &'c Candidate) -> &'c str {
        match cand.kind {
            DesignKind::State => &cand.code,
            DesignKind::Architecture => self.nada.workload().seed_state_source(),
        }
    }

    /// The wave length for budgeted stages: a fixed, machine-independent
    /// chunk when an epoch budget is set, the whole remainder otherwise.
    fn wave_len(&self, remaining: usize) -> usize {
        if self.budget.max_epochs.is_some() {
            BUDGET_WAVE.min(remaining)
        } else {
            remaining
        }
    }

    /// **Probe**: fully train the pool prefix to fit the early-stopping
    /// model. The first wave always runs — even over budget — so the
    /// search can always rank at least one design; later waves stop when
    /// the epoch budget is exhausted.
    pub fn probe(&mut self) -> Result<(), WrongStage> {
        self.expect(Stage::Probe)?;
        let started = self.start_stage(Stage::Probe);
        let probes: Vec<PoolEntry> = self.pool[..self.n_probe()].to_vec();
        let run_cfg = TrainRunConfig::from(self.nada.config());
        let mut idx = 0;
        while idx < probes.len() {
            if idx > 0 && self.budget.epochs_exhausted(self.stats.epochs_spent) {
                let skipped = probes.len() - idx;
                self.stats.skipped += skipped;
                self.emit(&SearchEvent::BudgetExhausted {
                    stage: Stage::Probe,
                    epochs_spent: self.stats.epochs_spent,
                    skipped,
                });
                break;
            }
            let wave = &probes[idx..idx + self.wave_len(probes.len() - idx)];
            idx += wave.len();
            let this = &*self;
            let results: Vec<(usize, Option<TrainOutcome>)> = pool_map_indexed(wave.len(), |w| {
                let (cand, state, arch) = &wave[w];
                let out = this
                    .nada
                    .train_design_probe(
                        this.state_identity(cand),
                        state,
                        arch,
                        &run_cfg,
                        this.design_seed(cand.id),
                    )
                    .ok();
                this.emit(&SearchEvent::ProbeTrained {
                    id: cand.id,
                    epochs: out.as_ref().map_or(0, |o| o.reward_curve.len()),
                    failed: out.is_none(),
                });
                (cand.id, out)
            });
            for (_, out) in &results {
                match out {
                    Some(o) => {
                        self.stats.fully_trained += 1;
                        self.stats.epochs_spent += o.reward_curve.len();
                    }
                    None => self.stats.failed += 1,
                }
            }
            self.probes.extend(results);
        }
        self.finish_stage(Stage::Probe, Stage::Screen, started);
        Ok(())
    }

    /// Fits the Reward-Only classifier on the probe outcomes (§2.2), when
    /// enough probes trained cleanly. Deterministic in the session seed.
    fn fit_classifier(&self) -> Option<RewardCnnClassifier> {
        let cfg = self.nada.config();
        let samples: Vec<DesignSample> = self
            .probes
            .iter()
            .filter_map(|(id, o)| o.as_ref().map(|o| (id, o)))
            .map(|(id, o)| DesignSample {
                reward_curve: o.early_curve(cfg.early_epochs).to_vec(),
                code: self.candidate_code(*id),
            })
            .collect();
        let finals: Vec<f64> = self
            .probes
            .iter()
            .filter_map(|(_, o)| o.as_ref())
            .map(|o| smoothed_score(&o.checkpoints))
            .collect();
        if samples.len() < 4 {
            return None;
        }
        let fit = FitConfig {
            // Small pools: "top 1 %" degenerates to the single best probe;
            // keep the paper's 20 % smoothing.
            top_fraction: 0.01,
            seed: cfg.seed,
            ..FitConfig::default()
        };
        let mut clf = RewardCnnClassifier::new(&fit);
        clf.fit(&samples, &finals, &fit);
        Some(clf)
    }

    /// The source code of a pool candidate (for the text-aware
    /// early-stopping classifier variants).
    fn candidate_code(&self, id: usize) -> String {
        self.pool
            .iter()
            .find(|(c, _, _)| c.id == id)
            .map(|(c, _, _)| c.code.clone())
            .unwrap_or_default()
    }

    /// **Screen**: early-stopped batch training of the non-probe pool.
    /// Every design trains through the early phase; the classifier decides
    /// who trains to completion. Stops at wave boundaries when the epoch
    /// budget runs out.
    pub fn screen(&mut self) -> Result<(), WrongStage> {
        self.expect(Stage::Screen)?;
        let started = self.start_stage(Stage::Screen);
        let rest: Vec<PoolEntry> = self.pool[self.n_probe()..].to_vec();
        let run_cfg = TrainRunConfig::from(self.nada.config());
        let early_epochs = self.nada.config().early_epochs;
        let train_epochs = self.nada.config().train_epochs;
        let classifier = self.fit_classifier();
        let mut idx = 0;
        while idx < rest.len() {
            if self.budget.epochs_exhausted(self.stats.epochs_spent) {
                let skipped = rest.len() - idx;
                self.stats.skipped += skipped;
                self.emit(&SearchEvent::BudgetExhausted {
                    stage: Stage::Screen,
                    epochs_spent: self.stats.epochs_spent,
                    skipped,
                });
                break;
            }
            let wave = &rest[idx..idx + self.wave_len(rest.len() - idx)];
            idx += wave.len();
            let this = &*self;
            let classifier = &classifier;
            let results: Vec<(usize, Option<TrainOutcome>, bool)> =
                pool_map_indexed(wave.len(), |w| {
                    let (cand, state, arch) = &wave[w];
                    let mut session = DesignTrainer::new(
                        this.nada.workload(),
                        state,
                        arch,
                        this.nada.dataset(),
                        run_cfg,
                        this.design_seed(cand.id),
                    );
                    if session.run_until(early_epochs).is_err() {
                        this.emit(&SearchEvent::ScreenTrained {
                            id: cand.id,
                            epochs: 0,
                            completed: false,
                            failed: true,
                        });
                        return (cand.id, None, false);
                    }
                    let keep = match classifier {
                        Some(clf) => {
                            let mut clf = clf.clone();
                            clf.keep(&DesignSample {
                                reward_curve: session.outcome().reward_curve.clone(),
                                code: cand.code.clone(),
                            })
                        }
                        None => true,
                    };
                    this.emit(&SearchEvent::EarlyStopVerdict { id: cand.id, keep });
                    if !keep {
                        let out = session.into_outcome();
                        this.emit(&SearchEvent::ScreenTrained {
                            id: cand.id,
                            epochs: out.reward_curve.len(),
                            completed: false,
                            failed: false,
                        });
                        return (cand.id, Some(out), false);
                    }
                    match session.run_until(train_epochs) {
                        Ok(()) => {
                            let out = session.into_outcome();
                            this.emit(&SearchEvent::ScreenTrained {
                                id: cand.id,
                                epochs: out.reward_curve.len(),
                                completed: true,
                                failed: false,
                            });
                            (cand.id, Some(out), true)
                        }
                        Err(_) => {
                            this.emit(&SearchEvent::ScreenTrained {
                                id: cand.id,
                                epochs: 0,
                                completed: false,
                                failed: true,
                            });
                            (cand.id, None, false)
                        }
                    }
                });
            for (_, out, completed) in &results {
                match (out, completed) {
                    (Some(o), true) => {
                        self.stats.fully_trained += 1;
                        self.stats.epochs_spent += o.reward_curve.len();
                    }
                    (Some(o), false) => {
                        self.stats.early_stopped += 1;
                        self.stats.epochs_spent += o.reward_curve.len();
                        self.stats.epochs_saved += train_epochs - o.reward_curve.len();
                    }
                    (None, _) => self.stats.failed += 1,
                }
            }
            self.screened.extend(results);
        }
        self.finish_stage(Stage::Screen, Stage::Finalize, started);
        Ok(())
    }

    /// Screening-phase ranking: every completed design by smoothed score,
    /// best first, ties broken by candidate id.
    fn rank(&self) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = self
            .probes
            .iter()
            .filter_map(|(id, o)| o.as_ref().map(|o| (*id, smoothed_score(&o.checkpoints))))
            .chain(self.screened.iter().filter_map(|(id, o, completed)| {
                if *completed {
                    o.as_ref().map(|o| (*id, smoothed_score(&o.checkpoints)))
                } else {
                    None
                }
            }))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite scores")
                .then(a.0.cmp(&b.0))
        });
        ranked
    }

    /// **Finalize**: full §3.1 protocol for the original design and the
    /// top-ranked survivors, then rank and assemble the outcome. Finalists
    /// are skipped (best falls back to the strongest evaluated design, or
    /// the original) once the epoch budget is exhausted.
    pub fn finalize(&mut self) -> Result<SearchOutcome, WrongStage> {
        self.expect(Stage::Finalize)?;
        let started = self.start_stage(Stage::Finalize);
        let original = self
            .original
            .clone()
            .unwrap_or_else(|| self.nada.train_original());
        let ranked = self.rank();
        let top_k = N_FINALISTS.min(ranked.len());
        let finalists: Vec<PoolEntry> = ranked[..top_k]
            .iter()
            .filter_map(|(id, _)| self.pool.iter().find(|(c, _, _)| c.id == *id).cloned())
            .collect();

        let finals: Vec<Option<DesignResult>> = if self.budget.max_epochs.is_some() {
            // Budgeted: evaluate one finalist at a time (each already fans
            // out n_seeds sessions) so the budget cuts between finalists.
            let mut finals = Vec::new();
            for (i, entry) in finalists.into_iter().enumerate() {
                if self.budget.epochs_exhausted(self.stats.epochs_spent) {
                    let skipped = top_k - i;
                    self.stats.skipped += skipped;
                    self.emit(&SearchEvent::BudgetExhausted {
                        stage: Stage::Finalize,
                        epochs_spent: self.stats.epochs_spent,
                        skipped,
                    });
                    break;
                }
                let result = self.evaluate_finalist(&entry);
                if let Some(r) = &result {
                    self.stats.epochs_spent += finalist_epochs(r);
                }
                finals.push(result);
            }
            finals
        } else {
            let this = &*self;
            // Nested fan-out: each finalist evaluation itself pool-maps its
            // n_seeds sessions; the shared pool interleaves both levels.
            let finals =
                pool_map_indexed(finalists.len(), |i| this.evaluate_finalist(&finalists[i]));
            for r in finals.iter().flatten() {
                self.stats.epochs_spent += finalist_epochs(r);
            }
            finals
        };

        // Keep every evaluated finalist (screening-rank order) on the
        // outcome — the feedback loop's hall of fame is built from them.
        let finalists: Vec<DesignResult> = finals.into_iter().flatten().collect();
        let best = finalists
            .iter()
            .cloned()
            .max_by(|a, b| {
                a.test_score
                    .partial_cmp(&b.test_score)
                    .expect("finite scores")
            })
            .unwrap_or_else(|| original.clone());

        let outcome = SearchOutcome {
            kind: self.kind,
            precheck: self.precheck_stats.unwrap_or(PrecheckStats {
                total: 0,
                compilable: 0,
                normalized: 0,
            }),
            original,
            best,
            finalists,
            ranked,
            stats: self.stats,
        };
        self.finish_stage(Stage::Finalize, Stage::Done, started);
        Ok(outcome)
    }

    /// Full-protocol evaluation of one finalist, with its event.
    fn evaluate_finalist(&self, (cand, state, arch): &PoolEntry) -> Option<DesignResult> {
        let result = self
            .nada
            .evaluate_design_full_keyed(self.state_identity(cand), state, arch)
            .ok()
            .map(|(sessions, score)| DesignResult {
                code: cand.code.clone(),
                candidate: Some(cand.clone()),
                sessions,
                test_score: score,
            });
        self.emit(&SearchEvent::FinalistEvaluated {
            id: cand.id,
            score: result.as_ref().map(|r| r.test_score),
        });
        result
    }

    /// Drives the session from its current stage to completion.
    pub fn run(&mut self, llm: &mut dyn LlmClient) -> Result<SearchOutcome, WrongStage> {
        loop {
            match self.stage {
                Stage::Generate => {
                    self.generate(llm)?;
                }
                Stage::Precheck => {
                    self.precheck()?;
                }
                Stage::Probe => self.probe()?,
                Stage::Screen => self.screen()?,
                Stage::Finalize => return self.finalize(),
                Stage::Done => {
                    return Err(WrongStage {
                        found: Stage::Done,
                        requested: Stage::Done,
                    })
                }
            }
        }
    }

    /// The generated candidate pool so far (empty before Generate).
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            candidates: self.candidates.clone(),
        }
    }

    // ---- plumbing ----------------------------------------------------------

    fn expect(&self, requested: Stage) -> Result<(), WrongStage> {
        if self.stage == requested {
            Ok(())
        } else {
            Err(WrongStage {
                found: self.stage,
                requested,
            })
        }
    }

    /// Announces `stage` and returns its start instant, which the
    /// matching [`Self::finish_stage`] turns into the stage's wall time.
    fn start_stage(&self, stage: Stage) -> Instant {
        let started = Instant::now();
        self.emit(&SearchEvent::StageStarted { stage });
        started
    }

    fn finish_stage(&mut self, finished: Stage, next: Stage, started: Instant) {
        self.stage = next;
        self.emit(&SearchEvent::StageFinished {
            stage: finished,
            elapsed: started.elapsed(),
        });
    }

    fn emit(&self, event: &SearchEvent) {
        for obs in &self.observers {
            obs.on_event(event);
        }
    }
}

/// Training epochs one finalist evaluation actually spent (the sum of its
/// per-seed session curves — not the configured `n_seeds × train_epochs`).
fn finalist_epochs(result: &DesignResult) -> usize {
    result
        .sessions
        .iter()
        .map(|s| s.reward_curve.len())
        .sum::<usize>()
}

impl<T: SearchObserver + ?Sized> SearchObserver for &T {
    fn on_event(&self, event: &SearchEvent) {
        (**self).on_event(event)
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

    #[test]
    fn stages_run_in_order_and_reject_disorder() {
        let nada = tiny_nada(21);
        let mut llm = MockLlm::perfect(21);
        let mut session = SearchSession::new(&nada, DesignKind::State);
        assert_eq!(session.stage(), Stage::Generate);
        // Out-of-order invocations are typed errors, not panics.
        assert!(session.precheck().is_err());
        assert!(session.probe().is_err());
        assert!(session.finalize().is_err());

        let n = session.generate(&mut llm).unwrap();
        assert_eq!(n, nada.config().n_candidates);
        assert!(session.generate(&mut llm).is_err());
        let stats = session.precheck().unwrap();
        assert_eq!(stats.total, n);
        session.probe().unwrap();
        session.screen().unwrap();
        let outcome = session.finalize().unwrap();
        assert_eq!(session.stage(), Stage::Done);
        assert!(outcome.best.test_score.is_finite());
        assert!(!outcome.ranked.is_empty());
    }

    #[test]
    fn session_matches_the_legacy_wrapper_bit_for_bit() {
        let nada = tiny_nada(22);
        let mut llm_a = MockLlm::gpt4(22);
        let wrapped = nada.run_state_search(&mut llm_a);

        let mut llm_b = MockLlm::gpt4(22);
        let mut session = SearchSession::new(&nada, DesignKind::State);
        let staged = session.run(&mut llm_b).unwrap();

        assert_eq!(wrapped.ranked, staged.ranked);
        assert_eq!(
            wrapped.best.test_score.to_bits(),
            staged.best.test_score.to_bits()
        );
        assert_eq!(
            wrapped.original.test_score.to_bits(),
            staged.original.test_score.to_bits()
        );
        assert_eq!(wrapped.precheck, staged.precheck);
        assert_eq!(wrapped.stats, staged.stats);
    }

    #[test]
    fn observers_see_the_whole_lifecycle() {
        let nada = tiny_nada(23);
        let mut llm = MockLlm::perfect(23);
        let collector = CollectingObserver::new();
        let mut session = SearchSession::new(&nada, DesignKind::State);
        session.observe(&collector);
        let outcome = session.run(&mut llm).unwrap();

        // Five stages, started and finished.
        assert_eq!(
            collector.count(|e| matches!(e, SearchEvent::StageStarted { .. })),
            5
        );
        assert_eq!(
            collector.count(|e| matches!(e, SearchEvent::StageFinished { .. })),
            5
        );
        // Every candidate got an accept/reject verdict.
        assert_eq!(
            collector.count(|e| matches!(
                e,
                SearchEvent::CandidateAccepted { .. } | SearchEvent::CandidateRejected { .. }
            )),
            outcome.precheck.total
        );
        // Early-stop verdicts cover the screened designs that reached the
        // classifier.
        let verdicts = collector.count(|e| matches!(e, SearchEvent::EarlyStopVerdict { .. }));
        assert!(verdicts <= outcome.precheck.normalized);
        // Finalists produced evaluation events.
        assert!(collector.count(|e| matches!(e, SearchEvent::FinalistEvaluated { .. })) >= 1);
    }

    #[test]
    fn candidate_budget_caps_the_llm_batch_itself() {
        let nada = tiny_nada(24);
        let mut llm = MockLlm::perfect(24);
        let mut session = SearchSession::new(&nada, DesignKind::State)
            .with_budget(Budget::unlimited().with_max_candidates(3));
        let n = session.generate(&mut llm).unwrap();
        assert_eq!(n, 3);
        let stats = session.precheck().unwrap();
        assert_eq!(stats.total, 3);
    }

    #[test]
    fn epoch_budget_truncates_but_still_ranks() {
        let nada = tiny_nada(25);
        let mut llm = MockLlm::perfect(25);
        let collector = CollectingObserver::new();
        // Enough for the first probe wave only.
        let mut session = SearchSession::new(&nada, DesignKind::State)
            .with_budget(Budget::unlimited().with_max_epochs(1));
        session.observe(&collector);
        let outcome = session.run(&mut llm).unwrap();
        assert!(
            !outcome.ranked.is_empty(),
            "a budgeted search must still rank the designs it trained"
        );
        assert!(outcome.best.test_score.is_finite());
        assert!(outcome.stats.skipped > 0, "{:?}", outcome.stats);
        assert!(collector.count(|e| matches!(e, SearchEvent::BudgetExhausted { .. })) >= 1);
    }

    #[test]
    fn budgeted_search_is_deterministic() {
        let run = || {
            let nada = tiny_nada(26);
            let mut llm = MockLlm::gpt4(26);
            let mut session = SearchSession::new(&nada, DesignKind::State)
                .with_budget(Budget::unlimited().with_max_epochs(40));
            let o = session.run(&mut llm).unwrap();
            (o.ranked.clone(), o.best.test_score.to_bits(), o.stats)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn resume_rejects_a_different_pipeline() {
        // A session is not resumable on its own; its round reaches a new
        // process only through the driver checkpoint, which must resume
        // against the pipeline that ran it and refuse any other.
        use crate::driver::SearchDriver;
        let nada = tiny_nada(28);
        let mut llm = MockLlm::gpt4(28);
        let mut driver = SearchDriver::new(&nada, DesignKind::State).with_rounds(2);
        driver.run_round(&mut llm).unwrap();
        let ckpt = driver.checkpoint();
        assert!(SearchDriver::resume(&nada, ckpt.clone()).is_ok());

        let other = tiny_nada(29);
        let err = match SearchDriver::resume(&other, ckpt) {
            Ok(_) => panic!("resume against a different pipeline must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("different pipeline"));
    }

    #[test]
    fn stage_names_round_trip_exhaustively() {
        // `Stage::ALL` is the exhaustive variant list (the compiler pins
        // its length to the enum via the `Ord` ordering test below), so a
        // new stage that forgets its `from_name` arm fails here.
        for stage in Stage::ALL {
            assert_eq!(
                Stage::from_name(stage.name()),
                Some(stage),
                "`{}` does not round-trip",
                stage.name()
            );
        }
        assert_eq!(Stage::from_name("nope"), None);
        // Names are pairwise distinct (a copy-pasted name would alias two
        // stages in logs and reports).
        for a in Stage::ALL {
            for b in Stage::ALL {
                assert_eq!(a.name() == b.name(), a == b);
            }
        }
    }

    #[test]
    fn stage_all_is_in_execution_order() {
        for pair in Stage::ALL.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{:?} must precede {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn wrong_stage_errors_name_both_stages() {
        // Regression: the Done arm used to print "session is already
        // finalized" without naming either stage.
        for found in Stage::ALL {
            for requested in Stage::ALL {
                if found == requested {
                    continue;
                }
                let msg = WrongStage { found, requested }.to_string();
                assert!(
                    msg.contains(&format!("`{}`", found.name())),
                    "{msg:?} does not name the actual stage `{}`",
                    found.name()
                );
                assert!(
                    msg.contains(&format!("`{}`", requested.name())),
                    "{msg:?} does not name the requested stage `{}`",
                    requested.name()
                );
            }
        }
        let done = WrongStage {
            found: Stage::Done,
            requested: Stage::Generate,
        }
        .to_string();
        assert!(done.contains("already finalized"));
    }

    /// Serializes tests that observe the process-wide token meter, so a
    /// concurrently billing test never lands inside another's window.
    static METER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A backend that bills a fixed number of tokens per completion into
    /// the process-wide meter, like the live HTTP clients do.
    struct BillingLlm {
        inner: MockLlm,
        per_call: u64,
    }

    impl LlmClient for BillingLlm {
        fn model_name(&self) -> &str {
            self.inner.model_name()
        }

        fn generate(&mut self, prompt: &nada_llm::Prompt) -> nada_llm::Completion {
            nada_llm::global_token_meter().record(nada_llm::TokenUsage {
                prompt_tokens: self.per_call / 2,
                completion_tokens: self.per_call - self.per_call / 2,
            });
            self.inner.generate(prompt)
        }
    }

    #[test]
    fn token_budget_truncates_generation_and_is_accounted() {
        let _window = METER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let nada = tiny_nada(29);
        let mut llm = BillingLlm {
            inner: MockLlm::perfect(29),
            per_call: 100,
        };
        let collector = CollectingObserver::new();
        let mut session = SearchSession::new(&nada, DesignKind::State)
            .with_budget(Budget::unlimited().with_max_token_cost(250));
        session.observe(&collector);
        // The hook checks spend before each serial completion: 0, 100,
        // 200 pass; 300 stops the batch. Three candidates out of eight.
        let n = session.generate(&mut llm).unwrap();
        assert_eq!(n, 3);
        assert_eq!(session.stats().llm_tokens_spent, 300);
        assert!(collector.count(|e| matches!(e, SearchEvent::BudgetExhausted { .. })) >= 1);
    }

    #[test]
    fn zero_billing_backends_never_trip_the_token_budget() {
        let _window = METER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let nada = tiny_nada(31);
        let mut llm = MockLlm::perfect(31);
        let mut session = SearchSession::new(&nada, DesignKind::State)
            .with_budget(Budget::unlimited().with_max_token_cost(1));
        let n = session.generate(&mut llm).unwrap();
        assert_eq!(n, nada.config().n_candidates);
        assert_eq!(session.stats().llm_tokens_spent, 0);
    }
}
