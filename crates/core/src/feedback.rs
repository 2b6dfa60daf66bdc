//! Cross-round feedback state: the hall of fame and per-round summaries
//! a [`crate::driver::SearchDriver`] accumulates, and their rendering
//! into the next round's [`FeedbackContext`].
//!
//! Everything here serializes through the serde shim's text codec — the
//! driver checkpoints this state at every round boundary, and a resumed
//! run must rebuild feedback (and therefore prompts, candidate pools and
//! scores) bit-identically.

use crate::budget::Budget;
use crate::jobspec::JobSpec;
use crate::pipeline::{PrecheckStats, SearchOutcome, SearchStats};
use crate::snapshot::{kind_from_value, kind_to_value};
use nada_llm::{DesignKind, FeedbackContext, FeedbackWinner};
use serde::value::{Error as CodecError, Value};

/// One hall-of-fame design: where it came from and what it scored under
/// the full §3.1 protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct HallEntry {
    /// The round that produced the design (0-based).
    pub round: usize,
    /// Its candidate id within that round's pool.
    pub id: usize,
    /// The design's source code.
    pub code: String,
    /// Its full-protocol test score.
    pub score: f64,
}

/// The best designs seen across all rounds so far, best first, capped at
/// a fixed capacity. Ordering is deterministic: score descending, ties
/// broken by `(round, id)` ascending, so resumed runs reproduce the hall
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct HallOfFame {
    capacity: usize,
    entries: Vec<HallEntry>,
}

impl HallOfFame {
    /// An empty hall keeping the top `capacity` designs.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// How many designs the hall retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries, best first.
    pub fn entries(&self) -> &[HallEntry] {
        &self.entries
    }

    /// The best design so far.
    pub fn best(&self) -> Option<&HallEntry> {
        self.entries.first()
    }

    /// Folds one round's evaluated finalists into the hall.
    pub fn absorb(&mut self, round: usize, outcome: &SearchOutcome) {
        for result in &outcome.finalists {
            let Some(candidate) = &result.candidate else {
                continue;
            };
            self.entries.push(HallEntry {
                round,
                id: candidate.id,
                code: result.code.clone(),
                score: result.test_score,
            });
        }
        self.restore_order();
    }

    /// Inserts one already-scored entry (checkpoint restore), preserving
    /// the canonical order and capacity.
    pub fn push_sorted(&mut self, entry: HallEntry) {
        self.entries.push(entry);
        self.restore_order();
    }

    fn restore_order(&mut self) {
        self.entries.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("finite scores")
                .then(a.round.cmp(&b.round))
                .then(a.id.cmp(&b.id))
        });
        self.entries.truncate(self.capacity);
    }
}

/// What one finished round boils down to — the serializable record the
/// driver keeps (full [`SearchOutcome`]s stay in memory only for rounds
/// run in this process).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// Zero-based round index.
    pub round: usize,
    /// The round's best full-protocol score (the original's when no
    /// finalist evaluated).
    pub best_score: f64,
    /// Best score across rounds 0..=`round` (non-decreasing by
    /// construction).
    pub best_so_far: f64,
    /// The original seed design's score under the same protocol.
    pub original_score: f64,
    /// The round's pre-check statistics (feeds the next round's
    /// rejection-reason histogram).
    pub precheck: PrecheckStats,
    /// Screening-phase ranking `(candidate id, score)`, best first.
    pub ranked: Vec<(usize, f64)>,
    /// The round's spend bookkeeping.
    pub stats: SearchStats,
}

/// Renders accumulated state into the [`FeedbackContext`] for `round`.
/// Returns `None` before any round has finished (round 0 has no feedback).
pub fn feedback_for_round(
    round: usize,
    hall: &HallOfFame,
    summaries: &[RoundSummary],
) -> Option<FeedbackContext> {
    let last = summaries.last()?;
    Some(FeedbackContext {
        round,
        winners: hall
            .entries()
            .iter()
            .map(|e| FeedbackWinner {
                code: e.code.clone(),
                score: e.score,
            })
            .collect(),
        rejected_compile: last.precheck.total - last.precheck.compilable,
        rejected_normalization: last.precheck.compilable - last.precheck.normalized,
        accepted: last.precheck.normalized,
    })
}

/// Everything needed to restart a multi-round search at its next round
/// boundary. Written through the serde-shim text codec after every round.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverCheckpoint {
    /// Fingerprint of the pipeline the run belongs to (see
    /// [`crate::snapshot::config_fingerprint`]).
    pub fingerprint: u64,
    /// Which design kind the rounds search.
    pub kind: DesignKind,
    /// The next round to run (== number of completed rounds).
    pub next_round: usize,
    /// The total round count the run was configured with; resuming
    /// defaults to finishing these (`--rounds` can only extend).
    pub rounds: usize,
    /// Hall-of-fame capacity.
    pub hall_capacity: usize,
    /// The run's spending limits. The epoch allowance is cumulative
    /// across rounds, so a resumed run must keep honoring it — dropping
    /// it would let the remaining rounds overspend (and diverge from the
    /// uninterrupted run, which stops early).
    pub budget: Budget,
    /// Hall-of-fame entries, best first.
    pub hall: Vec<HallEntry>,
    /// Per-round summaries for every completed round.
    pub summaries: Vec<RoundSummary>,
    /// Cumulative spend across completed rounds.
    pub stats: SearchStats,
    /// The job contract this run was started with, when known. The config
    /// fingerprint already guards the *pipeline*; the spec additionally
    /// pins the CLI-level flags (workload/dataset/scale names, LLM backend
    /// and model, budget) so a resume under different flags fails loudly
    /// ([`DriverCheckpoint::verify_spec`]) instead of silently diverging.
    /// `None` for version-1 checkpoints and spec-less drivers.
    pub spec: Option<JobSpec>,
}

/// Checkpoint format version; bumped on layout changes. Version 2 added
/// the embedded [`JobSpec`]; version-1 checkpoints still decode (with
/// `spec: None`).
pub const CHECKPOINT_VERSION: u64 = 2;

impl DriverCheckpoint {
    /// Serializes to the text form (see `serde::text`).
    pub fn encode(&self) -> String {
        serde::text::to_string(self)
    }

    /// Parses a checkpoint back from its text form.
    pub fn decode(s: &str) -> Result<Self, CodecError> {
        serde::text::from_str(s)
    }

    /// Fails loudly when the checkpoint's embedded job spec contradicts
    /// the spec the caller is resuming under. Checkpoints without a spec
    /// (pre-version-2, or written by spec-less drivers) verify trivially —
    /// there is nothing to contradict.
    pub fn verify_spec(&self, expected: &JobSpec) -> Result<(), String> {
        match &self.spec {
            Some(spec) => match spec.mismatch(expected) {
                None => Ok(()),
                Some(diff) => Err(format!(
                    "checkpoint belongs to a different job — refusing to resume ({diff})"
                )),
            },
            None => Ok(()),
        }
    }
}

// ---- serde impls -----------------------------------------------------------

impl serde::Serialize for HallEntry {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("round".into(), self.round.to_value()),
            ("id".into(), self.id.to_value()),
            ("code".into(), self.code.to_value()),
            ("score".into(), self.score.to_value()),
        ])
    }
}

impl serde::Deserialize for HallEntry {
    fn from_value(v: &Value) -> Result<Self, CodecError> {
        Ok(Self {
            round: usize::from_value(v.field("round")?)?,
            id: usize::from_value(v.field("id")?)?,
            code: String::from_value(v.field("code")?)?,
            score: f64::from_value(v.field("score")?)?,
        })
    }
}

impl serde::Serialize for RoundSummary {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("round".into(), self.round.to_value()),
            ("best_score".into(), self.best_score.to_value()),
            ("best_so_far".into(), self.best_so_far.to_value()),
            ("original_score".into(), self.original_score.to_value()),
            ("precheck".into(), self.precheck.to_value()),
            ("ranked".into(), self.ranked.to_value()),
            ("stats".into(), self.stats.to_value()),
        ])
    }
}

impl serde::Deserialize for RoundSummary {
    fn from_value(v: &Value) -> Result<Self, CodecError> {
        Ok(Self {
            round: usize::from_value(v.field("round")?)?,
            best_score: f64::from_value(v.field("best_score")?)?,
            best_so_far: f64::from_value(v.field("best_so_far")?)?,
            original_score: f64::from_value(v.field("original_score")?)?,
            precheck: PrecheckStats::from_value(v.field("precheck")?)?,
            ranked: Vec::from_value(v.field("ranked")?)?,
            stats: SearchStats::from_value(v.field("stats")?)?,
        })
    }
}

impl serde::Serialize for DriverCheckpoint {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("version".into(), CHECKPOINT_VERSION.to_value()),
            ("fingerprint".into(), self.fingerprint.to_value()),
            ("kind".into(), kind_to_value(self.kind)),
            ("next_round".into(), self.next_round.to_value()),
            ("rounds".into(), self.rounds.to_value()),
            ("hall_capacity".into(), self.hall_capacity.to_value()),
            ("budget".into(), self.budget.to_value()),
            ("hall".into(), self.hall.to_value()),
            ("summaries".into(), self.summaries.to_value()),
            ("stats".into(), self.stats.to_value()),
            ("spec".into(), self.spec.to_value()),
        ])
    }
}

impl serde::Deserialize for DriverCheckpoint {
    fn from_value(v: &Value) -> Result<Self, CodecError> {
        let version = u64::from_value(v.field("version")?)?;
        if version != 1 && version != CHECKPOINT_VERSION {
            return Err(CodecError::new(format!(
                "checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
            )));
        }
        Ok(Self {
            fingerprint: u64::from_value(v.field("fingerprint")?)?,
            kind: kind_from_value(v.field("kind")?)?,
            next_round: usize::from_value(v.field("next_round")?)?,
            rounds: usize::from_value(v.field("rounds")?)?,
            hall_capacity: usize::from_value(v.field("hall_capacity")?)?,
            budget: Budget::from_value(v.field("budget")?)?,
            hall: Vec::from_value(v.field("hall")?)?,
            summaries: Vec::from_value(v.field("summaries")?)?,
            stats: SearchStats::from_value(v.field("stats")?)?,
            // Version 1 predates the embedded spec.
            spec: if version == 1 {
                None
            } else {
                Option::from_value(v.field("spec")?)?
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(round: usize, id: usize, score: f64) -> HallEntry {
        HallEntry {
            round,
            id,
            code: format!("state s_{round}_{id} {{ }}"),
            score,
        }
    }

    #[test]
    fn hall_keeps_the_top_k_in_deterministic_order() {
        let mut hall = HallOfFame::new(3);
        hall.entries = vec![entry(0, 1, 0.5), entry(0, 2, 0.9)];
        hall.entries
            .sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
        // Absorb a round whose finalists straddle the existing scores.
        // (Build a minimal outcome by hand.)
        use crate::candidate::Candidate;
        use crate::pipeline::{DesignResult, SearchOutcome};
        let result = |id: usize, score: f64| DesignResult {
            candidate: Some(Candidate {
                id,
                kind: DesignKind::State,
                code: String::new(),
                reasoning: None,
            }),
            code: format!("c{id}"),
            sessions: Vec::new(),
            test_score: score,
        };
        let outcome = SearchOutcome {
            kind: DesignKind::State,
            precheck: PrecheckStats {
                total: 4,
                compilable: 3,
                normalized: 3,
            },
            original: result(99, 0.1),
            best: result(7, 0.7),
            finalists: vec![result(7, 0.7), result(8, 0.9)],
            ranked: vec![(7, 0.7), (8, 0.9)],
            stats: SearchStats::default(),
        };
        hall.absorb(1, &outcome);
        let scores: Vec<f64> = hall.entries().iter().map(|e| e.score).collect();
        assert_eq!(scores, vec![0.9, 0.9, 0.7]);
        // Tie at 0.9 resolves by (round, id): round 0 before round 1.
        assert_eq!(hall.entries()[0].round, 0);
        assert_eq!(hall.entries()[1].round, 1);
        assert_eq!(hall.best().unwrap().id, 2);
    }

    #[test]
    fn feedback_histogram_comes_from_the_last_round() {
        let hall = HallOfFame {
            capacity: 2,
            entries: vec![entry(0, 3, 0.8)],
        };
        let summaries = vec![RoundSummary {
            round: 0,
            best_score: 0.8,
            best_so_far: 0.8,
            original_score: 0.5,
            precheck: PrecheckStats {
                total: 10,
                compilable: 7,
                normalized: 5,
            },
            ranked: vec![(3, 0.8)],
            stats: SearchStats::default(),
        }];
        let fb = feedback_for_round(1, &hall, &summaries).expect("feedback after round 0");
        assert_eq!(fb.round, 1);
        assert_eq!(fb.winners.len(), 1);
        assert_eq!(fb.rejected_compile, 3);
        assert_eq!(fb.rejected_normalization, 2);
        assert_eq!(fb.accepted, 5);
        assert!(feedback_for_round(0, &hall, &[]).is_none());
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let ckpt = DriverCheckpoint {
            fingerprint: 0xFEED_F00D,
            kind: DesignKind::State,
            next_round: 2,
            rounds: 3,
            hall_capacity: 5,
            budget: Budget::unlimited().with_max_epochs(4096),
            hall: vec![entry(0, 4, f64::MIN_POSITIVE), entry(1, 0, -0.25)],
            summaries: vec![RoundSummary {
                round: 0,
                best_score: 0.375,
                best_so_far: 0.375,
                original_score: -0.0,
                precheck: PrecheckStats {
                    total: 8,
                    compilable: 6,
                    normalized: 5,
                },
                ranked: vec![(4, 0.375), (1, 0.25)],
                stats: SearchStats {
                    early_stopped: 1,
                    fully_trained: 3,
                    failed: 0,
                    skipped: 0,
                    epochs_spent: 120,
                    epochs_saved: 40,
                    llm_tokens_spent: 0,
                },
            }],
            stats: SearchStats::default(),
            spec: Some(JobSpec::new("abr", "FCC", 11)),
        };
        let text = ckpt.encode();
        let back = DriverCheckpoint::decode(&text).expect("decode");
        assert_eq!(ckpt, back);
        assert_eq!(
            back.hall[0].score.to_bits(),
            f64::MIN_POSITIVE.to_bits(),
            "float bits must survive"
        );
        assert_eq!(
            back.summaries[0].original_score.to_bits(),
            (-0.0f64).to_bits()
        );
        // Corruption is rejected, not misparsed.
        assert!(DriverCheckpoint::decode(&text[..text.len() / 2]).is_err());
        assert!(DriverCheckpoint::decode("{}").is_err());
    }

    fn minimal_checkpoint(spec: Option<JobSpec>) -> DriverCheckpoint {
        DriverCheckpoint {
            fingerprint: 1,
            kind: DesignKind::State,
            next_round: 1,
            rounds: 2,
            hall_capacity: 5,
            budget: Budget::unlimited(),
            hall: Vec::new(),
            summaries: Vec::new(),
            stats: SearchStats::default(),
            spec,
        }
    }

    #[test]
    fn version_1_checkpoints_still_decode_without_a_spec() {
        let ckpt = minimal_checkpoint(Some(JobSpec::new("abr", "FCC", 3)));
        // A v1 writer serialized neither the version-2 tag nor the spec
        // field; synthesize that layout from the v2 encoding.
        let v1 = ckpt
            .encode()
            .replace("version=u2", "version=u1")
            .replace(" spec={", " old={");
        let back = DriverCheckpoint::decode(&v1).expect("v1 decodes");
        assert_eq!(back.spec, None);
        assert_eq!(back.rounds, ckpt.rounds);
        // ... and verifies trivially against any caller spec.
        assert!(back.verify_spec(&JobSpec::new("cc", "4G", 99)).is_ok());
    }

    #[test]
    fn verify_spec_refuses_a_different_job() {
        let stored = JobSpec::new("abr", "FCC", 3);
        let ckpt = minimal_checkpoint(Some(stored.clone()));
        assert!(ckpt.verify_spec(&stored).is_ok());

        let mut extended = stored.clone();
        extended.rounds += 5;
        assert!(ckpt.verify_spec(&extended).is_ok(), "rounds may extend");

        let mut other = stored;
        other.seed = 4;
        let err = ckpt.verify_spec(&other).expect_err("seed mismatch");
        assert!(err.contains("seed"), "{err}");
    }
}
