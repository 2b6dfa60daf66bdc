//! Pipeline fingerprints and the shared serde codecs for durable state.
//!
//! [`config_fingerprint`] identifies the run-defining parts of a pipeline;
//! a [`crate::feedback::DriverCheckpoint`] records it so a resume against
//! a different workload, dataset or configuration is refused, and the
//! score cache keys on it. The fingerprint is a sanity check against
//! operator error, not a cryptographic binding.
//!
//! The [`serde::Serialize`]/[`serde::Deserialize`] impls below cover the
//! pieces that driver checkpoints, job specs and job results embed. They
//! build a self-describing value tree, and `serde::text` renders it with
//! floats as raw IEEE-754 bits, so a resumed run is bit-identical to an
//! uninterrupted one by construction.

use crate::budget::Budget;
use crate::pipeline::{Nada, PrecheckStats, SearchStats};
use nada_llm::DesignKind;
use serde::value::{Error as CodecError, Value};

/// FNV-1a fingerprint of the run-defining parts of a pipeline: workload
/// name *and parameters* ([`crate::workload::Workload::param_fingerprint`]),
/// dataset, and every configuration knob that steers the search — the
/// integer counts, the float hyperparameters (hashed by their IEEE-754
/// bits, so `lr = 1e-3` and `lr = 2e-3` never collide), and the fuzzing
/// parameters. The cross-tenant score cache and checkpoint resume both
/// trust this fingerprint, so every knob that changes a training or
/// evaluation result must be folded in here.
pub fn config_fingerprint(nada: &Nada) -> u64 {
    let cfg = nada.config();
    let mut h = Fnv::new();
    h.write_str(nada.workload().name());
    h.write_u64(nada.workload().param_fingerprint());
    h.write_str(cfg.dataset.name());
    h.write_str(&format!("{:?}", cfg.scale));
    for n in [
        cfg.seed,
        cfg.n_candidates as u64,
        cfg.train_epochs as u64,
        cfg.test_interval as u64,
        cfg.episodes_per_epoch as u64,
        cfg.n_seeds as u64,
        cfg.early_epochs as u64,
        cfg.n_probe as u64,
        cfg.arch_scale_factor as u64,
        cfg.eval_traces as u64,
    ] {
        h.write_u64(n);
    }
    for f in [
        cfg.a2c.gamma,
        cfg.a2c.lr,
        cfg.a2c.entropy_coeff,
        cfg.a2c.value_coeff,
        cfg.a2c.clip_grad_norm,
        cfg.entropy_end,
    ] {
        h.write_u64(u64::from(f.to_bits()));
    }
    h.write_u64(u64::from(cfg.a2c.normalize_advantages));
    h.write_u64(cfg.fuzz.runs as u64);
    h.write_u64(cfg.fuzz.threshold.to_bits());
    h.write_u64(cfg.fuzz.seed);
    h.finish()
}

/// The FNV-1a accumulator behind [`config_fingerprint`]; also used by
/// workloads to hash their own parameters
/// ([`crate::workload::Workload::param_fingerprint`]).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn write_u64(&mut self, n: u64) {
        for b in n.to_le_bytes() {
            self.write_u8(b);
        }
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.write_u8(*b);
        }
        // Length-delimit so ("ab","c") and ("a","bc") differ.
        self.write_u8(0xFF);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

// ---- serde impls -----------------------------------------------------------
//
// `DesignKind` lives in `nada-llm`, so its encoding is a pair of helpers
// (orphan rules); the crate-local types implement the shim's traits
// directly.

pub(crate) fn kind_to_value(kind: DesignKind) -> Value {
    Value::Str(kind.name().to_string())
}

pub(crate) fn kind_from_value(v: &Value) -> Result<DesignKind, CodecError> {
    match v.as_str()? {
        "state" => Ok(DesignKind::State),
        "architecture" => Ok(DesignKind::Architecture),
        other => Err(CodecError::new(format!("unknown design kind `{other}`"))),
    }
}

impl serde::Serialize for Budget {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("max_candidates".into(), self.max_candidates.to_value()),
            ("max_epochs".into(), self.max_epochs.to_value()),
            ("max_token_cost".into(), self.max_token_cost.to_value()),
        ])
    }
}

impl serde::Deserialize for Budget {
    fn from_value(v: &Value) -> Result<Self, CodecError> {
        Ok(Self {
            max_candidates: Option::from_value(v.field("max_candidates")?)?,
            max_epochs: Option::from_value(v.field("max_epochs")?)?,
            // Absent in checkpoints written before token budgets existed.
            max_token_cost: match v.field("max_token_cost") {
                Ok(val) => Option::from_value(val)?,
                Err(_) => None,
            },
        })
    }
}

impl serde::Serialize for PrecheckStats {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("total".into(), self.total.to_value()),
            ("compilable".into(), self.compilable.to_value()),
            ("normalized".into(), self.normalized.to_value()),
        ])
    }
}

impl serde::Deserialize for PrecheckStats {
    fn from_value(v: &Value) -> Result<Self, CodecError> {
        Ok(Self {
            total: usize::from_value(v.field("total")?)?,
            compilable: usize::from_value(v.field("compilable")?)?,
            normalized: usize::from_value(v.field("normalized")?)?,
        })
    }
}

impl serde::Serialize for SearchStats {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("early_stopped".into(), self.early_stopped.to_value()),
            ("fully_trained".into(), self.fully_trained.to_value()),
            ("failed".into(), self.failed.to_value()),
            ("skipped".into(), self.skipped.to_value()),
            ("epochs_spent".into(), self.epochs_spent.to_value()),
            ("epochs_saved".into(), self.epochs_saved.to_value()),
            ("llm_tokens_spent".into(), self.llm_tokens_spent.to_value()),
        ])
    }
}

impl serde::Deserialize for SearchStats {
    fn from_value(v: &Value) -> Result<Self, CodecError> {
        Ok(Self {
            early_stopped: usize::from_value(v.field("early_stopped")?)?,
            fully_trained: usize::from_value(v.field("fully_trained")?)?,
            failed: usize::from_value(v.field("failed")?)?,
            skipped: usize::from_value(v.field("skipped")?)?,
            epochs_spent: usize::from_value(v.field("epochs_spent")?)?,
            epochs_saved: usize::from_value(v.field("epochs_saved")?)?,
            // Absent in checkpoints written before token accounting existed.
            llm_tokens_spent: match v.field("llm_tokens_spent") {
                Ok(val) => u64::from_value(val)?,
                Err(_) => 0,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NadaConfig, RunScale};
    use crate::driver::SearchDriver;
    use nada_traces::dataset::DatasetKind;

    #[test]
    fn fingerprint_distinguishes_configs_and_workloads() {
        let a = config_fingerprint(&Nada::new(NadaConfig::new(
            DatasetKind::Fcc,
            RunScale::Tiny,
            1,
        )));
        let b = config_fingerprint(&Nada::new(NadaConfig::new(
            DatasetKind::Fcc,
            RunScale::Tiny,
            2,
        )));
        let c = config_fingerprint(&Nada::new(NadaConfig::new(
            DatasetKind::Starlink,
            RunScale::Tiny,
            1,
        )));
        let cc = config_fingerprint(&Nada::with_workload(
            NadaConfig::new(DatasetKind::Fcc, RunScale::Tiny, 1),
            Box::new(crate::workload::CcWorkload::for_dataset(DatasetKind::Fcc)),
        ));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, cc);
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        // Every codec this module owns decodes to an equal value and
        // re-encodes to the identical text.
        fn round_trip<T>(value: T)
        where
            T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
        {
            let text = serde::text::to_string(&value);
            let back: T = serde::text::from_str(&text).expect("decode");
            assert_eq!(back, value);
            assert_eq!(serde::text::to_string(&back), text);
        }
        round_trip(Budget::unlimited());
        round_trip(Budget {
            max_candidates: Some(7),
            max_epochs: Some(123),
            max_token_cost: Some(u64::MAX),
        });
        round_trip(PrecheckStats {
            total: 8,
            compilable: 6,
            normalized: 5,
        });
        round_trip(SearchStats {
            early_stopped: 1,
            fully_trained: 2,
            failed: 1,
            skipped: 3,
            epochs_spent: 90,
            epochs_saved: 20,
            llm_tokens_spent: 512,
        });
        for kind in [DesignKind::State, DesignKind::Architecture] {
            assert_eq!(kind_from_value(&kind_to_value(kind)).unwrap(), kind);
        }
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let text = serde::text::to_string(&SearchStats {
            epochs_spent: 90,
            ..SearchStats::default()
        });
        assert!(serde::text::from_str::<SearchStats>(&text[..text.len() / 2]).is_err());
        assert!(serde::text::from_str::<SearchStats>("{}").is_err());
        assert!(serde::text::from_str::<PrecheckStats>("{}").is_err());
        assert!(serde::text::from_str::<Budget>("{}").is_err());
        assert!(kind_from_value(&Value::Str("bogus".into())).is_err());
        assert!(kind_from_value(&Value::Null).is_err());
    }

    /// A driver checkpoint taken against `a` must refuse to resume
    /// against `b`.
    fn assert_resume_refused(a: &Nada, b: &Nada) {
        let ckpt = SearchDriver::new(a, DesignKind::State).checkpoint();
        let Err(err) = SearchDriver::resume(b, ckpt) else {
            panic!("resume must refuse a mismatched fingerprint");
        };
        assert!(err.to_string().contains("different pipeline"), "{err}");
    }

    /// Regression: float knobs (lr here) were once invisible to the
    /// fingerprint, so runs differing only in lr shared score-cache
    /// entries and resumed each other's checkpoints.
    #[test]
    fn lr_only_differences_share_neither_cache_keys_nor_snapshots() {
        let base = NadaConfig::new(DatasetKind::Fcc, RunScale::Tiny, 1);
        let mut tuned = base.clone();
        tuned.a2c.lr = base.a2c.lr * 0.5;
        let a = Nada::new(base);
        let b = Nada::new(tuned);
        let (fa, fb) = (config_fingerprint(&a), config_fingerprint(&b));
        assert_ne!(fa, fb, "lr must be part of the fingerprint");

        // Distinct fingerprints ⇒ distinct score-cache keys.
        use crate::score_cache::{full_key, probe_key};
        assert_ne!(full_key(fa, "s", "arch"), full_key(fb, "s", "arch"));
        assert_ne!(probe_key(fa, "s", "arch", 7), probe_key(fb, "s", "arch", 7));

        // ... and a checkpoint from one refuses to resume against the other.
        assert_resume_refused(&a, &b);
    }

    /// Regression: workload-level parameters (CC reward weights) were
    /// invisible to the fingerprint for the same reason.
    #[test]
    fn cc_reward_only_differences_share_neither_cache_keys_nor_snapshots() {
        use crate::workload::CcWorkload;
        use nada_sim::cc::CcReward;
        let cfg = NadaConfig::new(DatasetKind::Fcc, RunScale::Tiny, 1);
        let a = Nada::with_workload(
            cfg.clone(),
            Box::new(CcWorkload::for_dataset(DatasetKind::Fcc)),
        );
        let b = Nada::with_workload(
            cfg,
            Box::new(
                CcWorkload::for_dataset(DatasetKind::Fcc).with_reward(CcReward {
                    latency_penalty: 2.0,
                    ..CcReward::default()
                }),
            ),
        );
        let (fa, fb) = (config_fingerprint(&a), config_fingerprint(&b));
        assert_ne!(fa, fb, "reward weights must be part of the fingerprint");

        use crate::score_cache::{full_key, probe_key};
        assert_ne!(full_key(fa, "s", "arch"), full_key(fb, "s", "arch"));
        assert_ne!(probe_key(fa, "s", "arch", 7), probe_key(fb, "s", "arch", 7));

        assert_resume_refused(&a, &b);
    }
}
