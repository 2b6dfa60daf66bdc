//! The NADA pipeline — the paper's primary contribution.
//!
//! NADA (Network Algorithm Design Automation via LLMs) takes an existing
//! network algorithm (Pensieve ABR), asks an LLM for a pool of alternative
//! designs for its state representation and neural-network architecture,
//! then filters and evaluates them efficiently (Figure 1):
//!
//! ```text
//!  LLM ──► candidate pool ──► compilation check ──► normalization check
//!                                                        │
//!        ranked designs ◄── full training ◄── early-stopped batch training
//! ```
//!
//! Crate layout:
//!
//! * [`config`] — run scales (paper vs quick) and every knob in one place;
//! * [`candidate`] — candidate designs and their lifecycle states;
//! * [`workload`] — the [`workload::Workload`] trait making the pipeline
//!   environment-agnostic, plus the ABR and congestion-control workloads;
//! * [`registry`] — runtime workload selection (name → constructor);
//! * [`llm_registry`] — runtime LLM-backend selection (`mock`, on-disk
//!   cassette `replay`, real `http`), with record-to-cassette wrapping;
//! * [`bind`] — positional binding of declared observations to state
//!   programs;
//! * [`prechecks`] — §2.2's compilation and fuzzing-normalization checks;
//! * [`train`] — A2C training of one design on one dataset (one seed);
//! * [`eval`] — checkpoint evaluation on held-out traces;
//! * [`score`] — §3.1's scoring protocol (mean of last 10 checkpoints,
//!   median over seeds);
//! * [`session`] — the staged search: Generate → Precheck → Probe →
//!   Screen → Finalize as a typed state machine;
//! * [`driver`] — the multi-round feedback loop: sessions in sequence,
//!   each seeded with the previous rounds' ranked outcomes, with
//!   checkpointed cross-round state;
//! * [`feedback`] — hall of fame, per-round summaries and driver
//!   checkpoints;
//! * [`jobspec`] — the serializable job contract embedded in checkpoints
//!   and spoken by the `nada-serve` daemon;
//! * [`score_cache`] — the process-wide design-fingerprint → score cache
//!   deduplicating deterministic evaluations across rounds and tenants;
//! * [`observer`] — the session's typed event stream;
//! * [`metrics`] — the [`metrics::MetricsObserver`] bridging that stream
//!   into the process-wide `nada-obs` registry;
//! * [`budget`] — graceful mid-stage truncation of a running search;
//! * [`snapshot`] — pipeline fingerprints and the serde codecs shared by
//!   checkpoints, job specs and job results;
//! * [`pipeline`] — the [`pipeline::Nada`] pipeline handle: per-design
//!   building blocks, the one-shot search wrappers, and design
//!   combination (Table 5);
//! * [`report`] — plain-text table rendering for the benchmark harnesses.

pub mod bind;
pub mod budget;
pub mod candidate;
pub mod config;
pub mod driver;
pub mod eval;
pub mod feedback;
pub mod jobspec;
pub mod llm_registry;
pub mod metrics;
pub mod observer;
pub mod pipeline;
pub mod prechecks;
pub mod registry;
pub mod report;
pub mod score;
pub mod score_cache;
pub mod session;
pub mod snapshot;
pub mod train;
pub mod workload;

pub use budget::Budget;
pub use candidate::{Candidate, CompiledDesign, RejectReason};
pub use config::{NadaConfig, RunScale};
pub use driver::{DriverError, DriverOutcome, SearchDriver};
pub use feedback::{DriverCheckpoint, HallEntry, HallOfFame, RoundSummary};
pub use jobspec::JobSpec;
pub use llm_registry::{LlmBuildError, LlmRegistry, LlmRequest, LlmSpec};
pub use metrics::MetricsObserver;
pub use observer::{CollectingObserver, FnObserver, SearchEvent, SearchObserver};
pub use pipeline::{Nada, PrecheckStats, SearchOutcome, SearchStats};
pub use registry::WorkloadRegistry;
pub use score_cache::{CacheView, ScoreCache};
pub use session::{SearchSession, SessionSnapshot, Stage};
pub use train::{train_design, TrainError, TrainOutcome, TrainRunConfig};
pub use workload::{AbrWorkload, CcWorkload, Workload};
