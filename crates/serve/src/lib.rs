//! `nada-serve` — a multi-tenant search daemon for NADA.
//!
//! The daemon accepts search jobs — `(workload, llm, budget, rounds,
//! seed)` — over a tiny TCP wire protocol, multiplexes the resulting
//! [`nada_core::driver::SearchDriver`]s over the process-wide
//! [`nada_exec`] worker pool with a fair round-robin scheduler, and
//! shares candidate scores across tenants through a process-wide
//! design-fingerprint cache.
//!
//! # Wire protocol
//!
//! Length-prefixed frames over plain TCP, dependency-free:
//!
//! ```text
//! +------------------+----------------------+
//! | len: u32, BE     | payload: len bytes   |
//! +------------------+----------------------+
//! ```
//!
//! The payload is a UTF-8 string in the workspace text codec (the same
//! self-describing format the checkpoint files use). Frames
//! above 8 MiB are rejected before allocation. One request frame yields
//! exactly one response frame; connections are persistent and carry any
//! number of round trips. See [`wire`] for the codec and [`proto`] for
//! the request/response vocabulary.
//!
//! # Job lifecycle
//!
//! ```text
//! submit ──▶ queued ──▶ running ──▶ done
//!               ▲           │  ╲──▶ failed
//!               ╰───────────╯  ╲──▶ cancelled
//!             (round boundary)
//! ```
//!
//! The scheduler runs each job **one round at a time**: a lane pops the
//! head of the ready queue, resumes the driver from its latest
//! checkpoint, runs exactly one search round, checkpoints, and requeues
//! the job at the tail. Every job therefore makes progress every cycle
//! regardless of how many tenants are active, and the crash-recovery
//! path is exercised on every single round — not just after real
//! crashes.
//!
//! # Durability
//!
//! Every round boundary is spooled via write-then-rename (see
//! [`spool`]), so a `kill -9` at any instant loses at most the round in
//! flight. On restart the daemon rescans the spool, verifies each
//! checkpoint's embedded [`nada_core::jobspec::JobSpec`] against the
//! spooled spec (refusing loudly on mismatch), and resumes
//! bit-identically.
//!
//! # Cross-tenant score cache
//!
//! Candidate designs recur across tenants — two users searching the same
//! workload will rediscover the same heuristics. The scheduler gives
//! every job a private [`nada_core::score_cache::CacheView`] over one
//! shared [`nada_core::score_cache::ScoreCache`]: evaluation results are
//! keyed by (config fingerprint, design source), so a hit returns the
//! exact bits a fresh evaluation would have produced, and hit/miss
//! counters stay per-job for reporting.

pub mod client;
pub mod daemon;
pub mod proto;
pub mod scheduler;
pub mod spool;
pub mod wire;

pub use client::{Client, ClientError};
pub use daemon::Daemon;
pub use proto::{JobResult, JobStatus, MetricEntry, ProgressFrame, Request, Response, StatsReport};
pub use scheduler::{JobState, Scheduler};
pub use spool::{Spool, SpooledJob};
pub use wire::{read_frame, write_frame, WireError, MAX_FRAME};
