//! # slopt-fault — deterministic fault injection
//!
//! The Code Concurrency estimator is a *sampling* technique: in
//! production it ingests lossy shard streams from flaky collectors, and
//! the experiment runner fans hours of work across worker threads that
//! can stall, die, or lose their I/O. This crate is the layer that makes
//! those failure modes *testable*: a [`FaultPlan`] is a seeded, fully
//! deterministic schedule of injected faults — worker panics, transient
//! errors, permanent errors, slow workers, failed checkpoint and journal
//! appends — that call sites consult at explicit injection points.
//!
//! Two properties make the layer useful rather than merely chaotic:
//!
//! 1. **Decisions are pure functions.** Whether a fault fires at
//!    `(site, index, attempt)` depends only on the plan's seed and
//!    rates — never on thread scheduling, wall-clock time, or global
//!    state. A fault plan therefore composes with the workspace's
//!    determinism contract: two runs under the same plan inject the
//!    same faults at the same grid items, under any `--jobs`.
//! 2. **Faults are typed.** Transient faults (retry and the result is
//!    bit-identical to a clean run) are distinct from permanent faults
//!    (the item is quarantined and the run degrades with marked holes
//!    and exit code [`exit::DEGRADED`]).
//!
//! The supervised worker pool that *contains* these faults lives beside
//! the plain scheduler in `slopt_ir::par` ([`par_map_supervised`]); this
//! crate owns the injection side and the process-level exit-code
//! vocabulary.
//!
//! [`par_map_supervised`]: https://docs.rs/slopt-ir
//!
//! ## Spec grammar
//!
//! A plan is written as a comma-separated list of `key=value` pairs
//! (the `--fault-plan` flag):
//!
//! ```text
//! seed=42,panic=0.1,transient=0.25,slow=0.1,slow-ms=5,permanent=0.02
//! ```
//!
//! | key | meaning |
//! |---|---|
//! | `seed` | decision seed (default 0) |
//! | `panic` | probability a worker attempt panics |
//! | `transient` | probability a worker attempt fails retryably |
//! | `permanent` | probability an *item* fails on every attempt |
//! | `slow` | probability a worker attempt stalls `slow-ms` |
//! | `slow-ms` | stall duration in milliseconds (default 25) |
//! | `write-error` | probability a checkpoint append is dropped |
//!
//! All probabilities are in `[0, 1]`; omitted keys default to 0, so the
//! empty spec is the no-op plan.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod io;
pub mod plan;

pub use plan::{FaultKind, FaultPlan, PlanError};

/// Process exit codes shared by `slopt-tool` and the figure/ablation
/// binaries. Distinct codes let scripts (and CI) tell *why* a run did
/// not produce a full result.
pub mod exit {
    /// Clean run, full result.
    pub const OK: u8 = 0;
    /// Unclassified internal failure (I/O, invariant breach).
    pub const FAILURE: u8 = 1;
    /// Command-line misuse: unknown flag, malformed flag value.
    pub const USAGE: u8 = 2;
    /// Input files that exist but do not parse or validate.
    pub const BAD_INPUT: u8 = 3;
    /// The run completed *degraded*: permanent faults left explicitly
    /// marked holes in the result (see the `FaultReport`).
    pub const DEGRADED: u8 = 4;
}
