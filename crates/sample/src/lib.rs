//! # slopt-sample — synchronized sampling and Code Concurrency
//!
//! The runtime-measurement half of the CGO 2007 structure-layout paper.
//! Where the paper uses HP Caliper reading the Itanium PMU in whole-system
//! mode, this crate attaches a [`Sampler`] to the `slopt-sim` engine:
//!
//! 1. [`sampler`] — collect `(CPU, time, source line)` samples at a fixed
//!    period (default 100 000 cycles), with optional phase jitter and
//!    sample loss. [`ExactCounter`] records every block execution instead,
//!    as ground truth for validation.
//! 2. [`concurrency`] — bucket samples into fixed intervals (default
//!    ~1 ms) and compute **Code Concurrency** per source-line pair:
//!    `CC(Bi,Bj) = Σ_I Σ_{Pm≠Pn} min(F_I(Pm,Bi), F_I(Pn,Bj))`.
//! 3. [`cycleloss`] — join the concurrency map with the compiler's Field
//!    Mapping File to estimate **CycleLoss** per field pair: the penalty
//!    of co-locating two fields on one cache line.
//!
//! The output of step 3 is the negative-edge input of the Field Layout
//! Graph built in `slopt-core`.
//!
//! For traces that arrive in pieces, [`shard`] carries samples as
//! `slopt-shard/1` shards, and [`window`] folds them with the
//! bounded-memory [`StreamingConcurrency`] (bit-identical to step 2) or
//! the sliding [`WindowedConcurrency`] of the `slopt-serve` daemon, whose
//! [`WindowedConcurrency::ingest_dir`] is the one fold over a shard
//! directory.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod concurrency;
pub mod cycleloss;
pub mod sampler;
pub mod shard;
pub mod window;

pub use concurrency::{
    concurrency_map, concurrency_map_naive, concurrency_map_obs, ConcurrencyConfig, ConcurrencyMap,
    LineId, LineInterner, PARALLEL_FINISH_MIN_CELLS,
};
pub use cycleloss::{cycle_loss, cycle_loss_filtered, cycle_loss_weighted, CycleLossMap};
pub use sampler::{ExactCounter, Sample, Sampler, SamplerConfig};
pub use shard::{decode_shard, encode_shard, read_shard, shard_files, write_shard, ShardError};
pub use window::{StreamingConcurrency, WindowedConcurrency};
