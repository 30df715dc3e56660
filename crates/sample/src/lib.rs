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
//! For production-scale traces, [`shard`] replaces the in-memory trace
//! with fixed-size on-disk shards and a bounded-memory
//! [`StreamingConcurrency`] fold that is bit-identical to step 2.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod concurrency;
pub mod cycleloss;
pub mod sampler;
pub mod shard;

pub use concurrency::{
    concurrency_map, concurrency_map_naive, concurrency_map_obs, concurrency_map_reference,
    ConcurrencyConfig, ConcurrencyMap, LineId, LineInterner,
};
pub use cycleloss::{cycle_loss, cycle_loss_filtered, cycle_loss_weighted, CycleLossMap};
pub use sampler::{ExactCounter, Sample, Sampler, SamplerConfig};
pub use shard::{
    decode_shard, encode_shard, read_shard, shard_concurrency, shard_file_name, shard_files,
    write_shard, write_shards, ShardError, ShardIngestStats, ShardReader, StreamingConcurrency,
    WindowedConcurrency,
};
