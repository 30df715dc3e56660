//! `slopt-serve`: the always-available continuous layout-advisory
//! daemon.
//!
//! Collectors stream `slopt-shard/1` sample batches over a
//! length-prefixed TCP protocol ([`proto`]); the daemon folds them into
//! a *windowed, decaying* Code Concurrency state
//! ([`slopt_sample::WindowedConcurrency`]), journals every accepted
//! batch for crash-consistent resume ([`state`]), re-runs the Field
//! Layout Graph + clustering pipeline over the live window under
//! supervision when advice is requested after the window changed
//! ([`advice`]), and serves versioned advice plus health and Prometheus
//! metrics endpoints ([`daemon`]).
//!
//! The correctness contract (proved in DESIGN.md §17, enforced by the
//! end-to-end tests and the CI soak): the advice returned after any
//! ingest sequence is **bit-identical** to an offline run over the same
//! samples — across client interleavings, `--jobs`, injected transient
//! faults, graceful drain, and kill-9/restart/resume.

#![deny(missing_docs)]

pub mod advice;
pub mod client;
pub mod daemon;
pub mod proto;
pub mod state;

pub use advice::{offline_advice, Advice, Advisor, SITE_REOPT};
pub use client::{Client, SITE_CLIENT};
pub use daemon::{start, DaemonConfig, DaemonHandle, ADDR_FILE, SITE_CONN};
pub use proto::{IngestBatch, ProtoError};
pub use state::{Applied, ServeConfig, ServeState, SITE_JOURNAL};
