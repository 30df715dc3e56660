//! # slopt-workload — the synthetic HP-UX kernel and SDET-like benchmark
//!
//! The paper evaluates its layout tool on proprietary HP-UX kernel
//! structures under SPEC SDM 057.sdet. This crate provides open
//! equivalents:
//!
//! * [`structs`] — five kernel structures (A–E) whose field counts,
//!   hand-tuned baselines and sharing characters match the paper's
//!   descriptions (A: >100 fields with heavy false sharing on stats
//!   counters; B–E: varying affinity/contention mixes).
//! * [`kernel`] — syscall-like IR functions over those structures, exposed
//!   as a weighted [`kernel::Action`] mix.
//! * [`sdet`] — the throughput driver: scripts per CPU, warm-up + n runs,
//!   outlier-trimmed mean, on configurable machines
//!   ([`sdet::Machine::superdome`], [`sdet::Machine::bus`]).
//! * [`mod@analyze`] — the instrumented measurement run (PBO profile + PMU
//!   samples → Code Concurrency → CycleLoss), including the paper's
//!   alias-analysis mitigation for per-CPU instances.
//! * [`experiments`] — figure inputs: derive the tool / sort-by-hotness /
//!   constrained layouts once and build each figure's grid of layout
//!   tables (Figures 8, 9, 10); `slopt-bench`'s runner measures the grid.
//! * [`mod@search`] — greedy-vs-search: the `slopt-search` annealing
//!   portfolio run on the tool's own per-record FLG, its candidates
//!   materialized as layouts for `slopt-bench` to measure.
//! * [`stress`] — a shipped workload spec whose affinity structure traps
//!   the greedy clustering in a local optimum the search escapes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod experiments;
pub mod kernel;
pub mod sdet;
pub mod search;
pub mod spec;
pub mod stress;
pub mod structs;
pub mod validate;

pub use analyze::{
    analyze, analyze_obs, constrained_for, loss_for, suggest_for, suggest_for_obs, AnalysisConfig,
    KernelAnalysis,
};
pub use experiments::{
    best_rows, compute_paper_layouts_jobs, compute_paper_layouts_jobs_obs, figure_from_throughputs,
    figure_tables, Figure, FigureCellMeta, FigureRow, LayoutKind, PaperLayouts,
};
pub use kernel::{build_kernel, Action, CustomWorkload, Kernel, SlotKind, WorkloadSpec};
pub use sdet::{
    baseline_layouts, build_scripts, layouts_with, measure, measurement_seeds, run_once,
    run_once_logged, run_once_obs, Instances, Machine, SdetConfig, SdetRun, Throughput,
};
pub use search::{search_for, search_for_obs, StructSearch};
pub use spec::{parse_workload_file, SpecError};
pub use stress::{stress_workload, workload_records, SEARCH_STRESS_SPEC};
pub use structs::{KernelRecords, STAT_CLASSES};
pub use validate::{ground_truth_loss, GroundTruthLoss};
