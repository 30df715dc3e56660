//! # slopt-bench — harnesses regenerating the paper's figures
//!
//! Each binary reruns one experiment of the paper's evaluation section and
//! prints the corresponding table (see `EXPERIMENTS.md` at the repository
//! root for paper-vs-measured records):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig8` | Fig. 8 — automatic layout vs sort-by-hotness, 128-way Superdome |
//! | `fig9` | Fig. 9 — the same layouts on the 4-way bus machine |
//! | `fig10` | Fig. 10 — best layout per struct (automatic vs constrained) |
//! | `cc_validation` | §4.2–4.3 — sampled Code Concurrency vs exact counts, 4-way vs 16-way stability |
//! | `ablation_k2` | CycleLoss constant sweep |
//! | `ablation_min_heuristic` | Minimum Heuristic vs naive group weights |
//! | `ablation_blocksize` | 64 B vs 128 B coherence blocks |
//! | `ablation_sampling` | sampling period / interval sensitivity |
//!
//! This library holds one implementation of each job those binaries and
//! `slopt-tool` run — the figure table and its measuring code, the greedy-vs-search
//! row, the complete-or-degrade grid step, the flag parser — and the
//! binaries are thin callers of it; `cargo bench` additionally runs
//! Criterion micro-benchmarks of the
//! tool itself and a *real-hardware* false-sharing benchmark using
//! `#[repr(C)]` layouts on host threads.

pub mod args;
pub mod checkpoint;
pub mod harness;
mod memo;
pub mod runner;

pub use args::{
    extra_flag, help_text, usage_exit, ArgError, CommonArgs, EXIT_CODE_TABLE, FLAG_REFERENCE,
};
pub use checkpoint::{fingerprint, guard_cc_snapshot, Checkpoint, CheckpointSpec};
pub use harness::{
    derive_paper_layouts, figure_main, figure_setup, kernel_records, measure_paper_figure,
    paper_figures, search_row, select_records, FigureSetup, PaperFigure, SearchRow, SearchRowCfg,
};
pub use memo::RunMemo;
pub use runner::{
    figure, measure_cells, measure_complete, resolve, Cell, ExecCtx, FaultConfig, FigureOutcome,
    GridError, GridOutcome, SITE_CKPT, SITE_WORKER,
};
