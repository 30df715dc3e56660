//! # slopt-bench — harnesses regenerating the paper's figures
//!
//! Each binary reruns part of the paper's evaluation section and prints
//! the corresponding tables (see `EXPERIMENTS.md` at the repository root
//! for paper-vs-measured records):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig8` | Fig. 8 — automatic layout vs sort-by-hotness, 128-way Superdome |
//! | `fig9` | Fig. 9 — the same layouts on the 4-way bus machine |
//! | `fig10` | Fig. 10 — best layout per struct (automatic vs constrained) |
//! | `fig_search` | §7 future work — greedy clustering vs the annealing layout search |
//! | `ablate [NAME...]` | the side studies, one row each of [`ablations`]: CC validation (§4.2–4.3), the CycleLoss constant, the Minimum Heuristic (§4.1), block size, sampling (§4.2), CycleLoss vs ground truth, refinement, remote latency, inlining (§3.1), protocol, the §5.2 noise floor |
//!
//! This library holds one implementation of each job those binaries and
//! `slopt-tool` run — the figure table and its measuring code, the
//! ablation table, the greedy-vs-search row, the complete-or-degrade grid
//! step, the flag parser — and the binaries are thin callers of it;
//! `cargo bench` additionally runs Criterion micro-benchmarks of the
//! tool itself and a *real-hardware* false-sharing benchmark using
//! `#[repr(C)]` layouts on host threads.

pub mod ablate;
pub mod args;
pub mod harness;
pub mod runner;
mod store;

pub use ablate::{ablations, select_ablations, Ablation};
pub use args::{
    extra_flag, help_text, usage_exit, ArgError, CommonArgs, EXIT_CODE_TABLE, FLAG_REFERENCE,
};
pub use harness::{
    derive_paper_layouts, figure_main, figure_setup, kernel_records, measure_paper_figure,
    paper_figures, search_row, select_records, FigureSetup, PaperFigure, SearchRow, SearchRowCfg,
};
pub use runner::{
    figure, measure_cells, measure_complete, resolve, Cell, ExecCtx, FaultConfig, FigureOutcome,
    GridError, GridOutcome, SITE_CKPT, SITE_WORKER,
};
pub use store::{AppendLog, CheckpointSpec, RunMemo, RUNS_FILE};
