//! # slopt — structure layout optimization for multithreaded programs
//!
//! This crate is the facade of the `slopt` workspace, a from-scratch Rust
//! reproduction of *"Structure Layout Optimization for Multithreaded
//! Programs"* (Raman, Hundt, Mannarswamy — CGO 2007).
//!
//! The paper's contribution is a structure-field reordering technique that
//! optimizes **simultaneously** for
//!
//! * **spatial locality** — fields that are accessed together should share a
//!   cache line (*CycleGain*), and
//! * **false sharing** — fields written by one CPU while other CPUs touch
//!   neighbouring fields should live on *different* cache lines
//!   (*CycleLoss*).
//!
//! Both effects are edge weights of a **Field Layout Graph** ([`core::Flg`])
//! over the fields of a record; a greedy clustering pass partitions the graph
//! into cache-line-sized clusters which become the new layout.
//!
//! The workspace contains everything needed to run the paper's pipeline
//! end-to-end on a simulated multiprocessor:
//!
//! | module (re-export) | crate | role |
//! |---|---|---|
//! | [`ir`] | `slopt-ir` | compiler substrate: record types, C layout rules, CFGs, loops, profiles, field affinity |
//! | [`sim`] | `slopt-sim` | execution-driven multiprocessor simulator: MESI coherence, hierarchical topology, false-sharing miss classification |
//! | [`sample`] | `slopt-sample` | PMU-style whole-system sampling and *Code Concurrency* estimation |
//! | [`core`] | `slopt-core` | the paper's algorithm: FLG construction, greedy clustering, layout generation, baselines, advisory reports |
//! | [`search`] | `slopt-search` | stochastic layout superoptimization: seeded annealing chains over the FLG objective with delta evaluation |
//! | [`workload`] | `slopt-workload` | a synthetic HP-UX-like kernel plus an SDET-like multi-user throughput workload |
//! | [`obs`] | `slopt-obs` | zero-dependency instrumentation: hierarchical spans, counters, `slopt-trace/1` JSONL run traces |
//! | [`fault`] | `slopt-fault` | seed-deterministic fault plans, fault-injectable I/O, the shared process exit-code vocabulary |
//!
//! ## Quickstart
//!
//! ```
//! use slopt::ir::{AccessKind, FunctionBuilder, Program};
//! use slopt::ir::types::{FieldType, PrimType, RecordType, TypeRegistry};
//!
//! // Declare a record with three fields (the paper's Fig. 4 example).
//! let mut registry = TypeRegistry::new();
//! let rec = registry.add_record(RecordType::new(
//!     "S",
//!     vec![
//!         ("f1", FieldType::Prim(PrimType::U64)),
//!         ("f2", FieldType::Prim(PrimType::U64)),
//!         ("f3", FieldType::Prim(PrimType::U64)),
//!     ],
//! ));
//! let program = Program::new(registry);
//! assert_eq!(program.registry().record(rec).field_count(), 3);
//! ```
//!
//! See `examples/quickstart.rs` for the full pipeline (profile → sample →
//! FLG → clustering → layout) and `EXPERIMENTS.md` for how each figure of
//! the paper is regenerated.
//!
//! ## Parallel execution
//!
//! Every expensive driver fans out across host threads through one
//! primitive, [`core::par_map`] — batch layout suggestion
//! ([`core::suggest_layout_all`]) and throughput measurement, from one
//! cell to whole figure grids (`slopt-bench`'s runner), both take a
//! `jobs` argument, and both return
//! **bit-identical results for every `jobs` value** (see `DESIGN.md`,
//! "Parallel execution model").
//!
//! The supervised variant [`core::par_map_supervised`] adds panic
//! containment, deterministic retries and per-item deadlines on the same
//! scheduling; [`fault`] provides the seed-deterministic fault plans that
//! exercise it and the shared process exit-code vocabulary
//! (`DESIGN.md` §12).

pub use slopt_core as core;
pub use slopt_fault as fault;
pub use slopt_ir as ir;
pub use slopt_obs as obs;
pub use slopt_sample as sample;
pub use slopt_search as search;
pub use slopt_sim as sim;
pub use slopt_workload as workload;
