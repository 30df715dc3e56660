//! # slopt-core — the structure layout optimizer
//!
//! The primary contribution of the CGO 2007 paper *"Structure Layout
//! Optimization for Multithreaded Programs"*: a layout tool that optimizes
//! simultaneously for spatial locality and reduced false sharing.
//!
//! * [`flg`] — the **Field Layout Graph**: nodes are the fields of a
//!   record, edge weights are `k1·CycleGain − k2·CycleLoss`.
//! * [`mod@cluster`] — the paper's greedy clustering (Figs. 6–7): grow
//!   cache-line-sized clusters around hot seeds, maximizing intra-cluster
//!   weight.
//! * [`delta`] — the clustering objective ([`clustering_score`]) and its
//!   incremental evaluator [`DeltaObjective`], whose
//!   [`polish`](DeltaObjective::polish) is the one steepest-ascent local
//!   search.
//! * [`mod@refine`] — the §7 refinement: a polish of the greedy
//!   clustering, optional via [`ToolParams::refine`].
//! * [`layoutgen`] — materialize clusters as a concrete layout with each
//!   cluster on its own cache line(s).
//! * [`heuristics`] — the baselines: the naïve **sort-by-hotness**
//!   packing of §5.1, and random layouts.
//! * [`subgraph`] — the §5.2 "best performance" mode: keep only important
//!   edges (all negative + top-20 positive), cluster that subgraph, and
//!   apply the result as constraints on the original hand-tuned layout.
//! * [`report`] — the advisory output of the semi-automatic tool.
//! * [`gvl`] — global variable layout: a data section viewed as a record
//!   of opaque fields, laid out by [`cluster()`] and
//!   [`layout_from_clusters`].
//! * [`pipeline`] — one-call drivers: [`suggest_layout`] (fully automatic)
//!   and [`suggest_constrained`] (incremental).
//!
//! ## Example
//!
//! ```
//! use slopt_core::{cluster::cluster, flg::Flg};
//! use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordId, RecordType};
//!
//! // Two affine fields, one false-sharing counter.
//! let rec = RecordType::new(
//!     "S",
//!     vec![
//!         ("head", FieldType::Prim(PrimType::Ptr)),
//!         ("len", FieldType::Prim(PrimType::U64)),
//!         ("stat_counter", FieldType::Prim(PrimType::U64)),
//!     ],
//! );
//! let flg = Flg::from_parts(
//!     RecordId(0),
//!     vec![100, 90, 80],
//!     vec![
//!         (FieldIdx(0), FieldIdx(1), 50.0),    // traversed together
//!         (FieldIdx(0), FieldIdx(2), -400.0),  // counter false-shares
//!     ],
//! );
//! let clustering = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
//! assert_eq!(clustering.cluster_of(FieldIdx(0)), clustering.cluster_of(FieldIdx(1)));
//! assert_ne!(clustering.cluster_of(FieldIdx(0)), clustering.cluster_of(FieldIdx(2)));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod delta;
pub mod dot;
pub mod flg;
pub mod gvl;
pub mod heuristics;
pub mod layoutgen;
pub mod pipeline;
pub mod refine;
pub mod report;
pub mod subgraph;

pub use cluster::{cluster, Clustering};
pub use delta::{canonical_cluster_sum, clustering_score, DeltaObjective, Move};
pub use dot::{to_dot, DotOptions};
pub use flg::{reference::FlgRef, Flg, FlgParams, FlgView};
pub use gvl::{layout_globals, GvlProblem};
pub use heuristics::{random_layout, sort_by_hotness};
pub use layoutgen::{layout_from_clusters, LayoutOptions};
pub use pipeline::{
    suggest_constrained, suggest_layout, suggest_layout_all, LayoutRequest, Suggestion, ToolParams,
};
pub use refine::refine;
pub use report::{LayoutReport, ReportEdge};
pub use slopt_ir::par::{
    default_jobs, par_map, par_map_supervised, par_map_supervised_commit, FailureKind, FaultReport,
    ItemFailure, SupervisePolicy, WorkerError,
};
pub use subgraph::{
    best_effort_layout, constrained_layout, important_subgraph, Constraints, SubgraphParams,
};
