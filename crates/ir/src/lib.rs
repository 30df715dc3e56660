//! # slopt-ir — compiler substrate for structure layout optimization
//!
//! This crate provides the compiler-side infrastructure the CGO 2007 paper
//! *"Structure Layout Optimization for Multithreaded Programs"* assumes
//! from its host compiler (HP's SYZYGY IPO framework):
//!
//! * **Record types** with C sizes/alignments ([`types`]) and concrete
//!   **layouts** under C placement rules ([`layout`]), including
//!   cluster-grouped layouts where each cluster starts on a cache-line
//!   boundary.
//! * A small **IR** of functions, basic blocks and field-access
//!   instructions ([`mod@cfg`], [`builder`]), with source-line correlation
//!   ([`source`]).
//! * **Dominators** ([`dom`]) and **natural loops** ([`loops`]), which
//!   define affinity-group granularity.
//! * **Profiles** ([`profile`]) produced by a deterministic reference
//!   interpreter ([`interp`]) — the "profile collect" phase.
//! * The **static affinity analysis** ([`affinity`]) with the paper's
//!   Minimum Heuristic, reproducing Fig. 5 of the paper exactly (see the
//!   `paper_fig5_affinity_graph` test).
//! * The **Field Mapping File** ([`fmf`]): source line → fields accessed,
//!   which the sampling side joins with concurrency data.
//!
//! Everything is deterministic given a seed; the crate has no dependencies.
//!
//! ## Example
//!
//! ```
//! use slopt_ir::builder::{FunctionBuilder, ProgramBuilder};
//! use slopt_ir::cfg::InstanceSlot;
//! use slopt_ir::interp::profile_invocations;
//! use slopt_ir::affinity::AffinityGraph;
//! use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordType, TypeRegistry};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut reg = TypeRegistry::new();
//! let s = reg.add_record(RecordType::new(
//!     "S",
//!     vec![("x", FieldType::Prim(PrimType::U64)),
//!          ("y", FieldType::Prim(PrimType::U64))],
//! ));
//! let mut pb = ProgramBuilder::new(reg);
//! let mut fb = FunctionBuilder::new("sweep");
//! let entry = fb.add_block();
//! let body = fb.add_block();
//! let exit = fb.add_block();
//! fb.jump(entry, body);
//! fb.read(body, s, FieldIdx(0), InstanceSlot(0))
//!   .read(body, s, FieldIdx(1), InstanceSlot(0))
//!   .loop_latch(body, body, exit, 1000);
//! let f = pb.add(fb, entry);
//! let prog = pb.finish();
//!
//! let profile = profile_invocations(&prog, &[f], 42, 1_000_000)?;
//! let graph = AffinityGraph::analyze(&prog, &profile, s);
//! assert_eq!(graph.weight(FieldIdx(0), FieldIdx(1)), 1000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affinity;
pub mod builder;
pub mod cfg;
pub mod dom;
pub mod fmf;
pub mod inline;
pub mod interp;
pub mod layout;
pub mod loops;
pub mod par;
pub mod profile;
pub mod source;
pub mod text;
pub mod types;

pub use affinity::{AffinityGraph, AffinityMode};
pub use builder::{FunctionBuilder, ProgramBuilder};
pub use cfg::{
    AccessKind, BasicBlock, BlockId, FieldAccess, FuncId, Function, InstanceSlot, Instr, Program,
    Terminator,
};
pub use fmf::FieldMap;
pub use inline::{inline_program, InlineParams};
pub use layout::{align_up, LayoutError, StructLayout, DEFAULT_LINE_SIZE};
pub use par::{
    default_jobs, par_map, par_map_supervised, FailureKind, FaultReport, ItemFailure,
    SupervisePolicy, WorkerError,
};
pub use profile::Profile;
pub use source::SourceLine;
pub use text::{parse_program, print_program, ParseError};
pub use types::{FieldDef, FieldIdx, FieldType, PrimType, RecordId, RecordType, TypeRegistry};
