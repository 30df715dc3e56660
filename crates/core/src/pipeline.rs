//! The end-to-end layout tool: analysis inputs → suggested layout + report.
//!
//! This is the programmatic equivalent of the paper's semi-automatic tool
//! (Fig. 3): given the static affinity graph (from the compiler + PBO) and
//! the sampled CycleLoss map (from Caliper + the concurrency scripts), it
//! builds the FLG, clusters it, and emits both the concrete layout and the
//! human-readable advisory.

use crate::cluster::{cluster, Clustering};
use crate::flg::{Flg, FlgParams};
use crate::layoutgen::{layout_from_clusters, LayoutOptions};
use crate::refine::refine;
use crate::report::LayoutReport;
use crate::subgraph::{best_effort_layout, SubgraphParams};
use slopt_ir::affinity::AffinityGraph;
use slopt_ir::layout::{LayoutError, StructLayout};
use slopt_ir::types::RecordType;
use slopt_sample::CycleLossMap;

/// All tuning knobs of the tool.
#[derive(Copy, Clone, Debug, Default)]
pub struct ToolParams {
    /// FLG edge-weight constants.
    pub flg: FlgParams,
    /// Layout materialization options.
    pub layout: LayoutOptions,
    /// Importance filter for [`suggest_constrained`].
    pub subgraph: SubgraphParams,
    /// Refine the greedy clustering by local search (the paper's §7
    /// "better clustering algorithm" future work).
    pub refine: bool,
}

/// The tool's output for one record.
#[derive(Clone, Debug)]
pub struct Suggestion {
    /// The suggested concrete layout.
    pub layout: StructLayout,
    /// The cluster partition behind it.
    pub clustering: Clustering,
    /// The FLG the decision was made on.
    pub flg: Flg,
    /// The advisory report (inter/intra-cluster weights, important edges).
    pub report: LayoutReport,
}

/// Runs the fully automatic flow (§5.1): FLG → greedy clustering → layout.
///
/// Every phase (FLG build, clustering, optional refinement, layout
/// materialization, report) runs under its own span in `obs`, and
/// per-layout statistics are flushed as counters — notably
/// `layout.bytes_moved`, the summed absolute field displacement versus
/// declaration order.
///
/// # Errors
///
/// Returns a [`LayoutError`] if layout materialization fails.
///
/// # Panics
///
/// Panics if `affinity`/`loss` describe different records than `record`'s
/// field count implies.
pub fn suggest_layout(
    record: &RecordType,
    affinity: &AffinityGraph,
    loss: Option<&CycleLossMap>,
    params: ToolParams,
    obs: &slopt_obs::Obs,
) -> Result<Suggestion, LayoutError> {
    let _span = obs.span("suggest_layout");
    let flg = Flg::build(affinity, loss, params.flg, obs);
    let mut clustering = cluster(&flg, record, params.layout.line_size, obs);
    if params.refine {
        let _refine = obs.span("refine");
        clustering = refine(&flg, record, &clustering, params.layout.line_size).0;
    }
    let layout = {
        let _gen = obs.span("layout_gen");
        layout_from_clusters(record, &clustering, &flg, params.layout)?
    };
    let report = {
        let _rep = obs.span("report");
        LayoutReport::build(record, &flg, &clustering)
    };
    if obs.enabled() {
        obs.counter("layout.records", 1);
        if let Ok(decl) = StructLayout::declaration_order(record, params.layout.line_size) {
            let moved: u64 = layout
                .order()
                .iter()
                .map(|&f| layout.offset(f).abs_diff(decl.offset(f)))
                .sum();
            obs.counter("layout.bytes_moved", moved);
        }
        // Per-struct objective distribution, in milli-units so sub-1.0
        // scores keep three decimal digits inside the integer histogram.
        // The score is a pure function of the FLG, so the distribution is
        // identical at any --jobs value.
        let score = crate::delta::clustering_score(&flg, &clustering);
        obs.histogram("flg.objective_milli", (score.max(0.0) * 1e3).round() as u64);
    }
    Ok(Suggestion {
        layout,
        clustering,
        flg,
        report,
    })
}

/// One record's inputs for the batch entry point
/// [`suggest_layout_all`].
#[derive(Copy, Clone, Debug)]
pub struct LayoutRequest<'a> {
    /// The record to lay out.
    pub record: &'a RecordType,
    /// Its static affinity graph (CycleGain side).
    pub affinity: &'a AffinityGraph,
    /// Its sampled CycleLoss map, if concurrency data exists.
    pub loss: Option<&'a CycleLossMap>,
}

/// Runs [`suggest_layout`] for every request, fanning records out across
/// up to `jobs` host threads, under a `suggest_layout_all` span (workers
/// get distinct trace thread ids).
///
/// Records are independent units of work — each suggestion reads only its
/// own affinity graph and loss map — so the result is **bit-identical**
/// for every `jobs` value: results come back in request order, and no
/// suggestion depends on shared mutable state. `jobs == 1` is exactly the
/// serial loop.
pub fn suggest_layout_all(
    requests: &[LayoutRequest<'_>],
    params: ToolParams,
    jobs: usize,
    obs: &slopt_obs::Obs,
) -> Vec<Result<Suggestion, LayoutError>> {
    let _span = obs.span("suggest_layout_all");
    crate::par_map(jobs, requests, |_, req| {
        suggest_layout(req.record, req.affinity, req.loss, params, obs)
    })
}

/// Runs the incremental flow (§5.2): cluster only the important-edge
/// subgraph and apply the constraints to `original`.
///
/// # Errors
///
/// Returns a [`LayoutError`] if layout materialization fails.
pub fn suggest_constrained(
    record: &RecordType,
    original: &StructLayout,
    affinity: &AffinityGraph,
    loss: Option<&CycleLossMap>,
    params: ToolParams,
) -> Result<StructLayout, LayoutError> {
    let flg = Flg::build(affinity, loss, params.flg, &slopt_obs::Obs::disabled());
    best_effort_layout(
        record,
        original,
        &flg,
        params.subgraph,
        params.layout.line_size,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use slopt_ir::builder::{FunctionBuilder, ProgramBuilder};
    use slopt_ir::cfg::InstanceSlot;
    use slopt_ir::interp::profile_invocations;
    use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordType, TypeRegistry};

    /// Affinity-only pipeline: loop-affine fields co-locate.
    #[test]
    fn suggests_colocating_affine_fields() {
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![
                ("hot1", FieldType::Prim(PrimType::U64)),
                (
                    "cold",
                    FieldType::Array {
                        elem: PrimType::U64,
                        len: 20,
                    },
                ),
                ("hot2", FieldType::Prim(PrimType::U64)),
            ],
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("sweep");
        let e = fb.add_block();
        let body = fb.add_block();
        let x = fb.add_block();
        fb.jump(e, body);
        fb.read(body, s, FieldIdx(0), InstanceSlot(0));
        fb.read(body, s, FieldIdx(2), InstanceSlot(0));
        fb.loop_latch(body, body, x, 500);
        let id = pb.add(fb, e);
        let prog = pb.finish();
        let profile = profile_invocations(&prog, &[id], 1, 100_000).unwrap();
        let affinity = slopt_ir::affinity::AffinityGraph::analyze(&prog, &profile, s);

        let rec = prog.registry().record(s);
        let suggestion = suggest_layout(
            rec,
            &affinity,
            None,
            ToolParams::default(),
            &slopt_obs::Obs::disabled(),
        )
        .unwrap();
        // hot1 and hot2 must share a cache line despite the 160-byte blob
        // declared between them.
        assert!(suggestion.layout.share_line(FieldIdx(0), FieldIdx(2)));
        assert_eq!(suggestion.clustering.cluster_of(FieldIdx(0)), Some(0));
        assert_eq!(
            suggestion.clustering.cluster_of(FieldIdx(0)),
            suggestion.clustering.cluster_of(FieldIdx(2))
        );
        assert!(suggestion.report.to_string().contains("hot1"));
    }

    #[test]
    fn batch_suggestions_match_serial_for_any_job_count() {
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![
                ("hot1", FieldType::Prim(PrimType::U64)),
                (
                    "cold",
                    FieldType::Array {
                        elem: PrimType::U64,
                        len: 20,
                    },
                ),
                ("hot2", FieldType::Prim(PrimType::U64)),
            ],
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("sweep");
        let e = fb.add_block();
        let body = fb.add_block();
        let x = fb.add_block();
        fb.jump(e, body);
        fb.read(body, s, FieldIdx(0), InstanceSlot(0));
        fb.read(body, s, FieldIdx(2), InstanceSlot(0));
        fb.loop_latch(body, body, x, 500);
        let id = pb.add(fb, e);
        let prog = pb.finish();
        let profile = profile_invocations(&prog, &[id], 1, 100_000).unwrap();
        let affinity = slopt_ir::affinity::AffinityGraph::analyze(&prog, &profile, s);
        let rec = prog.registry().record(s);

        // The same request many times over: every slot must come back
        // identical regardless of how the work was scheduled.
        let requests: Vec<LayoutRequest<'_>> = (0..16)
            .map(|_| LayoutRequest {
                record: rec,
                affinity: &affinity,
                loss: None,
            })
            .collect();
        let serial = suggest_layout_all(
            &requests,
            ToolParams::default(),
            1,
            &slopt_obs::Obs::disabled(),
        );
        let parallel = suggest_layout_all(
            &requests,
            ToolParams::default(),
            4,
            &slopt_obs::Obs::disabled(),
        );
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.layout, b.layout);
            assert_eq!(a.clustering.clusters(), b.clustering.clusters());
        }
    }

    #[test]
    fn constrained_mode_preserves_original_tail() {
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            (0..8)
                .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
                .collect(),
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("noop");
        let e = fb.add_block();
        fb.read(e, s, FieldIdx(0), InstanceSlot(0));
        let id = pb.add(fb, e);
        let prog = pb.finish();
        let profile = profile_invocations(&prog, &[id], 1, 100).unwrap();
        let affinity = slopt_ir::affinity::AffinityGraph::analyze(&prog, &profile, s);
        let rec = prog.registry().record(s);
        let original = StructLayout::declaration_order(rec, 128).unwrap();
        let layout =
            suggest_constrained(rec, &original, &affinity, None, ToolParams::default()).unwrap();
        // No important edges: unchanged order.
        assert_eq!(layout.order(), original.order());
    }
}
