//! Greedy-vs-search integration: run the `slopt-search` portfolio on
//! the same per-record FLG the tool clusters, and materialize candidate
//! clusterings as concrete layouts. The FLG objective is a model and the
//! simulator the ground truth, so `slopt-bench`'s `search_row` measures
//! the top-k candidates as one grid before choosing one.

use crate::analyze::{affinity_for, loss_for, KernelAnalysis};
use crate::kernel::WorkloadSpec;
use slopt_core::{layout_from_clusters, Flg, ToolParams};
use slopt_ir::layout::StructLayout;
use slopt_ir::types::RecordId;
use slopt_obs::Obs;
use slopt_search::{search_layout, ChainResult, Portfolio, SearchOutcome, SearchParams};

/// One record's portfolio result, alongside the FLG it was scored on.
#[derive(Debug)]
pub struct StructSearch {
    /// The record searched.
    pub rec: RecordId,
    /// The FLG (tool edge-weight parameters applied) of the objective.
    pub flg: Flg,
    /// The portfolio outcome: greedy score, every chain, winner index.
    pub outcome: SearchOutcome,
}

impl StructSearch {
    /// Materializes one candidate clustering as a concrete layout.
    ///
    /// # Panics
    ///
    /// Panics if layout materialization fails (it cannot for clusterings
    /// produced by the search: they cover every field exactly once).
    pub fn layout_of(
        &self,
        kernel: &impl WorkloadSpec,
        candidate: &ChainResult,
        tool: ToolParams,
    ) -> StructLayout {
        layout_from_clusters(
            kernel.record_type(self.rec),
            &candidate.clustering(),
            &self.flg,
            tool.layout,
        )
        .expect("search clusterings always materialize")
    }
}

/// Runs the search portfolio for one record: the FLG is built exactly
/// as [`suggest_for`](crate::analyze::suggest_for) builds it (affinity
/// plus alias-weighted CycleLoss under `tool.flg`), so the greedy
/// baseline inside the outcome is the tool's own clustering.
pub fn search_for(
    kernel: &impl WorkloadSpec,
    analysis: &KernelAnalysis,
    rec: RecordId,
    tool: ToolParams,
    params: &SearchParams,
    portfolio: Portfolio,
    jobs: usize,
) -> StructSearch {
    search_for_obs(
        kernel,
        analysis,
        rec,
        tool,
        params,
        portfolio,
        jobs,
        &Obs::disabled(),
    )
}

/// [`search_for`] with instrumentation: FLG build and the chain
/// portfolio emit their spans and `search.*` counters to `obs`.
#[allow(clippy::too_many_arguments)]
pub fn search_for_obs(
    kernel: &impl WorkloadSpec,
    analysis: &KernelAnalysis,
    rec: RecordId,
    tool: ToolParams,
    params: &SearchParams,
    portfolio: Portfolio,
    jobs: usize,
    obs: &Obs,
) -> StructSearch {
    let affinity = affinity_for(kernel, analysis, rec);
    let loss = loss_for(kernel, analysis, rec);
    let flg = Flg::build(&affinity, Some(&loss), tool.flg, obs);
    // The search must cluster at the same line size the tool's greedy
    // pass uses, or the two objectives are not comparable.
    let params = SearchParams {
        line_size: tool.layout.line_size,
        ..*params
    };
    let outcome = search_layout(&flg, kernel.record_type(rec), &params, portfolio, jobs, obs);
    StructSearch { rec, flg, outcome }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::kernel::build_kernel;
    use crate::sdet::SdetConfig;
    use slopt_search::SearchParams;

    fn quick_sdet() -> SdetConfig {
        SdetConfig {
            scripts_per_cpu: 2,
            ..SdetConfig::default()
        }
    }

    #[test]
    fn search_for_never_loses_to_greedy_and_is_jobs_invariant() {
        let kernel = build_kernel();
        let sdet = quick_sdet();
        let analysis = analyze(&kernel, &sdet, &Default::default());
        let rec = kernel.records.d;
        let params = SearchParams {
            steps: 200,
            ..SearchParams::default()
        };
        let portfolio = Portfolio {
            chains: 3,
            master_seed: 7,
        };
        let tool = ToolParams::default();
        let s1 = search_for(&kernel, &analysis, rec, tool, &params, portfolio, 1);
        let s4 = search_for(&kernel, &analysis, rec, tool, &params, portfolio, 4);
        assert!(s1.outcome.winner().score >= s1.outcome.greedy_score);
        assert_eq!(s1.outcome.best, s4.outcome.best);
        assert_eq!(
            s1.outcome.winner().score.to_bits(),
            s4.outcome.winner().score.to_bits()
        );
        assert_eq!(s1.outcome.winner().clusters, s4.outcome.winner().clusters);
        // The winner materializes into a layout covering every field.
        let layout = s1.layout_of(&kernel, s1.outcome.winner(), tool);
        assert_eq!(layout.order().len(), kernel.record_type(rec).field_count());
    }
}
