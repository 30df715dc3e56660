//! The search stress workload: a shipped [`CustomWorkload`] whose
//! affinity structure the greedy clustering provably mishandles.
//!
//! On the built-in kernel the greedy clustering is already optimal —
//! its affinity groups are small and symmetric, so every annealing
//! chain converges to the greedy score. This workload exists to
//! exercise the regime the search is *for*: every field is a 64-byte
//! buffer (two per 128-byte line, so the capacity rule binds on the
//! first pairing) and each record's hottest field has a strong
//! companion that is not its best line-mate. Greedy seeds the hottest
//! field, grabs that companion, and the capacity rule walls off the
//! better matching; the result is also a local optimum of the
//! single-field move set, so [`refine`](slopt_core::refine) is stuck
//! too. Only a search that accepts downhill steps reaches the optimal
//! pairing. See `search_stress.sirw` for the exact edge weights.

use crate::kernel::CustomWorkload;
use crate::spec::parse_workload_file;
use slopt_ir::types::RecordId;

/// The `search_stress.sirw` source, embedded so every consumer (fig
/// bins, `slopt-tool search --stress`, CI) sees the same workload
/// without a file-path dependency.
pub const SEARCH_STRESS_SPEC: &str = include_str!("search_stress.sirw");

/// Parses the embedded stress workload.
///
/// # Panics
///
/// Panics if the embedded spec does not parse — a build-time defect, so
/// covered by a unit test rather than a runtime error path.
pub fn stress_workload() -> CustomWorkload {
    parse_workload_file(SEARCH_STRESS_SPEC).expect("embedded stress spec must parse")
}

/// A custom workload's records (the stress spec's, or a `--program`
/// file's) as `(name, id)` pairs, in declaration order — the analogue of
/// `kernel.records.all()`.
pub fn workload_records(workload: &CustomWorkload) -> Vec<(String, RecordId)> {
    use crate::kernel::WorkloadSpec as _;
    workload
        .program()
        .registry()
        .records()
        .map(|(id, ty)| (ty.name().to_string(), id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{affinity_for, analyze, loss_for};
    use crate::sdet::SdetConfig;
    use crate::search::search_for;
    use slopt_core::{cluster, clustering_score, DeltaObjective, Flg, Move, ToolParams};
    use slopt_ir::types::FieldIdx;
    use slopt_search::{Portfolio, SearchParams};

    fn quick_sdet() -> SdetConfig {
        SdetConfig {
            scripts_per_cpu: 4,
            ..SdetConfig::default()
        }
    }

    #[test]
    fn spec_parses_and_names_two_records() {
        let w = stress_workload();
        let recs = workload_records(&w);
        let names: Vec<&str> = recs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["dcache_ent", "session_tbl"]);
    }

    /// The designed trap actually holds once the spec has gone through
    /// the full pipeline (simulation, profile, affinity, FLG): greedy
    /// pairs each hot field with its strongest companion, and that
    /// clustering is a local optimum of the single-field move set, so
    /// only the annealing search improves on it.
    #[test]
    fn greedy_is_trapped_in_a_local_optimum_on_both_records() {
        use crate::kernel::WorkloadSpec as _;
        let w = stress_workload();
        let sdet = quick_sdet();
        let analysis = analyze(&w, &sdet, &Default::default());
        let tool = ToolParams::default();
        for (name, rec) in workload_records(&w) {
            let affinity = affinity_for(&w, &analysis, rec);
            let loss = loss_for(&w, &analysis, rec);
            let flg = Flg::build(
                &affinity,
                Some(&loss),
                tool.flg,
                &slopt_obs::Obs::disabled(),
            );
            let record = w.record_type(rec);
            let line = tool.layout.line_size;
            let greedy = cluster(&flg, record, line, &slopt_obs::Obs::disabled());
            let greedy_score = clustering_score(&flg, &greedy);
            // Local optimality: no single feasible move improves on it.
            let d = DeltaObjective::new(&flg, record, &greedy, line);
            let n = record.field_count() as u32;
            for f in (0..n).map(FieldIdx) {
                for dst in 0..=d.cluster_count() {
                    if let Some(est) = d.score_move(Move::MoveField { field: f, dst }) {
                        assert!(
                            est <= 1e-9,
                            "{name}: move {f}->{dst} improves greedy by {est}"
                        );
                    }
                }
                for g in (0..n).map(FieldIdx) {
                    if let Some(est) = d.score_move(Move::SwapFields { a: f, b: g }) {
                        assert!(
                            est <= 1e-9,
                            "{name}: swap {f}<->{g} improves greedy by {est}"
                        );
                    }
                }
            }
            // ...and yet the search strictly beats it.
            let search = search_for(
                &w,
                &analysis,
                rec,
                tool,
                &SearchParams {
                    steps: 800,
                    ..SearchParams::default()
                },
                Portfolio {
                    chains: 4,
                    master_seed: 42,
                },
                1,
            );
            assert_eq!(
                search.outcome.greedy_score.to_bits(),
                greedy_score.to_bits()
            );
            assert!(
                search.outcome.winner().score > search.outcome.greedy_score,
                "{name}: search {} did not beat greedy {}",
                search.outcome.winner().score,
                search.outcome.greedy_score
            );
        }
    }
}
