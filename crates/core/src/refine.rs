//! Clustering refinement — the paper's §7: "We believe that the layouts
//! can be improved further by … a better clustering algorithm."
//!
//! The greedy pass (paper Fig. 6) is order-sensitive: once a field joins
//! a cluster it never reconsiders, and a hot seed can capture a field
//! whose edges would be better spent elsewhere. [`refine`] runs a
//! steepest-ascent local search over single-field moves:
//!
//! * **objective**: total intra-cluster weight (inter-cluster weight is
//!   its complement, so maximizing one minimizes the other);
//! * **moves**: relocate one field to another cluster or to a fresh
//!   singleton, provided the destination keeps its cache-line count;
//! * **termination**: no improving move, or the move budget is exhausted.
//!
//! The result provably never scores below the greedy input, and empty
//! clusters are dropped. The search is [`DeltaObjective::polish`], the
//! same ascent that ends every `slopt-search` chain.

use crate::cluster::Clustering;
use crate::delta::{clustering_score, DeltaObjective};
use crate::flg::Flg;
use slopt_ir::types::RecordType;

/// Improves a clustering by steepest-ascent single-field moves. Returns
/// the refined clustering and its score (`>=` the input's score).
///
/// # Panics
///
/// Panics if `line_size` is not a power of two, or if the clustering does
/// not cover every field of the FLG and the record exactly once.
pub fn refine(
    flg: &Flg,
    record: &RecordType,
    clustering: &Clustering,
    line_size: u64,
) -> (Clustering, f64) {
    let mut d = DeltaObjective::new(flg, record, clustering, line_size);
    d.polish();
    let refined = d.into_clustering();
    let score = clustering_score(flg, &refined);
    (refined, score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster;
    use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordId};

    fn record_u64(n: usize) -> RecordType {
        RecordType::new(
            "S",
            (0..n)
                .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
                .collect(),
        )
    }

    /// A case the greedy pass gets wrong: the hottest field f0 grabs f2
    /// (edge +5) even though f2's edge to f3 (+8) is worth more — but f3
    /// is repelled by f0, so greedy can never bring them together.
    /// Refinement must move f2 over to f3 (an immediately improving
    /// single move: −5 + 8), then pull f4 in after it.
    #[test]
    fn refinement_fixes_a_greedy_mistake() {
        let flg = Flg::from_parts(
            RecordId(0),
            vec![100, 90, 80, 20, 10],
            vec![
                (FieldIdx(0), FieldIdx(1), 50.0),
                (FieldIdx(0), FieldIdx(2), 5.0),
                (FieldIdx(2), FieldIdx(3), 8.0),
                (FieldIdx(2), FieldIdx(4), 8.0),
                // Keep 3,4 out of cluster 0: strongly repelled by f0.
                (FieldIdx(0), FieldIdx(3), -100.0),
                (FieldIdx(0), FieldIdx(4), -100.0),
            ],
        );
        let rec = record_u64(5);
        let greedy = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        // Greedy: f0 seeds, takes f1 (+50) and f2 (+10); then {f3, f4}.
        assert_eq!(greedy.cluster_of(FieldIdx(2)), Some(0));
        let g_score = clustering_score(&flg, &greedy);

        let (refined, r_score) = refine(&flg, &rec, &greedy, 128);
        assert!(r_score >= g_score, "refinement never loses score");
        assert!(r_score > g_score, "this instance must strictly improve");
        assert_eq!(
            refined.cluster_of(FieldIdx(2)),
            refined.cluster_of(FieldIdx(3)),
            "f2 belongs with f3/f4: {refined:?}"
        );
        assert_eq!(refined.field_count(), 5);
    }

    #[test]
    fn refinement_is_idempotent_on_optima() {
        let flg = Flg::from_parts(
            RecordId(0),
            vec![10, 10, 10, 10],
            vec![
                (FieldIdx(0), FieldIdx(1), 5.0),
                (FieldIdx(2), FieldIdx(3), 5.0),
                (FieldIdx(0), FieldIdx(2), -5.0),
            ],
        );
        let rec = record_u64(4);
        let greedy = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        let (once, s1) = refine(&flg, &rec, &greedy, 128);
        let (twice, s2) = refine(&flg, &rec, &once, 128);
        assert_eq!(s1, s2);
        assert_eq!(once, twice);
    }

    #[test]
    fn capacity_is_respected() {
        // 17 mutually affine u64s: refinement cannot squeeze a 17th into
        // a full 128-byte cluster.
        let n = 17;
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                edges.push((FieldIdx(i), FieldIdx(j), 1.0));
            }
        }
        let flg = Flg::from_parts(RecordId(0), vec![10; n], edges);
        let rec = record_u64(n);
        let greedy = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        let (refined, _) = refine(&flg, &rec, &greedy, 128);
        for c in refined.clusters() {
            assert!(c.len() <= 16, "cluster exceeds a cache line: {}", c.len());
        }
        assert_eq!(refined.field_count(), n);
    }
}
