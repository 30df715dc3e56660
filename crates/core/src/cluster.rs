//! The greedy FLG clustering algorithm (paper Figs. 6 and 7).
//!
//! * Sort fields by hotness.
//! * Seed a new cluster with the hottest unassigned field.
//! * Repeatedly add the unassigned field with the largest positive summed
//!   edge weight into the cluster (`find_best_match`), skipping candidates
//!   whose addition would grow the number of cache lines the cluster
//!   needs.
//! * When no candidate has positive gain (or none fits), close the cluster
//!   and seed the next one.
//!
//! Every cluster is later materialized as a cache-line-aligned group of the
//! output layout, so fields in different clusters never share a line.

use crate::flg::FlgView;
use slopt_ir::types::{FieldIdx, RecordType};

/// A partition of a record's fields into cache-line clusters, in creation
/// (hotness) order.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Clustering {
    clusters: Vec<Vec<FieldIdx>>,
}

impl Clustering {
    /// Creates a clustering from explicit clusters.
    ///
    /// # Panics
    ///
    /// Panics if a field appears in more than one cluster.
    pub fn new(clusters: Vec<Vec<FieldIdx>>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for c in &clusters {
            for f in c {
                assert!(seen.insert(*f), "field {f} in more than one cluster");
            }
        }
        Clustering { clusters }
    }

    /// The clusters, hottest-seeded first.
    pub fn clusters(&self) -> &[Vec<FieldIdx>] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Index of the cluster containing `f`, if any.
    pub fn cluster_of(&self, f: FieldIdx) -> Option<usize> {
        self.clusters.iter().position(|c| c.contains(&f))
    }

    /// Total number of fields across clusters.
    pub fn field_count(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }
}

/// `find_best_match` (paper Fig. 7): the unassigned field with the largest
/// positive total edge weight into the cluster, among those that do not
/// grow the cluster's line count.
///
/// The fit test is O(1) per candidate: because fields are packed in order,
/// appending `f` to the cluster packs `f` after the cluster's bytes — no
/// need to re-pack the extended cluster.
fn find_best_match<V: FlgView>(
    flg: &V,
    record: &RecordType,
    cluster: &[FieldIdx],
    unassigned: &[FieldIdx],
    line_size: u64,
) -> Option<FieldIdx> {
    let current_bytes = record.packed_bytes(0, cluster.iter().copied());
    let current_lines = current_bytes.div_ceil(line_size).max(1);
    let mut best: Option<FieldIdx> = None;
    let mut best_weight = 0.0f64;
    for &f in unassigned {
        let extended_bytes = record.packed_bytes(current_bytes, [f]);
        if extended_bytes.div_ceil(line_size).max(1) > current_lines {
            continue;
        }
        let weight = flg.gain_into(f, cluster);
        if weight > best_weight {
            best_weight = weight;
            best = Some(f);
        }
    }
    best
}

/// Runs the greedy clustering (paper Fig. 6) over any FLG view — the
/// dense [`crate::flg::Flg`] in production, [`crate::flg::reference::FlgRef`] when
/// measuring the dense representation against the original hash map.
///
/// Runs under a `cluster` span and flushes `cluster.iterations` (calls
/// to `find_best_match`) and `cluster.clusters` to `obs`.
///
/// # Panics
///
/// Panics if the FLG's field count differs from the record's, or if
/// `line_size` is not a power of two.
pub fn cluster<V: FlgView>(
    flg: &V,
    record: &RecordType,
    line_size: u64,
    obs: &slopt_obs::Obs,
) -> Clustering {
    let _span = obs.span("cluster");
    assert_eq!(
        flg.field_count(),
        record.field_count(),
        "FLG and record field counts differ"
    );
    assert!(
        line_size.is_power_of_two(),
        "line size must be a power of two"
    );

    let mut iterations = 0u64;
    let mut unassigned = flg.fields_by_hotness();
    let mut clusters: Vec<Vec<FieldIdx>> = Vec::new();
    while !unassigned.is_empty() {
        let seed = unassigned.remove(0);
        let mut current = vec![seed];
        loop {
            iterations += 1;
            let Some(best) = find_best_match(flg, record, &current, &unassigned, line_size) else {
                break;
            };
            unassigned.retain(|&f| f != best);
            current.push(best);
        }
        clusters.push(current);
    }
    if obs.enabled() {
        obs.counter("cluster.iterations", iterations);
        obs.counter("cluster.clusters", clusters.len() as u64);
    }
    Clustering::new(clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flg::Flg;
    use slopt_ir::types::{FieldType, PrimType, RecordId, RecordType};

    fn record_u64(n: usize) -> RecordType {
        RecordType::new(
            "S",
            (0..n)
                .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
                .collect(),
        )
    }

    #[test]
    fn affine_fields_cluster_together() {
        // f0 hot, strongly affine to f1; f2 unrelated.
        let flg = Flg::from_parts(
            RecordId(0),
            vec![100, 50, 10],
            vec![(FieldIdx(0), FieldIdx(1), 10.0)],
        );
        let rec = record_u64(3);
        let c = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        assert_eq!(c.len(), 2);
        assert_eq!(c.clusters()[0], vec![FieldIdx(0), FieldIdx(1)]);
        assert_eq!(c.clusters()[1], vec![FieldIdx(2)]);
        assert_eq!(c.cluster_of(FieldIdx(1)), Some(0));
        assert_eq!(c.field_count(), 3);
    }

    #[test]
    fn negative_edges_separate_fields() {
        // f0 and f1 heavily false-share; both hot.
        let flg = Flg::from_parts(
            RecordId(0),
            vec![100, 90],
            vec![(FieldIdx(0), FieldIdx(1), -50.0)],
        );
        let rec = record_u64(2);
        let c = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        assert_eq!(c.len(), 2, "false-sharing fields must split");
    }

    #[test]
    fn net_weight_decides_mixed_edges() {
        // f1 pulls toward f0 (+10); f2 pulls toward f0 (+2) but repels f1
        // (-50): once f1 joins f0's cluster, f2's net gain is negative.
        let flg = Flg::from_parts(
            RecordId(0),
            vec![100, 50, 40],
            vec![
                (FieldIdx(0), FieldIdx(1), 10.0),
                (FieldIdx(0), FieldIdx(2), 2.0),
                (FieldIdx(1), FieldIdx(2), -50.0),
            ],
        );
        let rec = record_u64(3);
        let c = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        assert_eq!(c.clusters()[0], vec![FieldIdx(0), FieldIdx(1)]);
        assert_eq!(c.clusters()[1], vec![FieldIdx(2)]);
    }

    #[test]
    fn line_capacity_limits_cluster_growth() {
        // 17 mutually affine u64 fields, 128-byte lines: only 16 fit.
        let n = 17;
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                edges.push((FieldIdx(i), FieldIdx(j), 1.0));
            }
        }
        let flg = Flg::from_parts(RecordId(0), vec![10; n], edges);
        let rec = record_u64(n);
        let c = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        assert_eq!(c.len(), 2);
        assert_eq!(c.clusters()[0].len(), 16);
        assert_eq!(c.clusters()[1].len(), 1);
    }

    #[test]
    fn oversized_seed_field_gets_its_own_lines() {
        // A 200-byte array seed spans 2 lines; small affine fields may fill
        // the tail without growing the line count.
        let rec = RecordType::new(
            "S",
            vec![
                (
                    "blob",
                    FieldType::Array {
                        elem: PrimType::U8,
                        len: 200,
                    },
                ),
                ("x", FieldType::Prim(PrimType::U64)),
                ("y", FieldType::Prim(PrimType::U64)),
            ],
        );
        let flg = Flg::from_parts(
            RecordId(0),
            vec![100, 50, 50],
            vec![
                (FieldIdx(0), FieldIdx(1), 5.0),
                (FieldIdx(0), FieldIdx(2), 5.0),
            ],
        );
        let c = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        // 200 bytes uses lines 0..=1 with 56 bytes of tail: both u64s fit.
        assert_eq!(c.len(), 1);
        assert_eq!(c.clusters()[0].len(), 3);
    }

    #[test]
    fn zero_hotness_fields_become_singletons() {
        let flg = Flg::from_parts(RecordId(0), vec![0, 0, 0], vec![]);
        let rec = record_u64(3);
        let c = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        assert_eq!(c.len(), 3);
        for cl in c.clusters() {
            assert_eq!(cl.len(), 1);
        }
    }

    #[test]
    fn deterministic_given_equal_hotness() {
        let flg = Flg::from_parts(RecordId(0), vec![5; 6], vec![]);
        let rec = record_u64(6);
        let c1 = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        let c2 = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        assert_eq!(c1, c2);
    }

    #[test]
    fn paper_termination_condition_all_nonpositive() {
        // Everything connected only by negative edges: every field its own
        // cluster, in hotness order.
        let flg = Flg::from_parts(
            RecordId(0),
            vec![3, 9, 6],
            vec![
                (FieldIdx(0), FieldIdx(1), -1.0),
                (FieldIdx(0), FieldIdx(2), -1.0),
                (FieldIdx(1), FieldIdx(2), -1.0),
            ],
        );
        let rec = record_u64(3);
        let c = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        assert_eq!(
            c.clusters(),
            &[vec![FieldIdx(1)], vec![FieldIdx(2)], vec![FieldIdx(0)]]
        );
    }

    #[test]
    #[should_panic(expected = "more than one cluster")]
    fn clustering_rejects_duplicates() {
        Clustering::new(vec![vec![FieldIdx(0)], vec![FieldIdx(0)]]);
    }

    #[test]
    fn cluster_on_reference_flg_matches_dense() {
        use crate::flg::reference::FlgRef;
        let n = 17;
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                let w = if (i + j) % 3 == 0 { -2.0 } else { 1.5 };
                edges.push((FieldIdx(i), FieldIdx(j), w));
            }
        }
        let hotness: Vec<u64> = (0..n as u64).map(|i| i * 13 % 7).collect();
        let dense = Flg::from_parts(RecordId(0), hotness.clone(), edges.clone());
        let reference = FlgRef::from_parts(RecordId(0), hotness, edges);
        let rec = record_u64(n);
        assert_eq!(
            cluster(&dense, &rec, 128, &slopt_obs::Obs::disabled()),
            cluster(&reference, &rec, 128, &slopt_obs::Obs::disabled())
        );
    }
}
