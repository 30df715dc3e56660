//! Turning a cluster partition into a concrete structure layout.
//!
//! Each cluster becomes a cache-line-aligned group of the output layout,
//! realizing the separation the clustering decided on (the paper's "assign
//! the fields from a partition to a separate cache line").
//!
//! **Cold-tail packing.** The greedy algorithm leaves every cold,
//! unconnected field in a singleton cluster. Materializing each of those as
//! its own cache line would bloat the record (one line per cold field), so
//! clusters whose fields were never referenced (hotness 0) are coalesced
//! into a single packed tail group. This is an engineering choice the paper
//! leaves implicit; it never affects hot-field placement. Global variable
//! layout ([`crate::gvl`]) materializes its sections here too, so fields
//! and globals share one cold-tail policy.

use crate::cluster::Clustering;
use crate::flg::Flg;
use slopt_ir::layout::{LayoutError, StructLayout};
use slopt_ir::types::RecordType;

/// Options for layout materialization.
#[derive(Copy, Clone, Debug)]
pub struct LayoutOptions {
    /// Cache-line size of the target machine.
    pub line_size: u64,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        LayoutOptions {
            line_size: slopt_ir::layout::DEFAULT_LINE_SIZE,
        }
    }
}

/// Materializes a clustering as a [`StructLayout`].
///
/// # Errors
///
/// Returns a [`LayoutError`] if the clustering is not a partition of the
/// record's fields.
pub fn layout_from_clusters(
    record: &RecordType,
    clustering: &Clustering,
    flg: &Flg,
    opts: LayoutOptions,
) -> Result<StructLayout, LayoutError> {
    let mut hot_groups: Vec<Vec<slopt_ir::types::FieldIdx>> = Vec::new();
    let mut cold_tail: Vec<slopt_ir::types::FieldIdx> = Vec::new();
    for cluster in clustering.clusters() {
        if cluster.iter().all(|&f| flg.hotness(f) == 0) {
            cold_tail.extend_from_slice(cluster);
        } else {
            hot_groups.push(cluster.clone());
        }
    }
    if !cold_tail.is_empty() {
        hot_groups.push(cold_tail);
    }
    StructLayout::from_groups(record, &hot_groups, opts.line_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster;
    use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordId, RecordType};

    fn record_u64(n: usize) -> RecordType {
        RecordType::new(
            "S",
            (0..n)
                .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
                .collect(),
        )
    }

    #[test]
    fn clusters_land_on_separate_lines() {
        let rec = record_u64(4);
        let flg = Flg::from_parts(
            RecordId(0),
            vec![10, 10, 10, 10],
            vec![
                (FieldIdx(0), FieldIdx(1), 5.0),
                (FieldIdx(2), FieldIdx(3), 5.0),
                (FieldIdx(0), FieldIdx(2), -9.0),
                (FieldIdx(0), FieldIdx(3), -9.0),
                (FieldIdx(1), FieldIdx(2), -9.0),
                (FieldIdx(1), FieldIdx(3), -9.0),
            ],
        );
        let c = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        assert_eq!(c.len(), 2);
        let layout = layout_from_clusters(&rec, &c, &flg, LayoutOptions::default()).unwrap();
        // Cluster {0,1} on line 0; {2,3} on line 1.
        assert!(layout.share_line(FieldIdx(0), FieldIdx(1)));
        assert!(layout.share_line(FieldIdx(2), FieldIdx(3)));
        assert!(!layout.share_line(FieldIdx(0), FieldIdx(2)));
        assert_eq!(layout.line_span(), 2);
    }

    #[test]
    fn cold_tail_is_packed_not_exploded() {
        // 1 hot field + 20 cold fields: without packing this would be 21
        // lines; with packing it is 2.
        let rec = record_u64(21);
        let mut hot = vec![0u64; 21];
        hot[0] = 100;
        let flg = Flg::from_parts(RecordId(0), hot, vec![]);
        let c = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        assert_eq!(c.len(), 21);
        let layout = layout_from_clusters(&rec, &c, &flg, LayoutOptions::default()).unwrap();
        // Hot line + 20 packed cold u64s (160 bytes = 2 lines) = 3 lines,
        // versus 21 without cold-tail packing.
        assert_eq!(layout.line_span(), 3);
        // Cold fields share lines with each other but not with the hot one.
        for i in 1..21u32 {
            assert!(!layout.share_line(FieldIdx(0), FieldIdx(i)));
        }
    }

    #[test]
    fn layout_is_a_permutation() {
        let rec = record_u64(10);
        let flg = Flg::from_parts(
            RecordId(0),
            (0..10u64).rev().map(|i| i * 3).collect(),
            vec![(FieldIdx(3), FieldIdx(7), 4.0)],
        );
        let c = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        let layout = layout_from_clusters(&rec, &c, &flg, LayoutOptions::default()).unwrap();
        let mut order = layout.order().to_vec();
        order.sort();
        assert_eq!(order, (0..10u32).map(FieldIdx).collect::<Vec<_>>());
    }
}
