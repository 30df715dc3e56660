//! Property tests for the optimizer: clustering, subgraph filtering and
//! the constrained-edit algorithm over randomized FLGs.

use proptest::prelude::*;
use slopt_core::{
    best_effort_layout, canonical_cluster_sum, cluster, clustering_score, constrained_layout,
    important_subgraph, refine, Constraints, DeltaObjective, Flg, Move, SubgraphParams,
};
use slopt_ir::layout::StructLayout;
use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordId, RecordType};

fn record_u64(n: usize) -> RecordType {
    RecordType::new(
        "R",
        (0..n)
            .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
            .collect(),
    )
}

/// A record whose field `i` has type `palette[tys[i]]`: mixed sizes and
/// alignments, none wider than 32 bytes, so any field fits a line of 32
/// bytes or more.
fn mixed_record(n: usize, tys: &[usize]) -> RecordType {
    let palette = [
        FieldType::Prim(PrimType::U8),
        FieldType::Prim(PrimType::U16),
        FieldType::Prim(PrimType::U32),
        FieldType::Prim(PrimType::U64),
        FieldType::Array {
            elem: PrimType::U8,
            len: 24,
        },
        FieldType::Array {
            elem: PrimType::U16,
            len: 16,
        },
    ];
    RecordType::new(
        "R",
        (0..n)
            .map(|i| (format!("f{i}"), palette[tys[i]].clone()))
            .collect::<Vec<_>>(),
    )
}

fn arb_flg(max_fields: usize) -> impl Strategy<Value = Flg> {
    (2..max_fields).prop_flat_map(|n| {
        let hotness = prop::collection::vec(0u64..10_000, n..=n);
        let edges = prop::collection::vec(
            (0u32..n as u32, 0u32..n as u32, -1000.0f64..1000.0),
            0..n * 3,
        );
        (hotness, edges).prop_map(move |(h, es)| {
            let es: Vec<_> = es
                .into_iter()
                .filter(|(a, b, _)| a != b)
                .map(|(a, b, w)| (FieldIdx(a), FieldIdx(b), w))
                .collect();
            Flg::from_parts(RecordId(0), h, es)
        })
    })
}

proptest! {
    /// Greedy clustering: every cluster has non-negative internal gain for
    /// the order in which members were added, and the hottest field seeds
    /// the first cluster.
    #[test]
    fn clustering_greedy_properties(flg in arb_flg(20)) {
        let n = flg.field_count();
        let rec = record_u64(n);
        let clustering = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        prop_assert_eq!(clustering.field_count(), n);
        let hottest = flg.fields_by_hotness()[0];
        prop_assert_eq!(clustering.cluster_of(hottest), Some(0));
        // Each non-seed member had positive gain into the growing cluster
        // at insertion time.
        for cl in clustering.clusters() {
            for (i, &f) in cl.iter().enumerate().skip(1) {
                let gain = flg.gain_into(f, &cl[..i]);
                prop_assert!(
                    gain > 0.0,
                    "member {} joined with non-positive gain {}", f, gain
                );
            }
        }
    }

    /// The important subgraph never keeps more positive edges than asked
    /// for, keeps the most negative edge, and keeps no tiny-noise
    /// negatives below the floor.
    #[test]
    fn subgraph_filter_properties(flg in arb_flg(20), top in 0usize..10) {
        let params = SubgraphParams { top_positive: top, negative_floor: 0.05 };
        let sub = important_subgraph(&flg, params);
        let edges = sub.edges();
        let positives = edges.iter().filter(|e| e.2 > 0.0).count();
        prop_assert!(positives <= top);
        let most_negative = flg.edges().iter().map(|e| e.2).fold(0.0f64, f64::min);
        if most_negative < 0.0 {
            // The most negative edge survives.
            prop_assert!(edges.iter().any(|e| e.2 == most_negative));
            // Nothing below the floor survives.
            for e in &edges {
                if e.2 < 0.0 {
                    prop_assert!(-e.2 >= most_negative.abs() * params.negative_floor);
                }
            }
        }
        // Subgraph edges are a subset of the original edges.
        for (f1, f2, w) in &edges {
            prop_assert_eq!(flg.weight(*f1, *f2), *w);
        }
    }

    /// The constrained edit always yields a permutation, satisfies the
    /// separation constraints whenever every constrained cluster fits in a
    /// line, and reduces to the original when there are no constraints.
    #[test]
    fn constrained_edit_properties(flg in arb_flg(16)) {
        let n = flg.field_count();
        let rec = record_u64(n);
        let original = StructLayout::declaration_order(&rec, 128).unwrap();
        let layout = best_effort_layout(
            &rec,
            &original,
            &flg,
            SubgraphParams::default(),
            128,
        )
        .unwrap();
        let mut order = layout.order().to_vec();
        order.sort();
        prop_assert_eq!(order, rec.field_indices().collect::<Vec<_>>());

        // Recompute the constraints independently and check separation
        // (u64 fields: 16 per line, so any cluster <= 16 fields fits).
        let sub = important_subgraph(&flg, SubgraphParams::default());
        let clustering = cluster(&sub, &rec, 128, &slopt_obs::Obs::disabled());
        let constraints = Constraints::from_clustering(&sub, &clustering);
        if constraints.groups.iter().all(|g| g.len() <= 16) {
            for (i, ga) in constraints.groups.iter().enumerate() {
                for gb in &constraints.groups[i + 1..] {
                    for &fa in ga {
                        for &fb in gb {
                            prop_assert!(
                                !layout.share_line(fa, fb),
                                "constraint violated: {} and {} share a line", fa, fb
                            );
                        }
                    }
                }
            }
        }
    }

    /// The delta evaluator's committed score is bit-identical to a full
    /// canonical recompute of its cluster list after every applied move
    /// of a random mutation sequence, on records with mixed field sizes
    /// and alignments (where the packing/capacity cache earns its keep).
    #[test]
    fn delta_objective_matches_full_recompute_bitwise(
        flg in arb_flg(14),
        tys in prop::collection::vec(0usize..6, 14),
        raw_moves in prop::collection::vec(
            (0u8..4, any::<u32>(), any::<u32>(), any::<u32>()),
            0..80,
        ),
        line_pow in 5u32..8,
    ) {
        let n = flg.field_count();
        let line = 1u64 << line_pow; // 32, 64 or 128
        let rec = mixed_record(n, &tys);
        let start = cluster(&flg, &rec, line, &slopt_obs::Obs::disabled());
        let mut d = DeltaObjective::new(&flg, &rec, &start, line);
        let full = |d: &DeltaObjective<'_, Flg>| -> f64 {
            d.clusters().iter().map(|c| canonical_cluster_sum(&flg, c)).sum()
        };
        prop_assert_eq!(d.score().to_bits(), full(&d).to_bits());
        for (kind, a, b, c) in raw_moves {
            let k = d.cluster_count();
            let m = match kind {
                0 => Move::MoveField {
                    field: FieldIdx(a % n as u32),
                    dst: (b as usize) % (k + 1),
                },
                1 => Move::SwapFields {
                    a: FieldIdx(a % n as u32),
                    b: FieldIdx(b % n as u32),
                },
                2 => {
                    let cl = (a as usize) % k;
                    let len = d.clusters()[cl].len();
                    if len < 2 {
                        continue;
                    }
                    Move::Split { cluster: cl, at: 1 + (b as usize) % (len - 1) }
                }
                _ => Move::Merge {
                    dst: (a as usize) % k,
                    src: (c as usize) % k,
                },
            };
            // Feasible moves apply regardless of gain sign: the contract
            // under test is score maintenance, not hill climbing.
            if d.score_move(m).is_some() {
                d.apply(m);
                prop_assert_eq!(
                    d.score().to_bits(),
                    full(&d).to_bits(),
                    "after {:?}", m
                );
            }
        }
        // The final state is still a partition of the field set.
        let clustering = d.into_clustering();
        prop_assert_eq!(clustering.field_count(), n);
    }

    /// Refinement — the polish of the greedy clustering — on mixed-size
    /// records: it never scores below greedy, it keeps every cluster's
    /// line count (no field is wider than a line, so greedy packs each
    /// cluster into one line and so must refinement), and it stops at a
    /// fixed point: refining again changes nothing, and no single-field
    /// move from the result improves the objective.
    #[test]
    fn refine_improves_greedy_within_capacity_to_a_fixed_point(
        flg in arb_flg(14),
        tys in prop::collection::vec(0usize..6, 14),
        line_pow in 5u32..8,
    ) {
        let n = flg.field_count();
        let line = 1u64 << line_pow; // 32, 64 or 128
        let rec = mixed_record(n, &tys);
        let lines = |c: &[FieldIdx]| rec.packed_bytes(0, c.iter().copied()).div_ceil(line);
        let greedy = cluster(&flg, &rec, line, &slopt_obs::Obs::disabled());
        let (refined, score) = refine(&flg, &rec, &greedy, line);

        prop_assert!(score >= clustering_score(&flg, &greedy));
        prop_assert_eq!(score.to_bits(), clustering_score(&flg, &refined).to_bits());
        prop_assert_eq!(refined.field_count(), n);
        for c in greedy.clusters().iter().chain(refined.clusters()) {
            prop_assert_eq!(lines(c), 1, "cluster {:?} spans lines", c);
        }

        let (again, again_score) = refine(&flg, &rec, &refined, line);
        prop_assert_eq!(&again, &refined);
        prop_assert_eq!(again_score.to_bits(), score.to_bits());

        let d = DeltaObjective::new(&flg, &rec, &refined, line);
        for f in (0..n as u32).map(FieldIdx) {
            for dst in 0..=d.cluster_count() {
                if let Some(gain) = d.score_move(Move::MoveField { field: f, dst }) {
                    prop_assert!(gain <= 1e-9, "moving {} to {} gains {}", f, dst, gain);
                }
            }
        }
    }

    /// With no edges at all, the constrained edit is the identity.
    #[test]
    fn no_constraints_is_identity(n in 2usize..16, hot in prop::collection::vec(0u64..100, 16)) {
        let flg = Flg::from_parts(RecordId(0), hot[..n].to_vec(), vec![]);
        let rec = record_u64(n);
        let original = StructLayout::declaration_order(&rec, 128).unwrap();
        let layout =
            constrained_layout(&rec, &original, &Constraints { groups: vec![] }, 128).unwrap();
        prop_assert_eq!(layout.order(), original.order());
        prop_assert_eq!(layout.size(), original.size());
        let _ = flg;
    }
}
