//! Property tests for the annealing portfolio over randomized FLGs:
//! the winner is always a valid partition scored by the canonical
//! objective, never falls below the greedy start, and the whole
//! portfolio is bit-reproducible for every `jobs` value.

use proptest::prelude::*;
use slopt_core::{clustering_score, Flg};
use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordId, RecordType};
use slopt_search::{search_layout, Portfolio, SearchParams};

fn record_u64(n: usize) -> RecordType {
    RecordType::new(
        "R",
        (0..n)
            .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
            .collect(),
    )
}

fn arb_flg(max_fields: usize) -> impl Strategy<Value = Flg> {
    (2..max_fields).prop_flat_map(|n| {
        let hotness = prop::collection::vec(0u64..10_000, n..=n);
        let edges =
            prop::collection::vec((0u32..n as u32, 0u32..n as u32, -500.0f64..500.0), 0..n * 3);
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
    #[test]
    fn winner_is_valid_never_below_greedy_and_jobs_invariant(
        flg in arb_flg(12),
        seed in any::<u64>(),
    ) {
        let n = flg.field_count();
        let rec = record_u64(n);
        let params = SearchParams { steps: 120, ..SearchParams::default() };
        let portfolio = Portfolio { chains: 3, master_seed: seed };
        let base = search_layout(&flg, &rec, &params, portfolio, 1, &slopt_obs::Obs::disabled());

        // Winner: valid partition, canonical score, never below greedy.
        let clustering = base.winner().clustering();
        prop_assert_eq!(clustering.field_count(), n);
        prop_assert_eq!(
            base.winner().score.to_bits(),
            clustering_score(&flg, &clustering).to_bits()
        );
        prop_assert!(base.winner().score >= base.greedy_score);

        // Bit-reproducible at any fan-out.
        for jobs in [2usize, 5] {
            let out = search_layout(&flg, &rec, &params, portfolio, jobs, &slopt_obs::Obs::disabled());
            prop_assert_eq!(out.best, base.best);
            for (a, b) in out.chains.iter().zip(&base.chains) {
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
                prop_assert_eq!(&a.clusters, &b.clusters);
            }
        }
    }
}
