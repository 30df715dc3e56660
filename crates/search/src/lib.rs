//! # slopt-search — stochastic layout superoptimization
//!
//! The paper's greedy clustering (Figs. 6–7) commits to a single point
//! in an enormous layout space, and [`slopt_core::refine()`] only walks
//! uphill from there. This crate searches: a portfolio of independently
//! seeded **Metropolis / simulated-annealing chains** explores
//! field→cluster assignments and intra-cluster permutations through the
//! [`DeltaObjective`] move set (move-field, swap-fields — including
//! same-cluster position swaps — split-cluster, merge-cluster), each
//! proposal scored in O(cluster degree) instead of a full objective
//! recompute.
//!
//! Determinism is a hard contract, like everywhere else in the
//! workspace:
//!
//! * each chain is a pure function of `(FLG, record, params, seed)` —
//!   its RNG is a [`SmallRng`] seeded from the chain seed, and its
//!   tracked objective is the delta evaluator's bit-identical score;
//! * chain seeds derive from the master seed by SplitMix64 expansion,
//!   so the portfolio is a pure function of the master seed;
//! * chains fan out on [`par_map_supervised`] and reduce in chain-index
//!   order with a strictly-greater comparison, so the winner — and every
//!   reported bit — is identical for every `jobs` value (ties go to the
//!   earliest seeded chain).
//!
//! The final candidate never scores below the greedy clustering it
//! starts from: every chain begins at the greedy solution, tracks its
//! best-seen state, and finishes with [`DeltaObjective::polish`] — the
//! same steepest ascent [`refine`](slopt_core::refine()) runs.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use slopt_core::cluster::{cluster, Clustering};
use slopt_core::delta::{clustering_score, DeltaObjective, Move};
use slopt_core::flg::FlgView;
use slopt_core::{par_map_supervised, FaultReport, SupervisePolicy, WorkerError};
use slopt_ir::interp::SplitMix64;
use slopt_ir::types::{FieldIdx, RecordType};
use slopt_obs::Obs;

/// Initial annealing temperature, as a multiple of the FLG's mean
/// absolute edge weight (the scale-free form keeps one schedule
/// meaningful across workloads).
const T_START: f64 = 1.0;

/// Final annealing temperature, in the same relative units.
const T_FINAL: f64 = 0.01;

/// Budget knobs of one chain.
#[derive(Copy, Clone, Debug)]
pub struct SearchParams {
    /// Proposals per chain.
    pub steps: usize,
    /// Cache-line size the capacity rule packs against.
    pub line_size: u64,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            steps: 1500,
            line_size: slopt_ir::DEFAULT_LINE_SIZE,
        }
    }
}

/// Portfolio shape: how many chains, derived from which master seed.
#[derive(Copy, Clone, Debug)]
pub struct Portfolio {
    /// Number of independently seeded chains.
    pub chains: usize,
    /// Master seed; per-chain seeds are its SplitMix64 expansion.
    pub master_seed: u64,
}

impl Default for Portfolio {
    fn default() -> Self {
        Portfolio {
            chains: 8,
            master_seed: 42,
        }
    }
}

/// What one chain found.
#[derive(Clone, Debug)]
pub struct ChainResult {
    /// Chain index within the portfolio (the tie-break key).
    pub chain: usize,
    /// The chain's RNG seed.
    pub seed: u64,
    /// Objective of `clusters` — bit-identical to
    /// [`clustering_score`] on them.
    pub score: f64,
    /// The best clustering the chain found (no empty clusters).
    pub clusters: Vec<Vec<FieldIdx>>,
    /// Proposals drawn.
    pub proposed: u64,
    /// Proposals accepted (annealing phase only).
    pub accepted: u64,
    /// Accepted moves during the final polish.
    pub polished: u64,
}

impl ChainResult {
    /// The chain's best clustering as a [`Clustering`].
    pub fn clustering(&self) -> Clustering {
        Clustering::new(self.clusters.clone())
    }
}

/// What the portfolio found.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Index into `chains` of the winner: highest score, ties to the
    /// lowest chain index.
    pub best: usize,
    /// Every chain's result, in chain order.
    pub chains: Vec<ChainResult>,
    /// Objective of the shared greedy starting point.
    pub greedy_score: f64,
    /// Supervision report of the chain fan-out.
    pub report: FaultReport,
}

impl SearchOutcome {
    /// The winning chain.
    pub fn winner(&self) -> &ChainResult {
        &self.chains[self.best]
    }

    /// Whether the winner is strictly better than greedy *as an
    /// objective value*, not merely in the last ulp. Two distinct
    /// partitions with mathematically equal objectives can differ by
    /// one ulp under the canonical fold; this uses the same `1e-9`
    /// threshold (relative to the greedy score) as the polish pass, so
    /// fold noise never counts as an improvement.
    pub fn improved(&self) -> bool {
        let eps = 1e-9 * self.greedy_score.abs().max(1.0);
        self.winner().score - self.greedy_score > eps
    }

    /// The distinct top-`k` candidate clusterings, best first (score
    /// descending, ties by chain index), deduplicated by cluster list.
    pub fn top_k(&self, k: usize) -> Vec<&ChainResult> {
        let mut order: Vec<&ChainResult> = self.chains.iter().collect();
        order.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.chain.cmp(&b.chain))
        });
        let mut out: Vec<&ChainResult> = Vec::new();
        for c in order {
            if out.len() >= k {
                break;
            }
            if !out.iter().any(|o| o.clusters == c.clusters) {
                out.push(c);
            }
        }
        out
    }
}

/// Mean absolute weight over the FLG's non-zero edges — the temperature
/// scale. `1.0` when the graph has no edges (any positive value works:
/// with no edges every move is objective-neutral).
fn weight_scale<V: FlgView>(flg: &V) -> f64 {
    let n = flg.field_count() as u32;
    let (mut total, mut edges) = (0.0f64, 0u64);
    for i in 0..n {
        for j in (i + 1)..n {
            let w = flg.weight(FieldIdx(i), FieldIdx(j));
            if w != 0.0 {
                total += w.abs();
                edges += 1;
            }
        }
    }
    if edges == 0 {
        1.0
    } else {
        total / edges as f64
    }
}

/// Draws one proposal. The draw count per call depends only on the
/// evaluator's (deterministic) state, so the RNG stream is reproducible.
fn propose<V: FlgView>(rng: &mut SmallRng, d: &DeltaObjective<'_, V>) -> Option<Move> {
    let n = d.clusters().iter().map(Vec::len).sum::<usize>() as u32;
    let k = d.cluster_count();
    debug_assert!(n >= 2 && k >= 1);
    match rng.gen_range(0u32..10) {
        // Move a field to another cluster or a fresh singleton.
        0..=5 => Some(Move::MoveField {
            field: FieldIdx(rng.gen_range(0..n)),
            dst: rng.gen_range(0..=k),
        }),
        // Exchange two positions (same cluster = permutation).
        6 | 7 => {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            Some(Move::SwapFields {
                a: FieldIdx(a),
                b: FieldIdx(b),
            })
        }
        // Split one cluster in two.
        8 => {
            let c = rng.gen_range(0..k);
            let len = d.clusters()[c].len();
            if len < 2 {
                return None;
            }
            Some(Move::Split {
                cluster: c,
                at: rng.gen_range(1..len),
            })
        }
        // Merge two clusters.
        _ => Some(Move::Merge {
            dst: rng.gen_range(0..k),
            src: rng.gen_range(0..k),
        }),
    }
}

/// Runs one annealing chain from `start`. Pure function of its
/// arguments: same inputs, same seed → bit-identical result.
pub fn run_chain<V: FlgView>(
    flg: &V,
    record: &RecordType,
    start: &Clustering,
    params: &SearchParams,
    chain: usize,
    seed: u64,
) -> ChainResult {
    let mut d = DeltaObjective::new(flg, record, start, params.line_size);
    let mut rng = SmallRng::seed_from_u64(seed);
    let scale = weight_scale(flg);
    let t0 = (T_START * scale).max(f64::MIN_POSITIVE);
    let t_final = (T_FINAL * scale).max(f64::MIN_POSITIVE).min(t0);
    let cool = if params.steps <= 1 {
        1.0
    } else {
        (t_final / t0).powf(1.0 / (params.steps - 1) as f64)
    };

    let mut t = t0;
    let (mut proposed, mut accepted) = (0u64, 0u64);
    let mut best_score = d.score();
    let mut best = d.clusters().to_vec();
    for _ in 0..params.steps {
        proposed += 1;
        let Some(m) = propose(&mut rng, &d) else {
            t *= cool;
            continue;
        };
        if let Some(delta) = d.score_move(m) {
            // Metropolis rule: always take improvements, take regressions
            // with probability exp(delta / T).
            if delta > 0.0 || rng.gen::<f64>() < (delta / t).exp() {
                d.apply(m);
                accepted += 1;
                let s = d.score();
                if s > best_score {
                    best_score = s;
                    best = d.clusters().to_vec();
                }
            }
        }
        t *= cool;
    }

    // Polish the best-seen state, not the final (possibly hot) one.
    let best = Clustering::new(best);
    let mut d = DeltaObjective::new(flg, record, &best, params.line_size);
    let polished = d.polish();
    // Canonicalize the cluster order (hottest member first, like the
    // greedy seeding order) and rescore with the canonical fold in that
    // order. Two chains that reach the same partition — or a chain that
    // ends where greedy started — now report bit-identical scores; the
    // delta evaluator's internal cluster-list order would fold the same
    // per-cluster sums in a different sequence and differ in the last
    // ulp.
    let rank: Vec<u32> = {
        let mut rank = vec![0u32; flg.field_count()];
        for (i, f) in flg.fields_by_hotness().iter().enumerate() {
            rank[f.index()] = i as u32;
        }
        rank
    };
    let mut clusters: Vec<Vec<FieldIdx>> = d.into_clustering().clusters().to_vec();
    clusters.sort_by_key(|c| c.iter().map(|f| rank[f.index()]).min().unwrap_or(u32::MAX));
    let score = clustering_score(flg, &Clustering::new(clusters.clone()));
    ChainResult {
        chain,
        seed,
        score,
        clusters,
        proposed,
        accepted,
        polished,
    }
}

/// Runs the full portfolio: greedy clustering as the shared start, then
/// `portfolio.chains` independently seeded chains fanned over up to
/// `jobs` supervised workers, reduced deterministically. Runs under a
/// `search` span and flushes `search.chains/proposed/accepted/polished`
/// plus a `search.improved` gauge (1.0 when the winner strictly beats
/// greedy) to `obs`.
///
/// Bit-reproducible per master seed at any `jobs`: chain seeds are the
/// master seed's SplitMix64 expansion, each chain is a pure function of
/// its seed, [`par_map_supervised`] returns results in chain order, and
/// the winner is chosen by strictly-greater score in that order (ties
/// go to the earliest chain).
///
/// # Panics
///
/// Panics if the record has fewer than two fields, if the FLG and
/// record disagree on the field count, or if a chain is lost to the
/// supervisor (the chain closure never returns an error, so holes are
/// impossible in practice).
pub fn search_layout<V: FlgView + Sync>(
    flg: &V,
    record: &RecordType,
    params: &SearchParams,
    portfolio: Portfolio,
    jobs: usize,
    obs: &Obs,
) -> SearchOutcome {
    let _span = obs.span("search");
    assert!(record.field_count() >= 2, "need at least two fields");
    assert!(portfolio.chains >= 1, "need at least one chain");
    let start = cluster(flg, record, params.line_size, obs);
    let greedy_score = clustering_score(flg, &start);

    let mut mix = SplitMix64::new(portfolio.master_seed);
    let seeds: Vec<u64> = (0..portfolio.chains).map(|_| mix.next_u64()).collect();

    let policy = SupervisePolicy::default();
    let (results, report) = par_map_supervised(jobs, &seeds, &policy, |chain, &seed, _attempt| {
        Ok::<_, WorkerError>(run_chain(flg, record, &start, params, chain, seed))
    });
    let chains: Vec<ChainResult> = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("chain {i} lost to supervisor")))
        .collect();

    // Deterministic reduction: strictly-greater in chain order.
    let mut best = 0usize;
    for (i, c) in chains.iter().enumerate() {
        if c.score > chains[best].score {
            best = i;
        }
    }
    if obs.enabled() {
        obs.counter("search.chains", chains.len() as u64);
        obs.counter("search.proposed", chains.iter().map(|c| c.proposed).sum());
        obs.counter("search.accepted", chains.iter().map(|c| c.accepted).sum());
        obs.counter("search.polished", chains.iter().map(|c| c.polished).sum());
    }
    let outcome = SearchOutcome {
        best,
        chains,
        greedy_score,
        report,
    };
    if obs.enabled() {
        obs.gauge(
            "search.improved",
            if outcome.improved() { 1.0 } else { 0.0 },
        );
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use slopt_core::flg::Flg;
    use slopt_ir::types::{FieldType, PrimType, RecordId};

    fn record_u64(n: usize) -> RecordType {
        RecordType::new(
            "S",
            (0..n)
                .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
                .collect(),
        )
    }

    /// The refine test's greedy-mistake instance: the search must find
    /// the strictly better clustering refine finds (or better).
    fn greedy_mistake() -> (Flg, RecordType) {
        let flg = Flg::from_parts(
            RecordId(0),
            vec![100, 90, 80, 20, 10],
            vec![
                (FieldIdx(0), FieldIdx(1), 50.0),
                (FieldIdx(0), FieldIdx(2), 5.0),
                (FieldIdx(2), FieldIdx(3), 8.0),
                (FieldIdx(2), FieldIdx(4), 8.0),
                (FieldIdx(0), FieldIdx(3), -100.0),
                (FieldIdx(0), FieldIdx(4), -100.0),
            ],
        );
        (flg, record_u64(5))
    }

    #[test]
    fn search_strictly_beats_greedy_on_the_mistake_instance() {
        let (flg, rec) = greedy_mistake();
        let out = search_layout(
            &flg,
            &rec,
            &SearchParams {
                steps: 300,
                ..SearchParams::default()
            },
            Portfolio {
                chains: 4,
                master_seed: 7,
            },
            1,
            &Obs::disabled(),
        );
        assert!(
            out.winner().score > out.greedy_score,
            "search {} must beat greedy {}",
            out.winner().score,
            out.greedy_score
        );
        // The winner's score is the bit-exact objective of its clusters.
        let c = out.winner().clustering();
        assert_eq!(
            out.winner().score.to_bits(),
            clustering_score(&flg, &c).to_bits()
        );
        assert_eq!(c.field_count(), 5, "no field lost or duplicated");
    }

    #[test]
    fn portfolio_is_jobs_invariant() {
        let (flg, rec) = greedy_mistake();
        let params = SearchParams {
            steps: 200,
            ..SearchParams::default()
        };
        let portfolio = Portfolio {
            chains: 5,
            master_seed: 99,
        };
        let base = search_layout(&flg, &rec, &params, portfolio, 1, &Obs::disabled());
        for jobs in [2, 4, 7] {
            let out = search_layout(&flg, &rec, &params, portfolio, jobs, &Obs::disabled());
            assert_eq!(out.best, base.best);
            assert_eq!(out.winner().score.to_bits(), base.winner().score.to_bits());
            for (a, b) in out.chains.iter().zip(&base.chains) {
                assert_eq!(a.clusters, b.clusters, "jobs={jobs}");
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!((a.proposed, a.accepted), (b.proposed, b.accepted));
            }
        }
    }

    #[test]
    fn different_master_seeds_differ_but_never_lose_to_greedy() {
        let (flg, rec) = greedy_mistake();
        let params = SearchParams {
            steps: 150,
            ..SearchParams::default()
        };
        for seed in [1, 2, 3, 4] {
            let out = search_layout(
                &flg,
                &rec,
                &params,
                Portfolio {
                    chains: 3,
                    master_seed: seed,
                },
                2,
                &Obs::disabled(),
            );
            assert!(
                out.winner().score >= out.greedy_score,
                "seed {seed}: polish from greedy can never lose"
            );
        }
    }

    #[test]
    fn top_k_is_sorted_and_distinct() {
        let (flg, rec) = greedy_mistake();
        let out = search_layout(
            &flg,
            &rec,
            &SearchParams {
                steps: 200,
                ..SearchParams::default()
            },
            Portfolio {
                chains: 6,
                master_seed: 5,
            },
            2,
            &Obs::disabled(),
        );
        let top = out.top_k(3);
        assert!(!top.is_empty());
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score);
            assert_ne!(w[0].clusters, w[1].clusters, "top-k is deduplicated");
        }
        assert_eq!(top[0].chain, out.best, "best candidate leads");
    }

    #[test]
    fn capacity_holds_throughout() {
        // 17 mutually affine u64s: no cluster may exceed 16 fields.
        let n = 17;
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                edges.push((FieldIdx(i), FieldIdx(j), 1.0));
            }
        }
        let flg = Flg::from_parts(RecordId(0), vec![10; n], edges);
        let rec = record_u64(n);
        let out = search_layout(
            &flg,
            &rec,
            &SearchParams {
                steps: 400,
                ..SearchParams::default()
            },
            Portfolio {
                chains: 3,
                master_seed: 11,
            },
            2,
            &Obs::disabled(),
        );
        for c in &out.winner().clusters {
            assert!(c.len() <= 16, "cluster exceeds a cache line");
        }
        assert_eq!(out.winner().clustering().field_count(), n);
    }
}
