//! Incremental (delta) evaluation of the clustering objective.
//!
//! The stochastic layout search (`slopt-search`) proposes thousands of
//! small edits to a clustering per chain. Rescoring each candidate with
//! [`clustering_score`] costs a pass over every intra-cluster pair;
//! [`DeltaObjective`] instead scores a proposed [`Move`] in O(cluster
//! degree) against the triangular [`FlgView`] weights, and keeps a
//! tracked score that is **bit-identical to the full recompute** after
//! every accepted edit.
//!
//! Bit-identity argument (f64 addition is not associative, so order is
//! everything):
//!
//! * each cluster's intra-weight is only ever produced by
//!   [`canonical_cluster_sum`], the inner loop of `clustering_score` —
//!   when an edit touches a cluster, that cluster's sum is recomputed in
//!   canonical order rather than adjusted in place;
//! * the total is the same left fold (`0.0 + s₀ + s₁ + …`) over the
//!   per-cluster sums, in cluster order, that `clustering_score`'s
//!   `.map(..).sum()` performs.
//!
//! Both facts make [`DeltaObjective::score`] reproduce the exact
//! instruction sequence of a full recompute over the current cluster
//! list, so the two agree to the last bit — which is what lets the
//! search's final objective be checked against the plain scorer, and
//! what the `search_delta` perf bench asserts before trusting its
//! timings.
//!
//! Capacity is enforced the same way the greedy pass does it: a move may
//! not grow the destination cluster's cache-line count (for
//! [`Move::Merge`], the union must fit the destination's current lines —
//! the source's lines are freed). The objective counts every
//! intra-cluster pair as co-located, so letting clusters outgrow their
//! lines would score pairs that cannot physically share a line.
//! Appends reuse the O(1) incremental fit check of `find_best_match` —
//! packed cluster bytes are cached, so extending a cluster by one field
//! packs it after the cached bytes
//! ([`RecordType::packed_bytes`]) with no re-pack.
//!
//! [`DeltaObjective::polish`] is the one steepest-ascent local search:
//! [`refine`](crate::refine::refine) is a polish of the greedy
//! clustering, and every `slopt-search` chain ends with one.

use crate::cluster::Clustering;
use crate::flg::FlgView;
use slopt_ir::types::{FieldIdx, RecordType};

/// One proposed edit to a clustering. Cluster indices refer to the
/// current cluster list of the [`DeltaObjective`] the move is scored
/// against (empty slots left by earlier moves are valid destinations).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Move {
    /// Move `field` out of its cluster, appending it to cluster `dst`;
    /// `dst == cluster_count()` sends it to a fresh singleton (reusing
    /// the lowest-indexed empty slot when one exists).
    MoveField {
        /// The field to relocate.
        field: FieldIdx,
        /// Destination cluster index, or `cluster_count()` for a fresh
        /// singleton.
        dst: usize,
    },
    /// Exchange two fields' positions. Across clusters this trades the
    /// members; within one cluster it is an intra-cluster permutation —
    /// objective-neutral (the estimate is `0.0`) but it changes packing,
    /// which can open or close capacity for later moves.
    SwapFields {
        /// First field.
        a: FieldIdx,
        /// Second field.
        b: FieldIdx,
    },
    /// Split one cluster's member list in two before position `at`
    /// (`1 <= at < len`); the tail becomes a new cluster.
    Split {
        /// Cluster to split.
        cluster: usize,
        /// Member position the tail starts at.
        at: usize,
    },
    /// Append cluster `src`'s members onto cluster `dst`, leaving `src`
    /// empty.
    Merge {
        /// Cluster that absorbs the members.
        dst: usize,
        /// Cluster that is emptied.
        src: usize,
    },
}

/// The inner loop of [`clustering_score`] for one cluster: pairs in
/// `(i, j > i)` order, left-folded from `0.0`. Every per-cluster sum in
/// this module comes from here, which is what makes the tracked total
/// bit-identical to a full recompute.
pub fn canonical_cluster_sum<V: FlgView>(flg: &V, c: &[FieldIdx]) -> f64 {
    let mut w = 0.0;
    for (i, &a) in c.iter().enumerate() {
        for &b in &c[i + 1..] {
            w += flg.weight(a, b);
        }
    }
    w
}

/// Total intra-cluster edge weight — the clustering objective (inter-
/// cluster weight is its complement, so maximizing one minimizes the
/// other): the left fold of each cluster's [`canonical_cluster_sum`] in
/// cluster order.
pub fn clustering_score<V: FlgView>(flg: &V, clustering: &Clustering) -> f64 {
    clustering
        .clusters()
        .iter()
        .map(|c| canonical_cluster_sum(flg, c))
        .sum()
}

/// Cap on the moves one [`DeltaObjective::polish`] accepts (a safety
/// bound; the ascent converges long before).
const MAX_POLISH_MOVES: usize = 10_000;

/// Incremental evaluator of the clustering objective over one record's
/// FLG: scores a [`Move`] in O(cluster degree), applies accepted moves,
/// and tracks a score that stays f64-bit-identical to
/// [`clustering_score`] on the current cluster list.
///
/// ```
/// use slopt_core::delta::{DeltaObjective, Move};
/// use slopt_core::{cluster::cluster, clustering_score, flg::Flg};
/// use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordId, RecordType};
///
/// let rec = RecordType::new(
///     "S",
///     vec![
///         ("a", FieldType::Prim(PrimType::U64)),
///         ("b", FieldType::Prim(PrimType::U64)),
///         ("c", FieldType::Prim(PrimType::U64)),
///     ],
/// );
/// let flg = Flg::from_parts(
///     RecordId(0),
///     vec![3, 2, 1],
///     vec![(FieldIdx(1), FieldIdx(2), 4.0), (FieldIdx(0), FieldIdx(1), -1.0)],
/// );
/// let greedy = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
/// let mut delta = DeltaObjective::new(&flg, &rec, &greedy, 128);
/// // Estimate, apply, and confirm against the full scorer.
/// let m = Move::MoveField { field: FieldIdx(2), dst: delta.cluster_of(FieldIdx(1)) };
/// if let Some(est) = delta.score_move(m) {
///     let before = delta.score();
///     delta.apply(m);
///     assert!((delta.score() - before - est).abs() < 1e-9);
/// }
/// assert_eq!(
///     delta.score().to_bits(),
///     clustering_score(&flg, &delta.clone().into_clustering_raw()).to_bits(),
/// );
/// ```
#[derive(Clone, Debug)]
pub struct DeltaObjective<'a, V: FlgView> {
    flg: &'a V,
    record: &'a RecordType,
    line_size: u64,
    clusters: Vec<Vec<FieldIdx>>,
    /// `of[f] == i` ⇔ field `f` lives in `clusters[i]`.
    of: Vec<usize>,
    /// Per-cluster canonical intra-weight sums.
    sums: Vec<f64>,
    /// Per-cluster packed byte sizes (the O(1) append-fit cache).
    bytes: Vec<u64>,
}

impl<'a, V: FlgView> DeltaObjective<'a, V> {
    /// Builds the evaluator from an existing clustering.
    ///
    /// # Panics
    ///
    /// Panics if the clustering does not cover every FLG field exactly
    /// once, if the FLG and record field counts differ, or if
    /// `line_size` is not a power of two.
    pub fn new(
        flg: &'a V,
        record: &'a RecordType,
        clustering: &Clustering,
        line_size: u64,
    ) -> Self {
        assert_eq!(
            flg.field_count(),
            record.field_count(),
            "FLG and record field counts differ"
        );
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert_eq!(
            clustering.field_count(),
            flg.field_count(),
            "clustering must cover every field"
        );
        let clusters: Vec<Vec<FieldIdx>> = clustering.clusters().to_vec();
        let mut of = vec![usize::MAX; flg.field_count()];
        for (i, c) in clusters.iter().enumerate() {
            for &f in c {
                of[f.index()] = i;
            }
        }
        let sums = clusters
            .iter()
            .map(|c| canonical_cluster_sum(flg, c))
            .collect();
        let bytes = clusters
            .iter()
            .map(|c| record.packed_bytes(0, c.iter().copied()))
            .collect();
        DeltaObjective {
            flg,
            record,
            line_size,
            clusters,
            of,
            sums,
            bytes,
        }
    }

    /// The current cluster list (may contain empty slots left by moves).
    pub fn clusters(&self) -> &[Vec<FieldIdx>] {
        &self.clusters
    }

    /// Number of cluster slots (including empty ones).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Index of the cluster currently holding `f`.
    pub fn cluster_of(&self, f: FieldIdx) -> usize {
        self.of[f.index()]
    }

    /// The tracked objective: the same left fold over per-cluster sums
    /// that `clustering_score` performs, hence bit-identical to a full
    /// recompute over [`clusters`](Self::clusters).
    pub fn score(&self) -> f64 {
        self.sums.iter().copied().sum()
    }

    /// Consumes the evaluator into a [`Clustering`], dropping empty
    /// slots.
    pub fn into_clustering(self) -> Clustering {
        Clustering::new(
            self.clusters
                .into_iter()
                .filter(|c| !c.is_empty())
                .collect(),
        )
    }

    /// Consumes the evaluator into a [`Clustering`] that keeps empty
    /// slots — the exact cluster list the tracked score folds over, for
    /// bit-level comparison against the full scorer.
    pub fn into_clustering_raw(self) -> Clustering {
        Clustering::new(self.clusters)
    }

    fn lines(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.line_size).max(1)
    }

    /// O(1) append-fit: whether appending `f` to the cluster currently
    /// occupying `bytes` keeps its line count. Empty clusters accept any
    /// field (they are fresh singletons).
    fn append_fits(&self, bytes: u64, empty: bool, f: FieldIdx) -> bool {
        empty || self.lines(self.record.packed_bytes(bytes, [f])) <= self.lines(bytes)
    }

    /// Scores a proposed move in O(cluster degree): `Some(estimate)` of
    /// the objective change if the move is feasible (capacity-safe and
    /// not a no-op), `None` otherwise. The estimate is ordinary f64
    /// arithmetic — callers needing the exact new score
    /// [`apply`](Self::apply) the move and read [`score`](Self::score).
    pub fn score_move(&self, m: Move) -> Option<f64> {
        match m {
            Move::MoveField { field, dst } => {
                let src = self.of[field.index()];
                if dst == src || dst > self.clusters.len() {
                    return None;
                }
                let leaving = -self.flg.gain_into(field, &self.clusters[src]);
                if dst == self.clusters.len() {
                    // Fresh singleton: pointless if already alone.
                    if self.clusters[src].len() == 1 {
                        return None;
                    }
                    return Some(leaving);
                }
                let members = &self.clusters[dst];
                if !self.append_fits(self.bytes[dst], members.is_empty(), field) {
                    return None;
                }
                Some(self.flg.gain_into(field, members) + leaving)
            }
            Move::SwapFields { a, b } => {
                if a == b {
                    return None;
                }
                let (ca, cb) = (self.of[a.index()], self.of[b.index()]);
                if ca == cb {
                    // Intra-cluster permutation: repack with the two
                    // positions exchanged; the objective is unchanged.
                    let swapped = self.clusters[ca].iter().map(|&f| {
                        if f == a {
                            b
                        } else if f == b {
                            a
                        } else {
                            f
                        }
                    });
                    let repacked = self.record.packed_bytes(0, swapped);
                    if self.lines(repacked) > self.lines(self.bytes[ca]) {
                        return None;
                    }
                    return Some(0.0);
                }
                if !self.replace_fits(ca, a, b) || !self.replace_fits(cb, b, a) {
                    return None;
                }
                let mut d = 0.0;
                for &m in &self.clusters[ca] {
                    if m != a {
                        d += self.flg.weight(b, m) - self.flg.weight(a, m);
                    }
                }
                for &m in &self.clusters[cb] {
                    if m != b {
                        d += self.flg.weight(a, m) - self.flg.weight(b, m);
                    }
                }
                Some(d)
            }
            Move::Split { cluster, at } => {
                let c = self.clusters.get(cluster)?;
                if at == 0 || at >= c.len() {
                    return None;
                }
                let mut cut = 0.0;
                for &x in &c[..at] {
                    for &y in &c[at..] {
                        cut += self.flg.weight(x, y);
                    }
                }
                Some(-cut)
            }
            Move::Merge { dst, src } => {
                if dst == src || dst >= self.clusters.len() || src >= self.clusters.len() {
                    return None;
                }
                if self.clusters[dst].is_empty() || self.clusters[src].is_empty() {
                    return None;
                }
                // Packing continues from the destination's cached bytes,
                // so the union's size is an O(|src|) extension.
                let union = self
                    .record
                    .packed_bytes(self.bytes[dst], self.clusters[src].iter().copied());
                if self.lines(union) > self.lines(self.bytes[dst]) {
                    return None;
                }
                let mut joined = 0.0;
                for &x in &self.clusters[dst] {
                    for &y in &self.clusters[src] {
                        joined += self.flg.weight(x, y);
                    }
                }
                Some(joined)
            }
        }
    }

    /// Whether replacing `out` (a member of cluster `c`) with `in_` at
    /// the same position keeps the cluster's line count.
    fn replace_fits(&self, c: usize, out: FieldIdx, in_: FieldIdx) -> bool {
        let replaced = self.clusters[c]
            .iter()
            .map(|&f| if f == out { in_ } else { f });
        self.lines(self.record.packed_bytes(0, replaced)) <= self.lines(self.bytes[c])
    }

    /// Recomputes the cached sum and byte size of one cluster in
    /// canonical order.
    fn refresh(&mut self, c: usize) {
        self.sums[c] = canonical_cluster_sum(self.flg, &self.clusters[c]);
        self.bytes[c] = self
            .record
            .packed_bytes(0, self.clusters[c].iter().copied());
    }

    /// Applies a move. Touched clusters' cached sums are recomputed in
    /// canonical order, which keeps [`score`](Self::score) bit-identical
    /// to a full recompute.
    ///
    /// # Panics
    ///
    /// Panics if the move is infeasible
    /// ([`score_move`](Self::score_move) returned `None`).
    pub fn apply(&mut self, m: Move) {
        assert!(
            self.score_move(m).is_some(),
            "applying infeasible move {m:?}"
        );
        match m {
            Move::MoveField { field, dst } => {
                let src = self.of[field.index()];
                let dst = if dst == self.clusters.len() {
                    // Fresh singleton: reuse the lowest empty slot so the
                    // cluster list stays bounded over long chains.
                    match self.clusters.iter().position(Vec::is_empty) {
                        Some(slot) => slot,
                        None => {
                            self.clusters.push(Vec::new());
                            self.sums.push(0.0);
                            self.bytes.push(0);
                            self.clusters.len() - 1
                        }
                    }
                } else {
                    dst
                };
                self.clusters[src].retain(|&g| g != field);
                self.clusters[dst].push(field);
                self.of[field.index()] = dst;
                self.refresh(src);
                self.refresh(dst);
            }
            Move::SwapFields { a, b } => {
                let (ca, cb) = (self.of[a.index()], self.of[b.index()]);
                if ca == cb {
                    let (pa, pb) = {
                        let c = &self.clusters[ca];
                        (
                            c.iter().position(|&f| f == a).expect("member"),
                            c.iter().position(|&f| f == b).expect("member"),
                        )
                    };
                    self.clusters[ca].swap(pa, pb);
                    self.refresh(ca);
                    return;
                }
                for f in &mut self.clusters[ca] {
                    if *f == a {
                        *f = b;
                    }
                }
                for f in &mut self.clusters[cb] {
                    if *f == b {
                        *f = a;
                    }
                }
                self.of[a.index()] = cb;
                self.of[b.index()] = ca;
                self.refresh(ca);
                self.refresh(cb);
            }
            Move::Split { cluster, at } => {
                let tail = self.clusters[cluster].split_off(at);
                for &f in &tail {
                    self.of[f.index()] = self.clusters.len();
                }
                self.clusters.push(tail);
                self.sums.push(0.0);
                self.bytes.push(0);
                self.refresh(cluster);
                let last = self.clusters.len() - 1;
                self.refresh(last);
            }
            Move::Merge { dst, src } => {
                let moved = std::mem::take(&mut self.clusters[src]);
                for &f in &moved {
                    self.of[f.index()] = dst;
                }
                self.clusters[dst].extend(moved);
                self.refresh(src);
                self.refresh(dst);
            }
        }
    }

    /// Steepest-ascent local search over single-field moves: applies the
    /// best improving [`Move::MoveField`] (gain above `1e-9`; ties go to
    /// the lowest field, then the lowest destination) until no move
    /// improves or the move cap is reached. Returns the accepted move
    /// count. The tracked score never falls.
    pub fn polish(&mut self) -> u64 {
        let n = self.of.len() as u32;
        let mut accepted = 0u64;
        while (accepted as usize) < MAX_POLISH_MOVES {
            let mut best: Option<(Move, f64)> = None;
            for f in (0..n).map(FieldIdx) {
                for dst in 0..=self.cluster_count() {
                    let m = Move::MoveField { field: f, dst };
                    if let Some(gain) = self.score_move(m) {
                        if gain > 1e-9 && best.is_none_or(|(_, g)| gain > g) {
                            best = Some((m, gain));
                        }
                    }
                }
            }
            let Some((m, _)) = best else { break };
            self.apply(m);
            accepted += 1;
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster;
    use crate::flg::Flg;
    use slopt_ir::types::{FieldType, PrimType, RecordId};

    fn record_u64(n: usize) -> RecordType {
        RecordType::new(
            "S",
            (0..n)
                .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
                .collect(),
        )
    }

    fn fixture() -> (Flg, RecordType) {
        let flg = Flg::from_parts(
            RecordId(0),
            vec![100, 90, 80, 20, 10, 5],
            vec![
                (FieldIdx(0), FieldIdx(1), 50.0),
                (FieldIdx(0), FieldIdx(2), 5.0),
                (FieldIdx(2), FieldIdx(3), 8.0),
                (FieldIdx(2), FieldIdx(4), 8.0),
                (FieldIdx(0), FieldIdx(3), -100.0),
                (FieldIdx(3), FieldIdx(5), 0.25),
            ],
        );
        (flg, record_u64(6))
    }

    fn assert_tracks(delta: &DeltaObjective<'_, Flg>, flg: &Flg) {
        let full = clustering_score(flg, &Clustering::new(delta.clusters().to_vec()));
        assert_eq!(
            delta.score().to_bits(),
            full.to_bits(),
            "tracked {} vs full {}",
            delta.score(),
            full
        );
    }

    #[test]
    fn tracked_score_matches_full_recompute_through_all_move_kinds() {
        let (flg, rec) = fixture();
        let greedy = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        let mut d = DeltaObjective::new(&flg, &rec, &greedy, 128);
        assert_eq!(
            d.score().to_bits(),
            clustering_score(&flg, &greedy).to_bits()
        );

        let fresh = d.cluster_count();
        let moves = [
            Move::MoveField {
                field: FieldIdx(2),
                dst: fresh,
            },
            Move::SwapFields {
                a: FieldIdx(2),
                b: FieldIdx(5),
            },
            Move::Split {
                cluster: d.cluster_of(FieldIdx(0)),
                at: 1,
            },
        ];
        for m in moves {
            let before = d.score();
            let est = d.score_move(m).expect("feasible");
            d.apply(m);
            assert_tracks(&d, &flg);
            assert!(
                (d.score() - before - est).abs() < 1e-6,
                "estimate {est} vs actual {}",
                d.score() - before
            );
        }
        // Merge two non-empty clusters and re-check.
        let (a, b) = (d.cluster_of(FieldIdx(3)), d.cluster_of(FieldIdx(0)));
        if a != b {
            let m = Move::Merge { dst: a, src: b };
            if d.score_move(m).is_some() {
                d.apply(m);
                assert_tracks(&d, &flg);
            }
        }
    }

    #[test]
    fn capacity_rejects_appends_that_grow_lines() {
        // 16 u64s fill a 128-byte line exactly; a 17th may not join.
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
        let d = DeltaObjective::new(&flg, &rec, &greedy, 128);
        let full = d.cluster_of(FieldIdx(0));
        let lone = (0..n as u32)
            .map(FieldIdx)
            .find(|&f| d.cluster_of(f) != full)
            .expect("one field is outside the full line");
        assert_eq!(
            d.score_move(Move::MoveField {
                field: lone,
                dst: full,
            }),
            None,
            "append into a full line must be rejected"
        );
        // Merging the full line with the singleton is rejected too: 17
        // u64s need 2 lines, and a cluster may never outgrow its
        // destination's line count (the objective would otherwise score
        // pairs that cannot share a line).
        let m = Move::Merge {
            dst: full,
            src: d.cluster_of(lone),
        };
        assert_eq!(d.score_move(m), None);
    }

    #[test]
    fn fresh_singleton_reuses_empty_slots() {
        let (flg, rec) = fixture();
        let start = Clustering::new(vec![
            vec![FieldIdx(0), FieldIdx(1)],
            vec![FieldIdx(2)],
            vec![FieldIdx(3), FieldIdx(4), FieldIdx(5)],
        ]);
        let mut d = DeltaObjective::new(&flg, &rec, &start, 128);
        // Empty slot 1 by moving f2 out, then ask for a fresh singleton:
        // the empty slot must be reused, not grown.
        d.apply(Move::MoveField {
            field: FieldIdx(2),
            dst: 0,
        });
        assert!(d.clusters()[1].is_empty());
        d.apply(Move::MoveField {
            field: FieldIdx(3),
            dst: d.cluster_count(),
        });
        assert_eq!(d.cluster_count(), 3, "empty slot reused");
        assert_eq!(d.cluster_of(FieldIdx(3)), 1);
        assert_tracks(&d, &flg);
    }
}
