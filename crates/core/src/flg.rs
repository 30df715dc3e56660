//! The Field Layout Graph (paper §2).
//!
//! Nodes are the fields of one record; the edge weight between two fields
//! is the expected benefit of placing them on the same cache line:
//!
//! ```text
//! w(f1, f2) = k1·CycleGain(f1, f2) − k2·CycleLoss(f1, f2)
//! ```
//!
//! `CycleGain` comes from the static affinity analysis
//! ([`slopt_ir::affinity::AffinityGraph`]); `CycleLoss` from the sampled
//! Code Concurrency join ([`slopt_sample::CycleLossMap`]). A positive
//! weight says "co-locate" (spatial locality wins); a negative weight says
//! "separate" (false sharing wins).

use slopt_ir::affinity::AffinityGraph;
use slopt_ir::types::{FieldIdx, RecordId};
use slopt_sample::CycleLossMap;
use std::collections::HashMap;

/// The tunable constants of the edge-weight formula.
///
/// Affinity weights are profile counts (path frequencies) while CycleLoss
/// values are *sampled* concurrency counts, which undercount true
/// concurrency by roughly `block length ÷ sampling period`, while each
/// realized false-sharing event costs several times more than a saved
/// miss gains. The default `k2 = 10` balances the two at the workspace's
/// default sampling parameters; `ablate k2` sweeps it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FlgParams {
    /// Multiplier on CycleGain (spatial locality).
    pub k1: f64,
    /// Multiplier on CycleLoss (false sharing).
    pub k2: f64,
}

impl Default for FlgParams {
    fn default() -> Self {
        FlgParams { k1: 1.0, k2: 10.0 }
    }
}

/// Read-only view of a field layout graph, as consumed by the clustering
/// algorithm ([`crate::cluster::cluster`]). Implemented by the dense
/// [`Flg`] and by the retained hash-map [`reference::FlgRef`], so the two can be benchmarked
/// against each other on identical inputs.
///
/// # Example
///
/// ```
/// use slopt_core::{Flg, FlgView};
/// use slopt_ir::types::{FieldIdx, RecordId};
///
/// let flg = Flg::from_parts(
///     RecordId(0),
///     vec![10, 30, 20], // per-field hotness
///     vec![
///         (FieldIdx(0), FieldIdx(1), 5.0),
///         (FieldIdx(0), FieldIdx(2), -2.0),
///     ],
/// );
/// assert_eq!(flg.field_count(), 3);
/// assert_eq!(flg.weight(FieldIdx(0), FieldIdx(1)), 5.0);
/// // Gain of pulling field 0 into a cluster holding fields 1 and 2.
/// assert_eq!(flg.gain_into(FieldIdx(0), &[FieldIdx(1), FieldIdx(2)]), 3.0);
/// // Seed order: descending hotness.
/// assert_eq!(
///     flg.fields_by_hotness(),
///     vec![FieldIdx(1), FieldIdx(2), FieldIdx(0)],
/// );
/// ```
pub trait FlgView {
    /// Number of fields (nodes).
    fn field_count(&self) -> usize;
    /// The edge weight between two fields (0 if absent or `f1 == f2`).
    fn weight(&self, f1: FieldIdx, f2: FieldIdx) -> f64;
    /// Sum of `weight(f, m)` over `m ∈ members` — the clustering gain of
    /// adding `f` to a cluster.
    fn gain_into(&self, f: FieldIdx, members: &[FieldIdx]) -> f64 {
        members.iter().map(|&m| self.weight(f, m)).sum()
    }
    /// Fields sorted by descending hotness (ties by ascending index), the
    /// seed order of the clustering algorithm.
    fn fields_by_hotness(&self) -> Vec<FieldIdx>;
}

/// The Field Layout Graph of one record.
///
/// Weights live in a dense upper-triangular `Vec<f64>` indexed by the
/// normalized field pair (`i < j`, no diagonal), so `weight` and
/// `gain_into` — the clustering inner loop — are pure index arithmetic. A
/// parallel presence vector distinguishes "no edge" from an edge whose
/// contributions summed to exactly `0.0` (which [`Flg::edges`] still
/// reports, matching the original hash-map behavior).
#[derive(Clone, Debug)]
pub struct Flg {
    record: RecordId,
    field_count: usize,
    /// Upper-triangular weights; pair `(i, j)` with `i < j` lives at
    /// `i*(2n-i-1)/2 + (j-i-1)`. Absent edges hold `0.0`.
    weights: Vec<f64>,
    /// Which pairs carry an edge (see struct docs).
    present: Vec<bool>,
    hotness: Vec<u64>,
}

impl Flg {
    /// Triangular index of the normalized pair — callers guarantee
    /// `f1 != f2` and both in range.
    fn tri(&self, f1: FieldIdx, f2: FieldIdx) -> usize {
        let (i, j) = if f1.0 <= f2.0 {
            (f1.0 as usize, f2.0 as usize)
        } else {
            (f2.0 as usize, f1.0 as usize)
        };
        i * (2 * self.field_count - i - 1) / 2 + (j - i - 1)
    }

    fn empty(record: RecordId, hotness: Vec<u64>) -> Self {
        let n = hotness.len();
        let tri_len = n * n.saturating_sub(1) / 2;
        Flg {
            record,
            field_count: n,
            weights: vec![0.0; tri_len],
            present: vec![false; tri_len],
            hotness,
        }
    }

    /// Builds the FLG from affinity (CycleGain) and optional sampled loss
    /// (CycleLoss). `loss = None` degenerates to the single-threaded layout
    /// graph of Hundt et al. (CGO 2006).
    ///
    /// Runs under an `flg_build` span and flushes graph statistics
    /// (`flg.fields`, `flg.edges_kept`, `flg.edges_pruned`) to `obs`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` describes a different record than `affinity`.
    pub fn build(
        affinity: &AffinityGraph,
        loss: Option<&CycleLossMap>,
        params: FlgParams,
        obs: &slopt_obs::Obs,
    ) -> Self {
        let _span = obs.span("flg_build");
        if let Some(l) = loss {
            assert_eq!(
                l.record(),
                affinity.record(),
                "affinity and loss describe different records"
            );
        }
        let n = affinity.field_count();
        let hotness = (0..n as u32)
            .map(|i| affinity.hotness(FieldIdx(i)))
            .collect();
        let mut flg = Self::empty(affinity.record(), hotness);
        for (f1, f2, w) in affinity.edges() {
            let idx = flg.tri(f1, f2);
            flg.weights[idx] = params.k1 * w as f64;
            flg.present[idx] = true;
        }
        if let Some(l) = loss {
            for (f1, f2, cl) in l.pairs() {
                let idx = flg.tri(f1, f2);
                flg.weights[idx] -= params.k2 * cl;
                flg.present[idx] = true;
            }
        }
        // Same pruning as the original `retain(|_, w| *w != 0.0)`.
        let (mut kept, mut pruned) = (0u64, 0u64);
        for (p, &w) in flg.present.iter_mut().zip(&flg.weights) {
            let was_present = *p;
            *p &= w != 0.0;
            if was_present {
                if *p {
                    kept += 1;
                } else {
                    pruned += 1;
                }
            }
        }
        if obs.enabled() {
            obs.counter("flg.fields", n as u64);
            obs.counter("flg.edges_kept", kept);
            obs.counter("flg.edges_pruned", pruned);
        }
        flg
    }

    /// Builds an FLG directly from explicit edge weights and hotness — for
    /// tests, synthetic inputs and the subgraph filter.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a field index `>= hotness.len()` or is
    /// a self-loop.
    pub fn from_parts(
        record: RecordId,
        hotness: Vec<u64>,
        edges: impl IntoIterator<Item = (FieldIdx, FieldIdx, f64)>,
    ) -> Self {
        let n = hotness.len();
        let mut flg = Self::empty(record, hotness);
        for (f1, f2, w) in edges {
            assert!(f1.index() < n && f2.index() < n, "edge field out of range");
            assert_ne!(f1, f2, "self-loop edge on {f1}");
            if w != 0.0 {
                let idx = flg.tri(f1, f2);
                flg.weights[idx] += w;
                flg.present[idx] = true;
            }
        }
        flg
    }

    /// The record this graph describes.
    pub fn record(&self) -> RecordId {
        self.record
    }

    /// Number of fields (nodes).
    pub fn field_count(&self) -> usize {
        self.field_count
    }

    /// The edge weight between two fields (0 if absent or `f1 == f2`).
    pub fn weight(&self, f1: FieldIdx, f2: FieldIdx) -> f64 {
        if f1 == f2 {
            return 0.0;
        }
        self.weights[self.tri(f1, f2)]
    }

    /// A field's hotness (profile-weighted reference count).
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn hotness(&self, f: FieldIdx) -> u64 {
        self.hotness[f.index()]
    }

    /// All edges `(f1, f2, w)` with `f1 < f2`, sorted by descending weight
    /// (deterministic tie-break on indices).
    pub fn edges(&self) -> Vec<(FieldIdx, FieldIdx, f64)> {
        let mut v = Vec::new();
        let mut idx = 0;
        for i in 0..self.field_count as u32 {
            for j in (i + 1)..self.field_count as u32 {
                if self.present[idx] {
                    v.push((FieldIdx(i), FieldIdx(j), self.weights[idx]));
                }
                idx += 1;
            }
        }
        v.sort_by(|x, y| {
            y.2.partial_cmp(&x.2)
                .expect("edge weights are never NaN")
                .then(x.0.cmp(&y.0))
                .then(x.1.cmp(&y.1))
        });
        v
    }

    /// Sum of `weight(f, m)` over `m ∈ members` — the clustering gain of
    /// adding `f` to a cluster.
    pub fn gain_into(&self, f: FieldIdx, members: &[FieldIdx]) -> f64 {
        members
            .iter()
            .filter(|&&m| m != f)
            .map(|&m| self.weights[self.tri(f, m)])
            .sum()
    }

    /// Fields sorted by descending hotness (ties by ascending index), the
    /// seed order of the clustering algorithm.
    pub fn fields_by_hotness(&self) -> Vec<FieldIdx> {
        let mut v: Vec<FieldIdx> = (0..self.field_count as u32).map(FieldIdx).collect();
        v.sort_by(|a, b| self.hotness(*b).cmp(&self.hotness(*a)).then(a.0.cmp(&b.0)));
        v
    }
}

impl FlgView for Flg {
    fn field_count(&self) -> usize {
        Flg::field_count(self)
    }
    fn weight(&self, f1: FieldIdx, f2: FieldIdx) -> f64 {
        Flg::weight(self, f1, f2)
    }
    fn gain_into(&self, f: FieldIdx, members: &[FieldIdx]) -> f64 {
        Flg::gain_into(self, f, members)
    }
    fn fields_by_hotness(&self) -> Vec<FieldIdx> {
        Flg::fields_by_hotness(self)
    }
}

/// The original hash-map FLG, retained as the reference implementation for
/// equivalence tests and the `perf_report` old-vs-new comparison.
pub mod reference {
    use super::{FieldIdx, FlgView, HashMap, RecordId};

    /// Hash-map-backed field layout graph with the pre-dense semantics:
    /// edge weights keyed by `(min_idx, max_idx)`.
    #[derive(Clone, Debug)]
    pub struct FlgRef {
        record: RecordId,
        field_count: usize,
        weights: HashMap<(u32, u32), f64>,
        hotness: Vec<u64>,
    }

    impl FlgRef {
        fn key(f1: FieldIdx, f2: FieldIdx) -> (u32, u32) {
            if f1.0 <= f2.0 {
                (f1.0, f2.0)
            } else {
                (f2.0, f1.0)
            }
        }

        /// Hash-map counterpart of [`super::Flg::from_parts`].
        ///
        /// # Panics
        ///
        /// Panics if an edge references a field index `>= hotness.len()`
        /// or is a self-loop.
        pub fn from_parts(
            record: RecordId,
            hotness: Vec<u64>,
            edges: impl IntoIterator<Item = (FieldIdx, FieldIdx, f64)>,
        ) -> Self {
            let n = hotness.len();
            let mut weights = HashMap::new();
            for (f1, f2, w) in edges {
                assert!(f1.index() < n && f2.index() < n, "edge field out of range");
                assert_ne!(f1, f2, "self-loop edge on {f1}");
                if w != 0.0 {
                    *weights.entry(Self::key(f1, f2)).or_insert(0.0) += w;
                }
            }
            FlgRef {
                record,
                field_count: n,
                weights,
                hotness,
            }
        }

        /// The record this graph describes.
        pub fn record(&self) -> RecordId {
            self.record
        }

        /// All edges `(f1, f2, w)` with `f1 < f2`, sorted as
        /// [`super::Flg::edges`].
        pub fn edges(&self) -> Vec<(FieldIdx, FieldIdx, f64)> {
            let mut v: Vec<_> = self
                .weights
                .iter()
                .map(|(&(a, b), &w)| (FieldIdx(a), FieldIdx(b), w))
                .collect();
            v.sort_by(|x, y| {
                y.2.partial_cmp(&x.2)
                    .expect("edge weights are never NaN")
                    .then(x.0.cmp(&y.0))
                    .then(x.1.cmp(&y.1))
            });
            v
        }
    }

    impl FlgView for FlgRef {
        fn field_count(&self) -> usize {
            self.field_count
        }

        fn weight(&self, f1: FieldIdx, f2: FieldIdx) -> f64 {
            if f1 == f2 {
                return 0.0;
            }
            self.weights.get(&Self::key(f1, f2)).copied().unwrap_or(0.0)
        }

        fn fields_by_hotness(&self) -> Vec<FieldIdx> {
            let mut v: Vec<FieldIdx> = (0..self.field_count as u32).map(FieldIdx).collect();
            v.sort_by(|a, b| {
                self.hotness[b.index()]
                    .cmp(&self.hotness[a.index()])
                    .then(a.0.cmp(&b.0))
            });
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slopt_ir::builder::{FunctionBuilder, ProgramBuilder};
    use slopt_ir::cfg::InstanceSlot;
    use slopt_ir::interp::profile_invocations;
    use slopt_ir::types::{FieldType, PrimType, RecordType, TypeRegistry};

    #[test]
    fn from_parts_and_queries() {
        let flg = Flg::from_parts(
            RecordId(0),
            vec![10, 5, 0],
            vec![
                (FieldIdx(0), FieldIdx(1), 4.0),
                (FieldIdx(1), FieldIdx(2), -2.0),
            ],
        );
        assert_eq!(flg.field_count(), 3);
        assert_eq!(flg.weight(FieldIdx(0), FieldIdx(1)), 4.0);
        assert_eq!(flg.weight(FieldIdx(1), FieldIdx(0)), 4.0);
        assert_eq!(flg.weight(FieldIdx(2), FieldIdx(1)), -2.0);
        assert_eq!(flg.weight(FieldIdx(0), FieldIdx(2)), 0.0);
        assert_eq!(flg.weight(FieldIdx(0), FieldIdx(0)), 0.0);
        assert_eq!(flg.hotness(FieldIdx(0)), 10);
        let edges = flg.edges();
        assert_eq!(edges[0].2, 4.0);
        assert_eq!(edges[1].2, -2.0);
        assert_eq!(flg.gain_into(FieldIdx(1), &[FieldIdx(0), FieldIdx(2)]), 2.0);
        assert_eq!(
            flg.fields_by_hotness(),
            vec![FieldIdx(0), FieldIdx(1), FieldIdx(2)]
        );
    }

    #[test]
    fn build_combines_gain_and_loss() {
        // Affinity: f0-f1 = 100 (loop). Loss: f0-f1 = 1 concurrency unit.
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U64)),
                ("b", FieldType::Prim(PrimType::U64)),
            ],
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("f");
        let e = fb.add_block();
        let body = fb.add_block();
        let x = fb.add_block();
        fb.jump(e, body);
        fb.read(body, s, FieldIdx(0), InstanceSlot(0));
        fb.write(body, s, FieldIdx(1), InstanceSlot(0));
        fb.loop_latch(body, body, x, 100);
        let id = pb.add(fb, e);
        let prog = pb.finish();
        let profile = profile_invocations(&prog, &[id], 1, 100_000).unwrap();
        let aff = AffinityGraph::analyze(&prog, &profile, s);

        // No loss: pure positive edge.
        let flg = Flg::build(
            &aff,
            None,
            FlgParams {
                k1: 1.0,
                k2: 1000.0,
            },
            &slopt_obs::Obs::disabled(),
        );
        assert_eq!(flg.weight(FieldIdx(0), FieldIdx(1)), 100.0);

        // With synthetic loss: CC join can't easily be built here without a
        // run; covered by pipeline integration tests. Verify k1 scaling.
        let flg2 = Flg::build(
            &aff,
            None,
            FlgParams { k1: 2.0, k2: 1.0 },
            &slopt_obs::Obs::disabled(),
        );
        assert_eq!(flg2.weight(FieldIdx(0), FieldIdx(1)), 200.0);
        assert_eq!(flg2.record(), s);
        assert_eq!(flg2.hotness(FieldIdx(0)), 100);
    }

    #[test]
    fn hotness_order_breaks_ties_deterministically() {
        let flg = Flg::from_parts(RecordId(0), vec![5, 9, 5, 9], vec![]);
        assert_eq!(
            flg.fields_by_hotness(),
            vec![FieldIdx(1), FieldIdx(3), FieldIdx(0), FieldIdx(2)]
        );
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_parts_rejects_self_loops() {
        Flg::from_parts(
            RecordId(0),
            vec![1, 1],
            vec![(FieldIdx(0), FieldIdx(0), 1.0)],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_rejects_bad_indices() {
        Flg::from_parts(RecordId(0), vec![1], vec![(FieldIdx(0), FieldIdx(5), 1.0)]);
    }

    #[test]
    fn accumulated_zero_weight_edge_is_still_reported() {
        // Two contributions summing to exactly 0.0: weight() reads 0.0 but
        // edges() still lists the pair — the original hash-map semantics.
        let flg = Flg::from_parts(
            RecordId(0),
            vec![1, 1],
            vec![
                (FieldIdx(0), FieldIdx(1), 1.0),
                (FieldIdx(1), FieldIdx(0), -1.0),
            ],
        );
        assert_eq!(flg.weight(FieldIdx(0), FieldIdx(1)), 0.0);
        assert_eq!(flg.edges(), vec![(FieldIdx(0), FieldIdx(1), 0.0)]);
    }

    #[test]
    fn empty_and_single_field_records_work() {
        let empty = Flg::from_parts(RecordId(0), vec![], vec![]);
        assert_eq!(empty.field_count(), 0);
        assert!(empty.edges().is_empty());
        let one = Flg::from_parts(RecordId(0), vec![7], vec![]);
        assert_eq!(one.weight(FieldIdx(0), FieldIdx(0)), 0.0);
        assert_eq!(one.fields_by_hotness(), vec![FieldIdx(0)]);
    }

    #[test]
    fn dense_matches_reference_flg() {
        use super::reference::FlgRef;
        // Deterministic pseudo-random edge soup, including duplicates and
        // both orientations of the same pair.
        let n = 24u32;
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut edges = Vec::new();
        for _ in 0..300 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) as u32 % n;
            let b = (x >> 11) as u32 % n;
            if a == b {
                continue;
            }
            let w = ((x % 2001) as f64 - 1000.0) / 8.0;
            edges.push((FieldIdx(a), FieldIdx(b), w));
        }
        let hotness: Vec<u64> = (0..n as u64).map(|i| i * 37 % 11).collect();
        let dense = Flg::from_parts(RecordId(0), hotness.clone(), edges.clone());
        let reference = FlgRef::from_parts(RecordId(0), hotness, edges);
        assert_eq!(dense.edges(), reference.edges());
        assert_eq!(
            dense.fields_by_hotness(),
            FlgView::fields_by_hotness(&reference)
        );
        let members: Vec<FieldIdx> = (0..n).step_by(3).map(FieldIdx).collect();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    dense.weight(FieldIdx(i), FieldIdx(j)),
                    FlgView::weight(&reference, FieldIdx(i), FieldIdx(j))
                );
            }
            assert_eq!(
                dense.gain_into(FieldIdx(i), &members),
                FlgView::gain_into(&reference, FieldIdx(i), &members)
            );
        }
    }
}
