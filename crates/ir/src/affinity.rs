//! Static affinity analysis (paper §4.1).
//!
//! Two fields are *affine* if they are referenced at the same level of
//! granularity — inside the same innermost loop, or in the straight-line
//! (non-loop) code of the same procedure. Each such region forms an
//! *affinity group*; the profile-weighted access counts of the group's
//! fields induce edge weights between every pair of its fields.
//!
//! The edge weight uses the paper's **Minimum Heuristic**: within a region,
//! the affinity between `f1` and `f2` is `min(count(f1), count(f2))` where
//! `count(f)` is the profile-weighted number of reads+writes of `f` in the
//! region — the dynamic weight of any acyclic path containing both fields
//! is upper-bounded by that minimum.
//!
//! The analysis is intra-procedural, as in the paper (calls do not
//! propagate affinity; inlining before the analysis would).

use crate::cfg::Program;
use crate::dom::DominatorTree;
use crate::loops::{LoopForest, LoopId};
use crate::profile::Profile;
use crate::types::{FieldIdx, RecordId};
use std::collections::HashMap;

/// How affinity-group member counts turn into edge weights.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub enum AffinityMode {
    /// The paper's refined **Minimum Heuristic**: the affinity of two
    /// fields in a region is the minimum of their access counts there.
    #[default]
    Minimum,
    /// The CGO'06 (Hundt et al.) heuristic: every pair in a group gets the
    /// group's execution frequency, regardless of per-field counts. Kept
    /// for the `ablate min_heuristic` comparison.
    GroupFrequency,
}

/// Per-field read/write counts and pairwise affinity weights for one record.
#[derive(Clone, Debug)]
pub struct AffinityGraph {
    record: RecordId,
    field_count: usize,
    /// Edge weights keyed by `(min_idx, max_idx)`.
    weights: HashMap<(u32, u32), u64>,
    hotness: Vec<u64>,
    reads: Vec<u64>,
    writes: Vec<u64>,
}

impl AffinityGraph {
    /// Runs the affinity analysis for `record` over the whole program,
    /// weighting accesses by `profile` block counts (Minimum Heuristic).
    pub fn analyze(program: &Program, profile: &Profile, record: RecordId) -> Self {
        Self::analyze_with_mode(program, profile, record, AffinityMode::Minimum)
    }

    /// Like [`AffinityGraph::analyze`] with an explicit weighting mode.
    pub fn analyze_with_mode(
        program: &Program,
        profile: &Profile,
        record: RecordId,
        mode: AffinityMode,
    ) -> Self {
        let field_count = program.registry().record(record).field_count();
        let mut graph = AffinityGraph {
            record,
            field_count,
            weights: HashMap::new(),
            hotness: vec![0; field_count],
            reads: vec![0; field_count],
            writes: vec![0; field_count],
        };

        for (fid, func) in program.functions() {
            let dom = DominatorTree::compute(func);
            let loops = LoopForest::compute(func, &dom);

            // Region (innermost loop or None) -> field -> weighted count,
            // plus the region's own execution frequency (max block count).
            let mut regions: HashMap<Option<LoopId>, HashMap<FieldIdx, u64>> = HashMap::new();
            let mut region_freq: HashMap<Option<LoopId>, u64> = HashMap::new();
            for (bid, block) in func.blocks() {
                let freq = profile.count(fid, bid);
                if freq == 0 {
                    continue;
                }
                let region = loops.innermost(bid);
                for access in block.accesses() {
                    if access.record != record {
                        continue;
                    }
                    *regions
                        .entry(region)
                        .or_default()
                        .entry(access.field)
                        .or_insert(0) += freq;
                    let rf = region_freq.entry(region).or_insert(0);
                    *rf = (*rf).max(freq);
                    let i = access.field.index();
                    graph.hotness[i] += freq;
                    if access.kind.is_write() {
                        graph.writes[i] += freq;
                    } else {
                        graph.reads[i] += freq;
                    }
                }
            }

            // Edge weights within each region.
            for (region, counts) in &regions {
                let mut fields: Vec<(&FieldIdx, &u64)> = counts.iter().collect();
                fields.sort_by_key(|(f, _)| **f);
                for i in 0..fields.len() {
                    for j in (i + 1)..fields.len() {
                        let (fa, ca) = fields[i];
                        let (fb, cb) = fields[j];
                        let w = match mode {
                            AffinityMode::Minimum => (*ca).min(*cb),
                            AffinityMode::GroupFrequency => region_freq[region],
                        };
                        if w > 0 {
                            *graph.weights.entry(Self::key(*fa, *fb)).or_insert(0) += w;
                        }
                    }
                }
            }
        }

        graph
    }

    fn key(f1: FieldIdx, f2: FieldIdx) -> (u32, u32) {
        if f1.0 <= f2.0 {
            (f1.0, f2.0)
        } else {
            (f2.0, f1.0)
        }
    }

    /// The record this graph describes.
    pub fn record(&self) -> RecordId {
        self.record
    }

    /// Number of fields in the record.
    pub fn field_count(&self) -> usize {
        self.field_count
    }

    /// Affinity weight between two fields (0 if never co-referenced; 0 for
    /// `f1 == f2`).
    pub fn weight(&self, f1: FieldIdx, f2: FieldIdx) -> u64 {
        if f1 == f2 {
            return 0;
        }
        self.weights.get(&Self::key(f1, f2)).copied().unwrap_or(0)
    }

    /// Profile-weighted total reference count of a field.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn hotness(&self, f: FieldIdx) -> u64 {
        self.hotness[f.index()]
    }

    /// Profile-weighted read count of a field.
    pub fn read_count(&self, f: FieldIdx) -> u64 {
        self.reads[f.index()]
    }

    /// Profile-weighted write count of a field.
    pub fn write_count(&self, f: FieldIdx) -> u64 {
        self.writes[f.index()]
    }

    /// All non-zero affinity edges as `(f1, f2, weight)` with `f1 < f2`, in
    /// ascending field order.
    pub fn edges(&self) -> Vec<(FieldIdx, FieldIdx, u64)> {
        let mut out: Vec<_> = self
            .weights
            .iter()
            .filter(|&(_, &w)| w > 0)
            .map(|(&(a, b), &w)| (FieldIdx(a), FieldIdx(b), w))
            .collect();
        out.sort();
        out
    }
}

/// Renders the affinity graph (nodes with hotness/R/W, then weighted edges)
/// in the spirit of the paper's Fig. 5.
impl std::fmt::Display for AffinityGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "affinity graph for {} ({} fields)",
            self.record, self.field_count
        )?;
        for i in 0..self.field_count {
            let fi = FieldIdx(i as u32);
            if self.hotness(fi) > 0 {
                writeln!(
                    f,
                    "  {fi}: h={} R={} W={}",
                    self.hotness(fi),
                    self.read_count(fi),
                    self.write_count(fi)
                )?;
            }
        }
        for (a, b, w) in self.edges() {
            writeln!(f, "  {a} -- {b}: {w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::cfg::InstanceSlot;
    use crate::interp::profile_invocations;
    use crate::types::{FieldType, PrimType, RecordType, TypeRegistry};

    /// Reconstructs the paper's Fig. 4/5 example:
    ///
    /// ```c
    /// /* entry PBO count: n */
    /// S.f1 = ;  S.f2 = ;
    /// for (i = 0; i < N; i++) {
    ///     S.f3 = ;
    ///     = S.f3 + S.f1;
    ///     = S.f3;
    /// }
    /// ```
    ///
    /// Expected (paper Fig. 5): edge f1–f2 = n, edge f1–f3 = N,
    /// h(f1) = N + n, f3: R = 2N, W = N, f2: R = 0, W = n.
    #[test]
    fn paper_fig5_affinity_graph() {
        let n_entry = 5u64; // "n"
        let trip = 100u32; // "N"

        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![
                ("f1", FieldType::Prim(PrimType::U64)),
                ("f2", FieldType::Prim(PrimType::U64)),
                ("f3", FieldType::Prim(PrimType::U64)),
            ],
        ));
        let (f1, f2, f3) = (FieldIdx(0), FieldIdx(1), FieldIdx(2));

        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("fig4");
        let entry = fb.add_block();
        let body = fb.add_block();
        let exit = fb.add_block();
        let slot = InstanceSlot(0);
        fb.write(entry, s, f1, slot)
            .write(entry, s, f2, slot)
            .jump(entry, body);
        fb.write(body, s, f3, slot)
            .read(body, s, f3, slot)
            .read(body, s, f1, slot)
            .read(body, s, f3, slot)
            .loop_latch(body, body, exit, trip);
        let id = pb.add(fb, entry);
        let prog = pb.finish();

        let invocations = vec![id; n_entry as usize];
        let profile = profile_invocations(&prog, &invocations, 1, 1_000_000).unwrap();
        let g = AffinityGraph::analyze(&prog, &profile, s);

        let big_n = n_entry * trip as u64;
        // Node attributes.
        assert_eq!(g.hotness(f1), big_n + n_entry, "h(f1) = N + n");
        assert_eq!(g.read_count(f1), big_n);
        assert_eq!(g.write_count(f1), n_entry);
        assert_eq!(g.read_count(f2), 0);
        assert_eq!(g.write_count(f2), n_entry);
        assert_eq!(g.read_count(f3), 2 * big_n, "f3 R = 2N");
        assert_eq!(g.write_count(f3), big_n, "f3 W = N");
        // Edges.
        assert_eq!(g.weight(f1, f2), n_entry, "straight-line group weight n");
        assert_eq!(
            g.weight(f1, f3),
            big_n,
            "loop group weight N (min heuristic)"
        );
        assert_eq!(g.weight(f2, f3), 0, "f2 and f3 never share a region");
        // Symmetry & self.
        assert_eq!(g.weight(f3, f1), g.weight(f1, f3));
        assert_eq!(g.weight(f1, f1), 0);
        // Display mentions all hot fields.
        let txt = g.to_string();
        assert!(txt.contains("f0") && txt.contains("f2"));
    }

    #[test]
    fn minimum_heuristic_caps_unbalanced_counts() {
        // In one loop, f0 accessed once per iteration, f1 accessed 5 times.
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
        for _ in 0..5 {
            fb.read(body, s, FieldIdx(1), InstanceSlot(0));
        }
        fb.loop_latch(body, body, x, 10);
        let id = pb.add(fb, e);
        let prog = pb.finish();
        let profile = profile_invocations(&prog, &[id], 1, 10_000).unwrap();
        let g = AffinityGraph::analyze(&prog, &profile, s);
        assert_eq!(g.weight(FieldIdx(0), FieldIdx(1)), 10, "min(10, 50) = 10");
        assert_eq!(g.hotness(FieldIdx(1)), 50);
    }

    #[test]
    fn different_records_do_not_mix() {
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![("a", FieldType::Prim(PrimType::U64))],
        ));
        let t = reg.add_record(RecordType::new(
            "T",
            vec![("z", FieldType::Prim(PrimType::U64))],
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("f");
        let e = fb.add_block();
        fb.read(e, s, FieldIdx(0), InstanceSlot(0));
        fb.read(e, t, FieldIdx(0), InstanceSlot(1));
        let id = pb.add(fb, e);
        let prog = pb.finish();
        let profile = profile_invocations(&prog, &[id], 1, 100).unwrap();
        let gs = AffinityGraph::analyze(&prog, &profile, s);
        let gt = AffinityGraph::analyze(&prog, &profile, t);
        assert_eq!(gs.hotness(FieldIdx(0)), 1);
        assert_eq!(gt.hotness(FieldIdx(0)), 1);
        assert!(gs.edges().is_empty());
        assert!(gt.edges().is_empty());
    }

    #[test]
    fn affinity_is_intra_procedural() {
        // f0 accessed in caller, f1 in callee: no edge (paper approximation 1).
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U64)),
                ("b", FieldType::Prim(PrimType::U64)),
            ],
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut callee = FunctionBuilder::new("callee");
        let c0 = callee.add_block();
        callee.read(c0, s, FieldIdx(1), InstanceSlot(0));
        let callee_id = pb.add(callee, c0);

        let mut caller = FunctionBuilder::new("caller");
        let b0 = caller.add_block();
        caller.read(b0, s, FieldIdx(0), InstanceSlot(0));
        caller.call(b0, callee_id);
        let caller_id = pb.add(caller, b0);
        let prog = pb.finish();
        let profile = profile_invocations(&prog, &[caller_id], 1, 100).unwrap();
        let g = AffinityGraph::analyze(&prog, &profile, s);
        assert_eq!(g.weight(FieldIdx(0), FieldIdx(1)), 0);
        assert_eq!(g.hotness(FieldIdx(0)), 1);
        assert_eq!(g.hotness(FieldIdx(1)), 1);
    }

    #[test]
    fn cold_blocks_contribute_nothing() {
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
        let cold = fb.add_block();
        let out = fb.add_block();
        fb.read(e, s, FieldIdx(0), InstanceSlot(0));
        fb.branch(e, cold, out, 0.0); // never taken
        fb.read(cold, s, FieldIdx(1), InstanceSlot(0));
        fb.jump(cold, out);
        let id = pb.add(fb, e);
        let prog = pb.finish();
        let profile = profile_invocations(&prog, &[id], 1, 100).unwrap();
        let g = AffinityGraph::analyze(&prog, &profile, s);
        assert_eq!(g.hotness(FieldIdx(1)), 0);
        assert_eq!(g.weight(FieldIdx(0), FieldIdx(1)), 0);
    }
}
