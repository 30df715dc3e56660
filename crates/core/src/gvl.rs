//! Concurrency-aware Global Variable Layout (GVL) — the paper's stated
//! future work, implemented.
//!
//! §6/§7 of the paper: "Mcintosh et al. mention as future work doing
//! global variable layout for multithreaded code in order to avoid false
//! sharing misses. We plan to integrate code concurrency information into
//! the compiler's GVL framework." The problem is the field-layout problem
//! one level up: *globals* (scalars or whole records) are the nodes,
//! affinity and Code-Concurrency-derived loss are the edges, and the
//! output is an assignment of globals to cache lines in the image's data
//! section.
//!
//! So the section *is* a record: [`GvlProblem::section`] views it as a
//! [`RecordType`] whose fields are its globals (each a
//! [`FieldType::Opaque`] of the global's size and alignment), and
//! [`GvlProblem::flg`] as that record's FLG. [`layout_globals`] is then
//! [`cluster`] followed by [`layout_from_clusters`], the field algorithm
//! and cold-tail policy verbatim, and the "link order" baseline is
//! [`random_layout`](crate::heuristics::random_layout) of the section.

use crate::cluster::cluster;
use crate::flg::Flg;
use crate::layoutgen::{layout_from_clusters, LayoutOptions};
use slopt_ir::layout::StructLayout;
use slopt_ir::types::{FieldIdx, FieldType, RecordId, RecordType};
use std::collections::BTreeMap;

/// The GVL input: globals plus pairwise net weights
/// (`k1·affinity − k2·concurrency-loss`, exactly as for fields).
#[derive(Clone, Debug, Default)]
pub struct GvlProblem {
    globals: Vec<(String, FieldType)>,
    hotness: Vec<u64>,
    weights: BTreeMap<(FieldIdx, FieldIdx), f64>,
}

impl GvlProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a global and returns its field in [`GvlProblem::section`].
    ///
    /// # Panics
    ///
    /// Panics if size is zero, alignment is not a power of two, or a
    /// global of the same name was already added.
    pub fn add_global(
        &mut self,
        name: impl Into<String>,
        size: u64,
        align: u64,
        hotness: u64,
    ) -> FieldIdx {
        let name = name.into();
        assert!(size > 0, "zero-size global");
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(
            self.globals.iter().all(|(n, _)| *n != name),
            "duplicate global `{name}`"
        );
        let id = FieldIdx(self.globals.len() as u32);
        self.globals.push((name, FieldType::Opaque { size, align }));
        self.hotness.push(hotness);
        id
    }

    /// Sets the net edge weight between two globals.
    ///
    /// # Panics
    ///
    /// Panics on self-edges or unknown ids.
    pub fn set_weight(&mut self, a: FieldIdx, b: FieldIdx, w: f64) {
        assert_ne!(a, b, "self-edge on {a}");
        assert!(a.index() < self.globals.len() && b.index() < self.globals.len());
        self.weights.insert((a.min(b), a.max(b)), w);
    }

    /// Number of globals.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// Whether the problem is empty.
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// The data section as a record: one opaque field per global, in id
    /// order.
    pub fn section(&self) -> RecordType {
        RecordType::new("section", self.globals.clone())
    }

    /// The section's FLG: the globals' hotness and net weights.
    pub fn flg(&self) -> Flg {
        Flg::from_parts(
            RecordId(0),
            self.hotness.clone(),
            self.weights.iter().map(|(&(a, b), &w)| (a, b, w)),
        )
    }
}

/// Lays out the globals: the field clustering over the section record,
/// then one line-aligned run per cluster with the cold globals packed in
/// one tail.
///
/// # Panics
///
/// Panics if `line_size` is not a power of two.
pub fn layout_globals(problem: &GvlProblem, line_size: u64) -> StructLayout {
    let section = problem.section();
    let flg = problem.flg();
    let clustering = cluster(&flg, &section, line_size, &slopt_obs::Obs::disabled());
    layout_from_clusters(&section, &clustering, &flg, LayoutOptions { line_size })
        .expect("a clustering of the section is a partition of its globals")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::random_layout;

    /// Two counter globals written by different CPUs plus a pair of
    /// read-affine config globals.
    fn sample_problem() -> (GvlProblem, FieldIdx, FieldIdx, FieldIdx, FieldIdx) {
        let mut p = GvlProblem::new();
        let c1 = p.add_global("cpu_ticks", 8, 8, 900);
        let c2 = p.add_global("io_ticks", 8, 8, 800);
        let cfg_a = p.add_global("hz", 8, 8, 700);
        let cfg_b = p.add_global("tick_ns", 8, 8, 650);
        p.set_weight(c1, c2, -500.0); // concurrent writers
        p.set_weight(cfg_a, cfg_b, 300.0); // read together
        p.set_weight(c1, cfg_a, -200.0); // writer vs hot readers
        p.set_weight(c1, cfg_b, -200.0);
        (p, c1, c2, cfg_a, cfg_b)
    }

    #[test]
    fn contended_globals_get_separate_lines() {
        let (p, c1, c2, cfg_a, cfg_b) = sample_problem();
        let layout = layout_globals(&p, 128);
        assert!(!layout.share_line(c1, c2), "concurrent counters must split");
        assert!(
            layout.share_line(cfg_a, cfg_b),
            "affine config must co-locate"
        );
        assert!(
            !layout.share_line(c1, cfg_a),
            "writer separated from hot readers"
        );
        // Offsets respect alignment.
        for g in [c1, c2, cfg_a, cfg_b] {
            assert_eq!(layout.offset(g) % 8, 0);
        }
    }

    #[test]
    fn link_order_baseline_often_collides() {
        let (p, c1, c2, _, _) = sample_problem();
        // 4 tiny globals in 32 bytes: a random packing always shares lines.
        let layout = random_layout(&p.section(), 7, 128).unwrap();
        assert!(layout.share_line(c1, c2));
        assert!(layout.size() <= 64);
    }

    #[test]
    fn cold_globals_pack_into_a_tail() {
        let mut p = GvlProblem::new();
        let hot = p.add_global("hot", 8, 8, 100);
        let colds: Vec<FieldIdx> = (0..10)
            .map(|i| p.add_global(format!("cold{i}"), 8, 8, 0))
            .collect();
        let layout = layout_globals(&p, 128);
        for &c in &colds {
            assert!(!layout.share_line(hot, c), "cold tail on its own line(s)");
        }
        // Tail is packed, not one line per global.
        assert!(layout.size() <= 3 * 128);
    }

    #[test]
    fn mixed_sizes_and_alignments() {
        let mut p = GvlProblem::new();
        let big = p.add_global("table", 200, 8, 60);
        let small = p.add_global("len", 4, 4, 50);
        p.set_weight(big, small, 40.0);
        let layout = layout_globals(&p, 128);
        assert!(
            layout.share_line(big, small),
            "affine pair packs into the table's tail line"
        );
        assert_eq!(layout.offset(small) % 4, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate global `x`")]
    fn duplicate_names_rejected() {
        let mut p = GvlProblem::new();
        p.add_global("x", 8, 8, 1);
        p.add_global("x", 4, 4, 1);
    }

    #[test]
    #[should_panic(expected = "self-edge")]
    fn self_edges_rejected() {
        let mut p = GvlProblem::new();
        let g = p.add_global("x", 8, 8, 1);
        p.set_weight(g, g, 1.0);
    }
}
