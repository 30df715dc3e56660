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
//! The same greedy clustering applies; what changes is that nodes have
//! individual sizes/alignments and the result is a section layout, not a
//! record layout.

use slopt_ir::interp::SplitMix64;
use slopt_ir::layout::align_up;
use std::collections::HashMap;
use std::fmt;

/// One global variable.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Alignment in bytes (power of two).
    pub align: u64,
}

/// Identifies a global in a [`GvlProblem`].
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash, Ord, PartialOrd)]
pub struct GlobalId(pub u32);

impl fmt::Display for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The GVL input: globals plus pairwise net weights
/// (`k1·affinity − k2·concurrency-loss`, exactly as for fields).
#[derive(Clone, Debug, Default)]
pub struct GvlProblem {
    globals: Vec<Global>,
    hotness: Vec<u64>,
    weights: HashMap<(u32, u32), f64>,
}

impl GvlProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a global and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if size is zero or alignment is not a power of two.
    pub fn add_global(
        &mut self,
        name: impl Into<String>,
        size: u64,
        align: u64,
        hotness: u64,
    ) -> GlobalId {
        assert!(size > 0, "zero-size global");
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(Global {
            name: name.into(),
            size,
            align,
        });
        self.hotness.push(hotness);
        id
    }

    /// Sets the net edge weight between two globals.
    ///
    /// # Panics
    ///
    /// Panics on self-edges or unknown ids.
    pub fn set_weight(&mut self, a: GlobalId, b: GlobalId, w: f64) {
        assert_ne!(a, b, "self-edge on {a}");
        assert!((a.0 as usize) < self.globals.len() && (b.0 as usize) < self.globals.len());
        let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.weights.insert(key, w);
    }

    fn weight(&self, a: u32, b: u32) -> f64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.weights.get(&key).copied().unwrap_or(0.0)
    }

    /// Number of globals.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// Whether the problem is empty.
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }
}

/// A produced section layout: every global gets a byte offset.
#[derive(Clone, Debug)]
pub struct SectionLayout {
    offsets: Vec<u64>,
    size: u64,
    line_size: u64,
}

impl SectionLayout {
    /// Offset of a global.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn offset(&self, g: GlobalId) -> u64 {
        self.offsets[g.0 as usize]
    }

    /// Total section size.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Whether two globals share a cache line.
    pub fn share_line(&self, problem: &GvlProblem, a: GlobalId, b: GlobalId) -> bool {
        let ga = &problem.globals[a.0 as usize];
        let gb = &problem.globals[b.0 as usize];
        let (a0, a1) = (
            self.offset(a) / self.line_size,
            (self.offset(a) + ga.size - 1) / self.line_size,
        );
        let (b0, b1) = (
            self.offset(b) / self.line_size,
            (self.offset(b) + gb.size - 1) / self.line_size,
        );
        a0 <= b1 && b0 <= a1
    }
}

/// Lays out the globals: greedy clustering (hotness-seeded, positive-gain
/// growth, line-capacity-bounded — the field algorithm verbatim), then one
/// line-aligned run per cluster.
///
/// # Panics
///
/// Panics if `line_size` is not a power of two.
pub fn layout_globals(problem: &GvlProblem, line_size: u64) -> SectionLayout {
    assert!(
        line_size.is_power_of_two(),
        "line size must be a power of two"
    );
    let n = problem.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        problem.hotness[b as usize]
            .cmp(&problem.hotness[a as usize])
            .then(a.cmp(&b))
    });

    let bytes_of = |members: &[u32]| -> u64 {
        let mut cursor = 0;
        for &m in members {
            let g = &problem.globals[m as usize];
            cursor = align_up(cursor, g.align);
            cursor += g.size;
        }
        cursor
    };
    let lines_of = |members: &[u32]| bytes_of(members).div_ceil(line_size).max(1);

    let mut unassigned = order;
    let mut clusters: Vec<Vec<u32>> = Vec::new();
    while !unassigned.is_empty() {
        let seed = unassigned.remove(0);
        let mut cluster = vec![seed];
        loop {
            let current_lines = lines_of(&cluster);
            let mut best: Option<u32> = None;
            let mut best_w = 0.0;
            for &cand in &unassigned {
                let mut extended = cluster.clone();
                extended.push(cand);
                if lines_of(&extended) > current_lines {
                    continue;
                }
                let w: f64 = cluster.iter().map(|&m| problem.weight(cand, m)).sum();
                if w > best_w {
                    best_w = w;
                    best = Some(cand);
                }
            }
            match best {
                Some(b) => {
                    unassigned.retain(|&x| x != b);
                    cluster.push(b);
                }
                None => break,
            }
        }
        clusters.push(cluster);
    }

    // Materialize: hot clusters line-aligned, all-cold clusters packed in
    // one tail (same policy as the record layouts).
    let mut offsets = vec![0u64; n];
    let mut cursor = 0u64;
    let mut cold_tail: Vec<u32> = Vec::new();
    for cluster in &clusters {
        if cluster.iter().all(|&m| problem.hotness[m as usize] == 0) {
            cold_tail.extend_from_slice(cluster);
            continue;
        }
        cursor = align_up(cursor, line_size);
        for &m in cluster {
            let g = &problem.globals[m as usize];
            cursor = align_up(cursor, g.align);
            offsets[m as usize] = cursor;
            cursor += g.size;
        }
    }
    if !cold_tail.is_empty() {
        cursor = align_up(cursor, line_size);
        for m in cold_tail {
            let g = &problem.globals[m as usize];
            cursor = align_up(cursor, g.align);
            offsets[m as usize] = cursor;
            cursor += g.size;
        }
    }
    SectionLayout {
        offsets,
        size: cursor,
        line_size,
    }
}

/// A deterministic shuffled layout — the "link order" baseline GVL papers
/// compare against.
pub fn link_order_layout(problem: &GvlProblem, seed: u64, line_size: u64) -> SectionLayout {
    let n = problem.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut offsets = vec![0u64; n];
    let mut cursor = 0u64;
    for m in order {
        let g = &problem.globals[m as usize];
        cursor = align_up(cursor, g.align);
        offsets[m as usize] = cursor;
        cursor += g.size;
    }
    SectionLayout {
        offsets,
        size: cursor,
        line_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two counter globals written by different CPUs plus a pair of
    /// read-affine config globals.
    fn sample_problem() -> (GvlProblem, GlobalId, GlobalId, GlobalId, GlobalId) {
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
        assert!(
            !layout.share_line(&p, c1, c2),
            "concurrent counters must split"
        );
        assert!(
            layout.share_line(&p, cfg_a, cfg_b),
            "affine config must co-locate"
        );
        assert!(
            !layout.share_line(&p, c1, cfg_a),
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
        let layout = link_order_layout(&p, 7, 128);
        assert!(layout.share_line(&p, c1, c2));
        assert!(layout.size() <= 64);
    }

    #[test]
    fn cold_globals_pack_into_a_tail() {
        let mut p = GvlProblem::new();
        let hot = p.add_global("hot", 8, 8, 100);
        let colds: Vec<GlobalId> = (0..10)
            .map(|i| p.add_global(format!("cold{i}"), 8, 8, 0))
            .collect();
        let layout = layout_globals(&p, 128);
        for &c in &colds {
            assert!(
                !layout.share_line(&p, hot, c),
                "cold tail on its own line(s)"
            );
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
            layout.share_line(&p, big, small),
            "affine pair packs into the table's tail line"
        );
        assert_eq!(layout.offset(small) % 4, 0);
    }

    #[test]
    #[should_panic(expected = "self-edge")]
    fn self_edges_rejected() {
        let mut p = GvlProblem::new();
        let g = p.add_global("x", 8, 8, 1);
        p.set_weight(g, g, 1.0);
    }
}
