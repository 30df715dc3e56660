//! Code Concurrency (paper §3.2 and §4.2).
//!
//! Divide the run into fixed-size time intervals. Within interval `I`, let
//! `F_I(P, B)` be how often CPU `P` was observed in block `B` (from PMU
//! samples, or exact counts for validation). Then
//!
//! ```text
//! CC_I(Bi, Bj) = Σ_{Pm ≠ Pn} min(F_I(Pm, Bi), F_I(Pn, Bj))
//! CC(Bi, Bj)   = Σ_I CC_I(Bi, Bj)
//! ```
//!
//! A large `CC(Bi, Bj)` means: whenever some CPU executes `Bi`, some *other*
//! CPU is executing `Bj` at roughly the same time — the precondition for
//! false sharing between fields those blocks touch.
//!
//! Blocks are identified by their source lines (the sampled IP is resolved
//! through the source correlation table), so the result is a
//! [`ConcurrencyMap`] over source-line pairs, as in the paper's external
//! scripts.
//!
//! **Data layout.** Source lines, CPUs and intervals are interned into
//! dense ids once per run ([`LineInterner`]); the sample stream is
//! collapsed into sorted distinct `(interval, cpu, line) -> count` cells,
//! and each interval's min-sum runs through the blocked kernel
//! (`interval_minsum`): the identity `min(a, b) = Σ_t [a ≥ t][b ≥ t]`
//! rewrites the paper's cross-CPU min-sum as a sum of per-threshold outer
//! products over a dense per-line vector, minus small same-CPU
//! corrections. The outer products update contiguous triangular-row tails
//! in fixed-width lanes — multiply-adds LLVM auto-vectorizes, with no
//! hashing, no scatter and no per-element bounds checks on the hot path.
//! All contributions are exact `u64` adds, so the result is bit-identical
//! to the naive formulation (DESIGN.md §13 gives the derivation and the
//! measured numbers).
//!
//! **One cell store.** The batch map ([`concurrency_map`]) is one
//! [`crate::StreamingConcurrency`] batch, and every interval slot of the
//! serve window ([`crate::WindowedConcurrency`]) is one such fold too: all
//! three keep their cells in its sorted run and finish through the same
//! `finish_cells`, so the paths cannot drift apart.
//!
//! Two earlier formulations are retained for differential testing and the
//! `perf_report` old-vs-new comparison: [`concurrency_map_reference`]
//! (the flat `[interval × cpu × line]` count-tensor pipeline this kernel
//! replaced) and [`concurrency_map_naive`] (triple-nested maps). All
//! three produce identical maps.

use crate::sampler::Sample;
use crate::shard::StreamingConcurrency;
use slopt_ir::par::par_map;
use slopt_ir::source::SourceLine;
use slopt_obs::Obs;
use std::collections::HashMap;
use std::sync::Mutex;

/// Configuration for interval bucketing.
#[derive(Copy, Clone, Debug)]
pub struct ConcurrencyConfig {
    /// Interval length in cycles. The paper uses 1 ms wall time ≈ 1.2 M
    /// cycles at 1.2 GHz.
    pub interval: u64,
}

impl Default for ConcurrencyConfig {
    fn default() -> Self {
        ConcurrencyConfig {
            interval: 1_200_000,
        }
    }
}

/// Dense id of an interned [`SourceLine`] (see [`LineInterner`]).
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash, Ord, PartialOrd)]
pub struct LineId(pub u32);

impl LineId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interns the distinct source lines of one run into dense `u32` ids.
///
/// Ids are assigned in ascending line order, so **id order equals line
/// order**: `id(a) < id(b) ⇔ a < b`. Downstream consumers
/// ([`crate::cycleloss`]) exploit this to work entirely on ids and only
/// resolve back to [`SourceLine`]s at the edges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LineInterner {
    /// Interned lines in ascending order; the index is the id.
    lines: Vec<SourceLine>,
    ids: HashMap<SourceLine, u32>,
}

impl LineInterner {
    /// Builds an interner over the distinct lines of an iterator.
    pub fn from_lines(iter: impl IntoIterator<Item = SourceLine>) -> Self {
        let mut lines: Vec<SourceLine> = iter.into_iter().collect();
        lines.sort_unstable();
        lines.dedup();
        let ids = lines
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i as u32))
            .collect();
        LineInterner { lines, ids }
    }

    /// The id of `line`, if it was interned.
    pub fn id(&self, line: SourceLine) -> Option<LineId> {
        self.ids.get(&line).copied().map(LineId)
    }

    /// The line behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this interner.
    pub fn line(&self, id: LineId) -> SourceLine {
        self.lines[id.index()]
    }

    /// The interned lines in ascending order (index = id).
    pub fn lines(&self) -> &[SourceLine] {
        &self.lines
    }

    /// Number of interned lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Pairwise code-concurrency values over source lines.
///
/// Internally keyed by interned [`LineId`] pairs; the [`LineInterner`] is
/// carried along so consumers can stay in id space
/// ([`ConcurrencyMap::interned_pairs`]) or resolve to lines
/// ([`ConcurrencyMap::pairs`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConcurrencyMap {
    interner: LineInterner,
    /// Keys are normalized `(min_id, max_id)` — equivalently
    /// `(min_line, max_line)`, since id order equals line order.
    map: HashMap<(u32, u32), u64>,
}

impl ConcurrencyMap {
    /// The canonical empty map: no interned lines, no pairs. This is what
    /// the estimator returns for an empty trace (and for any trace without
    /// cross-CPU overlap, e.g. a single-CPU or single-sample run).
    pub fn empty() -> Self {
        ConcurrencyMap::default()
    }

    /// Assembles a map from an interner and a normalized
    /// `(min_id, max_id) -> cc` pair map. Used by the final fold
    /// (`finish_cells`) and [`concurrency_map_reference`]; callers must
    /// guarantee keys are normalized and non-zero.
    pub(crate) fn from_parts(interner: LineInterner, map: HashMap<(u32, u32), u64>) -> Self {
        debug_assert!(map.iter().all(|(&(a, b), &cc)| a <= b && cc > 0));
        ConcurrencyMap { interner, map }
    }

    /// The concurrency value for a pair of lines (0 if never concurrent).
    pub fn get(&self, a: SourceLine, b: SourceLine) -> u64 {
        let (Some(ia), Some(ib)) = (self.interner.id(a), self.interner.id(b)) else {
            return 0;
        };
        let key = if ia <= ib { (ia.0, ib.0) } else { (ib.0, ia.0) };
        self.map.get(&key).copied().unwrap_or(0)
    }

    /// The interner mapping this run's source lines to dense ids.
    pub fn interner(&self) -> &LineInterner {
        &self.interner
    }

    /// All non-zero pairs as `(id_a, id_b, cc)` with `id_a <= id_b`,
    /// sorted by descending concurrency (ties broken by ids — the same
    /// order as [`ConcurrencyMap::pairs`], since id order equals line
    /// order).
    pub fn interned_pairs(&self) -> Vec<(LineId, LineId, u64)> {
        let mut v: Vec<_> = self
            .map
            .iter()
            .map(|(&(a, b), &cc)| (LineId(a), LineId(b), cc))
            .collect();
        v.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        v
    }

    /// All non-zero pairs as `(line_a, line_b, cc)` with `line_a <= line_b`,
    /// sorted by descending concurrency (ties broken by line ids for
    /// determinism).
    pub fn pairs(&self) -> Vec<(SourceLine, SourceLine, u64)> {
        self.interned_pairs()
            .into_iter()
            .map(|(a, b, cc)| (self.interner.line(a), self.interner.line(b), cc))
            .collect()
    }

    /// The `k` most concurrent pairs.
    pub fn top_pairs(&self, k: usize) -> Vec<(SourceLine, SourceLine, u64)> {
        let mut v = self.pairs();
        v.truncate(k);
        v
    }

    /// Number of pairs with non-zero concurrency.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no concurrency was observed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Above this many distinct lines the per-interval min-sums accumulate
/// into a hash map instead of a dense triangular array (which would need
/// `lines²/2` words). Runs of the synthetic kernel have a few hundred
/// distinct lines, well below the limit.
const DENSE_ACCUMULATOR_LINE_LIMIT: usize = 2048;

/// Block length (in `u64` accumulator words) for the pairwise triangular
/// merge: a 32 KiB chunk of each side streams through L1 per step, and
/// `chunks_exact` gives LLVM a fixed trip count to vectorize without
/// bounds checks.
const MERGE_BLOCK: usize = 4096;

/// Lane width of the kernel's row-tail multiply-add loop. Eight `u64`
/// accumulators per block keeps the inner loop branch-free with a
/// compile-time trip count (bounds checks elided by `chunks_exact`),
/// which LLVM turns into packed multiply-add.
const ROW_LANES: usize = 8;

/// Per-pair min-sum accumulator shared by the batch path
/// ([`concurrency_map`]) and the streaming path
/// ([`crate::shard::StreamingConcurrency`]): a dense triangular `u64`
/// array when the line universe is small, a hash map beyond
/// ([`DENSE_ACCUMULATOR_LINE_LIMIT`]).
///
/// All contributions are exact `u64` additions, so accumulators over
/// disjoint interval sets can be [`merge`](CcAccumulator::merge)d in any
/// order without changing the final map — the determinism argument for
/// the parallel shard merge (DESIGN.md §11 and §13).
#[derive(Clone, Debug)]
pub(crate) struct CcAccumulator {
    n_lines: usize,
    dense: bool,
    tri: Vec<u64>,
    sparse: HashMap<(u32, u32), u64>,
}

impl CcAccumulator {
    /// An empty accumulator over a universe of `n_lines` interned lines.
    pub(crate) fn new(n_lines: usize) -> Self {
        let dense = n_lines <= DENSE_ACCUMULATOR_LINE_LIMIT;
        CcAccumulator {
            n_lines,
            dense,
            tri: vec![
                0u64;
                if dense {
                    n_lines * (n_lines + 1) / 2
                } else {
                    0
                }
            ],
            sparse: HashMap::new(),
        }
    }

    /// Whether the dense triangular backing is in use.
    pub(crate) fn is_dense(&self) -> bool {
        self.dense
    }

    /// Triangular index of `(i <= j)` with diagonal: row `i` starts at
    /// `i*n - i*(i-1)/2 = i*(2n+1-i)/2`, offset `j - i`.
    #[inline]
    fn tri_idx(&self, i: usize, j: usize) -> usize {
        i * (2 * self.n_lines + 1 - i) / 2 + (j - i)
    }

    /// The dense triangular row of line `li`: one slot per `lj` in
    /// `li..n_lines`, starting at the diagonal. The kernel's row updates
    /// run over this contiguous tail. Dense mode only.
    #[inline]
    fn row_mut(&mut self, li: usize) -> &mut [u64] {
        debug_assert!(self.dense);
        let start = self.tri_idx(li, li);
        let len = self.n_lines - li;
        &mut self.tri[start..start + len]
    }

    /// Adds `v` to the normalized pair `(li <= lj)`.
    #[inline]
    pub(crate) fn add(&mut self, li: u32, lj: u32, v: u64) {
        debug_assert!(li <= lj);
        if self.dense {
            let idx = self.tri_idx(li as usize, lj as usize);
            self.tri[idx] += v;
        } else {
            *self.sparse.entry((li, lj)).or_insert(0) += v;
        }
    }

    /// Folds `other` (an accumulator over the same line universe) into
    /// `self` by elementwise addition. Exact and commutative, hence
    /// merge-order independent. The dense case streams both triangles in
    /// [`MERGE_BLOCK`]-word blocks so the adds stay cache-sequential and
    /// vectorizable.
    pub(crate) fn merge(&mut self, other: CcAccumulator) {
        debug_assert_eq!(self.n_lines, other.n_lines);
        debug_assert_eq!(self.dense, other.dense);
        if self.dense {
            let mut dst = self.tri.chunks_exact_mut(MERGE_BLOCK);
            let mut src = other.tri.chunks_exact(MERGE_BLOCK);
            for (db, sb) in (&mut dst).zip(&mut src) {
                for (d, &s) in db.iter_mut().zip(sb) {
                    *d += s;
                }
            }
            for (d, &s) in dst.into_remainder().iter_mut().zip(src.remainder().iter()) {
                *d += s;
            }
        } else {
            for (k, v) in other.sparse {
                *self.sparse.entry(k).or_insert(0) += v;
            }
        }
    }

    /// The final normalized pair map, dropping zero entries.
    pub(crate) fn into_map(self) -> HashMap<(u32, u32), u64> {
        if self.dense {
            let mut map = HashMap::new();
            for i in 0..self.n_lines {
                for j in i..self.n_lines {
                    let cc = self.tri[self.tri_idx(i, j)];
                    if cc > 0 {
                        map.insert((i as u32, j as u32), cc);
                    }
                }
            }
            map
        } else {
            let mut map = self.sparse;
            map.retain(|_, v| *v > 0);
            map
        }
    }
}

/// One occupied cell of a single interval in dense-id space:
/// `(cpu index, line id, sample count)`. A kernel invocation receives one
/// interval's cells sorted by `(cpu, line)`.
pub(crate) type Cell = (u32, u32, u64);

/// Packs a raw `(interval, cpu, line)` cell coordinate into one sortable
/// `u128` key: interval in bits 48.., cpu in 32..48, line in 0..32.
/// Sorting packed keys sorts cells by `(interval, cpu, line)`.
#[inline]
pub(crate) fn pack_cell_key(interval: u64, cpu: u16, line: u32) -> u128 {
    (u128::from(interval) << 48) | (u128::from(cpu) << 32) | u128::from(line)
}

/// Inverse of [`pack_cell_key`].
#[inline]
pub(crate) fn unpack_cell_key(key: u128) -> (u64, u16, u32) {
    ((key >> 48) as u64, (key >> 32) as u16, key as u32)
}

/// Reusable per-worker scratch for [`interval_minsum`], so the
/// per-interval loop allocates nothing.
pub(crate) struct MinsumScratch {
    /// Dense per-line vector: how many CPUs reach the current count
    /// threshold on each line (`A_t` in the derivation). Sized `n_lines`
    /// in dense mode, empty in sparse mode.
    at: Vec<u32>,
    /// This interval's cells with `count >= 2`, sorted by descending
    /// count, so each threshold round scans a shrinking prefix.
    multi: Vec<(u32, u64)>,
    /// Lines present at the current threshold (sorted, deduplicated).
    touched: Vec<u32>,
    /// Per-CPU lane boundaries within the interval's cell slice.
    lanes: Vec<(u32, u32)>,
}

impl MinsumScratch {
    pub(crate) fn new(n_lines: usize, dense: bool) -> Self {
        MinsumScratch {
            at: vec![0u32; if dense { n_lines } else { 0 }],
            multi: Vec::new(),
            touched: Vec::new(),
            lanes: Vec::new(),
        }
    }
}

/// Accumulates one interval's `Σ_{Pm≠Pn} min(F_I(Pm,Bi), F_I(Pn,Bj))`
/// into `acc`, given the interval's occupied cells (sorted by
/// `(cpu, line)`, counts non-zero).
///
/// **The blocked kernel.** Expanding each min through
/// `min(a, b) = Σ_t [a ≥ t][b ≥ t]` and letting `A_t(B)` be the number
/// of CPUs whose count on line `B` reaches `t`:
///
/// ```text
/// CC_I(Bi, Bj) = Σ_t A_t(Bi)·A_t(Bj)  −  Σ_m min(F(Pm,Bi), F(Pm,Bj))
/// ```
///
/// The first term is a per-threshold outer product of one dense per-line
/// vector with itself: for every occupied row `li` the update
/// `row[lj] += A_t(li)·A_t(lj)` runs over the *contiguous* triangular
/// tail `lj >= li` in [`ROW_LANES`]-wide blocks — branch-free
/// multiply-adds with no per-element bounds checks, which LLVM
/// vectorizes. Threshold 1 covers every occupied line; higher thresholds
/// only touch cells with `count >= t` (rare under sampling) and shrink
/// geometrically. The second term subtracts the same-CPU diagonal —
/// pairs within one CPU's lane, a tiny scatter loop. Every contribution
/// is an exact `u64` add/subtract and, per cell, the additions dominate
/// the subtractions at every point of the schedule (Σ_t A_t(i)A_t(j) ≥
/// Σ_t B_t(i,j) termwise), so nothing underflows and the result is
/// bit-identical to the reference kernel for any evaluation order.
///
/// Sparse accumulators (line universe beyond
/// [`DENSE_ACCUMULATOR_LINE_LIMIT`]) take the compact two-pointer
/// cpu-pair path instead, which needs no dense per-line vector.
///
/// This is a pure function of the cell slice, which is what makes the
/// streaming path bit-identical to the batch path: both feed the same
/// per-interval cells through this one kernel.
pub(crate) fn interval_minsum(
    cells: &[Cell],
    n_lines: usize,
    scratch: &mut MinsumScratch,
    acc: &mut CcAccumulator,
) {
    debug_assert!(cells
        .windows(2)
        .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    if !acc.is_dense() {
        interval_minsum_sparse(cells, scratch, acc);
        return;
    }
    debug_assert_eq!(scratch.at.len(), n_lines);

    // Threshold t = 1: every occupied cell participates.
    scratch.multi.clear();
    for &(_, line, count) in cells {
        scratch.at[line as usize] += 1;
        if count >= 2 {
            scratch.multi.push((line, count));
        }
    }

    // A-phase, t = 1: dense rank-1 update of the triangle. `row` and the
    // vector tail are the same length by construction, so the lane loop
    // is pure multiply-add.
    let at = &mut scratch.at;
    for li in 0..n_lines {
        let ai = u64::from(at[li]);
        if ai == 0 {
            continue;
        }
        let row = acc.row_mut(li);
        let tail = &at[li..];
        let mut rch = row.chunks_exact_mut(ROW_LANES);
        let mut tch = tail.chunks_exact(ROW_LANES);
        for (rb, tb) in (&mut rch).zip(&mut tch) {
            for (r, &a) in rb.iter_mut().zip(tb) {
                *r += ai * u64::from(a);
            }
        }
        for (r, &a) in rch.into_remainder().iter_mut().zip(tch.remainder()) {
            *r += ai * u64::from(a);
        }
    }
    // Clear the t = 1 vector via the occupied cells (never a full sweep).
    for &(_, line, _) in cells {
        at[line as usize] = 0;
    }

    // A-phase, t >= 2: only cells with count >= t participate. Sorting by
    // descending count makes each round a prefix scan, so the total work
    // across all thresholds is bounded by the interval's sample count.
    scratch
        .multi
        .sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    let mut t = 2u64;
    loop {
        let len = scratch.multi.partition_point(|&(_, c)| c >= t);
        if len == 0 {
            break;
        }
        scratch.touched.clear();
        for &(line, _) in &scratch.multi[..len] {
            if at[line as usize] == 0 {
                scratch.touched.push(line);
            }
            at[line as usize] += 1;
        }
        scratch.touched.sort_unstable();
        for (idx, &li) in scratch.touched.iter().enumerate() {
            let ai = u64::from(at[li as usize]);
            for &lj in &scratch.touched[idx..] {
                acc.add(li, lj, ai * u64::from(at[lj as usize]));
            }
        }
        for &li in &scratch.touched {
            at[li as usize] = 0;
        }
        t += 1;
    }

    // B-phase: subtract the same-CPU diagonal Σ_m min(F(m,i), F(m,j)).
    // Within one CPU's lane the cells are line-ascending, so `lj >= li`
    // and the row offset is direct.
    let mut i = 0usize;
    while i < cells.len() {
        let cpu = cells[i].0;
        let mut j = i;
        while j < cells.len() && cells[j].0 == cpu {
            j += 1;
        }
        let lane = &cells[i..j];
        for (p, &(_, li, ci)) in lane.iter().enumerate() {
            let row = acc.row_mut(li as usize);
            for &(_, lj, cj) in &lane[p..] {
                row[(lj - li) as usize] -= ci.min(cj);
            }
        }
        i = j;
    }
}

/// The sparse-accumulator fallback of [`interval_minsum`]: the compact
/// cpu-pair formulation over per-CPU lanes with a monotone merge cursor
/// (no dense per-line vector, no triangle). Same exact arithmetic, same
/// result.
fn interval_minsum_sparse(cells: &[Cell], scratch: &mut MinsumScratch, acc: &mut CcAccumulator) {
    scratch.lanes.clear();
    let mut i = 0usize;
    while i < cells.len() {
        let cpu = cells[i].0;
        let mut j = i;
        while j < cells.len() && cells[j].0 == cpu {
            j += 1;
        }
        scratch.lanes.push((i as u32, j as u32));
        i = j;
    }
    for (a_idx, &(ms, me)) in scratch.lanes.iter().enumerate() {
        let lane_m = &cells[ms as usize..me as usize];
        for (b_idx, &(ns, ne)) in scratch.lanes.iter().enumerate() {
            if a_idx == b_idx {
                continue;
            }
            let lane_n = &cells[ns as usize..ne as usize];
            // Keep only li <= lj so the normalized key receives exactly
            // the paper's Σ_{m≠n} min(F(m,Bi), F(n,Bj)); the cursor only
            // ever advances because li ascends within the lane.
            let mut from = 0usize;
            for &(_, li, ci) in lane_m {
                while from < lane_n.len() && lane_n[from].1 < li {
                    from += 1;
                }
                for &(_, lj, cj) in &lane_n[from..] {
                    acc.add(li, lj, ci.min(cj));
                }
            }
        }
    }
}

/// Below this many distinct cells the final fold stays serial: spawning
/// workers and merging their triangular accumulators dominates the fold
/// itself on small inputs. `perf_report` sizes both its `cc` streams
/// above it (and asserts so), so its parallel column measures a fan-out.
pub const PARALLEL_FINISH_MIN_CELLS: usize = 1 << 17;

/// The final fold of every path (batch, streaming, windowed): turns
/// sorted distinct `(packed cell key, count)` cells into the finished
/// [`ConcurrencyMap`], fanning per-interval kernels over up to `jobs`
/// workers and merging their triangular accumulators pairwise.
/// `samples` is the number of samples behind the cells. When `obs` is
/// enabled, every path reports the same statistics: `cc.*` counters, the
/// `cc.dense_accumulator` gauge and the `cc.interval_cells` histogram.
///
/// Bit-identical for every `jobs` value: intervals are partitioned into
/// contiguous groups, each group replays its intervals through
/// [`interval_minsum`] into a private accumulator, and accumulators merge
/// by exact `u64` addition (commutative and associative, hence
/// independent of grouping and merge order).
///
/// Folds smaller than [`PARALLEL_FINISH_MIN_CELLS`] run serially: thread
/// fan-out plus the pairwise accumulator merge cost more than the fold
/// itself on small inputs (a 40k-cell streamed fold regressed to a
/// 0.49× "speedup" at `jobs = 4`), and since grouping never changes the
/// result, clamping `jobs` is invisible outside wall-clock time.
pub(crate) fn finish_cells(
    cells: &[(u128, u64)],
    samples: u64,
    jobs: usize,
    obs: &Obs,
) -> ConcurrencyMap {
    // An empty trace has no interval structure at all: return the
    // canonical empty map rather than running the interner/kernel
    // machinery on zero-length inputs (tests/edge_cases.rs pins this, and
    // the single-interval / single-CPU cases, down).
    if cells.is_empty() {
        return ConcurrencyMap::empty();
    }
    debug_assert!(cells.windows(2).all(|w| w[0].0 < w[1].0));
    let jobs = if cells.len() < PARALLEL_FINISH_MIN_CELLS {
        1
    } else {
        jobs
    };

    // Intern lines and CPUs exactly as before: sorted distinct values.
    let interner = LineInterner::from_lines(
        cells
            .iter()
            .map(|&(key, _)| SourceLine(unpack_cell_key(key).2)),
    );
    let n_lines = interner.len();
    let mut cpus: Vec<u16> = cells
        .iter()
        .map(|&(key, _)| unpack_cell_key(key).1)
        .collect();
    cpus.sort_unstable();
    cpus.dedup();
    let n_cpus = cpus.len();

    // Translate to dense-id cells and record interval boundaries. Raw
    // key order equals dense-id order (both interners sort), so cells
    // stay sorted by (cpu, line) within each interval.
    let mut dense_cells: Vec<Cell> = Vec::with_capacity(cells.len());
    let mut interval_starts: Vec<usize> = Vec::new();
    let mut prev_interval = None;
    for &(key, count) in cells {
        let (interval, cpu, line) = unpack_cell_key(key);
        if prev_interval != Some(interval) {
            interval_starts.push(dense_cells.len());
            prev_interval = Some(interval);
        }
        let ci = cpus.binary_search(&cpu).expect("cpu interned") as u32;
        let li = interner.id(SourceLine(line)).expect("line interned").0;
        dense_cells.push((ci, li, count));
    }
    let n_intervals = interval_starts.len();

    // Contiguous interval ranges, one per worker group.
    let groups = jobs.max(1).min(n_intervals);
    let per_group = n_intervals.div_ceil(groups);
    let ranges: Vec<(usize, usize)> = (0..groups)
        .map(|g| (g * per_group, ((g + 1) * per_group).min(n_intervals)))
        .filter(|&(lo, hi)| lo < hi)
        .collect();

    let accs: Vec<CcAccumulator> = par_map(jobs, &ranges, |_, &(ilo, ihi)| {
        let mut acc = CcAccumulator::new(n_lines);
        let mut scratch = MinsumScratch::new(n_lines, acc.is_dense());
        for t in ilo..ihi {
            let s = interval_starts[t];
            let e = interval_starts
                .get(t + 1)
                .copied()
                .unwrap_or(dense_cells.len());
            interval_minsum(&dense_cells[s..e], n_lines, &mut scratch, &mut acc);
        }
        acc
    });

    let total = merge_accumulators(accs, jobs);
    let dense_acc = total.is_dense();
    let map = ConcurrencyMap::from_parts(interner, total.into_map());
    if obs.enabled() {
        obs.counter("cc.samples_bucketed", samples);
        obs.counter("cc.lines", n_lines as u64);
        obs.counter("cc.cpus", n_cpus as u64);
        obs.counter("cc.intervals", n_intervals as u64);
        obs.counter("cc.cells", cells.len() as u64);
        obs.counter("cc.pairs", map.len() as u64);
        obs.gauge("cc.dense_accumulator", if dense_acc { 1.0 } else { 0.0 });
        // Per-interval cost distribution: the kernel's work per interval
        // is quadratic in its occupied cells, so the histogram of cells
        // per interval is the profile that explains CC build time skew.
        // Values are workload-derived, hence deterministic at any --jobs.
        for (t, &start) in interval_starts.iter().enumerate() {
            let end = interval_starts
                .get(t + 1)
                .copied()
                .unwrap_or(dense_cells.len());
            obs.histogram("cc.interval_cells", (end - start) as u64);
        }
    }
    map
}

/// Reduces per-group accumulators to one by pairwise merging: each round
/// merges disjoint pairs in parallel (`par_map`), halving the list, so
/// the reduction's critical path is logarithmic instead of the serial
/// fold's linear chain. Merging is exact `u64` addition — commutative and
/// associative — so the tree shape never changes the result.
pub(crate) fn merge_accumulators(mut accs: Vec<CcAccumulator>, jobs: usize) -> CcAccumulator {
    assert!(!accs.is_empty(), "nothing to merge");
    while accs.len() > 1 {
        let odd = accs.len() % 2 == 1;
        let slots: Vec<Mutex<Option<CcAccumulator>>> =
            accs.into_iter().map(|a| Mutex::new(Some(a))).collect();
        let pair_count: Vec<usize> = (0..slots.len() / 2).collect();
        let mut merged: Vec<CcAccumulator> = par_map(jobs, &pair_count, |_, &k| {
            let mut a = slots[2 * k]
                .lock()
                .expect("accumulator slot")
                .take()
                .expect("left operand present");
            let b = slots[2 * k + 1]
                .lock()
                .expect("accumulator slot")
                .take()
                .expect("right operand present");
            a.merge(b);
            a
        });
        if odd {
            merged.push(
                slots
                    .last()
                    .expect("odd slot")
                    .lock()
                    .expect("accumulator slot")
                    .take()
                    .expect("odd operand present"),
            );
        }
        accs = merged;
    }
    accs.pop().expect("one accumulator remains")
}

/// Computes the concurrency map from samples, in any order.
///
/// # Panics
///
/// Panics if `cfg.interval` is zero.
pub fn concurrency_map(samples: &[Sample], cfg: &ConcurrencyConfig) -> ConcurrencyMap {
    concurrency_map_obs(samples, cfg, &Obs::disabled())
}

/// [`concurrency_map`] with instrumentation: the samples fold as one
/// serial [`StreamingConcurrency`] batch under a `cc_build` span and,
/// when `obs` is enabled, report the `cc.*` statistics every CC path
/// reports (samples bucketed, distinct lines, CPUs and intervals,
/// occupied cells, non-zero pairs, the dense-accumulator gauge and the
/// `cc.interval_cells` histogram).
///
/// # Panics
///
/// Panics if `cfg.interval` is zero.
pub fn concurrency_map_obs(
    samples: &[Sample],
    cfg: &ConcurrencyConfig,
    obs: &Obs,
) -> ConcurrencyMap {
    let mut stream = StreamingConcurrency::new(*cfg);
    let _span = obs.span("cc_build");
    stream.ingest(samples);
    stream.fold(1, obs)
}

/// Accumulates one interval's min-sum from its flat `[cpu × line]` count
/// block (`rows`, length `n_cpus * n_lines`) — the **retained reference
/// kernel** the blocked [`interval_minsum`] replaced. `touched` is
/// caller-provided scratch (one sorted touched-line list per CPU, cleared
/// here). Used by [`concurrency_map_reference`] and the kernel
/// equivalence tests; produces exactly the same accumulator contents as
/// the blocked kernel on the same interval.
pub(crate) fn interval_minsum_reference(
    rows: &[u64],
    n_cpus: usize,
    n_lines: usize,
    touched: &mut [Vec<u32>],
    acc: &mut CcAccumulator,
) {
    debug_assert_eq!(rows.len(), n_cpus * n_lines);
    debug_assert_eq!(touched.len(), n_cpus);
    for (ci, t) in touched.iter_mut().enumerate() {
        t.clear();
        let row = &rows[ci * n_lines..(ci + 1) * n_lines];
        t.extend(
            row.iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(li, _)| li as u32),
        );
    }
    for m in 0..n_cpus {
        let row_m = &rows[m * n_lines..(m + 1) * n_lines];
        for n in 0..n_cpus {
            if m == n {
                continue;
            }
            let row_n = &rows[n * n_lines..(n + 1) * n_lines];
            for &li in &touched[m] {
                let ci = row_m[li as usize];
                // Accumulate each ordered (line_i, line_j) pair once:
                // keep only li <= lj so the normalized key receives
                // exactly the paper's Σ_{m≠n} min(F(m,Bi), F(n,Bj)).
                let from = touched[n].partition_point(|&lj| lj < li);
                for &lj in &touched[n][from..] {
                    acc.add(li, lj, ci.min(row_n[lj as usize]));
                }
            }
        }
    }
}

/// The flat count-tensor pipeline the blocked kernel replaced, retained
/// verbatim as the batch **reference implementation**: lines, CPUs and
/// intervals are interned, counts are bucketed into a flat
/// `[interval × cpu × line]` tensor, and each interval's block runs
/// through [`interval_minsum_reference`]. Used by the kernel-equivalence
/// property tests and by `perf_report`'s `cc` bench as the
/// frozen old-vs-new baseline. Produces a map equal to
/// [`concurrency_map`]'s, bit for bit.
///
/// # Panics
///
/// Panics if `cfg.interval` is zero.
pub fn concurrency_map_reference(samples: &[Sample], cfg: &ConcurrencyConfig) -> ConcurrencyMap {
    assert!(cfg.interval > 0, "interval must be non-zero");
    if samples.is_empty() {
        return ConcurrencyMap::empty();
    }

    let interner = LineInterner::from_lines(samples.iter().map(|s| s.line));
    let n_lines = interner.len();

    // Intern intervals and CPUs the same way: sorted distinct values.
    let mut intervals: Vec<u64> = samples.iter().map(|s| s.time / cfg.interval).collect();
    intervals.sort_unstable();
    intervals.dedup();
    let mut cpus: Vec<u16> = samples.iter().map(|s| s.cpu.0).collect();
    cpus.sort_unstable();
    cpus.dedup();
    let (n_intervals, n_cpus) = (intervals.len(), cpus.len());

    // The flat [interval × cpu × line] count tensor.
    let mut counts = vec![0u64; n_intervals * n_cpus * n_lines];
    for s in samples {
        let ti = intervals
            .binary_search(&(s.time / cfg.interval))
            .expect("interval interned");
        let ci = cpus.binary_search(&s.cpu.0).expect("cpu interned");
        let li = interner.id(s.line).expect("line interned").index();
        counts[(ti * n_cpus + ci) * n_lines + li] += 1;
    }

    let mut acc = CcAccumulator::new(n_lines);
    let mut touched: Vec<Vec<u32>> = vec![Vec::new(); n_cpus];
    for ti in 0..n_intervals {
        let base = ti * n_cpus * n_lines;
        let rows = &counts[base..base + n_cpus * n_lines];
        interval_minsum_reference(rows, n_cpus, n_lines, &mut touched, &mut acc);
    }

    ConcurrencyMap::from_parts(interner, acc.into_map())
}

/// The original triple-nested-map formulation, retained as the oldest
/// reference implementation: used by the equivalence property tests and
/// by `perf_report` to measure the rewrites against, on identical
/// inputs. Produces a map equal to [`concurrency_map`]'s.
///
/// # Panics
///
/// Panics if `cfg.interval` is zero.
pub fn concurrency_map_naive(samples: &[Sample], cfg: &ConcurrencyConfig) -> ConcurrencyMap {
    assert!(cfg.interval > 0, "interval must be non-zero");

    // interval index -> cpu -> line -> count
    let mut intervals: HashMap<u64, HashMap<u16, HashMap<SourceLine, u64>>> = HashMap::new();
    for s in samples {
        *intervals
            .entry(s.time / cfg.interval)
            .or_default()
            .entry(s.cpu.0)
            .or_default()
            .entry(s.line)
            .or_insert(0) += 1;
    }

    let interner = LineInterner::from_lines(samples.iter().map(|s| s.line));
    let mut map: HashMap<(u32, u32), u64> = HashMap::new();
    for per_cpu in intervals.values() {
        let cpus: Vec<&u16> = {
            let mut v: Vec<&u16> = per_cpu.keys().collect();
            v.sort();
            v
        };
        for &m in &cpus {
            for &n in &cpus {
                if m == n {
                    continue;
                }
                let hm = &per_cpu[m];
                let hn = &per_cpu[n];
                for (&li, &ci) in hm {
                    for (&lj, &cj) in hn {
                        // Accumulate each ordered (line_i, line_j) pair once:
                        // keep only li <= lj so the normalized key receives
                        // exactly the paper's Σ_{m≠n} min(F(m,Bi), F(n,Bj)).
                        if li <= lj {
                            let key = (
                                interner.id(li).expect("line interned").0,
                                interner.id(lj).expect("line interned").0,
                            );
                            *map.entry(key).or_insert(0) += ci.min(cj);
                        }
                    }
                }
            }
        }
    }
    map.retain(|_, v| *v > 0);
    ConcurrencyMap { interner, map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slopt_ir::cfg::{BlockId, FuncId};
    use slopt_ir::interp::SplitMix64;
    use slopt_sim::CpuId;

    fn sample(cpu: u16, time: u64, line: u32) -> Sample {
        Sample {
            cpu: CpuId(cpu),
            time,
            func: FuncId(0),
            block: BlockId(0),
            line: SourceLine(line),
        }
    }

    #[test]
    fn concurrent_lines_on_different_cpus_score() {
        // Interval 100: cpu0 in line1 twice, cpu1 in line2 three times.
        let samples = vec![
            sample(0, 10, 1),
            sample(0, 20, 1),
            sample(1, 15, 2),
            sample(1, 25, 2),
            sample(1, 35, 2),
        ];
        let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 100 });
        // Ordered pairs (0,1) and (1,0): min(2,3) + min(3,2)... only li<=lj
        // kept per ordered cpu pair: (m=0,n=1): (1,2) -> min(2,3)=2;
        // (m=1,n=0): (2,1) normalized li<=lj fails for (2,1), but (1,2) via
        // hm=cpu1{2},hn=cpu0{1} gives li=2 > lj=1 -> skipped. So CC = 2.
        assert_eq!(cm.get(SourceLine(1), SourceLine(2)), 2);
        assert_eq!(cm.get(SourceLine(2), SourceLine(1)), 2, "symmetric lookup");
    }

    #[test]
    fn same_cpu_never_scores() {
        let samples = vec![sample(0, 10, 1), sample(0, 20, 2)];
        let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 100 });
        assert!(cm.is_empty());
    }

    #[test]
    fn different_intervals_do_not_interact() {
        let samples = vec![sample(0, 10, 1), sample(1, 150, 2)];
        let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 100 });
        assert_eq!(cm.get(SourceLine(1), SourceLine(2)), 0);
    }

    #[test]
    fn same_line_concurrency_counts_both_directions() {
        // Both cpus in the same line: CC(B,B) = Σ_{m≠n} min(F(m,B),F(n,B))
        // = min(1,1) for (0,1) + min(1,1) for (1,0) = 2.
        let samples = vec![sample(0, 10, 5), sample(1, 20, 5)];
        let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 100 });
        assert_eq!(cm.get(SourceLine(5), SourceLine(5)), 2);
    }

    #[test]
    fn accumulates_across_intervals() {
        let samples = vec![
            sample(0, 10, 1),
            sample(1, 20, 2),
            sample(0, 110, 1),
            sample(1, 120, 2),
        ];
        let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 100 });
        assert_eq!(cm.get(SourceLine(1), SourceLine(2)), 2);
    }

    #[test]
    fn min_caps_unbalanced_frequencies() {
        let mut samples = vec![sample(1, 15, 2)];
        for i in 0..10 {
            samples.push(sample(0, i, 1));
        }
        let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 100 });
        assert_eq!(cm.get(SourceLine(1), SourceLine(2)), 1, "min(10, 1) = 1");
    }

    #[test]
    fn three_cpus_pairwise() {
        // cpus 0,1,2 each once in lines 1,2,3 in one interval.
        let samples = vec![sample(0, 1, 1), sample(1, 2, 2), sample(2, 3, 3)];
        let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 100 });
        assert_eq!(cm.get(SourceLine(1), SourceLine(2)), 1);
        assert_eq!(cm.get(SourceLine(1), SourceLine(3)), 1);
        assert_eq!(cm.get(SourceLine(2), SourceLine(3)), 1);
        assert_eq!(cm.len(), 3);
    }

    #[test]
    fn top_pairs_sorts_by_concurrency() {
        let mut samples = Vec::new();
        // lines 1&2 concurrent twice, lines 1&3 once.
        for t in [10, 110] {
            samples.push(sample(0, t, 1));
            samples.push(sample(1, t + 5, 2));
        }
        samples.push(sample(0, 210, 1));
        samples.push(sample(1, 215, 3));
        let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 100 });
        let top = cm.top_pairs(1);
        assert_eq!(top.len(), 1);
        assert_eq!((top[0].0, top[0].1), (SourceLine(1), SourceLine(2)));
        assert_eq!(top[0].2, 2);
        assert_eq!(cm.pairs().len(), 2);
    }

    #[test]
    fn dense_equals_naive_on_a_mixed_stream() {
        // A hand-rolled stream crossing intervals, cpus and lines.
        let mut samples = Vec::new();
        for i in 0..200u64 {
            samples.push(sample((i % 5) as u16, (i * 37) % 1000, (i % 7) as u32));
        }
        let cfg = ConcurrencyConfig { interval: 100 };
        let dense = concurrency_map(&samples, &cfg);
        let naive = concurrency_map_naive(&samples, &cfg);
        assert_eq!(dense, naive);
        assert_eq!(dense.pairs(), naive.pairs());
    }

    /// Deterministic random stream: `n` samples over the given universe.
    fn random_samples(n: usize, cpus: u16, lines: u32, span: u64, seed: u64) -> Vec<Sample> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                sample(
                    (rng.next_u64() % u64::from(cpus)) as u16,
                    rng.next_u64() % span,
                    (rng.next_u64() % u64::from(lines)) as u32,
                )
            })
            .collect()
    }

    #[test]
    fn blocked_kernel_equals_reference_kernel_directly() {
        // Drive both kernels on the same per-interval inputs across random
        // shapes, including line counts straddling the ROW_LANES and
        // MERGE_BLOCK tile edges (1, 7, 8, 9, 63, 64, 65...).
        let mut rng = SplitMix64::new(0xB10C);
        for &n_lines in &[1usize, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 90, 128, 130] {
            for case in 0..4u64 {
                let n_cpus = 1 + (rng.next_u64() % 5) as usize;
                let density = 1 + (rng.next_u64() % 4);
                // Random [cpu × line] block with duplicate-heavy counts so
                // thresholds t >= 2 are exercised.
                let mut rows = vec![0u64; n_cpus * n_lines];
                let fills = (n_cpus * n_lines) as u64 * density / 3 + case;
                for _ in 0..fills {
                    let idx = (rng.next_u64() % (n_cpus * n_lines) as u64) as usize;
                    rows[idx] += 1 + rng.next_u64() % 3;
                }

                // Reference: the retained rows-based kernel.
                let mut ref_acc = CcAccumulator::new(n_lines);
                let mut touched: Vec<Vec<u32>> = vec![Vec::new(); n_cpus];
                interval_minsum_reference(&rows, n_cpus, n_lines, &mut touched, &mut ref_acc);

                // Blocked: the same block as sorted cells.
                let mut cells: Vec<Cell> = Vec::new();
                for (ci, chunk) in rows.chunks(n_lines).enumerate() {
                    for (li, &c) in chunk.iter().enumerate() {
                        if c > 0 {
                            cells.push((ci as u32, li as u32, c));
                        }
                    }
                }
                let mut acc = CcAccumulator::new(n_lines);
                let mut scratch = MinsumScratch::new(n_lines, acc.is_dense());
                interval_minsum(&cells, n_lines, &mut scratch, &mut acc);

                assert_eq!(
                    acc.into_map(),
                    ref_acc.into_map(),
                    "kernel divergence at n_lines={n_lines} n_cpus={n_cpus} case={case}"
                );
            }
        }
    }

    #[test]
    fn new_pipeline_equals_reference_pipeline_on_random_streams() {
        for seed in 0..8u64 {
            let samples = random_samples(600, 6, 40, 2_000, 0x5EED + seed);
            let cfg = ConcurrencyConfig { interval: 250 };
            let new = concurrency_map(&samples, &cfg);
            let reference = concurrency_map_reference(&samples, &cfg);
            assert_eq!(new, reference, "pipeline divergence at seed {seed}");
        }
    }

    #[test]
    fn sparse_accumulator_fallback_equals_naive() {
        // A line universe past DENSE_ACCUMULATOR_LINE_LIMIT forces the
        // sparse two-pointer path; results must not change.
        let mut samples = Vec::new();
        let mut rng = SplitMix64::new(0x5AB5);
        for _ in 0..400 {
            samples.push(sample(
                (rng.next_u64() % 4) as u16,
                rng.next_u64() % 500,
                (rng.next_u64() % 4_000) as u32,
            ));
        }
        // Pin the universe width above the dense limit regardless of rng.
        samples.push(sample(0, 10, 3_500));
        samples.push(sample(1, 12, 0));
        let cfg = ConcurrencyConfig { interval: 100 };
        let cm = concurrency_map(&samples, &cfg);
        assert!(cm.interner().len() > 100, "universe should be wide");
        assert_eq!(cm, concurrency_map_naive(&samples, &cfg));
        assert_eq!(cm, concurrency_map_reference(&samples, &cfg));
    }

    #[test]
    fn pairwise_merge_matches_serial_fold() {
        // Build several accumulators and check the pairwise tree (at
        // various jobs) equals a serial left fold.
        for n_accs in [1usize, 2, 3, 5, 8] {
            let mut rng = SplitMix64::new(0xACC0 + n_accs as u64);
            let n_lines = 33; // not a multiple of any tile width
            let make = |rng: &mut SplitMix64| {
                let mut acc = CcAccumulator::new(n_lines);
                for _ in 0..50 {
                    let a = (rng.next_u64() % n_lines as u64) as u32;
                    let b = (rng.next_u64() % n_lines as u64) as u32;
                    let (li, lj) = if a <= b { (a, b) } else { (b, a) };
                    acc.add(li, lj, 1 + rng.next_u64() % 9);
                }
                acc
            };
            let accs: Vec<CcAccumulator> = (0..n_accs).map(|_| make(&mut rng)).collect();
            let mut serial = accs[0].clone();
            for a in &accs[1..] {
                serial.merge(a.clone());
            }
            for jobs in [1usize, 2, 4, 7] {
                let tree = merge_accumulators(accs.clone(), jobs);
                assert_eq!(
                    tree.into_map(),
                    serial.clone().into_map(),
                    "merge divergence at n_accs={n_accs} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn interner_round_trips_and_orders() {
        let samples = vec![sample(0, 1, 9), sample(1, 2, 3), sample(2, 3, 7)];
        let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 100 });
        let it = cm.interner();
        assert_eq!(it.len(), 3);
        assert_eq!(it.lines(), &[SourceLine(3), SourceLine(7), SourceLine(9)]);
        for (i, &l) in it.lines().iter().enumerate() {
            assert_eq!(it.id(l), Some(LineId(i as u32)));
            assert_eq!(it.line(LineId(i as u32)), l);
        }
        assert_eq!(it.id(SourceLine(1000)), None);
        // interned_pairs and pairs agree through the interner.
        for ((ia, ib, icc), (la, lb, lcc)) in cm.interned_pairs().iter().zip(cm.pairs().iter()) {
            assert_eq!(it.line(*ia), *la);
            assert_eq!(it.line(*ib), *lb);
            assert_eq!(icc, lcc);
        }
    }

    #[test]
    fn cell_key_round_trips() {
        for &(interval, cpu, line) in &[
            (0u64, 0u16, 0u32),
            (1, 2, 3),
            (u64::MAX >> 16, u16::MAX, u32::MAX),
            (123_456_789, 17, 42),
        ] {
            assert_eq!(
                unpack_cell_key(pack_cell_key(interval, cpu, line)),
                (interval, cpu, line)
            );
        }
    }

    #[test]
    #[should_panic(expected = "interval must be non-zero")]
    fn zero_interval_rejected() {
        concurrency_map(&[], &ConcurrencyConfig { interval: 0 });
    }

    #[test]
    #[should_panic(expected = "interval must be non-zero")]
    fn zero_interval_rejected_by_naive() {
        concurrency_map_naive(&[], &ConcurrencyConfig { interval: 0 });
    }

    #[test]
    #[should_panic(expected = "interval must be non-zero")]
    fn zero_interval_rejected_by_reference() {
        concurrency_map_reference(&[], &ConcurrencyConfig { interval: 0 });
    }
}
