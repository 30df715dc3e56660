//! The Code Concurrency folds over sample batches.
//!
//! * [`StreamingConcurrency`] — folds sample batches into the crate's
//!   one cell store of packed `(interval, cpu, line) -> count` cells (an
//!   LSM-style sorted run — no hashing on the ingest path, and memory
//!   proportional to *distinct* cells, not trace length).
//!   [`finish`](StreamingConcurrency::finish) hands the sorted cells to
//!   the shared final fold, which fans per-interval kernels over workers
//!   and merges their triangular accumulators **pairwise** via
//!   `par_map` — bit-identical to [`crate::concurrency_map`] (itself one
//!   streaming batch) for every batching and every `--jobs` (see
//!   DESIGN.md §11 and §13).
//! * [`WindowedConcurrency`] — the same fold generalized to a
//!   **sliding window** of ring-buffered intervals, one cell store per
//!   interval, with exact eviction of expired intervals: the decaying
//!   live state of the `slopt-serve` daemon (see DESIGN.md §17). Its
//!   [`ingest_dir`](WindowedConcurrency::ingest_dir) is the one fold
//!   over a `slopt-shard/1` directory ([`crate::shard`]): malformed
//!   shards are *skipped* as `warn.shard.skipped.<reason>` warnings,
//!   never a panic.

use crate::concurrency::{finish_cells, pack_cell_key, ConcurrencyConfig, ConcurrencyMap};
use crate::sampler::Sample;
use crate::shard::{read_shard, shard_files};
use slopt_obs::Obs;
use std::io;
use std::path::Path;

/// Once the pending key buffer reaches this many entries (and at least
/// the sorted run's current length), it is compacted into the sorted
/// run. The floor keeps tiny batches from compacting constantly; the
/// `sorted.len()` coupling makes total compaction cost amortized
/// `O(n log n)` in ingested samples.
const PENDING_COMPACT_MIN: usize = 64 * 1024;

/// Bounded-memory Code Concurrency: folds sample batches into one
/// **sorted run** of packed `(interval, cpu, line) -> count` cells and
/// hands it to the shared final fold at
/// [`finish`](StreamingConcurrency::finish).
///
/// Ingestion appends packed `u128` keys to a pending buffer; when the
/// buffer grows past the sorted run's length it is sorted,
/// run-length-encoded and linearly merge-added into the run — an
/// LSM-style compaction with no hashing and sequential memory traffic.
/// Cell counts are exact `u64` sums, so the final run is independent of
/// how the trace was partitioned into batches (any shard size, any
/// ingestion order).
///
/// Peak memory is `O(distinct (interval, cpu, line) cells)` — for the
/// paper's parameters (~12 samples per CPU per interval over a few
/// hundred lines) orders of magnitude below the trace length — plus the
/// bounded pending buffer and one shard's samples during ingestion.
///
/// # Example
///
/// ```
/// use slopt_ir::cfg::{BlockId, FuncId};
/// use slopt_ir::source::SourceLine;
/// use slopt_sample::{ConcurrencyConfig, Sample, StreamingConcurrency};
/// use slopt_sim::CpuId;
///
/// let mk = |cpu: u16, time: u64, line: u32| Sample {
///     cpu: CpuId(cpu),
///     time,
///     func: FuncId(0),
///     block: BlockId(0),
///     line: SourceLine(line),
/// };
/// let mut stream = StreamingConcurrency::new(ConcurrencyConfig { interval: 100 });
/// stream.ingest(&[mk(0, 10, 1)]); // cpu 0 in line 1 ...
/// stream.ingest(&[mk(1, 20, 2)]); // ... cpu 1 in line 2, same interval
/// let map = stream.finish(1, &slopt_obs::Obs::disabled());
/// assert_eq!(map.get(SourceLine(1), SourceLine(2)), 1);
/// ```
#[derive(Clone, Debug)]
pub struct StreamingConcurrency {
    cfg: ConcurrencyConfig,
    /// Sorted distinct packed cells (`pack_cell_key` order =
    /// `(interval, cpu, line)` order) with exact sample counts.
    sorted: Vec<(u128, u64)>,
    /// Raw packed keys not yet folded into `sorted`.
    pending: Vec<u128>,
    samples: u64,
}

impl StreamingConcurrency {
    /// An empty stream folder.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.interval` is zero.
    pub fn new(cfg: ConcurrencyConfig) -> Self {
        assert!(cfg.interval > 0, "interval must be non-zero");
        StreamingConcurrency {
            cfg,
            sorted: Vec::new(),
            pending: Vec::new(),
            samples: 0,
        }
    }

    /// Folds a batch of samples (any order) into the cell store. Cell
    /// increments commute, so any partition of the trace into batches —
    /// any shard size, any ingestion order — yields the same cell store.
    pub fn ingest(&mut self, samples: &[Sample]) {
        self.pending.extend(
            samples
                .iter()
                .map(|s| pack_cell_key(s.time / self.cfg.interval, s.cpu.0, s.line.0)),
        );
        self.samples += samples.len() as u64;
        if self.pending.len() >= PENDING_COMPACT_MIN.max(self.sorted.len()) {
            self.compact();
        }
    }

    /// Total samples folded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Computes the final [`ConcurrencyMap`] under a `cc_build` span,
    /// fanning the per-interval min-sums out over up to `jobs` threads,
    /// and reports the fold's `cc.*` statistics to `obs`. Bit-identical to
    /// [`crate::concurrency_map`] on the union of all ingested samples,
    /// for every `jobs` value: the shared final fold partitions intervals
    /// into contiguous groups, replays each group through the blocked
    /// per-interval kernel into a private triangular accumulator, and
    /// reduces the accumulators pairwise by exact `u64` addition
    /// (commutative and associative, hence independent of grouping and
    /// merge order).
    pub fn finish(self, jobs: usize, obs: &Obs) -> ConcurrencyMap {
        let _span = obs.span("cc_build");
        self.fold(jobs, obs)
    }

    /// [`finish`](StreamingConcurrency::finish) without a span of its
    /// own, for callers whose `cc_build` span also covers the ingest.
    pub(crate) fn fold(mut self, jobs: usize, obs: &Obs) -> ConcurrencyMap {
        self.compact();
        finish_cells(&self.sorted, self.samples, jobs, obs)
    }

    /// Sorts + run-length-encodes the pending keys and merge-adds them
    /// into the sorted run.
    fn compact(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable();
        let mut run: Vec<(u128, u64)> = Vec::new();
        for &key in &self.pending {
            match run.last_mut() {
                Some(last) if last.0 == key => last.1 += 1,
                _ => run.push((key, 1)),
            }
        }
        self.pending.clear();
        let a = std::mem::take(&mut self.sorted);
        self.sorted = merge_sorted_runs(a, run);
    }
}

/// Linear merge-add of two key-sorted distinct runs: counts of equal
/// keys sum exactly, so the result is independent of which side a
/// sample landed on.
fn merge_sorted_runs(a: Vec<(u128, u64)>, b: Vec<(u128, u64)>) -> Vec<(u128, u64)> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// [`StreamingConcurrency`] generalized to a **sliding window of
/// intervals**: the decaying Code Concurrency state of a long-lived
/// collection service (`slopt-serve`), where old traffic must stop
/// influencing layout advice.
///
/// Samples fold into a ring of per-interval cell stores, one slot per
/// interval index modulo the window length `W`. The retained range is
/// always the `W` most recent intervals `(newest - W, newest]`; when a
/// sample advances `newest`, every slot whose interval falls out of the
/// range is **evicted exactly** — the slot holds precisely that
/// interval's cells, so eviction removes exactly the expired samples'
/// contribution, never an approximation. Samples older than the current
/// window at arrival are counted as [`late_dropped`] and never folded
/// (counted, not silent). `W = ∞` degenerates to
/// [`StreamingConcurrency`], whose single unbounded run this type
/// splits per interval.
///
/// Determinism: the retained state is a pure function of the *accepted*
/// sample multiset and the final `newest` interval — per-interval cell
/// counts are exact `u64` sums (batch-partitioning-independent, like
/// the unbounded fold), and eviction only ever removes whole intervals
/// below `newest - W + 1`. In particular, when an ingest sequence spans
/// at most `W` intervals, *every* interleaving of its batches accepts
/// every sample and converges to the same state — the basis of the
/// serve daemon's differential contract against an offline fold.
///
/// [`late_dropped`]: WindowedConcurrency::late_dropped
///
/// # Example
///
/// ```
/// use slopt_ir::cfg::{BlockId, FuncId};
/// use slopt_ir::source::SourceLine;
/// use slopt_sample::{ConcurrencyConfig, Sample, WindowedConcurrency};
/// use slopt_sim::CpuId;
///
/// let mk = |cpu: u16, time: u64, line: u32| Sample {
///     cpu: CpuId(cpu),
///     time,
///     func: FuncId(0),
///     block: BlockId(0),
///     line: SourceLine(line),
/// };
/// // Two intervals retained, 100 cycles each.
/// let mut win = WindowedConcurrency::new(ConcurrencyConfig { interval: 100 }, 2);
/// win.ingest(&[mk(0, 10, 1), mk(1, 20, 2)]); // interval 0
/// assert_eq!(win.concurrency_jobs(1).get(SourceLine(1), SourceLine(2)), 1);
/// win.ingest(&[mk(0, 250, 3)]); // interval 2 — interval 0 expires
/// assert_eq!(win.concurrency_jobs(1).get(SourceLine(1), SourceLine(2)), 0);
/// assert_eq!(win.evicted_samples(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct WindowedConcurrency {
    cfg: ConcurrencyConfig,
    window: u64,
    /// `window` slots; slot `i % window` holds interval `i` with its own
    /// [`StreamingConcurrency`] fold (or nothing).
    ring: Vec<Option<(u64, StreamingConcurrency)>>,
    /// Highest interval index accepted so far.
    newest: Option<u64>,
    accepted: u64,
    evicted: u64,
    late_dropped: u64,
}

impl WindowedConcurrency {
    /// An empty windowed folder retaining the `window` most recent
    /// intervals of `cfg.interval` cycles each.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.interval` or `window` is zero.
    pub fn new(cfg: ConcurrencyConfig, window: u64) -> Self {
        assert!(cfg.interval > 0, "interval must be non-zero");
        assert!(window > 0, "window must retain at least one interval");
        WindowedConcurrency {
            cfg,
            window,
            ring: vec![None; window as usize],
            newest: None,
            accepted: 0,
            evicted: 0,
            late_dropped: 0,
        }
    }

    /// The interval configuration the fold buckets by.
    pub fn config(&self) -> ConcurrencyConfig {
        self.cfg
    }

    /// Window length in intervals.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The retained interval range `[start, newest]`, or `None` before
    /// the first accepted sample.
    pub fn window_range(&self) -> Option<(u64, u64)> {
        self.newest.map(|n| (n.saturating_sub(self.window - 1), n))
    }

    /// Samples accepted (folded) so far, including since-evicted ones.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Samples removed by exact whole-interval eviction.
    pub fn evicted_samples(&self) -> u64 {
        self.evicted
    }

    /// Samples rejected on arrival because their interval had already
    /// slid out of the window.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Samples currently contributing to the window.
    pub fn retained_samples(&self) -> u64 {
        self.accepted - self.evicted
    }

    /// Folds a batch (any order, any batching — cell increments commute
    /// within the retained range). Returns how many of the batch's
    /// samples were late-dropped.
    pub fn ingest(&mut self, samples: &[Sample]) -> u64 {
        let before = self.late_dropped;
        for s in samples {
            let idx = s.time / self.cfg.interval;
            match self.newest {
                Some(newest) if idx <= newest => {
                    if idx < newest.saturating_sub(self.window - 1) {
                        self.late_dropped += 1;
                        continue;
                    }
                }
                Some(newest) => self.advance(newest, idx),
                None => self.newest = Some(idx),
            }
            let cfg = self.cfg;
            let (interval, fold) = self.ring[(idx % self.window) as usize]
                .get_or_insert_with(|| (idx, StreamingConcurrency::new(cfg)));
            debug_assert_eq!(*interval, idx, "slot must be evicted before reuse");
            fold.ingest(std::slice::from_ref(s));
            self.accepted += 1;
        }
        self.late_dropped - before
    }

    /// Slides the window forward to `idx`, exactly evicting every slot
    /// whose interval falls below the new start. Only the ring positions
    /// the advance passes over can expire, so the sweep is
    /// `O(min(advance, window))`.
    fn advance(&mut self, newest: u64, idx: u64) {
        let start = idx.saturating_sub(self.window - 1);
        let first = (newest + 1).max(start);
        for k in first..=idx {
            if let Some((interval, fold)) = self.ring[(k % self.window) as usize].take() {
                debug_assert!(interval < start, "only expired slots are swept");
                self.evicted += fold.samples();
            }
        }
        self.newest = Some(idx);
    }

    /// The window's sorted distinct cells — the live state an advice
    /// fingerprint hashes. Per-interval runs occupy disjoint key ranges
    /// (the interval index is the key's top bits), so concatenating the
    /// occupied slots in interval order *is* the globally sorted run.
    pub fn cells_snapshot(&mut self) -> Vec<(u128, u64)> {
        let mut slots: Vec<&mut (u64, StreamingConcurrency)> =
            self.ring.iter_mut().flatten().collect();
        slots.sort_by_key(|(interval, _)| *interval);
        let mut out = Vec::new();
        for (_, fold) in slots {
            fold.compact();
            out.extend_from_slice(&fold.sorted);
        }
        out
    }

    /// The Code Concurrency map of the live window, fanned over up to
    /// `jobs` threads. Bit-identical to [`crate::concurrency_map`] over
    /// exactly the retained samples, for every `jobs` value — the cells
    /// go through the same shared final fold as the batch and streaming
    /// paths.
    pub fn concurrency_jobs(&mut self, jobs: usize) -> ConcurrencyMap {
        let cells = self.cells_snapshot();
        finish_cells(&cells, self.retained_samples(), jobs, &Obs::disabled())
    }

    /// Folds every `*.slshard` file under `dir` into the window, in
    /// [`shard_files`] path order: the one shard-directory fold (the
    /// offline reference `slopt-serve --offline` computes). A file that
    /// does not parse is skipped, never a panic: it becomes a
    /// `warn.shard.skipped.<reason>` warning on `obs` (keyed by
    /// [`ShardError::reason_key`](crate::ShardError::reason_key)) and one
    /// `[shard] skipping PATH: ERR` line on stderr.
    ///
    /// # Errors
    ///
    /// Fails only if `dir` cannot be walked.
    pub fn ingest_dir(&mut self, dir: &Path, obs: &Obs) -> io::Result<()> {
        for path in shard_files(dir)? {
            match read_shard(&path) {
                Ok(samples) => {
                    self.ingest(&samples);
                }
                Err(err) => {
                    obs.warning(&format!("shard.skipped.{}", err.reason_key()));
                    eprintln!("[shard] skipping {}: {err}", path.display());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrency::concurrency_map;
    use slopt_ir::cfg::{BlockId, FuncId};
    use slopt_ir::source::SourceLine;
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

    fn mixed_trace(n: u64) -> Vec<Sample> {
        (0..n)
            .map(|i| sample((i % 5) as u16, (i * 37) % 1000, (i % 7) as u32))
            .collect()
    }

    #[test]
    fn streaming_equals_batch_for_all_shardings_and_jobs() {
        let samples = mixed_trace(500);
        let cfg = ConcurrencyConfig { interval: 100 };
        let batch = concurrency_map(&samples, &cfg);
        for shard_size in [1, 7, 64, 500, 10_000] {
            for jobs in [1, 3, 8] {
                let mut stream = StreamingConcurrency::new(cfg);
                for chunk in samples.chunks(shard_size) {
                    stream.ingest(chunk);
                }
                let got = stream.finish(jobs, &Obs::disabled());
                assert_eq!(
                    got, batch,
                    "shard_size={shard_size} jobs={jobs} must match batch"
                );
            }
        }
    }

    /// Scalar reference for the windowed acceptance rule: replays the
    /// stream one sample at a time, returning the accepted samples that
    /// survive to the final window plus the (late, evicted) counts.
    fn windowed_reference(
        samples: &[Sample],
        interval: u64,
        window: u64,
    ) -> (Vec<Sample>, u64, u64) {
        let mut newest: Option<u64> = None;
        let mut accepted: Vec<Sample> = Vec::new();
        let mut late = 0u64;
        for s in samples {
            let idx = s.time / interval;
            let n = newest.get_or_insert(idx);
            if idx + window <= (*n).max(idx) {
                // idx < max(newest, idx) - window + 1  (overflow-safe)
                late += 1;
                continue;
            }
            *n = (*n).max(idx);
            accepted.push(*s);
        }
        let (retained, evicted) = match newest {
            None => (Vec::new(), 0),
            Some(n) => {
                let start = n.saturating_sub(window - 1);
                let (keep, evict): (Vec<Sample>, Vec<Sample>) = accepted
                    .into_iter()
                    .partition(|s| s.time / interval >= start);
                (keep, evict.len() as u64)
            }
        };
        (retained, late, evicted)
    }

    #[test]
    fn windowed_equals_batch_over_retained_samples() {
        let samples = mixed_trace(600);
        let interval = 100u64;
        let cfg = ConcurrencyConfig { interval };
        for window in [1u64, 2, 3, 10] {
            for batch_size in [1usize, 7, 64, 600] {
                let mut win = WindowedConcurrency::new(cfg, window);
                for chunk in samples.chunks(batch_size) {
                    win.ingest(chunk);
                }
                let (retained, late, evicted) = windowed_reference(&samples, interval, window);
                assert_eq!(
                    win.late_dropped(),
                    late,
                    "window={window} batch={batch_size}"
                );
                assert_eq!(win.evicted_samples(), evicted);
                assert_eq!(win.retained_samples(), retained.len() as u64);
                for jobs in [1, 2, 4] {
                    assert_eq!(
                        win.clone().concurrency_jobs(jobs),
                        concurrency_map(&retained, &cfg),
                        "window={window} batch={batch_size} jobs={jobs}"
                    );
                }
            }
        }
    }

    #[test]
    fn windowed_eviction_is_exact_per_interval() {
        let cfg = ConcurrencyConfig { interval: 10 };
        let mut win = WindowedConcurrency::new(cfg, 2);
        // Intervals 0 and 1 in the window.
        win.ingest(&[sample(0, 5, 1), sample(1, 6, 2), sample(0, 15, 3)]);
        assert_eq!(win.window_range(), Some((0, 1)));
        assert_eq!(win.retained_samples(), 3);
        // Interval 3: interval 0 and 1 both expire (range becomes 2..=3).
        win.ingest(&[sample(1, 35, 4)]);
        assert_eq!(win.window_range(), Some((2, 3)));
        assert_eq!(win.evicted_samples(), 3);
        assert_eq!(win.retained_samples(), 1);
        // A sample from interval 1 is now late: counted, never folded.
        assert_eq!(win.ingest(&[sample(0, 16, 1)]), 1);
        assert_eq!(win.late_dropped(), 1);
        assert_eq!(win.retained_samples(), 1);
        // The surviving state equals a batch over exactly interval 3.
        assert_eq!(
            win.concurrency_jobs(1),
            concurrency_map(&[sample(1, 35, 4)], &cfg)
        );
    }

    #[test]
    fn windowed_unbounded_window_matches_streaming() {
        let samples = mixed_trace(400);
        let cfg = ConcurrencyConfig { interval: 100 };
        let mut stream = StreamingConcurrency::new(cfg);
        stream.ingest(&samples);
        // 1000 cycles / interval 100 = at most 10 intervals: a window of
        // 16 never evicts, so the generalization degenerates exactly.
        let mut win = WindowedConcurrency::new(cfg, 16);
        win.ingest(&samples);
        assert_eq!(win.late_dropped() + win.evicted_samples(), 0);
        assert_eq!(win.concurrency_jobs(2), stream.finish(2, &Obs::disabled()));
    }

    #[test]
    fn streaming_empty_is_empty() {
        let stream = StreamingConcurrency::new(ConcurrencyConfig { interval: 100 });
        assert_eq!(stream.finish(1, &Obs::disabled()), ConcurrencyMap::empty());
    }
}
