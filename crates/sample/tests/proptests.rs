//! Property tests for sampling and Code Concurrency: symmetry, interval
//! locality, monotonicity, and sampler grid correctness.

use proptest::prelude::*;
use slopt_ir::cfg::{BlockId, FuncId};
use slopt_ir::source::SourceLine;
use slopt_obs::Obs;
use slopt_sample::{
    concurrency_map, concurrency_map_naive, decode_shard, encode_shard, read_shard, write_shard,
    ConcurrencyConfig, Sample, Sampler, SamplerConfig, StreamingConcurrency, WindowedConcurrency,
};
use slopt_sim::{CpuId, Observer};
use std::sync::atomic::{AtomicUsize, Ordering};

fn mk_sample(cpu: u16, time: u64, line: u32) -> Sample {
    Sample {
        cpu: CpuId(cpu),
        time,
        func: FuncId(0),
        block: BlockId(0),
        line: SourceLine(line),
    }
}

/// A fresh per-case temp directory (proptest runs many cases; each needs
/// its own shard directory).
fn case_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slopt_prop_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `samples`, time-sorted, under `dir` as `write_shard` files
/// whose record counts cycle through `sizes`; returns the paths in
/// write (= path) order.
fn write_chunked(
    dir: &std::path::Path,
    samples: &[Sample],
    sizes: &[usize],
) -> Vec<std::path::PathBuf> {
    std::fs::create_dir_all(dir).unwrap();
    let mut sorted = samples.to_vec();
    sorted.sort_by_key(|s| s.time);
    let mut paths = Vec::new();
    let mut rest = &sorted[..];
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        let path = dir.join(format!("shard-{:05}.slshard", paths.len()));
        write_shard(&path, chunk).unwrap();
        paths.push(path);
        rest = tail;
    }
    paths
}

/// The decoder is total: any input decodes or fails with a typed
/// error, and a decoded shard re-encodes to an image that decodes to
/// the same samples.
fn assert_decode_is_total(bytes: &[u8]) {
    if let Ok(samples) = decode_shard(bytes) {
        let again = encode_shard(&samples).expect("decoded samples are time-sorted");
        assert_eq!(decode_shard(&again).unwrap(), samples);
    }
}

/// One single edit of a valid shard image: truncate at `at`, flip the
/// byte at `at`, overwrite the record count with `value`, or swap two
/// records.
fn edit_shard(mut bytes: Vec<u8>, kind: usize, at: usize, value: u32) -> Vec<u8> {
    const HEADER: usize = 32;
    const RECORD: usize = 24;
    match kind {
        0 => bytes.truncate(at % (bytes.len() + 1)),
        1 => {
            let i = at % bytes.len();
            bytes[i] ^= (value as u8).max(1);
        }
        2 => bytes[12..16].copy_from_slice(&value.to_le_bytes()),
        _ => {
            let records = (bytes.len() - HEADER) / RECORD;
            if records >= 2 {
                let (a, b) = (at % records, value as usize % records);
                for k in 0..RECORD {
                    bytes.swap(HEADER + a * RECORD + k, HEADER + b * RECORD + k);
                }
            }
        }
    }
    bytes
}

proptest! {
    /// CC is symmetric and non-negative for any sample set.
    #[test]
    fn concurrency_is_symmetric(
        samples in prop::collection::vec((0u16..4, 0u64..10_000, 0u32..6), 0..120),
    ) {
        let samples: Vec<Sample> =
            samples.into_iter().map(|(c, t, l)| mk_sample(c, t, l)).collect();
        let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 1_000 });
        for a in 0..6u32 {
            for b in 0..6u32 {
                prop_assert_eq!(
                    cm.get(SourceLine(a), SourceLine(b)),
                    cm.get(SourceLine(b), SourceLine(a))
                );
            }
        }
        for (_, _, cc) in cm.pairs() {
            prop_assert!(cc > 0);
        }
    }

    /// Shifting every sample by a whole number of intervals leaves the
    /// concurrency map unchanged (bucketing is translation-invariant).
    #[test]
    fn concurrency_is_translation_invariant(
        samples in prop::collection::vec((0u16..4, 0u64..5_000, 0u32..5), 0..80),
        k in 1u64..10,
    ) {
        let interval = 1_000u64;
        let base: Vec<Sample> =
            samples.iter().map(|&(c, t, l)| mk_sample(c, t, l)).collect();
        let shifted: Vec<Sample> = samples
            .iter()
            .map(|&(c, t, l)| mk_sample(c, t + k * interval, l))
            .collect();
        let cm1 = concurrency_map(&base, &ConcurrencyConfig { interval });
        let cm2 = concurrency_map(&shifted, &ConcurrencyConfig { interval });
        prop_assert_eq!(cm1.pairs(), cm2.pairs());
    }

    /// Adding samples never decreases any pair's concurrency (CC is
    /// monotone in its input).
    #[test]
    fn concurrency_is_monotone(
        samples in prop::collection::vec((0u16..3, 0u64..3_000, 0u32..4), 1..60),
        extra in (0u16..3, 0u64..3_000, 0u32..4),
    ) {
        let base: Vec<Sample> =
            samples.iter().map(|&(c, t, l)| mk_sample(c, t, l)).collect();
        let mut bigger = base.clone();
        bigger.push(mk_sample(extra.0, extra.1, extra.2));
        let cm1 = concurrency_map(&base, &ConcurrencyConfig { interval: 500 });
        let cm2 = concurrency_map(&bigger, &ConcurrencyConfig { interval: 500 });
        for (a, b, cc) in cm1.pairs() {
            prop_assert!(cm2.get(a, b) >= cc);
        }
    }

    /// The dense interned-tensor estimator equals the naive nested-map
    /// formula on arbitrary sample streams: same map, same interner, same
    /// sorted pair list, same point lookups.
    #[test]
    fn dense_concurrency_matches_naive(
        samples in prop::collection::vec((0u16..6, 0u64..20_000, 0u32..12), 0..250),
        interval_pick in 0usize..4,
    ) {
        let samples: Vec<Sample> =
            samples.into_iter().map(|(c, t, l)| mk_sample(c, t, l)).collect();
        let cfg = ConcurrencyConfig { interval: [1u64, 100, 1_000, 7_919][interval_pick] };
        let dense = concurrency_map(&samples, &cfg);
        let naive = concurrency_map_naive(&samples, &cfg);
        prop_assert_eq!(&dense, &naive);
        prop_assert_eq!(dense.pairs(), naive.pairs());
        prop_assert_eq!(dense.interned_pairs(), naive.interned_pairs());
        prop_assert_eq!(dense.interner(), naive.interner());
        for a in 0..12u32 {
            for b in 0..12u32 {
                prop_assert_eq!(
                    dense.get(SourceLine(a), SourceLine(b)),
                    naive.get(SourceLine(a), SourceLine(b))
                );
            }
        }
    }

    /// Interner ids are dense, sorted, and round-trip: id order equals
    /// source-line order, the invariant `cycle_loss_weighted` relies on to
    /// stay in id space.
    #[test]
    fn interner_ids_are_sorted_and_dense(
        samples in prop::collection::vec((0u16..4, 0u64..5_000, 0u32..40), 0..150),
    ) {
        let samples: Vec<Sample> =
            samples.into_iter().map(|(c, t, l)| mk_sample(c, t, l)).collect();
        let cm = concurrency_map(&samples, &ConcurrencyConfig { interval: 1_000 });
        let it = cm.interner();
        let lines = it.lines();
        prop_assert!(lines.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        for (i, &l) in lines.iter().enumerate() {
            prop_assert_eq!(it.id(l), Some(slopt_sample::LineId(i as u32)));
            prop_assert_eq!(it.line(slopt_sample::LineId(i as u32)), l);
        }
    }

    /// The shard-directory fold ([`WindowedConcurrency::ingest_dir`]),
    /// over shard files of any sizes, in a window that cannot evict, is
    /// bit-identical to both the batch dense estimator and the naive
    /// nested-map formula on the same samples, at any `jobs` fan-out.
    #[test]
    fn sharded_streaming_matches_batch_and_naive(
        samples in prop::collection::vec((0u16..6, 0u64..20_000, 0u32..12), 0..250),
        sizes in prop::collection::vec(1usize..40, 1..6),
        jobs in 1usize..6,
        interval_pick in 0usize..3,
    ) {
        let samples: Vec<Sample> =
            samples.into_iter().map(|(c, t, l)| mk_sample(c, t, l)).collect();
        let cfg = ConcurrencyConfig { interval: [100u64, 1_000, 7_919][interval_pick] };

        let dir = case_dir("stream");
        write_chunked(&dir, &samples, &sizes);
        // 20 000 cycles span at most 200 intervals: 256 never evict.
        let mut win = WindowedConcurrency::new(cfg, 256);
        win.ingest_dir(&dir, &Obs::disabled()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert_eq!(win.accepted() as usize, samples.len());
        prop_assert_eq!(win.retained_samples() as usize, samples.len());
        let streamed = win.concurrency_jobs(jobs);

        let batch = concurrency_map(&samples, &cfg);
        let naive = concurrency_map_naive(&samples, &cfg);
        prop_assert_eq!(&streamed, &batch);
        prop_assert_eq!(streamed.pairs(), batch.pairs());
        prop_assert_eq!(streamed.interner(), batch.interner());
        prop_assert_eq!(&streamed, &naive);
    }

    /// In-memory streaming (no files): feeding samples one at a time, in
    /// any order, equals the batch estimator for any `jobs`.
    #[test]
    fn incremental_streaming_matches_batch(
        samples in prop::collection::vec((0u16..5, 0u64..10_000, 0u32..8), 0..150),
        jobs in 1usize..5,
    ) {
        let samples: Vec<Sample> =
            samples.into_iter().map(|(c, t, l)| mk_sample(c, t, l)).collect();
        let cfg = ConcurrencyConfig { interval: 500 };
        let mut stream = StreamingConcurrency::new(cfg);
        for s in &samples {
            stream.ingest(std::slice::from_ref(s));
        }
        prop_assert_eq!(stream.samples() as usize, samples.len());
        let streamed = stream.finish(jobs, &Obs::disabled());
        let batch = concurrency_map(&samples, &cfg);
        prop_assert_eq!(&streamed, &batch);
    }

    /// Shard files round-trip: `write_shard` chunks + `read_shard`
    /// reproduce the input samples exactly, time-sorted, each file
    /// holding the record count it was written with.
    #[test]
    fn shard_files_round_trip(
        samples in prop::collection::vec((0u16..6, 0u64..50_000, 0u32..20), 0..200),
        sizes in prop::collection::vec(1usize..64, 1..6),
    ) {
        let samples: Vec<Sample> =
            samples.into_iter().map(|(c, t, l)| mk_sample(c, t, l)).collect();
        let dir = case_dir("roundtrip");
        let written = write_chunked(&dir, &samples, &sizes);
        let mut sorted = samples.clone();
        sorted.sort_by_key(|s| s.time);
        let mut read_back = Vec::new();
        for (path, &size) in written.iter().zip(sizes.iter().cycle()) {
            let chunk = read_shard(path).unwrap();
            prop_assert!(chunk.len() <= size);
            read_back.extend(chunk);
        }
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert_eq!(read_back, sorted);
    }

    /// `decode_shard` never panics on arbitrary bytes, with or without
    /// a valid magic and version in front.
    #[test]
    fn decode_shard_is_total_on_arbitrary_bytes(
        body in prop::collection::vec(any::<u8>(), 0..300),
        prefix in 0usize..3,
    ) {
        let mut bytes: Vec<u8> = Vec::new();
        if prefix >= 1 {
            bytes.extend_from_slice(b"SLSHARD1");
        }
        if prefix == 2 {
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.extend_from_slice(&body);
        assert_decode_is_total(&bytes);
    }

    /// `decode_shard` never panics on a single edit of a valid image:
    /// a truncation, a flipped byte, an overwritten record count or two
    /// swapped records.
    #[test]
    fn decode_shard_is_total_on_edited_images(
        samples in prop::collection::vec((0u16..6, 0u64..50_000, 0u32..20), 0..40),
        kind in 0usize..4,
        at in any::<usize>(),
        value in any::<u32>(),
    ) {
        let mut samples: Vec<Sample> =
            samples.into_iter().map(|(c, t, l)| mk_sample(c, t, l)).collect();
        samples.sort_by_key(|s| s.time);
        let valid = encode_shard(&samples).unwrap();
        prop_assert_eq!(decode_shard(&valid).unwrap(), samples);
        assert_decode_is_total(&edit_shard(valid, kind, at, value));
    }

    /// The blocked threshold-decomposition kernel equals the naive
    /// nested-map formula on arbitrary streams, across line universes
    /// that straddle the kernel's lane width (8) and other
    /// non-multiple-of-tile shapes: identical map, interner and pair
    /// list, bit for bit.
    #[test]
    fn blocked_kernel_matches_naive_on_lane_edge_widths(
        samples in prop::collection::vec((0u16..6, 0u64..20_000, 0u32..0xFFFF), 0..250),
        lines_pick in 0usize..8,
        interval_pick in 0usize..3,
    ) {
        // Fold the raw line numbers into a universe whose width sits on,
        // just under, or just over the ROW_LANES=8 tile edge (and one
        // far past it), so the lane remainder paths all run.
        let width = [1u32, 7, 8, 9, 15, 17, 63, 130][lines_pick];
        let samples: Vec<Sample> = samples
            .into_iter()
            .map(|(c, t, l)| mk_sample(c, t, l % width))
            .collect();
        let cfg = ConcurrencyConfig { interval: [100u64, 1_000, 7_919][interval_pick] };
        let blocked = concurrency_map(&samples, &cfg);
        let naive = concurrency_map_naive(&samples, &cfg);
        prop_assert_eq!(&blocked, &naive);
        prop_assert_eq!(blocked.pairs(), naive.pairs());
        prop_assert_eq!(blocked.interner(), naive.interner());
    }

    /// The pairwise parallel accumulator merge equals the serial fold at
    /// every `jobs` fan-out that changes the reduction tree's shape
    /// (1 = the serial fold itself, then 2, 4 and 7 workers).
    #[test]
    fn pairwise_merge_matches_serial_fold_across_jobs(
        samples in prop::collection::vec((0u16..5, 0u64..40_000, 0u32..10), 1..300),
    ) {
        let samples: Vec<Sample> =
            samples.into_iter().map(|(c, t, l)| mk_sample(c, t, l)).collect();
        // interval 500 over a 40_000-cycle span: up to 80 interval
        // groups, so jobs ∈ {2, 4, 7} all get non-trivial trees.
        let cfg = ConcurrencyConfig { interval: 500 };
        let mut serial = StreamingConcurrency::new(cfg);
        serial.ingest(&samples);
        let serial_map = serial.finish(1, &Obs::disabled());
        for jobs in [2usize, 4, 7] {
            let mut stream = StreamingConcurrency::new(cfg);
            stream.ingest(&samples);
            let got = stream.finish(jobs, &Obs::disabled());
            prop_assert_eq!(&got, &serial_map, "jobs={}", jobs);
        }
    }

    /// The sampler emits exactly the grid points covered by the observed
    /// execution ranges (no jitter, no loss), in increasing per-CPU order.
    #[test]
    fn sampler_covers_execution_exactly(
        segments in prop::collection::vec((1u64..50, 0u32..5), 1..30),
        period in 10u64..200,
    ) {
        let cfg = SamplerConfig {
            period,
            max_phase_jitter: 0,
            loss_probability: 0.0,
            seed: 0,
        };
        let mut sampler = Sampler::new(1, cfg);
        let mut t = 0u64;
        let mut covered: Vec<(u64, u64)> = Vec::new();
        for &(len, line) in &segments {
            sampler.on_block(CpuId(0), FuncId(0), BlockId(0), SourceLine(line), t, t + len);
            covered.push((t, t + len));
            t += len;
        }
        // Expected samples: multiples of `period` inside [period, t).
        let expected: Vec<u64> = (1..)
            .map(|i| i * period)
            .take_while(|&s| s < t)
            .collect();
        let actual: Vec<u64> = sampler.samples().iter().map(|s| s.time).collect();
        prop_assert_eq!(actual, expected);
        prop_assert_eq!(sampler.dropped(), 0);
    }
}

proptest! {
    /// The windowed decaying fold retains *exactly* the samples whose
    /// interval lies in the final window — however the stream was
    /// chunked, and in whatever order the chunks arrived. Its
    /// concurrency map is bit-identical to the batch map over those
    /// retained samples at any `--jobs` (the serve daemon's correctness
    /// contract, DESIGN.md §17).
    #[test]
    fn windowed_fold_matches_batch_over_retained_samples(
        samples in prop::collection::vec((0u16..4, 0u64..40_000, 0u32..6), 0..150),
        window in 1u64..9,
        chunk in 1usize..17,
    ) {
        let interval = 1_000u64;
        let cfg = ConcurrencyConfig { interval };
        let samples: Vec<Sample> =
            samples.into_iter().map(|(c, t, l)| mk_sample(c, t, l)).collect();

        let mut win = WindowedConcurrency::new(cfg, window);
        for part in samples.chunks(chunk) {
            win.ingest(part);
        }

        prop_assert_eq!(win.window_range().is_none(), samples.is_empty());
        let (lo, hi) = win.window_range().unwrap_or((0, 0));
        // The newest interval ever seen anchors the final window: a
        // late-dropped sample is strictly older than some earlier
        // newest, so it can never be the maximum.
        let n = samples.iter().map(|s| s.time / interval).max().unwrap_or(0);
        prop_assert_eq!(hi, n);
        prop_assert_eq!(lo, n.saturating_sub(window - 1));

        // Retained state == the batch fold over exactly the in-window
        // samples, independent of arrival order and chunking.
        let retained: Vec<Sample> = samples
            .iter()
            .filter(|s| {
                let idx = s.time / interval;
                idx >= lo && idx <= hi
            })
            .cloned()
            .collect();
        prop_assert_eq!(win.retained_samples(), retained.len() as u64);
        let batch = concurrency_map(&retained, &cfg);
        for jobs in [1usize, 2, 4] {
            prop_assert_eq!(
                win.concurrency_jobs(jobs).pairs(),
                batch.pairs(),
                "jobs={} must be bit-identical to the batch map",
                jobs
            );
        }

        // Order-independence of the retained cells: replaying the same
        // chunks in reverse order lands on the same final cells (the
        // counters may differ — only retained state is order-free).
        let mut rev = WindowedConcurrency::new(cfg, window);
        for part in samples.chunks(chunk).rev() {
            rev.ingest(part);
        }
        prop_assert_eq!(rev.cells_snapshot(), win.cells_snapshot());
    }
}
