//! `perf_report` — the self-reporting performance harness.
//!
//! Runs three microbenches over the repo's hot paths, each old-vs-new
//! against the retained reference implementations on identical seeds, and
//! writes `BENCH_sim.json`:
//!
//! 1. **cc** — `concurrency_map` (the blocked kernel) vs the frozen
//!    perf baseline `concurrency_map_reference` (the flat count-tensor
//!    pipeline) on one synthetic sample stream. `concurrency_map_naive`
//!    (triple-nested maps) is the test oracle: asserted equal once,
//!    never timed. The parallel column folds the same stream through
//!    `StreamingConcurrency::ingest` and `finish(--jobs)`, asserted
//!    bit-identical to the serial map.
//! 2. **flg_cluster** — dense triangular `Flg` construction + greedy
//!    clustering vs the hash-map `FlgRef` through the same generic
//!    `cluster`.
//! 3. **search_delta** — the annealing search's incremental
//!    `DeltaObjective` (`score_move` per proposal, `apply` on the
//!    accepted ones) vs what a no-delta search pays: cloning the
//!    clustering and re-running the full `clustering_score` on **every**
//!    proposal. Both paths replay one precomputed feasible proposal
//!    trace with a fixed acceptance schedule, and their committed score
//!    traces are asserted bit-identical before the ratio is trusted.
//!    The ratio is emitted as `delta_full_ratio` (and mirrored as
//!    `speedup_vs_reference`); `perf_guard --require-speedup
//!    search_delta:20` enforces the floor. Both sides are serial, so
//!    the floor is never host-core-skipped.
//!
//! Every comparison asserts bit-identical results before timing is
//! trusted; an equivalence failure aborts with a non-zero exit. Speedups
//! are reported, not enforced. The CC bench is also measured with its
//! fold fanned over `--jobs N` host threads, to record the parallel
//! speedup alongside the serial numbers. Whole simulations have
//! no bench here: the end-to-end benchmark (`benchmark/`) reports the
//! simulator's cost per access.
//!
//! Flags: `--quick` (smaller workloads, used by ci.sh), `--jobs N`,
//! `--out PATH` (default `BENCH_sim.json`).
//!
//! Schema: `slopt-perf-report/6`. Version 2 added a `peak_rss_kb` field
//! per bench — the process's high-water resident set (Linux `VmHWM`,
//! absent elsewhere) sampled right after the bench finishes. Version 3
//! adds per-bench `dense_trimmed_mean_s` / `reference_trimmed_mean_s`
//! (per-rep wall clock with min and max dropped when reps ≥ 3, so the
//! committed baseline is not noise-dominated; `speedup_vs_reference` is
//! their ratio) and a top-level `host_cores` field, so `perf_guard` can
//! tell a missing parallel win from a host that physically cannot show
//! one (wall-clock speedup > 1 needs more cores than workers). Version
//! 4 adds the `search_delta` bench and its `delta_full_ratio` field
//! (the per-proposal cost ratio of full rescoring over delta
//! evaluation). Version 5 adds per-bench `dense_p50_s` / `dense_p99_s`;
//! version 6 computes them as exact nearest-rank order statistics of the
//! raw reps (/5 used log2 histogram buckets, which gave p50 = p99 = the
//! slowest rep for a handful of reps) and times the `cc` bench against
//! `concurrency_map_reference` instead of the naive oracle. Earlier
//! fields are unchanged, so /1–/5 consumers can read /6 reports.

use slopt_bench::{extra_flag, usage_exit, CommonArgs};
use slopt_core::{canonical_cluster_sum, cluster, DeltaObjective, Flg, FlgRef, Move};
use slopt_ir::cfg::{BlockId, FuncId};
use slopt_ir::interp::SplitMix64;
use slopt_ir::source::SourceLine;
use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordId, RecordType};
use slopt_sample::{
    concurrency_map, concurrency_map_naive, concurrency_map_reference, ConcurrencyConfig, Sample,
    StreamingConcurrency, PARALLEL_FINISH_MIN_CELLS,
};
use slopt_sim::CpuId;
use std::time::Instant;

struct Args {
    quick: bool,
    jobs: usize,
    out: String,
}

impl Args {
    fn from_env() -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        // `--jobs` comes from the shared execution-context parser, with
        // the bin-specific flags below registered as extras.
        let extras: &[(&str, bool)] = &[("--out", true), ("--quick", false)];
        let (common, out) = CommonArgs::parse_with(&args, extras)
            .and_then(|common| {
                let out = extra_flag(&args, "--out")?;
                Ok((common, out))
            })
            .unwrap_or_else(|e| usage_exit("perf_report", &e));
        Args {
            quick: args.iter().any(|a| a == "--quick"),
            jobs: common.jobs,
            out: out.unwrap_or_else(|| "BENCH_sim.json".to_string()),
        }
    }
}

/// One microbench's measurements, all in seconds of wall clock.
struct BenchResult {
    name: &'static str,
    /// What one repetition processes (for the report only).
    work: String,
    reps: usize,
    /// Per-rep wall clock of the dense implementation, serial.
    dense_s: Vec<f64>,
    /// Per-rep wall clock of the reference implementation, serial.
    reference_s: Vec<f64>,
    /// Total wall clock of all dense reps fanned over `--jobs` threads
    /// (`cc` only; `None` elsewhere).
    dense_jobs_s: Option<f64>,
    jobs: usize,
    /// Peak resident set size (Linux `VmHWM`, kB) sampled right after the
    /// bench; `None` on platforms without `/proc/self/status`. VmHWM is a
    /// process-lifetime high-water mark, so per-bench values are
    /// monotonically non-decreasing in run order.
    peak_rss_kb: Option<u64>,
    /// `search_delta` only: per-proposal cost ratio of the full-rescore
    /// reference over delta evaluation (the number `perf_guard` floors).
    delta_full_ratio: Option<f64>,
}

/// The process's peak resident set size in kilobytes, from the `VmHWM`
/// line of `/proc/self/status`; `None` on non-Linux platforms.
fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status.lines().find_map(|line| {
            line.strip_prefix("VmHWM:")?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()
        })
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Nearest-rank `q`-quantile of the reps: the smallest rep with at least
/// `ceil(q * n)` reps at or below it. Exact on the raw rep vector, so p50
/// and p99 differ whenever the reps do; `None` for no reps.
fn nearest_rank(xs: &[f64], q: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied()
}

/// Mean of the reps with the minimum and maximum dropped (when reps ≥ 3;
/// the plain mean below that). One outlier rep — a scheduler hiccup, a
/// page-cache miss — cannot move the committed baseline.
fn trimmed_mean(xs: &[f64]) -> f64 {
    if xs.len() < 3 {
        return xs.iter().sum::<f64>() / xs.len() as f64;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let inner = &v[1..v.len() - 1];
    inner.iter().sum::<f64>() / inner.len() as f64
}

impl BenchResult {
    fn dense_total(&self) -> f64 {
        self.dense_s.iter().sum()
    }
    fn reference_total(&self) -> f64 {
        self.reference_s.iter().sum()
    }
    /// Trimmed-mean ratio of reference over dense — robust to one noisy
    /// rep on either side.
    fn speedup(&self) -> f64 {
        trimmed_mean(&self.reference_s) / trimmed_mean(&self.dense_s)
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

// -------------------------------------------------------------------- cc

/// Deterministic synthetic sample stream: `cpus` CPUs sampled across
/// `intervals` intervals over `lines` distinct source lines.
fn synth_samples(n: usize, cpus: u16, lines: u32, span: u64, seed: u64) -> Vec<Sample> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Sample {
            cpu: CpuId((rng.next_u64() % cpus as u64) as u16),
            time: rng.next_u64() % span,
            func: FuncId(0),
            block: BlockId(0),
            line: SourceLine((rng.next_u64() % lines as u64) as u32),
        })
        .collect()
}

fn bench_cc(args: &Args) -> BenchResult {
    // Both modes keep ~600 samples per interval, growing the interval
    // count with the stream, so the density (and the per-interval cost
    // ratio) is fixed; the naive oracle, quadratic in samples-per-interval,
    // stays affordable for its one equivalence check. The quick stream is
    // still large enough (~143k cells) that `finish(jobs)` fans out.
    let (n, intervals) = if args.quick {
        (150_000, 250u64)
    } else {
        (600_000, 1_000)
    };
    let cfg = ConcurrencyConfig { interval: 1_000 };
    let samples = synth_samples(n, 16, 400, intervals * cfg.interval, 0xCC);
    let reps = 5;

    let mut dense_s = Vec::new();
    let mut reference_s = Vec::new();
    let mut dense_pairs = Vec::new();
    for _ in 0..reps {
        let (dense, td) = time(|| concurrency_map(&samples, &cfg));
        dense_s.push(td);
        dense_pairs = dense.pairs();
        let (reference, tr) = time(|| concurrency_map_reference(&samples, &cfg));
        reference_s.push(tr);
        assert_eq!(
            dense_pairs,
            reference.pairs(),
            "dense and reference concurrency maps disagree"
        );
    }
    // The naive formulation is the test oracle, checked once and
    // never timed.
    assert_eq!(
        dense_pairs,
        concurrency_map_naive(&samples, &cfg).pairs(),
        "dense and naive concurrency maps disagree"
    );
    // The parallel column times a fan-out only above the final fold's
    // serial threshold: count the stream's cells, untimed.
    let stats = slopt_obs::Obs::aggregating();
    let mut stream = StreamingConcurrency::new(cfg);
    stream.ingest(&samples);
    stream.finish(1, &stats);
    let cells = stats.summary().metrics.counter("cc.cells") as usize;
    assert!(
        cells >= PARALLEL_FINISH_MIN_CELLS,
        "{cells} cells fold serially"
    );
    // The parallel column: the same stream folded into the streaming
    // cell store and finished over `--jobs` threads. It must be
    // bit-identical to the serial map; the check sits outside the timed
    // region, so the column times the fold alone.
    let mut jobs_total = 0.0;
    for _ in 0..reps {
        let (fanned, tj) = time(|| {
            let mut stream = StreamingConcurrency::new(cfg);
            stream.ingest(&samples);
            stream.finish(args.jobs, &slopt_obs::Obs::disabled())
        });
        jobs_total += tj;
        assert_eq!(
            fanned.pairs(),
            dense_pairs,
            "the fanned fold diverged from the serial map"
        );
    }
    BenchResult {
        name: "cc",
        work: format!("{n} samples, 16 cpus, 400 lines, {intervals} intervals"),
        reps,
        dense_s,
        reference_s,
        dense_jobs_s: Some(jobs_total),
        jobs: args.jobs,
        peak_rss_kb: peak_rss_kb(),
        delta_full_ratio: None,
    }
}

// ----------------------------------------------------------- flg_cluster

fn random_edges(n: u32, per_field: usize, seed: u64) -> (Vec<u64>, Vec<(FieldIdx, FieldIdx, f64)>) {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::new();
    for i in 0..n {
        for _ in 0..per_field {
            let j = (rng.next_u64() % n as u64) as u32;
            if i != j {
                let w = rng.next_f64() * 200.0 - 50.0;
                edges.push((FieldIdx(i), FieldIdx(j), w));
            }
        }
    }
    let hotness = (0..n as u64).map(|_| rng.next_u64() % 10_000).collect();
    (hotness, edges)
}

fn record_u64(n: usize) -> RecordType {
    RecordType::new(
        "S",
        (0..n)
            .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
            .collect(),
    )
}

fn bench_flg_cluster(args: &Args) -> BenchResult {
    let n: u32 = if args.quick { 256 } else { 512 };
    let per_field = 8;
    let (hotness, edges) = random_edges(n, per_field, 0xF16);
    let rec = record_u64(n as usize);
    let reps = if args.quick { 20 } else { 50 };

    let mut dense_s = Vec::new();
    let mut reference_s = Vec::new();
    for _ in 0..reps {
        let (dense, td) = time(|| {
            let flg = Flg::from_parts(RecordId(0), hotness.clone(), edges.iter().copied());
            cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled())
        });
        dense_s.push(td);
        let (refr, tr) = time(|| {
            let flg = FlgRef::from_parts(RecordId(0), hotness.clone(), edges.iter().copied());
            cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled())
        });
        reference_s.push(tr);
        assert_eq!(
            dense, refr,
            "dense and reference FLG produce different clusterings"
        );
    }
    BenchResult {
        name: "flg_cluster",
        work: format!("{n} fields, ~{per_field} edges/field, build+cluster"),
        reps,
        dense_s,
        reference_s,
        dense_jobs_s: None,
        jobs: args.jobs,
        peak_rss_kb: peak_rss_kb(),
        delta_full_ratio: None,
    }
}

// ---------------------------------------------------------- search_delta

/// One proposal in the search's mix (6/10 move-field, 2/10 swap, 1/10
/// split, 1/10 merge), drawn from a `SplitMix64` stream.
fn propose_move(rng: &mut SplitMix64, d: &DeltaObjective<'_, Flg>, n: u32) -> Move {
    let k = d.cluster_count() as u64;
    let field = |rng: &mut SplitMix64| FieldIdx((rng.next_u64() % n as u64) as u32);
    match rng.next_u64() % 10 {
        0..=5 => Move::MoveField {
            field: field(rng),
            dst: (rng.next_u64() % (k + 1)) as usize,
        },
        6 | 7 => Move::SwapFields {
            a: field(rng),
            b: field(rng),
        },
        8 => {
            let cluster = (rng.next_u64() % k) as usize;
            let len = d.clusters()[cluster].len().max(1);
            Move::Split {
                cluster,
                at: (rng.next_u64() % len as u64) as usize,
            }
        }
        _ => Move::Merge {
            dst: (rng.next_u64() % k) as usize,
            src: (rng.next_u64() % k) as usize,
        },
    }
}

fn bench_search_delta(args: &Args) -> BenchResult {
    // Both paths replay one precomputed trace of feasible proposals with
    // a fixed acceptance schedule (improving moves always, every third
    // non-improving one), so they visit bit-identical cluster states.
    // Dense pays `score_move` per proposal plus `apply` on the accepted
    // ones; the reference pays what a search without delta evaluation
    // pays per proposal — cloning the cluster list and re-running the
    // full canonical scorer over every cluster. The committed score
    // traces are asserted bit-equal before the ratio is trusted.
    let n: u32 = if args.quick { 1_024 } else { 2_048 };
    let per_field = 8;
    let proposals = if args.quick { 3_000usize } else { 6_000 };
    let reps = 5;
    let line = 128u64;
    let (hotness, edges) = random_edges(n, per_field, 0x5EA7C4);
    let rec = record_u64(n as usize);
    let flg = Flg::from_parts(RecordId(0), hotness, edges.iter().copied());
    let start = cluster(&flg, &rec, line, &slopt_obs::Obs::disabled());

    let mut trace: Vec<(Move, bool)> = Vec::with_capacity(proposals);
    {
        let mut d = DeltaObjective::new(&flg, &rec, &start, line);
        let mut rng = SplitMix64::new(0xACCE97);
        let mut rejected = 0u64;
        while trace.len() < proposals {
            let m = propose_move(&mut rng, &d, n);
            let Some(est) = d.score_move(m) else { continue };
            let accept = est > 0.0 || {
                rejected += 1;
                rejected.is_multiple_of(3)
            };
            if accept {
                d.apply(m);
            }
            trace.push((m, accept));
        }
    }

    let full_score = |d: &DeltaObjective<'_, Flg>| -> f64 {
        let cand: Vec<Vec<FieldIdx>> = d.clusters().to_vec();
        cand.iter().map(|c| canonical_cluster_sum(&flg, c)).sum()
    };

    let mut dense_s = Vec::new();
    let mut dense_trace: Vec<u64> = Vec::new();
    for rep in 0..reps {
        let mut d = DeltaObjective::new(&flg, &rec, &start, line);
        let mut committed: Vec<u64> = Vec::with_capacity(trace.len());
        let mut checksum = 0.0f64;
        let ((), td) = time(|| {
            for &(m, accept) in &trace {
                let est = d.score_move(m).expect("trace moves stay feasible");
                checksum += est;
                if accept {
                    d.apply(m);
                    committed.push(d.score().to_bits());
                }
            }
        });
        dense_s.push(td);
        assert!(checksum.is_finite(), "delta estimates overflowed");
        if rep == 0 {
            dense_trace = committed;
        } else {
            assert_eq!(dense_trace, committed, "delta replay diverged across reps");
        }
    }

    let mut reference_s = Vec::new();
    for _ in 0..reps {
        let mut d = DeltaObjective::new(&flg, &rec, &start, line);
        let mut committed: Vec<u64> = Vec::with_capacity(trace.len());
        let mut checksum = 0.0f64;
        let ((), tr) = time(|| {
            for &(m, accept) in &trace {
                if accept {
                    d.apply(m);
                    committed.push(full_score(&d).to_bits());
                } else {
                    checksum += full_score(&d);
                }
            }
        });
        reference_s.push(tr);
        assert!(checksum.is_finite(), "full rescoring overflowed");
        assert_eq!(
            dense_trace, committed,
            "delta and full-rescore committed score traces diverged"
        );
    }

    let mut r = BenchResult {
        name: "search_delta",
        work: format!("{n} fields, {proposals} proposals, ~{per_field} edges/field"),
        reps,
        dense_s,
        reference_s,
        dense_jobs_s: None,
        jobs: args.jobs,
        peak_rss_kb: peak_rss_kb(),
        delta_full_ratio: None,
    };
    r.delta_full_ratio = Some(r.speedup());
    r
}

// ------------------------------------------------------------------ json

fn json_f64_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
    format!("[{}]", items.join(", "))
}

fn write_report(path: &str, args: &Args, results: &[BenchResult]) -> std::io::Result<()> {
    let mut benches = Vec::new();
    for r in results {
        let mut fields = vec![
            format!("      \"name\": \"{}\"", r.name),
            format!("      \"work\": \"{}\"", r.work),
            format!("      \"reps\": {}", r.reps),
            format!("      \"dense_serial_s\": {}", json_f64_array(&r.dense_s)),
            format!("      \"dense_serial_total_s\": {:.6}", r.dense_total()),
            format!(
                "      \"dense_trimmed_mean_s\": {:.6}",
                trimmed_mean(&r.dense_s)
            ),
        ];
        if let (Some(p50), Some(p99)) = (
            nearest_rank(&r.dense_s, 0.50),
            nearest_rank(&r.dense_s, 0.99),
        ) {
            fields.push(format!("      \"dense_p50_s\": {p50:.6}"));
            fields.push(format!("      \"dense_p99_s\": {p99:.6}"));
        }
        fields.push(format!(
            "      \"reference_serial_s\": {}",
            json_f64_array(&r.reference_s)
        ));
        fields.push(format!(
            "      \"reference_serial_total_s\": {:.6}",
            r.reference_total()
        ));
        fields.push(format!(
            "      \"reference_trimmed_mean_s\": {:.6}",
            trimmed_mean(&r.reference_s)
        ));
        fields.push(format!(
            "      \"speedup_vs_reference\": {:.3}",
            r.speedup()
        ));
        if let Some(ratio) = r.delta_full_ratio {
            fields.push(format!("      \"delta_full_ratio\": {ratio:.3}"));
        }
        if let Some(kb) = r.peak_rss_kb {
            fields.push(format!("      \"peak_rss_kb\": {kb}"));
        }
        if let Some(jp) = r.dense_jobs_s {
            fields.push(format!("      \"jobs\": {}", r.jobs));
            fields.push(format!("      \"dense_jobs_total_s\": {jp:.6}"));
            fields.push(format!(
                "      \"parallel_speedup\": {:.3}",
                r.dense_total() / jp
            ));
        }
        benches.push(format!("    {{\n{}\n    }}", fields.join(",\n")));
    }
    let doc = format!(
        "{{\n  \"schema\": \"slopt-perf-report/6\",\n  \"quick\": {},\n  \"jobs\": {},\n  \"host_cores\": {},\n  \"equivalence_checked\": true,\n  \"benches\": [\n{}\n  ]\n}}\n",
        args.quick,
        args.jobs,
        host_cores(),
        benches.join(",\n")
    );
    std::fs::write(path, doc)
}

/// Number of hardware threads available to this process. `perf_guard`
/// uses it to decide whether a wall-clock parallel-speedup floor is
/// physically meaningful on the measuring host.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() {
    let args = Args::from_env();
    eprintln!("[perf_report] quick={} jobs={}", args.quick, args.jobs);

    let results = vec![
        bench_cc(&args),
        bench_flg_cluster(&args),
        bench_search_delta(&args),
    ];

    for r in &results {
        eprintln!(
            "[perf_report] {:<12} dense {:.3}s vs reference {:.3}s -> {:.2}x ({})",
            r.name,
            r.dense_total(),
            r.reference_total(),
            r.speedup(),
            r.work
        );
        if let Some(jp) = r.dense_jobs_s {
            eprintln!(
                "[perf_report] {:<12} --jobs {}: {:.3}s total ({:.2}x vs serial)",
                r.name,
                r.jobs,
                jp,
                r.dense_total() / jp
            );
        }
    }

    write_report(&args.out, &args, &results).expect("write report");
    eprintln!("[perf_report] wrote {}", args.out);
}

#[cfg(test)]
mod tests {
    use super::nearest_rank;

    #[test]
    fn nearest_rank_quantiles_come_from_the_sorted_reps() {
        // Two reps in one power-of-two bucket used to report p50 = p99 =
        // the slowest rep; nearest rank keeps them apart.
        let reps = [0.014791, 0.013148, 0.012003, 0.011503, 0.009539, 0.009520];
        assert_eq!(nearest_rank(&reps, 0.50), Some(0.011503));
        assert_eq!(nearest_rank(&reps, 0.99), Some(0.014791));
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.50), Some(2.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.50), None);
    }
}
