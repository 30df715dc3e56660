//! Criterion micro-benchmarks of the tool itself: FLG construction,
//! greedy clustering scaling, the MESI memory system, and the
//! multiprocessor engine — the cost side of the paper's "practical,
//! scales to millions of lines" claims.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use slopt_core::{cluster, Flg, FlgRef};
use slopt_ir::cfg::{BlockId, FuncId};
use slopt_ir::interp::SplitMix64;
use slopt_ir::source::SourceLine;
use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordId, RecordType};
use slopt_sample::{concurrency_map, concurrency_map_reference, ConcurrencyConfig, Sample};
use slopt_sim::{CacheConfig, CpuId, LatencyModel, MemSystem, Topology};

fn record_u64(n: usize) -> RecordType {
    RecordType::new(
        "S",
        (0..n)
            .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
            .collect(),
    )
}

/// Random edge soup with `n` fields and ~`edges_per_field` edges each.
fn random_flg_parts(
    n: usize,
    edges_per_field: usize,
    seed: u64,
) -> (Vec<u64>, Vec<(FieldIdx, FieldIdx, f64)>) {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::new();
    for i in 0..n as u32 {
        for _ in 0..edges_per_field {
            let j = (rng.next_u64() % n as u64) as u32;
            if i != j {
                let w = rng.next_f64() * 200.0 - 50.0; // skewed positive
                edges.push((FieldIdx(i), FieldIdx(j), w));
            }
        }
    }
    let hotness: Vec<u64> = (0..n).map(|_| rng.next_u64() % 10_000).collect();
    (hotness, edges)
}

/// Random FLG with `n` fields and ~`edges_per_field` edges each.
fn random_flg(n: usize, edges_per_field: usize, seed: u64) -> Flg {
    let (hotness, edges) = random_flg_parts(n, edges_per_field, seed);
    Flg::from_parts(RecordId(0), hotness, edges)
}

/// Deterministic synthetic PMU stream for the concurrency benches.
fn random_samples(n: usize, cpus: u16, lines: u32, span: u64, seed: u64) -> Vec<Sample> {
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

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering");
    for &n in &[32usize, 128, 512] {
        let flg = random_flg(n, 6, 42);
        let rec = record_u64(n);
        group.bench_with_input(BenchmarkId::new("greedy", n), &n, |b, _| {
            b.iter(|| cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled()))
        });
    }
    group.finish();
}

fn bench_flg_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("flg");
    for &n in &[128usize, 512] {
        group.bench_with_input(BenchmarkId::new("from_parts", n), &n, |b, &n| {
            b.iter(|| random_flg(n, 6, 7))
        });
        // Dense triangular vs hash-map reference on the identical edge
        // soup: construction cost only.
        let (hotness, edges) = random_flg_parts(n, 6, 7);
        group.bench_with_input(BenchmarkId::new("dense_build", n), &n, |b, _| {
            b.iter(|| Flg::from_parts(RecordId(0), hotness.clone(), edges.iter().copied()))
        });
        group.bench_with_input(BenchmarkId::new("reference_build", n), &n, |b, _| {
            b.iter(|| FlgRef::from_parts(RecordId(0), hotness.clone(), edges.iter().copied()))
        });
    }
    group.finish();
}

fn bench_concurrency(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrency");
    for &n in &[20_000usize, 80_000] {
        let samples = random_samples(n, 16, 400, 100_000, 0xCC);
        let cfg = ConcurrencyConfig { interval: 1_000 };
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("concurrency_map", n), &n, |b, _| {
            b.iter(|| concurrency_map(&samples, &cfg))
        });
        // The frozen perf baseline; the naive map is a test oracle only.
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| concurrency_map_reference(&samples, &cfg))
        });
    }
    group.finish();
}

fn bench_memsystem(c: &mut Criterion) {
    let mut group = c.benchmark_group("memsystem");
    group.throughput(Throughput::Elements(100_000));

    // Private working sets: almost all hits.
    group.bench_function("private_hits", |b| {
        b.iter(|| {
            let mut m = MemSystem::new(
                Topology::superdome(16),
                LatencyModel::superdome(),
                CacheConfig {
                    line_size: 128,
                    sets: 256,
                    ways: 8,
                },
            );
            let mut total = 0u64;
            for i in 0..100_000u64 {
                let cpu = CpuId((i % 16) as u16);
                let addr = 0x10_0000 + (cpu.0 as u64) * 0x1_0000 + (i % 64) * 8;
                total += m.access(cpu, addr, 8, i % 7 == 0, None, i);
            }
            total
        })
    });

    // Heavy contention: all CPUs ping-pong one line.
    group.bench_function("contended_line", |b| {
        b.iter(|| {
            let mut m = MemSystem::new(
                Topology::superdome(16),
                LatencyModel::superdome(),
                CacheConfig {
                    line_size: 128,
                    sets: 256,
                    ways: 8,
                },
            );
            let mut total = 0u64;
            for i in 0..100_000u64 {
                let cpu = CpuId((i % 16) as u16);
                total += m.access(cpu, 0x20_0000 + (cpu.0 as u64 % 8) * 8, 8, true, None, i);
            }
            total
        })
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    use slopt_workload::{baseline_layouts, build_kernel, run_once, Machine, SdetConfig};
    let kernel = build_kernel();
    let cfg = SdetConfig {
        scripts_per_cpu: 8,
        pool_instances: 64,
        cache: CacheConfig {
            line_size: 128,
            sets: 128,
            ways: 4,
        },
        ..SdetConfig::default()
    };
    let layouts = baseline_layouts(&kernel, cfg.line_size);
    let machine = Machine::superdome(16);
    c.bench_function("engine/sdet_16way", |b| {
        b.iter(|| {
            run_once(
                &kernel,
                &layouts,
                &machine,
                &cfg,
                3,
                &mut slopt_sim::NullObserver,
            )
        })
    });
}

criterion_group!(
    benches,
    bench_clustering,
    bench_flg_build,
    bench_concurrency,
    bench_memsystem,
    bench_engine
);
criterion_main!(benches);
