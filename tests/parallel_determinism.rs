//! The parallel runner's contract: for every entry point that takes a
//! `jobs` argument, the result is bit-identical to the serial run —
//! layouts, clusterings, throughput values, whole rendered figures.
//!
//! Exercised on the shipped `examples/session_table.sirw` workload (the
//! user-facing path) and on the built-in synthetic kernel (the figure
//! path).

use slopt::core::{suggest_layout_all, LayoutRequest, ToolParams};
use slopt::sample::{concurrency_map, write_shard, ConcurrencyConfig, Sample, WindowedConcurrency};
use slopt::sim::CacheConfig;
use slopt::workload::{
    analyze, baseline_layouts, compute_paper_layouts_jobs, parse_workload_file, AnalysisConfig,
    Figure, Kernel, LayoutKind, Machine, PaperLayouts, SdetConfig, WorkloadSpec,
};

fn load_session_example() -> slopt::workload::CustomWorkload {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/session_table.sirw");
    let input = std::fs::read_to_string(path).expect("example file exists");
    parse_workload_file(&input).expect("example file parses")
}

/// One figure grid measured by the shared runner with nothing but `jobs`
/// set.
fn measured_figure(
    kernel: &Kernel,
    machine: &Machine,
    sdet: &SdetConfig,
    layouts: &PaperLayouts,
    kinds: &[LayoutKind],
    jobs: usize,
) -> Figure {
    let ctx = slopt_bench::ExecCtx::bare(jobs);
    slopt_bench::figure(
        &ctx, "figure", kernel, machine, sdet, 2, layouts, kinds, "figure",
    )
    .expect("no checkpoint, so no I/O")
    .figure
    .expect("no fault plan, so no holes")
}

fn small_sdet() -> SdetConfig {
    SdetConfig {
        scripts_per_cpu: 6,
        invocations_per_script: 8,
        pool_instances: 64,
        cache: CacheConfig {
            line_size: 128,
            sets: 128,
            ways: 4,
        },
        ..SdetConfig::default()
    }
}

#[test]
fn session_example_suggestions_are_job_count_invariant() {
    let w = load_session_example();
    let session = w.program().registry().lookup("session").unwrap();
    let sdet = small_sdet();
    let cfg = AnalysisConfig {
        machine: Machine::superdome(8),
        ..Default::default()
    };
    let analysis = analyze(&w, &sdet, &cfg);
    let affinity = slopt::workload::analyze::affinity_for(&w, &analysis, session);
    let loss = slopt::workload::loss_for(&w, &analysis, session);
    let rec = w.record_type(session);

    // A batch of identical requests: every slot must come back the same
    // no matter how the scheduler interleaved them.
    let requests: Vec<LayoutRequest<'_>> = (0..12)
        .map(|_| LayoutRequest {
            record: rec,
            affinity: &affinity,
            loss: Some(&loss),
        })
        .collect();
    let serial = suggest_layout_all(
        &requests,
        ToolParams::default(),
        1,
        &slopt_obs::Obs::disabled(),
    );
    for jobs in [2, 4] {
        let parallel = suggest_layout_all(
            &requests,
            ToolParams::default(),
            jobs,
            &slopt_obs::Obs::disabled(),
        );
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.layout, b.layout, "jobs={jobs}");
            assert_eq!(
                a.clustering.clusters(),
                b.clustering.clusters(),
                "jobs={jobs}"
            );
        }
    }
}

#[test]
fn session_example_throughput_is_job_count_invariant() {
    let w = load_session_example();
    let sdet = small_sdet();
    let cells = [slopt_bench::Cell {
        label: "baseline".to_string(),
        table: baseline_layouts(&w, sdet.line_size),
        sdet,
        machine: Machine::superdome(4),
    }];
    let measure = |jobs| {
        slopt_bench::measure_complete(&slopt_bench::ExecCtx::bare(jobs), "t", &w, &cells, 4)
            .expect("no fault plan, so complete")
            .remove(0)
    };
    let serial = measure(1);
    for jobs in [2, 4, 16] {
        let parallel = measure(jobs);
        // Bit-identical, not approximately equal: same seeds, same runs,
        // same order.
        assert_eq!(serial.runs, parallel.runs, "jobs={jobs}");
        assert_eq!(serial.mean, parallel.mean, "jobs={jobs}");
    }
}

#[test]
fn sharded_streaming_is_job_count_invariant() {
    // Deterministic pseudo-random sample stream (splitmix64).
    let mut state = 0x5107u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let samples: Vec<Sample> = (0..4_000)
        .map(|_| {
            let r = next();
            Sample {
                cpu: slopt::sim::CpuId((r % 8) as u16),
                time: (r >> 8) % 50_000,
                func: slopt::ir::cfg::FuncId(0),
                block: slopt::ir::cfg::BlockId(0),
                line: slopt::ir::source::SourceLine(((r >> 32) % 64) as u32),
            }
        })
        .collect();
    let cfg = ConcurrencyConfig { interval: 500 };
    let batch = concurrency_map(&samples, &cfg);

    let dir = std::env::temp_dir().join(format!("slopt_det_stream_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut sorted = samples.clone();
    sorted.sort_by_key(|s| s.time);
    for (i, chunk) in sorted.chunks(256).enumerate() {
        write_shard(&dir.join(format!("shard-{i:05}.slshard")), chunk).unwrap();
    }
    // The directory fold, in a window that covers all 100 intervals.
    let mut win = WindowedConcurrency::new(cfg, 128);
    win.ingest_dir(&dir, &slopt_obs::Obs::disabled()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(win.accepted(), 4_000);
    assert_eq!(win.retained_samples(), 4_000);
    // The folded tensor — map, pairs, interner — must be bit-identical
    // to the batch estimator at every fan-out, like every other `jobs`
    // entry point in this file.
    for jobs in [1, 2, 3, 8] {
        let streamed = win.concurrency_jobs(jobs);
        assert_eq!(streamed, batch, "jobs={jobs}");
        assert_eq!(streamed.pairs(), batch.pairs(), "jobs={jobs}");
        assert_eq!(streamed.interner(), batch.interner(), "jobs={jobs}");
    }
}

#[test]
fn kernel_figures_are_job_count_invariant() {
    let kernel = slopt::workload::build_kernel();
    let sdet = SdetConfig {
        scripts_per_cpu: 4,
        invocations_per_script: 6,
        pool_instances: 24,
        cache: CacheConfig {
            line_size: 128,
            sets: 64,
            ways: 4,
        },
        ..SdetConfig::default()
    };
    let acfg = AnalysisConfig {
        machine: Machine::superdome(8),
        ..Default::default()
    };

    let serial_layouts =
        compute_paper_layouts_jobs(&kernel, &sdet, &acfg, ToolParams::default(), 1);
    let parallel_layouts =
        compute_paper_layouts_jobs(&kernel, &sdet, &acfg, ToolParams::default(), 4);
    for (_, rec) in kernel.records.all() {
        for kind in [
            LayoutKind::Tool,
            LayoutKind::SortByHotness,
            LayoutKind::Constrained,
        ] {
            assert_eq!(
                serial_layouts.layout(rec, kind),
                parallel_layouts.layout(rec, kind),
                "layout {kind} differs between jobs=1 and jobs=4"
            );
        }
    }

    let machine = Machine::superdome(4);
    let kinds = [LayoutKind::Tool, LayoutKind::SortByHotness];
    let measured = |layouts: &PaperLayouts, jobs: usize| -> Figure {
        measured_figure(&kernel, &machine, &sdet, layouts, &kinds, jobs)
    };
    let serial = measured(&serial_layouts, 1);
    let parallel = measured(&parallel_layouts, 4);
    // The whole experiment summary — baseline runs, every row, every
    // percentage — must render identically.
    assert_eq!(serial.baseline.runs, parallel.baseline.runs);
    assert_eq!(serial.baseline.mean, parallel.baseline.mean);
    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (a, b) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(a.letter, b.letter);
        assert_eq!(a.record, b.record);
        assert_eq!(a.results, b.results);
    }
    assert_eq!(serial.to_string(), parallel.to_string());
}
