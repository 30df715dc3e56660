//! Ablation: sampling period and interval size for Code Concurrency
//! (paper §4.2 chose 100 000-cycle samples in 1 ms intervals to balance
//! data volume against sample loss).
//!
//! For each (period, interval) pair we recompute CycleLoss for struct A
//! and report (a) whether the automatic layout still isolates the
//! contended counters, and (b) the top-20 concurrency-pair overlap with
//! exact (unsampled) ground truth.
//!
//! Usage: `cargo run --release -p slopt-bench --bin ablation_sampling [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]).

use slopt_bench::{CommonArgs, GridError};
use slopt_core::{par_map_supervised, suggest_layout};
use slopt_sample::{concurrency_map, ConcurrencyConfig, ExactCounter, SamplerConfig};
use slopt_workload::{analyze_obs, baseline_layouts, run_once, AnalysisConfig, STAT_CLASSES};

fn main() {
    let args = CommonArgs::from_env_or_exit(
        "ablation_sampling",
        "sampling period/interval sweep for Code Concurrency fidelity",
        "",
        &[],
    );
    let fault = args.fault.clone();
    let setup = slopt_bench::figure_setup(&args);
    let ctx = args.ctx_or_exit();
    let kernel = &setup.kernel;
    let layouts = baseline_layouts(kernel, setup.sdet.line_size);

    // Ground truth: exact per-block counts on the measurement machine.
    let mut exact = ExactCounter::new();
    {
        let _span = ctx.obs.span("exact_run");
        run_once(
            kernel,
            &layouts,
            &setup.analysis.machine,
            &setup.sdet,
            setup.analysis.seed,
            &mut exact,
        );
    }
    let exact_cc = concurrency_map(
        exact.samples(),
        &ConcurrencyConfig {
            interval: setup.analysis.interval,
        },
    );
    let exact_top: std::collections::HashSet<_> = exact_cc
        .top_pairs(20)
        .into_iter()
        .map(|(a, b, _)| (a, b))
        .collect();

    // Each (period, interval) pair is an independent instrumented run +
    // analysis; fan the grid out and collect rows by grid index.
    let mut grid = Vec::new();
    for period in [250u64, 500, 2_000, 8_000] {
        for interval in [3_000u64, 6_000, 24_000] {
            if interval < 4 * period {
                continue; // fewer than ~4 samples per interval is meaningless
            }
            grid.push((period, interval));
        }
    }
    eprintln!(
        "[ablation_sampling] analyzing {} sampling configurations on {} thread(s)...",
        grid.len(),
        ctx.jobs
    );
    // One (period, interval) configuration: instrumented run + analysis.
    let analyze_pair = |(period, interval): (u64, u64)| {
        let cfg = AnalysisConfig {
            sampler: SamplerConfig {
                period,
                ..setup.analysis.sampler
            },
            interval,
            ..setup.analysis.clone()
        };
        let analysis = analyze_obs(kernel, &setup.sdet, &cfg, &ctx.obs);
        let a = kernel.records.a;
        let affinity = slopt_workload::analyze::affinity_for(kernel, &analysis, a);
        let loss = slopt_workload::loss_for(kernel, &analysis, a);
        let suggestion = suggest_layout(
            kernel.record_type(a),
            &affinity,
            Some(&loss),
            setup.tool,
            &slopt_obs::Obs::disabled(),
        )
        .expect("valid record");
        let flags = kernel.field(a, "flags");
        let isolated = (0..STAT_CLASSES).all(|k| {
            let stat = kernel.field(a, &format!("stat{k}"));
            !suggestion.layout.share_line(stat, flags)
        });
        let top: std::collections::HashSet<_> = analysis
            .concurrency
            .top_pairs(20)
            .into_iter()
            .map(|(x, y, _)| (x, y))
            .collect();
        let overlap = if exact_top.is_empty() {
            0.0
        } else {
            top.intersection(&exact_top).count() as f64 / exact_top.len() as f64
        };
        (analysis.samples.len(), isolated, overlap)
    };
    // (samples, isolated?, overlap) per grid row; None marks a hole.
    type Row = Option<(usize, bool, f64)>;
    let (rows, degraded): (Vec<Row>, Option<GridError>) = match &fault {
        None => (
            slopt_core::par_map(ctx.jobs, &grid, |_, &pair| analyze_pair(pair))
                .into_iter()
                .map(Some)
                .collect(),
            None,
        ),
        Some(fc) => {
            let (rows, report) =
                par_map_supervised(ctx.jobs, &grid, &fc.policy, |i, &pair, attempt| {
                    fc.inject(i, attempt, &ctx.obs)?;
                    Ok(analyze_pair(pair))
                });
            if report.had_faults() {
                eprintln!("[ablation_sampling] {}", report.summary_line());
            }
            for f in &report.poisoned {
                eprintln!("[ablation_sampling] poisoned: {f}");
            }
            let degraded = report.degraded().then_some(GridError::Degraded {
                poisoned: report.poisoned.len(),
            });
            (rows, degraded)
        }
    };

    println!("=== ablation: sampling parameters (struct A isolation + CC fidelity) ===");
    println!(
        "{:>10} {:>10} {:>10} {:>20} {:>16}",
        "period", "interval", "samples", "counters isolated?", "top-20 overlap"
    );
    for (&(period, interval), row) in grid.iter().zip(&rows) {
        match row {
            Some((samples, isolated, overlap)) => println!(
                "{:>10} {:>10} {:>10} {:>20} {:>15.0}%",
                period,
                interval,
                samples,
                if *isolated { "yes" } else { "NO" },
                overlap * 100.0
            ),
            None => println!(
                "{period:>10} {interval:>10} {:>10} {:>20} {:>16}",
                "HOLE", "HOLE", "HOLE"
            ),
        }
    }

    match degraded {
        Some(e) => e.exit(&ctx),
        None => ctx.finish(),
    }
}
