//! The semi-automatic workflow of the paper, end to end: run the
//! instrumented kernel workload, print the advisory report a kernel
//! engineer would read, and compare layouts on a mid-size machine.
//!
//! Run with: `cargo run --release --example kernel_tuning`

use slopt::core::LayoutOptions;
use slopt::sim::CacheConfig;
use slopt::workload::{
    analyze, baseline_layouts, build_kernel, layouts_with, measure, suggest_for, AnalysisConfig,
    Machine, SdetConfig,
};

pub fn main() {
    // Keep the example quick: a smaller workload than the fig8 harness.
    let kernel = build_kernel();
    let sdet = SdetConfig {
        scripts_per_cpu: 12,
        pool_instances: 128,
        cache: CacheConfig {
            line_size: 128,
            sets: 256,
            ways: 8,
        },
        ..SdetConfig::default()
    };
    let analysis_cfg = AnalysisConfig::default();

    println!(
        "collecting profile + concurrency on {}...",
        analysis_cfg.machine.topo.name()
    );
    let analysis = analyze(&kernel, &sdet, &analysis_cfg);
    println!(
        "  {} samples, {} concurrent line pairs\n",
        analysis.samples.len(),
        analysis.concurrency.len()
    );

    // The engineer asks the tool about struct A (the process table entry).
    let a = kernel.records.a;
    let suggestion = suggest_for(
        &kernel,
        &analysis,
        a,
        slopt::core::ToolParams {
            layout: LayoutOptions {
                line_size: sdet.line_size,
            },
            ..Default::default()
        },
    );

    // This is the "useful information on the suggested layout" the paper's
    // tool emits: cluster contents, intra/inter-cluster weights, and the
    // strongest positive/negative edges.
    println!("{}", suggestion.report);

    // Measure baseline vs suggested layout (transforming only struct A).
    let machine = Machine::superdome(32);
    let base = measure(
        &kernel,
        &baseline_layouts(&kernel, sdet.line_size),
        &machine,
        &sdet,
        3,
        1,
    );
    let table = layouts_with(&kernel, sdet.line_size, a, suggestion.layout.clone());
    let tuned = measure(&kernel, &table, &machine, &sdet, 3, 1);
    println!(
        "throughput on {}: baseline {:.1}, suggested {:.1} ({:+.2}%)",
        machine.topo.name(),
        base.mean,
        tuned.mean,
        tuned.pct_vs(&base)
    );
}
