//! Ablation: greedy clustering vs. greedy + local-search refinement
//! (the §7 "better clustering algorithm" future work, implemented in
//! `slopt_core::refine`).
//!
//! Reports the clustering objective (total intra-cluster weight) and the
//! measured throughput of both variants' automatic layouts per struct on
//! the 128-way machine.
//!
//! Usage: `cargo run --release -p slopt-bench --bin ablation_refine [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]).

use slopt_bench::{figure_setup, measure_complete, Cell, CommonArgs};
use slopt_core::{clustering_score, RefineParams, ToolParams};
use slopt_workload::{analyze, baseline_layouts, layouts_with, suggest_for, Machine};

fn main() {
    let args = CommonArgs::from_env_or_exit(
        "ablation_refine",
        "greedy vs refined clustering (128-way)",
        "",
        &[],
    );
    let setup = figure_setup(&args);
    let ctx = args.ctx_or_exit();
    let kernel = &setup.kernel;
    let analysis = analyze(kernel, &setup.sdet, &setup.analysis);
    let machine = Machine::superdome(128);

    // The grid: one baseline cell, then (greedy, refined) cells per
    // struct; clustering scores are recorded while building the grid.
    let mut cells = vec![Cell {
        label: "baseline".to_string(),
        table: baseline_layouts(kernel, setup.sdet.line_size),
        sdet: setup.sdet.clone(),
        machine: machine.clone(),
    }];
    let mut scores = Vec::new();
    for (letter, rec) in kernel.records.all() {
        let greedy = suggest_for(kernel, &analysis, rec, setup.tool);
        let refined_params = ToolParams {
            refine: Some(RefineParams::default()),
            ..setup.tool
        };
        let refined = suggest_for(kernel, &analysis, rec, refined_params);
        scores.push((
            clustering_score(&greedy.flg, &greedy.clustering),
            clustering_score(&refined.flg, &refined.clustering),
        ));
        for (variant, suggestion) in [("greedy", &greedy), ("refined", &refined)] {
            cells.push(Cell {
                label: format!("{letter}/{variant}"),
                table: layouts_with(kernel, setup.sdet.line_size, rec, suggestion.layout.clone()),
                sdet: setup.sdet.clone(),
                machine: machine.clone(),
            });
        }
    }

    let measured = measure_complete(&ctx, "ablation_refine", kernel, &cells, setup.runs)
        .unwrap_or_else(|e| e.exit(&ctx));
    let baseline = &measured[0];

    println!("=== ablation: greedy vs refined clustering (128-way) ===");
    println!(
        "{:<8} {:>14} {:>14} {:>12} {:>12}",
        "struct", "greedy score", "refined score", "greedy %", "refined %"
    );
    for (i, (letter, _)) in kernel.records.all().iter().enumerate() {
        let (gs, rs) = scores[i];
        let t_g = &measured[1 + 2 * i];
        let t_r = &measured[2 + 2 * i];
        println!(
            "{letter:<8} {gs:>14.0} {rs:>14.0} {:>11.2}% {:>11.2}%",
            t_g.pct_vs(baseline),
            t_r.pct_vs(baseline)
        );
    }

    ctx.finish();
}
