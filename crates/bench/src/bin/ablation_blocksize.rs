//! Ablation: coherence-block size (64 B vs the Itanium's 128 B).
//!
//! The paper notes that the coherence protocol "does not distinguish
//! between individual bytes within a coherence block", so block size sets
//! the blast radius of false sharing. Smaller blocks make the naive
//! sort-by-hotness layout less catastrophic (fewer unrelated fields share
//! a block) at the cost of more lines per affinity group.
//!
//! We measure baseline / tool / sort-by-hotness layouts for struct A at
//! both block sizes on the 128-way machine.
//!
//! Usage: `cargo run --release -p slopt-bench --bin ablation_blocksize [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]).

use slopt_bench::{figure_setup, measure_complete, Cell, CommonArgs};
use slopt_sim::CacheConfig;
use slopt_workload::{
    baseline_layouts, compute_paper_layouts_jobs_obs, layouts_with, LayoutKind, Machine, SdetConfig,
};

const KINDS: [LayoutKind; 2] = [LayoutKind::Tool, LayoutKind::SortByHotness];

fn main() {
    let args = CommonArgs::from_env_or_exit(
        "ablation_blocksize",
        "64 B vs 128 B coherence blocks, struct A (128-way)",
        "",
        &[],
    );
    let setup = figure_setup(&args);
    let ctx = args.ctx_or_exit();
    let machine = Machine::superdome(128);
    let block_sizes = [64u64, 128u64];

    // The grid: per block size, one baseline cell followed by one cell per
    // layout kind for struct A.
    let mut cells = Vec::new();
    for line_size in block_sizes {
        let sdet = SdetConfig {
            line_size,
            cache: CacheConfig {
                line_size,
                // Keep capacity constant: halve the line, double the sets.
                sets: (512 * 128 / line_size) as usize,
                ways: 8,
            },
            ..setup.sdet.clone()
        };
        let layouts = compute_paper_layouts_jobs_obs(
            &setup.kernel,
            &sdet,
            &setup.analysis,
            {
                let mut tool = setup.tool;
                tool.layout.line_size = line_size;
                tool
            },
            setup.jobs,
            &ctx.obs,
        );
        let a = setup.kernel.records.a;
        cells.push(Cell {
            label: format!("{line_size}B/baseline"),
            table: baseline_layouts(&setup.kernel, line_size),
            sdet: sdet.clone(),
            machine: machine.clone(),
        });
        for kind in KINDS {
            cells.push(Cell {
                label: format!("{line_size}B/{kind}"),
                table: layouts_with(&setup.kernel, line_size, a, layouts.layout(a, kind).clone()),
                sdet: sdet.clone(),
                machine: machine.clone(),
            });
        }
    }

    let measured = measure_complete(
        &ctx,
        "ablation_blocksize",
        &setup.kernel,
        &cells,
        setup.runs,
    )
    .unwrap_or_else(|e| e.exit(&ctx));

    println!("=== ablation: coherence block size, struct A (128-way) ===");
    println!("{:>8} {:>12} {:>18}", "block", "tool", "sort-by-hotness");
    let per_block = 1 + KINDS.len();
    for (i, line_size) in block_sizes.iter().enumerate() {
        let group = &measured[i * per_block..(i + 1) * per_block];
        let baseline = &group[0];
        let row: Vec<f64> = group[1..].iter().map(|t| t.pct_vs(baseline)).collect();
        println!("{line_size:>7}B {:>11.2}% {:>17.2}%", row[0], row[1]);
    }

    ctx.finish();
}
