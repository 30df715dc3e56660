//! Sweep: how the cost of the sort-by-hotness layout grows with remote
//! transfer latency — the continuum between the paper's Figure 9 (4-way
//! bus: false sharing costs about an L2 miss) and Figure 8 (128-way
//! Superdome: ~1000-cycle remote transfers).
//!
//! We fix the 64-CPU hierarchical machine and scale the cache-to-cache
//! latencies; struct A is measured with the baseline and sort-by-hotness
//! layouts at each point.
//!
//! Usage: `cargo run --release -p slopt-bench --bin sweep_remote_latency [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]).

use slopt_bench::{derive_paper_layouts, figure_setup, CommonArgs};
use slopt_sim::{LatencyModel, Topology};
use slopt_workload::{baseline_layouts, layouts_with, measure, LayoutKind, Machine};

fn scaled(lat: LatencyModel, factor: f64) -> LatencyModel {
    let s = |x: u64| ((x as f64) * factor).round() as u64;
    LatencyModel {
        hit: lat.hit,
        same_chip: s(lat.same_chip),
        same_bus: s(lat.same_bus),
        same_cell: s(lat.same_cell),
        same_crossbar: s(lat.same_crossbar),
        remote: s(lat.remote),
        memory: lat.memory,
    }
}

fn main() {
    let args = CommonArgs::from_env_or_exit(
        "sweep_remote_latency",
        "sort-by-hotness cost vs coherence-transfer latency (64-way)",
        "",
        &[],
    );
    let setup = figure_setup(&args);
    let ctx = args.ctx_or_exit();
    let layouts = derive_paper_layouts(&ctx, &setup, "sweep_remote_latency");
    let a = setup.kernel.records.a;

    println!("=== struct A degradation vs coherence-transfer latency (64-way) ===");
    println!(
        "{:>8} {:>10} {:>22}",
        "factor", "remote", "sort-by-hotness vs base"
    );
    for factor in [0.25, 0.5, 1.0, 2.0] {
        let lat = scaled(LatencyModel::superdome(), factor);
        let machine = Machine {
            topo: Topology::superdome(64),
            lat,
        };
        let base_table = baseline_layouts(&setup.kernel, setup.sdet.line_size);
        let baseline = measure(
            &setup.kernel,
            &base_table,
            &machine,
            &setup.sdet,
            setup.runs,
            setup.jobs,
        );
        let table = layouts_with(
            &setup.kernel,
            setup.sdet.line_size,
            a,
            layouts.layout(a, LayoutKind::SortByHotness).clone(),
        );
        let t = measure(
            &setup.kernel,
            &table,
            &machine,
            &setup.sdet,
            setup.runs,
            setup.jobs,
        );
        println!(
            "{factor:>8} {:>10} {:>21.2}%",
            lat.remote,
            t.pct_vs(&baseline)
        );
    }
    ctx.finish();
}
