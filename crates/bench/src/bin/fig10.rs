//! Figure 10: the best layout per struct — fully automatic clustering
//! versus the §5.2 constrained edit of the baseline (important-edge
//! subgraph), on the 128-way Superdome.
//!
//! Paper's shape: the constrained mode rescues struct A (the automatic
//! layout loses ~5% there; the constrained edit turns that into a gain)
//! and slightly beats automatic on B; C and D stay best with the
//! automatic layout. Best-case improvement ≈ 3.2%.
//!
//! Usage: `cargo run --release -p slopt-bench --bin fig10 [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]); the
//! table and the code measuring it are [`slopt_bench::paper_figures`] /
//! [`slopt_bench::figure_main`].

use slopt_bench::{figure_main, CommonArgs};
use slopt_workload::best_rows;

fn main() {
    let (args, _) = CommonArgs::from_env_or_exit(
        "fig10",
        "best layout per struct (automatic vs constrained) on the 128-way Superdome",
        "",
        &[],
    );
    let (ctx, fig) = figure_main(&args, "fig10");

    println!("best layout per struct:");
    for (letter, kind, pct) in best_rows(&fig) {
        println!("  {letter}: {kind} ({pct:+.2}%)");
    }

    ctx.finish_or_exit();
}
