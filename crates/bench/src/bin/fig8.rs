//! Figure 8: performance of the automatic (tool) layout and the naïve
//! sort-by-hotness layout versus the hand-tuned baseline, on the 128-way
//! Superdome, one transformed struct at a time.
//!
//! Paper's shape: the tool layout is within a few percent of baseline
//! (around −5% for struct A, small gains for B–E); sort-by-hotness is
//! comparable on B–E but degrades struct A by **more than 2×** because it
//! packs the false-sharing counters together.
//!
//! Usage: `cargo run --release -p slopt-bench --bin fig8 [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]); the
//! table and the code measuring it are [`slopt_bench::paper_figures`] /
//! [`slopt_bench::figure_main`].

use slopt_bench::{figure_main, CommonArgs};

fn main() {
    let args = CommonArgs::from_env_or_exit(
        "fig8",
        "automatic layout vs sort-by-hotness on the 128-way Superdome",
        "",
        &[],
    );
    let (ctx, fig) = figure_main(&args, "fig8");

    // The paper's headline observation, checked mechanically.
    let row_a = &fig.rows[0];
    let tool_a = row_a.results[0].1;
    let hot_a = row_a.results[1].1;
    println!(
        "struct A: tool {tool_a:+.2}% vs sort-by-hotness {hot_a:+.2}% \
         (paper: ~-5% vs worse than -50%)"
    );

    ctx.finish();
}
