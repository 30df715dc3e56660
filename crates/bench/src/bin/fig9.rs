//! Figure 9: the *same* layouts as Figure 8, measured on the small 4-way
//! bus machine.
//!
//! Paper's shape: all five structs show marginal speedups for the tool
//! layout — separating the few false-sharing fields costs nothing when
//! false sharing is cheap, and the locality improvements still help.
//!
//! Usage: `cargo run --release -p slopt-bench --bin fig9 [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]); the
//! table and the code measuring it are [`slopt_bench::paper_figures`] /
//! [`slopt_bench::figure_main`].

use slopt_bench::{figure_main, CommonArgs};

fn main() {
    let args = CommonArgs::from_env_or_exit(
        "fig9",
        "the Figure-8 layouts measured on a 4-way bus machine",
        "",
        &[],
    );
    let (ctx, _) = figure_main(&args, "fig9");

    ctx.finish();
}
