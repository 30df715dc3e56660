//! `ablate` — the paper's side studies, one row each of
//! [`slopt_bench::ablations`].
//!
//! `ablate [NAME...]` runs the named rows (every row when none is named)
//! in table order under one execution context, so the shared flags apply
//! to each and a run the rows share is simulated once. A degraded row
//! prints its partial table and the run exits 4 there.
//!
//! Usage: `cargo run --release -p slopt-bench --bin ablate [-- NAME...]
//! [-- --help]` — accepts the shared execution-context flags
//! ([`slopt_bench::args`]).

use slopt_bench::{ablations, figure_setup, select_ablations, usage_exit, CommonArgs};

fn main() {
    let listing: Vec<String> = ablations()
        .iter()
        .map(|row| format!("    {:<22}{}", row.name, row.about))
        .collect();
    let (args, names) = CommonArgs::from_env_or_exit(
        "ablate",
        "the paper's ablation and validation studies",
        &format!(
            "ABLATIONS (`ablate [NAME...] [options]`; every row when no NAME is given):\n{}",
            listing.join("\n")
        ),
        &[],
    );
    let rows = select_ablations(&names).unwrap_or_else(|e| usage_exit("ablate", &e));
    let setup = figure_setup(&args);
    let ctx = args.ctx_or_exit();
    for row in rows {
        let outcome = {
            let _span = ctx.obs.span(row.name);
            (row.run)(&ctx, &setup)
        };
        if let Err(e) = outcome {
            e.exit(&ctx);
        }
    }
    ctx.finish_or_exit();
}
