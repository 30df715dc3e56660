//! `fig_search` — greedy clustering vs the stochastic layout search.
//!
//! Not a paper figure: the paper stops at greedy clustering (§7 lists a
//! "better clustering algorithm" as future work). This bin runs the
//! `slopt-search` annealing portfolio on the same per-record FLG the
//! tool clusters, over two workloads:
//!
//! * the built-in kernel (structs A–E), where the affinity groups are
//!   small and symmetric and greedy is already optimal — the search
//!   matches it bit-for-bit, which is the honest baseline column;
//! * the shipped stress workload (`slopt_workload::stress`), whose
//!   records pair every hot field with a strong companion that is not
//!   its best line-mate — greedy lands in a local optimum of the
//!   single-move neighbourhood and only the annealing search escapes.
//!
//! Per struct it reports the FLG objective of the greedy clustering vs
//! the search winner, and simulated-cycle throughput vs the baseline
//! layout for the tool (greedy), sort-by-hotness and search layouts —
//! the search column picked by re-measuring the top `--top` candidates
//! in the simulator (objective wins that don't survive simulation lose
//! here).
//!
//! Every throughput is a grid item of the shared runner: each record's
//! validation is the grid `search_<record>`, each section's baseline and
//! sort-by-hotness columns the grid `fig_search_<section>`, so the
//! checkpoint and fault-plan flags apply to all of them.
//!
//! Deterministic: one master seed (`--seed`) fixes every chain, and the
//! output is bit-identical for every `--jobs` value.
//!
//! Usage: `cargo run --release -p slopt-bench --bin fig_search [-- --help]` —
//! accepts the shared execution-context flags ([`slopt_bench::args`]) plus
//! `--seed`, `--chains`, `--steps`, `--top`.

use slopt_bench::{
    extra_flag, figure_setup, kernel_records, measure_complete, search_row, usage_exit, Cell,
    CommonArgs, ExecCtx, GridError, SearchRowCfg,
};
use slopt_core::sort_by_hotness;
use slopt_ir::types::RecordId;
use slopt_search::{Portfolio, SearchParams};
use slopt_sim::LayoutTable;
use slopt_workload::{
    analyze_obs, baseline_layouts, layouts_with, stress_workload, workload_records, KernelAnalysis,
    Machine, WorkloadSpec,
};

const EXTRA_FLAGS: &str = "SEARCH OPTIONS:
    --seed <u64>          master seed for the annealing portfolio [default: 42]
    --chains <n>          independent annealing chains per record [default: 6]
    --steps <n>           annealing steps per chain [default: 1200]
    --top <n>             candidates re-measured in the simulator [default: 2]
";

/// Runs the greedy-vs-search comparison over one workload's records,
/// measures the baseline and each record's sort-by-hotness layout as one
/// grid (`fig_search_<label>`), and prints the section's table. Returns
/// how many records the search's winning objective strictly beat greedy
/// on.
fn section<W: WorkloadSpec + Sync>(
    ctx: &ExecCtx,
    label: &str,
    w: &W,
    records: &[(String, RecordId)],
    analysis: &KernelAnalysis,
    cfg: &SearchRowCfg<'_>,
) -> Result<usize, GridError> {
    let rows = records
        .iter()
        .map(|&(_, rec)| search_row(ctx, w, analysis, rec, cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let line = cfg.sdet.line_size;
    let cell = |cell_label: String, table: LayoutTable| Cell {
        label: cell_label,
        table,
        sdet: cfg.sdet.clone(),
        machine: cfg.machine.clone(),
    };
    let mut cells = vec![cell("baseline".to_string(), baseline_layouts(w, line))];
    for ((name, rec), row) in records.iter().zip(&rows) {
        let ty = w.record_type(*rec);
        let hot: Vec<u64> = ty
            .field_indices()
            .map(|f| row.suggestion.flg.hotness(f))
            .collect();
        let hot_layout =
            sort_by_hotness(ty, &hot, cfg.tool.layout.line_size).expect("valid record");
        cells.push(cell(
            format!("{name}/hot"),
            layouts_with(w, line, *rec, hot_layout),
        ));
    }
    let measured = measure_complete(ctx, &format!("fig_search_{label}"), w, &cells, cfg.runs)?;
    let (base, hot) = measured
        .split_first()
        .expect("the baseline is the first cell");

    println!(
        "[{label}] {:<12} {:>14} {:>14} {:>10}  {:>8} {:>8} {:>8}",
        "struct", "greedy obj", "search obj", "delta", "tool%", "hot%", "search%"
    );
    let mut better = 0usize;
    for (((name, _), row), hot_tp) in records.iter().zip(&rows).zip(hot) {
        let outcome = &row.search.outcome;
        let win = outcome.winner();
        if outcome.improved() {
            better += 1;
        }
        println!(
            "[{label}] {:<12} {:>14.6} {:>14.6} {:>+10.6}  {:>+8.2} {:>+8.2} {:>+8.2}",
            name,
            outcome.greedy_score,
            win.score,
            win.score - outcome.greedy_score,
            row.tool.pct_vs(base),
            hot_tp.pct_vs(base),
            row.best.pct_vs(base),
        );
    }
    println!(
        "[{label}] search: strictly better objective than greedy on {better}/{} structs",
        records.len()
    );
    Ok(better)
}

/// Reads a registered flag strictly; a malformed value exits 2.
fn flag<T: std::str::FromStr>(argv: &[String], name: &str, default: T) -> T {
    extra_flag(argv, name)
        .unwrap_or_else(|e| usage_exit("fig_search", &e))
        .unwrap_or(default)
}

fn main() {
    let (args, _) = CommonArgs::from_env_or_exit(
        "fig_search",
        "greedy clustering vs the stochastic layout search",
        EXTRA_FLAGS,
        &[
            ("--seed", true),
            ("--chains", true),
            ("--steps", true),
            ("--top", true),
        ],
    );
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let seed = flag(&argv, "--seed", 42u64);
    let chains = flag(&argv, "--chains", 6usize);
    let steps = flag(&argv, "--steps", 1_200usize);
    let top = flag(&argv, "--top", 2usize).max(1);
    let setup = figure_setup(&args);
    let ctx = args.ctx_or_exit();

    let params = SearchParams {
        steps,
        ..SearchParams::default()
    };
    let cfg = SearchRowCfg {
        sdet: &setup.sdet,
        tool: setup.tool,
        params: &params,
        portfolio: Portfolio {
            chains,
            master_seed: seed,
        },
        machine: &Machine::superdome(16),
        runs: setup.runs,
        top,
    };

    eprintln!(
        "[fig_search] seed {seed}, {chains} chains x {steps} steps, \
         validating top {top} in simulated cycles ({} runs, {} jobs)...",
        setup.runs, ctx.jobs
    );
    let kernel_records = kernel_records(&setup.kernel);
    let kernel_analysis = analyze_obs(&setup.kernel, &setup.sdet, &setup.analysis, &ctx.obs);
    let kernel_better = section(
        &ctx,
        "kernel",
        &setup.kernel,
        &kernel_records,
        &kernel_analysis,
        &cfg,
    )
    .unwrap_or_else(|e| e.exit(&ctx));

    eprintln!("[fig_search] stress workload measurement run...");
    let stress = stress_workload();
    let stress_recs = workload_records(&stress);
    let stress_analysis = analyze_obs(&stress, &setup.sdet, &setup.analysis, &ctx.obs);
    let stress_better = section(
        &ctx,
        "stress",
        &stress,
        &stress_recs,
        &stress_analysis,
        &cfg,
    )
    .unwrap_or_else(|e| e.exit(&ctx));

    println!(
        "search vs greedy: kernel {kernel_better}/{} (greedy already optimal there), \
         stress {stress_better}/{} strictly better",
        kernel_records.len(),
        stress_recs.len()
    );

    ctx.finish_or_exit();
}
