//! The user-facing jobs above the runner, one implementation each: the
//! paper's figures (a table of [`PaperFigure`]s plus one function that
//! measures an entry), the greedy-vs-search row, and the record lists
//! both search front ends iterate. The figure bins, `fig_search` and
//! `slopt-tool` are thin callers of this module.

use slopt_core::{Suggestion, ToolParams};
use slopt_ir::types::RecordId;
use slopt_search::{Portfolio, SearchParams};
use slopt_workload::{
    compute_paper_layouts_jobs_obs, layouts_with, search_for_obs, suggest_for_obs, AnalysisConfig,
    Figure, Kernel, KernelAnalysis, LayoutKind, Machine, PaperLayouts, SdetConfig, StructSearch,
    Throughput, WorkloadSpec,
};

use crate::args::CommonArgs;
use crate::runner::{measure_complete, resolve, Cell, ExecCtx, FigureOutcome, GridError};

/// Everything a figure binary needs: the kernel, workload sizing, analysis
/// configuration and tool parameters.
#[derive(Debug)]
pub struct FigureSetup {
    /// The synthetic kernel.
    pub kernel: Kernel,
    /// Workload sizing.
    pub sdet: SdetConfig,
    /// Measurement-run configuration (16-way, per the paper).
    pub analysis: AnalysisConfig,
    /// Layout tool parameters.
    pub tool: ToolParams,
    /// Measured runs per layout (the paper uses 10; the default here is 5
    /// to keep the full figure under a couple of minutes — pass a scale
    /// argument to change it).
    pub runs: usize,
}

/// The setup for a parsed command line, shared by every experiment
/// binary.
///
/// `args.scale` stretches the workload (scripts per CPU) and the number
/// of measured runs: `1` is the fast default; `2`+ approaches the paper's
/// 10-run methodology at proportionally longer wall time. The thread
/// count is not part of the setup: it is [`ExecCtx::jobs`].
pub fn figure_setup(args: &CommonArgs) -> FigureSetup {
    let scale = args.scale.max(1);
    let kernel = slopt_workload::build_kernel();
    let sdet = SdetConfig {
        scripts_per_cpu: 24 * scale,
        ..SdetConfig::default()
    };
    let analysis = AnalysisConfig::default();
    FigureSetup {
        kernel,
        sdet,
        analysis,
        tool: ToolParams::default(),
        runs: (5 + scale).min(10),
    }
}

/// One of the paper's measured figures, as data: the grid name, the
/// machine it is measured on, the layout kinds compared against the
/// all-baseline table, and the printed title.
#[derive(Clone, Debug)]
pub struct PaperFigure {
    /// Grid name: the binary name, the checkpoint file stem and the
    /// progress/degrade tag.
    pub name: &'static str,
    /// The machine every cell is measured on.
    pub machine: Machine,
    /// The layout kinds measured per struct, in column order.
    pub kinds: [LayoutKind; 2],
    /// The table title.
    pub title: &'static str,
}

/// The paper's Figures 8, 9 and 10, in paper order.
pub fn paper_figures() -> [PaperFigure; 3] {
    [
        PaperFigure {
            name: "fig8",
            machine: Machine::superdome(128),
            kinds: [LayoutKind::Tool, LayoutKind::SortByHotness],
            title: "Figure 8 (128-way)",
        },
        PaperFigure {
            name: "fig9",
            machine: Machine::bus(4),
            kinds: [LayoutKind::Tool, LayoutKind::SortByHotness],
            title: "Figure 9 (4-way)",
        },
        PaperFigure {
            name: "fig10",
            machine: Machine::superdome(128),
            kinds: [LayoutKind::Tool, LayoutKind::Constrained],
            title: "Figure 10 (best layouts)",
        },
    ]
}

/// Derives every layout the paper's figures measure: the 16-way
/// measurement run, then each struct's layout of every kind.
pub fn derive_paper_layouts(ctx: &ExecCtx, setup: &FigureSetup, tag: &str) -> PaperLayouts {
    eprintln!(
        "[{tag}] measurement run (16-way) + layout derivation ({} jobs)...",
        ctx.jobs
    );
    compute_paper_layouts_jobs_obs(
        &setup.kernel,
        &setup.sdet,
        &setup.analysis,
        setup.tool,
        ctx.jobs,
        &ctx.obs,
    )
}

/// Measures one paper figure over derived layouts. A complete grid gives
/// the [`Figure`]; a holed one prints its partial table and gives
/// [`GridError::Degraded`] (via [`resolve`]).
pub fn measure_paper_figure(
    ctx: &ExecCtx,
    setup: &FigureSetup,
    layouts: &PaperLayouts,
    fig: &PaperFigure,
) -> Result<Figure, GridError> {
    eprintln!(
        "[{}] measuring on {} ({} runs per layout, {} jobs)...",
        fig.name,
        fig.machine.topo.name(),
        setup.runs,
        ctx.jobs
    );
    let FigureOutcome {
        figure,
        cells,
        report,
    } = crate::runner::figure(
        ctx,
        fig.name,
        &setup.kernel,
        &fig.machine,
        &setup.sdet,
        setup.runs,
        layouts,
        &fig.kinds,
        fig.title,
    )?;
    resolve(fig.name, cells, &report)?;
    Ok(figure.expect("a complete grid assembles its figure"))
}

/// The body of a figure binary: derives the layouts, measures the named
/// paper figure and prints it, exiting 1 on I/O failure and 4 on a holed
/// grid. Returns the context (to [`ExecCtx::finish`] after the binary's
/// own lines) and the figure.
///
/// # Panics
///
/// Panics if `name` is not one of [`paper_figures`].
pub fn figure_main(args: &CommonArgs, name: &str) -> (ExecCtx, Figure) {
    let spec = paper_figures()
        .into_iter()
        .find(|f| f.name == name)
        .expect("a paper figure name");
    let setup = figure_setup(args);
    let ctx = args.ctx_or_exit();
    let layouts = derive_paper_layouts(&ctx, &setup, name);
    let fig = measure_paper_figure(&ctx, &setup, &layouts, &spec).unwrap_or_else(|e| e.exit(&ctx));
    println!("{fig}");
    (ctx, fig)
}

/// The built-in kernel's records as `(letter, id)` pairs, A–E.
pub fn kernel_records(kernel: &Kernel) -> Vec<(String, RecordId)> {
    kernel
        .records
        .all()
        .iter()
        .map(|&(l, r)| (l.to_string(), r))
        .collect()
}

/// Narrows a record list to `--struct NAME` when given. An unknown name
/// is an error listing the known ones.
pub fn select_records(
    all: Vec<(String, RecordId)>,
    wanted: Option<&str>,
) -> Result<Vec<(String, RecordId)>, String> {
    let Some(name) = wanted else {
        return Ok(all);
    };
    let hit: Vec<_> = all.iter().filter(|(n, _)| n == name).cloned().collect();
    if hit.is_empty() {
        let known: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        return Err(format!("no struct `{name}` (known: {})", known.join(", ")));
    }
    Ok(hit)
}

/// Everything one greedy-vs-search row needs beyond the workload and
/// its analysis. The thread count is [`ExecCtx::jobs`].
#[derive(Clone, Debug)]
pub struct SearchRowCfg<'a> {
    /// Workload sizing of the validation runs.
    pub sdet: &'a SdetConfig,
    /// Tool parameters (FLG weights, line size).
    pub tool: ToolParams,
    /// Annealing parameters.
    pub params: &'a SearchParams,
    /// Chain count and master seed.
    pub portfolio: Portfolio,
    /// The validation machine.
    pub machine: &'a Machine,
    /// Measured runs per validated layout.
    pub runs: usize,
    /// Search candidates re-measured in the simulator.
    pub top: usize,
}

/// One record's greedy-vs-search comparison.
#[derive(Debug)]
pub struct SearchRow {
    /// The portfolio outcome (greedy and winning objectives).
    pub search: StructSearch,
    /// The tool's (greedy) suggestion.
    pub suggestion: Suggestion,
    /// Simulated throughput of the tool layout.
    pub tool: Throughput,
    /// Simulated throughput of the best of the top validated search
    /// candidates.
    pub best: Throughput,
}

/// Computes one greedy-vs-search row: the annealing portfolio, the
/// tool's greedy suggestion, then one grid, `search_<record name>`, that
/// measures the top `cfg.top` distinct candidates (by FLG objective)
/// and the tool layout. The FLG objective is a model and the simulator
/// the ground truth, so the best candidate is the highest measured mean,
/// ties going to the earlier, better-objective one. Deterministic per
/// seed and bit-identical for every `ctx.jobs`; a holed grid prints its
/// partial table and gives [`GridError::Degraded`].
pub fn search_row<W: WorkloadSpec + Sync>(
    ctx: &ExecCtx,
    w: &W,
    analysis: &KernelAnalysis,
    rec: RecordId,
    cfg: &SearchRowCfg<'_>,
) -> Result<SearchRow, GridError> {
    let search = search_for_obs(
        w,
        analysis,
        rec,
        cfg.tool,
        cfg.params,
        cfg.portfolio,
        ctx.jobs,
        &ctx.obs,
    );
    let suggestion = suggest_for_obs(w, analysis, rec, cfg.tool, &ctx.obs);
    let cell = |label: String, layout| Cell {
        label,
        table: layouts_with(w, cfg.sdet.line_size, rec, layout),
        sdet: cfg.sdet.clone(),
        machine: cfg.machine.clone(),
    };
    let mut cells: Vec<Cell> = search
        .outcome
        .top_k(cfg.top)
        .into_iter()
        .map(|c| {
            cell(
                format!("chain {}", c.chain),
                search.layout_of(w, c, cfg.tool),
            )
        })
        .collect();
    cells.push(cell("tool".to_string(), suggestion.layout.clone()));
    let name = format!("search_{}", w.record_type(rec).name());
    let mut measured = measure_complete(ctx, &name, w, &cells, cfg.runs)?;
    let tool = measured.pop().expect("the tool layout is the last cell");
    let mut best = 0usize;
    for (i, t) in measured.iter().enumerate() {
        if t.mean > measured[best].mean {
            best = i;
        }
    }
    Ok(SearchRow {
        search,
        suggestion,
        tool,
        best: measured.swap_remove(best),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup_at(scale: usize) -> FigureSetup {
        figure_setup(&CommonArgs {
            scale,
            ..CommonArgs::default()
        })
    }

    #[test]
    fn setup_scales() {
        let (s1, s2) = (setup_at(1), setup_at(2));
        assert!(s2.sdet.scripts_per_cpu > s1.sdet.scripts_per_cpu);
        assert!(s2.runs >= s1.runs);
        assert_eq!(setup_at(0).runs, s1.runs);
    }

    #[test]
    fn setup_takes_the_job_count_from_the_command_line() -> Result<(), String> {
        let args = CommonArgs::parse(&["--jobs".to_string(), "3".to_string()]).expect("valid");
        assert_eq!(args.try_ctx()?.jobs, 3);
        Ok(())
    }

    #[test]
    fn paper_figures_are_listed_in_paper_order_with_their_machines_and_kinds() {
        let figs = paper_figures();
        let names: Vec<&str> = figs.iter().map(|f| f.name).collect();
        assert_eq!(names, ["fig8", "fig9", "fig10"]);
        let machines: Vec<&str> = figs.iter().map(|f| f.machine.topo.name()).collect();
        assert_eq!(machines, ["superdome128", "bus4", "superdome128"]);
        let hot = [LayoutKind::Tool, LayoutKind::SortByHotness];
        assert_eq!(figs[0].kinds, hot);
        assert_eq!(figs[1].kinds, hot);
        assert_eq!(figs[2].kinds, [LayoutKind::Tool, LayoutKind::Constrained]);
        for f in &figs {
            assert!(f.title.starts_with("Figure "), "{}", f.title);
        }
    }

    #[test]
    fn select_records_narrows_or_names_the_known_ones() {
        let all = kernel_records(&slopt_workload::build_kernel());
        assert_eq!(select_records(all.clone(), None).unwrap().len(), 5);
        let b = select_records(all.clone(), Some("B")).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].0, "B");
        let err = select_records(all, Some("Z")).unwrap_err();
        assert!(
            err.contains("no struct `Z`") && err.contains("A, B, C, D, E"),
            "{err}"
        );
    }
}
