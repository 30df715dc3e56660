//! The shared parallel experiment runner.
//!
//! Every figure, every `ablate` row and every layout-search validation
//! is, at heart, the same program: build a grid of *measurement cells* —
//! each a layout table measured under some workload/machine
//! configuration — measure all of them, and print a table. This module
//! owns that shape once:
//!
//! * [`ExecCtx`] — the execution context: observability, checkpointing,
//!   fault supervision, the thread count and the run memo, composed as
//!   *data* rather than as a combinatorial family of function variants;
//! * [`Cell`] — one grid cell (label + layout table + config + machine);
//! * [`measure_cells`] — measures the whole grid under an [`ExecCtx`],
//!   fanned out over host threads at `(cell, run-seed)` granularity,
//!   through the one trusting-or-supervised scheduler fork
//!   (`run_items`, which `ablate`'s `sampling` row shares);
//! * [`figure`] — the figure-shaped wrapper: same grid, cells generated
//!   by [`figure_tables`], assembled into a [`Figure`];
//! * [`resolve`] — the one complete-vs-degraded decision shared by every
//!   caller, so exit-4 semantics cannot diverge between the figure and
//!   cell paths; [`measure_complete`] pairs it with [`measure_cells`],
//!   and [`GridError::exit`] is the binaries' one failure exit.
//!
//! Determinism contract: cells carry their entire configuration, run
//! seeds come from [`slopt_workload::measurement_seeds`], fault decisions
//! are keyed by grid index, and results are collected by `(cell, seed)`
//! index — so the output is bit-identical for every `jobs` value,
//! including `jobs == 1` (which spawns no threads at all), and invariant
//! under resume from the run store (the private `store` module).

use slopt_core::{par_map_supervised_commit, FaultReport, SupervisePolicy, WorkerError};
use slopt_fault::{exit, FaultKind, FaultPlan};
use slopt_sim::LayoutTable;
use slopt_workload::{
    figure_from_throughputs, figure_tables, measurement_seeds, run_once, Figure, Kernel,
    LayoutKind, Machine, PaperLayouts, SdetConfig, Throughput, WorkloadSpec,
};

use crate::store::{self, CheckpointSpec, RunKey, RunMemo, RunSummary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Fault-decision site for worker execution (`--fault-plan` panics,
/// transients, permanent failures, stalls).
pub const SITE_WORKER: &str = "worker";
/// Fault-decision site for run-log appends (`write-error`).
pub const SITE_CKPT: &str = "ckpt";

/// Fault injection plus the supervision policy that contains it, as
/// requested by `--fault-plan` / `--max-retries` / `--deadline-ms`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// The seeded injection schedule (the no-op plan when only the
    /// supervision flags were given).
    pub plan: FaultPlan,
    /// Retry/deadline policy of the supervised pool.
    pub policy: SupervisePolicy,
}

impl FaultConfig {
    /// Fires the plan's [`SITE_WORKER`] faults for one attempt at grid
    /// item `i`: a permanent failure, a panic, a transient failure, or a
    /// stall that then succeeds. Decisions key on the grid index, so
    /// they are identical under any `jobs` value and across resume.
    pub fn inject(&self, i: usize, attempt: u32, obs: &slopt_obs::Obs) -> Result<(), WorkerError> {
        let (plan, gi) = (&self.plan, i as u64);
        if plan.fires(FaultKind::Permanent, SITE_WORKER, gi, attempt) {
            obs.warning("fault.injected.permanent");
            return Err(WorkerError::permanent(format!(
                "injected permanent fault (grid item {i})"
            )));
        }
        if plan.fires(FaultKind::Panic, SITE_WORKER, gi, attempt) {
            obs.warning("fault.injected.panic");
            panic!("injected worker panic (grid item {i}, attempt {attempt})");
        }
        if plan.fires(FaultKind::Transient, SITE_WORKER, gi, attempt) {
            obs.warning("fault.injected.transient");
            return Err(WorkerError::transient(format!(
                "injected transient fault (grid item {i}, attempt {attempt})"
            )));
        }
        if plan.fires(FaultKind::Slow, SITE_WORKER, gi, attempt) {
            obs.warning("fault.injected.slow");
            std::thread::sleep(Duration::from_millis(plan.slow_ms()));
        }
        Ok(())
    }
}

/// The execution context: every capability a grid run can carry,
/// composed as plain data.
///
/// Historically each capability combination had its own entry point (an
/// `_obs` / checkpoint / fault suffix per axis — deleted forwarders);
/// the lattice grew multiplicatively with each new capability. An
/// `ExecCtx` collapses that into one
/// [`measure_cells`] / [`figure`] path: a capability that is "off" is
/// simply `None` (or a disabled [`slopt_obs::Obs`] handle), and the
/// runner's behavior with everything off is bit-identical to the old
/// plain path.
#[derive(Clone)]
pub struct ExecCtx {
    /// Observability handle. [`slopt_obs::Obs::disabled`] is zero-cost.
    pub obs: slopt_obs::Obs,
    /// Run-log request (`--checkpoint-dir` / `--resume`): the memo's runs
    /// are persisted there, and preloaded on resume.
    pub checkpoint: Option<CheckpointSpec>,
    /// Fault injection + supervision (`--fault-plan` / `--max-retries` /
    /// `--deadline-ms`). `None` runs the trusting scheduler.
    pub fault: Option<FaultConfig>,
    /// Host threads to fan work across.
    pub jobs: usize,
    /// Print the human counter/span summary table from [`ExecCtx::finish`]
    /// (`--stats`).
    pub stats: bool,
    /// Where the trace sink writes, if anywhere (`--trace-out`) — kept so
    /// [`ExecCtx::finish`] can tell the user where the trace went.
    pub trace_out: Option<String>,
    /// The runs already simulated under this context (and its clones):
    /// [`measure_cells`] simulates each distinct run once and reuses it.
    /// Not a flag — every context starts with an empty memo, which the
    /// first checkpointed grid attaches to the run log.
    pub memo: RunMemo,
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("obs_enabled", &self.obs.enabled())
            .field("checkpoint", &self.checkpoint)
            .field("fault", &self.fault)
            .field("jobs", &self.jobs)
            .field("stats", &self.stats)
            .field("trace_out", &self.trace_out)
            .finish()
    }
}

impl ExecCtx {
    /// The bare context: no observability, no checkpoint, no fault
    /// supervision — the old `measure_cells(kernel, cells, runs, jobs)`
    /// behavior.
    pub fn bare(jobs: usize) -> ExecCtx {
        ExecCtx {
            obs: slopt_obs::Obs::disabled(),
            checkpoint: None,
            fault: None,
            jobs,
            stats: false,
            trace_out: None,
            memo: RunMemo::default(),
        }
    }

    /// Replaces the observability handle.
    pub fn with_obs(mut self, obs: slopt_obs::Obs) -> ExecCtx {
        self.obs = obs;
        self
    }

    /// Adds a checkpoint request.
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> ExecCtx {
        self.checkpoint = Some(spec);
        self
    }

    /// Adds fault supervision.
    pub fn with_fault(mut self, fault: FaultConfig) -> ExecCtx {
        self.fault = Some(fault);
        self
    }

    /// The per-item deadline in milliseconds, if fault supervision
    /// carries one. The deadline lives inside the supervision policy —
    /// it is only enforceable by the supervised pool — but callers ask
    /// the context, not the policy.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.fault
            .as_ref()
            .and_then(|f| f.policy.deadline)
            .map(|d| d.as_millis() as u64)
    }

    /// Flushes the trace sink and, under `stats`, prints the aggregate
    /// summary table. Call once at the end of `main`. Returns the trace
    /// sink's first write error: a trace that could not be written is an
    /// internal failure ([`exit::FAILURE`]), not a success.
    pub fn finish(&self) -> std::io::Result<()> {
        self.obs.finish();
        if self.stats && self.obs.enabled() {
            println!("=== run stats ===");
            print!("{}", self.obs.summary());
        }
        if let Some(e) = self.obs.take_error() {
            return Err(e);
        }
        if let Some(path) = &self.trace_out {
            eprintln!("[runner] trace written to {path}");
        }
        Ok(())
    }

    /// [`finish`](Self::finish) as a binary's last step: a trace that
    /// could not be written is reported and exits [`exit::FAILURE`].
    pub fn finish_or_exit(&self) {
        if let Err(e) = self.finish() {
            eprintln!("error: trace write failed: {e}");
            std::process::exit(i32::from(exit::FAILURE));
        }
    }
}

/// One measurement cell of an experiment grid.
///
/// A cell owns its whole configuration so grids may vary anything between
/// cells — layouts (the figures), block size (`ablate blocksize`),
/// protocol (`ablate protocol`), machine — while staying independent
/// work items.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Display label (used in progress output only).
    pub label: String,
    /// The layout table to measure.
    pub table: LayoutTable,
    /// Workload sizing for this cell.
    pub sdet: SdetConfig,
    /// The machine to measure on.
    pub machine: Machine,
}

/// What [`measure_cells`] produced: one (possibly holed) measurement per
/// cell plus the supervised pool's report.
#[derive(Debug)]
pub struct GridOutcome {
    /// Per-cell measurement in cell order; `None` marks a hole (a cell
    /// that lost at least one measured run to a permanent fault).
    pub measured: Vec<Option<Throughput>>,
    /// What the supervised pool saw. The trusting path reports
    /// all-completed with no faults.
    pub report: FaultReport,
}

/// The one trusting-or-supervised fork: maps `work` over `items` on
/// `ctx.jobs` threads and returns one value per item, in item order,
/// plus the pool's report.
///
/// Without `ctx.fault` every item runs once and completes. With it, items
/// run through the supervised pool: the plan's [`SITE_WORKER`] faults
/// fire at `key(position, item)` — the item's grid index, so decisions
/// are identical under any `jobs` value and across resume — panics are
/// contained, transients retry, and an item that still fails is a `None`
/// hole, reported under its key. `commit(item, value, attempt)` runs once
/// per *accepted* value (the trusting path accepts every value at
/// attempt 0).
pub(crate) fn run_items<I: Sync, T: Send>(
    ctx: &ExecCtx,
    items: &[I],
    key: impl Fn(usize, &I) -> usize + Sync,
    work: impl Fn(&I) -> T + Sync,
    commit: impl Fn(&I, &T, u32) + Sync,
) -> (Vec<Option<T>>, FaultReport) {
    let obs = &ctx.obs;
    match &ctx.fault {
        None => {
            let values = slopt_core::par_map(ctx.jobs, items, |_, item| {
                let value = work(item);
                commit(item, &value, 0);
                Some(value)
            });
            let report = FaultReport {
                items: items.len(),
                completed: items.len(),
                ..FaultReport::default()
            };
            (values, report)
        }
        Some(fault) => {
            let (values, mut report) = par_map_supervised_commit(
                ctx.jobs,
                items,
                &fault.policy,
                |i, item, attempt| {
                    fault.inject(key(i, item), attempt, obs)?;
                    Ok(work(item))
                },
                |_, item, value, attempt| commit(item, value, attempt),
            );
            for failure in &mut report.poisoned {
                failure.index = key(failure.index, &items[failure.index]);
            }
            if obs.enabled() {
                obs.counter("retry.attempts", report.retries);
                obs.counter("retry.recovered", report.recovered as u64);
                if !report.poisoned.is_empty() {
                    obs.warning_n("fault.poisoned", report.poisoned.len() as u64);
                }
                if report.deadline_hits > 0 {
                    obs.warning_n("fault.deadline", report.deadline_hits);
                }
            }
            (values, report)
        }
    }
}

/// Measures every cell — a warm-up plus `runs` measured runs each —
/// under the given execution context, and returns one (possibly holed)
/// [`Throughput`] per cell, in cell order.
///
/// The grid is flattened to `(cell, run seed)` work items, the finest
/// independent unit of simulation, so even a handful of cells scales to
/// many threads. Results are bit-identical for every `ctx.jobs` value.
///
/// Capabilities, per the context:
///
/// * **Run memo** (`ctx.memo`): each grid item's run is keyed on a
///   digest of the program, the cell's canonical layout table, machine and
///   workload config, plus the seed (the private `store` module). A run
///   the context already simulated — in this grid or an earlier one — is
///   reused, and a duplicate in flight waits for the first. Every item
///   still gets its
///   `measure_cell` span, its `figure.cell_makespan` sample and its fault
///   decision, so traces and chaos do not see the memo; `sim.memo_runs`
///   and `sim.memo_hits` count the simulated and reused items.
/// * **Observability** (`ctx.obs`): the whole grid runs under a
///   `measure_grid` span, every `(cell, seed)` simulation under its own
///   `measure_cell` span (workers get distinct trace thread ids), and
///   the grid shape plus per-worker utilization are flushed as
///   `runner.*` counters and gauges. Disabled handles cost nothing.
/// * **Checkpointing** (`ctx.checkpoint`): the memo is persisted to the
///   run log `runs.ckpt`, each simulated run appended once as a grid item
///   of it is *accepted* — deadline-holed or quarantined items are never
///   recorded — and a `resume` run preloads the log: an item whose run it
///   holds is not scheduled, and only the rest are measured. Logged values
///   are exact bit patterns and results are assembled by grid index
///   either way, so a resumed run's output is bit-identical to an
///   uninterrupted one. Since runs are keyed on their inputs, a cell whose
///   layouts or config changed since the log was written is a miss and is
///   simulated, never a stale value, and a run logged by one grid serves
///   any later one. Emits `ckpt.items_total` / `ckpt.items_resumed`
///   counters and a `ckpt.torn_line` warning when the previous run died
///   mid-append.
/// * **Fault supervision** (`ctx.fault`): grid items run through the
///   supervised pool; injected (or real) panics are contained, transient
///   failures retry with bounded deterministic backoff, and items that
///   still fail become `None` *holes*. Fault decisions are keyed by
///   **grid index**, so they are identical under any `jobs` value and
///   compose with resume. Transient faults are invisible (recovered
///   items are bit-identical to a clean run's); permanent faults degrade
///   explicitly (the [`FaultReport`] lists each poisoned grid item and
///   the caller must exit [`exit::DEGRADED`], via [`resolve`]). Fault
///   activity is surfaced as `warn.fault.injected.*`,
///   `warn.fault.poisoned`, `warn.fault.deadline` and `retry.*`
///   counters.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn measure_cells(
    ctx: &ExecCtx,
    name: &str,
    kernel: &(impl WorkloadSpec + Sync),
    cells: &[Cell],
    runs: usize,
) -> std::io::Result<GridOutcome> {
    assert!(runs > 0, "need at least one measured run");
    let obs = &ctx.obs;
    let seeds = measurement_seeds(runs);
    let grid: Vec<(usize, u64)> = (0..cells.len())
        .flat_map(|c| seeds.iter().map(move |&seed| (c, seed)))
        .collect();

    let program = store::program_digest(kernel);
    let digests: Vec<u128> = cells
        .iter()
        .map(|c| store::inputs_digest(program, &c.machine, &c.sdet, &c.table))
        .collect();
    let key = |c: usize, seed: u64| -> RunKey { (digests[c], seed) };

    let mut values: Vec<Option<f64>> = vec![None; grid.len()];
    if let Some(spec) = &ctx.checkpoint {
        let path = ctx.memo.attach(spec, obs)?;
        for (value, &(c, seed)) in values.iter_mut().zip(&grid) {
            *value = ctx.memo.resumed(key(c, seed)).map(|run| run.throughput);
        }
        let resumed = values.iter().flatten().count();
        if obs.enabled() {
            obs.counter("ckpt.items_total", grid.len() as u64);
            obs.counter("ckpt.items_resumed", resumed as u64);
        }
        if spec.resume {
            eprintln!(
                "[runner] {name}: {resumed} of {} grid items already done in {}",
                grid.len(),
                path.display()
            );
        }
    }
    let pending: Vec<(usize, usize, u64)> = grid
        .iter()
        .enumerate()
        .filter(|&(i, _)| values[i].is_none())
        .map(|(i, &(c, seed))| (i, c, seed))
        .collect();
    eprintln!(
        "[runner] measuring {} cells x {} runs (+warm-up), {} item(s) on {} thread(s)...",
        cells.len(),
        runs,
        pending.len(),
        ctx.jobs.max(1).min(pending.len().max(1))
    );
    // Each thread's `measure_cell` time before this grid: the utilization
    // gauges below count this grid's share of it only.
    let cell_us_before = obs
        .summary()
        .thread_spans
        .remove("measure_cell")
        .unwrap_or_default();
    let t0 = std::time::Instant::now();
    let (memo_hits, memo_runs) = (AtomicU64::new(0), AtomicU64::new(0));
    // One grid item's simulation.
    let simulate = |&(_, c, seed): &(usize, usize, u64)| -> RunSummary {
        let _cell = obs.span("measure_cell");
        let cell = &cells[c];
        let (run, hit) = ctx.memo.run(key(c, seed), || {
            let out = run_once(
                kernel,
                &cell.table,
                &cell.machine,
                &cell.sdet,
                seed,
                &mut slopt_sim::NullObserver,
            );
            RunSummary {
                makespan: out.result.makespan,
                throughput: out.result.throughput(),
            }
        });
        let tally = if hit { &memo_hits } else { &memo_runs };
        tally.fetch_add(1, Ordering::Relaxed);
        // Per-cell simulated makespan distribution. Simulated cycles are
        // a pure function of (cell, seed), so unlike the wall-clock span
        // histograms this one is bit-identical at any --jobs value and
        // structural comparison covers it.
        obs.histogram("figure.cell_makespan", run.makespan);
        run
    };
    // Logging an *accepted* grid item's run. This is the run's only
    // durable side effect, so it sits behind the supervised pool's
    // acceptance boundary: an item the pool rejects (deadline overrun,
    // quarantine) must never be recorded as completed. The write-error
    // decision keys on the grid index, before the memo's once-per-run
    // dedup, so it does not depend on scheduling.
    let commit_run = |&(i, c, seed): &(usize, usize, u64), &run: &RunSummary, attempt: u32| {
        if ctx.checkpoint.is_none() {
            return;
        }
        let dropped = ctx.fault.as_ref().is_some_and(|f| {
            f.plan
                .fires(FaultKind::WriteError, SITE_CKPT, i as u64, attempt)
        });
        if dropped {
            // The degrade path the log already has: a failed append loses
            // only resumability of this run.
            obs.warning("fault.injected.write_error");
        } else {
            ctx.memo.record(key(c, seed), run);
        }
    };
    let (computed, report) = {
        let _span = obs.span("measure_grid");
        run_items(ctx, &pending, |_, &(i, _, _)| i, simulate, commit_run)
    };
    for (&(i, _, _), run) in pending.iter().zip(computed) {
        values[i] = run.map(|run| run.throughput);
    }
    if obs.enabled() {
        obs.counter("runner.cells", cells.len() as u64);
        obs.counter("runner.runs_per_cell", seeds.len() as u64);
        obs.counter("sim.memo_runs", memo_runs.into_inner());
        obs.counter("sim.memo_hits", memo_hits.into_inner());
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        let busy_us = obs.summary().thread_spans.remove("measure_cell");
        for (tid, busy) in busy_us.iter().flatten() {
            let before = cell_us_before.get(tid).map_or(0.0, |s| s.total_us);
            if wall_us > 0.0 && busy.total_us > before {
                obs.gauge(
                    &format!("runner.worker{tid}.utilization"),
                    (busy.total_us - before) / wall_us,
                );
            }
        }
    }
    // Assemble per-cell results. A cell is a hole iff any of its
    // *measured* runs (chunk[1..]; chunk[0] is the warm-up) is missing.
    let measured = values
        .chunks_exact(seeds.len())
        .map(|chunk| {
            chunk[1..]
                .iter()
                .copied()
                .collect::<Option<Vec<f64>>>()
                .map(Throughput::from_runs)
        })
        .collect();
    Ok(GridOutcome { measured, report })
}

/// The result of measuring a figure's grid.
#[derive(Debug)]
pub struct FigureOutcome {
    /// The assembled figure — `Some` iff every cell completed.
    pub figure: Option<Figure>,
    /// Per-cell label and (possibly holed) measurement, in grid order
    /// (cell 0 is the all-baseline table).
    pub cells: Vec<(String, Option<Throughput>)>,
    /// What the supervised pool saw.
    pub report: FaultReport,
}

/// Measures one figure's grid — the all-baseline table plus one
/// transformed struct at a time — under the given execution context, and
/// assembles the [`Figure`] when every cell completes.
///
/// The grid comes from [`figure_tables`] (the single source of cell
/// order) and is measured by [`measure_cells`], so the result is
/// bit-identical for every `jobs` value, checkpointed or not. A resumed
/// run whose layouts were derived from a drifted analysis simulates the
/// changed cells, so it prints the drifted grid's figure, never a mix of
/// two experiments.
///
/// When permanent faults poison cells the [`FigureOutcome`] carries the
/// partial per-cell values instead of a figure, and the caller is
/// expected to degrade via [`resolve`], as
/// [`crate::harness::measure_paper_figure`] does.
#[allow(clippy::too_many_arguments)]
pub fn figure(
    ctx: &ExecCtx,
    name: &str,
    kernel: &Kernel,
    machine: &Machine,
    sdet: &SdetConfig,
    runs: usize,
    layouts: &PaperLayouts,
    kinds: &[LayoutKind],
    title: impl Into<String>,
) -> std::io::Result<FigureOutcome> {
    let (tables, meta) = figure_tables(kernel, sdet, layouts, kinds);
    let cells: Vec<Cell> = tables
        .into_iter()
        .enumerate()
        .map(|(i, table)| Cell {
            label: if i == 0 {
                "baseline".to_string()
            } else {
                let (letter, _, kind) = meta[i - 1];
                format!("{letter}/{kind}")
            },
            table,
            sdet: sdet.clone(),
            machine: machine.clone(),
        })
        .collect();
    let GridOutcome { measured, report } = measure_cells(ctx, name, kernel, &cells, runs)?;
    let labelled: Vec<(String, Option<Throughput>)> = cells
        .iter()
        .map(|c| c.label.clone())
        .zip(measured)
        .collect();
    let figure = if labelled.iter().all(|(_, m)| m.is_some()) {
        let mut per_table = labelled
            .iter()
            .map(|(_, m)| m.clone().expect("all present"));
        let baseline = per_table.next().expect("table 0 is always present");
        Some(figure_from_throughputs(
            title,
            &meta,
            baseline,
            per_table.collect(),
        ))
    } else {
        None
    };
    Ok(FigureOutcome {
        figure,
        cells: labelled,
        report,
    })
}

/// Why a grid run has no complete result. Carries the process exit code
/// so every caller agrees on it.
#[derive(Debug)]
pub enum GridError {
    /// Run-log I/O failed.
    Io(std::io::Error),
    /// Permanent faults holed the grid (the partial table is already
    /// printed).
    Degraded {
        /// How many grid items were poisoned.
        poisoned: usize,
    },
}

impl GridError {
    /// The process exit code: [`exit::FAILURE`] for I/O,
    /// [`exit::DEGRADED`] for a holed grid.
    pub fn exit_code(&self) -> u8 {
        match self {
            GridError::Io(_) => exit::FAILURE,
            GridError::Degraded { .. } => exit::DEGRADED,
        }
    }

    /// The binaries' one terminal failure step: reports an I/O error,
    /// flushes the context and exits with [`GridError::exit_code`] (a
    /// trace write failure is reported too, but the grid's code stands).
    pub fn exit(&self, ctx: &ExecCtx) -> ! {
        if let GridError::Io(e) = self {
            eprintln!("error: {e}");
        }
        if let Err(e) = ctx.finish() {
            eprintln!("error: trace write failed: {e}");
        }
        std::process::exit(i32::from(self.exit_code()))
    }
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Io(e) => write!(f, "{e}"),
            GridError::Degraded { poisoned } => {
                write!(
                    f,
                    "{poisoned} grid item(s) poisoned — partial results above"
                )
            }
        }
    }
}

impl From<std::io::Error> for GridError {
    fn from(e: std::io::Error) -> GridError {
        GridError::Io(e)
    }
}

/// The one complete-vs-degraded decision, shared by the figure and cell
/// paths (and `slopt-tool figures`) so the degradation contract cannot
/// diverge between them.
///
/// A complete grid (no holes) yields the per-cell throughputs — after
/// logging the recovery summary if anything was injected. A holed grid
/// prints the explicit partial-result table — every cell with its value
/// or a `HOLE` marker — then the poisoned grid items, and returns
/// [`GridError::Degraded`]; the caller decides how to exit (binaries
/// call [`GridError::exit`], the CLI maps it to its error type).
pub fn resolve(
    tag: &str,
    cells: Vec<(String, Option<Throughput>)>,
    report: &FaultReport,
) -> Result<Vec<Throughput>, GridError> {
    if cells.iter().all(|(_, m)| m.is_some()) {
        if report.had_faults() {
            eprintln!("[{tag}] {}", report.summary_line());
        }
        return Ok(cells.into_iter().filter_map(|(_, m)| m).collect());
    }
    eprintln!("[{tag}] DEGRADED: {}", report.summary_line());
    println!("=== {tag}: PARTIAL RESULTS (degraded run) ===");
    for (label, m) in &cells {
        match m {
            Some(t) => println!("  {label:<28} {:>12.2}", t.mean),
            None => println!("  {label:<28} {:>12}", "HOLE"),
        }
    }
    for f in &report.poisoned {
        eprintln!("[{tag}] poisoned: {f}");
    }
    Err(GridError::Degraded {
        poisoned: report.poisoned.len(),
    })
}

/// [`measure_cells`] followed by [`resolve`]: the per-cell throughputs of
/// a complete grid, or the [`GridError`] the caller exits (or maps) with.
pub fn measure_complete(
    ctx: &ExecCtx,
    name: &str,
    kernel: &(impl WorkloadSpec + Sync),
    cells: &[Cell],
    runs: usize,
) -> Result<Vec<Throughput>, GridError> {
    let GridOutcome { measured, report } = measure_cells(ctx, name, kernel, cells, runs)?;
    let labelled = cells
        .iter()
        .map(|c| c.label.clone())
        .zip(measured)
        .collect();
    resolve(name, labelled, &report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slopt_ir::{FieldIdx, StructLayout};
    use slopt_sim::CacheConfig;
    use slopt_workload::{baseline_layouts, build_kernel, layouts_with, measure};

    fn small_cfg() -> SdetConfig {
        SdetConfig {
            scripts_per_cpu: 4,
            invocations_per_script: 6,
            pool_instances: 32,
            cache: CacheConfig {
                line_size: 128,
                sets: 64,
                ways: 4,
            },
            ..SdetConfig::default()
        }
    }

    fn small_cells(n: usize) -> (slopt_workload::Kernel, Vec<Cell>) {
        let kernel = build_kernel();
        let cfg = small_cfg();
        let machine = Machine::bus(2);
        let table = baseline_layouts(&kernel, cfg.line_size);
        let cells = (0..n)
            .map(|i| Cell {
                label: format!("cell{i}"),
                table: table.clone(),
                sdet: cfg.clone(),
                machine: machine.clone(),
            })
            .collect();
        (kernel, cells)
    }

    fn fault_cfg(spec: &str, retries: u32) -> FaultConfig {
        FaultConfig {
            plan: FaultPlan::parse(spec).expect("valid spec"),
            policy: SupervisePolicy {
                max_retries: retries,
                ..SupervisePolicy::default()
            },
        }
    }

    fn complete(out: GridOutcome) -> Vec<Throughput> {
        out.measured
            .into_iter()
            .map(|m| m.expect("no holes expected"))
            .collect()
    }

    #[test]
    fn ctx_reports_the_deadline_through_the_policy() {
        let ctx = ExecCtx::bare(2);
        assert_eq!(ctx.deadline_ms(), None);
        let mut fc = fault_cfg("", 1);
        fc.policy.deadline = Some(Duration::from_millis(250));
        let ctx = ctx.with_fault(fc);
        assert_eq!(ctx.deadline_ms(), Some(250));
    }

    #[test]
    fn instrumented_cells_match_plain_cells() {
        let (kernel, cells) = small_cells(1);
        let plain = complete(
            measure_cells(&ExecCtx::bare(2), "grid", &kernel, &cells, 2).expect("no ckpt I/O"),
        );
        let obs = slopt_obs::Obs::aggregating();
        let ctx = ExecCtx::bare(2).with_obs(obs.clone());
        let traced = complete(measure_cells(&ctx, "grid", &kernel, &cells, 2).expect("no I/O"));
        assert_eq!(plain[0].runs, traced[0].runs);
        let s = obs.summary();
        // One warm-up + two measured runs for the single cell.
        assert_eq!(s.spans["measure_cell"].count, 3);
        assert_eq!(s.spans["measure_grid"].count, 1);
        assert_eq!(s.metrics.counter("runner.cells"), 1);
    }

    /// A fresh checkpoint directory named by `tag`, and its spec maker.
    fn ckpt_dir(tag: &str) -> (std::path::PathBuf, impl Fn(bool) -> CheckpointSpec) {
        let dir = std::env::temp_dir().join(format!("slopt_runner_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec_dir = dir.clone();
        let spec = move |resume| CheckpointSpec {
            dir: spec_dir.clone(),
            resume,
        };
        (dir, spec)
    }

    /// Measures `cells` under `spec` on a fresh context: the values, the
    /// resumed item count and the memo counts.
    fn resumed_grid(
        spec: CheckpointSpec,
        kernel: &Kernel,
        cells: &[Cell],
        runs: usize,
    ) -> (Vec<Throughput>, u64, (u64, u64)) {
        let obs = slopt_obs::Obs::aggregating();
        let ctx = ExecCtx::bare(2).with_checkpoint(spec).with_obs(obs.clone());
        let out = complete(measure_cells(&ctx, "t", kernel, cells, runs).expect("ckpt I/O"));
        let resumed = obs.summary().metrics.counter("ckpt.items_resumed");
        (out, resumed, memo_counts(&obs))
    }

    #[test]
    fn checkpointed_cells_match_plain_cells_after_partial_run() {
        // Two distinct tables, so each logged run is one grid item.
        let (kernel, cells) = alternating_cells(2);
        let plain = complete(
            measure_cells(&ExecCtx::bare(2), "t", &kernel, &cells, 3).expect("no ckpt I/O"),
        );
        // Full checkpointed run, then truncate the log to simulate a kill
        // after the first two runs.
        let (dir, spec) = ckpt_dir("ckpt");
        let ctx = ExecCtx::bare(1).with_checkpoint(spec(false));
        let full = complete(measure_cells(&ctx, "t", &kernel, &cells, 3).expect("ckpt I/O"));
        let path = dir.join(store::RUNS_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().take(3).collect();
        std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();

        // 2 cells x (warm-up + 3 runs) = 8 grid items, 6 of them measured.
        let (resumed, items, memo) = resumed_grid(spec(true), &kernel, &cells, 3);
        assert_eq!((items, memo), (2, (6, 0)));
        for ((a, b), c) in plain.iter().zip(&full).zip(&resumed) {
            assert_eq!(a.mean, b.mean);
            assert_eq!(a.runs, c.runs);
            assert_eq!(a.mean, c.mean, "resumed result must be bit-identical");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cells_match_direct_measure_for_any_job_count() {
        let (kernel, cells) = small_cells(3);
        let direct = measure(
            &kernel,
            &cells[0].table,
            &cells[0].machine,
            &cells[0].sdet,
            3,
            1,
        );
        for jobs in [1, 4] {
            let out = complete(
                measure_cells(&ExecCtx::bare(jobs), "grid", &kernel, &cells, 3)
                    .expect("no ckpt I/O"),
            );
            assert_eq!(out.len(), 3);
            for t in &out {
                assert_eq!(t.runs, direct.runs, "jobs={jobs}");
                assert_eq!(t.mean, direct.mean, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn transient_fault_plans_are_invisible_in_output() {
        let (kernel, cells) = small_cells(2);
        let clean = complete(
            measure_cells(&ExecCtx::bare(2), "t", &kernel, &cells, 2).expect("no ckpt I/O"),
        );
        let fc = fault_cfg("seed=7,transient=0.5,panic=0.2", 16);
        for jobs in [1, 3] {
            let obs = slopt_obs::Obs::aggregating();
            let ctx = ExecCtx::bare(jobs)
                .with_fault(fc.clone())
                .with_obs(obs.clone());
            let out = measure_cells(&ctx, "t", &kernel, &cells, 2).expect("no ckpt I/O");
            assert!(out.report.had_faults(), "plan should fire on this grid");
            assert!(!out.report.degraded(), "transients must all recover");
            assert!(out.report.poisoned.is_empty());
            assert!(out.report.recovered > 0);
            let s = obs.summary();
            assert!(s.metrics.counter("retry.attempts") > 0);
            for (m, c) in out.measured.iter().zip(&clean) {
                let m = m.as_ref().expect("no holes on a recovered run");
                assert_eq!(m.runs, c.runs, "bit-identical under jobs={jobs}");
            }
        }
    }

    #[test]
    fn permanent_fault_plans_hole_everything_with_grid_indices() {
        let (kernel, cells) = small_cells(2);
        let ctx = ExecCtx::bare(1).with_fault(fault_cfg("seed=3,permanent=1", 2));
        let out = measure_cells(&ctx, "t", &kernel, &cells, 2).expect("no ckpt I/O");
        assert!(out.measured.iter().all(Option::is_none));
        assert!(out.report.degraded());
        // 2 cells x (warm-up + 2 runs) grid items, each poisoned on its
        // first attempt (permanent faults never retry).
        assert_eq!(out.report.poisoned.len(), 6);
        for (gi, f) in out.report.poisoned.iter().enumerate() {
            assert_eq!(f.index, gi, "poisoned indices are grid indices");
            assert_eq!(f.attempts, 1);
            assert_eq!(f.kind, slopt_core::FailureKind::Permanent);
        }
    }

    #[test]
    fn fault_reports_and_holes_are_jobs_invariant() {
        let (kernel, cells) = small_cells(2);
        let fc = fault_cfg("seed=5,permanent=0.4,transient=0.3", 4);
        let o1 = measure_cells(
            &ExecCtx::bare(1).with_fault(fc.clone()),
            "t",
            &kernel,
            &cells,
            2,
        )
        .expect("no ckpt I/O");
        let o4 = measure_cells(&ExecCtx::bare(4).with_fault(fc), "t", &kernel, &cells, 2)
            .expect("no ckpt I/O");
        assert!(o1.report.degraded(), "this seed poisons at least one item");
        assert_eq!(o1.report, o4.report, "fault report is scheduling-invariant");
        let runs = |m: &[Option<Throughput>]| -> Vec<Option<Vec<f64>>> {
            m.iter()
                .map(|t| t.as_ref().map(|t| t.runs.clone()))
                .collect()
        };
        assert_eq!(
            runs(&o1.measured),
            runs(&o4.measured),
            "holes and values match across jobs"
        );
    }

    #[test]
    fn deadline_holes_are_never_recorded_in_the_checkpoint() {
        // Two distinct tables: every grid item is its own run.
        let (kernel, cells) = alternating_cells(2);
        let (dir, spec) = ckpt_dir("dl");
        let mut fc = fault_cfg("seed=9,slow=0.4,slow-ms=200", 0);
        fc.policy.deadline = Some(Duration::from_millis(30));
        let ctx = ExecCtx::bare(2).with_checkpoint(spec(false)).with_fault(fc);
        let out = measure_cells(&ctx, "dl", &kernel, &cells, 2).expect("ckpt I/O");
        assert!(
            out.report.deadline_hits > 0,
            "this seed must stall some items past the deadline"
        );
        // Every accepted item is logged (no write-error in the plan), no
        // holed one is: a resume simulates exactly the holes. 2 cells x
        // (warm-up + 2 runs) = 6 grid items.
        let holes = out.report.poisoned.len() as u64;
        let (_, resumed, memo) = resumed_grid(spec(true), &kernel, &cells, 2);
        assert_eq!((resumed, memo), (6 - holes, (holes, 0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Pins the single complete-vs-degraded decision: the cell path and
    /// the figure path must agree on holes, poisoned counts and the exit
    /// code, because both are `resolve`.
    #[test]
    fn degraded_decision_is_shared_by_cell_and_figure_paths() {
        let (kernel, cells) = small_cells(2);
        let fc = fault_cfg("seed=3,permanent=1", 1);
        let ctx = ExecCtx::bare(1).with_fault(fc);
        let out = measure_cells(&ctx, "t", &kernel, &cells, 2).expect("no ckpt I/O");
        let labelled: Vec<(String, Option<Throughput>)> = cells
            .iter()
            .map(|c| c.label.clone())
            .zip(out.measured)
            .collect();
        let cell_path = resolve("t", labelled.clone(), &out.report);
        let figure_shaped = FigureOutcome {
            figure: None,
            cells: labelled,
            report: out.report.clone(),
        };
        let fig_path = resolve("t", figure_shaped.cells, &figure_shaped.report);
        let poisoned = |r: Result<Vec<Throughput>, GridError>| match r {
            Err(e @ GridError::Degraded { poisoned }) => {
                assert_eq!(e.exit_code(), 4, "the degradation contract is exit 4");
                poisoned
            }
            other => panic!("holed grid must degrade, got {other:?}"),
        };
        assert_eq!(poisoned(cell_path), poisoned(fig_path));

        // And a complete grid resolves to the values in cell order.
        let clean = measure_cells(&ExecCtx::bare(1), "t", &kernel, &cells, 2).expect("no I/O");
        let labelled: Vec<(String, Option<Throughput>)> = cells
            .iter()
            .map(|c| c.label.clone())
            .zip(clean.measured)
            .collect();
        let vals = resolve("t", labelled, &clean.report).expect("complete grid");
        assert_eq!(vals.len(), 2);
    }

    /// Every measured run of `cell`, simulated directly (no memo).
    fn direct_runs(kernel: &Kernel, cell: &Cell, runs: usize) -> Vec<u64> {
        measurement_seeds(runs)[1..]
            .iter()
            .map(|&seed| {
                let out = run_once(
                    kernel,
                    &cell.table,
                    &cell.machine,
                    &cell.sdet,
                    seed,
                    &mut slopt_sim::NullObserver,
                );
                out.result.throughput().to_bits()
            })
            .collect()
    }

    fn run_bits(t: &Throughput) -> Vec<u64> {
        t.runs.iter().map(|v| v.to_bits()).collect()
    }

    /// Struct A's fields in declaration order, once on shared lines and
    /// once one field per line: the same field order, different layouts.
    fn same_order_two_groupings(kernel: &Kernel, line: u64) -> [LayoutTable; 2] {
        let rec = kernel.records.a;
        let ty = kernel.record_type(rec);
        let order: Vec<FieldIdx> = ty.field_indices().collect();
        let packed = StructLayout::from_order(ty, &order, line).expect("valid order");
        let groups: Vec<Vec<FieldIdx>> = order.iter().map(|&f| vec![f]).collect();
        let spread = StructLayout::from_groups(ty, &groups, line).expect("valid groups");
        assert_eq!(packed.order(), spread.order());
        [packed, spread].map(|l| layouts_with(kernel, line, rec, l))
    }

    /// `n` small cells alternating the baseline table and the spread
    /// grouping of struct A. Every table is built on its own, as grids
    /// build them, so duplicates are equal in content but not clones.
    fn alternating_cells(n: usize) -> (Kernel, Vec<Cell>) {
        let (kernel, mut cells) = small_cells(n);
        let line = small_cfg().line_size;
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.table = if i % 2 == 0 {
                baseline_layouts(&kernel, line)
            } else {
                let [_, spread] = same_order_two_groupings(&kernel, line);
                spread
            };
        }
        (kernel, cells)
    }

    fn memo_counts(obs: &slopt_obs::Obs) -> (u64, u64) {
        let s = obs.summary();
        (
            s.metrics.counter("sim.memo_runs"),
            s.metrics.counter("sim.memo_hits"),
        )
    }

    #[test]
    fn duplicate_cells_match_direct_runs_and_simulate_once() {
        let (kernel, cells) = alternating_cells(4);
        let obs = slopt_obs::Obs::aggregating();
        let ctx = ExecCtx::bare(2).with_obs(obs.clone());
        let out = complete(measure_cells(&ctx, "dup", &kernel, &cells, 3).expect("no I/O"));
        for (t, cell) in out.iter().zip(&cells) {
            assert_eq!(run_bits(t), direct_runs(&kernel, cell, 3));
        }
        // Two distinct tables x (warm-up + 3 runs) simulate; the rest hit.
        assert_eq!(memo_counts(&obs), (8, 8));
        // A second grid under the same context reuses every run.
        let again = complete(measure_cells(&ctx, "dup", &kernel, &cells, 3).expect("no I/O"));
        assert_eq!(
            out.iter().map(run_bits).collect::<Vec<_>>(),
            again.iter().map(run_bits).collect::<Vec<_>>()
        );
        assert_eq!(memo_counts(&obs), (8, 24));
    }

    #[test]
    fn worker_utilization_is_a_ratio_on_every_grid() {
        let (kernel, cells) = alternating_cells(4);
        let sink = slopt_obs::MemorySink::new();
        let events = sink.events();
        let ctx = ExecCtx::bare(2).with_obs(slopt_obs::Obs::with_sink(Box::new(sink)));
        // The second grid is all memo hits: a near-zero wall time that
        // must not be set against the first grid's simulation time.
        for _ in 0..2 {
            measure_cells(&ctx, "util", &kernel, &cells, 3).expect("no I/O");
        }
        assert_eq!(memo_counts(&ctx.obs), (8, 24));
        let gauges: Vec<f64> = events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.name.ends_with(".utilization"))
            .filter_map(|e| e.value)
            .collect();
        assert!(!gauges.is_empty(), "every grid reports its workers");
        for g in gauges {
            assert!((0.0..=1.0).contains(&g), "utilization {g} is not a ratio");
        }
    }

    #[test]
    fn one_field_order_in_two_line_groupings_does_not_share_runs() {
        let (kernel, mut cells) = small_cells(2);
        let tables = same_order_two_groupings(&kernel, small_cfg().line_size);
        for (cell, table) in cells.iter_mut().zip(tables) {
            cell.table = table;
        }
        let direct: Vec<_> = cells.iter().map(|c| direct_runs(&kernel, c, 2)).collect();
        assert_ne!(
            direct[0], direct[1],
            "the groupings must simulate differently"
        );
        let obs = slopt_obs::Obs::aggregating();
        let ctx = ExecCtx::bare(1).with_obs(obs.clone());
        let out = complete(measure_cells(&ctx, "groups", &kernel, &cells, 2).expect("no I/O"));
        assert_eq!(out.iter().map(run_bits).collect::<Vec<_>>(), direct);
        assert_eq!(memo_counts(&obs), (6, 0));
    }

    #[test]
    fn resuming_a_grid_whose_layouts_changed_recomputes_exactly_the_changed_cells() {
        let (kernel, cells) = small_cells(2);
        let (_, changed) = alternating_cells(2);
        for (a, b) in cells.iter().zip(&changed) {
            assert_eq!(a.label, b.label);
        }
        let clean = complete(measure_cells(&ExecCtx::bare(1), "t", &kernel, &changed, 2).unwrap());
        let (dir, spec) = ckpt_dir("fp");
        let ctx = ExecCtx::bare(1).with_checkpoint(spec(false));
        measure_cells(&ctx, "t", &kernel, &cells, 2).expect("ckpt I/O");
        // Cell 1's layouts changed: its three items miss and simulate,
        // cell 0's resume, and the result is the changed grid's own.
        let (out, resumed, memo) = resumed_grid(spec(true), &kernel, &changed, 2);
        assert_eq!((resumed, memo), (3, (3, 0)));
        let bits = |t: &[Throughput]| t.iter().map(run_bits).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&clean));
        // The log now holds both grids' runs: either resumes whole.
        for grid in [&cells, &changed] {
            let (_, resumed, memo) = resumed_grid(spec(true), &kernel, grid, 2);
            assert_eq!((resumed, memo), (6, (0, 0)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memo_counters_are_jobs_invariant() {
        let (kernel, cells) = alternating_cells(3);
        let counts = [1, 4].map(|jobs| {
            let obs = slopt_obs::Obs::aggregating();
            let ctx = ExecCtx::bare(jobs).with_obs(obs.clone());
            measure_cells(&ctx, "jobs", &kernel, &cells, 2).expect("no I/O");
            memo_counts(&obs)
        });
        assert_eq!(counts[0], (6, 3));
        assert_eq!(counts[0], counts[1]);
    }
}
