//! The `slopt-tool` subcommands.
//!
//! Every command returns a [`CliError`] carrying both the message and the
//! process exit code from the shared vocabulary in [`slopt_fault::exit`]:
//! flag misuse exits 2, unreadable/unparseable input exits 3, a degraded
//! (partial-result) figures run exits 4, everything else exits 1.

use slopt_bench::{
    derive_paper_layouts, extra_flag, figure_setup, kernel_records, measure_complete,
    measure_paper_figure, paper_figures, search_row, select_records, ArgError, Cell, CommonArgs,
    ExecCtx, GridError, SearchRowCfg, EXIT_CODE_TABLE,
};
use slopt_core::{to_dot, ToolParams};
use slopt_fault::exit;
use slopt_ir::types::RecordId;
use slopt_search::{Portfolio, SearchParams};
use slopt_sim::AccessClass;
use slopt_workload::{
    analyze_obs, baseline_layouts, build_kernel, parse_workload_file, run_once_obs,
    stress_workload, suggest_for_obs, workload_records, AnalysisConfig, CustomWorkload, Machine,
    SdetConfig, WorkloadSpec,
};
use std::path::PathBuf;

/// A classified command failure: what to print and which exit code the
/// process should end with.
#[derive(Clone, Debug)]
pub struct CliError {
    /// Human-readable description, printed to stderr by `main`.
    pub message: String,
    /// Process exit code (see [`slopt_fault::exit`]).
    pub code: u8,
}

impl CliError {
    /// Flag/usage mistakes: exit [`exit::USAGE`].
    pub(crate) fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: exit::USAGE,
        }
    }

    /// Unreadable or unparseable user input: exit [`exit::BAD_INPUT`].
    pub(crate) fn bad_input(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: exit::BAD_INPUT,
        }
    }

    /// Everything else: exit [`exit::FAILURE`].
    pub(crate) fn failure(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: exit::FAILURE,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> CliError {
        CliError::usage(e.to_string())
    }
}

/// Prints usage.
pub fn print_help() {
    println!(
        "slopt-tool — structure layout advisor (CGO 2007 reproduction)

USAGE:
    slopt-tool advise [--struct A|B|C|D|E] [--out DIR] [--cpus N]
        Run the instrumented measurement on the built-in kernel and print
        the layout advisory for one structure. With --out, write
        <name>.layout.txt and <name>.flg.dot into DIR.

    slopt-tool advise --program FILE [--struct RECORD] [--out DIR] [--cpus N]
        The same pipeline on a user-supplied workload file: a `.sir`
        program plus a `workload {{ action ... }}` section (see
        examples/session_table.sirw).

    slopt-tool simulate [--machine bus4|superdome16|superdome128]
        Run the SDET-like workload with baseline layouts and print the
        memory-system breakdown per structure (a `perf c2c`-style view).

    slopt-tool figures [--scale N] [--jobs N] [--checkpoint-dir DIR [--resume]]
                       [--fault-plan SPEC] [--max-retries N] [--deadline-ms N]
        Regenerate the paper's Figures 8, 9 and 10 in one go. --jobs fans
        the measurement grid across N host threads (default: all cores);
        the output is bit-identical for every N. With --checkpoint-dir,
        each simulated run is persisted as it is accepted; re-running
        with --resume simulates only the missing runs and yields a
        bit-identical result.

        --fault-plan injects seed-deterministic faults into the worker
        pool (e.g. `seed=7,transient=0.1,panic=0.05`; kinds: panic,
        transient, permanent, slow, write-error).
        Transient faults are retried (--max-retries, default 3) and leave
        the output bit-identical; permanent faults hole the affected
        cells, print partial results, and exit 4. --deadline-ms bounds
        each grid item cooperatively.

    slopt-tool search [--stress | --program FILE] [--struct NAME]
                      [--seed S] [--chains C] [--steps K]
                      [--validate-top T] [--jobs N] [--cpus N]
                      [--checkpoint-dir DIR [--resume]]
                      [--fault-plan SPEC] [--max-retries N] [--deadline-ms N]
        Run the slopt-search annealing portfolio against the greedy
        clustering and validate the winner in simulated cycles. By
        default on the built-in kernel (where greedy is already
        optimal); --stress uses the shipped stress workload whose
        affinity structure greedy provably mishandles; --program runs a
        user workload file. Deterministic per --seed and bit-identical
        for every --jobs value. Each struct's validation is one
        measurement grid, search_<struct>, checkpointed and
        fault-injected as in `figures`.

    slopt-tool stats <trace.jsonl> [--prom]
        Replay a saved run trace and print the same counter/span/histogram
        table `--stats` prints for a live run. --prom renders it in
        Prometheus text exposition format instead (for scrapers; the
        output is self-checked before printing).

    slopt-tool flame <trace.jsonl>
        Export a saved run trace as a folded-stack profile (FlameGraph
        collapsed format; value = self time in microseconds). Render with
        `slopt-tool flame run.jsonl | flamegraph.pl > run.svg`.

    slopt-tool diff <a.jsonl> <b.jsonl> [--threshold-pct N]
        Compare two saved run traces. Span counts, counters and workload
        histograms must match exactly (two same-seed serial runs do);
        per-span self time and p99 are reported for spans with at least
        100 us of self time and, with --threshold-pct, a move of more
        than N% fails. Exits 1 on any delta or breach.

    slopt-tool serve <health|advise|metrics|drain|ingest>
                     [--addr HOST:PORT | --state-dir DIR]
        Talk to a running slopt-serve daemon. --state-dir discovers the
        address from DIR/addr (written by the daemon at bind time).
        `ingest --dir DIR [--client-id N] [--fault-plan SPEC]
        [--max-retries N]` streams every *.slshard under DIR as one
        collector, retrying transient failures with backoff; the others
        print the daemon's advice/health/metrics or drain it gracefully.

    slopt-tool help
        This text.

OBSERVABILITY (advise, simulate, figures, search):
    --trace-out <path>   Write a machine-readable run trace (slopt-trace/1
                         JSONL, Chrome trace events) to <path>.
    --stats              Print the aggregate counter/span summary table at
                         exit.

{EXIT_CODE_TABLE}"
    );
}

fn parse_machine(spec: &str) -> Result<Machine, String> {
    if spec == "bus4" {
        return Ok(Machine::bus(4));
    }
    if let Some(n) = spec.strip_prefix("superdome") {
        let n: usize = n.parse().map_err(|_| format!("bad machine `{spec}`"))?;
        if n == 0 || n > 128 {
            return Err(format!("superdome CPU count {n} out of range (1..=128)"));
        }
        return Ok(Machine::superdome(n));
    }
    if let Some(n) = spec.strip_prefix("bus") {
        let n: usize = n.parse().map_err(|_| format!("bad machine `{spec}`"))?;
        if n == 0 || n > 128 {
            return Err(format!("bus CPU count {n} out of range (1..=128)"));
        }
        return Ok(Machine::bus(n));
    }
    Err(format!("unknown machine `{spec}` (bus4, busN, superdomeN)"))
}

/// Parses the shared execution-context flags strictly — unknown flags and
/// flags missing their value are usage errors — and builds the
/// [`ExecCtx`] a subcommand runs under. `extras` registers the
/// subcommand's own flags, read with [`extra_flag`].
fn exec_ctx(args: &[String], extras: &[(&str, bool)]) -> Result<(CommonArgs, ExecCtx), CliError> {
    let common = CommonArgs::parse_with(args, extras)?;
    let ctx = common.try_ctx().map_err(CliError::failure)?;
    Ok((common, ctx))
}

/// The measurement-run configuration of `advise` and `search`: the
/// 16-way default, or `--cpus N` (1..=128).
fn analysis_config(args: &[String]) -> Result<AnalysisConfig, CliError> {
    let cpus = extra_flag(args, "--cpus")?.unwrap_or(16);
    if !(1..=128).contains(&cpus) {
        return Err(CliError::usage(format!(
            "--cpus {cpus} out of range (1..=128)"
        )));
    }
    Ok(AnalysisConfig {
        machine: Machine::superdome(cpus),
        ..Default::default()
    })
}

/// Reads and parses a `--program` workload file.
fn load_program(path: &str) -> Result<CustomWorkload, CliError> {
    let input = std::fs::read_to_string(path)
        .map_err(|e| CliError::bad_input(format!("reading {path}: {e}")))?;
    parse_workload_file(&input).map_err(|e| CliError::bad_input(format!("{path}:{e}")))
}

/// `slopt-tool advise`: the measurement run on the built-in kernel or a
/// `--program` workload file, then the layout advisory for one record
/// (`--struct`, default the first).
pub fn advise(args: &[String]) -> Result<(), CliError> {
    let (_common, ctx) = exec_ctx(
        args,
        &[
            ("--struct", true),
            ("--out", true),
            ("--cpus", true),
            ("--program", true),
        ],
    )?;
    let analysis_cfg = analysis_config(args)?;
    let out: Option<PathBuf> = extra_flag(args, "--out")?;
    let program: Option<String> = extra_flag(args, "--program")?;
    let custom = program.as_deref().map(load_program).transpose()?;
    let wanted = struct_flag(args, custom.is_none())?;
    let wanted = wanted.as_deref();
    eprintln!(
        "[advise] measuring {}on {} ...",
        program
            .as_ref()
            .map_or(String::new(), |p| format!("`{p}` ")),
        analysis_cfg.machine.topo.name()
    );
    match &custom {
        Some(w) => advise_on(w, workload_records(w), wanted, &analysis_cfg, out, &ctx)?,
        None => {
            let k = build_kernel();
            advise_on(&k, kernel_records(&k), wanted, &analysis_cfg, out, &ctx)?;
        }
    }
    finish(&ctx)
}

/// `--struct NAME`; the built-in kernel's struct letters match
/// case-insensitively.
fn struct_flag(args: &[String], kernel: bool) -> Result<Option<String>, CliError> {
    let wanted: Option<String> = extra_flag(args, "--struct")?;
    Ok(wanted.map(|s| if kernel { s.to_ascii_uppercase() } else { s }))
}

/// The one `advise` body: measure, suggest for the first selected
/// record (an unknown `--struct` is a usage error), print the advisory,
/// and with `out` write `<name>.layout.txt` and `<name>.flg.dot` there.
fn advise_on<W: WorkloadSpec>(
    w: &W,
    all: Vec<(String, RecordId)>,
    wanted: Option<&str>,
    analysis_cfg: &AnalysisConfig,
    out: Option<PathBuf>,
    ctx: &ExecCtx,
) -> Result<(), CliError> {
    let records = select_records(all, wanted).map_err(CliError::usage)?;
    let Some(&(_, rec)) = records.first() else {
        return Err(CliError::bad_input("the workload declares no records"));
    };
    let analysis = analyze_obs(w, &SdetConfig::default(), analysis_cfg, &ctx.obs);
    let suggestion = suggest_for_obs(w, &analysis, rec, ToolParams::default(), &ctx.obs);
    let ty = w.record_type(rec);
    let advisory = format!(
        "{}\n{}",
        suggestion.report,
        suggestion.layout.to_annotated_string(ty)
    );
    println!("{advisory}");

    if let Some(dir) = out {
        std::fs::create_dir_all(&dir)
            .map_err(|e| CliError::failure(format!("creating {}: {e}", dir.display())))?;
        let write = |path: &PathBuf, text: &str| {
            std::fs::write(path, text)
                .map_err(|e| CliError::failure(format!("writing {}: {e}", path.display())))
        };
        let layout_path = dir.join(format!("{}.layout.txt", ty.name()));
        write(&layout_path, &advisory)?;
        let dot_path = dir.join(format!("{}.flg.dot", ty.name()));
        let dot = to_dot(ty, &suggestion.flg, Some(&suggestion.clustering));
        write(&dot_path, &dot)?;
        println!(
            "wrote {} and {} (render with `dot -Tsvg`)",
            layout_path.display(),
            dot_path.display()
        );
    }
    Ok(())
}

/// `slopt-tool simulate`.
pub fn simulate(args: &[String]) -> Result<(), CliError> {
    let (_common, ctx) = exec_ctx(args, &[("--machine", true)])?;
    let spec: Option<String> = extra_flag(args, "--machine")?;
    let machine =
        parse_machine(spec.as_deref().unwrap_or("superdome16")).map_err(CliError::usage)?;
    let kernel = build_kernel();
    let sdet = SdetConfig::default();
    let layouts = baseline_layouts(&kernel, sdet.line_size);
    eprintln!(
        "[simulate] running SDET-like workload on {} ...",
        machine.topo.name()
    );
    let run = run_once_obs(
        &kernel,
        &layouts,
        &machine,
        &sdet,
        1,
        &mut slopt_sim::NullObserver,
        &ctx.obs,
    );
    println!(
        "throughput: {:.1} scripts/Mcycle over {} cycles ({} scripts)",
        run.result.throughput(),
        run.result.makespan,
        run.result.scripts_done
    );
    println!(
        "\n{:<8} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "struct", "hits", "cold", "true-share", "false-share", "upgrades"
    );
    for (letter, rec) in kernel.records.all() {
        let s = &run.stats;
        println!(
            "{letter:<8} {:>10} {:>10} {:>12} {:>12} {:>10}",
            s.class_for(rec, AccessClass::Hit).count,
            s.class_for(rec, AccessClass::ColdMiss).count,
            s.class_for(rec, AccessClass::TrueSharingMiss).count,
            s.class_for(rec, AccessClass::FalseSharingMiss).count,
            s.class_for(rec, AccessClass::UpgradeHit).count,
        );
    }
    finish(&ctx)
}

/// Flushes the context as a command's last step: a trace that could not
/// be written fails the command with [`exit::FAILURE`].
fn finish(ctx: &ExecCtx) -> Result<(), CliError> {
    ctx.finish()
        .map_err(|e| CliError::failure(format!("trace write failed: {e}")))
}

/// A grid that produced no complete result, as the command's error:
/// flushes the context, keeps the grid's exit code (1 on checkpoint I/O,
/// 4 on a holed grid).
fn grid_failed(ctx: &ExecCtx, what: &str, e: GridError) -> CliError {
    if let Err(t) = ctx.finish() {
        eprintln!("slopt-tool: trace write failed: {t}");
    }
    CliError {
        message: format!("{what}: {e}"),
        code: e.exit_code(),
    }
}

/// `slopt-tool figures`: the paper's Figures 8, 9 and 10 over one layout
/// derivation, then a baseline sanity line.
pub fn figures(args: &[String]) -> Result<(), CliError> {
    let (common, ctx) = exec_ctx(args, &[])?;
    let setup = figure_setup(&common);
    let layouts = derive_paper_layouts(&ctx, &setup, "figures");
    for spec in paper_figures() {
        let fig = measure_paper_figure(&ctx, &setup, &layouts, &spec)
            .map_err(|e| grid_failed(&ctx, spec.title, e))?;
        println!("{fig}");
    }
    // A sanity line so users see the baseline too. It is Figure 8's
    // baseline cell again, so the run memo answers it without simulating.
    let (kernel, sdet) = (&setup.kernel, &setup.sdet);
    let cell = Cell {
        label: "baseline".to_string(),
        table: baseline_layouts(kernel, sdet.line_size),
        sdet: sdet.clone(),
        machine: Machine::superdome(128),
    };
    let base = measure_complete(&ctx, "sanity", kernel, &[cell], setup.runs)
        .map_err(|e| grid_failed(&ctx, "baseline sanity", e))?;
    println!("(baseline sanity: {:.1} scripts/Mcycle)", base[0].mean);
    finish(&ctx)
}

/// `slopt-tool search`: run the annealing portfolio against the greedy
/// clustering on the built-in kernel, the shipped stress workload
/// (`--stress`), or a user workload file (`--program FILE`), validating
/// the winner in simulated cycles. Deterministic per `--seed` and
/// bit-identical for every `--jobs` value.
pub fn search(args: &[String]) -> Result<(), CliError> {
    let (_common, ctx) = exec_ctx(
        args,
        &[
            ("--seed", true),
            ("--chains", true),
            ("--steps", true),
            ("--validate-top", true),
            ("--cpus", true),
            ("--struct", true),
            ("--program", true),
            ("--stress", false),
        ],
    )?;
    let seed = extra_flag(args, "--seed")?.unwrap_or(42u64);
    let chains = extra_flag(args, "--chains")?.unwrap_or(6usize).max(1);
    let steps = extra_flag(args, "--steps")?.unwrap_or(1_200usize);
    let top = extra_flag(args, "--validate-top")?.unwrap_or(2usize).max(1);
    let analysis_cfg = analysis_config(args)?;
    let program: Option<String> = extra_flag(args, "--program")?;
    let stress = args.iter().any(|a| a == "--stress");
    let wanted = struct_flag(args, !stress && program.is_none())?;
    let wanted = wanted.as_deref();
    if stress && program.is_some() {
        return Err(CliError::usage("--stress and --program are exclusive"));
    }

    let params = SearchParams {
        steps,
        ..SearchParams::default()
    };
    let sdet = SdetConfig::default();
    let cfg = SearchRowCfg {
        sdet: &sdet,
        tool: ToolParams::default(),
        params: &params,
        portfolio: Portfolio {
            chains,
            master_seed: seed,
        },
        machine: &Machine::superdome(16),
        runs: 5,
        top,
    };
    eprintln!("[search] seed {seed}, {chains} chains x {steps} steps, validating top {top} ...");

    let (better, total) = if stress {
        let w = stress_workload();
        search_table(&ctx, &w, workload_records(&w), wanted, &analysis_cfg, &cfg)?
    } else if let Some(path) = &program {
        let w = load_program(path)?;
        search_table(&ctx, &w, workload_records(&w), wanted, &analysis_cfg, &cfg)?
    } else {
        let k = build_kernel();
        search_table(&ctx, &k, kernel_records(&k), wanted, &analysis_cfg, &cfg)?
    };
    println!("search: strictly better objective than greedy on {better}/{total} structs");
    finish(&ctx)
}

/// Measures one workload and prints the greedy-vs-search table over
/// its selected records (an unknown `--struct` is a usage error, a holed
/// grid exits as `figures` does). Returns `(strictly_better, total)`.
fn search_table<W: WorkloadSpec + Sync>(
    ctx: &ExecCtx,
    w: &W,
    all: Vec<(String, RecordId)>,
    wanted: Option<&str>,
    analysis_cfg: &AnalysisConfig,
    cfg: &SearchRowCfg<'_>,
) -> Result<(usize, usize), CliError> {
    let records = select_records(all, wanted).map_err(CliError::usage)?;
    let analysis = analyze_obs(w, cfg.sdet, analysis_cfg, &ctx.obs);
    println!(
        "{:<12} {:>14} {:>14} {:>12}  {:>10}",
        "struct", "greedy obj", "search obj", "delta", "sim-vs-tool%"
    );
    let mut better = 0usize;
    for (name, rec) in &records {
        let row =
            search_row(ctx, w, &analysis, *rec, cfg).map_err(|e| grid_failed(ctx, name, e))?;
        let outcome = &row.search.outcome;
        let win = outcome.winner();
        if outcome.improved() {
            better += 1;
        }
        println!(
            "{:<12} {:>14.6} {:>14.6} {:>+12.6}  {:>+10.2}",
            name,
            outcome.greedy_score,
            win.score,
            win.score - outcome.greedy_score,
            row.best.pct_vs(&row.tool),
        );
    }
    Ok((better, records.len()))
}

/// `slopt-tool stats <trace.jsonl> [--prom]`: replay a saved
/// `slopt-trace/1` run trace and print the aggregate counter/span/
/// histogram table it implies — or, with `--prom`, the same aggregates in
/// Prometheus text exposition format (self-checked before printing).
pub fn stats(args: &[String]) -> Result<(), CliError> {
    CommonArgs::parse_with(args, &[("--prom", false)])?;
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        return Err(CliError::usage(
            "usage: slopt-tool stats <trace.jsonl> [--prom]",
        ));
    };
    let summary = replay_trace(path)?;
    if args.iter().any(|a| a == "--prom") {
        let exposition = slopt_obs::prom::to_prometheus(&summary);
        // Self-check: never emit an exposition a scraper would reject.
        slopt_obs::prom::validate(&exposition)
            .map_err(|e| CliError::failure(format!("prometheus self-check failed: {e}")))?;
        print!("{exposition}");
    } else {
        print!("{summary}");
    }
    Ok(())
}

/// `slopt-tool flame <trace.jsonl>`: export a saved trace as a folded
/// stack profile (FlameGraph collapsed format) on stdout, one
/// `path;to;frame <self_us>` line per distinct span stack. Pipe through
/// `flamegraph.pl` or `inferno-flamegraph` to render an SVG.
pub fn flame(args: &[String]) -> Result<(), CliError> {
    CommonArgs::parse(args)?;
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        return Err(CliError::usage("usage: slopt-tool flame <trace.jsonl>"));
    };
    print!("{}", slopt_obs::flame::folded(&replay_trace(path)?));
    Ok(())
}

const DIFF_USAGE: &str = "usage: slopt-tool diff <a.jsonl> <b.jsonl> [--threshold-pct N]";

/// Spans below this much self time on both sides are left out of the
/// timing table: their percentages are noise.
const MIN_SELF_US: f64 = 100.0;

/// `slopt-tool diff <a.jsonl> <b.jsonl> [--threshold-pct N]`:
/// compare two saved traces, the triage tool `perf_guard` points at.
///
/// * **Structural** — span completion counts, counter final values and
///   workload histogram contents ([`slopt_obs::structural_deltas`]) must
///   match exactly: two same-seed serial runs produce the same ones.
/// * **Timing** — per-span self time and span-duration p99, reported for
///   spans with at least [`MIN_SELF_US`] self time on either side, and
///   judged only under `--threshold-pct N`: a span whose self time or
///   p99 moved more than N% is a breach.
///
/// A structural delta or a breach exits 1.
pub fn diff(args: &[String]) -> Result<(), CliError> {
    let (_, paths) = CommonArgs::parse_positional(args, &[("--threshold-pct", true)])?;
    let [a_path, b_path] = paths.as_slice() else {
        return Err(CliError::usage(DIFF_USAGE));
    };
    let threshold_pct: Option<f64> = extra_flag(args, "--threshold-pct")?;
    if threshold_pct.is_some_and(|t| !(t.is_finite() && t >= 0.0)) {
        return Err(CliError::usage(
            "--threshold-pct must be a non-negative number",
        ));
    }
    let (a, b) = (replay_trace(a_path)?, replay_trace(b_path)?);

    println!("trace diff: {a_path} vs {b_path}");
    println!("structural (spans, counters, workload histograms):");
    let deltas = slopt_obs::structural_deltas(&a, &b);
    for delta in &deltas {
        println!("  {delta}");
    }
    if deltas.is_empty() {
        println!("  no deltas");
    }

    println!("timing (informational unless --threshold-pct):");
    let pct = |x: f64, y: f64| match (x == 0.0, y == 0.0) {
        (true, true) => 0.0,
        (true, false) => f64::INFINITY,
        _ => (y - x) / x * 100.0,
    };
    // Span-duration histograms are in ns; the table shows us.
    let p99_us = |s: &slopt_obs::Summary, name: &str| {
        s.hists
            .get(&format!("span.{name}"))
            .map_or(0, |h| h.quantile(0.99))
            / 1000
    };
    let mut breaches = 0usize;
    let mut header = false;
    let names: std::collections::BTreeSet<&String> = a.spans.keys().chain(b.spans.keys()).collect();
    for name in names {
        let sa = a.spans.get(name).copied().unwrap_or_default();
        let sb = b.spans.get(name).copied().unwrap_or_default();
        if sa.self_us.max(sb.self_us) < MIN_SELF_US {
            continue;
        }
        if !header {
            println!(
                "  {:<40} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}",
                "span (timing)", "self_ms_a", "self_ms_b", "self%", "p99_us_a", "p99_us_b", "p99%"
            );
            header = true;
        }
        let (p99a, p99b) = (p99_us(&a, name), p99_us(&b, name));
        let self_pct = pct(sa.self_us, sb.self_us);
        let p99_pct = pct(p99a as f64, p99b as f64);
        let breach = threshold_pct.is_some_and(|t| self_pct.abs() > t || p99_pct.abs() > t);
        breaches += usize::from(breach);
        println!(
            "  {:<40} {:>12.3} {:>12.3} {:>7.1}% {:>10} {:>10} {:>7.1}%{}",
            name,
            sa.self_us / 1e3,
            sb.self_us / 1e3,
            self_pct,
            p99a,
            p99b,
            p99_pct,
            if breach { "  <-- over threshold" } else { "" }
        );
    }
    let result = format!(
        "{} structural delta(s), {breaches} timing breach(es)",
        deltas.len()
    );
    println!("result: {result}");
    if deltas.is_empty() && breaches == 0 {
        Ok(())
    } else {
        Err(CliError::failure(format!("traces differ: {result}")))
    }
}

/// Reads and replays a saved `slopt-trace/1` run trace. Unreadable or
/// invalid traces are bad input.
fn replay_trace(path: &str) -> Result<slopt_obs::Summary, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::bad_input(format!("reading {path}: {e}")))?;
    slopt_obs::replay_str(&text).map_err(|e| CliError::bad_input(format!("{path}: {e}")))
}

/// `slopt-tool serve` — talk to a running `slopt-serve` daemon.
pub fn serve(args: &[String]) -> Result<(), CliError> {
    let Some(action) = args.first().filter(|a| !a.starts_with('-')) else {
        return Err(CliError::usage(
            "serve needs an action: health | advise | metrics | drain | ingest \
             (try `slopt-tool help`)",
        ));
    };
    let (common, ctx) = exec_ctx(
        args,
        &[
            ("--addr", true),
            ("--state-dir", true),
            ("--dir", true),
            ("--client-id", true),
        ],
    )?;
    let addr = serve_addr(args)?;
    let mut client = slopt_serve::Client::new(addr);
    let failure = |e: std::io::Error| CliError::failure(e.to_string());
    let result = match action.as_str() {
        "health" => client
            .health()
            .map(|line| println!("{line}"))
            .map_err(failure),
        "advise" => client
            .advise()
            .map(|text| print!("{text}"))
            .map_err(failure),
        "metrics" => client
            .metrics()
            .map(|text| print!("{text}"))
            .map_err(failure),
        "drain" => client.drain().map(|ack| println!("{ack}")).map_err(failure),
        "ingest" => serve_ingest(args, &common, &ctx, &mut client),
        other => Err(CliError::usage(format!(
            "unknown serve action `{other}` (health | advise | metrics | drain | ingest)"
        ))),
    };
    let finished = finish(&ctx);
    result.and(finished)
}

/// Resolves the daemon address: `--addr` wins, else `--state-dir`'s
/// published `addr` file (written by the daemon at bind time).
fn serve_addr(args: &[String]) -> Result<String, CliError> {
    if let Some(addr) = extra_flag(args, "--addr")? {
        return Ok(addr);
    }
    if let Some(dir) = extra_flag::<PathBuf>(args, "--state-dir")? {
        let path = dir.join("addr");
        let addr = std::fs::read_to_string(&path).map_err(|e| {
            CliError::bad_input(format!(
                "cannot read the daemon's published address {}: {e}",
                path.display()
            ))
        })?;
        return Ok(addr.trim().to_string());
    }
    Err(CliError::usage(
        "serve needs --addr HOST:PORT or --state-dir DIR (to read DIR/addr)",
    ))
}

/// `slopt-tool serve ingest`: stream every `*.slshard` under `--dir` to
/// the daemon as one collector, in deterministic (path-sorted) order,
/// with per-batch retry/backoff on transient failures.
fn serve_ingest(
    args: &[String],
    common: &CommonArgs,
    ctx: &ExecCtx,
    client: &mut slopt_serve::Client,
) -> Result<(), CliError> {
    let Some(dir) = extra_flag::<String>(args, "--dir")? else {
        return Err(CliError::usage(
            "serve ingest needs --dir DIR (shard files)",
        ));
    };
    let client_id = extra_flag(args, "--client-id")?.unwrap_or(0u64);
    let plan = common
        .fault
        .as_ref()
        .map_or_else(slopt_fault::FaultPlan::none, |f| f.plan.clone());
    // A collector retries harder than a grid item: 8 unless given.
    let max_retries = extra_flag(args, "--max-retries")?.unwrap_or(8u32);

    let files = slopt_sample::shard_files(std::path::Path::new(&dir))
        .map_err(|e| CliError::bad_input(format!("walking {dir}: {e}")))?;
    if files.is_empty() {
        return Err(CliError::bad_input(format!(
            "no *.slshard files under {dir}"
        )));
    }
    for (seq, path) in files.iter().enumerate() {
        let samples = slopt_sample::read_shard(path)
            .map_err(|e| CliError::bad_input(format!("reading {}: {e}", path.display())))?;
        let batch = slopt_serve::IngestBatch {
            client: client_id,
            seq: seq as u64,
            samples,
        };
        let ack = client
            .ingest(&batch, &plan, max_retries, &ctx.obs)
            .map_err(|e| CliError::failure(e.to_string()))?;
        println!("[ingest] client {client_id} seq {seq}: {ack}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn machine_specs_parse() {
        assert_eq!(parse_machine("bus4").unwrap().cpus(), 4);
        assert_eq!(parse_machine("bus2").unwrap().cpus(), 2);
        assert_eq!(parse_machine("superdome16").unwrap().cpus(), 16);
        assert_eq!(parse_machine("superdome128").unwrap().cpus(), 128);
        assert!(parse_machine("superdome129").is_err());
        assert!(parse_machine("superdome0").is_err());
        assert!(parse_machine("torus8").is_err());
        assert!(parse_machine("busx").is_err());
    }

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// `advise` and `simulate` parse as strictly as `figures`/`search`:
    /// a misspelt or valueless flag is a usage error, not a silent
    /// default (`--strcut B` used to print struct A's advice).
    #[test]
    fn advise_and_simulate_reject_unknown_and_valueless_flags() {
        let err = advise(&strs(&["--strcut", "B"])).unwrap_err();
        assert_eq!(err.code, exit::USAGE);
        assert!(err.message.contains("--strcut"), "{}", err.message);
        let err = advise(&strs(&["--struct"])).unwrap_err();
        assert_eq!(err.code, exit::USAGE);
        assert!(err.message.contains("needs a value"), "{}", err.message);
        assert_eq!(simulate(&strs(&["--bogus"])).unwrap_err().code, exit::USAGE);
        assert_eq!(
            serve(&strs(&["health", "--addr", "127.0.0.1:1", "--bogus"]))
                .unwrap_err()
                .code,
            exit::USAGE
        );
    }

    #[test]
    fn jobs_flag_is_parsed_by_the_shared_args_and_misuse_exits_2() {
        let bad: Vec<String> = ["--jobs", "x"].iter().map(|s| s.to_string()).collect();
        assert_eq!(figures(&bad).unwrap_err().code, exit::USAGE);
        assert_eq!(search(&bad).unwrap_err().code, exit::USAGE);
        let zero: Vec<String> = ["--jobs", "0"].iter().map(|s| s.to_string()).collect();
        assert_eq!(CommonArgs::parse(&zero).unwrap().jobs, 1);
    }

    #[test]
    fn stats_requires_a_path() {
        assert_eq!(stats(&[]).unwrap_err().code, exit::USAGE);
        let args = vec!["--stats".to_string()];
        assert_eq!(stats(&args).unwrap_err().code, exit::USAGE);
    }

    #[test]
    fn stats_classifies_unreadable_input() {
        let args = vec!["/nonexistent/trace.jsonl".to_string()];
        let err = stats(&args).unwrap_err();
        assert_eq!(err.code, exit::BAD_INPUT);
        assert!(err.message.contains("reading"));
    }

    #[test]
    fn stats_replays_a_written_trace() {
        let path = std::env::temp_dir().join("slopt_cli_stats_test.jsonl");
        let obs = slopt_obs::Obs::to_trace_file(&path).unwrap();
        {
            let _s = obs.span("phase");
            obs.counter("widgets", 2);
        }
        obs.finish();
        let args = vec![path.to_string_lossy().into_owned()];
        stats(&args).unwrap();
        // --prom on the same trace renders a self-checked exposition.
        let prom_args = vec![args[0].clone(), "--prom".to_string()];
        stats(&prom_args).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flame_exports_a_written_trace() {
        let path = std::env::temp_dir().join("slopt_cli_flame_test.jsonl");
        let obs = slopt_obs::Obs::to_trace_file(&path).unwrap();
        {
            let _outer = obs.span("outer");
            let _inner = obs.span("inner");
        }
        obs.finish();
        let args = vec![path.to_string_lossy().into_owned()];
        flame(&args).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flame_requires_a_path_and_classifies_bad_input() {
        assert_eq!(flame(&[]).unwrap_err().code, exit::USAGE);
        let args = vec!["/nonexistent/trace.jsonl".to_string()];
        assert_eq!(flame(&args).unwrap_err().code, exit::BAD_INPUT);
    }

    /// Writes a one-run trace: a `phase` span lasting at least `busy`,
    /// and a `widgets` counter ending at `widgets`.
    fn write_trace(name: &str, widgets: u64, busy: std::time::Duration) -> String {
        let path = std::env::temp_dir().join(name);
        let obs = slopt_obs::Obs::to_trace_file(&path).unwrap();
        {
            let _s = obs.span("phase");
            obs.counter("widgets", widgets);
            std::thread::sleep(busy);
        }
        obs.finish();
        path.to_string_lossy().into_owned()
    }

    /// `diff` is the CI determinism gate, so each exit code is pinned:
    /// 0 clean, 1 on a delta or breach, 2 on misuse, 3 on a bad trace.
    #[test]
    fn diff_exit_codes() {
        use std::time::Duration;
        let a = write_trace("slopt_cli_diff_a.jsonl", 2, Duration::ZERO);
        let same = write_trace("slopt_cli_diff_same.jsonl", 2, Duration::ZERO);
        let other = write_trace("slopt_cli_diff_other.jsonl", 3, Duration::ZERO);
        let slow = write_trace("slopt_cli_diff_slow.jsonl", 2, Duration::from_millis(1));
        let slower = write_trace("slopt_cli_diff_slower.jsonl", 2, Duration::from_millis(3));
        let bad = std::env::temp_dir().join("slopt_cli_diff_bad.jsonl");
        std::fs::write(&bad, "{not a trace\n").unwrap();
        let bad = bad.to_string_lossy().into_owned();

        diff(&strs(&[&a, &same])).unwrap();
        diff(&strs(&[&a, &same, "--threshold-pct", "1e12"])).unwrap();
        let err = diff(&strs(&[&a, &other])).unwrap_err();
        assert_eq!(err.code, exit::FAILURE);
        assert!(
            err.message.contains("1 structural delta(s)"),
            "{}",
            err.message
        );
        // Timing is informational until a threshold is set; the 1 ms and
        // 3 ms spans then breach a 0% one.
        diff(&strs(&[&slow, &slower])).unwrap();
        let err = diff(&strs(&[&slow, &slower, "--threshold-pct", "0"])).unwrap_err();
        assert_eq!(err.code, exit::FAILURE);
        assert!(
            err.message
                .contains("0 structural delta(s), 1 timing breach(es)"),
            "{}",
            err.message
        );

        for misuse in [
            vec![a.as_str()],
            vec![a.as_str(), same.as_str(), other.as_str()],
            vec![a.as_str(), same.as_str(), "--threshold-pct", "-1"],
            vec![a.as_str(), same.as_str(), "--threshold-pct", "x"],
            vec![a.as_str(), same.as_str(), "--min-self-us", "5"],
        ] {
            assert_eq!(
                diff(&strs(&misuse)).unwrap_err().code,
                exit::USAGE,
                "{misuse:?}"
            );
        }
        assert_eq!(diff(&strs(&[&a, &bad])).unwrap_err().code, exit::BAD_INPUT);
        let missing = diff(&strs(&[&a, "/nonexistent/trace.jsonl"])).unwrap_err();
        assert_eq!(missing.code, exit::BAD_INPUT);

        for path in [a, same, other, slow, slower, bad] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn advise_rejects_unknown_struct() {
        let args: Vec<String> = ["--struct", "Z"].iter().map(|s| s.to_string()).collect();
        let err = advise(&args).unwrap_err();
        assert!(err.message.contains("no struct"));
        assert_eq!(err.code, exit::USAGE);
    }

    #[test]
    fn advise_rejects_missing_program_file() {
        let args: Vec<String> = ["--program", "/nonexistent/x.sirw"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = advise(&args).unwrap_err();
        assert!(err.message.contains("reading"));
        assert_eq!(err.code, exit::BAD_INPUT);
    }

    #[test]
    fn cpus_flag_is_a_usage_error_when_out_of_range() {
        for bad in [["--cpus", "0"], ["--cpus", "999"], ["--cpus", "x"]] {
            let err = analysis_config(&strs(&bad)).unwrap_err();
            assert_eq!(err.code, exit::USAGE, "{bad:?}");
        }
        assert_eq!(analysis_config(&[]).unwrap().machine.cpus(), 16);
    }

    #[test]
    fn search_flag_conflicts_and_bad_values_are_usage_errors() {
        let both: Vec<String> = ["--stress", "--program", "x.sirw"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(search(&both).unwrap_err().code, exit::USAGE);
        let bad_seed: Vec<String> = ["--seed", "xyz"].iter().map(|s| s.to_string()).collect();
        assert_eq!(search(&bad_seed).unwrap_err().code, exit::USAGE);
    }

    #[test]
    fn search_rejects_unknown_struct_with_known_names() {
        let args: Vec<String> = ["--stress", "--struct", "nope"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = search(&args).unwrap_err();
        assert_eq!(err.code, exit::USAGE);
        assert!(err.message.contains("dcache_ent"), "{}", err.message);
    }

    /// Validation runs are grid items, so a permanent fault plan holes
    /// the first struct's grid and the run degrades instead of printing
    /// the clean table.
    #[test]
    fn search_under_a_permanent_fault_plan_degrades() {
        let args = strs(&[
            "--stress",
            "--seed",
            "42",
            "--fault-plan",
            "seed=3,permanent=1",
        ]);
        let err = search(&args).unwrap_err();
        assert_eq!(err.code, exit::DEGRADED, "{}", err.message);
        assert!(err.message.contains("poisoned"), "{}", err.message);
    }

    #[test]
    fn search_rejects_missing_program_file() {
        let args: Vec<String> = ["--program", "/nonexistent/w.sirw"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(search(&args).unwrap_err().code, exit::BAD_INPUT);
    }

    #[test]
    fn bad_fault_plan_is_a_usage_error() {
        let args: Vec<String> = ["figures", "--fault-plan", "bogus=1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = figures(&args[1..]).unwrap_err();
        assert_eq!(err.code, exit::USAGE);
        assert!(err.message.contains("bogus"));
    }
}
