//! `figures`: the paper's experiment, `slopt-tool figures --jobs 2`.
//!
//! Nearly all of its time is simulated SDET runs on superdome128 and
//! bus4, so it is where a simulator change shows; it bypasses `search`
//! and `serve`. The program is deterministic with fixed internal seeds,
//! so `--seed` changes nothing here.

use crate::proc::run_timed;
use crate::report::{digest, Metric, RunReport};
use crate::trace::{run_key, run_passes, span, split_and_report, SimTally, JOBS};
use crate::{cli_setup, Ctx};
use slopt_core::{par_map, ToolParams};
use slopt_obs::Obs;
use slopt_sample::{concurrency_map, ConcurrencyConfig};
use slopt_workload::{
    baseline_layouts, build_kernel, compute_paper_layouts_jobs, figure_from_throughputs,
    figure_tables, layouts_with, measurement_seeds, run_once, suggest_for, AnalysisConfig,
    LayoutKind, Machine, SdetConfig, Throughput,
};
use std::time::Instant;

/// Measured runs per figure cell at `slopt-tool figures --scale 1`.
const RUNS: usize = 6;

/// Nominal seconds of one `slopt-tool figures` run on the reference host
/// (it took 9 to 14 s there): two reps at the default 20 s.
const NOMINAL_REP_S: f64 = 10.0;

fn figures_args() -> Vec<String> {
    ["figures", "--jobs", "2"].map(String::from).to_vec()
}

/// The untraced run: set-up, then timed reps of the binary.
pub fn run(ctx: &Ctx, r: &mut RunReport) -> Result<(), String> {
    // Set-up: the measurement run and layout derivation `figures` starts
    // with, as `slopt-tool advise` runs it (it also warms the binary).
    cli_setup(ctx, r, &["advise", "--struct", "A"])?;
    let mut walls = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    for _ in 0..ctx.reps(NOMINAL_REP_S, 2) {
        r.attempted += 1;
        match run_timed("slopt-tool", &figures_args()) {
            Ok((wall, out)) => {
                walls.push(wall.as_secs_f64() * 1e3);
                outputs.push(out);
            }
            Err(e) => {
                eprintln!("[benchmark] {e}");
                r.failed += 1;
            }
        }
    }
    let Some(first) = outputs.first() else {
        return Err("no figures run completed".into());
    };
    r.check("figures: every run exits 0", r.failed == 0);
    r.check("figures: 3 complete tables", check_tables(first).is_ok());
    r.check(
        "figures: reps print identical tables",
        outputs.iter().all(|o| o == first),
    );
    r.digest = Some(digest(first));
    r.metric("latency_p50_ms", Metric::median(&walls, "ms"));
    r.metric("latency_tail_ms", Metric::tail(&walls, "ms"));
    // Runs per second at the median run time: a mean over the reps
    // would be carried by the slowest, noisiest one.
    let median_s = r.metrics["latency_p50_ms"].value / 1e3;
    r.metric("throughput_per_s", Metric::one(1.0 / median_s, "1/s"));
    Ok(())
}

/// The traced run: one binary run as the reference output, then the
/// library pass untraced and traced.
pub fn run_traced(ctx: &Ctx, r: &mut RunReport) -> Result<(), String> {
    let reference = if ctx.smoke {
        None
    } else {
        r.attempted += 1;
        let (_, out) = run_timed("slopt-tool", &figures_args())?;
        Some(out)
    };
    let path = ctx.work.join("figures.trace.jsonl");
    let passes =
        run_passes(&path, |obs, tally| pass(obs, tally, ctx.smoke)).map_err(|e| e.to_string())?;
    r.attempted += 3;
    let traced = &passes.traced;

    let reference = reference.unwrap_or_else(|| passes.untraced.text.clone());
    r.check(
        "figures: 3 complete tables",
        check_tables(&traced.text).is_ok(),
    );
    r.check(
        "figures: traced-pass tables equal the binary's",
        traced.text == reference,
    );
    r.digest = Some(digest(&traced.text));
    let split = split_and_report(r, &path, "pass.figures", passes.untraced_ms);
    passes
        .tally
        .report(r, split.map_or(0.0, |s| s.self_ms["sim"]));
    r.metric(
        "sample.samples",
        Metric::one(traced.samples as f64, "count"),
    );
    r.metric(
        "sample.cc_pairs",
        Metric::one(traced.cc_pairs as f64, "count"),
    );
    r.info("workload.derive_ms", Metric::one(traced.derive_ms, "ms"));
    r.info("bench.grid_ms", Metric::one(traced.grid_ms, "ms"));
    Ok(())
}

struct PassOut {
    text: String,
    samples: usize,
    cc_pairs: usize,
    derive_ms: f64,
    grid_ms: f64,
}

/// What `slopt-tool figures` computes, through the layers' public
/// functions: layout derivation, then every (table, seed) of the three
/// figure grids and the baseline sanity line, regrouped exactly as the
/// binary regroups them. The concurrency map and the per-record
/// suggestions are re-timed on their own so `sample` and `core` show.
fn pass(obs: &Obs, tally: &SimTally, smoke: bool) -> PassOut {
    let _pass = obs.span("pass.figures");
    let kernel = build_kernel();
    let sdet = SdetConfig {
        scripts_per_cpu: if smoke { 2 } else { 24 },
        ..SdetConfig::default()
    };
    let analysis = AnalysisConfig::default();
    let tool = ToolParams::default();

    let t0 = Instant::now();
    let layouts = span(obs, "workload.derive", || {
        compute_paper_layouts_jobs(&kernel, &sdet, &analysis, tool, JOBS)
    });
    let derive_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cc = span(obs, "sample.concurrency_map", || {
        concurrency_map(
            &layouts.analysis.samples,
            &ConcurrencyConfig {
                interval: analysis.interval,
            },
        )
    });
    for (_, rec) in kernel.records.all() {
        span(obs, "core.suggest", || {
            suggest_for(&kernel, &layouts.analysis, rec, tool)
        });
    }

    let seeds = measurement_seeds(RUNS);
    let grid_t0 = Instant::now();
    let mut text = String::new();
    for (title, machine, kinds) in [
        (
            "Figure 8 (128-way)",
            Machine::superdome(128),
            [LayoutKind::Tool, LayoutKind::SortByHotness],
        ),
        (
            "Figure 9 (4-way)",
            Machine::bus(4),
            [LayoutKind::Tool, LayoutKind::SortByHotness],
        ),
        (
            "Figure 10 (best layouts)",
            Machine::superdome(128),
            [LayoutKind::Tool, LayoutKind::Constrained],
        ),
    ] {
        let (tables, meta) = figure_tables(&kernel, &sdet, &layouts, &kinds);
        let grid: Vec<(usize, u64)> = (0..tables.len())
            .flat_map(|t| seeds.iter().map(move |&s| (t, s)))
            .collect();
        let values = span(obs, "pass.grid", || {
            par_map(JOBS, &grid, |_, &(t, seed)| {
                let key = run_key(&kernel, &tables[t], &machine, seed);
                tally
                    .run(obs, key, || {
                        run_once(
                            &kernel,
                            &tables[t],
                            &machine,
                            &sdet,
                            seed,
                            &mut slopt_sim::NullObserver,
                        )
                    })
                    .result
                    .throughput()
            })
        });
        // chunk[0] of every table is its warm-up run.
        let mut per_table = values
            .chunks_exact(seeds.len())
            .map(|chunk| Throughput::from_runs(chunk[1..].to_vec()));
        let baseline = per_table.next().expect("table 0 is the baseline");
        let fig = figure_from_throughputs(title, &meta, baseline, per_table.collect());
        text.push_str(&format!("{fig}\n"));
    }

    let a = kernel.records.a;
    let table = layouts_with(
        &kernel,
        sdet.line_size,
        a,
        baseline_layouts(&kernel, sdet.line_size).layout(a).clone(),
    );
    let machine = Machine::superdome(128);
    let mut values = span(obs, "pass.grid", || {
        par_map(JOBS, &seeds, |_, &seed| {
            let key = run_key(&kernel, &table, &machine, seed);
            tally
                .run(obs, key, || {
                    run_once(
                        &kernel,
                        &table,
                        &machine,
                        &sdet,
                        seed,
                        &mut slopt_sim::NullObserver,
                    )
                })
                .result
                .throughput()
        })
    });
    values.remove(0);
    text.push_str(&format!(
        "(baseline sanity: {:.1} scripts/Mcycle)\n",
        Throughput::from_runs(values).mean
    ));
    PassOut {
        text,
        samples: layouts.analysis.samples.len(),
        cc_pairs: cc.len(),
        derive_ms,
        grid_ms: grid_t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Checks the printed figures: three tables, each with a finite baseline
/// throughput and five struct rows of two finite percentages, then the
/// baseline sanity line.
pub fn check_tables(text: &str) -> Result<(), String> {
    let blocks: Vec<&str> = text.split("=== Figure").skip(1).collect();
    if blocks.len() != 3 {
        return Err(format!("{} figure tables, want 3", blocks.len()));
    }
    for block in &blocks {
        let base = block
            .lines()
            .find_map(|l| l.strip_prefix("baseline throughput: "))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or("missing or non-finite baseline throughput")?;
        let _ = base;
        let rows: Vec<Vec<f64>> = block
            .lines()
            .filter(|l| l.starts_with(['A', 'B', 'C', 'D', 'E']))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|c| c.strip_suffix('%')?.parse::<f64>().ok())
                    .collect()
            })
            .collect();
        if rows.len() != 5
            || rows
                .iter()
                .any(|r| r.len() != 2 || r.iter().any(|v| !v.is_finite()))
        {
            return Err("a table lacks five rows of two finite cells".into());
        }
    }
    if !text.contains("(baseline sanity: ") {
        return Err("missing baseline sanity line".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_check_accepts_complete_output_and_rejects_holes() {
        let table = |title: &str| {
            format!(
                "=== Figure {title} ===\nbaseline throughput: 4718.307 scripts/Mcycle\n\
                 struct                tool   sort-by-hotness\n\
                 A 0.16% -82.87%\nB 3.05% 2.19%\nC 3.46% 3.46%\nD 0.91% 0.91%\nE -0.12% 0.00%\n\n"
            )
        };
        let good = format!(
            "{}{}{}(baseline sanity: 4718.3 scripts/Mcycle)\n",
            table("8"),
            table("9"),
            table("10")
        );
        assert!(check_tables(&good).is_ok());
        let holed = good.replacen("2.19%", "HOLE", 1);
        assert!(check_tables(&holed).is_err());
        let two = format!(
            "{}{}(baseline sanity: 1.0 scripts/Mcycle)\n",
            table("8"),
            table("9")
        );
        assert!(check_tables(&two).is_err());
    }
}
