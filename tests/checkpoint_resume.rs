//! Kill/resume contract of the checkpointed experiment runner
//! (`--checkpoint-dir` / `--resume`): a grid run interrupted mid-way —
//! including a torn final log line from dying mid-append — and then
//! resumed must produce a figure bit-identical to an uninterrupted run
//! and emit a deterministic trace (modulo timestamps); and resuming an
//! experiment whose analysis or workload drifted must recompute exactly
//! the changed cells, printing the drifted experiment's clean figure.

use slopt::obs::json::{parse, Json};
use slopt::obs::replay::replay_str;
use slopt::obs::Obs;
use slopt::sim::CacheConfig;
use slopt::workload::{
    compute_paper_layouts_jobs, figure_tables, AnalysisConfig, Figure, LayoutKind, Machine,
    PaperLayouts, SdetConfig,
};
use slopt_bench::{figure, CheckpointSpec, ExecCtx, RUNS_FILE};
use std::path::{Path, PathBuf};

fn tiny() -> (slopt::workload::Kernel, SdetConfig, PaperLayouts) {
    let kernel = slopt::workload::build_kernel();
    let sdet = SdetConfig {
        scripts_per_cpu: 4,
        invocations_per_script: 6,
        pool_instances: 24,
        cache: CacheConfig {
            line_size: 128,
            sets: 64,
            ways: 4,
        },
        ..SdetConfig::default()
    };
    let acfg = AnalysisConfig {
        machine: Machine::superdome(8),
        ..Default::default()
    };
    let layouts = compute_paper_layouts_jobs(&kernel, &sdet, &acfg, Default::default(), 1);
    (kernel, sdet, layouts)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slopt_resume_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_figure(
    kernel: &slopt::workload::Kernel,
    sdet: &SdetConfig,
    layouts: &PaperLayouts,
    spec: Option<&CheckpointSpec>,
    jobs: usize,
    obs: &Obs,
) -> std::io::Result<Figure> {
    let ctx = ExecCtx {
        obs: obs.clone(),
        checkpoint: spec.cloned(),
        ..ExecCtx::bare(jobs)
    };
    let outcome = figure(
        &ctx,
        "fig",
        kernel,
        &Machine::superdome(4),
        sdet,
        2,
        layouts,
        &[LayoutKind::Tool],
        "resume test",
    )?;
    Ok(outcome
        .figure
        .expect("no fault plan, so the grid is complete"))
}

/// Keeps the run log's header plus its first `keep` runs, then appends
/// half a run line — the on-disk state of a run killed mid-append.
fn interrupt(dir: &Path, keep: usize) {
    let path = dir.join(RUNS_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap().to_string();
    let mut kept: Vec<String> = std::iter::once(header)
        .chain(lines.take(keep).map(String::from))
        .collect();
    kept.push("run 0123".to_string());
    std::fs::write(&path, kept.join("\n")).unwrap();
}

/// The trace fields that must be stable across runs: everything except
/// the timestamp (same pattern as `tests/trace_golden.rs`).
#[derive(Debug, PartialEq)]
struct EventKey {
    ph: String,
    name: String,
    tid: u64,
    value: Option<f64>,
}

fn trace_keys(text: &str) -> Vec<EventKey> {
    text.lines()
        .map(|line| {
            let v = parse(line).expect("trace line must be valid JSON");
            let name = v.get("name").and_then(Json::as_str).unwrap().to_string();
            // Worker-utilization gauges are ratios of wall-clock times, so
            // only their presence — not their value — is deterministic.
            let value = if name.starts_with("runner.worker") {
                None
            } else {
                v.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
            };
            EventKey {
                ph: v.get("ph").and_then(Json::as_str).unwrap().to_string(),
                name,
                tid: v.get("tid").and_then(Json::as_f64).unwrap() as u64,
                value,
            }
        })
        .collect()
}

#[test]
fn interrupted_then_resumed_run_matches_uninterrupted() {
    let (kernel, sdet, layouts) = tiny();
    let direct = run_figure(&kernel, &sdet, &layouts, None, 2, &Obs::disabled()).unwrap();

    // Full checkpointed run, then rewind its log to mid-run state —
    // including a torn trailing line — as if the process was killed.
    let dir = temp_dir("kill");
    let spec = CheckpointSpec {
        dir: dir.clone(),
        resume: false,
    };
    let interrupted =
        run_figure(&kernel, &sdet, &layouts, Some(&spec), 2, &Obs::disabled()).unwrap();
    assert_eq!(
        interrupted.to_string(),
        direct.to_string(),
        "checkpointing alone must not change the figure"
    );
    interrupt(&dir, 5);

    // Duplicate the interrupted state so the resumed run can be executed
    // twice, for the trace-determinism check.
    let dir_b = temp_dir("kill_b");
    std::fs::create_dir_all(&dir_b).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir_b.join(entry.file_name())).unwrap();
    }

    let mut traces = Vec::new();
    for (d, tag) in [(&dir, "a"), (&dir_b, "b")] {
        let trace_path = std::env::temp_dir().join(format!(
            "slopt_resume_trace_{}_{tag}.jsonl",
            std::process::id()
        ));
        let obs = Obs::to_trace_file(&trace_path).unwrap();
        let resume = CheckpointSpec {
            dir: d.clone(),
            resume: true,
        };
        // Serial: with jobs > 1 worker interleaving would make the
        // trace event order scheduler-dependent.
        let resumed = run_figure(&kernel, &sdet, &layouts, Some(&resume), 1, &obs).unwrap();
        obs.finish();

        // The merged result is bit-identical to the uninterrupted run:
        // same baseline runs, same rows, same rendered figure.
        assert_eq!(resumed.baseline.runs, direct.baseline.runs);
        assert_eq!(resumed.baseline.mean, direct.baseline.mean);
        for (a, b) in resumed.rows.iter().zip(&direct.rows) {
            assert_eq!(a.results, b.results);
        }
        assert_eq!(resumed.to_string(), direct.to_string());

        let text = std::fs::read_to_string(&trace_path).unwrap();
        std::fs::remove_file(&trace_path).ok();
        // The resumed trace must replay clean (balanced spans — the same
        // validation `slopt-tool stats` applies) and record the resume itself.
        let summary = replay_str(&text).expect("resumed trace must replay clean");
        assert_eq!(summary.metrics.counter("ckpt.items_resumed"), 5);
        assert!(
            summary.metrics.counter("warn.ckpt.torn_line") > 0,
            "the dropped torn line must surface as a warning"
        );
        traces.push(text);
    }

    // Two resumes from identical checkpoint state emit identical traces
    // modulo timestamps.
    assert_eq!(
        trace_keys(&traces[0]),
        trace_keys(&traces[1]),
        "resumed runs must trace deterministically"
    );

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// A resumed figure after drift: it must equal a clean run of the
/// drifted experiment bit for bit, and resume exactly the grid items
/// whose runs the first experiment already made. Returns how many of the
/// drifted grid's cells were unchanged.
fn resume_drifted(
    tag: &str,
    sdet: &SdetConfig,
    layouts: &PaperLayouts,
    drifted: (&SdetConfig, &PaperLayouts),
) -> usize {
    let kernel = slopt::workload::build_kernel();
    let dir = temp_dir(tag);
    let spec = CheckpointSpec {
        dir: dir.clone(),
        resume: false,
    };
    run_figure(&kernel, sdet, layouts, Some(&spec), 2, &Obs::disabled()).unwrap();
    let clean = run_figure(&kernel, drifted.0, drifted.1, None, 2, &Obs::disabled()).unwrap();

    // A drifted cell reuses a logged run only if the first grid measured
    // its very table under the same workload config.
    let tables = |sdet: &SdetConfig, layouts: &PaperLayouts| -> Vec<String> {
        let (tables, _) = figure_tables(&kernel, sdet, layouts, &[LayoutKind::Tool]);
        tables.iter().map(|t| format!("{t:?} {sdet:?}")).collect()
    };
    let first = tables(sdet, layouts);
    let unchanged = tables(drifted.0, drifted.1)
        .iter()
        .filter(|t| first.contains(t))
        .count();

    let obs = Obs::aggregating();
    let resume = CheckpointSpec {
        dir: dir.clone(),
        resume: true,
    };
    let resumed = run_figure(&kernel, drifted.0, drifted.1, Some(&resume), 2, &obs).unwrap();
    assert_eq!(resumed.baseline.runs, clean.baseline.runs);
    for (a, b) in resumed.rows.iter().zip(&clean.rows) {
        assert_eq!(a.results, b.results);
    }
    assert_eq!(resumed.to_string(), clean.to_string());
    // Two measured runs per cell.
    let (s, kept) = (obs.summary().metrics, unchanged as u64 * 2);
    assert_eq!(s.counter("ckpt.items_resumed"), kept);
    let measured = s.counter("sim.memo_runs") + s.counter("sim.memo_hits");
    assert_eq!(
        measured,
        s.counter("ckpt.items_total") - kept,
        "every changed item is measured"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    unchanged
}

#[test]
fn resume_after_a_drifted_analysis_recomputes_exactly_the_changed_cells() {
    let (kernel, sdet, layouts) = tiny();
    // Re-deriving the layouts under a different measurement machine
    // changes the tool layouts the figure measures.
    let drifted_cfg = AnalysisConfig {
        machine: Machine::superdome(4),
        ..Default::default()
    };
    let drifted = compute_paper_layouts_jobs(&kernel, &sdet, &drifted_cfg, Default::default(), 1);
    let tool_layouts = |l: &PaperLayouts| -> Vec<_> {
        kernel
            .records
            .all()
            .iter()
            .map(|&(_, rec)| l.layout(rec, LayoutKind::Tool).clone())
            .collect()
    };
    assert_ne!(
        tool_layouts(&drifted),
        tool_layouts(&layouts),
        "precondition: the drifted tool tables must actually differ"
    );
    let unchanged = resume_drifted("drift", &sdet, &layouts, (&sdet, &drifted));
    // The baseline cell always survives; some tool cell must not.
    assert!(
        (1..6).contains(&unchanged),
        "{unchanged} of 6 cells unchanged"
    );
}

#[test]
fn resume_of_a_different_grid_recomputes_it_whole() {
    let (_, sdet, layouts) = tiny();
    // Same analysis, different measured workload: every cell's config
    // changed, so no logged run applies.
    let bigger = SdetConfig {
        scripts_per_cpu: sdet.scripts_per_cpu + 1,
        ..sdet.clone()
    };
    assert_eq!(
        resume_drifted("grid", &sdet, &layouts, (&bigger, &layouts)),
        0
    );
}
