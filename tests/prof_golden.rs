//! Golden test for the profiling layer over a fixed-seed fig9-style run.
//!
//! The fig9 pipeline (measurement run + layout derivation on the default
//! seeds) is traced at test scale, replayed, and its folded-stack
//! skeleton — every distinct span path, timestamps stripped — is pinned
//! exactly. The skeleton is a structural fingerprint: a span renamed,
//! re-nested, added, or dropped changes this list and must be an
//! intentional edit here.
//!
//! The same run also carries the acceptance argument for histogram
//! determinism: the workload-level distributions (`cc.interval_cells`,
//! `flg.objective_milli`) must be bit-identical between `--jobs 1` and
//! `--jobs 4`, down to every bucket and quantile.

use slopt::obs::flame::folded_stacks_only;
use slopt::obs::replay::replay_str;
use slopt::obs::{Obs, Summary};
use slopt::sim::CacheConfig;
use slopt::workload::{
    build_kernel, compute_paper_layouts_jobs_obs, AnalysisConfig, Machine, SdetConfig,
};

fn small_sdet() -> SdetConfig {
    SdetConfig {
        scripts_per_cpu: 8,
        invocations_per_script: 10,
        pool_instances: 64,
        cache: CacheConfig {
            line_size: 128,
            sets: 128,
            ways: 4,
        },
        ..SdetConfig::default()
    }
}

/// One traced fig9-style derivation (measurement run + per-record layout
/// derivation, the phase fig9 shares with fig8/fig10); returns the trace
/// text and the live summary.
fn traced_fig9_derivation(tag: &str, jobs: usize) -> (String, Summary) {
    let path = std::env::temp_dir().join(format!(
        "slopt_prof_golden_{}_{tag}.jsonl",
        std::process::id()
    ));
    let obs = Obs::to_trace_file(&path).expect("trace file must open");
    let kernel = build_kernel();
    let analysis = AnalysisConfig {
        machine: Machine::superdome(16),
        ..AnalysisConfig::default()
    };
    let _ = compute_paper_layouts_jobs_obs(
        &kernel,
        &small_sdet(),
        &analysis,
        Default::default(),
        jobs,
        &obs,
    );
    let summary = obs.summary();
    obs.finish();
    let text = std::fs::read_to_string(&path).expect("trace file must read back");
    std::fs::remove_file(&path).ok();
    (text, summary)
}

#[test]
fn folded_stack_skeleton_is_pinned() {
    let (text, _) = traced_fig9_derivation("skel", 1);
    let summary = replay_str(&text).expect("trace must replay clean");
    let skeleton = folded_stacks_only(&summary);
    let expected = "\
derive_layouts
derive_layouts;suggest_layout
derive_layouts;suggest_layout;cluster
derive_layouts;suggest_layout;flg_build
derive_layouts;suggest_layout;layout_gen
derive_layouts;suggest_layout;report
measure_run
measure_run;cc_build
measure_run;fmf_build
measure_run;sdet_run
";
    assert_eq!(
        skeleton, expected,
        "folded-stack skeleton changed — span structure edits must update this golden"
    );
}

#[test]
fn workload_histograms_are_jobs_invariant() {
    let (_, serial) = traced_fig9_derivation("j1", 1);
    let (_, fanned) = traced_fig9_derivation("j4", 4);
    for name in ["cc.interval_cells", "flg.objective_milli"] {
        let a = serial
            .hists
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        let b = fanned
            .hists
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(a, b, "histogram `{name}` differs between jobs 1 and 4");
        assert_eq!(a.summary(), b.summary());
    }
}
