//! Versioned layout advice: the pure function from retained window
//! state to the `slopt-advice/1` document.
//!
//! The version string and the advice body are functions of **retained
//! state only** (the cells currently in the window, the window range,
//! and the static analysis artifacts) — never of lifetime counters
//! like accepted/late/evicted totals. Retained state is fold-order
//! independent (DESIGN.md §17): a sample whose interval lies in the
//! final window can never be late-dropped, and everything older is
//! gone regardless of arrival order. Keeping order-dependent counters
//! out of the document is what makes advice bit-identical across
//! client interleavings, `--jobs`, injected transient faults, and
//! kill-9/resume — and `cmp`-equal to an offline run over the same
//! samples.

use slopt_core::{Suggestion, ToolParams};
use slopt_fault::{FaultKind, FaultPlan};
use slopt_ir::{par_map_supervised, RecordId, SupervisePolicy, WorkerError};
use slopt_obs::Obs;
use slopt_sample::WindowedConcurrency;
use slopt_workload::{
    analyze_obs, build_kernel, suggest_for_obs, AnalysisConfig, Kernel, KernelAnalysis,
};
use std::io;

use crate::state::ServeConfig;

/// The serve-side fault site for re-optimization workers: a seeded
/// `transient` plan makes suggestion attempts fail retryably, proving
/// supervised reopt heals without changing the advice.
pub const SITE_REOPT: &str = "serve.reopt";

/// The static half of advice computation: the measurement-run profile,
/// Field Mapping File and alias parameters. Computed once at daemon
/// start (it is the expensive part); only the concurrency map changes
/// per re-optimization.
#[derive(Debug)]
pub struct Advisor {
    kernel: Kernel,
    analysis: KernelAnalysis,
    jobs: usize,
    policy: SupervisePolicy,
    plan: FaultPlan,
}

/// The analysis configuration the advisor derives its static artifacts
/// under. The interval is the serve interval, so live CC cells and the
/// offline pipeline are directly comparable.
pub fn analysis_config(cfg: &ServeConfig) -> AnalysisConfig {
    AnalysisConfig {
        interval: cfg.interval,
        ..AnalysisConfig::default()
    }
}

/// A rendered advice document plus its re-optimization fault report.
#[derive(Clone, Debug)]
pub struct Advice {
    /// The full `slopt-advice/1` document.
    pub text: String,
    /// The version token (also the first header field).
    pub version: String,
    /// Records whose suggestion was holed by a permanent fault or
    /// deadline (rendered as `degraded` in the document).
    pub holed: usize,
}

impl Advisor {
    /// Runs the static analysis once and readies the advisor.
    pub fn new(
        cfg: &ServeConfig,
        jobs: usize,
        policy: SupervisePolicy,
        plan: FaultPlan,
        obs: &Obs,
    ) -> Advisor {
        let kernel = build_kernel();
        let analysis = analyze_obs(
            &kernel,
            &slopt_workload::SdetConfig::default(),
            &analysis_config(cfg),
            obs,
        );
        Advisor {
            kernel,
            analysis,
            jobs,
            policy,
            plan,
        }
    }

    /// Computes the advice document for the window's current retained
    /// state. Suggestions run per record under the supervised pool
    /// (cooperative deadline, transient-fault retry); a quarantined
    /// record renders as `degraded`, never silently stale.
    pub fn advise(&mut self, win: &mut WindowedConcurrency, obs: &Obs) -> Advice {
        let _span = obs.span("serve.reopt");
        let cells = win.cells_snapshot();
        let version = version_token(win, &cells);
        let range = win.window_range();
        // Substitute the live window into the static analysis: the
        // suggestion pipeline downstream of CC is unchanged.
        self.analysis.concurrency = win.concurrency_jobs(self.jobs);

        let records: Vec<(char, RecordId)> = self.kernel.records.all().to_vec();
        let plan = &self.plan;
        let kernel = &self.kernel;
        let analysis = &self.analysis;
        let (suggestions, report) = par_map_supervised(
            self.jobs,
            &records,
            &self.policy,
            |i, &(_, rec), attempt| -> Result<Suggestion, WorkerError> {
                if plan.fires(FaultKind::Transient, SITE_REOPT, i as u64, attempt) {
                    return Err(WorkerError::transient(format!(
                        "injected transient reopt fault (record {i}, attempt {attempt})"
                    )));
                }
                Ok(suggest_for_obs(
                    kernel,
                    analysis,
                    rec,
                    ToolParams::default(),
                    &Obs::disabled(),
                ))
            },
        );
        if report.retries > 0 {
            obs.counter("retry.attempts", report.retries);
        }
        if report.recovered > 0 {
            obs.counter("retry.recovered", report.recovered as u64);
        }
        let holed = records.len() - report.completed;
        if holed > 0 {
            obs.warning_n("serve.reopt_holed", holed as u64);
        }

        let mut text = String::new();
        let (lo, hi) = range.unwrap_or((0, 0));
        text.push_str(&format!(
            "slopt-advice/1 version={version} interval={} window={lo}..{hi} retained={} cells={} records={}\n",
            win.config().interval,
            win.retained_samples(),
            cells.len(),
            records.len(),
        ));
        for (i, (letter, rec)) in records.iter().enumerate() {
            let ty = self.kernel.record_type(*rec);
            text.push_str(&format!("record {letter} ({})\n", ty.name()));
            match &suggestions[i] {
                Some(s) => {
                    for line in s.layout.to_annotated_string(ty).lines() {
                        text.push_str("  ");
                        text.push_str(line);
                        text.push('\n');
                    }
                }
                None => {
                    let why = report
                        .poisoned
                        .iter()
                        .find(|p| p.index == i)
                        .map(|p| format!("{:?}", p.kind))
                        .unwrap_or_else(|| "unknown".to_string());
                    text.push_str(&format!("  degraded: {why}\n"));
                }
            }
        }
        Advice {
            text,
            version,
            holed,
        }
    }
}

/// The version token: an FNV-1a digest of the retained cells and the
/// window placement. Two states with the same retained samples produce
/// the same token, however they were reached.
pub fn version_token(win: &WindowedConcurrency, cells: &[(u128, u64)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&win.config().interval.to_le_bytes());
    eat(&win.window().to_le_bytes());
    let (lo, hi) = win.window_range().unwrap_or((0, 0));
    eat(&lo.to_le_bytes());
    eat(&hi.to_le_bytes());
    for (key, count) in cells {
        eat(&key.to_le_bytes());
        eat(&count.to_le_bytes());
    }
    format!("{h:016x}")
}

/// Computes the advice an offline run over `dir`'s shard files yields:
/// the differential reference for everything the daemon serves. Folds
/// every `*.slshard` file under `dir` through the daemon's windowed fold
/// ([`WindowedConcurrency::ingest_dir`]) and renders through the same
/// advisor — so equality with the daemon is `cmp`-exact whenever both
/// saw the same samples. Structurally invalid shard files are skipped
/// as `warn.shard.skipped.<reason>` warnings, mirroring the ingest path.
pub fn offline_advice(
    dir: &std::path::Path,
    cfg: &ServeConfig,
    jobs: usize,
    policy: SupervisePolicy,
    plan: FaultPlan,
    obs: &Obs,
) -> io::Result<Advice> {
    let mut win = WindowedConcurrency::new(
        slopt_sample::ConcurrencyConfig {
            interval: cfg.interval,
        },
        cfg.window,
    );
    win.ingest_dir(dir, obs)?;
    let mut advisor = Advisor::new(cfg, jobs, policy, plan, obs);
    Ok(advisor.advise(&mut win, obs))
}
