//! The traced pass: benchmark-owned spans around calls into each layer's
//! public functions, written through `slopt_obs` as an `slopt-trace/1`
//! file (so `trace_lint`, `slopt-tool stats` and `flame` read it), and
//! the per-layer split recovered from that file.
//!
//! Span names are `<layer>.<call>`, where the layer is the crate the
//! called function belongs to (`sim`, `sample`, `core`, `search`,
//! `workload`, `serve`). Spans named `pass.*` only group calls; they
//! belong to no layer. A call is charged whole to its layer: the crates
//! have no spans of their own on these paths yet, so, for example,
//! `workload.derive` includes the measurement run inside it.

use crate::report::{Metric, RunReport};
use slopt_obs::Obs;
use slopt_sim::AccessClass;
use slopt_workload::SdetRun;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The layers a traced pass attributes time to.
pub const LAYERS: [&str; 6] = ["sim", "sample", "core", "search", "workload", "serve"];

/// Threads the traced pass (like the programs under test) may use.
pub const JOBS: usize = 2;

/// Runs `f` under a span named `name` (a no-op span when `obs` is
/// disabled, as in the untraced passes).
pub fn span<T>(obs: &Obs, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = obs.span(name);
    f()
}

/// Self time per layer recovered from a trace file.
#[derive(Clone, Debug, Default)]
pub struct LayerSplit {
    /// Self milliseconds per layer (every entry of [`LAYERS`] present).
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Inclusive milliseconds of the outermost `pass.*` span.
    pub pass_ms: f64,
    /// Events in the trace file.
    pub events: usize,
}

impl LayerSplit {
    /// Self time summed over every layer.
    pub fn total_ms(&self) -> f64 {
        self.self_ms.values().sum()
    }
}

/// Lints the trace at `path` and splits its span self-times by layer.
/// `root` is the name of the pass's outermost span.
pub fn layer_split(path: &Path, root: &str) -> Result<LayerSplit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let events = slopt_obs::lint_str(&text).map_err(|e| format!("trace_lint: {e}"))?;
    let summary = slopt_obs::replay_str(&text).map_err(|e| format!("replay: {e}"))?;
    let mut split = LayerSplit {
        events,
        ..LayerSplit::default()
    };
    for layer in LAYERS {
        split.self_ms.insert(layer, 0.0);
    }
    for (name, stats) in &summary.spans {
        let layer = name.split('.').next().unwrap_or("");
        if let Some(slot) = LAYERS
            .iter()
            .find(|&&l| l == layer)
            .and_then(|l| split.self_ms.get_mut(l))
        {
            *slot += stats.self_us / 1e3;
        } else if layer != "pass" {
            return Err(format!("span `{name}` belongs to no known layer"));
        }
    }
    split.pass_ms = summary
        .spans
        .get(root)
        .map(|s| s.total_us / 1e3)
        .ok_or_else(|| format!("trace has no `{root}` span"))?;
    Ok(split)
}

/// What [`run_passes`] returns.
#[derive(Debug)]
pub struct Passes<T> {
    /// The traced pass's output.
    pub traced: T,
    /// The first untraced pass's output.
    pub untraced: T,
    /// Simulator work of the traced pass.
    pub tally: SimTally,
    /// Mean wall time of the two untraced passes, in ms.
    pub untraced_ms: f64,
}

/// Runs `pass` untraced, traced to `path`, and untraced again. The
/// tracing overhead is measured against the mean of the two untraced
/// passes, which cancels most warm-up drift.
pub fn run_passes<T>(
    path: &Path,
    pass: impl Fn(&Obs, &SimTally) -> T,
) -> std::io::Result<Passes<T>> {
    let untraced_pass = || {
        let t0 = Instant::now();
        let out = pass(&Obs::disabled(), &SimTally::default());
        (out, t0.elapsed().as_secs_f64() * 1e3)
    };
    let (untraced, before_ms) = untraced_pass();
    let obs = Obs::to_trace_file(path)?;
    let tally = SimTally::default();
    let traced = pass(&obs, &tally);
    obs.finish();
    let (_, after_ms) = untraced_pass();
    Ok(Passes {
        traced,
        untraced,
        tally,
        untraced_ms: (before_ms + after_ms) / 2.0,
    })
}

/// Lints the pass's trace, records the lint as a check, and emits the
/// shared per-layer metrics. Returns the split when the trace is valid.
pub fn split_and_report(
    r: &mut RunReport,
    path: &Path,
    root: &str,
    untraced_ms: f64,
) -> Option<LayerSplit> {
    match layer_split(path, root) {
        Ok(split) => {
            r.check("trace passes trace_lint", true);
            report_split(r, &split, untraced_ms);
            Some(split)
        }
        Err(e) => {
            r.check(&format!("trace passes trace_lint ({e})"), false);
            None
        }
    }
}

/// Simulator work counted over the pass's direct simulator calls.
#[derive(Debug, Default)]
pub struct SimTally {
    inner: Mutex<Tally>,
}

#[derive(Debug, Default)]
struct Tally {
    runs: u64,
    accesses: u64,
    steps: u64,
    makespan: u64,
    coherence: u64,
    false_sharing: u64,
    invalidations: u64,
    run_ms: Vec<f64>,
    distinct: HashSet<String>,
}

impl SimTally {
    /// Runs one simulation under a `sim.run` span and tallies it. `key`
    /// identifies the run's inputs (layout table, machine, seed): runs
    /// with equal keys repeat the same simulation.
    pub fn run(&self, obs: &Obs, key: String, f: impl FnOnce() -> SdetRun) -> SdetRun {
        let t0 = Instant::now();
        let run = span(obs, "sim.run", f);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let s = &run.stats;
        let mut t = self.inner.lock().expect("tally lock is never poisoned");
        t.runs += 1;
        t.accesses += s.accesses();
        t.steps += run.result.steps;
        t.makespan += run.result.makespan;
        t.coherence += s.class(AccessClass::TrueSharingMiss).count
            + s.class(AccessClass::FalseSharingMiss).count;
        t.false_sharing += s.class(AccessClass::FalseSharingMiss).count;
        t.invalidations += s.invalidations;
        t.run_ms.push(ms);
        t.distinct.insert(key);
        run
    }

    /// Emits the simulator counts as per-layer metrics, the per-run
    /// timings as informational ones, and `sim.ns_per_access` from the
    /// `sim` layer's self time.
    pub fn report(&self, r: &mut RunReport, sim_self_ms: f64) {
        let t = self.inner.lock().expect("tally lock is never poisoned");
        r.metric("sim.runs", Metric::one(t.runs as f64, "count"));
        r.metric("sim.accesses", Metric::one(t.accesses as f64, "count"));
        r.metric("sim.steps", Metric::one(t.steps as f64, "count"));
        r.metric(
            "sim.makespan_mcycles",
            Metric::one(t.makespan as f64 / 1e6, "Mcycles"),
        );
        r.metric(
            "sim.coherence_misses",
            Metric::one(t.coherence as f64, "count"),
        );
        r.metric(
            "sim.false_sharing_misses",
            Metric::one(t.false_sharing as f64, "count"),
        );
        r.metric(
            "sim.invalidations",
            Metric::one(t.invalidations as f64, "count"),
        );
        let ratio = if t.runs == 0 {
            0.0
        } else {
            t.distinct.len() as f64 / t.runs as f64
        };
        r.metric("sim.unique_run_ratio", Metric::one(ratio, "ratio"));
        let ns = if t.accesses == 0 {
            0.0
        } else {
            sim_self_ms * 1e6 / t.accesses as f64
        };
        r.metric("sim.ns_per_access", Metric::one(ns, "ns"));
        if !t.run_ms.is_empty() {
            r.info("sim.run_ms_p50", Metric::median(&t.run_ms, "ms"));
            r.info("sim.run_ms_p90", Metric::percentile(&t.run_ms, 90.0, "ms"));
        }
    }
}

/// A key naming a simulation's inputs: every record's layout in record
/// order, the machine, and the run seed.
pub fn run_key(
    kernel: &slopt_workload::Kernel,
    table: &slopt_sim::LayoutTable,
    machine: &slopt_workload::Machine,
    seed: u64,
) -> String {
    let mut key = format!("{}#{seed}", machine.topo.name());
    for (_, rec) in kernel.records.all() {
        key.push_str(&format!("|{:?}", table.layout(rec).order()));
    }
    key
}

/// Emits the per-layer metrics every workload shares: pass wall time,
/// tracing overhead, worker utilization, self time of the layers every
/// workload runs through, and the shares of the workload-specific ones.
pub fn report_split(r: &mut RunReport, split: &LayerSplit, untraced_ms: f64) {
    r.metric("trace.wall_ms", Metric::one(split.pass_ms, "ms"));
    let overhead = if untraced_ms > 0.0 {
        (split.pass_ms / untraced_ms - 1.0) * 100.0
    } else {
        0.0
    };
    r.metric("trace.overhead_pct", Metric::one(overhead, "%"));
    let total = split.total_ms();
    let util = if split.pass_ms > 0.0 {
        total / (split.pass_ms * JOBS as f64)
    } else {
        0.0
    };
    r.metric("trace.worker_util", Metric::one(util, "ratio"));
    for layer in ["sim", "sample", "core", "workload"] {
        let name = format!("{layer}.self_ms");
        r.metric(&name, Metric::one(split.self_ms[layer], "ms"));
    }
    for layer in ["search", "serve"] {
        let share = if total > 0.0 {
            split.self_ms[layer] / total * 100.0
        } else {
            0.0
        };
        r.metric(&format!("{layer}.share_pct"), Metric::one(share, "%"));
    }
    for layer in ["search", "serve"] {
        r.info(
            &format!("{layer}.self_ms"),
            Metric::one(split.self_ms[layer], "ms"),
        );
    }
    r.info("trace.events", Metric::one(split.events as f64, "count"));
}
