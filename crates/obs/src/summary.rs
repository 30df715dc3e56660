//! One run's aggregates, and the one fold that builds them.
//!
//! A [`Summary`] is what a run's event stream adds up to: counters and
//! gauges, span timings with self time (per name and per thread),
//! histograms and folded stacks. Both sources
//! build it through the same fold: a live [`crate::Obs`] handle feeds
//! each event in as it emits it, and [`crate::replay_str`] feeds each line
//! of a saved `slopt-trace/1` file. So `--stats`, `slopt-tool stats`, the
//! daemon's `/metrics` and `stats --prom` all render one type, through one
//! `Display` and one [`crate::prom::to_prometheus`].
//!
//! Spans nest LIFO per thread. When a span closes, its inclusive duration
//! is split into **self time** (duration minus direct children) and the
//! rest, and the self time is added under its full ancestor path
//! (`outer;mid;leaf`), which [`crate::flame`] renders as a flamegraph.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::histogram::Histogram;
use crate::metrics::Metrics;

/// Aggregate duration statistics for one span name (or one name on one
/// thread).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStats {
    /// Number of completed B/E pairs.
    pub count: u64,
    /// Total (inclusive) microseconds across all completions.
    pub total_us: f64,
    /// Self microseconds: inclusive time minus time spent in direct
    /// children. Sums to the run's total wall-clock span time across
    /// all names, which is what makes it the right regression unit.
    pub self_us: f64,
}

impl SpanStats {
    fn add(&mut self, other: SpanStats) {
        self.count += other.count;
        self.total_us += other.total_us;
        self.self_us += other.self_us;
    }
}

/// One run's aggregates, from a live handle ([`crate::Obs::summary`]) or a
/// replayed trace ([`crate::replay_str`]). `Display` renders the human
/// `--stats` table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Counters (final cumulative values) and gauges (last readings).
    pub metrics: Metrics,
    /// Per-name span statistics, aggregated over all threads.
    pub spans: BTreeMap<String, SpanStats>,
    /// The same statistics split by thread: span name → tid → stats.
    pub thread_spans: BTreeMap<String, BTreeMap<u64, SpanStats>>,
    /// Histograms: workload histograms under their own name, span
    /// duration histograms (ns) under `span.<name>`.
    pub hists: BTreeMap<String, Histogram>,
    /// Folded stack profile: `a;b;c` ancestor path → self microseconds,
    /// merged across threads. Rendered by [`crate::flame::folded`].
    pub folded: BTreeMap<String, f64>,
}

impl Summary {
    /// Sum of all `warn.*` counters — the run's recoverable-anomaly
    /// count (skipped shards, torn checkpoint lines, …). Zero on a
    /// clean run.
    pub fn warning_total(&self) -> u64 {
        self.metrics
            .counters()
            .filter(|(name, _)| name.starts_with("warn."))
            .map(|(_, v)| v)
            .sum()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.spans.is_empty() {
            writeln!(
                f,
                "  {:<40} {:>8} {:>12} {:>12} {:>12}",
                "span", "count", "total_ms", "self_ms", "mean_ms"
            )?;
            for (name, s) in &self.spans {
                let total_ms = s.total_us / 1e3;
                let mean_ms = if s.count > 0 {
                    total_ms / s.count as f64
                } else {
                    0.0
                };
                writeln!(
                    f,
                    "  {:<40} {:>8} {:>12.3} {:>12.3} {:>12.3}",
                    name,
                    s.count,
                    total_ms,
                    s.self_us / 1e3,
                    mean_ms
                )?;
            }
        }
        if !self.hists.is_empty() {
            writeln!(
                f,
                "  {:<40} {:>8} {:>12} {:>12} {:>12} {:>12}",
                "histogram", "count", "p50", "p90", "p99", "max"
            )?;
            for (name, h) in &self.hists {
                let s = h.summary();
                writeln!(
                    f,
                    "  {:<40} {:>8} {:>12} {:>12} {:>12} {:>12}",
                    name, s.count, s.p50, s.p90, s.p99, s.max
                )?;
            }
        }
        if !self.metrics.is_empty() {
            writeln!(f, "  {:<40} {:>14}", "counter/gauge", "value")?;
            write!(f, "{}", self.metrics)?;
        }
        Ok(())
    }
}

/// Compares the *structural* content of two summaries: span completion
/// counts, counter final values, and workload histogram contents
/// (count/min/max/buckets). These are pure functions of the work done,
/// so two runs of the same seeded workload — at any `--jobs`, resumed or
/// not, live or replayed — must match exactly. Gauges and span-duration
/// histograms (`span.*`) are timing-derived and excluded.
///
/// Returns one human-readable line per delta, empty when the summaries
/// are structurally identical. This is the comparison behind
/// `slopt-tool diff` and the ExecCtx conformance matrix.
pub fn structural_deltas(a: &Summary, b: &Summary) -> Vec<String> {
    let mut deltas = Vec::new();

    let span_names: BTreeSet<&String> = a.spans.keys().chain(b.spans.keys()).collect();
    for name in span_names {
        let ca = a.spans.get(name).map_or(0, |s| s.count);
        let cb = b.spans.get(name).map_or(0, |s| s.count);
        if ca != cb {
            deltas.push(format!("span {name}: count {ca} -> {cb}"));
        }
    }

    let counters = |s: &Summary| -> BTreeMap<String, u64> {
        s.metrics
            .counters()
            .map(|(n, v)| (n.to_string(), v))
            .collect()
    };
    let (ca, cb) = (counters(a), counters(b));
    let counter_names: BTreeSet<&String> = ca.keys().chain(cb.keys()).collect();
    for name in counter_names {
        let (va, vb) = (ca.get(name), cb.get(name));
        if va != vb {
            let fmt = |v: Option<&u64>| v.map_or("absent".to_string(), u64::to_string);
            deltas.push(format!("counter {name}: {} -> {}", fmt(va), fmt(vb)));
        }
    }

    let hist_names: BTreeSet<&String> = a
        .hists
        .keys()
        .chain(b.hists.keys())
        .filter(|n| !n.starts_with("span."))
        .collect();
    for name in hist_names {
        match (a.hists.get(name), b.hists.get(name)) {
            (Some(ha), Some(hb)) => {
                if ha.count() != hb.count()
                    || ha.min() != hb.min()
                    || ha.max() != hb.max()
                    || ha.bucket_counts() != hb.bucket_counts()
                {
                    deltas.push(format!(
                        "histogram {name}: count {} -> {}, min {} -> {}, max {} -> {}",
                        ha.count(),
                        hb.count(),
                        ha.min(),
                        hb.min(),
                        ha.max(),
                        hb.max()
                    ));
                }
            }
            (pa, _) => {
                let (present, missing) = if pa.is_some() { ("a", "b") } else { ("b", "a") };
                deltas.push(format!(
                    "histogram {name}: present in {present}, absent in {missing}"
                ));
            }
        }
    }
    deltas
}

/// One open span: where its name starts in [`Stack::path`], when it
/// began, and the inclusive microseconds its direct children have used.
#[derive(Debug)]
struct Frame {
    at: usize,
    began_us: f64,
    child_us: f64,
}

/// One thread's open spans, innermost last. `path` is their names joined
/// by `;` — the folded-stack key of the innermost frame — kept in one
/// reused buffer so opening and closing a span do not allocate once the
/// buffers have grown.
#[derive(Debug, Default)]
struct Stack {
    path: String,
    frames: Vec<Frame>,
}

/// Folds a stream of events into a [`Summary`]. Per-thread state is
/// keyed by map, so a forged `tid` in a trace never sizes an allocation.
#[derive(Debug, Default)]
pub(crate) struct Fold {
    pub(crate) summary: Summary,
    stacks: BTreeMap<u64, Stack>,
}

impl Fold {
    /// Span `name` opened on `tid`.
    pub(crate) fn begin(&mut self, tid: u64, name: &str, ts_us: f64) {
        let stack = self.stacks.entry(tid).or_default();
        if !stack.frames.is_empty() {
            stack.path.push(';');
        }
        stack.frames.push(Frame {
            at: stack.path.len(),
            began_us: ts_us,
            child_us: 0.0,
        });
        stack.path.push_str(name);
    }

    /// The innermost open span on `tid` closed; it must be named `name`.
    pub(crate) fn end(&mut self, tid: u64, name: &str, ts_us: f64) -> Result<(), String> {
        let Some((stack, frame)) = self
            .stacks
            .get_mut(&tid)
            .and_then(|s| s.frames.pop().map(|f| (s, f)))
        else {
            return Err(format!("E '{name}' with no open span on tid {tid}"));
        };
        let open = &stack.path[frame.at..];
        if open != name {
            let msg =
                format!("E '{name}' does not match innermost open span '{open}' on tid {tid}");
            stack.frames.push(frame);
            return Err(msg);
        }
        let total_us = (ts_us - frame.began_us).max(0.0);
        let self_us = (total_us - frame.child_us).max(0.0);
        if let Some(parent) = stack.frames.last_mut() {
            parent.child_us += total_us;
        }
        let s = &mut self.summary;
        match s.folded.get_mut(stack.path.as_str()) {
            Some(v) => *v += self_us,
            None => {
                s.folded.insert(stack.path.clone(), self_us);
            }
        }
        stack.path.truncate(frame.at.saturating_sub(1));
        let stats = SpanStats {
            count: 1,
            total_us,
            self_us,
        };
        match s.spans.get_mut(name) {
            Some(agg) => agg.add(stats),
            None => {
                s.spans.insert(name.to_string(), stats);
            }
        }
        match s.thread_spans.get_mut(name) {
            Some(by_tid) => by_tid.entry(tid).or_default().add(stats),
            None => {
                s.thread_spans
                    .insert(name.to_string(), BTreeMap::from([(tid, stats)]));
            }
        }
        Ok(())
    }

    /// The first span still open, as `(tid, name)`.
    pub(crate) fn open_span(&self) -> Option<(u64, &str)> {
        self.stacks
            .iter()
            .find_map(|(&tid, stack)| stack.frames.last().map(|f| (tid, &stack.path[f.at..])))
    }

    /// Counter `name` now reads `value` (cumulative).
    pub(crate) fn counter(&mut self, name: &str, value: u64) {
        self.summary.metrics.set_counter(name, value);
    }

    /// Gauge `name` read `value`.
    pub(crate) fn gauge(&mut self, name: &str, value: f64) {
        self.summary.metrics.set_gauge(name, value);
    }

    /// One observation of `value` recorded into histogram `name`.
    pub(crate) fn record(&mut self, name: &str, value: u64) {
        match self.summary.hists.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                self.summary.hists.insert(name.to_string(), h);
            }
        }
    }

    /// The end-of-run summary of histogram `name`. It must equal what the
    /// observations of that name, if any were folded, add up to.
    pub(crate) fn hist_summary(&mut self, name: &str, h: Histogram) -> Result<(), String> {
        if self.summary.hists.get(name).is_some_and(|seen| *seen != h) {
            return Err(format!(
                "S summary for '{name}' disagrees with its H events"
            ));
        }
        self.summary.hists.insert(name.to_string(), h);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_folded_paths() {
        let mut f = Fold::default();
        f.begin(0, "outer", 0.0);
        f.begin(0, "leaf", 2.0);
        f.end(0, "leaf", 5.0).unwrap();
        f.begin(7, "leaf", 1.0);
        f.end(7, "leaf", 2.0).unwrap();
        f.end(0, "outer", 10.0).unwrap();
        assert_eq!(f.open_span(), None);
        let s = f.summary;
        assert_eq!(s.spans["outer"].self_us, 7.0);
        assert_eq!(s.spans["leaf"].count, 2);
        assert_eq!(s.spans["leaf"].total_us, 4.0);
        assert_eq!(s.thread_spans["leaf"][&7].total_us, 1.0);
        assert_eq!(s.folded["outer;leaf"], 3.0);
        assert_eq!(s.folded["leaf"], 1.0);
    }

    #[test]
    fn a_mismatched_end_leaves_the_frame_open() {
        let mut f = Fold::default();
        f.begin(3, "x", 0.0);
        assert!(f.end(3, "y", 1.0).unwrap_err().contains("does not match"));
        assert_eq!(f.open_span(), Some((3, "x")));
        assert!(f.end(4, "x", 1.0).unwrap_err().contains("no open span"));
        f.end(3, "x", 1.0).unwrap();
        assert_eq!(f.open_span(), None);
    }
}
