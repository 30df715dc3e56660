//! # slopt-obs — instrumentation for the slopt pipeline
//!
//! Zero-dependency spans, counters, and machine-readable run traces. The
//! entire layer hangs off one cloneable [`Obs`] handle:
//!
//! * **Disabled** ([`Obs::disabled`]) it is a `None` inside an `Option` —
//!   every operation is a single branch, so instrumented code paths cost
//!   nothing measurable when nobody asked for telemetry. This is the
//!   default everywhere.
//! * **Enabled** it folds every event into a [`Summary`] (counters,
//!   gauges, span timings with self time, histograms, folded stacks) —
//!   the same fold [`replay_str`] runs over a saved trace — and forwards
//!   every event to an [`ObsSink`]:
//!   [`NullSink`] (aggregate only, for `--stats`), [`TraceSink`]
//!   (`slopt-trace/1` JSONL for `--trace-out`, loadable in Perfetto), or
//!   [`MemorySink`] (tests).
//!
//! Spans are RAII guards and thread-aware: each OS thread gets a dense
//! `tid` in first-emission order, so `par_map` workers nest correctly and
//! a `--jobs 1` run is always `tid 0` in program order — which makes
//! traces deterministic modulo timestamps, and therefore testable.
//!
//! ```
//! use slopt_obs::{MemorySink, Obs};
//!
//! let sink = MemorySink::new();
//! let events = sink.events();
//! let obs = Obs::with_sink(Box::new(sink));
//! {
//!     let _phase = obs.span("flg_build");
//!     obs.counter("flg.edges_kept", 12);
//! }
//! let summary = obs.summary();
//! assert_eq!(summary.metrics.counter("flg.edges_kept"), 12);
//! assert_eq!(events.lock().unwrap().len(), 3); // B, C, E
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flame;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod replay;
pub mod sink;
pub mod summary;
pub mod trace;

pub use histogram::{HistSummary, Histogram};
pub use metrics::Metrics;
pub use replay::{lint_str, replay_str, TraceError};
pub use sink::{MemorySink, NullSink, ObsSink, TraceEvent};
pub use summary::{structural_deltas, SpanStats, Summary};
pub use trace::{TraceSink, SCHEMA};

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use summary::Fold;

/// State shared by all clones of one enabled [`Obs`] handle.
struct Shared {
    /// Epoch for trace timestamps.
    t0: Instant,
    state: Mutex<State>,
}

struct State {
    /// The run's aggregates, built by the same fold trace replay uses.
    fold: Fold,
    sink: Box<dyn ObsSink>,
    /// OS thread → dense tid, assigned in first-emission order (the main
    /// thread emits first, so it is always tid 0; a `--jobs 1` run never
    /// leaves tid 0).
    tids: HashMap<ThreadId, u64>,
    /// Scratch buffer for composed metric names (`warn.<x>`,
    /// `span.<x>`), reused across calls so hot paths do not allocate.
    name_buf: String,
    /// Guards one-shot summary emission in [`Obs::finish`].
    summarized: bool,
}

impl State {
    fn tid(&mut self) -> u64 {
        let next = self.tids.len() as u64;
        *self.tids.entry(std::thread::current().id()).or_insert(next)
    }
}

/// The instrumentation handle threaded through the pipeline.
///
/// Cheap to clone (an `Option<Arc>`); clones share one metrics registry
/// and one sink. See the crate docs for the enabled/disabled contract.
#[derive(Clone, Default)]
pub struct Obs {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// The no-op handle: every operation is a single branch.
    pub fn disabled() -> Obs {
        Obs { shared: None }
    }

    /// An enabled handle forwarding events to `sink`.
    pub fn with_sink(sink: Box<dyn ObsSink>) -> Obs {
        Obs {
            shared: Some(Arc::new(Shared {
                t0: Instant::now(),
                state: Mutex::new(State {
                    fold: Fold::default(),
                    sink,
                    tids: HashMap::new(),
                    name_buf: String::new(),
                    summarized: false,
                }),
            })),
        }
    }

    /// An enabled handle that only aggregates (for `--stats` without
    /// `--trace-out`).
    pub fn aggregating() -> Obs {
        Obs::with_sink(Box::new(NullSink))
    }

    /// An enabled handle streaming `slopt-trace/1` JSONL to `path`.
    pub fn to_trace_file(path: &std::path::Path) -> std::io::Result<Obs> {
        Ok(Obs::with_sink(Box::new(TraceSink::create(path)?)))
    }

    /// True when instrumentation is live. Guard any *preparation* work
    /// (string formatting, extra scans) behind this; the emit calls
    /// themselves already early-return when disabled.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    fn ts_us(shared: &Shared, now: Instant) -> f64 {
        now.duration_since(shared.t0).as_secs_f64() * 1e6
    }

    /// Opens a span; it closes (emitting the `E` event and feeding the
    /// aggregate) when the returned guard drops.
    #[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(shared) = &self.shared else {
            return SpanGuard {
                shared: None,
                name,
                start: None,
                tid: 0,
            };
        };
        let start = Instant::now();
        let ts = Self::ts_us(shared, start);
        let mut st = shared.state.lock().unwrap();
        let tid = st.tid();
        st.fold.begin(tid, name, ts);
        st.sink.begin_span(tid, name, ts);
        drop(st);
        SpanGuard {
            shared: Some(Arc::clone(shared)),
            name,
            start: Some(start),
            tid,
        }
    }

    /// Adds `delta` to counter `name` and emits a `C` event carrying the
    /// new cumulative value.
    pub fn counter(&self, name: &str, delta: u64) {
        let Some(shared) = &self.shared else { return };
        let ts = Self::ts_us(shared, Instant::now());
        let mut st = shared.state.lock().unwrap();
        let tid = st.tid();
        let value = st.fold.summary.metrics.counter(name).saturating_add(delta);
        st.fold.counter(name, value);
        st.sink.counter(tid, name, value as f64, ts);
    }

    /// Records one occurrence of a recoverable anomaly (a skipped shard,
    /// a torn checkpoint line, …) as counter `warn.<name>`. Warnings are
    /// ordinary counters — they ride along in `--stats` tables and
    /// traces — but the shared prefix lets [`Summary::warning_total`]
    /// and operators spot them at a glance.
    pub fn warning(&self, name: &str) {
        self.warning_n(name, 1);
    }

    /// [`warning`](Obs::warning) with an explicit occurrence count.
    ///
    /// Composes the `warn.<name>` key in a retained scratch buffer so
    /// hot-path warnings (shard ingest) never allocate per call once the
    /// buffer has grown to the longest warning name.
    pub fn warning_n(&self, name: &str, count: u64) {
        let Some(shared) = &self.shared else { return };
        let ts = Self::ts_us(shared, Instant::now());
        let mut st = shared.state.lock().unwrap();
        let tid = st.tid();
        let State {
            fold,
            sink,
            name_buf,
            ..
        } = &mut *st;
        name_buf.clear();
        name_buf.push_str("warn.");
        name_buf.push_str(name);
        let value = fold.summary.metrics.counter(name_buf).saturating_add(count);
        fold.counter(name_buf, value);
        sink.counter(tid, name_buf, value as f64, ts);
    }

    /// Sets gauge `name` to `value` and emits a gauge-tagged `C` event.
    ///
    /// Gauges are point-in-time readings (worker utilization, queue
    /// depth); unlike counters and histograms they are *not* expected to
    /// be deterministic across runs, so the trace sink tags them and
    /// `structural_deltas` skips them.
    pub fn gauge(&self, name: &str, value: f64) {
        let Some(shared) = &self.shared else { return };
        let ts = Self::ts_us(shared, Instant::now());
        let mut st = shared.state.lock().unwrap();
        let tid = st.tid();
        st.fold.gauge(name, value);
        st.sink.gauge(tid, name, value, ts);
    }

    /// Records `value` into the named workload-level histogram and emits
    /// an `H` event. Buckets are fixed log2 boundaries and counts are
    /// exact `u64`s, so the aggregate is bit-reproducible at any `--jobs`
    /// (see [`histogram::Histogram`]).
    pub fn histogram(&self, name: &str, value: u64) {
        let Some(shared) = &self.shared else { return };
        let ts = Self::ts_us(shared, Instant::now());
        let mut st = shared.state.lock().unwrap();
        let tid = st.tid();
        st.fold.record(name, value);
        st.sink.hist_value(tid, name, value, ts);
    }

    /// A snapshot of everything aggregated so far.
    pub fn summary(&self) -> Summary {
        let Some(shared) = &self.shared else {
            return Summary::default();
        };
        shared.state.lock().unwrap().fold.summary.clone()
    }

    /// The sink's first write error, taken once — `None` when every
    /// event reached its output (or the handle is disabled). Call after
    /// [`finish`](Self::finish): a trace that could not be written is the
    /// run's failure, not a warning.
    pub fn take_error(&self) -> Option<std::io::Error> {
        let shared = self.shared.as_ref()?;
        shared
            .state
            .lock()
            .expect("no thread panics while holding the obs state")
            .sink
            .take_error()
    }

    /// Emits one `S` summary event per histogram (span-duration
    /// histograms under `span.<name>`, workload histograms under their
    /// own name, in name order), then flushes the sink. Call once at end
    /// of run; the summary emission is guarded so repeated calls only
    /// re-flush.
    pub fn finish(&self) {
        if let Some(shared) = &self.shared {
            let ts = Self::ts_us(shared, Instant::now());
            let mut st = shared.state.lock().unwrap();
            if !st.summarized && !st.fold.summary.hists.is_empty() {
                let tid = st.tid();
                let State { fold, sink, .. } = &mut *st;
                for (name, h) in &fold.summary.hists {
                    sink.hist_summary(tid, name, h, ts);
                }
            }
            st.summarized = true;
            st.sink.flush();
        }
    }
}

/// RAII guard returned by [`Obs::span`].
#[derive(Debug)]
pub struct SpanGuard {
    shared: Option<Arc<Shared>>,
    name: &'static str,
    start: Option<Instant>,
    tid: u64,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(shared), Some(start)) = (&self.shared, self.start) else {
            return;
        };
        let now = Instant::now();
        let ts = Obs::ts_us(shared, now);
        let dur_ns = now.duration_since(start).as_nanos() as u64;
        let mut st = shared.state.lock().unwrap();
        let State {
            fold,
            sink,
            name_buf,
            ..
        } = &mut *st;
        sink.end_span(self.tid, self.name, ts);
        // Guards drop LIFO per thread unless the caller drops one out of
        // order; the trace then carries the same mismatch, which replay
        // rejects, and the aggregate leaves the span open.
        let _ = fold.end(self.tid, self.name, ts);
        name_buf.clear();
        name_buf.push_str("span.");
        name_buf.push_str(self.name);
        fold.record(name_buf, dur_ns);
    }
}

/// Builds the handle the shared `--trace-out <path>` / `--stats` flags ask
/// for: trace sink if a path was given, aggregate-only if just `--stats`,
/// disabled otherwise.
pub fn obs_from_flags(trace_out: Option<&str>, stats: bool) -> std::io::Result<Obs> {
    match trace_out {
        Some(path) => Obs::to_trace_file(std::path::Path::new(path)),
        None if stats => Ok(Obs::aggregating()),
        None => Ok(Obs::disabled()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        let _g = obs.span("x");
        obs.counter("c", 1);
        obs.gauge("g", 1.0);
        obs.finish();
        let s = obs.summary();
        assert!(s.metrics.is_empty());
        assert!(s.spans.is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let sink = MemorySink::new();
        let events = sink.events();
        let obs = Obs::with_sink(Box::new(sink));
        {
            let _outer = obs.span("outer");
            for _ in 0..3 {
                let _inner = obs.span("inner");
            }
        }
        let seq: Vec<(char, String)> = events
            .lock()
            .unwrap()
            .iter()
            .map(|e| (e.ph, e.name.clone()))
            .collect();
        let want: Vec<(char, String)> = [
            ('B', "outer"),
            ('B', "inner"),
            ('E', "inner"),
            ('B', "inner"),
            ('E', "inner"),
            ('B', "inner"),
            ('E', "inner"),
            ('E', "outer"),
        ]
        .iter()
        .map(|(p, n)| (*p, n.to_string()))
        .collect();
        assert_eq!(seq, want);
        let s = obs.summary();
        assert_eq!(s.spans["inner"].count, 3);
        assert_eq!(s.spans["outer"].count, 1);
        assert!(s.spans["outer"].total_us >= s.spans["inner"].total_us);
        assert!(s.folded.contains_key("outer;inner"));
    }

    #[test]
    fn counters_emit_cumulative_values() {
        let sink = MemorySink::new();
        let events = sink.events();
        let obs = Obs::with_sink(Box::new(sink));
        obs.counter("n", 2);
        obs.counter("n", 3);
        obs.gauge("g", 0.5);
        let got = events.lock().unwrap();
        assert_eq!(got[0].value, Some(2.0));
        assert_eq!(got[1].value, Some(5.0));
        assert_eq!(got[2].value, Some(0.5));
        drop(got);
        assert_eq!(obs.summary().metrics.counter("n"), 5);
        assert_eq!(obs.summary().metrics.gauge("g"), Some(0.5));
        obs.counter("n", u64::MAX);
        assert_eq!(obs.summary().metrics.counter("n"), u64::MAX, "saturates");
    }

    #[test]
    fn threads_get_dense_tids_and_balanced_spans() {
        let sink = MemorySink::new();
        let events = sink.events();
        let obs = Obs::with_sink(Box::new(sink));
        {
            let _main = obs.span("main_work"); // main thread claims tid 0
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    let obs = obs.clone();
                    scope.spawn(move || {
                        let _w = obs.span("worker");
                        obs.counter("items", 1);
                    });
                }
            });
        }
        let got = events.lock().unwrap();
        let max_tid = got.iter().map(|e| e.tid).max().unwrap();
        assert!(max_tid <= 3, "dense tids expected, got {max_tid}");
        // B/E balance per tid.
        let mut depth: HashMap<u64, i64> = HashMap::new();
        for e in got.iter() {
            match e.ph {
                'B' => *depth.entry(e.tid).or_default() += 1,
                'E' => {
                    let d = depth.entry(e.tid).or_default();
                    *d -= 1;
                    assert!(*d >= 0, "E without B on tid {}", e.tid);
                }
                _ => {}
            }
        }
        assert!(depth.values().all(|&d| d == 0));
        drop(got);
        assert_eq!(obs.summary().metrics.counter("items"), 3);
        assert_eq!(obs.summary().spans["worker"].count, 3);
    }

    #[test]
    fn warnings_are_prefixed_counters() {
        let obs = Obs::aggregating();
        obs.warning("shard.skipped.truncated");
        obs.warning("shard.skipped.truncated");
        obs.warning_n("shard.missing", 3);
        obs.counter("cc.pairs", 10); // not a warning
        let s = obs.summary();
        assert_eq!(s.metrics.counter("warn.shard.skipped.truncated"), 2);
        assert_eq!(s.metrics.counter("warn.shard.missing"), 3);
        assert_eq!(s.warning_total(), 5);
        assert!(s.to_string().contains("warn.shard.skipped.truncated"));

        // Disabled handles pay one branch and allocate nothing.
        let off = Obs::disabled();
        off.warning("x");
        assert_eq!(off.summary().warning_total(), 0);
    }

    #[test]
    fn histograms_aggregate_and_emit_h_events() {
        let sink = MemorySink::new();
        let events = sink.events();
        let obs = Obs::with_sink(Box::new(sink));
        obs.histogram("cc.interval_cells", 3);
        obs.histogram("cc.interval_cells", 900);
        obs.histogram("flg.objective", 7);
        let s = obs.summary();
        let h = &s.hists["cc.interval_cells"];
        assert_eq!(h.count(), 2);
        assert_eq!((h.min(), h.max()), (3, 900));
        assert_eq!(s.hists["flg.objective"].count(), 1);
        let got = events.lock().unwrap();
        let hs: Vec<_> = got.iter().filter(|e| e.ph == 'H').collect();
        assert_eq!(hs.len(), 3);
        assert_eq!(hs[0].value, Some(3.0));
        assert!(s.to_string().contains("cc.interval_cells"));
    }

    #[test]
    fn spans_feed_duration_histograms() {
        let obs = Obs::aggregating();
        for _ in 0..5 {
            let _g = obs.span("phase_a");
        }
        let s = obs.summary();
        assert_eq!(s.hists["span.phase_a"].count(), 5);
        assert_eq!(s.spans["phase_a"].count, 5);
        // The histogram (ns) and the span total (us) time the same
        // begin/end instants, so they agree up to f64 rounding.
        let hist_us = s.hists["span.phase_a"].sum() as f64 / 1e3;
        assert!(
            (hist_us - s.spans["phase_a"].total_us).abs() < 1e-3 * 5.0,
            "{hist_us} vs {}",
            s.spans["phase_a"].total_us
        );
    }

    #[test]
    fn finish_emits_summaries_once() {
        let sink = MemorySink::new();
        let events = sink.events();
        let obs = Obs::with_sink(Box::new(sink));
        {
            let _g = obs.span("work");
        }
        obs.histogram("vals", 9);
        obs.finish();
        obs.finish(); // second call only re-flushes
        let got = events.lock().unwrap();
        let summaries: Vec<_> = got.iter().filter(|e| e.ph == 'S').collect();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].name, "span.work");
        assert_eq!(summaries[1].name, "vals");
    }

    #[test]
    fn a_failed_trace_write_is_taken_once() {
        let full = std::path::Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let obs = Obs::to_trace_file(full).unwrap();
        obs.counter("c", 1);
        obs.finish();
        assert!(obs.take_error().is_some(), "the flush hit a full device");
        assert!(obs.take_error().is_none(), "taken once");
        assert!(Obs::aggregating().take_error().is_none());
    }

    #[test]
    fn warnings_do_not_grow_allocations_per_call() {
        // Behavioral contract of the retained name buffer: repeated
        // warnings of the same name keep aggregating correctly.
        let obs = Obs::aggregating();
        for _ in 0..100 {
            obs.warning("shard.skipped.truncated");
            obs.warning("io");
        }
        let s = obs.summary();
        assert_eq!(s.metrics.counter("warn.shard.skipped.truncated"), 100);
        assert_eq!(s.metrics.counter("warn.io"), 100);
        assert_eq!(s.warning_total(), 200);
    }

    #[test]
    fn summary_display_renders_tables() {
        let obs = Obs::aggregating();
        {
            let _g = obs.span("phase_a");
        }
        obs.counter("widgets", 7);
        let text = obs.summary().to_string();
        assert!(text.contains("phase_a"));
        assert!(text.contains("widgets"));
        assert!(text.contains("self_ms"));
    }

    #[test]
    fn obs_from_flags_matrix() {
        assert!(!obs_from_flags(None, false).unwrap().enabled());
        assert!(obs_from_flags(None, true).unwrap().enabled());
        let dir = std::env::temp_dir().join("slopt_obs_flags_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let obs = obs_from_flags(Some(path.to_str().unwrap()), false).unwrap();
        assert!(obs.enabled());
        obs.finish();
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }
}
