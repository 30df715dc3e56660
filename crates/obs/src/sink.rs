//! The [`ObsSink`] event-consumer trait and its in-process implementations.
//!
//! A sink receives the raw event stream (span begin/end, counter updates)
//! from an [`crate::Obs`] handle. The default [`NullSink`] drops everything
//! — with it, instrumentation cost is one branch plus one mutex round trip
//! per *span* (never per memory access; hot loops batch into local
//! accumulators and flush once). [`MemorySink`] buffers events for tests;
//! the file-backed JSONL sink lives in [`crate::trace`].

/// One instrumentation event, as delivered to sinks and as parsed back out
/// of a trace file.
///
/// `ph` follows the Chrome trace-event phase vocabulary: `B`/`E` bracket a
/// span on one thread, `C` carries a cumulative counter (or gauge) value,
/// `M` is metadata. Two slopt-specific phases ride along: `H` is one
/// histogram observation, `S` is an end-of-run histogram summary (bucket
/// counts + quantiles).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Phase tag: `B`, `E`, `C`, `M`, `H`, or `S`.
    pub ph: char,
    /// Span, counter, or metadata name.
    pub name: String,
    /// Dense thread id (0 = first thread to emit, i.e. the main thread).
    pub tid: u64,
    /// Microseconds since the owning `Obs` was created.
    pub ts_us: f64,
    /// Cumulative value, present on `C` events only.
    pub value: Option<f64>,
}

/// Consumes instrumentation events. All methods default to no-ops so a
/// sink only implements what it cares about.
pub trait ObsSink: Send {
    /// A span named `name` opened on thread `tid` at `ts_us`.
    fn begin_span(&mut self, tid: u64, name: &str, ts_us: f64) {
        let _ = (tid, name, ts_us);
    }

    /// The innermost open span named `name` on thread `tid` closed.
    fn end_span(&mut self, tid: u64, name: &str, ts_us: f64) {
        let _ = (tid, name, ts_us);
    }

    /// Counter `name` now reads `value` (cumulative).
    fn counter(&mut self, tid: u64, name: &str, value: f64, ts_us: f64) {
        let _ = (tid, name, value, ts_us);
    }

    /// Gauge `name` sampled at `value`. Gauges are point-in-time readings
    /// (often timing-derived, e.g. worker utilization) and are therefore
    /// *not* expected to be deterministic across runs; sinks that persist
    /// them should tag them so `trace_diff` can exclude them from
    /// structural comparison. Defaults to the counter path.
    fn gauge(&mut self, tid: u64, name: &str, value: f64, ts_us: f64) {
        self.counter(tid, name, value, ts_us);
    }

    /// One observation of `value` recorded into histogram `name`.
    fn hist_value(&mut self, tid: u64, name: &str, value: u64, ts_us: f64) {
        let _ = (tid, name, value, ts_us);
    }

    /// End-of-run summary of histogram `name` (bucket counts + quantiles).
    fn hist_summary(
        &mut self,
        tid: u64,
        name: &str,
        hist: &crate::histogram::Histogram,
        ts_us: f64,
    ) {
        let _ = (tid, name, hist, ts_us);
    }

    /// Flush any buffered output (end of run).
    fn flush(&mut self) {}

    /// The first output error the sink swallowed, taken once. Sinks
    /// report write failures here instead of panicking mid-pipeline.
    fn take_error(&mut self) -> Option<std::io::Error> {
        None
    }
}

/// Discards every event. The disabled-instrumentation default.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl ObsSink for NullSink {}

/// Buffers events in memory behind a shared handle, so tests can hand an
/// `Obs` to a pipeline and inspect the exact event sequence afterwards.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle that stays valid after the sink is moved into an `Obs`;
    /// lock it once the run is over to read the recorded events.
    pub fn events(&self) -> std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>> {
        std::sync::Arc::clone(&self.events)
    }
}

impl ObsSink for MemorySink {
    fn begin_span(&mut self, tid: u64, name: &str, ts_us: f64) {
        self.events.lock().unwrap().push(TraceEvent {
            ph: 'B',
            name: name.to_string(),
            tid,
            ts_us,
            value: None,
        });
    }

    fn end_span(&mut self, tid: u64, name: &str, ts_us: f64) {
        self.events.lock().unwrap().push(TraceEvent {
            ph: 'E',
            name: name.to_string(),
            tid,
            ts_us,
            value: None,
        });
    }

    fn counter(&mut self, tid: u64, name: &str, value: f64, ts_us: f64) {
        self.events.lock().unwrap().push(TraceEvent {
            ph: 'C',
            name: name.to_string(),
            tid,
            ts_us,
            value: Some(value),
        });
    }

    fn hist_value(&mut self, tid: u64, name: &str, value: u64, ts_us: f64) {
        self.events.lock().unwrap().push(TraceEvent {
            ph: 'H',
            name: name.to_string(),
            tid,
            ts_us,
            value: Some(value as f64),
        });
    }

    fn hist_summary(
        &mut self,
        tid: u64,
        name: &str,
        hist: &crate::histogram::Histogram,
        ts_us: f64,
    ) {
        self.events.lock().unwrap().push(TraceEvent {
            ph: 'S',
            name: name.to_string(),
            tid,
            ts_us,
            value: Some(hist.count() as f64),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_records_in_order() {
        let sink = MemorySink::new();
        let events = sink.events();
        let mut s: Box<dyn ObsSink> = Box::new(sink);
        s.begin_span(0, "a", 1.0);
        s.counter(0, "c", 5.0, 2.0);
        s.end_span(0, "a", 3.0);
        s.flush();
        let got = events.lock().unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!((got[0].ph, got[0].name.as_str()), ('B', "a"));
        assert_eq!(got[1].value, Some(5.0));
        assert_eq!((got[2].ph, got[2].name.as_str()), ('E', "a"));
    }

    #[test]
    fn null_sink_is_silent() {
        let mut s = NullSink;
        s.begin_span(0, "a", 1.0);
        s.end_span(0, "a", 2.0);
        s.counter(0, "c", 1.0, 3.0);
        s.flush();
    }
}
