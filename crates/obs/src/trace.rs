//! File-backed `slopt-trace/1` JSONL sink.
//!
//! One JSON object per line, using the Chrome trace-event vocabulary so a
//! trace is loadable in `about:tracing` / Perfetto after wrapping the
//! lines in a JSON array (see EXPERIMENTS.md for the one-liner). Line 1 is
//! always an `M` metadata event naming the schema, so tools can reject
//! foreign files before reading further.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::sink::ObsSink;

/// Schema identifier written into (and required on) the first trace line.
pub const SCHEMA: &str = "slopt-trace/1";

/// The constant `pid` stamped on every event (traces describe one process).
pub const TRACE_PID: u64 = 1;

/// Escapes a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a timestamp with fixed (3-decimal) sub-microsecond precision so
/// traces do not carry float noise in the last digits.
fn fmt_ts(ts_us: f64) -> String {
    format!("{ts_us:.3}")
}

/// Streams events to a JSONL file as they happen.
pub struct TraceSink {
    out: BufWriter<File>,
    /// First write error, kept for [`ObsSink::take_error`] instead of
    /// panicking mid-pipeline.
    error: Option<io::Error>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl TraceSink {
    /// Creates the file at `path` (truncating) and writes the schema
    /// metadata line.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut sink = TraceSink {
            out: BufWriter::new(file),
            error: None,
        };
        sink.write_line(&format!(
            "{{\"ph\":\"M\",\"name\":\"slopt_trace_schema\",\"pid\":{TRACE_PID},\"tid\":0,\
             \"ts\":0,\"args\":{{\"schema\":\"{SCHEMA}\"}}}}"
        ));
        Ok(sink)
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }
}

impl ObsSink for TraceSink {
    fn begin_span(&mut self, tid: u64, name: &str, ts_us: f64) {
        let line = format!(
            "{{\"ph\":\"B\",\"name\":\"{}\",\"cat\":\"slopt\",\"pid\":{TRACE_PID},\
             \"tid\":{tid},\"ts\":{}}}",
            json_escape(name),
            fmt_ts(ts_us)
        );
        self.write_line(&line);
    }

    fn end_span(&mut self, tid: u64, name: &str, ts_us: f64) {
        let line = format!(
            "{{\"ph\":\"E\",\"name\":\"{}\",\"cat\":\"slopt\",\"pid\":{TRACE_PID},\
             \"tid\":{tid},\"ts\":{}}}",
            json_escape(name),
            fmt_ts(ts_us)
        );
        self.write_line(&line);
    }

    fn counter(&mut self, tid: u64, name: &str, value: f64, ts_us: f64) {
        // Counters are cumulative, so Perfetto renders them as rising step
        // functions; emit integral values without a fraction part.
        let v = if value.fract() == 0.0 && value.abs() < 9e15 {
            format!("{}", value as i64)
        } else {
            format!("{value}")
        };
        let line = format!(
            "{{\"ph\":\"C\",\"name\":\"{}\",\"pid\":{TRACE_PID},\"tid\":{tid},\
             \"ts\":{},\"args\":{{\"value\":{v}}}}}",
            json_escape(name),
            fmt_ts(ts_us)
        );
        self.write_line(&line);
    }

    fn gauge(&mut self, tid: u64, name: &str, value: f64, ts_us: f64) {
        // Same wire shape as a counter, plus a "gauge":true marker so
        // replay keeps it a gauge: a point-in-time (usually
        // timing-derived, hence nondeterministic) reading that structural
        // comparison excludes.
        let v = if value.fract() == 0.0 && value.abs() < 9e15 {
            format!("{}", value as i64)
        } else {
            format!("{value}")
        };
        let line = format!(
            "{{\"ph\":\"C\",\"name\":\"{}\",\"pid\":{TRACE_PID},\"tid\":{tid},\
             \"ts\":{},\"args\":{{\"value\":{v},\"gauge\":true}}}}",
            json_escape(name),
            fmt_ts(ts_us)
        );
        self.write_line(&line);
    }

    fn hist_value(&mut self, tid: u64, name: &str, value: u64, ts_us: f64) {
        let line = format!(
            "{{\"ph\":\"H\",\"name\":\"{}\",\"pid\":{TRACE_PID},\"tid\":{tid},\
             \"ts\":{},\"args\":{{\"value\":{value}}}}}",
            json_escape(name),
            fmt_ts(ts_us)
        );
        self.write_line(&line);
    }

    fn hist_summary(
        &mut self,
        tid: u64,
        name: &str,
        hist: &crate::histogram::Histogram,
        ts_us: f64,
    ) {
        let s = hist.summary();
        let mut buckets = String::from("[");
        for (i, (idx, cum)) in hist.nonzero_buckets().iter().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            buckets.push_str(&format!("[{idx},{cum}]"));
        }
        buckets.push(']');
        let line = format!(
            "{{\"ph\":\"S\",\"name\":\"{}\",\"pid\":{TRACE_PID},\"tid\":{tid},\
             \"ts\":{},\"args\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":{buckets}}}}}",
            json_escape(name),
            fmt_ts(ts_us),
            s.count,
            s.sum,
            s.min,
            s.max,
            s.p50,
            s.p90,
            s.p99,
        );
        self.write_line(&line);
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }

    fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_file_starts_with_schema_line() {
        let dir = std::env::temp_dir().join("slopt_obs_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        {
            let mut sink = TraceSink::create(&path).unwrap();
            sink.begin_span(0, "phase", 1.5);
            sink.counter(0, "n", 3.0, 2.0);
            sink.end_span(0, "phase", 4.25);
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("slopt-trace/1"), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"ph\":\"B\""));
        assert!(lines[2].contains("\"value\":3"));
        assert!(lines[3].contains("\"ts\":4.250"));
        std::fs::remove_file(&path).ok();
    }
}
