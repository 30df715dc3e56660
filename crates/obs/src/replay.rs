//! Replay and validation of saved `slopt-trace/1` files.
//!
//! [`replay_str`] re-aggregates a trace into the same counter/span summary
//! the live `--stats` sink prints, so `slopt-tool stats <file>` can
//! inspect a run without re-executing it. On top of the flat aggregates it
//! runs the *attribution* pass: the span tree is reconstructed per thread
//! (spans nest LIFO per tid), each completion's duration is split into
//! **self time** (duration minus direct children) and inclusive time, and
//! every completion's full ancestor path is folded into a stack profile
//! ([`ReplaySummary::folded`]) that [`crate::flame`] renders in FlameGraph
//! collapsed format.
//!
//! [`lint_str`] is the strict line-by-line validator; [`replay_str`] runs
//! the same checks, so `slopt-tool stats` rejects what it rejects. It
//! understands every phase the trace sink writes — `M`/`B`/`E`/`C` plus
//! the profiling phases `H` (one histogram observation) and `S`
//! (end-of-run histogram summary) — and rejects
//! malformed histogram payloads (out-of-range or descending bucket
//! indices, non-monotonic cumulative counts, quantiles outside
//! `[min, max]`, summaries inconsistent with the `H` stream) instead of
//! silently passing them.

use std::collections::BTreeMap;
use std::fmt;

use crate::histogram::{Histogram, BUCKETS};
use crate::json::{parse, Json};
use crate::trace::SCHEMA;

/// A trace validation failure, pointing at the offending line.
#[derive(Clone, Debug)]
pub struct TraceError {
    /// 1-based line number in the trace file.
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TraceError {}

/// Aggregate duration statistics for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStats {
    /// Number of completed B/E pairs.
    pub count: u64,
    /// Total (inclusive) microseconds across all completions.
    pub total_us: f64,
    /// Self microseconds: inclusive time minus time spent in direct
    /// children. Sums to the trace's total wall-clock span time across
    /// all names, which is what makes it the right regression unit.
    pub self_us: f64,
}

/// One `S` summary event, as parsed off the wire.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayHist {
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observations (f64 on the wire).
    pub sum: f64,
    /// Exact minimum observation.
    pub min: u64,
    /// Exact maximum observation.
    pub max: u64,
    /// Median (bucket upper bound clamped to `[min, max]`).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(bucket index, cumulative count)`,
    /// ascending in both.
    pub buckets: Vec<(usize, u64)>,
}

/// What a full replay of a trace recovers.
#[derive(Clone, Debug, Default)]
pub struct ReplaySummary {
    /// Schema string from the metadata line.
    pub schema: String,
    /// Total event lines (including metadata).
    pub events: usize,
    /// Final cumulative value per counter name (gauge-tagged `C` events
    /// are kept separately in [`ReplaySummary::gauges`]).
    pub counters: BTreeMap<String, f64>,
    /// Final value per gauge name (`C` events tagged `"gauge":true`).
    /// Gauges are point-in-time, usually timing-derived readings, so
    /// `trace_diff` excludes them from structural comparison.
    pub gauges: BTreeMap<String, f64>,
    /// Per-name span statistics, aggregated over all threads.
    pub spans: BTreeMap<String, SpanStats>,
    /// Histogram summaries from `S` events, by name (span-duration
    /// histograms under `span.<name>`).
    pub hists: BTreeMap<String, ReplayHist>,
    /// Folded stack profile: `a;b;c` ancestor path → self microseconds,
    /// merged across threads. Rendered by [`crate::flame::folded`].
    pub folded: BTreeMap<String, f64>,
    /// Distinct thread ids that emitted events.
    pub tids: Vec<u64>,
}

impl fmt::Display for ReplaySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: schema {}, {} events, {} threads",
            self.schema,
            self.events,
            self.tids.len()
        )?;
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
                writeln!(
                    f,
                    "  {:<40} {:>8} {:>12} {:>12} {:>12} {:>12}",
                    name, h.count, h.p50, h.p90, h.p99, h.max
                )?;
            }
        }
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            writeln!(f, "  {:<40} {:>14}", "counter/gauge", "value")?;
            for (name, v) in self.counters.iter().chain(self.gauges.iter()) {
                if v.fract() == 0.0 && v.abs() < 9e15 {
                    writeln!(f, "  {:<40} {:>14}", name, *v as i64)?;
                } else {
                    writeln!(f, "  {name:<40} {v:>14.4}")?;
                }
            }
        }
        Ok(())
    }
}

/// Compares the *structural* content of two replayed traces: span
/// completion counts, counter final values, and workload histogram
/// contents (count/min/max/buckets). These are pure functions of the
/// work done, so two runs of the same seeded workload — at any `--jobs`,
/// resumed or not — must match exactly. Gauges and span-duration
/// histograms (`span.*`) are timing-derived and excluded.
///
/// Returns one human-readable line per delta, empty when the traces are
/// structurally identical. This is the comparison behind the
/// `trace_diff` bin and the ExecCtx conformance matrix.
pub fn structural_deltas(a: &ReplaySummary, b: &ReplaySummary) -> Vec<String> {
    let mut deltas = Vec::new();

    let span_names: std::collections::BTreeSet<&String> =
        a.spans.keys().chain(b.spans.keys()).collect();
    for name in span_names {
        let ca = a.spans.get(name).map_or(0, |s| s.count);
        let cb = b.spans.get(name).map_or(0, |s| s.count);
        if ca != cb {
            deltas.push(format!("span {name}: count {ca} -> {cb}"));
        }
    }

    let counter_names: std::collections::BTreeSet<&String> =
        a.counters.keys().chain(b.counters.keys()).collect();
    for name in counter_names {
        let va = a.counters.get(name).copied();
        let vb = b.counters.get(name).copied();
        if va != vb {
            let fmt = |v: Option<f64>| v.map_or("absent".to_string(), |x| format!("{x}"));
            deltas.push(format!("counter {name}: {} -> {}", fmt(va), fmt(vb)));
        }
    }

    // Workload histograms are deterministic; span.* duration histograms
    // are timing and excluded.
    let hist_names: std::collections::BTreeSet<&String> = a
        .hists
        .keys()
        .chain(b.hists.keys())
        .filter(|n| !n.starts_with("span."))
        .collect();
    for name in hist_names {
        match (a.hists.get(name), b.hists.get(name)) {
            (Some(ha), Some(hb)) => {
                if ha.count != hb.count
                    || ha.min != hb.min
                    || ha.max != hb.max
                    || ha.buckets != hb.buckets
                {
                    deltas.push(format!(
                        "histogram {name}: count {} -> {}, min {} -> {}, max {} -> {}",
                        ha.count, hb.count, ha.min, hb.min, ha.max, hb.max
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

/// One parsed trace line, validated.
struct Line {
    ph: char,
    name: String,
    tid: u64,
    ts: f64,
    value: Option<f64>,
    gauge: bool,
    hist: Option<ReplayHist>,
}

fn non_negative_u64(v: &Json, field: &str) -> Result<u64, String> {
    let n = v
        .get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("S event missing numeric args.{field}"))?;
    if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0) {
        return Err(format!("args.{field} is not a non-negative integer"));
    }
    Ok(n as u64)
}

/// Validates an `S` event's args: all summary fields present, bucket
/// indices ascending and in range, cumulative counts strictly increasing
/// and ending at `count`, quantiles ordered and inside `[min, max]`.
fn check_summary_args(args: &Json) -> Result<ReplayHist, String> {
    let count = non_negative_u64(args, "count")?;
    let sum = args
        .get("sum")
        .and_then(Json::as_f64)
        .ok_or("S event missing numeric args.sum")?;
    let min = non_negative_u64(args, "min")?;
    let max = non_negative_u64(args, "max")?;
    let p50 = non_negative_u64(args, "p50")?;
    let p90 = non_negative_u64(args, "p90")?;
    let p99 = non_negative_u64(args, "p99")?;
    let raw = args
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("S event missing array args.buckets")?;
    let mut buckets = Vec::with_capacity(raw.len());
    for pair in raw {
        let pair = pair.as_arr().ok_or("bucket entry is not a 2-array")?;
        if pair.len() != 2 {
            return Err("bucket entry is not a 2-array".to_string());
        }
        let idx = pair[0]
            .as_f64()
            .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
            .ok_or("bucket index is not a non-negative integer")? as usize;
        let cum = pair[1]
            .as_f64()
            .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
            .ok_or("bucket cumulative count is not a non-negative integer")?
            as u64;
        if idx >= BUCKETS {
            return Err(format!(
                "bucket index {idx} out of range (max {})",
                BUCKETS - 1
            ));
        }
        if let Some(&(prev_idx, prev_cum)) = buckets.last() {
            if idx <= prev_idx {
                return Err(format!("bucket indices not ascending at index {idx}"));
            }
            if cum <= prev_cum {
                return Err(format!(
                    "cumulative counts not increasing at bucket {idx} ({cum} <= {prev_cum})"
                ));
            }
        }
        buckets.push((idx, cum));
    }
    let bucket_total = buckets.last().map_or(0, |&(_, cum)| cum);
    if bucket_total != count {
        return Err(format!(
            "bucket counts sum to {bucket_total} but args.count is {count}"
        ));
    }
    if count > 0 {
        if min > max {
            return Err(format!("min {min} exceeds max {max}"));
        }
        if !(p50 <= p90 && p90 <= p99) {
            return Err("quantiles not ordered (p50 <= p90 <= p99)".to_string());
        }
        if p50 < min || p99 > max {
            return Err("quantiles outside [min, max]".to_string());
        }
    } else if !buckets.is_empty() {
        return Err("empty summary (count 0) with non-empty buckets".to_string());
    }
    Ok(ReplayHist {
        count,
        sum,
        min,
        max,
        p50,
        p90,
        p99,
        buckets,
    })
}

fn check_line(no: usize, text: &str) -> Result<Line, TraceError> {
    let fail = |msg: &str| TraceError {
        line: no,
        msg: msg.to_string(),
    };
    let v = parse(text).map_err(|e| fail(&format!("not valid JSON: {e}")))?;
    let ph_str = v
        .get("ph")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("missing string field 'ph'"))?;
    let ph = match ph_str {
        "M" => 'M',
        "B" => 'B',
        "E" => 'E',
        "C" => 'C',
        "H" => 'H',
        "S" => 'S',
        other => return Err(fail(&format!("unknown phase '{other}'"))),
    };
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("missing string field 'name'"))?;
    if name.is_empty() {
        return Err(fail("empty event name"));
    }
    v.get("pid")
        .and_then(Json::as_f64)
        .ok_or_else(|| fail("missing numeric field 'pid'"))?;
    let tid = v
        .get("tid")
        .and_then(Json::as_f64)
        .ok_or_else(|| fail("missing numeric field 'tid'"))?;
    let ts = v
        .get("ts")
        .and_then(Json::as_f64)
        .ok_or_else(|| fail("missing numeric field 'ts'"))?;
    if ts < 0.0 || !ts.is_finite() {
        return Err(fail("negative or non-finite 'ts'"));
    }
    let value = match ph {
        'C' => Some(
            v.get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| fail("C event missing numeric args.value"))?,
        ),
        'H' => {
            let raw = v
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| fail("H event missing numeric args.value"))?;
            if !(raw.is_finite() && raw >= 0.0 && raw.fract() == 0.0) {
                return Err(fail("H event args.value is not a non-negative integer"));
            }
            Some(raw)
        }
        _ => None,
    };
    let gauge = ph == 'C'
        && v.get("args")
            .and_then(|a| a.get("gauge"))
            .map(|g| *g == Json::Bool(true))
            .unwrap_or(false);
    let hist = if ph == 'S' {
        let args = v.get("args").ok_or_else(|| fail("S event missing args"))?;
        Some(check_summary_args(args).map_err(|e| fail(&e))?)
    } else {
        None
    };
    if ph == 'M' && no == 1 {
        let schema = v
            .get("args")
            .and_then(|a| a.get("schema"))
            .and_then(Json::as_str)
            .ok_or_else(|| fail("metadata line missing args.schema"))?;
        if schema != SCHEMA {
            return Err(fail(&format!("schema '{schema}' is not '{SCHEMA}'")));
        }
    }
    Ok(Line {
        ph,
        name: name.to_string(),
        tid: tid as u64,
        ts,
        value,
        gauge,
        hist,
    })
}

/// One open span frame during replay: name, begin ts, and the inclusive
/// microseconds its direct children have consumed so far.
struct Frame {
    name: String,
    began: f64,
    child_us: f64,
}

/// Validates and aggregates a trace held in memory.
///
/// Enforces, per line: valid JSON with `ph`/`name`/`pid`/`tid`/`ts`
/// fields, a known phase, `args.value` on `C`/`H` events, and a
/// well-formed summary payload on `S` events. Enforces across lines: line
/// 1 is the `slopt-trace/1` metadata event, span B/E events are properly
/// nested (LIFO, matching names) and balanced on every thread by end of
/// file, and every `S` summary agrees with the `H` observations of the
/// same name (exact bucket counts).
pub fn replay_str(text: &str) -> Result<ReplaySummary, TraceError> {
    let mut summary = ReplaySummary::default();
    let mut stacks: BTreeMap<u64, Vec<Frame>> = BTreeMap::new();
    // Histograms rebuilt from the H stream, to cross-check S summaries.
    let mut observed: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut first = true;
    let mut no = 0usize;
    for raw in text.lines() {
        no += 1;
        let line = check_line(no, raw)?;
        if first {
            if line.ph != 'M' {
                return Err(TraceError {
                    line: no,
                    msg: format!(
                        "first line must be the schema metadata event, got '{}'",
                        line.ph
                    ),
                });
            }
            summary.schema = SCHEMA.to_string();
            first = false;
        }
        summary.events += 1;
        if !summary.tids.contains(&line.tid) {
            summary.tids.push(line.tid);
        }
        match line.ph {
            'B' => stacks.entry(line.tid).or_default().push(Frame {
                name: line.name,
                began: line.ts,
                child_us: 0.0,
            }),
            'E' => {
                let stack = stacks.entry(line.tid).or_default();
                let Some(frame) = stack.pop() else {
                    return Err(TraceError {
                        line: no,
                        msg: format!("E '{}' with no open span on tid {}", line.name, line.tid),
                    });
                };
                if frame.name != line.name {
                    return Err(TraceError {
                        line: no,
                        msg: format!(
                            "E '{}' does not match innermost open span '{}' on tid {}",
                            line.name, frame.name, line.tid
                        ),
                    });
                }
                let total = (line.ts - frame.began).max(0.0);
                let self_us = (total - frame.child_us).max(0.0);
                if let Some(parent) = stack.last_mut() {
                    parent.child_us += total;
                }
                let mut path = String::new();
                for f in stack.iter() {
                    path.push_str(&f.name);
                    path.push(';');
                }
                path.push_str(&frame.name);
                *summary.folded.entry(path).or_insert(0.0) += self_us;
                let s = summary.spans.entry(frame.name).or_default();
                s.count += 1;
                s.total_us += total;
                s.self_us += self_us;
            }
            'C' => {
                let target = if line.gauge {
                    &mut summary.gauges
                } else {
                    &mut summary.counters
                };
                target.insert(line.name, line.value.unwrap_or(0.0));
            }
            'H' => {
                observed
                    .entry(line.name)
                    .or_default()
                    .record(line.value.unwrap_or(0.0) as u64);
            }
            'S' => {
                let hist = line.hist.unwrap_or_default();
                if let Some(h) = observed.get(&line.name) {
                    if h.nonzero_buckets() != hist.buckets {
                        return Err(TraceError {
                            line: no,
                            msg: format!(
                                "S summary for '{}' disagrees with its H events \
                                 (bucket counts differ)",
                                line.name
                            ),
                        });
                    }
                }
                summary.hists.insert(line.name, hist);
            }
            _ => {}
        }
    }
    if first {
        return Err(TraceError {
            line: 0,
            msg: "empty trace file".to_string(),
        });
    }
    for (tid, stack) in &stacks {
        if let Some(frame) = stack.last() {
            return Err(TraceError {
                line: no,
                msg: format!(
                    "span '{}' still open on tid {tid} at end of trace",
                    frame.name
                ),
            });
        }
    }
    summary.tids.sort_unstable();
    Ok(summary)
}

/// Strict validation only (same checks as [`replay_str`], summary
/// discarded). Returns the number of event lines checked.
pub fn lint_str(text: &str) -> Result<usize, TraceError> {
    replay_str(text).map(|s| s.events)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "{\"ph\":\"M\",\"name\":\"slopt_trace_schema\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"schema\":\"slopt-trace/1\"}}";

    fn ev(ph: &str, name: &str, tid: u64, ts: f64, value: Option<u64>) -> String {
        match value {
            Some(v) => format!(
                "{{\"ph\":\"{ph}\",\"name\":\"{name}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"value\":{v}}}}}"
            ),
            None => format!(
                "{{\"ph\":\"{ph}\",\"name\":\"{name}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}}}"
            ),
        }
    }

    fn summary_ev(name: &str, ts: f64, args: &str) -> String {
        format!(
            "{{\"ph\":\"S\",\"name\":\"{name}\",\"pid\":1,\"tid\":0,\"ts\":{ts},\"args\":{args}}}"
        )
    }

    #[test]
    fn replays_counters_and_spans() {
        let text = [
            HEADER.to_string(),
            ev("B", "outer", 0, 10.0, None),
            ev("C", "n", 0, 11.0, Some(3)),
            ev("B", "inner", 0, 12.0, None),
            ev("E", "inner", 0, 15.0, None),
            ev("C", "n", 0, 16.0, Some(7)),
            ev("E", "outer", 0, 20.0, None),
        ]
        .join("\n");
        let s = replay_str(&text).unwrap();
        assert_eq!(s.events, 7);
        assert_eq!(s.counters.get("n"), Some(&7.0));
        assert_eq!(s.spans["outer"].count, 1);
        assert!((s.spans["outer"].total_us - 10.0).abs() < 1e-9);
        assert!((s.spans["inner"].total_us - 3.0).abs() < 1e-9);
        let rendered = s.to_string();
        assert!(rendered.contains("outer"));
        assert!(rendered.contains('7'));
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let text = [
            HEADER.to_string(),
            ev("B", "outer", 0, 0.0, None),
            ev("B", "mid", 0, 2.0, None),
            ev("B", "leaf", 0, 3.0, None),
            ev("E", "leaf", 0, 7.0, None),
            ev("E", "mid", 0, 8.0, None),
            ev("B", "leaf", 0, 9.0, None),
            ev("E", "leaf", 0, 10.0, None),
            ev("E", "outer", 0, 12.0, None),
        ]
        .join("\n");
        let s = replay_str(&text).unwrap();
        // outer: 12 total, children mid (6) + leaf (1) -> self 5.
        assert!((s.spans["outer"].self_us - 5.0).abs() < 1e-9);
        // mid: 6 total, child leaf 4 -> self 2.
        assert!((s.spans["mid"].self_us - 2.0).abs() < 1e-9);
        // leaf is a leaf: self == total == 4 + 1.
        assert!((s.spans["leaf"].self_us - 5.0).abs() < 1e-9);
        // Self times sum to the root's inclusive time.
        let total_self: f64 = s.spans.values().map(|x| x.self_us).sum();
        assert!((total_self - 12.0).abs() < 1e-9);
        // Folded stacks carry the ancestor path.
        assert!((s.folded["outer;mid;leaf"] - 4.0).abs() < 1e-9);
        assert!((s.folded["outer;leaf"] - 1.0).abs() < 1e-9);
        assert!((s.folded["outer"] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gauges_are_separated_from_counters() {
        let gauge_line = "{\"ph\":\"C\",\"name\":\"util\",\"pid\":1,\"tid\":0,\"ts\":1,\"args\":{\"value\":0.5,\"gauge\":true}}";
        let text = [
            HEADER.to_string(),
            ev("C", "n", 0, 1.0, Some(3)),
            gauge_line.to_string(),
        ]
        .join("\n");
        let s = replay_str(&text).unwrap();
        assert_eq!(s.counters.get("n"), Some(&3.0));
        assert!(!s.counters.contains_key("util"));
        assert_eq!(s.gauges.get("util"), Some(&0.5));
    }

    #[test]
    fn replays_histograms_and_checks_summary_consistency() {
        let good = summary_ev(
            "vals",
            9.0,
            "{\"count\":3,\"sum\":12,\"min\":2,\"max\":8,\"p50\":3,\"p90\":8,\"p99\":8,\"buckets\":[[2,2],[4,3]]}",
        );
        let text = [
            HEADER.to_string(),
            ev("H", "vals", 0, 1.0, Some(2)),
            ev("H", "vals", 0, 2.0, Some(3)),
            ev("H", "vals", 0, 3.0, Some(8)),
            good,
        ]
        .join("\n");
        let s = replay_str(&text).unwrap();
        let h = &s.hists["vals"];
        assert_eq!(h.count, 3);
        assert_eq!((h.min, h.max, h.p99), (2, 8, 8));
        assert_eq!(h.buckets, vec![(2, 2), (4, 3)]);
        assert!(s.to_string().contains("vals"));

        // Same S payload but only two H events -> bucket mismatch.
        let bad = [
            HEADER.to_string(),
            ev("H", "vals", 0, 1.0, Some(2)),
            ev("H", "vals", 0, 3.0, Some(8)),
            summary_ev(
                "vals",
                9.0,
                "{\"count\":3,\"sum\":12,\"min\":2,\"max\":8,\"p50\":3,\"p90\":8,\"p99\":8,\"buckets\":[[2,2],[4,3]]}",
            ),
        ]
        .join("\n");
        let err = replay_str(&bad).unwrap_err();
        assert!(err.msg.contains("disagrees"), "{}", err.msg);
    }

    #[test]
    fn rejects_malformed_summaries() {
        let cases = [
            // Descending bucket indices.
            "{\"count\":2,\"sum\":4,\"min\":1,\"max\":3,\"p50\":1,\"p90\":3,\"p99\":3,\"buckets\":[[2,1],[1,2]]}",
            // Non-monotonic cumulative counts.
            "{\"count\":2,\"sum\":4,\"min\":1,\"max\":3,\"p50\":1,\"p90\":3,\"p99\":3,\"buckets\":[[1,2],[2,2]]}",
            // Bucket total disagrees with count.
            "{\"count\":5,\"sum\":4,\"min\":1,\"max\":3,\"p50\":1,\"p90\":3,\"p99\":3,\"buckets\":[[1,1],[2,2]]}",
            // Bucket index out of range.
            "{\"count\":1,\"sum\":4,\"min\":1,\"max\":3,\"p50\":1,\"p90\":3,\"p99\":3,\"buckets\":[[65,1]]}",
            // Quantiles out of order.
            "{\"count\":2,\"sum\":4,\"min\":1,\"max\":3,\"p50\":3,\"p90\":1,\"p99\":3,\"buckets\":[[1,1],[2,2]]}",
            // Quantile outside [min, max].
            "{\"count\":2,\"sum\":4,\"min\":1,\"max\":3,\"p50\":1,\"p90\":3,\"p99\":9,\"buckets\":[[1,1],[2,2]]}",
            // min above max.
            "{\"count\":2,\"sum\":4,\"min\":5,\"max\":3,\"p50\":5,\"p90\":5,\"p99\":5,\"buckets\":[[1,1],[2,2]]}",
        ];
        for args in cases {
            let text = [HEADER.to_string(), summary_ev("h", 1.0, args)].join("\n");
            assert!(replay_str(&text).is_err(), "accepted malformed: {args}");
        }
    }

    #[test]
    fn rejects_fractional_h_values() {
        let text = [
            HEADER.to_string(),
            "{\"ph\":\"H\",\"name\":\"h\",\"pid\":1,\"tid\":0,\"ts\":1,\"args\":{\"value\":1.5}}"
                .to_string(),
        ]
        .join("\n");
        let err = replay_str(&text).unwrap_err();
        assert!(err.msg.contains("non-negative integer"), "{}", err.msg);
    }

    #[test]
    fn rejects_missing_schema_header() {
        let text = ev("B", "x", 0, 1.0, None);
        let err = replay_str(&text).unwrap_err();
        assert!(err.msg.contains("metadata"), "{}", err.msg);
    }

    #[test]
    fn rejects_wrong_schema() {
        let text = HEADER.replace("slopt-trace/1", "slopt-trace/0");
        assert!(replay_str(&text).is_err());
    }

    #[test]
    fn rejects_unbalanced_spans() {
        let text = [HEADER.to_string(), ev("B", "x", 0, 1.0, None)].join("\n");
        let err = replay_str(&text).unwrap_err();
        assert!(err.msg.contains("still open"), "{}", err.msg);
    }

    #[test]
    fn rejects_mismatched_end() {
        let text = [
            HEADER.to_string(),
            ev("B", "x", 0, 1.0, None),
            ev("E", "y", 0, 2.0, None),
        ]
        .join("\n");
        let err = replay_str(&text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("does not match"), "{}", err.msg);
    }

    #[test]
    fn spans_balance_independently_per_thread() {
        let text = [
            HEADER.to_string(),
            ev("B", "work", 1, 1.0, None),
            ev("B", "work", 2, 2.0, None),
            ev("E", "work", 1, 3.0, None),
            ev("E", "work", 2, 4.0, None),
        ]
        .join("\n");
        let s = replay_str(&text).unwrap();
        assert_eq!(s.spans["work"].count, 2);
        assert_eq!(s.tids, vec![0, 1, 2]);
        // Sibling stacks merge in the folded profile.
        assert!((s.folded["work"] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_c_event_without_value() {
        let text = [HEADER.to_string(), ev("C", "n", 0, 1.0, None)].join("\n");
        let err = replay_str(&text).unwrap_err();
        assert!(err.msg.contains("args.value"), "{}", err.msg);
    }

    #[test]
    fn rejects_empty_file_and_bad_json() {
        assert!(replay_str("").is_err());
        let text = [HEADER.to_string(), "{not json".to_string()].join("\n");
        assert!(lint_str(&text).is_err());
    }
}
