//! Replay and validation of saved `slopt-trace/1` files.
//!
//! [`replay_str`] feeds every line of a trace through the same fold the
//! live handle runs ([`crate::summary`]), so it recovers the same
//! [`Summary`] — counters, gauges, span timings with self time,
//! histograms and folded stacks — that `--stats` prints, and
//! `slopt-tool stats <file>` can inspect a run without re-executing it.
//!
//! Replay is also the strict validator ([`lint_str`] is replay with the
//! summary discarded). It understands every phase the trace sink writes
//! — `M`/`B`/`E`/`C` plus the profiling phases `H` (one histogram
//! observation) and `S` (end-of-run histogram summary) — and rejects
//! malformed histogram payloads (out-of-range or descending bucket
//! indices, non-increasing cumulative counts, min/max outside the end
//! buckets, a count or quantile the buckets do not imply, summaries
//! inconsistent with the `H` stream) instead of silently passing them.

use std::fmt;

use crate::histogram::{HistSummary, Histogram};
use crate::json::{parse, Json};
use crate::summary::{Fold, Summary};
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

/// One parsed trace line, validated.
struct Line {
    ph: char,
    name: String,
    tid: u64,
    ts: f64,
    value: Option<f64>,
    gauge: bool,
    hist: Option<Histogram>,
}

/// `n` as a `u64`, when it is a non-negative integer.
fn whole(n: f64) -> Option<u64> {
    (n.is_finite() && n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

fn whole_arg(args: &Json, field: &str) -> Result<u64, String> {
    args.get(field)
        .and_then(Json::as_f64)
        .and_then(whole)
        .ok_or_else(|| format!("S event args.{field} is not a non-negative integer"))
}

/// Rebuilds the histogram an `S` event summarizes. Its buckets, min, max
/// and sum must form a well-formed histogram
/// ([`Histogram::from_cumulative_buckets`]), and its count and quantiles
/// must be the ones that histogram has.
fn summary_hist(args: &Json) -> Result<Histogram, String> {
    let raw = args
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("S event missing array args.buckets")?;
    let mut pairs = Vec::with_capacity(raw.len());
    for pair in raw {
        let Some([idx, cum]) = pair.as_arr() else {
            return Err("bucket entry is not a 2-array".to_string());
        };
        match (idx.as_f64().and_then(whole), cum.as_f64().and_then(whole)) {
            (Some(idx), Some(cum)) => pairs.push((usize::try_from(idx).unwrap_or(usize::MAX), cum)),
            _ => return Err("bucket entry is not a pair of non-negative integers".to_string()),
        }
    }
    let (min, max, sum) = (
        whole_arg(args, "min")?,
        whole_arg(args, "max")?,
        whole_arg(args, "sum")?,
    );
    let h = Histogram::from_cumulative_buckets(&pairs, min, max, sum).ok_or(
        "malformed buckets (index out of range or not ascending, cumulative counts not \
         increasing, or min/max outside the end buckets)",
    )?;
    let wire = HistSummary {
        count: whole_arg(args, "count")?,
        sum,
        min,
        max,
        p50: whole_arg(args, "p50")?,
        p90: whole_arg(args, "p90")?,
        p99: whole_arg(args, "p99")?,
    };
    if wire != h.summary() {
        return Err(format!(
            "summary {wire:?} is not what its buckets imply ({:?})",
            h.summary()
        ));
    }
    Ok(h)
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
        'C' | 'H' => Some(
            v.get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| fail(&format!("{ph} event missing numeric args.value")))?,
        ),
        _ => None,
    };
    let gauge = ph == 'C'
        && v.get("args")
            .and_then(|a| a.get("gauge"))
            .map(|g| *g == Json::Bool(true))
            .unwrap_or(false);
    // Counters and histogram observations are u64 on the live side.
    if (ph == 'H' || (ph == 'C' && !gauge)) && value.and_then(whole).is_none() {
        return Err(fail(&format!(
            "{ph} event args.value is not a non-negative integer"
        )));
    }
    let hist = if ph == 'S' {
        let args = v.get("args").ok_or_else(|| fail("S event missing args"))?;
        Some(summary_hist(args).map_err(|e| fail(&e))?)
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

/// Validates and folds a trace held in memory into its [`Summary`].
///
/// Enforces, per line: valid JSON with `ph`/`name`/`pid`/`tid`/`ts`
/// fields, a known phase, an integral `args.value` on counter and `H`
/// events (any number on gauges), and a well-formed summary payload on
/// `S` events. Enforces across lines: line 1 is the `slopt-trace/1`
/// metadata event, span B/E events are properly nested (LIFO, matching
/// names) and balanced on every thread by end of file, and every `S`
/// summary equals the histogram the `H` observations of the same name
/// add up to.
pub fn replay_str(text: &str) -> Result<Summary, TraceError> {
    let mut fold = Fold::default();
    let mut no = 0usize;
    for raw in text.lines() {
        no += 1;
        let Line {
            ph,
            name,
            tid,
            ts,
            value,
            gauge,
            hist,
        } = check_line(no, raw)?;
        let at = |msg: String| TraceError { line: no, msg };
        let value = value.unwrap_or(0.0);
        match ph {
            'M' => {}
            _ if no == 1 => {
                return Err(at(format!(
                    "first line must be the schema metadata event, got '{ph}'"
                )))
            }
            'B' => fold.begin(tid, &name, ts),
            'E' => fold.end(tid, &name, ts).map_err(at)?,
            'C' if gauge => fold.gauge(&name, value),
            'C' => fold.counter(&name, value as u64),
            'H' => fold.record(&name, value as u64),
            _ => fold
                .hist_summary(&name, hist.unwrap_or_default())
                .map_err(at)?,
        }
    }
    if no == 0 {
        return Err(TraceError {
            line: 0,
            msg: "empty trace file".to_string(),
        });
    }
    if let Some((tid, name)) = fold.open_span() {
        return Err(TraceError {
            line: no,
            msg: format!("span '{name}' still open on tid {tid} at end of trace"),
        });
    }
    Ok(fold.summary)
}

/// Strict validation only (same checks as [`replay_str`], summary
/// discarded). Returns the number of event lines checked.
pub fn lint_str(text: &str) -> Result<usize, TraceError> {
    replay_str(text).map(|_| text.lines().count())
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
        assert_eq!(lint_str(&text).unwrap(), 7);
        let s = replay_str(&text).unwrap();
        assert_eq!(s.metrics.counter("n"), 7);
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
        assert_eq!(s.metrics.counter("n"), 3);
        assert!(s.metrics.counters().all(|(n, _)| n != "util"));
        assert_eq!(s.metrics.gauge("util"), Some(0.5));
    }

    #[test]
    fn replays_histograms_and_checks_summary_consistency() {
        let good = summary_ev(
            "vals",
            9.0,
            "{\"count\":3,\"sum\":13,\"min\":2,\"max\":8,\"p50\":3,\"p90\":8,\"p99\":8,\"buckets\":[[2,2],[4,3]]}",
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
        assert_eq!(h.count(), 3);
        assert_eq!((h.min(), h.max(), h.sum(), h.quantile(0.99)), (2, 8, 13, 8));
        assert_eq!(h.nonzero_buckets(), vec![(2, 2), (4, 3)]);
        assert!(s.to_string().contains("vals"));

        // Same S payload but only two H events -> bucket mismatch.
        let bad = [
            HEADER.to_string(),
            ev("H", "vals", 0, 1.0, Some(2)),
            ev("H", "vals", 0, 3.0, Some(8)),
            summary_ev(
                "vals",
                9.0,
                "{\"count\":3,\"sum\":13,\"min\":2,\"max\":8,\"p50\":3,\"p90\":8,\"p99\":8,\"buckets\":[[2,2],[4,3]]}",
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
            // Ordered and inside [min, max], but not the buckets' median.
            "{\"count\":2,\"sum\":4,\"min\":1,\"max\":3,\"p50\":2,\"p90\":3,\"p99\":3,\"buckets\":[[1,1],[2,2]]}",
            // min outside the first non-empty bucket.
            "{\"count\":2,\"sum\":4,\"min\":0,\"max\":3,\"p50\":1,\"p90\":3,\"p99\":3,\"buckets\":[[1,1],[2,2]]}",
            // An empty summary with a non-zero quantile.
            "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"p50\":1,\"p90\":0,\"p99\":0,\"buckets\":[]}",
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
        assert_eq!(s.thread_spans["work"][&2].total_us, 2.0);
        assert_eq!(
            s.thread_spans["work"].keys().copied().collect::<Vec<_>>(),
            vec![1, 2]
        );
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
