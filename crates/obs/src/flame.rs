//! Folded-stack (FlameGraph collapsed) export.
//!
//! Renders the [`crate::Summary::folded`] profile as one
//! line per distinct span stack — `outer;mid;leaf 412` — the input format
//! of Brendan Gregg's `flamegraph.pl` and of `inferno-flamegraph`, so any
//! `slopt-trace/1` file turns into a flamegraph with
//! `slopt-tool flame run.jsonl | flamegraph.pl > run.svg`.
//!
//! The value column is **self time in integer microseconds** (time spent
//! in the frame itself, excluding direct children), which is what makes
//! the rendered widths sum correctly instead of double-counting parents.
//! Lines are sorted by stack path, so two exports of the same trace are
//! byte-identical and two same-seed serial runs differ only in the value
//! column (timestamps are the one nondeterministic trace ingredient).

use crate::Summary;

/// Renders the folded-stack profile of a run, one
/// `path;to;frame <self_us>` line per stack, sorted by path.
///
/// Self time is rounded to whole microseconds; stacks that round to zero
/// are still emitted (with value 0) so the stack *structure* of a trace
/// is fully preserved for golden tests.
pub fn folded(summary: &Summary) -> String {
    let mut out = String::new();
    for (path, self_us) in &summary.folded {
        out.push_str(path);
        out.push(' ');
        out.push_str(&format!("{}", self_us.round() as u64));
        out.push('\n');
    }
    out
}

/// The stack paths alone (no values), one per line, sorted — the
/// timestamp-independent skeleton golden tests pin.
pub fn folded_stacks_only(summary: &Summary) -> String {
    let mut out = String::new();
    for path in summary.folded.keys() {
        out.push_str(path);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_str;

    const HEADER: &str = "{\"ph\":\"M\",\"name\":\"slopt_trace_schema\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"schema\":\"slopt-trace/1\"}}";

    fn ev(ph: &str, name: &str, ts: f64) -> String {
        format!("{{\"ph\":\"{ph}\",\"name\":\"{name}\",\"pid\":1,\"tid\":0,\"ts\":{ts}}}")
    }

    #[test]
    fn folds_nested_spans_with_self_time_values() {
        let text = [
            HEADER.to_string(),
            ev("B", "outer", 0.0),
            ev("B", "leaf", 2.0),
            ev("E", "leaf", 5.0),
            ev("E", "outer", 10.0),
        ]
        .join("\n");
        let s = replay_str(&text).unwrap();
        let got = folded(&s);
        assert_eq!(got, "outer 7\nouter;leaf 3\n");
        assert_eq!(folded_stacks_only(&s), "outer\nouter;leaf\n");
    }

    #[test]
    fn export_is_deterministic_for_a_fixed_summary() {
        let text = [
            HEADER.to_string(),
            ev("B", "b", 0.0),
            ev("E", "b", 1.0),
            ev("B", "a", 2.0),
            ev("E", "a", 3.0),
        ]
        .join("\n");
        let s = replay_str(&text).unwrap();
        // Sorted by path regardless of completion order.
        assert_eq!(folded(&s), "a 1\nb 1\n");
        assert_eq!(folded(&s), folded(&replay_str(&text).unwrap()));
    }
}
