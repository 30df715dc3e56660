//! Prometheus text-format exposition.
//!
//! [`to_prometheus`] renders a run's [`Summary`] — from a live handle or a
//! replayed trace, which are the same type — in the Prometheus
//! [text exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/):
//! `slopt-tool stats --prom` and the `slopt-serve` daemon's `/metrics`.
//! Histograms keep their exact log2 cumulative bucket counts, which map
//! 1:1 onto Prometheus `le` series.
//!
//! [`validate`] is the self-check CI pipes the exposition through: it
//! re-parses the rendered text and rejects undeclared samples, malformed
//! names, and non-monotonic histogram bucket series.

use std::collections::BTreeMap;

use crate::histogram::bucket_upper;
use crate::Summary;

/// All metric names are prefixed with this namespace in the exposition.
pub const NAMESPACE: &str = "slopt";

/// Maps an internal metric name (`cc.interval_cells`,
/// `span.measure_cell`) to a legal Prometheus name: the `slopt_`
/// namespace plus the name with every character outside
/// `[a-zA-Z0-9_:]` replaced by `_`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(NAMESPACE.len() + 1 + name.len());
    out.push_str(NAMESPACE);
    out.push('_');
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders the Prometheus text exposition of `s`'s counters, gauges and
/// histograms (span durations under `span.<name>`). Deterministic:
/// metrics are emitted in name order, one `# TYPE` comment per family.
pub fn to_prometheus(s: &Summary) -> String {
    let mut out = String::new();
    for (name, v) in s.metrics.counters() {
        let n = sanitize(name);
        out.push_str(&format!("# TYPE {n} counter\n"));
        out.push_str(&format!("{n} {}\n", fmt_value(v as f64)));
    }
    for (name, v) in s.metrics.gauges() {
        let n = sanitize(name);
        out.push_str(&format!("# TYPE {n} gauge\n"));
        out.push_str(&format!("{n} {}\n", fmt_value(v)));
    }
    for (name, h) in &s.hists {
        let n = sanitize(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        for (i, cum) in h.nonzero_buckets() {
            let upper = bucket_upper(i);
            out.push_str(&format!("{n}_bucket{{le=\"{upper}\"}} {cum}\n"));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
        out.push_str(&format!("{n}_sum {}\n", fmt_value(h.sum() as f64)));
        out.push_str(&format!("{n}_count {}\n", h.count()));
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Self-check for a rendered exposition: every sample's family must be
/// declared by a preceding `# TYPE`, names must be legal, values must
/// parse, and histogram bucket series must be monotonically
/// non-decreasing with `le` bounds ascending and `+Inf` last, its count
/// matching `_count`. Returns the number of samples on success.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // In-progress histogram bucket state: family -> (last le, last cum,
    // saw +Inf, +Inf count).
    let mut hist_state: BTreeMap<String, (Option<f64>, u64, Option<u64>)> = BTreeMap::new();
    let mut samples = 0usize;
    for (no, raw) in text.lines().enumerate() {
        let no = no + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(kind), None) = (it.next(), it.next(), it.next()) else {
                return Err(format!("line {no}: malformed # TYPE"));
            };
            if !valid_name(name) {
                return Err(format!("line {no}: illegal metric name '{name}'"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {no}: unknown metric type '{kind}'"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {no}: duplicate # TYPE for '{name}'"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free comment
        }
        let (sample, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {no}: sample without value"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {no}: unparsable value '{value}'"))?;
        let (name, labels) = match sample.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {no}: unterminated label set"))?;
                (n, Some(labels))
            }
            None => (sample, None),
        };
        if !valid_name(name) {
            return Err(format!("line {no}: illegal sample name '{name}'"));
        }
        // Resolve the family: histogram series use _bucket/_sum/_count.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name.strip_suffix(suf)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        let kind = types
            .get(family)
            .ok_or_else(|| format!("line {no}: sample '{name}' has no # TYPE declaration"))?;
        if kind == "histogram" && name.ends_with("_bucket") {
            let labels =
                labels.ok_or_else(|| format!("line {no}: histogram bucket without le label"))?;
            let le = labels
                .strip_prefix("le=\"")
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| format!("line {no}: histogram bucket without le label"))?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("line {no}: unparsable le bound '{le}'"))?
            };
            let cum = value as u64;
            let st = hist_state
                .entry(family.to_string())
                .or_insert((None, 0, None));
            if let Some(prev) = st.0 {
                if bound <= prev {
                    return Err(format!("line {no}: le bounds not ascending for '{family}'"));
                }
            }
            if cum < st.1 {
                return Err(format!(
                    "line {no}: bucket counts not monotonic for '{family}'"
                ));
            }
            st.0 = Some(bound);
            st.1 = cum;
            if bound.is_infinite() {
                st.2 = Some(cum);
            }
        } else if kind == "histogram" && name.ends_with("_count") {
            let st = hist_state
                .get(family)
                .ok_or_else(|| format!("line {no}: _count before buckets for '{family}'"))?;
            let inf =
                st.2.ok_or_else(|| format!("line {no}: histogram '{family}' missing +Inf bucket"))?;
            if value as u64 != inf {
                return Err(format!(
                    "line {no}: _count {} disagrees with +Inf bucket {} for '{family}'",
                    value as u64, inf
                ));
            }
        }
        samples += 1;
    }
    for (family, st) in &hist_state {
        if st.2.is_none() {
            return Err(format!("histogram '{family}' missing +Inf bucket"));
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, Obs};

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize("cc.interval_cells"), "slopt_cc_interval_cells");
        assert_eq!(sanitize("span.measure_cell"), "slopt_span_measure_cell");
        assert_eq!(sanitize("warn.shard-skipped"), "slopt_warn_shard_skipped");
    }

    #[test]
    fn renders_and_validates_a_live_summary() {
        let obs = Obs::with_sink(Box::new(MemorySink::new()));
        {
            let _g = obs.span("phase");
        }
        obs.counter("cc.pairs", 41);
        obs.gauge("runner.worker0.utilization", 0.75);
        obs.histogram("cc.interval_cells", 3);
        obs.histogram("cc.interval_cells", 900);
        let text = to_prometheus(&obs.summary());
        assert!(text.contains("# TYPE slopt_cc_pairs counter"));
        assert!(text.contains("slopt_cc_pairs 41"));
        assert!(text.contains("# TYPE slopt_runner_worker0_utilization gauge"));
        assert!(text.contains("slopt_runner_worker0_utilization 0.75"));
        assert!(text.contains("# TYPE slopt_cc_interval_cells histogram"));
        assert!(text.contains("slopt_cc_interval_cells_bucket{le=\"3\"} 1"));
        assert!(text.contains("slopt_cc_interval_cells_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("slopt_cc_interval_cells_count 2"));
        assert!(text.contains("slopt_span_phase_bucket"));
        let n = validate(&text).unwrap();
        assert!(n >= 8, "expected several samples, got {n}");
    }

    #[test]
    fn validate_rejects_malformed_expositions() {
        // Undeclared sample.
        assert!(validate("slopt_x 1\n").is_err());
        // Illegal name.
        assert!(validate("# TYPE 9bad counter\n9bad 1\n").is_err());
        // Unknown type keyword.
        assert!(validate("# TYPE slopt_x stuff\nslopt_x 1\n").is_err());
        // Non-monotonic buckets.
        let bad = "# TYPE slopt_h histogram\n\
                   slopt_h_bucket{le=\"1\"} 5\n\
                   slopt_h_bucket{le=\"2\"} 3\n\
                   slopt_h_bucket{le=\"+Inf\"} 5\n\
                   slopt_h_sum 9\nslopt_h_count 5\n";
        assert!(validate(bad).is_err());
        // le bounds must ascend.
        let bad = "# TYPE slopt_h histogram\n\
                   slopt_h_bucket{le=\"3\"} 1\n\
                   slopt_h_bucket{le=\"2\"} 2\n\
                   slopt_h_bucket{le=\"+Inf\"} 2\n";
        assert!(validate(bad).is_err());
        // Missing +Inf.
        let bad = "# TYPE slopt_h histogram\nslopt_h_bucket{le=\"2\"} 2\n";
        assert!(validate(bad).is_err());
        // _count disagreeing with +Inf.
        let bad = "# TYPE slopt_h histogram\n\
                   slopt_h_bucket{le=\"+Inf\"} 2\n\
                   slopt_h_count 3\n";
        assert!(validate(bad).is_err());
        // Unparsable value.
        assert!(validate("# TYPE slopt_x counter\nslopt_x abc\n").is_err());
    }

    #[test]
    fn empty_summary_renders_empty_and_validates() {
        let text = to_prometheus(&Summary::default());
        assert!(text.is_empty());
        assert_eq!(validate(&text).unwrap(), 0);
    }
}
