//! One run's result: metrics with their sample statistics, correctness
//! checks, the output digest, and the two renderings — the human lines
//! plus the final one-line JSON object, and the fuller `--out` file that
//! `compare` and the all-workload mode read.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// FNV-1a, 64-bit: the digest of every workload's output.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The FNV-1a digest of a text, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h = Fnv::new();
    h.eat(text.as_bytes());
    format!("{:016x}", h.finish())
}

/// One reported number with the statistics of the samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The reported value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// How many samples it summarizes (1 for a single reading).
    pub n: usize,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
}

impl Metric {
    /// A single reading (a count, a ratio, one timing).
    pub fn one(value: f64, unit: &str) -> Metric {
        Metric {
            value,
            unit: unit.to_string(),
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// The nearest-rank median of `samples`.
    pub fn median(samples: &[f64], unit: &str) -> Metric {
        Metric::with_value(stats::median(samples), samples, unit)
    }

    /// The tail statistic of `samples` (see [`stats::tail`]).
    pub fn tail(samples: &[f64], unit: &str) -> Metric {
        Metric::with_value(stats::tail(samples).1, samples, unit)
    }

    /// The nearest-rank `p`th percentile of `samples`.
    pub fn percentile(samples: &[f64], p: f64, unit: &str) -> Metric {
        Metric::with_value(stats::percentile(samples, p), samples, unit)
    }

    fn with_value(value: f64, samples: &[f64], unit: &str) -> Metric {
        let (q1, q3) = stats::quartiles(samples);
        Metric {
            value,
            unit: unit.to_string(),
            n: samples.len(),
            q1,
            q3,
        }
    }
}

/// Everything one runner process measured and checked.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: u64,
    /// Whether this was the traced (per-layer) pass.
    pub trace: bool,
    /// Smoke runs use minimal sizes and are not comparable.
    pub smoke: bool,
    /// Operations attempted (program runs, requests, library calls).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Named correctness checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// FNV digest of the workload's output.
    pub digest: Option<String>,
    /// The metrics `BENCHMARK.json` lists for this mode (end-to-end or
    /// per-layer).
    pub metrics: BTreeMap<String, Metric>,
    /// Further numbers printed for people, not listed in `BENCHMARK.json`.
    pub info: BTreeMap<String, Metric>,
}

impl RunReport {
    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("[benchmark] check FAILED: {}: {name}", self.workload);
        }
        self.checks.push((name.to_string(), ok));
    }

    /// True when at least one check ran and every check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Sets a listed metric.
    pub fn metric(&mut self, name: &str, m: Metric) {
        self.metrics.insert(name.to_string(), m);
    }

    /// Sets an informational number.
    pub fn info(&mut self, name: &str, m: Metric) {
        self.info.insert(name.to_string(), m);
    }

    /// The human-readable lines: one per metric and informational number
    /// as `workload metric value unit n=…`, then the checks.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        let label = if self.smoke {
            " (smoke: not comparable)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "# {} seed={} seconds={} trace={}{label}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace)
        );
        for (name, m) in self.metrics.iter().chain(self.info.iter()) {
            let _ = writeln!(
                out,
                "{} {name} {} {} n={}",
                self.workload, m.value, m.unit, m.n
            );
        }
        for (name, ok) in &self.checks {
            let _ = writeln!(
                out,
                "{} check {name} {}",
                self.workload,
                if *ok { "ok" } else { "FAILED" }
            );
        }
        out
    }

    /// The final stdout line: `correct`, `attempted`, `failed` and the
    /// listed metrics.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    json_num(m.value),
                    json_str(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// The `--out` document: the result plus sample statistics, info,
    /// checks and digest.
    pub fn to_json(&self) -> String {
        let table = |map: &BTreeMap<String, Metric>| {
            let rows: Vec<String> = map
                .iter()
                .map(|(name, m)| {
                    format!(
                        "{}:{{\"value\":{},\"unit\":{},\"n\":{},\"q1\":{},\"q3\":{}}}",
                        json_str(name),
                        json_num(m.value),
                        json_str(&m.unit),
                        m.n,
                        json_num(m.q1),
                        json_num(m.q3)
                    )
                })
                .collect();
            format!("{{{}}}", rows.join(","))
        };
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(name, ok)| format!("{}:{ok}", json_str(name)))
            .collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"digest\":{},\
             \"checks\":{{{}}},\"metrics\":{},\"info\":{}}}",
            json_str(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.smoke,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.digest.as_deref().map_or("null".to_string(), json_str),
            checks.join(","),
            table(&self.metrics),
            table(&self.info)
        )
    }
}

/// A JSON string literal (names and units here are plain ASCII, but
/// escape the two characters that could break the document anyway).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has.
/// Non-finite values cannot occur in a correct run; they render as 0 and
/// the caller's checks fail the run.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_four_keys() {
        let mut r = RunReport {
            workload: "figures".into(),
            attempted: 3,
            ..RunReport::default()
        };
        r.metric("latency_p50_ms", Metric::median(&[2.0, 1.0, 3.0], "ms"));
        r.check("tables", true);
        let line = r.result_line();
        let doc = slopt_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&slopt_obs::json::Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(3.0));
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("latency_p50_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("ms"));
        assert!(slopt_obs::json::parse(&r.to_json()).is_ok());
    }

    #[test]
    fn a_run_without_checks_is_not_correct() {
        let r = RunReport::default();
        assert!(!r.correct());
        assert_eq!(digest(""), "cbf29ce484222325");
    }
}
