//! `slopt-benchmark compare --parent a.json … --change b.json …`: the
//! verdict rule for a change against its parent, per (workload,
//! end-to-end metric).
//!
//! Files are runner `--out` documents (one run each) or all-workload
//! documents (`{"runs": [...]}`); only untraced runs count. Parent run
//! `i` and change run `i` of a workload form pair `i`, in the order the
//! files are given, so alternate the two sides when producing them.
//!
//! * **gain** — at least [`MIN_PAIRS`] pairs, the change wins at least
//!   nine tenths of them (ties count for neither), and the medians differ
//!   in the better direction by more than the parent's interquartile
//!   range;
//! * **unresolved** — the parent's own spread (IQR over median) exceeds
//!   the metric's bound, so "no regression" cannot be shown; reported as
//!   **better** instead when every change run beats every parent run;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **within** — none of the above.

use crate::stats::{python_median, quartiles};
use slopt_obs::json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Pairs a gain needs.
pub const MIN_PAIRS: usize = 10;

/// An end-to-end metric's declared direction and regression bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when smaller values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// One untraced run as `compare` sees it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Metric name → value.
    pub values: BTreeMap<String, f64>,
}

/// The verdict for one (workload, metric).
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// A shown improvement.
    Gain,
    /// Not shown either way, but every change run beats every parent run.
    Better,
    /// The parent's spread exceeds the bound.
    Unresolved,
    /// Worse than the bound allows.
    Regressed,
    /// No change beyond the bound.
    Within,
}

/// Reads the end-to-end bounds of a `BENCHMARK.json`.
pub fn bounds(spec: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Extracts the untraced runs from one result document.
pub fn runs_of(text: &str) -> Result<Vec<Run>, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let docs: Vec<&Json> = match doc.get("runs").and_then(Json::as_arr) {
        Some(list) => list.iter().collect(),
        None => vec![&doc],
    };
    let mut out = Vec::new();
    for d in docs {
        if d.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = d
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?
            .to_string();
        let mut values = BTreeMap::new();
        if let Some(Json::Obj(metrics)) = d.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values.insert(name.clone(), v);
                }
            }
        }
        out.push(Run { workload, values });
    }
    Ok(out)
}

/// How much better `change` is than `parent` in the metric's direction.
fn improvement(b: &Bound, parent: f64, change: f64) -> f64 {
    if b.lower_is_better {
        parent - change
    } else {
        change - parent
    }
}

/// The verdict for one metric over paired parent/change values, plus
/// the relative median change (change over parent, minus one) and the
/// number of pairs the change won.
pub fn verdict(b: &Bound, parent: &[f64], change: &[f64]) -> (Verdict, f64, usize) {
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| improvement(b, parent[i], change[i]) > 0.0)
        .count();
    let (pm, cm) = (python_median(parent), python_median(change));
    let rel = if pm == 0.0 { 0.0 } else { cm / pm - 1.0 };
    let (q1, q3) = quartiles(parent);
    let iqr = q3 - q1;
    let gain = improvement(b, pm, cm);
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > iqr {
        return (Verdict::Gain, rel, wins);
    }
    let spread = if pm == 0.0 { 0.0 } else { iqr / pm.abs() };
    if b.bound > 0.0 && spread > b.bound {
        let all_better = change
            .iter()
            .all(|&c| parent.iter().all(|&p| improvement(b, p, c) > 0.0));
        let v = if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
        return (v, rel, wins);
    }
    let worse = if pm == 0.0 { -gain } else { -gain / pm.abs() };
    if worse > b.bound {
        (Verdict::Regressed, rel, wins)
    } else {
        (Verdict::Within, rel, wins)
    }
}

/// Compares the change's runs against the parent's: one row per
/// workload. Returns the report and whether any metric regressed.
pub fn compare(bounds: &[Bound], parent: &[Run], change: &[Run]) -> (String, bool) {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort();
    workloads.dedup();
    let mut out = String::new();
    let mut regressed = false;
    for w in workloads {
        let side = |runs: &[Run], name: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == w)
                .filter_map(|r| r.values.get(name).copied())
                .collect()
        };
        let pairs = side(parent, "latency_p50_ms")
            .len()
            .min(side(change, "latency_p50_ms").len());
        let _ = write!(out, "{w} ({pairs} pairs):");
        for b in bounds {
            let (p, c) = (side(parent, &b.name), side(change, &b.name));
            if p.is_empty() || c.is_empty() {
                let _ = write!(out, " {}=missing", b.name);
                continue;
            }
            let (v, rel, wins) = verdict(b, &p, &c);
            regressed |= v == Verdict::Regressed;
            let label = format!("{v:?}").to_lowercase();
            let _ = write!(
                out,
                " {}={label}({:+.2}%, {wins}/{} wins)",
                b.name,
                rel * 100.0,
                p.len().min(c.len())
            );
        }
        out.push('\n');
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency_p50_ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn runs(workload: &str, values: &[f64]) -> Vec<Run> {
        values
            .iter()
            .map(|&v| Run {
                workload: workload.into(),
                values: [("latency_p50_ms".to_string(), v)].into_iter().collect(),
            })
            .collect()
    }

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0,
    ];

    #[test]
    fn a_clear_improvement_is_a_gain() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&lower(0.1), &PARENT, &change).0, Verdict::Gain);
    }

    #[test]
    fn nine_pairs_are_too_few_for_a_gain() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 0.8).collect();
        let (v, _, wins) = verdict(&lower(0.5), &PARENT[..9], &change[..9]);
        assert_eq!(wins, 9);
        assert_eq!(v, Verdict::Within);
    }

    #[test]
    fn eight_of_ten_wins_is_not_a_gain_and_ties_count_for_neither() {
        let mut change: Vec<f64> = PARENT.iter().map(|v| v * 0.8).collect();
        change[0] = PARENT[0]; // tie
        change[1] = PARENT[1] + 1.0; // loss
        let (v, _, wins) = verdict(&lower(0.1), &PARENT, &change);
        assert_eq!(wins, 8);
        assert_ne!(v, Verdict::Gain);
    }

    #[test]
    fn a_gap_inside_the_parent_iqr_is_not_a_gain() {
        // Wins every pair by a hair, but the gap is below the parent's
        // own spread.
        let change: Vec<f64> = PARENT.iter().map(|v| v - 0.01).collect();
        assert_eq!(verdict(&lower(0.1), &PARENT, &change).0, Verdict::Within);
    }

    #[test]
    fn worse_beyond_the_bound_regresses_and_within_it_does_not() {
        let worse: Vec<f64> = PARENT.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&lower(0.1), &PARENT, &worse).0, Verdict::Regressed);
        let slightly: Vec<f64> = PARENT.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&lower(0.1), &PARENT, &slightly).0, Verdict::Within);
        // Higher-is-better metrics regress downwards.
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.1)
        };
        let fewer: Vec<f64> = PARENT.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&higher, &PARENT, &fewer).0, Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let same = noisy;
        assert_eq!(verdict(&lower(0.1), &noisy, &same).0, Verdict::Unresolved);
        let far: Vec<f64> = vec![40.0; 5];
        assert_eq!(verdict(&lower(0.1), &noisy[..5], &far).0, Verdict::Better);
    }

    #[test]
    fn compare_prints_one_row_per_workload_and_flags_regressions() {
        let mut parent = runs("figures", &PARENT);
        parent.extend(runs("search", &PARENT));
        let mut change = runs("figures", &PARENT);
        change.extend(runs(
            "search",
            &PARENT.iter().map(|v| v * 1.3).collect::<Vec<_>>(),
        ));
        let (text, regressed) = compare(&[lower(0.1)], &parent, &change);
        assert!(regressed);
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("figures (10 pairs):") && rows[0].contains("=within("));
        assert!(rows[1].starts_with("search (10 pairs):") && rows[1].contains("=regressed("));
    }

    #[test]
    fn documents_and_bounds_parse() {
        let doc = r#"{"runs":[
            {"workload":"ingest","trace":false,"metrics":{"latency_p50_ms":{"value":4.5,"unit":"ms"}}},
            {"workload":"ingest","trace":true,"metrics":{"trace.wall_ms":{"value":9,"unit":"ms"}}}]}"#;
        let r = runs_of(doc).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].values["latency_p50_ms"], 4.5);
        let spec =
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#;
        let b = bounds(spec).unwrap();
        assert_eq!(b[0].name, "setup_s");
        assert!(b[0].lower_is_better);
        assert_eq!(b[0].bound, 0.25);
    }
}
