//! `perf_guard` — the CI regression gate over `perf_report` output.
//!
//! Compares each bench in a freshly generated report against a committed
//! baseline report and exits nonzero if any bench regressed beyond the
//! tolerance. Used by `ci.sh` to assert that instrumentation (and
//! anything else) did not slow the hot paths down.
//!
//! **Regression gate.** One-sided — faster is always fine — allowing
//! `baseline * (1 + TOLERANCE) + FLOOR_S` seconds (10 % plus 0.05 s),
//! where the absolute floor absorbs scheduler noise on the sub-100 ms
//! `--quick` numbers.
//! When both reports carry `dense_trimmed_mean_s` (schema /3) the gate
//! compares trimmed means — per-rep and outlier-robust, so it survives a
//! rep-count change between baseline and fresh; older reports fall back
//! to `dense_serial_total_s`. Reads `slopt-perf-report/1` through `/7`
//! (schema /5 adds advisory `dense_p50_s` / `dense_p99_s` quantiles,
//! exact nearest-rank order statistics from /6 on, which the gate
//! ignores).
//!
//! **Growth floors.** Beyond no-regression, the gate can enforce that a
//! claimed win actually holds:
//!
//! * `--require-speedup name:min` — the fresh report's
//!   `speedup_vs_reference` for bench `name` must be ≥ `min`. When the
//!   bench carries a `delta_full_ratio` (schema /4, the `search_delta`
//!   bench) that field is floored instead — it is the per-proposal
//!   delta-vs-full cost ratio the floor is actually about, and it is
//!   measured serially, so it is never host-core-skipped.
//! * `--require-parallel name:min` — the fresh report's
//!   `parallel_speedup` for bench `name` must be ≥ `min`. Wall-clock
//!   parallel speedup above 1 is physically impossible when the host has
//!   fewer cores than workers, so this floor is only *enforced* when the
//!   fresh report's `host_cores` ≥ its `jobs`; on smaller hosts the
//!   check is reported and skipped with a note (the floor still runs on
//!   any adequately sized CI host).
//!
//! Both flags repeat. A bench named in a floor but absent from the fresh
//! report is an error. An unknown flag, or a flag without its value, is
//! a usage error (exit 2): a misspelt floor must not pass silently.
//!
//! Usage:
//! `perf_guard <fresh.json> --baseline <old.json>
//!  [--require-speedup cc:50]... [--require-parallel cc:3.0]...`

use slopt_bench::{extra_flag, usage_exit, CommonArgs};
use slopt_obs::json::{parse, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The registered flags, all of which take a value; the first bare
/// token is the fresh report path.
const EXTRAS: &[(&str, bool)] = &[
    ("--baseline", true),
    ("--require-speedup", true),
    ("--require-parallel", true),
];

/// Allowed relative growth over the baseline time.
const TOLERANCE: f64 = 0.10;

/// Allowed absolute growth over the baseline time, in seconds.
const FLOOR_S: f64 = 0.05;

/// All values of a repeatable `--flag name:min` argument.
fn floors(args: &[String], name: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for w in args.windows(2) {
        if w[0] != name {
            continue;
        }
        let (bench, min) = w[1]
            .split_once(':')
            .ok_or_else(|| format!("bad {name} `{}` (want name:min)", w[1]))?;
        let min: f64 = min
            .parse()
            .map_err(|_| format!("bad {name} `{}` (want name:min)", w[1]))?;
        out.push((bench.to_string(), min));
    }
    Ok(out)
}

/// Everything the gate needs from one perf report.
struct Report {
    /// `bench name -> dense_serial_total_s`.
    totals: BTreeMap<String, f64>,
    /// `bench name -> dense_trimmed_mean_s` (schema /3 reports only).
    trimmed: BTreeMap<String, f64>,
    /// `bench name -> speedup_vs_reference` where present.
    speedups: BTreeMap<String, f64>,
    /// `bench name -> delta_full_ratio` (schema /4) where present.
    delta_ratios: BTreeMap<String, f64>,
    /// `bench name -> (parallel_speedup, jobs)` where present.
    parallel: BTreeMap<String, (f64, f64)>,
    /// Top-level `host_cores` (schema /3); `None` on older reports.
    host_cores: Option<f64>,
}

fn read_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: missing schema field"))?;
    if !schema.starts_with("slopt-perf-report/") {
        return Err(format!("{path}: unexpected schema `{schema}`"));
    }
    let benches = doc
        .get("benches")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing benches array"))?;
    let mut report = Report {
        totals: BTreeMap::new(),
        trimmed: BTreeMap::new(),
        speedups: BTreeMap::new(),
        delta_ratios: BTreeMap::new(),
        parallel: BTreeMap::new(),
        host_cores: doc.get("host_cores").and_then(Json::as_f64),
    };
    for b in benches {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: bench without name"))?;
        let total = b
            .get("dense_serial_total_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: bench {name} without dense_serial_total_s"))?;
        report.totals.insert(name.to_string(), total);
        if let Some(tm) = b.get("dense_trimmed_mean_s").and_then(Json::as_f64) {
            report.trimmed.insert(name.to_string(), tm);
        }
        if let Some(s) = b.get("speedup_vs_reference").and_then(Json::as_f64) {
            report.speedups.insert(name.to_string(), s);
        }
        if let Some(r) = b.get("delta_full_ratio").and_then(Json::as_f64) {
            report.delta_ratios.insert(name.to_string(), r);
        }
        if let (Some(p), Some(j)) = (
            b.get("parallel_speedup").and_then(Json::as_f64),
            b.get("jobs").and_then(Json::as_f64),
        ) {
            report.parallel.insert(name.to_string(), (p, j));
        }
    }
    Ok(report)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    const USAGE: &str = "usage: perf_guard <fresh.json> --baseline <old.json>";
    let (positional, baseline_path) = CommonArgs::parse_positional(&args, EXTRAS)
        .and_then(|(_, positional)| Ok((positional, extra_flag::<String>(&args, "--baseline")?)))
        .unwrap_or_else(|e| usage_exit("perf_guard", &e));
    let fresh_path = positional.into_iter().next().ok_or(USAGE)?;
    let baseline_path = baseline_path.ok_or(USAGE)?;
    let require_speedup = floors(&args, "--require-speedup")?;
    let require_parallel = floors(&args, "--require-parallel")?;

    let fresh = read_report(&fresh_path)?;
    let baseline = read_report(&baseline_path)?;
    let mut failed = false;

    // Regression gate: trimmed means when both sides have them
    // (rep-count independent), totals otherwise.
    for (name, &base_total) in &baseline.totals {
        if !fresh.totals.contains_key(name) {
            eprintln!("[perf_guard] {name}: missing from {fresh_path}");
            failed = true;
            continue;
        }
        let (base, now, metric) = match (baseline.trimmed.get(name), fresh.trimmed.get(name)) {
            (Some(&b), Some(&n)) => (b, n, "trimmed mean"),
            _ => (base_total, fresh.totals[name], "total"),
        };
        let allowed = base * (1.0 + TOLERANCE) + FLOOR_S;
        let verdict = if now <= allowed { "ok" } else { "REGRESSED" };
        eprintln!(
            "[perf_guard] {name:<12} baseline {base:.4}s now {now:.4}s \
             (allowed <= {allowed:.4}s, {metric}) {verdict}"
        );
        if now > allowed {
            failed = true;
        }
    }

    // Speedup floors: the fresh report must beat its reference by the
    // stated factor. A bench carrying a `delta_full_ratio` is floored on
    // that field — the per-proposal cost ratio the floor is about.
    for (name, min) in &require_speedup {
        let (value, metric) = match (fresh.delta_ratios.get(name), fresh.speedups.get(name)) {
            (Some(&r), _) => (Some(r), "delta_full_ratio"),
            (None, s) => (s.copied(), "speedup_vs_reference"),
        };
        match value {
            Some(s) if s >= *min => {
                eprintln!("[perf_guard] {name:<12} {metric} {s:.3} >= {min:.3} ok");
            }
            Some(s) => {
                eprintln!("[perf_guard] {name:<12} {metric} {s:.3} < {min:.3} TOO SLOW");
                failed = true;
            }
            None => {
                eprintln!(
                    "[perf_guard] {name:<12} no speedup_vs_reference in {fresh_path} \
                     (bench missing)"
                );
                failed = true;
            }
        }
    }

    // Parallel floors: enforced only when the measuring host has at
    // least as many cores as the bench used workers — wall-clock speedup
    // beyond 1 is impossible below that, and gating on it would make the
    // gate fail on every small host regardless of the code.
    for (name, min) in &require_parallel {
        let Some(&(p, jobs)) = fresh.parallel.get(name) else {
            eprintln!("[perf_guard] {name:<12} no parallel_speedup in {fresh_path}");
            failed = true;
            continue;
        };
        let cores = fresh.host_cores.unwrap_or(0.0);
        if cores < jobs {
            eprintln!(
                "[perf_guard] {name:<12} parallel_speedup {p:.3} (floor {min:.3}) SKIPPED: \
                 host has {cores:.0} cores < {jobs:.0} jobs, wall-clock speedup not measurable"
            );
            continue;
        }
        if p >= *min {
            eprintln!("[perf_guard] {name:<12} parallel_speedup {p:.3} >= {min:.3} ok");
        } else {
            eprintln!("[perf_guard] {name:<12} parallel_speedup {p:.3} < {min:.3} TOO SLOW");
            failed = true;
        }
    }

    if failed {
        return Err("performance regression detected".into());
    }
    eprintln!("[perf_guard] all benches within tolerance");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perf_guard: {msg}");
            ExitCode::FAILURE
        }
    }
}
