//! `slopt-benchmark`: the end-to-end benchmark of slopt.
//!
//! ```text
//! slopt-benchmark --workload W --seed N [--seconds S] [--trace 0|1] [--out F] [--smoke]
//! slopt-benchmark --seed N [--seconds S] [--out F] [--smoke]
//! slopt-benchmark compare --parent A.json… --change B.json… [--spec BENCHMARK.json]
//! ```
//!
//! With `--workload`, one runner process measures one workload: with
//! `--trace 0` the release binaries (`slopt-tool`, `slopt-serve`) run as
//! child processes with tracing off and the end-to-end metrics are
//! reported; with `--trace 1` a traced pass calls the layers' public
//! functions directly and reports the per-layer split. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! Without `--workload`, every workload runs untraced and traced, each in
//! its own runner process, and the run exits non-zero if any check
//! fails. `benchmark/run.sh` builds everything first and is the command
//! to use.

mod compare;
mod figures;
mod gen;
mod load;
mod proc;
mod report;
mod search;
mod serve;
mod stats;
mod trace;

use report::{Metric, RunReport};
use slopt_obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["figures", "search", "ingest", "advise"];

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports each of them. Timings are
/// measured on every workload; a count, ratio or share of a layer a
/// workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("trace.wall_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.worker_util", "ratio"),
    ("sim.self_ms", "ms"),
    ("sample.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("workload.self_ms", "ms"),
    ("search.share_pct", "%"),
    ("serve.share_pct", "%"),
    ("sim.ns_per_access", "ns"),
    ("sim.runs", "count"),
    ("sim.accesses", "count"),
    ("sim.steps", "count"),
    ("sim.makespan_mcycles", "Mcycles"),
    ("sim.coherence_misses", "count"),
    ("sim.false_sharing_misses", "count"),
    ("sim.invalidations", "count"),
    ("sim.unique_run_ratio", "ratio"),
    ("sample.samples", "count"),
    ("sample.cc_pairs", "count"),
    ("sample.retained_samples", "count"),
    ("sample.evicted_samples", "count"),
    ("sample.late_dropped", "count"),
    ("search.proposals", "count"),
    ("search.accept_ratio", "ratio"),
    ("serve.batches", "count"),
    ("serve.journal_bytes", "bytes"),
];

const TIME_UNITS: [&str; 4] = ["s", "ms", "us", "ns"];

/// One runner's settings.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    /// Minimal sizes, for the benchmark's own CI; not comparable.
    pub smoke: bool,
    /// Scratch directory of this runner, removed when it ends.
    pub work: PathBuf,
}

impl Ctx {
    /// Reps of a run that repeats one timed operation: as many operations
    /// of nominal length `nominal_s` as `--seconds` holds, at least
    /// `min_reps` (one in a smoke run). The count is fixed per setting,
    /// not by elapsed time, so the tail percentile (which depends on the
    /// sample count) is the same percentile on every run and both sides
    /// of a comparison time the same work.
    pub fn reps(&self, nominal_s: f64, min_reps: usize) -> usize {
        if self.smoke {
            1
        } else {
            ((self.seconds as f64 / nominal_s).round() as usize).max(min_reps)
        }
    }
}

/// The benchmark's directory: `SLOPT_BENCH_DIR` (set by `run.sh`), else
/// `benchmark` under the current directory.
fn bench_dir() -> PathBuf {
    std::env::var_os("SLOPT_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark"))
}

/// Set-up of the CLI workloads: runs `slopt-tool args` several times and
/// reports the median wall time as `setup_s`.
pub fn cli_setup(ctx: &Ctx, r: &mut RunReport, args: &[&str]) -> Result<(), String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let reps = if ctx.smoke { 1 } else { 15 };
    let mut walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        r.attempted += 1;
        let (wall, out) = proc::run_timed("slopt-tool", &args)?;
        if out.trim().is_empty() {
            return Err(format!("slopt-tool {} printed nothing", args.join(" ")));
        }
        walls.push(wall.as_secs_f64());
    }
    r.metric("setup_s", Metric::median(&walls, "s"));
    Ok(())
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` ({})", WORKLOADS.join(", ")));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = Some(number(value()?)?),
            "--seconds" => a.seconds = Some(number(value()?)?.max(1)),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// The `run_seconds` of `BENCHMARK.json`, the default run length.
fn default_seconds() -> u64 {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| slopt_obs::json::parse(&t).ok())
        .and_then(|d| d.get("run_seconds")?.as_f64())
        .map_or(20, |s| s as u64)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return run_compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slopt-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(seed) = args.seed else {
        eprintln!("slopt-benchmark: --seed N is required");
        return ExitCode::from(2);
    };
    let seconds = args.seconds.unwrap_or_else(default_seconds);
    match &args.workload {
        Some(w) => run_one(
            w,
            seed,
            seconds,
            args.trace,
            args.smoke,
            args.out.as_deref(),
        ),
        None => run_all(seed, seconds, args.smoke, args.out.as_deref()),
    }
}

/// One runner process: one workload, untraced or traced.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<&Path>,
) -> ExitCode {
    let work = bench_dir().join("work").join(format!(
        "{workload}-s{seed}-t{}-{}",
        u8::from(trace),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("slopt-benchmark: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        seconds,
        smoke,
        work,
    };
    let mut r = RunReport {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        smoke,
        ..RunReport::default()
    };
    let result = match (workload, trace) {
        ("figures", false) => figures::run(&ctx, &mut r),
        ("figures", true) => figures::run_traced(&ctx, &mut r),
        ("search", false) => search::run(&ctx, &mut r),
        ("search", true) => search::run_traced(&ctx, &mut r),
        ("ingest", false) => serve::run(&ctx, &mut r, serve::Kind::Ingest),
        ("ingest", true) => serve::run_traced(&ctx, &mut r, serve::Kind::Ingest),
        ("advise", false) => serve::run(&ctx, &mut r, serve::Kind::Advise),
        (_, _) => serve::run_traced(&ctx, &mut r, serve::Kind::Advise),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = result {
        eprintln!("slopt-benchmark: {workload}: {e}");
        return ExitCode::FAILURE;
    }
    if !trace && !r.metrics.contains_key("peak_rss_mb") {
        r.metric(
            "peak_rss_mb",
            Metric::one(proc::children_peak_rss_mb(), "MB"),
        );
    }
    complete_metrics(&mut r);
    print!("{}", r.lines());
    check_digest(&r);
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, r.to_json()) {
            eprintln!("slopt-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", r.result_line());
    ExitCode::SUCCESS
}

/// Makes the reported set exactly the one `BENCHMARK.json` lists: a
/// missing timing is a failed check (it must be measured), a missing
/// count, ratio or share of an unused layer is 0, and anything else moves
/// to the informational numbers.
fn complete_metrics(r: &mut RunReport) {
    let list: &[(&str, &str)] = if r.trace { &PER_LAYER } else { &END_TO_END };
    let mut bad = Vec::new();
    for &(name, unit) in list {
        match r.metrics.get(name) {
            Some(m) if m.unit == unit && m.value.is_finite() => {}
            Some(_) => bad.push(name),
            None if TIME_UNITS.contains(&unit) => bad.push(name),
            None => r.metric(name, Metric::one(0.0, unit)),
        }
    }
    if !bad.is_empty() {
        eprintln!("[benchmark] not measured or wrong unit: {}", bad.join(", "));
    }
    r.check("every listed metric reported in its unit", bad.is_empty());
    let extra: Vec<String> = r
        .metrics
        .keys()
        .filter(|k| !list.iter().any(|(n, _)| n == k))
        .cloned()
        .collect();
    for name in extra {
        let m = r.metrics.remove(&name).expect("listed key");
        r.info(&name, m);
    }
}

/// Compares the output digest with the expected one recorded in
/// `benchmark/baseline.json`. A mismatch is loud but not a failure: an
/// algorithm change moves the digest on purpose; a pure speed-up must not.
fn check_digest(r: &RunReport) {
    let Some(got) = r.digest.as_deref() else {
        return;
    };
    if r.smoke {
        return;
    }
    let key = match r.workload.as_str() {
        "figures" => "any".to_string(),
        "search" => format!("seed={}", r.seed),
        _ => format!("seed={},seconds={}", r.seed, r.seconds),
    };
    let expected = std::fs::read_to_string(bench_dir().join("baseline.json"))
        .ok()
        .and_then(|t| slopt_obs::json::parse(&t).ok())
        .and_then(|d| {
            d.get("expected_digest")?
                .get(&r.workload)?
                .get(&key)?
                .as_str()
                .map(String::from)
        });
    match expected {
        Some(want) if want == got => println!("{} digest {got} matches ({key})", r.workload),
        Some(want) => {
            println!(
                "{} digest {got} DIFFERS from expected {want} ({key}): outputs changed",
                r.workload
            );
            eprintln!(
                "[benchmark] WARNING: {} output digest changed ({key}): {want} -> {got}",
                r.workload
            );
        }
        None => println!("{} digest {got} (no expected digest for {key})", r.workload),
    }
}

/// Every workload, untraced then traced, each in its own runner process.
fn run_all(seed: u64, seconds: u64, smoke: bool, out: Option<&Path>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("slopt-benchmark: cannot find myself: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = bench_dir().join("work");
    let _ = std::fs::create_dir_all(&work);
    let t0 = std::time::Instant::now();
    let mut docs: Vec<String> = Vec::new();
    let mut runs: Vec<Json> = Vec::new();
    let mut ok = true;
    let mut walls: Vec<(String, Duration)> = Vec::new();
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let file = work.join(format!("all-{w}-{trace}-{}.json", std::process::id()));
            let started = std::time::Instant::now();
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .arg("--out")
                .arg(&file);
            if smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status();
            walls.push((format!("{w}/trace={trace}"), started.elapsed()));
            match (status, std::fs::read_to_string(&file)) {
                (Ok(s), Ok(doc)) if s.success() => {
                    let parsed = slopt_obs::json::parse(&doc).unwrap_or(Json::Null);
                    ok &= parsed.get("correct") == Some(&Json::Bool(true));
                    runs.push(parsed);
                    docs.push(doc);
                }
                (status, _) => {
                    eprintln!("slopt-benchmark: runner {w} trace={trace} failed: {status:?}");
                    ok = false;
                }
            }
            let _ = std::fs::remove_file(&file);
        }
    }
    for (name, wall) in &walls {
        println!("wall {name} {:.1} s", wall.as_secs_f64());
    }
    println!("wall total {:.1} s", t0.elapsed().as_secs_f64());
    if let Some(line) = transport_share(&runs) {
        println!("{line}");
    }
    if smoke {
        ok &= smoke_assertions(&runs);
        println!("smoke run: minimal sizes, numbers are not comparable");
    }
    if let Some(path) = out {
        let body = format!(
            "{{\"seed\":{seed},\"seconds\":{seconds},\"smoke\":{smoke},\"runs\":[{}]}}\n",
            docs.join(",")
        );
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("slopt-benchmark: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        println!("all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("CHECKS FAILED");
        ExitCode::FAILURE
    }
}

/// The run document of `workload` with the given trace flag.
fn find_run<'a>(runs: &'a [Json], workload: &str, trace: bool) -> Option<&'a Json> {
    runs.iter().find(|d| {
        d.get("workload").and_then(Json::as_str) == Some(workload)
            && d.get("trace") == Some(&Json::Bool(trace))
    })
}

/// The value of `section.name` in the run document of `workload` with
/// the given trace flag.
fn run_value(runs: &[Json], workload: &str, trace: bool, section: &str, name: &str) -> Option<f64> {
    find_run(runs, workload, trace)?
        .get(section)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// `serve.transport_ms_p50`: the INGEST ack median (live daemon) minus
/// the decode and journaled-apply medians (traced replay) — the part of
/// an ack spent outside the daemon's ingest code — and its share.
fn transport_share(runs: &[Json]) -> Option<String> {
    let ack = run_value(runs, "ingest", false, "info", "serve.ack_ms_p50")?;
    let apply = run_value(runs, "ingest", true, "info", "serve.apply_us_p50")?;
    let decode = run_value(runs, "ingest", true, "info", "serve.decode_us_p50")?;
    let transport = ack - (apply + decode) / 1e3;
    Some(format!(
        "ingest serve.transport_ms_p50 {transport} ms n=1\n\
         ingest serve.transport_share_of_ack_pct {} % n=1",
        transport / ack * 100.0
    ))
}

/// The smoke run's own checks: every metric `BENCHMARK.json` names
/// was emitted by every run of its kind with the declared unit.
fn smoke_assertions(runs: &[Json]) -> bool {
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| slopt_obs::json::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke: cannot read BENCHMARK.json: {e}");
            return false;
        }
    };
    let mut ok = runs.len() == 2 * WORKLOADS.len();
    for (list, trace) in [("end_to_end", false), ("per_layer", true)] {
        for m in spec.get(list).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            for w in WORKLOADS {
                let emitted = find_run(runs, w, trace).and_then(|d| {
                    d.get("metrics")?
                        .get(name)?
                        .get("unit")?
                        .as_str()
                        .map(|u| u == unit)
                });
                if emitted != Some(true) {
                    eprintln!("smoke: {w} does not emit {name} in {unit}");
                    ok = false;
                }
            }
        }
    }
    ok
}

fn run_compare(argv: &[String]) -> ExitCode {
    let (mut parent, mut change, mut spec) = (Vec::new(), Vec::new(), "BENCHMARK.json".to_string());
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            "--spec" => match it.next() {
                Some(s) => spec = s.clone(),
                None => {
                    eprintln!("compare: --spec needs a path");
                    return ExitCode::from(2);
                }
            },
            file if !file.starts_with("--") => match side.as_mut() {
                Some(list) => list.push(file.to_string()),
                None => {
                    eprintln!("compare: `{file}` given before --parent/--change");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("compare: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let load = |files: &[String]| -> Result<Vec<compare::Run>, String> {
        let mut runs = Vec::new();
        for f in files {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            runs.extend(compare::runs_of(&text).map_err(|e| format!("{f}: {e}"))?);
        }
        Ok(runs)
    };
    let result = (|| {
        let bounds =
            compare::bounds(&std::fs::read_to_string(&spec).map_err(|e| format!("{spec}: {e}"))?)?;
        Ok::<_, String>((bounds, load(&parent)?, load(&change)?))
    })();
    match result {
        Ok((bounds, p, c)) => {
            let (text, regressed) = compare::compare(&bounds, &p, &c);
            print!("{text}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_counts_are_fixed_by_the_settings() {
        let ctx = |seconds, smoke| Ctx {
            seed: 1,
            seconds,
            smoke,
            work: PathBuf::new(),
        };
        assert_eq!(ctx(20, false).reps(10.0, 2), 2);
        assert_eq!(ctx(20, false).reps(0.8, 3), 25);
        assert_eq!(ctx(1, false).reps(0.8, 3), 3);
        assert_eq!(ctx(20, true).reps(0.8, 3), 1);
    }
}
