//! ExecCtx capability-matrix conformance suite — the zero-behavior-change
//! proof for the unified execution path.
//!
//! The lattice: {obs off/on} × {checkpoint off/on} × {fault
//! none/transient/permanent} × jobs {1, 4} = 24 points. Every point runs
//! the same miniature measurement grid through the one
//! [`slopt_bench::measure_cells`] path and is held to the pre-refactor
//! contract:
//!
//! * fault-free and transient points are **bit-identical** to the bare
//!   `jobs = 1` reference — capabilities compose without perturbing the
//!   numbers, and transient chaos is invisible;
//! * permanent points hole exactly the same grid-indexed cells at every
//!   point of the permanent plane, the surviving cells stay
//!   bit-identical to the reference, and the shared degraded decision
//!   ([`slopt_bench::resolve`]) maps to exit code 4;
//! * obs-on points write traces whose structural content (span counts,
//!   counters, warnings, histogram totals) is identical for `jobs = 1`
//!   and `jobs = 4` at the same capability combination, via
//!   [`slopt::obs::replay::structural_deltas`];
//! * checkpoint-on points converge bit-identically after the item log is
//!   truncated mid-stream (torn tail included) and the run resumes.

use slopt::ir::SupervisePolicy;
use slopt::obs::replay::{replay_str, structural_deltas, ReplaySummary};
use slopt::obs::Obs;
use slopt::sim::CacheConfig;
use slopt::workload::{baseline_layouts, build_kernel, Kernel, Machine, SdetConfig};
use slopt_bench::{
    measure_cells, resolve, Cell, CheckpointSpec, ExecCtx, FaultConfig, GridOutcome,
};
use slopt_fault::{exit, FaultPlan};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const NAME: &str = "matrix";
const RUNS: usize = 2;
/// Invisible under supervision: every firing is retryable and the retry
/// budget covers the worst streak this seed produces.
const TRANSIENT_PLAN: &str = "seed=7,transient=0.5,panic=0.2";
/// Holes part of the grid deterministically (by grid index).
const PERMANENT_PLAN: &str = "seed=5,permanent=0.4,transient=0.3";

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Fault {
    None,
    Transient,
    Permanent,
}

const FAULTS: [Fault; 3] = [Fault::None, Fault::Transient, Fault::Permanent];

fn small_cfg() -> SdetConfig {
    SdetConfig {
        scripts_per_cpu: 4,
        invocations_per_script: 6,
        pool_instances: 32,
        cache: CacheConfig {
            line_size: 128,
            sets: 64,
            ways: 4,
        },
        ..SdetConfig::default()
    }
}

fn small_cells(kernel: &Kernel, n: usize) -> Vec<Cell> {
    let cfg = small_cfg();
    (0..n)
        .map(|i| Cell {
            label: format!("cell{i}"),
            table: baseline_layouts(kernel, cfg.line_size),
            sdet: cfg.clone(),
            machine: Machine::bus(2),
        })
        .collect()
}

fn fault_cfg(fault: Fault) -> Option<FaultConfig> {
    let (spec, retries) = match fault {
        Fault::None => return None,
        Fault::Transient => (TRANSIENT_PLAN, 16),
        Fault::Permanent => (PERMANENT_PLAN, 4),
    };
    Some(FaultConfig {
        plan: FaultPlan::parse(spec).expect(spec),
        policy: SupervisePolicy {
            max_retries: retries,
            deadline: None,
            ..SupervisePolicy::default()
        },
    })
}

/// Per-cell measurement fingerprint: every run value plus the trimmed
/// mean, as raw bits. `None` marks a hole.
type Bits = Vec<Option<Vec<u64>>>;

fn bits_of(outcome: &GridOutcome) -> Bits {
    outcome
        .measured
        .iter()
        .map(|m| {
            m.as_ref().map(|t| {
                let mut b = vec![t.mean.to_bits()];
                b.extend(t.runs.iter().map(|v| v.to_bits()));
                b
            })
        })
        .collect()
}

struct PointResult {
    bits: Bits,
    degraded: bool,
    /// The replayed trace, when the point ran with obs on.
    summary: Option<ReplaySummary>,
}

/// Runs one lattice point over its own ExecCtx and returns the
/// measurement fingerprint (plus the replayed trace under obs).
fn run_point(
    kernel: &Kernel,
    cells: &[Cell],
    trace_path: Option<&Path>,
    ckpt: Option<CheckpointSpec>,
    fault: Fault,
    jobs: usize,
) -> PointResult {
    let mut ctx = ExecCtx::bare(jobs);
    if let Some(path) = trace_path {
        ctx = ctx.with_obs(Obs::to_trace_file(path).expect("trace sink"));
    }
    if let Some(spec) = ckpt {
        ctx = ctx.with_checkpoint(spec);
    }
    if let Some(fc) = fault_cfg(fault) {
        ctx = ctx.with_fault(fc);
    }
    let outcome = measure_cells(&ctx, NAME, kernel, cells, RUNS).expect("measure_cells");
    ctx.finish().expect("trace written");
    let summary = trace_path.map(|path| {
        let text = std::fs::read_to_string(path).expect("trace file");
        replay_str(&text).expect("valid trace")
    });

    // The shared complete-vs-degraded decision, exactly as the bins take
    // it: permanent holes must resolve to the degraded exit code,
    // anything else resolves complete.
    let labeled: Vec<(String, Option<_>)> = cells
        .iter()
        .map(|c| c.label.clone())
        .zip(outcome.measured.iter().cloned())
        .collect();
    let degraded = match resolve(NAME, labeled, &outcome.report) {
        Ok(values) => {
            assert_eq!(values.len(), cells.len(), "complete run returns every cell");
            false
        }
        Err(d) => {
            assert_eq!(d.exit_code(), exit::DEGRADED, "degraded maps to exit 4");
            true
        }
    };
    PointResult {
        bits: bits_of(&outcome),
        degraded,
        summary,
    }
}

/// Truncates a checkpoint item log to the header plus half its item
/// lines, with the next line torn mid-write (no trailing newline).
fn truncate_log(path: &Path) {
    let text = std::fs::read_to_string(path).expect("checkpoint log");
    let mut lines = text.lines();
    let header = lines.next().expect("log header").to_string();
    let items: Vec<&str> = lines.collect();
    assert!(!items.is_empty(), "log has at least one item to drop");
    let keep = items.len() / 2;
    let mut out = header;
    out.push('\n');
    for line in &items[..keep] {
        out.push_str(line);
        out.push('\n');
    }
    if let Some(next) = items.get(keep) {
        let torn = &next[..next.len() / 2];
        out.push_str(torn); // no newline: a write died mid-append
    }
    std::fs::write(path, out).expect("truncate log");
}

fn fresh_dir(base: &Path, tag: &str) -> PathBuf {
    let dir = base.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    dir
}

#[test]
fn the_24_point_capability_lattice_is_behavior_identical() {
    let kernel = build_kernel();
    let cells = small_cells(&kernel, 3);
    let base = std::env::temp_dir().join(format!("slopt_execctx_matrix_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create temp base");

    // The reference: everything off, serial. The whole lattice is judged
    // against this single run.
    let reference = run_point(&kernel, &cells, None, None, Fault::None, 1);
    assert!(!reference.degraded);
    assert!(
        reference.bits.iter().all(Option::is_some),
        "reference run has no holes"
    );

    // The permanent plane's golden hole pattern, taken at the bare
    // serial point.
    let perm_ref = run_point(&kernel, &cells, None, None, Fault::Permanent, 1);
    let holes: Vec<usize> = perm_ref
        .bits
        .iter()
        .enumerate()
        .filter_map(|(i, b)| b.is_none().then_some(i))
        .collect();
    assert!(
        !holes.is_empty() && holes.len() < cells.len(),
        "the permanent plan must hole some cells and spare others (holes: {holes:?})"
    );

    let mut summaries: HashMap<(bool, Fault, usize), ReplaySummary> = HashMap::new();
    for obs_on in [false, true] {
        for ckpt_on in [false, true] {
            for fault in FAULTS {
                for jobs in [1usize, 4] {
                    let tag = format!("o{}_c{}_{:?}_j{}", obs_on as u8, ckpt_on as u8, fault, jobs);
                    let trace = obs_on.then(|| base.join(format!("{tag}.jsonl")));
                    let ckpt_dir = ckpt_on.then(|| fresh_dir(&base, &tag));
                    let ckpt = ckpt_dir.as_ref().map(|dir| CheckpointSpec {
                        dir: dir.clone(),
                        resume: false,
                    });
                    let point = run_point(&kernel, &cells, trace.as_deref(), ckpt, fault, jobs);

                    match fault {
                        Fault::None | Fault::Transient => {
                            assert_eq!(
                                point.bits, reference.bits,
                                "{tag}: must be bit-identical to the bare serial reference"
                            );
                            assert!(!point.degraded, "{tag}: clean/transient exits 0");
                        }
                        Fault::Permanent => {
                            assert_eq!(
                                point.bits, perm_ref.bits,
                                "{tag}: hole pattern and survivors must match the \
                                 permanent plane's serial reference"
                            );
                            for (i, b) in point.bits.iter().enumerate() {
                                if let Some(b) = b {
                                    assert_eq!(
                                        Some(b),
                                        reference.bits[i].as_ref(),
                                        "{tag}: cell {i} survived, so it must carry the \
                                         clean reference's bits"
                                    );
                                }
                            }
                            assert!(point.degraded, "{tag}: permanent holes exit 4");
                        }
                    }

                    if let Some(summary) = point.summary {
                        summaries.insert((ckpt_on, fault, jobs), summary);
                    }

                    // Checkpoint convergence: tear the log mid-stream and
                    // resume under the same capabilities.
                    if let Some(dir) = &ckpt_dir {
                        truncate_log(&dir.join(format!("{NAME}.ckpt")));
                        let resumed = run_point(
                            &kernel,
                            &cells,
                            None,
                            Some(CheckpointSpec {
                                dir: dir.clone(),
                                resume: true,
                            }),
                            fault,
                            jobs,
                        );
                        assert_eq!(
                            resumed.bits, point.bits,
                            "{tag}: resume after a torn log must converge bit-identically"
                        );
                    }
                }
            }
        }
    }

    // Structural trace invariance: at every obs-on capability combo the
    // jobs=4 trace replays to the same structural content as jobs=1.
    for ckpt_on in [false, true] {
        for fault in FAULTS {
            let serial = &summaries[&(ckpt_on, fault, 1)];
            let fanned = &summaries[&(ckpt_on, fault, 4)];
            let deltas = structural_deltas(serial, fanned);
            assert!(
                deltas.is_empty(),
                "ckpt={ckpt_on} fault={fault:?}: jobs must not change trace structure: {deltas:?}"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&base);
}
