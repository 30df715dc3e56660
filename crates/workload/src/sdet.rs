//! The SDET-like multi-user throughput driver (paper §5).
//!
//! SPEC SDM 057.sdet simulates many concurrent users running short shell
//! scripts; its figure of merit is throughput (scripts/hour). Here a
//! *script* is a weighted mix of syscall-like [`Action`]s drawn from the
//! kernel's action table; every CPU runs a queue of scripts and the
//! metric is scripts per million simulated cycles.
//!
//! Methodology follows the paper: `n` measured runs (different interleaving
//! seeds), outliers removed (min and max), mean of the rest. There is no
//! warm-up run: each simulated run builds a cold machine from its seed.

use crate::kernel::{Action, SlotKind, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use slopt_ir::layout::StructLayout;
use slopt_ir::types::RecordId;
use slopt_sim::{
    Arena, CacheConfig, EngineConfig, Invocation, LatencyModel, LayoutTable, MemStats, MemSystem,
    Observer, Protocol, RunResult, Script, Topology,
};
use std::collections::HashMap;

/// A machine to run experiments on: topology + latency model.
#[derive(Clone, Debug)]
pub struct Machine {
    /// CPU hierarchy.
    pub topo: Topology,
    /// Latency pricing.
    pub lat: LatencyModel,
}

impl Machine {
    /// The paper's 128-way HP Superdome (or a smaller prefix).
    pub fn superdome(cpus: usize) -> Self {
        Machine {
            topo: Topology::superdome(cpus),
            lat: LatencyModel::superdome(),
        }
    }

    /// The paper's small bus-based machine (4 CPUs in the paper).
    pub fn bus(cpus: usize) -> Self {
        Machine {
            topo: Topology::bus(cpus),
            lat: LatencyModel::bus(),
        }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.topo.cpu_count()
    }
}

/// Workload sizing knobs.
#[derive(Clone, Debug)]
pub struct SdetConfig {
    /// Scripts queued per CPU.
    pub scripts_per_cpu: usize,
    /// Invocations per script.
    pub invocations_per_script: usize,
    /// Pooled instances per record.
    pub pool_instances: usize,
    /// Base seed (script composition).
    pub seed: u64,
    /// Cache-line / coherence-block size.
    pub line_size: u64,
    /// Per-CPU cache geometry. The default (512 sets × 8 ways × 128 B =
    /// 512 KiB) is deliberately smaller than the Itanium L3 so the pooled
    /// working set exerts realistic capacity pressure.
    pub cache: CacheConfig,
    /// Coherence protocol (MESI by default, like the paper's machines).
    pub protocol: Protocol,
}

impl Default for SdetConfig {
    fn default() -> Self {
        SdetConfig {
            scripts_per_cpu: 24,
            invocations_per_script: 12,
            pool_instances: 512,
            seed: 0x5DE7,
            line_size: 128,
            cache: CacheConfig {
                line_size: 128,
                sets: 512,
                ways: 8,
            },
            protocol: Protocol::Mesi,
        }
    }
}

/// Concrete instance addresses for one run.
#[derive(Clone, Debug)]
pub struct Instances {
    shared: HashMap<RecordId, u64>,
    per_cpu: HashMap<RecordId, Vec<u64>>,
    pool: HashMap<RecordId, Vec<u64>>,
}

impl Instances {
    /// Allocates shared, per-CPU and pooled instances for every record in
    /// the kernel, line-aligned, under the given layouts.
    pub fn allocate(
        kernel: &impl WorkloadSpec,
        layouts: &LayoutTable,
        cpus: usize,
        cfg: &SdetConfig,
    ) -> Self {
        let mut arena = Arena::new(0x1_0000, cfg.line_size);
        let mut shared = HashMap::new();
        let mut per_cpu = HashMap::new();
        let mut pool = HashMap::new();
        for (rec, _) in kernel.program().registry().records() {
            let layout = layouts.layout(rec);
            shared.insert(rec, arena.alloc_record(layout));
            per_cpu.insert(
                rec,
                (0..cpus)
                    .map(|_| arena.alloc_record(layout))
                    .collect::<Vec<u64>>(),
            );
            pool.insert(
                rec,
                (0..cfg.pool_instances)
                    .map(|_| arena.alloc_record(layout))
                    .collect::<Vec<u64>>(),
            );
        }
        Instances {
            shared,
            per_cpu,
            pool,
        }
    }

    /// Base address of the shared instance of `rec`.
    pub fn shared(&self, rec: RecordId) -> u64 {
        self.shared[&rec]
    }

    /// Base address of CPU `cpu`'s instance of `rec`.
    pub fn per_cpu(&self, rec: RecordId, cpu: usize) -> u64 {
        self.per_cpu[&rec][cpu]
    }

    /// Base address of pool instance `i` of `rec`.
    pub fn pool(&self, rec: RecordId, i: usize) -> u64 {
        self.pool[&rec][i]
    }
}

fn pick_action<'k>(actions: &'k [Action], rng: &mut SmallRng, total_weight: f64) -> &'k Action {
    let mut x = rng.gen::<f64>() * total_weight;
    for a in actions {
        if x < a.weight {
            return a;
        }
        x -= a.weight;
    }
    actions.last().expect("non-empty action table")
}

/// Builds the per-CPU script queues for one run.
pub fn build_scripts(
    kernel: &impl WorkloadSpec,
    instances: &Instances,
    cpus: usize,
    cfg: &SdetConfig,
    run_seed: u64,
) -> Vec<Vec<Script>> {
    let total_weight: f64 = kernel.actions().iter().map(|a| a.weight).sum();
    (0..cpus)
        .map(|cpu| {
            let mut rng =
                SmallRng::seed_from_u64(cfg.seed ^ run_seed.rotate_left(17) ^ (cpu as u64) << 32);
            (0..cfg.scripts_per_cpu)
                .map(|_| {
                    let invocations = (0..cfg.invocations_per_script)
                        .map(|_| {
                            let action = pick_action(kernel.actions(), &mut rng, total_weight);
                            let func = action.variants[cpu % action.variants.len()];
                            let bindings = action
                                .slots
                                .iter()
                                .map(|slot| match *slot {
                                    SlotKind::Shared(r) => instances.shared(r),
                                    SlotKind::OwnCpu(r) => instances.per_cpu(r, cpu),
                                    SlotKind::OtherCpu(r) => {
                                        let other = if cpus == 1 {
                                            0
                                        } else {
                                            let mut o = rng.gen_range(0..cpus - 1);
                                            if o >= cpu {
                                                o += 1;
                                            }
                                            o
                                        };
                                        instances.per_cpu(r, other)
                                    }
                                    SlotKind::Pool(r) => {
                                        instances.pool(r, rng.gen_range(0..cfg.pool_instances))
                                    }
                                })
                                .collect();
                            Invocation { func, bindings }
                        })
                        .collect();
                    Script { invocations }
                })
                .collect()
        })
        .collect()
}

/// Builds the baseline layout table: every record in declaration (i.e.
/// hand-tuned) order.
///
/// # Panics
///
/// Panics if a record cannot be laid out (impossible for valid records).
pub fn baseline_layouts(kernel: &impl WorkloadSpec, line_size: u64) -> LayoutTable {
    let mut t = LayoutTable::new();
    for (rec, ty) in kernel.program().registry().records() {
        t.set(
            rec,
            StructLayout::declaration_order(ty, line_size).expect("valid record"),
        );
    }
    t
}

/// The baseline table with one record's layout replaced — the paper
/// transforms structures one at a time.
pub fn layouts_with(
    kernel: &impl WorkloadSpec,
    line_size: u64,
    rec: RecordId,
    layout: StructLayout,
) -> LayoutTable {
    let mut t = baseline_layouts(kernel, line_size);
    t.set(rec, layout);
    t
}

/// Outcome of one run: engine result + memory statistics.
#[derive(Debug)]
pub struct SdetRun {
    /// Engine-side outcome (makespan, scripts, profile).
    pub result: RunResult,
    /// Memory-system statistics.
    pub stats: MemStats,
}

/// The version of the simulated model: the simulator and the SDET script
/// generator behind [`run_once`]. Stored runs (the experiment runner's
/// `runs.ckpt`) are reused only under the version that made them, so a
/// change that moves any simulated number must bump it (a test pins one).
pub const MODEL_VERSION: u32 = 1;

/// Runs the workload once.
///
/// # Panics
///
/// Panics if the engine exhausts its step bound (the workload is finite,
/// so this indicates a configuration error).
pub fn run_once(
    kernel: &impl WorkloadSpec,
    layouts: &LayoutTable,
    machine: &Machine,
    cfg: &SdetConfig,
    run_seed: u64,
    observer: &mut dyn Observer,
) -> SdetRun {
    run_once_obs(
        kernel,
        layouts,
        machine,
        cfg,
        run_seed,
        observer,
        &slopt_obs::Obs::disabled(),
    )
}

/// [`run_once`] with instrumentation: the whole simulation runs under an
/// `sdet_run` span and the run's memory statistics and engine result are
/// flushed into `obs` as `sim.*` / `engine.*` counters afterwards.
pub fn run_once_obs(
    kernel: &impl WorkloadSpec,
    layouts: &LayoutTable,
    machine: &Machine,
    cfg: &SdetConfig,
    run_seed: u64,
    observer: &mut dyn Observer,
    obs: &slopt_obs::Obs,
) -> SdetRun {
    let run = {
        let _span = obs.span("sdet_run");
        run_once_logged(kernel, layouts, machine, cfg, run_seed, observer, false).0
    };
    slopt_sim::publish_mem_stats(&run.stats, obs);
    slopt_sim::publish_run_result(&run.result, obs);
    run
}

/// Like [`run_once`], but optionally records every sharing miss and also
/// returns the instance table, enabling byte-level ground-truth analysis
/// of which field pairs actually collided (see `slopt-workload::validate`).
pub fn run_once_logged(
    kernel: &impl WorkloadSpec,
    layouts: &LayoutTable,
    machine: &Machine,
    cfg: &SdetConfig,
    run_seed: u64,
    observer: &mut dyn Observer,
    log_sharing: bool,
) -> (SdetRun, Vec<slopt_sim::SharingMissEvent>, Instances) {
    let cpus = machine.cpus();
    let instances = Instances::allocate(kernel, layouts, cpus, cfg);
    let scripts = build_scripts(kernel, &instances, cpus, cfg, run_seed);
    let mut mem = MemSystem::new(machine.topo.clone(), machine.lat, cfg.cache);
    mem.set_protocol(cfg.protocol);
    mem.set_sharing_log(log_sharing);
    let engine_cfg = EngineConfig {
        seed: run_seed,
        ..EngineConfig::default()
    };
    let result = slopt_sim::run(
        kernel.program(),
        layouts,
        &mut mem,
        scripts,
        &engine_cfg,
        observer,
    )
    .expect("finite workload exceeded engine step bound");
    (
        SdetRun {
            result,
            stats: mem.stats().clone(),
        },
        mem.sharing_events().to_vec(),
        instances,
    )
}

/// A throughput measurement: `n` runs, min/max dropped, mean of the rest
/// (the paper's methodology, without its warm-up run).
#[derive(Clone, Debug)]
pub struct Throughput {
    /// Trimmed mean of scripts per million cycles.
    pub mean: f64,
    /// The individual run values (untrimmed).
    pub runs: Vec<f64>,
}

impl Throughput {
    /// The paper's reduction over raw per-run values: min/max dropped,
    /// mean of the rest. The run values are kept untrimmed.
    pub fn from_runs(values: Vec<f64>) -> Throughput {
        Throughput {
            mean: trimmed_mean(&values),
            runs: values,
        }
    }

    /// Relative difference versus a baseline measurement, in percent.
    pub fn pct_vs(&self, baseline: &Throughput) -> f64 {
        (self.mean / baseline.mean - 1.0) * 100.0
    }
}

/// The seeds of one throughput measurement: measured run `i` uses seed
/// `2 + i`, the list's `[1..]`. Seed 1 is a warm-up that only the
/// benchmark's traced pass still runs; seed 0 stays reserved. Centralizing
/// this is what lets every path draw identical streams.
pub fn measurement_seeds(runs: usize) -> Vec<u64> {
    (0..=runs).map(|i| 1 + i as u64).collect()
}

/// Mean with min and max removed (when more than two values).
fn trimmed_mean(values: &[f64]) -> f64 {
    if values.len() <= 2 {
        return values.iter().sum::<f64>() / values.len() as f64;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are never NaN"));
    let inner = &sorted[1..sorted.len() - 1];
    inner.iter().sum::<f64>() / inner.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::build_kernel;

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

    #[test]
    fn run_completes_all_scripts() {
        let k = build_kernel();
        let cfg = small_cfg();
        let layouts = baseline_layouts(&k, cfg.line_size);
        let machine = Machine::bus(2);
        let run = run_once(
            &k,
            &layouts,
            &machine,
            &cfg,
            1,
            &mut slopt_sim::NullObserver,
        );
        assert_eq!(run.result.scripts_done, 2 * 4);
        assert!(run.result.makespan > 0);
        assert!(run.stats.accesses() > 0);
    }

    /// Pins one tiny run to [`MODEL_VERSION`]: stored runs are reused
    /// across processes by version alone.
    #[test]
    fn model_version_pins_a_tiny_run() {
        let (k, cfg) = (build_kernel(), small_cfg());
        let layouts = baseline_layouts(&k, cfg.line_size);
        let mut null = slopt_sim::NullObserver;
        let run = run_once(&k, &layouts, &Machine::bus(2), &cfg, 1, &mut null).result;
        assert_eq!(
            (MODEL_VERSION, run.makespan, run.throughput().to_bits()),
            (1, 22_779, 0x4075_f335_eee5_26c3),
            "a simulated number changed: bump MODEL_VERSION and re-pin"
        );
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let k = build_kernel();
        let cfg = small_cfg();
        let layouts = baseline_layouts(&k, cfg.line_size);
        let machine = Machine::superdome(4);
        let a = run_once(
            &k,
            &layouts,
            &machine,
            &cfg,
            7,
            &mut slopt_sim::NullObserver,
        );
        let b = run_once(
            &k,
            &layouts,
            &machine,
            &cfg,
            7,
            &mut slopt_sim::NullObserver,
        );
        assert_eq!(a.result.makespan, b.result.makespan);
        assert_eq!(a.stats.accesses(), b.stats.accesses());
        let c = run_once(
            &k,
            &layouts,
            &machine,
            &cfg,
            8,
            &mut slopt_sim::NullObserver,
        );
        assert_ne!(
            a.result.makespan, c.result.makespan,
            "different seed, different interleaving"
        );
    }

    #[test]
    fn instances_are_disjoint_and_aligned() {
        let k = build_kernel();
        let cfg = small_cfg();
        let layouts = baseline_layouts(&k, cfg.line_size);
        let inst = Instances::allocate(&k, &layouts, 4, &cfg);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for (rec, _) in k.program.registry().records() {
            let size = layouts.layout(rec).size();
            let mut bases = vec![inst.shared(rec)];
            for cpu in 0..4 {
                bases.push(inst.per_cpu(rec, cpu));
            }
            for i in 0..cfg.pool_instances {
                bases.push(inst.pool(rec, i));
            }
            for b in bases {
                assert_eq!(b % cfg.line_size, 0, "instances must be line-aligned");
                ranges.push((b, b + size));
            }
        }
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "instance ranges overlap: {w:?}");
        }
    }

    #[test]
    fn scripts_respect_variant_selection() {
        let k = build_kernel();
        let cfg = small_cfg();
        let layouts = baseline_layouts(&k, cfg.line_size);
        let inst = Instances::allocate(&k, &layouts, 16, &cfg);
        let scripts = build_scripts(&k, &inst, 16, &cfg, 1);
        let stat = k
            .actions
            .iter()
            .find(|a| a.name == "a_stat_update")
            .unwrap();
        for (cpu, queue) in scripts.iter().enumerate() {
            for script in queue {
                for inv in &script.invocations {
                    if let Some(pos) = stat.variants.iter().position(|&v| v == inv.func) {
                        assert_eq!(pos, cpu % stat.variants.len());
                    }
                }
            }
        }
    }

    #[test]
    fn trimmed_mean_drops_outliers() {
        assert_eq!(trimmed_mean(&[1.0, 100.0, 2.0, 3.0]), 2.5);
        assert_eq!(trimmed_mean(&[4.0, 8.0]), 6.0);
        assert_eq!(trimmed_mean(&[5.0]), 5.0);
    }

    #[test]
    fn pct_vs_computes_relative_difference() {
        let base = Throughput {
            mean: 100.0,
            runs: vec![],
        };
        let better = Throughput {
            mean: 103.0,
            runs: vec![],
        };
        assert!((better.pct_vs(&base) - 3.0).abs() < 1e-9);
        let worse = Throughput {
            mean: 50.0,
            runs: vec![],
        };
        assert!((worse.pct_vs(&base) + 50.0).abs() < 1e-9);
    }
}
