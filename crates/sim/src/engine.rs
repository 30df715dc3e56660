//! The execution-driven multiprocessor engine.
//!
//! The engine interprets `slopt-ir` programs on every CPU of a simulated
//! machine concurrently. CPUs advance in simulated time; the CPU with the
//! smallest local clock executes next (one basic block at a time, which is
//! also the interleaving granularity). Every field access is priced by the
//! MESI memory system, so contention — and in particular false sharing —
//! slows the affected CPUs down and shows up directly in workload
//! throughput, exactly the mechanism behind the paper's SDET numbers.
//!
//! Work is organized as **scripts** (the SDET unit of throughput): each
//! script is a list of function invocations with instance-slot bindings.
//! [`RunResult::throughput`] reports scripts per million cycles.

use crate::alloc::LayoutTable;
use crate::coherence::MemSystem;
use crate::topology::CpuId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use slopt_ir::cfg::{BlockId, FuncId, Instr, Program, Terminator};
use slopt_ir::profile::Profile;
use slopt_ir::source::SourceLine;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

/// Receives engine events; implemented by the sampler in `slopt-sample`.
pub trait Observer {
    /// A CPU executed (part of) a basic block over `[start, end)` cycles.
    /// Blocks interrupted by calls produce one event per executed segment.
    fn on_block(
        &mut self,
        cpu: CpuId,
        func: FuncId,
        block: BlockId,
        line: SourceLine,
        start: u64,
        end: u64,
    ) {
        let _ = (cpu, func, block, line, start, end);
    }

    /// A CPU finished a script at `time`.
    fn on_script_done(&mut self, cpu: CpuId, time: u64) {
        let _ = (cpu, time);
    }
}

/// An [`Observer`] that ignores everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// One function invocation with its instance-slot bindings (base addresses,
/// indexed by [`slopt_ir::cfg::InstanceSlot`]).
#[derive(Clone, Debug)]
pub struct Invocation {
    /// Function to run.
    pub func: FuncId,
    /// `bindings[slot]` = base address of the record instance bound to that
    /// slot. Callees inherit the caller's bindings.
    pub bindings: Vec<u64>,
}

/// A unit of workload throughput (one SDET "script").
#[derive(Clone, Debug, Default)]
pub struct Script {
    /// The invocations the script performs, in order.
    pub invocations: Vec<Invocation>,
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Seed for the per-CPU branch RNGs.
    pub seed: u64,
    /// Safety bound on total basic blocks executed across all CPUs.
    pub max_steps: u64,
}

/// Fixed sequencing cost charged per basic block (guarantees progress
/// even for blocks with no instructions).
const BLOCK_COST: u64 = 1;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0,
            max_steps: 500_000_000,
        }
    }
}

/// Error: the engine hit its `max_steps` bound before the workload
/// completed.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct StepsExhausted {
    /// Steps executed (equals the configured bound).
    pub steps: u64,
}

impl fmt::Display for StepsExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine exceeded {} block steps", self.steps)
    }
}

impl Error for StepsExhausted {}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Completion time: the maximum CPU clock at the end.
    pub makespan: u64,
    /// Scripts completed across all CPUs.
    pub scripts_done: u64,
    /// Final clock per CPU.
    pub per_cpu_time: Vec<u64>,
    /// Block execution counts observed during the run (usable as PBO data).
    pub profile: Profile,
    /// Total basic blocks executed.
    pub steps: u64,
}

impl RunResult {
    /// Scripts completed per million cycles of makespan — the analogue of
    /// SDET's scripts/hour. Returns 0 for an empty run.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.scripts_done as f64 * 1.0e6 / self.makespan as f64
        }
    }
}

struct FrameState {
    func: FuncId,
    block: BlockId,
    instr_idx: usize,
    /// Loop trip counters indexed by block id, grown lazily on the first
    /// `Loop` terminator — loop-free frames never allocate.
    loop_counters: Vec<u32>,
}

struct CpuState {
    scripts: Vec<Script>,
    script_idx: usize,
    inv_idx: usize,
    frames: Vec<FrameState>,
    bindings: Vec<u64>,
    time: u64,
    rng: SmallRng,
    done: bool,
}

impl CpuState {
    /// Advances to the next invocation (or script); returns `false` when
    /// all work is exhausted. Reports completed scripts via `on_done`.
    fn next_work(
        &mut self,
        cpu: CpuId,
        observer: &mut dyn Observer,
        scripts_done: &mut u64,
    ) -> bool {
        loop {
            if self.script_idx >= self.scripts.len() {
                self.done = true;
                return false;
            }
            let script = &mut self.scripts[self.script_idx];
            if self.inv_idx < script.invocations.len() {
                let inv = &mut script.invocations[self.inv_idx];
                self.inv_idx += 1;
                // The workload is owned by the run and every invocation is
                // executed exactly once, so the bindings can be moved out
                // instead of cloned — no per-invocation allocation.
                self.bindings = std::mem::take(&mut inv.bindings);
                self.frames.push(FrameState {
                    func: inv.func,
                    block: BlockId(0), // placeholder, set by caller
                    instr_idx: 0,
                    loop_counters: Vec::new(),
                });
                return true;
            }
            // Script finished.
            *scripts_done += 1;
            observer.on_script_done(cpu, self.time);
            self.script_idx += 1;
            self.inv_idx = 0;
        }
    }
}

/// Runs `workload[cpu]` (a list of scripts per CPU) over the program on the
/// machine modelled by `mem`. Returns the run outcome; memory statistics
/// accumulate inside `mem`.
///
/// # Errors
///
/// Returns [`StepsExhausted`] if the configured step bound is hit (e.g. a
/// pathological probabilistic loop).
///
/// # Panics
///
/// Panics if `workload` does not have exactly one entry per machine CPU, or
/// if an executed access lacks a registered layout or binding.
pub fn run(
    program: &Program,
    layouts: &LayoutTable,
    mem: &mut MemSystem,
    workload: Vec<Vec<Script>>,
    cfg: &EngineConfig,
    observer: &mut dyn Observer,
) -> Result<RunResult, StepsExhausted> {
    let cpus = mem.topology().cpu_count();
    assert_eq!(workload.len(), cpus, "workload must cover every CPU");

    let mut states: Vec<CpuState> = workload
        .into_iter()
        .enumerate()
        .map(|(i, scripts)| CpuState {
            scripts,
            script_idx: 0,
            inv_idx: 0,
            frames: Vec::new(),
            bindings: Vec::new(),
            time: 0,
            rng: SmallRng::seed_from_u64(cfg.seed ^ (0x9E37_79B9u64.wrapping_mul(i as u64 + 1))),
            done: false,
        })
        .collect();

    let mut profile = Profile::new();
    let mut scripts_done = 0u64;
    let mut steps = 0u64;

    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, state) in states.iter_mut().enumerate() {
        // Prime each CPU with its first invocation.
        let cpu = CpuId(i as u16);
        if state.next_work(cpu, observer, &mut scripts_done) {
            let func = state.frames.last().expect("frame pushed").func;
            state.frames.last_mut().expect("frame").block = program.function(func).entry();
            heap.push(Reverse((state.time, i)));
        }
    }

    while let Some(Reverse((_, idx))) = heap.pop() {
        if steps >= cfg.max_steps {
            return Err(StepsExhausted { steps });
        }
        steps += 1;
        let cpu = CpuId(idx as u16);
        let state = &mut states[idx];
        let start = state.time;

        // Execute the top frame until the block ends or a call suspends it.
        let (func_id, block_id, entered) = {
            let frame = state.frames.last().expect("active frame");
            (frame.func, frame.block, frame.instr_idx == 0)
        };
        let func = program.function(func_id);
        let block = func.block(block_id);
        if entered {
            profile.record(func_id, block_id, 1);
            state.time += BLOCK_COST;
        }

        let mut called: Option<FuncId> = None;
        {
            let frame = state.frames.last_mut().expect("active frame");
            while frame.instr_idx < block.instrs.len() {
                let instr = &block.instrs[frame.instr_idx];
                frame.instr_idx += 1;
                match instr {
                    Instr::Compute(c) => state.time += u64::from(*c),
                    Instr::Access(a) => {
                        let layout = layouts.layout(a.record);
                        let base = *state
                            .bindings
                            .get(a.slot.0 as usize)
                            .unwrap_or_else(|| panic!("unbound {} in {}", a.slot, func.name()));
                        let addr = base + layout.offset(a.field);
                        let size = layout.field_size(a.field).min(8);
                        state.time += mem.access(
                            cpu,
                            addr,
                            size,
                            a.kind.is_write(),
                            Some(a.record),
                            state.time,
                        );
                    }
                    Instr::Call(callee) => {
                        called = Some(*callee);
                        break;
                    }
                }
            }
        }

        observer.on_block(cpu, func_id, block_id, block.line, start, state.time);

        if let Some(callee) = called {
            state.frames.push(FrameState {
                func: callee,
                block: program.function(callee).entry(),
                instr_idx: 0,
                loop_counters: Vec::new(),
            });
            heap.push(Reverse((state.time, idx)));
            continue;
        }

        // Terminator.
        let next = {
            let frame = state.frames.last_mut().expect("active frame");
            match block.term {
                Terminator::Jump(t) => Some(t),
                Terminator::Branch {
                    taken,
                    not_taken,
                    prob_taken,
                } => {
                    if state.rng.gen::<f64>() < prob_taken {
                        Some(taken)
                    } else {
                        Some(not_taken)
                    }
                }
                Terminator::Loop { back, exit, trip } => {
                    let idx = block_id.index();
                    if frame.loop_counters.len() <= idx {
                        frame.loop_counters.resize(idx + 1, 0);
                    }
                    let c = &mut frame.loop_counters[idx];
                    *c += 1;
                    if *c < trip {
                        Some(back)
                    } else {
                        *c = 0;
                        Some(exit)
                    }
                }
                Terminator::Ret => None,
            }
        };

        match next {
            Some(t) => {
                let frame = state.frames.last_mut().expect("active frame");
                frame.block = t;
                frame.instr_idx = 0;
                heap.push(Reverse((state.time, idx)));
            }
            None => {
                state.frames.pop();
                if state.frames.is_empty() {
                    if state.next_work(cpu, observer, &mut scripts_done) {
                        let f = state.frames.last().expect("frame").func;
                        state.frames.last_mut().expect("frame").block = program.function(f).entry();
                        heap.push(Reverse((state.time, idx)));
                    }
                } else {
                    heap.push(Reverse((state.time, idx)));
                }
            }
        }
    }

    let per_cpu_time: Vec<u64> = states.iter().map(|s| s.time).collect();
    let makespan = per_cpu_time.iter().copied().max().unwrap_or(0);
    Ok(RunResult {
        makespan,
        scripts_done,
        per_cpu_time,
        profile,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::topology::{LatencyModel, Topology};
    use slopt_ir::builder::{FunctionBuilder, ProgramBuilder};
    use slopt_ir::cfg::InstanceSlot;
    use slopt_ir::layout::StructLayout;
    use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordType, TypeRegistry};

    fn simple_program() -> (Program, slopt_ir::types::RecordId, FuncId) {
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U64)),
                ("b", FieldType::Prim(PrimType::U64)),
            ],
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("touch");
        let b0 = fb.add_block();
        fb.read(b0, s, FieldIdx(0), InstanceSlot(0));
        fb.write(b0, s, FieldIdx(1), InstanceSlot(0));
        fb.compute(b0, 5);
        let id = pb.add(fb, b0);
        (pb.finish(), s, id)
    }

    fn mem(cpus: usize) -> MemSystem {
        MemSystem::new(
            Topology::superdome(cpus),
            LatencyModel::superdome(),
            CacheConfig {
                line_size: 128,
                sets: 256,
                ways: 4,
            },
        )
    }

    fn layouts_for(prog: &Program, rec: slopt_ir::types::RecordId) -> LayoutTable {
        let mut t = LayoutTable::new();
        t.set(
            rec,
            StructLayout::declaration_order(prog.registry().record(rec), 128).unwrap(),
        );
        t
    }

    #[test]
    fn single_cpu_executes_scripts() {
        let (prog, rec, f) = simple_program();
        let layouts = layouts_for(&prog, rec);
        let mut m = mem(1);
        let script = Script {
            invocations: vec![Invocation {
                func: f,
                bindings: vec![0x10000],
            }],
        };
        let result = run(
            &prog,
            &layouts,
            &mut m,
            vec![vec![script.clone(), script]],
            &EngineConfig::default(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(result.scripts_done, 2);
        assert_eq!(result.profile.count(f, BlockId(0)), 2);
        assert!(result.makespan > 0);
        assert!(result.throughput() > 0.0);
        // 2 blocks, 4 accesses.
        assert_eq!(m.stats().accesses(), 4);
    }

    #[test]
    fn false_sharing_slows_the_run_down() {
        // Two CPUs write different fields of the same shared instance
        // repeatedly. Packed layout -> same line -> ping-pong. Split layout
        // (fields on different lines) -> independent.
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U64)),
                ("b", FieldType::Prim(PrimType::U64)),
            ],
        ));
        let mut pb = ProgramBuilder::new(reg);

        let mk = |field: u32| {
            let mut fb = FunctionBuilder::new(format!("wr{field}"));
            let e = fb.add_block();
            let body = fb.add_block();
            let x = fb.add_block();
            fb.jump(e, body);
            fb.write(body, s, FieldIdx(field), InstanceSlot(0));
            fb.loop_latch(body, body, x, 200);
            (fb, e)
        };
        let (fb0, e0) = mk(0);
        let f0 = pb.add(fb0, e0);
        let (fb1, e1) = mk(1);
        let f1 = pb.add(fb1, e1);
        let prog = pb.finish();
        let rec_ty = prog.registry().record(s);

        let shared_base = 0x2_0000u64;
        let workload = |f: FuncId| Script {
            invocations: vec![Invocation {
                func: f,
                bindings: vec![shared_base],
            }],
        };

        // Packed: both fields on line 0.
        let mut packed = LayoutTable::new();
        packed.set(s, StructLayout::declaration_order(rec_ty, 128).unwrap());
        let mut m1 = mem(2);
        let r_packed = run(
            &prog,
            &packed,
            &mut m1,
            vec![vec![workload(f0)], vec![workload(f1)]],
            &EngineConfig::default(),
            &mut NullObserver,
        )
        .unwrap();

        // Split: each field on its own line.
        let mut split = LayoutTable::new();
        split.set(
            s,
            StructLayout::from_groups(rec_ty, &[vec![FieldIdx(0)], vec![FieldIdx(1)]], 128)
                .unwrap(),
        );
        let mut m2 = mem(2);
        let r_split = run(
            &prog,
            &split,
            &mut m2,
            vec![vec![workload(f0)], vec![workload(f1)]],
            &EngineConfig::default(),
            &mut NullObserver,
        )
        .unwrap();

        assert!(
            m1.stats().false_sharing_for(s) > 100,
            "packed layout must false-share (got {})",
            m1.stats().false_sharing_for(s)
        );
        assert_eq!(
            m2.stats().false_sharing_for(s),
            0,
            "split layout must not false-share"
        );
        assert!(
            r_packed.makespan > 2 * r_split.makespan,
            "false sharing should dominate: packed {} vs split {}",
            r_packed.makespan,
            r_split.makespan
        );
        m1.check_invariants();
        m2.check_invariants();
    }

    #[test]
    fn calls_suspend_and_resume_blocks() {
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![("a", FieldType::Prim(PrimType::U64))],
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut leaf = FunctionBuilder::new("leaf");
        let l0 = leaf.add_block();
        leaf.compute(l0, 100);
        let leaf_id = pb.add(leaf, l0);

        let mut caller = FunctionBuilder::new("caller");
        let c0 = caller.add_block();
        caller.read(c0, s, FieldIdx(0), InstanceSlot(0));
        caller.call(c0, leaf_id);
        caller.write(c0, s, FieldIdx(0), InstanceSlot(0));
        let caller_id = pb.add(caller, c0);
        let prog = pb.finish();

        let layouts = layouts_for(&prog, s);
        let mut m = mem(1);
        let result = run(
            &prog,
            &layouts,
            &mut m,
            vec![vec![Script {
                invocations: vec![Invocation {
                    func: caller_id,
                    bindings: vec![0x1000],
                }],
            }]],
            &EngineConfig::default(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(result.scripts_done, 1);
        assert_eq!(result.profile.count(leaf_id, BlockId(0)), 1);
        assert_eq!(result.profile.count(caller_id, BlockId(0)), 1);
        // Both accesses happened (read + write).
        assert_eq!(m.stats().accesses(), 2);
        // Leaf compute cost charged.
        assert!(result.makespan >= 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let (prog, rec, f) = simple_program();
        let layouts = layouts_for(&prog, rec);
        let script = Script {
            invocations: vec![Invocation {
                func: f,
                bindings: vec![0x4000],
            }],
        };
        let mut results = Vec::new();
        for _ in 0..2 {
            let mut m = mem(4);
            let r = run(
                &prog,
                &layouts,
                &mut m,
                vec![vec![script.clone(); 5]; 4],
                &EngineConfig::default(),
                &mut NullObserver,
            )
            .unwrap();
            results.push((r.makespan, r.scripts_done, m.stats().accesses()));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn step_bound_is_enforced() {
        let reg = TypeRegistry::new();
        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("spin");
        let b0 = fb.add_block();
        fb.branch(b0, b0, b0, 1.0);
        let f = pb.add(fb, b0);
        let prog = pb.finish();
        let layouts = LayoutTable::new();
        let mut m = mem(1);
        let cfg = EngineConfig {
            max_steps: 1000,
            ..EngineConfig::default()
        };
        let err = run(
            &prog,
            &layouts,
            &mut m,
            vec![vec![Script {
                invocations: vec![Invocation {
                    func: f,
                    bindings: vec![],
                }],
            }]],
            &cfg,
            &mut NullObserver,
        )
        .unwrap_err();
        assert_eq!(err.steps, 1000);
        assert!(err.to_string().contains("1000"));
    }

    #[test]
    fn observer_sees_blocks_and_scripts() {
        #[derive(Default)]
        struct Counting {
            blocks: u64,
            scripts: u64,
            max_end: u64,
        }
        impl Observer for Counting {
            fn on_block(
                &mut self,
                _c: CpuId,
                _f: FuncId,
                _b: BlockId,
                _l: slopt_ir::source::SourceLine,
                start: u64,
                end: u64,
            ) {
                assert!(start <= end);
                self.blocks += 1;
                self.max_end = self.max_end.max(end);
            }
            fn on_script_done(&mut self, _c: CpuId, _t: u64) {
                self.scripts += 1;
            }
        }
        let (prog, rec, f) = simple_program();
        let layouts = layouts_for(&prog, rec);
        let mut m = mem(1);
        let mut obs = Counting::default();
        let r = run(
            &prog,
            &layouts,
            &mut m,
            vec![vec![Script {
                invocations: vec![Invocation {
                    func: f,
                    bindings: vec![0x8000],
                }],
            }]],
            &EngineConfig::default(),
            &mut obs,
        )
        .unwrap();
        assert_eq!(obs.blocks, 1);
        assert_eq!(obs.scripts, 1);
        assert_eq!(obs.max_end, r.makespan);
    }

    #[test]
    #[should_panic(expected = "workload must cover every CPU")]
    fn workload_size_must_match() {
        let (prog, rec, _) = simple_program();
        let layouts = layouts_for(&prog, rec);
        let mut m = mem(2);
        let _ = run(
            &prog,
            &layouts,
            &mut m,
            vec![vec![]],
            &EngineConfig::default(),
            &mut NullObserver,
        );
    }
}
