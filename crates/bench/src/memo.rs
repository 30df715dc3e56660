//! The run memo: every distinct simulation asked of one
//! [`ExecCtx`](crate::ExecCtx) runs once.
//!
//! A simulated SDET run is a pure function of its inputs: the program and
//! its action mix, the layout table, the machine, the workload config and
//! the run seed. The paper's figures repeat runs — Figure 10 re-measures
//! Figure 8's baseline and tool layouts, the sanity line re-measures the
//! baseline, and some sort-by-hotness and constrained layouts coincide —
//! so [`crate::measure_cells`] keys each run on those inputs and reuses
//! the first result.
//!
//! Keys are compact. The program text and each machine + config text are
//! interned once, and a layout table is reduced to its canonical words:
//! every record's offsets and sizes, in record-id order, interned per
//! distinct table. Field order alone would not do, since two layouts with
//! one order but different line grouping simulate differently; and a
//! stringified table (its `Debug` text runs to kilobytes) would make the
//! memo cost memory in proportion to the runs it holds. The interned
//! inputs make a run key two integers.
//!
//! Each key owns an in-flight slot (a [`OnceLock`]): a concurrent
//! duplicate waits for the run already in progress instead of simulating
//! again, so every distinct run simulates exactly once and the hit count
//! is the same for every `jobs` value.

use slopt_ir::text::print_program;
use slopt_ir::types::FieldIdx;
use slopt_sim::LayoutTable;
use slopt_workload::{Machine, SdetConfig, WorkloadSpec};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// What the grid keeps of one simulated run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct RunSummary {
    /// Completion time in simulated cycles.
    pub(crate) makespan: u64,
    /// Scripts per million cycles, as [`slopt_sim::RunResult::throughput`]
    /// computed it.
    pub(crate) throughput: f64,
}

/// An interned program identity (program text plus action mix).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ProgramId(u32);

/// The interned inputs of a run, all but the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct InputsId(u32);

/// Simulated runs shared by every grid measured under one context.
/// Clones share one memo.
#[derive(Clone, Default)]
pub struct RunMemo {
    state: Arc<Mutex<MemoState>>,
}

#[derive(Default)]
struct MemoState {
    programs: HashMap<String, u32>,
    configs: HashMap<String, u32>,
    inputs: HashMap<(u32, u32, Box<[u64]>), u32>,
    runs: HashMap<(InputsId, u64), Arc<OnceLock<RunSummary>>>,
}

fn intern<K: Eq + Hash>(map: &mut HashMap<K, u32>, key: K) -> u32 {
    let next = u32::try_from(map.len()).expect("fewer than 2^32 interned keys");
    *map.entry(key).or_insert(next)
}

/// A layout table as words: per record, in id order, its id, size,
/// alignment, line size and field count, then every field's offset and
/// size.
pub(crate) fn canonical_table(table: &LayoutTable) -> Box<[u64]> {
    let mut words = Vec::new();
    for (rec, layout) in table.iter() {
        let fields = layout.order().len();
        words.extend([
            u64::from(rec.0),
            layout.size(),
            layout.align(),
            layout.line_size(),
            fields as u64,
        ]);
        for f in (0..fields as u32).map(FieldIdx) {
            words.extend([layout.offset(f), layout.field_size(f)]);
        }
    }
    words.into_boxed_slice()
}

/// The identity of a workload: its printed program and action mix.
pub(crate) fn program_text(spec: &impl WorkloadSpec) -> String {
    format!("{}\n{:?}", print_program(spec.program()), spec.actions())
}

/// A machine and workload config as text.
pub(crate) fn config_text(machine: &Machine, sdet: &SdetConfig) -> String {
    format!("{machine:?} {sdet:?}")
}

impl RunMemo {
    /// The interned [`program_text`].
    pub(crate) fn program_id(&self, text: &str) -> ProgramId {
        ProgramId(intern(&mut self.lock().programs, text.to_string()))
    }

    /// The inputs of a run on `program`, everything but the seed: a
    /// [`config_text`] and a [`canonical_table`].
    pub(crate) fn inputs_id(&self, program: ProgramId, config: &str, words: &[u64]) -> InputsId {
        let mut st = self.lock();
        let config = intern(&mut st.configs, config.to_string());
        InputsId(intern(&mut st.inputs, (program.0, config, words.into())))
    }

    /// The run of `inputs` at `seed`: the memoized one, or `simulate()`'s
    /// on the first request. A request made while the same run is in
    /// flight waits for it. The flag is `true` on a hit.
    pub(crate) fn run(
        &self,
        inputs: InputsId,
        seed: u64,
        simulate: impl FnOnce() -> RunSummary,
    ) -> (RunSummary, bool) {
        let slot = Arc::clone(self.lock().runs.entry((inputs, seed)).or_default());
        let mut simulated = false;
        let summary = *slot.get_or_init(|| {
            simulated = true;
            simulate()
        });
        (summary, !simulated)
    }

    fn lock(&self) -> MutexGuard<'_, MemoState> {
        // The state is only inserted into, never left half-updated, so a
        // panic elsewhere while it was held does not invalidate it.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slopt_workload::{baseline_layouts, build_kernel};

    #[test]
    fn canonical_words_ignore_insertion_order() {
        let kernel = build_kernel();
        let a = baseline_layouts(&kernel, 128);
        let mut b = LayoutTable::new();
        let mut recs: Vec<_> = a.iter().collect();
        recs.reverse();
        for (r, l) in recs {
            b.set(r, l.clone());
        }
        assert_eq!(canonical_table(&a), canonical_table(&b));
    }

    #[test]
    fn run_simulates_once_per_key() {
        let memo = RunMemo::default();
        let kernel = build_kernel();
        let program = memo.program_id(&program_text(&kernel));
        assert_eq!(program, memo.program_id(&program_text(&kernel)));
        let words = canonical_table(&baseline_layouts(&kernel, 128));
        let sdet = SdetConfig::default();
        let inputs = memo.inputs_id(program, &config_text(&Machine::bus(2), &sdet), &words);
        let other = memo.inputs_id(program, &config_text(&Machine::bus(4), &sdet), &words);
        assert_ne!(inputs, other, "the machine is part of the key");
        let summary = |makespan| RunSummary {
            makespan,
            throughput: 1.0,
        };
        assert_eq!(memo.run(inputs, 1, || summary(10)), (summary(10), false));
        assert_eq!(memo.run(inputs, 1, || summary(99)), (summary(10), true));
        assert_eq!(memo.run(inputs, 2, || summary(20)), (summary(20), false));
        assert_eq!(memo.run(other, 1, || summary(30)), (summary(30), false));
    }
}
