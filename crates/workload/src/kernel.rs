//! The synthetic kernel: syscall-like IR functions over structs A–E.
//!
//! Each function models a hot kernel path with the access pattern that
//! gives its structure the character described in [`crate::structs`]:
//!
//! * `a_stat_update_<k>` — the classic false-sharing pattern: every script
//!   bumps one of eight global statistics counters on the *shared* struct-A
//!   instance (CPU `i` uses counter `i mod 8`), reading two hot fields on
//!   the way. On a 128-way machine eight CPU classes write eight different
//!   fields concurrently — any layout that co-locates the counters (or a
//!   counter with the hot read fields) pays dearly.
//! * `a_hot_scan` — all CPUs loop over the shared instance's hot read-only
//!   fields (scheduler-style scan): strong mutual affinity, and heavy
//!   read traffic that false-shares with any co-located counter.
//! * `b_lookup` / `c_scan` / `d_read` — loop/straight-line affinity groups
//!   over pooled instances: the spatial-locality side of the trade-off.
//! * `e_tick` / `e_steal` — per-CPU runqueues written by their owner and
//!   probed by stealers: a writer/reader false-sharing pair
//!   (`steal_count` vs the ring fields).
//!
//! Functions are exposed as weighted [`Action`]s; the SDET-like driver in
//! [`crate::sdet`] draws from this table to build scripts.

use crate::structs::{register_all, KernelRecords, STAT_CLASSES};
use slopt_ir::builder::{FunctionBuilder, ProgramBuilder};
use slopt_ir::cfg::{FuncId, InstanceSlot, Program};
use slopt_ir::types::{FieldIdx, RecordId, RecordType, TypeRegistry};

/// How an instance slot of an action must be bound by the driver.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub enum SlotKind {
    /// The single shared (global) instance of the record.
    Shared(RecordId),
    /// The executing CPU's own per-CPU instance.
    OwnCpu(RecordId),
    /// A randomly chosen *other* CPU's per-CPU instance.
    OtherCpu(RecordId),
    /// A randomly chosen instance from the record's pool.
    Pool(RecordId),
}

impl SlotKind {
    /// The record this slot binds.
    pub fn record(self) -> RecordId {
        match self {
            SlotKind::Shared(r)
            | SlotKind::OwnCpu(r)
            | SlotKind::OtherCpu(r)
            | SlotKind::Pool(r) => r,
        }
    }
}

/// One entry of the syscall mix.
#[derive(Clone, Debug)]
pub struct Action {
    /// Human-readable name (e.g. `a_stat_update`).
    pub name: String,
    /// Relative selection weight in the script mix.
    pub weight: f64,
    /// Function variants; the driver picks `variants[cpu % len]`. Most
    /// actions have one variant; `a_stat_update` has [`STAT_CLASSES`].
    pub variants: Vec<FuncId>,
    /// Slot binding recipe, indexed by [`InstanceSlot`].
    pub slots: Vec<SlotKind>,
}

/// Anything the SDET-like driver can run: an IR program plus a weighted
/// action mix. Implemented by the built-in [`Kernel`] and by
/// [`CustomWorkload`] (e.g. parsed from a `.sir` file + workload spec).
pub trait WorkloadSpec {
    /// The IR program.
    fn program(&self) -> &Program;
    /// The weighted action mix.
    fn actions(&self) -> &[Action];

    /// Convenience: the record type behind an id.
    fn record_type(&self, id: RecordId) -> &RecordType {
        self.program().registry().record(id)
    }
}

/// A user-supplied workload: any program with any action mix.
#[derive(Debug)]
pub struct CustomWorkload {
    /// The IR program (e.g. parsed from a `.sir` file).
    pub program: Program,
    /// The weighted action mix.
    pub actions: Vec<Action>,
}

impl WorkloadSpec for CustomWorkload {
    fn program(&self) -> &Program {
        &self.program
    }
    fn actions(&self) -> &[Action] {
        &self.actions
    }
}

/// The whole synthetic kernel: program + records + action mix.
#[derive(Debug)]
pub struct Kernel {
    /// The IR program containing every kernel function.
    pub program: Program,
    /// The five structures under study.
    pub records: KernelRecords,
    /// The weighted syscall mix.
    pub actions: Vec<Action>,
}

impl WorkloadSpec for Kernel {
    fn program(&self) -> &Program {
        &self.program
    }
    fn actions(&self) -> &[Action] {
        &self.actions
    }
}

impl Kernel {
    /// The record type of a kernel record id.
    pub fn record_type(&self, id: RecordId) -> &RecordType {
        self.program.registry().record(id)
    }

    /// Finds a field of a record by name.
    ///
    /// # Panics
    ///
    /// Panics if the field does not exist — kernel-internal names are
    /// static.
    pub fn field(&self, rec: RecordId, name: &str) -> FieldIdx {
        self.record_type(rec)
            .field_by_name(name)
            .unwrap_or_else(|| panic!("no field `{name}` in {rec}"))
    }

    /// The same kernel with every call inlined (paper §3.1's mitigation
    /// for the intra-procedural affinity approximation). Function ids,
    /// action table, slot bindings and source lines are all preserved, so
    /// the inlined kernel is a drop-in replacement for analysis and
    /// execution.
    pub fn inlined(&self, params: slopt_ir::inline::InlineParams) -> Kernel {
        Kernel {
            program: slopt_ir::inline::inline_program(&self.program, params),
            records: self.records,
            actions: self.actions.clone(),
        }
    }
}

const S0: InstanceSlot = InstanceSlot(0);
const S1: InstanceSlot = InstanceSlot(1);

/// Builds the synthetic kernel.
pub fn build_kernel() -> Kernel {
    let mut registry = TypeRegistry::new();
    let records = register_all(&mut registry);
    let (a, b, c, d, e) = (records.a, records.b, records.c, records.d, records.e);

    // Resolve field indices once.
    let f = |rec: &RecordType, name: &str| rec.field_by_name(name).expect("kernel field");
    let ra = registry.record(a).clone();
    let rb = registry.record(b).clone();
    let rc = registry.record(c).clone();
    let rd = registry.record(d).clone();
    let re = registry.record(e).clone();

    let mut pb = ProgramBuilder::new(registry);
    let mut actions: Vec<Action> = Vec::new();

    // --- struct A ------------------------------------------------------
    // a_stat_update_<k>: read flags, read state, write stat<k>. Shared
    // instance; run by CPUs with cpu % STAT_CLASSES == k.
    let mut stat_variants = Vec::new();
    for k in 0..STAT_CLASSES {
        let mut fb = FunctionBuilder::new(format!("a_stat_update_{k}"));
        let b0 = fb.add_block();
        fb.read(b0, a, f(&ra, "flags"), S0)
            .read(b0, a, f(&ra, "state"), S0)
            .write(b0, a, f(&ra, &format!("stat{k}")), S0)
            .compute(b0, 140);
        stat_variants.push(pb.add(fb, b0));
    }
    actions.push(Action {
        name: "a_stat_update".to_string(),
        weight: 2.5,
        variants: stat_variants,
        slots: vec![SlotKind::Shared(a)],
    });

    // a_hot_scan: loop reading the hot read-mostly fields of the shared
    // instance (scheduler scan style).
    {
        let mut fb = FunctionBuilder::new("a_hot_scan");
        let entry = fb.add_block();
        let body = fb.add_block();
        let exit = fb.add_block();
        fb.jump(entry, body);
        for name in ["pid", "flags", "state", "pri", "policy", "cpu_last"] {
            fb.read(body, a, f(&ra, name), S0);
        }
        fb.compute(body, 40);
        fb.loop_latch(body, body, exit, 12);
        let id = pb.add(fb, entry);
        actions.push(Action {
            name: "a_hot_scan".to_string(),
            weight: 2.0,
            variants: vec![id],
            slots: vec![SlotKind::Shared(a)],
        });
    }

    // a_proc_touch: lock + pointer chase on a pooled (per-process)
    // instance; occasional cold-field writes.
    {
        let mut fb = FunctionBuilder::new("a_proc_touch");
        let b0 = fb.add_block();
        let cold = fb.add_block();
        let out = fb.add_block();
        fb.write(b0, a, f(&ra, "lock"), S0)
            .read(b0, a, f(&ra, "fd_ptr"), S0)
            .read(b0, a, f(&ra, "vm_ptr"), S0)
            .compute(b0, 150)
            .branch(b0, cold, out, 0.1);
        fb.write(cold, a, f(&ra, "cold_a0_0"), S0)
            .write(cold, a, f(&ra, "cold_a3_5"), S0)
            .write(cold, a, f(&ra, "lock"), S0)
            .jump(cold, out);
        fb.write(out, a, f(&ra, "lock"), S0);
        let id = pb.add(fb, b0);
        actions.push(Action {
            name: "a_proc_touch".to_string(),
            weight: 1.0,
            variants: vec![id],
            slots: vec![SlotKind::Pool(a)],
        });
    }

    // a_reap: periodic housekeeping walks a pooled process entry,
    // touching fields from every region of the structure (resource-limit
    // checks, accounting rollup). This is what makes the structure's
    // *footprint* matter: a layout that inflates the record (e.g. one
    // padded line per isolated counter plus a sprawling cold tail) pays
    // for it here.
    {
        let mut fb = FunctionBuilder::new("a_reap");
        let entry = fb.add_block();
        let body = fb.add_block();
        let exit = fb.add_block();
        fb.jump(entry, body);
        for i in 0..16 {
            fb.read(body, a, f(&ra, &format!("acct{i}")), S0);
        }
        fb.compute(body, 90);
        fb.loop_latch(body, body, exit, 2);
        let id = pb.add(fb, entry);
        actions.push(Action {
            name: "a_reap".to_string(),
            weight: 0.5,
            variants: vec![id],
            slots: vec![SlotKind::Pool(a)],
        });
    }

    // --- struct B ------------------------------------------------------
    // b_lookup: loop over the five lookup fields of a pooled vnode.
    {
        let mut fb = FunctionBuilder::new("b_lookup");
        let entry = fb.add_block();
        let body = fb.add_block();
        let exit = fb.add_block();
        fb.jump(entry, body);
        for name in ["v_hash", "v_name", "v_parent", "v_flags", "v_type"] {
            fb.read(body, b, f(&rb, name), S0);
        }
        fb.compute(body, 70);
        fb.loop_latch(body, body, exit, 8);
        let id = pb.add(fb, entry);
        actions.push(Action {
            name: "b_lookup".to_string(),
            weight: 2.5,
            variants: vec![id],
            slots: vec![SlotKind::Pool(b)],
        });
    }

    // b_open_close: refcount bump/drop on a pooled vnode. The refcount
    // manipulation lives in a helper function (as VFS layers really do),
    // which hides the v_flags <-> v_refcnt affinity from the
    // intra-procedural analysis -- unless the program is inlined first
    // (paper 3.1; see `Kernel::inlined` and `ablate inline`).
    let b_ref_mod = {
        let mut fb = FunctionBuilder::new("b_ref_mod");
        let b0 = fb.add_block();
        fb.write(b0, b, f(&rb, "v_refcnt"), S0).compute(b0, 15);
        pb.add(fb, b0)
    };
    {
        let mut fb = FunctionBuilder::new("b_open_close");
        let b0 = fb.add_block();
        fb.read(b0, b, f(&rb, "v_flags"), S0)
            .call(b0, b_ref_mod)
            .compute(b0, 100)
            .call(b0, b_ref_mod);
        let id = pb.add(fb, b0);
        actions.push(Action {
            name: "b_open_close".to_string(),
            weight: 1.5,
            variants: vec![id],
            slots: vec![SlotKind::Pool(b)],
        });
    }

    // b_attr_sync: attribute write-back touches cold vnode fields across
    // the record (same footprint role as a_reap for struct B).
    {
        let mut fb = FunctionBuilder::new("b_attr_sync");
        let b0 = fb.add_block();
        for name in [
            "cold_b0_2",
            "cold_b1_4",
            "cold_b2_5",
            "cold_b3_1",
            "cold_b4_6",
        ] {
            fb.read(b0, b, f(&rb, name), S0);
        }
        fb.compute(b0, 100);
        let id = pb.add(fb, b0);
        actions.push(Action {
            name: "b_attr_sync".to_string(),
            weight: 0.4,
            variants: vec![id],
            slots: vec![SlotKind::Pool(b)],
        });
    }

    // --- struct C ------------------------------------------------------
    // c_scan: traversal loop over a pooled buffer header, then an LRU
    // timestamp write.
    {
        let mut fb = FunctionBuilder::new("c_scan");
        let entry = fb.add_block();
        let body = fb.add_block();
        let tail = fb.add_block();
        fb.jump(entry, body);
        for name in ["next", "key", "size", "bstate"] {
            fb.read(body, c, f(&rc, name), S0);
        }
        fb.compute(body, 35);
        fb.loop_latch(body, body, tail, 10);
        fb.write(tail, c, f(&rc, "lru_tick"), S0);
        let id = pb.add(fb, entry);
        actions.push(Action {
            name: "c_scan".to_string(),
            weight: 2.0,
            variants: vec![id],
            slots: vec![SlotKind::Pool(c)],
        });
    }

    // c_insert: populate a pooled buffer header.
    {
        let mut fb = FunctionBuilder::new("c_insert");
        let b0 = fb.add_block();
        for name in ["next", "key", "size", "bstate", "lru_tick"] {
            fb.write(b0, c, f(&rc, name), S0);
        }
        fb.compute(b0, 90);
        let id = pb.add(fb, b0);
        actions.push(Action {
            name: "c_insert".to_string(),
            weight: 0.8,
            variants: vec![id],
            slots: vec![SlotKind::Pool(c)],
        });
    }

    // --- struct D ------------------------------------------------------
    // d_read / d_write: per-file hot group on a pooled instance (slot 0)
    // plus a global I/O counter on the shared instance (slot 1).
    for (name, counter, weight) in [
        ("d_read", "io_reads", 1.5f64),
        ("d_write", "io_writes", 0.7f64),
    ] {
        let mut fb = FunctionBuilder::new(name);
        let b0 = fb.add_block();
        let stat = fb.add_block();
        let out = fb.add_block();
        fb.read(b0, d, f(&rd, "f_pos"), S0)
            .read(b0, d, f(&rd, "f_vnode"), S0)
            .read(b0, d, f(&rd, "f_flags"), S0)
            .read(b0, d, f(&rd, "f_mode"), S0)
            .write(b0, d, f(&rd, "f_pos"), S0)
            .compute(b0, 140)
            // Global I/O accounting is batched: only a fraction of
            // operations flush to the shared counters (a kernel that
            // updated a global counter on every I/O would bottleneck on
            // it regardless of layout).
            .branch(b0, stat, out, 0.12);
        fb.write(stat, d, f(&rd, counter), S1).jump(stat, out);
        let id = pb.add(fb, b0);
        actions.push(Action {
            name: if counter == "io_reads" {
                "d_read".to_string()
            } else {
                "d_write".to_string()
            },
            weight,
            variants: vec![id],
            slots: vec![SlotKind::Pool(d), SlotKind::Shared(d)],
        });
    }

    // --- struct E ------------------------------------------------------
    // e_tick: the owner updates its own runqueue ring.
    {
        let mut fb = FunctionBuilder::new("e_tick");
        let b0 = fb.add_block();
        for name in ["rq_head", "rq_tail", "rq_len", "rq_clock"] {
            fb.write(b0, e, f(&re, name), S0);
        }
        fb.read(b0, e, f(&re, "cold_e0_0"), S0);
        fb.compute(b0, 80);
        let id = pb.add(fb, b0);
        actions.push(Action {
            name: "e_tick".to_string(),
            weight: 2.0,
            variants: vec![id],
            slots: vec![SlotKind::OwnCpu(e)],
        });
    }

    // e_steal: probe another CPU's runqueue and record the attempt there.
    {
        let mut fb = FunctionBuilder::new("e_steal");
        let b0 = fb.add_block();
        fb.read(b0, e, f(&re, "rq_len"), S0)
            .read(b0, e, f(&re, "rq_head"), S0)
            .compute(b0, 60)
            .write(b0, e, f(&re, "steal_count"), S0);
        let id = pb.add(fb, b0);
        actions.push(Action {
            name: "e_steal".to_string(),
            weight: 0.6,
            variants: vec![id],
            slots: vec![SlotKind::OtherCpu(e)],
        });
    }

    Kernel {
        program: pb.finish(),
        records,
        actions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_builds_with_expected_shape() {
        let k = build_kernel();
        assert_eq!(k.program.registry().len(), 5);
        // 8 stat variants + 10 other functions.
        assert_eq!(k.program.function_count(), STAT_CLASSES + 13);
        assert_eq!(k.actions.len(), 13);
        let stat = k
            .actions
            .iter()
            .find(|a| a.name == "a_stat_update")
            .unwrap();
        assert_eq!(stat.variants.len(), STAT_CLASSES);
        for action in &k.actions {
            assert!(!action.variants.is_empty());
            assert!(action.weight > 0.0);
            assert!(!action.slots.is_empty());
        }
    }

    #[test]
    fn stat_variants_write_distinct_counters() {
        let k = build_kernel();
        let stat = k
            .actions
            .iter()
            .find(|a| a.name == "a_stat_update")
            .unwrap();
        let mut written = std::collections::HashSet::new();
        for &v in &stat.variants {
            let func = k.program.function(v);
            for (_, block) in func.blocks() {
                for acc in block.accesses() {
                    if acc.kind.is_write() {
                        written.insert(acc.field);
                    }
                }
            }
        }
        assert_eq!(written.len(), STAT_CLASSES);
    }

    #[test]
    fn every_action_slot_covers_every_accessed_slot() {
        let k = build_kernel();
        for action in &k.actions {
            for &v in &action.variants {
                let func = k.program.function(v);
                for (_, block) in func.blocks() {
                    for acc in block.accesses() {
                        let slot = acc.slot.0 as usize;
                        assert!(
                            slot < action.slots.len(),
                            "{}: slot {slot} unbound",
                            action.name
                        );
                        assert_eq!(
                            action.slots[slot].record(),
                            acc.record,
                            "{}: slot {slot} binds wrong record",
                            action.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn source_lines_are_unique_across_functions() {
        let k = build_kernel();
        let mut lines = std::collections::HashSet::new();
        for (_, func) in k.program.functions() {
            for (_, block) in func.blocks() {
                assert!(lines.insert(block.line), "duplicate {}", block.line);
            }
        }
    }

    #[test]
    fn field_lookup_helper_panics_on_bad_name() {
        let k = build_kernel();
        assert_eq!(k.field(k.records.a, "pid"), k.field(k.records.a, "pid"));
        let result = std::panic::catch_unwind(|| k.field(k.records.a, "nope"));
        assert!(result.is_err());
    }
}
