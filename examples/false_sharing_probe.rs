//! A `perf c2c`-style probe: make false sharing *visible* and then watch a
//! one-line layout change eliminate it.
//!
//! Two CPUs increment two different fields of one shared struct. With the
//! packed layout both fields share a cache line and every increment
//! invalidates the other CPU's copy; the probe's per-record statistics
//! attribute the misses to false sharing. Splitting the fields onto
//! separate lines removes all of it.
//!
//! Run with: `cargo run --example false_sharing_probe`

use slopt::ir::builder::{FunctionBuilder, ProgramBuilder};
use slopt::ir::cfg::InstanceSlot;
use slopt::ir::layout::StructLayout;
use slopt::ir::types::{FieldIdx, FieldType, PrimType, RecordType, TypeRegistry};
use slopt::sim::{
    AccessClass, CacheConfig, EngineConfig, Invocation, LatencyModel, LayoutTable, MemSystem,
    Script, Topology,
};

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut registry = TypeRegistry::new();
    let rec = registry.add_record(RecordType::new(
        "stats",
        vec![
            ("reads", FieldType::Prim(PrimType::U64)),
            ("writes", FieldType::Prim(PrimType::U64)),
        ],
    ));
    let ty = registry.record(rec).clone();

    // Two single-block functions, each hammering one field in a loop.
    let mut pb = ProgramBuilder::new(registry);
    let mut ids = Vec::new();
    for field in 0..2u32 {
        let mut fb = FunctionBuilder::new(format!("bump{field}"));
        let entry = fb.add_block();
        let body = fb.add_block();
        let exit = fb.add_block();
        fb.jump(entry, body);
        fb.write(body, rec, FieldIdx(field), InstanceSlot(0))
            .compute(body, 25)
            .loop_latch(body, body, exit, 2_000);
        ids.push(pb.add(fb, entry));
    }
    let program = pb.finish();

    let shared = 0x8_000u64;
    let run = |layout: StructLayout| -> (u64, u64, u64) {
        let mut layouts = LayoutTable::new();
        layouts.set(rec, layout);
        let mut mem = MemSystem::new(
            Topology::superdome(2),
            LatencyModel::superdome(),
            CacheConfig {
                line_size: 128,
                sets: 128,
                ways: 4,
            },
        );
        let workload = ids
            .iter()
            .map(|&f| {
                vec![Script {
                    invocations: vec![Invocation {
                        func: f,
                        bindings: vec![shared],
                    }],
                }]
            })
            .collect();
        let result = slopt::sim::run(
            &program,
            &layouts,
            &mut mem,
            workload,
            &EngineConfig::default(),
            &mut slopt::sim::NullObserver,
        )
        .expect("finite workload");
        (
            result.makespan,
            mem.stats()
                .class_for(rec, AccessClass::FalseSharingMiss)
                .count,
            mem.stats()
                .class_for(rec, AccessClass::TrueSharingMiss)
                .count,
        )
    };

    let packed = StructLayout::declaration_order(&ty, 128)?;
    let split = StructLayout::from_groups(&ty, &[vec![FieldIdx(0)], vec![FieldIdx(1)]], 128)?;

    let (t_packed, fs_packed, ts_packed) = run(packed);
    let (t_split, fs_split, ts_split) = run(split);

    println!("layout    makespan   false-sharing  true-sharing");
    println!("packed  {t_packed:>10}   {fs_packed:>13}  {ts_packed:>12}");
    println!("split   {t_split:>10}   {fs_split:>13}  {ts_split:>12}");
    println!(
        "splitting the two counters onto separate lines made the run {:.1}x faster",
        t_packed as f64 / t_split as f64
    );
    assert!(fs_packed > 1_000, "packed layout must false-share heavily");
    assert_eq!(fs_split, 0, "split layout must not false-share");
    assert!(t_packed > 2 * t_split);
    Ok(())
}
