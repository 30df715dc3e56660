//! Reproduces the paper's Figure 4/5 example exactly: the affinity graph
//! of a three-field struct with straight-line and loop affinity groups.
//!
//! ```c
//! /* entry PBO count: n */
//! S.f1 = ;  S.f2 = ;
//! for (int i = 0; i < N; i++) {
//!     S.f3 = ;
//!     = S.f3 + S.f1;
//!     = S.f3;
//! }
//! ```
//!
//! Expected graph (paper Fig. 5): edge `f1–f2 = n`, edge `f1–f3 = N`,
//! `h(f1) = N + n`, `f3: R = 2N, W = N`, `f2: R = 0, W = n`.
//!
//! Run with: `cargo run --example affinity_graph`

use slopt::ir::affinity::AffinityGraph;
use slopt::ir::builder::{FunctionBuilder, ProgramBuilder};
use slopt::ir::cfg::InstanceSlot;
use slopt::ir::interp::profile_invocations;
use slopt::ir::types::{FieldIdx, FieldType, PrimType, RecordType, TypeRegistry};

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 5u64; // entry count "n"
    let trip = 100u32; // loop trip "N"

    let mut registry = TypeRegistry::new();
    let s = registry.add_record(RecordType::new(
        "S",
        vec![
            ("f1", FieldType::Prim(PrimType::U64)),
            ("f2", FieldType::Prim(PrimType::U64)),
            ("f3", FieldType::Prim(PrimType::U64)),
        ],
    ));
    let (f1, f2, f3) = (FieldIdx(0), FieldIdx(1), FieldIdx(2));

    let mut pb = ProgramBuilder::new(registry);
    let mut fb = FunctionBuilder::new("fig4");
    let entry = fb.add_block();
    let body = fb.add_block();
    let exit = fb.add_block();
    let slot = InstanceSlot(0);
    fb.write(entry, s, f1, slot)
        .write(entry, s, f2, slot)
        .jump(entry, body);
    fb.write(body, s, f3, slot)
        .read(body, s, f3, slot)
        .read(body, s, f1, slot)
        .read(body, s, f3, slot)
        .loop_latch(body, body, exit, trip);
    let func = pb.add(fb, entry);
    let program = pb.finish();

    // "PBO collect": run the function n times.
    let profile = profile_invocations(&program, &vec![func; n as usize], 1, 1_000_000)?;
    let graph = AffinityGraph::analyze(&program, &profile, s);

    println!("{graph}");

    let big_n = n * u64::from(trip);
    assert_eq!(graph.weight(f1, f2), n, "straight-line group: w(f1,f2) = n");
    assert_eq!(graph.weight(f1, f3), big_n, "loop group: w(f1,f3) = N");
    assert_eq!(graph.weight(f2, f3), 0, "f2 and f3 never share a region");
    assert_eq!(graph.hotness(f1), big_n + n, "h(f1) = N + n");
    assert_eq!(graph.read_count(f3), 2 * big_n, "f3: R = 2N");
    assert_eq!(graph.write_count(f3), big_n, "f3: W = N");
    println!("matches the paper's Figure 5 exactly (n = {n}, N = {big_n}).");
    Ok(())
}
