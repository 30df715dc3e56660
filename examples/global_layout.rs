//! Concurrency-aware Global Variable Layout — the paper's future work
//! (§7) in action, validated on the simulator.
//!
//! Four CPUs each bump their own global tick counter while all CPUs read
//! a pair of configuration globals in a hot loop. A link-order layout
//! packs everything into one cache line (32 bytes of globals!); the
//! concurrency-aware layout splits the writers apart. We measure both on
//! the simulated machine.
//!
//! Run with: `cargo run --example global_layout`

use slopt::core::{layout_globals, random_layout, GvlProblem};
use slopt::ir::layout::StructLayout;
use slopt::ir::types::FieldIdx;
use slopt::sim::{AccessClass, CacheConfig, CpuId, LatencyModel, MemSystem, Topology};

const SECTION_BASE: u64 = 0x100_000;

/// Replays the workload's access pattern against a section layout and
/// returns (total cycles, false-sharing misses).
fn replay(layout: &StructLayout, counters: &[FieldIdx], cfg: &[FieldIdx]) -> (u64, u64) {
    let mut mem = MemSystem::new(
        Topology::superdome(4),
        LatencyModel::superdome(),
        CacheConfig {
            line_size: 128,
            sets: 64,
            ways: 4,
        },
    );
    let mut now = [0u64; 4];
    for round in 0..2_000u64 {
        for cpu in 0..4usize {
            let c = CpuId(cpu as u16);
            // Every CPU bumps its own counter...
            let addr = SECTION_BASE + layout.offset(counters[cpu]);
            now[cpu] += mem.access(c, addr, 8, true, None, now[cpu]);
            // ...and reads the shared configuration pair.
            for &g in cfg {
                let addr = SECTION_BASE + layout.offset(g);
                now[cpu] += mem.access(c, addr, 8, false, None, now[cpu]);
            }
            now[cpu] += 25; // compute
        }
        let _ = round;
    }
    let makespan = now.iter().copied().max().unwrap_or(0);
    (
        makespan,
        mem.stats().class(AccessClass::FalseSharingMiss).count,
    )
}

pub fn main() {
    let mut problem = GvlProblem::new();
    // Per-CPU tick counters (hot writers).
    let counters: Vec<FieldIdx> = (0..4)
        .map(|i| problem.add_global(format!("ticks_cpu{i}"), 8, 8, 1_000))
        .collect();
    // Configuration pair (hot readers).
    let hz = problem.add_global("hz", 8, 8, 2_000);
    let tick_ns = problem.add_global("tick_ns", 8, 8, 2_000);
    // A few cold globals for realism.
    for i in 0..6 {
        problem.add_global(format!("debug_knob{i}"), 8, 8, 0);
    }

    // Edges as the tool would derive them: counters are written
    // concurrently (pairwise loss), each counter also conflicts with the
    // hot read pair; the config pair is read together (gain).
    for i in 0..counters.len() {
        for j in (i + 1)..counters.len() {
            problem.set_weight(counters[i], counters[j], -400.0);
        }
        problem.set_weight(counters[i], hz, -300.0);
        problem.set_weight(counters[i], tick_ns, -300.0);
    }
    problem.set_weight(hz, tick_ns, 500.0);

    // The "link order" baseline: a seeded shuffle of the section.
    let naive = random_layout(&problem.section(), 42, 128).expect("128 is a valid line size");
    let tuned = layout_globals(&problem, 128);

    let cfg = [hz, tick_ns];
    let (t_naive, fs_naive) = replay(&naive, &counters, &cfg);
    let (t_tuned, fs_tuned) = replay(&tuned, &counters, &cfg);

    println!("layout        section bytes   makespan   false-sharing misses");
    println!(
        "link-order    {:>13} {:>10} {:>22}",
        naive.size(),
        t_naive,
        fs_naive
    );
    println!(
        "concurrency   {:>13} {:>10} {:>22}",
        tuned.size(),
        t_tuned,
        fs_tuned
    );
    println!(
        "concurrency-aware GVL is {:.1}x faster on this pattern",
        t_naive as f64 / t_tuned as f64
    );
    assert!(
        fs_tuned < fs_naive / 10,
        "tuned layout must eliminate nearly all false sharing"
    );
    assert!(t_tuned < t_naive);
}
