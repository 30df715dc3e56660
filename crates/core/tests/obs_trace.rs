//! Property tests for the instrumentation event stream.
//!
//! The trace contract that `slopt-tool stats` (and the CI steps that run
//! it on saved traces) rely on is *per-thread span discipline*: on every thread, B/E
//! events form a balanced, properly nested (LIFO, name-matched) sequence.
//! Here random end-to-end pipelines — random record shapes, random access
//! patterns, random request batches, random worker counts — run against a
//! [`MemorySink`] and the recorded stream is checked for exactly that
//! discipline, plus agreement between the raw events and the aggregate
//! summary.

use proptest::prelude::*;
use slopt_core::{suggest_layout_all, LayoutRequest, ToolParams};
use slopt_ir::affinity::AffinityGraph;
use slopt_ir::builder::{FunctionBuilder, ProgramBuilder};
use slopt_ir::cfg::InstanceSlot;
use slopt_ir::interp::profile_invocations;
use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordType, TypeRegistry};
use slopt_obs::{MemorySink, Obs, TraceEvent};
use std::collections::HashMap;

/// Asserts per-thread stack discipline over the raw event stream and
/// returns, per thread, the number of completed spans.
fn check_balance(events: &[TraceEvent]) -> HashMap<u64, u64> {
    let mut stacks: HashMap<u64, Vec<&str>> = HashMap::new();
    let mut completed: HashMap<u64, u64> = HashMap::new();
    for e in events {
        match e.ph {
            'B' => stacks.entry(e.tid).or_default().push(&e.name),
            'E' => {
                let open =
                    stacks.entry(e.tid).or_default().pop().unwrap_or_else(|| {
                        panic!("E '{}' with no open span on tid {}", e.name, e.tid)
                    });
                assert_eq!(
                    open, e.name,
                    "E '{}' does not match innermost open span on tid {}",
                    e.name, e.tid
                );
                *completed.entry(e.tid).or_default() += 1;
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "spans {stack:?} still open on tid {tid} at end of run"
        );
    }
    completed
}

proptest! {
    /// Random pipeline (shape, accesses, batch size, job count): the
    /// B/E stream balances on every thread, and the aggregate summary
    /// agrees with the raw events.
    #[test]
    fn span_events_balance_per_thread(
        n_fields in 2usize..9,
        pairs in prop::collection::vec((0u32..9, 0u32..9), 1..6),
        trip in 10u32..200,
        n_requests in 1usize..7,
        jobs in 1usize..5,
    ) {
        // Build a little program whose hot loop touches a random set of
        // field pairs of a random record.
        let mut reg = TypeRegistry::new();
        let rec = reg.add_record(RecordType::new(
            "R",
            (0..n_fields)
                .map(|i| (format!("f{i}"), FieldType::Prim(PrimType::U64)))
                .collect(),
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("sweep");
        let entry = fb.add_block();
        let body = fb.add_block();
        let exit = fb.add_block();
        fb.jump(entry, body);
        for &(a, b) in &pairs {
            fb.read(body, rec, FieldIdx(a % n_fields as u32), InstanceSlot(0));
            fb.read(body, rec, FieldIdx(b % n_fields as u32), InstanceSlot(0));
        }
        fb.loop_latch(body, body, exit, trip);
        let id = pb.add(fb, entry);
        let prog = pb.finish();

        let profile = profile_invocations(&prog, &[id], 1, 100_000).unwrap();
        let affinity = AffinityGraph::analyze(&prog, &profile, rec);
        let record = prog.registry().record(rec);
        let requests: Vec<LayoutRequest<'_>> = (0..n_requests)
            .map(|_| LayoutRequest { record, affinity: &affinity, loss: None })
            .collect();

        let sink = MemorySink::new();
        let events = sink.events();
        let obs = Obs::with_sink(Box::new(sink));
        let results = suggest_layout_all(&requests, ToolParams::default(), jobs, &obs);
        prop_assert!(results.iter().all(Result::is_ok));

        let events = events.lock().unwrap();
        let completed = check_balance(&events);

        // Dense tids: at most the main thread plus one per worker.
        let max_tid = events.iter().map(|e| e.tid).max().unwrap_or(0);
        prop_assert!(
            (max_tid as usize) <= jobs,
            "dense tids expected: max tid {max_tid} with {jobs} jobs"
        );

        // The raw stream and the aggregate summary must agree.
        let summary = obs.summary();
        let total_completed: u64 = completed.values().sum();
        let total_aggregated: u64 = summary.spans.values().map(|s| s.count).sum();
        prop_assert_eq!(total_completed, total_aggregated);
        let count = |name: &str| summary.spans.get(name).map_or(0, |s| s.count);
        prop_assert_eq!(count("suggest_layout"), n_requests as u64);
        prop_assert_eq!(count("suggest_layout_all"), 1);
        prop_assert_eq!(
            count("flg_build"),
            count("cluster"),
            "one clustering pass per FLG build"
        );
    }
}
