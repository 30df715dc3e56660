//! The enabled handle's steady state does not allocate: once every name
//! and stack has been seen, opening and closing spans, counters,
//! warnings and histogram observations reuse the fold's maps and buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use slopt_obs::Obs;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread so tests on
/// other threads do not disturb the count.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the per-thread counter is a const-initialized `Cell` whose
// access never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn steady_state_events_do_not_allocate() {
    let obs = Obs::aggregating();
    let step = || {
        let _outer = obs.span("outer");
        let _inner = obs.span("inner");
        obs.counter("work.items", 1);
        obs.warning("shard.skipped");
        obs.histogram("work.cost", 42);
    };
    step();
    let before = ALLOCS.with(Cell::get);
    for _ in 0..100 {
        step();
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
    assert_eq!(obs.summary().spans["inner"].count, 101);
}
