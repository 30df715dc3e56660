//! Real-hardware false-sharing demonstration with `#[repr(C)]` layout
//! control — the motivation experiment on the machine this benchmark runs
//! on (the reproduction's analogue of measuring on real HP hardware).
//!
//! Two layouts of the same "statistics block":
//!
//! * **packed** — 8 atomic counters contiguous in one or two cache lines
//!   (what sort-by-hotness would produce);
//! * **isolated** — each counter alone on a 128-byte-aligned line (what
//!   the paper's tool produces for struct A).
//!
//! Each worker thread hammers its own counter; the packed layout forces
//! coherence traffic between threads that share no data. Expect the
//! isolated layout to be several times faster at 4+ threads.
//!
//! A plain `main` timed with `Instant`: each row is warmed up once, then
//! the median of [`REPS`] runs is printed.
//!
//! Run with: `cargo bench -p slopt-bench --bench host_false_sharing`

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

const COUNTERS: usize = 8;
const OPS_PER_THREAD: u64 = 200_000;
const REPS: usize = 9;

/// Counters packed shoulder to shoulder: classic false sharing.
#[repr(C)]
struct Packed {
    counters: [AtomicU64; COUNTERS],
}

/// One counter per 128-byte coherence block (Itanium L2 line size; also a
/// safe upper bound for x86's 64 B lines and adjacent-line prefetchers).
#[repr(C, align(128))]
struct IsolatedSlot {
    counter: AtomicU64,
    _pad: [u8; 120],
}

#[repr(C)]
struct Isolated {
    slots: [IsolatedSlot; COUNTERS],
}

fn new_packed() -> Packed {
    Packed {
        counters: std::array::from_fn(|_| AtomicU64::new(0)),
    }
}

fn new_isolated() -> Isolated {
    Isolated {
        slots: std::array::from_fn(|_| IsolatedSlot {
            counter: AtomicU64::new(0),
            _pad: [0; 120],
        }),
    }
}

fn hammer(counters: &[&AtomicU64], threads: usize) {
    thread::scope(|s| {
        for t in 0..threads {
            let counter = counters[t % counters.len()];
            s.spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
}

/// Median wall time of one `hammer(counters, threads)` after a warm-up.
fn time_hammer(counters: &[&AtomicU64], threads: usize) -> Duration {
    hammer(counters, threads);
    let mut times: Vec<Duration> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            hammer(counters, threads);
            start.elapsed()
        })
        .collect();
    times.sort();
    times[REPS / 2]
}

fn main() {
    let max_threads = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    if max_threads < 2 {
        eprintln!(
            "host_false_sharing: only {max_threads} hardware thread(s) available; \
             running the 2-thread case anyway — expect a muted effect (threads \
             timeshare one core, so no real coherence traffic)."
        );
    }
    let packed = new_packed();
    let isolated = new_isolated();
    let layouts: [(&str, Vec<&AtomicU64>); 2] = [
        ("packed", packed.counters.iter().collect()),
        (
            "isolated",
            isolated.slots.iter().map(|s| &s.counter).collect(),
        ),
    ];
    println!("layout     threads   median ms   Mops/s");
    for &threads in &[2usize, 4, 8] {
        // Always measure the smallest case so the bench produces output on
        // any machine; skip only the larger over-subscriptions.
        if threads > max_threads.max(2) {
            continue;
        }
        let ops = (threads as u64 * OPS_PER_THREAD) as f64;
        for (name, counters) in &layouts {
            let t = time_hammer(counters, threads).as_secs_f64();
            println!(
                "{name:<10} {threads:>7} {:>11.3} {:>8.1}",
                t * 1e3,
                ops / t / 1e6
            );
        }
    }
}
