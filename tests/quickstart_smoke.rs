//! Every example is documentation the README points at; keep them honest
//! by compiling each example's source into the test suite and running
//! it. The examples' own asserts are the smoke checks: quickstart's scan
//! pair is co-located and its counter isolated, affinity_graph reproduces
//! the paper's Fig. 5 graph, false_sharing_probe's split layout stops
//! false sharing, and global_layout's concurrency-aware section beats
//! link order.

// `main` (the example's CLI flag parsing) is unused here; only `run` is.
#[allow(dead_code)]
#[path = "../examples/quickstart.rs"]
mod quickstart;

#[path = "../examples/affinity_graph.rs"]
mod affinity_graph;

#[path = "../examples/false_sharing_probe.rs"]
mod false_sharing_probe;

#[path = "../examples/global_layout.rs"]
mod global_layout;

#[path = "../examples/kernel_tuning.rs"]
mod kernel_tuning;

#[test]
fn quickstart_example_runs_clean() {
    // Disabled observability handle — the cost the example pays when run
    // without `--trace-out`/`--stats`.
    quickstart::run(&slopt::obs::Obs::disabled())
        .expect("quickstart example must run without error");
}

#[test]
fn affinity_graph_example_runs_clean() {
    affinity_graph::main().expect("affinity_graph example must run without error");
}

#[test]
fn false_sharing_probe_example_runs_clean() {
    false_sharing_probe::main().expect("false_sharing_probe example must run without error");
}

#[test]
fn global_layout_example_runs_clean() {
    global_layout::main();
}

#[test]
fn kernel_tuning_example_runs_clean() {
    kernel_tuning::main();
}
