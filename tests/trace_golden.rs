//! Golden test for `slopt-trace/1` determinism.
//!
//! A serial (`--jobs 1`-equivalent) run of the quickstart pipeline must
//! produce the same trace every time, modulo timestamps: same event
//! ordering, same span nesting, same counter values. Two back-to-back
//! runs are compared event-by-event on everything except `ts`, and the
//! replayed summary is checked for the phase spans and the coherence /
//! concurrency / FLG counters the instrumentation layer promises.

// Only the example's `run(obs)` entry point is used here, not its CLI
// `main`.
#[allow(dead_code)]
#[path = "../examples/quickstart.rs"]
mod quickstart;

use slopt::obs::json::{parse, Json};
use slopt::obs::replay::replay_str;
use slopt::obs::Obs;

/// Everything that must be stable across runs: phase, name, thread, and
/// counter value. `ts` (and nothing else) is allowed to differ.
#[derive(Debug, PartialEq)]
struct EventKey {
    ph: String,
    name: String,
    tid: u64,
    value: Option<f64>,
}

fn trace_keys(text: &str) -> Vec<EventKey> {
    text.lines()
        .map(|line| {
            let v = parse(line).expect("trace line must be valid JSON");
            EventKey {
                ph: v.get("ph").and_then(Json::as_str).unwrap().to_string(),
                name: v.get("name").and_then(Json::as_str).unwrap().to_string(),
                tid: v.get("tid").and_then(Json::as_f64).unwrap() as u64,
                value: v
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64),
            }
        })
        .collect()
}

fn traced_quickstart(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!(
        "slopt_trace_golden_{}_{tag}.jsonl",
        std::process::id()
    ));
    let obs = Obs::to_trace_file(&path).expect("trace file must open");
    quickstart::run(&obs).expect("quickstart pipeline must run clean");
    obs.finish();
    let text = std::fs::read_to_string(&path).expect("trace file must read back");
    std::fs::remove_file(&path).ok();
    text
}

#[test]
fn serial_quickstart_trace_is_deterministic_modulo_timestamps() {
    let (a, b) = (traced_quickstart("a"), traced_quickstart("b"));
    let (ka, kb) = (trace_keys(&a), trace_keys(&b));
    assert!(
        ka.len() > 10,
        "trace suspiciously short: {} events",
        ka.len()
    );
    assert_eq!(
        ka, kb,
        "two serial runs must emit identical event sequences (modulo ts)"
    );
    // Serial pipeline: every event on the main thread's dense tid 0.
    assert!(
        ka.iter().all(|k| k.tid == 0),
        "serial trace must stay on tid 0"
    );
}

#[test]
fn quickstart_trace_has_phase_spans_and_live_counters() {
    let text = traced_quickstart("c");
    let summary = replay_str(&text).expect("trace must replay clean (balanced spans)");
    assert!(text
        .lines()
        .next()
        .is_some_and(|l| l.contains("\"schema\":\"slopt-trace/1\"")));

    for span in [
        "measure_run",
        "cc_build",
        "fmf_build",
        "suggest_layout",
        "flg_build",
        "cluster",
        "layout_gen",
        "report",
    ] {
        assert!(
            summary.spans.get(span).is_some_and(|s| s.count > 0),
            "phase span `{span}` missing from trace"
        );
    }

    for counter in [
        "sim.accesses",
        "sim.state_transitions",
        "sim.invalidations",
        "engine.scripts_done",
        "sampler.samples",
        "cc.pairs",
        "flg.edges_kept",
        "cluster.iterations",
        "layout.bytes_moved",
    ] {
        assert!(
            summary.metrics.counter(counter) > 0,
            "counter `{counter}` missing or zero in trace"
        );
    }
}
