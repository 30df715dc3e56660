//! End-to-end: an instrumented run writes a trace file, and replaying it
//! folds the same `Summary` the live handle reports.

use slopt_obs::prom::to_prometheus;
use slopt_obs::{replay_str, structural_deltas, Obs};

#[test]
fn trace_file_roundtrips_through_replay() {
    let dir = std::env::temp_dir().join("slopt_obs_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.jsonl");

    let obs = Obs::to_trace_file(&path).unwrap();
    {
        let _run = obs.span("run");
        for i in 0..4u64 {
            let _step = obs.span("step");
            obs.counter("work.items", i + 1);
        }
        obs.gauge("work.util", 0.5);
        obs.histogram("work.cost", 3);
        obs.histogram("work.cost", 1000);
    }
    std::thread::scope(|scope| {
        let o = obs.clone();
        scope.spawn(move || {
            let _w = o.span("worker");
            o.counter("work.items", 5);
        });
    });
    obs.finish();

    let live = obs.summary();
    let text = std::fs::read_to_string(&path).unwrap();
    let replayed = replay_str(&text).unwrap();

    // Live equals replay: structurally, in the Prometheus rendering, and
    // in every aggregate that does not depend on timestamp rounding.
    assert_eq!(structural_deltas(&live, &replayed), Vec::<String>::new());
    assert_eq!(to_prometheus(&live), to_prometheus(&replayed));
    assert_eq!(live.metrics, replayed.metrics);
    assert_eq!(live.hists, replayed.hists);
    assert!(live
        .thread_spans
        .iter()
        .map(|(name, by_tid)| (name, by_tid.keys().collect::<Vec<_>>()))
        .eq(replayed
            .thread_spans
            .iter()
            .map(|(name, by_tid)| (name, by_tid.keys().collect::<Vec<_>>()))));
    assert!(live.folded.keys().eq(replayed.folded.keys()));
    for (name, s) in &live.spans {
        let r = replayed.spans[name];
        assert_eq!(s.count, r.count);
        // The trace stores timestamps to 1 ns.
        assert!((s.total_us - r.total_us).abs() <= 0.002 * s.count as f64);
    }

    assert_eq!(live.metrics.counter("work.items"), 1 + 2 + 3 + 4 + 5);
    // Gauges are tagged on the wire and replay into their own table.
    assert_eq!(replayed.metrics.gauge("work.util"), Some(0.5));
    assert_eq!(replayed.spans["step"].count, 4);
    assert_eq!(replayed.spans["run"].count, 1);
    // Two threads closed spans: main (0) and the worker (1).
    let tids: Vec<u64> = replayed
        .thread_spans
        .values()
        .flat_map(|by_tid| by_tid.keys().copied())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    assert_eq!(tids, [0, 1]);
    assert_eq!(replayed.thread_spans["worker"][&1].count, 1);
    // Span-duration histograms were summarized too, with matching counts.
    assert_eq!(replayed.hists["span.step"].count(), 4);
    // Self time: "run" contains "step" spans, so its self time is below
    // its inclusive time; leaf spans have self == total.
    assert!(replayed.spans["run"].self_us <= replayed.spans["run"].total_us);
    assert!((replayed.spans["step"].self_us - replayed.spans["step"].total_us).abs() < 1e-9);
    // The folded profile has a path through run -> step.
    assert!(replayed.folded.contains_key("run;step"));

    std::fs::remove_file(&path).ok();
}
