//! Never-panic properties of the trace parsers: on arbitrary bytes, and
//! on single edits of a valid trace, `replay_str` returns a summary or a
//! `TraceError` and `json::parse` a value or a `JsonError`.

use std::sync::OnceLock;

use proptest::prelude::*;
use slopt_obs::{json, replay_str, Obs};

/// A valid trace of a small instrumented run: nested spans on two
/// threads, counters, a warning, a gauge, histograms and their `S`
/// summaries.
fn valid_trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("slopt_obs_parse_prop_{}.jsonl", std::process::id()));
        let obs = Obs::to_trace_file(&path).expect("trace file opens");
        {
            let _run = obs.span("run");
            for i in 0..3u64 {
                let _step = obs.span("step");
                obs.counter("work.items", i + 1);
                obs.histogram("work.cost", 7 << i);
            }
            obs.warning("shard.skipped");
            obs.gauge("work.util", 0.25);
        }
        std::thread::scope(|scope| {
            let o = obs.clone();
            scope.spawn(move || {
                let _w = o.span("worker");
                o.histogram("work.cost", 0);
            });
        });
        obs.finish();
        let text = std::fs::read_to_string(&path).expect("trace reads back");
        std::fs::remove_file(&path).ok();
        replay_str(&text).expect("the unedited trace is valid");
        text
    })
}

/// Runs both parsers over `bytes` as lossy UTF-8; a panic fails the test.
fn parse_all(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _: Result<_, slopt_obs::TraceError> = replay_str(&text);
    let _: Result<_, json::JsonError> = json::parse(&text);
    for line in text.lines() {
        let _: Result<_, json::JsonError> = json::parse(line);
    }
}

/// The trace's lines, each with its newline.
fn lines(text: &str) -> Vec<&str> {
    text.split_inclusive('\n').collect()
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        parse_all(&bytes);
    }

    /// Truncate at k, flip one byte, drop a line, duplicate a line.
    #[test]
    fn single_edits_of_a_valid_trace_never_panic(
        at in any::<u64>(),
        line in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let text = valid_trace();
        let bytes = text.as_bytes();
        let k = (at % bytes.len() as u64) as usize;
        parse_all(&bytes[..k]);

        let mut flipped = bytes.to_vec();
        flipped[k] ^= flip;
        parse_all(&flipped);

        let all = lines(text);
        let l = (line % all.len() as u64) as usize;
        let mut dropped = all.clone();
        dropped.remove(l);
        parse_all(dropped.concat().as_bytes());
        let mut duplicated = all.clone();
        duplicated.insert(l, all[l]);
        parse_all(duplicated.concat().as_bytes());
    }
}
