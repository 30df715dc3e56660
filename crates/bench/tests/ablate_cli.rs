//! The `ablate` binary honours the shared flags on every row: a row
//! that never measured under an execution context before (`cc_validation`)
//! writes a valid trace, and a row whose throughputs used to bypass the
//! grid (`sweep_remote_latency`) logs its runs and resumes to the same
//! bytes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ablate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ablate"))
        .args(args)
        .output()
        .expect("spawning ablate")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slopt_ablate_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn cc_validation_writes_a_trace_that_lints_clean() {
    let dir = temp_dir("trace");
    let trace = dir.join("cc.jsonl");
    let out = ablate(&["cc_validation", "--trace-out", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let summary = slopt_obs::replay_str(&text).expect("trace must lint clean");
    assert!(
        summary.spans.contains_key("cc_validation"),
        "the row runs under its own span"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_remote_latency_resumes_to_the_same_bytes() {
    let dir = temp_dir("resume");
    let ckpt = dir.to_str().unwrap();
    let args = [
        "sweep_remote_latency",
        "--jobs",
        "2",
        "--checkpoint-dir",
        ckpt,
    ];
    let direct = ablate(&args);
    assert_eq!(direct.status.code(), Some(0), "{direct:?}");
    assert!(dir.join(slopt_bench::RUNS_FILE).exists());
    let resumed = ablate(&[&args[..], &["--resume"]].concat());
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    assert!(
        String::from_utf8_lossy(&resumed.stderr)
            .contains("sweep_remote_latency: 48 of 48 grid items already done"),
        "the resumed run loads every item"
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&direct.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}
