//! `fig_search` measures on the shared grid: every record's validation
//! and each section's baseline and sort-by-hotness columns log their runs
//! under `--checkpoint-dir`, and `--resume` resumes every grid whole from
//! that one log and prints the same bytes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fig_search(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig_search"))
        .args(args)
        .output()
        .expect("spawning fig_search")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slopt_fig_search_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn checkpoints_every_grid_and_resumes_to_the_same_bytes() {
    let dir = temp_dir("resume");
    let args = ["--steps", "200", "--checkpoint-dir", dir.to_str().unwrap()];
    let direct = fig_search(&args);
    assert_eq!(direct.status.code(), Some(0), "{direct:?}");
    let grids = [
        "search_proc_a",
        "search_vnode_b",
        "search_buf_c",
        "search_file_d",
        "search_rq_e",
        "fig_search_kernel",
        "search_dcache_ent",
        "search_session_tbl",
        "fig_search_stress",
    ];
    assert!(dir.join(slopt_bench::RUNS_FILE).exists());
    let resumed = fig_search(&[&args[..], &["--resume"]].concat());
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    for grid in grids {
        // `[runner] <grid>: <n> of <n> grid items already done in <log>`
        let line = stderr
            .lines()
            .find(|l| l.starts_with(&format!("[runner] {grid}: ")))
            .unwrap_or_else(|| panic!("{grid} resumes from the log"));
        let counts: Vec<&str> = line.split(' ').skip(2).step_by(2).take(2).collect();
        assert_eq!(counts[0], counts[1], "{grid} resumes whole: {line}");
    }
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&direct.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}
