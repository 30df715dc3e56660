//! Help-surface conformance: every experiment binary advertises the one
//! shared flag surface.
//!
//! The historical drift this pins down: each bin hand-rolled its usage
//! text, so flag descriptions and exit-code stories diverged as
//! capabilities landed. Now every bin assembles `--help` from the shared
//! [`slopt_bench::FLAG_REFERENCE`] / [`slopt_bench::EXIT_CODE_TABLE`]
//! constants, and this suite diffs the live output of every binary
//! against them — plus the exit-code contract for malformed values
//! (always 2, with a positional `arg N:` message) and for a trace that
//! could not be written (1).

use slopt_bench::{EXIT_CODE_TABLE, FLAG_REFERENCE};
use std::process::{Command, Output};

/// Every experiment binary in this package, by its `CARGO_BIN_EXE_*`
/// path. `bin_list_covers_src_bin` fails when a bin in `src/bin/` is
/// missing here.
const BINS: &[(&str, &str)] = &[
    ("fig8", env!("CARGO_BIN_EXE_fig8")),
    ("fig9", env!("CARGO_BIN_EXE_fig9")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig_search", env!("CARGO_BIN_EXE_fig_search")),
    ("ablate", env!("CARGO_BIN_EXE_ablate")),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"))
}

/// `--help` (and `-h`) exits 0 and embeds the shared flag reference and
/// exit-code table *verbatim* in every binary.
#[test]
fn every_bin_shares_the_flag_reference() {
    for &(name, path) in BINS {
        let out = run(path, &["--help"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name} --help must exit 0: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).expect("utf-8 help");
        assert!(
            text.contains(FLAG_REFERENCE),
            "{name} --help must embed the shared flag reference verbatim; got:\n{text}"
        );
        assert!(
            text.contains(EXIT_CODE_TABLE),
            "{name} --help must embed the shared exit-code table verbatim; got:\n{text}"
        );
        assert!(
            text.contains(&format!("{name} — ")) && text.contains("USAGE:"),
            "{name} --help must lead with its own name and a USAGE block"
        );

        let short = run(path, &["-h"]);
        assert_eq!(short.status.code(), Some(0), "{name} -h must exit 0");
    }
}

/// `fig_search` layers binary-specific flags on top of the shared
/// surface; its help must document both.
#[test]
fn extra_flags_extend_rather_than_replace_the_surface() {
    let out = run(env!("CARGO_BIN_EXE_fig_search"), &["--help"]);
    let text = String::from_utf8(out.stdout).expect("utf-8 help");
    for flag in ["--seed", "--chains", "--steps", "--top"] {
        assert!(
            text.contains(flag),
            "fig_search --help must document {flag}"
        );
    }
    assert!(text.contains(FLAG_REFERENCE));
}

/// Malformed values for every shared flag exit 2 (usage error) with a
/// positional `arg N:` message naming the offending value — in every
/// binary shape (a figure bin and an ablation row).
#[test]
fn malformed_values_exit_2_with_positional_messages() {
    let cases: &[(&[&str], &str)] = &[
        (&["--jobs", "many"], "many"),
        (&["--scale", "-3"], "-3"),
        (&["--max-retries", "1.5"], "1.5"),
        (&["--deadline-ms", "soon"], "soon"),
        (&["--deadline-ms", "0"], "positive"),
        (&["--fault-plan", "bogus=1"], "bogus"),
        (&["--trace-out"], "--trace-out"),
        (&["--stats", "--jobs", "x"], "x"),
    ];
    for &(name, path, row) in &[
        ("fig9", env!("CARGO_BIN_EXE_fig9"), &[][..]),
        ("ablate k2", env!("CARGO_BIN_EXE_ablate"), &["k2"][..]),
    ] {
        for (args, needle) in cases {
            let out = run(path, &[row, args].concat());
            assert_eq!(
                out.status.code(),
                Some(2),
                "{name} {args:?} must exit 2 (usage)"
            );
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains("arg ") && err.contains(needle),
                "{name} {args:?}: stderr must carry a positional message \
                 naming `{needle}`; got: {err}"
            );
            assert!(
                err.contains("--help"),
                "{name} {args:?}: stderr must point at --help; got: {err}"
            );
        }
    }
}

/// `ablate` lists every row in its help, and an unknown row name exits 2
/// naming the known rows.
#[test]
fn ablate_lists_its_rows_and_rejects_unknown_ones() {
    let path = env!("CARGO_BIN_EXE_ablate");
    let help = String::from_utf8(run(path, &["--help"]).stdout).expect("utf-8 help");
    for row in slopt_bench::ablations() {
        assert!(
            help.contains(row.name) && help.contains(row.about),
            "ablate --help must list `{}`; got:\n{help}",
            row.name
        );
    }
    let out = run(path, &["k2", "nosuch", "--jobs", "1"]);
    assert_eq!(out.status.code(), Some(2), "ablate nosuch must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("nosuch") && err.contains("known: cc_validation, k2, min_heuristic"),
        "stderr must name the unknown row and the known ones; got: {err}"
    );
    assert!(
        err.contains("--help"),
        "stderr must point at --help; got: {err}"
    );
}

/// Every bin in `src/bin/` except the two perf tools (which have their
/// own flag surfaces) must be in `BINS`, so the checks above cover it.
#[test]
fn bin_list_covers_src_bin() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(dir).expect("src/bin is listable") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 bin name")
            .to_string();
        let perf_tool = name == "perf_report" || name == "perf_guard";
        if !perf_tool && !BINS.iter().any(|&(n, _)| n == name) {
            missing.push(name);
        }
    }
    assert!(missing.is_empty(), "bins missing from BINS: {missing:?}");
}

/// Registered extra flags are read as strictly as the shared ones: a
/// malformed value exits 2 with a positional message instead of running
/// with the default.
#[test]
fn malformed_extra_values_exit_2_with_positional_messages() {
    let out = run(env!("CARGO_BIN_EXE_fig_search"), &["--steps", "many"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "fig_search --steps many must exit 2 (usage)"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("arg 2: ") && err.contains("many"),
        "stderr must carry a positional message naming `many`; got: {err}"
    );
}

/// A trace that could not be written is exit 1 (the table's "trace
/// sink" failure), and the run never claims it was written.
#[test]
fn an_unwritable_trace_exits_1() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = run(
        env!("CARGO_BIN_EXE_fig9"),
        &["--jobs", "1", "--trace-out", "/dev/full"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("trace write failed"), "{stderr}");
    assert!(!stderr.contains("trace written"), "{stderr}");
}
