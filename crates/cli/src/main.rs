//! `slopt-tool` — the paper's semi-automatic layout advisor as a
//! command-line program.
//!
//! ```text
//! slopt-tool advise [--struct A|B|C|D|E] [--out DIR] [--cpus N]
//! slopt-tool simulate [--machine bus4|superdome16|superdome128]
//! slopt-tool figures [--scale N] [--jobs N] [--fault-plan SPEC]
//! slopt-tool search [--stress | --program FILE] [--seed S] [--jobs N]
//! slopt-tool stats <trace.jsonl> [--prom]
//! slopt-tool flame <trace.jsonl>
//! slopt-tool diff <a.jsonl> <b.jsonl> [--threshold-pct N]
//! slopt-tool serve <health|advise|metrics|drain|ingest> [--addr HOST:PORT]
//! slopt-tool help
//! ```
//!
//! `advise`, `simulate`, `figures` and `search` additionally accept
//! `--trace-out <path>` (machine-readable `slopt-trace/1` JSONL run
//! trace) and `--stats` (aggregate counter/span summary at exit).
//!
//! `advise` runs the instrumented measurement run on the built-in
//! synthetic kernel, prints the layout advisory for the chosen structure
//! (cluster contents, intra/inter-cluster weights, strongest edges), and
//! optionally writes the suggested layout and a Graphviz rendering of the
//! Field Layout Graph to `--out`.
//!
//! Exit codes follow the shared vocabulary in `slopt_fault::exit`:
//! 0 success, 1 internal failure, 2 usage error, 3 bad input,
//! 4 degraded (partial) figures run under permanent injected faults.

// The CLI is the crash-free boundary of the tool: every fallible path
// must surface a classified `CliError`, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        commands::print_help();
        return ExitCode::from(slopt_fault::exit::USAGE);
    };
    let result = match cmd.as_str() {
        "advise" => commands::advise(rest),
        "simulate" => commands::simulate(rest),
        "figures" => commands::figures(rest),
        "search" => commands::search(rest),
        "stats" => commands::stats(rest),
        "flame" => commands::flame(rest),
        "diff" => commands::diff(rest),
        "serve" => commands::serve(rest),
        "help" | "--help" | "-h" => {
            commands::print_help();
            Ok(())
        }
        other => Err(commands::CliError::usage(format!(
            "unknown command `{other}` (try `slopt-tool help`)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("slopt-tool: {e}");
            ExitCode::from(e.code)
        }
    }
}
