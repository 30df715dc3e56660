//! The one command-line vocabulary of the experiment binaries.
//!
//! Every figure/ablation binary (and `slopt-tool figures`/`search`)
//! accepts the same execution-context flags; [`CommonArgs`] is their
//! single parser, help text and validation, so flag semantics — and the
//! `--help` output documenting them — cannot drift between binaries.
//!
//! Parsing is *strict*: a malformed value for any known flag is a usage
//! error ([`exit::USAGE`], code 2) with a message naming the offending
//! argument position, never a silent fallback to a default. Unknown
//! dash-prefixed tokens are usage errors too — a typo like
//! `--trace-ouf` must not silently run without its trace — unless the
//! binary *registers* them as extras (e.g. `fig_search --seed`) via
//! [`CommonArgs::parse_with`].

use slopt_core::SupervisePolicy;
use slopt_fault::{exit, FaultPlan};

use crate::checkpoint::CheckpointSpec;
use crate::runner::{ExecCtx, FaultConfig};
use std::path::PathBuf;
use std::time::Duration;

/// The flag reference shared by every experiment binary's `--help`.
/// `tests/help_matrix.rs` diffs each binary's output against this text.
pub const FLAG_REFERENCE: &str = "OPTIONS:
    --scale N            Workload scale factor (default 1).
    --jobs N             Host threads to fan the measurement grid across
                         (default: all cores; the output is bit-identical
                         for every N; 0 is clamped to 1).
    --trace-out <path>   Write a machine-readable run trace (slopt-trace/1
                         JSONL, Chrome trace events) to <path>.
    --stats              Print the aggregate counter/span summary table at
                         exit.
    --checkpoint-dir DIR Persist every completed grid item to DIR as it
                         finishes.
    --resume             Resume from the checkpoint in --checkpoint-dir,
                         recomputing only the missing items (bit-identical
                         result).
    --fault-plan SPEC    Inject seed-deterministic faults into the worker
                         pool (e.g. `seed=7,transient=0.1,panic=0.05`;
                         kinds: panic, transient, permanent, slow,
                         write-error).
    --max-retries N      Retry budget per grid item for transient faults
                         (default 3).
    --deadline-ms N      Cooperative per-item deadline in milliseconds; an
                         item over budget is holed and never checkpointed
                         as completed.
    --help, -h           This text.";

/// The process exit-code vocabulary shared by every experiment binary's
/// `--help` (and `slopt-tool help`).
pub const EXIT_CODE_TABLE: &str = "EXIT CODES:
    0  success
    1  internal failure (I/O on outputs, trace sink, ...)
    2  usage error (bad flag or flag value)
    3  bad input (unreadable or unparseable user file)
    4  degraded run (permanent faults holed part of the measurement
       grid; partial results were printed)";

/// A strict parse failure: which argument position (1-based) broke, and
/// why. Rendered as `arg N: message` so scripts can locate the culprit
/// the way compilers point at line/column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError {
    /// 1-based position of the offending argument.
    pub pos: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "arg {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ArgError {}

/// Reads a registered extra flag's value strictly: `None` when the flag
/// is absent, its last occurrence's value parsed as `T` otherwise, and a
/// positional [`ArgError`] — never a silent fallback — when that value
/// is missing or does not parse. `args` excludes the program name, as in
/// [`CommonArgs::parse_with`]. This is the one flag-value reader of every
/// binary and `slopt-tool` subcommand.
pub fn extra_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, ArgError> {
    args.iter()
        .rposition(|a| a == flag)
        .map(|i| value_at(args, i, flag))
        .transpose()
}

/// The value slot after the flag at `args[i]`, parsed as `T`; errors are
/// positional (1-based): the flag's own slot when the value is missing,
/// the value's slot when it does not parse.
fn value_at<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, ArgError> {
    let raw = args.get(i + 1).ok_or_else(|| ArgError {
        pos: i + 1,
        msg: format!("{flag} needs a value"),
    })?;
    raw.parse().map_err(|_| ArgError {
        pos: i + 2,
        msg: format!(
            "bad value `{raw}` for {flag} (expected {})",
            std::any::type_name::<T>()
        ),
    })
}

/// Reports a usage error the way every experiment binary does — the
/// positional message plus a `--help` pointer on stderr — and exits
/// [`exit::USAGE`].
pub fn usage_exit(bin: &str, e: &dyn std::fmt::Display) -> ! {
    eprintln!("{bin}: {e}");
    eprintln!("try `{bin} --help`");
    std::process::exit(i32::from(exit::USAGE));
}

/// The command-line arguments shared by every experiment binary,
/// validated at parse time.
#[derive(Clone, Debug, PartialEq)]
pub struct CommonArgs {
    /// Workload scale factor (`--scale N`, default 1).
    pub scale: usize,
    /// Host threads to fan work across (`--jobs N`, default: available
    /// parallelism; 0 clamps to 1).
    pub jobs: usize,
    /// Machine-readable run trace destination (`--trace-out <path>`,
    /// `slopt-trace/1` JSONL).
    pub trace_out: Option<String>,
    /// Print the human counter/span summary table at exit (`--stats`).
    pub stats: bool,
    /// Grid checkpoint directory (`--checkpoint-dir <dir>`).
    pub checkpoint_dir: Option<String>,
    /// Resume from the checkpoint instead of starting fresh (`--resume`).
    pub resume: bool,
    /// Fault injection + supervision, already validated (`--fault-plan` /
    /// `--max-retries` / `--deadline-ms`). `None` when none of the three
    /// flags were given.
    pub fault: Option<FaultConfig>,
    /// `--help` / `-h` was given; the caller should print the help text
    /// and exit 0.
    pub help: bool,
}

impl Default for CommonArgs {
    fn default() -> CommonArgs {
        CommonArgs {
            scale: 1,
            jobs: slopt_core::default_jobs(),
            trace_out: None,
            stats: false,
            checkpoint_dir: None,
            resume: false,
            fault: None,
            help: false,
        }
    }
}

impl CommonArgs {
    /// Strictly parses an argument list (without the program name).
    /// Known flags with malformed or missing values are [`ArgError`]s,
    /// and so is any unknown dash-prefixed token (likely a typo). Flag
    /// order never matters: the last occurrence of a repeated flag wins.
    pub fn parse(args: &[String]) -> Result<CommonArgs, ArgError> {
        CommonArgs::parse_with(args, &[])
    }

    /// [`CommonArgs::parse`] with binary-specific *extra* flags
    /// registered as `(name, takes_value)` pairs. Registered extras are
    /// skipped (their value slot consumed when `takes_value`) so the
    /// binary can parse them from the raw argv itself; every other
    /// dash-prefixed token is still a usage error.
    pub fn parse_with(args: &[String], extras: &[(&str, bool)]) -> Result<CommonArgs, ArgError> {
        CommonArgs::parse_positional(args, extras).map(|(parsed, _)| parsed)
    }

    /// [`CommonArgs::parse_with`], also returning the bare tokens in
    /// order: the caller's positional values (`ablate k2 sampling`).
    /// Flag values are never among them.
    pub fn parse_positional(
        args: &[String],
        extras: &[(&str, bool)],
    ) -> Result<(CommonArgs, Vec<String>), ArgError> {
        let mut out = CommonArgs::default();
        let mut positional = Vec::new();
        let mut fault_plan: Option<FaultPlan> = None;
        let mut max_retries: Option<u32> = None;
        let mut deadline: Option<Duration> = None;
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let pos = i + 2;
            match flag {
                "--help" | "-h" => out.help = true,
                "--stats" => out.stats = true,
                "--resume" => out.resume = true,
                "--scale" => {
                    out.scale = value_at(args, i, flag)?;
                    i += 1;
                }
                "--jobs" => {
                    out.jobs = value_at::<usize>(args, i, flag)?.max(1);
                    i += 1;
                }
                "--trace-out" => {
                    out.trace_out = Some(value_at(args, i, flag)?);
                    i += 1;
                }
                "--checkpoint-dir" => {
                    out.checkpoint_dir = Some(value_at(args, i, flag)?);
                    i += 1;
                }
                "--fault-plan" => {
                    let raw: String = value_at(args, i, flag)?;
                    fault_plan = Some(FaultPlan::parse(&raw).map_err(|e| ArgError {
                        pos,
                        msg: format!("bad value for --fault-plan: {e}"),
                    })?);
                    i += 1;
                }
                "--max-retries" => {
                    max_retries = Some(value_at(args, i, flag)?);
                    i += 1;
                }
                "--deadline-ms" => {
                    let ms: u64 = value_at(args, i, flag)?;
                    if ms == 0 {
                        return Err(ArgError {
                            pos,
                            msg: "--deadline-ms must be positive".to_string(),
                        });
                    }
                    deadline = Some(Duration::from_millis(ms));
                    i += 1;
                }
                _ => {
                    if let Some(&(_, takes_value)) = extras.iter().find(|&&(n, _)| n == flag) {
                        // A registered binary-specific flag: the binary
                        // parses it from the raw argv itself; we only
                        // step over it (and its value slot).
                        if takes_value {
                            value_at::<String>(args, i, flag)?;
                            i += 1;
                        }
                    } else if flag.starts_with('-') && flag.len() > 1 {
                        return Err(ArgError {
                            pos: i + 1,
                            msg: format!("unknown flag `{flag}` (see --help)"),
                        });
                    } else {
                        // A bare non-dash token is a positional value for
                        // the caller (e.g. `slopt-tool stats <trace>`).
                        positional.push(flag.to_string());
                    }
                }
            }
            i += 1;
        }
        if fault_plan.is_some() || max_retries.is_some() || deadline.is_some() {
            let mut policy = SupervisePolicy::default();
            if let Some(n) = max_retries {
                policy.max_retries = n;
            }
            policy.deadline = deadline;
            out.fault = Some(FaultConfig {
                plan: fault_plan.unwrap_or_else(FaultPlan::none),
                policy,
            });
        }
        Ok((out, positional))
    }

    /// Parses `std::env::args()`, handling `--help` (print and exit 0)
    /// and parse errors (report and exit [`exit::USAGE`]) — the whole
    /// prologue of an experiment binary. `bin` and `about` head the help
    /// text; `extra` documents any binary-specific flags (empty for
    /// most) and `extras` registers them as `(name, takes_value)` pairs
    /// so strict parsing doesn't reject them as typos. Returns the flags
    /// and the positional tokens ([`CommonArgs::parse_positional`]).
    pub fn from_env_or_exit(
        bin: &str,
        about: &str,
        extra: &str,
        extras: &[(&str, bool)],
    ) -> (CommonArgs, Vec<String>) {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match CommonArgs::parse_positional(&argv, extras) {
            Ok((args, _)) if args.help => {
                println!("{}", help_text(bin, about, extra));
                std::process::exit(0);
            }
            Ok(parsed) => parsed,
            Err(e) => usage_exit(bin, &e),
        }
    }

    /// The checkpoint request, if `--checkpoint-dir` was given.
    /// `--resume` without a checkpoint directory is meaningless and
    /// ignored.
    pub fn checkpoint_spec(&self) -> Option<CheckpointSpec> {
        self.checkpoint_dir.as_ref().map(|dir| CheckpointSpec {
            dir: PathBuf::from(dir),
            resume: self.resume,
        })
    }

    /// Builds the [`ExecCtx`] these flags describe. `Err` carries the
    /// trace-sink failure message when `--trace-out` points somewhere
    /// unwritable.
    pub fn try_ctx(&self) -> Result<ExecCtx, String> {
        let obs =
            slopt_obs::obs_from_flags(self.trace_out.as_deref(), self.stats).map_err(|e| {
                let path = self.trace_out.as_deref().unwrap_or("<none>");
                format!("cannot open trace output {path}: {e}")
            })?;
        Ok(ExecCtx {
            obs,
            checkpoint: self.checkpoint_spec(),
            fault: self.fault.clone(),
            stats: self.stats,
            trace_out: self.trace_out.clone(),
            ..ExecCtx::bare(self.jobs)
        })
    }

    /// [`CommonArgs::try_ctx`], exiting 1 on a trace-sink failure — the
    /// experiment binaries' second prologue line.
    pub fn ctx_or_exit(&self) -> ExecCtx {
        self.try_ctx().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    }
}

/// Assembles a binary's `--help` text around the shared
/// [`FLAG_REFERENCE`] and [`EXIT_CODE_TABLE`].
pub fn help_text(bin: &str, about: &str, extra: &str) -> String {
    let extra = if extra.is_empty() {
        String::new()
    } else {
        format!("{extra}\n\n")
    };
    format!("{bin} — {about}\n\nUSAGE:\n    {bin} [options]\n\n{extra}{FLAG_REFERENCE}\n\n{EXIT_CODE_TABLE}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jobs_flag_parses_with_default() {
        let args = CommonArgs::parse(&strs(&["--jobs", "3"])).unwrap();
        assert_eq!(args.jobs, 3);
        assert_eq!(
            CommonArgs::parse(&[]).unwrap().jobs,
            slopt_core::default_jobs()
        );
        assert_eq!(CommonArgs::parse(&strs(&["--jobs", "0"])).unwrap().jobs, 1);
        let both = CommonArgs::parse(&strs(&["--scale", "2", "--jobs", "5"])).unwrap();
        assert_eq!((both.scale, both.jobs), (2, 5));
    }

    #[test]
    fn trace_flags_parse() {
        let args = CommonArgs::parse(&strs(&["--trace-out", "/tmp/t.jsonl", "--stats"])).unwrap();
        assert_eq!(args.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert!(args.stats);
        let none = CommonArgs::parse(&[]).unwrap();
        assert!(none.trace_out.is_none());
        assert!(!none.stats);
    }

    #[test]
    fn checkpoint_flags_parse() {
        let args = CommonArgs::parse(&strs(&["--checkpoint-dir", "/tmp/ck", "--resume"])).unwrap();
        assert_eq!(args.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert!(args.resume);
        let spec = args.checkpoint_spec().expect("dir given");
        assert_eq!(spec.dir, PathBuf::from("/tmp/ck"));
        assert!(spec.resume);
        assert!(CommonArgs::parse(&[]).unwrap().checkpoint_spec().is_none());
    }

    #[test]
    fn fault_flags_parse_and_validate() {
        let args = CommonArgs::parse(&strs(&[
            "--fault-plan",
            "seed=1,transient=0.5",
            "--max-retries",
            "7",
            "--deadline-ms",
            "250",
        ]))
        .unwrap();
        let fc = args.fault.expect("flags given");
        assert_eq!(fc.plan.seed(), 1);
        assert_eq!(fc.policy.max_retries, 7);
        assert_eq!(fc.policy.deadline, Some(Duration::from_millis(250)));

        // No flags at all: supervision stays off entirely.
        assert!(CommonArgs::parse(&[]).unwrap().fault.is_none());
        // Supervision flags alone give the no-op plan.
        let only = CommonArgs::parse(&strs(&["--max-retries", "2"])).unwrap();
        assert_eq!(only.fault.expect("flag given").plan, FaultPlan::none());
    }

    #[test]
    fn malformed_values_are_positional_errors() {
        for (bad, pos) in [
            (&["--fault-plan", "transient=2.0"][..], 2),
            (&["--fault-plan", "bogus=1"][..], 2),
            (&["--max-retries", "x"][..], 2),
            (&["--deadline-ms", "0"][..], 2),
            (&["--jobs", "many"][..], 2),
            (&["--scale", "-1"][..], 2),
            (&["--stats", "--jobs", "1.5"][..], 3),
            (&["--trace-out"][..], 1),
        ] {
            let err = CommonArgs::parse(&strs(bad)).expect_err("must be rejected");
            assert_eq!(err.pos, pos, "{bad:?}");
            assert!(
                err.to_string().starts_with(&format!("arg {pos}: ")),
                "{err}"
            );
        }
        // The offending value is named in the message.
        let err = CommonArgs::parse(&strs(&["--fault-plan", "bogus=1"])).unwrap_err();
        assert!(err.msg.contains("bogus"), "{err}");
    }

    #[test]
    fn unknown_flags_are_rejected_with_their_position() {
        // The typo that motivated strictness: a mistyped flag must not
        // silently run without its capability.
        let err = CommonArgs::parse(&strs(&["--trace-ouf", "/tmp/t.jsonl"])).unwrap_err();
        assert_eq!(err.pos, 1);
        assert!(err.msg.contains("--trace-ouf"), "{err}");
        let err = CommonArgs::parse(&strs(&["--stats", "--bogus"])).unwrap_err();
        assert_eq!(err.pos, 2);
        // Bare non-dash tokens stay skipped: they are the caller's
        // positional values (`slopt-tool stats <trace>`).
        assert!(
            CommonArgs::parse(&strs(&["some/trace.jsonl", "--stats"]))
                .unwrap()
                .stats
        );
    }

    #[test]
    fn positional_tokens_exclude_flag_values() {
        let (args, names) = CommonArgs::parse_positional(
            &strs(&["k2", "--jobs", "2", "floor", "--trace-out", "t", "--stats"]),
            &[],
        )
        .unwrap();
        assert_eq!(names, ["k2", "floor"]);
        assert_eq!(args.jobs, 2);
        assert!(args.stats);
    }

    #[test]
    fn registered_extras_are_stepped_over() {
        let extras: &[(&str, bool)] = &[("--seed", true), ("--top", true), ("--stress", false)];
        let args = CommonArgs::parse_with(
            &strs(&["--seed", "42", "--jobs", "2", "--stress", "--top", "3"]),
            extras,
        )
        .unwrap();
        assert_eq!(args.jobs, 2);
        assert_eq!(args.scale, 1);
        // A value-taking extra consumes its value slot, so a dash-valued
        // slot is not re-parsed as a flag... but a *missing* value is
        // still an error at the extra's position.
        let err = CommonArgs::parse_with(&strs(&["--jobs", "2", "--seed"]), extras).unwrap_err();
        assert_eq!(err.pos, 3);
        // Unregistered flags are still rejected even with extras given.
        let err = CommonArgs::parse_with(&strs(&["--chains", "4"]), extras).unwrap_err();
        assert_eq!(err.pos, 1);
    }

    #[test]
    fn extra_flag_reads_the_last_occurrence_strictly() {
        let args = strs(&["--seed", "1", "--out", "/tmp/x", "--seed", "7"]);
        assert_eq!(extra_flag::<u64>(&args, "--seed"), Ok(Some(7)));
        assert_eq!(
            extra_flag::<String>(&args, "--out"),
            Ok(Some("/tmp/x".to_string()))
        );
        assert_eq!(extra_flag::<u64>(&args, "--cpus"), Ok(None));
        let err = extra_flag::<u64>(&strs(&["--jobs", "2", "--seed", "x"]), "--seed").unwrap_err();
        assert_eq!(err.pos, 4);
        assert!(err.msg.contains("`x`"), "{err}");
        let err = extra_flag::<u64>(&strs(&["--seed"]), "--seed").unwrap_err();
        assert_eq!(err.pos, 1);
        assert!(err.msg.contains("needs a value"), "{err}");
    }

    #[test]
    fn help_flag_is_recognized() {
        assert!(CommonArgs::parse(&strs(&["--help"])).unwrap().help);
        assert!(CommonArgs::parse(&strs(&["-h"])).unwrap().help);
        assert!(!CommonArgs::parse(&[]).unwrap().help);
        let text = help_text("fig9", "about", "");
        assert!(text.contains(FLAG_REFERENCE));
        assert!(text.contains(EXIT_CODE_TABLE));
    }

    #[test]
    fn try_ctx_carries_every_capability() {
        let args = CommonArgs::parse(&strs(&[
            "--jobs",
            "3",
            "--checkpoint-dir",
            "/tmp/ck",
            "--fault-plan",
            "seed=2,transient=0.1",
            "--deadline-ms",
            "100",
        ]))
        .unwrap();
        let ctx = args.ctx_or_exit();
        assert_eq!(ctx.jobs, 3);
        assert_eq!(ctx.deadline_ms(), Some(100));
        assert_eq!(
            ctx.checkpoint.expect("dir given").dir,
            PathBuf::from("/tmp/ck")
        );
        assert!(!ctx.obs.enabled());
    }
}
