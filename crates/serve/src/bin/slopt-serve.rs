//! The `slopt-serve` binary: daemon mode (default), offline differential
//! reference (`--offline DIR`), and deterministic CI shard emission
//! (`--emit-samples DIR`).

use slopt_bench::{extra_flag, usage_exit, ArgError, CommonArgs};
use slopt_fault::{exit, FaultPlan};
use slopt_ir::SupervisePolicy;
use slopt_obs::Obs;
use slopt_serve::{offline_advice, DaemonConfig, ServeConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const ABOUT: &str = "always-available continuous layout-advisory daemon \
(windowed decaying Code Concurrency over slopt-shard/1 ingest)";

const EXTRA_HELP: &str = "SERVE OPTIONS:
    --addr HOST:PORT     Bind address (default 127.0.0.1:0; the bound
                         address is written to <state-dir>/addr).
    --window N           Window size in whole CC intervals (default 4096,
                         at most 65536); samples older than the window
                         decay out.
    --interval N         CC interval length in cycles (default 6000).
    --reopt-ms N         Re-optimize the cached advice every N ms when the
                         window changed (default 0: lazily on request).
    --offline DIR        Don't serve: fold every *.slshard under DIR and
                         print the advice an offline run yields (the
                         differential reference for the daemon).
    --advice-out PATH    With --offline: write the advice there instead of
                         stdout.
    --emit-samples DIR   Don't serve: split the deterministic measurement
                         sample stream into per-client shard files under
                         DIR (client<c>/b<seq>.slshard) for the CI soak.
    --clients N          With --emit-samples: collector count (default 3,
                         at most 100).
    --batches N          With --emit-samples: batches per client (default 8,
                         at most 10000).

The daemon's state directory is --checkpoint-dir (required in daemon
mode); --resume refolds the journal there, reproducing the pre-crash
window bit-exactly.";

const EXTRAS: &[(&str, bool)] = &[
    ("--addr", true),
    ("--window", true),
    ("--interval", true),
    ("--reopt-ms", true),
    ("--offline", true),
    ("--advice-out", true),
    ("--emit-samples", true),
    ("--clients", true),
    ("--batches", true),
];

/// The largest `--window`. The window's ring is allocated up front, one
/// ~72-byte slot per interval, so this bounds that allocation at ~5 MB
/// while still holding 16 times the default window of 4096 intervals.
const MAX_WINDOW: u64 = 1 << 16;

/// The largest `--clients`: collector directories are named
/// `client<NN>`, and two digits keep their path order (the order the
/// offline fold reads them in) equal to their numeric order.
const MAX_CLIENTS: u64 = 100;

/// The largest `--batches`, for the same reason: batch files are named
/// `b<NNNN>`.
const MAX_BATCHES: u64 = 10_000;

/// Set by the SIGTERM handler; polled by the daemon main loop.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

fn install_sigterm() {
    // Minimal libc-free signal(2) binding: the handler only stores to an
    // atomic, which is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    const SIGINT: i32 = 2;
    let handler = on_term as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Reads a registered `slopt-serve` flag through the shared strict
/// parser; a malformed value is a positional usage error (exit 2).
fn flag<T: std::str::FromStr>(argv: &[String], name: &str) -> Option<T> {
    extra_flag(argv, name).unwrap_or_else(|e| usage_exit("slopt-serve", &e))
}

/// Reads a registered size flag: `default` when absent, else its value,
/// which must lie in `1..=max`; anything else is a positional usage error
/// naming the flag (exit 2).
fn size_flag(argv: &[String], name: &str, default: u64, max: u64) -> u64 {
    let Some(v) = flag::<u64>(argv, name) else {
        return default;
    };
    if !(1..=max).contains(&v) {
        let pos = argv.iter().rposition(|a| a == name).map_or(0, |i| i + 2);
        let msg = if max == u64::MAX {
            format!("{name} must be at least 1, got {v}")
        } else {
            format!("{name} must be in 1..={max}, got {v}")
        };
        usage_exit("slopt-serve", &ArgError { pos, msg });
    }
    v
}

fn main() {
    let (args, _) = CommonArgs::from_env_or_exit("slopt-serve", ABOUT, EXTRA_HELP, EXTRAS);
    let argv: Vec<String> = std::env::args().skip(1).collect();

    let serve = ServeConfig {
        interval: size_flag(&argv, "--interval", 6_000, u64::MAX),
        window: size_flag(&argv, "--window", 4_096, MAX_WINDOW),
    };
    let clients = size_flag(&argv, "--clients", 3, MAX_CLIENTS);
    let batches = size_flag(&argv, "--batches", 8, MAX_BATCHES);
    let (plan, policy) = match &args.fault {
        Some(f) => (f.plan.clone(), f.policy.clone()),
        None => (FaultPlan::none(), SupervisePolicy::default()),
    };

    // The daemon always aggregates (its /metrics endpoint is live data),
    // upgrading to a trace file under --trace-out.
    let obs = match args.trace_out.as_deref() {
        Some(path) => Obs::to_trace_file(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("slopt-serve: cannot open trace output {path}: {e}");
            std::process::exit(1);
        }),
        None => Obs::aggregating(),
    };

    let mut code = if let Some(dir) = flag::<PathBuf>(&argv, "--emit-samples") {
        emit_samples(&dir, &serve, clients, batches, &obs)
    } else if let Some(dir) = flag::<PathBuf>(&argv, "--offline") {
        offline(
            &dir,
            flag(&argv, "--advice-out"),
            &serve,
            args.jobs,
            policy,
            plan,
            &obs,
        )
    } else {
        daemon(&args, &argv, serve, policy, plan, &obs)
    };

    obs.finish();
    if args.stats && obs.enabled() {
        println!("=== run stats ===");
        print!("{}", obs.summary());
    }
    if let Some(e) = obs.take_error() {
        eprintln!("slopt-serve: trace write failed: {e}");
        if code == 0 {
            code = i32::from(exit::FAILURE);
        }
    }
    std::process::exit(code);
}

fn daemon(
    args: &CommonArgs,
    argv: &[String],
    serve: ServeConfig,
    policy: SupervisePolicy,
    plan: FaultPlan,
    obs: &Obs,
) -> i32 {
    let Some(spec) = args.checkpoint_spec() else {
        eprintln!("slopt-serve: daemon mode needs --checkpoint-dir (the state directory)");
        return i32::from(exit::USAGE);
    };
    install_sigterm();
    let cfg = DaemonConfig {
        addr: flag(argv, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string()),
        spec,
        serve,
        jobs: args.jobs,
        reopt_ms: flag(argv, "--reopt-ms").unwrap_or(0),
        queue: 64,
        max_retries: policy.max_retries,
        policy,
        plan,
    };
    let state_dir = cfg.spec.dir.clone();
    let handle = match slopt_serve::start(cfg, obs) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("slopt-serve: cannot start: {e}");
            return 1;
        }
    };
    eprintln!(
        "[serve] listening on {} (state: {})",
        handle.addr,
        state_dir.display()
    );
    let flag = handle.shutdown_flag();
    while !TERM.load(Ordering::SeqCst) && !flag.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("[serve] draining");
    match handle.stop() {
        Ok(()) => {
            eprintln!("[serve] drained");
            0
        }
        Err(e) => {
            eprintln!("slopt-serve: drain failed: {e}");
            1
        }
    }
}

fn offline(
    dir: &std::path::Path,
    advice_out: Option<String>,
    serve: &ServeConfig,
    jobs: usize,
    policy: SupervisePolicy,
    plan: FaultPlan,
    obs: &Obs,
) -> i32 {
    match offline_advice(dir, serve, jobs, policy, plan, obs) {
        Ok(advice) => match advice_out {
            Some(path) => match std::fs::write(&path, &advice.text) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("slopt-serve: cannot write {path}: {e}");
                    1
                }
            },
            None => {
                print!("{}", advice.text);
                0
            }
        },
        Err(e) => {
            eprintln!(
                "slopt-serve: offline fold over {} failed: {e}",
                dir.display()
            );
            i32::from(exit::BAD_INPUT)
        }
    }
}

/// Splits the deterministic measurement-run sample stream into
/// per-client shard batches: chunk `k` of `clients * batches` contiguous
/// chunks goes to client `k % clients` as its sequence `k / clients`.
/// Contiguous chunks keep each shard time-sorted (the shard invariant),
/// and the round-robin assignment means replaying clients concurrently
/// interleaves genuinely overlapping time ranges.
fn emit_samples(
    dir: &std::path::Path,
    serve: &ServeConfig,
    clients: u64,
    batches: u64,
    obs: &Obs,
) -> i32 {
    let kernel = slopt_workload::build_kernel();
    let analysis = slopt_workload::analyze_obs(
        &kernel,
        &slopt_workload::SdetConfig::default(),
        &slopt_serve::advice::analysis_config(serve),
        obs,
    );
    // The analysis stream is grouped, not globally time-ordered; the
    // shard invariant wants time order. Stable sort keeps determinism.
    let mut samples = analysis.samples;
    samples.sort_by_key(|s| s.time);
    let chunks = (clients * batches) as usize;
    let per = samples.len().div_ceil(chunks);
    let mut written = 0u64;
    for k in 0..chunks {
        let lo = (k * per).min(samples.len());
        let hi = ((k + 1) * per).min(samples.len());
        if lo >= hi {
            continue;
        }
        let client = (k as u64) % clients;
        let seq = (k as u64) / clients;
        let cdir = dir.join(format!("client{client:02}"));
        if let Err(e) = std::fs::create_dir_all(&cdir) {
            eprintln!("slopt-serve: cannot create {}: {e}", cdir.display());
            return 1;
        }
        let path = cdir.join(format!("b{seq:04}.slshard"));
        if let Err(e) = slopt_sample::write_shard(&path, &samples[lo..hi]) {
            eprintln!("slopt-serve: cannot write {}: {e}", path.display());
            return 1;
        }
        written += 1;
    }
    eprintln!(
        "[serve] emitted {written} shard batches ({} samples) under {}",
        samples.len(),
        dir.display()
    );
    0
}
