//! End-to-end daemon tests: the differential correctness contract
//! (daemon advice ≡ offline advice, bit for bit) under concurrent
//! clients, injected faults, duplicate delivery, restart/resume — and
//! the availability contract (garbage frames and contained panics never
//! take the daemon down).

use slopt_fault::{FaultKind, FaultPlan};
use slopt_ir::SupervisePolicy;
use slopt_obs::Obs;
use slopt_sample::write_shard;
use slopt_serve::proto::{read_frame, write_frame, OP_ERR, OP_HEALTH, OP_INGEST, OP_OK};
use slopt_serve::{
    advice::analysis_config, offline_advice, Client, DaemonConfig, IngestBatch, ServeConfig,
    SITE_JOURNAL,
};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slopt_serve_e2e_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic measurement-run sample stream, chunked round-robin
/// into per-client batches exactly as `slopt-serve --emit-samples` does.
fn real_batches(cfg: &ServeConfig, clients: u64, batches: u64) -> Vec<Vec<IngestBatch>> {
    let kernel = slopt_workload::build_kernel();
    let analysis = slopt_workload::analyze_obs(
        &kernel,
        &slopt_workload::SdetConfig::default(),
        &analysis_config(cfg),
        &Obs::disabled(),
    );
    // The analysis stream is grouped, not globally time-ordered; the
    // shard invariant wants time order. Stable sort keeps determinism.
    let mut samples = analysis.samples.clone();
    samples.sort_by_key(|s| s.time);
    let samples = &samples;
    assert!(samples.len() > 100, "analysis must produce a real stream");
    let chunks = (clients * batches) as usize;
    let per = samples.len().div_ceil(chunks);
    let mut out: Vec<Vec<IngestBatch>> = (0..clients).map(|_| Vec::new()).collect();
    for k in 0..chunks {
        let lo = (k * per).min(samples.len());
        let hi = ((k + 1) * per).min(samples.len());
        if lo >= hi {
            continue;
        }
        let client = (k as u64) % clients;
        out[client as usize].push(IngestBatch {
            client,
            seq: (k as u64) / clients,
            samples: samples[lo..hi].to_vec(),
        });
    }
    out
}

fn write_offline_tree(dir: &Path, per_client: &[Vec<IngestBatch>]) {
    for batches in per_client {
        for b in batches {
            let cdir = dir.join(format!("client{:02}", b.client));
            std::fs::create_dir_all(&cdir).unwrap();
            write_shard(&cdir.join(format!("b{:04}.slshard", b.seq)), &b.samples).unwrap();
        }
    }
}

/// The tentpole contract in one test: advice served after any ingest
/// sequence — concurrent interleaved clients, injected transient faults
/// on the client, journal, and reopt sites, duplicate delivery, a torn
/// journal file, graceful restart with `--resume`, different `--jobs`
/// everywhere — is bit-identical to a clean offline run over the same
/// samples.
#[test]
fn advice_is_bit_identical_to_offline_across_interleavings_faults_and_resume() {
    // A window much smaller than the stream's interval span, so decay
    // (eviction) and order-dependent late-drops actually happen.
    let cfg = ServeConfig {
        interval: 6_000,
        window: 64,
    };
    let per_client = real_batches(&cfg, 3, 4);

    // The offline reference: fault-free, --jobs 4.
    let offline_dir = temp_dir("offline");
    write_offline_tree(&offline_dir, &per_client);
    let reference = offline_advice(
        &offline_dir,
        &cfg,
        4,
        SupervisePolicy::default(),
        FaultPlan::none(),
        &Obs::disabled(),
    )
    .unwrap();
    assert!(reference.text.starts_with("slopt-advice/1 version="));
    assert_eq!(reference.holed, 0);

    // The daemon: transient faults injected into journal writes and the
    // supervised reopt workers; --jobs 2.
    let state_dir = temp_dir("state");
    let mut dcfg = DaemonConfig::local(&state_dir, false);
    dcfg.serve = cfg.clone();
    dcfg.jobs = 2;
    dcfg.plan = FaultPlan::parse("seed=11,transient=0.2,write-error=0.2").unwrap();
    dcfg.policy.max_retries = 24;
    let obs = Obs::aggregating();
    let handle = slopt_serve::start(dcfg, &obs).unwrap();
    let addr = handle.addr.to_string();
    assert_eq!(
        std::fs::read_to_string(state_dir.join("addr"))
            .unwrap()
            .trim(),
        addr,
        "bound address is published for discovery"
    );

    // Three concurrent collectors, each with client-side transient send
    // faults and one deliberately duplicated batch.
    let client_plan = FaultPlan::parse("seed=7,transient=0.3").unwrap();
    std::thread::scope(|scope| {
        for batches in &per_client {
            let addr = addr.clone();
            let plan = client_plan.clone();
            scope.spawn(move || {
                let mut client = Client::new(addr);
                for b in batches {
                    client.ingest(b, &plan, 24, &Obs::disabled()).unwrap();
                }
                // Redeliver the first batch: the (client, seq) key must
                // dedup it, not double-fold.
                let ack = client
                    .ingest(&batches[0], &plan, 24, &Obs::disabled())
                    .unwrap();
                assert!(ack.contains("dup=1"), "redelivery must dedup: {ack}");
            });
        }
    });

    let mut client = Client::new(addr);
    let live = client.advise().unwrap();
    assert_eq!(
        live, reference.text,
        "daemon advice must be bit-identical to the offline reference"
    );
    let health = client.health().unwrap();
    assert!(health.starts_with("ok "), "{health}");
    handle.stop().unwrap();

    // The lock totally orders folds: one journal file per acknowledged
    // non-duplicate batch, numbered densely in fold order; the three
    // redeliveries are not journaled.
    let journal = state_dir.join("journal");
    let mut orders: Vec<String> = std::fs::read_dir(&journal)
        .unwrap()
        .map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.split('-').next().unwrap().to_string()
        })
        .collect();
    orders.sort();
    let dense: Vec<String> = (0..12).map(|o| format!("j{o:012}")).collect();
    assert_eq!(orders, dense, "journal must hold exactly fold orders 0..12");

    // Simulate a kill-9 mid-append: a torn journal file appears. Resume
    // must drop it (counted) and reproduce the same advice — at yet
    // another --jobs.
    std::fs::write(
        journal.join("j000000999999-00000000000000ff-0000000000000000.slshard"),
        b"SLSHARD1 torn mid-write",
    )
    .unwrap();
    let mut rcfg = DaemonConfig::local(&state_dir, true);
    rcfg.serve = cfg;
    rcfg.jobs = 3;
    let handle = slopt_serve::start(rcfg, &obs).unwrap();
    let mut client = Client::new(handle.addr.to_string());
    let resumed = client.advise().unwrap();
    assert_eq!(
        resumed, reference.text,
        "post-resume advice must be bit-identical"
    );
    let health = client.health().unwrap();
    assert!(health.contains("resumed_batches=12"), "{health}");
    assert!(health.contains("torn_dropped=1"), "{health}");
    handle.stop().unwrap();

    let _ = std::fs::remove_dir_all(&offline_dir);
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Availability: garbage frames get typed errors, injected connection
/// panics are contained per-frame, the metrics endpoint serves a valid
/// Prometheus exposition that counts all of it, and a client-initiated
/// drain shuts the daemon down cleanly after every acknowledged batch
/// has folded.
#[test]
fn garbage_frames_and_contained_panics_never_kill_the_daemon() {
    let state_dir = temp_dir("robust");
    let mut dcfg = DaemonConfig::local(&state_dir, false);
    dcfg.serve = ServeConfig {
        interval: 6_000,
        window: 64,
    };
    // Panic faults at the connection site: frames blow up inside the
    // handler and must be contained.
    dcfg.plan = FaultPlan::parse("seed=5,panic=0.3").unwrap();
    let obs = Obs::aggregating();
    let handle = slopt_serve::start(dcfg, &obs).unwrap();
    let addr = handle.addr.to_string();

    // Raw protocol abuse on one connection.
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        // A response opcode as a request: typed error, connection lives.
        write_frame(&mut stream, OP_OK, b"not a request").unwrap();
        let (op, body) = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(op, OP_ERR);
        assert!(String::from_utf8_lossy(&body).contains("not a request"));
        // A short ingest payload: typed error, connection lives.
        write_frame(&mut stream, OP_INGEST, b"abc").unwrap();
        let (op, _) = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(op, OP_ERR);
        // A garbage shard image: typed error, connection lives.
        let mut payload = vec![0u8; 16];
        payload.extend_from_slice(b"NOT A SHARD IMAGE");
        write_frame(&mut stream, OP_INGEST, &payload).unwrap();
        let (op, _) = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(op, OP_ERR);
        // The same connection still serves real requests.
        write_frame(&mut stream, OP_HEALTH, b"").unwrap();
        let (op, body) = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(op, OP_OK);
        assert!(String::from_utf8_lossy(&body).starts_with("ok "));
    }

    // Real ingest through the panic plan: client retries heal every
    // contained panic (the retry is a fresh frame index).
    let samples = {
        let kernel = slopt_workload::build_kernel();
        let mut samples = slopt_workload::analyze_obs(
            &kernel,
            &slopt_workload::SdetConfig::default(),
            &analysis_config(&ServeConfig::default()),
            &Obs::disabled(),
        )
        .samples;
        samples.sort_by_key(|s| s.time);
        samples
    };
    let mut client = Client::new(addr.clone());
    for (seq, chunk) in samples.chunks(samples.len().div_ceil(4).max(1)).enumerate() {
        let batch = IngestBatch {
            client: 1,
            seq: seq as u64,
            samples: chunk.to_vec(),
        };
        client
            .ingest(&batch, &FaultPlan::none(), 24, &Obs::disabled())
            .unwrap();
    }

    // The metrics endpoint is a valid exposition and counts the abuse.
    let metrics = client.metrics().unwrap();
    let families = slopt_obs::prom::validate(&metrics).expect("exposition must validate");
    assert!(families > 0);
    assert!(
        metrics.contains("slopt_warn_serve_proto_bad_opcode"),
        "protocol abuse must be counted:\n{metrics}"
    );
    assert!(
        metrics.contains("slopt_serve_ingest_batches"),
        "ingest must be counted:\n{metrics}"
    );
    if metrics.contains("slopt_warn_serve_conn_panic") {
        // Panic containment fired (plan-dependent); the daemon is
        // provably still alive because every request above succeeded.
    }

    // Client-initiated drain: the daemon acks, in-flight requests
    // finish, and the run loop exits cleanly.
    let ack = client.drain().unwrap();
    assert!(ack.contains("draining"), "{ack}");
    handle.wait().unwrap();

    let _ = std::fs::remove_dir_all(&state_dir);
}

/// The journal's retry budget is the supervision policy's
/// `max_retries` (the `--max-retries` flag): a batch whose first journal
/// write fails is refused under a budget of 0 and acknowledged under 24.
#[test]
fn journal_retries_follow_the_policy_budget() {
    let plan = FaultPlan::parse("seed=1,write-error=0.5").unwrap();
    assert!(
        plan.fires(FaultKind::WriteError, SITE_JOURNAL, 0, 0),
        "premise: the plan fails batch 0's first journal write"
    );
    let cfg = ServeConfig {
        interval: 6_000,
        window: 64,
    };
    let batch = real_batches(&cfg, 1, 4).swap_remove(0).swap_remove(0);
    for (budget, acked) in [(0, false), (24, true)] {
        let state_dir = temp_dir(&format!("journal_budget_{budget}"));
        let mut dcfg = DaemonConfig::local(&state_dir, false);
        dcfg.serve = cfg.clone();
        dcfg.plan = plan.clone();
        dcfg.policy.max_retries = budget;
        let handle = slopt_serve::start(dcfg, &Obs::disabled()).unwrap();
        let mut client = Client::new(handle.addr.to_string());
        let reply = client.ingest(&batch, &FaultPlan::none(), 0, &Obs::disabled());
        assert_eq!(reply.is_ok(), acked, "budget {budget}: {reply:?}");
        let health = client.health().unwrap();
        let rev = if acked { "rev=1 " } else { "rev=0 " };
        assert!(health.contains(rev), "budget {budget}: {health}");
        handle.stop().unwrap();
        let _ = std::fs::remove_dir_all(&state_dir);
    }
}

/// `slopt-serve`'s own flags go through the shared strict reader: a
/// malformed value is a positional usage error (exit 2) pointing at
/// `--help`, like every experiment binary's. So is a size outside its
/// range — a zero window, interval, client or batch count, or a window
/// too large to allocate — caught before any analysis runs — and an
/// unknown flag.
#[test]
fn malformed_serve_flags_exit_2_with_positional_messages() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_slopt-serve"))
        .args(["--window", "x"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "--window x must exit 2 (usage)");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("arg 2: ") && err.contains("`x`"),
        "stderr must carry a positional message naming `x`; got: {err}"
    );
    assert!(
        err.contains("try `slopt-serve --help`"),
        "stderr must point at --help; got: {err}"
    );

    // Offline mode over a directory that does not exist: without the
    // range check, these runs would panic or fail on the fold (exit 3).
    let missing = std::env::temp_dir().join("slopt_serve_no_such_shards");
    let missing = missing.to_str().unwrap();
    for (flag, value, expect) in [
        ("--window", "0", "arg 4: --window must be "),
        ("--interval", "0", "arg 4: --interval must be "),
        ("--clients", "0", "arg 4: --clients must be "),
        ("--batches", "0", "arg 4: --batches must be "),
        (
            "--window",
            "18446744073709551615",
            "arg 4: --window must be ",
        ),
        // Advice is computed on request; there is no re-optimization period.
        ("--reopt-ms", "5", "arg 3: unknown flag `--reopt-ms`"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_slopt-serve"))
            .args(["--offline", missing, flag, value])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value} must exit 2 (usage)"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(expect),
            "stderr must carry `{expect}`; got: {err}"
        );
    }
}
