//! The always-available advisory daemon: supervised ingest over TCP,
//! lazy re-optimization on request, health/metrics endpoints, graceful
//! drain.
//!
//! # Availability mechanics
//!
//! * **Per-connection panic containment** — each frame is handled under
//!   `catch_unwind`; a panicking handler (including injected `panic`
//!   faults) costs one `warn.serve.conn_panic` counter and an error
//!   reply, never the process.
//! * **Typed protocol errors** — malformed frames become
//!   `warn.serve.proto.<reason>` counters plus an [`OP_ERR`] reply when
//!   framing survives, or a closed connection when it does not.
//! * **One lock, real backpressure** — the windowed state, the advisor
//!   and the cached advice sit behind one `Mutex`. An INGEST frame
//!   folds on its own connection thread under that lock, so batches
//!   apply in one total order, and that order is the journal order a
//!   resume replays. A connection waiting for the lock does not read
//!   its socket, which backpressures the collector through TCP. A panic
//!   while the lock is held poisons it: every later request then gets
//!   the contained-panic error reply instead of half-applied state.
//! * **Graceful drain** — on shutdown the acceptor stops, in-flight
//!   requests finish (connections poll the drain flag on a read
//!   timeout), and only then does the run loop return.
//!
//! [`OP_ERR`]: crate::proto::OP_ERR

use slopt_bench::CheckpointSpec;
use slopt_fault::FaultPlan;
use slopt_ir::SupervisePolicy;
use slopt_obs::Obs;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::advice::{Advice, Advisor};
use crate::proto::{
    read_frame, write_frame, IngestBatch, ProtoError, OP_ADVISE, OP_DRAIN, OP_ERR, OP_HEALTH,
    OP_INGEST, OP_METRICS, OP_OK,
};
use crate::state::{Applied, ServeConfig, ServeState};

/// The serve-side fault site for connection handlers: a seeded `panic`
/// plan makes frame handling panic, exercising containment.
pub const SITE_CONN: &str = "serve.conn";

/// File inside the state directory where the daemon publishes its bound
/// address (the CI harness binds port 0 and discovers it here).
pub const ADDR_FILE: &str = "addr";

/// Everything a daemon run needs, as plain data.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// State directory + resume flag (journal, meta log, addr file).
    pub spec: CheckpointSpec,
    /// Fold parameters (interval, window).
    pub serve: ServeConfig,
    /// Worker threads for re-optimization (advice is jobs-invariant).
    pub jobs: usize,
    /// Supervision policy for re-optimization workers; its
    /// `max_retries` is also the retry budget for transient journal I/O.
    pub policy: SupervisePolicy,
    /// Seeded fault plan ([`SITE_CONN`], [`crate::state::SITE_JOURNAL`],
    /// [`crate::advice::SITE_REOPT`]).
    pub plan: FaultPlan,
}

impl DaemonConfig {
    /// A local daemon on an ephemeral port with no fault injection.
    pub fn local(dir: impl Into<std::path::PathBuf>, resume: bool) -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            spec: CheckpointSpec {
                dir: dir.into(),
                resume,
            },
            serve: ServeConfig::default(),
            jobs: 2,
            policy: SupervisePolicy::default(),
            plan: FaultPlan::none(),
        }
    }
}

/// Everything a request reads or changes, behind the daemon's one lock.
struct Live {
    state: ServeState,
    advisor: Advisor,
    /// Cached advice keyed by the state revision that produced it.
    advice: (u64, Arc<Advice>),
}

struct Shared {
    live: Mutex<Live>,
    obs: Obs,
    plan: FaultPlan,
    max_retries: u32,
    shutdown: Arc<AtomicBool>,
    frame_counter: AtomicU64,
}

impl Shared {
    /// Folds one batch under the lock and publishes the
    /// retained-sample gauge.
    fn ingest(&self, batch: &IngestBatch) -> io::Result<Applied> {
        let mut live = self.live.lock().unwrap();
        let applied = live
            .state
            .apply(batch, &self.plan, self.max_retries, &self.obs);
        let retained = live.state.window_stats().retained_samples();
        self.obs.gauge("serve.retained", retained as f64);
        applied
    }

    /// Returns advice for the current state revision, recomputing only
    /// when stale. The lock is held across recomputation so concurrent
    /// requests serialize instead of duplicating the reopt.
    fn advice(&self) -> Arc<Advice> {
        let mut live = self.live.lock().unwrap();
        let Live {
            state,
            advisor,
            advice,
        } = &mut *live;
        if advice.0 != state.rev() {
            *advice = (
                state.rev(),
                Arc::new(advisor.advise(state.window(), &self.obs)),
            );
            self.obs.counter("serve.reopt.runs", 1);
        }
        Arc::clone(&advice.1)
    }

    fn health_line(&self) -> String {
        let state = &self.live.lock().unwrap().state;
        let w = state.window_stats();
        let (lo, hi) = w.window_range().unwrap_or((0, 0));
        format!(
            "ok rev={} retained={} accepted={} late={} evicted={} window={lo}..{hi} resumed_batches={} torn_dropped={}",
            state.rev(),
            w.retained_samples(),
            w.accepted(),
            w.late_dropped(),
            w.evicted_samples(),
            state.resumed_batches(),
            state.torn_dropped(),
        )
    }

    fn metrics_text(&self) -> String {
        slopt_obs::prom::to_prometheus(&self.obs.summary())
    }
}

/// A started daemon: its bound address and the means to stop it.
#[derive(Debug)]
pub struct DaemonHandle {
    /// The actually-bound address (resolves `:0`).
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: std::thread::JoinHandle<io::Result<()>>,
}

impl DaemonHandle {
    /// The flag that initiates a graceful drain when set (shared with
    /// the run loop; a SIGTERM handler can set it directly).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Initiates a graceful drain and waits for the run loop to finish.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wait()
    }

    /// Waits for the run loop to finish without initiating shutdown
    /// (it ends on its own after a drain request or shutdown signal).
    pub fn wait(self) -> io::Result<()> {
        self.join.join().expect("daemon run loop must not panic")
    }
}

/// Opens the state, runs the static analysis, binds the listener,
/// publishes the bound address into the state directory, and starts the
/// accept thread. Returns once the daemon is serving.
pub fn start(cfg: DaemonConfig, obs: &Obs) -> io::Result<DaemonHandle> {
    let mut state = ServeState::open(&cfg.spec, cfg.serve.clone(), obs)?;
    let mut advisor = Advisor::new(
        &cfg.serve,
        cfg.jobs,
        cfg.policy.clone(),
        cfg.plan.clone(),
        obs,
    );

    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    std::fs::create_dir_all(&cfg.spec.dir)?;
    std::fs::write(cfg.spec.dir.join(ADDR_FILE), format!("{addr}\n"))?;

    // Advice is available from the first request on: compute the
    // initial document (possibly over resumed state) before accepting
    // connections.
    let initial = Arc::new(advisor.advise(state.window(), obs));
    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        live: Mutex::new(Live {
            advice: (state.rev(), initial),
            state,
            advisor,
        }),
        obs: obs.clone(),
        plan: cfg.plan.clone(),
        max_retries: cfg.policy.max_retries,
        shutdown: Arc::clone(&shutdown),
        frame_counter: AtomicU64::new(0),
    });

    let join = std::thread::Builder::new()
        .name("slopt-serve-run".to_string())
        .spawn(move || run_loop(listener, shared))?;

    Ok(DaemonHandle {
        addr,
        shutdown,
        join,
    })
}

fn run_loop(listener: TcpListener, shared: Arc<Shared>) -> io::Result<()> {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut conn_id: u64 = 0;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                conn_id += 1;
                let conn_shared = Arc::clone(&shared);
                conns.push(
                    std::thread::Builder::new()
                        .name(format!("slopt-serve-conn-{conn_id}"))
                        .spawn(move || handle_conn(stream, &conn_shared))?,
                );
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                shared.obs.warning("serve.accept");
                eprintln!("[serve] accept error: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }

    // Drain: no new connections; existing ones observe the flag at
    // their next read timeout and close after finishing the in-flight
    // request.
    for conn in conns {
        let _ = conn.join();
    }
    shared.obs.counter("serve.drained", 1);
    Ok(())
}

fn handle_conn(stream: TcpStream, shared: &Shared) {
    let mut stream = stream;
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean disconnect
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return; // drained
                }
                continue;
            }
            Err(e) => {
                shared
                    .obs
                    .warning(&format!("serve.proto.{}", e.reason_key()));
                if e.recoverable() {
                    let _ = write_frame(&mut stream, OP_ERR, e.to_string().as_bytes());
                    continue;
                }
                return; // framing lost
            }
        };
        // Panic containment boundary: whatever a handler does to this
        // frame, the connection (and the daemon) survives it.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_frame(&mut stream, shared, frame)
        }));
        match outcome {
            Ok(ConnFlow::Continue) => {}
            Ok(ConnFlow::Close) => return,
            Err(_) => {
                shared.obs.warning("serve.conn_panic");
                let _ = write_frame(
                    &mut stream,
                    OP_ERR,
                    b"internal error: contained panic; retry",
                );
            }
        }
    }
}

enum ConnFlow {
    Continue,
    Close,
}

fn handle_frame(stream: &mut TcpStream, shared: &Shared, (op, payload): (u8, Vec<u8>)) -> ConnFlow {
    match op {
        OP_INGEST => {
            let frame_idx = shared.frame_counter.fetch_add(1, Ordering::Relaxed);
            if shared
                .plan
                .fires(slopt_fault::FaultKind::Panic, SITE_CONN, frame_idx, 0)
            {
                shared.obs.warning("fault.injected.panic");
                panic!("injected connection panic (frame #{frame_idx})");
            }
            let batch = match IngestBatch::decode(&payload) {
                Ok(batch) => batch,
                Err(e) => {
                    shared
                        .obs
                        .warning(&format!("serve.proto.{}", e.reason_key()));
                    let _ = write_frame(stream, OP_ERR, e.to_string().as_bytes());
                    return ConnFlow::Continue;
                }
            };
            match shared.ingest(&batch) {
                Ok(applied) => {
                    let ack = format!(
                        "accepted={} late={} dup={}",
                        applied.accepted,
                        applied.late,
                        u8::from(applied.duplicate)
                    );
                    let _ = write_frame(stream, OP_OK, ack.as_bytes());
                }
                Err(e) => {
                    let _ = write_frame(
                        stream,
                        OP_ERR,
                        format!("ingest failed: {e}; retry").as_bytes(),
                    );
                }
            }
            ConnFlow::Continue
        }
        OP_ADVISE => {
            let advice = shared.advice();
            let _ = write_frame(stream, OP_OK, advice.text.as_bytes());
            ConnFlow::Continue
        }
        OP_HEALTH => {
            let _ = write_frame(stream, OP_OK, shared.health_line().as_bytes());
            ConnFlow::Continue
        }
        OP_METRICS => {
            let _ = write_frame(stream, OP_OK, shared.metrics_text().as_bytes());
            ConnFlow::Continue
        }
        OP_DRAIN => {
            let _ = write_frame(stream, OP_OK, b"draining");
            shared.shutdown.store(true, Ordering::SeqCst);
            ConnFlow::Close
        }
        other => {
            shared.obs.warning("serve.proto.bad_opcode");
            let _ = write_frame(
                stream,
                OP_ERR,
                format!("opcode 0x{other:02x} is not a request").as_bytes(),
            );
            ConnFlow::Continue
        }
    }
}
