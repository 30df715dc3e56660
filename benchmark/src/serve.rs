//! `ingest` and `advise`: the `slopt-serve` daemon under load from one
//! process, two threads and two connections.
//!
//! Both run the same traffic shape — INGEST batches on connection 1 and
//! ADVISE requests on connection 2, open-loop, then a closed-loop burst
//! on both — so writes (journal, windowed fold) contend with reads
//! (re-optimization) on the daemon's shared state lock. `ingest` is
//! write-heavy and reports the INGEST ack latency; `advise` pre-fills the
//! window, restarts the daemon with `--resume` (its set-up time is the
//! recovery time) and is read-heavy, reporting the ADVISE latency.
//!
//! The samples come from the kernel's measurement run, replicated under
//! the seed (see [`crate::gen`]); generating them is not timed. After
//! the load, the live advice must be byte-equal to
//! `slopt_serve::offline_advice` over the same batches written as shards.

use crate::gen;
use crate::load::{closed_loop, open_loop, Clock, OpenLoopResult, WallClock};
use crate::proc::Daemon;
use crate::report::{digest, Metric, RunReport};
use crate::stats;
use crate::trace::{run_passes, span, split_and_report, SimTally, JOBS};
use crate::Ctx;
use slopt_core::ToolParams;
use slopt_fault::FaultPlan;
use slopt_ir::SupervisePolicy;
use slopt_obs::Obs;
use slopt_sample::{ConcurrencyConfig, Sample, WindowedConcurrency};
use slopt_serve::advice::analysis_config;
use slopt_serve::{offline_advice, Advisor, Client, IngestBatch, ServeConfig, ServeState};
use slopt_workload::{analyze, build_kernel, suggest_for, SdetConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Window length in CC intervals: about 190k retained samples, so the
/// window is full and evicting for most of each run.
const WINDOW: u64 = 1024;
const INTERVAL: u64 = 6_000;
/// Samples per INGEST batch.
const BATCH: usize = 2048;
/// Client-side retry budget per batch; every retry is reported.
const MAX_RETRIES: u32 = 3;

/// Which of the two serve workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Write-heavy; reports the INGEST ack latency.
    Ingest,
    /// Pre-filled, resumed, read-heavy; reports the ADVISE latency.
    Advise,
}

/// The traffic of one run, scaled from `--seconds`.
#[derive(Clone, Debug)]
struct Plan {
    kind: Kind,
    /// Batches folded into the state directory before the daemon
    /// first starts (untimed).
    prefill: usize,
    /// Open-loop INGEST requests and their spacing.
    ingest: usize,
    ingest_every: Duration,
    /// Open-loop ADVISE requests and their spacing.
    advise: usize,
    advise_every: Duration,
    /// Closed-loop burst rounds per connection.
    burst: usize,
    /// Set-ups measured (fresh starts for `ingest`, resumes for `advise`).
    setups: usize,
}

impl Plan {
    fn new(kind: Kind, seconds: u64, smoke: bool) -> Plan {
        // The open-loop phase lasts three quarters of the run.
        let open_s = seconds as f64 * 0.75;
        let at = |rate: f64| (open_s * rate).round().max(1.0) as usize;
        let every = |rate: f64| Duration::from_secs_f64(1.0 / rate);
        match (kind, smoke) {
            (Kind::Ingest, false) => Plan {
                kind,
                prefill: 0,
                ingest: at(8.0),
                ingest_every: every(8.0),
                advise: at(4.0),
                advise_every: every(4.0),
                burst: 32,
                setups: 15,
            },
            (Kind::Advise, false) => Plan {
                kind,
                prefill: 120,
                ingest: at(4.0),
                ingest_every: every(4.0),
                advise: at(8.0),
                advise_every: every(8.0),
                burst: 8,
                setups: 9,
            },
            (Kind::Ingest, true) => Plan {
                kind,
                prefill: 0,
                ingest: 8,
                ingest_every: every(8.0),
                advise: 2,
                advise_every: every(4.0),
                burst: 2,
                setups: 3,
            },
            (Kind::Advise, true) => Plan {
                kind,
                prefill: 8,
                ingest: 2,
                ingest_every: every(4.0),
                advise: 4,
                advise_every: every(8.0),
                burst: 1,
                setups: 3,
            },
        }
    }

    /// Batches in the whole stream.
    fn total(&self) -> usize {
        self.prefill + self.ingest + 2 * self.burst
    }

    /// The `(client, seq)` id of stream batch `i`: client 0 sends the
    /// pre-fill and open-loop batches, burst connections 1 and 2 take
    /// the remaining batches alternately.
    fn id(&self, i: usize) -> (u64, u64) {
        let head = self.prefill + self.ingest;
        if i < head {
            (0, i as u64)
        } else {
            let k = i - head;
            (1 + (k % 2) as u64, (k / 2) as u64)
        }
    }

    /// How often the traced replay re-optimizes: as often as the live
    /// run can actually recompute advice (at most once per new batch, and
    /// not more often than ADVISE requests arrive).
    fn replay_advise_every(&self) -> usize {
        match self.kind {
            Kind::Ingest => 10,
            Kind::Advise => 1,
        }
    }
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        interval: INTERVAL,
        window: WINDOW,
    }
}

/// Builds the run's batch stream (untimed input generation).
fn batches(plan: &Plan, seed: u64) -> Vec<IngestBatch> {
    let kernel = build_kernel();
    let base = gen::base_samples(
        &kernel,
        &analysis_config(&serve_cfg()),
        &Obs::disabled(),
        &SimTally::default(),
    );
    to_batches(
        plan,
        gen::stream(&base, seed, plan.total(), BATCH, INTERVAL),
    )
}

fn to_batches(plan: &Plan, stream: Vec<Vec<Sample>>) -> Vec<IngestBatch> {
    stream
        .into_iter()
        .enumerate()
        .map(|(i, samples)| {
            let (client, seq) = plan.id(i);
            IngestBatch {
                client,
                seq,
                samples,
            }
        })
        .collect()
}

/// Every acknowledgement the daemon sent, by batch id.
#[derive(Debug, Default)]
struct Acks {
    /// `(client, seq)` → (acks received, samples accepted + late).
    seen: HashMap<(u64, u64), (u32, u64)>,
    accepted: u64,
    duplicates: u64,
}

impl Acks {
    /// Sends one batch and records its ack.
    fn ingest(
        &mut self,
        client: &mut Client,
        batch: &IngestBatch,
        obs: &Obs,
    ) -> Result<(), String> {
        let ack = client
            .ingest(batch, &FaultPlan::none(), MAX_RETRIES, obs)
            .map_err(|e| e.to_string())?;
        let field = |key| kv_field(&ack, key);
        let (Some(accepted), Some(late), Some(dup)) =
            (field("accepted"), field("late"), field("dup"))
        else {
            return Err(format!("malformed ack `{ack}`"));
        };
        self.record(batch, accepted, late, dup);
        Ok(())
    }

    fn merge(&mut self, other: Acks) {
        for (id, (n, samples)) in other.seen {
            let e = self.seen.entry(id).or_default();
            e.0 += n;
            e.1 += samples;
        }
        self.accepted += other.accepted;
        self.duplicates += other.duplicates;
    }

    fn record(&mut self, batch: &IngestBatch, accepted: u64, late: u64, dup: u64) {
        let entry = self.seen.entry((batch.client, batch.seq)).or_default();
        entry.0 += 1;
        entry.1 += accepted + late;
        self.accepted += accepted;
        self.duplicates += dup;
    }

    /// Every batch acked exactly once, never as a duplicate, with all
    /// of its samples accounted for.
    fn exactly_once(&self, batches: &[IngestBatch]) -> bool {
        self.duplicates == 0
            && self.seen.len() == batches.len()
            && batches
                .iter()
                .all(|b| self.seen.get(&(b.client, b.seq)) == Some(&(1, b.samples.len() as u64)))
    }
}

/// Retries `request` until it succeeds (the daemon is accepting) and
/// returns its reply and the time since `t0`.
fn first_reply(
    t0: Instant,
    mut request: impl FnMut() -> std::io::Result<String>,
) -> Result<(String, Duration), String> {
    loop {
        match request() {
            Ok(reply) => return Ok((reply, t0.elapsed())),
            Err(e) if t0.elapsed() > Duration::from_secs(20) => {
                return Err(format!("daemon never answered: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_micros(500)),
        }
    }
}

/// The value of `key=` in an ack or HEALTH line.
fn kv_field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// The value of one sample in a Prometheus exposition (0 when absent).
fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The untraced run against the real daemon.
pub fn run(ctx: &Ctx, r: &mut RunReport, kind: Kind) -> Result<(), String> {
    let plan = Plan::new(kind, ctx.seconds, ctx.smoke);
    let batches = batches(&plan, ctx.seed);
    let state = ctx.work.join("state");
    let client_obs = Obs::aggregating();
    let mut acks = Acks::default();
    let mut setups_s = Vec::new();
    let mut setup_rss_mb = Vec::new();

    let daemon = match kind {
        Kind::Ingest => {
            // Set-up: spawn on an empty state directory until the first
            // HEALTH reply.
            for _ in 0..plan.setups {
                let _ = std::fs::remove_dir_all(&state);
                let t0 = Instant::now();
                let d = Daemon::spawn(&state, false, WINDOW, JOBS).map_err(|e| e.to_string())?;
                let (_, ready) = first_reply(t0, || d.client().health())?;
                setups_s.push(ready.as_secs_f64());
                r.attempted += 1;
                setup_rss_mb.push(d.drain().map_err(|e| e.to_string())?);
            }
            let _ = std::fs::remove_dir_all(&state);
            let t0 = Instant::now();
            let d = Daemon::spawn(&state, false, WINDOW, JOBS).map_err(|e| e.to_string())?;
            first_reply(t0, || d.client().health())?;
            d
        }
        Kind::Advise => {
            // The pre-fill is folded and journaled by the same state code
            // the daemon runs, directly: over the wire it would take
            // seconds of the run for no measurement.
            let _ = std::fs::remove_dir_all(&state);
            let spec = slopt_bench::CheckpointSpec {
                dir: state.clone(),
                resume: false,
            };
            let off = Obs::disabled();
            let mut st = ServeState::open(&spec, serve_cfg(), &off).map_err(|e| e.to_string())?;
            for b in &batches[..plan.prefill] {
                let a = st
                    .apply(b, &FaultPlan::none(), MAX_RETRIES, &off)
                    .map_err(|e| e.to_string())?;
                acks.record(b, a.accepted, a.late, u64::from(a.duplicate));
            }
            drop(st);
            // Set-up: restart with --resume until the first ADVISE reply;
            // the advice must survive every restart unchanged.
            let mut first: Option<String> = None;
            let mut unchanged = true;
            let mut daemon = None;
            for _ in 0..plan.setups {
                if let Some(d) = daemon.take() {
                    setup_rss_mb.push(Daemon::drain(d).map_err(|e| e.to_string())?);
                }
                let t0 = Instant::now();
                let d = Daemon::spawn(&state, true, WINDOW, JOBS).map_err(|e| e.to_string())?;
                let (advice, ready) = first_reply(t0, || d.client().advise())?;
                setups_s.push(ready.as_secs_f64());
                r.attempted += 1;
                unchanged &= *first.get_or_insert_with(|| advice.clone()) == advice;
                daemon = Some(d);
            }
            let d = daemon.ok_or("no set-up ran")?;
            r.check("serve: advice unchanged after every --resume", unchanged);
            let health = d.client().health().map_err(|e| e.to_string())?;
            r.check(
                "serve: resume refolds every pre-fill batch",
                kv_field(&health, "resumed_batches") == Some(plan.prefill as u64),
            );
            d
        }
    };

    // Open loop: INGEST on this thread, ADVISE on a second thread.
    let mut ingest_client = daemon.client();
    let mut advise_client = daemon.client();
    let open = &batches[plan.prefill..plan.prefill + plan.ingest];
    let clock = WallClock::start();
    let (ingest_res, advise_res) = std::thread::scope(|s| {
        let adv = s.spawn(|| {
            open_loop(&clock, plan.advise, plan.advise_every, |_| {
                advise_client.advise().map(|_| ())
            })
        });
        let ing = open_loop(&clock, open.len(), plan.ingest_every, |i| {
            acks.ingest(&mut ingest_client, &open[i], &client_obs)
        });
        (
            ing,
            adv.join().expect("the ADVISE load thread does not panic"),
        )
    });
    r.attempted += (open.len() + plan.advise) as u64;
    r.failed += ingest_res.failed + advise_res.failed;

    // Closed-loop burst on both connections.
    let burst = &batches[plan.prefill + plan.ingest..];
    let (burst_ok, burst_wall, burst_reqs) = burst_phase(
        kind,
        &mut ingest_client,
        &mut advise_client,
        burst,
        &mut acks,
        &client_obs,
    );
    r.attempted += burst_reqs;
    r.failed += burst_reqs - burst_ok;

    // Final state: live advice, counters, health; then drain.
    let live = advise_client.advise().map_err(|e| e.to_string())?;
    let metrics = advise_client.metrics().map_err(|e| e.to_string())?;
    let health = advise_client.health().map_err(|e| e.to_string())?;
    r.attempted += 3;
    drop((ingest_client, advise_client));
    let load_rss_mb = daemon.drain().map_err(|e| e.to_string())?;

    r.check(
        "serve: every batch acked exactly once",
        acks.exactly_once(&batches),
    );
    r.check(
        "serve: HEALTH reports torn_dropped=0",
        kv_field(&health, "torn_dropped") == Some(0),
    );
    r.check(
        "serve: HEALTH accepted equals the acked samples",
        kv_field(&health, "accepted") == Some(acks.accepted),
    );
    let offline = offline_reference(&ctx.work.join("offline"), &batches)?;
    r.check("serve: live advice equals offline_advice", live == offline);
    r.digest = Some(digest(&live));

    let primary = match kind {
        Kind::Ingest => &ingest_res,
        Kind::Advise => &advise_res,
    };
    if primary.latency_ms.is_empty() {
        return Err("no open-loop request completed".into());
    }
    r.metric("setup_s", Metric::median(&setups_s, "s"));
    // The daemon's memory once ready: the median peak over the set-up
    // daemons. Under load the peak depends on how requests overlap and
    // varies run to run by a fifth; it is reported beside, not bounded.
    if !setup_rss_mb.is_empty() {
        r.metric("peak_rss_mb", Metric::median(&setup_rss_mb, "MB"));
    }
    r.info("serve.load_peak_rss_mb", Metric::one(load_rss_mb, "MB"));
    r.metric("latency_p50_ms", Metric::median(&primary.latency_ms, "ms"));
    r.metric("latency_tail_ms", Metric::tail(&primary.latency_ms, "ms"));
    // One burst batch is one INGEST (ingest) or one INGEST + ADVISE round,
    // i.e. one ADVISE reply (advise).
    let burst_s = burst_wall.as_secs_f64();
    r.metric(
        "throughput_per_s",
        Metric::one(burst.len() as f64 / burst_s, "1/s"),
    );

    latency_info(r, "serve.ack", &ingest_res);
    latency_info(r, "serve.advise", &advise_res);
    let lag = ingest_res.max_lag_ms().max(advise_res.max_lag_ms());
    r.info("serve.gen_lag_ms_max", Metric::one(lag, "ms"));
    r.info(
        "serve.retries",
        Metric::one(
            client_obs.summary().metrics.counter("retry.attempts") as f64,
            "count",
        ),
    );
    // ADVISE requests this daemon process served: the readiness probe
    // (advise only), the open loop, the burst and the final one.
    let advise_reqs = plan.advise
        + 1
        + match kind {
            Kind::Ingest => 0,
            Kind::Advise => 1 + 2 * plan.burst,
        };
    let reopts = prom_value(&metrics, "slopt_serve_reopt_runs");
    r.info(
        "serve.advice_cache_hit_ratio",
        Metric::one(1.0 - reopts / advise_reqs as f64, "ratio"),
    );
    let burst_samples: usize = burst.iter().map(|b| b.samples.len()).sum();
    r.info(
        "serve.burst_samples_per_s",
        Metric::one(burst_samples as f64 / burst_s, "samples/s"),
    );
    Ok(())
}

/// The closed-loop burst: each connection sends its share of `burst`
/// back to back (`ingest`), or alternates INGEST with ADVISE (`advise`).
/// Returns (requests that succeeded, wall time, requests sent).
fn burst_phase(
    kind: Kind,
    c1: &mut Client,
    c2: &mut Client,
    burst: &[IngestBatch],
    acks: &mut Acks,
    obs: &Obs,
) -> (u64, Duration, u64) {
    let (mine, theirs): (Vec<&IngestBatch>, Vec<&IngestBatch>) =
        burst.iter().partition(|b| b.client == 1);
    let per_batch = match kind {
        Kind::Ingest => 1,
        Kind::Advise => 2,
    };
    let clock = WallClock::start();
    let mut other = Acks::default();
    let ((_, f1), (_, f2)) = std::thread::scope(|s| {
        let t = s.spawn(|| {
            closed_loop(&clock, theirs.len() * per_batch, |i| {
                if i % per_batch == 0 {
                    other.ingest(c2, theirs[i / per_batch], obs)
                } else {
                    c2.advise().map(|_| ()).map_err(|e| e.to_string())
                }
            })
        });
        let mine_res = closed_loop(&clock, mine.len() * per_batch, |i| {
            if i % per_batch == 0 {
                acks.ingest(c1, mine[i / per_batch], obs)
            } else {
                c1.advise().map(|_| ()).map_err(|e| e.to_string())
            }
        });
        (mine_res, t.join().expect("the burst thread does not panic"))
    });
    let wall = clock.now();
    acks.merge(other);
    let sent = (burst.len() * per_batch) as u64;
    (sent - f1 - f2, wall, sent)
}

fn latency_info(r: &mut RunReport, name: &str, res: &OpenLoopResult) {
    if res.latency_ms.is_empty() {
        return;
    }
    r.info(
        &format!("{name}_ms_p50"),
        Metric::median(&res.latency_ms, "ms"),
    );
    let (p, _) = stats::tail(&res.latency_ms);
    r.info(
        &format!("{name}_ms_p{p}"),
        Metric::tail(&res.latency_ms, "ms"),
    );
}

/// Writes every batch as a shard under `dir` and returns the advice an
/// offline fold over them yields — the daemon's differential reference.
fn offline_reference(dir: &Path, batches: &[IngestBatch]) -> Result<String, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for b in batches {
        let path = dir.join(format!("c{}-s{:06}.slshard", b.client, b.seq));
        slopt_sample::write_shard(&path, &b.samples).map_err(|e| e.to_string())?;
    }
    let advice = offline_advice(
        dir,
        &serve_cfg(),
        JOBS,
        SupervisePolicy::default(),
        FaultPlan::none(),
        &Obs::disabled(),
    )
    .map_err(|e| e.to_string())?;
    Ok(advice.text)
}

/// The traced run: a direct replay of the same batches through the serve
/// and sample layers, untraced and traced.
pub fn run_traced(ctx: &Ctx, r: &mut RunReport, kind: Kind) -> Result<(), String> {
    let plan = Plan::new(kind, ctx.seconds, ctx.smoke);

    let path = ctx.work.join("serve.trace.jsonl");
    let dir = ctx.work.join("replay");
    let passes = run_passes(&path, |obs, tally| pass(obs, tally, &plan, ctx.seed, &dir))
        .map_err(|e| e.to_string())?;
    let (traced, untraced) = (passes.traced?, passes.untraced?);
    r.attempted += 3 * traced.batches as u64;

    let offline = offline_reference(&ctx.work.join("offline"), &traced.stream)?;
    r.check(
        "serve: replayed advice equals offline_advice",
        traced.advice == offline,
    );
    r.check(
        "serve: untraced and traced replays agree",
        untraced.advice == traced.advice,
    );
    r.check(
        "serve: resume refolds the identical window",
        traced.resume_identical,
    );
    r.digest = Some(digest(&traced.advice));

    let split = split_and_report(r, &path, "pass.serve", passes.untraced_ms);
    passes
        .tally
        .report(r, split.map_or(0.0, |s| s.self_ms["sim"]));
    let samples: usize = traced.stream.iter().map(|b| b.samples.len()).sum();
    r.metric("sample.samples", Metric::one(samples as f64, "count"));
    r.metric(
        "sample.cc_pairs",
        Metric::one(traced.cc_pairs as f64, "count"),
    );
    r.metric(
        "sample.retained_samples",
        Metric::one(traced.retained as f64, "count"),
    );
    r.metric(
        "sample.evicted_samples",
        Metric::one(traced.evicted as f64, "count"),
    );
    r.metric(
        "sample.late_dropped",
        Metric::one(traced.late as f64, "count"),
    );
    r.metric("serve.batches", Metric::one(traced.batches as f64, "count"));
    r.metric(
        "serve.journal_bytes",
        Metric::one(traced.journal_bytes as f64, "bytes"),
    );

    let t = &traced.timings;
    let us = |v: &[f64], p: f64| Metric::percentile(v, p, "us");
    r.info("serve.encode_us_p50", us(&t.encode_us, 50.0));
    r.info("serve.decode_us_p50", us(&t.decode_us, 50.0));
    r.info("serve.apply_us_p50", us(&t.apply_us, 50.0));
    r.info("serve.apply_us_p90", us(&t.apply_us, 90.0));
    r.info("sample.window_ingest_us_p50", us(&t.window_us, 50.0));
    r.info("sample.window_ingest_us_p90", us(&t.window_us, 90.0));
    r.info(
        "serve.journal_us_p50",
        Metric::one(
            stats::median(&t.apply_us) - stats::median(&t.window_us),
            "us",
        ),
    );
    if !t.reopt_ms.is_empty() {
        r.info("serve.reopt_ms_p50", Metric::median(&t.reopt_ms, "ms"));
        r.info(
            "serve.reopt_ms_max",
            Metric::percentile(&t.reopt_ms, 100.0, "ms"),
        );
        r.info(
            "sample.cells_snapshot_ms",
            Metric::median(&t.snapshot_ms, "ms"),
        );
        r.info("sample.cc_finish_ms", Metric::median(&t.finish_ms, "ms"));
        r.info("core.suggest_ms", Metric::median(&t.suggest_ms, "ms"));
    }
    r.info(
        "serve.advisor_init_ms",
        Metric::one(t.advisor_init_ms, "ms"),
    );
    r.info("serve.open_resume_ms", Metric::one(t.resume_ms, "ms"));
    Ok(())
}

#[derive(Debug, Default)]
struct Timings {
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    apply_us: Vec<f64>,
    window_us: Vec<f64>,
    reopt_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    finish_ms: Vec<f64>,
    suggest_ms: Vec<f64>,
    advisor_init_ms: f64,
    resume_ms: f64,
}

struct PassOut {
    stream: Vec<IngestBatch>,
    advice: String,
    batches: usize,
    cc_pairs: usize,
    retained: u64,
    evicted: u64,
    late: u64,
    journal_bytes: u64,
    resume_identical: bool,
    timings: Timings,
}

/// Times `f` under a span named `name`, appending its duration in units
/// of `1/scale` seconds (1e6 for µs, 1e3 for ms) to `into`.
fn timed<T>(
    obs: &Obs,
    name: &'static str,
    into: &mut Vec<f64>,
    scale: f64,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = span(obs, name, f);
    into.push(t0.elapsed().as_secs_f64() * scale);
    out
}

/// What the daemon does with the run's batches, through the public
/// functions of `serve` and `sample`: the advisor's static analysis,
/// then per batch encode → decode → journaled apply, the windowed fold
/// on its own, and periodic re-optimization with its snapshot, CC finish
/// and per-record suggestions re-timed; finally a resume of the journal.
fn pass(
    obs: &Obs,
    tally: &SimTally,
    plan: &Plan,
    seed: u64,
    dir: &Path,
) -> Result<PassOut, String> {
    let _pass = obs.span("pass.serve");
    let off = Obs::disabled();
    let cfg = serve_cfg();
    let kernel = build_kernel();
    let acfg = analysis_config(&cfg);
    let base = gen::base_samples(&kernel, &acfg, obs, tally);
    let stream = span(obs, "pass.stream", || {
        to_batches(
            plan,
            gen::stream(&base, seed, plan.total(), BATCH, INTERVAL),
        )
    });
    let mut t = Timings::default();

    let mut analysis = span(obs, "workload.analyze", || {
        analyze(&kernel, &SdetConfig::default(), &acfg)
    });
    let t0 = Instant::now();
    let mut advisor = span(obs, "serve.advisor_init", || {
        Advisor::new(
            &cfg,
            JOBS,
            SupervisePolicy::default(),
            FaultPlan::none(),
            &off,
        )
    });
    t.advisor_init_ms = t0.elapsed().as_secs_f64() * 1e3;

    let _ = std::fs::remove_dir_all(dir);
    let spec = |resume| slopt_bench::CheckpointSpec {
        dir: PathBuf::from(dir),
        resume,
    };
    let mut state = span(obs, "serve.open", || {
        ServeState::open(&spec(false), cfg.clone(), &off)
    })
    .map_err(|e| e.to_string())?;
    let mut win = WindowedConcurrency::new(ConcurrencyConfig { interval: INTERVAL }, WINDOW);
    let every = plan.replay_advise_every();
    let mut cc_pairs = 0usize;
    for (i, batch) in stream.iter().enumerate() {
        let payload = timed(obs, "serve.encode", &mut t.encode_us, 1e6, || {
            batch.encode()
        })
        .map_err(|e| e.to_string())?;
        let decoded = timed(obs, "serve.decode", &mut t.decode_us, 1e6, || {
            IngestBatch::decode(&payload)
        })
        .map_err(|e| e.to_string())?;
        timed(obs, "serve.apply", &mut t.apply_us, 1e6, || {
            state.apply(&decoded, &FaultPlan::none(), MAX_RETRIES, &off)
        })
        .map_err(|e| e.to_string())?;
        timed(obs, "sample.window_ingest", &mut t.window_us, 1e6, || {
            win.ingest(&decoded.samples)
        });
        if i >= plan.prefill && (i - plan.prefill + 1).is_multiple_of(every) {
            timed(obs, "serve.reopt", &mut t.reopt_ms, 1e3, || {
                advisor.advise(state.window(), &off)
            });
            timed(
                obs,
                "sample.cells_snapshot",
                &mut t.snapshot_ms,
                1e3,
                || win.cells_snapshot(),
            );
            let map = timed(obs, "sample.cc_finish", &mut t.finish_ms, 1e3, || {
                win.concurrency_jobs(JOBS)
            });
            cc_pairs = map.len();
            analysis.concurrency = map;
            let t0 = Instant::now();
            for (_, rec) in kernel.records.all() {
                span(obs, "core.suggest", || {
                    suggest_for(&kernel, &analysis, rec, ToolParams::default())
                });
            }
            t.suggest_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let advice = advisor.advise(state.window(), &off).text;
    let cells = state.window().cells_snapshot();
    drop(state);

    let t0 = Instant::now();
    let mut back = span(obs, "serve.resume", || {
        ServeState::open(&spec(true), cfg.clone(), &off)
    })
    .map_err(|e| e.to_string())?;
    t.resume_ms = t0.elapsed().as_secs_f64() * 1e3;
    let resume_identical = back.window().cells_snapshot() == cells && back.torn_dropped() == 0;
    drop(back);

    let journal_bytes = std::fs::read_dir(dir.join("journal"))
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(dir);
    Ok(PassOut {
        batches: stream.len(),
        stream,
        advice,
        cc_pairs,
        retained: win.retained_samples(),
        evicted: win.evicted_samples(),
        late: win.late_dropped(),
        journal_bytes,
        resume_identical,
        timings: t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_ids_are_unique_and_split_the_burst_between_two_clients() {
        for kind in [Kind::Ingest, Kind::Advise] {
            for smoke in [false, true] {
                let plan = Plan::new(kind, 20, smoke);
                let ids: Vec<(u64, u64)> = (0..plan.total()).map(|i| plan.id(i)).collect();
                let unique: std::collections::HashSet<_> = ids.iter().collect();
                assert_eq!(unique.len(), ids.len());
                let burst = ids.iter().filter(|(c, _)| *c != 0).count();
                assert_eq!(burst, 2 * plan.burst);
            }
        }
        // At the default 20 s both primary streams reach p90.
        assert_eq!(Plan::new(Kind::Ingest, 20, false).ingest, 120);
        assert_eq!(Plan::new(Kind::Advise, 20, false).advise, 120);
    }

    #[test]
    fn health_and_prometheus_fields_parse() {
        let line = "ok rev=3 retained=10 accepted=12 late=0 evicted=2 window=0..5 \
                    resumed_batches=2 torn_dropped=0";
        assert_eq!(kv_field(line, "accepted"), Some(12));
        assert_eq!(kv_field(line, "torn_dropped"), Some(0));
        assert_eq!(kv_field(line, "missing"), None);
        let prom = "# TYPE slopt_serve_reopt_runs counter\nslopt_serve_reopt_runs 7\n";
        assert_eq!(prom_value(prom, "slopt_serve_reopt_runs"), 7.0);
        assert_eq!(prom_value(prom, "slopt_absent"), 0.0);
    }
}
