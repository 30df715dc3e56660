//! The daemon's durable state: a journaled, windowed Code Concurrency
//! fold with crash-consistent resume.
//!
//! # Crash consistency
//!
//! Every accepted batch follows the same three-step discipline:
//!
//! 1. **Journal** — the batch is written verbatim as an `slopt-shard/1`
//!    file named `j<order>-<client>-<seq>.slshard` under
//!    `<dir>/journal/`. The order prefix is the fold sequence number,
//!    so a resume replays batches in exactly the order the original
//!    process folded them.
//! 2. **Fold** — the samples enter the [`WindowedConcurrency`] ring.
//! 3. **Acknowledge** — only now does the client see `OK`. (The
//!    `slopt-ckpt/1` meta log records the accepted-sample watermark
//!    between steps 2 and 3.)
//!
//! A `kill -9` between any two steps leaves either (a) no file, (b) a
//! torn file, or (c) a complete file that was never acknowledged. On
//! resume, (a) is nothing, (b) fails shard validation and is dropped
//! with a `warn.serve.journal_torn` counter, and (c) simply refolds —
//! the client never saw `OK`, so its retry deduplicates against the
//! `(client, seq)` key recovered from the file name. Every batch that
//! *was* acknowledged is a complete journal file, so the resumed state
//! trajectory is bit-identical to the original — which is what makes
//! post-resume advice bit-identical too (see DESIGN.md §17).
//!
//! Writes are `flush()`ed to the operating system, never `fsync`ed, so
//! this covers a process kill, not an OS crash or power loss.

use slopt_bench::{fingerprint, Checkpoint, CheckpointSpec};
use slopt_fault::{io::retry_io, FaultKind, FaultPlan};
use slopt_obs::Obs;
use slopt_sample::{encode_shard, read_shard, ConcurrencyConfig, WindowedConcurrency};
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

use crate::proto::IngestBatch;

/// The serve-side fault-injection site for journal writes: a seeded
/// `write-error` plan makes appends fail transiently, exercising the
/// retry path without a real disk fault.
pub const SITE_JOURNAL: &str = "serve.journal";

/// Static configuration of the daemon's fold. Fingerprinted into the
/// meta checkpoint header, so a resume under different parameters is
/// refused instead of silently blending incompatible state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Code Concurrency interval length in cycles.
    pub interval: u64,
    /// Window size in whole intervals: samples older than
    /// `newest - window + 1` intervals decay out of the live state.
    pub window: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            // Matches AnalysisConfig::default() so live CC is directly
            // comparable to the offline analysis pipeline.
            interval: 6_000,
            window: 4_096,
        }
    }
}

impl ServeConfig {
    /// The header fingerprint guarding resume against config drift.
    pub fn fingerprint(&self) -> u64 {
        fingerprint([
            "slopt-serve/1",
            &format!("interval={}", self.interval),
            &format!("window={}", self.window),
        ])
    }
}

/// Outcome of applying one batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Applied {
    /// Samples folded into the window.
    pub accepted: u64,
    /// Samples dropped as older than the window.
    pub late: u64,
    /// True when `(client, seq)` had already been folded — the batch
    /// was acknowledged without re-folding (exactly-once ingest).
    pub duplicate: bool,
}

/// The daemon's state: the live windowed fold plus its durability
/// scaffolding.
#[derive(Debug)]
pub struct ServeState {
    cfg: ServeConfig,
    win: WindowedConcurrency,
    journal_dir: PathBuf,
    /// Fold order of the next journaled batch.
    next_order: u64,
    /// Idempotency keys of every folded batch.
    applied: HashSet<(u64, u64)>,
    /// Batches refolded from the journal at open.
    resumed_batches: u64,
    /// Structurally invalid (torn) journal files dropped at open.
    torn_dropped: u64,
    /// Monotonic revision: bumped on every non-duplicate fold, so
    /// advice caches know when they are stale.
    rev: u64,
    meta: Checkpoint,
}

impl ServeState {
    /// Opens (or resumes) the state under `spec.dir`.
    ///
    /// Without `spec.resume` any previous journal is cleared. With it,
    /// the meta header is validated against `cfg` (refusing drift), the
    /// journal is refolded in original fold order, and the recovered
    /// accepted-sample count is checked against the meta watermark —
    /// acknowledged data that failed to refold is an error, not a
    /// silent hole.
    pub fn open(spec: &CheckpointSpec, cfg: ServeConfig, obs: &Obs) -> io::Result<ServeState> {
        std::fs::create_dir_all(&spec.dir)?;
        let journal_dir = spec.dir.join("journal");
        if !spec.resume {
            let _ = std::fs::remove_dir_all(&journal_dir);
        }
        std::fs::create_dir_all(&journal_dir)?;
        let meta = Checkpoint::open(spec, "serve-meta", 1, cfg.fingerprint())?;

        let mut state = ServeState {
            win: WindowedConcurrency::new(
                ConcurrencyConfig {
                    interval: cfg.interval,
                },
                cfg.window,
            ),
            cfg,
            journal_dir,
            next_order: 0,
            applied: HashSet::new(),
            resumed_batches: 0,
            torn_dropped: 0,
            rev: 0,
            meta,
        };
        if spec.resume {
            state.refold(obs)?;
        }
        Ok(state)
    }

    /// Replays the journal in fold order, reproducing the pre-crash
    /// state trajectory exactly.
    fn refold(&mut self, obs: &Obs) -> io::Result<()> {
        let mut files: Vec<(u64, u64, u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&self.journal_dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            match parse_journal_name(name) {
                Some((order, client, seq)) => files.push((order, client, seq, path)),
                None => {
                    // Not ours (editor droppings, partial temp names):
                    // ignore but never fold.
                    obs.warning("serve.journal_foreign");
                }
            }
        }
        files.sort();
        for (order, client, seq, path) in files {
            match read_shard(&path) {
                Ok(samples) => {
                    self.win.ingest(&samples);
                    self.applied.insert((client, seq));
                    self.next_order = self.next_order.max(order + 1);
                    self.resumed_batches += 1;
                    self.rev += 1;
                }
                Err(_) => {
                    // A torn write from the crash: the batch was never
                    // acknowledged, so dropping it is correct — but it
                    // must be *counted*, never silent.
                    self.torn_dropped += 1;
                    obs.warning("serve.journal_torn");
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        // Every acknowledged sample was journaled before the ack, so
        // the refold can only meet or exceed the recorded watermark.
        let watermark = self.meta.get(0).unwrap_or(0.0);
        if (self.win.accepted() as f64) < watermark {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal refold recovered {} accepted samples, below the acknowledged \
                     watermark {watermark}: acknowledged data is missing from {}",
                    self.win.accepted(),
                    self.journal_dir.display()
                ),
            ));
        }
        Ok(())
    }

    /// Applies one batch with the journal-fold-record discipline.
    /// Transient journal write failures (injected via `plan` at
    /// [`SITE_JOURNAL`], or real `Interrupted` I/O) retry with bounded
    /// backoff; exhaustion surfaces as an error and the batch is *not*
    /// folded — the client retries and the key stays unused.
    pub fn apply(
        &mut self,
        batch: &IngestBatch,
        plan: &FaultPlan,
        max_retries: u32,
        obs: &Obs,
    ) -> io::Result<Applied> {
        if self.applied.contains(&(batch.client, batch.seq)) {
            obs.counter("serve.ingest.duplicate", 1);
            return Ok(Applied {
                accepted: 0,
                late: 0,
                duplicate: true,
            });
        }
        let order = self.next_order;
        let bytes = encode_shard(&batch.samples)?;
        let path = self
            .journal_dir
            .join(journal_name(order, batch.client, batch.seq));
        retry_io(max_retries, |attempt| {
            if plan.fires(FaultKind::WriteError, SITE_JOURNAL, order, attempt) {
                obs.warning("fault.injected.write-error");
                obs.counter("retry.attempts", 1);
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected journal write error (#{order}, attempt {attempt})"),
                ));
            }
            write_all_flushed(&path, &bytes)
        })?;

        let before = self.win.accepted();
        let late = self.win.ingest(&batch.samples);
        let accepted = self.win.accepted() - before;
        self.applied.insert((batch.client, batch.seq));
        self.next_order = order + 1;
        self.rev += 1;
        self.meta.record(0, self.win.accepted() as f64);

        obs.counter("serve.ingest.batches", 1);
        obs.counter("serve.ingest.samples", accepted);
        if late > 0 {
            obs.warning_n("serve.late_dropped", late);
        }
        Ok(Applied {
            accepted,
            late,
            duplicate: false,
        })
    }

    /// The fold configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Monotonic state revision (bumps on every non-duplicate fold).
    pub fn rev(&self) -> u64 {
        self.rev
    }

    /// Batches refolded from the journal at open.
    pub fn resumed_batches(&self) -> u64 {
        self.resumed_batches
    }

    /// Torn journal files dropped at open.
    pub fn torn_dropped(&self) -> u64 {
        self.torn_dropped
    }

    /// The live windowed fold.
    pub fn window(&mut self) -> &mut WindowedConcurrency {
        &mut self.win
    }

    /// Read-only view of the fold's counters.
    pub fn window_stats(&self) -> &WindowedConcurrency {
        &self.win
    }
}

fn journal_name(order: u64, client: u64, seq: u64) -> String {
    format!("j{order:012}-{client:016x}-{seq:016x}.slshard")
}

fn parse_journal_name(name: &str) -> Option<(u64, u64, u64)> {
    let rest = name.strip_prefix('j')?.strip_suffix(".slshard")?;
    let mut parts = rest.split('-');
    let order = parts.next()?.parse().ok()?;
    let client = u64::from_str_radix(parts.next()?, 16).ok()?;
    let seq = u64::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((order, client, seq))
}

fn write_all_flushed(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slopt_ir::{BlockId, FuncId, SourceLine};
    use slopt_sample::Sample;
    use slopt_sim::CpuId;

    fn sample(time: u64, cpu: u16, line: u32) -> Sample {
        Sample {
            cpu: CpuId(cpu),
            time,
            func: FuncId(0),
            block: BlockId(0),
            line: SourceLine(line),
        }
    }

    fn batch(client: u64, seq: u64, times: &[u64]) -> IngestBatch {
        IngestBatch {
            client,
            seq,
            samples: times
                .iter()
                .enumerate()
                .map(|(i, &t)| sample(t, (i % 3) as u16, 5 + (i % 4) as u32))
                .collect(),
        }
    }

    fn temp_spec(tag: &str, resume: bool) -> CheckpointSpec {
        CheckpointSpec {
            dir: std::env::temp_dir()
                .join(format!("slopt_serve_state_{}_{tag}", std::process::id())),
            resume,
        }
    }

    #[test]
    fn duplicate_batches_fold_exactly_once() {
        let spec = temp_spec("dup", false);
        let _ = std::fs::remove_dir_all(&spec.dir);
        let obs = Obs::disabled();
        let mut st = ServeState::open(&spec, ServeConfig::default(), &obs).unwrap();
        let b = batch(1, 0, &[100, 200, 300]);
        let first = st.apply(&b, &FaultPlan::none(), 3, &obs).unwrap();
        assert_eq!(first.accepted, 3);
        assert!(!first.duplicate);
        let again = st.apply(&b, &FaultPlan::none(), 3, &obs).unwrap();
        assert!(again.duplicate);
        assert_eq!(st.window_stats().accepted(), 3);
        std::fs::remove_dir_all(&spec.dir).unwrap();
    }

    #[test]
    fn kill_and_resume_reproduces_the_fold_and_drops_torn_files() {
        let spec = temp_spec("resume", false);
        let _ = std::fs::remove_dir_all(&spec.dir);
        let obs = Obs::disabled();
        let mut st = ServeState::open(&spec, ServeConfig::default(), &obs).unwrap();
        st.apply(&batch(1, 0, &[100, 200]), &FaultPlan::none(), 3, &obs)
            .unwrap();
        st.apply(&batch(2, 0, &[150, 250, 350]), &FaultPlan::none(), 3, &obs)
            .unwrap();
        let cells = st.window().cells_snapshot();

        // A torn journal write from a crash mid-append: structurally
        // invalid, unacknowledged, must be dropped with a count.
        std::fs::write(
            spec.dir.join("journal").join(journal_name(2, 3, 0)),
            b"SLSHARD1 torn",
        )
        .unwrap();

        let resume = CheckpointSpec {
            dir: spec.dir.clone(),
            resume: true,
        };
        let mut back = ServeState::open(&resume, ServeConfig::default(), &obs).unwrap();
        assert_eq!(back.resumed_batches(), 2);
        assert_eq!(back.torn_dropped(), 1);
        assert_eq!(back.window_stats().accepted(), 5);
        assert_eq!(
            back.window().cells_snapshot(),
            cells,
            "bit-identical refold"
        );
        // The unacknowledged batch's key is free: a client retry folds.
        let retried = back
            .apply(&batch(3, 0, &[400]), &FaultPlan::none(), 3, &obs)
            .unwrap();
        assert!(!retried.duplicate);
        std::fs::remove_dir_all(&spec.dir).unwrap();
    }

    #[test]
    fn resume_refuses_a_drifted_config() {
        let spec = temp_spec("drift", false);
        let _ = std::fs::remove_dir_all(&spec.dir);
        let obs = Obs::disabled();
        let mut st = ServeState::open(&spec, ServeConfig::default(), &obs).unwrap();
        st.apply(&batch(1, 0, &[100]), &FaultPlan::none(), 3, &obs)
            .unwrap();
        drop(st);
        let resume = CheckpointSpec {
            dir: spec.dir.clone(),
            resume: true,
        };
        let drifted = ServeConfig {
            window: 8,
            ..ServeConfig::default()
        };
        let err = ServeState::open(&resume, drifted, &obs).unwrap_err();
        assert!(err.to_string().contains("header mismatch"), "{err}");
        std::fs::remove_dir_all(&spec.dir).unwrap();
    }

    #[test]
    fn missing_acknowledged_journal_is_refused_on_resume() {
        let spec = temp_spec("lost", false);
        let _ = std::fs::remove_dir_all(&spec.dir);
        let obs = Obs::disabled();
        let mut st = ServeState::open(&spec, ServeConfig::default(), &obs).unwrap();
        st.apply(&batch(1, 0, &[100, 200]), &FaultPlan::none(), 3, &obs)
            .unwrap();
        drop(st);
        // Lose an acknowledged batch entirely: the watermark check must
        // refuse rather than serve silently thinner advice.
        std::fs::remove_file(spec.dir.join("journal").join(journal_name(0, 1, 0))).unwrap();
        let resume = CheckpointSpec {
            dir: spec.dir.clone(),
            resume: true,
        };
        let err = ServeState::open(&resume, ServeConfig::default(), &obs).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("watermark"), "{err}");
        std::fs::remove_dir_all(&spec.dir).unwrap();
    }

    #[test]
    fn transient_journal_write_faults_retry_and_heal() {
        let spec = temp_spec("fault", false);
        let _ = std::fs::remove_dir_all(&spec.dir);
        let obs = Obs::disabled();
        let mut st = ServeState::open(&spec, ServeConfig::default(), &obs).unwrap();
        let plan = FaultPlan::parse("seed=3,write-error=0.9").unwrap();
        // Enough retries to outlast a 0.9 rate with near-certainty.
        let mut accepted = 0;
        for seq in 0..8 {
            let a = st
                .apply(&batch(1, seq, &[100 * (seq + 1)]), &plan, 64, &obs)
                .unwrap();
            accepted += a.accepted;
        }
        assert_eq!(accepted, 8, "every batch heals through retries");
        std::fs::remove_dir_all(&spec.dir).unwrap();
    }
}
