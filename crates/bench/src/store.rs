//! The run store: every distinct simulation asked of one
//! [`ExecCtx`](crate::ExecCtx) runs once, and under `--checkpoint-dir`
//! once across processes.
//!
//! A simulated run is a pure function of the model ([`MODEL_VERSION`])
//! and its inputs, and the paper's figures repeat runs, so
//! [`crate::measure_cells`] keys each on a run key: a 128-bit FNV-1a
//! [`fingerprint`] of the printed program's own digest, the machine and
//! config text and the table's canonical words (offsets and sizes: one
//! field order in two line groupings simulates differently), plus the
//! seed. Each key owns an in-flight [`OnceLock`], so a concurrent
//! duplicate waits and the hit count is the same for every `jobs` value.
//!
//! On disk the memo is an [`AppendLog`], `<dir>/runs.ckpt`: the header
//! `slopt-runs/1 model=<MODEL_VERSION>`, then
//! `run <digest-hex32> <seed> <makespan> <throughput-bits-hex16>` once per
//! accepted run. `--resume` preloads it: a grid item whose run it holds
//! resumes unscheduled with the exact bits, a drifted cell misses, and a
//! log of another model version is discarded whole.

use slopt_ir::text::print_program;
use slopt_ir::types::FieldIdx;
use slopt_obs::Obs;
use slopt_sim::LayoutTable;
use slopt_workload::{Machine, SdetConfig, WorkloadSpec, MODEL_VERSION};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// File name of the run log inside the checkpoint directory.
pub const RUNS_FILE: &str = "runs.ckpt";

/// Where and whether to checkpoint, as requested by
/// `--checkpoint-dir <dir>` / `--resume`.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// The checkpoint directory (created if missing).
    pub dir: PathBuf,
    /// Resume from existing state instead of starting fresh.
    pub resume: bool,
}

/// 128-bit FNV-1a over the parts, each followed by `\n`. Stable across
/// runs and platforms.
fn fingerprint<P: AsRef<[u8]>>(parts: impl IntoIterator<Item = P>) -> u128 {
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for part in parts {
        for &b in part.as_ref().iter().chain(b"\n") {
            h = (h ^ u128::from(b)).wrapping_mul(0x0100_0000_0000_0000_0000_013b);
        }
    }
    h
}

/// An append-only log of one-line records behind a header line: the run
/// log and `slopt-serve`'s watermark log. Appends are flushed, never
/// synced: a log survives a process kill, not an OS crash.
#[derive(Debug)]
pub struct AppendLog {
    path: PathBuf,
    file: Mutex<fs::File>,
}

impl AppendLog {
    /// Opens the log at `path` under `header` and returns the earlier
    /// log's records — none unless `resume`.
    ///
    /// Each line is read with `parse`: an unparsable final line is a torn
    /// append, dropped with a `ckpt.torn_line` warning; any other is
    /// `InvalidData`. The log is rewritten as `header` plus
    /// `canonical(records)`, so dead lines do not pile up; a `canonical`
    /// error is `InvalidData` and leaves the file alone. An earlier log
    /// under another header is a `header mismatch` error, unless
    /// `discard_as` names the warning to discard it with.
    pub fn open<T>(
        path: PathBuf,
        header: &str,
        resume: bool,
        discard_as: Option<&str>,
        parse: impl Fn(&str) -> Option<T>,
        canonical: impl FnOnce(&[T]) -> Result<Vec<String>, String>,
        obs: &Obs,
    ) -> io::Result<(AppendLog, Vec<T>)> {
        let (mut records, mut text) = (Vec::new(), format!("{header}\n"));
        let old = match resume.then(|| fs::read(&path)) {
            Some(Err(e)) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            Some(Ok(bytes)) => String::from_utf8_lossy(&bytes).into_owned(),
            _ => String::new(),
        };
        let mut lines = old.lines().enumerate().peekable();
        match lines.next() {
            None => {}
            Some((_, found)) if found == header => {
                while let Some((n, line)) = lines.next() {
                    match parse(line) {
                        Some(record) => records.push(record),
                        None if lines.peek().is_none() => obs.warning("ckpt.torn_line"),
                        None => return Err(bad_log(&path, &format!("corrupt line {}", n + 1))),
                    }
                }
                for line in canonical(&records).map_err(|e| bad_log(&path, &e))? {
                    text += &format!("{line}\n");
                }
            }
            Some((_, found)) => match discard_as {
                Some(warning) => {
                    obs.warning(warning);
                    eprintln!("[ckpt] warning: discarding {}: {found}", path.display());
                }
                None => {
                    let what = format!("header mismatch\n  found: {found}\n  expected: {header}");
                    return Err(bad_log(&path, &what));
                }
            },
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut file = fs::File::create(&path)?;
        file.write_all(text.as_bytes())?;
        file.flush()?;
        let file = Mutex::new(file);
        Ok((AppendLog { path, file }, records))
    }

    /// Appends one record line and flushes it. A failed append must not
    /// kill the run: it warns, and only that record is lost.
    pub fn append(&self, line: &str) {
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let written = file.write_all(format!("{line}\n").as_bytes());
        if written.and_then(|()| file.flush()).is_err() {
            eprintln!(
                "[ckpt] warning: failed to append to {}",
                self.path.display()
            );
        }
    }
}

fn bad_log(path: &Path, what: &str) -> io::Error {
    let msg = format!("checkpoint {}: {what}", path.display());
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// What the grid keeps of one simulated run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct RunSummary {
    /// Completion time in simulated cycles.
    pub(crate) makespan: u64,
    /// Scripts per million cycles ([`slopt_sim::RunResult::throughput`]).
    pub(crate) throughput: f64,
}

/// One run's identity: the digest of its inputs ([`inputs_digest`]) and
/// its seed.
pub(crate) type RunKey = (u128, u64);

/// The identity of a workload: a digest of its printed program and
/// action mix, taken once per grid.
pub(crate) fn program_digest(spec: &impl WorkloadSpec) -> u128 {
    let actions = format!("{:?}", spec.actions());
    fingerprint([print_program(spec.program()), actions])
}

/// The digest of everything a run of `program` depends on but its seed:
/// the machine and config text, and per record, in id order, its id,
/// size, alignment, line size and field count, then every field's offset
/// and size.
pub(crate) fn inputs_digest(
    program: u128,
    machine: &Machine,
    sdet: &SdetConfig,
    table: &LayoutTable,
) -> u128 {
    let mut words = Vec::new();
    for (rec, layout) in table.iter() {
        let fields = layout.order().len();
        let head = [layout.size(), layout.align(), layout.line_size()];
        words.extend([u64::from(rec.0)].into_iter().chain(head));
        words.push(fields as u64);
        for f in (0..fields as u32).map(FieldIdx) {
            words.extend([layout.offset(f), layout.field_size(f)]);
        }
    }
    let words: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let config = format!("{machine:?} {sdet:?}");
    fingerprint([&program.to_le_bytes(), config.as_bytes(), &words])
}

fn run_line((digest, seed): RunKey, run: RunSummary) -> String {
    let (m, t) = (run.makespan, run.throughput.to_bits());
    format!("run {digest:032x} {seed} {m} {t:016x}")
}

fn parse_run(line: &str) -> Option<(RunKey, RunSummary)> {
    let f: Vec<&str> = line.strip_prefix("run ")?.split(' ').collect();
    let [digest, seed, makespan, bits] = f[..] else {
        return None;
    };
    let hex = |s: &str, width| (s.len() == width).then(|| u128::from_str_radix(s, 16).ok())?;
    let key = (hex(digest, 32)?, seed.parse().ok()?);
    let throughput = f64::from_bits(u64::try_from(hex(bits, 16)?).ok()?);
    let makespan = makespan.parse().ok()?;
    Some((
        key,
        RunSummary {
            makespan,
            throughput,
        },
    ))
}

/// One line per run; two records of one run that disagree mean the
/// model is not deterministic or the log was edited: an error.
fn canonical_runs(records: &[(RunKey, RunSummary)]) -> Result<Vec<String>, String> {
    let mut seen = HashMap::new();
    let mut lines = Vec::new();
    for &(key, run) in records {
        let bits = (run.makespan, run.throughput.to_bits());
        match seen.insert(key, bits) {
            None => lines.push(run_line(key, run)),
            Some(old) if old == bits => {}
            Some(_) => return Err(format!("two records of {:032x} disagree", key.0)),
        }
    }
    Ok(lines)
}

/// Simulated runs shared by every grid measured under one context, and
/// their log once a checkpointed grid attached it. Clones share one memo.
#[derive(Clone, Default)]
pub struct RunMemo {
    state: Arc<Mutex<MemoState>>,
}

#[derive(Default)]
struct MemoState {
    runs: HashMap<RunKey, Arc<OnceLock<RunSummary>>>,
    log: Option<Arc<AppendLog>>,
    /// Runs loaded from the log at open: their grid items resume.
    loaded: HashMap<RunKey, RunSummary>,
    /// Runs in the log: loaded or appended since.
    logged: HashSet<RunKey>,
}

impl RunMemo {
    /// Opens `<dir>/runs.ckpt` on the context's first checkpointed grid,
    /// preloading its runs on `resume` (a log of another model version is
    /// discarded with a `ckpt.model_changed` warning), and returns its
    /// path. Later grids share that log: opening it afresh again would
    /// truncate the runs the first grid logged.
    pub(crate) fn attach(&self, spec: &CheckpointSpec, obs: &Obs) -> io::Result<PathBuf> {
        let mut st = self.lock();
        if let Some(log) = &st.log {
            return Ok(log.path.clone());
        }
        let (path, header) = (
            spec.dir.join(RUNS_FILE),
            format!("slopt-runs/1 model={MODEL_VERSION}"),
        );
        let discard = Some("ckpt.model_changed");
        let (log, records) = AppendLog::open(
            path,
            &header,
            spec.resume,
            discard,
            parse_run,
            canonical_runs,
            obs,
        )?;
        for (key, run) in records {
            st.runs.insert(key, Arc::new(OnceLock::from(run)));
            st.loaded.insert(key, run);
        }
        st.logged = st.loaded.keys().copied().collect();
        let path = log.path.clone();
        st.log = Some(Arc::new(log));
        Ok(path)
    }

    /// The run of `key` if it was loaded from the log at open.
    pub(crate) fn resumed(&self, key: RunKey) -> Option<RunSummary> {
        self.lock().loaded.get(&key).copied()
    }

    /// The run of `key`: the memoized one, or `simulate()`'s on the first
    /// request. A request made while the same run is in flight waits for
    /// it. The flag is `true` on a hit.
    pub(crate) fn run(
        &self,
        key: RunKey,
        simulate: impl FnOnce() -> RunSummary,
    ) -> (RunSummary, bool) {
        let slot = Arc::clone(self.lock().runs.entry(key).or_default());
        let mut simulated = false;
        let summary = *slot.get_or_init(|| {
            simulated = true;
            simulate()
        });
        (summary, !simulated)
    }

    /// Appends an accepted run to the attached log, once per run.
    pub(crate) fn record(&self, key: RunKey, run: RunSummary) {
        let mut st = self.lock();
        let Some(log) = st.log.clone() else {
            return;
        };
        if st.logged.insert(key) {
            drop(st);
            log.append(&run_line(key, run));
        }
    }

    fn lock(&self) -> MutexGuard<'_, MemoState> {
        // The state is only inserted into, never left half-updated, so a
        // panic elsewhere while it was held does not invalidate it.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slopt_workload::{baseline_layouts, build_kernel};

    fn spec(tag: &str, resume: bool) -> CheckpointSpec {
        let dir = std::env::temp_dir().join(format!("slopt_store_{}_{tag}", std::process::id()));
        CheckpointSpec { dir, resume }
    }

    fn summary(makespan: u64) -> RunSummary {
        let throughput = makespan as f64 / 7.0;
        RunSummary {
            makespan,
            throughput,
        }
    }

    /// Opens `spec` on a fresh memo, as a new process would.
    fn attached(spec: &CheckpointSpec, obs: &Obs) -> RunMemo {
        let memo = RunMemo::default();
        memo.attach(spec, obs).expect("run log opens");
        memo
    }

    fn counter(obs: &Obs, name: &str) -> u64 {
        obs.summary().metrics.counter(name)
    }

    #[test]
    fn keys_cover_the_whole_layout_and_nothing_else() {
        assert_ne!(fingerprint(["x", "y"]), fingerprint(["y", "x"]));
        assert_ne!(fingerprint(["ab"]), fingerprint(["a", "b"]));
        let kernel = build_kernel();
        let (program, sdet) = (program_digest(&kernel), SdetConfig::default());
        let a = baseline_layouts(&kernel, 128);
        let mut b = LayoutTable::new();
        for (r, l) in a.iter().collect::<Vec<_>>().into_iter().rev() {
            b.set(r, l.clone());
        }
        let digest = |m: &Machine, t: &LayoutTable| inputs_digest(program, m, &sdet, t);
        let bus2 = Machine::bus(2);
        assert_eq!(digest(&bus2, &a), digest(&bus2, &b), "insertion order");
        assert_ne!(digest(&bus2, &a), digest(&Machine::bus(4), &a), "machine");
    }

    #[test]
    fn run_simulates_once_per_key() {
        let memo = RunMemo::default();
        assert_eq!(memo.run((1, 1), || summary(10)), (summary(10), false));
        assert_eq!(memo.run((1, 1), || summary(99)), (summary(10), true));
        assert_eq!(memo.run((1, 2), || summary(20)), (summary(20), false));
        assert_eq!(memo.run((2, 1), || summary(30)), (summary(30), false));
    }

    /// Runs persist once each and resume with their exact bits; a drifted
    /// input (another digest or seed) misses; a fresh open truncates.
    #[test]
    fn runs_persist_once_and_resume_exactly() {
        let (fresh, resume) = (spec("persist", false), spec("persist", true));
        let _ = fs::remove_dir_all(&fresh.dir);
        let values = [1.5f64, -0.0, f64::MIN_POSITIVE, 1234.567890123];
        let memo = attached(&fresh, &Obs::disabled());
        for (i, &throughput) in values.iter().enumerate() {
            let run = RunSummary {
                makespan: i as u64,
                throughput,
            };
            memo.record((i as u128, 2), run);
            memo.record((i as u128, 2), run);
        }
        RunMemo::default().record((9, 9), summary(9)); // no log attached
        let path = fresh.dir.join(RUNS_FILE);
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1 + values.len(), "one line per run");
        let memo = attached(&resume, &Obs::disabled());
        for (i, &v) in values.iter().enumerate() {
            let got = memo.resumed((i as u128, 2)).expect("logged run resumes");
            assert_eq!(
                (got.makespan, got.throughput.to_bits()),
                (i as u64, v.to_bits())
            );
            assert_eq!(memo.resumed((i as u128, 3)), None);
            assert_eq!(memo.resumed((i as u128 + 10, 2)), None);
        }
        memo.record((0, 2), summary(0));
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            text,
            "loaded runs stay once"
        );
        attached(&fresh, &Obs::disabled());
        assert_eq!(attached(&resume, &Obs::disabled()).resumed((0, 2)), None);
        fs::remove_dir_all(&fresh.dir).unwrap();
    }

    #[test]
    fn torn_tails_drop_and_stale_models_discard_with_warnings() {
        let resume = spec("torn", true);
        let path = resume.dir.join(RUNS_FILE);
        attached(&spec("torn", false), &Obs::disabled()).record((1, 0), summary(2));
        fs::write(&path, fs::read_to_string(&path).unwrap() + "run 0123456789").unwrap();
        let obs = Obs::aggregating();
        assert_eq!(attached(&resume, &obs).resumed((1, 0)), Some(summary(2)));
        assert_eq!(counter(&obs, "warn.ckpt.torn_line"), 1);
        assert!(!fs::read_to_string(&path).unwrap().contains("0123456789"));

        let stale = run_line((1, 1), summary(1));
        fs::write(&path, format!("slopt-runs/1 model=0\n{stale}\n")).unwrap();
        let obs = Obs::aggregating();
        assert_eq!(attached(&resume, &obs).resumed((1, 1)), None);
        assert_eq!(counter(&obs, "warn.ckpt.model_changed"), 1);
        let header = format!("slopt-runs/1 model={MODEL_VERSION}\n");
        assert_eq!(fs::read_to_string(&path).unwrap(), header, "dead lines go");

        fs::write(&path, format!("{header}garbage here\n{stale}\n")).unwrap();
        let err = RunMemo::default().attach(&resume, &Obs::disabled());
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&resume.dir).unwrap();
    }

    mod never_panics {
        use super::*;
        use proptest::prelude::*;

        /// One log line after the header: a valid record of a small key
        /// space (its value a function of the key, so repeats agree), a
        /// digest of the wrong width, a non-hex digest, a value with a
        /// non-hex digit, bytes that are not UTF-8, or eight arbitrary
        /// bytes.
        fn line(kind: usize, k: u64, bits: u64) -> Vec<u8> {
            let (d, s) = (k % 4, k % 3);
            let run = |digest: String, value: String| {
                format!("run {digest} {s} {} {value}", d * 3 + s).into_bytes()
            };
            match kind {
                0 => run(format!("{d:032x}"), format!("{:016x}", d * 3 + s)),
                1 => run(format!("{bits:x}"), format!("{bits:016x}")),
                2 => run(format!("zz{k:030x}"), format!("{bits:016x}")),
                3 => run(format!("{d:032x}"), format!("{:015x}g", bits >> 8)),
                4 => vec![b'r', 0xff, 0xfe, 0x80],
                _ => bits.to_le_bytes().to_vec(),
            }
        }

        /// Writes a valid header plus `body`, if any, then resumes from
        /// it: the loaded runs.
        fn reopen(
            tag: &str,
            body: Option<&[u8]>,
            obs: &Obs,
        ) -> io::Result<HashMap<RunKey, RunSummary>> {
            let spec = spec(tag, true);
            if let Some(body) = body {
                fs::create_dir_all(&spec.dir).unwrap();
                let mut log = format!("slopt-runs/1 model={MODEL_VERSION}\n").into_bytes();
                log.extend(body);
                fs::write(spec.dir.join(RUNS_FILE), &log).unwrap();
            }
            let memo = RunMemo::default();
            memo.attach(&spec, obs)?;
            let loaded = memo.lock().loaded.clone();
            Ok(loaded)
        }

        proptest! {
            /// Resuming from a valid header followed by any lines, with
            /// or without a torn tail, opens or fails with
            /// `InvalidData`, never a panic. An open that succeeds
            /// rewrites the log canonically: a second resume finds the
            /// same runs, once each, and no torn line.
            #[test]
            fn resume_is_total_on_arbitrary_logs(
                lines in prop::collection::vec((0usize..6, any::<u64>(), any::<u64>()), 0..10),
                torn in any::<bool>(),
                tear in any::<usize>(),
            ) {
                let mut body = Vec::new();
                for (kind, k, bits) in lines {
                    body.extend(line(kind, k, bits));
                    body.push(b'\n');
                }
                if torn {
                    body.truncate(tear % (body.len() + 1));
                }
                match reopen("never_panics", Some(&body), &Obs::disabled()) {
                    Ok(got) => {
                        let obs = Obs::aggregating();
                        let again = reopen("never_panics", None, &obs).unwrap();
                        prop_assert_eq!(counter(&obs, "warn.ckpt.torn_line"), 0);
                        prop_assert_eq!(&again, &got);
                        let log = fs::read_to_string(spec("never_panics", true).dir.join(RUNS_FILE)).unwrap();
                        prop_assert_eq!(log.lines().count(), 1 + got.len(), "one line per run");
                    }
                    Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                }
                fs::remove_dir_all(spec("never_panics", true).dir).unwrap();
            }

            /// Two records of one run with different values break the
            /// determinism resume rests on: `InvalidData`, wherever the
            /// second one sits.
            #[test]
            fn disagreeing_records_of_one_run_are_invalid_data(
                runs in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..6),
                pick in any::<usize>(),
                at in any::<usize>(),
                delta in 1u64..u64::MAX,
            ) {
                let line = |d: u64, s: u64, m: u64| run_line((u128::from(d) << 64 | 1, s), summary(m));
                let mut lines: Vec<String> = runs.iter().map(|&(d, s, m)| line(d, s, m)).collect();
                let p = pick % runs.len();
                let (d, s, m) = runs[p];
                lines.insert(p + 1 + at % (lines.len() - p), line(d, s, m.wrapping_add(delta)));
                let log = format!("{}\n", lines.join("\n"));
                let err = reopen("disagree", Some(log.as_bytes()), &Obs::disabled());
                prop_assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData);
                fs::remove_dir_all(spec("disagree", true).dir).unwrap();
            }
        }
    }
}
