//! Deterministic fan-out across host threads.
//!
//! Every parallel axis in the workspace (independent simulator runs,
//! per-record layout suggestion, figure/ablation sweep cells) goes through
//! [`par_map`], which enforces the two rules that make parallel results
//! bit-identical to serial ones:
//!
//! 1. **work items carry their inputs explicitly** — the closure receives
//!    the item index and a shared reference; it must derive any randomness
//!    from seeds stored in the item, never from global or thread-local
//!    state;
//! 2. **results are collected by item index**, never by completion order.
//!
//! The scheduler is a simple atomic work queue over `std::thread::scope`:
//! dynamic load balancing (items can be wildly uneven — a 128-way
//! simulator run next to a 4-way one) with no unsafe code and no
//! dependencies.
//!
//! [`par_map`] is the *trusting* scheduler: a panicking worker kills the
//! whole run. [`par_map_supervised`] runs on it as a supervision layer:
//! worker panics are contained with `catch_unwind`, transient failures retry
//! with a bounded deterministic backoff, per-item deadlines are
//! enforced at the attempt boundary, and items that still fail are
//! quarantined into a structured [`FaultReport`] instead of aborting —
//! the run degrades to a partial result with explicitly marked holes.

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The host's available parallelism (the default for `--jobs`).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `jobs` threads, returning results in
/// item order — bit-identical to the serial `items.iter().map(..)` as long
/// as `f` is a pure function of `(index, item)`.
///
/// `jobs == 0` is treated as 1. With one job (or zero/one items) no
/// threads are spawned at all, so `par_map(1, ..)` *is* the serial code
/// path, not an emulation of it.
///
/// # Example
///
/// ```
/// use slopt_ir::par::par_map;
///
/// let items = vec![1u64, 2, 3, 4];
/// let squares = par_map(4, &items, |i, &x| (i, x * x));
/// // Results come back in item order regardless of completion order.
/// assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16)]);
/// assert_eq!(squares, par_map(1, &items, |i, &x| (i, x * x)));
/// ```
///
/// # Panics
///
/// Propagates the first panic of any worker thread.
pub fn par_map<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(i, item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    // Reassemble by index: completion order never leaks into the result.
    let mut slots: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
    for chunk in per_worker {
        for (i, v) in chunk {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("atomic queue visits every index exactly once"))
        .collect()
}

/// How a supervised worker attempt failed, as reported by the work
/// closure. The distinction drives the retry policy: transient errors
/// are retried (and, if a retry succeeds, are invisible in the result);
/// permanent errors quarantine the item immediately.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum WorkerError {
    /// A failure that may succeed on retry (I/O hiccup, flaky
    /// collector, injected transient fault).
    Transient(String),
    /// A failure that will recur on every attempt; retrying is wasted
    /// work.
    Permanent(String),
}

impl WorkerError {
    /// A [`WorkerError::Transient`] with the given message.
    pub fn transient(message: impl Into<String>) -> WorkerError {
        WorkerError::Transient(message.into())
    }

    /// A [`WorkerError::Permanent`] with the given message.
    pub fn permanent(message: impl Into<String>) -> WorkerError {
        WorkerError::Permanent(message.into())
    }
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Transient(m) => write!(f, "transient: {m}"),
            WorkerError::Permanent(m) => write!(f, "permanent: {m}"),
        }
    }
}

impl Error for WorkerError {}

/// Why a quarantined item ended up poisoned.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum FailureKind {
    /// The final attempt panicked (earlier attempts may have too).
    Panic,
    /// Every attempt failed transiently until the retry budget ran out.
    TransientExhausted,
    /// An attempt failed permanently; no further retries were made.
    Permanent,
    /// An attempt overran the per-item deadline.
    DeadlineExceeded,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailureKind::Panic => "panic",
            FailureKind::TransientExhausted => "transient-exhausted",
            FailureKind::Permanent => "permanent",
            FailureKind::DeadlineExceeded => "deadline-exceeded",
        };
        f.write_str(s)
    }
}

/// One quarantined item: the hole's index, how many attempts were made,
/// and why the last one failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemFailure {
    /// Index of the poisoned item in the input slice.
    pub index: usize,
    /// Attempts made (1 initial + retries).
    pub attempts: u32,
    /// Classification of the final failure.
    pub kind: FailureKind,
    /// Human-readable message of the final failure.
    pub message: String,
}

impl fmt::Display for ItemFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "item {} [{}] after {} attempt(s): {}",
            self.index, self.kind, self.attempts, self.message
        )
    }
}

/// Retry/deadline policy of [`par_map_supervised`].
///
/// The backoff schedule is *deterministic*: retry `n` sleeps
/// `BACKOFF_BASE << n`, capped at `BACKOFF_CAP` (1 ms doubling, 50 ms
/// cap) — a pure function of the attempt number, so two runs of the
/// same plan wait the same schedule. Backoff bounds wall-clock cost; it
/// cannot affect results, which are assembled by item index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupervisePolicy {
    /// Retries after the initial attempt (so `max_retries + 1` attempts
    /// total). Default 3.
    pub max_retries: u32,
    /// Per-item deadline, enforced at the attempt boundary: an attempt
    /// that overruns it quarantines the item immediately (retrying work
    /// that is already over budget doubles down on the stall). `None`
    /// disables the check. Cooperative — a stalled attempt is detected
    /// when it returns, not preempted mid-flight.
    pub deadline: Option<Duration>,
}

impl Default for SupervisePolicy {
    fn default() -> SupervisePolicy {
        SupervisePolicy {
            max_retries: 3,
            deadline: None,
        }
    }
}

/// First retry's backoff.
const BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// The deterministic backoff before retry `attempt` (0-based over
/// retries): `BACKOFF_BASE << attempt`, capped at `BACKOFF_CAP`.
fn backoff(attempt: u32) -> Duration {
    BACKOFF_BASE
        .saturating_mul(1u32 << attempt.min(16))
        .min(BACKOFF_CAP)
}

/// The structured outcome of a supervised run: totals, retry activity,
/// and the quarantined items (the holes in the result).
///
/// Everything except `deadline_hits` is deterministic given
/// deterministic worker behavior: retry counts come from per-attempt
/// decisions, not thread scheduling. Deadline hits depend on real wall
/// time and are only deterministic when the stall is much longer than
/// the deadline (as with injected slow-worker faults).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Items in the input slice.
    pub items: usize,
    /// Items that produced a value.
    pub completed: usize,
    /// Total retry attempts across all items.
    pub retries: u64,
    /// Items that failed at least once and then succeeded — the faults
    /// that are *invisible* in the result.
    pub recovered: usize,
    /// Worker panics contained by the supervisor (including ones later
    /// recovered by retry).
    pub panics_contained: u64,
    /// Attempts that overran the deadline.
    pub deadline_hits: u64,
    /// Quarantined items, sorted by index. Empty on a clean run.
    pub poisoned: Vec<ItemFailure>,
}

impl FaultReport {
    /// Whether the result has holes (any poisoned item). A degraded run
    /// must exit with a distinct nonzero code rather than pretend the
    /// partial result is complete.
    pub fn degraded(&self) -> bool {
        !self.poisoned.is_empty()
    }

    /// Whether the supervisor saw *any* fault activity, including
    /// recovered-and-invisible retries.
    pub fn had_faults(&self) -> bool {
        self.degraded() || self.retries > 0 || self.panics_contained > 0
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{} item(s): {} ok, {} poisoned; {} retry(ies) ({} item(s) recovered), \
             {} panic(s) contained, {} deadline hit(s)",
            self.items,
            self.completed,
            self.poisoned.len(),
            self.retries,
            self.recovered,
            self.panics_contained,
            self.deadline_hits
        )
    }
}

/// Per-item bookkeeping produced by the attempt loop.
#[derive(Debug, Default)]
struct ItemStats {
    retries: u64,
    recovered: bool,
    panics: u64,
    deadline_hit: bool,
    /// The attempt number that produced the accepted value (meaningful
    /// only when the item completed).
    accepted_attempt: u32,
    failure: Option<ItemFailure>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the attempt loop for one item. Pure supervision: which faults
/// fire is entirely up to `f`.
fn run_supervised<I, T, F>(
    policy: &SupervisePolicy,
    i: usize,
    item: &I,
    f: &F,
) -> (Option<T>, ItemStats)
where
    F: Fn(usize, &I, u32) -> Result<T, WorkerError>,
{
    let mut stats = ItemStats::default();
    let mut attempt: u32 = 0;
    loop {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| f(i, item, attempt)));
        if let Some(deadline) = policy.deadline {
            if start.elapsed() > deadline {
                stats.deadline_hit = true;
                if outcome.is_err() {
                    stats.panics += 1;
                }
                stats.failure = Some(ItemFailure {
                    index: i,
                    attempts: attempt + 1,
                    kind: FailureKind::DeadlineExceeded,
                    message: format!(
                        "attempt took {:?}, deadline {:?}",
                        start.elapsed(),
                        deadline
                    ),
                });
                return (None, stats);
            }
        }
        let retryable_message = match outcome {
            Ok(Ok(value)) => {
                stats.recovered = attempt > 0;
                stats.accepted_attempt = attempt;
                return (Some(value), stats);
            }
            Ok(Err(WorkerError::Permanent(message))) => {
                stats.failure = Some(ItemFailure {
                    index: i,
                    attempts: attempt + 1,
                    kind: FailureKind::Permanent,
                    message,
                });
                return (None, stats);
            }
            Ok(Err(WorkerError::Transient(message))) => (FailureKind::TransientExhausted, message),
            Err(payload) => {
                stats.panics += 1;
                (FailureKind::Panic, panic_message(payload.as_ref()))
            }
        };
        let (kind, message) = retryable_message;
        if attempt >= policy.max_retries {
            stats.failure = Some(ItemFailure {
                index: i,
                attempts: attempt + 1,
                kind,
                message,
            });
            return (None, stats);
        }
        std::thread::sleep(backoff(attempt));
        stats.retries += 1;
        attempt += 1;
    }
}

/// [`par_map`] with failure containment: maps `f` over `items` on up to
/// `jobs` threads, where `f` receives `(index, item, attempt)` and
/// returns `Result<T, WorkerError>`.
///
/// * **Panics are contained** per attempt with `catch_unwind` and
///   treated as retryable (the global panic hook still runs, so
///   contained panics remain visible on stderr).
/// * **Transient errors retry** up to `policy.max_retries` times with
///   a bounded deterministic backoff.
/// * **Permanent errors quarantine** the item immediately.
/// * **Deadline overruns quarantine** the item at the attempt boundary.
///
/// Returns one `Option<T>` per item in item order (`None` marks a
/// quarantined hole) plus the [`FaultReport`]. When `f` is a pure
/// function of `(index, item, attempt)`, both the values and the report
/// are identical for every `jobs` value — recovered faults leave the
/// value slice bit-identical to an unsupervised clean run.
///
/// # Example
///
/// ```
/// use slopt_ir::par::{par_map_supervised, SupervisePolicy, WorkerError};
///
/// let items = vec![2u64, 0, 5];
/// let policy = SupervisePolicy::default();
/// let (values, report) = par_map_supervised(2, &items, &policy, |_i, &x, _attempt| {
///     if x == 0 {
///         // Permanent errors quarantine the item without retrying.
///         Err(WorkerError::permanent("zero divisor"))
///     } else {
///         Ok(100 / x)
///     }
/// });
/// assert_eq!(values, vec![Some(50), None, Some(20)]);
/// assert_eq!(report.completed, 2);
/// assert_eq!(report.poisoned.len(), 1);
/// assert_eq!(report.poisoned[0].index, 1);
/// ```
pub fn par_map_supervised<I, T, F>(
    jobs: usize,
    items: &[I],
    policy: &SupervisePolicy,
    f: F,
) -> (Vec<Option<T>>, FaultReport)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I, u32) -> Result<T, WorkerError> + Sync,
{
    par_map_supervised_commit(jobs, items, policy, f, |_, _, _: &T, _| {})
}

/// [`par_map_supervised`] with a *commit hook*: `commit(i, item, &value,
/// attempt)` runs on the worker thread immediately after an item's value
/// is **accepted** — after the attempt loop's deadline check, so an
/// attempt that computed a value but overran its deadline (a hole in the
/// result) is never committed.
///
/// This is the side-effect boundary durable state must hang off:
/// appending a completed grid item to a checkpoint log inside the
/// attempt itself would persist values the supervisor then rejects,
/// turning deadline holes into "completed" items on resume. The hook
/// receives the attempt number that produced the accepted value, so
/// seeded per-attempt fault decisions stay replayable.
///
/// Commit runs at most once per item and never for quarantined items.
/// Like `f`, it must be a pure function of its arguments (plus any
/// index-keyed durable sink) for results to stay jobs-invariant.
pub fn par_map_supervised_commit<I, T, F, C>(
    jobs: usize,
    items: &[I],
    policy: &SupervisePolicy,
    f: F,
    commit: C,
) -> (Vec<Option<T>>, FaultReport)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I, u32) -> Result<T, WorkerError> + Sync,
    C: Fn(usize, &I, &T, u32) + Sync,
{
    let outcomes = par_map(jobs, items, |i, item| {
        let (value, stats) = run_supervised(policy, i, item, &f);
        if let Some(value) = &value {
            commit(i, item, value, stats.accepted_attempt);
        }
        (value, stats)
    });

    // Folding in item order keeps `poisoned` index-sorted.
    let mut report = FaultReport {
        items: items.len(),
        ..FaultReport::default()
    };
    let mut slots = Vec::with_capacity(items.len());
    for (value, stats) in outcomes {
        report.retries += stats.retries;
        report.recovered += usize::from(stats.recovered);
        report.panics_contained += stats.panics;
        report.deadline_hits += u64::from(stats.deadline_hit);
        report.completed += usize::from(value.is_some());
        report.poisoned.extend(stats.failure);
        slots.push(value);
    }
    (slots, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let parallel = par_map(jobs, &items, |_, &x| x * x);
            assert_eq!(parallel, serial, "jobs={jobs} must match serial");
        }
    }

    #[test]
    fn uneven_work_still_collects_by_index() {
        // Make early items slow so late items finish first.
        let items: Vec<usize> = (0..16).collect();
        let out = par_map(4, &items, |i, &x| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn zero_jobs_and_empty_input_are_fine() {
        assert_eq!(par_map(0, &[1, 2, 3], |_, &x| x + 1), vec![2, 3, 4]);
        let empty: Vec<i32> = vec![];
        assert_eq!(par_map(8, &empty, |_, &x| x), Vec::<i32>::new());
    }

    #[test]
    fn index_matches_item() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(7, &items, |i, &x| (i, x));
        for (i, &(idx, val)) in out.iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(i, val);
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn supervised_zero_items_is_a_clean_empty_run() {
        let empty: Vec<u32> = vec![];
        let (values, report) =
            par_map_supervised(8, &empty, &SupervisePolicy::default(), |_, &x, _| {
                Ok::<u32, WorkerError>(x)
            });
        assert!(values.is_empty());
        assert_eq!(report.items, 0);
        assert_eq!(report.completed, 0);
        assert!(!report.degraded());
        assert!(!report.had_faults());
    }

    #[test]
    fn supervised_clean_run_matches_par_map() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for jobs in [1, 2, 8] {
            let (values, report) =
                par_map_supervised(jobs, &items, &SupervisePolicy::default(), |_, &x, _| {
                    Ok::<u64, WorkerError>(x * 3)
                });
            let values: Vec<u64> = values.into_iter().map(|v| v.unwrap()).collect();
            assert_eq!(values, serial, "jobs={jobs}");
            assert!(!report.had_faults());
            assert_eq!(report.completed, 97);
        }
    }

    #[test]
    fn supervised_all_items_poisoned_still_returns() {
        let items: Vec<u32> = (0..13).collect();
        for jobs in [1, 4] {
            let (values, report) =
                par_map_supervised(jobs, &items, &SupervisePolicy::default(), |i, _, _| {
                    Err::<u32, _>(WorkerError::permanent(format!("item {i} is cursed")))
                });
            assert!(values.iter().all(Option::is_none), "jobs={jobs}");
            assert_eq!(report.poisoned.len(), 13);
            assert!(report.degraded());
            assert_eq!(report.completed, 0);
            // Permanent failures never retry.
            assert_eq!(report.retries, 0);
            for (k, failure) in report.poisoned.iter().enumerate() {
                assert_eq!(failure.index, k, "poisoned list sorted by index");
                assert_eq!(failure.kind, FailureKind::Permanent);
                assert_eq!(failure.attempts, 1);
            }
        }
    }

    #[test]
    fn supervised_retry_then_succeed_is_deterministic_for_any_jobs() {
        // Item i fails transiently on attempts < i % 4, then succeeds:
        // a pure function of (index, attempt), like a seeded fault plan.
        let items: Vec<u64> = (0..41).collect();
        let run = |jobs| {
            par_map_supervised(
                jobs,
                &items,
                &SupervisePolicy::default(),
                |i, &x, attempt| {
                    if (attempt as usize) < i % 4 {
                        Err(WorkerError::transient(format!("flake {i}/{attempt}")))
                    } else {
                        Ok(x * x)
                    }
                },
            )
        };
        let (base_values, base_report) = run(1);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(
            base_values.iter().map(|v| v.unwrap()).collect::<Vec<_>>(),
            expect
        );
        let expected_retries: u64 = (0..41u64).map(|i| i % 4).sum();
        assert_eq!(base_report.retries, expected_retries);
        assert_eq!(
            base_report.recovered,
            items.iter().filter(|&&i| i % 4 != 0).count()
        );
        for jobs in [2, 3, 8, 64] {
            let (values, report) = run(jobs);
            assert_eq!(values, base_values, "jobs={jobs}");
            assert_eq!(
                report, base_report,
                "jobs={jobs}: report must be scheduling-invariant"
            );
        }
    }

    #[test]
    fn supervised_contains_and_retries_panics() {
        let items: Vec<u32> = (0..10).collect();
        let (values, report) =
            par_map_supervised(4, &items, &SupervisePolicy::default(), |i, &x, attempt| {
                if i % 2 == 0 && attempt == 0 {
                    panic!("injected panic at item {i}");
                }
                Ok::<u32, WorkerError>(x + 1)
            });
        assert!(values.iter().all(Option::is_some), "every panic recovered");
        assert_eq!(report.panics_contained, 5);
        assert_eq!(report.recovered, 5);
        assert!(!report.degraded());
        assert!(report.had_faults());
    }

    #[test]
    fn supervised_exhausted_transients_quarantine_with_attempt_count() {
        let items: Vec<u32> = (0..4).collect();
        let policy = SupervisePolicy {
            max_retries: 2,
            ..SupervisePolicy::default()
        };
        let (values, report) = par_map_supervised(2, &items, &policy, |i, &x, _| {
            if i == 2 {
                Err(WorkerError::transient("never recovers"))
            } else {
                Ok::<u32, WorkerError>(x)
            }
        });
        assert_eq!(values.iter().filter(|v| v.is_none()).count(), 1);
        assert!(values[2].is_none(), "the hole is exactly the failing item");
        let failure = &report.poisoned[0];
        assert_eq!(failure.index, 2);
        assert_eq!(failure.kind, FailureKind::TransientExhausted);
        assert_eq!(failure.attempts, 3, "1 initial + 2 retries");
        assert_eq!(report.retries, 2);
    }

    #[test]
    fn supervised_deadline_fires_on_a_deliberately_slow_worker() {
        let items: Vec<u32> = (0..6).collect();
        let policy = SupervisePolicy {
            deadline: Some(Duration::from_millis(30)),
            ..SupervisePolicy::default()
        };
        let (values, report) = par_map_supervised(3, &items, &policy, |i, &x, _| {
            if i == 4 {
                std::thread::sleep(Duration::from_millis(200));
            }
            Ok::<u32, WorkerError>(x)
        });
        assert!(values[4].is_none(), "slow item quarantined");
        assert_eq!(values.iter().filter(|v| v.is_some()).count(), 5);
        assert_eq!(report.deadline_hits, 1);
        let failure = &report.poisoned[0];
        assert_eq!(failure.kind, FailureKind::DeadlineExceeded);
        assert_eq!(failure.attempts, 1, "deadline overruns do not retry");
    }

    #[test]
    fn supervised_backoff_is_bounded_and_monotone() {
        let mut last = Duration::ZERO;
        for attempt in 0..40 {
            let b = backoff(attempt);
            assert!(b >= last);
            assert!(b <= BACKOFF_CAP);
            last = b;
        }
        assert_eq!(backoff(0), BACKOFF_BASE);
    }

    #[test]
    fn commit_fires_once_per_completed_item_with_accepted_attempt() {
        use std::sync::Mutex;
        // Item i succeeds on attempt i % 3 — a seeded transient plan.
        let items: Vec<u64> = (0..20).collect();
        for jobs in [1, 4] {
            let committed: Mutex<Vec<(usize, u64, u32)>> = Mutex::new(Vec::new());
            let (values, report) = par_map_supervised_commit(
                jobs,
                &items,
                &SupervisePolicy::default(),
                |i, &x, attempt| {
                    if (attempt as usize) < i % 3 {
                        Err(WorkerError::transient("flake"))
                    } else if i == 7 {
                        Err(WorkerError::permanent("cursed"))
                    } else {
                        Ok(x * 2)
                    }
                },
                |i, _item, &v, attempt| committed.lock().unwrap().push((i, v, attempt)),
            );
            let mut committed = committed.into_inner().unwrap();
            committed.sort_by_key(|&(i, _, _)| i);
            assert_eq!(
                committed.len(),
                report.completed,
                "jobs={jobs}: exactly one commit per completed item"
            );
            for &(i, v, attempt) in &committed {
                assert_ne!(i, 7, "quarantined items never commit");
                assert_eq!(values[i], Some(v), "committed value is the accepted one");
                assert_eq!(attempt as usize, i % 3, "commit sees the accepted attempt");
            }
        }
    }

    #[test]
    fn commit_never_fires_for_deadline_holes() {
        use std::sync::Mutex;
        let items: Vec<u32> = (0..6).collect();
        let policy = SupervisePolicy {
            deadline: Some(Duration::from_millis(30)),
            ..SupervisePolicy::default()
        };
        let committed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let (values, report) = par_map_supervised_commit(
            3,
            &items,
            &policy,
            |i, &x, _| {
                if i == 4 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                Ok::<u32, WorkerError>(x)
            },
            |i, _, _, _| committed.lock().unwrap().push(i),
        );
        assert!(values[4].is_none());
        assert_eq!(report.deadline_hits, 1);
        let mut committed = committed.into_inner().unwrap();
        committed.sort_unstable();
        assert_eq!(
            committed,
            vec![0, 1, 2, 3, 5],
            "the deadline hole is the one uncommitted item: its attempt \
             computed a value, but acceptance rejected it"
        );
    }

    #[test]
    fn fault_report_summary_mentions_the_numbers() {
        let report = FaultReport {
            items: 8,
            completed: 7,
            retries: 3,
            recovered: 2,
            panics_contained: 1,
            deadline_hits: 0,
            poisoned: vec![ItemFailure {
                index: 5,
                attempts: 4,
                kind: FailureKind::TransientExhausted,
                message: "x".into(),
            }],
        };
        let line = report.summary_line();
        assert!(line.contains("8 item(s)"), "{line}");
        assert!(line.contains("1 poisoned"), "{line}");
        assert!(report.degraded());
        assert!(report.poisoned[0].to_string().contains("item 5"));
    }
}
