//! Checkpoint/resume for long grid runs (`slopt-ckpt/1`).
//!
//! A figure or ablation grid at production scale is hours of independent
//! `(cell, seed)` simulations; losing the whole run to a kill at 95 % is
//! unacceptable. A [`Checkpoint`] persists every completed grid item to
//! an append-only log as it finishes, so a re-invocation with
//! `--resume` recomputes only the missing items. Because the runner
//! assembles results by grid index (never completion or arrival order)
//! and the logged values are exact `f64` bit patterns, a resumed run's
//! output is bit-identical to an uninterrupted one — enforced by
//! `tests/checkpoint_resume.rs`.
//!
//! ## On-disk layout
//!
//! A checkpoint directory holds one `<name>.ckpt` item log per grid.
//! Line 1 is the header `slopt-ckpt/1 name=<name> items=<n> fp=<hex16>`,
//! where `fp` fingerprints every input the grid's values depend on: the
//! run count and, per cell, what the run memo keys a run on (program
//! text and action mix, the canonical layout words, machine and
//! workload config). Each later line is `item <index> <f64-bits-hex>`.
//! A torn final line (the process died mid-append) is tolerated and
//! dropped with a warning; a header mismatch means the resuming
//! invocation measures something else — a changed grid, or layouts
//! derived from a drifted analysis — and is an error.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Schema tag of the item log.
pub const CKPT_SCHEMA: &str = "slopt-ckpt/1";

/// Where and whether to checkpoint, as requested by
/// `--checkpoint-dir <dir>` / `--resume`.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// The checkpoint directory (created if missing).
    pub dir: PathBuf,
    /// Resume from existing state instead of starting fresh.
    pub resume: bool,
}

/// FNV-1a over the parts, separated by `\n`. Stable across runs and
/// platforms; used to fingerprint a grid's inputs in the log header.
pub fn fingerprint<P: AsRef<[u8]>>(parts: impl IntoIterator<Item = P>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_ref() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= b'\n' as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An open item log: completed values loaded at open, new completions
/// appended (and flushed) as they happen. `record` is called from
/// `par_map` workers, so the appender is behind a mutex.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    items: usize,
    done: Vec<Option<f64>>,
    /// Count of already-completed items loaded at open.
    resumed: usize,
    /// True when a torn final line was dropped during open.
    torn: bool,
    file: Mutex<fs::File>,
}

impl Checkpoint {
    /// Opens (or creates) the item log `<name>.ckpt` under `spec.dir`.
    ///
    /// With `spec.resume` and an existing log whose header matches
    /// `(name, items, fp)`, previously completed items are loaded; a
    /// header mismatch is an error (the grid changed between
    /// invocations). Without `resume`, any existing log is truncated.
    pub fn open(
        spec: &CheckpointSpec,
        name: &str,
        items: usize,
        fp: u64,
    ) -> io::Result<Checkpoint> {
        fs::create_dir_all(&spec.dir)?;
        let path = spec.dir.join(format!("{name}.ckpt"));
        let header = format!("{CKPT_SCHEMA} name={name} items={items} fp={fp:016x}");
        let mut done: Vec<Option<f64>> = vec![None; items];
        let mut torn = false;

        if spec.resume && path.exists() {
            let text = fs::read_to_string(&path)?;
            let mut lines = text.lines().enumerate().peekable();
            let Some((_, got_header)) = lines.next() else {
                return Err(bad_ckpt(&path, "empty checkpoint file"));
            };
            if got_header != header {
                return Err(bad_ckpt(
                    &path,
                    &format!(
                        "header mismatch — the resuming invocation runs a different grid\n  \
                         found:    {got_header}\n  expected: {header}"
                    ),
                ));
            }
            while let Some((lineno, line)) = lines.next() {
                match parse_item(line, items) {
                    Some((idx, value)) => done[idx] = Some(value),
                    None if lines.peek().is_none() => {
                        // A torn final line: the previous run died
                        // mid-append. Drop it; the item recomputes.
                        torn = true;
                    }
                    None => {
                        return Err(bad_ckpt(
                            &path,
                            &format!("corrupt entry at line {}", lineno + 1),
                        ));
                    }
                }
            }
            // Rewrite the log canonically so the dropped torn line does
            // not accumulate and appends start from a clean tail.
            let mut file = fs::File::create(&path)?;
            writeln!(file, "{header}")?;
            for (idx, v) in done.iter().enumerate() {
                if let Some(v) = v {
                    writeln!(file, "item {idx} {:016x}", v.to_bits())?;
                }
            }
            file.flush()?;
            let resumed = done.iter().filter(|v| v.is_some()).count();
            let appender = fs::OpenOptions::new().append(true).open(&path)?;
            return Ok(Checkpoint {
                path,
                items,
                done,
                resumed,
                torn,
                file: Mutex::new(appender),
            });
        }

        let mut file = fs::File::create(&path)?;
        writeln!(file, "{header}")?;
        file.flush()?;
        Ok(Checkpoint {
            path,
            items,
            done,
            resumed: 0,
            torn,
            file: Mutex::new(file),
        })
    }

    /// Total grid items this log covers.
    pub fn items(&self) -> usize {
        self.items
    }

    /// The value of item `idx` if a previous run completed it.
    pub fn get(&self, idx: usize) -> Option<f64> {
        self.done[idx]
    }

    /// Number of items loaded as already completed at open.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Whether a torn final line was dropped at open.
    pub fn dropped_torn_line(&self) -> bool {
        self.torn
    }

    /// Path of the item log.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends (and flushes) one completed item. Exact: the `f64` is
    /// logged as its bit pattern, so a resumed run reads back the very
    /// value this run computed.
    pub fn record(&self, idx: usize, value: f64) {
        debug_assert!(idx < self.items);
        let mut file = self.file.lock().unwrap();
        // A failed append must not kill the run — the checkpoint
        // degrades (that item recomputes on resume), the measurement
        // continues.
        let line = format!("item {idx} {:016x}\n", value.to_bits());
        if file
            .write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .is_err()
        {
            eprintln!(
                "[ckpt] warning: failed to append item {idx} to {}",
                self.path.display()
            );
        }
    }
}

fn parse_item(line: &str, items: usize) -> Option<(usize, f64)> {
    let rest = line.strip_prefix("item ")?;
    let (idx, bits) = rest.split_once(' ')?;
    let idx: usize = idx.parse().ok()?;
    if idx >= items || bits.len() != 16 {
        return None;
    }
    let bits = u64::from_str_radix(bits, 16).ok()?;
    Some((idx, f64::from_bits(bits)))
}

fn bad_ckpt(path: &Path, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("checkpoint {}: {what}", path.display()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_spec(tag: &str, resume: bool) -> CheckpointSpec {
        let dir = std::env::temp_dir().join(format!("slopt_ckpt_{}_{tag}", std::process::id()));
        CheckpointSpec { dir, resume }
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let a = fingerprint(["x", "y"]);
        assert_eq!(a, fingerprint(["x", "y"]));
        assert_ne!(a, fingerprint(["y", "x"]));
        assert_ne!(fingerprint(["ab"]), fingerprint(["a", "b"]));
    }

    #[test]
    fn records_persist_and_resume_exactly() {
        let spec = temp_spec("persist", false);
        let _ = fs::remove_dir_all(&spec.dir);
        let values = [1.5f64, -0.0, f64::MIN_POSITIVE, 1234.567890123];
        {
            let ck = Checkpoint::open(&spec, "grid", 10, 7).unwrap();
            assert_eq!(ck.resumed(), 0);
            for (i, &v) in values.iter().enumerate() {
                ck.record(i * 2, v);
            }
        }
        let resume = CheckpointSpec {
            resume: true,
            ..spec.clone()
        };
        let ck = Checkpoint::open(&resume, "grid", 10, 7).unwrap();
        assert_eq!(ck.resumed(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ck.get(i * 2).map(f64::to_bits), Some(v.to_bits()));
            assert_eq!(ck.get(i * 2 + 1), None);
        }
        assert!(!ck.dropped_torn_line());
        fs::remove_dir_all(&spec.dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_with_the_rest_kept() {
        let spec = temp_spec("torn", false);
        let _ = fs::remove_dir_all(&spec.dir);
        {
            let ck = Checkpoint::open(&spec, "grid", 4, 1).unwrap();
            ck.record(0, 2.0);
            ck.record(3, 4.0);
        }
        // Simulate a kill mid-append.
        let path = spec.dir.join("grid.ckpt");
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("item 2 0123456789");
        fs::write(&path, &text).unwrap();

        let resume = CheckpointSpec {
            resume: true,
            ..spec.clone()
        };
        let ck = Checkpoint::open(&resume, "grid", 4, 1).unwrap();
        assert!(ck.dropped_torn_line());
        assert_eq!(ck.resumed(), 2);
        assert_eq!(ck.get(0), Some(2.0));
        assert_eq!(ck.get(2), None, "torn item must recompute");
        assert_eq!(ck.get(3), Some(4.0));
        fs::remove_dir_all(&spec.dir).unwrap();
    }

    #[test]
    fn header_mismatch_is_an_error() {
        let spec = temp_spec("mismatch", false);
        let _ = fs::remove_dir_all(&spec.dir);
        drop(Checkpoint::open(&spec, "grid", 4, 1).unwrap());
        let resume = CheckpointSpec {
            resume: true,
            ..spec.clone()
        };
        assert!(
            Checkpoint::open(&resume, "grid", 5, 1).is_err(),
            "item count drift"
        );
        assert!(
            Checkpoint::open(&resume, "grid", 4, 2).is_err(),
            "fingerprint drift"
        );
        assert!(Checkpoint::open(&resume, "grid", 4, 1).is_ok());
        fs::remove_dir_all(&spec.dir).unwrap();
    }

    #[test]
    fn corrupt_middle_entry_is_an_error() {
        let spec = temp_spec("corrupt", false);
        let _ = fs::remove_dir_all(&spec.dir);
        {
            let ck = Checkpoint::open(&spec, "grid", 4, 1).unwrap();
            ck.record(1, 1.0);
        }
        let path = spec.dir.join("grid.ckpt");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(
            &path,
            format!("{}garbage here\nitem 2 {:016x}\n", text, 2.0f64.to_bits()),
        )
        .unwrap();
        let resume = CheckpointSpec {
            resume: true,
            ..spec.clone()
        };
        assert!(Checkpoint::open(&resume, "grid", 4, 1).is_err());
        fs::remove_dir_all(&spec.dir).unwrap();
    }

    #[test]
    fn fresh_open_truncates_previous_state() {
        let spec = temp_spec("truncate", false);
        let _ = fs::remove_dir_all(&spec.dir);
        {
            let ck = Checkpoint::open(&spec, "grid", 4, 1).unwrap();
            ck.record(0, 1.0);
        }
        let ck = Checkpoint::open(&spec, "grid", 4, 1).unwrap();
        assert_eq!(ck.resumed(), 0);
        assert_eq!(ck.get(0), None);
        fs::remove_dir_all(&spec.dir).unwrap();
    }

    mod never_panics {
        use super::*;
        use proptest::prelude::*;

        const ITEMS: usize = 6;

        /// One log line after the header: a valid item, an index at or
        /// past `ITEMS`, a short value, a non-hex value, bytes that are
        /// not UTF-8, or eight arbitrary bytes.
        fn line(kind: usize, idx: usize, bits: u64) -> Vec<u8> {
            match kind {
                0 => format!("item {} {bits:016x}", idx % ITEMS).into_bytes(),
                1 => format!("item {} {bits:016x}", ITEMS + idx % 1000).into_bytes(),
                2 => format!("item {} {:x}", idx % ITEMS, bits >> 8).into_bytes(),
                3 => format!("item {idx} zz{:014x}", bits >> 8).into_bytes(),
                4 => vec![b'i', 0xff, 0xfe, 0x80],
                _ => bits.to_le_bytes().to_vec(),
            }
        }

        proptest! {
            /// Resuming from a valid header followed by any lines, with
            /// or without a torn tail, opens or fails with
            /// `InvalidData`, never a panic. An open that succeeds
            /// rewrites the log canonically: a second resume finds the
            /// same items and no torn line.
            #[test]
            fn resume_is_total_on_arbitrary_logs(
                lines in prop::collection::vec((0usize..6, any::<usize>(), any::<u64>()), 0..10),
                torn in any::<bool>(),
                tear in any::<usize>(),
            ) {
                let spec = temp_spec("never_panics", true);
                let _ = fs::remove_dir_all(&spec.dir);
                fs::create_dir_all(&spec.dir).unwrap();
                let mut log = format!("{CKPT_SCHEMA} name=grid items={ITEMS} fp={:016x}\n", 1)
                    .into_bytes();
                let header_len = log.len();
                for (kind, idx, bits) in lines {
                    log.extend(line(kind, idx, bits));
                    log.push(b'\n');
                }
                if torn {
                    log.truncate(header_len + tear % (log.len() - header_len + 1));
                }
                fs::write(spec.dir.join("grid.ckpt"), &log).unwrap();
                match Checkpoint::open(&spec, "grid", ITEMS, 1) {
                    Ok(ck) => {
                        prop_assert!(ck.resumed() <= ITEMS);
                        let again = Checkpoint::open(&spec, "grid", ITEMS, 1).unwrap();
                        prop_assert_eq!(again.resumed(), ck.resumed());
                        prop_assert!(!again.dropped_torn_line());
                        for i in 0..ITEMS {
                            prop_assert_eq!(again.get(i).map(f64::to_bits), ck.get(i).map(f64::to_bits));
                        }
                    }
                    Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                }
                fs::remove_dir_all(&spec.dir).unwrap();
            }
        }
    }
}
