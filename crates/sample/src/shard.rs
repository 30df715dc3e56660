//! The sample shard format (`slopt-shard/1`).
//!
//! The batch pipeline materializes the whole sample trace in memory
//! before [`crate::concurrency_map`] buckets it. Collectors instead ship
//! samples as binary **shards** — files on disk (`--emit-samples`, the
//! daemon's journal) or protocol frame payloads — which the folds of
//! [`crate::window`] consume one shard at a time. This module is the
//! format alone:
//!
//! * [`encode_shard`] / [`decode_shard`] — the format, both ways;
//!   [`decode_shard`] reports a malformed image as a typed
//!   [`ShardError`], never a panic.
//! * [`write_shard`], [`read_shard`] and [`shard_files`] — their
//!   file-system forms, and the walk that lists a shard directory in
//!   path order.
//!
//! ## On-disk format (`slopt-shard/1`)
//!
//! Little-endian throughout. A 32-byte header:
//!
//! ```text
//! magic    8 B   "SLSHARD1"
//! version  u32   1
//! count    u32   number of records
//! min_time u64   smallest record time
//! max_time u64   largest record time
//! ```
//!
//! followed by exactly `count` 24-byte records:
//!
//! ```text
//! time  u64 · cpu  u16 · pad  u16 (zero) · func u32 · block u32 · line u32
//! ```
//!
//! Records are non-decreasing in `time` and within
//! `[min_time, max_time]`; readers verify both plus the exact file
//! length, so truncation and corruption are detected structurally.

use crate::sampler::Sample;
use slopt_ir::cfg::{BlockId, FuncId};
use slopt_ir::source::SourceLine;
use slopt_sim::CpuId;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Shard format magic bytes.
pub const SHARD_MAGIC: [u8; 8] = *b"SLSHARD1";
/// Current shard format version.
pub const SHARD_VERSION: u32 = 1;
/// Header size in bytes.
const HEADER_LEN: usize = 32;
/// Record size in bytes.
const RECORD_LEN: usize = 24;
/// Shard file extension.
pub const SHARD_EXT: &str = "slshard";

/// Why a shard could not be ingested. Every variant is a *skip*, never a
/// panic: the fold continues with the remaining shards.
#[derive(Debug)]
pub enum ShardError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The first 8 bytes are not [`SHARD_MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// File length disagrees with the header's record count (truncated
    /// mid-write, or trailing garbage).
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// Record times decrease at this record index.
    OutOfOrder(usize),
    /// A record time falls outside the header's `[min_time, max_time]`.
    TimeBounds(usize),
}

impl ShardError {
    /// A stable short key for skip-reason counters
    /// (`warn.shard.skipped.<key>`).
    pub fn reason_key(&self) -> &'static str {
        match self {
            ShardError::Io(_) => "io",
            ShardError::BadMagic => "bad_magic",
            ShardError::BadVersion(_) => "bad_version",
            ShardError::Truncated { .. } => "truncated",
            ShardError::OutOfOrder(_) => "out_of_order",
            ShardError::TimeBounds(_) => "time_bounds",
        }
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "io error: {e}"),
            ShardError::BadMagic => write!(f, "bad magic (not a slopt-shard/1 file)"),
            ShardError::BadVersion(v) => write!(f, "unsupported shard version {v}"),
            ShardError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated: header promises {expected} bytes, file has {actual}"
                )
            }
            ShardError::OutOfOrder(i) => write!(f, "record {i}: time decreases"),
            ShardError::TimeBounds(i) => {
                write!(f, "record {i}: time outside header min/max bounds")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Serializes `samples` (non-decreasing in time) to an in-memory
/// `slopt-shard/1` image — the payload the network ingestion path ships
/// inside protocol frames. An empty slice encodes a valid zero-record
/// shard.
///
/// Returns `InvalidInput` if the samples are not sorted by time — the
/// format's bounds check depends on it, and every writer in this crate
/// sorts before calling.
pub fn encode_shard(samples: &[Sample]) -> io::Result<Vec<u8>> {
    if samples.windows(2).any(|w| w[1].time < w[0].time) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "shard samples must be sorted by time",
        ));
    }
    let (min_time, max_time) = match (samples.first(), samples.last()) {
        (Some(a), Some(b)) => (a.time, b.time),
        _ => (0, 0),
    };
    let mut buf = Vec::with_capacity(HEADER_LEN + RECORD_LEN * samples.len());
    buf.extend_from_slice(&SHARD_MAGIC);
    buf.extend_from_slice(&SHARD_VERSION.to_le_bytes());
    buf.extend_from_slice(&(samples.len() as u32).to_le_bytes());
    buf.extend_from_slice(&min_time.to_le_bytes());
    buf.extend_from_slice(&max_time.to_le_bytes());
    for s in samples {
        buf.extend_from_slice(&s.time.to_le_bytes());
        buf.extend_from_slice(&s.cpu.0.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&s.func.0.to_le_bytes());
        buf.extend_from_slice(&s.block.0.to_le_bytes());
        buf.extend_from_slice(&s.line.0.to_le_bytes());
    }
    Ok(buf)
}

/// Serializes `samples` (non-decreasing in time) to `path` in
/// `slopt-shard/1` format via [`encode_shard`].
pub fn write_shard(path: &Path, samples: &[Sample]) -> io::Result<()> {
    let buf = encode_shard(samples)?;
    let mut f = fs::File::create(path)?;
    f.write_all(&buf)?;
    f.flush()
}

/// Deserializes one `slopt-shard/1` image (a file's contents or a
/// network frame payload), verifying magic, version, exact length, time
/// ordering and time bounds. Every failure is a typed [`ShardError`] —
/// torn or corrupted batches are detected structurally, never a panic.
pub fn decode_shard(bytes: &[u8]) -> Result<Vec<Sample>, ShardError> {
    if bytes.len() < HEADER_LEN {
        return Err(if bytes.get(..8).is_some_and(|m| m != SHARD_MAGIC) {
            ShardError::BadMagic
        } else {
            ShardError::Truncated {
                expected: HEADER_LEN,
                actual: bytes.len(),
            }
        });
    }
    if bytes[..8] != SHARD_MAGIC {
        return Err(ShardError::BadMagic);
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let version = u32_at(8);
    if version != SHARD_VERSION {
        return Err(ShardError::BadVersion(version));
    }
    let count = u32_at(12) as usize;
    let (min_time, max_time) = (u64_at(16), u64_at(24));
    let expected = HEADER_LEN + RECORD_LEN * count;
    if bytes.len() != expected {
        return Err(ShardError::Truncated {
            expected,
            actual: bytes.len(),
        });
    }
    let mut samples = Vec::with_capacity(count);
    let mut prev_time = 0u64;
    for i in 0..count {
        let off = HEADER_LEN + RECORD_LEN * i;
        let time = u64_at(off);
        if i > 0 && time < prev_time {
            return Err(ShardError::OutOfOrder(i));
        }
        if count > 0 && !(min_time..=max_time).contains(&time) {
            return Err(ShardError::TimeBounds(i));
        }
        prev_time = time;
        let cpu = u16::from_le_bytes(bytes[off + 8..off + 10].try_into().unwrap());
        samples.push(Sample {
            cpu: CpuId(cpu),
            time,
            func: FuncId(u32_at(off + 12)),
            block: BlockId(u32_at(off + 16)),
            line: SourceLine(u32_at(off + 20)),
        });
    }
    Ok(samples)
}

/// Reads and deserializes one shard file via [`decode_shard`].
pub fn read_shard(path: &Path) -> Result<Vec<Sample>, ShardError> {
    let bytes = fs::read(path)?;
    decode_shard(&bytes)
}

/// Every `*.slshard` file under `dir`, walked recursively, in path order
/// (the order offline advice folds them and `serve ingest` sends them).
///
/// # Errors
///
/// Returns the first I/O error met while walking.
pub fn shard_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|e| e == SHARD_EXT) {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(dir, &mut files)?;
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cpu: u16, time: u64, line: u32) -> Sample {
        Sample {
            cpu: CpuId(cpu),
            time,
            func: FuncId(0),
            block: BlockId(0),
            line: SourceLine(line),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slopt_shard_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mixed_trace(n: u64) -> Vec<Sample> {
        (0..n)
            .map(|i| sample((i % 5) as u16, (i * 37) % 1000, (i % 7) as u32))
            .collect()
    }

    #[test]
    fn shard_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut samples = mixed_trace(100);
        samples.sort_by_key(|s| s.time);
        let path = dir.join("a.slshard");
        write_shard(&path, &samples).unwrap();
        assert_eq!(read_shard(&path).unwrap(), samples);
        // Zero-record shard is valid too.
        let empty = dir.join("empty.slshard");
        write_shard(&empty, &[]).unwrap();
        assert_eq!(read_shard(&empty).unwrap(), Vec::new());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_files_walks_nested_dirs_in_path_order() {
        let dir = temp_dir("walk");
        fs::create_dir_all(dir.join("b/deep")).unwrap();
        fs::create_dir_all(dir.join("a")).unwrap();
        for rel in [
            "b/deep/z.slshard",
            "b/y.slshard",
            "a/x.slshard",
            "top.slshard",
            "a/notes.txt",
            "b/deep/z.slshard.tmp",
        ] {
            fs::write(dir.join(rel), b"").unwrap();
        }
        let got: Vec<PathBuf> = shard_files(&dir)
            .unwrap()
            .into_iter()
            .map(|p| p.strip_prefix(&dir).unwrap().to_path_buf())
            .collect();
        let want: Vec<PathBuf> = [
            "a/x.slshard",
            "b/deep/z.slshard",
            "b/y.slshard",
            "top.slshard",
        ]
        .iter()
        .map(PathBuf::from)
        .collect();
        assert_eq!(got, want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_rejects_unsorted() {
        let dir = temp_dir("unsorted");
        let samples = vec![sample(0, 100, 1), sample(0, 50, 2)];
        let err = write_shard(&dir.join("x.slshard"), &samples).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_detects_corruption() {
        let dir = temp_dir("corrupt");
        let mut samples = mixed_trace(10);
        samples.sort_by_key(|s| s.time);
        let path = dir.join("a.slshard");
        write_shard(&path, &samples).unwrap();
        let good = fs::read(&path).unwrap();

        // Truncated mid-record.
        fs::write(&path, &good[..good.len() - 7]).unwrap();
        assert!(matches!(
            read_shard(&path),
            Err(ShardError::Truncated { .. })
        ));
        // Trailing garbage is also a length mismatch.
        let mut long = good.clone();
        long.extend_from_slice(&[0u8; 3]);
        fs::write(&path, &long).unwrap();
        assert!(matches!(
            read_shard(&path),
            Err(ShardError::Truncated { .. })
        ));
        // Corrupt magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(read_shard(&path), Err(ShardError::BadMagic)));
        // Bad version.
        let mut bad = good.clone();
        bad[8] = 9;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(read_shard(&path), Err(ShardError::BadVersion(9))));
        // Out-of-order record times (swap two record time fields).
        let mut bad = good.clone();
        let (a, b) = (HEADER_LEN, HEADER_LEN + RECORD_LEN);
        for k in 0..8 {
            bad.swap(a + k, b + k);
        }
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_shard(&path),
            Err(ShardError::OutOfOrder(_)) | Err(ShardError::TimeBounds(_))
        ));
        // Empty file.
        fs::write(&path, b"").unwrap();
        assert!(matches!(
            read_shard(&path),
            Err(ShardError::Truncated { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
