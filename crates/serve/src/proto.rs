//! The `slopt-serve/1` wire protocol: length-prefixed frames over TCP.
//!
//! A frame is `[u32 LE length][u8 opcode][payload]`, where `length`
//! counts the opcode byte plus the payload. Requests and responses use
//! the same framing; a connection is a sequence of request/response
//! pairs (pipelining is not required — the reference client is strictly
//! synchronous).
//!
//! Every way a frame can be malformed is a *typed* [`ProtoError`] with a
//! stable [`ProtoError::reason_key`], so the daemon can count it as a
//! `warn.serve.proto.<reason>` counter and keep serving — a garbage
//! frame must never crash the process or poison other connections.

use slopt_sample::{decode_shard, encode_shard, Sample, ShardError};
use std::io::{self, Read, Write};

/// Request: ingest one `slopt-shard/1` batch (`INGEST_HEADER_LEN` bytes
/// of batch id, then the shard image).
pub const OP_INGEST: u8 = 0x01;
/// Request: fetch the current versioned layout advice.
pub const OP_ADVISE: u8 = 0x02;
/// Request: fetch the one-line health summary.
pub const OP_HEALTH: u8 = 0x03;
/// Request: fetch the Prometheus exposition of the daemon's counters.
pub const OP_METRICS: u8 = 0x04;
/// Request: acknowledge, then drain and shut down gracefully.
pub const OP_DRAIN: u8 = 0x05;
/// Response: success; the payload is the operation's result.
pub const OP_OK: u8 = 0x80;
/// Response: failure; the payload is a UTF-8 error message.
pub const OP_ERR: u8 = 0x81;

/// Hard cap on a frame body (opcode + payload). A shard batch of this
/// size holds ~700k samples — far above anything the collectors send —
/// while bounding what a malicious or corrupt length prefix can make
/// the daemon allocate.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// The ingest payload prefix: `client_id: u64 LE, seq: u64 LE`.
pub const INGEST_HEADER_LEN: usize = 16;

/// A typed protocol decode failure. `Io` is transport-level (the peer
/// vanished mid-frame); everything else is a malformed frame the daemon
/// answers with [`OP_ERR`] and survives.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed or ended mid-frame.
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// The frame body is empty (no opcode byte).
    Empty,
    /// The opcode is not part of `slopt-serve/1`.
    BadOpcode(u8),
    /// An ingest payload is shorter than its fixed header.
    ShortIngest(usize),
    /// The shard image inside an ingest payload is malformed.
    Shard(ShardError),
}

impl ProtoError {
    /// Stable key for `warn.serve.proto.<reason>` counters.
    pub fn reason_key(&self) -> String {
        match self {
            ProtoError::Io(_) => "io".to_string(),
            ProtoError::Oversized(_) => "oversized".to_string(),
            ProtoError::Empty => "empty".to_string(),
            ProtoError::BadOpcode(_) => "bad_opcode".to_string(),
            ProtoError::ShortIngest(_) => "short_ingest".to_string(),
            ProtoError::Shard(e) => format!("shard.{}", e.reason_key()),
        }
    }

    /// Whether the stream is still frame-aligned after this error: the
    /// frame was read completely but its *content* was bad, so the
    /// connection can answer [`OP_ERR`] and keep going. Length-level
    /// failures (`Io`, `Oversized`) lose framing and close the
    /// connection.
    pub fn recoverable(&self) -> bool {
        !matches!(self, ProtoError::Io(_) | ProtoError::Oversized(_))
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtoError::Empty => write!(f, "empty frame (no opcode)"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::ShortIngest(n) => write!(
                f,
                "ingest payload of {n} bytes is shorter than its {INGEST_HEADER_LEN}-byte header"
            ),
            ProtoError::Shard(e) => write!(f, "bad shard image: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

/// Writes one frame: length prefix, opcode, payload.
pub fn write_frame(w: &mut impl Write, op: u8, payload: &[u8]) -> io::Result<()> {
    let len = (payload.len() + 1) as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[op])?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); dying *inside* a frame is `ProtoError::Io`.
/// The opcode is validated here so garbage never reaches a handler, but
/// only once the whole frame is consumed, so a bad opcode leaves the
/// stream frame-aligned. The payload buffer grows with the bytes that
/// actually arrive, never to the claimed length up front.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, ProtoError> {
    let mut len_buf = [0u8; 4];
    // A clean EOF at the frame boundary is a normal disconnect.
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) => return Err(ProtoError::Io(e)),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    if len == 0 {
        return Err(ProtoError::Empty);
    }
    let mut op = [0u8; 1];
    r.read_exact(&mut op)?;
    let mut payload = Vec::new();
    r.take(len as u64 - 1).read_to_end(&mut payload)?;
    if payload.len() < len - 1 {
        return Err(ProtoError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    let op = op[0];
    if !matches!(
        op,
        OP_INGEST | OP_ADVISE | OP_HEALTH | OP_METRICS | OP_DRAIN | OP_OK | OP_ERR
    ) {
        return Err(ProtoError::BadOpcode(op));
    }
    Ok(Some((op, payload)))
}

/// One ingest batch: a client-scoped id (for exactly-once folding) and
/// the samples themselves.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestBatch {
    /// Collector identity; each collector numbers its own batches.
    pub client: u64,
    /// The collector's batch sequence number. `(client, seq)` is the
    /// idempotency key: a retried batch folds at most once.
    pub seq: u64,
    /// The batch samples, sorted by time (the shard invariant).
    pub samples: Vec<Sample>,
}

impl IngestBatch {
    /// Encodes the batch as an [`OP_INGEST`] payload: the 16-byte id
    /// header followed by an `slopt-shard/1` image.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let shard = encode_shard(&self.samples)?;
        let mut out = Vec::with_capacity(INGEST_HEADER_LEN + shard.len());
        out.extend_from_slice(&self.client.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&shard);
        Ok(out)
    }

    /// Decodes an [`OP_INGEST`] payload, validating the embedded shard
    /// image structurally (magic, version, counts, time bounds, sample
    /// order).
    pub fn decode(payload: &[u8]) -> Result<IngestBatch, ProtoError> {
        if payload.len() < INGEST_HEADER_LEN {
            return Err(ProtoError::ShortIngest(payload.len()));
        }
        let client = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let seq = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        let samples = decode_shard(&payload[INGEST_HEADER_LEN..]).map_err(ProtoError::Shard)?;
        Ok(IngestBatch {
            client,
            seq,
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slopt_ir::{BlockId, FuncId, SourceLine};
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

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_ADVISE, b"").unwrap();
        write_frame(&mut buf, OP_OK, b"hello").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some((OP_ADVISE, Vec::new())));
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((OP_OK, b"hello".to_vec()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    /// A reader over `data` that records the largest buffer it is
    /// handed.
    struct Probe<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for Probe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn a_claimed_length_allocates_only_what_arrives() {
        let mut buf = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        buf.push(OP_INGEST);
        buf.extend_from_slice(&[0u8; 7]);
        let mut probe = Probe {
            data: &buf,
            largest: 0,
        };
        let err = read_frame(&mut probe).unwrap_err();
        assert_eq!(err.reason_key(), "io");
        assert!(
            probe.largest < 1024 * 1024,
            "a 16 MiB claim over 8 bytes was handed a {}-byte buffer",
            probe.largest
        );
    }

    #[test]
    fn a_bad_opcode_leaves_the_stream_frame_aligned() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x7f, b"junk").unwrap();
        write_frame(&mut buf, OP_OK, b"next").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap_err().reason_key(), "bad_opcode");
        assert_eq!(read_frame(&mut r).unwrap(), Some((OP_OK, b"next".to_vec())));
    }

    #[test]
    fn ingest_batches_round_trip() {
        let batch = IngestBatch {
            client: 7,
            seq: 42,
            samples: vec![sample(10, 0, 3), sample(20, 1, 5)],
        };
        let payload = batch.encode().unwrap();
        assert_eq!(IngestBatch::decode(&payload).unwrap(), batch);
    }

    #[test]
    fn malformed_frames_are_typed_and_classified() {
        // Oversized length prefix: unrecoverable (framing is lost).
        let mut buf = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 8]);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.reason_key(), "oversized");
        assert!(!err.recoverable());

        // Zero-length frame: recoverable (the frame was fully consumed).
        let buf = 0u32.to_le_bytes().to_vec();
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.reason_key(), "empty");
        assert!(err.recoverable());

        // Unknown opcode.
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.push(0x7f);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.reason_key(), "bad_opcode");
        assert!(err.recoverable());

        // Truncated mid-frame: transport error.
        let mut buf = 10u32.to_le_bytes().to_vec();
        buf.push(OP_ADVISE);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.reason_key(), "io");
        assert!(!err.recoverable());

        // Garbage shard image inside an otherwise well-formed ingest.
        let mut payload = vec![0u8; INGEST_HEADER_LEN];
        payload.extend_from_slice(b"NOTSHARD");
        let err = IngestBatch::decode(&payload).unwrap_err();
        assert!(err.reason_key().starts_with("shard."), "{err}");
        assert!(err.recoverable());

        // Short ingest header.
        let err = IngestBatch::decode(&[0u8; 3]).unwrap_err();
        assert_eq!(err.reason_key(), "short_ingest");
    }

    /// The decoder is total: any payload decodes or fails with a typed
    /// error, and a decoded batch re-encodes to a payload that decodes
    /// to the same batch.
    fn assert_decode_is_total(payload: &[u8]) {
        if let Ok(batch) = IngestBatch::decode(payload) {
            let again = batch.encode().expect("decoded samples are time-sorted");
            assert_eq!(IngestBatch::decode(&again).unwrap(), batch);
        }
    }

    mod never_panics {
        use super::*;
        use proptest::prelude::*;

        /// Byte offsets inside an ingest payload: the shard image's
        /// record count, its first record, and a record's length.
        const COUNT_AT: usize = INGEST_HEADER_LEN + 12;
        const RECORDS_AT: usize = INGEST_HEADER_LEN + 32;
        const RECORD: usize = 24;

        proptest! {
            #[test]
            fn ingest_decode_is_total_on_arbitrary_bytes(
                payload in prop::collection::vec(any::<u8>(), 0..200),
            ) {
                assert_decode_is_total(&payload);
            }

            /// A single edit of a valid payload: a truncation, a flipped
            /// byte, an overwritten record count or two swapped records.
            #[test]
            fn ingest_decode_is_total_on_edited_payloads(
                times in prop::collection::vec(0u64..50_000, 0..40),
                kind in 0usize..4,
                at in any::<usize>(),
                value in any::<u32>(),
            ) {
                let mut times = times;
                times.sort_unstable();
                let batch = IngestBatch {
                    client: 3,
                    seq: at as u64,
                    samples: times.iter().map(|&t| sample(t, (t % 5) as u16, (t % 9) as u32)).collect(),
                };
                let mut payload = batch.encode().unwrap();
                prop_assert_eq!(IngestBatch::decode(&payload).unwrap(), batch);
                match kind {
                    0 => payload.truncate(at % (payload.len() + 1)),
                    1 => {
                        let i = at % payload.len();
                        payload[i] ^= (value as u8).max(1);
                    }
                    2 => payload[COUNT_AT..COUNT_AT + 4].copy_from_slice(&value.to_le_bytes()),
                    _ => {
                        let records = times.len();
                        if records >= 2 {
                            let (a, b) = (at % records, value as usize % records);
                            for k in 0..RECORD {
                                payload.swap(RECORDS_AT + a * RECORD + k, RECORDS_AT + b * RECORD + k);
                            }
                        }
                    }
                }
                assert_decode_is_total(&payload);
            }
        }
    }
}
