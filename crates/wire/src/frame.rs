//! The versioned binary frame format and its streaming codec.
//!
//! # Frame layout
//!
//! Every frame is a fixed 16-byte header followed by a payload, all
//! little-endian:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `"LADW"` |
//! | 4      | 2    | format version (`u16`, currently 4) |
//! | 6      | 1    | frame kind (1 = Batch, 2 = Ack, 3 = Nack, 4 = StatsRequest, 5 = StatsReply, 6 = HealthRequest, 7 = HealthReply) |
//! | 7      | 1    | reserved (written 0, ignored on read) |
//! | 8      | 4    | payload length (`u32`, capped at [`MAX_FRAME_PAYLOAD`]) |
//! | 12     | 4    | payload checksum (`u32`, word-folded FNV-1a-64; see [`checksum`]) |
//!
//! A **Batch** payload is one round's reports in exactly the CSR layout
//! [`ObservationBatch`] stores them — the decoder validates once
//! ([`ObservationBatch::try_extend_csr`]) and lands the arrays with zero
//! per-report allocation:
//!
//! | size | field |
//! |-----:|-------|
//! | 8    | round (`u64`) |
//! | 4    | deployment group count (`u32`) |
//! | 4    | row count `R` (`u32`) |
//! | 4    | stored pair count `N` (`u32`) |
//! | 4·R  | node ids (`u32` each) |
//! | 4·(R+1) | CSR row offsets (`u32` each, first 0) |
//! | 4·N  | group indices (`u32` each) |
//! | 4·N  | nonzero counts (`u32` each) |
//! | 16·R | estimates (`f64` x, `f64` y) |
//!
//! Per-row totals are *not* on the wire — they are derived data and the
//! decoder recomputes them, so a peer cannot desynchronise a batch's
//! invariants. Estimates are *not* range-checked: NaN, ±∞ and huge
//! finite coordinates decode as-is and score as a claim far from every
//! group, i.e. as anomalous (see `lad_serve`'s
//! `ServeRuntime::submit_rows`).
//!
//! Receipts:
//!
//! | frame | size | payload |
//! |-------|-----:|---------|
//! | **Ack** (accepted) | 13 | `round: u64, rows: u32, reserved: u8` (must be 0) |
//! | **Nack** (shed) | 21 | `round: u64, rows: u32, reason: u8, shed_total: u64` |
//!
//! A Nack carries a typed [`ShedReason`] and the server's running count of
//! reports shed at its gate, so a client can adapt its offered rate from
//! the receipt alone, without a Stats round-trip. **StatsRequest** (client
//! → server) carries an empty payload; **StatsReply** answers it with a
//! JSON-encoded observability snapshot (`lad_serve`'s `ServeStats`:
//! counters + folded telemetry +
//! windowed series + drift verdict + health report) — derived state only,
//! never anything a decision depends on. **HealthRequest** (client →
//! server) carries one [`HealthFormat`] byte selecting the reply
//! encoding; **HealthReply** answers with either a JSON `HealthReport`
//! or the full stats rendered as Prometheus text exposition, so a scrape
//! bridge needs no JSON parsing at all.
//!
//! Every malformed input — truncation, bad magic, unknown version or kind,
//! oversized or lying length fields, checksum mismatch, invalid CSR — maps
//! to a typed [`WireError`]; the decoder never panics on wire input
//! (proptested in `tests/wire_roundtrip.rs`).

use crate::shed::ShedReason;
use lad_geometry::Point2;
use lad_net::{CsrError, NodeId, ObservationBatch};
use std::fmt;
use std::io::{self, Read};

/// The 4-byte frame preamble.
pub const WIRE_MAGIC: [u8; 4] = *b"LADW";

/// The wire format version this build writes and accepts. Mirroring the
/// `EngineArtifact`/`ServeSnapshot` convention, any other version is
/// rejected with the typed [`WireError::UnsupportedVersion`].
///
/// Version history: v1 had no Stats frames and a 13-byte Nack; v2 widened
/// Nack with the shed/degraded running totals and added
/// StatsRequest/StatsReply; v3 added HealthRequest/HealthReply (typed
/// health verdict and Prometheus exposition over the same socket); v4
/// dropped the degrade tier: the Ack `degraded` flag became a reserved
/// must-be-zero byte and the Nack lost `degraded_total` (29 → 21 bytes).
pub const WIRE_VERSION: u16 = 4;

/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 16;

/// Hard cap on a frame's payload length (64 MiB — ~2.7M rows). A header
/// declaring more is rejected before any payload byte is read, so a lying
/// peer cannot make the server buffer unbounded memory.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 26;

/// The frame kinds of [`WIRE_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// One round's observation rows (client → server).
    Batch,
    /// The batch was accepted (server → client).
    Ack,
    /// The batch was shed (server → client), with a [`ShedReason`] and
    /// the server's running shed total.
    Nack,
    /// Ask the server for its observability snapshot (client → server).
    StatsRequest,
    /// A JSON `ServeStats` snapshot (server → client).
    StatsReply,
    /// Ask the server for its health verdict in a [`HealthFormat`]
    /// (client → server).
    HealthRequest,
    /// The health verdict, encoded per the request's format
    /// (server → client).
    HealthReply,
}

impl FrameKind {
    fn code(self) -> u8 {
        match self {
            FrameKind::Batch => 1,
            FrameKind::Ack => 2,
            FrameKind::Nack => 3,
            FrameKind::StatsRequest => 4,
            FrameKind::StatsReply => 5,
            FrameKind::HealthRequest => 6,
            FrameKind::HealthReply => 7,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(FrameKind::Batch),
            2 => Some(FrameKind::Ack),
            3 => Some(FrameKind::Nack),
            4 => Some(FrameKind::StatsRequest),
            5 => Some(FrameKind::StatsReply),
            6 => Some(FrameKind::HealthRequest),
            7 => Some(FrameKind::HealthReply),
            _ => None,
        }
    }
}

/// The reply encodings a HealthRequest can ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthFormat {
    /// A JSON-serialized `HealthReport` (status + firing causes) — the
    /// compact form a liveness probe parses.
    Report,
    /// The **full** stats export rendered as Prometheus text exposition
    /// (`lad_serve::render_prometheus`) — what a scrape bridge forwards
    /// verbatim.
    Prometheus,
}

impl HealthFormat {
    fn code(self) -> u8 {
        match self {
            HealthFormat::Report => 0,
            HealthFormat::Prometheus => 1,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(HealthFormat::Report),
            1 => Some(HealthFormat::Prometheus),
            _ => None,
        }
    }
}

/// Typed rejection of anything the wire can get wrong. Decoding never
/// panics: every malformed frame lands in exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// An underlying socket/file error (message of the `std::io::Error`).
    Io(String),
    /// The peer closed the connection at a frame boundary while a frame
    /// was still expected (e.g. a client waiting for its ACK).
    ConnectionClosed,
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The frame's version field is not [`WIRE_VERSION`].
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The frame kind byte is not one this version defines.
    UnknownKind {
        /// The kind byte found.
        found: u8,
    },
    /// The header declares a payload larger than [`MAX_FRAME_PAYLOAD`].
    OversizedFrame {
        /// Declared payload length.
        len: u32,
        /// The cap.
        max: u32,
    },
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes the current frame needs.
        needed: usize,
        /// Bytes actually received.
        have: usize,
    },
    /// The payload does not hash to the header's checksum.
    ChecksumMismatch {
        /// Checksum declared in the header.
        expected: u32,
        /// Checksum of the received payload.
        found: u32,
    },
    /// A payload's size is inconsistent with the frame kind (wrong fixed
    /// size, or too short for a batch preamble).
    BadPayload {
        /// The frame kind being decoded.
        kind: FrameKind,
        /// The payload length found.
        len: usize,
    },
    /// A batch payload's declared row/pair counts do not add up to its
    /// actual length (lying or overflowing length fields).
    LengthOverflow {
        /// Declared row count.
        rows: u64,
        /// Declared stored-pair count.
        nnz: u64,
        /// Actual payload length in bytes.
        payload: usize,
    },
    /// The batch was encoded for a different deployment (group count).
    GroupCountMismatch {
        /// Group count declared in the frame.
        frame: u32,
        /// Group count the decoder (engine) expects.
        engine: u32,
    },
    /// The payload's CSR arrays violate a batch invariant.
    Csr(CsrError),
    /// A flag/enum byte holds an undefined value.
    InvalidEnum {
        /// Which field.
        field: &'static str,
        /// The byte found.
        found: u8,
    },
    /// A structurally valid frame of the wrong kind for this endpoint
    /// (e.g. a client receiving a Batch).
    UnexpectedFrame {
        /// What the endpoint was doing.
        context: &'static str,
        /// The kind that arrived.
        found: FrameKind,
    },
    /// The server was configured without any listener.
    Config(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "i/o error: {msg}"),
            WireError::ConnectionClosed => write!(f, "connection closed mid-conversation"),
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:02x?}"),
            WireError::UnsupportedVersion { found } => write!(
                f,
                "unsupported wire version {found} (this build speaks version {WIRE_VERSION})"
            ),
            WireError::UnknownKind { found } => write!(f, "unknown frame kind {found}"),
            WireError::OversizedFrame { len, max } => {
                write!(f, "declared payload of {len} bytes exceeds the {max} cap")
            }
            WireError::Truncated { needed, have } => {
                write!(f, "stream ended mid-frame ({have} of {needed} bytes)")
            }
            WireError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum {found:#010x} does not match header {expected:#010x}"
            ),
            WireError::BadPayload { kind, len } => {
                write!(f, "{kind:?} frame with an inconsistent {len}-byte payload")
            }
            WireError::LengthOverflow { rows, nnz, payload } => write!(
                f,
                "declared {rows} rows / {nnz} pairs do not fit a {payload}-byte payload"
            ),
            WireError::GroupCountMismatch { frame, engine } => write!(
                f,
                "batch encoded over {frame} groups, engine deployment has {engine}"
            ),
            WireError::Csr(err) => write!(f, "invalid CSR payload: {err}"),
            WireError::InvalidEnum { field, found } => {
                write!(f, "invalid {field} byte {found}")
            }
            WireError::UnexpectedFrame { context, found } => {
                write!(f, "unexpected {found:?} frame while {context}")
            }
            WireError::Config(msg) => write!(f, "invalid wire server configuration: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CsrError> for WireError {
    fn from(err: CsrError) -> Self {
        WireError::Csr(err)
    }
}

impl From<io::Error> for WireError {
    fn from(err: io::Error) -> Self {
        WireError::Io(err.to_string())
    }
}

/// The frame checksum: FNV-1a-64 absorbed a little-endian `u64` word at a
/// time (trailing bytes one at a time), folded to 32 bits by XORing the
/// halves. Not cryptographic (authenticity is out of scope for the frame
/// layer); it catches corruption and framing bugs deterministically on
/// every platform, and the word-at-a-time absorption keeps the cost per
/// payload byte low enough that checksumming never dominates ingest.
pub fn checksum(bytes: &[u8]) -> u32 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = BASIS;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        hash = (hash ^ word).wrapping_mul(PRIME);
    }
    for &byte in words.remainder() {
        hash = (hash ^ byte as u64).wrapping_mul(PRIME);
    }
    ((hash >> 32) ^ hash) as u32
}

fn put_header_placeholder(buf: &mut Vec<u8>, kind: FrameKind) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&WIRE_MAGIC);
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    buf.push(kind.code());
    buf.push(0);
    buf.extend_from_slice(&[0u8; 8]); // length + checksum patched below
    start
}

fn finish_frame(buf: &mut [u8], start: usize) {
    let payload_len = (buf.len() - start - HEADER_LEN) as u32;
    let sum = checksum(&buf[start + HEADER_LEN..]);
    buf[start + 8..start + 12].copy_from_slice(&payload_len.to_le_bytes());
    buf[start + 12..start + 16].copy_from_slice(&sum.to_le_bytes());
}

/// Appends one Batch frame to `buf`: `nodes[i]` reported row `i` of
/// `batch` in round `round`. The CSR arrays are written verbatim (totals
/// excluded — recomputed on decode).
///
/// # Panics
/// Panics when `nodes.len() != batch.len()` or the payload would exceed
/// [`MAX_FRAME_PAYLOAD`] — both caller bugs, not wire conditions.
pub fn encode_batch(buf: &mut Vec<u8>, round: u64, nodes: &[NodeId], batch: &ObservationBatch) {
    assert_eq!(
        nodes.len(),
        batch.len(),
        "one node per observation row required"
    );
    let csr = batch.as_csr();
    let payload = 20
        + nodes.len() * 4
        + csr.offsets.len() * 4
        + csr.groups.len() * 8
        + csr.estimates.len() * 16;
    assert!(
        payload <= MAX_FRAME_PAYLOAD as usize,
        "batch payload of {payload} bytes exceeds the {MAX_FRAME_PAYLOAD} frame cap"
    );
    let start = put_header_placeholder(buf, FrameKind::Batch);
    buf.extend_from_slice(&round.to_le_bytes());
    buf.extend_from_slice(&(batch.group_count() as u32).to_le_bytes());
    buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(batch.nnz() as u32).to_le_bytes());
    for node in nodes {
        buf.extend_from_slice(&node.0.to_le_bytes());
    }
    for &offset in csr.offsets {
        buf.extend_from_slice(&offset.to_le_bytes());
    }
    for &group in csr.groups {
        buf.extend_from_slice(&group.to_le_bytes());
    }
    for &count in csr.counts {
        buf.extend_from_slice(&count.to_le_bytes());
    }
    for estimate in csr.estimates {
        buf.extend_from_slice(&estimate.x.to_le_bytes());
        buf.extend_from_slice(&estimate.y.to_le_bytes());
    }
    finish_frame(buf, start);
}

/// Appends one Ack frame: the batch of `round` (`rows` reports) was
/// accepted. The trailing byte is reserved and written 0.
pub fn encode_ack(buf: &mut Vec<u8>, round: u64, rows: u32) {
    let start = put_header_placeholder(buf, FrameKind::Ack);
    buf.extend_from_slice(&round.to_le_bytes());
    buf.extend_from_slice(&rows.to_le_bytes());
    buf.push(0);
    finish_frame(buf, start);
}

/// Appends one Nack frame: the batch of `round` (`rows` reports) was
/// shed for `reason`. `shed_total` is the server's running count of
/// reports shed at the gate, echoed in every receipt so a client can
/// adapt without polling.
pub fn encode_nack(buf: &mut Vec<u8>, round: u64, rows: u32, reason: ShedReason, shed_total: u64) {
    let start = put_header_placeholder(buf, FrameKind::Nack);
    buf.extend_from_slice(&round.to_le_bytes());
    buf.extend_from_slice(&rows.to_le_bytes());
    buf.push(reason.code());
    buf.extend_from_slice(&shed_total.to_le_bytes());
    finish_frame(buf, start);
}

/// Appends one StatsRequest frame (empty payload): ask the peer for its
/// observability snapshot.
pub fn encode_stats_request(buf: &mut Vec<u8>) {
    let start = put_header_placeholder(buf, FrameKind::StatsRequest);
    finish_frame(buf, start);
}

/// Appends one StatsReply frame whose payload is `json` verbatim (a
/// serialized `ServeStats`).
///
/// # Panics
/// Panics when `json` exceeds [`MAX_FRAME_PAYLOAD`] — a caller bug, not a
/// wire condition.
pub fn encode_stats_reply(buf: &mut Vec<u8>, json: &[u8]) {
    assert!(
        json.len() <= MAX_FRAME_PAYLOAD as usize,
        "stats payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD} frame cap",
        json.len()
    );
    let start = put_header_placeholder(buf, FrameKind::StatsReply);
    buf.extend_from_slice(json);
    finish_frame(buf, start);
}

/// Appends one HealthRequest frame (a single [`HealthFormat`] byte): ask
/// the peer for its health verdict in the given encoding.
pub fn encode_health_request(buf: &mut Vec<u8>, format: HealthFormat) {
    let start = put_header_placeholder(buf, FrameKind::HealthRequest);
    buf.push(format.code());
    finish_frame(buf, start);
}

/// Appends one HealthReply frame whose payload is `body` verbatim (JSON
/// `HealthReport` or Prometheus text, per the request's format).
///
/// # Panics
/// Panics when `body` exceeds [`MAX_FRAME_PAYLOAD`] — a caller bug, not a
/// wire condition.
pub fn encode_health_reply(buf: &mut Vec<u8>, body: &[u8]) {
    assert!(
        body.len() <= MAX_FRAME_PAYLOAD as usize,
        "health payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD} frame cap",
        body.len()
    );
    let start = put_header_placeholder(buf, FrameKind::HealthReply);
    buf.extend_from_slice(body);
    finish_frame(buf, start);
}

/// One decoded frame. A `Batch`'s rows land in the decoder's reusable
/// [`WireDecoder::nodes`]/[`WireDecoder::batch`] buffers rather than in
/// this enum, so the hot path moves no per-frame heap objects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireFrame {
    /// A batch landed in the decoder's buffers.
    Batch {
        /// The round the batch reports on.
        round: u64,
        /// Number of rows landed.
        rows: u32,
    },
    /// The peer accepted a batch.
    Ack {
        /// Echoed round.
        round: u64,
        /// Echoed row count.
        rows: u32,
    },
    /// The peer shed a batch.
    Nack {
        /// Echoed round.
        round: u64,
        /// Echoed row count.
        rows: u32,
        /// Why the batch was shed.
        reason: ShedReason,
        /// Reports the server has shed at its gate so far.
        shed_total: u64,
    },
    /// The peer asked for an observability snapshot.
    StatsRequest,
    /// A stats snapshot landed in the decoder's reusable
    /// [`WireDecoder::stats_json`] buffer.
    StatsReply {
        /// Payload length in bytes.
        bytes: u32,
    },
    /// The peer asked for a health verdict.
    HealthRequest {
        /// The reply encoding asked for.
        format: HealthFormat,
    },
    /// A health verdict landed in the decoder's reusable
    /// [`WireDecoder::health_body`] buffer.
    HealthReply {
        /// Payload length in bytes.
        bytes: u32,
    },
}

/// What one [`WireDecoder::poll_frame`] call produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FramePoll {
    /// A complete frame was decoded.
    Frame(WireFrame),
    /// The read timed out (or would block) at a resumable point; call
    /// again. This is how a server thread interleaves shutdown checks with
    /// blocking reads.
    Pending,
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
}

enum ReadProgress {
    Done,
    Pending,
    Eof,
}

fn read_append(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    target: usize,
) -> Result<ReadProgress, WireError> {
    let mut chunk = [0u8; 64 * 1024];
    while buf.len() < target {
        let want = (target - buf.len()).min(chunk.len());
        match r.read(&mut chunk[..want]) {
            Ok(0) => return Ok(ReadProgress::Eof),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(ReadProgress::Pending)
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadProgress::Done)
}

/// The streaming frame decoder: an incremental state machine over any
/// `Read` that survives read timeouts mid-frame (partial bytes are kept
/// across [`FramePoll::Pending`]) and reuses every buffer, so a
/// long-lived connection decodes batches with **zero per-report
/// allocation** after warm-up. Estimates land verbatim, non-finite ones
/// included (see the [module docs](self) for how they score).
pub struct WireDecoder {
    group_count: usize,
    /// Bytes of the in-progress frame (header + payload so far).
    inbuf: Vec<u8>,
    /// Total bytes `inbuf` needs before the next decode step.
    need: usize,
    /// Parsed header of the in-progress frame, once 16 bytes arrived.
    header: Option<(FrameKind, usize, u32)>,
    // Reusable landing buffers for Batch frames.
    offsets: Vec<u32>,
    groups: Vec<u32>,
    counts: Vec<u32>,
    estimates: Vec<Point2>,
    nodes: Vec<NodeId>,
    batch: ObservationBatch,
    /// Landing buffer for the most recent StatsReply payload.
    stats: Vec<u8>,
    /// Landing buffer for the most recent HealthReply payload.
    health: Vec<u8>,
}

impl WireDecoder {
    /// A decoder for batches over `group_count` deployment groups (frames
    /// declaring any other group count are rejected with
    /// [`WireError::GroupCountMismatch`] — a server wires in its engine's
    /// deployment here).
    pub fn new(group_count: usize) -> Self {
        Self {
            group_count,
            inbuf: Vec::new(),
            need: HEADER_LEN,
            header: None,
            offsets: Vec::new(),
            groups: Vec::new(),
            counts: Vec::new(),
            estimates: Vec::new(),
            nodes: Vec::new(),
            batch: ObservationBatch::new(group_count),
            stats: Vec::new(),
            health: Vec::new(),
        }
    }

    /// The node ids of the most recently decoded Batch frame, row order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The rows of the most recently decoded Batch frame.
    pub fn batch(&self) -> &ObservationBatch {
        &self.batch
    }

    /// The payload of the most recently decoded StatsReply frame (JSON
    /// bytes, reused across frames like the batch buffers).
    pub fn stats_json(&self) -> &[u8] {
        &self.stats
    }

    /// The payload of the most recently decoded HealthReply frame (JSON
    /// or Prometheus text per the request's [`HealthFormat`]; reused
    /// across frames like the batch buffers).
    pub fn health_body(&self) -> &[u8] {
        &self.health
    }

    /// Whether a frame is partially buffered (a shutdown drain uses this
    /// to decide between closing now and finishing the in-flight frame).
    pub fn has_partial(&self) -> bool {
        !self.inbuf.is_empty()
    }

    /// Advances the state machine: reads until one whole frame is
    /// buffered, validates it, decodes it. Errors are terminal for the
    /// stream — a length-prefixed protocol cannot resynchronise after a
    /// corrupt frame, so the caller should close the connection.
    pub fn poll_frame(&mut self, r: &mut impl Read) -> Result<FramePoll, WireError> {
        loop {
            if self.inbuf.len() < self.need {
                match read_append(r, &mut self.inbuf, self.need)? {
                    ReadProgress::Pending => return Ok(FramePoll::Pending),
                    ReadProgress::Eof => {
                        return if self.inbuf.is_empty() {
                            Ok(FramePoll::Closed)
                        } else {
                            Err(WireError::Truncated {
                                needed: self.need,
                                have: self.inbuf.len(),
                            })
                        };
                    }
                    ReadProgress::Done => {}
                }
            }
            if self.header.is_none() {
                let header = self.parse_header()?;
                self.need = HEADER_LEN + header.1;
                self.header = Some(header);
                continue;
            }
            let (kind, payload_len, expected_sum) = self.header.take().expect("header parsed");
            let frame = {
                let payload = &self.inbuf[HEADER_LEN..HEADER_LEN + payload_len];
                let found_sum = checksum(payload);
                if found_sum != expected_sum {
                    return Err(WireError::ChecksumMismatch {
                        expected: expected_sum,
                        found: found_sum,
                    });
                }
                match kind {
                    FrameKind::Batch => Self::decode_batch_payload(
                        payload,
                        self.group_count,
                        &mut self.offsets,
                        &mut self.groups,
                        &mut self.counts,
                        &mut self.estimates,
                        &mut self.nodes,
                        &mut self.batch,
                    )?,
                    FrameKind::Ack | FrameKind::Nack => Self::decode_response(kind, payload)?,
                    FrameKind::StatsRequest => {
                        if !payload.is_empty() {
                            return Err(WireError::BadPayload {
                                kind,
                                len: payload.len(),
                            });
                        }
                        WireFrame::StatsRequest
                    }
                    FrameKind::StatsReply => {
                        self.stats.clear();
                        self.stats.extend_from_slice(payload);
                        WireFrame::StatsReply {
                            bytes: payload.len() as u32,
                        }
                    }
                    FrameKind::HealthRequest => {
                        if payload.len() != 1 {
                            return Err(WireError::BadPayload {
                                kind,
                                len: payload.len(),
                            });
                        }
                        WireFrame::HealthRequest {
                            format: HealthFormat::from_code(payload[0]).ok_or(
                                WireError::InvalidEnum {
                                    field: "health format",
                                    found: payload[0],
                                },
                            )?,
                        }
                    }
                    FrameKind::HealthReply => {
                        self.health.clear();
                        self.health.extend_from_slice(payload);
                        WireFrame::HealthReply {
                            bytes: payload.len() as u32,
                        }
                    }
                }
            };
            self.inbuf.clear();
            self.need = HEADER_LEN;
            return Ok(FramePoll::Frame(frame));
        }
    }

    fn parse_header(&self) -> Result<(FrameKind, usize, u32), WireError> {
        let h = &self.inbuf[..HEADER_LEN];
        if h[0..4] != WIRE_MAGIC {
            return Err(WireError::BadMagic {
                found: [h[0], h[1], h[2], h[3]],
            });
        }
        let version = u16::from_le_bytes([h[4], h[5]]);
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        let kind = FrameKind::from_code(h[6]).ok_or(WireError::UnknownKind { found: h[6] })?;
        let payload_len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
        if payload_len > MAX_FRAME_PAYLOAD {
            return Err(WireError::OversizedFrame {
                len: payload_len,
                max: MAX_FRAME_PAYLOAD,
            });
        }
        let sum = u32::from_le_bytes([h[12], h[13], h[14], h[15]]);
        Ok((kind, payload_len as usize, sum))
    }

    #[allow(clippy::too_many_arguments)] // free fns over &mut self fields: the payload borrows inbuf
    fn decode_batch_payload(
        payload: &[u8],
        group_count: usize,
        offsets: &mut Vec<u32>,
        groups: &mut Vec<u32>,
        counts: &mut Vec<u32>,
        estimates: &mut Vec<Point2>,
        nodes: &mut Vec<NodeId>,
        batch: &mut ObservationBatch,
    ) -> Result<WireFrame, WireError> {
        if payload.len() < 20 {
            return Err(WireError::BadPayload {
                kind: FrameKind::Batch,
                len: payload.len(),
            });
        }
        let round = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        let frame_groups = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
        let rows = u32::from_le_bytes(payload[12..16].try_into().expect("4 bytes"));
        let nnz = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes"));
        if frame_groups as usize != group_count {
            return Err(WireError::GroupCountMismatch {
                frame: frame_groups,
                engine: group_count as u32,
            });
        }
        // Validate the declared sizes in u64 before trusting them — a
        // lying header must fail typed, not wrap or slice out of bounds.
        let expected = 20u64 + (rows as u64) * 24 + 4 + (nnz as u64) * 8;
        if expected != payload.len() as u64 {
            return Err(WireError::LengthOverflow {
                rows: rows as u64,
                nnz: nnz as u64,
                payload: payload.len(),
            });
        }
        let rows = rows as usize;
        let nnz = nnz as usize;
        let mut at = 20usize;
        nodes.clear();
        nodes.extend(
            payload[at..at + rows * 4]
                .chunks_exact(4)
                .map(|b| NodeId(u32::from_le_bytes(b.try_into().expect("4 bytes")))),
        );
        at += rows * 4;
        let mut take_u32s = |out: &mut Vec<u32>, n: usize| {
            out.clear();
            out.extend(
                payload[at..at + n * 4]
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes"))),
            );
            at += n * 4;
        };
        take_u32s(offsets, rows + 1);
        take_u32s(groups, nnz);
        take_u32s(counts, nnz);
        estimates.clear();
        estimates.extend(payload[at..].chunks_exact(16).map(|b| Point2 {
            x: f64::from_le_bytes(b[0..8].try_into().expect("8 bytes")),
            y: f64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
        }));
        batch.clear();
        batch.try_extend_csr(offsets, groups, counts, estimates)?;
        Ok(WireFrame::Batch {
            round,
            rows: rows as u32,
        })
    }

    fn decode_response(kind: FrameKind, payload: &[u8]) -> Result<WireFrame, WireError> {
        let expected_len = match kind {
            FrameKind::Ack => 13,
            FrameKind::Nack => 21,
            _ => unreachable!("only receipts take the response path"),
        };
        if payload.len() != expected_len {
            return Err(WireError::BadPayload {
                kind,
                len: payload.len(),
            });
        }
        let round = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        let rows = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
        let flag = payload[12];
        Ok(match kind {
            FrameKind::Ack if flag != 0 => {
                return Err(WireError::InvalidEnum {
                    field: "ack reserved byte",
                    found: flag,
                })
            }
            FrameKind::Ack => WireFrame::Ack { round, rows },
            FrameKind::Nack => WireFrame::Nack {
                round,
                rows,
                reason: ShedReason::from_code(flag).ok_or(WireError::InvalidEnum {
                    field: "nack shed reason",
                    found: flag,
                })?,
                shed_total: u64::from_le_bytes(payload[13..21].try_into().expect("8 bytes")),
            },
            _ => unreachable!("only receipts take the response path"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_batch() -> (Vec<NodeId>, ObservationBatch) {
        let mut batch = ObservationBatch::new(6);
        batch.push_sparse(&[0, 3], &[2, 7], Point2::new(10.0, 20.0));
        batch.push_sparse(&[], &[], Point2::new(-1.5, 3.25));
        batch.push_sparse(&[1, 2, 5], &[1, 1, 4], Point2::new(0.0, 0.0));
        let nodes = vec![NodeId(11), NodeId(0), NodeId(999)];
        (nodes, batch)
    }

    #[test]
    fn batch_frames_round_trip_bit_identically() {
        let (nodes, batch) = sample_batch();
        let mut wire = Vec::new();
        encode_batch(&mut wire, 42, &nodes, &batch);

        let mut decoder = WireDecoder::new(6);
        let polled = decoder.poll_frame(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(
            polled,
            FramePoll::Frame(WireFrame::Batch { round: 42, rows: 3 })
        );
        assert_eq!(decoder.nodes(), &nodes[..]);
        // PartialEq covers the full CSR layout: offsets, pairs, recomputed
        // totals and estimates.
        assert_eq!(decoder.batch(), &batch);
    }

    #[test]
    fn responses_round_trip_and_streams_interleave() {
        let (nodes, batch) = sample_batch();
        let mut wire = Vec::new();
        encode_ack(&mut wire, 7, 128);
        encode_batch(&mut wire, 8, &nodes, &batch);
        encode_nack(&mut wire, 9, 64, ShedReason::Overloaded, 640);

        let mut decoder = WireDecoder::new(6);
        let mut cursor = Cursor::new(&wire);
        assert_eq!(
            decoder.poll_frame(&mut cursor).unwrap(),
            FramePoll::Frame(WireFrame::Ack {
                round: 7,
                rows: 128
            })
        );
        assert_eq!(
            decoder.poll_frame(&mut cursor).unwrap(),
            FramePoll::Frame(WireFrame::Batch { round: 8, rows: 3 })
        );
        assert_eq!(
            decoder.poll_frame(&mut cursor).unwrap(),
            FramePoll::Frame(WireFrame::Nack {
                round: 9,
                rows: 64,
                reason: ShedReason::Overloaded,
                shed_total: 640,
            })
        );
        assert_eq!(decoder.poll_frame(&mut cursor).unwrap(), FramePoll::Closed);
    }

    #[test]
    fn stats_frames_round_trip_and_reuse_the_landing_buffer() {
        let mut wire = Vec::new();
        encode_stats_request(&mut wire);
        encode_stats_reply(&mut wire, br#"{"counters":{}}"#);
        encode_stats_reply(&mut wire, br#"{}"#);

        let mut decoder = WireDecoder::new(6);
        let mut cursor = Cursor::new(&wire);
        assert_eq!(
            decoder.poll_frame(&mut cursor).unwrap(),
            FramePoll::Frame(WireFrame::StatsRequest)
        );
        assert_eq!(
            decoder.poll_frame(&mut cursor).unwrap(),
            FramePoll::Frame(WireFrame::StatsReply { bytes: 15 })
        );
        assert_eq!(decoder.stats_json(), br#"{"counters":{}}"#);
        // The buffer is reused, not appended to.
        assert_eq!(
            decoder.poll_frame(&mut cursor).unwrap(),
            FramePoll::Frame(WireFrame::StatsReply { bytes: 2 })
        );
        assert_eq!(decoder.stats_json(), b"{}");
        assert_eq!(decoder.poll_frame(&mut cursor).unwrap(), FramePoll::Closed);

        // A StatsRequest with a payload is malformed.
        let mut bad = Vec::new();
        let start = bad.len();
        bad.extend_from_slice(&WIRE_MAGIC);
        bad.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bad.push(4);
        bad.push(0);
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&checksum(&[7]).to_le_bytes());
        bad.push(7);
        let _ = start;
        assert!(matches!(
            WireDecoder::new(6).poll_frame(&mut Cursor::new(&bad)),
            Err(WireError::BadPayload {
                kind: FrameKind::StatsRequest,
                len: 1
            })
        ));
    }

    #[test]
    fn health_frames_round_trip_and_validate_the_format_byte() {
        let mut wire = Vec::new();
        encode_health_request(&mut wire, HealthFormat::Report);
        encode_health_request(&mut wire, HealthFormat::Prometheus);
        encode_health_reply(&mut wire, br#"{"status":"Healthy","causes":[]}"#);
        encode_health_reply(&mut wire, b"lad_health_status 0\n");

        let mut decoder = WireDecoder::new(6);
        let mut cursor = Cursor::new(&wire);
        assert_eq!(
            decoder.poll_frame(&mut cursor).unwrap(),
            FramePoll::Frame(WireFrame::HealthRequest {
                format: HealthFormat::Report
            })
        );
        assert_eq!(
            decoder.poll_frame(&mut cursor).unwrap(),
            FramePoll::Frame(WireFrame::HealthRequest {
                format: HealthFormat::Prometheus
            })
        );
        assert_eq!(
            decoder.poll_frame(&mut cursor).unwrap(),
            FramePoll::Frame(WireFrame::HealthReply { bytes: 32 })
        );
        assert_eq!(
            decoder.health_body(),
            br#"{"status":"Healthy","causes":[]}"#
        );
        // The landing buffer is reused, not appended to.
        assert_eq!(
            decoder.poll_frame(&mut cursor).unwrap(),
            FramePoll::Frame(WireFrame::HealthReply { bytes: 20 })
        );
        assert_eq!(decoder.health_body(), b"lad_health_status 0\n");
        assert_eq!(decoder.poll_frame(&mut cursor).unwrap(), FramePoll::Closed);

        // An undefined format byte is a typed rejection.
        let mut bad = Vec::new();
        bad.extend_from_slice(&WIRE_MAGIC);
        bad.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bad.push(6);
        bad.push(0);
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&checksum(&[9]).to_le_bytes());
        bad.push(9);
        assert_eq!(
            WireDecoder::new(6)
                .poll_frame(&mut Cursor::new(&bad))
                .unwrap_err(),
            WireError::InvalidEnum {
                field: "health format",
                found: 9
            }
        );
    }

    #[test]
    fn header_rejections_are_typed() {
        let (nodes, batch) = sample_batch();
        let mut wire = Vec::new();
        encode_batch(&mut wire, 1, &nodes, &batch);

        // Bad magic.
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(matches!(
            WireDecoder::new(6).poll_frame(&mut Cursor::new(&bad)),
            Err(WireError::BadMagic { .. })
        ));
        // Future version.
        let mut bad = wire.clone();
        bad[4] = 9;
        assert_eq!(
            WireDecoder::new(6)
                .poll_frame(&mut Cursor::new(&bad))
                .unwrap_err(),
            WireError::UnsupportedVersion { found: 9 }
        );
        // Unknown kind.
        let mut bad = wire.clone();
        bad[6] = 77;
        assert_eq!(
            WireDecoder::new(6)
                .poll_frame(&mut Cursor::new(&bad))
                .unwrap_err(),
            WireError::UnknownKind { found: 77 }
        );
        // Corrupt payload byte → checksum mismatch.
        let mut bad = wire.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(matches!(
            WireDecoder::new(6).poll_frame(&mut Cursor::new(&bad)),
            Err(WireError::ChecksumMismatch { .. })
        ));
        // Wrong deployment.
        assert!(matches!(
            WireDecoder::new(7).poll_frame(&mut Cursor::new(&wire)),
            Err(WireError::GroupCountMismatch {
                frame: 6,
                engine: 7
            })
        ));
    }

    #[test]
    fn truncation_at_every_split_is_typed_never_panicking() {
        let (nodes, batch) = sample_batch();
        let mut wire = Vec::new();
        encode_batch(&mut wire, 3, &nodes, &batch);
        for cut in 1..wire.len() {
            let err = WireDecoder::new(6)
                .poll_frame(&mut Cursor::new(&wire[..cut]))
                .unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn pending_mid_frame_resumes_where_it_stopped() {
        // A reader that yields WouldBlock between two halves of the frame:
        // the decoder must report Pending, keep the partial bytes, and
        // finish on the next poll.
        struct Stutter<'a> {
            parts: Vec<&'a [u8]>,
            blocked: bool,
        }
        impl Read for Stutter<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.parts.is_empty() {
                    return Ok(0);
                }
                if self.blocked {
                    self.blocked = false;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
                }
                let part = self.parts.remove(0);
                let n = part.len().min(out.len());
                out[..n].copy_from_slice(&part[..n]);
                if n < part.len() {
                    self.parts.insert(0, &part[n..]);
                }
                self.blocked = true;
                Ok(n)
            }
        }

        let (nodes, batch) = sample_batch();
        let mut wire = Vec::new();
        encode_batch(&mut wire, 5, &nodes, &batch);
        let mid = wire.len() / 2;
        let mut reader = Stutter {
            parts: vec![&wire[..mid], &wire[mid..]],
            blocked: false,
        };
        let mut decoder = WireDecoder::new(6);
        let mut frames = Vec::new();
        let mut pendings = 0;
        loop {
            match decoder.poll_frame(&mut reader).unwrap() {
                FramePoll::Frame(frame) => frames.push(frame),
                FramePoll::Pending => {
                    pendings += 1;
                    assert!(decoder.has_partial() || frames.is_empty());
                }
                FramePoll::Closed => break,
            }
        }
        assert_eq!(frames, vec![WireFrame::Batch { round: 5, rows: 3 }]);
        assert!(pendings > 0, "the stutter reader must have blocked");
        assert_eq!(decoder.batch(), &batch);
    }
}
