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
//! | 4      | 2    | format version (`u16`, currently 5) |
//! | 6      | 1    | frame kind (1 = Batch, 2 = Ack, 3 = Nack, 4 = StatsRequest, 5 = StatsReply, 6 = HealthRequest, 7 = HealthReply) |
//! | 7      | 1    | reserved (written 0, ignored on read) |
//! | 8      | 4    | payload length (`u32`, capped at [`MAX_FRAME_PAYLOAD`]) |
//! | 12     | 4    | payload checksum (`u32`, four-lane FNV-1a-64; see [`checksum`]) |
//!
//! A **Batch** payload is one round's reports in the CSR layout
//! [`ObservationBatch`] stores them, with each stored `(group, count)`
//! pair narrowed to two `u16`s. The decoder widens the pairs straight
//! into its batch's arrays and validates them there in one pass
//! ([`ObservationBatch::try_extend_csr`]), with zero per-report
//! allocation:
//!
//! | size | field |
//! |-----:|-------|
//! | 8    | round (`u64`) |
//! | 4    | deployment group count (`u32`, at most 65 536) |
//! | 4    | row count `R` (`u32`) |
//! | 4    | stored pair count `N` (`u32`) |
//! | 4·R  | node ids (`u32` each) |
//! | 4·(R+1) | CSR row offsets (`u32` each, first 0) |
//! | 2·N  | group indices (`u16` each) |
//! | 2·N  | nonzero counts (`u16` each) |
//! | 16·R | estimates (`f64` x, `f64` y) |
//!
//! So a Batch payload is `24 + 24·R + 4·N` bytes: 54 B per report at the
//! paper's ~7.5 stored pairs per row. Per-row totals are *not* on the wire
//! — they are derived data and the decoder recomputes them, so a peer
//! cannot desynchronise a batch's invariants. Estimates are bit-exact
//! `f64`s and are *not* range-checked: NaN, ±∞ and huge finite
//! coordinates decode as-is and score as a claim far from every group,
//! i.e. as anomalous (see `lad_serve`'s `ServeRuntime::submit_rows`).
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
//! # Version history
//!
//! * v1: Batch, Ack and a 13-byte Nack.
//! * v2: the Nack grew the shed/degraded running totals; StatsRequest and
//!   StatsReply arrived.
//! * v3: HealthRequest/HealthReply (typed health verdict and Prometheus
//!   exposition over the same socket).
//! * v4: the degrade tier went: the Ack `degraded` flag became a reserved
//!   must-be-zero byte and the Nack lost `degraded_total` (29 → 21 bytes).
//! * v5: Batch pairs narrowed from two `u32`s to two `u16`s (84 → 54 B per
//!   paper-scale report), and the checksum became four FNV lanes.
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
/// rejected with the typed [`WireError::UnsupportedVersion`]. See the
/// [module docs](self#version-history) for what each version changed.
pub const WIRE_VERSION: u16 = 5;

/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 16;

/// Hard cap on a frame's payload length (64 MiB). A Batch row costs
/// `24 + 4·k` bytes for `k` stored pairs, so the cap holds ~1.2M rows at
/// the paper's ~7.5 pairs per row, and at most ~2.8M rows of any shape. A
/// header declaring more is rejected as soon as the header arrives. The
/// cap bounds one connection's buffer; the decoder grows that buffer only
/// as payload bytes arrive (at most doubling), so a header alone cannot
/// make it hold more than 64 KiB.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 26;

/// The most deployment groups a Batch frame can carry: group indices
/// travel as `u16`.
const MAX_GROUPS: usize = 1 << 16;

/// The decoder's read-ahead floor: its buffer is at least this large, so
/// one `read` can take several receipts, or a header with its payload.
const READ_AHEAD: usize = 64 * 1024;

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
    /// The batch does not fit a Batch frame's `u16` pairs: its deployment
    /// has more than 65 536 groups, or a row stores a count above
    /// `u16::MAX`. The client refuses it before writing anything.
    Unencodable {
        /// The batch's deployment group count.
        group_count: usize,
        /// The largest count any row of the batch stores.
        max_count: u32,
    },
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
            WireError::Unencodable {
                group_count,
                max_count,
            } => write!(
                f,
                "batch over {group_count} groups with counts up to {max_count} does not fit \
                 u16 pairs (at most {MAX_GROUPS} groups and counts up to {})",
                u16::MAX
            ),
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

/// The frame checksum: four FNV-1a-64 lanes, folded, folded to 32 bits.
///
/// * Lane `j` (0 ≤ `j` < 4) starts at the FNV-1a-64 offset basis and
///   absorbs the little-endian `u64` words `j, j + 4, j + 8, …` of the
///   payload's whole 32-byte blocks: `lane = (lane ^ word) · prime`.
/// * The fold is one more FNV-1a-64 chain from the offset basis that
///   absorbs lanes 0–3 as words, then the trailing `len % 32` bytes one
///   at a time.
/// * The 64-bit result is folded to 32 bits by XORing its halves.
///
/// The four lanes are independent multiply chains, so a 32-byte block
/// costs about one multiply latency instead of four. Not cryptographic
/// (authenticity is out of scope for the frame layer): it catches
/// corruption and framing bugs deterministically on every platform.
pub fn checksum(bytes: &[u8]) -> u32 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [BASIS; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ word).wrapping_mul(PRIME);
        }
    }
    let mut hash = BASIS;
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(PRIME);
    }
    for &byte in blocks.remainder() {
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
/// `batch` in round `round`. The CSR arrays are written section by
/// section, pairs narrowed to `u16` (totals excluded — recomputed on
/// decode).
///
/// # Panics
/// Panics when `nodes.len() != batch.len()`, when the payload would
/// exceed [`MAX_FRAME_PAYLOAD`], or when the batch's pairs do not fit
/// `u16`s (more than 65 536 groups, or a count above `u16::MAX`) — all
/// caller bugs, not wire conditions. [`WireClient`](crate::WireClient)
/// refuses the last case typed instead, with [`WireError::Unencodable`].
pub fn encode_batch(buf: &mut Vec<u8>, round: u64, nodes: &[NodeId], batch: &ObservationBatch) {
    if let Err(err) = try_encode_batch(buf, round, nodes, batch) {
        panic!("{err}");
    }
}

/// [`encode_batch`], except that a batch whose pairs do not fit `u16`s is
/// refused with [`WireError::Unencodable`] and leaves `buf` untouched.
pub(crate) fn try_encode_batch(
    buf: &mut Vec<u8>,
    round: u64,
    nodes: &[NodeId],
    batch: &ObservationBatch,
) -> Result<(), WireError> {
    assert_eq!(
        nodes.len(),
        batch.len(),
        "one node per observation row required"
    );
    let csr = batch.as_csr();
    let max_count = csr.counts.iter().copied().max().unwrap_or(0);
    if batch.group_count() > MAX_GROUPS || max_count > u16::MAX as u32 {
        return Err(WireError::Unencodable {
            group_count: batch.group_count(),
            max_count,
        });
    }
    let (rows, nnz) = (batch.len(), batch.nnz());
    let payload = 24 + 24 * rows + 4 * nnz;
    assert!(
        payload <= MAX_FRAME_PAYLOAD as usize,
        "batch payload of {payload} bytes exceeds the {MAX_FRAME_PAYLOAD} frame cap"
    );
    let start = put_header_placeholder(buf, FrameKind::Batch);
    buf.resize(start + HEADER_LEN + payload, 0);
    let (preamble, body) = buf[start + HEADER_LEN..].split_at_mut(20);
    preamble[0..8].copy_from_slice(&round.to_le_bytes());
    preamble[8..12].copy_from_slice(&(batch.group_count() as u32).to_le_bytes());
    preamble[12..16].copy_from_slice(&(rows as u32).to_le_bytes());
    preamble[16..20].copy_from_slice(&(nnz as u32).to_le_bytes());
    let (node_out, body) = body.split_at_mut(4 * rows);
    for (out, node) in node_out.chunks_exact_mut(4).zip(nodes) {
        out.copy_from_slice(&node.0.to_le_bytes());
    }
    let (offset_out, body) = body.split_at_mut(4 * (rows + 1));
    for (out, offset) in offset_out.chunks_exact_mut(4).zip(csr.offsets) {
        out.copy_from_slice(&offset.to_le_bytes());
    }
    let (group_out, body) = body.split_at_mut(2 * nnz);
    for (out, &group) in group_out.chunks_exact_mut(2).zip(csr.groups) {
        out.copy_from_slice(&(group as u16).to_le_bytes());
    }
    let (count_out, estimate_out) = body.split_at_mut(2 * nnz);
    for (out, &count) in count_out.chunks_exact_mut(2).zip(csr.counts) {
        out.copy_from_slice(&(count as u16).to_le_bytes());
    }
    for (out, estimate) in estimate_out.chunks_exact_mut(16).zip(csr.estimates) {
        out[..8].copy_from_slice(&estimate.x.to_le_bytes());
        out[8..].copy_from_slice(&estimate.y.to_le_bytes());
    }
    finish_frame(buf, start);
    Ok(())
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

/// A parsed frame header: kind, payload length, declared checksum.
#[derive(Clone, Copy)]
struct Header {
    kind: FrameKind,
    len: usize,
    sum: u32,
}

fn parse_header(h: &[u8]) -> Result<Header, WireError> {
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
    let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::OversizedFrame {
            len,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    Ok(Header {
        kind,
        len: len as usize,
        sum: u32::from_le_bytes([h[12], h[13], h[14], h[15]]),
    })
}

/// The streaming frame decoder: an incremental state machine over any
/// `Read` that survives read timeouts mid-frame and reuses every buffer,
/// so a long-lived connection decodes batches with **zero per-report
/// allocation** after warm-up. Estimates land verbatim, non-finite ones
/// included (see the [module docs](self) for how they score).
///
/// **Read-ahead.** The decoder reads straight into its own buffer, as
/// many bytes as the stream has up to the buffer's free space, and decodes
/// frames in place: one `read` can complete several receipts, or a header
/// together with its payload, and the bytes past a decoded frame wait for
/// the next poll (no read happens while a whole frame is buffered).
/// Partial bytes survive [`FramePoll::Pending`]. The buffer starts at
/// 64 KiB and grows only when it is full of an incomplete frame, at most
/// doubling and never past that frame: it never holds more than 64 KiB or
/// twice the bytes received, and stays within
/// `HEADER_LEN + max(MAX_FRAME_PAYLOAD, 64 KiB)` bytes.
pub struct WireDecoder {
    /// Read-ahead buffer; bytes `pos..end` are received, not yet decoded.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// Parsed header of the frame at `pos`, once its 16 bytes arrived.
    header: Option<Header>,
    landing: Landing,
}

/// Where decoded payloads land, reused across frames.
struct Landing {
    group_count: usize,
    nodes: Vec<NodeId>,
    batch: ObservationBatch,
    /// The most recent StatsReply payload.
    stats: Vec<u8>,
    /// The most recent HealthReply payload.
    health: Vec<u8>,
}

impl WireDecoder {
    /// A decoder for batches over `group_count` deployment groups (frames
    /// declaring any other group count are rejected with
    /// [`WireError::GroupCountMismatch`] — a server wires in its engine's
    /// deployment here).
    pub fn new(group_count: usize) -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            end: 0,
            header: None,
            landing: Landing {
                group_count,
                nodes: Vec::new(),
                batch: ObservationBatch::new(group_count),
                stats: Vec::new(),
                health: Vec::new(),
            },
        }
    }

    /// The node ids of the most recently decoded Batch frame, row order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.landing.nodes
    }

    /// The rows of the most recently decoded Batch frame.
    pub fn batch(&self) -> &ObservationBatch {
        &self.landing.batch
    }

    /// The payload of the most recently decoded StatsReply frame (JSON
    /// bytes, reused across frames like the batch buffers).
    pub fn stats_json(&self) -> &[u8] {
        &self.landing.stats
    }

    /// The payload of the most recently decoded HealthReply frame (JSON
    /// or Prometheus text per the request's [`HealthFormat`]; reused
    /// across frames like the batch buffers).
    pub fn health_body(&self) -> &[u8] {
        &self.landing.health
    }

    /// Whether received bytes wait in the buffer that no returned frame
    /// covers — an incomplete frame, or frames read ahead. A shutdown drain
    /// uses this to decide between closing now and finishing the in-flight
    /// frame.
    pub fn has_partial(&self) -> bool {
        self.end > self.pos
    }

    /// Advances the state machine: decodes the next buffered frame, reading
    /// only when no whole frame is buffered. Errors are terminal for the
    /// stream — a length-prefixed protocol cannot resynchronise after a
    /// corrupt frame, so the caller should close the connection.
    pub fn poll_frame(&mut self, r: &mut impl Read) -> Result<FramePoll, WireError> {
        loop {
            let buffered = self.end - self.pos;
            if self.header.is_none() && buffered >= HEADER_LEN {
                self.header = Some(parse_header(&self.buf[self.pos..self.pos + HEADER_LEN])?);
            }
            let need = HEADER_LEN + self.header.map_or(0, |h| h.len);
            if let Some(header) = self.header.filter(|_| buffered >= need) {
                let at = self.pos + HEADER_LEN;
                let frame = self
                    .landing
                    .decode(header, &self.buf[at..at + header.len])?;
                self.header = None;
                self.pos += need;
                if self.pos == self.end {
                    (self.pos, self.end) = (0, 0);
                }
                return Ok(FramePoll::Frame(frame));
            }
            if self.pos + need > self.buf.len() {
                // The frame does not fit behind `pos`: move its bytes to the
                // front.
                self.buf.copy_within(self.pos..self.end, 0);
                (self.pos, self.end) = (0, buffered);
            }
            if self.end == self.buf.len() {
                // Full, and the frame still incomplete: grow toward it, at
                // most doubling, so the buffer tracks the bytes received,
                // not the length a header declares.
                let len = (2 * self.buf.len()).min(need).max(READ_AHEAD);
                self.buf.resize(len, 0);
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if buffered == 0 => return Ok(FramePoll::Closed),
                Ok(0) => {
                    return Err(WireError::Truncated {
                        needed: need,
                        have: buffered,
                    })
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(FramePoll::Pending)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl Landing {
    /// Verifies a whole frame's payload and decodes it.
    fn decode(&mut self, header: Header, payload: &[u8]) -> Result<WireFrame, WireError> {
        let found = checksum(payload);
        if found != header.sum {
            return Err(WireError::ChecksumMismatch {
                expected: header.sum,
                found,
            });
        }
        let kind = header.kind;
        let bad_payload = || WireError::BadPayload {
            kind,
            len: payload.len(),
        };
        Ok(match kind {
            FrameKind::Batch => self.batch(payload)?,
            FrameKind::Ack | FrameKind::Nack => decode_response(kind, payload)?,
            FrameKind::StatsRequest if payload.is_empty() => WireFrame::StatsRequest,
            FrameKind::StatsRequest => return Err(bad_payload()),
            FrameKind::StatsReply => {
                self.stats.clear();
                self.stats.extend_from_slice(payload);
                WireFrame::StatsReply {
                    bytes: payload.len() as u32,
                }
            }
            FrameKind::HealthRequest if payload.len() == 1 => WireFrame::HealthRequest {
                format: HealthFormat::from_code(payload[0]).ok_or(WireError::InvalidEnum {
                    field: "health format",
                    found: payload[0],
                })?,
            },
            FrameKind::HealthRequest => return Err(bad_payload()),
            FrameKind::HealthReply => {
                self.health.clear();
                self.health.extend_from_slice(payload);
                WireFrame::HealthReply {
                    bytes: payload.len() as u32,
                }
            }
        })
    }

    /// Lands a Batch payload: node ids into `nodes`, the CSR sections
    /// widened straight into `batch` and validated there. A payload that
    /// fails leaves `batch` empty.
    fn batch(&mut self, payload: &[u8]) -> Result<WireFrame, WireError> {
        if payload.len() < 20 {
            return Err(WireError::BadPayload {
                kind: FrameKind::Batch,
                len: payload.len(),
            });
        }
        let u32_at =
            |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
        let round = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
        let (frame_groups, rows, nnz) = (u32_at(8), u32_at(12), u32_at(16));
        if frame_groups as usize != self.group_count {
            return Err(WireError::GroupCountMismatch {
                frame: frame_groups,
                engine: self.group_count as u32,
            });
        }
        // Validate the declared sizes in u64 before trusting them — a
        // lying header must fail typed, not wrap or slice out of bounds.
        if 24 + 24 * rows as u64 + 4 * nnz as u64 != payload.len() as u64 {
            return Err(WireError::LengthOverflow {
                rows: rows as u64,
                nnz: nnz as u64,
                payload: payload.len(),
            });
        }
        let (rows, nnz) = (rows as usize, nnz as usize);
        let (node_bytes, rest) = payload[20..].split_at(4 * rows);
        let (offset_bytes, rest) = rest.split_at(4 * (rows + 1));
        let (group_bytes, rest) = rest.split_at(2 * nnz);
        let (count_bytes, estimate_bytes) = rest.split_at(2 * nnz);
        let le_u32 = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
        let le_u16 = |b: &[u8]| u16::from_le_bytes(b.try_into().expect("2 bytes")) as u32;
        let le_f64 = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8 bytes"));
        self.nodes.clear();
        self.nodes
            .extend(node_bytes.chunks_exact(4).map(|b| NodeId(le_u32(b))));
        self.batch.clear();
        self.batch.try_extend_csr(
            offset_bytes.chunks_exact(4).map(le_u32),
            group_bytes.chunks_exact(2).map(le_u16),
            count_bytes.chunks_exact(2).map(le_u16),
            estimate_bytes
                .chunks_exact(16)
                .map(|b| Point2::new(le_f64(&b[..8]), le_f64(&b[8..]))),
        )?;
        Ok(WireFrame::Batch {
            round,
            rows: rows as u32,
        })
    }
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

    /// A reader that hands out its data in the cycled chunk `sizes`,
    /// optionally answering every other call with `WouldBlock`, and counts
    /// the reads that returned data.
    struct Ragged<'a> {
        data: &'a [u8],
        at: usize,
        sizes: &'a [usize],
        calls: usize,
        stutter: bool,
        reads: usize,
    }

    impl Read for Ragged<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.stutter && self.calls.is_multiple_of(2) {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
            }
            let size = self.sizes[self.reads % self.sizes.len()];
            let n = size.min(out.len()).min(self.data.len() - self.at);
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            self.reads += 1;
            Ok(n)
        }
    }

    fn ragged<'a>(data: &'a [u8], sizes: &'a [usize], stutter: bool) -> Ragged<'a> {
        Ragged {
            data,
            at: 0,
            sizes,
            calls: 0,
            stutter,
            reads: 0,
        }
    }

    #[test]
    fn read_ahead_yields_every_frame_in_order_over_any_chunking() {
        let (nodes, batch) = sample_batch();
        // A StatsReply larger than the read-ahead floor makes the buffer grow.
        let big = vec![b'x'; READ_AHEAD + 1000];
        let mut wire = Vec::new();
        // Each expected frame with the stream offset where it ends.
        let mut expected = Vec::new();
        for round in 0..6u64 {
            encode_ack(&mut wire, round, 3);
            expected.push((WireFrame::Ack { round, rows: 3 }, wire.len()));
            encode_batch(&mut wire, round, &nodes, &batch);
            expected.push((WireFrame::Batch { round, rows: 3 }, wire.len()));
            encode_nack(&mut wire, round, 3, ShedReason::Overloaded, round);
            let nack = WireFrame::Nack {
                round,
                rows: 3,
                reason: ShedReason::Overloaded,
                shed_total: round,
            };
            expected.push((nack, wire.len()));
            if round == 2 {
                encode_stats_reply(&mut wire, &big);
                let bytes = big.len() as u32;
                expected.push((WireFrame::StatsReply { bytes }, wire.len()));
            }
        }
        let bound = HEADER_LEN + big.len();
        // 5 splits the first header; the others cut headers and payloads
        // at assorted points, down to one byte per read.
        let schedules: [&[usize]; 5] =
            [&[5, 4096], &[1], &[3, 17, 250, 7000, 2], &[40], &[1 << 20]];
        for sizes in schedules {
            for stutter in [false, true] {
                let mut reader = ragged(&wire, sizes, stutter);
                let mut decoder = WireDecoder::new(6);
                let mut got = 0usize;
                loop {
                    let polled = decoder.poll_frame(&mut reader).unwrap();
                    // Bytes of the stream that returned frames covered.
                    let returned = got.checked_sub(1).map_or(0, |i| expected[i].1);
                    match polled {
                        FramePoll::Frame(frame) => {
                            assert_eq!(frame, expected[got].0, "{sizes:?}: frame {got}");
                            got += 1;
                            let returned = expected[got - 1].1;
                            assert_eq!(decoder.has_partial(), reader.at > returned);
                        }
                        FramePoll::Pending => {
                            // Only an incomplete frame can be waiting here.
                            let whole = expected.get(got).is_some_and(|&(_, end)| reader.at >= end);
                            assert!(!whole, "{sizes:?}: a whole frame was held back");
                            assert_eq!(decoder.has_partial(), reader.at > returned);
                        }
                        FramePoll::Closed => break,
                    }
                    assert!(
                        decoder.buf.len() <= bound,
                        "{sizes:?}: buffer past its bound"
                    );
                }
                assert_eq!(got, expected.len(), "{sizes:?}: every frame came out");
                assert!(!decoder.has_partial());
                assert_eq!(decoder.buf.len(), bound);
                assert_eq!(decoder.batch(), &batch);
            }
        }

        // Ten receipts behind one read: the decoder does not read again
        // while a whole frame is buffered.
        let mut acks = Vec::new();
        for round in 0..10 {
            encode_ack(&mut acks, round, 1);
        }
        let mut reader = ragged(&acks, &[usize::MAX], false);
        let mut decoder = WireDecoder::new(0);
        for round in 0..10 {
            assert_eq!(
                decoder.poll_frame(&mut reader).unwrap(),
                FramePoll::Frame(WireFrame::Ack { round, rows: 1 })
            );
        }
        assert_eq!(reader.reads, 1, "one read completed ten receipts");
        assert_eq!(decoder.buf.len(), READ_AHEAD);
    }

    #[test]
    fn a_declared_length_alone_does_not_grow_the_buffer() {
        // A header declaring the largest legal payload, then 1 MiB of it.
        let mut wire = Vec::new();
        wire.extend_from_slice(&WIRE_MAGIC);
        wire.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        wire.push(FrameKind::StatsReply.code());
        wire.push(0);
        wire.extend_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.resize(HEADER_LEN + (1 << 20), b'x');
        let mut reader = ragged(&wire, &[HEADER_LEN + 100, 1 << 14], true);
        let mut decoder = WireDecoder::new(0);
        // The header and 100 payload bytes hold the buffer at its floor.
        assert_eq!(decoder.poll_frame(&mut reader).unwrap(), FramePoll::Pending);
        assert!(decoder.has_partial());
        assert_eq!(decoder.buf.len(), READ_AHEAD);
        // Past the floor it grows with the bytes received, at most doubling.
        while reader.at < wire.len() {
            assert_eq!(decoder.poll_frame(&mut reader).unwrap(), FramePoll::Pending);
            assert!(decoder.buf.len() <= READ_AHEAD.max(2 * reader.at));
        }
        assert!(decoder.buf.len() >= wire.len());
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
