//! Wire-format round-trip and malformed-frame properties.
//!
//! * Random `ObservationBatch`es encode → decode **bit-identically** —
//!   nodes, CSR offsets, pairs, recomputed totals and estimate bits — over
//!   arbitrary read chunkings (the streaming decoder must not care how the
//!   bytes arrive).
//! * The malformed-frame corpus — truncations at every byte, random
//!   single-byte corruption, bad magic/version/kind, oversized and lying
//!   length fields, invalid CSR payloads, undefined enum bytes — always
//!   yields a **typed** [`WireError`], never a panic.
//! * The checksum matches known answers, and the client refuses a batch
//!   whose pairs do not fit `u16`s, typed and without writing a byte.

use lad_geometry::Point2;
use lad_net::{CsrError, NodeId, ObservationBatch};
use lad_wire::{
    checksum, encode_ack, encode_batch, encode_nack, FrameKind, FramePoll, ShedReason, WireClient,
    WireDecoder, WireError, WireFrame, HEADER_LEN, MAX_FRAME_PAYLOAD, WIRE_MAGIC, WIRE_VERSION,
};
use proptest::prelude::*;
use std::io::{Cursor, Read};
use std::net::TcpListener;

/// A reader that hands out at most `chunk` bytes per `read` call — the
/// adversarial fragmentation a TCP stream is allowed to produce.
struct Chunked<'a> {
    data: &'a [u8],
    at: usize,
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = (self.data.len() - self.at).min(self.chunk).min(out.len());
        out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Builds a batch of `rows` rows over `group_count` groups from flat
/// random material (dense counts row-chunked, estimates paired up).
fn build_batch(
    group_count: usize,
    rows: usize,
    dense: &[u32],
    coords: &[f64],
) -> (Vec<NodeId>, ObservationBatch) {
    let mut batch = ObservationBatch::new(group_count);
    let mut nodes = Vec::new();
    for r in 0..rows {
        let mut groups = Vec::new();
        let mut counts = Vec::new();
        for g in 0..group_count {
            let c = dense[(r * group_count + g) % dense.len().max(1)];
            if c != 0 {
                groups.push(g as u32);
                counts.push(c);
            }
        }
        let x = coords[(2 * r) % coords.len()];
        let y = coords[(2 * r + 1) % coords.len()];
        batch.push_sparse(&groups, &counts, Point2::new(x, y));
        nodes.push(NodeId(
            dense[r % dense.len().max(1)].wrapping_mul(2_654_435_761),
        ));
    }
    (nodes, batch)
}

/// A raw frame around an arbitrary payload, with a *correct* checksum —
/// for corpus entries whose defect lives in the payload, not the framing.
fn raw_frame(kind_code: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(kind_code);
    out.push(0);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A batch payload built field by field, so every field can lie. Pairs
/// travel as `u16`s.
#[allow(clippy::too_many_arguments)]
fn batch_payload(
    round: u64,
    group_count: u32,
    rows: u32,
    nnz: u32,
    nodes: &[u32],
    offsets: &[u32],
    groups: &[u16],
    counts: &[u16],
    estimates: &[(f64, f64)],
) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&round.to_le_bytes());
    p.extend_from_slice(&group_count.to_le_bytes());
    p.extend_from_slice(&rows.to_le_bytes());
    p.extend_from_slice(&nnz.to_le_bytes());
    for v in nodes {
        p.extend_from_slice(&v.to_le_bytes());
    }
    for v in offsets {
        p.extend_from_slice(&v.to_le_bytes());
    }
    for v in groups {
        p.extend_from_slice(&v.to_le_bytes());
    }
    for v in counts {
        p.extend_from_slice(&v.to_le_bytes());
    }
    for (x, y) in estimates {
        p.extend_from_slice(&x.to_le_bytes());
        p.extend_from_slice(&y.to_le_bytes());
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_batches_round_trip_bit_identically_over_any_chunking(
        group_count in 1usize..40,
        rows in 0usize..24,
        dense in proptest::collection::vec(0u32..7, 1..600),
        coords in proptest::collection::vec(-1e6f64..1e6, 2..64),
        round in 0u64..u64::MAX,
        chunk in 1usize..96,
    ) {
        let (nodes, batch) = build_batch(group_count, rows, &dense, &coords);
        let mut wire = Vec::new();
        encode_batch(&mut wire, round, &nodes, &batch);

        let mut decoder = WireDecoder::new(group_count);
        let mut reader = Chunked { data: &wire, at: 0, chunk };
        let polled = decoder.poll_frame(&mut reader).expect("valid frame decodes");
        prop_assert_eq!(
            polled,
            FramePoll::Frame(WireFrame::Batch { round, rows: rows as u32 })
        );
        prop_assert_eq!(decoder.nodes(), &nodes[..]);

        // Bit-level identity of the full CSR layout, offsets included.
        let (a, b) = (batch.as_csr(), decoder.batch().as_csr());
        prop_assert_eq!(a.offsets, b.offsets);
        prop_assert_eq!(a.groups, b.groups);
        prop_assert_eq!(a.counts, b.counts);
        // Totals are not on the wire; the decoder recomputes the encoder's.
        prop_assert_eq!(a.totals, b.totals);
        prop_assert_eq!(a.estimates.len(), b.estimates.len());
        for (ea, eb) in a.estimates.iter().zip(b.estimates) {
            prop_assert_eq!(ea.x.to_bits(), eb.x.to_bits());
            prop_assert_eq!(ea.y.to_bits(), eb.y.to_bits());
        }
        prop_assert_eq!(decoder.poll_frame(&mut reader).expect("clean EOF"), FramePoll::Closed);
    }

    #[test]
    fn prop_corrupted_frames_yield_typed_errors_never_panics(
        group_count in 1usize..12,
        rows in 0usize..8,
        dense in proptest::collection::vec(0u32..5, 1..80),
        coords in proptest::collection::vec(-1e3f64..1e3, 2..16),
        victim_frac in 0.0f64..1.0,
        xor in 1u8..255,
    ) {
        let (nodes, batch) = build_batch(group_count, rows, &dense, &coords);
        let mut wire = Vec::new();
        encode_batch(&mut wire, 9, &nodes, &batch);
        encode_ack(&mut wire, 9, rows as u32);
        encode_nack(&mut wire, 10, rows as u32, ShedReason::Overloaded, 64);

        // Flip one byte anywhere in the three-frame stream: every outcome
        // must be a decoded frame or a typed error — the decode loop below
        // completing at all *is* the no-panic assertion.
        let victim = ((wire.len() - 1) as f64 * victim_frac) as usize;
        wire[victim] ^= xor;
        let mut decoder = WireDecoder::new(group_count);
        let mut cursor = Cursor::new(&wire);
        loop {
            match decoder.poll_frame(&mut cursor) {
                Ok(FramePoll::Closed) => break,
                Ok(_) => continue,
                Err(err) => {
                    prop_assert!(!err.to_string().is_empty());
                    break;
                }
            }
        }
    }

    #[test]
    fn prop_truncations_are_always_typed(
        group_count in 1usize..12,
        rows in 1usize..8,
        dense in proptest::collection::vec(0u32..5, 1..80),
        coords in proptest::collection::vec(-1e3f64..1e3, 2..16),
        cut_frac in 0.0f64..1.0,
    ) {
        let (nodes, batch) = build_batch(group_count, rows, &dense, &coords);
        let mut wire = Vec::new();
        encode_batch(&mut wire, 1, &nodes, &batch);
        // Cut strictly inside the frame: 1 ≤ cut ≤ len − 1.
        let cut = 1 + ((wire.len() - 2) as f64 * cut_frac) as usize;
        let err = WireDecoder::new(group_count)
            .poll_frame(&mut Cursor::new(&wire[..cut]))
            .expect_err("mid-frame EOF is an error");
        prop_assert!(
            matches!(err, WireError::Truncated { .. }),
            "cut at {}: {:?}", cut, err
        );
    }
}

#[test]
fn malformed_frame_corpus_yields_exactly_the_right_errors() {
    let est = [(5.0f64, 6.0f64)];

    // --- Framing defects ---------------------------------------------------
    let valid = raw_frame(2, &batch_payload(0, 0, 0, 0, &[], &[], &[], &[], &[])[..13]);
    let mut bad_magic = valid.clone();
    bad_magic[2] = b'!';
    assert!(matches!(
        WireDecoder::new(4).poll_frame(&mut Cursor::new(&bad_magic)),
        Err(WireError::BadMagic { .. })
    ));

    // Any other version is refused from the header — including 4, the
    // last version with `u32` pairs, and 3, the last with the degrade
    // tier's Ack flag and 29-byte Nack.
    assert_eq!(WIRE_VERSION, 5);
    for version in [3u16, 4, 7] {
        let mut bad_version = valid.clone();
        bad_version[4..6].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            WireDecoder::new(4)
                .poll_frame(&mut Cursor::new(&bad_version))
                .unwrap_err(),
            WireError::UnsupportedVersion { found: version }
        );
    }

    let mut bad_kind = valid.clone();
    bad_kind[6] = 0;
    assert_eq!(
        WireDecoder::new(4)
            .poll_frame(&mut Cursor::new(&bad_kind))
            .unwrap_err(),
        WireError::UnknownKind { found: 0 }
    );

    // An oversized declared length is rejected from the header alone —
    // before the decoder's buffer grows for it.
    let mut huge = valid.clone();
    huge[8..12].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    assert_eq!(
        WireDecoder::new(4)
            .poll_frame(&mut Cursor::new(&huge))
            .unwrap_err(),
        WireError::OversizedFrame {
            len: MAX_FRAME_PAYLOAD + 1,
            max: MAX_FRAME_PAYLOAD
        }
    );

    let mut corrupt = valid.clone();
    *corrupt.last_mut().unwrap() ^= 0x80;
    assert!(matches!(
        WireDecoder::new(4).poll_frame(&mut Cursor::new(&corrupt)),
        Err(WireError::ChecksumMismatch { .. })
    ));

    // --- Payload defects (framing valid, checksum correct) -----------------
    // Ack payload of the wrong fixed size.
    let frame = raw_frame(2, &[0u8; 12]);
    assert_eq!(
        WireDecoder::new(4)
            .poll_frame(&mut Cursor::new(&frame))
            .unwrap_err(),
        WireError::BadPayload {
            kind: FrameKind::Ack,
            len: 12
        }
    );
    // Batch payload shorter than its own preamble.
    let frame = raw_frame(1, &[0u8; 19]);
    assert_eq!(
        WireDecoder::new(4)
            .poll_frame(&mut Cursor::new(&frame))
            .unwrap_err(),
        WireError::BadPayload {
            kind: FrameKind::Batch,
            len: 19
        }
    );

    // Lying row/pair counts, including ones whose byte size overflows u32
    // arithmetic — validated in u64, rejected typed. The honest payload is
    // 24 + 24·1 + 4·1 = 52 bytes.
    let honest = batch_payload(1, 4, 1, 1, &[8], &[0, 1], &[2], &[3], &est);
    assert_eq!(honest.len(), 52);
    for (rows, nnz) in [(2u32, 1u32), (1, 5), (u32::MAX, u32::MAX), (0, 1), (1, 0)] {
        let payload = batch_payload(1, 4, rows, nnz, &[8], &[0, 1], &[2], &[3], &est);
        let err = WireDecoder::new(4)
            .poll_frame(&mut Cursor::new(&raw_frame(1, &payload)))
            .unwrap_err();
        assert!(
            matches!(err, WireError::LengthOverflow { .. }),
            "rows={rows} nnz={nnz}: {err:?}"
        );
    }

    // Frame encoded for a different deployment.
    let payload = batch_payload(1, 9, 1, 1, &[8], &[0, 1], &[2], &[3], &est);
    assert_eq!(
        WireDecoder::new(4)
            .poll_frame(&mut Cursor::new(&raw_frame(1, &payload)))
            .unwrap_err(),
        WireError::GroupCountMismatch {
            frame: 9,
            engine: 4
        }
    );

    // CSR invariant violations surface as typed `Csr` errors and leave the
    // decoder's batch empty. (`CsrError::TotalOverflow` cannot arrive: a
    // row holds at most 65 536 `u16` counts, and 65 536 × 65 535 < 2³².
    // `lad_net`'s own tests pin it.)
    let csr_cases = [
        (
            batch_payload(1, 4, 1, 2, &[8], &[0, 2], &[2, 1], &[1, 1], &est),
            CsrError::GroupsNotSorted { row: 0 },
        ),
        (
            batch_payload(1, 4, 1, 2, &[8], &[0, 2], &[1, 2], &[1, 0], &est),
            CsrError::ZeroCount { row: 0 },
        ),
        (
            batch_payload(1, 4, 1, 1, &[8], &[0, 1], &[7], &[1], &est),
            CsrError::GroupOutOfRange {
                row: 0,
                group: 7,
                group_count: 4,
            },
        ),
        (
            batch_payload(1, 4, 1, 1, &[8], &[1, 1], &[1], &[1], &est),
            CsrError::OffsetsNotMonotone,
        ),
        (
            batch_payload(1, 4, 2, 1, &[8, 9], &[0, 1, 0], &[1], &[1], &[est[0]; 2]),
            CsrError::OffsetsNotMonotone,
        ),
        (
            batch_payload(1, 4, 1, 2, &[8], &[0, 1], &[1, 2], &[1, 1], &est),
            CsrError::OffsetOverrun { last: 1, nnz: 2 },
        ),
        (
            batch_payload(
                1,
                4,
                2,
                2,
                &[8, 9],
                &[0, 2, 2],
                &[3, 3],
                &[1, 1],
                &[est[0]; 2],
            ),
            CsrError::GroupsNotSorted { row: 0 },
        ),
        (
            batch_payload(
                1,
                4,
                2,
                2,
                &[8, 9],
                &[0, 1, 2],
                &[3, 4],
                &[1, 1],
                &[est[0]; 2],
            ),
            CsrError::GroupOutOfRange {
                row: 1,
                group: 4,
                group_count: 4,
            },
        ),
    ];
    for (payload, expected) in csr_cases {
        let mut decoder = WireDecoder::new(4);
        let err = decoder
            .poll_frame(&mut Cursor::new(&raw_frame(1, &payload)))
            .unwrap_err();
        assert_eq!(err, WireError::Csr(expected));
        assert!(decoder.batch().is_empty(), "failed decode lands no rows");
    }

    // Receipts: the Ack's trailing byte is reserved and must be zero
    // (every nonzero value — including v3's "degraded" 1 — is rejected).
    let mut ack13 = batch_payload(0, 0, 0, 0, &[], &[], &[], &[], &[]);
    ack13.truncate(12);
    ack13.push(0);
    for reserved in [1u8, 2, 0xFF] {
        *ack13.last_mut().unwrap() = reserved;
        assert_eq!(
            WireDecoder::new(4)
                .poll_frame(&mut Cursor::new(&raw_frame(2, &ack13)))
                .unwrap_err(),
            WireError::InvalidEnum {
                field: "ack reserved byte",
                found: reserved
            }
        );
    }
    // The v4 Nack is 21 bytes: round, rows, reason, shed_total.
    let mut nack21 = ack13.clone();
    *nack21.last_mut().unwrap() = 0; // shed reason 0 is undefined
    nack21.extend_from_slice(&[0u8; 8]); // shed total
    assert_eq!(
        WireDecoder::new(4)
            .poll_frame(&mut Cursor::new(&raw_frame(3, &nack21)))
            .unwrap_err(),
        WireError::InvalidEnum {
            field: "nack shed reason",
            found: 0
        }
    );
    let mut nack = Vec::new();
    encode_nack(&mut nack, 3, 7, ShedReason::RateLimited, 42);
    assert_eq!(nack.len(), HEADER_LEN + 21);
    // The v3 Nack's 29 bytes (with a degraded total) no longer fit.
    nack21.extend_from_slice(&[0u8; 8]);
    assert_eq!(
        WireDecoder::new(4)
            .poll_frame(&mut Cursor::new(&raw_frame(3, &nack21)))
            .unwrap_err(),
        WireError::BadPayload {
            kind: FrameKind::Nack,
            len: 29
        }
    );
}

#[test]
fn decoder_recovers_rows_reusing_buffers_across_frames() {
    // Two different batches over one stream: the second decode must fully
    // replace the first (reused buffers must not leak rows across frames).
    let (nodes_a, batch_a) = build_batch(5, 4, &[1, 0, 3, 2, 0, 4, 1], &[1.0, 2.0, 3.0]);
    let (nodes_b, batch_b) = build_batch(5, 2, &[2, 2], &[9.0, -9.0]);
    let mut wire = Vec::new();
    encode_batch(&mut wire, 0, &nodes_a, &batch_a);
    encode_batch(&mut wire, 1, &nodes_b, &batch_b);

    let mut decoder = WireDecoder::new(5);
    let mut cursor = Cursor::new(&wire);
    decoder.poll_frame(&mut cursor).unwrap();
    assert_eq!(decoder.batch(), &batch_a);
    decoder.poll_frame(&mut cursor).unwrap();
    assert_eq!(decoder.nodes(), &nodes_b[..]);
    assert_eq!(decoder.batch(), &batch_b);
    assert_eq!(decoder.batch().len(), 2);
}

/// `i·7 + 3` (mod 256) for `i` in `0..len`: checksum test material.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + 3) as u8).collect()
}

/// A deterministic paper-scale Batch frame: 512 reporters over the
/// paper's 10 × 10 groups, 1–14 stored pairs per row (~7.5 on average).
fn paper_scale_frame() -> Vec<u8> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut batch = ObservationBatch::new(100);
    let mut nodes = Vec::new();
    for r in 0..512u32 {
        let k = 1 + (next() % 14) as u32;
        let first = (next() % 86) as u32;
        let groups: Vec<u32> = (first..first + k).collect();
        let counts: Vec<u32> = (0..k).map(|_| 1 + (next() % 9) as u32).collect();
        let estimate = Point2::new((next() % 1000) as f64 + 0.5, (next() % 1000) as f64 * 0.25);
        batch.push_sparse(&groups, &counts, estimate);
        nodes.push(NodeId(r * 19));
    }
    let mut frame = Vec::new();
    encode_batch(&mut frame, 7, &nodes, &batch);
    frame
}

#[test]
fn checksum_matches_known_answers() {
    // Lengths around the 32-byte block: all tail, one block, block + tail.
    for (len, expected) in [
        (0, 0xd75e_4f3f),
        (1, 0xc93e_e977),
        (31, 0xc76a_52da),
        (32, 0xf632_b7cf),
        (33, 0xed11_0fe1),
    ] {
        assert_eq!(checksum(&pattern(len)), expected, "{len} bytes");
    }
    // A paper-scale frame: its header carries the payload's checksum.
    let frame = paper_scale_frame();
    let payload = &frame[HEADER_LEN..];
    assert_eq!(frame.len(), HEADER_LEN + 24 + 24 * 512 + 4 * 3835);
    assert_eq!(checksum(payload), 0xb715_4ef7);
    assert_eq!(frame[12..16], checksum(payload).to_le_bytes());
}

#[test]
fn u16_pair_bounds_round_trip_exactly() {
    // The widest deployment and the largest count v5 pairs carry.
    let mut batch = ObservationBatch::new(1 << 16);
    batch.push_sparse(&[0, 65_535], &[u16::MAX as u32, 1], Point2::new(1.0, -1.0));
    batch.push_sparse(&[], &[], Point2::new(f64::NAN, f64::INFINITY));
    let nodes = [NodeId(u32::MAX), NodeId(0)];
    let mut wire = Vec::new();
    encode_batch(&mut wire, u64::MAX, &nodes, &batch);
    let mut decoder = WireDecoder::new(1 << 16);
    assert_eq!(
        decoder.poll_frame(&mut Cursor::new(&wire)).unwrap(),
        FramePoll::Frame(WireFrame::Batch {
            round: u64::MAX,
            rows: 2
        })
    );
    assert_eq!(decoder.nodes(), &nodes[..]);
    let (a, b) = (batch.as_csr(), decoder.batch().as_csr());
    assert_eq!(
        (a.offsets, a.groups, a.counts, a.totals),
        (b.offsets, b.groups, b.counts, b.totals)
    );
    for (ea, eb) in a.estimates.iter().zip(b.estimates) {
        assert_eq!(
            (ea.x.to_bits(), ea.y.to_bits()),
            (eb.x.to_bits(), eb.y.to_bits())
        );
    }
}

#[test]
fn client_refuses_batches_beyond_u16_pairs_typed_writing_nothing() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = WireClient::connect_tcp(listener.local_addr().unwrap()).unwrap();
    let (mut peer, _) = listener.accept().unwrap();

    // More than 65 536 groups: group 65 536 has no u16.
    let mut wide = ObservationBatch::new(65_537);
    wide.push_sparse(&[65_536], &[1], Point2::new(0.0, 0.0));
    assert_eq!(
        client.send_rows_nowait(1, &[NodeId(1)], &wide),
        Err(WireError::Unencodable {
            group_count: 65_537,
            max_count: 1
        })
    );
    // A count above u16::MAX, through both send paths.
    let mut heavy = ObservationBatch::new(4);
    heavy.push_sparse(&[1, 2], &[3, 65_536], Point2::new(0.0, 0.0));
    let refusal = Err(WireError::Unencodable {
        group_count: 4,
        max_count: 65_536,
    });
    assert_eq!(client.send_rows_nowait(2, &[NodeId(2)], &heavy), refusal);
    assert_eq!(
        client.send_rows(3, &[NodeId(2)], &heavy).map(|d| d.round),
        refusal.map(|()| 0)
    );
    assert_eq!(client.in_flight(), 0);

    drop(client);
    let mut received = Vec::new();
    peer.read_to_end(&mut received).unwrap();
    assert!(received.is_empty(), "a refused batch writes nothing");
}
