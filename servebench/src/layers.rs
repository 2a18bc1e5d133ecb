//! Per-layer costs, timed by bench-side spans around single public calls
//! into each crate, replayed over the workload's own round pool.
//!
//! Every figure is the 10th percentile over repeated passes of one pass's
//! time divided by the reports (or batches) it covered: like the
//! end-to-end rate, it reads the layer in the host's calm stretches, so
//! the stage costs and the rate they should add up to are comparable.

use crate::workload::{Calibrated, Round, METRIC};
use lad_deployment::{MuCache, SparseMu};
use lad_net::NodeId;
use lad_wire::{encode_batch, FramePoll, IngestGate, OverloadPolicy, WireDecoder};
use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// The measured per-layer costs.
#[derive(Debug)]
pub struct LayerCosts {
    pub score_full_ns: f64,
    pub score_decision_ns: f64,
    pub mu_fill_ns: f64,
    pub detector_update_ns: f64,
    pub handoff_copy_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub gate_ns_per_batch: f64,
    pub bytes_per_report: f64,
}

/// Runs `pass` repeatedly for about `budget` (at least three times) and
/// returns the 10th percentile of `ns per pass / units`.
fn per_unit(budget: Duration, units: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warm-up
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t0 = Instant::now();
        pass();
        samples.push(t0.elapsed().as_nanos() as f64 / units as f64);
    }
    crate::report::quantile(&mut samples, 0.1)
}

/// Measures every layer on `pool`, spending about `budget` in total.
pub fn measure(cal: &Calibrated, pool: &[Round], budget: Duration) -> LayerCosts {
    let each = budget / 8;
    let engine = &cal.engine;
    let knowledge = engine.knowledge();
    let reports: usize = pool.iter().map(|(nodes, _)| nodes.len()).sum();
    let width = engine.metrics().len();
    let mut out = Vec::new();

    // µ fill: the uncached support walk for every estimate in the pool.
    let mut smu = SparseMu::new();
    let mu_fill_ns = per_unit(each, reports, || {
        for (_, rows) in pool {
            for r in 0..rows.len() {
                knowledge.expected_sparse_into(black_box(rows.estimate(r)), &mut smu);
            }
        }
        black_box(&smu);
    });

    // Scoring off a warm cache large enough to hold the whole pool: the
    // metric kernel plus a cache hit, no fill.
    let mut cache = MuCache::new(2 * reports);
    let score_full_ns = per_unit(each, reports, || {
        for (_, rows) in pool {
            out.clear();
            out.resize(rows.len() * width, 0.0);
            engine.score_rows_seq_cached_into(black_box(rows), &mut cache, &mut out);
        }
        black_box(&out);
    });
    let score_decision_ns = per_unit(each, reports, || {
        for (_, rows) in pool {
            out.clear();
            out.resize(rows.len(), 0.0);
            engine.score_rows_seq_one_cached_into(black_box(rows), METRIC, &mut cache, &mut out);
        }
        black_box(&out);
    });

    // Detector update over the pool's decision scores, one state per row.
    let scores: Vec<Vec<f64>> = pool
        .iter()
        .map(|(_, rows)| {
            let mut s = vec![0.0; rows.len()];
            engine.score_rows_seq_one_cached_into(rows, METRIC, &mut cache, &mut s);
            s
        })
        .collect();
    let detector = cal.detector;
    let mut states =
        vec![detector.initial_state(); pool.iter().map(|(n, _)| n.len()).max().unwrap_or(0)];
    let detector_update_ns = per_unit(each, reports, || {
        for round in &scores {
            for (state, &score) in states.iter_mut().zip(round) {
                if detector.update(state, black_box(score)) {
                    detector.reset(state);
                }
            }
        }
        black_box(&states);
    });

    // The serve handoff: the copies `submit_rows` makes of a round.
    let handoff_copy_ns = per_unit(each, reports, || {
        for (nodes, rows) in pool {
            let copy: Vec<NodeId> = black_box(nodes).to_vec();
            let batch = black_box(rows).clone();
            black_box((copy, batch));
        }
    });

    // Wire encode, then decode of the same frames from memory.
    let mut frame = Vec::new();
    let encode_ns = per_unit(each, reports, || {
        for (r, (nodes, rows)) in pool.iter().enumerate() {
            frame.clear();
            encode_batch(&mut frame, r as u64, black_box(nodes), black_box(rows));
        }
        black_box(&frame);
    });
    let mut frames = Vec::new();
    for (r, (nodes, rows)) in pool.iter().enumerate() {
        encode_batch(&mut frames, r as u64, nodes, rows);
    }
    let bytes_per_report = frames.len() as f64 / reports as f64;
    let mut decoder = WireDecoder::new(knowledge.group_count());
    let decode_ns = per_unit(each, reports, || {
        let mut cursor = Cursor::new(black_box(frames.as_slice()));
        for _ in pool {
            match decoder.poll_frame(&mut cursor) {
                Ok(FramePoll::Frame(_)) => {}
                other => panic!("in-memory frame failed to decode: {other:?}"),
            }
        }
        black_box(decoder.batch());
    });

    // The ingest gate's per-batch decision under the default policy.
    const GATE_CALLS: usize = 4096;
    let mut gate = IngestGate::new(OverloadPolicy::default());
    let rows = pool[0].1.len() as u64;
    let gate_ns_per_batch = per_unit(each, GATE_CALLS, || {
        for i in 0..GATE_CALLS as u64 {
            black_box(gate.decide(black_box(rows), black_box(i & 7), i));
        }
    });

    LayerCosts {
        score_full_ns,
        score_decision_ns,
        mu_fill_ns,
        detector_update_ns,
        handoff_copy_ns,
        encode_ns,
        decode_ns,
        gate_ns_per_batch,
        bytes_per_report,
    }
}
