//! The correctness gate every run passes before it reports a number.
//!
//! * Replay workloads: the served alarm stream must equal an offline
//!   replay of the same rounds through `LadEngine::score_rows_into` and a
//!   per-node `SequentialDetector` (node, round and score bits).
//! * `attack_loop`: the closed-loop digest (alarms, revocation lists,
//!   suppressed count) must match between the saturate and paced phases,
//!   which replay the same rounds at different speeds.
//! * All workloads: every accepted report was processed, no frame failed
//!   to decode, and every offered report was either accepted or — in
//!   `attack_loop` only — suppressed by the response filter.

use crate::drive::{AlarmSet, PhaseOut};
use crate::workload::{Calibrated, Round, METRIC};
use lad_stats::SequentialState;
use std::collections::HashMap;

/// Reports that did not make it through the stack: NACKed, never
/// acknowledged, failed to decode, or accepted but never processed.
pub fn failed_reports(phase: &PhaseOut) -> u64 {
    let c = &phase.counters;
    let unaccounted = phase
        .offered
        .saturating_sub(c.submitted + c.suppressed + phase.nacked);
    phase.nacked + unaccounted + c.decode_errors + c.submitted.saturating_sub(c.processed)
}

/// The alarms an offline replay of rounds `0..rounds` (round `r` replays
/// pool entry `r % pool.len()`) must raise.
fn offline_alarms(cal: &Calibrated, pool: &[Round], rounds: u64) -> AlarmSet {
    let engine = &cal.engine;
    let column = engine.metric_index(METRIC).expect("engine scores METRIC");
    let width = engine.metrics().len();
    let mut scores: Vec<Vec<f64>> = Vec::with_capacity(pool.len());
    let mut buf = Vec::new();
    for (_, rows) in pool {
        engine.score_rows_into(rows, &mut buf);
        scores.push(buf.chunks_exact(width).map(|row| row[column]).collect());
    }
    let detector = cal.detector;
    let mut states: HashMap<u32, SequentialState> = HashMap::new();
    let mut alarms = AlarmSet::default();
    for r in 0..rounds {
        let i = (r % pool.len() as u64) as usize;
        for (node, &score) in pool[i].0.iter().zip(&scores[i]) {
            let state = states
                .entry(node.0)
                .or_insert_with(|| detector.initial_state());
            if detector.update(state, score) {
                alarms.add(r, node.0, score);
                detector.reset(state);
            }
        }
    }
    alarms
}

/// Checks a replay phase against its offline replay. Returns a reason on
/// mismatch.
pub fn replay_matches(cal: &Calibrated, pool: &[Round], phase: &PhaseOut) -> Result<(), String> {
    let expected = offline_alarms(cal, pool, phase.rounds);
    if phase.alarms != expected {
        return Err(format!(
            "alarm stream differs from the offline replay: {} served vs {} expected alarms \
             (digests {:x} vs {:x})",
            phase.alarms.count, expected.count, phase.alarms.sum, expected.sum
        ));
    }
    Ok(())
}

/// Checks that every report offered in `phase` made it through the stack.
pub fn accounting(phase: &PhaseOut) -> Result<(), String> {
    match failed_reports(phase) {
        0 => Ok(()),
        failed => Err(format!(
            "{failed} of {} offered reports failed ({} NACKed; {:?})",
            phase.offered, phase.nacked, phase.counters
        )),
    }
}
