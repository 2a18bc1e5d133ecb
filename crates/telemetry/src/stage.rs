//! Pipeline stages and the RAII span timer that feeds their histograms.

use crate::histo::LatencyHisto;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The instrumented stages of the serve pipeline, in pipeline order.
///
/// Each stage owns one [`LatencyHisto`] per registry. `QueueWait`, `Score`
/// and `DetectorUpdate` accumulate on the per-shard registries; the
/// front-of-house stages (`Decode`, `Gate`, `Drain`, `ResponseStep`)
/// accumulate on the front registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// Wire frame decode: one completed `poll_frame` on a connection.
    /// Approximate under idle polling (the poll interleaves socket reads);
    /// accurate under load, which is the regime that matters.
    Decode,
    /// Overload-gate decision (rate limit / shed) plus the
    /// ACK/NACK write back to the client.
    Gate,
    /// Time a batch sat in its shard queue: fold-time `now` minus the
    /// enqueue timestamp stamped by `submit_rows`.
    QueueWait,
    /// Engine scoring of one batch (µ-cache lookup + kernel).
    Score,
    /// Sequential-detector fold over one scored batch.
    DetectorUpdate,
    /// One `drain_alarms`/`poll_alarms` sweep on the alarm channel.
    Drain,
    /// One full `ResponseController::step` (drain → observe → install).
    ResponseStep,
}

impl Stage {
    /// All stages, in pipeline order; index matches [`Stage::index`].
    pub const ALL: [Stage; 7] = [
        Stage::Decode,
        Stage::Gate,
        Stage::QueueWait,
        Stage::Score,
        Stage::DetectorUpdate,
        Stage::Drain,
        Stage::ResponseStep,
    ];

    /// Dense index of this stage into a per-registry histogram array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-snake name, used as the key in exported JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Gate => "gate",
            Stage::QueueWait => "queue_wait",
            Stage::Score => "score",
            Stage::DetectorUpdate => "detector_update",
            Stage::Drain => "drain",
            Stage::ResponseStep => "response_step",
        }
    }
}

/// An RAII span: started against a stage histogram, records the elapsed
/// nanoseconds when dropped (or explicitly [`stop`](Self::stop)ped).
///
/// Built from an `Option<&LatencyHisto>` so disabled telemetry costs a
/// single branch — no `Instant::now()` call, no atomics:
///
/// ```
/// use lad_telemetry::{LatencyHisto, StageTimer};
/// let histo = LatencyHisto::new();
/// {
///     let _span = StageTimer::start(Some(&histo));
///     // ... stage work ...
/// } // recorded here
/// assert_eq!(histo.count(), 1);
/// assert_eq!(LatencyHisto::new().count(), 0);
/// let noop = StageTimer::start(None); // disabled: never records
/// drop(noop);
/// ```
#[derive(Debug)]
pub struct StageTimer<'a> {
    armed: Option<(&'a LatencyHisto, Instant)>,
}

impl<'a> StageTimer<'a> {
    /// Starts a span. `None` (telemetry disabled) makes every operation,
    /// including the drop, a no-op.
    #[inline]
    pub fn start(histo: Option<&'a LatencyHisto>) -> Self {
        StageTimer {
            armed: histo.map(|h| (h, Instant::now())),
        }
    }

    /// Ends the span now, recording the elapsed time. Equivalent to
    /// dropping the timer, but reads better at explicit stage boundaries.
    #[inline]
    pub fn stop(self) {}

    /// Disarms the span: nothing is recorded. For abandoned work (e.g. a
    /// decode that returned `Pending`).
    #[inline]
    pub fn cancel(mut self) {
        self.armed = None;
    }
}

impl Drop for StageTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((histo, started)) = self.armed.take() {
            histo.record(started.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_names_unique() {
        let mut names = std::collections::BTreeSet::new();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert!(names.insert(stage.name()));
        }
    }

    #[test]
    fn timer_records_once_and_cancel_records_nothing() {
        let histo = LatencyHisto::new();
        StageTimer::start(Some(&histo)).stop();
        assert_eq!(histo.count(), 1);
        StageTimer::start(Some(&histo)).cancel();
        assert_eq!(histo.count(), 1);
        StageTimer::start(None).stop();
    }
}
