//! A bounded windowed time-series ring: rate history instead of
//! cumulative totals.
//!
//! Every counter the pipeline exports is monotone — useful for "how much
//! ever", useless for "what is happening *now*". This module folds
//! successive cumulative observations into fixed-duration **windows** by
//! exact counter subtraction: each [`WindowSample`] holds the reports,
//! alarms, sheds and suppressions of *its* interval, the
//! µ-cache hit rate over *its* lookups, the queue depth at its close, and
//! the p50/p99 of each stage's latency over exactly the spans recorded
//! inside it (bucket-wise [`HistoSnapshot`] subtraction is exact because
//! bucket counts are monotone `u64`s).
//!
//! The ring is bounded ([`SeriesConfig::capacity`]) with oldest-out
//! eviction, so a long-lived runtime keeps a fixed-memory sliding history
//! and the reader can tell how much it lost
//! ([`SeriesSnapshot::windows_dropped`]).
//!
//! Like everything in this crate the series is *derived* state: it is fed
//! from counters, never consulted by any decision, and never serialized
//! into a serve snapshot.

use crate::histo::HistoSnapshot;
use crate::stage::Stage;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Shape of a [`SeriesRing`]: window duration and ring capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesConfig {
    /// Minimum duration of one window in nanoseconds. An observation
    /// closes the current window only once at least this much time has
    /// passed since the previous close; `0` closes a window on **every**
    /// observation (useful for deterministic round-driven tests and
    /// tours).
    pub window_nanos: u64,
    /// Maximum retained windows (min 1); older windows are evicted
    /// oldest-first and counted in [`SeriesSnapshot::windows_dropped`].
    pub capacity: usize,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        Self {
            // One-second windows, a bit over a minute of history.
            window_nanos: 1_000_000_000,
            capacity: 64,
        }
    }
}

/// One cumulative observation of the pipeline: every monotone counter the
/// windows are diffed from, plus the fold-time queue depth gauge and the
/// merged per-stage latency histograms. The serve runtime assembles one
/// of these from its counters and telemetry registries on each tick; the
/// series layer only ever subtracts successive observations, so it needs
/// no knowledge of where the numbers come from.
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeSample {
    /// Observation timestamp, nanoseconds since the runtime's epoch.
    pub at_nanos: u64,
    /// Reports accepted into the pipeline so far.
    pub submitted: u64,
    /// Reports fully processed so far.
    pub processed: u64,
    /// Alarms raised so far.
    pub alarms: u64,
    /// Reports shed at the ingest boundary so far.
    pub shed: u64,
    /// Reports suppressed by the response filter so far.
    pub suppressed: u64,
    /// µ-cache hits so far.
    pub mu_cache_hits: u64,
    /// µ-cache misses so far.
    pub mu_cache_misses: u64,
    /// Queue depth (gauge, not diffed) at observation time.
    pub queue_depth: u64,
    /// Per-stage latency histograms merged across all registries, in
    /// [`Stage::ALL`] order.
    pub stages: Vec<HistoSnapshot>,
}

/// One stage's latency profile over a single window: the spans recorded
/// inside the window only, summarized. Quantiles inherit the histogram's
/// one-sided ≤6.25% bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageWindow {
    /// Which stage.
    pub stage: Stage,
    /// Spans recorded within the window.
    pub count: u64,
    /// Median span within the window, nanoseconds.
    pub p50_nanos: u64,
    /// 99th-percentile span within the window, nanoseconds.
    pub p99_nanos: u64,
}

/// One closed window: exact counter deltas over its interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowSample {
    /// Monotone window number; gaps against the retained list reveal ring
    /// eviction.
    pub index: u64,
    /// Window open, nanoseconds since the runtime's epoch.
    pub start_nanos: u64,
    /// Window close, nanoseconds since the runtime's epoch.
    pub end_nanos: u64,
    /// Reports accepted during the window.
    pub submitted: u64,
    /// Reports processed during the window.
    pub processed: u64,
    /// Alarms raised during the window.
    pub alarms: u64,
    /// Reports shed during the window.
    pub shed: u64,
    /// Reports suppressed during the window.
    pub suppressed: u64,
    /// µ-cache hit rate over the window's lookups (0.0 when none).
    pub mu_cache_hit_rate: f64,
    /// Queue depth at window close (gauge).
    pub queue_depth: u64,
    /// Per-stage latency over the window, [`Stage::ALL`] order; stages
    /// with no spans in the window are omitted.
    pub stages: Vec<StageWindow>,
}

impl WindowSample {
    /// Window length in seconds.
    pub fn duration_secs(&self) -> f64 {
        (self.end_nanos - self.start_nanos) as f64 / 1e9
    }

    /// Reports processed per second over the window (0.0 for a
    /// zero-length window).
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.duration_secs();
        if secs > 0.0 {
            self.processed as f64 / secs
        } else {
            0.0
        }
    }

    /// Alarms per processed report over the window — the observed
    /// per-round alarm probability the drift monitor compares against the
    /// calibrated false-alarm target. 0.0 when nothing was processed.
    pub fn alarm_rate(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.alarms as f64 / self.processed as f64
        }
    }

    /// The window's summary for `stage`, if any span landed in it.
    pub fn stage(&self, stage: Stage) -> Option<&StageWindow> {
        self.stages.iter().find(|s| s.stage == stage)
    }
}

/// The bounded window ring. Feed it cumulative observations with
/// [`observe`](Self::observe); read the retained history with
/// [`snapshot`](Self::snapshot). Not internally synchronized — the owner
/// (the serve runtime) wraps it in its own lock.
#[derive(Debug)]
pub struct SeriesRing {
    config: SeriesConfig,
    windows: VecDeque<WindowSample>,
    /// The observation the next window will be diffed against.
    last: Option<CumulativeSample>,
    windows_closed: u64,
    windows_dropped: u64,
}

impl SeriesRing {
    /// An empty ring.
    pub fn new(config: SeriesConfig) -> Self {
        Self {
            config: SeriesConfig {
                capacity: config.capacity.max(1),
                ..config
            },
            windows: VecDeque::new(),
            last: None,
            windows_closed: 0,
            windows_dropped: 0,
        }
    }

    /// The ring's configuration.
    pub fn config(&self) -> SeriesConfig {
        self.config
    }

    /// Feeds one cumulative observation. The first observation only opens
    /// the first window; afterwards, a window is closed (and returned)
    /// whenever at least [`SeriesConfig::window_nanos`] have elapsed since
    /// the previous close. Observations inside an open window are
    /// discarded — the diff is always taken between the two observations
    /// that bracket the window, so deltas stay exact no matter how often
    /// the ring is ticked.
    pub fn observe(&mut self, sample: CumulativeSample) -> Option<&WindowSample> {
        let Some(last) = &self.last else {
            self.last = Some(sample);
            return None;
        };
        if sample.at_nanos.saturating_sub(last.at_nanos) < self.config.window_nanos.max(1)
            && self.config.window_nanos > 0
        {
            return None;
        }
        let window = Self::diff(self.windows_closed, last, &sample);
        self.windows_closed += 1;
        self.last = Some(sample);
        if self.windows.len() == self.config.capacity {
            self.windows.pop_front();
            self.windows_dropped += 1;
        }
        self.windows.push_back(window);
        self.windows.back()
    }

    /// Exact counter subtraction between two bracketing observations.
    fn diff(index: u64, from: &CumulativeSample, to: &CumulativeSample) -> WindowSample {
        let hits = to.mu_cache_hits.saturating_sub(from.mu_cache_hits);
        let misses = to.mu_cache_misses.saturating_sub(from.mu_cache_misses);
        let lookups = hits + misses;
        let mut stages = Vec::new();
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            let (Some(now), Some(then)) = (to.stages.get(i), from.stages.get(i)) else {
                continue;
            };
            let delta = now.diff(then);
            if delta.count() > 0 {
                stages.push(StageWindow {
                    stage,
                    count: delta.count(),
                    p50_nanos: delta.quantile(0.50),
                    p99_nanos: delta.quantile(0.99),
                });
            }
        }
        WindowSample {
            index,
            start_nanos: from.at_nanos,
            end_nanos: to.at_nanos,
            submitted: to.submitted.saturating_sub(from.submitted),
            processed: to.processed.saturating_sub(from.processed),
            alarms: to.alarms.saturating_sub(from.alarms),
            shed: to.shed.saturating_sub(from.shed),
            suppressed: to.suppressed.saturating_sub(from.suppressed),
            mu_cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            queue_depth: to.queue_depth,
            stages,
        }
    }

    /// The most recently closed window.
    pub fn latest(&self) -> Option<&WindowSample> {
        self.windows.back()
    }

    /// An exportable copy of the retained history.
    pub fn snapshot(&self) -> SeriesSnapshot {
        SeriesSnapshot {
            window_nanos: self.config.window_nanos,
            windows_closed: self.windows_closed,
            windows_dropped: self.windows_dropped,
            windows: self.windows.iter().cloned().collect(),
        }
    }
}

/// A point-in-time, JSON-serializable copy of a [`SeriesRing`]'s retained
/// history, shipped inside the serve stats export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// The configured window duration in nanoseconds.
    pub window_nanos: u64,
    /// Windows ever closed.
    pub windows_closed: u64,
    /// Windows evicted from the ring to bound memory.
    pub windows_dropped: u64,
    /// The retained windows, oldest first.
    pub windows: Vec<WindowSample>,
}

impl SeriesSnapshot {
    /// The most recently closed retained window.
    pub fn latest(&self) -> Option<&WindowSample> {
        self.windows.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histo::LatencyHisto;

    fn sample(at_nanos: u64, processed: u64, alarms: u64, score_spans: &[u64]) -> CumulativeSample {
        let histo = LatencyHisto::new();
        for &nanos in score_spans {
            histo.record(nanos);
        }
        let mut stages: Vec<HistoSnapshot> =
            Stage::ALL.iter().map(|_| HistoSnapshot::empty()).collect();
        stages[Stage::Score.index()] = histo.snapshot();
        CumulativeSample {
            at_nanos,
            submitted: processed,
            processed,
            alarms,
            shed: 0,
            suppressed: 0,
            mu_cache_hits: processed / 2,
            mu_cache_misses: processed - processed / 2,
            queue_depth: 1,
            stages,
        }
    }

    #[test]
    fn windows_are_exact_deltas_of_cumulative_observations() {
        let mut ring = SeriesRing::new(SeriesConfig {
            window_nanos: 0,
            capacity: 8,
        });
        assert!(
            ring.observe(sample(0, 0, 0, &[])).is_none(),
            "baseline only"
        );
        let w = ring
            .observe(sample(1_000, 100, 3, &[50, 100, 1_000]))
            .expect("window closes")
            .clone();
        assert_eq!(w.index, 0);
        assert_eq!((w.start_nanos, w.end_nanos), (0, 1_000));
        assert_eq!(w.processed, 100);
        assert_eq!(w.alarms, 3);
        assert!((w.alarm_rate() - 0.03).abs() < 1e-12);
        assert_eq!(w.mu_cache_hit_rate, 0.5);
        let score = w.stage(Stage::Score).expect("score spans recorded");
        assert_eq!(score.count, 3);
        assert!(w.stage(Stage::Decode).is_none(), "empty stages omitted");

        // Second window sees only the *new* spans and counts.
        let w2 = ring
            .observe(sample(2_000, 150, 3, &[50, 100, 1_000, 7, 7]))
            .expect("window closes")
            .clone();
        assert_eq!(w2.processed, 50);
        assert_eq!(w2.alarms, 0);
        let score2 = w2.stage(Stage::Score).expect("new spans");
        assert_eq!(score2.count, 2);
        assert_eq!(score2.p99_nanos, 7, "delta histogram, not cumulative");
    }

    #[test]
    fn short_intervals_accumulate_until_the_window_duration_passes() {
        let mut ring = SeriesRing::new(SeriesConfig {
            window_nanos: 1_000,
            capacity: 8,
        });
        ring.observe(sample(0, 0, 0, &[]));
        assert!(ring.observe(sample(400, 10, 0, &[])).is_none());
        assert!(ring.observe(sample(800, 20, 0, &[])).is_none());
        let w = ring
            .observe(sample(1_200, 30, 1, &[]))
            .expect("duration reached");
        // The diff brackets the whole window, so the discarded mid-window
        // observations lose nothing.
        assert_eq!(w.processed, 30);
        assert_eq!(w.alarms, 1);
        assert_eq!(w.end_nanos - w.start_nanos, 1_200);
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let mut ring = SeriesRing::new(SeriesConfig {
            window_nanos: 0,
            capacity: 3,
        });
        for i in 0..=10u64 {
            ring.observe(sample(i * 100, i * 10, 0, &[]));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.windows.len(), 3);
        assert_eq!(snap.windows_closed, 10);
        assert_eq!(snap.windows_dropped, 7);
        let indices: Vec<u64> = snap.windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![7, 8, 9]);
        assert_eq!(snap.latest().unwrap().index, 9);

        let json = serde_json::to_string(&snap).expect("series serializes");
        let back: SeriesSnapshot = serde_json::from_str(&json).expect("series parses");
        assert_eq!(back, snap);
    }
}
