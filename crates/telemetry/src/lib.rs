//! # lad_telemetry — derived-only observability for the serve pipeline
//!
//! A lock-free metrics layer accumulated **per shard with zero cross-shard
//! sharing**: each shard owns a private [`ShardRegistry`] of stage
//! latency histograms and queue gauges, written only by the thread folding
//! that shard's batches (its worker, or a caller folding under the
//! shard's lock), and readers fold everything on demand into a
//! serializable [`TelemetrySnapshot`].
//!
//! ## Derived state, by construction
//!
//! Everything in this crate is *derived* observability state:
//!
//! - it is **never serialized into `ServeSnapshot`** (restore/resume is
//!   bit-identical with telemetry on, off, or mixed);
//! - it is **never consulted by any decision** — no scoring, gating,
//!   detector or revocation path reads a histogram, gauge, or event;
//! - recording uses relaxed atomics and per-shard ownership, so enabling
//!   telemetry cannot reorder or synchronize pipeline work.
//!
//! Alarm/state bit-determinism across shard counts and cache capacities is
//! therefore preserved by construction, and re-asserted by the existing
//! determinism suites running with telemetry enabled (the default).
//!
//! ## Pieces
//!
//! - [`LatencyHisto`] — fixed log-bucket histogram, exact merge, proven
//!   ≤6.25% one-sided quantile error (see [`histo`]).
//! - [`Stage`] / [`StageTimer`] — RAII spans over every pipeline stage.
//! - [`EventRing`] — bounded structured ring of rare, high-signal events.
//! - [`Telemetry`] — the per-runtime registry bundle; [`Telemetry::fold`]
//!   produces the wire-exportable [`TelemetrySnapshot`].
//! - [`series`] — the bounded windowed time-series ring: exact counter
//!   diffs turn cumulative totals into per-window rate history.
//! - [`health`] — the detection-health model: a [`HealthReport`] derived
//!   purely from telemetry, never consulted by any decision.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod health;
pub mod histo;
mod ring;
pub mod series;
mod stage;

pub use health::{HealthCause, HealthInputs, HealthReport, HealthStatus};
pub use histo::{HistoSnapshot, LatencyHisto};
pub use ring::{EventKind, EventRing, TelemetryEvent};
pub use series::{CumulativeSample, SeriesConfig, SeriesRing, SeriesSnapshot, WindowSample};
pub use stage::{Stage, StageTimer};

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default [`EventRing`] capacity for a [`Telemetry`] registry.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// A monotonically increasing lock-free counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins lock-free gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value (relaxed).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One writer's private metrics registry: a latency histogram per
/// [`Stage`] plus queue gauges. The serve runtime allocates one per shard
/// and one "front" registry for off-shard stages (decode, gate, drain,
/// response step). A shard's fold stages are recorded under that shard's
/// state lock, by whichever thread folds, so they never contend.
#[derive(Debug, Default)]
pub struct ShardRegistry {
    stages: [LatencyHisto; Stage::ALL.len()],
    /// Batches handed to this writer's queue (bumped by submitters).
    pub enqueued_batches: Counter,
    /// Queue depth in batches, sampled at fold time.
    pub queue_depth: Gauge,
    /// Age of the most recently folded batch (enqueue → fold), nanos.
    pub queue_age_nanos: Gauge,
}

impl ShardRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The histogram backing `stage`.
    #[inline]
    pub fn stage(&self, stage: Stage) -> &LatencyHisto {
        &self.stages[stage.index()]
    }
}

/// The per-runtime telemetry bundle: one [`ShardRegistry`] per shard, a
/// front registry, and the shared [`EventRing`]. Construct it
/// [`enabled`](Telemetry::new) or [`disabled`](Telemetry::disabled) —
/// when disabled, spans skip even their `Instant::now()` call and events
/// are dropped without allocating, which is what the bench's
/// on-vs-off overhead bound measures.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    epoch: Instant,
    shards: Vec<ShardRegistry>,
    front: ShardRegistry,
    ring: EventRing,
}

impl Telemetry {
    /// An enabled registry for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self::build(shards, true)
    }

    /// A disabled registry: same shape, every recording path a no-op.
    pub fn disabled(shards: usize) -> Self {
        Self::build(shards, false)
    }

    fn build(shards: usize, enabled: bool) -> Self {
        Telemetry {
            enabled,
            epoch: Instant::now(),
            shards: (0..shards).map(|_| ShardRegistry::new()).collect(),
            front: ShardRegistry::new(),
            ring: EventRing::new(DEFAULT_EVENT_CAPACITY),
        }
    }

    /// Whether recording is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Shard `i`'s registry (for the thread folding that shard's batches
    /// and the submitters stamping its queue counters).
    #[inline]
    pub fn shard(&self, i: usize) -> &ShardRegistry {
        &self.shards[i]
    }

    /// The front registry (decode, gate, drain, response-step stages).
    #[inline]
    pub fn front(&self) -> &ShardRegistry {
        &self.front
    }

    /// Nanoseconds since this registry was created (the runtime's start).
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span against a front-registry stage. No-op when disabled.
    #[inline]
    pub fn span(&self, stage: Stage) -> StageTimer<'_> {
        StageTimer::start(self.enabled.then(|| self.front.stage(stage)))
    }

    /// Starts a span against shard `i`'s registry. No-op when disabled.
    #[inline]
    pub fn shard_span(&self, i: usize, stage: Stage) -> StageTimer<'_> {
        StageTimer::start(self.enabled.then(|| self.shards[i].stage(stage)))
    }

    /// Records a duration directly (for spans whose start time is a
    /// stamped timestamp rather than a live `Instant`, e.g. queue wait).
    #[inline]
    pub fn record(&self, shard: usize, stage: Stage, nanos: u64) {
        if self.enabled {
            self.shards[shard].stage(stage).record(nanos);
        }
    }

    /// Pushes a structured event. `detail` is only materialized into an
    /// allocation when the registry is enabled; alloc-sensitive callers
    /// with formatted details should gate on [`enabled`](Self::enabled).
    pub fn event(&self, kind: EventKind, round: u64, a: u64, b: u64, detail: &str) {
        if self.enabled {
            self.ring.push(TelemetryEvent {
                seq: 0,
                at_nanos: self.now_nanos(),
                kind,
                round,
                a,
                b,
                detail: detail.to_string(),
            });
        }
    }

    /// The shared event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// The per-stage histograms merged across the front registry and all
    /// shards, in [`Stage::ALL`] order — the raw mergeable form the
    /// windowed [`series`] layer diffs for per-window stage quantiles
    /// ([`TelemetrySnapshot`] ships only the folded summaries).
    pub fn stage_histos(&self) -> Vec<HistoSnapshot> {
        Stage::ALL
            .into_iter()
            .map(|stage| {
                let mut merged = self.front.stage(stage).snapshot();
                for shard in &self.shards {
                    merged.merge(&shard.stage(stage).snapshot());
                }
                merged
            })
            .collect()
    }

    /// Folds every registry into an exportable snapshot: per-stage
    /// histograms merged across all shards and the front registry (exact
    /// by [`HistoSnapshot::merge`]), gauges sampled, events copied.
    pub fn fold(&self) -> TelemetrySnapshot {
        let stages = Stage::ALL
            .into_iter()
            .zip(self.stage_histos())
            .map(|(stage, histo)| StageSummary::from_histo(stage, &histo))
            .collect();
        let shard_queue_depth: Vec<u64> = self.shards.iter().map(|s| s.queue_depth.get()).collect();
        let shard_queue_age_nanos: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.queue_age_nanos.get())
            .collect();
        TelemetrySnapshot {
            enabled: self.enabled,
            uptime_nanos: self.now_nanos(),
            stages,
            queue_depth: shard_queue_depth.iter().sum(),
            shard_queue_depth,
            shard_queue_age_nanos,
            events_logged: self.ring.pushed(),
            events_dropped: self.ring.dropped(),
            events_sampled_out: self.ring.sampled_out(),
            events: self.ring.recent(),
        }
    }
}

/// Folded percentile summary of one stage, the exported unit of latency
/// telemetry. Quantiles inherit the [`histo`] guarantee: each is within
/// +6.25% of the exact order statistic over all recorded spans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Which stage.
    pub stage: Stage,
    /// Spans recorded.
    pub count: u64,
    /// Mean span, nanoseconds.
    pub mean_nanos: f64,
    /// Fastest span, nanoseconds.
    pub min_nanos: u64,
    /// Slowest span, nanoseconds.
    pub max_nanos: u64,
    /// Median, nanoseconds.
    pub p50_nanos: u64,
    /// 95th percentile, nanoseconds.
    pub p95_nanos: u64,
    /// 99th percentile, nanoseconds.
    pub p99_nanos: u64,
}

impl StageSummary {
    /// Summarizes a (merged) histogram snapshot.
    pub fn from_histo(stage: Stage, h: &HistoSnapshot) -> Self {
        StageSummary {
            stage,
            count: h.count(),
            mean_nanos: h.mean(),
            min_nanos: h.min(),
            max_nanos: h.max(),
            p50_nanos: h.quantile(0.50),
            p95_nanos: h.quantile(0.95),
            p99_nanos: h.quantile(0.99),
        }
    }
}

/// A point-in-time, JSON-serializable fold of a [`Telemetry`] registry.
/// This is what the wire `Stats` frame ships; it is *not* part of
/// `ServeSnapshot` and carries no decision state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Whether the source registry was recording.
    pub enabled: bool,
    /// Nanoseconds since the runtime started.
    pub uptime_nanos: u64,
    /// One summary per [`Stage`], in pipeline order.
    pub stages: Vec<StageSummary>,
    /// Total queued batches across shards, as sampled by each shard's
    /// latest fold (advisory: folds run concurrently with reads).
    pub queue_depth: u64,
    /// Per-shard fold-time queue depth, in shard order.
    pub shard_queue_depth: Vec<u64>,
    /// Per-shard age of the most recently folded batch, nanoseconds.
    pub shard_queue_age_nanos: Vec<u64>,
    /// Events ever pushed to the ring.
    pub events_logged: u64,
    /// Events evicted from the ring to bound memory.
    pub events_dropped: u64,
    /// Events a sampling producer (the wire front door under NACK flood)
    /// chose not to record ([`EventRing::note_sampled_out`]).
    pub events_sampled_out: u64,
    /// The retained events, oldest first.
    pub events: Vec<TelemetryEvent>,
}

impl TelemetrySnapshot {
    /// The summary for `stage` (always present — the fold emits every
    /// stage, counting zero when nothing was recorded).
    pub fn stage(&self, stage: Stage) -> &StageSummary {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .expect("fold emits every stage")
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("telemetry snapshot serializes")
    }

    /// Parses the JSON produced by [`to_json`](Self::to_json).
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_merges_shards_and_round_trips_json() {
        let t = Telemetry::new(3);
        for shard in 0..3usize {
            for i in 0..50u64 {
                t.record(shard, Stage::Score, 1_000 + i * (shard as u64 + 1));
            }
        }
        t.front().stage(Stage::Drain).record(5_000);
        t.event(EventKind::Shed, 4, 48, 0, "127.0.0.1:5 rate limited");

        let snap = t.fold();
        assert_eq!(snap.stage(Stage::Score).count, 150);
        assert_eq!(snap.stage(Stage::Drain).count, 1);
        assert_eq!(snap.stage(Stage::Decode).count, 0);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events_logged, 1);

        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::disabled(2);
        t.record(0, Stage::Score, 999);
        t.span(Stage::Drain).stop();
        t.shard_span(1, Stage::DetectorUpdate).stop();
        t.event(EventKind::AlarmFired, 1, 2, 3, "ignored");
        let snap = t.fold();
        assert!(!snap.enabled);
        assert!(snap.stages.iter().all(|s| s.count == 0));
        assert!(snap.events.is_empty());
    }

    #[test]
    fn queue_gauges_report_per_shard_and_total() {
        let t = Telemetry::new(2);
        t.shard(0).queue_depth.set(3);
        t.shard(1).queue_depth.set(4);
        t.shard(1).queue_age_nanos.set(77);
        let snap = t.fold();
        assert_eq!(snap.queue_depth, 7);
        assert_eq!(snap.shard_queue_depth, vec![3, 4]);
        assert_eq!(snap.shard_queue_age_nanos, vec![0, 77]);
    }
}
