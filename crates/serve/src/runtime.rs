//! The sharded online runtime: batched ingestion, per-node sequential
//! decisions, alarms, counters, snapshots.
//!
//! # Architecture
//!
//! [`ServeRuntime::start`] builds `shards` shards and spawns one worker
//! thread per shard. A shard has two parts:
//!
//! * a bounded batch queue of capacity [`ServeConfig::queue_depth`]
//!   batches — a full queue blocks [`ServeRuntime::submit_rows`], which is
//!   the backpressure story: ingestion can never outrun detection by more
//!   than the configured number of in-flight batches per shard;
//! * a `Mutex` around the shard's state: the per-node
//!   [`SequentialState`] map of its node partition, the µ cache, the score
//!   scratch buffer and the drift accumulator.
//!
//! [`ServeRuntime::submit_rows`] partitions a round's reports — flat CSR
//! [`ObservationBatch`] rows, no per-report heap objects — by [`shard_of`]
//! (a pure hash of the node id: no coordination, no rebalancing) and
//! pushes each shard its partition. Folding a batch scores it with the
//! decision metric's single-column sparse kernel
//! ([`LadEngine::score_rows_seq_one_cached_into`], or
//! [`LadEngine::score_rows_seq_one_into`] when the µ cache is off): the
//! detector consumes exactly one score per report, so the shard never pays
//! for the other metrics. That column is bit-identical to the same column
//! of the all-metrics fused pass (`tests/sparse_exactness.rs`). The fold
//! then updates each node's detector state and emits an [`Alarm`]
//! whenever the rule fires.
//!
//! **Who folds.** A batch is popped only while its shard's state lock is
//! held, and it is folded under that same lock, so each shard's batches
//! are folded in FIFO order whichever thread does it:
//!
//! * the worker thread waits for a batch, takes the lock, pops it and
//!   folds it — scoring scales with the shard count instead of funnelling
//!   through the submitters;
//! * [`ServeRuntime::sync`] takes each shard's lock and folds whatever is
//!   still queued **on the calling thread**, instead of sleeping until a
//!   parked worker wakes up and does it. A paced round (submit, then
//!   `sync`) therefore waits for no thread wake-up: on a 2-vCPU VM waking
//!   a worker parked for a few milliseconds takes 40–60 µs, and waking
//!   the waiting caller back another 20–25 µs, against ~100 µs of
//!   scoring;
//! * [`ServeRuntime::snapshot`], [`ServeRuntime::restore`] and
//!   [`ServeRuntime::refresh_drift`] drain the queue the same way, then
//!   read or write the state directly.
//!
//! **Submit never folds.** `submit_rows` only pushes (and blocks while
//! the queue is full). A variant where the submitter folds its own batch
//! right after pushing it cut saturated TCP ingest by 17–35%, because the
//! wire reader stops decoding while it scores. It did lower the TCP
//! round latency by ~15%, which does not pay for that.
//!
//! The queue backs off briefly before parking and wakes only a waiter that
//! is actually parked. Each worker builds its own shard state, so that
//! state's heap comes from the worker's allocator arena, as it did when
//! the worker owned it. Saturated single-shard throughput still measures
//! 1–5% below the `std::sync::mpsc::sync_channel` this replaced (2-vCPU
//! VM); paced rounds are ~40% faster.
//! Alarm *sets* are bit-deterministic in the shard count; only the
//! interleaving of the alarm stream varies.
//!
//! [`SequentialState`]: lad_stats::SequentialState

use crate::drift::{DriftMonitorConfig, DriftSnapshot};
use crate::snapshot::{NodeDetectorState, ServeError, ServeSnapshot, SNAPSHOT_VERSION};
use lad_core::engine::LadEngine;
use lad_core::MetricKind;
use lad_deployment::MuCache;
use lad_geometry::{Circle, Point2};
use lad_net::{NodeId, ObservationBatch};
use lad_stats::seeds::splitmix64;
use lad_stats::{ScoreAccumulator, SequentialDetector, SequentialState};
use lad_telemetry::{
    CumulativeSample, EventKind, HealthInputs, HealthReport, SeriesConfig, SeriesRing,
    SeriesSnapshot, Stage, Telemetry, TelemetrySnapshot,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Deterministic node → shard assignment: a pure SplitMix64 hash of the
/// node id, so the partition is stable across runs, machines and restarts
/// (snapshots restored into a runtime with a different shard count land on
/// the right shards automatically).
pub fn shard_of(node: NodeId, shards: usize) -> usize {
    (splitmix64(node.0 as u64) % shards as u64) as usize
}

/// Configuration of a [`ServeRuntime`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of worker shards (≥ 1).
    pub shards: usize,
    /// Bounded batch-queue capacity per shard, in batches (≥ 1). A full
    /// queue blocks [`ServeRuntime::submit_rows`] — backpressure instead
    /// of unbounded buffering. Queued batches are folded by the shard's
    /// worker, or by whichever thread calls [`ServeRuntime::sync`]
    /// (or `snapshot` / `restore` / `refresh_drift`) first, so this also
    /// bounds the work one such call can pick up per shard.
    pub queue_depth: usize,
    /// The engine metric whose score drives the sequential decision.
    pub metric: MetricKind,
    /// The sequential decision rule every node runs.
    pub detector: SequentialDetector,
    /// Reset a node's state after it alarms (so a persistent anomaly
    /// re-alarms at the detector's cadence instead of every round, and a
    /// cleaned node starts fresh). Defaults to `true`.
    pub reset_on_alarm: bool,
    /// Capacity (in estimates) of each shard's µ-memoization cache
    /// ([`MuCache`]); `0` disables caching. The cache is derived state —
    /// per shard, never serialized, rebuilt empty on start/restore — and
    /// scores are bit-identical at any capacity (exact estimate-bit keys),
    /// so this knob trades memory for hit rate only. Defaults to 16384:
    /// at half that, a working set of 4096 distinct estimates already
    /// loses ~10% of lookups to 4-way set-conflict evictions (mean set
    /// load 2 ⇒ ~5% of sets oversubscribed); doubling the sets drops the
    /// conflict rate below 1%. Each memoized estimate costs ~49 B of slot
    /// plus 12 B per support entry: 320 B of heap on average at paper
    /// scale (22 entries; measured by a counting allocator over a churning
    /// stream), so a full default cache holds ~5 MiB per shard.
    pub mu_cache_capacity: usize,
    /// Record stage latencies, queue gauges and structured events into the
    /// runtime's [`Telemetry`] registry. Telemetry is *derived* state:
    /// never serialized into [`ServeSnapshot`], never consulted by any
    /// decision, so alarms and detector states are bit-identical with it
    /// on or off (the determinism suites run with it on, the default).
    /// Turning it off removes even the timestamp reads from the hot path —
    /// the bench asserts the on/off throughput ratio stays under 10%.
    pub telemetry: bool,
    /// Optional online score-drift monitor (see [`DriftMonitorConfig`]).
    /// When set, each shard accumulates its **non-alarming** scores into a
    /// bounded `ScoreAccumulator` and [`ServeRuntime::refresh_drift`]
    /// compares the fold against the calibration baseline. Derived state
    /// only — the verdict is never consulted by any decision, so alarms
    /// are bit-identical with the monitor on or off (asserted by
    /// `tests/serve_determinism.rs`). Defaults to `None`.
    pub monitor: Option<DriftMonitorConfig>,
    /// Duration of one windowed-series interval in nanoseconds: each
    /// [`ServeRuntime::stats`] call observes the cumulative counters, and
    /// once at least this much time has passed since the last window
    /// closed, the delta becomes one [`lad_telemetry::WindowSample`].
    /// `0` closes a window on **every** stats call (deterministic
    /// round-driven tests and tours). Defaults to one second.
    pub stats_window_nanos: u64,
    /// Retained window count of the series ring (oldest evicted first).
    /// Defaults to 64 — about a minute of history at the default window.
    pub stats_window_capacity: usize,
}

impl ServeConfig {
    /// A single-shard configuration with the given decision metric and
    /// rule (queue depth 4, reset-on-alarm, 16384-estimate µ cache).
    pub fn new(metric: MetricKind, detector: SequentialDetector) -> Self {
        Self {
            shards: 1,
            queue_depth: 4,
            metric,
            detector,
            reset_on_alarm: true,
            mu_cache_capacity: 16384,
            telemetry: true,
            monitor: None,
            stats_window_nanos: SeriesConfig::default().window_nanos,
            stats_window_capacity: SeriesConfig::default().capacity,
        }
    }

    /// Returns a copy with a different shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with a different per-shard queue depth.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Returns a copy with a different per-shard µ-cache capacity
    /// (`0` disables memoization entirely).
    pub fn with_mu_cache_capacity(mut self, capacity: usize) -> Self {
        self.mu_cache_capacity = capacity;
        self
    }

    /// Returns a copy with telemetry recording on or off.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Returns a copy with the online drift monitor attached. The
    /// baseline's metric must match the decision metric;
    /// [`ServeRuntime::start`] rejects a mismatch.
    pub fn with_drift_monitor(mut self, monitor: DriftMonitorConfig) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Returns a copy with a different series window duration and retained
    /// window count (`window_nanos == 0` closes a window on every stats
    /// call).
    pub fn with_stats_window(mut self, window_nanos: u64, capacity: usize) -> Self {
        self.stats_window_nanos = window_nanos;
        self.stats_window_capacity = capacity;
        self
    }

    /// Returns a copy that keeps detector state across alarms.
    pub fn keep_state_on_alarm(mut self) -> Self {
        self.reset_on_alarm = false;
        self
    }
}

/// One fired detection: the node, the round it fired in, the raw per-round
/// score, the decision statistic that crossed the threshold, and the
/// location the report *claimed* — the spatial anchor the response layer
/// (`lad_response`) clusters alarms by to separate localized attack foci
/// from diffuse false alarms.
///
/// Serializable: undrained alarms ride through the v2 snapshot path
/// ([`ServeSnapshot::pending_alarms`](crate::ServeSnapshot)) so a restart
/// cannot silently lose fired-but-undrained alarms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// The node the rule fired for.
    pub node: NodeId,
    /// The round whose report fired it.
    pub round: u64,
    /// The round's raw anomaly score (the configured metric).
    pub score: f64,
    /// The decision statistic at firing time (CUSUM sum / EWMA value /
    /// window count).
    pub statistic: f64,
    /// The location estimate the firing report claimed (`L_e`).
    pub estimate: Point2,
}

/// The serve-side view of a revocation decision set: which nodes are
/// revoked and which regions are quarantined. Reports from revoked nodes —
/// and reports *claiming* a position inside a quarantined region — are
/// suppressed in [`ServeRuntime::submit_rows`] **before** they reach a
/// shard, so quarantined work never touches the scoring hot path.
///
/// This type is deliberately policy-free: the response layer
/// (`lad_response`) decides *what* to revoke and compiles its versioned
/// `RevocationList` down to this flat filter; the runtime only enforces it.
/// Suppression happens on the submitting thread with a pure function of
/// `(node, estimate)`, so alarm and revocation decisions stay
/// bit-deterministic in the shard count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResponseFilter {
    /// Monotone revision counter of the producing revocation list (0 for
    /// the empty filter a runtime starts with).
    pub revision: u64,
    /// Revoked node ids, ascending (binary-searched per report).
    pub revoked: Vec<u32>,
    /// Quarantined regions (linearly scanned per report; policies keep
    /// this list short by merging overlapping foci).
    pub quarantined: Vec<Circle>,
    /// Watched node ids, ascending: nodes with alarm history whose
    /// *suppressed* claims into a quarantined region count toward that
    /// region's suppression telemetry ([`ServeRuntime::region_suppression`]).
    /// Suppression hides in-region alarms by construction, so "the region
    /// went quiet" must be judged on suppressed attempts by previously
    /// suspicious nodes — an honest resident's suppressed reports do not
    /// keep its region quarantined forever.
    pub watched: Vec<u32>,
}

impl ResponseFilter {
    /// Builds a filter, sorting and deduplicating the revoked ids.
    pub fn new(revision: u64, mut revoked: Vec<u32>, quarantined: Vec<Circle>) -> Self {
        revoked.sort_unstable();
        revoked.dedup();
        Self {
            revision,
            revoked,
            quarantined,
            watched: Vec::new(),
        }
    }

    /// Returns a copy with the watched node set (sorted, deduplicated).
    pub fn with_watched(mut self, mut watched: Vec<u32>) -> Self {
        watched.sort_unstable();
        watched.dedup();
        self.watched = watched;
        self
    }

    /// Whether the filter suppresses nothing (the hot path's fast bail).
    pub fn is_empty(&self) -> bool {
        self.revoked.is_empty() && self.quarantined.is_empty()
    }

    /// Whether a report from `node` claiming `estimate` is suppressed.
    #[inline]
    pub fn suppresses(&self, node: NodeId, estimate: Point2) -> bool {
        self.revoked.binary_search(&node.0).is_ok()
            || self.quarantined.iter().any(|c| c.contains(estimate))
    }

    /// The index of the first quarantined region containing `estimate`.
    #[inline]
    pub fn suppressing_region(&self, estimate: Point2) -> Option<usize> {
        self.quarantined.iter().position(|c| c.contains(estimate))
    }

    /// Whether `node`'s suppressed claims count toward region telemetry.
    #[inline]
    pub fn is_watched(&self, node: NodeId) -> bool {
        self.watched.binary_search(&node.0).is_ok()
    }
}

/// The installed filter plus its per-region suppression counters (one per
/// quarantined circle, same order) — swapped together so the counters
/// always describe the circles of the filter they were created with.
struct FilterState {
    filter: Arc<ResponseFilter>,
    region_hits: Arc<Vec<AtomicU64>>,
}

/// A point-in-time snapshot of the runtime's counters — the single
/// coherent view telemetry pollers read (and serialise: the struct is
/// serde-round-trippable, so an operator endpoint can ship it as JSON)
/// instead of racing the individual atomics one read at a time.
///
/// Coherence guarantee: within one snapshot, `processed ≤ submitted`
/// always holds ([`Self::queue_depth`] never underflows and never
/// fabricates phantom backlog from a torn read) — [`ServeRuntime::counters`]
/// loads the counters in an order that preserves the invariant even while
/// submitters and shards are running. The remaining fields are each exact
/// at some instant during the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServeCounters {
    /// Reports accepted into the scoring pipeline so far (shed and
    /// suppressed reports are not counted here).
    pub submitted: u64,
    /// Reports fully processed (scored + decided) by the shards.
    pub processed: u64,
    /// Alarms raised.
    pub alarms: u64,
    /// Batches submitted.
    pub batches: u64,
    /// Highest round number submitted.
    pub last_round: u64,
    /// Reports suppressed by the installed [`ResponseFilter`] (revoked
    /// node or quarantined claimed region) before reaching a shard. Not
    /// counted in `submitted`.
    pub suppressed: u64,
    /// Reports shed at the ingest boundary (rate-limited or overloaded —
    /// NACKed back to the client, never queued). Recorded via
    /// [`ServeRuntime::record_shed`]; not counted in `submitted`.
    pub shed: u64,
    /// Wire frames that failed to decode (truncated, bad checksum, bad
    /// version, invalid CSR payload). Recorded via
    /// [`ServeRuntime::record_decode_error`].
    pub decode_errors: u64,
    /// µ-memoization cache hits across all shards: reports whose estimate's
    /// sparse µ was scored in place from the shard's [`MuCache`] instead of
    /// being re-derived. Always 0 when [`ServeConfig::mu_cache_capacity`] is 0.
    pub mu_cache_hits: u64,
    /// µ-memoization cache misses across all shards (each paid one
    /// `expected_sparse_into` fill). `hits / (hits + misses)` is the cache
    /// hit rate; hits + misses equals the cached-path report count.
    pub mu_cache_misses: u64,
}

impl ServeCounters {
    /// Reports currently sitting in shard queues (submitted − processed).
    ///
    /// **Advisory, not a barrier**: the difference of two monotone counters
    /// read at slightly different instants. It never underflows and never
    /// fabricates phantom backlog (see [`ServeRuntime::counters`]), but it
    /// can overestimate a queue that drained mid-read, and it says nothing
    /// about *which* shard the backlog sits on. For fold-time per-shard
    /// depth and batch age, read the telemetry gauges
    /// ([`TelemetrySnapshot::shard_queue_depth`] via
    /// [`ServeRuntime::stats`]); to actually wait for the pipeline to
    /// empty, use [`ServeRuntime::sync`].
    pub fn queue_depth(&self) -> u64 {
        self.submitted.saturating_sub(self.processed)
    }

    /// µ-memoization hit rate, `hits / (hits + misses)`, as a fraction in
    /// `[0, 1]`. Returns 0.0 when no lookup has happened (cache disabled
    /// or nothing processed yet) rather than dividing by zero.
    pub fn mu_cache_hit_rate(&self) -> f64 {
        let lookups = self.mu_cache_hits + self.mu_cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.mu_cache_hits as f64 / lookups as f64
        }
    }
}

#[derive(Default)]
struct SharedCounters {
    submitted: AtomicU64,
    processed: AtomicU64,
    alarms: AtomicU64,
    batches: AtomicU64,
    last_round: AtomicU64,
    suppressed: AtomicU64,
    shed: AtomicU64,
    decode_errors: AtomicU64,
    mu_cache_hits: AtomicU64,
    mu_cache_misses: AtomicU64,
}

impl SharedCounters {
    fn load(&self) -> ServeCounters {
        // `processed` is loaded *before* `submitted`: a report is only ever
        // processed after it was submitted and both counters are monotone,
        // so processed_read ≤ processed_now ≤ submitted_now ≤ submitted_read
        // — the snapshot's queue_depth can overestimate a draining queue by
        // the reports that landed mid-call, but never underflow.
        let processed = self.processed.load(Ordering::Acquire);
        ServeCounters {
            processed,
            alarms: self.alarms.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            last_round: self.last_round.load(Ordering::Relaxed),
            suppressed: self.suppressed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            mu_cache_hits: self.mu_cache_hits.load(Ordering::Relaxed),
            mu_cache_misses: self.mu_cache_misses.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Acquire),
        }
    }
}

/// One round's partition for a shard: the nodes (in partition order) and
/// their reports as flat CSR rows — no per-report heap objects cross the
/// queue.
struct Batch {
    round: u64,
    nodes: Vec<NodeId>,
    rows: ObservationBatch,
    /// Telemetry enqueue timestamp ([`Telemetry::now_nanos`] at submit
    /// time; 0 when telemetry is off) — the fold derives the queue-wait
    /// span from it. Observability only: never read by any decision.
    enqueued_nanos: u64,
}

/// The sharded online detection runtime. See the [module docs](self) for
/// the architecture and `lad_serve`'s crate docs for an end-to-end example.
pub struct ServeRuntime {
    config: ServeConfig,
    engine_fingerprint: u64,
    /// Deployment group count, for building per-shard row batches.
    group_count: usize,
    shards: Vec<Arc<Shard>>,
    /// One worker thread per shard; emptied by [`Self::shutdown`] (or
    /// `Drop`), which closes the queues and joins them.
    workers: Vec<JoinHandle<()>>,
    alarm_rx: Mutex<Receiver<Alarm>>,
    /// A sender into the alarm stream the runtime itself holds, for
    /// re-injecting alarms captured non-destructively by [`Self::snapshot`]
    /// and for restoring a v2 snapshot's pending alarms.
    alarm_tx: Sender<Alarm>,
    /// The installed response filter and its per-region suppression
    /// counters (an empty default until the response layer installs one).
    /// Swapped as `Arc`s so `submit_rows` pays one lock + pointer clone
    /// per *batch*, not per report.
    filter: Mutex<FilterState>,
    counters: Arc<SharedCounters>,
    /// Derived-only observability registry (stage histograms, queue
    /// gauges, event ring). Shared with the shards; `Arc` so the
    /// wire/response layers can hold it without borrowing the runtime.
    telemetry: Arc<Telemetry>,
    /// The windowed time-series ring, fed by [`Self::stats`]. Stats-path
    /// state only — the scoring hot path never touches this lock.
    series: Mutex<SeriesRing>,
    /// The latest drift verdict, refreshed by [`Self::refresh_drift`] and
    /// read (never computed) by [`Self::stats`], which therefore never
    /// touches shard state.
    drift: Mutex<DriftSnapshot>,
}

/// Everything a runtime hands back when it shuts down.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// The final detector state of every tracked node (restorable).
    pub snapshot: ServeSnapshot,
    /// Alarms not yet drained when the runtime stopped.
    pub alarms: Vec<Alarm>,
    /// Final counter values.
    pub counters: ServeCounters,
}

/// The stats-export format version this build writes and reads. Bumped
/// whenever a field changes meaning or shape, so a scraper built against
/// one format fails loudly on another instead of mis-reading it —
/// the same contract as [`ServeSnapshot`]'s and `DriftBaseline`'s
/// versioning.
///
/// Version history:
///
/// * **v1** — counters + telemetry + windowed series + drift verdict +
///   health report (the first versioned format; the pre-versioning export
///   carried counters and telemetry only and no `stats_version` field, so
///   it parses as `Parse`, not as a silent zero-filled v1).
/// * **v2** — the load-shed degrade tier is gone: no degraded-report
///   counter or window field, and no degrade event, health cause or
///   status (the remaining statuses keep their severity codes).
pub const STATS_VERSION: u32 = 2;

/// One coherent observability export of a running [`ServeRuntime`]:
/// counters, the folded telemetry (stage percentiles, queue gauges, recent
/// events), the windowed time-series history, the drift verdict and the
/// derived health report. Produced by [`ServeRuntime::stats`]; shipped as
/// the JSON payload of the wire `Stats` frame and rendered to Prometheus
/// exposition by [`render_prometheus`](crate::render_prometheus). Purely
/// derived — nothing in it feeds back into any decision, and it is not
/// part of [`ServeSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Export format version (see [`STATS_VERSION`]).
    pub stats_version: u32,
    /// The runtime counters, loaded with the usual
    /// `processed ≤ submitted` coherence guarantee.
    pub counters: ServeCounters,
    /// The folded telemetry registries.
    pub telemetry: TelemetrySnapshot,
    /// The retained windowed time-series (throughput, alarm rate, shed,
    /// stage percentiles per window).
    pub series: SeriesSnapshot,
    /// The latest drift verdict ([`DriftSnapshot::disabled`] when no
    /// monitor is configured).
    pub drift: DriftSnapshot,
    /// The health report derived from all of the above.
    pub health: HealthReport,
}

impl ServeStats {
    /// Serializes to JSON (the wire `Stats` payload). Always writes
    /// [`STATS_VERSION`].
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serve stats serialize")
    }

    /// Parses the JSON produced by [`to_json`](Self::to_json). A
    /// `stats_version` other than [`STATS_VERSION`] fails with the typed
    /// [`ServeError::UnsupportedVersion`] — never a zero-filled guess.
    pub fn from_json(json: &str) -> Result<Self, ServeError> {
        let value = serde_json::parse_value(json).map_err(|e| ServeError::Parse(e.to_string()))?;
        let found = value
            .get("stats_version")
            .ok_or_else(|| {
                ServeError::Parse("not a stats export (no `stats_version` field)".into())
            })?
            .as_u64()
            .ok_or_else(|| ServeError::Parse("`stats_version` must be an integer".into()))?;
        if found != STATS_VERSION as u64 {
            return Err(ServeError::UnsupportedVersion { found });
        }
        serde_json::from_value(&value).map_err(|e| ServeError::Parse(e.to_string()))
    }
}

impl ServeRuntime {
    /// Starts the runtime: validates the configuration against the engine
    /// and spawns the worker shards.
    pub fn start(engine: Arc<LadEngine>, config: ServeConfig) -> Result<Self, ServeError> {
        if config.shards == 0 {
            return Err(ServeError::InvalidConfig("shards must be ≥ 1".into()));
        }
        if config.queue_depth == 0 {
            return Err(ServeError::InvalidConfig("queue_depth must be ≥ 1".into()));
        }
        if engine.metric_index(config.metric).is_none() {
            return Err(ServeError::MetricNotConfigured(config.metric));
        }
        if let Some(monitor) = &config.monitor {
            if monitor.baseline.metric != config.metric {
                return Err(ServeError::InvalidConfig(format!(
                    "drift baseline was captured on {}, runtime decides on {} — a baseline says \
                     nothing about another metric's score distribution",
                    monitor.baseline.metric.name(),
                    config.metric.name()
                )));
            }
        }

        let counters = Arc::new(SharedCounters::default());
        let telemetry = Arc::new(if config.telemetry {
            Telemetry::new(config.shards)
        } else {
            Telemetry::disabled(config.shards)
        });
        let (alarm_tx, alarm_rx) = mpsc::channel();
        let mut shards = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for index in 0..config.shards {
            let (engine, config) = (engine.clone(), config.clone());
            let (alarm_tx, counters, telemetry) =
                (alarm_tx.clone(), counters.clone(), telemetry.clone());
            let (built_tx, built_rx) = mpsc::channel();
            workers.push(std::thread::spawn(move || {
                // The worker builds its shard, so the state's heap — above
                // all the µ cache — comes from this thread's allocator
                // arena, not the starting thread's. Built on the starting
                // thread, saturated single-shard `replay_inproc`
                // throughput measured ~10% lower.
                let state = ShardState {
                    engine,
                    detector: config.detector,
                    metric: config.metric,
                    reset_on_alarm: config.reset_on_alarm,
                    alarm_tx,
                    counters,
                    shard: index,
                    telemetry,
                    nodes: HashMap::new(),
                    mu_cache: (config.mu_cache_capacity > 0)
                        .then(|| MuCache::new(config.mu_cache_capacity)),
                    scores: Vec::new(),
                    folded_batches: 0,
                    drift_acc: config
                        .monitor
                        .as_ref()
                        .map(|m| ScoreAccumulator::new(m.baseline.accumulator_config())),
                };
                let shard = Arc::new(Shard::new(config.queue_depth, state));
                let _ = built_tx.send(shard.clone());
                shard.run_worker();
            }));
            shards.push(built_rx.recv().expect("shard thread builds its state"));
        }
        let series = Mutex::new(SeriesRing::new(SeriesConfig {
            window_nanos: config.stats_window_nanos,
            capacity: config.stats_window_capacity,
        }));
        Ok(Self {
            config,
            engine_fingerprint: crate::snapshot::engine_fingerprint(&engine),
            group_count: engine.knowledge().group_count(),
            shards,
            workers,
            alarm_rx: Mutex::new(alarm_rx),
            alarm_tx,
            filter: Mutex::new(FilterState {
                filter: Arc::new(ResponseFilter::default()),
                region_hits: Arc::new(Vec::new()),
            }),
            counters,
            telemetry,
            series,
            drift: Mutex::new(DriftSnapshot::disabled()),
        })
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Installs (replaces) the response filter. Subsequent
    /// [`Self::submit_rows`] calls suppress reports from revoked nodes and
    /// reports claiming a quarantined position before they reach a shard;
    /// in-flight batches are not re-filtered. Counted in
    /// [`ServeCounters::suppressed`]; per-region suppression telemetry
    /// restarts from zero for the new filter.
    pub fn install_response_filter(&self, filter: ResponseFilter) {
        let region_hits = Arc::new(
            (0..filter.quarantined.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
        );
        *self.filter.lock().expect("response filter lock") = FilterState {
            filter: Arc::new(filter),
            region_hits,
        };
    }

    /// The currently installed response filter (the empty default until
    /// [`Self::install_response_filter`] is called).
    pub fn response_filter(&self) -> Arc<ResponseFilter> {
        self.filter
            .lock()
            .expect("response filter lock")
            .filter
            .clone()
    }

    /// Per-region suppression telemetry of the installed filter: its
    /// revision plus, for each of its quarantined circles (same order),
    /// how many reports from **watched** nodes claimed into that region
    /// and were suppressed since the filter was installed. This is how the
    /// response layer tells a region that went genuinely quiet from one
    /// whose attacker keeps transmitting into the void — suppressed
    /// reports never reach scoring, so they can never appear as alarms.
    pub fn region_suppression(&self) -> (u64, Vec<u64>) {
        let state = self.filter.lock().expect("response filter lock");
        (
            state.filter.revision,
            state
                .region_hits
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        )
    }

    /// Submits one round of reports as flat CSR rows: `nodes[i]` reported
    /// `rows.row(i)`. Reports suppressed by the installed
    /// [`ResponseFilter`] (revoked node / quarantined claimed position) are
    /// dropped here — on the submitting thread, as a pure function of
    /// `(node, estimate)`, so suppression is bit-deterministic in the shard
    /// count and never costs a shard any scoring work. The surviving rows
    /// are partitioned by [`shard_of`] into per-shard
    /// [`ObservationBatch`]es (flat copies — the only per-call allocations
    /// are the per-shard batch buffers handed over the queues), and the
    /// call blocks while any destination shard's queue is full
    /// (backpressure). Rounds must be submitted in nondecreasing order for
    /// the per-node decision sequences to be meaningful.
    ///
    /// # Non-finite estimates
    /// Estimates are not range-checked: NaN, ±∞ and huge finite claims
    /// (e.g. `1e300`) are accepted like any other position and score as a
    /// claim *nowhere near any group* — µ has empty support, so Diff and
    /// Add-all equal the row's observation total and Probability sits at
    /// its `−ln(1e-300) ≈ 690.78` floor (for any nonempty observation).
    /// Every observed neighbour counts as unexpected, so a garbage claim
    /// is scored as anomalous rather than evading detection, and the
    /// scores are bit-identical to the offline fused pass
    /// (`tests/serve_determinism.rs` pins this).
    ///
    /// # Panics
    /// Panics when `nodes.len() != rows.len()`, or when the batch's group
    /// count differs from the engine's deployment (the once-per-batch
    /// boundary check — failing here, with a clear message, instead of on
    /// a shard thread).
    pub fn submit_rows(&self, round: u64, nodes: &[NodeId], rows: &ObservationBatch) {
        assert_eq!(
            nodes.len(),
            rows.len(),
            "one node per observation row required"
        );
        assert_eq!(
            rows.group_count(),
            self.group_count,
            "batch/deployment group-count mismatch"
        );
        let shards = self.shards.len();
        let (filter, region_hits) = {
            let state = self.filter.lock().expect("response filter lock");
            (state.filter.clone(), state.region_hits.clone())
        };
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters.last_round.fetch_max(round, Ordering::Relaxed);
        // One enqueue timestamp per submitted round — the workers derive
        // their queue-wait spans from it. 0 (and no counter touch) when
        // telemetry is off, keeping the disabled path timestamp-free.
        let enqueued_nanos = if self.telemetry.enabled() {
            self.telemetry.now_nanos()
        } else {
            0
        };
        // Single-shard fast path: there is nothing to partition, so when no
        // report is suppressed the whole round is handed over as one bulk
        // copy instead of a per-report hash/push loop. The suppression scan
        // applies the exact predicate of the general loop; any suppressed
        // report falls through to it (which also owns the per-region
        // watched-node telemetry).
        if shards == 1
            && (filter.is_empty()
                || !nodes
                    .iter()
                    .enumerate()
                    .any(|(i, &node)| filter.suppresses(node, rows.estimate(i))))
        {
            self.counters
                .submitted
                .fetch_add(nodes.len() as u64, Ordering::Release);
            if !nodes.is_empty() {
                if self.telemetry.enabled() {
                    self.telemetry.shard(0).enqueued_batches.add(1);
                }
                self.shards[0].queue.push(Batch {
                    round,
                    nodes: nodes.to_vec(),
                    rows: rows.clone(),
                    enqueued_nanos,
                });
            }
            return;
        }
        let mut shard_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
        let mut shard_rows: Vec<ObservationBatch> = (0..shards)
            .map(|_| ObservationBatch::new(rows.group_count()))
            .collect();
        let mut suppressed = 0u64;
        for (i, &node) in nodes.iter().enumerate() {
            if !filter.is_empty() {
                if filter.revoked.binary_search(&node.0).is_ok() {
                    suppressed += 1;
                    continue;
                }
                if let Some(region) = filter.suppressing_region(rows.estimate(i)) {
                    if filter.is_watched(node) {
                        region_hits[region].fetch_add(1, Ordering::Relaxed);
                    }
                    suppressed += 1;
                    continue;
                }
            }
            let s = shard_of(node, shards);
            shard_nodes[s].push(node);
            shard_rows[s].push_row(rows, i);
        }
        self.counters
            .submitted
            .fetch_add(nodes.len() as u64 - suppressed, Ordering::Release);
        if suppressed > 0 {
            self.counters
                .suppressed
                .fetch_add(suppressed, Ordering::Relaxed);
        }
        for (shard, (nodes, rows)) in shard_nodes.into_iter().zip(shard_rows).enumerate() {
            if nodes.is_empty() {
                continue;
            }
            if self.telemetry.enabled() {
                self.telemetry.shard(shard).enqueued_batches.add(1);
            }
            self.shards[shard].queue.push(Batch {
                round,
                nodes,
                rows,
                enqueued_nanos,
            });
        }
    }

    /// Records `reports` shed at the ingest boundary (rate-limited or
    /// overloaded — NACKed, never queued). The wire front door (`lad_wire`)
    /// calls this so shed traffic shows up in [`ServeCounters::shed`] and
    /// the [`ShutdownReport`] next to everything that was accepted.
    pub fn record_shed(&self, reports: u64) {
        self.counters.shed.fetch_add(reports, Ordering::Relaxed);
    }

    /// Records one wire frame that failed to decode (truncated, bad
    /// checksum, bad version, invalid CSR payload) —
    /// [`ServeCounters::decode_errors`] telemetry for the ingest boundary.
    pub fn record_decode_error(&self) {
        self.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The deployment group count every submitted batch must be over
    /// (from the engine the runtime was started with). The wire decoder
    /// validates frames against this before they can reach
    /// [`Self::submit_rows`].
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Returns once every report submitted before the call has been scored
    /// and decided.
    ///
    /// `sync` does not wait for the workers: it takes each shard's state
    /// lock in turn and folds whatever that shard still has queued **on
    /// the calling thread** (a worker mid-fold finishes its batch first).
    /// So a paced caller (submit a round, then `sync`) pays the scoring
    /// itself instead of two thread wake-ups. The work one call can pick
    /// up is bounded by the batches queued when it takes each lock — at
    /// most [`ServeConfig::queue_depth`] per shard — so concurrent
    /// submitters cannot keep it from returning.
    ///
    /// # Panics
    /// Panics if a fold on that shard panicked earlier (the shard's state
    /// lock is poisoned; its detector states can no longer be trusted).
    pub fn sync(&self) {
        for shard in &self.shards {
            drop(shard.drain());
        }
    }

    /// A consistent snapshot of the runtime counters (does not sync; call
    /// [`Self::sync`] first for quiescent numbers).
    pub fn counters(&self) -> ServeCounters {
        self.counters.load()
    }

    /// The runtime's [`Telemetry`] registry — derived observability state
    /// only. The wire front door and response controller record their
    /// stage spans and events here so one fold covers the whole pipeline.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// One coherent observability export: the counters, a fold of every
    /// telemetry registry (stage percentiles, queue gauges, recent
    /// events), the windowed series, the cached drift verdict, and the
    /// health report derived from all of it. This is the payload the wire
    /// `Stats` frame ships as JSON. The counters are loaded first, so
    /// `counters.submitted ≥ counters.processed` holds within the export
    /// even under load.
    ///
    /// Each call also *feeds* the series ring with one cumulative
    /// observation — a window closes once [`ServeConfig::stats_window_nanos`]
    /// has elapsed since the last close, so the poller's cadence bounds
    /// the window granularity. The drift verdict is the one cached by the
    /// last [`Self::refresh_drift`]; this call never takes a shard lock,
    /// so a stats poll cannot stall behind a backlogged scoring queue.
    pub fn stats(&self) -> ServeStats {
        let counters = self.counters();
        let telemetry = self.telemetry.fold();
        let series = {
            let mut ring = self.series.lock().expect("series ring lock");
            ring.observe(CumulativeSample {
                at_nanos: self.telemetry.now_nanos(),
                submitted: counters.submitted,
                processed: counters.processed,
                alarms: counters.alarms,
                shed: counters.shed,
                suppressed: counters.suppressed,
                mu_cache_hits: counters.mu_cache_hits,
                mu_cache_misses: counters.mu_cache_misses,
                queue_depth: telemetry.queue_depth,
                stages: self.telemetry.stage_histos(),
            });
            ring.snapshot()
        };
        let drift = self.drift.lock().expect("drift verdict lock").clone();
        let health = derive_health(&self.config, &counters, &telemetry, &series, &drift);
        ServeStats {
            stats_version: STATS_VERSION,
            counters,
            telemetry,
            series,
            drift,
            health,
        }
    }

    /// Folds every shard's clean-score accumulator (in shard order — the
    /// fold is exact and order-independent, but determinism on principle)
    /// and re-evaluates the drift monitor against its baseline, caching
    /// the verdict for [`Self::stats`]. Returns
    /// [`DriftSnapshot::disabled`] when no monitor is configured.
    ///
    /// This is the one observability call that touches shard state: like
    /// [`Self::sync`] it takes each shard's lock, folds whatever is still
    /// queued on the calling thread, then reads the accumulator. Call it
    /// on a poll cadence, not per report.
    pub fn refresh_drift(&self) -> DriftSnapshot {
        let Some(monitor) = &self.config.monitor else {
            return DriftSnapshot::disabled();
        };
        let mut folded = ScoreAccumulator::new(monitor.baseline.accumulator_config());
        for shard in &self.shards {
            if let Some(acc) = &shard.drain().drift_acc {
                folded.merge(acc.clone());
            }
        }
        let counters = self.counters();
        let observed_far = if counters.processed == 0 {
            0.0
        } else {
            counters.alarms as f64 / counters.processed as f64
        };
        let mut cached = self.drift.lock().expect("drift verdict lock");
        let verdict = monitor.evaluate(&folded, observed_far, &cached);
        *cached = verdict.clone();
        verdict
    }

    /// Drains every alarm raised by reports submitted so far (syncs first,
    /// so the result covers all submitted rounds).
    ///
    /// The alarm stream is deliberately **unbounded**: a shard must never
    /// stall detection because nobody is reading alarms (a bounded alarm
    /// queue would deadlock ingestion against the bounded shard queues).
    /// The flip side is that a caller who never drains — via this method,
    /// [`Self::poll_alarms`] or [`Self::shutdown`] — accrues memory for
    /// every alarm raised, so long-running operators should drain on a
    /// cadence ([`ServeCounters::alarms`] counts them either way).
    pub fn drain_alarms(&self) -> Vec<Alarm> {
        self.sync();
        self.poll_alarms()
    }

    /// Drains whatever alarms are currently in the output stream without
    /// waiting for in-flight batches.
    pub fn poll_alarms(&self) -> Vec<Alarm> {
        let _span = self.telemetry.span(Stage::Drain);
        let rx = self.alarm_rx.lock().expect("alarm receiver lock");
        let mut out = Vec::new();
        while let Ok(alarm) = rx.try_recv() {
            out.push(alarm);
        }
        out
    }

    /// Takes a consistent, restorable snapshot of every node's detector
    /// state **and** every fired-but-undrained alarm — captured
    /// non-destructively, so a later [`Self::drain_alarms`] still returns
    /// them.
    ///
    /// Each shard is drained like [`Self::sync`] does (its queued batches
    /// folded on the calling thread, under its state lock), and every lock
    /// stays held until the capture is done. Alarms fire only inside a
    /// fold, so while the capture drains the alarm stream and re-injects it
    /// in order no fresh alarm can interleave, and the states, the pending
    /// alarms and `requests_ingested` describe one cut even while other
    /// threads keep submitting (each shard's part is then some prefix of
    /// its batches).
    pub fn snapshot(&self) -> ServeSnapshot {
        let shards: Vec<MutexGuard<'_, ShardState>> =
            self.shards.iter().map(|shard| shard.drain()).collect();
        let mut states: Vec<NodeDetectorState> = shards
            .iter()
            .flat_map(|shard| shard.sorted_states())
            .collect();
        states.sort_by_key(|s| s.node);
        let pending = self.poll_alarms();
        for &alarm in &pending {
            self.alarm_tx
                .send(alarm)
                .expect("runtime holds the alarm receiver");
        }
        let counters = self.counters();
        drop(shards);
        self.telemetry.event(
            EventKind::Snapshot,
            counters.last_round,
            SNAPSHOT_VERSION as u64,
            states.len() as u64,
            "",
        );
        build_snapshot(
            &self.config,
            self.engine_fingerprint,
            &counters,
            states,
            pending,
        )
    }

    /// Installs the per-node states of `snapshot` into a **fresh** runtime
    /// (one that has not ingested anything yet — restoring over live state
    /// would merge two unrelated traffic histories, so it is rejected) and
    /// resumes the snapshot's ingestion counters (`submitted`/`processed`
    /// pick up from its `requests_ingested`, `last_round` from its
    /// `last_round`), so a later [`Self::snapshot`] stays consistent with
    /// the whole traffic history. The snapshot must have been taken with
    /// the same decision metric and detector; its states are routed by
    /// [`shard_of`], so the shard count may differ from the snapshot-time
    /// runtime's. Each shard's partition is written under its state lock,
    /// after its queue is drained like [`Self::sync`] does.
    pub fn restore(&self, snapshot: &ServeSnapshot) -> Result<(), ServeError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(ServeError::UnsupportedVersion {
                found: snapshot.version as u64,
            });
        }
        if self.counters().submitted != 0 {
            return Err(ServeError::SnapshotMismatch(
                "restore requires a fresh runtime (reports have already been ingested)".into(),
            ));
        }
        if snapshot.metric != self.config.metric {
            return Err(ServeError::SnapshotMismatch(format!(
                "snapshot decides on {}, runtime on {}",
                snapshot.metric.name(),
                self.config.metric.name()
            )));
        }
        if snapshot.detector != self.config.detector {
            return Err(ServeError::SnapshotMismatch(
                "snapshot was taken with a different detector".into(),
            ));
        }
        if snapshot.engine_fingerprint != self.engine_fingerprint {
            return Err(ServeError::SnapshotMismatch(
                "snapshot was taken under a different engine (deployment model or thresholds \
                 differ), so its detector states are not comparable"
                    .into(),
            ));
        }
        let shards = self.shards.len();
        let mut partitions: Vec<Vec<NodeDetectorState>> = vec![Vec::new(); shards];
        for state in &snapshot.states {
            partitions[shard_of(NodeId(state.node), shards)].push(*state);
        }
        for (shard, partition) in self.shards.iter().zip(partitions) {
            shard
                .drain()
                .nodes
                .extend(partition.into_iter().map(|entry| (entry.node, entry.state)));
        }
        // Re-inject the snapshot's fired-but-undrained alarms ahead of
        // anything the restored run fires (the runtime is fresh, so the
        // stream is empty), and resume the alarm counter over the whole
        // snapshot history so alarms-per-request stays consistent across
        // the restart.
        for &alarm in &snapshot.pending_alarms {
            self.alarm_tx
                .send(alarm)
                .expect("runtime holds the alarm receiver");
        }
        self.counters
            .alarms
            .fetch_add(snapshot.alarms_raised, Ordering::Relaxed);
        self.counters
            .submitted
            .fetch_add(snapshot.requests_ingested, Ordering::Relaxed);
        self.counters
            .processed
            .fetch_add(snapshot.requests_ingested, Ordering::Relaxed);
        self.counters
            .last_round
            .fetch_max(snapshot.last_round, Ordering::Relaxed);
        Ok(())
    }

    /// Closes the queues and joins the workers, which fold what is left
    /// first.
    fn stop_workers(&mut self) -> Vec<std::thread::Result<()>> {
        for shard in &self.shards {
            shard.queue.close();
        }
        self.workers.drain(..).map(JoinHandle::join).collect()
    }

    /// Graceful shutdown: processes everything in flight, stops the shards,
    /// and returns the final snapshot, the undrained alarms and the final
    /// counters.
    ///
    /// # Panics
    /// Panics if a shard's fold panicked.
    pub fn shutdown(mut self) -> ShutdownReport {
        for joined in self.stop_workers() {
            joined.expect("shard thread exits cleanly");
        }
        let mut states = Vec::new();
        for shard in &self.shards {
            states.extend(shard.drain().sorted_states());
        }
        states.sort_by_key(|s| s.node);
        let counters = self.counters.load();
        let mut alarms = Vec::new();
        {
            let rx = self.alarm_rx.lock().expect("alarm receiver lock");
            while let Ok(alarm) = rx.try_recv() {
                alarms.push(alarm);
            }
        }
        ShutdownReport {
            snapshot: build_snapshot(
                &self.config,
                self.engine_fingerprint,
                &counters,
                states,
                alarms.clone(),
            ),
            alarms,
            counters,
        }
    }
}

impl Drop for ServeRuntime {
    /// Stops the workers (a no-op after [`ServeRuntime::shutdown`]). A
    /// worker that panicked has already poisoned its shard lock; a
    /// destructor has nowhere to report it.
    fn drop(&mut self) {
        let _ = self.stop_workers();
    }
}

/// The single place a [`lad_telemetry::HealthReport`] is assembled from an
/// export's numbers — a pure function, so the report is reproducible from
/// the exported stats alone and nothing here can feed back into a
/// decision.
///
/// Shedding is judged on the most recent closed window so it clears once
/// the pressure passes; before any window has closed it falls back to the
/// cumulative counter. Queue backlog is
/// judged in *batches* against the configured total queue capacity (the
/// per-shard fold-time gauges summed vs `shards × queue_depth`). Drift and
/// alarm-rate causes come from the cached drift verdict and only engage
/// once the monitor has actually evaluated.
fn derive_health(
    config: &ServeConfig,
    counters: &ServeCounters,
    telemetry: &TelemetrySnapshot,
    series: &SeriesSnapshot,
    drift: &DriftSnapshot,
) -> HealthReport {
    let window_shed = series.latest().map_or(counters.shed, |window| window.shed);
    let judged = drift.enabled && drift.evaluations > 0;
    HealthReport::derive(&HealthInputs {
        window_shed,
        queue_depth: telemetry.queue_depth,
        queue_limit: (config.shards * config.queue_depth) as u64,
        drift: judged.then_some((drift.ks, drift.ks_tolerance)),
        alarm_rate: judged.then_some((drift.observed_far, drift.target_far, drift.far_band)),
    })
}

/// The single place a [`ServeSnapshot`] is assembled from live runtime
/// state — `snapshot()` and `shutdown()` both go through it, so a new
/// snapshot field cannot be populated in one path and forgotten in the
/// other.
fn build_snapshot(
    config: &ServeConfig,
    engine_fingerprint: u64,
    counters: &ServeCounters,
    states: Vec<NodeDetectorState>,
    pending_alarms: Vec<Alarm>,
) -> ServeSnapshot {
    ServeSnapshot {
        version: SNAPSHOT_VERSION,
        metric: config.metric,
        engine_fingerprint,
        detector: config.detector,
        requests_ingested: counters.processed,
        alarms_raised: counters.alarms,
        last_round: counters.last_round,
        states,
        pending_alarms,
    }
}

/// How long a queue waiter backs off before it parks: step `k <
/// SPIN_STEPS` spins `2^k` pause hints (127 in all, a few microseconds),
/// the steps after it up to `BACKOFF_STEPS` yield the CPU, which hands it
/// to the other side of the queue when both share a CPU. A handoff that
/// lands in this window costs no futex wait and no wake-up.
const SPIN_STEPS: u32 = 7;
/// See [`SPIN_STEPS`].
const BACKOFF_STEPS: u32 = 11;

/// Spins, then yields, until `ready` holds or the back-off runs out.
fn back_off_until(ready: impl Fn() -> bool) {
    for step in 0..BACKOFF_STEPS {
        if ready() {
            return;
        }
        if step < SPIN_STEPS {
            for _ in 0..1u32 << step {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
    }
}

/// A shard's bounded FIFO of batches. Submitters [`push`](Self::push)
/// (blocking while it is full); batches leave only through
/// [`pop`](Self::pop), which callers invoke with the shard's state lock
/// held. Waiters back off briefly before they park, and a push or pop
/// signals a condition variable only when someone is actually parked on
/// it — an unconditional notify is a syscall per batch.
struct BatchQueue {
    slots: Mutex<Slots>,
    /// `slots.batches.len()`, mirrored for the lock-free checks of the
    /// back-off loops and of `pop` on an empty queue.
    len: AtomicUsize,
    capacity: usize,
    /// The worker parks here while the queue is empty.
    filled: Condvar,
    /// Submitters park here while the queue is full.
    freed: Condvar,
}

struct Slots {
    batches: VecDeque<Batch>,
    /// Set when the runtime stops, or when the worker thread exits
    /// because a fold panicked. A closed queue takes no more batches; the
    /// worker exits once it is closed and empty.
    closed: bool,
    worker_parked: bool,
    submitters_parked: usize,
}

impl BatchQueue {
    fn new(capacity: usize) -> Self {
        Self {
            slots: Mutex::new(Slots {
                batches: VecDeque::with_capacity(capacity),
                closed: false,
                worker_parked: false,
                submitters_parked: 0,
            }),
            len: AtomicUsize::new(0),
            capacity,
            filled: Condvar::new(),
            freed: Condvar::new(),
        }
    }

    /// The slot lock. Nothing panics while holding it, so a poisoned lock
    /// still guards consistent data.
    fn slots(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Appends a batch, blocking while the queue is full (backpressure).
    ///
    /// # Panics
    /// Panics if the queue is closed: the runtime only closes queues when
    /// it stops, so a closed queue here means the shard's worker exited
    /// after a fold panicked.
    fn push(&self, batch: Batch) {
        back_off_until(|| self.len.load(Ordering::Relaxed) < self.capacity);
        let mut slots = self.slots();
        while slots.batches.len() >= self.capacity && !slots.closed {
            slots.submitters_parked += 1;
            slots = self
                .freed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
            slots.submitters_parked -= 1;
        }
        if slots.closed {
            drop(slots);
            panic!("shard queue closed: a fold panicked on this shard");
        }
        slots.batches.push_back(batch);
        self.len.store(slots.batches.len(), Ordering::Release);
        let wake = slots.worker_parked;
        drop(slots);
        if wake {
            self.filled.notify_one();
        }
    }

    /// Removes the oldest batch. Callers hold the shard's state lock, so
    /// batches are folded in queue order whichever thread pops them.
    fn pop(&self) -> Option<Batch> {
        if self.len() == 0 {
            return None;
        }
        let mut slots = self.slots();
        let batch = slots.batches.pop_front();
        self.len.store(slots.batches.len(), Ordering::Release);
        let wake = slots.submitters_parked > 0;
        drop(slots);
        if wake {
            self.freed.notify_one();
        }
        batch
    }

    /// Waits until the queue holds a batch (`true`) or is closed and
    /// empty (`false`). Pops nothing.
    fn wait_for_batch(&self) -> bool {
        back_off_until(|| self.len.load(Ordering::Relaxed) > 0);
        let mut slots = self.slots();
        while slots.batches.is_empty() && !slots.closed {
            slots.worker_parked = true;
            slots = self
                .filled
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
            slots.worker_parked = false;
        }
        !slots.batches.is_empty()
    }

    /// Closes the queue and wakes every parked waiter.
    fn close(&self) {
        self.slots().closed = true;
        self.filled.notify_all();
        self.freed.notify_all();
    }
}

/// One shard: its batch queue and its state lock. See the
/// [module docs](self) for who folds.
struct Shard {
    queue: BatchQueue,
    state: Mutex<ShardState>,
    /// Test-only gate: the worker holds a read guard while it folds, so a
    /// test holding the write guard keeps the worker from folding anything.
    #[cfg(test)]
    hold: std::sync::RwLock<()>,
}

impl Shard {
    fn new(queue_depth: usize, state: ShardState) -> Self {
        Self {
            queue: BatchQueue::new(queue_depth),
            state: Mutex::new(state),
            #[cfg(test)]
            hold: std::sync::RwLock::new(()),
        }
    }

    /// The state lock.
    ///
    /// # Panics
    /// Panics if a fold panicked while holding it: the shard's detector
    /// states may be half-updated, so no caller may read them.
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state
            .lock()
            .expect("shard state lock poisoned: a fold panicked on this shard")
    }

    /// Takes the state lock and folds every batch queued at that moment,
    /// on the calling thread; returns the lock.
    fn drain(&self) -> MutexGuard<'_, ShardState> {
        let mut state = self.lock();
        for _ in 0..self.queue.len() {
            let Some(batch) = self.queue.pop() else {
                break;
            };
            state.fold(batch);
        }
        state
    }

    /// The worker loop: wait for a batch, take the lock, pop and fold it.
    /// The batch may already be gone — a `sync` caller folded it — in
    /// which case the worker just waits again. Exits once the queue is
    /// closed and empty.
    fn run_worker(&self) {
        /// Closes the queue however the worker exits, so that after a
        /// panicking fold a submitter blocked on the full queue panics
        /// instead of waiting forever.
        struct CloseOnExit<'a>(&'a BatchQueue);
        impl Drop for CloseOnExit<'_> {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let _close = CloseOnExit(&self.queue);
        while self.queue.wait_for_batch() {
            #[cfg(test)]
            let _held = self.hold.read().unwrap_or_else(PoisonError::into_inner);
            let mut state = self.lock();
            if let Some(batch) = self.queue.pop() {
                state.fold(batch);
            }
        }
    }
}

/// A shard's state, behind its lock: the per-node detector states plus
/// everything a fold uses — the decision metric's single-column kernel,
/// the µ cache and the score scratch.
struct ShardState {
    engine: Arc<LadEngine>,
    detector: SequentialDetector,
    /// The decision metric — the only column a shard ever scores.
    metric: MetricKind,
    reset_on_alarm: bool,
    alarm_tx: Sender<Alarm>,
    counters: Arc<SharedCounters>,
    /// This shard's index into the telemetry registry.
    shard: usize,
    telemetry: Arc<Telemetry>,
    /// Per-node detector states of this shard's partition.
    nodes: HashMap<u32, SequentialState>,
    /// The shard's µ-memoization cache (`None` when the capacity is 0) —
    /// derived state, never serialized, rebuilt empty on start/restore.
    /// Scores are bit-identical with it on or off (see `MuCache`).
    mu_cache: Option<MuCache>,
    /// Score scratch, one entry per row of the batch being folded.
    scores: Vec<f64>,
    /// Batches folded so far, for the fold-time queue-depth gauge.
    folded_batches: u64,
    /// Clean-score accumulator for the drift monitor (`None` when no
    /// monitor is configured). Fed only by **non-alarming** updates —
    /// derived state, never read by any decision, never serialized.
    drift_acc: Option<ScoreAccumulator>,
}

impl ShardState {
    /// Scores one batch and folds each score into its node's detector.
    /// Records the same telemetry whichever thread runs it.
    fn fold(&mut self, batch: Batch) {
        let Batch {
            round,
            nodes,
            rows,
            enqueued_nanos,
        } = batch;
        self.folded_batches += 1;
        if self.telemetry.enabled() {
            // Queue wait (enqueue → fold) and the fold-time gauges: depth
            // in batches as the difference of the submitters' enqueue
            // counter and this shard's fold count, age of this very batch.
            let reg = self.telemetry.shard(self.shard);
            let wait = self.telemetry.now_nanos().saturating_sub(enqueued_nanos);
            reg.stage(Stage::QueueWait).record(wait);
            reg.queue_depth.set(
                reg.enqueued_batches
                    .get()
                    .saturating_sub(self.folded_batches),
            );
            reg.queue_age_nanos.set(wait);
        }
        self.scores.clear();
        self.scores.resize(rows.len(), 0.0);
        let score_span = self.telemetry.shard_span(self.shard, Stage::Score);
        match &mut self.mu_cache {
            Some(cache) => self.engine.score_rows_seq_one_cached_into(
                &rows,
                self.metric,
                cache,
                &mut self.scores,
            ),
            None => self
                .engine
                .score_rows_seq_one_into(&rows, self.metric, &mut self.scores),
        }
        score_span.stop();
        if let Some(cache) = &mut self.mu_cache {
            // Flush cache telemetry once per batch, not per report.
            let (hits, misses) = cache.take_stats();
            if hits > 0 {
                self.counters
                    .mu_cache_hits
                    .fetch_add(hits, Ordering::Relaxed);
            }
            if misses > 0 {
                self.counters
                    .mu_cache_misses
                    .fetch_add(misses, Ordering::Relaxed);
            }
        }
        let update_span = self.telemetry.shard_span(self.shard, Stage::DetectorUpdate);
        for (i, (node, &score)) in nodes.iter().zip(&self.scores).enumerate() {
            let state = self
                .nodes
                .entry(node.0)
                .or_insert_with(|| self.detector.initial_state());
            if !self.detector.update(state, score) {
                // Non-alarming rounds feed the drift monitor: the
                // clean-score substrate, with attack rounds excluded so an
                // attack cannot poison the "recalibrate" verdict.
                if let Some(acc) = self.drift_acc.as_mut() {
                    acc.add(score);
                }
            } else {
                self.counters.alarms.fetch_add(1, Ordering::Relaxed);
                self.telemetry
                    .event(EventKind::AlarmFired, round, node.0 as u64, 0, "");
                let _ = self.alarm_tx.send(Alarm {
                    node: *node,
                    round,
                    score,
                    statistic: self.detector.statistic(state),
                    estimate: rows.estimate(i),
                });
                if self.reset_on_alarm {
                    self.detector.reset(state);
                }
            }
        }
        update_span.stop();
        // Release pairs with the Acquire loads in `SharedCounters::load`: a
        // reader that sees these reports as processed also sees them as
        // submitted.
        self.counters
            .processed
            .fetch_add(rows.len() as u64, Ordering::Release);
    }

    /// This shard's detector states, sorted by node id.
    fn sorted_states(&self) -> Vec<NodeDetectorState> {
        let mut out: Vec<NodeDetectorState> = self
            .nodes
            .iter()
            .map(|(&node, &state)| NodeDetectorState { node, state })
            .collect();
        out.sort_by_key(|s| s.node);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{AttackTimeline, TrafficModel};
    use lad_attack::{AttackClass, AttackConfig};
    use lad_deployment::DeploymentConfig;
    use lad_net::Network;

    fn engine() -> Arc<LadEngine> {
        Arc::new(
            LadEngine::builder()
                .deployment(&DeploymentConfig::small_test())
                .metrics(&MetricKind::ALL)
                .score_only()
                .build()
                .unwrap(),
        )
    }

    fn calibrated(
        model: &TrafficModel,
        network: &Network,
        engine: &LadEngine,
    ) -> SequentialDetector {
        let streams = model.score_streams(network, engine, MetricKind::Diff, 0..12);
        SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01)
    }

    fn traffic(engine: &LadEngine, network: &Network) -> (TrafficModel, TrafficModel) {
        let nodes: Vec<NodeId> = (0..48u32).map(|i| NodeId(i * 11)).collect();
        let clean = TrafficModel::clean(network, engine, nodes, 0x5EED);
        let attacked = clean.with_attack(
            AttackTimeline::Onset { at: 6 },
            AttackConfig {
                degree_of_damage: 180.0,
                compromised_fraction: 0.2,
                class: AttackClass::DecBounded,
                targeted_metric: MetricKind::Diff,
            },
            0.5,
        );
        (clean, attacked)
    }

    fn run_rounds(
        runtime: &ServeRuntime,
        model: &TrafficModel,
        network: &Network,
        rounds: std::ops::Range<u64>,
    ) {
        let mut nodes = Vec::new();
        let mut rows = ObservationBatch::default();
        for round in rounds {
            model.round_rows(network, round, &mut nodes, &mut rows);
            runtime.submit_rows(round, &nodes, &rows);
        }
    }

    /// The `(node, round)` alarms of an offline replay of `rounds` rounds
    /// with the same detector over the same score streams, sorted.
    fn offline_alarms(
        model: &TrafficModel,
        network: &Network,
        engine: &LadEngine,
        detector: SequentialDetector,
        rounds: u64,
    ) -> Vec<(u32, u64)> {
        let streams = model.score_streams(network, engine, MetricKind::Diff, 0..rounds);
        let mut expected: Vec<(u32, u64)> = Vec::new();
        for (node, stream) in model.nodes().iter().zip(&streams) {
            let mut state = detector.initial_state();
            for (round, &score) in stream.iter().enumerate() {
                if detector.update(&mut state, score) {
                    expected.push((node.0, round as u64));
                    detector.reset(&mut state);
                }
            }
        }
        expected.sort_unstable();
        expected
    }

    fn sorted_alarms(alarms: Vec<Alarm>) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = alarms.into_iter().map(|a| (a.node.0, a.round)).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn runtime_decisions_match_an_offline_replay() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 21);
        let (clean, attacked) = traffic(&engine, &network);
        let detector = calibrated(&clean, &network, &engine);

        let runtime = ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector).with_shards(3),
        )
        .unwrap();
        run_rounds(&runtime, &attacked, &network, 0..14);
        let alarms = sorted_alarms(runtime.drain_alarms());
        assert_eq!(
            alarms,
            offline_alarms(&attacked, &network, &engine, detector, 14)
        );
        assert!(
            alarms.iter().any(|&(_, round)| round >= 6),
            "the onset attack must be detected"
        );
        assert!(
            alarms.iter().all(|&(_, round)| round < 14),
            "alarm rounds are within the trace"
        );

        let report = runtime.shutdown();
        assert_eq!(report.counters.processed, report.counters.submitted);
        assert_eq!(report.counters.queue_depth(), 0);
        assert_eq!(report.counters.alarms as usize, alarms.len());
        assert_eq!(report.counters.last_round, 13);
    }

    #[test]
    fn sync_folds_a_full_queue_while_the_worker_is_held() {
        // The worker is held back before it can fold anything, so the only
        // way `sync` can return is by folding the queue itself. A `sync`
        // that waits for the worker never returns — hence the timeout.
        const ROUNDS: u64 = 14;
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 25);
        let (clean, attacked) = traffic(&engine, &network);
        let detector = calibrated(&clean, &network, &engine);
        let runtime = Arc::new(
            ServeRuntime::start(
                engine.clone(),
                ServeConfig::new(MetricKind::Diff, detector).with_queue_depth(ROUNDS as usize),
            )
            .unwrap(),
        );
        let held = runtime.shards[0].hold.write().unwrap();
        // Exactly `queue_depth` rounds: the queue fills without blocking.
        run_rounds(&runtime, &attacked, &network, 0..ROUNDS);
        assert_eq!(runtime.shards[0].queue.len(), ROUNDS as usize);

        let (tx, rx) = mpsc::channel();
        let handle = runtime.clone();
        let waiter = std::thread::spawn(move || {
            handle.sync();
            let _ = tx.send((handle.counters(), handle.drain_alarms()));
        });
        let (counters, alarms) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("sync folds the queue itself while the worker is held");
        waiter.join().unwrap();
        assert_eq!(counters.processed, counters.submitted);
        assert_eq!(counters.submitted, ROUNDS * attacked.nodes().len() as u64);
        assert_eq!(runtime.shards[0].queue.len(), 0);
        let alarms = sorted_alarms(alarms);
        assert!(!alarms.is_empty(), "the onset attack must be detected");
        assert_eq!(
            alarms,
            offline_alarms(&attacked, &network, &engine, detector, ROUNDS)
        );

        // Released, the worker finds nothing left to fold.
        drop(held);
        let report = Arc::into_inner(runtime)
            .expect("the waiter thread released its handle")
            .shutdown();
        assert_eq!(report.counters.processed, report.counters.submitted);
        assert!(report.alarms.is_empty());
    }

    #[test]
    fn single_column_decisions_are_bit_identical_and_counted() {
        // The shard scores with the decision metric's single-column kernel;
        // its alarms must carry exactly the score bits of that metric's
        // column in the all-metrics fused pass, and every row is counted.
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 24);
        let (clean, attacked) = traffic(&engine, &network);
        let detector = calibrated(&clean, &network, &engine);
        let runtime = ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector).with_shards(2),
        )
        .unwrap();

        let width = engine.metrics().len();
        let column = engine.metric_index(MetricKind::Diff).unwrap();
        let mut states: HashMap<u32, SequentialState> = HashMap::new();
        let mut expected: Vec<(u32, u64, u64)> = Vec::new();
        let mut scores = Vec::new();
        let mut offered = 0u64;
        for round in 0..14 {
            let mut nodes = Vec::new();
            let mut rows = ObservationBatch::new(engine.knowledge().group_count());
            attacked.round_rows(&network, round, &mut nodes, &mut rows);
            runtime.submit_rows(round, &nodes, &rows);
            offered += nodes.len() as u64;
            engine.score_rows_into(&rows, &mut scores);
            for (node, row) in nodes.iter().zip(scores.chunks_exact(width)) {
                let state = states
                    .entry(node.0)
                    .or_insert_with(|| detector.initial_state());
                if detector.update(state, row[column]) {
                    expected.push((node.0, round, row[column].to_bits()));
                    detector.reset(state);
                }
            }
        }
        expected.sort_unstable();
        let mut alarms: Vec<(u32, u64, u64)> = runtime
            .drain_alarms()
            .into_iter()
            .map(|a| (a.node.0, a.round, a.score.to_bits()))
            .collect();
        alarms.sort_unstable();
        assert!(!alarms.is_empty(), "the onset attack must be detected");
        assert_eq!(alarms, expected);

        let report = runtime.shutdown();
        assert_eq!(report.counters.submitted, offered);
        assert_eq!(report.counters.processed, offered);
        assert_eq!(report.counters.alarms as usize, alarms.len());
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 22);
        let (clean, attacked) = traffic(&engine, &network);
        let detector = calibrated(&clean, &network, &engine);
        let config = ServeConfig::new(MetricKind::Diff, detector).with_shards(2);

        // Reference: one uninterrupted run.
        let reference = ServeRuntime::start(engine.clone(), config.clone()).unwrap();
        run_rounds(&reference, &attacked, &network, 0..12);
        let mut ref_alarms: Vec<(u32, u64)> = reference
            .drain_alarms()
            .into_iter()
            .map(|a| (a.node.0, a.round))
            .collect();
        ref_alarms.sort_unstable();
        let ref_snapshot = reference.shutdown().snapshot;

        // Interrupted: run 7 rounds, snapshot to JSON, restore into a fresh
        // runtime with a *different* shard count, run the rest.
        let first = ServeRuntime::start(engine.clone(), config.clone()).unwrap();
        run_rounds(&first, &attacked, &network, 0..7);
        let mut alarms: Vec<(u32, u64)> = first
            .drain_alarms()
            .into_iter()
            .map(|a| (a.node.0, a.round))
            .collect();
        let json = first.snapshot().to_json();
        drop(first.shutdown());

        let resumed = ServeSnapshot::from_json(&json).expect("snapshot parses");
        let second = ServeRuntime::start(engine.clone(), config.with_shards(5)).unwrap();
        second.restore(&resumed).expect("snapshot restores");
        run_rounds(&second, &attacked, &network, 7..12);
        alarms.extend(
            second
                .drain_alarms()
                .into_iter()
                .map(|a| (a.node.0, a.round)),
        );
        alarms.sort_unstable();
        assert_eq!(alarms, ref_alarms, "resumed run raises the same alarms");
        let resumed_snapshot = second.shutdown().snapshot;
        assert_eq!(
            resumed_snapshot.states, ref_snapshot.states,
            "resumed run ends in the same per-node states"
        );
        // restore() resumed the ingestion counters, so snapshot metadata
        // covers the whole traffic history, not just the post-resume part.
        assert_eq!(
            resumed_snapshot.requests_ingested,
            ref_snapshot.requests_ingested
        );
        assert_eq!(resumed_snapshot.last_round, ref_snapshot.last_round);
    }

    #[test]
    fn restore_rejects_mismatched_snapshots() {
        let engine = engine();
        let detector = SequentialDetector::Cusum {
            reference: 1.0,
            threshold: 5.0,
        };
        let runtime =
            ServeRuntime::start(engine.clone(), ServeConfig::new(MetricKind::Diff, detector))
                .unwrap();
        let mut snapshot = runtime.snapshot();
        snapshot.metric = MetricKind::AddAll;
        assert!(matches!(
            runtime.restore(&snapshot),
            Err(ServeError::SnapshotMismatch(_))
        ));
        let mut wrong_version = runtime.snapshot();
        wrong_version.version = 3;
        assert!(matches!(
            runtime.restore(&wrong_version),
            Err(ServeError::UnsupportedVersion { found: 3 })
        ));
        let mut wrong_detector = runtime.snapshot();
        wrong_detector.detector = SequentialDetector::Cusum {
            reference: 2.0,
            threshold: 5.0,
        };
        assert!(matches!(
            runtime.restore(&wrong_detector),
            Err(ServeError::SnapshotMismatch(_))
        ));

        // A snapshot taken under a different engine carries incomparable
        // detector states.
        let mut wrong_engine = runtime.snapshot();
        wrong_engine.engine_fingerprint ^= 1;
        assert!(matches!(
            runtime.restore(&wrong_engine),
            Err(ServeError::SnapshotMismatch(_))
        ));

        // Restoring over live state would merge two traffic histories:
        // rejected once anything has been ingested.
        let valid = runtime.snapshot();
        let mut rows = ObservationBatch::new(engine.knowledge().group_count());
        rows.push_sparse(&[], &[], lad_geometry::Point2::new(100.0, 100.0));
        runtime.submit_rows(0, &[NodeId(0)], &rows);
        runtime.sync();
        assert!(matches!(
            runtime.restore(&valid),
            Err(ServeError::SnapshotMismatch(_))
        ));
    }

    #[test]
    fn start_rejects_invalid_configurations() {
        let engine = engine();
        let detector = SequentialDetector::Cusum {
            reference: 1.0,
            threshold: 5.0,
        };
        assert!(matches!(
            ServeRuntime::start(
                engine.clone(),
                ServeConfig::new(MetricKind::Diff, detector).with_shards(0)
            ),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServeRuntime::start(
                engine.clone(),
                ServeConfig::new(MetricKind::Diff, detector).with_queue_depth(0)
            ),
            Err(ServeError::InvalidConfig(_))
        ));
        let diff_only = Arc::new(
            LadEngine::builder()
                .deployment(&DeploymentConfig::small_test())
                .metric(MetricKind::Diff)
                .score_only()
                .build()
                .unwrap(),
        );
        assert!(matches!(
            ServeRuntime::start(
                diff_only,
                ServeConfig::new(MetricKind::Probability, detector)
            ),
            Err(ServeError::MetricNotConfigured(MetricKind::Probability))
        ));
    }

    #[test]
    fn tiny_queues_still_complete_via_backpressure() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 23);
        let (clean, _) = traffic(&engine, &network);
        let detector = calibrated(&clean, &network, &engine);
        let runtime = ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector)
                .with_shards(2)
                .with_queue_depth(1),
        )
        .unwrap();
        run_rounds(&runtime, &clean, &network, 0..20);
        runtime.sync();
        let counters = runtime.counters();
        assert_eq!(counters.queue_depth(), 0);
        assert_eq!(counters.submitted, 20 * clean.nodes().len() as u64);
        runtime.shutdown();
    }

    #[test]
    fn counters_snapshot_round_trips_through_serde_and_stays_coherent() {
        let engine = engine();
        let detector = SequentialDetector::Cusum {
            reference: 1.0,
            threshold: 5.0,
        };
        let runtime =
            ServeRuntime::start(engine.clone(), ServeConfig::new(MetricKind::Diff, detector))
                .unwrap();
        let mut rows = ObservationBatch::new(engine.knowledge().group_count());
        rows.push_sparse(&[], &[], lad_geometry::Point2::new(100.0, 100.0));
        runtime.submit_rows(0, &[NodeId(7)], &rows);
        runtime.record_shed(5);
        runtime.record_decode_error();
        runtime.sync();
        let counters = runtime.counters();
        assert_eq!(counters.submitted, 1);
        assert_eq!(counters.shed, 5);
        assert_eq!(counters.decode_errors, 1);
        assert!(counters.processed <= counters.submitted);

        let json = serde_json::to_string(&counters).expect("counters serialise");
        let back: ServeCounters = serde_json::from_str(&json).expect("counters parse");
        assert_eq!(counters, back);
        runtime.shutdown();
    }

    #[test]
    fn shard_assignment_is_stable_and_total() {
        for shards in [1usize, 2, 3, 8] {
            for node in 0..500u32 {
                let s = shard_of(NodeId(node), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(NodeId(node), shards));
            }
        }
        // All shards of an 8-way runtime actually receive nodes.
        let mut seen = [false; 8];
        for node in 0..500u32 {
            seen[shard_of(NodeId(node), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
