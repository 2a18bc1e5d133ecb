//! `lad_serve` — the sharded online detection runtime.
//!
//! The paper (and the batch engine built from it) answers *"is this one
//! `(observation, estimate)` pair anomalous?"*. A deployment is a service:
//! millions of nodes report localization rounds continuously, and the
//! operational questions are **time-to-detection** after attack onset and
//! **false alarms per hour** under clean traffic. This crate turns per-round
//! LAD scores into stateful, per-node sequential decisions at serving
//! volume:
//!
//! ```text
//!          submit_rows(round, nodes, rows)
//!                        │
//!              ResponseFilter (revoked node /
//!              quarantined region ⇒ suppressed
//!              before any shard sees the work)
//!                        │
//!            deterministic node → shard routing
//!          ┌─────────────┼─────────────┐
//!          ▼             ▼             ▼
//!      shard 0       shard 1   …   shard N-1        (bounded batch queues ⇒
//!      ────────      ────────      ────────          natural backpressure;
//!      score with    score with    score with        folded by the shard's
//!      LadEngine     LadEngine     LadEngine         thread or by `sync`)
//!          │             │             │
//!      per-node CUSUM / EWMA / one-shot state
//!      (lad_stats::sequential, O(1) per node)
//!          │             │             │
//!          └──────►  alarm stream  ◄───┘
//!                        │
//!          lad_response: attribute → revoke →
//!          install_response_filter (closed loop)
//! ```
//!
//! * [`ServeRuntime`] — the runtime itself: shards over bounded batch
//!   queues (a `sync` folds what is still queued on the calling thread),
//!   per-node detector state keyed by [`lad_net::NodeId`],
//!   batched ingestion through the engine's flat scoring kernel, an alarm
//!   output stream, live [`ServeCounters`], graceful shutdown, versioned
//!   [`ServeSnapshot`] save/restore of all detector state **and** undrained
//!   alarms (v2), and a pluggable [`ResponseFilter`] hook that suppresses
//!   reports from revoked nodes / quarantined regions before they reach a
//!   shard (the enforcement half of the `lad_response` closed loop).
//! * [`TrafficModel`] — a deterministic load generator replaying attack
//!   timelines (clean warm-up, onset at round *t*, intermittent bursts,
//!   ramping compromise) over a simulated network, for evaluation and
//!   benchmarking of the serving path — including *post-revocation*
//!   behaviour: revoked nodes fall silent, and quarantined attackers adapt
//!   per [`lad_attack::Evasion`] (rotate the forged location, or go
//!   intermittent).
//!
//! For ingest across a process boundary, the `lad_wire` crate puts a
//! framed binary front door (TCP / Unix-domain, validate-once decoding,
//! explicit rate-limit → shed overload policy) in front of
//! [`ServeRuntime::submit_rows`]; the `shed` / `decode_errors` members of
//! [`ServeCounters`] are fed by that path.
//!
//! Alarm decisions are **bit-deterministic in the shard count**: routing is
//! a pure function of the node id, every node's rounds reach its shard in
//! submission order, and scoring is identical on every thread — so the set
//! of `(node, round)` alarms produced by a fixed traffic trace is the same
//! at 1, 2, or 64 shards (an integration test asserts exactly that).
//!
//! # Example
//!
//! ```
//! use lad_core::engine::LadEngine;
//! use lad_core::MetricKind;
//! use lad_deployment::DeploymentConfig;
//! use lad_net::Network;
//! use lad_serve::{AttackTimeline, ServeConfig, ServeRuntime, TrafficModel};
//! use lad_stats::SequentialDetector;
//! use lad_attack::{AttackClass, AttackConfig};
//! use std::sync::Arc;
//!
//! // A score-only engine and a network for it to watch.
//! let engine = Arc::new(
//!     LadEngine::builder()
//!         .deployment(&DeploymentConfig::small_test())
//!         .metrics(&MetricKind::ALL)
//!         .score_only()
//!         .build()
//!         .unwrap(),
//! );
//! let network = Network::generate(engine.knowledge().clone(), 7);
//!
//! // Clean warm-up traffic calibrates a CUSUM detector at a false-alarm
//! // target, then an attack starts at round 10.
//! let nodes: Vec<_> = (0..24u32).map(lad_net::NodeId).collect();
//! let clean = TrafficModel::clean(&network, &engine, nodes.clone(), 99);
//! let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..20);
//! let detector = SequentialDetector::calibrate_cusum(
//!     streams.iter().map(Vec::as_slice),
//!     0.01,
//! );
//!
//! let runtime = ServeRuntime::start(
//!     engine.clone(),
//!     ServeConfig::new(MetricKind::Diff, detector).with_shards(2),
//! )
//! .unwrap();
//! let traffic = clean.with_attack(
//!     AttackTimeline::Onset { at: 10 },
//!     AttackConfig {
//!         degree_of_damage: 140.0,
//!         compromised_fraction: 0.2,
//!         class: AttackClass::DecBounded,
//!         targeted_metric: MetricKind::Diff,
//!     },
//!     0.5,
//! );
//! let (mut reporters, mut rows) = (Vec::new(), lad_net::ObservationBatch::default());
//! for round in 0..20 {
//!     traffic.round_rows(&network, round, &mut reporters, &mut rows);
//!     runtime.submit_rows(round, &reporters, &rows);
//! }
//! let report = runtime.shutdown();
//! assert!(report.alarms.iter().any(|a| a.round >= 10), "attack detected");
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod drift;
pub mod export;
pub mod runtime;
pub mod snapshot;
pub mod traffic;

pub use drift::{DriftBaseline, DriftMonitorConfig, DriftSnapshot, DRIFT_BASELINE_VERSION};
pub use export::render_prometheus;
pub use runtime::{
    shard_of, Alarm, ResponseFilter, ServeConfig, ServeCounters, ServeRuntime, ServeStats,
    ShutdownReport, STATS_VERSION,
};
pub use snapshot::{
    engine_fingerprint, NodeDetectorState, ServeError, ServeSnapshot, SNAPSHOT_VERSION,
};
pub use traffic::{AttackTimeline, TrafficModel};
