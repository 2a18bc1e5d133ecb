//! `lad_response` — closed-loop alarm attribution, revocation, and
//! recovery.
//!
//! The paper stops at *detecting* a localization anomaly; the serving
//! runtime (`lad_serve`) stops at *emitting* an alarm stream. A production
//! system must also answer **"which nodes are compromised, and what do we
//! do about them?"** — and then live with the consequences, because the
//! adversary reacts to whatever it does. This crate closes that loop:
//!
//! ```text
//!   ServeRuntime ──alarms──► AlarmJournal ──► SuspectScorer ──► policies
//!        ▲                   (bounded,        (per-node decaying  │
//!        │                    round-ordered,   suspicion +        │
//!        │                    spatially        GridIndex alarm    │
//!        │                    anchored)        clustering)        ▼
//!        └─── ResponseFilter ◄── RevocationList ◄── ThresholdRevoke /
//!             (suppress revoked     (versioned,      ClusterQuarantine
//!              nodes & quarantined   serializable,    (+ quarantine lift =
//!              regions pre-scoring)  monotone         recovery)
//!                                    revisions)
//! ```
//!
//! * [`AlarmJournal`] — a bounded, round-ordered store of every alarm the
//!   runtime fired, with per-node history and each alarm's *claimed*
//!   location as a spatial anchor.
//! * [`SuspectScorer`] — per-node suspicion that accumulates with each
//!   alarm and decays geometrically between alarms (one isolated false
//!   alarm fades; a repeat offender ramps), plus single-linkage clustering
//!   of recent alarmed estimates over [`lad_geometry::GridIndex`] — a
//!   localized attack focus shows up as one tight, suspicion-heavy
//!   cluster, while calibrated false alarms stay diffuse.
//! * [`RevocationPolicy`] — the decision layer: [`ThresholdRevoke`]
//!   revokes a node when its suspicion crosses a budget *calibrated on
//!   clean alarm streams* (bounding collateral damage the same way the
//!   detectors bound false alarms), and [`ClusterQuarantine`] quarantines
//!   a region when an alarm focus condenses — and lifts it again once the
//!   region stays quiet (the recovery leg). Decisions accumulate in a
//!   versioned, serializable [`RevocationList`].
//! * [`ResponseController`] — wires it together: drains the runtime,
//!   updates the evidence, runs the policies, and installs the compiled
//!   [`lad_serve::ResponseFilter`] back into the runtime, so revoked work
//!   never reaches the scoring hot path. Controller state (journal,
//!   suspicion, list) snapshots to versioned JSON
//!   ([`ResponseSnapshot`]) alongside the runtime's own snapshot.
//!
//! Everything downstream of the alarm stream is a pure function of the
//! alarm *set* (ingestion canonicalises order by `(round, node)`), so
//! revocation decisions are bit-deterministic in the runtime's shard
//! count — asserted by the workspace determinism suite.
//!
//! # Example
//!
//! ```
//! use lad_core::engine::LadEngine;
//! use lad_core::MetricKind;
//! use lad_deployment::DeploymentConfig;
//! use lad_net::{Network, NodeId};
//! use lad_response::{ResponseConfig, ResponseController, ThresholdRevoke};
//! use lad_serve::{AttackTimeline, ServeConfig, ServeRuntime, TrafficModel};
//! use lad_stats::SequentialDetector;
//! use lad_attack::{AttackClass, AttackConfig};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(
//!     LadEngine::builder()
//!         .deployment(&DeploymentConfig::small_test())
//!         .metrics(&MetricKind::ALL)
//!         .score_only()
//!         .build()
//!         .unwrap(),
//! );
//! let network = Network::generate(engine.knowledge().clone(), 7);
//! let nodes: Vec<_> = (0..24u32).map(NodeId).collect();
//! let clean = TrafficModel::clean(&network, &engine, nodes, 99);
//! let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..20);
//! let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
//!
//! // Budget calibrated on the detector's *clean* alarm behaviour, so
//! // honest nodes rarely accumulate enough suspicion to be revoked.
//! let policy = ThresholdRevoke::calibrate(
//!     &lad_response::clean_alarm_rounds(&detector, &streams, true),
//!     20,
//!     ResponseConfig::default(),
//!     0.01,
//! );
//!
//! let runtime = ServeRuntime::start(
//!     engine.clone(),
//!     ServeConfig::new(MetricKind::Diff, detector),
//! )
//! .unwrap();
//! let mut controller = ResponseController::new(ResponseConfig::default())
//!     .with_policy(Box::new(policy));
//! let mut traffic = clean.with_attack(
//!     AttackTimeline::Onset { at: 4 },
//!     AttackConfig {
//!         degree_of_damage: 160.0,
//!         compromised_fraction: 0.2,
//!         class: AttackClass::DecBounded,
//!         targeted_metric: MetricKind::Diff,
//!     },
//!     0.3,
//! );
//! let (mut reporters, mut rows) = (Vec::new(), lad_net::ObservationBatch::default());
//! for round in 0..16 {
//!     traffic.round_rows(&network, round, &mut reporters, &mut rows);
//!     runtime.submit_rows(round, &reporters, &rows);
//!     let outcome = controller.step(&runtime, round);
//!     // Close the loop: revoked attackers fall silent.
//!     traffic.revoke_nodes(&outcome.newly_revoked, round + 1);
//! }
//! runtime.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod controller;
pub mod journal;
pub mod policy;
pub mod suspect;

pub use controller::{
    clean_alarm_rounds, ResponseController, ResponseSnapshot, StepOutcome,
    RESPONSE_SNAPSHOT_VERSION,
};
pub use journal::{AlarmJournal, JournalEntry, NodeAlarmHistory};
pub use policy::{
    ClusterQuarantine, Evidence, QuarantinedRegion, ResponseError, RevocationList,
    RevocationPolicy, RevokedNode, ThresholdRevoke, REVOCATION_LIST_VERSION,
};
pub use suspect::{AlarmCluster, ResponseConfig, SuspectScorer};
