//! Versioned serve-state artifacts: save/restore of per-node detector
//! state, following the `EngineArtifact` pattern (explicit `version` field,
//! typed [`ServeError::UnsupportedVersion`] on anything else).
//!
//! Version history:
//!
//! * **v1** — detector states + ingestion counters.
//! * **v2** — adds [`ServeSnapshot::pending_alarms`]: alarms fired but not
//!   yet drained when the snapshot was taken, so a restart cannot silently
//!   lose them. v1 artifacts are rejected with the typed
//!   `UnsupportedVersion { found: 1 }`, as a v1 reader rejects v2.

use crate::runtime::Alarm;
use lad_core::engine::LadEngine;
use lad_core::MetricKind;
use lad_stats::{SequentialDetector, SequentialState};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A stable fingerprint of an engine's serialisable state (FNV-1a over its
/// versioned artifact JSON). Embedded in every [`ServeSnapshot`] and
/// checked on restore: detector state calibrated against one engine's
/// clean-score distribution is meaningless under another engine (different
/// deployment knowledge, σ, thresholds), and without the check such a
/// restore would silently void the calibrated false-alarm guarantee.
pub fn engine_fingerprint(engine: &LadEngine) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in engine.to_json().bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The snapshot format version this build writes. Reading accepts this
/// version and migrates version 1 (see the [module docs](self)).
pub const SNAPSHOT_VERSION: u32 = 2;

/// Typed errors of the serving runtime and its snapshot artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The snapshot's `version` field is not one this build supports.
    UnsupportedVersion {
        /// The version found in the artifact.
        found: u64,
    },
    /// The runtime was configured to decide on a metric the engine does not
    /// score.
    MetricNotConfigured(MetricKind),
    /// The configuration is structurally invalid (zero shards / queue).
    InvalidConfig(String),
    /// A snapshot cannot be restored into this runtime (different detector
    /// or decision metric).
    SnapshotMismatch(String),
    /// The JSON could not be parsed into a snapshot.
    Parse(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnsupportedVersion { found } => write!(
                f,
                "unsupported serve snapshot version {found} (this build reads version {SNAPSHOT_VERSION})"
            ),
            ServeError::MetricNotConfigured(kind) => write!(
                f,
                "engine does not score the configured decision metric {}",
                kind.name()
            ),
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::SnapshotMismatch(msg) => write!(f, "snapshot mismatch: {msg}"),
            ServeError::Parse(msg) => write!(f, "snapshot parse error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One node's sequential-detector state inside a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeDetectorState {
    /// The node's raw id (`NodeId.0`).
    pub node: u32,
    /// Its detector state at snapshot time.
    pub state: SequentialState,
}

/// The serialisable state of a [`ServeRuntime`](crate::ServeRuntime):
/// the decision rule plus every node's O(1) state, sorted by node id, so
/// snapshots of the same traffic are byte-identical regardless of shard
/// count or thread scheduling — plus (since v2) every fired-but-undrained
/// alarm, so restoring after a restart loses no detections.
///
/// Serialised snapshots carry `version: 2`; loading rejects any other
/// version with [`ServeError::UnsupportedVersion`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// Snapshot format version (see [`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The engine metric the runtime decides on.
    pub metric: MetricKind,
    /// Fingerprint of the engine the states were produced under (see
    /// [`engine_fingerprint`]); restore rejects a different engine.
    pub engine_fingerprint: u64,
    /// The sequential decision rule (shared by every node).
    pub detector: SequentialDetector,
    /// Number of reports ingested when the snapshot was taken.
    pub requests_ingested: u64,
    /// Total alarms raised when the snapshot was taken (drained or not) —
    /// restored alongside `requests_ingested` so alarms-per-request stays
    /// consistent across a restart.
    pub alarms_raised: u64,
    /// The highest round number ingested when the snapshot was taken.
    pub last_round: u64,
    /// Every tracked node's state, ascending by node id.
    pub states: Vec<NodeDetectorState>,
    /// Alarms fired but not yet drained when the snapshot was taken, in
    /// firing order. `restore` re-injects them into the alarm stream so a
    /// post-restart drain still sees them.
    pub pending_alarms: Vec<Alarm>,
}

impl ServeSnapshot {
    /// Serialises the snapshot to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serve snapshot serialises")
    }

    /// Serialises the snapshot to pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("serve snapshot serialises")
    }

    /// Restores a snapshot from [`Self::to_json`] output. Versions other
    /// than [`SNAPSHOT_VERSION`] are rejected with
    /// [`ServeError::UnsupportedVersion`].
    pub fn from_json(json: &str) -> Result<Self, ServeError> {
        let value = serde_json::parse_value(json).map_err(|e| ServeError::Parse(e.to_string()))?;
        let found = value
            .get("version")
            .ok_or_else(|| ServeError::Parse("not a serve snapshot (no `version` field)".into()))?
            .as_u64()
            .ok_or_else(|| ServeError::Parse("`version` must be an integer".into()))?;
        if found != SNAPSHOT_VERSION as u64 {
            return Err(ServeError::UnsupportedVersion { found });
        }
        serde_json::from_value(&value).map_err(|e| ServeError::Parse(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_geometry::Point2;
    use lad_net::NodeId;

    fn snapshot() -> ServeSnapshot {
        ServeSnapshot {
            version: SNAPSHOT_VERSION,
            metric: MetricKind::Diff,
            engine_fingerprint: 0xFEED_FACE,
            detector: SequentialDetector::Cusum {
                reference: 3.5,
                threshold: 12.0,
            },
            requests_ingested: 640,
            alarms_raised: 9,
            last_round: 15,
            states: vec![
                NodeDetectorState {
                    node: 3,
                    state: SequentialState {
                        statistic: 1.25,
                        recent: 0,
                        rounds: 16,
                    },
                },
                NodeDetectorState {
                    node: 9,
                    state: SequentialState {
                        statistic: 0.0,
                        recent: 0,
                        rounds: 16,
                    },
                },
            ],
            pending_alarms: vec![Alarm {
                node: NodeId(3),
                round: 15,
                score: 27.5,
                statistic: 13.0,
                estimate: Point2::new(120.0, 345.5),
            }],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = snapshot();
        let back = ServeSnapshot::from_json(&snap.to_json()).expect("round trip");
        assert_eq!(snap, back);
        let pretty = ServeSnapshot::from_json(&snap.to_json_pretty()).expect("pretty round trip");
        assert_eq!(snap, pretty);
    }

    #[test]
    fn unknown_versions_are_rejected_with_the_typed_error() {
        let snap = snapshot();
        for wrong in [0u32, 3, 9] {
            let json = snap
                .to_json()
                .replacen("\"version\":2", &format!("\"version\":{wrong}"), 1);
            match ServeSnapshot::from_json(&json) {
                Err(ServeError::UnsupportedVersion { found }) => assert_eq!(found, wrong as u64),
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn v1_artifacts_are_rejected_with_the_typed_error() {
        // A v1 writer never emitted `pending_alarms`; synthesise its JSON
        // by stripping the field and stamping version 1.
        let mut v2 = snapshot();
        v2.pending_alarms.clear();
        let v1_json = v2
            .to_json()
            .replacen("\"version\":2", "\"version\":1", 1)
            .replace(",\"pending_alarms\":[]", "");
        assert!(!v1_json.contains("pending_alarms"), "test setup");
        assert_eq!(
            ServeSnapshot::from_json(&v1_json),
            Err(ServeError::UnsupportedVersion { found: 1 })
        );
    }

    #[test]
    fn garbage_json_is_a_parse_error() {
        assert!(matches!(
            ServeSnapshot::from_json("{oops"),
            Err(ServeError::Parse(_))
        ));
        assert!(matches!(
            ServeSnapshot::from_json("{}"),
            Err(ServeError::Parse(_))
        ));
    }
}
