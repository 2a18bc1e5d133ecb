//! Revocation policies and the versioned revocation list they produce.
//!
//! A policy looks at the evidence (journal + suspicion + clusters) after
//! each alarm drain and appends decisions to the [`RevocationList`]:
//! revoke a node, quarantine a region, or lift a quarantine whose region
//! went quiet (the recovery leg). The list is the system of record — the
//! serving runtime enforces a compiled-down
//! [`lad_serve::ResponseFilter`] — and is versioned and
//! serializable exactly like the engine artifact and serve snapshot
//! (explicit `version` field, typed [`ResponseError::UnsupportedVersion`]
//! on anything else).

use crate::journal::AlarmJournal;
use crate::suspect::SuspectScorer;
use lad_geometry::Circle;
use lad_serve::ResponseFilter;
use lad_stats::percentile::exceedance_threshold;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The revocation-list format version this build writes and reads.
pub const REVOCATION_LIST_VERSION: u32 = 1;

/// Typed errors of the response layer's artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseError {
    /// The artifact's `version` field is not one this build supports.
    UnsupportedVersion {
        /// The version found in the artifact.
        found: u64,
    },
    /// The JSON could not be parsed.
    Parse(String),
}

impl fmt::Display for ResponseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResponseError::UnsupportedVersion { found } => {
                write!(f, "unsupported response artifact version {found}")
            }
            ResponseError::Parse(msg) => write!(f, "response artifact parse error: {msg}"),
        }
    }
}

impl std::error::Error for ResponseError {}

/// One revoked node, with the evidence snapshot that revoked it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RevokedNode {
    /// The node (raw id).
    pub node: u32,
    /// The round the revocation was decided in.
    pub round: u64,
    /// The node's suspicion at decision time.
    pub suspicion: f64,
    /// The node's journalled alarm count at decision time.
    pub alarms: u64,
}

/// One quarantined region, with lift bookkeeping (the recovery leg).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedRegion {
    /// The suppressed region: reports claiming a position inside it are
    /// dropped pre-scoring while the quarantine is active.
    pub region: Circle,
    /// The round the quarantine was imposed in.
    pub round: u64,
    /// The distinct nodes whose alarms condensed the focus (ascending).
    pub nodes: Vec<u32>,
    /// Alarms in the focus at decision time.
    pub alarms: usize,
    /// The latest round with evidence the region is still under attack:
    /// a journalled in-region alarm, or — since suppression hides
    /// in-region alarms by construction — a *suppressed* claim into the
    /// region by a watched (previously suspicious) node, folded in from
    /// the runtime's telemetry by
    /// [`ResponseController::step`](crate::ResponseController::step).
    pub hot_round: u64,
    /// Set when the region stayed quiet long enough to be lifted; a lifted
    /// quarantine no longer suppresses anything.
    pub lifted_round: Option<u64>,
}

impl QuarantinedRegion {
    /// Whether the quarantine is still suppressing reports.
    pub fn is_active(&self) -> bool {
        self.lifted_round.is_none()
    }
}

/// The versioned, serializable record of every response decision. See the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RevocationList {
    /// Format version (see [`REVOCATION_LIST_VERSION`]).
    pub version: u32,
    /// Monotone revision counter, bumped on every change — consumers (and
    /// the serve-side filter) can cheaply detect staleness.
    pub revision: u64,
    /// Revoked nodes, ascending by node id. Revocation is permanent:
    /// reinstating a node is an operator action outside this loop.
    pub revoked: Vec<RevokedNode>,
    /// Quarantined regions, in imposition order (lifted ones retained for
    /// the audit trail).
    pub quarantined: Vec<QuarantinedRegion>,
}

impl Default for RevocationList {
    fn default() -> Self {
        Self::new()
    }
}

impl RevocationList {
    /// An empty list at revision 0.
    pub fn new() -> Self {
        Self {
            version: REVOCATION_LIST_VERSION,
            revision: 0,
            revoked: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Whether `node` is revoked.
    pub fn is_revoked(&self, node: u32) -> bool {
        self.revoked.binary_search_by_key(&node, |r| r.node).is_ok()
    }

    /// Revokes `node` (no-op when already revoked; returns whether the
    /// list changed). Callers bump the revision once per decision batch.
    fn revoke(&mut self, entry: RevokedNode) -> bool {
        match self.revoked.binary_search_by_key(&entry.node, |r| r.node) {
            Ok(_) => false,
            Err(i) => {
                self.revoked.insert(i, entry);
                true
            }
        }
    }

    /// The active (unlifted) quarantined regions.
    pub fn active_regions(&self) -> impl Iterator<Item = &QuarantinedRegion> + '_ {
        self.quarantined.iter().filter(|q| q.is_active())
    }

    /// Compiles the list down to the flat filter the serving runtime
    /// enforces: revoked ids, active quarantine circles, and — so the
    /// runtime's region-suppression telemetry works even for callers that
    /// bypass [`ResponseController::install`] — a default watched set of
    /// every active region's member nodes (the nodes whose alarms
    /// condensed the focus; without a watched set, suppressed in-region
    /// claims would never register and every quarantine would auto-lift
    /// while its attacker keeps transmitting). The controller's `install`
    /// widens the watch to every node with alarm history.
    ///
    /// [`ResponseController::install`]: crate::ResponseController::install
    pub fn to_filter(&self) -> ResponseFilter {
        let watched = self
            .active_regions()
            .flat_map(|q| q.nodes.iter().copied())
            .collect();
        ResponseFilter::new(
            self.revision,
            self.revoked.iter().map(|r| r.node).collect(),
            self.active_regions().map(|q| q.region).collect(),
        )
        .with_watched(watched)
    }

    /// Serialises the list to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("revocation list serialises")
    }

    /// Restores a list from [`Self::to_json`] output. Versions other than
    /// [`REVOCATION_LIST_VERSION`] are rejected with
    /// [`ResponseError::UnsupportedVersion`].
    pub fn from_json(json: &str) -> Result<Self, ResponseError> {
        let value =
            serde_json::parse_value(json).map_err(|e| ResponseError::Parse(e.to_string()))?;
        let found = value
            .get("version")
            .ok_or_else(|| {
                ResponseError::Parse("not a revocation list (no `version` field)".into())
            })?
            .as_u64()
            .ok_or_else(|| ResponseError::Parse("`version` must be an integer".into()))?;
        if found != REVOCATION_LIST_VERSION as u64 {
            return Err(ResponseError::UnsupportedVersion { found });
        }
        serde_json::from_value(&value).map_err(|e| ResponseError::Parse(e.to_string()))
    }
}

/// The evidence a policy decides on.
pub struct Evidence<'a> {
    /// The bounded alarm journal (canonical order).
    pub journal: &'a AlarmJournal,
    /// The per-node suspicion accumulator.
    pub scorer: &'a SuspectScorer,
    /// The round the decision is taken in (the latest drained round).
    pub round: u64,
}

/// A revocation policy: turns evidence into [`RevocationList`] changes.
///
/// Policies must be pure functions of the (canonically ordered) evidence
/// and the current list — no clocks, no randomness — so the closed loop
/// stays bit-deterministic in the serving runtime's shard count.
pub trait RevocationPolicy: Send + Sync {
    /// Short policy name for labels and reports.
    fn name(&self) -> &'static str;

    /// Inspects the evidence and applies any new decisions to `list`
    /// (without bumping the revision — the controller does that once per
    /// decision batch). Returns whether the list changed.
    fn decide(&self, evidence: &Evidence<'_>, list: &mut RevocationList) -> bool;
}

/// Revoke any node whose decayed suspicion crosses a budget.
///
/// The budget is *calibrated* the same way the detectors' thresholds are:
/// [`ThresholdRevoke::calibrate`] replays clean alarm streams through the
/// suspicion recursion and picks the smallest budget whose clean
/// exceedance rate (the collateral-revocation rate) meets a target — so
/// honest nodes are revoked at most at the configured rate, while an
/// attacker alarming at the detector's cadence ramps past any finite
/// budget in a handful of rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdRevoke {
    /// Revoke when suspicion exceeds this value.
    pub budget: f64,
}

impl ThresholdRevoke {
    /// Calibrates the budget against clean alarm behaviour:
    /// `clean_alarm_rounds` holds, for every honest node in the
    /// calibration population (including the never-alarming majority —
    /// they anchor the exceedance denominator), the rounds it alarmed in
    /// over `horizon` rounds of clean traffic. Each stream is replayed
    /// through the suspicion recursion (`config.decay`), and the budget is
    /// the smallest peak suspicion such that at most a
    /// `target_collateral` fraction of clean nodes would ever exceed it —
    /// the [`exceedance_threshold`] construction, always feasible on the
    /// calibration streams.
    ///
    /// # Panics
    /// Panics when `clean_alarm_rounds` is empty, the config is invalid,
    /// or `target_collateral ∉ [0, 1)`.
    pub fn calibrate(
        clean_alarm_rounds: &[Vec<u64>],
        horizon: u64,
        config: crate::ResponseConfig,
        target_collateral: f64,
    ) -> Self {
        config.validate();
        assert!(
            !clean_alarm_rounds.is_empty(),
            "budget calibration needs at least one clean node stream"
        );
        let peaks: Vec<f64> = clean_alarm_rounds
            .iter()
            .map(|rounds| {
                let mut scorer = SuspectScorer::new(config.decay);
                let mut peak = 0.0f64;
                for &round in rounds {
                    debug_assert!(round < horizon, "alarm round beyond the horizon");
                    scorer.observe_alarm(0, round);
                    peak = peak.max(scorer.suspicion(0, round));
                }
                peak
            })
            .collect();
        let budget = exceedance_threshold(&peaks, target_collateral)
            .expect("nonempty calibration population");
        ThresholdRevoke { budget }
    }
}

impl RevocationPolicy for ThresholdRevoke {
    fn name(&self) -> &'static str {
        "threshold-revoke"
    }

    fn decide(&self, evidence: &Evidence<'_>, list: &mut RevocationList) -> bool {
        let mut changed = false;
        for s in evidence.scorer.suspicions() {
            if list.is_revoked(s.node) {
                continue;
            }
            let suspicion = evidence.scorer.decayed(s, evidence.round);
            if suspicion > self.budget {
                changed |= list.revoke(RevokedNode {
                    node: s.node,
                    round: evidence.round,
                    suspicion,
                    alarms: s.alarms,
                });
            }
        }
        changed
    }
}

/// Quarantine a region when recent alarms condense into a tight,
/// suspicion-heavy spatial focus — and lift it again once the region
/// stays quiet (recovery).
///
/// Complements [`ThresholdRevoke`]: a spreading compromise (many victims,
/// each alarming once or twice) keeps every individual suspicion below a
/// per-node budget while the *region* is obviously hot; conversely a
/// quarantine contains an attack focus immediately, without waiting for
/// per-node evidence, at the cost of suppressing honest reports from the
/// same region — which is why quiet regions are lifted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterQuarantine {
    /// Single-linkage radius for clustering recent alarmed estimates.
    pub link_radius: f64,
    /// How many recent rounds of journal entries feed the clustering.
    pub window: u64,
    /// Minimum alarms in a focus before it can be quarantined.
    pub min_alarms: usize,
    /// Minimum total member suspicion before a focus is quarantined.
    pub suspicion_budget: f64,
    /// Margin added to the focus radius when drawing the region.
    pub margin: f64,
    /// Lift a quarantine after this many consecutive quiet rounds (no
    /// journalled alarm inside the region).
    pub lift_after: u64,
}

impl RevocationPolicy for ClusterQuarantine {
    fn name(&self) -> &'static str {
        "cluster-quarantine"
    }

    fn decide(&self, evidence: &Evidence<'_>, list: &mut RevocationList) -> bool {
        let mut changed = false;
        let since = evidence.round.saturating_sub(self.window);

        // Recovery first: lift any active region that has been quiet for
        // `lift_after` rounds — no journalled in-region alarm AND no
        // suppressed in-region claim by a watched node (`hot_round`, fed
        // by the runtime's suppression telemetry; without it, suppression
        // itself would hide every in-region alarm and make each
        // quarantine auto-lift after its quiet horizon while the attacker
        // keeps transmitting into the void).
        let lift_since = evidence.round.saturating_sub(self.lift_after);
        for q in &mut list.quarantined {
            if !q.is_active() || q.round > lift_since || q.hot_round > lift_since {
                continue;
            }
            let hot = evidence
                .journal
                .entries_since(lift_since)
                .iter()
                .any(|e| q.region.contains(e.estimate));
            if !hot {
                q.lifted_round = Some(evidence.round);
                changed = true;
            }
        }

        // Then impose: any recent focus that is big and suspicious enough
        // and not already covered by an active region.
        let entries = evidence.journal.entries_since(since);
        let clusters = evidence
            .scorer
            .clusters(entries, self.link_radius, evidence.round);
        for cluster in clusters {
            if cluster.alarms < self.min_alarms || cluster.suspicion <= self.suspicion_budget {
                continue;
            }
            // A focus that has already been quiet for the lift horizon
            // would be lifted again immediately — don't (re)impose it.
            if evidence.round.saturating_sub(cluster.last_round) >= self.lift_after {
                continue;
            }
            // A focus whose every member was already revoked (e.g. by a
            // ThresholdRevoke earlier in the same pass) is dealt with —
            // the revoked nodes are silenced node-wise, and quarantining
            // the region would only suppress honest residents' reports
            // with no attacker left to contain.
            if cluster.nodes.iter().all(|&n| list.is_revoked(n)) {
                continue;
            }
            let covered = list
                .active_regions()
                .any(|q| q.region.contains(cluster.centroid));
            if covered {
                continue;
            }
            list.quarantined.push(QuarantinedRegion {
                region: Circle::new(cluster.centroid, cluster.radius + self.margin),
                round: evidence.round,
                nodes: cluster.nodes,
                alarms: cluster.alarms,
                hot_round: cluster.last_round,
                lifted_round: None,
            });
            changed = true;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResponseConfig;
    use lad_geometry::Point2;
    use lad_net::NodeId;
    use lad_serve::Alarm;

    fn alarm(node: u32, round: u64, x: f64, y: f64) -> Alarm {
        Alarm {
            node: NodeId(node),
            round,
            score: 30.0,
            statistic: 40.0,
            estimate: Point2::new(x, y),
        }
    }

    #[test]
    fn revocation_list_round_trips_and_rejects_unknown_versions() {
        let mut list = RevocationList::new();
        list.revoke(RevokedNode {
            node: 9,
            round: 4,
            suspicion: 3.5,
            alarms: 4,
        });
        list.quarantined.push(QuarantinedRegion {
            region: Circle::new(Point2::new(10.0, 20.0), 55.0),
            round: 5,
            nodes: vec![9, 11],
            alarms: 6,
            hot_round: 5,
            lifted_round: None,
        });
        list.revision = 2;
        let back = RevocationList::from_json(&list.to_json()).expect("round trip");
        assert_eq!(list, back);
        assert!(back.is_revoked(9));
        assert!(!back.is_revoked(10));

        let wrong = list.to_json().replacen("\"version\":1", "\"version\":7", 1);
        assert!(matches!(
            RevocationList::from_json(&wrong),
            Err(ResponseError::UnsupportedVersion { found: 7 })
        ));
        assert!(matches!(
            RevocationList::from_json("{nope"),
            Err(ResponseError::Parse(_))
        ));
    }

    #[test]
    fn to_filter_compiles_only_active_regions() {
        let mut list = RevocationList::new();
        list.revoke(RevokedNode {
            node: 4,
            round: 1,
            suspicion: 2.0,
            alarms: 2,
        });
        list.quarantined.push(QuarantinedRegion {
            region: Circle::new(Point2::new(0.0, 0.0), 10.0),
            round: 1,
            nodes: vec![4],
            alarms: 4,
            hot_round: 1,
            lifted_round: Some(9),
        });
        list.quarantined.push(QuarantinedRegion {
            region: Circle::new(Point2::new(100.0, 100.0), 10.0),
            round: 2,
            nodes: vec![5],
            alarms: 5,
            hot_round: 2,
            lifted_round: None,
        });
        list.revision = 3;
        let filter = list.to_filter();
        assert_eq!(filter.revision, 3);
        assert_eq!(filter.revoked, vec![4]);
        assert_eq!(filter.quarantined.len(), 1, "lifted regions drop out");
        assert!(filter.suppresses(NodeId(4), Point2::new(500.0, 500.0)));
        assert!(filter.suppresses(NodeId(8), Point2::new(101.0, 99.0)));
        assert!(!filter.suppresses(NodeId(8), Point2::new(1.0, 1.0)));
    }

    #[test]
    fn threshold_revoke_fires_on_repeat_offenders_only() {
        let mut journal = AlarmJournal::new(64);
        let mut scorer = SuspectScorer::new(0.85);
        // Node 1: alarms every round (an attacker). Node 2: one false alarm.
        for round in 0..4 {
            let mut alarms = vec![alarm(1, round, 50.0, 50.0)];
            if round == 1 {
                alarms.push(alarm(2, round, 400.0, 400.0));
            }
            journal.ingest(&alarms);
            for a in &alarms {
                scorer.observe_alarm(a.node.0, a.round);
            }
        }
        let policy = ThresholdRevoke { budget: 2.0 };
        let mut list = RevocationList::new();
        let changed = policy.decide(
            &Evidence {
                journal: &journal,
                scorer: &scorer,
                round: 3,
            },
            &mut list,
        );
        assert!(changed);
        assert!(list.is_revoked(1));
        assert!(!list.is_revoked(2), "one decayed false alarm is tolerated");
        assert_eq!(list.revoked.len(), 1);
        assert_eq!(list.revoked[0].alarms, 4);
        assert!(list.revoked[0].suspicion > 2.0);

        // Deciding again changes nothing (idempotent).
        assert!(!policy.decide(
            &Evidence {
                journal: &journal,
                scorer: &scorer,
                round: 4,
            },
            &mut list,
        ));
    }

    #[test]
    fn calibrated_budget_bounds_clean_collateral() {
        let config = ResponseConfig {
            decay: 0.85,
            journal_capacity: 64,
        };
        // 100 clean nodes over 50 rounds: most never alarm, a few have one
        // or two isolated false alarms, one unlucky node has a burst.
        let mut streams: Vec<Vec<u64>> = vec![Vec::new(); 85];
        for i in 0..10u64 {
            streams.push(vec![(i * 5) % 50]);
        }
        for i in 0..4u64 {
            streams.push(vec![i * 7, i * 7 + 20]);
        }
        streams.push(vec![10, 11, 12]); // the unlucky burst
        let policy = ThresholdRevoke::calibrate(&streams, 50, config, 0.02);

        // Replay: at most 2% of the clean population exceeds the budget.
        let exceeding = streams
            .iter()
            .filter(|rounds| {
                let mut s = SuspectScorer::new(config.decay);
                rounds.iter().any(|&r| {
                    s.observe_alarm(0, r);
                    s.suspicion(0, r) > policy.budget
                })
            })
            .count();
        assert!(
            exceeding as f64 <= 0.02 * streams.len() as f64,
            "{exceeding} of {} clean nodes would be revoked at budget {}",
            streams.len(),
            policy.budget
        );
        // And an attacker alarming every round blows past it quickly.
        let mut s = SuspectScorer::new(config.decay);
        let mut crossed = None;
        for round in 0..20 {
            s.observe_alarm(0, round);
            if s.suspicion(0, round) > policy.budget {
                crossed = Some(round);
                break;
            }
        }
        assert!(
            crossed.is_some_and(|r| r < 10),
            "persistent attacker crosses the calibrated budget fast"
        );
    }

    #[test]
    fn cluster_quarantine_imposes_on_a_focus_and_lifts_when_quiet() {
        let policy = ClusterQuarantine {
            link_radius: 30.0,
            window: 8,
            min_alarms: 3,
            suspicion_budget: 2.0,
            margin: 20.0,
            lift_after: 4,
        };
        let mut journal = AlarmJournal::new(64);
        let mut scorer = SuspectScorer::new(0.9);
        let mut list = RevocationList::new();

        // Rounds 0..3: a three-node focus near (200, 200).
        for round in 0..3u64 {
            let alarms: Vec<Alarm> = (0..3)
                .map(|i| alarm(10 + i, round, 200.0 + i as f64 * 8.0, 200.0))
                .collect();
            journal.ingest(&alarms);
            for a in &alarms {
                scorer.observe_alarm(a.node.0, a.round);
            }
            policy.decide(
                &Evidence {
                    journal: &journal,
                    scorer: &scorer,
                    round,
                },
                &mut list,
            );
        }
        assert_eq!(list.quarantined.len(), 1, "one region for one focus");
        let region = list.quarantined[0].region;
        assert!(region.contains(Point2::new(208.0, 200.0)));
        assert_eq!(list.quarantined[0].nodes, vec![10, 11, 12]);

        // Re-deciding while the focus persists does not duplicate it.
        policy.decide(
            &Evidence {
                journal: &journal,
                scorer: &scorer,
                round: 3,
            },
            &mut list,
        );
        assert_eq!(list.quarantined.len(), 1);

        // Quiet rounds: the region is lifted after `lift_after`.
        let changed = policy.decide(
            &Evidence {
                journal: &journal,
                scorer: &scorer,
                round: 3 + policy.lift_after + 3,
            },
            &mut list,
        );
        assert!(changed);
        assert!(!list.quarantined[0].is_active());
        assert_eq!(list.to_filter().quarantined.len(), 0);
    }
}
