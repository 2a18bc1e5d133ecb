//! The closed-loop controller: drain → attribute → decide → enforce.
//!
//! [`ResponseController`] owns the evidence ([`AlarmJournal`] +
//! [`SuspectScorer`]), a stack of [`RevocationPolicy`] objects, and the
//! [`RevocationList`] of record. One [`ResponseController::step`] per
//! served round (or per drain cadence) closes the loop: it drains the
//! runtime's alarm stream, canonicalises it, updates the evidence, lets
//! every policy decide, and — when anything changed — installs the
//! compiled [`ResponseFilter`](lad_serve::ResponseFilter) back into the
//! runtime so the next round's revoked work never reaches a shard.
//!
//! Controller state snapshots to versioned JSON ([`ResponseSnapshot`])
//! alongside the runtime's own v2 snapshot; policies are configuration,
//! not state, and are re-attached on restore (exactly like the detector in
//! a `ServeConfig`).

use crate::journal::AlarmJournal;
use crate::policy::{Evidence, QuarantinedRegion, ResponseError, RevocationList, RevocationPolicy};
use crate::suspect::{ResponseConfig, SuspectScorer};
use lad_net::NodeId;
use lad_serve::{Alarm, ServeRuntime};
use lad_stats::SequentialDetector;
use serde::{Deserialize, Serialize};

/// The response-snapshot format version this build writes and reads.
pub const RESPONSE_SNAPSHOT_VERSION: u32 = 1;

/// What one controller step changed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepOutcome {
    /// Alarms drained and journalled this step.
    pub alarms: usize,
    /// Nodes newly revoked this step (ascending) — feed these to
    /// `TrafficModel::revoke_nodes` in simulations, or to the real
    /// deployment's revocation transport.
    pub newly_revoked: Vec<NodeId>,
    /// Regions newly quarantined this step (each carries the member nodes
    /// whose alarms condensed it — the set to notify in simulations).
    pub newly_quarantined: Vec<QuarantinedRegion>,
    /// Quarantines lifted this step (recovery).
    pub lifted: usize,
    /// Whether the revocation list changed (and, in [`ResponseController::step`],
    /// whether a fresh filter was installed).
    pub changed: bool,
}

/// The closed-loop response controller. See the [module docs](self).
pub struct ResponseController {
    config: ResponseConfig,
    journal: AlarmJournal,
    scorer: SuspectScorer,
    policies: Vec<Box<dyn RevocationPolicy>>,
    list: RevocationList,
    last_round: u64,
    /// Indices into `list.quarantined` of the regions compiled into the
    /// currently installed filter (same order as its circles), plus the
    /// suppression counts last read for them — the baseline for the
    /// per-step telemetry delta. Runtime-coupled, reset on every install.
    installed_regions: Vec<usize>,
    installed_hits: Vec<u64>,
}

impl std::fmt::Debug for ResponseController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseController")
            .field("config", &self.config)
            .field("journal", &self.journal.len())
            .field("policies", &self.policies.len())
            .field("revoked", &self.list.revoked.len())
            .field("quarantined", &self.list.quarantined.len())
            .field("last_round", &self.last_round)
            .finish()
    }
}

impl ResponseController {
    /// A fresh controller with no policies attached (attach at least one
    /// via [`Self::with_policy`] for the loop to ever decide anything).
    ///
    /// # Panics
    /// Panics when the configuration is invalid.
    pub fn new(config: ResponseConfig) -> Self {
        config.validate();
        Self {
            config,
            journal: AlarmJournal::new(config.journal_capacity),
            scorer: SuspectScorer::new(config.decay),
            policies: Vec::new(),
            list: RevocationList::new(),
            last_round: 0,
            installed_regions: Vec::new(),
            installed_hits: Vec::new(),
        }
    }

    /// Attaches a policy (policies decide in attachment order).
    pub fn with_policy(mut self, policy: Box<dyn RevocationPolicy>) -> Self {
        self.policies.push(policy);
        self
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ResponseConfig {
        &self.config
    }

    /// The alarm journal (canonical order).
    pub fn journal(&self) -> &AlarmJournal {
        &self.journal
    }

    /// The per-node suspicion accumulator.
    pub fn scorer(&self) -> &SuspectScorer {
        &self.scorer
    }

    /// The revocation list of record.
    pub fn revocations(&self) -> &RevocationList {
        &self.list
    }

    /// The core of the loop, decoupled from any runtime: folds a drained
    /// alarm batch into the evidence as of `round` and runs the policies.
    /// The batch is canonicalised to `(round, node)` order first, so the
    /// outcome is a pure function of the alarm *set* — independent of the
    /// runtime's shard interleaving.
    pub fn observe(&mut self, alarms: &[Alarm], round: u64) -> StepOutcome {
        self.last_round = self.last_round.max(round);
        self.journal.ingest(alarms);
        let mut batch: Vec<(u64, u32)> = alarms.iter().map(|a| (a.round, a.node.0)).collect();
        batch.sort_unstable();
        for &(alarm_round, node) in &batch {
            self.scorer.observe_alarm(node, alarm_round);
        }

        let revoked_before: Vec<u32> = self.list.revoked.iter().map(|r| r.node).collect();
        let quarantined_before = self.list.quarantined.len();
        let active_before = self.list.active_regions().count();

        let mut changed = false;
        let evidence = Evidence {
            journal: &self.journal,
            scorer: &self.scorer,
            round,
        };
        for policy in &self.policies {
            changed |= policy.decide(&evidence, &mut self.list);
        }
        if changed {
            self.list.revision += 1;
        }

        let newly_revoked: Vec<NodeId> = self
            .list
            .revoked
            .iter()
            .map(|r| r.node)
            .filter(|n| revoked_before.binary_search(n).is_err())
            .map(NodeId)
            .collect();
        let newly_quarantined: Vec<QuarantinedRegion> =
            self.list.quarantined[quarantined_before..].to_vec();
        let active_after = self.list.active_regions().count();
        let lifted = (active_before + newly_quarantined.len()).saturating_sub(active_after);
        StepOutcome {
            alarms: alarms.len(),
            newly_revoked,
            newly_quarantined,
            lifted,
            changed,
        }
    }

    /// Installs the current revocation filter into `runtime` — revoked
    /// ids, active quarantine circles, and the watch list (every node with
    /// alarm history, so its *suppressed* claims count toward region
    /// telemetry) — and resets the telemetry baseline. Called by
    /// [`Self::step`] whenever the list changes; call it once yourself
    /// after restoring a controller/runtime pair from snapshots, or the
    /// fresh runtime enforces nothing.
    pub fn install(&mut self, runtime: &ServeRuntime) {
        let watched = self.scorer.suspicions().iter().map(|s| s.node).collect();
        runtime.install_response_filter(self.list.to_filter().with_watched(watched));
        self.installed_regions = self
            .list
            .quarantined
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.is_active().then_some(i))
            .collect();
        self.installed_hits = vec![0; self.installed_regions.len()];
    }

    /// One closed-loop step against a live runtime: folds the runtime's
    /// per-region suppression telemetry into the quarantined regions'
    /// freshness (a quarantined attacker that keeps claiming into its
    /// region produces no *alarms* — they are suppressed pre-scoring — but
    /// must still count as "hot", or every quarantine would auto-lift
    /// after its quiet horizon), drains its alarms (syncing first, so the
    /// step covers every round submitted so far), observes them as of
    /// `round`, and — when the list changed — installs the freshly
    /// compiled filter back into the runtime.
    pub fn step(&mut self, runtime: &ServeRuntime, round: u64) -> StepOutcome {
        let telemetry = runtime.telemetry();
        let _span = telemetry.span(lad_telemetry::Stage::ResponseStep);
        let (revision, hits) = runtime.region_suppression();
        if revision == self.list.revision && hits.len() == self.installed_regions.len() {
            for ((&idx, &now), &before) in self
                .installed_regions
                .iter()
                .zip(&hits)
                .zip(&self.installed_hits)
            {
                if now > before {
                    let q = &mut self.list.quarantined[idx];
                    q.hot_round = q.hot_round.max(round);
                }
            }
            self.installed_hits = hits;
        }
        let alarms = runtime.drain_alarms();
        let outcome = self.observe(&alarms, round);
        if outcome.changed {
            self.install(runtime);
            telemetry.event(
                lad_telemetry::EventKind::RevocationInstall,
                round,
                self.list.revoked.len() as u64,
                self.list.quarantined.len() as u64,
                "",
            );
        }
        outcome
    }

    /// A versioned snapshot of the controller's state (policies are
    /// configuration and are not captured — re-attach them on restore).
    pub fn snapshot(&self) -> ResponseSnapshot {
        ResponseSnapshot {
            version: RESPONSE_SNAPSHOT_VERSION,
            config: self.config,
            journal: self.journal.clone(),
            scorer: self.scorer.clone(),
            list: self.list.clone(),
            last_round: self.last_round,
        }
    }

    /// Rebuilds a controller from a snapshot (with no policies attached —
    /// chain [`Self::with_policy`] to re-attach them, then call
    /// [`Self::install`] against the restored runtime to resume
    /// enforcement).
    pub fn from_snapshot(snapshot: ResponseSnapshot) -> Self {
        Self {
            config: snapshot.config,
            journal: snapshot.journal,
            scorer: snapshot.scorer,
            policies: Vec::new(),
            list: snapshot.list,
            last_round: snapshot.last_round,
            installed_regions: Vec::new(),
            installed_hits: Vec::new(),
        }
    }
}

/// The serialisable state of a [`ResponseController`]. Versioned like
/// every other artifact in the workspace: an explicit `version` field,
/// typed [`ResponseError::UnsupportedVersion`] on anything else.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseSnapshot {
    /// Snapshot format version (see [`RESPONSE_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The evidence configuration.
    pub config: ResponseConfig,
    /// The alarm journal.
    pub journal: AlarmJournal,
    /// The per-node suspicion state.
    pub scorer: SuspectScorer,
    /// The revocation list of record.
    pub list: RevocationList,
    /// The latest observed round.
    pub last_round: u64,
}

impl ResponseSnapshot {
    /// Serialises the snapshot to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("response snapshot serialises")
    }

    /// Restores a snapshot from [`Self::to_json`] output. Versions other
    /// than [`RESPONSE_SNAPSHOT_VERSION`] are rejected with
    /// [`ResponseError::UnsupportedVersion`].
    pub fn from_json(json: &str) -> Result<Self, ResponseError> {
        let value =
            serde_json::parse_value(json).map_err(|e| ResponseError::Parse(e.to_string()))?;
        let found = value
            .get("version")
            .ok_or_else(|| {
                ResponseError::Parse("not a response snapshot (no `version` field)".into())
            })?
            .as_u64()
            .ok_or_else(|| ResponseError::Parse("`version` must be an integer".into()))?;
        if found != RESPONSE_SNAPSHOT_VERSION as u64 {
            return Err(ResponseError::UnsupportedVersion { found });
        }
        serde_json::from_value(&value).map_err(|e| ResponseError::Parse(e.to_string()))
    }
}

/// Replays `detector` over clean per-node score streams (population
/// order, as produced by `TrafficModel::score_streams`) and returns each
/// node's *alarm rounds* — the clean alarm streams revocation budgets are
/// calibrated against ([`ThresholdRevoke::calibrate`]). `lad_serve`
/// always resets a node's state after it alarms, so callers replaying a
/// serving runtime pass `reset_on_alarm = true`; `false` replays a rule
/// that keeps its state across alarms.
///
/// [`ThresholdRevoke::calibrate`]: crate::ThresholdRevoke::calibrate
pub fn clean_alarm_rounds(
    detector: &SequentialDetector,
    streams: &[Vec<f64>],
    reset_on_alarm: bool,
) -> Vec<Vec<u64>> {
    streams
        .iter()
        .map(|stream| {
            let mut state = detector.initial_state();
            let mut rounds = Vec::new();
            for (round, &score) in stream.iter().enumerate() {
                if detector.update(&mut state, score) {
                    rounds.push(round as u64);
                    if reset_on_alarm {
                        detector.reset(&mut state);
                    }
                }
            }
            rounds
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ClusterQuarantine, ThresholdRevoke};
    use lad_geometry::Point2;

    fn alarm(node: u32, round: u64, x: f64, y: f64) -> Alarm {
        Alarm {
            node: NodeId(node),
            round,
            score: 30.0,
            statistic: 40.0,
            estimate: Point2::new(x, y),
        }
    }

    fn controller() -> ResponseController {
        ResponseController::new(ResponseConfig::default())
            .with_policy(Box::new(ThresholdRevoke { budget: 2.5 }))
            .with_policy(Box::new(ClusterQuarantine {
                link_radius: 40.0,
                window: 8,
                min_alarms: 4,
                suspicion_budget: 3.0,
                margin: 25.0,
                lift_after: 5,
            }))
    }

    #[test]
    fn repeat_offender_is_revoked_and_reported_once() {
        let mut ctl = controller();
        let mut revoked_events = Vec::new();
        for round in 0..6u64 {
            let outcome = ctl.observe(&[alarm(9, round, 300.0, 300.0)], round);
            revoked_events.extend(outcome.newly_revoked.clone());
            if !outcome.newly_revoked.is_empty() {
                assert!(outcome.changed);
            }
        }
        assert_eq!(revoked_events, vec![NodeId(9)], "revoked exactly once");
        assert!(ctl.revocations().is_revoked(9));
        assert!(ctl.revocations().revision >= 1);
        assert_eq!(ctl.journal().total_alarms(), 6);
    }

    #[test]
    fn a_spread_focus_is_quarantined_then_lifted_when_quiet() {
        let mut ctl = controller();
        // Eight distinct nodes each alarm once near (100, 100): no single
        // node crosses the per-node budget, but the focus does.
        let mut quarantined = Vec::new();
        for round in 0..2u64 {
            let alarms: Vec<Alarm> = (0..4u32)
                .map(|i| {
                    alarm(
                        20 + round as u32 * 4 + i,
                        round,
                        100.0 + i as f64 * 10.0,
                        100.0 + round as f64 * 10.0,
                    )
                })
                .collect();
            let outcome = ctl.observe(&alarms, round);
            quarantined.extend(outcome.newly_quarantined.clone());
        }
        assert_eq!(quarantined.len(), 1, "one region for the focus");
        assert!(ctl.revocations().revoked.is_empty(), "nobody revoked");
        assert!(quarantined[0].region.contains(Point2::new(110.0, 105.0)));

        // Quiet rounds: recovery lifts the region.
        let mut lifted = 0;
        for round in 2..12u64 {
            lifted += ctl.observe(&[], round).lifted;
        }
        assert_eq!(lifted, 1);
        assert_eq!(ctl.revocations().to_filter().quarantined.len(), 0);
    }

    #[test]
    fn outcome_is_independent_of_drain_interleaving() {
        let batch = vec![
            alarm(5, 1, 50.0, 50.0),
            alarm(3, 0, 55.0, 50.0),
            alarm(5, 0, 52.0, 48.0),
            alarm(3, 1, 51.0, 53.0),
        ];
        let mut reversed = batch.clone();
        reversed.reverse();
        let mut a = controller();
        let mut b = controller();
        let oa = a.observe(&batch, 1);
        let ob = b.observe(&reversed, 1);
        assert_eq!(oa, ob);
        assert_eq!(a.revocations(), b.revocations());
        assert_eq!(a.journal().entries(), b.journal().entries());
        assert_eq!(a.scorer().suspicions(), b.scorer().suspicions());
    }

    #[test]
    fn snapshot_round_trips_and_resumes() {
        let mut ctl = controller();
        for round in 0..4u64 {
            ctl.observe(&[alarm(7, round, 10.0, 10.0)], round);
        }
        let json = ctl.snapshot().to_json();
        let snapshot = ResponseSnapshot::from_json(&json).expect("round trip");
        assert_eq!(snapshot, ctl.snapshot());

        // Resume: the restored controller (policies re-attached) makes the
        // same onward decisions as the uninterrupted one.
        let mut resumed = ResponseController::from_snapshot(snapshot)
            .with_policy(Box::new(ThresholdRevoke { budget: 2.5 }));
        let live = ctl.observe(&[alarm(8, 4, 500.0, 500.0)], 4);
        let restored = resumed.observe(&[alarm(8, 4, 500.0, 500.0)], 4);
        assert_eq!(live.newly_revoked, restored.newly_revoked);
        assert_eq!(ctl.revocations().revoked, resumed.revocations().revoked);

        // Unknown versions are rejected with the typed error.
        let wrong = json.replacen("\"version\":1", "\"version\":5", 1);
        assert!(matches!(
            ResponseSnapshot::from_json(&wrong),
            Err(ResponseError::UnsupportedVersion { found: 5 })
        ));
    }

    #[test]
    fn clean_alarm_rounds_match_a_manual_replay() {
        let detector = SequentialDetector::Cusum {
            reference: 1.0,
            threshold: 2.0,
        };
        let streams = vec![vec![0.0, 4.0, 0.0, 4.0, 4.0], vec![0.0; 5]];
        let rounds = clean_alarm_rounds(&detector, &streams, true);
        // Stream 0: s=0,3(alarm,reset),0,3(alarm,reset),3(alarm).
        assert_eq!(rounds[0], vec![1, 3, 4]);
        assert!(rounds[1].is_empty());
        // Without reset the accumulated sum keeps firing.
        let no_reset = clean_alarm_rounds(&detector, &streams, false);
        assert!(no_reset[0].len() >= rounds[0].len());
    }
}
