//! Deterministic traffic generation: replaying attack timelines over a
//! simulated network.
//!
//! A [`TrafficModel`] models the serving workload: every round, each
//! sensor in the population hears its neighbourhood through radio loss
//! (each true neighbour is heard with probability [`HEAR_PROB`]), re-runs
//! localization on what it heard, and reports the resulting
//! `(observation, estimate)` pair — the paper's one-shot pipeline applied
//! round after round, which is what makes the per-round clean score
//! streams (approximately) independent draws from the substrate's clean
//! distribution rather than a frozen per-node constant. An
//! [`AttackTimeline`] then turns part of the population hostile: from
//! attack onset, compromised nodes submit the paper's §7.1 attack (forged
//! location at distance `D`, greedily tainted observation) instead of
//! their honest report.
//!
//! Everything derives from one master seed via `lad_stats::seeds`, so a
//! traffic trace is a pure function of `(network, model, round)` — the
//! serving runtime's determinism tests and the temporal evaluation both
//! rely on this.

use lad_attack::{displaced_location, taint_observation, AttackConfig, Evasion};
use lad_core::engine::LadEngine;
use lad_core::MetricKind;
use lad_geometry::Point2;
use lad_net::{Network, NodeId, Observation, ObservationBatch};
use lad_stats::seeds::derive_seed;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Seed-path tags, distinct from the evaluation harness's so traffic
/// streams never collide with Monte-Carlo trial streams.
const TAG_ROUND: u64 = 0x7_AFF1C;
const TAG_COMPROMISE: u64 = 0xC0_413D;
const TAG_FORGE: u64 = 0xF0_46ED;

/// When (and how broadly) the adversary is active.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackTimeline {
    /// No attack, ever: pure clean traffic (warm-up / calibration runs).
    Clean,
    /// The full compromised set attacks every round from `at` onwards.
    Onset {
        /// First attacked round.
        at: u64,
    },
    /// From `at` onwards the compromised set attacks in bursts: `active`
    /// rounds out of every `period` (an adversary evading detection by
    /// going quiet).
    Intermittent {
        /// First attacked round.
        at: u64,
        /// Cycle length in rounds.
        period: u64,
        /// Attacked rounds at the start of each cycle (`1..=period`).
        active: u64,
    },
    /// The compromised set grows linearly from empty at `at` to the full
    /// set at `full_at` (a spreading compromise).
    Ramp {
        /// First attacked round.
        at: u64,
        /// Round at which the whole compromised set is active.
        full_at: u64,
    },
}

impl AttackTimeline {
    /// The first round at which any node attacks, or `None` for
    /// [`AttackTimeline::Clean`].
    pub fn onset(&self) -> Option<u64> {
        match *self {
            AttackTimeline::Clean => None,
            AttackTimeline::Onset { at }
            | AttackTimeline::Intermittent { at, .. }
            | AttackTimeline::Ramp { at, .. } => Some(at),
        }
    }

    /// How many of the `compromised` nodes (ordered by compromise rank) are
    /// actively attacking in `round`.
    fn active_count(&self, compromised: usize, round: u64) -> usize {
        match *self {
            AttackTimeline::Clean => 0,
            AttackTimeline::Onset { at } => {
                if round >= at {
                    compromised
                } else {
                    0
                }
            }
            AttackTimeline::Intermittent { at, period, active } => {
                if round >= at && (round - at) % period.max(1) < active {
                    compromised
                } else {
                    0
                }
            }
            AttackTimeline::Ramp { at, full_at } => {
                if round < at {
                    0
                } else if round >= full_at {
                    compromised
                } else {
                    let span = (full_at - at) as f64;
                    let progress = (round - at + 1) as f64 / (span + 1.0);
                    (compromised as f64 * progress).ceil() as usize
                }
            }
        }
    }
}

/// One reporting sensor: its true (clean) observation, from which each
/// round's heard observation is derived, plus a fallback estimate for the
/// rare round whose thinned observation cannot be localized.
#[derive(Debug, Clone)]
struct Reporter {
    node: NodeId,
    fallback_estimate: Point2,
    clean_observation: Observation,
    /// Position in the seeded compromise shuffle: rank < k ⇒ among the
    /// first k nodes to turn hostile.
    compromise_rank: usize,
}

/// A deterministic load generator over one simulated network. See the
/// [module docs](self) for the model.
#[derive(Clone)]
pub struct TrafficModel {
    reporters: Vec<Reporter>,
    localizer: lad_localization::BeaconlessMle,
    knowledge: std::sync::Arc<lad_deployment::DeploymentKnowledge>,
    timeline: AttackTimeline,
    attack: Option<AttackConfig>,
    /// Number of reporters in the compromised set (the timeline activates
    /// them gradually or all at once).
    compromised: usize,
    seed: u64,
    /// Post-revocation behaviour: `(node, round)` pairs, sorted by node —
    /// from `round` on the node no longer reports at all (a revoked
    /// attacker falls silent; a revoked honest node is pulled for
    /// re-attestation). Empty unless the closed loop feeds decisions back
    /// via [`Self::revoke_nodes`].
    silenced: Vec<(u32, u64)>,
    /// Quarantine notices: `(node, rounds the notices arrived in,
    /// ascending)`, sorted by node. Attackers react per the model's
    /// [`Evasion`] strategy **from each notice's round on** — querying a
    /// pre-notice round replays exactly the traffic that was served before
    /// the notice arrived, so the model stays a pure function of
    /// `(network, model state, round)` even mid-loop. Honest nodes ignore
    /// notices (their reports are suppressed server-side, not
    /// client-side).
    notices: Vec<(u32, Vec<u64>)>,
    /// How notified attackers adapt (`None`: they attack on unchanged).
    evasion: Option<Evasion>,
}

impl std::fmt::Debug for TrafficModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrafficModel")
            .field("reporters", &self.reporters.len())
            .field("timeline", &self.timeline)
            .field("attack", &self.attack)
            .field("compromised", &self.compromised)
            .field("seed", &self.seed)
            .field("silenced", &self.silenced.len())
            .field("notices", &self.notices.len())
            .field("evasion", &self.evasion)
            .finish()
    }
}

impl TrafficModel {
    /// Builds a clean traffic model over `nodes`: every round each node
    /// re-localizes with the engine's scheme (against the engine's
    /// *assumed* deployment knowledge — exactly what a deployed sensor
    /// holds) from that round's heard observation. Nodes whose full
    /// observation the scheme cannot localize are dropped at construction.
    ///
    /// # Panics
    /// Panics when `nodes` contains a duplicate id: the serving runtime
    /// keys detector state by node, so a duplicated reporter would fold
    /// two report streams into one node's state — silently diverging from
    /// any per-stream offline replay (and a duplicate could end up both
    /// clean and compromised at once).
    pub fn clean(network: &Network, engine: &LadEngine, nodes: Vec<NodeId>, seed: u64) -> Self {
        let mut unique: Vec<u32> = nodes.iter().map(|n| n.0).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            nodes.len(),
            "traffic population contains duplicate node ids"
        );
        let knowledge = engine.knowledge();
        let mut reporters: Vec<Reporter> = nodes
            .into_iter()
            .filter_map(|node| {
                let clean_observation = network.true_observation(node);
                let fallback_estimate =
                    engine.localizer().estimate(knowledge, &clean_observation)?;
                Some(Reporter {
                    node,
                    fallback_estimate,
                    clean_observation,
                    compromise_rank: 0,
                })
            })
            .collect();

        // Seeded shuffle rank assignment: rank r means "the (r+1)-th node
        // to turn hostile", fixed for the model's lifetime so ramps grow
        // monotonically.
        let n = reporters.len();
        let order = lad_stats::seeds::seeded_partial_shuffle(
            n,
            n.saturating_sub(1),
            derive_seed(seed, &[TAG_COMPROMISE]),
        );
        for (rank, &idx) in order.iter().enumerate() {
            reporters[idx as usize].compromise_rank = rank;
        }

        Self {
            reporters,
            localizer: *engine.localizer(),
            knowledge: knowledge.clone(),
            timeline: AttackTimeline::Clean,
            attack: None,
            compromised: 0,
            seed,
            silenced: Vec::new(),
            notices: Vec::new(),
            evasion: None,
        }
    }

    /// Returns a copy in which a `node_fraction` of the population turns
    /// hostile according to `timeline`. Each active attacker claims one
    /// consistent forged location (the §7.1 D-anomaly, drawn once per
    /// node) and re-runs the `attack`'s greedy taint against every
    /// attacked round's heard neighbourhood.
    ///
    /// # Panics
    /// Panics when `node_fraction ∉ [0, 1]`, when an
    /// [`AttackTimeline::Intermittent`] has `period = 0` or
    /// `active ∉ 1..=period`, or when an [`AttackTimeline::Ramp`] has
    /// `full_at < at` — each of those would silently describe a different
    /// attack than the caller believes (e.g. `active = 0` never attacks
    /// while `onset()` still reports an onset round).
    pub fn with_attack(
        &self,
        timeline: AttackTimeline,
        attack: AttackConfig,
        node_fraction: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&node_fraction),
            "compromised node fraction must be in [0, 1], got {node_fraction}"
        );
        match timeline {
            AttackTimeline::Intermittent { period, active, .. } => {
                assert!(period >= 1, "intermittent timeline needs period >= 1");
                assert!(
                    (1..=period).contains(&active),
                    "intermittent timeline needs active in 1..=period, got {active} of {period}"
                );
            }
            AttackTimeline::Ramp { at, full_at } => {
                assert!(
                    full_at >= at,
                    "ramp timeline needs full_at >= at, got {full_at} < {at}"
                );
            }
            AttackTimeline::Clean | AttackTimeline::Onset { .. } => {}
        }
        let mut model = self.clone();
        model.timeline = timeline;
        model.attack = Some(attack);
        model.compromised = (node_fraction * self.reporters.len() as f64).ceil() as usize;
        model
    }

    /// Returns a copy whose attackers *adapt* to quarantine notices with
    /// the given [`Evasion`] strategy (rotate the forged location, or go
    /// intermittent). Without a strategy, notified attackers keep attacking
    /// unchanged.
    ///
    /// # Panics
    /// Panics when the strategy's parameters are invalid (see
    /// [`Evasion::validate`]).
    pub fn with_evasion(mut self, evasion: Evasion) -> Self {
        evasion.validate();
        self.evasion = Some(evasion);
        self
    }

    /// Closed-loop feedback: from `round` on, each of `nodes` no longer
    /// reports at all — a revoked attacker falls silent (its reports would
    /// be suppressed server-side anyway, and continuing to transmit only
    /// feeds the operator evidence), and a revoked honest node is pulled
    /// for recovery/re-attestation. Revoking an already-silenced node
    /// keeps its earliest silencing round.
    pub fn revoke_nodes(&mut self, nodes: &[NodeId], round: u64) {
        for node in nodes {
            match self.silenced.binary_search_by_key(&node.0, |e| e.0) {
                Ok(i) => self.silenced[i].1 = self.silenced[i].1.min(round),
                Err(i) => self.silenced.insert(i, (node.0, round)),
            }
        }
    }

    /// Closed-loop feedback: each of `nodes` learns in `round` that its
    /// claimed region was quarantined. Attackers react per the model's
    /// [`Evasion`] strategy from that round on (each notice advances the
    /// forgery epoch for rotation); querying earlier rounds still replays
    /// the pre-notice traffic. Honest nodes ignore notices — their reports
    /// are suppressed server-side, not client-side.
    pub fn notify_quarantine(&mut self, nodes: &[NodeId], round: u64) {
        for node in nodes {
            match self.notices.binary_search_by_key(&node.0, |e| e.0) {
                Ok(i) => {
                    let rounds = &mut self.notices[i].1;
                    // Idempotent per (node, round): two foci quarantined in
                    // the same drain deliver ONE logical notice — a
                    // duplicate would silently advance the rotation epoch
                    // twice and break replay equivalence with a
                    // deduplicating caller.
                    if let Err(at) = rounds.binary_search(&round) {
                        rounds.insert(at, round);
                    }
                }
                Err(i) => self.notices.insert(i, (node.0, vec![round])),
            }
        }
    }

    /// The round from which `node` is silenced, if any.
    fn silenced_from(&self, node: u32) -> Option<u64> {
        self.silenced
            .binary_search_by_key(&node, |e| e.0)
            .ok()
            .map(|i| self.silenced[i].1)
    }

    /// The `(latest notice round <= round, notices received by round)` of
    /// `node` **as of** `round` — only notices that had already arrived
    /// count, so past rounds replay exactly as they were served.
    fn notice_state(&self, node: u32, round: u64) -> Option<(u64, u32)> {
        let i = self.notices.binary_search_by_key(&node, |e| e.0).ok()?;
        let rounds = &self.notices[i].1;
        let received = rounds.partition_point(|&r| r <= round);
        (received > 0).then(|| (rounds[received - 1], received as u32))
    }

    /// Whether `reporter` submits an *attacked* report in `round`, given
    /// the timeline's active count for that round (silencing is handled by
    /// the caller — a silenced node submits nothing at all).
    fn attacks_in_round(&self, reporter: &Reporter, active: usize, round: u64) -> bool {
        if reporter.compromise_rank >= active {
            return false;
        }
        match (self.evasion, self.notice_state(reporter.node.0, round)) {
            (Some(evasion), Some((notice_round, _))) => {
                evasion.attacks_after_notice(round - notice_round)
            }
            _ => true,
        }
    }

    /// The forgery epoch `reporter` uses in an attacked `round`: 0 until a
    /// quarantine notice arrives, then per the evasion strategy (rotation
    /// advances it once per received notice). Epoch 0 derives the same
    /// per-node forge seed as a notice-free model, so closed-loop traffic
    /// is bit-identical to open-loop traffic up to each node's first
    /// notice round.
    fn forgery_epoch(&self, reporter: &Reporter, round: u64) -> u32 {
        match (self.evasion, self.notice_state(reporter.node.0, round)) {
            (Some(evasion), Some((_, count))) => evasion.forgery_epoch(count),
            _ => 0,
        }
    }

    /// The reporting population (after localization drops), in submission
    /// order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.reporters.iter().map(|r| r.node).collect()
    }

    /// The timeline's first attacked round, or `None` for clean traffic.
    pub fn onset(&self) -> Option<u64> {
        match self.attack {
            Some(_) => self.timeline.onset(),
            None => None,
        }
    }

    /// One flag per reporter, in population order ([`Self::nodes`]):
    /// whether it submits an attacked report in `round` (silenced nodes
    /// submit nothing; notified attackers follow the evasion strategy).
    /// One O(population) pass — prefer this over calling
    /// [`Self::is_attacked`] per node.
    pub fn attacked_mask(&self, round: u64) -> Vec<bool> {
        let active = self.timeline.active_count(self.compromised, round);
        self.reporters
            .iter()
            .map(|r| {
                self.silenced_from(r.node.0).is_none_or(|from| round < from)
                    && self.attacks_in_round(r, active, round)
            })
            .collect()
    }

    /// Whether `node` submits an attacked report in `round`.
    pub fn is_attacked(&self, node: NodeId, round: u64) -> bool {
        let active = self.timeline.active_count(self.compromised, round);
        if self.silenced_from(node.0).is_some_and(|from| round >= from) {
            return false;
        }
        self.reporters
            .iter()
            .any(|r| r.node == node && self.attacks_in_round(r, active, round))
    }

    /// Calls `report(node, observation, estimate)` for every reporter's
    /// report of `round`, in population order, reusing one thinning scratch
    /// observation (and one µ scratch for attacked reports) across the
    /// whole round — the allocation-free core [`Self::round_rows`] drives.
    fn for_each_report<F: FnMut(NodeId, &Observation, Point2)>(
        &self,
        network: &Network,
        round: u64,
        mut report: F,
    ) {
        let active = self.timeline.active_count(self.compromised, round);
        let mut heard = Observation::zeros(self.knowledge.group_count());
        let mut mu_scratch: Vec<f64> = Vec::new();
        for reporter in &self.reporters {
            if self
                .silenced_from(reporter.node.0)
                .is_some_and(|from| round >= from)
            {
                // Revoked (or recovered) node: no report at all.
                continue;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(
                self.seed,
                &[TAG_ROUND, round, reporter.node.0 as u64],
            ));
            if self.attacks_in_round(reporter, active, round) {
                // §7.1 attack, served: the adversary commits to ONE forged
                // location per victim (a consistent lie, drawn once from a
                // per-node seed) and re-runs the greedy taint against every
                // attacked round's heard neighbourhood. A quarantined
                // rotate-forgery attacker advances to a fresh forgery epoch
                // (a new seed path) per notice; epoch 0 keeps the original
                // seed path, so open-loop traffic is unchanged.
                let attack = self.attack.expect("active attacker implies attack config");
                let knowledge = network.knowledge();
                let epoch = self.forgery_epoch(reporter, round);
                let forge_seed = if epoch == 0 {
                    derive_seed(self.seed, &[TAG_FORGE, reporter.node.0 as u64])
                } else {
                    derive_seed(
                        self.seed,
                        &[TAG_FORGE, reporter.node.0 as u64, epoch as u64],
                    )
                };
                let mut forge_rng = ChaCha8Rng::seed_from_u64(forge_seed);
                let forged = displaced_location(
                    &mut forge_rng,
                    network.node(reporter.node).resident_point,
                    attack.degree_of_damage,
                    knowledge.config().area(),
                );
                Self::thin_into(&reporter.clean_observation, &mut rng, &mut heard);
                let budget = (attack.compromised_fraction * heard.total() as f64).round() as usize;
                knowledge.expected_observation_into(forged, &mut mu_scratch);
                let tainted = taint_observation(
                    attack.class,
                    attack.targeted_metric,
                    &heard,
                    &mu_scratch,
                    budget,
                    knowledge.group_size(),
                );
                report(reporter.node, &tainted, forged);
            } else {
                // Honest report: hear the neighbourhood through radio
                // loss, re-localize from what was heard.
                Self::thin_into(&reporter.clean_observation, &mut rng, &mut heard);
                let estimate = self
                    .localizer
                    .estimate(&self.knowledge, &heard)
                    .unwrap_or(reporter.fallback_estimate);
                report(reporter.node, &heard, estimate);
            }
        }
    }

    /// Generates one round of reports into reusable flat buffers: the
    /// reporting nodes (population order) and their `(sparse observation,
    /// estimate)` rows. `network` must be the network the model was built
    /// from (attacked reports re-run the §7.1 simulation against it). After warm-up the honest-traffic path performs no
    /// per-report allocation — this is what the serving loop submits via
    /// [`ServeRuntime::submit_rows`](crate::ServeRuntime::submit_rows).
    pub fn round_rows(
        &self,
        network: &Network,
        round: u64,
        nodes: &mut Vec<NodeId>,
        rows: &mut ObservationBatch,
    ) {
        nodes.clear();
        rows.reset(self.knowledge.group_count());
        self.for_each_report(network, round, |node, observation, estimate| {
            nodes.push(node);
            rows.push(observation, estimate);
        });
    }

    /// Radio loss: each observed neighbour survives the round independently
    /// with [`HEAR_PROB`]. Writes the heard counts into `out`.
    fn thin_into(observation: &Observation, rng: &mut ChaCha8Rng, out: &mut Observation) {
        for (slot, &c) in out.counts_mut().iter_mut().zip(observation.counts()) {
            *slot = (0..c)
                .filter(|_| rng.gen_range(0.0..1.0) < HEAR_PROB)
                .count() as u32;
        }
    }

    /// Convenience for calibration and offline evaluation: generates rounds
    /// `rounds`, scores every report for `metric` only (the engine's
    /// single-metric kernel, bit-identical to that column of the fused
    /// pass), and returns one per-node score stream per reporter, in
    /// population order — ready for `SequentialDetector::calibrate_*`.
    ///
    /// # Panics
    /// Panics when the engine does not score `metric`, or when revocation
    /// feedback has silenced part of the population (the streams are
    /// indexed by population order, which silencing would desynchronise —
    /// closed-loop replays must consume rounds directly).
    pub fn score_streams(
        &self,
        network: &Network,
        engine: &LadEngine,
        metric: MetricKind,
        rounds: Range<u64>,
    ) -> Vec<Vec<f64>> {
        assert!(
            self.silenced.is_empty(),
            "score_streams requires a model without revocation feedback"
        );
        let mut streams = vec![Vec::with_capacity(rounds.clone().count()); self.reporters.len()];
        let mut scores = Vec::new();
        let mut nodes = Vec::new();
        let mut rows = ObservationBatch::new(self.knowledge.group_count());
        for round in rounds {
            self.round_rows(network, round, &mut nodes, &mut rows);
            scores.resize(rows.len(), 0.0);
            engine.score_rows_seq_one_into(&rows, metric, &mut scores);
            for (stream, &score) in streams.iter_mut().zip(&scores) {
                stream.push(score);
            }
        }
        streams
    }
}

/// Per-round hear probability — the chance each true neighbour is heard in
/// a given round: light radio loss, enough to make clean score streams
/// fluctuate round to round.
pub const HEAR_PROB: f64 = 0.9;

#[cfg(test)]
mod tests {
    use super::*;
    use lad_attack::AttackClass;
    use lad_deployment::DeploymentConfig;
    use std::sync::Arc;

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

    fn attack(damage: f64) -> AttackConfig {
        AttackConfig {
            degree_of_damage: damage,
            compromised_fraction: 0.2,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        }
    }

    fn model(engine: &LadEngine, network: &Network) -> TrafficModel {
        let nodes: Vec<NodeId> = (0..40u32).map(|i| NodeId(i * 13)).collect();
        TrafficModel::clean(network, engine, nodes, 0xBEEF)
    }

    /// One round's reporting nodes and rows, via [`TrafficModel::round_rows`].
    fn round(
        model: &TrafficModel,
        network: &Network,
        round: u64,
    ) -> (Vec<NodeId>, ObservationBatch) {
        let mut nodes = Vec::new();
        let mut rows = ObservationBatch::default();
        model.round_rows(network, round, &mut nodes, &mut rows);
        (nodes, rows)
    }

    #[test]
    fn rounds_are_deterministic_and_vary_round_to_round() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 3);
        let model = model(&engine, &network);
        assert!(!model.nodes().is_empty());
        let a = round(&model, &network, 5);
        let b = round(&model, &network, 5);
        assert_eq!(a, b, "same round twice is bit-identical");
        let c = round(&model, &network, 6);
        assert_ne!(a, c, "radio loss varies between rounds");
    }

    #[test]
    fn onset_timeline_switches_the_compromised_set_only() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 4);
        let clean = model(&engine, &network);
        let attacked = clean.with_attack(AttackTimeline::Onset { at: 10 }, attack(150.0), 0.5);
        assert_eq!(attacked.onset(), Some(10));
        let population = attacked.nodes();
        assert!(attacked.compromised > 0);
        assert!(attacked.compromised < population.len());

        // Before onset nobody attacks; afterwards exactly the compromised
        // set does, and their estimates move (forged locations).
        assert!(population.iter().all(|&n| !attacked.is_attacked(n, 9)));
        let hostile: Vec<NodeId> = population
            .iter()
            .copied()
            .filter(|&n| attacked.is_attacked(n, 10))
            .collect();
        assert_eq!(hostile.len(), attacked.compromised);
        let pre = round(&attacked, &network, 9);
        let clean_round = round(&clean, &network, 9);
        assert_eq!(pre, clean_round, "pre-onset traffic is exactly clean");
        let (post_nodes, post) = round(&attacked, &network, 10);
        let (clean_nodes, clean_rows) = round(&clean, &network, 10);
        assert_eq!(post_nodes, clean_nodes);
        for (r, node) in clean_nodes.iter().enumerate() {
            if attacked.is_attacked(*node, 10) {
                assert_ne!(clean_rows.estimate(r), post.estimate(r), "forged location");
            } else {
                assert_eq!(clean_rows.row(r), post.row(r), "clean nodes are untouched");
                assert_eq!(clean_rows.estimate(r), post.estimate(r));
            }
        }
    }

    #[test]
    fn intermittent_and_ramp_timelines_modulate_the_active_set() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 5);
        let clean = model(&engine, &network);
        let burst = clean.with_attack(
            AttackTimeline::Intermittent {
                at: 4,
                period: 4,
                active: 2,
            },
            attack(120.0),
            0.4,
        );
        let node = burst
            .nodes()
            .into_iter()
            .find(|&n| burst.is_attacked(n, 4))
            .expect("someone attacks at onset");
        assert!(burst.is_attacked(node, 5), "second round of the burst");
        assert!(!burst.is_attacked(node, 6), "quiet part of the cycle");
        assert!(burst.is_attacked(node, 8), "next cycle");

        let ramp = clean.with_attack(
            AttackTimeline::Ramp { at: 0, full_at: 10 },
            attack(120.0),
            1.0,
        );
        let counts: Vec<usize> = (0..12)
            .map(|r| {
                ramp.nodes()
                    .iter()
                    .filter(|&&n| ramp.is_attacked(n, r))
                    .count()
            })
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "ramp is monotone");
        assert!(counts[0] > 0 && counts[0] < ramp.nodes().len());
        assert_eq!(counts[11], ramp.nodes().len(), "fully compromised");
    }

    #[test]
    fn score_streams_reflect_the_attack() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 6);
        let clean = model(&engine, &network);
        let attacked = clean.with_attack(AttackTimeline::Onset { at: 0 }, attack(200.0), 1.0);
        let clean_streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..6);
        let attacked_streams = attacked.score_streams(&network, &engine, MetricKind::Diff, 0..6);
        assert_eq!(clean_streams.len(), clean.nodes().len());
        let mean = |streams: &[Vec<f64>]| {
            let (sum, n) = streams
                .iter()
                .flatten()
                .fold((0.0, 0usize), |(s, n), &v| (s + v, n + 1));
            sum / n as f64
        };
        assert!(
            mean(&attacked_streams) > 2.0 * mean(&clean_streams),
            "a D=200 full compromise must dominate clean scores"
        );
    }

    #[test]
    fn ramp_active_count_edge_rounding() {
        let ramp = AttackTimeline::Ramp { at: 5, full_at: 9 };
        // Nobody attacks before the onset round.
        assert_eq!(ramp.active_count(4, 4), 0);
        // At round == at the first slice is already active: with span 4,
        // progress is 1/5, and ceil(4 * 1/5) = 1.
        assert_eq!(ramp.active_count(4, 5), 1);
        // Ceil rounding can saturate the set *before* full_at:
        // at round 8, progress is 4/5 and ceil(4 * 0.8) = 4.
        assert_eq!(ramp.active_count(4, 8), 4);
        // At round == full_at (and after) the whole set is active.
        assert_eq!(ramp.active_count(4, 9), 4);
        assert_eq!(ramp.active_count(4, 100), 4);
        // Monotone in the round.
        let counts: Vec<usize> = (0..12).map(|r| ramp.active_count(7, r)).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");

        // compromised == 0: always zero, at every edge.
        for round in [0, 5, 7, 9, 20] {
            assert_eq!(ramp.active_count(0, round), 0);
        }
        // compromised == 1: ceil activates the single node at round == at.
        assert_eq!(ramp.active_count(1, 4), 0);
        assert_eq!(ramp.active_count(1, 5), 1);
        assert_eq!(ramp.active_count(1, 9), 1);

        // Degenerate ramp (at == full_at): instant full compromise, i.e.
        // exactly an onset — the `round >= full_at` arm catches round == at.
        let instant = AttackTimeline::Ramp { at: 3, full_at: 3 };
        assert_eq!(instant.active_count(5, 2), 0);
        assert_eq!(instant.active_count(5, 3), 5);
        assert_eq!(instant.active_count(5, 4), 5);
    }

    #[test]
    fn revoked_nodes_fall_silent_and_keep_their_earliest_round() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 9);
        let mut traffic = model(&engine, &network).with_attack(
            AttackTimeline::Onset { at: 0 },
            attack(150.0),
            0.3,
        );
        let population = traffic.nodes();
        let victim = population[0];
        assert!(round(&traffic, &network, 3).0.contains(&victim));

        traffic.revoke_nodes(&[victim], 4);
        let (before, _) = round(&traffic, &network, 3);
        let (after, _) = round(&traffic, &network, 4);
        assert!(
            before.contains(&victim),
            "reports until the revocation round"
        );
        assert!(!after.contains(&victim), "silent from the revocation round");
        assert!(!traffic.is_attacked(victim, 10));
        assert!(!traffic.attacked_mask(10)[0]);

        // Re-revoking later does not resurrect the node.
        traffic.revoke_nodes(&[victim], 9);
        assert!(!round(&traffic, &network, 6).0.contains(&victim));

        // The other reporters are untouched, in population order.
        let expected: Vec<NodeId> = population
            .iter()
            .copied()
            .filter(|n| *n != victim)
            .collect();
        assert_eq!(after, expected);
    }

    #[test]
    fn rotate_forgery_changes_the_forged_location_after_a_notice() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 10);
        let base = model(&engine, &network).with_attack(
            AttackTimeline::Onset { at: 0 },
            attack(150.0),
            0.5,
        );
        let mut rotating = base.clone().with_evasion(Evasion::RotateForgery);
        let attacker = base
            .nodes()
            .into_iter()
            .find(|&n| base.is_attacked(n, 0))
            .expect("attackers exist");
        let forged_of = |traffic: &TrafficModel, r| {
            let (nodes, rows) = round(traffic, &network, r);
            let i = nodes.iter().position(|&n| n == attacker).unwrap();
            rows.estimate(i)
        };

        // Without a notice the evasion model is bit-identical to open loop.
        assert_eq!(round(&base, &network, 2), round(&rotating, &network, 2));
        let original = forged_of(&rotating, 2);
        rotating.notify_quarantine(&[attacker], 3);
        let rotated = forged_of(&rotating, 3);
        assert_ne!(original, rotated, "rotation abandons the burnt forgery");
        assert_eq!(
            round(&base, &network, 2),
            round(&rotating, &network, 2),
            "pre-notice rounds replay exactly as they were served"
        );
        assert_eq!(
            rotated,
            forged_of(&rotating, 5),
            "the rotated forgery is again consistent across rounds"
        );
        assert!(
            rotating.is_attacked(attacker, 4),
            "rotation never goes quiet"
        );

        // A second notice rotates again.
        rotating.notify_quarantine(&[attacker], 6);
        assert_ne!(forged_of(&rotating, 6), rotated);
    }

    #[test]
    fn go_intermittent_bursts_after_a_notice() {
        let engine = engine();
        let network = Network::generate(engine.knowledge().clone(), 11);
        let base = model(&engine, &network).with_attack(
            AttackTimeline::Onset { at: 0 },
            attack(150.0),
            0.5,
        );
        let mut bursty = base.clone().with_evasion(Evasion::GoIntermittent {
            period: 4,
            active: 1,
        });
        let attacker = base
            .nodes()
            .into_iter()
            .find(|&n| base.is_attacked(n, 0))
            .expect("attackers exist");
        assert!(bursty.is_attacked(attacker, 2), "attacks until notified");
        bursty.notify_quarantine(&[attacker], 8);
        let pattern: Vec<bool> = (8..16).map(|r| bursty.is_attacked(attacker, r)).collect();
        assert_eq!(
            pattern,
            [true, false, false, false, true, false, false, false],
            "one attacked round per cycle from the notice round"
        );
        // Honest rounds still produce a (clean) report.
        assert!(round(&bursty, &network, 9).0.contains(&attacker));
    }
}
