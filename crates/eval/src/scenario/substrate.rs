//! Per-deployment shared work: simulated networks and clean-score streams.
//!
//! Everything a scenario needs *once per deployment axis* — regardless of
//! how many attack cells its grid has — lives in a [`Substrate`]: the
//! simulated networks, a score-only [`LadEngine`] over the assumed
//! deployment model, and the clean score distribution of every metric,
//! streamed into [`ScoreAccumulator`]s. A [`SubstrateCache`] deduplicates
//! substrates across scenarios (e.g. fig4 through fig8 share one standard
//! deployment point, so its networks and clean scores are computed once per
//! process, not once per figure).

use crate::scenario::spec::{CellParams, DeploymentAxis, LocalizerChoice, SamplingPlan};
use lad_attack::{simulate_attack, AttackConfig};
use lad_core::engine::LadEngine;
use lad_core::MetricKind;
use lad_deployment::DeploymentKnowledge;
use lad_localization::{AnchorField, CentroidLocalizer, DvHopLocalizer, Localizer};
use lad_net::{Network, NodeId, ObservationBatch};
use lad_stats::seeds::derive_seed;
use lad_stats::{AccumulatorConfig, OnlineStats, ScoreAccumulator, Summary};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Samples `count` distinct node ids **without replacement** (the shared
/// [`seeded_partial_shuffle`](lad_stats::seeds::seeded_partial_shuffle)
/// primitive). Sampling with replacement would let the same node appear
/// several times in one Monte-Carlo batch, which silently correlates
/// "independent" trials on small networks; without replacement every
/// sampled victim is unique. When `count` exceeds the network size, every
/// node is returned (in shuffled order).
pub fn sample_node_ids(network: &Network, count: usize, seed: u64) -> Vec<NodeId> {
    let n = network.node_count();
    let count = count.min(n);
    let mut pool = lad_stats::seeds::seeded_partial_shuffle(n, count, seed);
    pool.truncate(count);
    pool.into_iter().map(NodeId).collect()
}

/// Seed-path tags (the first index of every derived seed), kept distinct so
/// streams never collide across purposes.
const TAG_NETWORK: u64 = 0xC1EA;
const TAG_CLEAN_IDS: u64 = 0x5A3D;
const TAG_ANCHORS: u64 = 0xA2C4;
const TAG_ATTACK: u64 = 0xA77A;

/// The once-per-deployment shared state of a scenario: simulated networks,
/// the assumed-model scoring engine, and streamed clean scores.
pub struct Substrate {
    axis: DeploymentAxis,
    sampling: SamplingPlan,
    accumulator: AccumulatorConfig,
    engine: Arc<LadEngine>,
    networks: Vec<Network>,
    clean: Vec<ScoreAccumulator>,
    clean_errors: Summary,
}

impl Substrate {
    /// Builds the substrate: generates the networks (under the axis's
    /// *actual* configuration) and streams the clean scores of every metric
    /// (scored under the *assumed* configuration) into accumulators.
    pub fn new(
        axis: &DeploymentAxis,
        sampling: &SamplingPlan,
        accumulator: AccumulatorConfig,
    ) -> Self {
        let engine = Arc::new(
            LadEngine::builder()
                .deployment(&axis.config)
                .metrics(&MetricKind::ALL)
                .score_only()
                .build()
                .expect("scenario deployment is valid"),
        );
        let actual = DeploymentKnowledge::shared(&axis.actual_config());
        let networks: Vec<Network> = (0..sampling.networks)
            .into_par_iter()
            .map(|i| {
                Network::generate(
                    actual.clone(),
                    derive_seed(sampling.seed, &[TAG_NETWORK, i as u64]),
                )
            })
            .collect();

        // Clean collection: one parallel pass per network, folded in network
        // order (streaming merges are order-deterministic, so results do not
        // depend on thread scheduling).
        let partials: Vec<(Vec<ScoreAccumulator>, OnlineStats)> = networks
            .par_iter()
            .enumerate()
            .map(|(net_idx, network)| {
                clean_partial(&engine, axis, sampling, accumulator, network, net_idx)
            })
            .collect();
        let mut clean: Vec<ScoreAccumulator> = MetricKind::ALL
            .iter()
            .map(|_| ScoreAccumulator::new(accumulator))
            .collect();
        let mut errors = OnlineStats::new();
        for (accs, errs) in partials {
            for (into, acc) in clean.iter_mut().zip(accs) {
                into.merge(acc);
            }
            errors.merge(&errs);
        }

        Self {
            axis: axis.clone(),
            sampling: *sampling,
            accumulator,
            engine,
            networks,
            clean,
            clean_errors: errors.summary(),
        }
    }

    /// The deployment axis this substrate realises.
    pub fn axis(&self) -> &DeploymentAxis {
        &self.axis
    }

    /// The sampling plan the substrate was built with.
    pub fn sampling(&self) -> &SamplingPlan {
        &self.sampling
    }

    /// The accumulator layout the clean scores were streamed into.
    pub fn accumulator(&self) -> AccumulatorConfig {
        self.accumulator
    }

    /// The score-only engine (all three metrics, assumed deployment model).
    pub fn engine(&self) -> &Arc<LadEngine> {
        &self.engine
    }

    /// The assumed deployment knowledge.
    pub fn knowledge(&self) -> &Arc<DeploymentKnowledge> {
        self.engine.knowledge()
    }

    /// The simulated networks.
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// The streamed clean score distribution of `metric`.
    pub fn clean(&self, metric: MetricKind) -> &ScoreAccumulator {
        let idx = self
            .engine
            .metric_index(metric)
            .expect("substrate engine scores all metrics");
        &self.clean[idx]
    }

    /// Summary of the clean localization errors `|L_e − L_a|` (baseline
    /// accuracy of the localization substrate on this axis).
    pub fn clean_error_summary(&self) -> Summary {
        self.clean_errors
    }

    /// Streams the attacked scores of one grid cell into an accumulator
    /// with layout `accumulator` (usually the spec's).
    ///
    /// Only `cell.metric` is scored. Trial seeds derive from `(master,
    /// network, D-bits, x-bits, mix, metric column)`; note
    /// `fraction.to_bits()` — deriving from a truncated `fraction * 1e6`
    /// would collide for nearby fractions.
    pub fn collect_attacked(
        &self,
        cell: &CellParams,
        accumulator: AccumulatorConfig,
    ) -> ScoreAccumulator {
        let column = self
            .engine
            .metric_index(cell.metric)
            .expect("substrate engine scores all metrics");
        let mut out = ScoreAccumulator::new(accumulator);
        let mut scores: Vec<f64> = Vec::new();
        let mut rows = ObservationBatch::new(self.knowledge().group_count());
        for (net_idx, network) in self.networks.iter().enumerate() {
            let point_seed = derive_seed(
                self.sampling.seed,
                &[
                    TAG_ATTACK,
                    net_idx as u64,
                    cell.damage.to_bits(),
                    cell.fraction.to_bits(),
                    cell.attack.seed_token(),
                    column as u64,
                ],
            );
            let ids = sample_node_ids(
                network,
                self.sampling.victims_per_network,
                derive_seed(point_seed, &[1]),
            );
            // One network's worth of trials: simulate (parallel), pack the
            // tainted observations into a flat CSR batch, score the cell's
            // metric into a reused buffer, stream. Buffers are bounded by
            // victims_per_network, not the cell's total sample count.
            let outcomes: Vec<_> = ids
                .into_par_iter()
                .enumerate()
                .map(|(k, victim)| {
                    let class = cell.attack.pick(derive_seed(point_seed, &[3, k as u64]));
                    let attack = AttackConfig {
                        degree_of_damage: cell.damage,
                        compromised_fraction: cell.fraction,
                        class,
                        targeted_metric: cell.metric,
                    };
                    let mut rng =
                        ChaCha8Rng::seed_from_u64(derive_seed(point_seed, &[2, k as u64]));
                    simulate_attack(network, victim, &attack, &mut rng)
                })
                .collect();
            rows.clear();
            for outcome in &outcomes {
                rows.push(&outcome.tainted_observation, outcome.forged_location);
            }
            scores.resize(rows.len(), 0.0);
            self.engine
                .score_rows_seq_one_into(&rows, cell.metric, &mut scores);
            out.extend(scores.iter().copied());
        }
        out
    }
}

/// Clean scores (per metric) and localization errors of one network.
fn clean_partial(
    engine: &LadEngine,
    axis: &DeploymentAxis,
    sampling: &SamplingPlan,
    accumulator: AccumulatorConfig,
    network: &Network,
    net_idx: usize,
) -> (Vec<ScoreAccumulator>, OnlineStats) {
    let ids = sample_node_ids(
        network,
        sampling.clean_samples_per_network,
        derive_seed(sampling.seed, &[TAG_CLEAN_IDS, net_idx as u64]),
    );

    // Beacon-based baselines need a per-network anchor field.
    let beacon_localizer: Option<Box<dyn Localizer>> = match axis.localizer {
        LocalizerChoice::BeaconlessMle => None,
        LocalizerChoice::Centroid { anchors } | LocalizerChoice::DvHop { anchors } => {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(
                sampling.seed,
                &[TAG_ANCHORS, net_idx as u64],
            ));
            let beacon_range = axis.config.area_side / 3.0;
            let field = AnchorField::random(network, anchors, beacon_range, &mut rng);
            Some(match axis.localizer {
                LocalizerChoice::Centroid { .. } => Box::new(CentroidLocalizer::new(field)),
                _ => Box::new(DvHopLocalizer::build(network, &field)),
            })
        }
    };

    let knowledge = engine.knowledge();
    let mut rows = ObservationBatch::new(knowledge.group_count());
    let mut errors = OnlineStats::new();
    for id in ids {
        let obs = network.true_observation(id);
        let estimate = match &beacon_localizer {
            // The engine's scheme sees only the assumed knowledge and the
            // observation — exactly what a deployed sensor holds.
            None => engine.localizer().estimate(knowledge, &obs),
            Some(localizer) => localizer.localize(network, id),
        };
        let Some(estimate) = estimate else { continue };
        errors.push(estimate.distance(network.node(id).resident_point));
        rows.push(&obs, estimate);
    }

    let mut scored = Vec::new();
    engine.score_rows_into(&rows, &mut scored);
    let mut accs: Vec<ScoreAccumulator> = MetricKind::ALL
        .iter()
        .map(|_| ScoreAccumulator::new(accumulator))
        .collect();
    for row in scored.chunks_exact(engine.metrics().len()) {
        for (acc, &score) in accs.iter_mut().zip(row) {
            acc.add(score);
        }
    }
    (accs, errors)
}

/// A process-wide cache of substrates, keyed by everything that determines
/// their content (axis minus its label, sampling plan, accumulator layout).
/// Scenarios that share a deployment point share its networks and clean
/// scores.
#[derive(Default)]
pub struct SubstrateCache {
    map: Mutex<HashMap<String, Arc<Substrate>>>,
}

impl SubstrateCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached substrate for `(axis, sampling, accumulator)`,
    /// building it on first use.
    pub fn substrate(
        &self,
        axis: &DeploymentAxis,
        sampling: &SamplingPlan,
        accumulator: AccumulatorConfig,
    ) -> Arc<Substrate> {
        let key = format!(
            "{}|{}|{}|{}|{}",
            serde_json::to_string(&axis.config).expect("config serialises"),
            serde_json::to_string(&axis.actual_sigma).expect("sigma serialises"),
            serde_json::to_string(&axis.localizer).expect("localizer serialises"),
            serde_json::to_string(sampling).expect("sampling serialises"),
            serde_json::to_string(&accumulator).expect("accumulator serialises"),
        );
        if let Some(found) = self.map.lock().expect("cache lock").get(&key) {
            return found.clone();
        }
        let built = Arc::new(Substrate::new(axis, sampling, accumulator));
        self.map
            .lock()
            .expect("cache lock")
            .entry(key)
            .or_insert(built)
            .clone()
    }

    /// Number of distinct substrates currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").len()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::scenario::spec::AttackMix;
    use lad_attack::AttackClass;

    fn exact_substrate() -> Substrate {
        let base = EvalConfig::bench();
        Substrate::new(
            &base.deployment_axis("bench"),
            &base.sampling_plan(),
            AccumulatorConfig::exact(),
        )
    }

    fn attacked(substrate: &Substrate, fraction: f64) -> Vec<f64> {
        let cell = CellParams {
            metric: MetricKind::Diff,
            attack: AttackMix::pure(AttackClass::DecBounded),
            damage: 120.0,
            fraction,
        };
        substrate
            .collect_attacked(&cell, AccumulatorConfig::exact())
            .into_exact_scores()
            .expect("exact layout never spills")
    }

    #[test]
    fn exact_clean_scores_cover_every_localized_sample() {
        let substrate = exact_substrate();
        for metric in MetricKind::ALL {
            let scores = substrate.clean(metric).exact_scores().expect("exact");
            assert!(!scores.is_empty());
            assert!(scores.iter().all(|s| s.is_finite() && *s >= 0.0));
            assert_eq!(scores.len(), substrate.clean_error_summary().count);
        }
    }

    #[test]
    fn collect_attacked_is_deterministic_and_yields_every_victim() {
        let a = attacked(&exact_substrate(), 0.1);
        let b = attacked(&exact_substrate(), 0.1);
        assert_eq!(a, b);
        assert_eq!(a.len(), EvalConfig::bench().total_victims());
    }

    #[test]
    fn nearby_fractions_use_distinct_seed_streams() {
        // Regression: seeds were once derived from `(fraction * 1e6) as u64`,
        // which collides for fractions closer than 1e-6; `to_bits` keeps the
        // streams distinct.
        let substrate = exact_substrate();
        assert_ne!(
            attacked(&substrate, 0.1),
            attacked(&substrate, 0.1 + 1e-9),
            "nearby fractions must not share trial seeds"
        );
    }

    #[test]
    fn victims_are_sampled_without_replacement() {
        let substrate = exact_substrate();
        let network = &substrate.networks()[0];
        let ids = sample_node_ids(network, network.node_count() / 2, 77);
        let mut seen = std::collections::HashSet::new();
        assert!(ids.iter().all(|id| seen.insert(*id)), "duplicates sampled");
        // Oversampling returns every node exactly once.
        let all = sample_node_ids(network, network.node_count() * 3, 77);
        assert_eq!(all.len(), network.node_count());
        let distinct: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), network.node_count());
    }
}
