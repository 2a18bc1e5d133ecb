//! Threshold training on clean simulated deployments (§5.5 of the paper).
//!
//! The paper's training procedure:
//!
//! 1. generate a number of sensor networks from the deployment model,
//! 2. for a sample of nodes collect the observation `o`, the true location
//!    and the location `L_e` estimated by the chosen localization scheme,
//! 3. compute every detection metric for every sampled node,
//! 4. take the τ-percentile of each metric's empirical distribution as its
//!    detection threshold (`1 − τ` is the training false-positive rate).
//!
//! [`Trainer`] implements steps 1–3 (parallel over networks, deterministic in
//! the master seed); [`TrainedThresholds`] implements step 4 lazily so τ can
//! be swept without retraining.

use crate::metrics::{score_all_fused_sparse, MetricKind};
use crate::threshold::TrainedThresholds;
use lad_deployment::{DeploymentKnowledge, SparseMu};
use lad_localization::BeaconlessMle;
use lad_net::{Network, NodeId, ObservationBatch};
use lad_stats::seeds::derive_seed;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-thread training-sample scoring scratch: the sparse µ(L_e) fill
/// target and the one-row batch the sample's observation is copied into.
#[derive(Default)]
struct SampleScratch {
    mu: SparseMu,
    row: ObservationBatch,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<SampleScratch> =
        std::cell::RefCell::new(SampleScratch::default());
}

/// Parameters of the training procedure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Number of independent deployments (networks) to simulate.
    pub networks: usize,
    /// Number of nodes sampled per network.
    pub samples_per_network: usize,
    /// Master seed for the whole training run.
    pub seed: u64,
    /// Parameters of the beaconless-MLE localizer used to produce `L_e`.
    pub localizer: BeaconlessMle,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            networks: 4,
            samples_per_network: 250,
            seed: 0x1ad_5eed,
            localizer: BeaconlessMle::new(),
        }
    }
}

/// One clean training record: a node's observation, its true location, and
/// the location estimated by the localization scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSample {
    /// Scores for each metric, indexed like [`MetricKind::ALL`].
    pub scores: [f64; 3],
    /// The localization error `|L_e − L_a|` of this clean sample.
    pub localization_error: f64,
}

/// The trainer: simulates clean deployments and collects metric samples.
#[derive(Debug, Clone, Copy)]
pub struct Trainer {
    config: TrainingConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainingConfig) -> Self {
        Self { config }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// Collects the raw clean training samples (parallel over networks).
    pub fn collect_samples(&self, knowledge: &Arc<DeploymentKnowledge>) -> Vec<TrainingSample> {
        let cfg = self.config;
        (0..cfg.networks)
            .into_par_iter()
            .flat_map(|net_idx| {
                let net_seed = derive_seed(cfg.seed, &[net_idx as u64, 0]);
                let network = Network::generate(knowledge.clone(), net_seed);
                let mut rng =
                    ChaCha8Rng::seed_from_u64(derive_seed(cfg.seed, &[net_idx as u64, 1]));
                let ids: Vec<NodeId> = (0..cfg.samples_per_network)
                    .map(|_| NodeId(rng.gen_range(0..network.node_count() as u32)))
                    .collect();
                // Samples stay parallel within a network; each worker
                // thread reuses one scratch, so the per-sample scoring is a
                // row copy, a sparse µ fill and one fused pass with no
                // allocation.
                ids.into_par_iter()
                    .filter_map(|id| {
                        SCRATCH.with(|cell| {
                            sample_node(&network, id, &cfg.localizer, &mut cell.borrow_mut())
                        })
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Runs training and returns the per-metric clean score distributions.
    pub fn train(&self, knowledge: &Arc<DeploymentKnowledge>) -> TrainedThresholds {
        let samples = self.collect_samples(knowledge);
        let mut trained = TrainedThresholds::new();
        for (idx, kind) in MetricKind::ALL.into_iter().enumerate() {
            trained.insert(kind, samples.iter().map(|s| s.scores[idx]).collect());
        }
        trained
    }
}

fn sample_node(
    network: &Network,
    id: NodeId,
    localizer: &BeaconlessMle,
    scratch: &mut SampleScratch,
) -> Option<TrainingSample> {
    let knowledge = network.knowledge();
    let obs = network.true_observation(id);
    let estimate = localizer.estimate(knowledge, &obs)?;
    // The engine's scoring surface: the observation as a CSR row, µ(L_e)
    // over its sparse support, all three metrics in one fused pass —
    // bit-identical to the dense per-metric kernels.
    scratch.row.reset(knowledge.group_count());
    scratch.row.push(&obs, estimate);
    knowledge.expected_sparse_into(estimate, &mut scratch.mu);
    let scores = score_all_fused_sparse(scratch.row.row(0), scratch.mu.view());
    Some(TrainingSample {
        scores,
        localization_error: estimate.distance(network.node(id).resident_point),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::score_all_fused;
    use lad_deployment::DeploymentConfig;

    fn quick_trainer(seed: u64) -> Trainer {
        Trainer::new(TrainingConfig {
            networks: 2,
            samples_per_network: 60,
            seed,
            localizer: BeaconlessMle::new(),
        })
    }

    #[test]
    fn training_produces_samples_for_all_metrics() {
        let knowledge = DeploymentKnowledge::shared(&DeploymentConfig::small_test());
        let trained = quick_trainer(1).train(&knowledge);
        for kind in MetricKind::ALL {
            assert!(trained.sample_count(kind) > 80, "metric {}", kind.name());
            assert!(trained.threshold(kind, 0.99).is_some());
        }
    }

    #[test]
    fn training_is_deterministic_in_the_seed() {
        let knowledge = DeploymentKnowledge::shared(&DeploymentConfig::small_test());
        let a = quick_trainer(5).train(&knowledge);
        let b = quick_trainer(5).train(&knowledge);
        let c = quick_trainer(6).train(&knowledge);
        assert_eq!(a.scores(MetricKind::Diff), b.scores(MetricKind::Diff));
        assert_ne!(a.scores(MetricKind::Diff), c.scores(MetricKind::Diff));
    }

    #[test]
    fn clean_localization_errors_are_small() {
        let knowledge = DeploymentKnowledge::shared(&DeploymentConfig::small_test());
        let samples = quick_trainer(2).collect_samples(&knowledge);
        assert!(!samples.is_empty());
        let mean_err: f64 =
            samples.iter().map(|s| s.localization_error).sum::<f64>() / samples.len() as f64;
        assert!(mean_err < 60.0, "mean clean localization error {mean_err}");
    }

    #[test]
    fn sample_scores_are_bit_identical_to_the_dense_fused_oracle() {
        let knowledge = DeploymentKnowledge::shared(&DeploymentConfig::small_test());
        let localizer = BeaconlessMle::new();
        let mut scratch = SampleScratch::default();
        let mut checked = 0;
        for seed in [1, 2] {
            let network = Network::generate(knowledge.clone(), seed);
            for id in (0..network.node_count() as u32).step_by(3).map(NodeId) {
                let Some(sample) = sample_node(&network, id, &localizer, &mut scratch) else {
                    continue;
                };
                let obs = network.true_observation(id);
                let estimate = localizer.estimate(&knowledge, &obs).unwrap();
                let mu = knowledge.expected_observation(estimate);
                let dense = score_all_fused(&obs, &mu, knowledge.group_size());
                assert_eq!(
                    sample.scores.map(f64::to_bits),
                    dense.map(f64::to_bits),
                    "node {} of network {seed}",
                    id.0
                );
                checked += 1;
            }
        }
        assert!(checked > 100, "only {checked} samples checked");
    }

    /// FNV-1a of a trained `small_test` engine's artifact JSON, which
    /// carries every clean training score and every threshold. Any moved
    /// bit changes the digest.
    #[test]
    fn trained_artifact_digest_is_pinned() {
        let engine = crate::engine::LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .training(TrainingConfig {
                networks: 2,
                samples_per_network: 64,
                seed: 7,
                ..TrainingConfig::default()
            })
            .metrics(&MetricKind::ALL)
            .tau(0.99)
            .build()
            .unwrap();
        let json = engine.to_json();
        let digest = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((digest, json.len()), (0x4c87_9e2b_a438_4f99, 7524));
    }

    #[test]
    fn clean_scores_are_finite_and_nonnegative() {
        let knowledge = DeploymentKnowledge::shared(&DeploymentConfig::small_test());
        let samples = quick_trainer(3).collect_samples(&knowledge);
        for s in &samples {
            for v in s.scores {
                assert!(v.is_finite());
                assert!(v >= 0.0);
            }
        }
    }
}
