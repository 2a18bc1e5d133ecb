//! Evaluation presets.
//!
//! Each figure is a Monte-Carlo estimate over simulated deployments and
//! attacked victims; the presets trade statistical resolution for runtime.

use crate::scenario::{DeploymentAxis, SamplingPlan};
use lad_deployment::DeploymentConfig;
use serde::{Deserialize, Serialize};

/// Scale of an evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Deployment model parameters (area, grid, σ, m, R).
    pub deployment: DeploymentConfig,
    /// Number of independent deployments simulated per parameter point.
    pub networks: usize,
    /// Number of clean nodes sampled per deployment (they feed both threshold
    /// training and the false-positive axis).
    pub clean_samples_per_network: usize,
    /// Number of attacked victims sampled per deployment per parameter point.
    pub victims_per_network: usize,
    /// Master seed of the whole evaluation.
    pub seed: u64,
}

impl EvalConfig {
    /// Paper-scale evaluation: the §7.1 setup (10×10 groups of 300, σ = 50)
    /// with enough samples for smooth curves. Takes minutes on a laptop.
    pub fn paper() -> Self {
        Self {
            deployment: DeploymentConfig::paper_default(),
            networks: 4,
            clean_samples_per_network: 400,
            victims_per_network: 400,
            seed: 0x1ad_2005,
        }
    }

    /// Quick evaluation: same deployment geometry but fewer samples. Good for
    /// CI and for checking curve shapes in seconds.
    pub fn quick() -> Self {
        Self {
            deployment: DeploymentConfig::paper_default(),
            networks: 2,
            clean_samples_per_network: 120,
            victims_per_network: 120,
            seed: 0x1ad_2005,
        }
    }

    /// Tiny evaluation used by unit tests and Criterion benches: a 4×4-group
    /// deployment with small samples so a full figure runs in well under a
    /// second.
    pub fn bench() -> Self {
        Self {
            deployment: DeploymentConfig::small_test().with_group_size(80),
            networks: 1,
            clean_samples_per_network: 72,
            victims_per_network: 72,
            seed: 0x1ad_2005,
        }
    }

    /// Total number of attacked victims across all networks.
    pub fn total_victims(&self) -> usize {
        self.networks * self.victims_per_network
    }

    /// The config's sample counts and master seed as a scenario
    /// [`SamplingPlan`].
    pub fn sampling_plan(&self) -> SamplingPlan {
        SamplingPlan {
            networks: self.networks,
            clean_samples_per_network: self.clean_samples_per_network,
            victims_per_network: self.victims_per_network,
            seed: self.seed,
        }
    }

    /// The config's deployment as a matched-model scenario
    /// [`DeploymentAxis`] (beaconless-MLE localization).
    pub fn deployment_axis(&self, label: impl Into<String>) -> DeploymentAxis {
        DeploymentAxis::new(label, self.deployment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_cost() {
        let paper = EvalConfig::paper();
        let quick = EvalConfig::quick();
        let bench = EvalConfig::bench();
        let clean = |c: &EvalConfig| c.networks * c.clean_samples_per_network;
        assert!(clean(&paper) > clean(&quick));
        assert!(clean(&quick) > clean(&bench));
        assert_eq!(paper.deployment.group_size, 300);
        assert!(bench.deployment.total_nodes() < quick.deployment.total_nodes());
    }
}
