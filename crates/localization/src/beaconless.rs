//! The beaconless, deployment-knowledge localization scheme (paper reference
//! \[8\], Fang/Du/Ning) — the scheme the LAD evaluation runs on top of.
//!
//! A sensor hears the group ids of its neighbours and therefore knows its
//! observation `o = (o_1, …, o_n)`. Under the deployment model, `o_i` is
//! Binomial(m, g_i(θ)) when the sensor sits at θ, so the location can be
//! estimated by maximum likelihood:
//!
//! ```text
//! L_e = argmax_θ Σ_i [ o_i·ln g_i(θ) + (m − o_i)·ln(1 − g_i(θ)) ]
//! ```
//!
//! The implementation seeds the search at the observation-weighted centroid
//! of the deployment points and refines it with a shrinking pattern search —
//! cheap, derivative-free, and robust to the plateaus of the likelihood
//! surface.

use lad_deployment::DeploymentKnowledge;
use lad_geometry::Point2;
use lad_net::Observation;
use serde::{Deserialize, Serialize};

/// Maximum-likelihood beaconless localizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BeaconlessMle {
    /// Initial pattern-search step, metres.
    pub initial_step: f64,
    /// The search stops once the step shrinks below this, metres.
    pub min_step: f64,
    /// Safety cap on pattern-search iterations.
    pub max_iterations: usize,
}

impl Default for BeaconlessMle {
    fn default() -> Self {
        Self {
            initial_step: 64.0,
            min_step: 0.5,
            max_iterations: 200,
        }
    }
}

impl BeaconlessMle {
    /// Creates the localizer with default search parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Log-likelihood of observing `obs` at `theta` (additive constants
    /// dropped). Public so the evaluation harness can inspect likelihood
    /// surfaces.
    ///
    /// Streams `g_i(θ)` through [`DeploymentKnowledge::g_iter`] — whose
    /// squared-distance early-out skips the table lookup for groups beyond
    /// the g(z) tail, most groups at paper scale — instead of calling
    /// `g_i` per group; the yielded values (and hence the likelihood) are
    /// identical. The pattern search below evaluates this hundreds of
    /// times per estimate, so it dominates localization cost.
    pub fn log_likelihood(
        knowledge: &DeploymentKnowledge,
        obs: &Observation,
        theta: Point2,
    ) -> f64 {
        let m = knowledge.group_size() as f64;
        let mut ll = 0.0;
        for (g, &o) in knowledge.g_iter(theta).zip(obs.counts()) {
            let g = g.clamp(1e-12, 1.0 - 1e-12);
            let oi = o as f64;
            ll += oi * g.ln() + (m - oi) * (1.0 - g).ln();
        }
        ll
    }

    /// The observation-weighted centroid of the deployment points — the
    /// initial guess of the search. Returns `None` when the observation is
    /// empty (an isolated node has nothing to go on).
    pub fn weighted_centroid(knowledge: &DeploymentKnowledge, obs: &Observation) -> Option<Point2> {
        let total = obs.total();
        if total == 0 {
            return None;
        }
        let mut x = 0.0;
        let mut y = 0.0;
        for i in 0..knowledge.group_count() {
            let w = obs.count(i) as f64;
            if w > 0.0 {
                let dp = knowledge.layout().deployment_point(i);
                x += w * dp.x;
                y += w * dp.y;
            }
        }
        Some(Point2::new(x / total as f64, y / total as f64))
    }

    /// Estimates the location that maximises the likelihood of `obs`.
    pub fn estimate(&self, knowledge: &DeploymentKnowledge, obs: &Observation) -> Option<Point2> {
        let mut current = Self::weighted_centroid(knowledge, obs)?;
        let mut best_ll = Self::log_likelihood(knowledge, obs, current);
        let mut step = self.initial_step;
        let area = knowledge
            .config()
            .area()
            .expand(2.0 * knowledge.config().sigma);
        let mut iterations = 0;

        while step >= self.min_step && iterations < self.max_iterations {
            iterations += 1;
            let candidates = [
                Point2::new(current.x + step, current.y),
                Point2::new(current.x - step, current.y),
                Point2::new(current.x, current.y + step),
                Point2::new(current.x, current.y - step),
                Point2::new(current.x + step, current.y + step),
                Point2::new(current.x + step, current.y - step),
                Point2::new(current.x - step, current.y + step),
                Point2::new(current.x - step, current.y - step),
            ];
            let mut improved = false;
            for cand in candidates {
                if !area.contains(cand) {
                    continue;
                }
                let ll = Self::log_likelihood(knowledge, obs, cand);
                if ll > best_ll {
                    best_ll = ll;
                    current = cand;
                    improved = true;
                }
            }
            if !improved {
                step *= 0.5;
            }
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_deployment::DeploymentConfig;
    use lad_deployment::DeploymentKnowledge;
    use lad_net::{Network, NodeId};
    use rayon::prelude::*;

    fn network(seed: u64) -> Network {
        Network::generate(
            DeploymentKnowledge::shared(&DeploymentConfig::small_test()),
            seed,
        )
    }

    #[test]
    fn empty_observation_cannot_be_localized() {
        let knowledge = DeploymentKnowledge::from_config(&DeploymentConfig::small_test());
        let obs = Observation::zeros(knowledge.group_count());
        assert!(BeaconlessMle::new().estimate(&knowledge, &obs).is_none());
        assert!(BeaconlessMle::weighted_centroid(&knowledge, &obs).is_none());
    }

    #[test]
    fn likelihood_peaks_near_the_true_location() {
        let net = network(21);
        let node = NodeId(200);
        let truth = net.node(node).resident_point;
        let obs = net.true_observation(node);
        let at_truth = BeaconlessMle::log_likelihood(net.knowledge(), &obs, truth);
        let far = Point2::new(truth.x + 200.0, truth.y);
        let at_far = BeaconlessMle::log_likelihood(net.knowledge(), &obs, far);
        assert!(
            at_truth > at_far,
            "likelihood should prefer the true location"
        );
    }

    #[test]
    fn estimates_are_close_to_true_locations_on_average() {
        let net = network(22);
        let loc = BeaconlessMle::new();
        let sample: Vec<NodeId> = (0..120).map(|i| NodeId(i * 7)).collect();
        let errors: Vec<f64> = sample
            .par_iter()
            .filter_map(|&id| {
                let est = loc.estimate(net.knowledge(), &net.true_observation(id))?;
                Some(est.distance(net.node(id).resident_point))
            })
            .collect();
        assert!(errors.len() > 100, "most nodes should be localizable");
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        // With ~30 neighbours per node the MLE lands within a few tens of
        // metres — far smaller than the deployment cell (100 m).
        assert!(mean < 45.0, "mean localization error {mean}");
    }

    #[test]
    fn denser_networks_localize_more_accurately() {
        // The Figure-9 premise: accuracy improves with density m.
        let sparse_cfg = DeploymentConfig::small_test().with_group_size(30);
        let dense_cfg = DeploymentConfig::small_test().with_group_size(150);
        let loc = BeaconlessMle::new();
        let mean_error = |cfg: &DeploymentConfig, seed: u64| -> f64 {
            let net = Network::generate(DeploymentKnowledge::shared(cfg), seed);
            let step = (net.node_count() / 80).max(1) as u32;
            let ids: Vec<NodeId> = (0..80u32).map(|i| NodeId(i * step)).collect();
            let errs: Vec<f64> = ids
                .par_iter()
                .filter_map(|&id| {
                    let est = loc.estimate(net.knowledge(), &net.true_observation(id))?;
                    Some(est.distance(net.node(id).resident_point))
                })
                .collect();
            errs.iter().sum::<f64>() / errs.len().max(1) as f64
        };
        let sparse_err = mean_error(&sparse_cfg, 31);
        let dense_err = mean_error(&dense_cfg, 32);
        assert!(
            dense_err < sparse_err,
            "dense {dense_err} should beat sparse {sparse_err}"
        );
    }

    #[test]
    fn weighted_centroid_is_a_reasonable_seed() {
        let net = network(25);
        let node = NodeId(333);
        let obs = net.true_observation(node);
        if obs.total() == 0 {
            return;
        }
        let seed = BeaconlessMle::weighted_centroid(net.knowledge(), &obs).unwrap();
        let truth = net.node(node).resident_point;
        assert!(
            seed.distance(truth) < 200.0,
            "seed too far: {}",
            seed.distance(truth)
        );
    }
}
