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
//!
//! `g_i(θ)` comes from the detector's own µ program at `m = 1`
//! ([`DeploymentKnowledge::support_g_into`]), which fills only the g(z)
//! support: the groups within `z_max` of θ, about a quarter of them at
//! paper scale. Every other group has `g = 0`, clamped to `1e-12`, so its
//! term needs no logarithm of its own.

use lad_deployment::{DeploymentKnowledge, SparseMu};
use lad_geometry::Point2;
use lad_net::Observation;
use serde::{Deserialize, Serialize};

/// The clamp on `g` that keeps both logarithms of the likelihood finite.
const G_FLOOR: f64 = 1e-12;

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
    /// dropped), with `g` filled over the support into `g_scratch`.
    ///
    /// Support groups take the per-group formula. Every other group has
    /// `g = 0`, clamped to [`G_FLOOR`], so its term is
    /// `o·ln(G_FLOOR) + (m − o)·ln(1 − G_FLOOR)` with the two logarithms
    /// hoisted: the same expression, hence the same bits. The sum runs over
    /// all `n` groups in index order, merging with the sorted support, so
    /// every addition is the one the per-group formula makes. The pattern
    /// search evaluates this hundreds of times per estimate, so it
    /// dominates localization cost.
    fn log_likelihood(
        knowledge: &DeploymentKnowledge,
        obs: &Observation,
        theta: Point2,
        g_scratch: &mut SparseMu,
    ) -> f64 {
        knowledge.support_g_into(theta, g_scratch);
        let m = knowledge.group_size() as f64;
        let (ln_floor, ln_ceil) = (G_FLOOR.ln(), (1.0 - G_FLOOR).ln());
        let tail = |o: u32| {
            let oi = o as f64;
            oi * ln_floor + (m - oi) * ln_ceil
        };
        let counts = obs.counts();
        debug_assert_eq!(counts.len(), knowledge.group_count());
        let mut ll = 0.0;
        let mut next = 0;
        for (group, g) in g_scratch.view().iter() {
            let group = group as usize;
            for &o in &counts[next..group] {
                ll += tail(o);
            }
            let g = g.clamp(G_FLOOR, 1.0 - G_FLOOR);
            let oi = counts[group] as f64;
            ll += oi * g.ln() + (m - oi) * (1.0 - g).ln();
            next = group + 1;
        }
        for &o in &counts[next..] {
            ll += tail(o);
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
        let mut g_scratch = SparseMu::new();
        self.search(knowledge, obs, |theta| {
            Self::log_likelihood(knowledge, obs, theta, &mut g_scratch)
        })
    }

    /// The pattern search of [`Self::estimate`], maximising `log_likelihood`
    /// from the weighted centroid.
    fn search(
        &self,
        knowledge: &DeploymentKnowledge,
        obs: &Observation,
        mut log_likelihood: impl FnMut(Point2) -> f64,
    ) -> Option<Point2> {
        let mut current = Self::weighted_centroid(knowledge, obs)?;
        let mut best_ll = log_likelihood(current);
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
                let ll = log_likelihood(cand);
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
    use proptest::prelude::*;
    use rayon::prelude::*;
    use std::sync::OnceLock;

    /// The per-group likelihood with `g` from a brute O(n) scan: the table
    /// read at every deployment point's distance, skipped (`g = 0`) past
    /// `z_max`. It shares neither the support index nor the lane map with
    /// [`BeaconlessMle::log_likelihood`].
    fn oracle_log_likelihood(
        knowledge: &DeploymentKnowledge,
        obs: &Observation,
        theta: Point2,
    ) -> f64 {
        let m = knowledge.group_size() as f64;
        let z_max = knowledge.support_radius();
        let mut ll = 0.0;
        for (dp, &o) in knowledge
            .layout()
            .deployment_points()
            .iter()
            .zip(obs.counts())
        {
            let d_sq = dp.distance_squared(theta);
            let g = if d_sq >= z_max * z_max {
                0.0
            } else {
                knowledge.gz_table().eval(d_sq.sqrt())
            };
            let g = g.clamp(1e-12, 1.0 - 1e-12);
            let oi = o as f64;
            ll += oi * g.ln() + (m - oi) * (1.0 - g).ln();
        }
        ll
    }

    fn paper_knowledge() -> &'static DeploymentKnowledge {
        static KNOWLEDGE: OnceLock<DeploymentKnowledge> = OnceLock::new();
        KNOWLEDGE
            .get_or_init(|| DeploymentKnowledge::from_config(&DeploymentConfig::paper_default()))
    }

    /// A point `z_max` from `group`'s deployment point along one axis,
    /// moved by `ulps − 1` units in the last place of that coordinate
    /// (`ulps` in `0..3`: just inside, on, or just outside the support).
    fn support_edge(knowledge: &DeploymentKnowledge, group: usize, axis: u8, ulps: u64) -> Point2 {
        let dp = knowledge.layout().deployment_point(group);
        let z = if axis.is_multiple_of(2) {
            knowledge.support_radius()
        } else {
            -knowledge.support_radius()
        };
        let nudge = |v: f64| f64::from_bits((v.to_bits() + ulps).wrapping_sub(1));
        if axis < 2 {
            Point2::new(nudge(dp.x + z), dp.y)
        } else {
            Point2::new(dp.x, nudge(dp.y + z))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_log_likelihood_is_the_per_group_formula_bit_for_bit(
            counts in proptest::collection::vec(0u32..301, 100),
            sparsity in 0u32..4,
            x in -300.0f64..1300.0,
            y in -300.0f64..1300.0,
            group in 0usize..100,
            axis in 0u8..4,
            ulps in 0u64..3,
        ) {
            let k = paper_knowledge();
            // Zero most counts for some cases, as a real neighbourhood does.
            let counts: Vec<u32> = counts
                .iter()
                .enumerate()
                .map(|(i, &c)| if (i as u32) % 4 < sparsity { 0 } else { c })
                .collect();
            let obs = Observation::from_counts(counts);
            let mut g = SparseMu::new();
            for theta in [Point2::new(x, y), support_edge(k, group, axis, ulps)] {
                let got = BeaconlessMle::log_likelihood(k, &obs, theta, &mut g);
                let want = oracle_log_likelihood(k, &obs, theta);
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
            let loc = BeaconlessMle::new();
            let oracle = loc.search(k, &obs, |theta| oracle_log_likelihood(k, &obs, theta));
            let bits = |p: Option<Point2>| p.map(|p| (p.x.to_bits(), p.y.to_bits()));
            prop_assert_eq!(bits(loc.estimate(k, &obs)), bits(oracle));
        }
    }

    #[test]
    fn paper_scale_estimates_are_pinned() {
        // FNV-1a over the estimate bits of every 500th node of a
        // `paper_default` network, where most groups fall outside the
        // support of each likelihood evaluation.
        let net = Network::generate(
            DeploymentKnowledge::shared(&DeploymentConfig::paper_default()),
            7,
        );
        let loc = BeaconlessMle::new();
        let estimates: Vec<Option<Point2>> = (0..net.node_count() as u32)
            .step_by(500)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&i| loc.estimate(net.knowledge(), &net.true_observation(NodeId(i))))
            .collect();
        let digest = estimates
            .iter()
            .flat_map(|e| match e {
                Some(p) => [p.x.to_bits(), p.y.to_bits()],
                None => [u64::MAX; 2],
            })
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!((digest, estimates.len()), (0xe9b8_040f_094f_391f, 60));
    }

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
        let mut g = SparseMu::new();
        let at_truth = BeaconlessMle::log_likelihood(net.knowledge(), &obs, truth, &mut g);
        let far = Point2::new(truth.x + 200.0, truth.y);
        let at_far = BeaconlessMle::log_likelihood(net.knowledge(), &obs, far, &mut g);
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
