//! The full §7.1 attack-simulation procedure.
//!
//! For a victim node `v`:
//!
//! 1. take `v`'s actual location and clean observation `a`,
//! 2. forge `v`'s estimated location `L_e` at distance `D` from the actual
//!    location (the D-anomaly),
//! 3. taint the observation with the greedy adversary for the targeted
//!    detection metric under the chosen attack class, with a compromise
//!    budget of `x · |neighbourhood|` nodes.
//!
//! The output carries everything the detector (and the evaluation harness)
//! needs.

use crate::classes::AttackClass;
use crate::danomaly::displaced_location;
use crate::greedy::taint_observation;
use lad_core::MetricKind;
use lad_deployment::SparseMu;
use lad_geometry::Point2;
use lad_net::{Network, NodeId, Observation};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of a simulated attack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Degree of damage `D`: the forged location is exactly this far from the
    /// victim's actual location (metres).
    pub degree_of_damage: f64,
    /// Fraction `x` of the victim's neighbours that are compromised
    /// (0.0 ..= 1.0).
    pub compromised_fraction: f64,
    /// The attack class (Dec-Bounded or Dec-Only).
    pub class: AttackClass,
    /// The detection metric the adversary optimises against.
    pub targeted_metric: MetricKind,
}

impl AttackConfig {
    /// The configuration used by most paper figures: Dec-Bounded attack
    /// against the Diff metric with `x = 10 %`.
    pub fn paper_default(degree_of_damage: f64) -> Self {
        Self {
            degree_of_damage,
            compromised_fraction: 0.10,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        }
    }
}

/// Everything produced by one simulated attack on one victim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// The victim node.
    pub victim: NodeId,
    /// The victim's actual location `L_a`.
    pub actual_location: Point2,
    /// The forged estimated location `L_e` (`|L_e − L_a| ≈ D`).
    pub forged_location: Point2,
    /// The victim's clean (untainted) observation `a`.
    pub clean_observation: Observation,
    /// The tainted observation `o` the victim actually sees.
    pub tainted_observation: Observation,
    /// Number of compromised neighbours the adversary had available.
    pub compromised_neighbors: usize,
}

impl AttackOutcome {
    /// The realised localization error `|L_e − L_a|`.
    pub fn localization_error(&self) -> f64 {
        self.actual_location.distance(self.forged_location)
    }
}

thread_local! {
    /// Per-thread µ(L_e) scratch for the greedy taint, sparse fill and
    /// dense copy (no allocation per simulated attack after a thread's
    /// first trial).
    static MU_SCRATCH: std::cell::RefCell<(SparseMu, Vec<f64>)> =
        std::cell::RefCell::new((SparseMu::new(), Vec::new()));
}

/// Runs the §7.1 attack-simulation procedure on `victim`.
pub fn simulate_attack<R: Rng + ?Sized>(
    network: &Network,
    victim: NodeId,
    config: &AttackConfig,
    rng: &mut R,
) -> AttackOutcome {
    assert!(
        (0.0..=1.0).contains(&config.compromised_fraction),
        "compromised fraction must be in [0, 1]"
    );
    let knowledge = network.knowledge();
    let actual = network.node(victim).resident_point;
    let clean = network.true_observation(victim);

    // Step 2: the D-anomaly — a forged location at distance D.
    let forged = displaced_location(
        rng,
        actual,
        config.degree_of_damage,
        knowledge.config().area(),
    );

    // Step 3: the greedy taint with budget x · |neighbourhood|. µ(L_e) is
    // computed into a per-thread scratch — Monte-Carlo harnesses call this
    // in tight per-victim loops, so the adversary model should not allocate
    // a fresh µ vector per trial.
    let budget = (config.compromised_fraction * clean.total() as f64).round() as usize;
    let tainted = MU_SCRATCH.with(|cell| {
        let (sparse, mu) = &mut *cell.borrow_mut();
        knowledge.expected_sparse_into(forged, sparse);
        sparse.to_dense_into(mu);
        taint_observation(
            config.class,
            config.targeted_metric,
            &clean,
            mu,
            budget,
            knowledge.group_size(),
        )
    });

    AttackOutcome {
        victim,
        actual_location: actual,
        forged_location: forged,
        clean_observation: clean,
        tainted_observation: tainted,
        compromised_neighbors: budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_deployment::{DeploymentConfig, DeploymentKnowledge};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn network(seed: u64) -> Network {
        Network::generate(
            DeploymentKnowledge::shared(&DeploymentConfig::small_test()),
            seed,
        )
    }

    #[test]
    fn outcome_satisfies_the_attack_definitions() {
        let net = network(61);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let cfg = AttackConfig::paper_default(120.0);
        for victim_idx in [5u32, 77, 300, 512] {
            let victim = NodeId(victim_idx);
            let outcome = simulate_attack(&net, victim, &cfg, &mut rng);
            // The forged location is (at most) D away; in the interior exactly D.
            assert!(outcome.localization_error() <= 120.0 + 1e-9);
            // The taint respects the Dec-Bounded constraints.
            assert!(cfg.class.complies(
                &outcome.clean_observation,
                &outcome.tainted_observation,
                outcome.compromised_neighbors,
                net.knowledge().group_size(),
            ));
            // Budget is x fraction of the neighbourhood size.
            let expected_budget =
                (0.10 * outcome.clean_observation.total() as f64).round() as usize;
            assert_eq!(outcome.compromised_neighbors, expected_budget);
        }
    }

    #[test]
    fn attacked_scores_exceed_clean_scores_for_large_d() {
        // Even after the greedy taint, a D = 160 anomaly should look far more
        // suspicious than the clean data at the true location — that is the
        // whole point of LAD.
        let net = network(62);
        let knowledge = net.knowledge();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let cfg = AttackConfig::paper_default(160.0);
        let metric = MetricKind::Diff;
        let mut attacked_higher = 0usize;
        let total = 40usize;
        for i in 0..total {
            let victim = NodeId((i * 17) as u32);
            let outcome = simulate_attack(&net, victim, &cfg, &mut rng);
            let mu_clean = knowledge.expected_observation(outcome.actual_location);
            let clean_score = metric.score(
                &outcome.clean_observation,
                &mu_clean,
                knowledge.group_size(),
            );
            let mu_forged = knowledge.expected_observation(outcome.forged_location);
            let attacked_score = metric.score(
                &outcome.tainted_observation,
                &mu_forged,
                knowledge.group_size(),
            );
            if attacked_score > clean_score {
                attacked_higher += 1;
            }
        }
        assert!(
            attacked_higher as f64 / total as f64 > 0.8,
            "attacked scores should usually exceed clean scores ({attacked_higher}/{total})"
        );
    }

    #[test]
    fn zero_compromise_means_untainted_decrease() {
        let net = network(63);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let cfg = AttackConfig {
            degree_of_damage: 80.0,
            compromised_fraction: 0.0,
            class: AttackClass::DecOnly,
            targeted_metric: MetricKind::Diff,
        };
        let outcome = simulate_attack(&net, NodeId(200), &cfg, &mut rng);
        // Dec-Only with zero budget cannot change the observation at all.
        assert_eq!(outcome.clean_observation, outcome.tainted_observation);
        assert_eq!(outcome.compromised_neighbors, 0);
    }

    #[test]
    fn simulation_is_deterministic_under_a_seeded_rng() {
        let net = network(64);
        let cfg = AttackConfig::paper_default(100.0);
        let mut rng_a = ChaCha8Rng::seed_from_u64(9);
        let mut rng_b = ChaCha8Rng::seed_from_u64(9);
        let a = simulate_attack(&net, NodeId(123), &cfg, &mut rng_a);
        let b = simulate_attack(&net, NodeId(123), &cfg, &mut rng_b);
        assert_eq!(a, b);
    }
}
