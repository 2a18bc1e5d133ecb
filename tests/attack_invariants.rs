//! Cross-crate invariants of the attack framework, checked on real simulated
//! networks (the unit tests in `lad-attack` check them on synthetic vectors).

use lad::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_network(seed: u64) -> (std::sync::Arc<DeploymentKnowledge>, Network) {
    let config = DeploymentConfig::small_test();
    let knowledge = DeploymentKnowledge::shared(&config);
    let network = Network::generate(knowledge.clone(), seed);
    (knowledge, network)
}

#[test]
fn simulated_attacks_always_respect_their_class_constraints() {
    let (knowledge, network) = small_network(11);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for class in AttackClass::ALL {
        for metric in MetricKind::ALL {
            for &damage in &[40.0, 120.0] {
                for &fraction in &[0.0, 0.1, 0.5] {
                    let attack = AttackConfig {
                        degree_of_damage: damage,
                        compromised_fraction: fraction,
                        class,
                        targeted_metric: metric,
                    };
                    for victim_idx in [0u32, 333, 777] {
                        let outcome =
                            simulate_attack(&network, NodeId(victim_idx), &attack, &mut rng);
                        assert!(
                            class.complies(
                                &outcome.clean_observation,
                                &outcome.tainted_observation,
                                outcome.compromised_neighbors,
                                knowledge.group_size()
                            ),
                            "violation: class={} metric={:?} D={damage} x={fraction}",
                            class.name(),
                            metric
                        );
                        assert!(outcome.localization_error() <= damage + 1e-9);
                    }
                }
            }
        }
    }
}

#[test]
fn greedy_taint_is_at_least_as_good_as_no_taint_for_the_attacker() {
    let (knowledge, network) = small_network(12);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let attack_base = AttackConfig::paper_default(120.0);
    for metric in MetricKind::ALL {
        let attack = AttackConfig {
            targeted_metric: metric,
            ..attack_base
        };
        for victim_idx in [10u32, 200, 450] {
            let outcome = simulate_attack(&network, NodeId(victim_idx), &attack, &mut rng);
            let mu = knowledge.expected_observation(outcome.forged_location);
            let tainted_score =
                metric.score(&outcome.tainted_observation, &mu, knowledge.group_size());
            let clean_score = metric.score(&outcome.clean_observation, &mu, knowledge.group_size());
            assert!(
                tainted_score <= clean_score + 1e-9,
                "greedy taint made the attacker worse off for {:?}",
                metric
            );
        }
    }
}

#[test]
fn dec_bounded_attacks_score_no_higher_than_dec_only_attacks() {
    // The Dec-Bounded adversary is strictly more capable, so the score it
    // achieves (lower = stealthier) can only be at most the Dec-Only score
    // when both target the same metric/victim/forged location.
    let (knowledge, network) = small_network(13);
    let metric = MetricKind::Diff;
    for victim_idx in [5u32, 100, 600] {
        // Use the same RNG seed for both classes so they forge the same L_e.
        let outcome_of = |class: AttackClass| {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + victim_idx as u64);
            let attack = AttackConfig {
                degree_of_damage: 100.0,
                compromised_fraction: 0.2,
                class,
                targeted_metric: metric,
            };
            simulate_attack(&network, NodeId(victim_idx), &attack, &mut rng)
        };
        let bounded = outcome_of(AttackClass::DecBounded);
        let only = outcome_of(AttackClass::DecOnly);
        assert_eq!(bounded.forged_location, only.forged_location);
        let mu = knowledge.expected_observation(bounded.forged_location);
        let s_bounded = metric.score(&bounded.tainted_observation, &mu, knowledge.group_size());
        let s_only = metric.score(&only.tainted_observation, &mu, knowledge.group_size());
        assert!(s_bounded <= s_only + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn prop_taint_complies_for_arbitrary_parameters(
        victim in 0u32..960,
        damage in 0.0f64..250.0,
        fraction in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let (knowledge, network) = small_network(14);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let attack = AttackConfig {
            degree_of_damage: damage,
            compromised_fraction: fraction,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        };
        let outcome = simulate_attack(&network, NodeId(victim), &attack, &mut rng);
        prop_assert!(AttackClass::DecBounded.complies(
            &outcome.clean_observation,
            &outcome.tainted_observation,
            outcome.compromised_neighbors,
            knowledge.group_size()
        ));
        prop_assert!(outcome.localization_error() <= damage + 1e-9);
    }
}
