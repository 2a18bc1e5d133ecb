//! An exhaustive (provably optimal) adversary for small instances.
//!
//! The paper's evaluation uses greedy taint procedures ([`crate::greedy`])
//! because the real observation vectors are large. For small instances the
//! optimum can be found by brute force, which gives us two things:
//!
//! * a validation target — the greedy adversary should match the optimum for
//!   the Diff and Add-all metrics under Dec-Only attacks (where the problem
//!   is separable), and stay close elsewhere;
//! * a guarantee that reported detection rates are not inflated by an
//!   accidentally weak adversary.
//!
//! Complexity is exponential in the budget and the number of groups, so this
//! module is only meant for tests and for the adversary-strength ablation on
//! toy instances.

use crate::classes::AttackClass;
use lad_core::MetricKind;
use lad_net::Observation;

/// The minimum metric score achievable by an attacker of class `class` with
/// `budget` compromised neighbours, found by exhaustive search.
///
/// For [`AttackClass::DecOnly`] the search enumerates every way of spending
/// at most `budget` unit decrements. For [`AttackClass::DecBounded`] each
/// group may additionally be *increased* to any value up to
/// `max(a_i, ceil(µ_i) + slack)` — increases beyond the expected observation
/// can never help any of the three metrics, so a small slack (2) keeps the
/// search exact while staying finite.
///
/// Panics when the instance is too large to enumerate (guarding against
/// accidental use on real observation vectors).
pub fn optimal_taint_score(
    class: AttackClass,
    metric: MetricKind,
    clean: &Observation,
    mu: &[f64],
    budget: usize,
    group_size: usize,
) -> f64 {
    assert_eq!(clean.group_count(), mu.len());
    assert!(
        clean.group_count() <= 6,
        "exhaustive search limited to <= 6 groups"
    );
    assert!(budget <= 6, "exhaustive search limited to budgets <= 6");
    assert!(
        clean.counts().iter().all(|&c| c <= 12),
        "exhaustive search limited to small per-group counts"
    );

    let n = clean.group_count();

    // Candidate values per group.
    let candidates: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            let a = clean.count(i);
            let upper = if class.allows_increase() {
                // Increasing past ceil(mu) + 2 can never lower any metric.
                a.max((mu[i].ceil() as u32 + 2).min(group_size as u32))
            } else {
                a
            };
            (0..=upper).collect()
        })
        .collect();

    let mut best = f64::INFINITY;
    let mut current = clean.clone();
    search(
        0,
        &candidates,
        clean,
        mu,
        budget as u64,
        group_size,
        &mut current,
        metric,
        &mut best,
    );
    best
}

#[allow(clippy::too_many_arguments)]
fn search(
    group: usize,
    candidates: &[Vec<u32>],
    clean: &Observation,
    mu: &[f64],
    budget: u64,
    group_size: usize,
    current: &mut Observation,
    metric: MetricKind,
    best: &mut f64,
) {
    if group == candidates.len() {
        let decrease = clean.decrease_cost(current);
        if decrease <= budget {
            let score = metric.score(current, mu, group_size);
            if score < *best {
                *best = score;
            }
        }
        return;
    }
    // Prune: if the decrease spent so far already exceeds the budget, stop.
    let spent: u64 = (0..group)
        .map(|i| (clean.count(i) as i64 - current.count(i) as i64).max(0) as u64)
        .sum();
    if spent > budget {
        return;
    }
    for &value in &candidates[group] {
        current.set(group, value);
        search(
            group + 1,
            candidates,
            clean,
            mu,
            budget,
            group_size,
            current,
            metric,
            best,
        );
    }
    current.set(group, clean.count(group));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::taint_observation;
    use proptest::prelude::*;

    const M: usize = 40;

    fn greedy_score(
        class: AttackClass,
        metric: MetricKind,
        clean: &Observation,
        mu: &[f64],
        budget: usize,
    ) -> f64 {
        let tainted = taint_observation(class, metric, clean, mu, budget, M);
        metric.score(&tainted, mu, M)
    }

    #[test]
    fn greedy_diff_matches_optimum_on_a_hand_example() {
        let clean = Observation::from_counts(vec![6, 0, 3, 1]);
        let mu = vec![1.0, 4.0, 3.0, 0.0];
        for class in AttackClass::ALL {
            for budget in [0usize, 2, 5] {
                let optimal = optimal_taint_score(class, MetricKind::Diff, &clean, &mu, budget, M);
                let greedy = greedy_score(class, MetricKind::Diff, &clean, &mu, budget);
                assert!(
                    greedy <= optimal + 1e-9,
                    "{} budget {budget}: greedy {greedy} vs optimal {optimal}",
                    class.name()
                );
            }
        }
    }

    #[test]
    fn greedy_addall_matches_optimum_under_dec_only() {
        let clean = Observation::from_counts(vec![5, 2, 0, 4]);
        let mu = vec![0.5, 2.0, 3.0, 1.0];
        for budget in [0usize, 1, 3, 6] {
            let optimal = optimal_taint_score(
                AttackClass::DecOnly,
                MetricKind::AddAll,
                &clean,
                &mu,
                budget,
                M,
            );
            let greedy = greedy_score(
                AttackClass::DecOnly,
                MetricKind::AddAll,
                &clean,
                &mu,
                budget,
            );
            assert!(
                (greedy - optimal).abs() < 1e-9,
                "budget {budget}: {greedy} vs {optimal}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn oversized_instances_are_rejected() {
        let clean = Observation::from_counts(vec![1; 10]);
        let mu = vec![1.0; 10];
        let _ = optimal_taint_score(AttackClass::DecOnly, MetricKind::Diff, &clean, &mu, 2, M);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_greedy_diff_and_addall_are_optimal(
            counts in proptest::collection::vec(0u32..8, 4),
            mu in proptest::collection::vec(0.0f64..8.0, 4),
            budget in 0usize..5,
        ) {
            let clean = Observation::from_counts(counts);
            for class in AttackClass::ALL {
                for metric in [MetricKind::Diff, MetricKind::AddAll] {
                    let optimal = optimal_taint_score(class, metric, &clean, &mu, budget, M);
                    let greedy = greedy_score(class, metric, &clean, &mu, budget);
                    // The greedy attacker must achieve the optimum (it can
                    // never beat it, since the optimum is exhaustive).
                    prop_assert!(greedy <= optimal + 1e-6,
                        "{} / {}: greedy {greedy} vs optimal {optimal}", class.name(), metric.name());
                    prop_assert!(greedy + 1e-6 >= optimal - 1e-6);
                }
            }
        }

        #[test]
        fn prop_greedy_probability_is_near_optimal(
            counts in proptest::collection::vec(0u32..6, 3),
            mu in proptest::collection::vec(0.0f64..6.0, 3),
            budget in 0usize..4,
        ) {
            let clean = Observation::from_counts(counts);
            let optimal = optimal_taint_score(
                AttackClass::DecBounded, MetricKind::Probability, &clean, &mu, budget, M);
            let greedy = greedy_score(
                AttackClass::DecBounded, MetricKind::Probability, &clean, &mu, budget);
            // The probability greedy is not provably optimal; require it to be
            // no more than 10% (in log space) above the exhaustive optimum.
            prop_assert!(greedy <= optimal * 1.10 + 0.5,
                "greedy {greedy} too far above optimal {optimal}");
        }
    }
}
