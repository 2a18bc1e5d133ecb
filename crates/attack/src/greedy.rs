//! Greedy metric-minimising adversaries (§7.1 of the paper).
//!
//! After forging the victim's location to `L_e`, the adversary taints the
//! victim's observation so the chosen detection metric is as small as
//! possible, hoping to stay below the detection threshold. The paper uses a
//! greedy procedure per (attack class × metric) combination; all six are
//! implemented here behind a single entry point, [`taint_observation`].
//!
//! Budget accounting follows the paper: every unit *decrease* of some `o_i`
//! consumes one compromised neighbour; increases are free under Dec-Bounded
//! (multi-impersonation / range-change) and impossible under Dec-Only.

use crate::classes::AttackClass;
use lad_core::MetricKind;
use lad_net::Observation;
use lad_stats::Binomial;

/// Produces the tainted observation that greedily minimises `metric` at the
/// forged location, starting from the clean observation `clean`, given the
/// expected observation `mu` at the forged location, a `budget` of
/// compromised neighbours and the per-group node count `group_size`.
///
/// The result always complies with `class` (see
/// [`AttackClass::complies`]).
pub fn taint_observation(
    class: AttackClass,
    metric: MetricKind,
    clean: &Observation,
    mu: &[f64],
    budget: usize,
    group_size: usize,
) -> Observation {
    assert_eq!(
        clean.group_count(),
        mu.len(),
        "observation/expectation length mismatch"
    );
    match metric {
        MetricKind::Diff => taint_diff(class, clean, mu, budget, group_size),
        MetricKind::AddAll => taint_addall(class, clean, mu, budget),
        MetricKind::Probability => taint_probability(class, clean, mu, budget, group_size),
    }
}

/// Greedy taint against the Diff metric `Σ |o_i − µ_i|`.
///
/// * Where `µ_i > a_i`, a Dec-Bounded attacker raises `o_i` to `round(µ_i)`
///   for free (multi-impersonation / range-change).
/// * Where `µ_i < a_i`, the attacker lowers `o_i` towards `µ_i`, spending one
///   compromised neighbour per unit, largest surpluses first.
fn taint_diff(
    class: AttackClass,
    clean: &Observation,
    mu: &[f64],
    budget: usize,
    group_size: usize,
) -> Observation {
    let mut tainted = clean.clone();
    if class.allows_increase() {
        for (i, &mui) in mu.iter().enumerate() {
            let target = mui.round().clamp(0.0, group_size as f64) as u32;
            if target > tainted.count(i) {
                tainted.set(i, target);
            }
        }
    }
    // Marginal gain of one silence on group i: how much |o_i − µ_i| shrinks.
    spend_decrements(&mut tainted, mu, budget, |count, mui| {
        (count as f64 - mui).abs() - ((count as f64 - 1.0) - mui).abs()
    });
    tainted
}

/// Greedy taint against the Add-all metric `Σ max(o_i, µ_i)`.
///
/// Increases can never lower the union, so (even for Dec-Bounded) the
/// attacker only spends its budget decreasing groups where `a_i > µ_i`.
fn taint_addall(
    _class: AttackClass,
    clean: &Observation,
    mu: &[f64],
    budget: usize,
) -> Observation {
    let mut tainted = clean.clone();
    // Marginal gain of one silence on group i: how much max(o_i, µ_i) shrinks.
    spend_decrements(&mut tainted, mu, budget, |count, mui| {
        (count as f64).max(mui) - ((count as f64) - 1.0).max(mui)
    });
    tainted
}

/// Greedy taint against the Probability metric `min_i Pr(X_i = o_i)`.
///
/// The most likely count for group `i` is the binomial mode; the attacker
/// moves each `o_i` towards that mode — for free when increasing (Dec-Bounded
/// only), spending budget on the currently least likely group when
/// decreasing.
fn taint_probability(
    class: AttackClass,
    clean: &Observation,
    mu: &[f64],
    budget: usize,
    group_size: usize,
) -> Observation {
    let m = group_size as f64;
    let binomials: Vec<Binomial> = mu
        .iter()
        .map(|&mui| Binomial::new(group_size as u64, (mui / m).clamp(0.0, 1.0)))
        .collect();
    let modes: Vec<u32> = binomials.iter().map(|b| b.mode() as u32).collect();

    let mut tainted = clean.clone();
    if class.allows_increase() {
        for (i, &mode) in modes.iter().enumerate() {
            if mode > tainted.count(i) {
                tainted.set(i, mode);
            }
        }
    }

    // Spend decrements one at a time on the group whose current count is the
    // least likely and still above its mode.
    let mut remaining = budget;
    while remaining > 0 {
        let mut worst: Option<(usize, f64)> = None;
        for i in 0..mu.len() {
            let count = tainted.count(i);
            if count > modes[i] {
                let p = binomials[i].pmf(count as u64);
                if worst.is_none_or(|(_, wp)| p < wp) {
                    worst = Some((i, p));
                }
            }
        }
        match worst {
            Some((i, _)) => {
                tainted.decrement(i);
                remaining -= 1;
            }
            None => break,
        }
    }
    tainted
}

/// Spends up to `budget` unit decrements (silence attacks), each time on the
/// group whose decrement yields the largest positive marginal gain according
/// to `gain(current_count, µ_i)`. Stops early once no decrement helps.
///
/// Because the per-group gain sequences of both the Diff and the Add-all
/// metric are non-increasing in the number of decrements already spent on
/// that group, this unit-wise greedy is exactly optimal for those metrics
/// (validated against the exhaustive adversary in `crate::exhaustive`).
fn spend_decrements<F>(obs: &mut Observation, mu: &[f64], budget: usize, gain: F)
where
    F: Fn(u32, f64) -> f64,
{
    for _ in 0..budget {
        let mut best: Option<(usize, f64)> = None;
        for (i, &mui) in mu.iter().enumerate() {
            let count = obs.count(i);
            if count == 0 {
                continue;
            }
            let g = gain(count, mui);
            if g > 1e-12 && best.is_none_or(|(_, bg)| g > bg) {
                best = Some((i, g));
            }
        }
        match best {
            Some((i, _)) => obs.decrement(i),
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const M: usize = 300;

    fn clean() -> Observation {
        Observation::from_counts(vec![12, 8, 0, 0, 3, 0])
    }

    fn mu_at_forged_location() -> Vec<f64> {
        // The forged location sees different groups than the true one.
        vec![1.0, 0.0, 10.0, 6.0, 2.0, 0.0]
    }

    #[test]
    fn diff_taint_reaches_mu_with_unlimited_budget() {
        let tainted = taint_observation(
            AttackClass::DecBounded,
            MetricKind::Diff,
            &clean(),
            &mu_at_forged_location(),
            1000,
            M,
        );
        let dm = MetricKind::Diff.score(&tainted, &mu_at_forged_location(), M);
        assert!(
            dm < 1.0,
            "unlimited budget should null the Diff metric, got {dm}"
        );
    }

    #[test]
    fn diff_taint_never_increases_the_metric() {
        for class in AttackClass::ALL {
            for budget in [0usize, 1, 3, 10] {
                let tainted = taint_observation(
                    class,
                    MetricKind::Diff,
                    &clean(),
                    &mu_at_forged_location(),
                    budget,
                    M,
                );
                let before = MetricKind::Diff.score(&clean(), &mu_at_forged_location(), M);
                let after = MetricKind::Diff.score(&tainted, &mu_at_forged_location(), M);
                assert!(
                    after <= before + 1e-9,
                    "{}: {after} > {before}",
                    class.name()
                );
                assert!(class.complies(&clean(), &tainted, budget, M));
            }
        }
    }

    #[test]
    fn dec_bounded_is_at_least_as_strong_as_dec_only() {
        for metric in MetricKind::ALL {
            let mu = mu_at_forged_location();
            let bounded = taint_observation(AttackClass::DecBounded, metric, &clean(), &mu, 5, M);
            let only = taint_observation(AttackClass::DecOnly, metric, &clean(), &mu, 5, M);
            let s_bounded = metric.score(&bounded, &mu, M);
            let s_only = metric.score(&only, &mu, M);
            assert!(
                s_bounded <= s_only + 1e-9,
                "{}: dec-bounded {s_bounded} should be <= dec-only {s_only}",
                metric.name()
            );
        }
    }

    #[test]
    fn larger_budgets_never_hurt_the_attacker() {
        for metric in MetricKind::ALL {
            let mu = mu_at_forged_location();
            let mut prev = f64::INFINITY;
            for budget in [0usize, 2, 5, 10, 50] {
                let tainted =
                    taint_observation(AttackClass::DecBounded, metric, &clean(), &mu, budget, M);
                let s = metric.score(&tainted, &mu, M);
                assert!(
                    s <= prev + 1e-9,
                    "{}: budget {budget} score {s} worse than smaller budget {prev}",
                    metric.name()
                );
                prev = s;
            }
        }
    }

    #[test]
    fn addall_taint_spends_budget_only_on_decreases() {
        let tainted = taint_observation(
            AttackClass::DecBounded,
            MetricKind::AddAll,
            &clean(),
            &mu_at_forged_location(),
            4,
            M,
        );
        // No group should have grown: growth cannot reduce the Add-all metric.
        for (i, &c) in tainted.counts().iter().enumerate() {
            assert!(c <= clean().count(i));
        }
        assert!(
            MetricKind::AddAll.score(&tainted, &mu_at_forged_location(), M)
                < MetricKind::AddAll.score(&clean(), &mu_at_forged_location(), M)
        );
    }

    #[test]
    fn probability_taint_raises_the_minimum_likelihood() {
        let mu = mu_at_forged_location();
        // The score is −ln of the minimum likelihood: lower is likelier.
        let before = MetricKind::Probability.score(&clean(), &mu, M);
        let tainted = taint_observation(
            AttackClass::DecBounded,
            MetricKind::Probability,
            &clean(),
            &mu,
            6,
            M,
        );
        let after = MetricKind::Probability.score(&tainted, &mu, M);
        assert!(after <= before, "attacker should raise the min likelihood");
        assert!(AttackClass::DecBounded.complies(&clean(), &tainted, 6, M));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_taints_always_comply_with_their_class(
            counts in proptest::collection::vec(0u32..40, 8),
            mu in proptest::collection::vec(0.0f64..40.0, 8),
            budget in 0usize..30,
        ) {
            let clean = Observation::from_counts(counts);
            for class in AttackClass::ALL {
                for metric in MetricKind::ALL {
                    let tainted = taint_observation(class, metric, &clean, &mu, budget, 100);
                    prop_assert!(
                        class.complies(&clean, &tainted, budget, 100),
                        "{} / {} violated its constraints", class.name(), metric.name()
                    );
                }
            }
        }

        #[test]
        fn prop_taint_never_worsens_the_targeted_metric(
            counts in proptest::collection::vec(0u32..40, 8),
            mu in proptest::collection::vec(0.0f64..40.0, 8),
            budget in 0usize..30,
        ) {
            let clean = Observation::from_counts(counts);
            for class in AttackClass::ALL {
                for metric in MetricKind::ALL {
                    let tainted = taint_observation(class, metric, &clean, &mu, budget, 100);
                    prop_assert!(
                        metric.score(&tainted, &mu, 100) <= metric.score(&clean, &mu, 100) + 1e-9,
                        "{} / {} made things worse for the attacker", class.name(), metric.name()
                    );
                }
            }
        }
    }
}
