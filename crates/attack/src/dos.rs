//! Denial-of-service attacks against LAD itself (§6.3 of the paper).
//!
//! Instead of hiding a localization attack, the adversary can try to make an
//! *honest* node raise false alarms, so the node stops trusting its (correct)
//! location. Here the adversary's goal is the opposite of [`crate::greedy`]:
//! **maximise** the detection metric at the node's true location.
//!
//! The capabilities are the same: under Dec-Bounded the adversary can inject
//! arbitrarily many forged claims (each forged message inflates one group
//! count by one) and silence up to `x` compromised neighbours; under Dec-Only
//! only the silencing remains.

use crate::classes::AttackClass;
use lad_core::MetricKind;
use lad_net::Observation;

/// Produces the observation an adversary would force on an *honest* victim in
/// order to maximise the detection metric at the victim's true location.
///
/// * `mu` is the expected observation at the victim's (correct) estimate.
/// * `silence_budget` is the number of compromised neighbours available for
///   silencing (unit decrements).
/// * `forged_messages` is the number of forged hello messages injected
///   (unit increments; only possible under Dec-Bounded).
/// * `group_size` caps every count at `m`.
pub fn dos_taint(
    class: AttackClass,
    metric: MetricKind,
    clean: &Observation,
    mu: &[f64],
    silence_budget: usize,
    forged_messages: usize,
    group_size: usize,
) -> Observation {
    assert_eq!(
        clean.group_count(),
        mu.len(),
        "observation/expectation length mismatch"
    );
    let mut tainted = clean.clone();

    // Silencing: remove neighbours from the groups the victim is *expected*
    // to see (largest µ first) — every removal increases the mismatch.
    let mut order: Vec<usize> = (0..mu.len()).collect();
    order.sort_by(|&a, &b| mu[b].partial_cmp(&mu[a]).unwrap());
    let mut remaining = silence_budget;
    'silence: for &g in &order {
        while tainted.count(g) > 0 && remaining > 0 {
            tainted.decrement(g);
            remaining -= 1;
            if remaining == 0 {
                break 'silence;
            }
        }
    }

    // Forged messages (Dec-Bounded only): inflate the groups the victim is
    // expected NOT to see (smallest µ first). For the probability metric a
    // single wildly unlikely group already minimises the likelihood, but
    // spreading messages across the least-expected groups is a good greedy
    // for all three metrics.
    if class.allows_increase() && forged_messages > 0 {
        let mut inv_order: Vec<usize> = (0..mu.len()).collect();
        inv_order.sort_by(|&a, &b| mu[a].partial_cmp(&mu[b]).unwrap());
        let mut remaining = forged_messages;
        let _ = metric; // the greedy is metric-agnostic; kept for API symmetry
        'forge: loop {
            let mut progressed = false;
            for &g in &inv_order {
                if remaining == 0 {
                    break 'forge;
                }
                if (tainted.count(g) as usize) < group_size {
                    tainted.increment(g);
                    remaining -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    tainted
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: usize = 300;

    fn clean() -> Observation {
        Observation::from_counts(vec![10, 7, 2, 0, 0])
    }

    fn mu() -> Vec<f64> {
        vec![9.0, 8.0, 2.5, 0.2, 0.0]
    }

    #[test]
    fn dos_increases_every_metric_under_dec_bounded() {
        for metric in MetricKind::ALL {
            let before = metric.score(&clean(), &mu(), M);
            let tainted = dos_taint(AttackClass::DecBounded, metric, &clean(), &mu(), 5, 30, M);
            let after = metric.score(&tainted, &mu(), M);
            assert!(
                after > before,
                "{}: DoS should raise the score",
                metric.name()
            );
            assert!(AttackClass::DecBounded.complies(&clean(), &tainted, 5, M));
        }
    }

    #[test]
    fn dec_only_dos_is_limited_to_silencing() {
        let tainted = dos_taint(
            AttackClass::DecOnly,
            MetricKind::Diff,
            &clean(),
            &mu(),
            3,
            50,
            M,
        );
        // No count may grow and at most 3 units may disappear.
        for (i, &c) in tainted.counts().iter().enumerate() {
            assert!(c <= clean().count(i));
        }
        assert!(clean().decrease_cost(&tainted) <= 3);
        assert!(AttackClass::DecOnly.complies(&clean(), &tainted, 3, M));
    }

    #[test]
    fn more_forged_messages_do_more_damage() {
        let metric = MetricKind::Diff;
        let few = dos_taint(
            AttackClass::DecBounded,
            MetricKind::Diff,
            &clean(),
            &mu(),
            0,
            5,
            M,
        );
        let many = dos_taint(
            AttackClass::DecBounded,
            MetricKind::Diff,
            &clean(),
            &mu(),
            0,
            50,
            M,
        );
        assert!(metric.score(&many, &mu(), M) > metric.score(&few, &mu(), M));
    }

    #[test]
    fn counts_never_exceed_group_size() {
        let tainted = dos_taint(
            AttackClass::DecBounded,
            MetricKind::AddAll,
            &clean(),
            &mu(),
            0,
            10_000,
            20,
        );
        assert!(tainted.counts().iter().all(|&c| c <= 20));
    }
}
