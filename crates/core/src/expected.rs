//! Helpers over expected observations (Equation 2 of the paper).
//!
//! `µ(L_e)` itself comes from [`lad_deployment::DeploymentKnowledge`]
//! (dense `expected_observation`, sparse `expected_sparse_into`); this
//! module holds the small helpers shared by the metrics and the adversary
//! models.

use lad_net::Observation;

/// Rounds an expected observation to integer counts (used by adversaries that
/// need to *produce* an integral observation close to `µ`).
pub fn rounded_expected(mu: &[f64]) -> Observation {
    Observation::from_counts(mu.iter().map(|&v| v.round().max(0.0) as u32).collect())
}

/// The L1 deviation `Σ |o_i − µ_i|` between an integer observation and an
/// expected (real-valued) observation — the Diff metric's core quantity.
pub fn l1_deviation(obs: &Observation, mu: &[f64]) -> f64 {
    // Hot loop: lengths are validated once per batch at the engine boundary
    // (and by `ObservationBatch::push`), not per score.
    debug_assert_eq!(
        obs.group_count(),
        mu.len(),
        "observation/expectation length mismatch"
    );
    obs.counts()
        .iter()
        .zip(mu)
        .map(|(&o, &m)| (o as f64 - m).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounded_expected_is_close_to_mu() {
        let mu = vec![0.2, 1.7, 3.5, 0.0];
        let obs = rounded_expected(&mu);
        assert_eq!(obs.counts(), &[0, 2, 4, 0]);
        assert!(l1_deviation(&obs, &mu) <= 0.5 * mu.len() as f64);
    }

    #[test]
    fn l1_deviation_zero_iff_exact_match() {
        let mu = vec![1.0, 2.0, 3.0];
        let obs = Observation::from_counts(vec![1, 2, 3]);
        assert_eq!(l1_deviation(&obs, &mu), 0.0);
        let other = Observation::from_counts(vec![0, 2, 5]);
        assert_eq!(l1_deviation(&other, &mu), 3.0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)] // length checks are debug-only in the hot loop
    fn mismatched_lengths_panic() {
        let _ = l1_deviation(&Observation::zeros(2), &[1.0, 2.0, 3.0]);
    }
}
