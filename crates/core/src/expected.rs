//! Helpers over expected observations (Equation 2 of the paper).
//!
//! `µ(L_e)` itself comes from [`lad_deployment::DeploymentKnowledge`]
//! (dense `expected_observation`, sparse `expected_sparse_into`); this
//! module holds the helper the adversary models and tests share.

use lad_net::Observation;

/// Rounds an expected observation to integer counts (used by adversaries that
/// need to *produce* an integral observation close to `µ`).
pub fn rounded_expected(mu: &[f64]) -> Observation {
    Observation::from_counts(mu.iter().map(|&v| v.round().max(0.0) as u32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounded_expected_is_close_to_mu() {
        let mu = vec![0.2, 1.7, 3.5, 0.0];
        let obs = rounded_expected(&mu);
        assert_eq!(obs.counts(), &[0, 2, 4, 0]);
        let deviation = crate::MetricKind::Diff.score(&obs, &mu, 300);
        assert!(deviation <= 0.5 * mu.len() as f64);
    }
}
