//! Expected observations (Equation 2 of the paper).
//!
//! Given an estimated location `L_e`, the expected number of neighbours from
//! group `i` is `µ_i = m · g_i(L_e)`; this module is a thin, documented
//! wrapper over [`DeploymentKnowledge`] plus helpers shared by the metrics
//! and the adversary models.

use lad_deployment::DeploymentKnowledge;
use lad_geometry::Point2;
use lad_net::Observation;

/// The expected observation `µ(L_e)` with `µ_i = m · g_i(L_e)`.
pub fn expected_observation(knowledge: &DeploymentKnowledge, location: Point2) -> Vec<f64> {
    knowledge.expected_observation(location)
}

/// A reusable dense expected observation `µ(L_e)` paired with the group
/// size `m`: fill it once per estimate (no allocation after warm-up) and
/// hand the same buffer to every metric through
/// [`DetectionMetric::score_from_expected`](crate::metrics::DetectionMetric::score_from_expected).
/// The engine scores the sparse support instead; this dense form backs the
/// kernel benchmarks and the dense baseline of `bench_snapshot`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpectedObservation {
    mu: Vec<f64>,
    group_size: usize,
}

impl ExpectedObservation {
    /// An empty buffer; call [`Self::fill`] before scoring against it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the buffer from explicit values (mostly for tests).
    pub fn from_parts(mu: Vec<f64>, group_size: usize) -> Self {
        Self { mu, group_size }
    }

    /// Recomputes `µ(location)` in place, reusing the existing allocation.
    ///
    /// Consumes [`DeploymentKnowledge::expected_iter`], whose
    /// squared-distance early-out skips the distance/table work for groups
    /// beyond the g(z) tail; in the steady state of a reused buffer the
    /// values are overwritten in place with no capacity checks.
    pub fn fill(&mut self, knowledge: &DeploymentKnowledge, location: Point2) {
        let n = knowledge.group_count();
        if self.mu.len() == n {
            for (slot, value) in self.mu.iter_mut().zip(knowledge.expected_iter(location)) {
                *slot = value;
            }
        } else {
            self.mu.clear();
            self.mu.extend(knowledge.expected_iter(location));
        }
        self.group_size = knowledge.group_size();
    }

    /// The per-group expected neighbour counts `µ_i`.
    pub fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// The per-group node count `m`.
    pub fn group_size(&self) -> usize {
        self.group_size
    }
}

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
    use lad_deployment::DeploymentConfig;

    #[test]
    fn expected_observation_matches_knowledge() {
        let k = DeploymentKnowledge::from_config(&DeploymentConfig::small_test());
        let p = Point2::new(200.0, 200.0);
        assert_eq!(expected_observation(&k, p), k.expected_observation(p));
    }

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
