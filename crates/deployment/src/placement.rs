//! The placement model: how a sensor's resident point is drawn around its
//! group's deployment point.
//!
//! The paper models placement as an isotropic 2-D Gaussian (§3.2); the g(z)
//! table of Theorem 1 is built for exactly that distribution, so it is the
//! only placement the simulator draws from.

use lad_geometry::{sampling, Point2};
use rand::Rng;

/// The isotropic 2-D Gaussian distribution of a resident point around its
/// deployment point (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementModel {
    sigma: f64,
}

impl PlacementModel {
    /// The paper's Gaussian placement with per-axis standard deviation σ
    /// (metres).
    pub fn gaussian(sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        PlacementModel { sigma }
    }

    /// Draws a resident point for a sensor whose group is deployed at
    /// `deployment_point`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, deployment_point: Point2) -> Point2 {
        sampling::gaussian_around(rng, deployment_point, self.sigma)
    }

    /// Probability that a resident point lands within distance `r` of the
    /// deployment point (the Rayleigh radial CDF of the Gaussian).
    pub fn prob_within(&self, r: f64) -> f64 {
        if r <= 0.0 {
            return 0.0;
        }
        1.0 - (-(r * r) / (2.0 * self.sigma * self.sigma)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn gaussian_sampling_matches_radial_cdf() {
        let model = PlacementModel::gaussian(50.0);
        let dp = Point2::new(200.0, 300.0);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let n = 30_000;
        for &r in &[25.0, 50.0, 100.0] {
            let mut rng_local = rng.clone();
            let inside = (0..n)
                .filter(|_| model.sample(&mut rng_local, dp).distance(dp) <= r)
                .count();
            let frac = inside as f64 / n as f64;
            assert!(
                (frac - model.prob_within(r)).abs() < 0.015,
                "r={r} frac={frac} expected={}",
                model.prob_within(r)
            );
            rng = rng_local;
        }
    }

    #[test]
    fn prob_within_monotone_and_bounded() {
        let model = PlacementModel::gaussian(30.0);
        let mut prev = 0.0;
        for i in 0..100 {
            let r = i as f64 * 3.0;
            let p = model.prob_within(r);
            assert!(p >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn spread_reports_scale() {
        // The simulator draws with the σ the deployment is configured with.
        let cfg = crate::DeploymentConfig::paper_default().with_sigma(70.0);
        let knowledge = crate::DeploymentKnowledge::from_config(&cfg);
        assert_eq!(knowledge.placement(), PlacementModel::gaussian(70.0));
    }

    #[test]
    #[should_panic]
    fn negative_sigma_panics() {
        let _ = PlacementModel::gaussian(-1.0);
    }
}
