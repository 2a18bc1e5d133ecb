//! One- and two-dimensional Gaussian distributions.
//!
//! The LAD deployment model (§3.2 of the paper) places every sensor of group
//! `G_i` at a resident point drawn from an isotropic 2-D Gaussian centred at
//! the group's deployment point with per-axis standard deviation σ.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A one-dimensional Gaussian (normal) distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gaussian1d {
    /// Mean.
    pub mean: f64,
    /// Standard deviation (> 0).
    pub sigma: f64,
}

impl Gaussian1d {
    /// Creates a Gaussian; panics when `sigma` is not strictly positive.
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        Self { mean, sigma }
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sigma;
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Draws a sample (Box–Muller, single value).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.sigma * z
    }
}

/// An isotropic 2-D Gaussian: independent x/y components with the same σ.
///
/// This is exactly the deployment pdf of the paper:
/// `f(x, y) = 1/(2πσ²) · exp(−(x² + y²)/(2σ²))` around the deployment point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IsotropicGaussian2d {
    /// Mean x coordinate (deployment point x).
    pub mean_x: f64,
    /// Mean y coordinate (deployment point y).
    pub mean_y: f64,
    /// Per-axis standard deviation σ (> 0).
    pub sigma: f64,
}

impl IsotropicGaussian2d {
    /// Creates the distribution; panics when `sigma` is not strictly positive.
    pub fn new(mean_x: f64, mean_y: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        Self {
            mean_x,
            mean_y,
            sigma,
        }
    }

    /// Probability density at `(x, y)`.
    pub fn pdf(&self, x: f64, y: f64) -> f64 {
        let dx = x - self.mean_x;
        let dy = y - self.mean_y;
        let s2 = self.sigma * self.sigma;
        (-(dx * dx + dy * dy) / (2.0 * s2)).exp() / (2.0 * std::f64::consts::PI * s2)
    }

    /// Probability that a sample lands within distance `r` of the mean.
    ///
    /// The radial distance of an isotropic Gaussian is Rayleigh(σ), so this is
    /// the Rayleigh CDF `1 − exp(−r²/(2σ²))` — the closed form the paper uses
    /// for the first term of Theorem 1.
    pub fn prob_within_radius(&self, r: f64) -> f64 {
        if r <= 0.0 {
            return 0.0;
        }
        1.0 - (-(r * r) / (2.0 * self.sigma * self.sigma)).exp()
    }

    /// Draws a sample `(x, y)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let gx = Gaussian1d::new(self.mean_x, self.sigma);
        let gy = Gaussian1d::new(self.mean_y, self.sigma);
        (gx.sample(rng), gy.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::simpson;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    #[should_panic]
    fn zero_sigma_panics() {
        let _ = Gaussian1d::new(0.0, 0.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let g = Gaussian1d::new(3.0, 2.0);
        let integral = simpson(|x| g.pdf(x), -20.0, 26.0, 4096);
        assert!((integral - 1.0).abs() < 1e-8);
    }

    #[test]
    fn pdf_2d_matches_paper_example_peak() {
        // Figure 2 of the paper: sigma = 50, peak value 1/(2*pi*50^2) ≈ 6.37e-5.
        let g = IsotropicGaussian2d::new(150.0, 150.0, 50.0);
        let peak = g.pdf(150.0, 150.0);
        assert!((peak - 1.0 / (2.0 * std::f64::consts::PI * 2500.0)).abs() < 1e-12);
        assert!(peak < 7e-5 && peak > 6e-5);
    }

    #[test]
    fn prob_within_radius_is_rayleigh_cdf() {
        let g = IsotropicGaussian2d::new(0.0, 0.0, 50.0);
        assert_eq!(g.prob_within_radius(0.0), 0.0);
        assert!((g.prob_within_radius(50.0) - (1.0 - (-0.5f64).exp())).abs() < 1e-12);
        assert!(g.prob_within_radius(1e4) > 1.0 - 1e-12);
    }

    #[test]
    fn sampling_matches_prob_within_radius() {
        let g = IsotropicGaussian2d::new(100.0, 100.0, 50.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 40_000;
        let r = 60.0;
        let mut inside = 0usize;
        for _ in 0..n {
            let (x, y) = g.sample(&mut rng);
            if ((x - 100.0).powi(2) + (y - 100.0).powi(2)).sqrt() <= r {
                inside += 1;
            }
        }
        let frac = inside as f64 / n as f64;
        assert!((frac - g.prob_within_radius(r)).abs() < 0.01, "frac {frac}");
    }

    proptest! {
        #[test]
        fn prop_pdf_positive_and_bounded(x in -1e3f64..1e3, y in -1e3f64..1e3, s in 1.0f64..200.0) {
            let g = IsotropicGaussian2d::new(0.0, 0.0, s);
            let p = g.pdf(x, y);
            prop_assert!(p >= 0.0);
            prop_assert!(p <= g.pdf(0.0, 0.0) + 1e-15);
        }

        #[test]
        fn prop_prob_within_radius_monotone(s in 1.0f64..200.0, r1 in 0.0f64..500.0, r2 in 0.0f64..500.0) {
            let g = IsotropicGaussian2d::new(0.0, 0.0, s);
            let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
            prop_assert!(g.prob_within_radius(lo) <= g.prob_within_radius(hi) + 1e-12);
        }
    }
}
