//! The isotropic two-dimensional Gaussian of the deployment model.
//!
//! The LAD deployment model (§3.2 of the paper) places every sensor of group
//! `G_i` at a resident point drawn from an isotropic 2-D Gaussian centred at
//! the group's deployment point with per-axis standard deviation σ.

use serde::{Deserialize, Serialize};

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::simpson;
    use proptest::prelude::*;

    #[test]
    #[should_panic]
    fn zero_sigma_panics() {
        let _ = IsotropicGaussian2d::new(0.0, 0.0, 0.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        // ±10σ around the mean holds all but ~1e-22 of the mass.
        let g = IsotropicGaussian2d::new(3.0, -1.0, 2.0);
        let row = |x: f64| simpson(|y| g.pdf(x, y), -21.0, 19.0, 256);
        let integral = simpson(row, -17.0, 23.0, 256);
        assert!((integral - 1.0).abs() < 1e-8, "integral {integral}");
    }

    #[test]
    fn pdf_2d_matches_paper_example_peak() {
        // Figure 2 of the paper: sigma = 50, peak value 1/(2*pi*50^2) ≈ 6.37e-5.
        let g = IsotropicGaussian2d::new(150.0, 150.0, 50.0);
        let peak = g.pdf(150.0, 150.0);
        assert!((peak - 1.0 / (2.0 * std::f64::consts::PI * 2500.0)).abs() < 1e-12);
        assert!(peak < 7e-5 && peak > 6e-5);
    }

    proptest! {
        #[test]
        fn prop_pdf_positive_and_bounded(x in -1e3f64..1e3, y in -1e3f64..1e3, s in 1.0f64..200.0) {
            let g = IsotropicGaussian2d::new(0.0, 0.0, s);
            let p = g.pdf(x, y);
            prop_assert!(p >= 0.0);
            prop_assert!(p <= g.pdf(0.0, 0.0) + 1e-15);
        }

    }
}
