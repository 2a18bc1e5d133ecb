//! Deployment configuration shared by the simulator, the detector and the
//! evaluation harness.

use lad_geometry::Rect;
use serde::{Deserialize, Serialize};

/// Parameters of the group-based deployment model (§3 and §7.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeploymentConfig {
    /// Side length of the square deployment area, metres (paper: 1000).
    pub area_side: f64,
    /// Number of grid columns of deployment points (paper: 10).
    pub grid_cols: usize,
    /// Number of grid rows of deployment points (paper: 10).
    pub grid_rows: usize,
    /// Per-axis standard deviation σ of the Gaussian placement pdf (paper: 50).
    pub sigma: f64,
    /// Number of sensors per deployment group, `m` (paper default: 300).
    pub group_size: usize,
    /// Wireless transmission range `R`, metres (paper does not state the
    /// value; 40 m follows the companion beaconless-localization paper).
    pub range: f64,
    /// Number of sub-ranges ω of the precomputed g(z) lookup table (§3.3).
    pub gz_table_omega: usize,
}

impl DeploymentConfig {
    /// The exact experimental setup of §7.1: a 1000 m × 1000 m area divided
    /// into a 10 × 10 grid of 100 m cells, deployment points at cell centres,
    /// σ = 50, m = 300.
    pub fn paper_default() -> Self {
        Self {
            area_side: 1000.0,
            grid_cols: 10,
            grid_rows: 10,
            sigma: 50.0,
            group_size: 300,
            range: 40.0,
            gz_table_omega: 256,
        }
    }

    /// A scaled-down configuration for fast unit tests and doc examples:
    /// 400 m × 400 m, 4 × 4 groups, m = 60.
    pub fn small_test() -> Self {
        Self {
            area_side: 400.0,
            grid_cols: 4,
            grid_rows: 4,
            sigma: 50.0,
            group_size: 60,
            range: 40.0,
            gz_table_omega: 128,
        }
    }

    /// Number of deployment groups `n = grid_cols × grid_rows`.
    pub fn group_count(&self) -> usize {
        self.grid_cols * self.grid_rows
    }

    /// Total number of sensors `N = n · m`.
    pub fn total_nodes(&self) -> usize {
        self.group_count() * self.group_size
    }

    /// The square deployment area as a rectangle anchored at the origin.
    pub fn area(&self) -> Rect {
        Rect::new(0.0, 0.0, self.area_side, self.area_side)
    }

    /// Grid cell width (`area_side / grid_cols`).
    pub fn cell_width(&self) -> f64 {
        self.area_side / self.grid_cols as f64
    }

    /// Grid cell height (`area_side / grid_rows`).
    pub fn cell_height(&self) -> f64 {
        self.area_side / self.grid_rows as f64
    }

    /// Returns a copy with a different group size `m` (used by the Figure 9
    /// density sweep).
    pub fn with_group_size(mut self, m: usize) -> Self {
        self.group_size = m;
        self
    }

    /// Returns a copy with a different placement σ.
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// Validates the configuration, returning a description of the first
    /// problem found (if any).
    pub fn validate(&self) -> Result<(), String> {
        if !self.area_side.is_finite() || self.area_side <= 0.0 {
            return Err("area_side must be positive".into());
        }
        if self.grid_cols == 0 || self.grid_rows == 0 {
            return Err("grid dimensions must be non-zero".into());
        }
        if !self.sigma.is_finite() || self.sigma <= 0.0 {
            return Err("sigma must be positive".into());
        }
        if self.group_size == 0 {
            return Err("group_size must be non-zero".into());
        }
        if !self.range.is_finite() || self.range <= 0.0 {
            return Err("range must be positive".into());
        }
        if self.gz_table_omega < 2 {
            return Err("gz_table_omega must be at least 2".into());
        }
        Ok(())
    }
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_7_1() {
        let c = DeploymentConfig::paper_default();
        assert_eq!(c.area_side, 1000.0);
        assert_eq!(c.group_count(), 100);
        assert_eq!(c.group_size, 300);
        assert_eq!(c.total_nodes(), 30_000);
        assert_eq!(c.sigma, 50.0);
        assert_eq!(c.cell_width(), 100.0);
        assert_eq!(c.cell_height(), 100.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_override_single_fields() {
        let c = DeploymentConfig::paper_default()
            .with_group_size(500)
            .with_sigma(75.0);
        assert_eq!(c.group_size, 500);
        assert_eq!(c.sigma, 75.0);
        assert_eq!(c.grid_cols, 10);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let base = DeploymentConfig::small_test();
        assert!(base.validate().is_ok());
        assert!(DeploymentConfig {
            area_side: 0.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(DeploymentConfig {
            grid_cols: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(DeploymentConfig {
            sigma: -1.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(DeploymentConfig {
            group_size: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(DeploymentConfig { range: 0.0, ..base }.validate().is_err());
        assert!(DeploymentConfig {
            gz_table_omega: 1,
            ..base
        }
        .validate()
        .is_err());
    }

    #[test]
    fn area_rect_is_anchored_at_origin() {
        let c = DeploymentConfig::small_test();
        let a = c.area();
        assert_eq!(a.min_x, 0.0);
        assert_eq!(a.max_x, 400.0);
        assert_eq!((a.width(), a.height()), (400.0, 400.0));
    }
}
