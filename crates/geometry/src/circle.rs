//! Circles / disks: transmission ranges and coverage computations.

use crate::point::Point2;
use serde::{Deserialize, Serialize};

/// A circle (disk) in the plane — used to model a sensor's transmission range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Circle {
    /// Centre of the circle.
    pub center: Point2,
    /// Radius in metres (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle. Panics in debug builds when `radius` is negative.
    #[inline]
    pub fn new(center: Point2, radius: f64) -> Self {
        debug_assert!(radius >= 0.0, "circle radius must be non-negative");
        Self { center, radius }
    }

    /// Whether `p` lies inside or on the circle.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        self.center.distance_squared(p) <= self.radius * self.radius
    }

    /// Half-angle (radians) subtended at the centre of a circle of radius `ell`
    /// (centred at the deployment point) by the part of that circle lying
    /// inside a disk of radius `range` whose centre is `z` away from the
    /// deployment point.
    ///
    /// This is the `cos⁻¹((ℓ² + z² − R²)/(2ℓz))` term of Theorem 1 in the LAD
    /// paper, exposed here because it is pure geometry. Returns:
    /// * `π` when the circle of radius `ell` lies entirely inside the disk,
    /// * `0` when it lies entirely outside,
    /// * the clamped arccos otherwise.
    pub fn arc_half_angle(ell: f64, z: f64, range: f64) -> f64 {
        debug_assert!(ell >= 0.0 && z >= 0.0 && range >= 0.0);
        if ell + z <= range {
            return std::f64::consts::PI;
        }
        if (ell - z).abs() >= range {
            // entirely outside (ell differs from z by more than the range)
            return if ell + range <= z || z + range <= ell {
                0.0
            } else {
                std::f64::consts::PI
            };
        }
        if ell == 0.0 || z == 0.0 {
            // Degenerate: the "circle" is a point; either fully in or out,
            // handled above. Reaching here means borderline round-off.
            return if z <= range {
                std::f64::consts::PI
            } else {
                0.0
            };
        }
        let cosine = ((ell * ell + z * z - range * range) / (2.0 * ell * z)).clamp(-1.0, 1.0);
        cosine.acos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    #[test]
    fn contains_boundary_and_interior() {
        let c = Circle::new(Point2::new(0.0, 0.0), 10.0);
        assert!(c.contains(Point2::new(10.0, 0.0)));
        assert!(c.contains(Point2::new(3.0, 4.0)));
        assert!(!c.contains(Point2::new(7.5, 7.5)));
    }

    #[test]
    fn arc_half_angle_limits() {
        // Circle of radius 1 around the deployment point, neighbourhood of
        // radius 10 centred 2 away: fully inside -> pi.
        assert_eq!(Circle::arc_half_angle(1.0, 2.0, 10.0), PI);
        // Far away -> 0.
        assert_eq!(Circle::arc_half_angle(1.0, 100.0, 10.0), 0.0);
        // Right angle case: ell^2 + z^2 = R^2 -> angle pi/2.
        let ang = Circle::arc_half_angle(3.0, 4.0, 5.0);
        assert!((ang - PI / 2.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_arc_half_angle_in_range(ell in 0.0f64..200.0, z in 0.0f64..200.0, r in 0.1f64..100.0) {
            let ang = Circle::arc_half_angle(ell, z, r);
            prop_assert!((0.0..=PI + 1e-12).contains(&ang));
        }
    }
}
