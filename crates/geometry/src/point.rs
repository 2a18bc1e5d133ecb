//! Plain 2-D points.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point in the 2-D deployment plane, in metres.
///
/// `Point2` is a tiny `Copy` type used pervasively in hot loops; it carries
/// no invariants beyond "finite coordinates are expected by the rest of the
/// workspace".
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// x coordinate (metres).
    pub x: f64,
    /// y coordinate (metres).
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: Point2) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the `sqrt` when only
    /// comparisons are needed, e.g. in range queries).
    #[inline]
    pub fn distance_squared(&self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// The point at distance `dist` from `self` in direction `angle`
    /// (radians, counter-clockwise from the +x axis).
    #[inline]
    pub fn offset_polar(&self, dist: f64, angle: f64) -> Point2 {
        Point2::new(self.x + dist * angle.cos(), self.y + dist * angle.sin())
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

impl From<Point2> for (f64, f64) {
    fn from(p: Point2) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(4.0, 6.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert!((b.distance(a) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_squared_matches_distance() {
        let a = Point2::new(-3.0, 7.5);
        let b = Point2::new(2.25, -1.0);
        assert!((a.distance_squared(b) - a.distance(b).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn offset_polar_lands_at_requested_distance() {
        let p = Point2::new(100.0, 50.0);
        for k in 0..16 {
            let ang = k as f64 * std::f64::consts::TAU / 16.0;
            let q = p.offset_polar(25.0, ang);
            assert!((p.distance(q) - 25.0).abs() < 1e-9);
        }
    }

    #[test]
    fn display_and_conversions() {
        let p = Point2::from((1.5, 2.5));
        let (x, y): (f64, f64) = p.into();
        assert_eq!((x, y), (1.5, 2.5));
        assert_eq!(format!("{p}"), "(1.50, 2.50)");
        assert!(p.is_finite());
        assert!(!Point2::new(f64::NAN, 0.0).is_finite());
    }

    proptest! {
        #[test]
        fn prop_triangle_inequality(
            ax in -1e4f64..1e4, ay in -1e4f64..1e4,
            bx in -1e4f64..1e4, by in -1e4f64..1e4,
            cx in -1e4f64..1e4, cy in -1e4f64..1e4,
        ) {
            let a = Point2::new(ax, ay);
            let b = Point2::new(bx, by);
            let c = Point2::new(cx, cy);
            prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-6);
        }

        #[test]
        fn prop_distance_translation_invariant(
            ax in -1e4f64..1e4, ay in -1e4f64..1e4,
            bx in -1e4f64..1e4, by in -1e4f64..1e4,
            tx in -1e4f64..1e4, ty in -1e4f64..1e4,
        ) {
            let a = Point2::new(ax, ay);
            let b = Point2::new(bx, by);
            let shift = |p: Point2| Point2::new(p.x + tx, p.y + ty);
            prop_assert!((shift(a).distance(shift(b)) - a.distance(b)).abs() < 1e-6);
        }
    }
}
