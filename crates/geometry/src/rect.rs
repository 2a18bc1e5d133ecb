//! Axis-aligned rectangles: the deployment area and grid cells.

use crate::point::Point2;
use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Smallest x coordinate.
    pub min_x: f64,
    /// Smallest y coordinate.
    pub min_y: f64,
    /// Largest x coordinate.
    pub max_x: f64,
    /// Largest y coordinate.
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    ///
    /// Panics in debug builds when the corners are inverted.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted rectangle");
        Self {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// A square `[0, side] × [0, side]` anchored at the origin — the standard
    /// deployment area shape used in the paper (side = 1000 m).
    pub fn square(side: f64) -> Self {
        Self::new(0.0, 0.0, side, side)
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Whether `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Clamps `p` to the rectangle.
    #[inline]
    pub fn clamp(&self, p: Point2) -> Point2 {
        Point2::new(
            p.x.clamp(self.min_x, self.max_x),
            p.y.clamp(self.min_y, self.max_y),
        )
    }

    /// Expands the rectangle by `margin` on every side (negative shrinks).
    pub fn expand(&self, margin: f64) -> Rect {
        Rect::new(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn square_geometry() {
        let r = Rect::square(1000.0);
        assert_eq!(r.width(), 1000.0);
        assert_eq!(r.height(), 1000.0);
    }

    #[test]
    fn contains_and_clamp() {
        let r = Rect::new(0.0, 0.0, 10.0, 20.0);
        assert!(r.contains(Point2::new(0.0, 0.0)));
        assert!(r.contains(Point2::new(10.0, 20.0)));
        assert!(!r.contains(Point2::new(-0.1, 5.0)));
        assert_eq!(r.clamp(Point2::new(-5.0, 25.0)), Point2::new(0.0, 20.0));
        assert_eq!(r.clamp(Point2::new(5.0, 5.0)), Point2::new(5.0, 5.0));
    }

    #[test]
    fn expand_and_distance() {
        let r = Rect::square(10.0);
        let bigger = r.expand(2.0);
        assert_eq!(bigger.min_x, -2.0);
        assert_eq!(bigger.max_y, 12.0);
    }

    proptest! {
        #[test]
        fn prop_clamped_point_is_contained(
            px in -1e4f64..1e4, py in -1e4f64..1e4,
            w in 1.0f64..1e3, h in 1.0f64..1e3,
        ) {
            let r = Rect::new(0.0, 0.0, w, h);
            prop_assert!(r.contains(r.clamp(Point2::new(px, py))));
        }
    }
}
