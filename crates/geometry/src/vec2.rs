//! Displacement vectors in the plane.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D displacement vector (metres).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
}

impl Vec2 {
    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.length_squared().sqrt()
    }

    /// Squared Euclidean length.
    #[inline]
    pub fn length_squared(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// z component of the 3-D cross product (signed parallelogram area).
    #[inline]
    pub fn cross(&self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Angle of the vector in radians, in `(-π, π]`.
    #[inline]
    pub fn angle(&self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Returns a unit-length copy, or `None` when the vector is (numerically) zero.
    #[inline]
    pub fn normalized(&self) -> Option<Vec2> {
        let len = self.length();
        if len <= f64::EPSILON {
            None
        } else {
            Some(*self / len)
        }
    }

    /// Component-wise scaling.
    #[inline]
    pub fn scale(&self, sx: f64, sy: f64) -> Vec2 {
        Vec2::new(self.x * sx, self.y * sy)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn length_of_axis_vectors() {
        assert_eq!(Vec2::new(3.0, 0.0).length(), 3.0);
        assert_eq!(Vec2::new(0.0, -4.0).length(), 4.0);
        assert!((Vec2::new(3.0, 4.0).length() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dot_and_cross_orthogonality() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 2.0);
        assert_eq!(a.cross(b), 2.0);
        assert_eq!(b.cross(a), -2.0);
    }

    #[test]
    fn normalized_gives_unit_length() {
        let v = Vec2::new(10.0, -7.0);
        let n = v.normalized().unwrap();
        assert!((n.length() - 1.0).abs() < 1e-12);
        assert!(Vec2::default().normalized().is_none());
    }

    #[test]
    fn arithmetic_identities() {
        let v = Vec2::new(2.0, -3.0);
        assert_eq!(v + Vec2::default(), v);
        assert_eq!(v - v, Vec2::default());
        assert_eq!(-(-v), v);
        assert_eq!(v * 2.0, 2.0 * v);
        assert_eq!((v * 2.0) / 2.0, v);
        assert_eq!(v.scale(2.0, 3.0), Vec2::new(4.0, -9.0));
        let mut w = v;
        w += v;
        w -= v;
        assert_eq!(w, v);
    }

    proptest! {
        #[test]
        fn prop_length_scales_linearly(x in -1e3f64..1e3, y in -1e3f64..1e3, s in 0.0f64..100.0) {
            let v = Vec2::new(x, y);
            prop_assert!(((v * s).length() - v.length() * s).abs() < 1e-6);
        }
    }
}
