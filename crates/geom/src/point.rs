//! 2-D points with the usual vector arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point (or displacement vector) in the plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`. Prefer this in hot loops and
    /// when only comparisons are needed.
    #[inline]
    pub fn dist_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Length of this point interpreted as a vector from the origin.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.dist(Point::ORIGIN)
    }

    /// Squared length of this point interpreted as a vector.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(&self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (the `z` component of the 3-D cross product).
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(&self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    /// `t` may lie outside `[0, 1]`, in which case the result extrapolates.
    #[inline]
    pub fn lerp(&self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// Angle of the vector from the origin to this point, in radians in
    /// `(-π, π]`.
    #[inline]
    pub fn angle(&self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Unit vector in the direction of `self`, or `None` for a (near-)zero
    /// vector.
    pub fn normalized(&self) -> Option<Point> {
        let n = self.norm();
        if n < crate::EPS {
            None
        } else {
            Some(Point::new(self.x / n, self.y / n))
        }
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Point) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Point) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn distance_345() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!(approx_eq(a.dist(b), 5.0));
        assert!(approx_eq(a.dist_sq(b), 25.0));
        assert!(approx_eq(b.dist(a), 5.0), "distance is symmetric");
    }

    #[test]
    fn arithmetic_ops() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Point::new(4.0, 1.0));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn dot_and_cross() {
        let a = Point::new(1.0, 0.0);
        let b = Point::new(0.0, 1.0);
        assert!(approx_eq(a.dot(b), 0.0));
        assert!(approx_eq(a.cross(b), 1.0), "ccw is positive");
        assert!(approx_eq(b.cross(a), -1.0), "cw is negative");
        assert!(approx_eq(a.dot(a), 1.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Point::new(5.0, -2.0));
    }

    #[test]
    fn normalized_zero_vector_is_none() {
        assert!(Point::ORIGIN.normalized().is_none());
        let u = Point::new(3.0, 4.0).normalized().unwrap();
        assert!(approx_eq(u.norm(), 1.0));
    }

    #[test]
    fn angle_quadrants() {
        assert!(approx_eq(Point::new(1.0, 0.0).angle(), 0.0));
        assert!(approx_eq(
            Point::new(0.0, 1.0).angle(),
            std::f64::consts::FRAC_PI_2
        ));
        assert!(approx_eq(
            Point::new(-1.0, 0.0).angle(),
            std::f64::consts::PI
        ));
    }
}
