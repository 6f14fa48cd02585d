//! Line segments: length, closest-point and distance queries, and the first
//! entry of a moving point into a disk.
//!
//! Segments are used by the CME baseline (straight mule tracks: each sensor
//! relays to the closest point on its track) and by tour rendering.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// A directed line segment from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    pub a: Point,
    pub b: Point,
}

impl Segment {
    /// Creates a segment between two endpoints.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Euclidean length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// The parameter `t ∈ [0, 1]` of the point on the segment closest to
    /// `p` (`0` ↦ `a`, `1` ↦ `b`). A degenerate segment returns `0`.
    pub fn closest_t(&self, p: Point) -> f64 {
        let ab = self.b - self.a;
        let len_sq = ab.norm_sq();
        if len_sq < crate::EPS * crate::EPS {
            return 0.0;
        }
        ((p - self.a).dot(ab) / len_sq).clamp(0.0, 1.0)
    }

    /// The point on the segment closest to `p`.
    pub fn closest_point(&self, p: Point) -> Point {
        self.a.lerp(self.b, self.closest_t(p))
    }

    /// Distance from `p` to the segment.
    pub fn dist_to_point(&self, p: Point) -> f64 {
        self.closest_point(p).dist(p)
    }

    /// The smallest parameter `t ∈ [0, 1]` at which the point moving from
    /// `a` to `b` enters the closed disk of `radius` around `center`, or
    /// `None` if the segment never touches the disk.
    ///
    /// Used by mobility models: "when does the mule first come within
    /// radio range of this sensor?"
    pub fn first_param_within(&self, center: Point, radius: f64) -> Option<f64> {
        debug_assert!(radius >= 0.0);
        // Already inside at the start.
        if self.a.dist_sq(center) <= radius * radius {
            return Some(0.0);
        }
        // Solve |a + t·d − c|² = r² for the smaller root in [0, 1].
        let d = self.b - self.a;
        let f = self.a - center;
        let qa = d.norm_sq();
        if qa < crate::EPS * crate::EPS {
            return None; // Degenerate segment, start was outside.
        }
        let qb = 2.0 * f.dot(d);
        let qc = f.norm_sq() - radius * radius;
        let disc = qb * qb - 4.0 * qa * qc;
        if disc < 0.0 {
            return None;
        }
        let t = (-qb - disc.sqrt()) / (2.0 * qa);
        (0.0..=1.0).contains(&t).then_some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn length_is_euclidean() {
        let s = seg(0.0, 0.0, 6.0, 8.0);
        assert!(approx_eq(s.length(), 10.0));
    }

    #[test]
    fn closest_point_interior_and_clamped() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        // Projection falls inside the segment.
        assert_eq!(s.closest_point(Point::new(3.0, 5.0)), Point::new(3.0, 0.0));
        assert!(approx_eq(s.dist_to_point(Point::new(3.0, 5.0)), 5.0));
        // Projection clamps to endpoint a.
        assert_eq!(s.closest_point(Point::new(-4.0, 3.0)), Point::new(0.0, 0.0));
        assert!(approx_eq(s.dist_to_point(Point::new(-4.0, 3.0)), 5.0));
        // Projection clamps to endpoint b.
        assert_eq!(
            s.closest_point(Point::new(14.0, -3.0)),
            Point::new(10.0, 0.0)
        );
    }

    #[test]
    fn degenerate_segment() {
        let s = seg(2.0, 2.0, 2.0, 2.0);
        assert!(approx_eq(s.length(), 0.0));
        assert_eq!(s.closest_point(Point::new(5.0, 6.0)), Point::new(2.0, 2.0));
        assert!(approx_eq(s.dist_to_point(Point::new(5.0, 6.0)), 5.0));
    }

    #[test]
    fn first_param_within_disk() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        // Disk centered above the path at (5, 3), radius 5: entry where
        // (t·10 − 5)² + 9 = 25 ⇒ t·10 = 1 ⇒ t = 0.1.
        let t = s.first_param_within(Point::new(5.0, 3.0), 5.0).unwrap();
        assert!((t - 0.1).abs() < 1e-9, "got {t}");
        // Starting inside the disk: t = 0.
        assert_eq!(s.first_param_within(Point::new(1.0, 0.0), 2.0), Some(0.0));
        // Disk out of reach.
        assert_eq!(s.first_param_within(Point::new(5.0, 10.0), 3.0), None);
        // Disk behind the segment.
        assert_eq!(s.first_param_within(Point::new(-10.0, 0.0), 3.0), None);
        // Tangent contact counts.
        let tangent = s.first_param_within(Point::new(5.0, 3.0), 3.0).unwrap();
        assert!((tangent - 0.5).abs() < 1e-6);
        // Degenerate segment outside the disk.
        let dot = seg(0.0, 0.0, 0.0, 0.0);
        assert_eq!(dot.first_param_within(Point::new(9.0, 0.0), 2.0), None);
        assert_eq!(dot.first_param_within(Point::new(1.0, 0.0), 2.0), Some(0.0));
    }
}
