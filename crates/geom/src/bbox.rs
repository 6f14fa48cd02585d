//! Axis-aligned bounding boxes, used to describe deployment fields.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box `[min.x, max.x] × [min.y, max.y]`.
///
/// The deployment field of a sensor network (e.g. a 200 m × 200 m square) is
/// represented by an `Aabb`; all deployment generators sample inside one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    pub min: Point,
    pub max: Point,
}

impl Aabb {
    /// Creates a box from corner points; coordinates are swapped if needed
    /// so that `min ≤ max` holds component-wise.
    pub fn new(a: Point, b: Point) -> Self {
        Aabb {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A square field `[0, side] × [0, side]` — the standard deployment
    /// area shape in the paper's evaluation.
    pub fn square(side: f64) -> Self {
        assert!(side >= 0.0, "field side must be non-negative");
        Aabb::new(Point::ORIGIN, Point::new(side, side))
    }

    /// Width along the x-axis.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along the y-axis.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the box.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center of the box — the default sink location in the evaluation.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Returns `true` if `p` lies inside the box (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Smallest box containing both `self` and `other`.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Clamps `p` into the box.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Smallest box containing all `points`; `None` for an empty slice.
    pub fn from_points(points: &[Point]) -> Option<Aabb> {
        let first = *points.first()?;
        let mut bb = Aabb {
            min: first,
            max: first,
        };
        for &p in &points[1..] {
            bb.min.x = bb.min.x.min(p.x);
            bb.min.y = bb.min.y.min(p.y);
            bb.max.x = bb.max.x.max(p.x);
            bb.max.y = bb.max.y.max(p.y);
        }
        Some(bb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn square_field() {
        let f = Aabb::square(200.0);
        assert!(approx_eq(f.width(), 200.0));
        assert!(approx_eq(f.height(), 200.0));
        assert!(approx_eq(f.area(), 40_000.0));
        assert_eq!(f.center(), Point::new(100.0, 100.0));
    }

    #[test]
    fn new_normalizes_corners() {
        let b = Aabb::new(Point::new(5.0, -1.0), Point::new(-2.0, 3.0));
        assert_eq!(b.min, Point::new(-2.0, -1.0));
        assert_eq!(b.max, Point::new(5.0, 3.0));
    }

    #[test]
    fn contains_boundary_inclusive() {
        let b = Aabb::square(10.0);
        assert!(b.contains(Point::new(0.0, 0.0)));
        assert!(b.contains(Point::new(10.0, 10.0)));
        assert!(b.contains(Point::new(5.0, 5.0)));
        assert!(!b.contains(Point::new(10.1, 5.0)));
        assert!(!b.contains(Point::new(5.0, -0.1)));
    }

    #[test]
    fn union_covers_both() {
        let a = Aabb::square(2.0);
        let b = Aabb::new(Point::new(5.0, 5.0), Point::new(7.0, 9.0));
        let u = a.union(&b);
        assert!(u.contains(Point::new(0.0, 0.0)));
        assert!(u.contains(Point::new(7.0, 9.0)));
        assert_eq!(u.min, Point::ORIGIN);
        assert_eq!(u.max, Point::new(7.0, 9.0));
    }

    #[test]
    fn clamp_into_box() {
        let b = Aabb::square(10.0);
        assert_eq!(b.clamp(Point::new(-5.0, 20.0)), Point::new(0.0, 10.0));
        assert_eq!(b.clamp(Point::new(3.0, 4.0)), Point::new(3.0, 4.0));
    }

    #[test]
    fn from_points_bounds() {
        assert!(Aabb::from_points(&[]).is_none());
        let pts = [
            Point::new(1.0, 7.0),
            Point::new(-3.0, 2.0),
            Point::new(4.0, 5.0),
        ];
        let b = Aabb::from_points(&pts).unwrap();
        assert_eq!(b.min, Point::new(-3.0, 2.0));
        assert_eq!(b.max, Point::new(4.0, 7.0));
    }
}
