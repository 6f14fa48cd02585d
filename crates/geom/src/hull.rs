//! Convex hulls (Andrew's monotone chain).
//!
//! The hull perimeter is a classic lower bound on the length of any closed
//! tour through a point set; the experiment harness reports it as a sanity
//! reference next to heuristic tour lengths.

use crate::point::Point;

/// Computes the convex hull of `points` in counter-clockwise order using
/// Andrew's monotone chain. Collinear points on the hull boundary are
/// dropped. Returns:
///
/// * `[]` for an empty input,
/// * a single point for an input of identical points,
/// * two points for a collinear input,
/// * otherwise the CCW hull polygon without a repeated first vertex.
fn convex_hull(points: &[Point]) -> Vec<Point> {
    let mut pts: Vec<Point> = points.to_vec();
    pts.sort_by(|a, b| {
        a.x.partial_cmp(&b.x)
            .unwrap()
            .then(a.y.partial_cmp(&b.y).unwrap())
    });
    pts.dedup_by(|a, b| a.dist_sq(*b) < crate::EPS * crate::EPS);
    let n = pts.len();
    if n <= 2 {
        return pts;
    }

    let cross = |o: Point, a: Point, b: Point| (a - o).cross(b - o);

    let mut hull: Vec<Point> = Vec::with_capacity(2 * n);
    // Lower hull.
    for &p in &pts {
        while hull.len() >= 2 && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= crate::EPS
        {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len
            && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= crate::EPS
        {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // The last point repeats the first.
    if hull.len() < 2 {
        // All points collinear degenerate to the two extremes.
        return vec![pts[0], pts[n - 1]];
    }
    hull
}

/// Perimeter of the convex hull of `points` (0 for fewer than 2 distinct
/// points; twice the diameter for collinear inputs, i.e. the length of the
/// degenerate "tour" out and back).
pub fn hull_perimeter(points: &[Point]) -> f64 {
    let hull = convex_hull(points);
    match hull.len() {
        0 | 1 => 0.0,
        2 => 2.0 * hull[0].dist(hull[1]),
        _ => {
            let mut perim = 0.0;
            for i in 0..hull.len() {
                perim += hull[i].dist(hull[(i + 1) % hull.len()]);
            }
            perim
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    /// Returns `true` if `p` lies inside or on the boundary of the CCW convex
    /// polygon `hull`.
    fn hull_contains(hull: &[Point], p: Point) -> bool {
        if hull.len() < 3 {
            return match hull.len() {
                0 => false,
                1 => hull[0].dist(p) < crate::EPS,
                _ => crate::Segment::new(hull[0], hull[1]).dist_to_point(p) < crate::EPS,
            };
        }
        for i in 0..hull.len() {
            let a = hull[i];
            let b = hull[(i + 1) % hull.len()];
            if (b - a).cross(p - a) < -crate::EPS {
                return false;
            }
        }
        true
    }

    proptest! {
        #[test]
        fn hull_contains_all_points(
            pts in proptest::collection::vec((-1e4..1e4f64, -1e4..1e4f64), 1..50),
        ) {
            let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let hull = convex_hull(&pts);
            if hull.len() >= 3 {
                for p in &pts {
                    prop_assert!(hull_contains(&hull, *p));
                }
            }
        }
    }

    #[test]
    fn hull_of_square_with_interior_points() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
            Point::new(2.0, 2.0), // interior
            Point::new(1.0, 3.0), // interior
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        assert!(approx_eq(hull_perimeter(&pts), 16.0));
        for p in &pts {
            assert!(hull_contains(&hull, *p), "{p} should be inside");
        }
        assert!(!hull_contains(&hull, Point::new(5.0, 5.0)));
    }

    #[test]
    fn hull_drops_collinear_boundary_points() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0), // collinear on bottom edge
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(convex_hull(&[]).is_empty());
        assert_eq!(convex_hull(&[Point::new(1.0, 1.0)]).len(), 1);
        // All-identical points collapse to one.
        let same = vec![Point::new(2.0, 2.0); 5];
        assert_eq!(convex_hull(&same).len(), 1);
        assert!(approx_eq(hull_perimeter(&same), 0.0));
        // Collinear points give the two extremes, perimeter = out and back.
        let line: Vec<Point> = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        let hull = convex_hull(&line);
        assert_eq!(hull.len(), 2);
        assert!(approx_eq(hull_perimeter(&line), 8.0));
    }

    #[test]
    fn hull_is_ccw() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 1.0),
            Point::new(4.0, 4.0),
            Point::new(1.0, 3.0),
        ];
        let hull = convex_hull(&pts);
        let mut area2 = 0.0;
        for i in 0..hull.len() {
            let a = hull[i];
            let b = hull[(i + 1) % hull.len()];
            area2 += a.cross(b);
        }
        assert!(area2 > 0.0, "signed area positive ⇒ CCW order");
    }
}
