//! Property-based tests for the geometry substrate.

use mdg_geom::{
    approx_eq, closed_tour_length, hull_perimeter, Aabb, DistMatrix, Point, SpatialGrid,
};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    // Field coordinates in a generous range; keeps distance arithmetic exact
    // enough for 1e-6 comparisons.
    -1e4..1e4f64
}

fn arb_point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(arb_point(), 1..max)
}

proptest! {
    #[test]
    fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-6);
    }

    #[test]
    fn distance_symmetry_and_positivity(a in arb_point(), b in arb_point()) {
        prop_assert!(approx_eq(a.dist(b), b.dist(a)));
        prop_assert!(a.dist(b) >= 0.0);
        prop_assert!(approx_eq(a.dist(a), 0.0));
    }

    #[test]
    fn dist_matrix_matches_points(pts in arb_points(30)) {
        let m = DistMatrix::from_points(&pts);
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                prop_assert!(approx_eq(m.get(i, j), pts[i].dist(pts[j])));
            }
        }
    }

    #[test]
    fn grid_neighbors_equal_brute_force(
        pts in arb_points(60),
        q in arb_point(),
        radius in 1.0..5e3f64,
        cell in 1.0..2e3f64,
    ) {
        let grid = SpatialGrid::build(&pts, cell);
        let mut got = grid.neighbors_within(q, radius);
        got.sort_unstable();
        let mut want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(q) <= radius)
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        // Boundary points may flip on fp noise; compare after removing
        // points within 1e-6 of the radius from both sides.
        let near_boundary = |i: &u32| (pts[*i as usize].dist(q) - radius).abs() < 1e-6;
        got.retain(|i| !near_boundary(i));
        want.retain(|i| !near_boundary(i));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn hull_perimeter_lower_bounds_any_tour(pts in arb_points(30)) {
        // Any closed tour through all points is at least the hull perimeter.
        // (Classic TSP lower bound; here the "tour" is input order.)
        let perim = hull_perimeter(&pts);
        let tour_len = closed_tour_length(&pts);
        prop_assert!(perim <= tour_len + 1e-6);
    }

    #[test]
    fn closed_tour_is_rotation_invariant(pts in arb_points(20), rot in 0usize..20) {
        let n = pts.len();
        let rot = rot % n;
        let mut rotated = pts.clone();
        rotated.rotate_left(rot);
        prop_assert!(approx_eq(closed_tour_length(&pts), closed_tour_length(&rotated)));
    }

    #[test]
    fn aabb_from_points_contains_all(pts in arb_points(40)) {
        let bb = Aabb::from_points(&pts).unwrap();
        for p in &pts {
            prop_assert!(bb.contains(*p));
        }
        // Clamping anything lands inside.
        let clamped = bb.clamp(Point::new(1e9, -1e9));
        prop_assert!(bb.contains(clamped));
    }
}
