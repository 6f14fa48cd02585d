//! # mdg-geom — 2-D computational geometry substrate
//!
//! Geometry primitives used throughout the `mobile-collectors` workspace:
//! points, segments, axis-aligned boxes, convex hulls, polylines/tours, a
//! uniform spatial hash grid for fixed-radius neighbor queries, and dense
//! symmetric distance matrices.
//!
//! Everything here is deliberately dependency-free (besides `serde` for
//! config/result serialization) and operates on `f64` coordinates in meters,
//! matching the units used by the paper's evaluation (fields of 100–500 m,
//! transmission ranges of 20–50 m).
//!
//! ## Conventions
//!
//! * Coordinates are finite `f64` values. Generators in `mdg-net` only ever
//!   produce finite coordinates; functions here assume finiteness and are
//!   checked by debug assertions where cheap.
//! * Distances are Euclidean. Squared distances are used in hot paths
//!   (neighbor queries, unit-disk graph construction) to avoid `sqrt`.

pub mod bbox;
pub mod distmat;
pub mod grid;
pub mod hull;
pub mod point;
pub mod polyline;
pub mod segment;
pub mod tiles;

pub use bbox::Aabb;
pub use distmat::DistMatrix;
pub use grid::SpatialGrid;
pub use hull::hull_perimeter;
pub use point::Point;
pub use polyline::{closed_tour_length, open_path_length};
pub use segment::Segment;
pub use tiles::Tiling;

/// Largest coordinate magnitude, in meters, that the planner's inputs may
/// carry: the daemon, the CLI and trace replay reject positions, ranges
/// and field sides beyond it.
///
/// Distance arithmetic squares coordinates, so positions beyond ~1e12
/// push `dist_sq` toward `f64` overflow and tour lengths degrade to
/// `inf`/`NaN`. Rejecting astronomically large values up front (like
/// non-finite ones) keeps that failure in validation, before any state
/// mutates. 10⁹ km is eight orders of magnitude beyond any deployable
/// field, so no legitimate input is affected.
pub const MAX_COORD: f64 = 1e12;

/// Absolute tolerance used by approximate floating-point comparisons in
/// tests and geometric predicates. One nanometre is far below any
/// meaningful scale for a field measured in meters.
pub const EPS: f64 = 1e-9;

/// Returns `true` if two floats are within [`EPS`] plus a relative tolerance
/// proportional to their magnitude.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= EPS || diff <= f64::max(a.abs(), b.abs()) * 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(1.0, 1.0 + 1e-13));
        assert!(!approx_eq(1.0, 1.001));
        assert!(approx_eq(0.0, 1e-10));
    }

    #[test]
    fn approx_eq_large_magnitude() {
        let a = 1e12;
        assert!(approx_eq(a, a + 0.0001));
        assert!(!approx_eq(a, a * 1.01));
    }
}
