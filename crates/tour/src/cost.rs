//! Cost abstractions for tour algorithms.

use mdg_geom::{DistMatrix, Point};

/// A symmetric, non-negative cost function over cities `0..n`.
///
/// Implementations must satisfy `cost(i, j) == cost(j, i)` and
/// `cost(i, i) == 0`; the algorithms in this crate rely on both.
pub trait CostMatrix {
    /// Number of cities.
    fn n(&self) -> usize;
    /// Cost between two cities.
    fn cost(&self, i: usize, j: usize) -> f64;
}

/// Euclidean costs computed on the fly from a point slice. Zero setup cost;
/// `O(1)` per query with a `sqrt`. Preferred for one-shot planning.
#[derive(Debug, Clone, Copy)]
pub struct EuclideanCost<'a> {
    points: &'a [Point],
}

impl<'a> EuclideanCost<'a> {
    /// Wraps `points` as a cost matrix.
    pub fn new(points: &'a [Point]) -> Self {
        EuclideanCost { points }
    }

    /// The underlying points.
    pub fn points(&self) -> &'a [Point] {
        self.points
    }
}

impl CostMatrix for EuclideanCost<'_> {
    #[inline]
    fn n(&self) -> usize {
        self.points.len()
    }

    #[inline]
    fn cost(&self, i: usize, j: usize) -> f64 {
        self.points[i].dist(self.points[j])
    }
}

/// Precomputed dense costs. Preferred when an algorithm makes `Ω(n²)`
/// queries (2-opt passes, Held–Karp).
#[derive(Debug, Clone)]
pub struct MatrixCost {
    matrix: DistMatrix,
}

impl MatrixCost {
    /// Precomputes all pairwise Euclidean distances of `points`.
    pub fn from_points(points: &[Point]) -> Self {
        MatrixCost {
            matrix: DistMatrix::from_points(points),
        }
    }
}

impl CostMatrix for MatrixCost {
    #[inline]
    fn n(&self) -> usize {
        self.matrix.n()
    }

    #[inline]
    fn cost(&self, i: usize, j: usize) -> f64 {
        self.matrix.get(i, j)
    }
}

impl CostMatrix for DistMatrix {
    #[inline]
    fn n(&self) -> usize {
        DistMatrix::n(self)
    }

    #[inline]
    fn cost(&self, i: usize, j: usize) -> f64 {
        self.get(i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(6.0, 8.0),
        ]
    }

    #[test]
    fn euclidean_and_matrix_agree() {
        let points = pts();
        let e = EuclideanCost::new(&points);
        let m = MatrixCost::from_points(&points);
        assert_eq!(e.n(), 3);
        assert_eq!(m.n(), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert!((e.cost(i, j) - m.cost(i, j)).abs() < 1e-12);
                assert!((e.cost(i, j) - e.cost(j, i)).abs() < 1e-12, "symmetry");
            }
            assert_eq!(e.cost(i, i), 0.0);
        }
        assert!((e.cost(0, 1) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distmatrix_is_a_cost_matrix() {
        let m = DistMatrix::from_points(&pts());
        let c: &dyn CostMatrix = &m;
        assert_eq!(c.n(), 3);
        assert!((c.cost(0, 2) - 10.0).abs() < 1e-12);
    }
}
