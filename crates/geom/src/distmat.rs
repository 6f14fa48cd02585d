//! Dense symmetric distance matrices with square row-major storage.
//!
//! TSP heuristics query pairwise distances `O(n²)`–`O(n³)` times per plan;
//! precomputing them once avoids repeated `sqrt` calls. Both triangles
//! are stored, `n²` values in all, so a query is one load at `i·n + j`
//! with no branch on the index order and no triangular index arithmetic.

use crate::point::Point;

/// A symmetric `n × n` distance matrix stored as a row-major square:
/// entry `(i, j)` lives at `i·n + j`, the diagonal holds zeros, and the
/// lower triangle mirrors the upper one bit for bit.
#[derive(Debug, Clone)]
pub struct DistMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistMatrix {
    /// Builds the pairwise Euclidean distance matrix of `points`.
    ///
    /// Upper-triangle rows are computed in parallel in fixed 64-row
    /// blocks straight into the final array, then mirrored into the lower
    /// triangle. Every entry is the same `points[i].dist(points[j])`
    /// expression regardless of thread count, so the resulting matrix is
    /// bit-identical to a sequential build.
    pub fn from_points(points: &[Point]) -> Self {
        let n = points.len();
        let mut sp = mdg_obs::span("distmat");
        sp.add_items((n.saturating_sub(1) * n / 2) as u64);
        const ROW_BLOCK: usize = 64;
        let mut data = vec![0.0; n * n];
        mdg_par::par_chunks_mut(&mut data, ROW_BLOCK * n.max(1), |start, rows| {
            for (k, row) in rows.chunks_exact_mut(n).enumerate() {
                let i = start / n + k;
                let p = points[i];
                for (d, &q) in row[i + 1..].iter_mut().zip(&points[i + 1..]) {
                    *d = p.dist(q);
                }
            }
        });
        mirror_upper(&mut data, n);
        DistMatrix { n, data }
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance between `i` and `j` (0 when `i == j`).
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        // The flat index alone would let `get(0, n)` read row 1.
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j]
    }

    /// The largest pairwise distance (0 for n < 2).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }
}

/// Copies the upper triangle of the row-major `n × n` square `data` into
/// its lower triangle.
fn mirror_upper(data: &mut [f64], n: usize) {
    for i in 1..n {
        let (above, row) = data.split_at_mut(i * n);
        for (j, d) in row[..i].iter_mut().enumerate() {
            *d = above[j * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn unit_square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ]
    }

    #[test]
    fn matches_pairwise_distances() {
        // 150 points span three 64-row blocks, the last one partial; both
        // triangles and the zero diagonal must equal `Point::dist`.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let pts: Vec<Point> = (0..150)
            .map(|_| Point::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3)))
            .collect();
        let m = DistMatrix::from_points(&pts);
        assert_eq!(m.n(), 150);
        for i in 0..pts.len() {
            assert_eq!(m.get(i, i).to_bits(), 0, "diagonal ({i},{i})");
            for j in 0..pts.len() {
                assert_eq!(
                    m.get(i, j).to_bits(),
                    pts[i].dist(pts[j]).to_bits(),
                    "entry ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn symmetry_and_zero_diagonal() {
        let pts = unit_square();
        let m = DistMatrix::from_points(&pts);
        for i in 0..4 {
            assert!(approx_eq(m.get(i, i), 0.0));
            for j in 0..4 {
                assert!(approx_eq(m.get(i, j), m.get(j, i)));
            }
        }
    }

    #[test]
    fn max_is_diagonal_of_square() {
        let m = DistMatrix::from_points(&unit_square());
        assert!(approx_eq(m.max(), 2.0_f64.sqrt()));
    }

    #[test]
    fn tiny_matrices() {
        let m = DistMatrix::from_points(&[]);
        assert_eq!(m.n(), 0);
        assert!(approx_eq(m.max(), 0.0));
        let m1 = DistMatrix::from_points(&[Point::ORIGIN]);
        assert_eq!(m1.n(), 1);
        assert!(approx_eq(m1.get(0, 0), 0.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let m = DistMatrix::from_points(&unit_square());
        m.get(0, 4);
    }
}
