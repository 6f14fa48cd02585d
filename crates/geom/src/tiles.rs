//! Square tiling of a field for hierarchical (divide-and-conquer)
//! planning.
//!
//! Where [`crate::grid::SpatialGrid`] buckets points for *neighbor
//! queries* (cells sized to the query radius), [`Tiling`] lays coarse
//! square tiles over the field so that each tile can be planned as an
//! independent sub-problem. A tiling is the lattice alone: it maps a
//! position to its tile and a tile to its center, and it orders the
//! tiles. It keeps no membership; a planner that needs each tile's points
//! groups them with [`Tiling::tile_of`].

use crate::grid::lattice;
use crate::point::Point;

/// A row-major lattice of square tiles over a point set's bounding box.
///
/// Every position maps to exactly one tile: the half-open cell
/// `[k·side, (k+1)·side)` that contains it, with the top/right edges
/// clamped into the last row/column. Tiles are indexed row-major from the
/// bottom-left corner of the bounding box.
///
/// ```
/// use mdg_geom::{Point, Tiling};
///
/// let pts = [Point::new(0.0, 0.0), Point::new(95.0, 5.0), Point::new(5.0, 95.0)];
/// let tiling = Tiling::build(&pts, 50.0);
/// assert_eq!(tiling.n_tiles(), 4);
/// assert_eq!(tiling.tile_of(pts[0]), 0);
/// assert_eq!(tiling.tile_of(pts[1]), 1);
/// assert_eq!(tiling.tile_of(pts[2]), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Tiling {
    side: f64,
    cols: usize,
    rows: usize,
    origin: Point,
}

impl Tiling {
    /// Lays square tiles of the given `side` length over the bounding box
    /// of `points`.
    ///
    /// The requested side is a lower bound: the side grows until there are
    /// at most `3 · max(n, 64) + 1` tiles, sized like
    /// [`crate::SpatialGrid`]'s cells (by area and along each axis), so a
    /// tiny side over a huge or collinear field cannot allocate an absurd
    /// lattice.
    ///
    /// # Panics
    /// Panics if `side` is not strictly positive and finite.
    pub fn build(points: &[Point], side: f64) -> Self {
        assert!(
            side > 0.0 && side.is_finite(),
            "tile side must be positive and finite"
        );
        let (origin, side, cols, rows) = lattice(points, side, points.len().max(64));
        Tiling {
            side,
            cols,
            rows,
            origin,
        }
    }

    /// The tile that owns position `p`: the half-open lattice cell
    /// containing it, clamped into the lattice for positions on (or
    /// beyond) the top/right edges of the bounding box the tiling was
    /// built from. It extends to *new* positions (sensors added after the
    /// tiling was built), which is what lets an incremental planner route
    /// a delta to its dirty tile.
    pub fn tile_of(&self, p: Point) -> usize {
        let tx = (((p.x - self.origin.x) / self.side).floor() as usize).min(self.cols - 1);
        let ty = (((p.y - self.origin.y) / self.side).floor() as usize).min(self.rows - 1);
        ty * self.cols + tx
    }

    /// The effective tile side length (≥ the requested side when the
    /// tile-count cap kicked in).
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Number of tile columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of tile rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of tiles (including empty ones).
    pub fn n_tiles(&self) -> usize {
        self.cols * self.rows
    }

    /// Center of tile `t` in field coordinates.
    pub fn tile_center(&self, t: usize) -> Point {
        let tx = t % self.cols;
        let ty = t / self.cols;
        Point::new(
            self.origin.x + (tx as f64 + 0.5) * self.side,
            self.origin.y + (ty as f64 + 0.5) * self.side,
        )
    }

    /// Tiles in boustrophedon (serpentine) order: row 0 left-to-right,
    /// row 1 right-to-left, and so on. Consecutive tiles in this order are
    /// lattice neighbors, which keeps the seams short when sub-tours are
    /// concatenated along it.
    pub fn serpentine(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows).flat_map(move |r| {
            let base = r * self.cols;
            (0..self.cols).map(move |c| {
                if r % 2 == 0 {
                    base + c
                } else {
                    base + (self.cols - 1 - c)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn points_map_to_their_cells_and_edges_clamp_inward() {
        let points = pts(&[
            (0.0, 0.0),
            (10.0, 10.0),
            (99.0, 1.0),
            (1.0, 99.0),
            (99.0, 99.0),
            (50.0, 50.0),
        ]);
        let tiling = Tiling::build(&points, 25.0);
        assert_eq!((tiling.cols(), tiling.rows()), (4, 4));
        let tiles: Vec<usize> = points.iter().map(|&p| tiling.tile_of(p)).collect();
        assert_eq!(tiles, vec![0, 0, 3, 12, 15, 10]);
        // Positions past the top/right edge of the box clamp into the
        // last column and row.
        assert_eq!(tiling.tile_of(Point::new(500.0, 0.0)), 3);
        assert_eq!(tiling.tile_of(Point::new(0.0, 500.0)), 12);
    }

    #[test]
    fn serpentine_visits_every_tile_once_and_alternates() {
        let points = pts(&[(0.0, 0.0), (299.0, 299.0)]);
        let tiling = Tiling::build(&points, 100.0);
        assert_eq!((tiling.cols(), tiling.rows()), (3, 3));
        let order: Vec<usize> = tiling.serpentine().collect();
        assert_eq!(order, vec![0, 1, 2, 5, 4, 3, 6, 7, 8]);
    }

    #[test]
    fn tiny_side_is_capped_like_spatial_grid() {
        let points = pts(&[(0.0, 0.0), (300.0, 300.0), (150.0, 10.0)]);
        let tiling = Tiling::build(&points, 1e-6);
        assert!(tiling.n_tiles() <= 2 * points.len().max(64));
        assert!(tiling.side() > 1e-6);
    }

    #[test]
    fn degenerate_point_sets_build_a_single_tile() {
        for points in [vec![], pts(&[(5.0, 5.0)]), pts(&[(5.0, 5.0), (5.0, 5.0)])] {
            let tiling = Tiling::build(&points, 10.0);
            assert_eq!(tiling.n_tiles(), 1);
            assert!(points.iter().all(|&p| tiling.tile_of(p) == 0));
        }
    }

    #[test]
    fn tile_centers_sit_inside_their_tiles() {
        let points = pts(&[(0.0, 0.0), (100.0, 70.0)]);
        let tiling = Tiling::build(&points, 30.0);
        for t in 0..tiling.n_tiles() {
            let c = tiling.tile_center(t);
            let tx = (((c.x - 0.0) / tiling.side()).floor() as usize).min(tiling.cols() - 1);
            let ty = (((c.y - 0.0) / tiling.side()).floor() as usize).min(tiling.rows() - 1);
            assert_eq!(ty * tiling.cols() + tx, t);
        }
    }
}
