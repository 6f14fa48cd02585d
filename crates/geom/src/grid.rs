//! Uniform spatial hash grid for fixed-radius neighbor queries.
//!
//! Unit-disk graph construction over `N` sensors is the single hottest
//! substrate operation in the experiment sweeps (it runs once per replicate
//! per data point, 500+ times per figure). A uniform grid with cell size
//! equal to the query radius turns the naive `O(N²)` pairwise scan into an
//! expected `O(N · k)` scan of the 3×3 cell neighborhood, where `k` is the
//! local density.

use crate::bbox::Aabb;
use crate::point::Point;

/// A uniform grid over a point set, bucketing point indices by cell.
///
/// The grid is immutable after construction; rebuild it if the point set
/// changes (deployments are static for the lifetime of an experiment).
///
/// ```
/// use mdg_geom::{Point, SpatialGrid};
///
/// let pts = [Point::new(0.0, 0.0), Point::new(5.0, 0.0), Point::new(50.0, 50.0)];
/// let grid = SpatialGrid::build(&pts, 10.0);
/// let mut near = grid.neighbors_within(Point::new(1.0, 0.0), 10.0);
/// near.sort_unstable();
/// assert_eq!(near, vec![0, 1]);
/// assert_eq!(grid.k_nearest(Point::new(40.0, 40.0), 1, None), vec![2]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    cols: usize,
    rows: usize,
    origin: Point,
    /// CSR-style bucket layout: `starts[c]..starts[c+1]` indexes into `items`.
    starts: Vec<u32>,
    items: Vec<u32>,
    /// Coordinates in **item-slot order** (`xs[s]`/`ys[s]` pair with
    /// `items[s]`), not original index order: a bucket scan walks two
    /// contiguous `f64` runs instead of pointer-chasing an AoS `Point`
    /// array through the `items` indirection. The permuted SoA layout is
    /// what makes `for_each_within` stream.
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl SpatialGrid {
    /// Builds a grid over `points` with cells of size `cell` (typically the
    /// radio transmission range).
    ///
    /// # Panics
    /// Panics if `cell` is not strictly positive and finite.
    pub fn build(points: &[Point], cell: f64) -> Self {
        assert!(
            cell > 0.0 && cell.is_finite(),
            "cell size must be positive and finite"
        );
        // A budget of ~4 buckets per point. Queries stay correct for any
        // cell size because the scan radius is computed from
        // `radius / cell`.
        let (origin, cell, cols, rows) = lattice(points, cell, (4 * points.len()).max(64));
        let ncells = cols * rows;

        // Two-pass counting sort into CSR buckets.
        let mut counts = vec![0u32; ncells + 1];
        let cell_of = |p: Point| -> usize {
            let cx = (((p.x - origin.x) / cell).floor() as usize).min(cols - 1);
            let cy = (((p.y - origin.y) / cell).floor() as usize).min(rows - 1);
            cy * cols + cx
        };
        for &p in points {
            counts[cell_of(p) + 1] += 1;
        }
        for i in 0..ncells {
            counts[i + 1] += counts[i];
        }
        let starts = counts.clone();
        let mut cursor = counts;
        let mut items = vec![0u32; points.len()];
        for (i, &p) in points.iter().enumerate() {
            let c = cell_of(p);
            items[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }

        let mut xs = Vec::with_capacity(items.len());
        let mut ys = Vec::with_capacity(items.len());
        for &i in &items {
            let p = points[i as usize];
            xs.push(p.x);
            ys.push(p.y);
        }

        SpatialGrid {
            cell,
            cols,
            rows,
            origin,
            starts,
            items,
            xs,
            ys,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the grid indexes no points.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns `true` if `other` lays its cells on the same lattice: the
    /// same origin and cell side, compared bit for bit, and the same
    /// column and row counts. A point then lands in the same cell of both
    /// grids, and a query scans the same cells in the same order.
    pub fn same_lattice(&self, other: &SpatialGrid) -> bool {
        self.cell.to_bits() == other.cell.to_bits()
            && self.origin.x.to_bits() == other.origin.x.to_bits()
            && self.origin.y.to_bits() == other.origin.y.to_bits()
            && (self.cols, self.rows) == (other.cols, other.rows)
    }

    /// Indices of all points within `radius` of `query`, excluding none.
    /// `radius` must be ≤ the cell size for the 3×3 neighborhood scan to be
    /// exhaustive; larger radii scan proportionally more cells and remain
    /// correct.
    pub fn neighbors_within(&self, query: Point, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_within(query, radius, |i| out.push(i));
        out
    }

    /// Visits the index of every point within `radius` of `query`.
    pub fn for_each_within<F: FnMut(u32)>(&self, query: Point, radius: f64, mut f: F) {
        self.for_each_within_d(query, radius, |i, _| f(i));
    }

    /// Visits `(index, dist_sq)` of every point within `radius` of `query`
    /// — the distance is already computed for the filter, so callers that
    /// need it (k-NN) avoid a second scan of the point data.
    pub fn for_each_within_d<F: FnMut(u32, f64)>(&self, query: Point, radius: f64, mut f: F) {
        if self.items.is_empty() {
            return;
        }
        let r_sq = radius * radius;
        let reach = (radius / self.cell).ceil() as i64;
        let qcx = ((query.x - self.origin.x) / self.cell).floor() as i64;
        let qcy = ((query.y - self.origin.y) / self.cell).floor() as i64;
        for cy in (qcy - reach)..=(qcy + reach) {
            if cy < 0 || cy >= self.rows as i64 {
                continue;
            }
            for cx in (qcx - reach)..=(qcx + reach) {
                if cx < 0 || cx >= self.cols as i64 {
                    continue;
                }
                let c = cy as usize * self.cols + cx as usize;
                let lo = self.starts[c] as usize;
                let hi = self.starts[c + 1] as usize;
                // Slot-order scan: xs/ys stream contiguously; `items` is
                // only touched for the (rarer) hits.
                for s in lo..hi {
                    let d = Point::new(self.xs[s], self.ys[s]).dist_sq(query);
                    if d <= r_sq {
                        f(self.items[s], d);
                    }
                }
            }
        }
    }

    /// Indices of the `k` points nearest to `query`, sorted by ascending
    /// distance (ties broken by ascending index), excluding `exclude` if
    /// given (typically the query point's own index). Returns fewer than
    /// `k` entries only when the grid holds fewer points.
    ///
    /// Expands the scan ring geometrically until the `k`-th hit is
    /// confirmed inside the scanned radius, so the expected cost is
    /// `O(k + local density)` for uniform fields.
    pub fn k_nearest(&self, query: Point, k: usize, exclude: Option<u32>) -> Vec<u32> {
        let mut hits = Vec::new();
        let mut out = Vec::new();
        self.k_nearest_into(query, k, exclude, &mut hits, &mut out);
        out
    }

    /// [`SpatialGrid::k_nearest`] into caller-owned buffers: `out`
    /// receives the result (cleared first) and `hits` is distance-scratch
    /// whose contents are meaningless afterwards. Reusing both across a
    /// build loop removes the two allocations per query that dominated
    /// k-NN list construction.
    pub fn k_nearest_into(
        &self,
        query: Point,
        k: usize,
        exclude: Option<u32>,
        hits: &mut Vec<(f64, u32)>,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let available = self.items.len() - usize::from(exclude.is_some() && !self.items.is_empty());
        let want = k.min(available);
        if want == 0 {
            return;
        }
        let mut radius = self.cell;
        loop {
            hits.clear();
            self.for_each_within_d(query, radius, |i, d| {
                if exclude != Some(i) {
                    hits.push((d, i));
                }
            });
            if hits.len() >= want {
                hits.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                hits.truncate(want);
                // The k-th hit is only confirmed nearest once it lies inside
                // the scanned ring: every unscanned point is farther than
                // `radius`, hence farther than the k-th hit.
                if hits[want - 1].0.sqrt() <= radius {
                    out.extend(hits.iter().map(|&(_, i)| i));
                    return;
                }
            }
            // Doubling terminates: once `radius` exceeds the distance to the
            // farthest indexed point, all points are hits and confirmed.
            radius *= 2.0;
        }
    }
}

/// Sizes a lattice of square cells over the bounding box of `points`, for
/// [`SpatialGrid`] and [`crate::Tiling`] alike. Returns the box's
/// bottom-left corner, the cell side, and the column and row counts.
///
/// The requested `cell` is a lower bound: it grows until the lattice has
/// at most `3 · max_cells + 1` cells, because a cell far smaller than the
/// point spacing only wastes memory (a 1 mm radio range over a 300 m field
/// must not allocate 10¹¹ buckets). The area bound alone vanishes on a
/// collinear field (zero area), so each axis is bounded too.
pub(crate) fn lattice(points: &[Point], cell: f64, max_cells: usize) -> (Point, f64, usize, usize) {
    let bb = Aabb::from_points(points).unwrap_or(Aabb {
        min: Point::ORIGIN,
        max: Point::ORIGIN,
    });
    let min_cell = (bb.width().max(1e-12) * bb.height().max(1e-12) / max_cells as f64).sqrt();
    let cell = cell
        .max(min_cell)
        .max(bb.width() / max_cells as f64)
        .max(bb.height() / max_cells as f64);
    let cols = ((bb.width() / cell).floor() as usize + 1).max(1);
    let rows = ((bb.height() / cell).floor() as usize + 1).max(1);
    cols.checked_mul(rows)
        .expect("lattice cell count is bounded by the point count");
    (bb.min, cell, cols, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(5.2, 5.1),
            Point::new(20.0, 20.0),
        ]
    }

    #[test]
    fn neighbors_match_brute_force() {
        let pts = cluster();
        let grid = SpatialGrid::build(&pts, 3.0);
        for &q in &pts {
            for &r in &[0.5, 1.0, 3.0, 7.5, 100.0] {
                let mut got = grid.neighbors_within(q, r);
                got.sort_unstable();
                let mut want: Vec<u32> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.dist(q) <= r)
                    .map(|(i, _)| i as u32)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "query {q} radius {r}");
            }
        }
    }

    #[test]
    fn radius_larger_than_cell_is_exhaustive() {
        let pts: Vec<Point> = (0..50).map(|i| Point::new(i as f64, 0.0)).collect();
        let grid = SpatialGrid::build(&pts, 1.0);
        let found = grid.neighbors_within(Point::new(25.0, 0.0), 10.0);
        assert_eq!(found.len(), 21, "±10 around 25 inclusive");
    }

    #[test]
    fn empty_grid() {
        let grid = SpatialGrid::build(&[], 1.0);
        assert!(grid.is_empty());
        assert!(grid.neighbors_within(Point::ORIGIN, 10.0).is_empty());
        assert!(grid.k_nearest(Point::ORIGIN, 1, None).is_empty());
    }

    #[test]
    fn single_point_grid() {
        let grid = SpatialGrid::build(&[Point::new(3.0, 4.0)], 2.0);
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.k_nearest(Point::ORIGIN, 1, None), vec![0]);
        assert_eq!(grid.neighbors_within(Point::ORIGIN, 5.0), vec![0]);
        assert!(grid.neighbors_within(Point::ORIGIN, 4.9).is_empty());
    }

    #[test]
    fn collinear_points_keep_the_grid_linear() {
        // 600 points on a line, 60 m apart, with a nanometre cell: the
        // area-only cap vanished on zero area and asked for 37 GB.
        let pts: Vec<Point> = (0..600).map(|i| Point::new(i as f64 * 60.0, 0.0)).collect();
        let grid = SpatialGrid::build(&pts, 1e-9);
        let max_cells = 4 * pts.len();
        assert!(grid.cols * grid.rows <= 3 * max_cells + 1);
        assert_eq!(grid.len(), 600);
        let mut near = grid.neighbors_within(Point::new(120.0, 0.0), 60.0);
        near.sort_unstable();
        assert_eq!(near, vec![1, 2, 3]);
        assert_eq!(grid.k_nearest(Point::new(1000.0, 5.0), 1, None), vec![17]);
        assert_eq!(
            grid.k_nearest(Point::new(0.0, 0.0), 3, Some(0)),
            vec![1, 2, 3]
        );

        // The same line on the y axis.
        let pts: Vec<Point> = pts.iter().map(|p| Point::new(0.0, p.x)).collect();
        let grid = SpatialGrid::build(&pts, 1e-9);
        assert!(grid.cols * grid.rows <= 3 * max_cells + 1);
        assert_eq!(grid.k_nearest(Point::new(5.0, 1000.0), 1, None), vec![17]);
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_panics() {
        SpatialGrid::build(&[Point::ORIGIN], 0.0);
    }

    fn brute_k_nearest(pts: &[Point], q: Point, k: usize, exclude: Option<u32>) -> Vec<u32> {
        let mut all: Vec<(f64, u32)> = pts
            .iter()
            .enumerate()
            .filter(|(i, _)| exclude != Some(*i as u32))
            .map(|(i, p)| (p.dist_sq(q), i as u32))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all.into_iter().map(|(_, i)| i).collect()
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        // Deterministic pseudo-random scatter (LCG) over a 100 m square.
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0
        };
        let pts: Vec<Point> = (0..80).map(|_| Point::new(next(), next())).collect();
        let grid = SpatialGrid::build(&pts, 10.0);
        for qi in [0usize, 7, 33, 79] {
            for k in [1usize, 3, 8, 80, 200] {
                let got = grid.k_nearest(pts[qi], k, Some(qi as u32));
                let want = brute_k_nearest(&pts, pts[qi], k, Some(qi as u32));
                assert_eq!(got, want, "query {qi} k {k}");
            }
        }
        // Without exclusion the query point itself leads the list.
        assert_eq!(grid.k_nearest(pts[5], 1, None), vec![5]);
    }

    #[test]
    fn k_nearest_far_outside_extent() {
        let pts = cluster();
        let grid = SpatialGrid::build(&pts, 3.0);
        let q = Point::new(-500.0, -500.0);
        assert_eq!(
            grid.k_nearest(q, 2, None),
            brute_k_nearest(&pts, q, 2, None)
        );
    }

    #[test]
    fn k_nearest_empty_and_tiny() {
        let empty = SpatialGrid::build(&[], 1.0);
        assert!(empty.k_nearest(Point::ORIGIN, 3, None).is_empty());
        let single = SpatialGrid::build(&[Point::new(3.0, 4.0)], 2.0);
        assert_eq!(single.k_nearest(Point::ORIGIN, 5, None), vec![0]);
        assert!(single.k_nearest(Point::ORIGIN, 5, Some(0)).is_empty());
    }

    #[test]
    fn k_nearest_k_at_least_n_returns_everything_sorted() {
        let pts = cluster();
        let grid = SpatialGrid::build(&pts, 3.0);
        let q = Point::new(4.0, 4.0);
        // k == n, k == n+1 and k >> n all return the full set in the same
        // distance-then-index order.
        let want = brute_k_nearest(&pts, q, pts.len(), None);
        for k in [pts.len(), pts.len() + 1, 10 * pts.len()] {
            assert_eq!(grid.k_nearest(q, k, None), want, "k = {k}");
        }
        // With an exclusion, k >= n yields exactly n - 1 hits.
        let got = grid.k_nearest(q, pts.len() + 3, Some(2));
        assert_eq!(got.len(), pts.len() - 1);
        assert!(!got.contains(&2));
    }

    #[test]
    fn k_nearest_k_zero_is_empty() {
        let pts = cluster();
        let grid = SpatialGrid::build(&pts, 3.0);
        assert!(grid.k_nearest(Point::ORIGIN, 0, None).is_empty());
        assert!(grid.k_nearest(Point::ORIGIN, 0, Some(0)).is_empty());
        assert!(grid.k_nearest(Point::new(-500.0, 80.0), 0, None).is_empty());
    }

    #[test]
    fn k_nearest_duplicate_and_colocated_points() {
        // Three copies of the same point plus two distinct ones: exact
        // distance ties must resolve by ascending index, and an excluded
        // duplicate must not drag its co-located twins out with it.
        let pts = vec![
            Point::new(5.0, 5.0),
            Point::new(5.0, 5.0),
            Point::new(5.0, 5.0),
            Point::new(6.0, 5.0),
            Point::new(50.0, 50.0),
        ];
        let grid = SpatialGrid::build(&pts, 2.0);
        let q = Point::new(5.0, 5.0);
        assert_eq!(grid.k_nearest(q, 3, None), vec![0, 1, 2]);
        assert_eq!(grid.k_nearest(q, 3, Some(1)), vec![0, 2, 3]);
        assert_eq!(
            grid.k_nearest(q, 5, Some(0)),
            brute_k_nearest(&pts, q, 5, Some(0))
        );
        // Querying from a co-located duplicate's own index behaves like any
        // other exclusion.
        assert_eq!(grid.k_nearest(pts[2], 2, Some(2)), vec![0, 1]);
    }

    #[test]
    fn k_nearest_queries_outside_grid_bounds() {
        let pts = cluster();
        let grid = SpatialGrid::build(&pts, 3.0);
        // Queries beyond every edge and corner of the indexed extent: the
        // ring expansion must still find the true k nearest.
        for q in [
            Point::new(-40.0, 10.0),
            Point::new(60.0, 10.0),
            Point::new(10.0, -40.0),
            Point::new(10.0, 60.0),
            Point::new(-300.0, 700.0),
            Point::new(1e4, 1e4),
        ] {
            for k in [1usize, 2, 5] {
                assert_eq!(
                    grid.k_nearest(q, k, None),
                    brute_k_nearest(&pts, q, k, None),
                    "query {q} k {k}"
                );
            }
        }
    }
}
