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
use std::ops::Range;

/// Slots one hit mask compares: a bit of a `u64` each.
const MASK_SLOTS: usize = 64;

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
    ///
    /// Hits arrive row by row of the cell window, rows ascending and slots
    /// ascending within a row: the unit-disk graph's row order and every
    /// coverage set are read in this order, so it is part of the output.
    pub fn for_each_within_d<F: FnMut(u32, f64)>(&self, query: Point, radius: f64, mut f: F) {
        let r_sq = radius * radius;
        for run in self.row_runs(query, radius) {
            let (xs, ys) = (&self.xs[run.clone()], &self.ys[run.clone()]);
            let items = &self.items[run];
            let chunks = xs.chunks(MASK_SLOTS).zip(ys.chunks(MASK_SLOTS));
            for ((xs, ys), items) in chunks.zip(items.chunks(MASK_SLOTS)) {
                let mut mask = hit_mask(xs, ys, query, r_sq);
                while mask != 0 {
                    let k = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    f(items[k], Point::new(xs[k], ys[k]).dist_sq(query));
                }
            }
        }
    }

    /// Number of points within `radius` of `query`: the hits
    /// [`SpatialGrid::for_each_within_d`] would visit, counted without
    /// visiting them.
    pub fn count_within(&self, query: Point, radius: f64) -> usize {
        let r_sq = radius * radius;
        self.row_runs(query, radius)
            .map(|run| {
                let (xs, ys) = (&self.xs[run.clone()], &self.ys[run]);
                xs.iter()
                    .zip(ys)
                    .map(|(&x, &y)| usize::from(Point::new(x, y).dist_sq(query) <= r_sq))
                    .sum::<usize>()
            })
            .sum()
    }

    /// The slot runs a query of `radius` around `query` scans, one per
    /// lattice row of its cell window, rows ascending. The window reaches
    /// `ceil(radius / cell)` cells each way and is clamped to the lattice
    /// before any cell is visited; a row's cells are adjacent buckets, so
    /// its part of the window is one run of `starts`.
    fn row_runs(&self, query: Point, radius: f64) -> impl Iterator<Item = Range<usize>> + '_ {
        let reach = (radius / self.cell).ceil() as i64;
        // The cells `lo..hi` of one axis, empty when the window misses the
        // lattice. Saturating, so a query at any distance, and a ring any
        // wide, costs no more than the lattice.
        let window = |q: f64, origin: f64, len: usize| {
            let c = ((q - origin) / self.cell).floor() as i64;
            let lo = c.saturating_sub(reach).max(0);
            let hi = c.saturating_add(reach).min(len as i64 - 1);
            lo as usize..(hi + 1).max(lo) as usize
        };
        let cols = window(query.x, self.origin.x, self.cols);
        let rows = window(query.y, self.origin.y, self.rows);
        let rows = if cols.is_empty() { 0..0 } else { rows };
        rows.map(move |cy| {
            let row = cy * self.cols;
            self.starts[row + cols.start] as usize..self.starts[row + cols.end] as usize
        })
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

/// Bit `k` is set iff slot `k` of the chunk lies within `r_sq` of
/// `query`: every slot is compared, and no branch depends on the data.
#[inline]
fn hit_mask(xs: &[f64], ys: &[f64], query: Point, r_sq: f64) -> u64 {
    debug_assert!(xs.len() <= MASK_SLOTS);
    xs.iter()
        .zip(ys)
        .enumerate()
        .fold(0, |mask, (k, (&x, &y))| {
            mask | u64::from(Point::new(x, y).dist_sq(query) <= r_sq) << k
        })
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

    /// Deterministic pseudo-random scatter (LCG) of `n` points over a
    /// `side` m square.
    fn scatter(n: usize, side: f64, seed: u64) -> Vec<Point> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * side
        };
        (0..n).map(|_| Point::new(next(), next())).collect()
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let pts = scatter(80, 100.0, 12345);
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

    impl SpatialGrid {
        /// The cell-by-cell scan: every cell of the window in turn, a
        /// branch per slot. The oracle for the kernel's hits, their order
        /// and their distance bits.
        fn for_each_within_reference<F: FnMut(u32, f64)>(
            &self,
            query: Point,
            radius: f64,
            mut f: F,
        ) {
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
                    for s in self.starts[c] as usize..self.starts[c + 1] as usize {
                        let d = Point::new(self.xs[s], self.ys[s]).dist_sq(query);
                        if d <= r_sq {
                            f(self.items[s], d);
                        }
                    }
                }
            }
        }
    }

    /// Asserts that `for_each_within_d` visits the reference's
    /// `(index, dist² bits)` sequence at `query` and that `count_within`
    /// counts it. Returns the hit count.
    fn assert_kernel_matches(grid: &SpatialGrid, query: Point, radius: f64) -> usize {
        let mut want = Vec::new();
        grid.for_each_within_reference(query, radius, |i, d| want.push((i, d.to_bits())));
        let mut got = Vec::new();
        grid.for_each_within_d(query, radius, |i, d| got.push((i, d.to_bits())));
        assert_eq!(got, want, "query {query} radius {radius}");
        assert_eq!(
            grid.count_within(query, radius),
            want.len(),
            "count at query {query} radius {radius}"
        );
        want.len()
    }

    /// Radii of half a cell up to three cells of `grid`'s own side, which
    /// the lattice may have grown past the requested one.
    fn radii(grid: &SpatialGrid) -> [f64; 5] {
        let c = grid.cell;
        [0.5 * c, 0.999 * c, c, 2.0 * c, 3.0 * c]
    }

    #[test]
    fn kernel_matches_the_cell_scan_on_uniform_fields() {
        for (n, side, cell, seed) in [
            (2_000, 300.0, 10.0, 1),
            (500, 100.0, 3.0, 2),
            (3_000, 1_000.0, 30.0, 3),
        ] {
            let pts = scatter(n, side, seed);
            let grid = SpatialGrid::build(&pts, cell);
            let probes = scatter(200, 1.4 * side, seed + 100);
            let mut hits = 0;
            for r in radii(&grid) {
                for &q in pts.iter().step_by(7) {
                    hits += assert_kernel_matches(&grid, q, r);
                }
                for &q in &probes {
                    let q = Point::new(q.x - 0.2 * side, q.y - 0.2 * side);
                    hits += assert_kernel_matches(&grid, q, r);
                }
            }
            assert!(hits > n, "the queries hit something");
        }
    }

    #[test]
    fn kernel_matches_across_mask_boundaries() {
        // A blob packed into one cell makes one bucket, and so one row
        // run, longer than a mask: hits fall on both sides of each
        // 64-slot boundary and on its last bit. The origin is pinned at
        // (0, 0), so the blob lies inside the cell [50, 55)².
        for blob in [64, 65, 128, 300] {
            let mut pts = scatter(400, 100.0, 7);
            pts.push(Point::ORIGIN);
            let centre = Point::new(51.0, 51.0);
            pts.extend(
                scatter(blob, 1.8, blob as u64)
                    .iter()
                    .map(|p| Point::new(50.1 + p.x, 50.1 + p.y)),
            );
            let grid = SpatialGrid::build(&pts, 5.0);
            assert!(grid.row_runs(centre, 1.0).any(|run| run.len() >= blob));
            assert!(assert_kernel_matches(&grid, centre, 1.5) >= blob);
            for r in radii(&grid).into_iter().chain([0.3]) {
                for &q in pts.iter().rev().take(blob).step_by(3) {
                    assert_kernel_matches(&grid, q, r);
                }
                for dx in [-4.0, -1.5, -0.6, 0.0, 0.7, 1.2, 4.5] {
                    assert_kernel_matches(&grid, Point::new(centre.x + dx, centre.y - dx), r);
                }
            }
        }
    }

    #[test]
    fn kernel_matches_outside_the_lattice() {
        let pts = scatter(300, 100.0, 11);
        let grid = SpatialGrid::build(&pts, 10.0);
        // Every side and corner, just beyond the edge, within a few cells
        // of it, and far away.
        let offsets = [-1e6, -25.0, -5.0, 50.0, 105.0, 125.0, 1e6];
        for &x in &offsets {
            for &y in &offsets {
                for r in radii(&grid).into_iter().chain([40.0, 1e3]) {
                    assert_kernel_matches(&grid, Point::new(x, y), r);
                }
            }
        }
        assert_kernel_matches(&grid, Point::new(f64::NAN, 50.0), 10.0);
        // The reference overflows its cell arithmetic at infinity; the
        // kernel finds nothing there, as a linear scan would.
        for q in [
            Point::new(f64::INFINITY, 50.0),
            Point::new(50.0, f64::NEG_INFINITY),
        ] {
            assert_eq!(grid.count_within(q, 10.0), 0);
            grid.for_each_within_d(q, 10.0, |i, _| panic!("hit {i} at infinity"));
        }
    }

    #[test]
    fn kernel_matches_on_single_row_and_single_column_lattices() {
        let line = scatter(500, 500.0, 5);
        for pts in [
            line.iter()
                .map(|p| Point::new(p.x, 0.0))
                .collect::<Vec<_>>(),
            line.iter().map(|p| Point::new(0.0, p.y)).collect(),
            line.iter().map(|p| Point::new(p.x, p.y / 100.0)).collect(),
        ] {
            let grid = SpatialGrid::build(&pts, 10.0);
            assert!(grid.rows == 1 || grid.cols == 1);
            for r in radii(&grid) {
                for &q in pts.iter().step_by(5) {
                    assert_kernel_matches(&grid, q, r);
                    assert_kernel_matches(&grid, Point::new(q.x + 3.0, q.y - 4.0), r);
                }
            }
        }
    }

    #[test]
    fn kernel_matches_on_an_integer_lattice_at_exactly_r() {
        // Pairs exactly R apart sit on the predicate's boundary (`≤`):
        // both scans must keep them.
        let pts: Vec<Point> = (0..16)
            .flat_map(|y| (0..16).map(move |x| Point::new(x as f64, y as f64)))
            .collect();
        for cell in [1.0, 2.0] {
            let grid = SpatialGrid::build(&pts, cell);
            for r in [1.0, 2.0, 3.0] {
                for &q in &pts {
                    assert_kernel_matches(&grid, q, r);
                }
            }
            // Itself and its four neighbours at exactly 1 m.
            assert_eq!(assert_kernel_matches(&grid, Point::new(7.0, 7.0), 1.0), 5);
        }
    }

    #[test]
    fn kernel_on_an_empty_grid_finds_nothing() {
        let grid = SpatialGrid::build(&[], 1.0);
        for q in [Point::ORIGIN, Point::new(-3.0, 2.0), Point::new(1e9, 1e9)] {
            assert_eq!(assert_kernel_matches(&grid, q, 5.0), 0);
        }
    }
}
