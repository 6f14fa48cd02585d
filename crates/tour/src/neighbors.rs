//! Neighbor-list local search: 2-opt and Or-opt restricted to k-nearest-
//! neighbor candidate moves, with don't-look bits.
//!
//! Full 2-opt examines all `O(n²)` edge pairs per sweep, which caps the
//! planner at a few thousand stops. The standard remedy (Bentley, "Fast
//! algorithms for geometric traveling salesman problems") is to only try
//! moves that create an edge to one of a city's `k` nearest neighbors:
//! since improving 2-opt moves must create at least one edge shorter than
//! an edge they remove, candidate lists sorted by distance plus the
//! `d(a,c) ≥ d(a,b)` prune lose almost nothing while cutting the sweep to
//! `O(n·k)`. Don't-look bits skip cities whose neighborhood has not
//! changed since they were last scanned, and segment reversals always flip
//! the shorter arc of the cyclic order, so a single move costs `O(n/2)`
//! worst case instead of `O(n)`.
//!
//! The entry point is [`improve_neighbors`], the large-instance analogue of
//! [`improve`](crate::improve::improve); [`NeighborLists`] is reusable
//! across calls on the same point set.

use crate::improve::{MAX_SEGMENT, MIN_GAIN};
use crate::tour::Tour;
use mdg_geom::{Point, SpatialGrid};
use std::collections::VecDeque;

/// Per-city k-nearest-neighbor candidate lists over one [`SpatialGrid`]
/// of the city coordinates, each row computed the first time a pass reads
/// it.
///
/// A row is a pure function of the points, `k` and the city's own index
/// (left out of its row), so the order of reads never changes a row: a
/// full sweep ends up computing every row, while a seeded pass computes
/// only the rows of the cities it visits — which is what keeps the
/// hierarchical planner's seam touch-up proportional to the seams.
/// Rows are sorted by ascending distance (ties by index), which the 2-opt
/// scan relies on for its early-exit prune.
#[derive(Debug, Clone)]
pub struct NeighborLists<'p> {
    points: &'p [Point],
    /// Grid over `points`; `None` when every row is empty.
    grid: Option<SpatialGrid>,
    /// Per-city list length: `min(k, n - 1)`.
    stride: usize,
    /// Flattened `n × stride` rows; row `i` is valid once `filled[i]`.
    flat: Vec<u32>,
    filled: Vec<bool>,
    /// Rows computed so far.
    computed: usize,
    /// Query scratch for [`SpatialGrid::k_nearest_into`].
    hits: Vec<(f64, u32)>,
    knn: Vec<u32>,
}

impl<'p> NeighborLists<'p> {
    /// Candidate lists of `k` nearest neighbors over `points`. Builds the
    /// grid only, with the cell sized to the mean point spacing so the
    /// expected cost of a row is `O(k)`; rows are computed on first read.
    pub fn build(points: &'p [Point], k: usize) -> Self {
        let n = points.len();
        let stride = k.min(n.saturating_sub(1));
        let grid = (stride > 0).then(|| {
            let mut sp = mdg_obs::span("knn_build");
            sp.add_items(n as u64);
            let bb = mdg_geom::Aabb::from_points(points).expect("non-empty point set");
            let area = (bb.width() * bb.height()).max(1e-12);
            let cell = (area / n as f64).sqrt().max(1e-9);
            SpatialGrid::build(points, cell)
        });
        NeighborLists {
            points,
            grid,
            stride,
            flat: vec![0; n * stride],
            filled: vec![false; n],
            computed: 0,
            hits: Vec::new(),
            knn: Vec::with_capacity(stride),
        }
    }

    /// The candidate list of city `i`, sorted by ascending distance;
    /// computed on the first call for `i`.
    pub fn neighbors(&mut self, i: usize) -> &[u32] {
        self.fill(i);
        self.row(i)
    }

    /// Neighbors kept per city.
    pub fn k(&self) -> usize {
        self.stride
    }

    /// Rows computed so far: how many cities the passes over these lists
    /// have read.
    pub fn rows_computed(&self) -> usize {
        self.computed
    }

    /// Computes row `i` unless it is already there.
    fn fill(&mut self, i: usize) {
        let Some(grid) = &self.grid else { return };
        if self.filled[i] {
            return;
        }
        grid.k_nearest_into(
            self.points[i],
            self.stride,
            Some(i as u32),
            &mut self.hits,
            &mut self.knn,
        );
        debug_assert_eq!(self.knn.len(), self.stride);
        self.flat[i * self.stride..(i + 1) * self.stride].copy_from_slice(&self.knn);
        self.filled[i] = true;
        self.computed += 1;
    }

    /// Row `i`, which [`NeighborLists::fill`] has computed.
    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        debug_assert!(
            self.stride == 0 || self.filled[i],
            "row {i} read before it was filled"
        );
        &self.flat[i * self.stride..(i + 1) * self.stride]
    }
}

/// Builds the initial work queue and queued-bit vector from `seeds`
/// (`None` = every city, in tour order).
fn seed_queue(order: &[usize], seeds: Option<&[usize]>) -> (VecDeque<u32>, Vec<bool>) {
    let n = order.len();
    let mut queue = VecDeque::new();
    let mut queued = vec![false; n];
    match seeds {
        None => {
            for &c in order {
                queued[c] = true;
                queue.push_back(c as u32);
            }
        }
        Some(cities) => {
            for &c in cities {
                if c < n && !queued[c] {
                    queued[c] = true;
                    queue.push_back(c as u32);
                }
            }
        }
    }
    (queue, queued)
}

/// The position table of `order`: `pos[city] = index in order`.
fn positions(order: &[usize]) -> Vec<u32> {
    let mut pos = vec![0; order.len()];
    for (p, &c) in order.iter().enumerate() {
        pos[c] = p as u32;
    }
    pos
}

/// Reverses the cyclic segment running forward from position `from` to
/// position `to` (inclusive), flipping whichever arc is shorter — for a
/// symmetric cost the two choices yield the same cyclic tour.
fn reverse_cyclic(order: &mut [usize], pos: &mut [u32], from: usize, to: usize) {
    let n = order.len();
    let len_fwd = (to + n - from) % n + 1;
    let (mut i, mut j, len) = if 2 * len_fwd <= n {
        (from, to, len_fwd)
    } else {
        ((to + 1) % n, (from + n - 1) % n, n - len_fwd)
    };
    for _ in 0..len / 2 {
        order.swap(i, j);
        pos[order[i]] = i as u32;
        pos[order[j]] = j as u32;
        i = if i + 1 == n { 0 } else { i + 1 };
        j = if j == 0 { n - 1 } else { j - 1 };
    }
}

/// Queue-driven neighbor-list 2-opt: processes cities off a work queue,
/// and whenever a move is applied, wakes the four affected cities. Returns
/// the total gain.
///
/// `seeds` selects the initial queue: `None` enqueues every city (a full
/// sweep); `Some(cities)` starts with only those cities' don't-look bits
/// cleared, so the search stays local to their neighborhoods — other
/// cities are examined only once a move wakes them.
fn two_opt_neighbors_pass(
    points: &[Point],
    nl: &mut NeighborLists,
    order: &mut [usize],
    pos: &mut [u32],
    seeds: Option<&[usize]>,
) -> f64 {
    let n = order.len();
    let mut total_gain = 0.0;
    if n < 4 || nl.k() == 0 {
        return 0.0;
    }
    let mut moves = 0u64;
    // The queue holds cities with their don't-look bit cleared; a city is
    // re-examined only after a move touches its tour neighborhood.
    let (mut queue, mut queued) = seed_queue(order, seeds);
    while let Some(a) = queue.pop_front() {
        let a = a as usize;
        queued[a] = false;
        let mut moved = true;
        while moved {
            moved = false;
            // Scan both tour directions: `b` is the successor of `a` in the
            // chosen orientation, and the move replaces edges (a,b),(c,d)
            // with (a,c),(b,d) where d succeeds c in the same orientation.
            for fwd in [true, false] {
                let pa = pos[a] as usize;
                let b = if fwd {
                    order[(pa + 1) % n]
                } else {
                    order[(pa + n - 1) % n]
                };
                let d_ab = points[a].dist(points[b]);
                for &cu in nl.neighbors(a) {
                    let c = cu as usize;
                    let d_ac = points[a].dist(points[c]);
                    if d_ac >= d_ab {
                        // Candidates are sorted by distance: no move rooted
                        // at `a` further down the list can gain.
                        break;
                    }
                    let pc = pos[c] as usize;
                    let d = if fwd {
                        order[(pc + 1) % n]
                    } else {
                        order[(pc + n - 1) % n]
                    };
                    if c == b || d == a {
                        continue; // Degenerate: shares an edge with (a,b).
                    }
                    let gain = d_ab + points[c].dist(points[d]) - d_ac - points[b].dist(points[d]);
                    if gain > MIN_GAIN {
                        if fwd {
                            reverse_cyclic(order, pos, (pa + 1) % n, pc);
                        } else {
                            reverse_cyclic(order, pos, pa, (pc + n - 1) % n);
                        }
                        total_gain += gain;
                        moves += 1;
                        for city in [a, b, c, d] {
                            if !queued[city] {
                                queued[city] = true;
                                queue.push_back(city as u32);
                            }
                        }
                        moved = true;
                        break;
                    }
                }
                if moved {
                    break;
                }
            }
        }
    }
    mdg_obs::counter("improve/two_opt_moves").add(moves);
    total_gain
}

/// Queue-driven neighbor-list Or-opt: relocates segments of length
/// `1..=`[`MAX_SEGMENT`] (possibly reversed) to an insertion edge adjacent to
/// a k-nearest neighbor of one of the segment's endpoints. Returns the
/// total gain.
///
/// `seeds` selects the initial queue exactly as in
/// [`two_opt_neighbors_pass`]: `None` enqueues every city, `Some(cities)`
/// only those (out-of-range and duplicate entries ignored).
fn or_opt_neighbors_pass(
    points: &[Point],
    nl: &mut NeighborLists,
    order: &mut Vec<usize>,
    pos: &mut [u32],
    seeds: Option<&[usize]>,
) -> f64 {
    let n = order.len();
    let mut total_gain = 0.0;
    if n < 4 || nl.k() == 0 {
        return 0.0;
    }
    let max_segment = MAX_SEGMENT.min(n - 2).max(1);
    let (mut queue, mut queued) = seed_queue(order, seeds);
    let mut moves = 0u64;
    'cities: while let Some(first) = queue.pop_front() {
        let first = first as usize;
        queued[first] = false;
        for seg_len in 1..=max_segment {
            let start = pos[first] as usize;
            // Like the dense pass, skip segments that wrap position 0;
            // alternation with 2-opt re-exposes them under new rotations.
            if start + seg_len >= n || start == 0 {
                continue;
            }
            let prev = order[start - 1];
            let last = order[start + seg_len - 1];
            let next = order[(start + seg_len) % n];
            let removal_gain = points[prev].dist(points[first]) + points[last].dist(points[next])
                - points[prev].dist(points[next]);
            if removal_gain <= MIN_GAIN {
                continue;
            }
            // Insertion anchors: cities whose successor edge we would
            // split, drawn from the endpoints' candidate lists.
            nl.fill(first);
            nl.fill(last);
            let anchors = nl.row(first).iter().chain(nl.row(last).iter());
            for &eu in anchors {
                let e = eu as usize;
                let pe = pos[e] as usize;
                // The anchor edge must lie outside [prev .. next).
                if pe + 1 >= start && pe <= start + seg_len {
                    continue;
                }
                let f = order[(pe + 1) % n];
                let base = points[e].dist(points[f]);
                let fw = points[e].dist(points[first]) + points[last].dist(points[f]) - base;
                let rv = points[e].dist(points[last]) + points[first].dist(points[f]) - base;
                let (ins_cost, reversed) = if fw <= rv { (fw, false) } else { (rv, true) };
                let gain = removal_gain - ins_cost;
                if gain > MIN_GAIN {
                    let mut seg: Vec<usize> = order.drain(start..start + seg_len).collect();
                    if reversed {
                        seg.reverse();
                    }
                    let anchor = order
                        .iter()
                        .position(|&c| c == e)
                        .expect("anchor survives removal");
                    for (k, &c) in seg.iter().enumerate() {
                        order.insert(anchor + 1 + k, c);
                    }
                    for (p, &c) in order.iter().enumerate() {
                        pos[c] = p as u32;
                    }
                    total_gain += gain;
                    moves += 1;
                    for city in [prev, first, last, next, e, f] {
                        if !queued[city] {
                            queued[city] = true;
                            queue.push_back(city as u32);
                        }
                    }
                    // Re-examine this city from scratch.
                    if !queued[first] {
                        queued[first] = true;
                        queue.push_back(first as u32);
                    }
                    continue 'cities;
                }
            }
        }
    }
    mdg_obs::counter("improve/or_opt_moves").add(moves);
    total_gain
}

/// Seeded neighbor-list 2-opt over `points` (city `i` at `points[i]`):
/// like the 2-opt half of [`improve_neighbors`], but the work queue
/// starts from `seeds` (city indices) instead of every city, so the
/// search only examines those cities' neighborhoods — plus whatever a
/// successful move wakes up transitively. Never lengthens the tour.
///
/// This is the hierarchical stitcher's touch-up primitive: after per-tile
/// sub-tours are concatenated, only the cross-tile seam edges can be bad,
/// so seeding the seam vertices polishes the seams at a cost proportional
/// to the seams, not the tour. Out-of-range and duplicate seeds are
/// ignored; an empty seed list returns the tour unchanged (normalized).
pub fn two_opt_neighbors_seeded(
    points: &[Point],
    tour: Tour,
    nl: &mut NeighborLists,
    seeds: &[usize],
) -> Tour {
    let mut order = tour.into_order();
    let mut pos = positions(&order);
    two_opt_neighbors_pass(points, nl, &mut order, &mut pos, Some(seeds));
    Tour::from_order_unchecked(order).normalized()
}

/// Seeded neighbor-list Or-opt: like the Or-opt half of
/// [`improve_neighbors`], but the work queue starts from `seeds` (city
/// indices) instead of every city, so segment relocations are only tried
/// around those cities — plus whatever a successful move wakes up.
///
/// Companion to [`two_opt_neighbors_seeded`] for seam polishing in the
/// hierarchical stitcher: 2-opt uncrosses seam edges, Or-opt then pulls
/// stray 1–3 stop segments across a seam when the tile boundary split them
/// badly. Out-of-range and duplicate seeds are ignored; an empty seed list
/// returns the tour unchanged (normalized). Never lengthens the tour.
pub fn or_opt_neighbors_seeded(
    points: &[Point],
    tour: Tour,
    nl: &mut NeighborLists,
    seeds: &[usize],
) -> Tour {
    let mut order = tour.into_order();
    let mut pos = positions(&order);
    or_opt_neighbors_pass(points, nl, &mut order, &mut pos, Some(seeds));
    Tour::from_order_unchecked(order).normalized()
}

/// Neighbor-list analogue of [`improve`](crate::improve::improve):
/// alternates candidate-list 2-opt and Or-opt until neither gains or
/// `max_passes` rounds have run. This is the planner's polishing step for large
/// stop counts, where the dense passes are unaffordable.
///
/// ```
/// use mdg_geom::Point;
/// use mdg_tour::{improve_neighbors, EuclideanCost, NeighborLists, Tour};
///
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 1.0),
///     Point::new(1.0, 0.0),
///     Point::new(0.0, 1.0),
/// ];
/// let mut nl = NeighborLists::build(&pts, 3);
/// let t = improve_neighbors(&pts, Tour::new(vec![0, 1, 2, 3]), 64, &mut nl);
/// let cost = EuclideanCost::new(&pts);
/// assert!((t.length(&cost) - 4.0).abs() < 1e-9, "uncrossed square is optimal");
/// ```
pub fn improve_neighbors(
    points: &[Point],
    tour: Tour,
    max_passes: usize,
    nl: &mut NeighborLists,
) -> Tour {
    let mut order = tour.into_order();
    let n = order.len();
    let mut sp = mdg_obs::span("improve");
    sp.add_items(n as u64);
    let mut pos = positions(&order);
    for _ in 0..max_passes {
        let g1 = two_opt_neighbors_pass(points, nl, &mut order, &mut pos, None);
        let g2 = or_opt_neighbors_pass(points, nl, &mut order, &mut pos, None);
        if g1 + g2 <= MIN_GAIN {
            break;
        }
    }
    Tour::from_order_unchecked(order).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::nearest_neighbor;
    use crate::cost::EuclideanCost;
    use crate::improve::{improve, two_opt};
    use rand::{Rng, SeedableRng};

    /// The full (unseeded) neighbor-list 2-opt, as [`improve_neighbors`]
    /// runs it.
    fn two_opt_neighbors(points: &[Point], tour: Tour, nl: &mut NeighborLists) -> Tour {
        let mut order = tour.into_order();
        let mut pos = positions(&order);
        two_opt_neighbors_pass(points, nl, &mut order, &mut pos, None);
        Tour::from_order_unchecked(order).normalized()
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect()
    }

    #[test]
    fn lists_are_sorted_and_exclude_self() {
        let pts = random_points(50, 1);
        let mut nl = NeighborLists::build(&pts, 8);
        for (i, &p) in pts.iter().enumerate() {
            let ns = nl.neighbors(i);
            assert_eq!(ns.len(), 8);
            assert!(!ns.contains(&(i as u32)));
            for w in ns.windows(2) {
                assert!(
                    pts[w[0] as usize].dist(p) <= pts[w[1] as usize].dist(p),
                    "list must be sorted by distance"
                );
            }
        }
    }

    #[test]
    fn rows_on_demand_equal_the_eager_build_in_any_read_order() {
        // The eager fill rows used to come from: one query per city, in
        // city order, on the same mean-spacing grid.
        fn eager(pts: &[Point], k: usize) -> Vec<Vec<u32>> {
            let stride = k.min(pts.len().saturating_sub(1));
            if stride == 0 {
                return vec![Vec::new(); pts.len()];
            }
            let bb = mdg_geom::Aabb::from_points(pts).unwrap();
            let area = (bb.width() * bb.height()).max(1e-12);
            let grid = SpatialGrid::build(pts, (area / pts.len() as f64).sqrt().max(1e-9));
            (0..pts.len())
                .map(|i| grid.k_nearest(pts[i], stride, Some(i as u32)))
                .collect()
        }
        // Every other point, ordered by (squared distance, index).
        fn brute(pts: &[Point], i: usize, stride: usize) -> Vec<u32> {
            let mut all: Vec<(f64, u32)> = (0..pts.len())
                .filter(|&j| j != i)
                .map(|j| (pts[j].dist_sq(pts[i]), j as u32))
                .collect();
            all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            all.into_iter().take(stride).map(|(_, j)| j).collect()
        }
        let mut stacked = random_points(40, 8);
        stacked.extend([Point::new(50.0, 50.0); 12]);
        for (pts, k) in [
            (random_points(300, 2), 8usize),
            (random_points(300, 3), 1),
            (random_points(7, 4), 10),
            (stacked, 8),
        ] {
            let n = pts.len();
            let reference = eager(&pts, k);
            let stride = k.min(n - 1);
            // Forward, backward, and a scattered order that reads some
            // rows twice.
            let scattered: Vec<usize> = (0..2 * n).map(|j| (j * 7919 + 13) % n).collect();
            for order in [
                (0..n).collect::<Vec<_>>(),
                (0..n).rev().collect(),
                scattered,
            ] {
                let mut nl = NeighborLists::build(&pts, k);
                let mut seen = vec![false; n];
                for &i in &order {
                    assert_eq!(nl.neighbors(i), &reference[i][..], "n={n} k={k} row {i}");
                    assert_eq!(
                        nl.neighbors(i),
                        &brute(&pts, i, stride)[..],
                        "n={n} row {i}"
                    );
                    seen[i] = true;
                }
                let distinct = seen.iter().filter(|&&s| s).count();
                assert_eq!(nl.rows_computed(), distinct, "each row is computed once");
            }
        }
        // A lone point has no neighbors and computes no row.
        let one = [Point::new(1.0, 1.0)];
        let mut nl = NeighborLists::build(&one, 8);
        assert!(nl.neighbors(0).is_empty());
        assert_eq!((nl.k(), nl.rows_computed()), (0, 0));
    }

    #[test]
    fn seeded_passes_compute_rows_only_near_their_seeds() {
        // A 400-city identity tour around a circle is already optimal, so
        // no move wakes anything: each pass reads the rows of its seeds.
        let pts: Vec<Point> = (0..400)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 400.0;
                Point::new(500.0 * a.cos(), 500.0 * a.sin())
            })
            .collect();
        let mut nl = NeighborLists::build(&pts, 8);
        let t = two_opt_neighbors_seeded(&pts, Tour::identity(400), &mut nl, &[5, 200]);
        let t = or_opt_neighbors_seeded(&pts, t, &mut nl, &[5, 200]);
        assert_eq!(t.order(), Tour::identity(400).order());
        assert!(nl.rows_computed() <= 8, "{} rows", nl.rows_computed());
    }

    #[test]
    fn uncrosses_square() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        let mut nl = NeighborLists::build(&pts, 3);
        let fixed = two_opt_neighbors(&pts, Tour::new(vec![0, 1, 2, 3]), &mut nl);
        let cost = EuclideanCost::new(&pts);
        assert!((fixed.length(&cost) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn never_lengthens_and_preserves_permutation() {
        for seed in 0..10u64 {
            let pts = random_points(60, seed);
            let cost = EuclideanCost::new(&pts);
            let mut nl = NeighborLists::build(&pts, 10);
            let t0 = nearest_neighbor(&cost);
            let len0 = t0.length(&cost);
            let t1 = improve_neighbors(&pts, t0, 64, &mut nl);
            assert!(t1.length(&cost) <= len0 + 1e-9, "seed {seed}");
            let mut sorted = t1.order().to_vec();
            sorted.sort_unstable();
            assert!(sorted.iter().copied().eq(0..60), "seed {seed}");
        }
    }

    #[test]
    fn full_lists_track_dense_improve_quality() {
        // With k = n-1 the candidate lists are complete; the neighbor-list
        // search must land within a whisker of the dense one.
        for seed in [3u64, 17, 42] {
            let pts = random_points(40, seed);
            let cost = EuclideanCost::new(&pts);
            let mut nl = NeighborLists::build(&pts, 39);
            let t0 = nearest_neighbor(&cost);
            let dense = improve(&cost, t0.clone(), 64);
            let sparse = improve_neighbors(&pts, t0, 64, &mut nl);
            assert!(
                sparse.length(&cost) <= dense.length(&cost) * 1.05 + 1e-9,
                "seed {seed}: sparse {} vs dense {}",
                sparse.length(&cost),
                dense.length(&cost)
            );
        }
    }

    #[test]
    fn nl_two_opt_not_longer_than_dense_two_opt() {
        for seed in 0..20u64 {
            let pts = random_points(80, seed);
            let cost = EuclideanCost::new(&pts);
            let mut nl = NeighborLists::build(&pts, 12);
            let t0 = nearest_neighbor(&cost);
            let dense = two_opt(&cost, t0.clone()).length(&cost);
            let sparse = improve_neighbors(&pts, t0, 64, &mut nl).length(&cost);
            assert!(
                sparse <= dense + 1e-9,
                "seed {seed}: NL improve {sparse} vs dense 2-opt {dense}"
            );
        }
    }

    #[test]
    fn reverse_cyclic_matches_plain_reverse() {
        // Interior segment, wrapped segment, and whole-tour cases.
        let base: Vec<usize> = (0..7).collect();
        for (from, to) in [(1usize, 4usize), (5, 1), (0, 6), (3, 3)] {
            let mut order = base.clone();
            let mut pos = vec![0u32; 7];
            for (p, &c) in order.iter().enumerate() {
                pos[c] = p as u32;
            }
            reverse_cyclic(&mut order, &mut pos, from, to);
            // pos stays consistent.
            for (p, &c) in order.iter().enumerate() {
                assert_eq!(pos[c], p as u32);
            }
            // Check against a rotate-reverse-rotate reference.
            let n = 7;
            let len = (to + n - from) % n + 1;
            let mut reference = base.clone();
            let seg: Vec<usize> = (0..len).map(|o| reference[(from + o) % n]).collect();
            for (o, &c) in seg.iter().rev().enumerate() {
                reference[(from + o) % n] = c;
            }
            // The two may differ by reversing the complement: compare as
            // cyclic tours (same undirected edge multiset).
            let edges = |ord: &[usize]| {
                let mut es: Vec<(usize, usize)> = (0..n)
                    .map(|i| {
                        let (a, b) = (ord[i], ord[(i + 1) % n]);
                        (a.min(b), a.max(b))
                    })
                    .collect();
                es.sort_unstable();
                es
            };
            assert_eq!(edges(&order), edges(&reference), "from={from} to={to}");
        }
    }

    #[test]
    fn seeded_with_all_cities_matches_full_pass() {
        for seed in 0..10u64 {
            let pts = random_points(70, seed);
            let mut nl = NeighborLists::build(&pts, 10);
            let t0 = nearest_neighbor(&EuclideanCost::new(&pts));
            // Seed every city in tour order — exactly the full pass's
            // initial queue — so the runs are move-for-move identical.
            let all: Vec<usize> = t0.order().to_vec();
            let full = two_opt_neighbors(&pts, t0.clone(), &mut nl);
            let seeded = two_opt_neighbors_seeded(&pts, t0, &mut nl, &all);
            assert_eq!(full.order(), seeded.order(), "seed {seed}");
        }
    }

    #[test]
    fn empty_seeds_leave_the_tour_unchanged() {
        let pts = random_points(30, 5);
        let mut nl = NeighborLists::build(&pts, 8);
        let t0 = Tour::identity(30);
        let t1 = two_opt_neighbors_seeded(&pts, t0.clone(), &mut nl, &[]);
        assert_eq!(t1.order(), t0.normalized().order());
    }

    #[test]
    fn seeding_the_crossing_uncrosses_it_but_out_of_range_seeds_are_ignored() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        let mut nl = NeighborLists::build(&pts, 3);
        let cost = EuclideanCost::new(&pts);
        // Seeding any vertex of the crossing edge pair fixes the square;
        // indices past n are silently skipped rather than panicking.
        let fixed =
            two_opt_neighbors_seeded(&pts, Tour::new(vec![0, 1, 2, 3]), &mut nl, &[0, 99, 0]);
        assert!((fixed.length(&cost) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn seeded_never_lengthens_and_preserves_permutation() {
        for seed in 0..10u64 {
            let pts = random_points(50, seed);
            let cost = EuclideanCost::new(&pts);
            let mut nl = NeighborLists::build(&pts, 8);
            let t0 = Tour::identity(50);
            let len0 = t0.length(&cost);
            let t1 = two_opt_neighbors_seeded(&pts, t0, &mut nl, &[0, 10, 20, 30, 40]);
            assert!(t1.length(&cost) <= len0 + 1e-9, "seed {seed}");
            let mut sorted = t1.order().to_vec();
            sorted.sort_unstable();
            assert!(sorted.iter().copied().eq(0..50), "seed {seed}");
        }
    }

    #[test]
    fn or_opt_seeded_with_all_cities_matches_full_pass() {
        for seed in 0..10u64 {
            let pts = random_points(70, seed);
            let mut nl = NeighborLists::build(&pts, 10);
            let t0 = nearest_neighbor(&EuclideanCost::new(&pts));
            let all: Vec<usize> = t0.order().to_vec();
            let mut order_full = t0.clone().into_order();
            let mut pos_full = vec![0u32; 70];
            for (p, &c) in order_full.iter().enumerate() {
                pos_full[c] = p as u32;
            }
            or_opt_neighbors_pass(&pts, &mut nl, &mut order_full, &mut pos_full, None);
            let full = Tour::from_order_unchecked(order_full).normalized();
            let seeded = or_opt_neighbors_seeded(&pts, t0, &mut nl, &all);
            assert_eq!(full.order(), seeded.order(), "seed {seed}");
        }
    }

    #[test]
    fn or_opt_empty_seeds_leave_the_tour_unchanged() {
        let pts = random_points(30, 5);
        let mut nl = NeighborLists::build(&pts, 8);
        let t0 = Tour::identity(30);
        let t1 = or_opt_neighbors_seeded(&pts, t0.clone(), &mut nl, &[]);
        assert_eq!(t1.order(), t0.normalized().order());
    }

    #[test]
    fn or_opt_seeded_never_lengthens_and_preserves_permutation() {
        for seed in 0..10u64 {
            let pts = random_points(50, seed);
            let cost = EuclideanCost::new(&pts);
            let mut nl = NeighborLists::build(&pts, 8);
            let t0 = nearest_neighbor(&cost);
            let len0 = t0.length(&cost);
            let t1 = or_opt_neighbors_seeded(&pts, t0, &mut nl, &[0, 7, 99, 23, 7]);
            assert!(t1.length(&cost) <= len0 + 1e-9, "seed {seed}");
            let mut sorted = t1.order().to_vec();
            sorted.sort_unstable();
            assert!(sorted.iter().copied().eq(0..50), "seed {seed}");
        }
    }

    #[test]
    fn tiny_instances_are_untouched() {
        for n in 1..4usize {
            let pts = random_points(n, 0);
            let mut nl = NeighborLists::build(&pts, 10);
            let t = improve_neighbors(&pts, Tour::identity(n), 64, &mut nl);
            assert_eq!(t.len(), n);
        }
    }
}
