//! Tour splitting for multiple mobile collectors.
//!
//! For large fields a single collector's tour can exceed the application's
//! data-gathering deadline. The paper's remedy is a fleet: plan one global
//! tour, then split it into `k` depot-anchored sub-tours. The splitting
//! rule follows Frederickson, Hecht & Kim's k-TSP heuristic: choose split
//! points along the tour so that the *maximum* sub-tour (including the two
//! depot legs) is minimized.

use crate::cost::CostMatrix;
use crate::tour::Tour;

/// One collector's sub-tour: the depot (city 0), then `cities` in order,
/// then back to the depot.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitTour {
    /// Non-depot cities in visiting order.
    pub cities: Vec<usize>,
    /// Closed length: depot → cities… → depot.
    pub length: f64,
}

impl SplitTour {
    fn build<C: CostMatrix>(cost: &C, cities: Vec<usize>) -> Self {
        let length = subtour_length(cost, &cities);
        SplitTour { cities, length }
    }
}

/// Length of depot → `cities…` → depot (0 for an empty city list).
fn subtour_length<C: CostMatrix>(cost: &C, cities: &[usize]) -> f64 {
    match cities.split_first() {
        None => 0.0,
        Some((&first, rest)) => {
            let mut len = cost.cost(0, first);
            let mut prev = first;
            for &c in rest {
                len += cost.cost(prev, c);
                prev = c;
            }
            len + cost.cost(prev, 0)
        }
    }
}

/// Feasibility tolerance for packing: relative in the bound's magnitude
/// plus an absolute floor.
///
/// The comparison `length ≤ bound` accumulates one `f64` rounding error
/// per tour leg, and those errors scale with the coordinates: at
/// city-scale instances (tour lengths ~1e5 m and beyond — exactly the
/// regime hierarchical planning targets) a unit in the last place of the
/// running sum is orders of magnitude above any fixed epsilon, so a purely
/// absolute `+ 1e-9` slack can flip feasibility at the binary-search
/// boundary depending on summation order. The relative term tracks the
/// magnitude; the absolute floor keeps tiny instances well-behaved.
fn pack_tolerance(bound: f64) -> f64 {
    bound * (1.0 + 1e-12) + 1e-9
}

/// [`pack_in_order`] over `seq`, the tour's non-depot cities in order.
fn pack_within<C, L, F>(cost: &C, seq: &[usize], load: L, fits: F) -> Option<Vec<SplitTour>>
where
    C: CostMatrix,
    L: Fn(usize) -> usize,
    F: Fn(f64, usize) -> bool,
{
    let mut out = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut path_len = 0.0; // depot → … → last of `current`
    let mut current_load = 0;
    for &c in seq {
        let c_load = load(c);
        if !fits(2.0 * cost.cost(0, c), c_load) {
            return None;
        }
        let extended = if current.is_empty() {
            cost.cost(0, c)
        } else {
            path_len + cost.cost(*current.last().unwrap(), c)
        };
        if fits(extended + cost.cost(c, 0), current_load + c_load) {
            current.push(c);
            path_len = extended;
            current_load += c_load;
        } else {
            debug_assert!(!current.is_empty(), "single city must fit (checked above)");
            out.push(SplitTour::build(cost, std::mem::take(&mut current)));
            current.push(c);
            path_len = cost.cost(0, c);
            current_load = c_load;
        }
    }
    if !current.is_empty() {
        out.push(SplitTour::build(cost, current));
    }
    Some(out)
}

/// Sub-tours no longer than `bound`, up to [`pack_tolerance`].
fn within(bound: f64) -> impl Fn(f64, usize) -> bool {
    let tol = pack_tolerance(bound);
    move |len, _| len <= tol
}

/// Splits `tour` (which must contain the depot 0) into at most `k`
/// sub-tours minimizing the maximum sub-tour length, via binary search on
/// the length bound with greedy packing as the feasibility oracle.
///
/// Returns fewer than `k` sub-tours when fewer suffice to achieve the same
/// max length (e.g. `k` exceeds the number of cities).
///
/// # Panics
/// Panics if `k == 0` or `tour` does not include city 0.
pub fn split_into_k<C: CostMatrix>(cost: &C, tour: &Tour, k: usize) -> Vec<SplitTour> {
    assert!(k > 0, "need at least one collector");
    let seq = depot_sequence(tour);
    if seq.is_empty() {
        return Vec::new();
    }
    // Bounds: lo = longest single out-and-back; hi = whole tour as one.
    let lo_req = seq
        .iter()
        .map(|&c| 2.0 * cost.cost(0, c))
        .fold(0.0, f64::max);
    let hi0 = subtour_length(cost, &seq);
    let (mut lo, mut hi) = (lo_req, hi0.max(lo_req));
    // Binary search the smallest feasible bound for k sub-tours.
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        match pack_within(cost, &seq, |_| 0, within(mid)) {
            Some(tours) if tours.len() <= k => hi = mid,
            _ => lo = mid,
        }
    }
    pack_within(cost, &seq, |_| 0, within(hi)).expect("hi is feasible by construction")
}

/// Splits `tour` (which must contain the depot 0) greedily in tour order
/// into depot-anchored sub-tours, each as long as `fits` allows: a city
/// joins the current sub-tour while `fits(closed length, summed load)`
/// holds with it, and opens the next sub-tour otherwise. `load(c)` is
/// city `c`'s share of the summed load (the sensors a stop uploads, say;
/// `|_| 0` for a pure length bound). Returns the sub-tours, or `None` if
/// some city fails `fits` even on a dedicated out-and-back trip.
///
/// ```
/// use mdg_geom::Point;
/// use mdg_tour::{pack_in_order, EuclideanCost, Tour};
///
/// let pts = [Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(0.0, 10.0)];
/// let cost = EuclideanCost::new(&pts);
/// let tour = Tour::identity(3);
/// let at_most = |bound: f64| move |len: f64, _: usize| len <= bound;
/// // Both stops on one 34.1 m sub-tour, or each on its own 20 m round trip.
/// assert_eq!(pack_in_order(&cost, &tour, |_| 0, at_most(40.0)).unwrap().len(), 1);
/// assert_eq!(pack_in_order(&cost, &tour, |_| 0, at_most(30.0)).unwrap().len(), 2);
/// assert!(pack_in_order(&cost, &tour, |_| 0, at_most(15.0)).is_none());
/// ```
///
/// # Panics
/// Panics if `tour` does not include city 0.
pub fn pack_in_order<C, L, F>(cost: &C, tour: &Tour, load: L, fits: F) -> Option<Vec<SplitTour>>
where
    C: CostMatrix,
    L: Fn(usize) -> usize,
    F: Fn(f64, usize) -> bool,
{
    pack_within(cost, &depot_sequence(tour), load, fits)
}

/// Rotates the tour so the depot leads, and returns the non-depot sequence.
fn depot_sequence(tour: &Tour) -> Vec<usize> {
    let order = tour.order();
    let pos = order
        .iter()
        .position(|&c| c == 0)
        .expect("tour must contain the depot (city 0)");
    let mut seq = Vec::with_capacity(order.len().saturating_sub(1));
    for i in 1..order.len() {
        seq.push(order[(pos + i) % order.len()]);
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MatrixCost;
    use mdg_geom::Point;

    /// Depot at the origin, cities strung out along a line.
    fn line_instance() -> MatrixCost {
        let pts: Vec<Point> = (0..7).map(|i| Point::new(10.0 * i as f64, 0.0)).collect();
        MatrixCost::from_points(&pts)
    }

    fn all_cities_covered(tours: &[SplitTour], n: usize) {
        let mut seen = vec![false; n];
        seen[0] = true;
        for t in tours {
            for &c in &t.cities {
                assert!(!seen[c], "city {c} appears in two sub-tours");
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every city must be covered");
    }

    #[test]
    fn split_into_one_is_whole_tour() {
        let cost = line_instance();
        let tour = Tour::identity(7);
        let split = split_into_k(&cost, &tour, 1);
        assert_eq!(split.len(), 1);
        assert!((split[0].length - tour.length(&cost)).abs() < 1e-9);
        all_cities_covered(&split, 7);
    }

    /// Depot at the center of a ring of 8 cities (radius 50): the whole
    /// ring tour is far longer than any single out-and-back, so splitting
    /// genuinely helps.
    fn ring_instance() -> MatrixCost {
        let mut pts = vec![Point::ORIGIN];
        for i in 0..8 {
            let a = std::f64::consts::TAU * i as f64 / 8.0;
            pts.push(Point::new(50.0 * a.cos(), 50.0 * a.sin()));
        }
        MatrixCost::from_points(&pts)
    }

    #[test]
    fn split_reduces_max_length() {
        let cost = ring_instance();
        let tour = Tour::identity(9);
        let whole = tour.length(&cost);
        let split = split_into_k(&cost, &tour, 3);
        assert!(split.len() <= 3);
        let max = split.iter().map(|t| t.length).fold(0.0, f64::max);
        assert!(
            max < whole,
            "3-way split must beat the single tour: {max} vs {whole}"
        );
        all_cities_covered(&split, 9);
        for t in &split {
            assert!((t.length - subtour_length(&cost, &t.cities)).abs() < 1e-9);
        }
    }

    #[test]
    fn split_max_never_below_farthest_roundtrip() {
        let cost = line_instance();
        let tour = Tour::identity(7);
        for k in 1..=7 {
            let split = split_into_k(&cost, &tour, k);
            let max = split.iter().map(|t| t.length).fold(0.0, f64::max);
            assert!(
                max >= 2.0 * 60.0 - 1e-6,
                "farthest city needs a 120 m round trip (k={k})"
            );
        }
    }

    #[test]
    fn monotone_in_k() {
        let cost = line_instance();
        let tour = Tour::identity(7);
        let mut prev = f64::INFINITY;
        for k in 1..=5 {
            let split = split_into_k(&cost, &tour, k);
            let max = split.iter().map(|t| t.length).fold(0.0, f64::max);
            assert!(max <= prev + 1e-9, "max sub-tour must not grow with k");
            prev = max;
        }
    }

    #[test]
    fn min_collectors_respects_bound() {
        let cost = line_instance();
        let tour = Tour::identity(7);
        // Bound just above the farthest round trip forces many collectors.
        let tours = pack_in_order(&cost, &tour, |_| 0, within(125.0)).unwrap();
        for t in &tours {
            assert!(t.length <= 125.0 + 1e-6);
        }
        all_cities_covered(&tours, 7);
        // An infeasible bound (< farthest round trip) returns None.
        assert!(pack_in_order(&cost, &tour, |_| 0, within(100.0)).is_none());
        // A huge bound needs a single collector.
        let one = pack_in_order(&cost, &tour, |_| 0, within(1e6)).unwrap();
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn min_collectors_monotone_in_bound() {
        let cost = line_instance();
        let tour = Tour::identity(7);
        let mut prev = usize::MAX;
        for bound in [125.0, 150.0, 200.0, 300.0, 500.0] {
            let n = pack_in_order(&cost, &tour, |_| 0, within(bound))
                .unwrap()
                .len();
            assert!(n <= prev, "more slack must not require more collectors");
            prev = n;
        }
    }

    #[test]
    fn depot_only_tour() {
        let pts = vec![Point::ORIGIN];
        let cost = MatrixCost::from_points(&pts);
        let tour = Tour::identity(1);
        assert!(split_into_k(&cost, &tour, 3).is_empty());
        assert_eq!(
            pack_in_order(&cost, &tour, |_| 0, within(10.0))
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn k_beyond_the_city_count_caps_at_one_tour_per_city() {
        let cost = line_instance();
        let tour = Tour::identity(7);
        for k in [7, 8, 20, 1000] {
            let split = split_into_k(&cost, &tour, k);
            assert!(split.len() <= 6, "only 6 non-depot cities exist (k={k})");
            all_cities_covered(&split, 7);
            // With unlimited collectors the optimum is the farthest
            // round trip; the binary search must find it.
            let max = split.iter().map(|t| t.length).fold(0.0, f64::max);
            assert!(
                (max - 120.0).abs() < 1e-6,
                "k={k}: max {max}, expected the 120 m round trip"
            );
        }
    }

    #[test]
    fn k_exceeding_two_city_tour() {
        let pts = vec![Point::ORIGIN, Point::new(10.0, 0.0), Point::new(0.0, 10.0)];
        let cost = MatrixCost::from_points(&pts);
        let split = split_into_k(&cost, &Tour::identity(3), 5);
        assert!(split.len() <= 2);
        all_cities_covered(&split, 3);
    }

    #[test]
    fn packing_feasibility_is_scale_invariant_at_large_coordinates() {
        // Scaling every coordinate by a power of two scales every distance
        // (and any bound derived from them) *exactly*, so feasibility must
        // not change. Before the tolerance became relative, it did: this
        // bound sits ~6e-12 below the exact tour length — inside the old
        // absolute `1e-9` slack at unit scale, but the same relative
        // deficit is ~6.6 m at 2⁴⁰ scale (tour length ~6.6e13), where the
        // absolute epsilon rejected it — the packer
        // returned `None` because even the farthest round trip "missed"
        // the bound by meters of accumulated-rounding noise.
        for scale in [1.0, (2.0f64).powi(40)] {
            let pts: Vec<Point> = (0..4)
                .map(|i| Point::new(10.0 * i as f64 * scale, 0.0))
                .collect();
            let cost = MatrixCost::from_points(&pts);
            let tour = Tour::identity(4);
            let bound = (60.0 - 6e-12) * scale;
            let tours = pack_in_order(&cost, &tour, |_| 0, within(bound))
                .unwrap_or_else(|| panic!("bound must stay feasible at scale {scale}"));
            assert_eq!(
                tours.len(),
                1,
                "one collector suffices at scale {scale} (got {})",
                tours.len()
            );
            all_cities_covered(&tours, 4);
        }
    }

    #[test]
    fn split_into_k_handles_city_scale_coordinates() {
        // The binary search's feasibility oracle at the boundary must not
        // wobble at tour lengths ~1e11: the split still covers every city,
        // respects the farthest-roundtrip lower bound, and stays monotone.
        let pts: Vec<Point> = (0..7).map(|i| Point::new(1e10 * i as f64, 0.0)).collect();
        let cost = MatrixCost::from_points(&pts);
        let tour = Tour::identity(7);
        let mut prev = f64::INFINITY;
        for k in 1..=4 {
            let split = split_into_k(&cost, &tour, k);
            all_cities_covered(&split, 7);
            let max = split.iter().map(|t| t.length).fold(0.0, f64::max);
            assert!(
                max >= 2.0 * 6e10 - 1.0,
                "k={k}: farthest round trip is a floor"
            );
            assert!(
                max <= prev * (1.0 + 1e-12),
                "k={k}: max sub-tour must not grow"
            );
            prev = max;
        }
    }

    #[test]
    fn rotated_tour_splits_identically() {
        let cost = line_instance();
        let a = Tour::new(vec![0, 1, 2, 3, 4, 5, 6]);
        let b = Tour::new(vec![3, 4, 5, 6, 0, 1, 2]);
        let sa = split_into_k(&cost, &a, 2);
        let sb = split_into_k(&cost, &b, 2);
        let max_a = sa.iter().map(|t| t.length).fold(0.0, f64::max);
        let max_b = sb.iter().map(|t| t.length).fold(0.0, f64::max);
        assert!((max_a - max_b).abs() < 1e-9);
    }
}
