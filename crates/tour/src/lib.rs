//! # mdg-tour — TSP construction, improvement, exact solving and splitting
//!
//! The tour subproblem of the single-hop data gathering problem (SHDGP):
//! once polling points are chosen, the mobile collector needs a short
//! closed tour through the sink (the *depot*, always index `0`) and every
//! polling point.
//!
//! The toolbox provides:
//!
//! * **Construction heuristics** ([`construct`]): nearest neighbor,
//!   cheapest insertion, MST double-tree 2-approximation and a
//!   Christofides-style MST + greedy-matching construction.
//! * **Improvement heuristics** ([`mod@improve`]): 2-opt and Or-opt local
//!   search, composed by [`improve::improve`]; plus the neighbor-list
//!   variants ([`neighbors`]) — k-nearest-neighbor candidate moves with
//!   don't-look bits — that scale the same local search to 10⁵-city
//!   instances.
//! * **Exact solver** ([`exact`]): Held–Karp dynamic programming for up to
//!   [`exact::HELD_KARP_MAX`] cities (used by the optimality-gap tables in
//!   place of the paper's CPLEX runs).
//! * **Tour splitting** ([`split`]): partitioning one tour into `k`
//!   depot-anchored sub-tours (the multi-collector extension), and the
//!   greedy in-order packing under any fit test (a length bound, or a
//!   deadline with per-stop upload time) that the split searches over.
//!
//! All algorithms are generic over a [`CostMatrix`], so they work on raw
//! Euclidean point sets as well as precomputed matrices.
//!
//! ## Conventions
//!
//! * A [`Tour`] is a permutation of `0..n` interpreted as a *closed* tour.
//! * Index `0` is the depot (the data sink). Constructors all start tours
//!   there and [`Tour::normalize`] rotates/orients any permutation into the
//!   canonical depot-first form.

pub mod construct;
pub mod cost;
pub mod exact;
pub mod improve;
pub mod lower_bound;
pub mod neighbors;
pub mod splice;
pub mod split;
pub mod three_opt;
pub mod tour;

pub use construct::{cheapest_insertion, christofides_like, mst_2approx, nearest_neighbor};
pub use cost::{CostMatrix, EuclideanCost, MatrixCost};
pub use exact::held_karp;
pub use improve::{improve, two_opt};
pub use lower_bound::held_karp_lower_bound;
pub use neighbors::{
    improve_neighbors, or_opt_neighbors_seeded, two_opt_neighbors_seeded, NeighborLists,
};
pub use splice::cheapest_insertion_position;
pub use split::{pack_in_order, split_into_k, SplitTour};
pub use three_opt::three_opt;
pub use tour::Tour;

/// Plans a good closed tour over `n` cities (depot = 0): cheapest insertion
/// followed by 2-opt + Or-opt local search over `cost`. Baselines and
/// per-sector fleet tours call it; the SHDG planner runs its own tour step,
/// which swaps in neighbor-list local search on large stop sets.
///
/// ```
/// use mdg_geom::Point;
/// use mdg_tour::{plan_tour, EuclideanCost};
///
/// let pts = [
///     Point::new(0.0, 0.0),  // depot
///     Point::new(10.0, 0.0),
///     Point::new(10.0, 10.0),
///     Point::new(0.0, 10.0),
/// ];
/// let cost = EuclideanCost::new(&pts);
/// let tour = plan_tour(&cost);
/// assert_eq!(tour.order()[0], 0, "tours start at the depot");
/// assert!((tour.length(&cost) - 40.0).abs() < 1e-9, "the square is optimal");
/// ```
pub fn plan_tour<C: CostMatrix>(cost: &C) -> Tour {
    let t = cheapest_insertion(cost);
    improve(cost, t, PLAN_TOUR_PASSES)
}

/// Local-search rounds [`plan_tour`] allows.
const PLAN_TOUR_PASSES: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_geom::Point;

    #[test]
    fn plan_tour_on_square_is_optimal() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ];
        let cost = EuclideanCost::new(&pts);
        let t = plan_tour(&cost);
        assert!((t.length(&cost) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn plan_tour_tiny_instances() {
        for n in 1..=3usize {
            let pts: Vec<Point> = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
            let cost = EuclideanCost::new(&pts);
            let t = plan_tour(&cost);
            assert_eq!(t.order().len(), n);
        }
    }
}
