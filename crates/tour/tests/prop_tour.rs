//! Property-based tests for the TSP toolbox.

use mdg_geom::{hull_perimeter, Point};
use mdg_tour::{
    cheapest_insertion, christofides_like, held_karp, held_karp_lower_bound, improve, mst_2approx,
    nearest_neighbor, pack_in_order, plan_tour, split_into_k, three_opt, two_opt, CostMatrix,
    MatrixCost, Tour,
};
use proptest::prelude::*;

fn arb_points(lo: usize, hi: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (0.0..500.0f64, 0.0..500.0f64).prop_map(|(x, y)| Point::new(x, y)),
        lo..hi,
    )
}

fn assert_perm(t: &Tour, n: usize) -> Result<(), TestCaseError> {
    let mut sorted = t.order().to_vec();
    sorted.sort_unstable();
    prop_assert!(
        sorted.iter().copied().eq(0..n),
        "not a permutation: {:?}",
        t.order()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn constructors_yield_permutations(pts in arb_points(1, 40)) {
        let cost = MatrixCost::from_points(&pts);
        let n = pts.len();
        assert_perm(&nearest_neighbor(&cost), n)?;
        assert_perm(&cheapest_insertion(&cost), n)?;
        assert_perm(&mst_2approx(&cost), n)?;
        assert_perm(&christofides_like(&cost), n)?;
    }

    #[test]
    fn improvement_never_worsens(pts in arb_points(4, 35)) {
        let cost = MatrixCost::from_points(&pts);
        let base = nearest_neighbor(&cost);
        let len0 = base.length(&cost);
        prop_assert!(two_opt(&cost, base.clone()).length(&cost) <= len0 + 1e-9);
        let full = improve(&cost, base, 64);
        prop_assert!(full.length(&cost) <= len0 + 1e-9);
        assert_perm(&full, pts.len())?;
    }

    #[test]
    fn three_opt_never_worsens_and_stays_a_permutation(pts in arb_points(5, 25)) {
        let cost = MatrixCost::from_points(&pts);
        let base = nearest_neighbor(&cost);
        let len0 = base.length(&cost);
        let improved = three_opt(&cost, base);
        prop_assert!(improved.length(&cost) <= len0 + 1e-9);
        assert_perm(&improved, pts.len())?;
    }

    #[test]
    fn one_tree_bound_sandwiched(pts in arb_points(4, 12)) {
        let cost = MatrixCost::from_points(&pts);
        let (_, opt) = held_karp(&cost);
        let lb = held_karp_lower_bound(&cost, 40);
        prop_assert!(lb <= opt + 1e-6, "lb {} exceeds optimum {}", lb, opt);
        // It must also dominate trivial non-negativity on non-degenerate
        // instances.
        prop_assert!(lb >= 0.0);
    }

    #[test]
    fn one_tree_bound_below_heuristic_tours(pts in arb_points(4, 35)) {
        let cost = MatrixCost::from_points(&pts);
        let tour = plan_tour(&cost);
        let lb = held_karp_lower_bound(&cost, 40);
        prop_assert!(lb <= tour.length(&cost) + 1e-6);
    }

    #[test]
    fn hull_perimeter_lower_bounds_planned_tour(pts in arb_points(3, 30)) {
        let cost = MatrixCost::from_points(&pts);
        let t = plan_tour(&cost);
        prop_assert!(t.length(&cost) + 1e-6 >= hull_perimeter(&pts));
    }

    #[test]
    fn heuristics_never_beat_held_karp(pts in arb_points(4, 12)) {
        let cost = MatrixCost::from_points(&pts);
        let (_, opt) = held_karp(&cost);
        prop_assert!(nearest_neighbor(&cost).length(&cost) >= opt - 1e-9);
        prop_assert!(cheapest_insertion(&cost).length(&cost) >= opt - 1e-9);
        prop_assert!(plan_tour(&cost).length(&cost) >= opt - 1e-9);
        // MST double-tree keeps its 2-approximation promise.
        prop_assert!(mst_2approx(&cost).length(&cost) <= 2.0 * opt + 1e-9);
    }

    #[test]
    fn normalization_preserves_length(pts in arb_points(3, 25), rot in 0usize..25) {
        let cost = MatrixCost::from_points(&pts);
        let n = pts.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.rotate_left(rot % n);
        let t = Tour::new(order);
        let len = t.length(&cost);
        let norm = t.normalized();
        prop_assert!((norm.length(&cost) - len).abs() < 1e-9);
        prop_assert_eq!(norm.order()[0], 0);
    }

    #[test]
    fn split_partitions_cities(pts in arb_points(2, 25), k in 1usize..6) {
        let cost = MatrixCost::from_points(&pts);
        let tour = plan_tour(&cost);
        let split = split_into_k(&cost, &tour, k);
        prop_assert!(split.len() <= k.max(1));
        let mut seen = vec![false; pts.len()];
        seen[0] = true;
        for st in &split {
            for &c in &st.cities {
                prop_assert!(!seen[c], "city {} duplicated", c);
                seen[c] = true;
            }
            prop_assert!(st.length >= 0.0);
        }
        prop_assert!(seen.iter().all(|&s| s), "all cities covered");
    }

    #[test]
    fn split_max_bounded_by_whole_tour(pts in arb_points(2, 25), k in 1usize..6) {
        let cost = MatrixCost::from_points(&pts);
        let tour = plan_tour(&cost);
        let whole = tour.length(&cost);
        // Without a depot detour penalty… each sub-tour adds depot legs, so
        // individual sub-tours can only be bounded by whole + 2·maxdist.
        let maxdist = (1..pts.len()).map(|c| cost.cost(0, c)).fold(0.0, f64::max);
        let split = split_into_k(&cost, &tour, k);
        for st in &split {
            prop_assert!(st.length <= whole + 2.0 * maxdist + 1e-6);
        }
    }

    #[test]
    fn min_collectors_monotone(pts in arb_points(2, 20)) {
        let cost = MatrixCost::from_points(&pts);
        let tour = plan_tour(&cost);
        let maxdist = (1..pts.len()).map(|c| cost.cost(0, c)).fold(0.0, f64::max);
        let feasible = 2.0 * maxdist + 1.0;
        let mut prev = usize::MAX;
        for mult in [1.0, 1.5, 2.5, 5.0, 20.0] {
            let bound = feasible * mult;
            let tours = pack_in_order(&cost, &tour, |_| 0, |len, _| len <= bound);
            prop_assert!(tours.is_some(), "bound {} should be feasible", feasible * mult);
            let tours = tours.unwrap();
            for t in &tours {
                prop_assert!(t.length <= feasible * mult + 1e-6);
            }
            prop_assert!(tours.len() <= prev);
            prev = tours.len();
        }
    }
}
