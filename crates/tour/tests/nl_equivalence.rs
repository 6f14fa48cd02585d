//! Seeded equivalence suite for the neighbor-list local search: across
//! 100 random instances, `improve_neighbors` (candidate-list 2-opt +
//! Or-opt with don't-look bits) must never return a *longer* tour than the
//! dense `two_opt` it replaces on the exact same input tour.

use mdg_geom::Point;
use mdg_tour::{cheapest_insertion, improve_neighbors, two_opt, MatrixCost, NeighborLists, Tour};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn neighbor_list_search_never_longer_than_dense_two_opt() {
    for i in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(9000 + i);
        let n = 12 + (i as usize * 13) % 99; // 12..=110 cities
        let side = 100.0 + (i % 5) as f64 * 100.0;
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        let cost = MatrixCost::from_points(&pts);
        let start: Tour = cheapest_insertion(&cost);

        let dense = two_opt(&cost, start.clone());
        let mut lists = NeighborLists::build(&pts, 12.min(n - 1));
        let nl = improve_neighbors(&pts, start.clone(), 64, &mut lists);

        let mut sorted = nl.order().to_vec();
        sorted.sort_unstable();
        assert!(
            sorted.into_iter().eq(0..n),
            "instance {i}: broken permutation"
        );
        let (nl_len, dense_len) = (nl.length(&cost), dense.length(&cost));
        assert!(
            nl_len <= dense_len + 1e-9,
            "instance {i} (n = {n}): neighbor-list search returned {nl_len:.6}, \
             dense 2-opt {dense_len:.6}"
        );
    }
}
