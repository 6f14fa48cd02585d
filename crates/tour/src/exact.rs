//! Exact TSP solvers for small instances.
//!
//! The paper compares its heuristics against the optimum computed by CPLEX
//! on a 30-node network; this reproduction substitutes CPLEX with Held–Karp
//! dynamic programming (exact, `O(n² 2ⁿ)`), which comfortably handles the
//! polling-point counts of small instances.

use crate::cost::CostMatrix;
use crate::tour::Tour;

/// Largest instance [`held_karp`] accepts. At `n = 22` the DP table is
/// ~350 MB; 20 keeps it under 80 MB and a few seconds.
pub const HELD_KARP_MAX: usize = 20;

/// Exact TSP via Held–Karp dynamic programming over subsets. Returns the
/// optimal closed tour anchored at city 0 and its length.
///
/// # Panics
/// Panics if `cost.n() > HELD_KARP_MAX`.
pub fn held_karp<C: CostMatrix>(cost: &C) -> (Tour, f64) {
    let n = cost.n();
    assert!(
        n <= HELD_KARP_MAX,
        "held_karp limited to {HELD_KARP_MAX} cities, got {n}"
    );
    if n <= 2 {
        let t = Tour::identity(n);
        let len = t.length(cost);
        return (t, len);
    }
    let m = n - 1; // Cities 1..n, bit i represents city i+1.
    let full: usize = (1 << m) - 1;
    // dp[mask][last] = shortest path 0 → … → last visiting exactly the
    // cities in mask (last ∈ mask).
    let mut dp = vec![f64::INFINITY; (full + 1) * m];
    let mut parent = vec![u8::MAX; (full + 1) * m];
    for last in 0..m {
        dp[(1 << last) * m + last] = cost.cost(0, last + 1);
    }
    for mask in 1..=full {
        // Skip singleton masks (already initialized).
        if mask & (mask - 1) == 0 {
            continue;
        }
        for last in 0..m {
            if mask & (1 << last) == 0 {
                continue;
            }
            let prev_mask = mask ^ (1 << last);
            let mut best = f64::INFINITY;
            let mut best_prev = u8::MAX;
            let mut bits = prev_mask;
            while bits != 0 {
                let prev = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let cand = dp[prev_mask * m + prev] + cost.cost(prev + 1, last + 1);
                if cand < best {
                    best = cand;
                    best_prev = prev as u8;
                }
            }
            dp[mask * m + last] = best;
            parent[mask * m + last] = best_prev;
        }
    }
    // Close the tour back to the depot.
    let mut best_len = f64::INFINITY;
    let mut best_last = 0usize;
    for last in 0..m {
        let cand = dp[full * m + last] + cost.cost(last + 1, 0);
        if cand < best_len {
            best_len = cand;
            best_last = last;
        }
    }
    // Reconstruct.
    let mut order_rev = Vec::with_capacity(n);
    let mut mask = full;
    let mut last = best_last;
    while mask != 0 {
        order_rev.push(last + 1);
        let p = parent[mask * m + last];
        mask ^= 1 << last;
        if p == u8::MAX {
            break;
        }
        last = p as usize;
    }
    order_rev.push(0);
    order_rev.reverse();
    debug_assert_eq!(order_rev.len(), n);
    (Tour::from_order_unchecked(order_rev).normalized(), best_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{cheapest_insertion, mst_2approx, nearest_neighbor};
    use crate::cost::MatrixCost;
    use crate::improve::improve;
    use mdg_geom::Point;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Brute-force optimal tour by permutation enumeration; `O((n−1)!)`.
    /// Only usable for `n ≤ 10`: the oracle the tests hold [`held_karp`] to.
    fn brute_force<C: CostMatrix>(cost: &C) -> (Tour, f64) {
        let n = cost.n();
        assert!(n <= 10, "brute force limited to 10 cities");
        if n <= 2 {
            let t = Tour::identity(n);
            let len = t.length(cost);
            return (t, len);
        }
        let mut perm: Vec<usize> = (1..n).collect();
        let mut best_order: Vec<usize> = std::iter::once(0).chain(perm.iter().copied()).collect();
        let mut best_len = Tour::from_order_unchecked(best_order.clone()).length(cost);
        // Heap's algorithm over the non-depot cities.
        let mut c = vec![0usize; perm.len()];
        let mut i = 0;
        while i < perm.len() {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                let order: Vec<usize> = std::iter::once(0).chain(perm.iter().copied()).collect();
                let len = Tour::from_order_unchecked(order.clone()).length(cost);
                if len < best_len {
                    best_len = len;
                    best_order = order;
                }
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        (
            Tour::from_order_unchecked(best_order).normalized(),
            best_len,
        )
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect()
    }

    #[test]
    fn held_karp_matches_brute_force() {
        for seed in 0..6u64 {
            for n in 4..=8usize {
                let pts = random_points(n, seed * 31 + n as u64);
                let cost = MatrixCost::from_points(&pts);
                let (hk_tour, hk_len) = held_karp(&cost);
                let (_, bf_len) = brute_force(&cost);
                assert!(
                    (hk_len - bf_len).abs() < 1e-9,
                    "n={n} seed={seed}: HK {hk_len} vs BF {bf_len}"
                );
                assert!(
                    (hk_tour.length(&cost) - hk_len).abs() < 1e-9,
                    "reported length consistent"
                );
            }
        }
    }

    #[test]
    fn held_karp_lower_bounds_heuristics() {
        for seed in 0..4u64 {
            let pts = random_points(11, seed);
            let cost = MatrixCost::from_points(&pts);
            let (_, opt) = held_karp(&cost);
            for (name, t) in [
                ("nn", nearest_neighbor(&cost)),
                ("ci", cheapest_insertion(&cost)),
                ("mst", mst_2approx(&cost)),
            ] {
                assert!(
                    t.length(&cost) >= opt - 1e-9,
                    "{name} beat the optimum?! seed {seed}"
                );
            }
            // 2-approximation bound holds against the true optimum.
            assert!(mst_2approx(&cost).length(&cost) <= 2.0 * opt + 1e-9);
            // Polished heuristic lands close to the optimum on tiny inputs.
            let polished = improve(&cost, nearest_neighbor(&cost), 64);
            assert!(polished.length(&cost) <= 1.15 * opt + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn held_karp_on_square() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let cost = MatrixCost::from_points(&pts);
        let (tour, len) = held_karp(&cost);
        assert!((len - 4.0).abs() < 1e-12);
        assert_eq!(tour.order()[0], 0);
    }

    #[test]
    fn tiny_instances() {
        for n in 0..=2usize {
            let pts = random_points(n, 1);
            let cost = MatrixCost::from_points(&pts);
            let (t, len) = held_karp(&cost);
            assert_eq!(t.len(), n);
            let (bt, blen) = brute_force(&cost);
            assert_eq!(bt.len(), n);
            assert!((len - blen).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "held_karp limited")]
    fn held_karp_rejects_large_instances() {
        let pts = random_points(HELD_KARP_MAX + 1, 0);
        let cost = MatrixCost::from_points(&pts);
        held_karp(&cost);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn held_karp_is_optimal_vs_brute_force(
            pts in proptest::collection::vec((0.0..500.0f64, 0.0..500.0f64), 4..8),
        ) {
            let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let cost = MatrixCost::from_points(&pts);
            let (_, hk) = held_karp(&cost);
            let (_, bf) = brute_force(&cost);
            prop_assert!((hk - bf).abs() < 1e-9);
        }
    }
}
