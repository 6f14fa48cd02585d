//! Held–Karp 1-tree lower bounds.
//!
//! A *1-tree* is a spanning tree over cities `1..n` plus the two cheapest
//! edges incident to city `0`; its weight lower-bounds every closed tour.
//! Iterating with node potentials (Lagrangian relaxation of the degree-2
//! constraints, updated by subgradient ascent) tightens the bound to
//! within a few percent of the optimum on Euclidean instances — good
//! enough to report heuristic gaps on instances too large for exact
//! solving.

use crate::cost::CostMatrix;

/// Weight of the minimum 1-tree under costs modified by node potentials
/// `pi`: `c'(i,j) = c(i,j) + π_i + π_j`. Also returns each node's degree
/// in the 1-tree (the subgradient).
fn one_tree<C: CostMatrix>(cost: &C, pi: &[f64]) -> (f64, Vec<u32>) {
    let n = cost.n();
    debug_assert!(n >= 3);
    let c = |i: usize, j: usize| cost.cost(i, j) + pi[i] + pi[j];
    // Prim MST over cities 1..n.
    let m = n - 1;
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    let mut best_from = vec![usize::MAX; n];
    let mut degree = vec![0u32; n];
    let mut weight = 0.0;
    best[1] = 0.0;
    for _ in 0..m {
        let u = (1..n)
            .filter(|&v| !in_tree[v])
            .min_by(|&a, &b| best[a].partial_cmp(&best[b]).unwrap())
            .expect("unvisited city exists");
        in_tree[u] = true;
        if best_from[u] != usize::MAX {
            weight += c(u, best_from[u]);
            degree[u] += 1;
            degree[best_from[u]] += 1;
        }
        for v in 1..n {
            if !in_tree[v] {
                let w = c(u, v);
                if w < best[v] {
                    best[v] = w;
                    best_from[v] = u;
                }
            }
        }
    }
    // Two cheapest edges from city 0.
    let mut e1 = f64::INFINITY;
    let mut e2 = f64::INFINITY;
    let mut v1 = usize::MAX;
    let mut v2 = usize::MAX;
    for v in 1..n {
        let w = c(0, v);
        if w < e1 {
            e2 = e1;
            v2 = v1;
            e1 = w;
            v1 = v;
        } else if w < e2 {
            e2 = w;
            v2 = v;
        }
    }
    weight += e1 + e2;
    degree[0] += 2;
    degree[v1] += 1;
    degree[v2] += 1;
    (weight, degree)
}

/// Held–Karp 1-tree lower bound with `iters` subgradient-ascent steps
/// (~50 is plenty). Returns a value ≤ the optimal closed-tour length.
/// Degenerate instances (`n < 3`) return the exact tour length.
pub fn held_karp_lower_bound<C: CostMatrix>(cost: &C, iters: usize) -> f64 {
    let n = cost.n();
    if n < 3 {
        return crate::tour::Tour::identity(n).length(cost);
    }
    let mut pi = vec![0.0f64; n];
    let mut best_bound = f64::NEG_INFINITY;
    // Step-size scale: start from the plain 1-tree weight.
    let (w0, _) = one_tree(cost, &pi);
    let mut step = 0.1 * w0.max(1e-9) / n as f64;
    for _ in 0..iters.max(1) {
        let (w, degree) = one_tree(cost, &pi);
        let bound = w - 2.0 * pi.iter().sum::<f64>();
        if bound > best_bound {
            best_bound = bound;
        }
        // Subgradient: push potentials toward degree 2 everywhere.
        let mut all_two = true;
        for v in 0..n {
            let g = degree[v] as f64 - 2.0;
            if g != 0.0 {
                all_two = false;
            }
            pi[v] += step * g;
        }
        if all_two {
            break; // The 1-tree is a tour: the bound is exact.
        }
        step *= 0.95;
    }
    best_bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::cheapest_insertion;
    use crate::cost::MatrixCost;
    use crate::exact::held_karp;
    use crate::improve::improve;
    use mdg_geom::Point;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect()
    }

    #[test]
    fn bound_is_below_the_optimum() {
        for seed in 0..6u64 {
            let pts = random_points(12, seed);
            let cost = MatrixCost::from_points(&pts);
            let (_, opt) = held_karp(&cost);
            let lb = held_karp_lower_bound(&cost, 60);
            assert!(lb <= opt + 1e-6, "seed {seed}: lb {lb} > opt {opt}");
            // And reasonably tight on Euclidean instances.
            assert!(lb >= 0.80 * opt, "seed {seed}: lb {lb} too loose vs {opt}");
        }
    }

    #[test]
    fn bound_is_below_every_heuristic_tour() {
        for seed in 0..4u64 {
            let pts = random_points(40, seed + 11);
            let cost = MatrixCost::from_points(&pts);
            let tour = improve(&cost, cheapest_insertion(&cost), 64);
            let lb = held_karp_lower_bound(&cost, 60);
            assert!(lb <= tour.length(&cost) + 1e-6, "seed {}", seed + 11);
            assert!(lb > 0.0);
        }
    }

    #[test]
    fn more_iterations_never_loosen() {
        let pts = random_points(20, 3);
        let cost = MatrixCost::from_points(&pts);
        let lb1 = held_karp_lower_bound(&cost, 1);
        let lb50 = held_karp_lower_bound(&cost, 50);
        assert!(
            lb50 >= lb1 - 1e-9,
            "best-so-far bound is monotone in iterations"
        );
    }

    #[test]
    fn ring_bound_is_exact() {
        // On a ring the 1-tree IS the tour, so the bound equals the
        // optimum immediately.
        let pts: Vec<Point> = (0..10)
            .map(|i| {
                let a = std::f64::consts::TAU * i as f64 / 10.0;
                Point::new(50.0 * a.cos(), 50.0 * a.sin())
            })
            .collect();
        let cost = MatrixCost::from_points(&pts);
        let (_, opt) = held_karp(&cost);
        let lb = held_karp_lower_bound(&cost, 30);
        assert!((lb - opt).abs() < 1e-6, "lb {lb} vs opt {opt}");
    }

    #[test]
    fn degenerate_instances() {
        for n in 0..3usize {
            let pts = random_points(n.max(1), 9)[..n].to_vec();
            let cost = MatrixCost::from_points(&pts);
            let lb = held_karp_lower_bound(&cost, 10);
            let exact = crate::tour::Tour::identity(n).length(&cost);
            assert!((lb - exact).abs() < 1e-9);
        }
    }
}
