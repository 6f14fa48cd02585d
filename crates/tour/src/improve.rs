//! Local-search tour improvement: 2-opt and Or-opt.

use crate::cost::CostMatrix;
use crate::tour::Tour;

/// Minimum improvement per move; moves below this are treated as noise
/// and rejected, guaranteeing termination despite floating point.
pub(crate) const MIN_GAIN: f64 = 1e-9;

/// Longest segment Or-opt relocates.
pub(crate) const MAX_SEGMENT: usize = 3;

/// One first-improvement 2-opt pass; returns the total gain.
///
/// A 2-opt move removes edges `(order[i], order[i+1])` and
/// `(order[j], order[j+1])` and reverses the segment between them.
///
/// Moves are scanned in lexicographic `(i, j)` order and the first
/// improving one is applied immediately; the scan then **continues from
/// the same `i`** (whose successor edge the reversal just replaced) rather
/// than restarting the whole pass from `i = 0`. Sweeps repeat until one
/// full sweep accepts no move, so the result is still a 2-opt local
/// optimum; the quadratic restart cost per accepted move is gone.
///
/// Candidate scans stay on the calling thread. A scan is one cost lookup
/// per remaining edge — a few microseconds even on a 1 500-stop tour —
/// and a hand-off to the `mdg-par` pool costs more than that, so parallel
/// evaluation made every measured tour size slower.
fn two_opt_pass<C: CostMatrix>(cost: &C, order: &mut [usize]) -> f64 {
    let n = order.len();
    let mut total_gain = 0.0;
    if n < 4 {
        return 0.0;
    }
    let mut moves = 0u64;
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..n - 1 {
            let a = order[i];
            // After an applied move, continue from the same i: the reversal
            // replaced the successor edge of `a`, so re-read it and rescan.
            loop {
                let b = order[i + 1];
                let d_ab = cost.cost(a, b);
                let hit = (i + 2..n).find_map(|j| {
                    // Skip the move that would touch the same edge twice
                    // (wraps to i == 0 and j == n-1).
                    if i == 0 && j == n - 1 {
                        return None;
                    }
                    let c = order[j];
                    let d = order[(j + 1) % n];
                    let gain = d_ab + cost.cost(c, d) - cost.cost(a, c) - cost.cost(b, d);
                    (gain > MIN_GAIN).then_some((j, gain))
                });
                let Some((j, gain)) = hit else { break };
                order[i + 1..=j].reverse();
                total_gain += gain;
                moves += 1;
                improved = true;
            }
        }
    }
    mdg_obs::counter("improve/two_opt_moves").add(moves);
    total_gain
}

/// 2-opt local search until no improving move remains. Never lengthens the
/// tour.
pub fn two_opt<C: CostMatrix>(cost: &C, tour: Tour) -> Tour {
    let mut order = tour.into_order();
    two_opt_pass(cost, &mut order);
    Tour::from_order_unchecked(order).normalized()
}

/// One Or-opt pass: relocates segments of length `1..=`[`MAX_SEGMENT`]
/// to a better position (possibly reversed). Returns the total gain. The
/// insertion scan stays inline for the reason given on [`two_opt_pass`].
fn or_opt_pass<C: CostMatrix>(cost: &C, order: &mut Vec<usize>) -> f64 {
    let n = order.len();
    let mut total_gain = 0.0;
    if n < 4 {
        return 0.0;
    }
    let mut moves = 0u64;
    let mut improved = true;
    while improved {
        improved = false;
        'moves: for seg_len in 1..=MAX_SEGMENT.min(n.saturating_sub(2)) {
            for start in 0..n {
                // Segment occupies positions start..start+seg_len (no wrap
                // for simplicity; rotations expose wrapped segments across
                // passes).
                if start + seg_len >= n {
                    continue;
                }
                let prev = order[(start + n - 1) % n];
                let first = order[start];
                let last = order[start + seg_len - 1];
                let next = order[(start + seg_len) % n];
                if prev == last || next == first {
                    continue;
                }
                let removal_gain =
                    cost.cost(prev, first) + cost.cost(last, next) - cost.cost(prev, next);
                if removal_gain <= MIN_GAIN {
                    continue;
                }
                // Try reinserting between every other consecutive pair,
                // taking the earliest improving position.
                let hit = (0..n).find_map(|pos| {
                    // Insertion edge must be outside the removed segment's
                    // neighborhood: positions start-1 (mod n, the edge into
                    // the segment) through start+seg_len are excluded.
                    let before = (start + n - 1) % n;
                    if pos == before || (pos >= start && pos <= start + seg_len) {
                        return None;
                    }
                    let ins_a = order[pos];
                    let ins_b = order[(pos + 1) % n];
                    let base = cost.cost(ins_a, ins_b);
                    let fwd = cost.cost(ins_a, first) + cost.cost(last, ins_b) - base;
                    let rev = cost.cost(ins_a, last) + cost.cost(first, ins_b) - base;
                    let (ins_cost, reversed) = if fwd <= rev {
                        (fwd, false)
                    } else {
                        (rev, true)
                    };
                    let gain = removal_gain - ins_cost;
                    (gain > MIN_GAIN).then_some((pos, gain, reversed))
                });
                if let Some((pos, gain, reversed)) = hit {
                    // Execute: remove the segment, then insert.
                    let ins_a = order[pos];
                    let mut seg: Vec<usize> = order.drain(start..start + seg_len).collect();
                    if reversed {
                        seg.reverse();
                    }
                    // Find the insertion anchor after removal.
                    let anchor = order
                        .iter()
                        .position(|&c| c == ins_a)
                        .expect("anchor survives removal");
                    let at = anchor + 1;
                    for (k, c) in seg.into_iter().enumerate() {
                        order.insert(at + k, c);
                    }
                    total_gain += gain;
                    moves += 1;
                    improved = true;
                    continue 'moves;
                }
            }
        }
    }
    mdg_obs::counter("improve/or_opt_moves").add(moves);
    total_gain
}

/// Alternates 2-opt and Or-opt passes until neither improves or
/// `max_passes` rounds have run (a safety valve; local optima are
/// normally reached much earlier). The standard polishing step of the
/// planner.
pub fn improve<C: CostMatrix>(cost: &C, tour: Tour, max_passes: usize) -> Tour {
    let mut order = tour.into_order();
    let mut sp = mdg_obs::span("improve");
    sp.add_items(order.len() as u64);
    for _ in 0..max_passes {
        let g1 = two_opt_pass(cost, &mut order);
        let g2 = or_opt_pass(cost, &mut order);
        if g1 + g2 <= MIN_GAIN {
            // Local optimum for this rotation. Or-opt skips wrapped
            // segments, so the returned (normalized) rotation could still
            // admit a move; converge on the normalized rotation too so the
            // result is a true fixed point of this function.
            order = Tour::from_order_unchecked(order).normalized().into_order();
            let g3 = two_opt_pass(cost, &mut order);
            let g4 = or_opt_pass(cost, &mut order);
            if g3 + g4 <= MIN_GAIN {
                break;
            }
        }
    }
    Tour::from_order_unchecked(order).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::nearest_neighbor;
    use crate::cost::MatrixCost;
    use mdg_geom::Point;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Or-opt local search (segment relocation) until no improving move
    /// remains. Never lengthens the tour.
    fn or_opt<C: CostMatrix>(cost: &C, tour: Tour) -> Tour {
        let mut order = tour.into_order();
        or_opt_pass(cost, &mut order);
        Tour::from_order_unchecked(order).normalized()
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect()
    }

    #[test]
    fn two_opt_uncrosses_square() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        let cost = MatrixCost::from_points(&pts);
        let crossed = Tour::new(vec![0, 1, 2, 3]); // figure-eight
        let fixed = two_opt(&cost, crossed);
        assert!((fixed.length(&cost) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn improvements_never_lengthen() {
        for seed in 0..5u64 {
            let pts = random_points(30, seed);
            let cost = MatrixCost::from_points(&pts);
            let t0 = nearest_neighbor(&cost);
            let len0 = t0.length(&cost);
            let t1 = two_opt(&cost, t0.clone());
            assert!(t1.length(&cost) <= len0 + 1e-9, "2-opt (seed {seed})");
            let t2 = or_opt(&cost, t0.clone());
            assert!(t2.length(&cost) <= len0 + 1e-9, "or-opt (seed {seed})");
            let t3 = improve(&cost, t0, 64);
            assert!(
                t3.length(&cost) <= t1.length(&cost) + 1e-9,
                "combined ≤ 2-opt"
            );
        }
    }

    #[test]
    fn improve_preserves_permutation() {
        let pts = random_points(40, 99);
        let cost = MatrixCost::from_points(&pts);
        let t = improve(&cost, nearest_neighbor(&cost), 64);
        let mut sorted = t.order().to_vec();
        sorted.sort_unstable();
        assert!(sorted.iter().copied().eq(0..40));
    }

    #[test]
    fn or_opt_relocates_outlier() {
        // A city badly placed in the order gets relocated by Or-opt alone.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.5, 0.1), // belongs near the depot
            Point::new(20.0, 0.0),
            Point::new(30.0, 0.0),
        ];
        let cost = MatrixCost::from_points(&pts);
        let bad = Tour::new(vec![0, 1, 2, 3, 4]);
        let better = or_opt(&cost, bad.clone());
        assert!(better.length(&cost) < bad.length(&cost) - 1.0);
    }

    #[test]
    fn tiny_tours_are_untouched() {
        let pts = random_points(3, 0);
        let cost = MatrixCost::from_points(&pts);
        let t = Tour::identity(3);
        let len = t.length(&cost);
        let improved = improve(&cost, t, 64);
        assert!(
            (improved.length(&cost) - len).abs() < 1e-9,
            "n=3 has a unique tour"
        );
    }

    #[test]
    fn idempotent_at_local_optimum() {
        let pts = random_points(25, 5);
        let cost = MatrixCost::from_points(&pts);
        let once = improve(&cost, nearest_neighbor(&cost), 64);
        let twice = improve(&cost, once.clone(), 64);
        assert!((twice.length(&cost) - once.length(&cost)).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn or_opt_never_worsens(
            pts in proptest::collection::vec((0.0..500.0f64, 0.0..500.0f64), 4..35),
        ) {
            let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let cost = MatrixCost::from_points(&pts);
            let base = nearest_neighbor(&cost);
            let len0 = base.length(&cost);
            prop_assert!(or_opt(&cost, base).length(&cost) <= len0 + 1e-9);
        }
    }
}
