//! Incremental tour splicing: cheapest insertion of a new vertex into an
//! existing closed tour.
//!
//! This is the plan-repair entry point: after node failures invalidate
//! polling points, replacements are spliced into the surviving tour
//! without re-solving the whole TSP (a 2-opt touch-up afterwards polishes
//! the splice; see [`mod@crate::improve`]).

use mdg_geom::Point;

/// Finds the cheapest place to insert `p` into the closed tour `cycle`
/// (visited in order, wrapping from the last point back to the first).
///
/// Returns `(index, detour)`: inserting `p` before `cycle[index]` — with
/// `index == cycle.len()` meaning on the closing edge — lengthens the tour
/// by `detour` meters, the minimum over all edges. The returned index is
/// never `0`, preserving the depot-first convention.
///
/// # Panics
/// Panics if `cycle` is empty.
pub fn cheapest_insertion_position(cycle: &[Point], p: Point) -> (usize, f64) {
    assert!(!cycle.is_empty(), "cannot splice into an empty tour");
    let n = cycle.len();
    if n < PAR_SCAN_THRESHOLD {
        return scan_edges(cycle, p, 0, n);
    }
    // Fixed-size blocks scanned independently, then folded in block order
    // with the same strict `<` as the serial loop: each block's winner is
    // its earliest cheapest edge, and the in-order fold keeps the earliest
    // across blocks, so the result is bitwise identical to the serial scan
    // at any thread count.
    let parts = mdg_par::par_chunks(n, PAR_SCAN_BLOCK, |range| {
        scan_edges(cycle, p, range.start, range.end)
    });
    let mut best_idx = n;
    let mut best_detour = f64::INFINITY;
    for (idx, detour) in parts {
        if detour < best_detour {
            best_detour = detour;
            best_idx = idx;
        }
    }
    (best_idx, best_detour)
}

/// Below this cycle length the scan stays serial: the pool hand-off costs
/// more than the arithmetic it would spread.
const PAR_SCAN_THRESHOLD: usize = 8192;
/// Fixed block size so the block boundaries — and hence the fold order —
/// do not depend on the thread count.
const PAR_SCAN_BLOCK: usize = 8192;

/// Serial scan of edges `lo..hi` of `cycle` (edge `i` runs from stop `i`
/// to stop `i+1`, the last edge wrapping to the first stop). Returns the
/// earliest cheapest insertion slot exactly like the public function.
fn scan_edges(cycle: &[Point], p: Point, lo: usize, hi: usize) -> (usize, f64) {
    let n = cycle.len();
    let mut best_idx = n;
    let mut best_detour = f64::INFINITY;
    for i in lo..hi {
        let a = cycle[i];
        let b = cycle[(i + 1) % n];
        let detour = a.dist(p) + p.dist(b) - a.dist(b);
        if detour < best_detour {
            best_detour = detour;
            best_idx = i + 1;
        }
    }
    (best_idx, best_detour)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_geom::closed_tour_length;

    #[test]
    fn inserts_on_the_nearest_edge() {
        // Unit square; a point just outside the right edge.
        let cycle = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ];
        let (idx, detour) = cheapest_insertion_position(&cycle, Point::new(11.0, 5.0));
        assert_eq!(idx, 2, "between (10,0) and (10,10)");
        assert!(detour > 0.0 && detour < 1.0, "small detour, got {detour}");
    }

    #[test]
    fn splice_matches_reported_detour() {
        let mut cycle = vec![
            Point::new(0.0, 0.0),
            Point::new(30.0, 0.0),
            Point::new(30.0, 30.0),
        ];
        let before = closed_tour_length(&cycle);
        let p = Point::new(15.0, -2.0);
        let (idx, detour) = cheapest_insertion_position(&cycle, p);
        cycle.insert(idx, p);
        let after = closed_tour_length(&cycle);
        assert!((after - before - detour).abs() < 1e-9);
    }

    #[test]
    fn point_on_an_edge_is_free() {
        let cycle = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let (idx, detour) = cheapest_insertion_position(&cycle, Point::new(5.0, 0.0));
        assert!(detour.abs() < 1e-12);
        assert!(idx == 1 || idx == 2);
    }

    #[test]
    fn singleton_cycle_out_and_back() {
        let cycle = vec![Point::new(0.0, 0.0)];
        let (idx, detour) = cheapest_insertion_position(&cycle, Point::new(3.0, 4.0));
        assert_eq!(idx, 1);
        assert!((detour - 10.0).abs() < 1e-12, "out and back = 2 × 5");
    }

    #[test]
    fn duplicate_of_a_cycle_point_is_free_and_adjacent() {
        // Splicing a point co-located with an existing stop must cost
        // nothing and land on one of that stop's incident edges.
        let cycle = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ];
        for (k, &dup) in cycle.iter().enumerate() {
            let (idx, detour) = cheapest_insertion_position(&cycle, dup);
            assert!(detour.abs() < 1e-12, "duplicate of stop {k} costs {detour}");
            assert!(idx >= 1 && idx <= cycle.len());
            assert!(
                idx == k || idx == k + 1 || (k == 0 && idx == cycle.len()),
                "stop {k}: insertion at {idx} is not adjacent"
            );
        }
    }

    #[test]
    fn all_colocated_cycle_accepts_another_duplicate() {
        // Degenerate geometry: every stop (and the new point) at one spot.
        let cycle = vec![Point::new(5.0, 5.0); 3];
        let p = Point::new(5.0, 5.0);
        let (idx, detour) = cheapest_insertion_position(&cycle, p);
        assert_eq!(idx, 1, "earliest edge wins all-zero ties");
        assert!(detour.abs() < 1e-12);
    }

    #[test]
    fn two_point_cycle_inserts_on_the_cheaper_side() {
        let cycle = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        // Nearer the second point: both edges are (a,b) and (b,a), so the
        // detour is the same either way; the earliest edge must win.
        let (idx, detour) = cheapest_insertion_position(&cycle, Point::new(20.0, 0.0));
        assert_eq!(idx, 1, "tie between the two edges resolves earliest");
        assert!((detour - 20.0).abs() < 1e-12, "2·d(b,p) past the segment");
        // Off-axis point: still one of the two valid slots, detour exact.
        let p = Point::new(5.0, 5.0);
        let (idx, detour) = cheapest_insertion_position(&cycle, p);
        assert!(idx == 1 || idx == 2);
        let expect = cycle[0].dist(p) + p.dist(cycle[1]) - cycle[0].dist(cycle[1]);
        assert!((detour - expect).abs() < 1e-12);
    }

    #[test]
    fn singleton_cycle_with_duplicate_point() {
        let cycle = vec![Point::new(7.0, 7.0)];
        let (idx, detour) = cheapest_insertion_position(&cycle, Point::new(7.0, 7.0));
        assert_eq!((idx, detour), (1, 0.0));
    }

    #[test]
    fn parallel_scan_matches_serial_above_threshold() {
        // A ring with deliberate exact ties (regular polygon: every edge
        // equidistant from the center point) plus jittered points, large
        // enough to cross PAR_SCAN_THRESHOLD. The blocked scan must agree
        // bitwise with the serial reference at several thread counts.
        let n = PAR_SCAN_THRESHOLD + PAR_SCAN_BLOCK / 2 + 7;
        let cycle: Vec<Point> = (0..n)
            .map(|i| {
                let ang = i as f64 / n as f64 * std::f64::consts::TAU;
                let r = 1000.0 + ((i * 2654435761) % 97) as f64 * 0.01;
                Point::new(r * ang.cos(), r * ang.sin())
            })
            .collect();
        let probes = [
            Point::new(0.0, 0.0),
            Point::new(1001.0, 0.0),
            Point::new(-3000.0, 42.0),
            cycle[n / 3],
        ];
        for p in probes {
            let serial = scan_edges(&cycle, p, 0, n);
            for threads in [1usize, 2, 4] {
                mdg_par::set_threads(threads);
                let par = cheapest_insertion_position(&cycle, p);
                assert_eq!(par.0, serial.0, "threads={threads} p={p:?}");
                assert_eq!(par.1.to_bits(), serial.1.to_bits(), "threads={threads}");
            }
        }
        mdg_par::set_threads(0);
    }

    #[test]
    fn depot_position_never_usurped() {
        let cycle = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ];
        // A point nearest the closing edge (back to the depot).
        let (idx, _) = cheapest_insertion_position(&cycle, Point::new(2.0, 3.0));
        assert_eq!(idx, 3, "goes on the closing edge, not before the depot");
    }
}
