//! Property-based tests for coverage instances and set-cover solvers.

use mdg_cover::{greedy_cover, BitSet, CoverageInstance};
use mdg_geom::Point;
use proptest::prelude::*;

fn arb_sensors() -> impl Strategy<Value = (Vec<Point>, f64)> {
    (
        proptest::collection::vec(
            (0.0..150.0f64, 0.0..150.0f64).prop_map(|(x, y)| Point::new(x, y)),
            1..40,
        ),
        15.0..60.0f64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sensor_site_instances_are_always_feasible((sensors, range) in arb_sensors()) {
        let inst = CoverageInstance::sensor_sites(&sensors, range);
        prop_assert!(inst.is_feasible());
        // Each candidate covers its own sensor.
        for (i, c) in inst.candidates.iter().enumerate() {
            prop_assert!(c.covers.get(i));
        }
    }

    #[test]
    fn greedy_always_covers((sensors, range) in arb_sensors()) {
        let inst = CoverageInstance::sensor_sites(&sensors, range);
        let sel = greedy_cover(&inst, |_| 0.0).unwrap();
        prop_assert!(inst.is_cover(&sel));
        // Assignment exists and respects range.
        let assign = inst.assign(&sel).unwrap();
        for (t, &k) in assign.iter().enumerate() {
            let pp = inst.candidates[sel[k]].pos;
            prop_assert!(pp.dist(sensors[t]) <= range + 1e-9,
                "target {} assigned out of range", t);
        }
    }

    #[test]
    fn greedy_selection_gains_are_monotone_nonincreasing((sensors, range) in arb_sensors()) {
        let inst = CoverageInstance::sensor_sites(&sensors, range);
        let sel = greedy_cover(&inst, |_| 0.0).unwrap();
        let mut covered = BitSet::new(inst.n_targets());
        let mut prev_gain = usize::MAX;
        for &s in &sel {
            let gain = inst.candidates[s].covers.count_and_not(&covered);
            prop_assert!(gain >= 1, "every greedy pick covers something new");
            prop_assert!(gain <= prev_gain, "greedy gains are non-increasing");
            prev_gain = gain;
            covered.union_with(&inst.candidates[s].covers);
        }
    }

    #[test]
    fn grid_candidates_all_cover_something((sensors, range) in arb_sensors()) {
        let field = mdg_geom::Aabb::square(150.0);
        let inst = CoverageInstance::grid_candidates(&sensors, &field, range / 2.0, range);
        for c in &inst.candidates {
            prop_assert!(!c.covers.none());
        }
        // With spacing ≤ range/√2 the lattice always covers every sensor
        // inside the field (nearest lattice point is within range).
        let fine = CoverageInstance::grid_candidates(&sensors, &field, range / 2.0, range);
        prop_assert!(fine.is_feasible());
    }
}
