//! Property-based tests for coverage instances and set-cover solvers.

use mdg_cover::{greedy_cover, CoverageInstance};
use mdg_geom::{Aabb, Point};
use proptest::prelude::*;
use proptest::TestCaseError;

fn arb_sensors() -> impl Strategy<Value = (Vec<Point>, f64)> {
    (
        proptest::collection::vec(
            (0.0..150.0f64, 0.0..150.0f64).prop_map(|(x, y)| Point::new(x, y)),
            1..40,
        ),
        15.0..60.0f64,
    )
}

/// Fields of every shape the coverage lists must get right, by `kind`:
/// uniform; co-located stacks; an integer lattice with an integer range,
/// so pairs sit at exactly R; uniform with NaN and ±∞ coordinates mixed
/// in.
fn arb_field() -> impl Strategy<Value = (Vec<Point>, f64)> {
    (
        0..4usize,
        proptest::collection::vec((0.0..150.0f64, 0.0..150.0f64), 0..40),
        1..4u32,
    )
        .prop_map(|(kind, xy, step)| {
            let pts = xy.iter().enumerate().map(|(i, &(x, y))| match kind {
                // Four stacks: each sensor sits on one of four positions.
                1 => Point::new((i % 4) as f64 * 20.0, (i % 4) as f64 * 5.0),
                2 => Point::new((x / 30.0).floor(), (y / 30.0).floor()),
                3 if i % 5 == 1 => Point::new(f64::NAN, y),
                3 if i % 5 == 3 => Point::new(x, f64::INFINITY),
                3 if i % 7 == 6 => Point::new(f64::NEG_INFINITY, f64::INFINITY),
                _ => Point::new(x, y),
            });
            let range = if kind == 2 { step as f64 } else { 25.0 };
            (pts.collect(), range)
        })
}

/// The targets within `range` of `p`, by brute force.
fn brute(targets: &[Point], p: Point, range: f64) -> Vec<u32> {
    (0..targets.len() as u32)
        .filter(|&t| p.dist_sq(targets[t as usize]) <= range * range)
        .collect()
}

/// Every candidate's list is ascending and equals the brute-force set.
fn lists_match_brute_force(
    inst: &CoverageInstance,
    targets: &[Point],
    range: f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(inst.n_targets(), targets.len());
    for c in 0..inst.n_candidates() {
        let list = inst.covers(c);
        prop_assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "candidate {c}'s list {list:?} is not ascending"
        );
        prop_assert_eq!(list, &brute(targets, inst.pos(c), range)[..]);
    }
    Ok(())
}

/// Sensor-site checks: candidate `i` is sensor `i`, the lists are
/// symmetric, and each finite sensor lists itself.
fn sensor_site_lists_hold(sensors: &[Point], range: f64) -> Result<(), TestCaseError> {
    let inst = CoverageInstance::sensor_sites(sensors, range);
    prop_assert_eq!(inst.n_candidates(), sensors.len());
    lists_match_brute_force(&inst, sensors, range)?;
    for (i, &p) in sensors.iter().enumerate() {
        let q = inst.pos(i);
        prop_assert!(q.x.to_bits() == p.x.to_bits() && q.y.to_bits() == p.y.to_bits());
        let finite = p.x.is_finite() && p.y.is_finite();
        prop_assert_eq!(inst.covers(i).contains(&(i as u32)), finite);
        for &j in inst.covers(i) {
            prop_assert!(
                inst.covers(j as usize).contains(&(i as u32)),
                "{i} lists {j}, but {j} does not list {i}"
            );
        }
    }
    Ok(())
}

fn all_constructors_hold(sensors: &[Point], range: f64) -> Result<(), TestCaseError> {
    sensor_site_lists_hold(sensors, range)?;

    // Every other sensor, in reverse: local index i is subset[i].
    let subset: Vec<u32> = (0..sensors.len() as u32).rev().step_by(2).collect();
    let local: Vec<Point> = subset.iter().map(|&g| sensors[g as usize]).collect();
    let inst = CoverageInstance::sensor_sites_subset(sensors, &subset, range);
    prop_assert_eq!(inst.n_candidates(), subset.len());
    lists_match_brute_force(&inst, &local, range)?;

    // Grid candidates keep the lattice points that cover someone, in
    // row-major order.
    let field = Aabb::square(150.0);
    let spacing = range / 2.0;
    let inst = CoverageInstance::grid_candidates(sensors, &field, spacing, range);
    lists_match_brute_force(&inst, sensors, range)?;
    let n = (150.0 / spacing).floor() as usize + 1;
    let kept: Vec<Point> = (0..n * n)
        .map(|cell| {
            Point::new(
                ((cell % n) as f64 * spacing).min(150.0),
                ((cell / n) as f64 * spacing).min(150.0),
            )
        })
        .filter(|&p| !brute(sensors, p, range).is_empty())
        .collect();
    prop_assert_eq!(
        (0..inst.n_candidates())
            .map(|c| inst.pos(c))
            .collect::<Vec<_>>(),
        kept
    );
    Ok(())
}

#[test]
fn lists_hold_for_a_single_sensor_and_an_empty_field() {
    for sensors in [vec![], vec![Point::new(3.0, 4.0)]] {
        all_constructors_hold(&sensors, 10.0).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lists_equal_the_brute_force_relation((sensors, range) in arb_field()) {
        all_constructors_hold(&sensors, range)?;
    }

    #[test]
    fn sensor_site_instances_are_always_feasible((sensors, range) in arb_sensors()) {
        let inst = CoverageInstance::sensor_sites(&sensors, range);
        prop_assert!(inst.is_feasible());
        // Each candidate covers its own sensor.
        for i in 0..inst.n_candidates() {
            prop_assert!(inst.covers(i).contains(&(i as u32)));
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
            let pp = inst.pos(sel[k]);
            prop_assert!(pp.dist(sensors[t]) <= range + 1e-9,
                "target {} assigned out of range", t);
        }
    }

    #[test]
    fn greedy_selection_gains_are_monotone_nonincreasing((sensors, range) in arb_sensors()) {
        let inst = CoverageInstance::sensor_sites(&sensors, range);
        let sel = greedy_cover(&inst, |_| 0.0).unwrap();
        let mut covered = vec![false; inst.n_targets()];
        let mut prev_gain = usize::MAX;
        for &s in &sel {
            let gain = inst.covers(s).iter().filter(|&&t| !covered[t as usize]).count();
            prop_assert!(gain >= 1, "every greedy pick covers something new");
            prop_assert!(gain <= prev_gain, "greedy gains are non-increasing");
            prev_gain = gain;
            for &t in inst.covers(s) {
                covered[t as usize] = true;
            }
        }
    }

    #[test]
    fn grid_candidates_all_cover_something((sensors, range) in arb_sensors()) {
        let field = mdg_geom::Aabb::square(150.0);
        let inst = CoverageInstance::grid_candidates(&sensors, &field, range / 2.0, range);
        for c in 0..inst.n_candidates() {
            prop_assert!(!inst.covers(c).is_empty());
        }
        // With spacing ≤ range/√2 the lattice always covers every sensor
        // inside the field (nearest lattice point is within range).
        let fine = CoverageInstance::grid_candidates(&sensors, &field, range / 2.0, range);
        prop_assert!(fine.is_feasible());
    }
}
