//! Capacity-bounded covering: polling points with buffer limits.
//!
//! A collector pausing at a polling point must buffer every affiliated
//! sensor's packet before moving on; sensor-side polling points (storage
//! nodes) face the same limit. The capacitated variant bounds the number
//! of sensors any single polling point may serve, which both respects
//! buffers and smooths per-stop pause times.

use crate::instance::CoverageInstance;

/// A capacity-feasible cover: selected candidates plus an assignment that
/// never exceeds the per-point capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacitatedCover {
    /// Selected candidate indices, in selection order.
    pub selected: Vec<usize>,
    /// `assignment[target] = index into selected`.
    pub assignment: Vec<usize>,
}

/// Greedy capacitated covering: repeatedly select the candidate that can
/// absorb the most still-unassigned targets (capped at `cap`), breaking
/// ties by the smallest `tie_break` value, and assign it its `cap` nearest
/// unassigned coverable targets.
///
/// Returns `None` if some target is uncoverable by any candidate
/// (never happens with sensor-site candidates and `cap ≥ 1`).
///
/// # Panics
/// Panics if `cap == 0`.
pub fn capacitated_greedy_cover<F>(
    inst: &CoverageInstance,
    cap: usize,
    tie_break: F,
) -> Option<CapacitatedCover>
where
    F: Fn(usize) -> f64,
{
    assert!(cap > 0, "capacity must be at least 1");
    let n = inst.n_targets();
    let mut assigned = vec![false; n];
    let mut assignment = vec![usize::MAX; n];
    let mut selected: Vec<usize> = Vec::new();
    let mut remaining = n;

    while remaining > 0 {
        // Pick the candidate with the largest capped gain.
        let mut best = usize::MAX;
        let mut best_gain = 0usize;
        let mut best_tie = f64::INFINITY;
        for c in 0..inst.n_candidates() {
            if selected.contains(&c) {
                continue; // Each point is selected (and filled) once.
            }
            // The gain is capped, so the count stops at `cap`.
            let gain = inst
                .covers(c)
                .iter()
                .filter(|&&t| !assigned[t as usize])
                .take(cap)
                .count();
            if gain == 0 {
                continue;
            }
            if gain > best_gain {
                best = c;
                best_gain = gain;
                best_tie = tie_break(c);
            } else if gain == best_gain {
                let t = tie_break(c);
                if t < best_tie {
                    best = c;
                    best_tie = t;
                }
            }
        }
        if best == usize::MAX {
            return None;
        }
        // Assign its nearest `cap` unassigned coverable targets. The list
        // is ascending and the sort stable, so equal distances keep
        // ascending target order.
        let p = inst.pos(best);
        let mut candidates: Vec<usize> = inst
            .covers(best)
            .iter()
            .map(|&t| t as usize)
            .filter(|&t| !assigned[t])
            .collect();
        candidates.sort_by(|&a, &b| {
            p.dist_sq(inst.target_pos(a))
                .partial_cmp(&p.dist_sq(inst.target_pos(b)))
                .unwrap()
        });
        let k = selected.len();
        selected.push(best);
        for &t in candidates.iter().take(cap) {
            assigned[t] = true;
            assignment[t] = k;
            remaining -= 1;
        }
    }
    Some(CapacitatedCover {
        selected,
        assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_geom::Point;
    use rand::{Rng, SeedableRng};

    impl CapacitatedCover {
        /// Number of targets assigned to each selected candidate.
        fn loads(&self) -> Vec<usize> {
            let mut loads = vec![0usize; self.selected.len()];
            for &k in &self.assignment {
                loads[k] += 1;
            }
            loads
        }

        /// The largest per-point load.
        fn max_load(&self) -> usize {
            self.loads().into_iter().max().unwrap_or(0)
        }
    }

    /// Verifies that `cover` is capacity-feasible for `inst`: every target
    /// assigned to a selected candidate that covers it, no candidate above
    /// `cap`.
    fn is_capacity_feasible(inst: &CoverageInstance, cover: &CapacitatedCover, cap: usize) -> bool {
        if cover.assignment.len() != inst.n_targets() {
            return false;
        }
        let mut loads = vec![0usize; cover.selected.len()];
        for (t, &k) in cover.assignment.iter().enumerate() {
            let Some(&c) = cover.selected.get(k) else {
                return false;
            };
            if !inst.covers(c).contains(&(t as u32)) {
                return false;
            }
            loads[k] += 1;
        }
        loads.into_iter().all(|l| l <= cap)
    }

    fn line(xs: &[f64]) -> Vec<Point> {
        xs.iter().map(|&x| Point::new(x, 0.0)).collect()
    }

    #[test]
    fn capacity_one_selects_one_point_per_sensor() {
        let sensors = line(&[0.0, 5.0, 10.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 20.0);
        let cover = capacitated_greedy_cover(&inst, 1, |_| 0.0).unwrap();
        assert_eq!(cover.selected.len(), 3);
        assert!(is_capacity_feasible(&inst, &cover, 1));
        assert_eq!(cover.max_load(), 1);
    }

    #[test]
    fn large_capacity_matches_uncapacitated_behavior() {
        let sensors = line(&[0.0, 10.0, 20.0, 60.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        let cover = capacitated_greedy_cover(&inst, 100, |_| 0.0).unwrap();
        assert!(is_capacity_feasible(&inst, &cover, 100));
        // Same count as the uncapacitated greedy: 2 points.
        let plain = crate::greedy::greedy_cover(&inst, |_| 0.0).unwrap();
        assert_eq!(cover.selected.len(), plain.len());
    }

    #[test]
    fn capacity_forces_extra_points() {
        // Five sensors all coverable by one central point; cap 2 needs ≥ 3
        // points.
        let sensors = line(&[8.0, 9.0, 10.0, 11.0, 12.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 30.0);
        let unbounded = capacitated_greedy_cover(&inst, 100, |_| 0.0).unwrap();
        assert_eq!(unbounded.selected.len(), 1);
        let bounded = capacitated_greedy_cover(&inst, 2, |_| 0.0).unwrap();
        assert!(bounded.selected.len() >= 3);
        assert!(is_capacity_feasible(&inst, &bounded, 2));
        assert!(bounded.max_load() <= 2);
    }

    #[test]
    fn assignment_prefers_nearby_targets() {
        // A central point takes its 2 nearest of 3 coverable sensors.
        let sensors = line(&[0.0, 1.0, 9.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 10.0);
        let cover = capacitated_greedy_cover(&inst, 2, |_| 0.0).unwrap();
        // First selected point gets exactly two targets, chosen nearest.
        let loads = cover.loads();
        assert!(loads.iter().all(|&l| l <= 2));
        assert!(is_capacity_feasible(&inst, &cover, 2));
    }

    #[test]
    fn random_instances_are_always_feasible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..10 {
            let sensors: Vec<Point> = (0..60)
                .map(|_| Point::new(rng.gen_range(0.0..150.0), rng.gen_range(0.0..150.0)))
                .collect();
            let inst = CoverageInstance::sensor_sites(&sensors, 30.0);
            for cap in [1, 3, 8, 100] {
                let cover = capacitated_greedy_cover(&inst, cap, |_| 0.0)
                    .unwrap_or_else(|| panic!("trial {trial} cap {cap} infeasible"));
                assert!(
                    is_capacity_feasible(&inst, &cover, cap),
                    "trial {trial} cap {cap}"
                );
                // Tighter capacity never uses fewer points.
                assert!(cover.selected.len() >= sensors.len().div_ceil(cap.max(1)).min(1));
            }
        }
    }

    #[test]
    fn infeasible_instance_returns_none() {
        let sensors = vec![Point::new(33.0, 33.0)];
        let inst =
            CoverageInstance::grid_candidates(&sensors, &mdg_geom::Aabb::square(100.0), 50.0, 5.0);
        assert_eq!(capacitated_greedy_cover(&inst, 4, |_| 0.0), None);
    }

    #[test]
    fn empty_instance() {
        let inst = CoverageInstance::sensor_sites(&[], 10.0);
        let cover = capacitated_greedy_cover(&inst, 3, |_| 0.0).unwrap();
        assert!(cover.selected.is_empty());
        assert!(cover.assignment.is_empty());
        assert_eq!(cover.max_load(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let inst = CoverageInstance::sensor_sites(&line(&[0.0]), 10.0);
        capacitated_greedy_cover(&inst, 0, |_| 0.0);
    }
}
