//! Reverse-delete pruning of redundant polling points.

use crate::instance::CoverageInstance;

/// Removes redundant candidates from a cover: a selected candidate is
/// dropped if the remaining selections still cover everything. Candidates
/// are considered for removal in *descending* `priority` order, so callers
/// remove the most expensive points first (the SHDG planner passes each
/// point's marginal tour cost).
///
/// The result is a minimal cover (no proper subset of it is a cover),
/// though not necessarily a minimum one.
///
/// # Panics
/// Panics if `selected` is not a cover of the instance.
pub fn prune_cover<F>(inst: &CoverageInstance, selected: &[usize], priority: F) -> Vec<usize>
where
    F: Fn(usize) -> f64,
{
    assert!(
        inst.is_cover(selected),
        "prune_cover requires a valid cover"
    );
    let n = inst.n_targets();
    let mut keep: Vec<usize> = selected.to_vec();
    // Try removals most-expensive-first.
    let mut order: Vec<usize> = selected.to_vec();
    order.sort_by(|&a, &b| priority(b).partial_cmp(&priority(a)).unwrap());

    // Multiplicity of coverage per target across kept candidates.
    let mut cover_count = vec![0u32; n];
    for &s in &keep {
        for &t in inst.covers(s) {
            cover_count[t as usize] += 1;
        }
    }

    for cand in order {
        // Removable iff every target it covers is covered at least twice.
        let removable = inst
            .covers(cand)
            .iter()
            .all(|&t| cover_count[t as usize] >= 2);
        if removable {
            for &t in inst.covers(cand) {
                cover_count[t as usize] -= 1;
            }
            keep.retain(|&s| s != cand);
        }
    }
    debug_assert!(inst.is_cover(&keep));
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_cover;
    use mdg_geom::Point;
    use proptest::prelude::*;

    /// Returns `true` if `selected` is a *minimal* cover: removing any single
    /// member breaks coverage. (Vacuously true for an empty selection over
    /// zero targets.)
    fn is_minimal_cover(inst: &CoverageInstance, selected: &[usize]) -> bool {
        if !inst.is_cover(selected) {
            return false;
        }
        let n = inst.n_targets();
        let mut cover_count = vec![0u32; n];
        for &s in selected {
            for &t in inst.covers(s) {
                cover_count[t as usize] += 1;
            }
        }
        // Minimal iff every member uniquely covers some target (a member
        // covering nothing therefore also fails this test).
        selected
            .iter()
            .all(|&s| inst.covers(s).iter().any(|&t| cover_count[t as usize] == 1))
    }

    fn line(xs: &[f64]) -> Vec<Point> {
        xs.iter().map(|&x| Point::new(x, 0.0)).collect()
    }

    #[test]
    fn removes_redundant_point() {
        // Sensors at 0,10,20; R=12. Candidate 1 covers everything; the
        // selection {0, 1, 2} contains two redundant points.
        let sensors = line(&[0.0, 10.0, 20.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        let pruned = prune_cover(&inst, &[0, 1, 2], |c| c as f64);
        assert!(inst.is_cover(&pruned));
        assert_eq!(
            pruned,
            vec![1],
            "only the all-covering middle point survives"
        );
    }

    #[test]
    fn priority_orders_removals() {
        // Symmetric: candidates 0 and 2 each redundant given 1; removing
        // the highest-priority first.
        let sensors = line(&[0.0, 10.0, 20.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 25.0);
        // All candidates cover all sensors. Keep the one with the LOWEST
        // priority value.
        let pruned = prune_cover(&inst, &[0, 1, 2], |c| [5.0, 1.0, 3.0][c]);
        assert_eq!(pruned, vec![1]);
        let pruned2 = prune_cover(&inst, &[0, 1, 2], |c| [0.0, 9.0, 3.0][c]);
        assert_eq!(pruned2, vec![0]);
    }

    #[test]
    fn pruned_cover_is_minimal() {
        let sensors = line(&[0.0, 7.0, 14.0, 21.0, 28.0, 35.0, 80.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 8.0);
        let sel = greedy_cover(&inst, |_| 0.0).unwrap();
        let pruned = prune_cover(&inst, &sel, |_| 0.0);
        assert!(inst.is_cover(&pruned));
        assert!(is_minimal_cover(&inst, &pruned));
        assert!(pruned.len() <= sel.len());
    }

    #[test]
    fn already_minimal_is_untouched() {
        let sensors = line(&[0.0, 100.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 10.0);
        let pruned = prune_cover(&inst, &[0, 1], |_| 0.0);
        assert_eq!(pruned.len(), 2);
    }

    #[test]
    fn minimality_detects_redundancy() {
        let sensors = line(&[0.0, 10.0, 20.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        assert!(!is_minimal_cover(&inst, &[0, 1, 2]));
        assert!(is_minimal_cover(&inst, &[1]));
        assert!(!is_minimal_cover(&inst, &[0]), "not even a cover");
    }

    #[test]
    #[should_panic(expected = "requires a valid cover")]
    fn pruning_non_cover_panics() {
        let sensors = line(&[0.0, 100.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 10.0);
        prune_cover(&inst, &[0], |_| 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prune_keeps_cover_and_shrinks((sensors, range) in crate::arb_sensors()) {
            let inst = CoverageInstance::sensor_sites(&sensors, range);
            let sel = greedy_cover(&inst, |_| 0.0).unwrap();
            let pruned = prune_cover(&inst, &sel, |c| sensors[c].x);
            prop_assert!(inst.is_cover(&pruned));
            prop_assert!(pruned.len() <= sel.len());
            prop_assert!(is_minimal_cover(&inst, &pruned));
        }
    }
}
