//! In-place mutation of a [`GatheringPlan`] — the substrate for online
//! plan repair (`mdg-runtime`).
//!
//! A live plan evolves as nodes die: polling points are removed (orphaning
//! the sensors they served), replacement points are spliced in, and the
//! visiting order is permuted after tour polishing. Every operation keeps
//! `tour_length` consistent and the `covered` lists in sync with
//! `assignment`.
//!
//! Sensors without a current polling point carry the sentinel
//! [`UNASSIGNED`] in `assignment`. [`GatheringPlan::validate`] rejects such
//! plans (it demands total coverage); use
//! [`GatheringPlan::validate_live`] to check a plan against the sensors
//! that are still alive.

use crate::plan::{GatheringPlan, PollingPoint};
use mdg_geom::Point;

/// `assignment` sentinel for a sensor not currently served by any polling
/// point (dead, or orphaned and awaiting repair).
pub const UNASSIGNED: usize = usize::MAX;

impl GatheringPlan {
    /// Drops dead sensors from every `covered` list and marks them
    /// [`UNASSIGNED`]. Returns the number of entries removed.
    pub fn drop_dead_sensors(&mut self, alive: &[bool]) -> usize {
        assert_eq!(alive.len(), self.assignment.len(), "alive mask size");
        let mut removed = 0;
        for pp in &mut self.polling_points {
            let before = pp.covered.len();
            pp.covered.retain(|&s| alive[s as usize]);
            removed += before - pp.covered.len();
        }
        for (s, a) in self.assignment.iter_mut().enumerate() {
            if !alive[s] {
                *a = UNASSIGNED;
            }
        }
        removed
    }

    /// Removes polling point `k` from the tour. Its covered sensors become
    /// [`UNASSIGNED`] orphans; assignments past `k` shift down; the tour
    /// length is recomputed. Returns the removed point and the orphaned
    /// sensor ids.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn remove_polling_point(&mut self, k: usize) -> (PollingPoint, Vec<u32>) {
        assert!(
            k < self.polling_points.len(),
            "polling point {k} out of range"
        );
        let pp = self.polling_points.remove(k);
        let orphans = pp.covered.clone();
        for a in &mut self.assignment {
            if *a == UNASSIGNED {
                continue;
            }
            if *a == k {
                *a = UNASSIGNED;
            } else if *a > k {
                *a -= 1;
            }
        }
        self.refresh_tour_length();
        (pp, orphans)
    }

    /// Inserts `pp` at tour position `k` (visited after `k-1`, before the
    /// old `k`). Its `covered` sensors are assigned to it; assignments at
    /// or past `k` shift up; the tour length is recomputed.
    ///
    /// # Panics
    /// Panics if `k > n_polling_points()`, a covered sensor id is out of
    /// range, or a covered sensor is already assigned elsewhere.
    pub fn insert_polling_point(&mut self, k: usize, pp: PollingPoint) {
        assert!(
            k <= self.polling_points.len(),
            "insert position {k} out of range"
        );
        for a in &mut self.assignment {
            if *a != UNASSIGNED && *a >= k {
                *a += 1;
            }
        }
        for &s in &pp.covered {
            let slot = self
                .assignment
                .get_mut(s as usize)
                .unwrap_or_else(|| panic!("covered sensor {s} out of range"));
            assert_eq!(*slot, UNASSIGNED, "sensor {s} is already assigned");
            *slot = k;
        }
        self.polling_points.insert(k, pp);
        self.refresh_tour_length();
    }

    /// Assigns the currently-unassigned sensor `s` to polling point `k`
    /// (orphan adoption — reassignment at zero tour cost). The caller is
    /// responsible for `s` being within range of the point.
    ///
    /// # Panics
    /// Panics if `s` or `k` is out of range, or `s` is already assigned.
    pub fn assign_sensor(&mut self, s: usize, k: usize) {
        assert!(
            k < self.polling_points.len(),
            "polling point {k} out of range"
        );
        let slot = &mut self.assignment[s];
        assert_eq!(*slot, UNASSIGNED, "sensor {s} is already assigned");
        *slot = k;
        self.polling_points[k].covered.push(s as u32);
    }

    /// Live sensors currently not served by any polling point.
    pub fn unassigned_sensors(&self, alive: &[bool]) -> Vec<usize> {
        assert_eq!(alive.len(), self.assignment.len(), "alive mask size");
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(s, &a)| alive[s] && a == UNASSIGNED)
            .map(|(s, _)| s)
            .collect()
    }

    /// Permutes the polling points into a new visiting order:
    /// `order[new_pos] = old_pos`. Assignments are remapped and the tour
    /// length recomputed.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..n_polling_points()`.
    pub fn reorder_polling_points(&mut self, order: &[usize]) {
        let n = self.polling_points.len();
        assert_eq!(order.len(), n, "order must cover every polling point");
        let mut new_of_old = vec![UNASSIGNED; n];
        for (new_pos, &old_pos) in order.iter().enumerate() {
            assert!(old_pos < n, "order entry {old_pos} out of range");
            assert_eq!(
                new_of_old[old_pos], UNASSIGNED,
                "duplicate order entry {old_pos}"
            );
            new_of_old[old_pos] = new_pos;
        }
        let old = std::mem::take(&mut self.polling_points);
        let mut slots: Vec<Option<PollingPoint>> = old.into_iter().map(Some).collect();
        self.polling_points = order
            .iter()
            .map(|&o| slots[o].take().expect("permutation checked above"))
            .collect();
        for a in &mut self.assignment {
            if *a != UNASSIGNED {
                *a = new_of_old[*a];
            }
        }
        self.refresh_tour_length();
    }

    /// Recomputes `tour_length` from the current polling-point order.
    fn refresh_tour_length(&mut self) {
        self.tour_length = mdg_geom::closed_tour_length(&self.tour_positions());
    }

    /// Validates the plan against the *live* part of the deployment: every
    /// live sensor assigned to an in-range polling point, `covered` lists
    /// consistent with `assignment` (for live sensors), and the stored
    /// tour length fresh. Dead sensors may be [`UNASSIGNED`] or still
    /// carry a stale assignment; both are accepted.
    pub fn validate_live(
        &self,
        sensors: &[Point],
        range: f64,
        alive: &[bool],
    ) -> Result<(), String> {
        if self.assignment.len() != sensors.len() || alive.len() != sensors.len() {
            return Err(format!(
                "assignment/alive cover {}/{} sensors, deployment has {}",
                self.assignment.len(),
                alive.len(),
                sensors.len()
            ));
        }
        // `listed[s]`: sensor `s` appears in the covered list of the polling
        // point it is assigned to. One pass over the covered lists replaces
        // a linear `contains` per sensor; this check runs after every
        // served delta.
        let mut listed = vec![false; sensors.len()];
        for (k, pp) in self.polling_points.iter().enumerate() {
            for &s in &pp.covered {
                if self.assignment.get(s as usize) == Some(&k) {
                    listed[s as usize] = true;
                }
            }
        }
        for (s, &pp) in self.assignment.iter().enumerate() {
            if !alive[s] {
                continue;
            }
            if pp == UNASSIGNED {
                return Err(format!("live sensor {s} is unassigned"));
            }
            let pp_ref = self
                .polling_points
                .get(pp)
                .ok_or_else(|| format!("sensor {s} assigned to missing polling point {pp}"))?;
            let d = sensors[s].dist(pp_ref.pos);
            if d > range + 1e-9 {
                return Err(format!(
                    "live sensor {s} is {d:.2} m from its polling point (range {range} m)"
                ));
            }
            if !listed[s] {
                return Err(format!(
                    "polling point {pp} does not list live sensor {s} as covered"
                ));
            }
        }
        let recomputed = mdg_geom::closed_tour_length(&self.tour_positions());
        if (recomputed - self.tour_length).abs() > 1e-6 {
            return Err(format!(
                "stored tour length {} != recomputed {}",
                self.tour_length, recomputed
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three polling points on a line, five sensors.
    fn plan_and_sensors() -> (GatheringPlan, Vec<Point>) {
        let sensors = vec![
            Point::new(0.0, 10.0),
            Point::new(5.0, 10.0),
            Point::new(20.0, 10.0),
            Point::new(40.0, 10.0),
            Point::new(42.0, 10.0),
        ];
        let pps = vec![
            PollingPoint {
                pos: Point::new(0.0, 10.0),
                candidate: 0,
                covered: vec![0, 1],
            },
            PollingPoint {
                pos: Point::new(20.0, 10.0),
                candidate: 2,
                covered: vec![2],
            },
            PollingPoint {
                pos: Point::new(40.0, 10.0),
                candidate: 3,
                covered: vec![3, 4],
            },
        ];
        let plan = GatheringPlan::new(Point::new(20.0, 0.0), pps, vec![0, 0, 1, 2, 2]);
        (plan, sensors)
    }

    #[test]
    fn remove_orphans_and_shifts() {
        let (mut plan, sensors) = plan_and_sensors();
        let (pp, orphans) = plan.remove_polling_point(1);
        assert_eq!(pp.candidate, 2);
        assert_eq!(orphans, vec![2]);
        assert_eq!(plan.assignment, vec![0, 0, UNASSIGNED, 1, 1]);
        assert_eq!(plan.unassigned_sensors(&[true; 5]), vec![2]);
        let expect = mdg_geom::closed_tour_length(&plan.tour_positions());
        assert!((plan.tour_length - expect).abs() < 1e-12);
        // Live validation fails while the orphan is unserved...
        assert!(plan.validate_live(&sensors, 10.0, &[true; 5]).is_err());
        // ...and passes if the orphan is dead.
        let alive = [true, true, false, true, true];
        plan.validate_live(&sensors, 10.0, &alive).unwrap();
    }

    #[test]
    fn insert_assigns_and_shifts() {
        let (mut plan, sensors) = plan_and_sensors();
        let (_, orphans) = plan.remove_polling_point(1);
        assert_eq!(orphans, vec![2]);
        plan.insert_polling_point(
            1,
            PollingPoint {
                pos: Point::new(21.0, 10.0),
                candidate: 99,
                covered: vec![2],
            },
        );
        assert_eq!(plan.assignment, vec![0, 0, 1, 2, 2]);
        plan.validate_live(&sensors, 10.0, &[true; 5]).unwrap();
        assert!(plan.unassigned_sensors(&[true; 5]).is_empty());
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn double_assignment_rejected() {
        let (mut plan, _) = plan_and_sensors();
        plan.insert_polling_point(
            0,
            PollingPoint {
                pos: Point::ORIGIN,
                candidate: 9,
                covered: vec![2],
            },
        );
    }

    #[test]
    fn drop_dead_sensors_cleans_cover_lists() {
        let (mut plan, sensors) = plan_and_sensors();
        let alive = [true, false, true, true, false];
        assert_eq!(plan.drop_dead_sensors(&alive), 2);
        assert_eq!(plan.polling_points[0].covered, vec![0]);
        assert_eq!(plan.polling_points[2].covered, vec![3]);
        assert_eq!(plan.assignment[1], UNASSIGNED);
        assert_eq!(plan.assignment[4], UNASSIGNED);
        plan.validate_live(&sensors, 10.0, &alive).unwrap();
        // The full validator rejects the now-partial plan.
        assert!(plan.validate(&sensors, 10.0).is_err());
    }

    #[test]
    fn validate_live_requires_the_assigned_stop_to_list_the_sensor() {
        let (mut plan, sensors) = plan_and_sensors();
        // Sensor 1 stays assigned to stop 0 but is listed under stop 1.
        plan.polling_points[0].covered.retain(|&s| s != 1);
        plan.polling_points[1].covered.push(1);
        let err = plan
            .validate_live(&sensors, 30.0, &[true; 5])
            .expect_err("stop 0 no longer lists sensor 1");
        assert!(err.contains("does not list live sensor 1"), "{err}");
        // Dead sensors and ids past the deployment in a covered list are
        // not the validator's concern.
        plan.polling_points[2].covered.push(99);
        plan.validate_live(&sensors, 30.0, &[true, false, true, true, true])
            .unwrap();
    }

    #[test]
    fn reorder_remaps_assignment() {
        let (mut plan, sensors) = plan_and_sensors();
        plan.reorder_polling_points(&[2, 0, 1]);
        assert_eq!(plan.polling_points[0].candidate, 3);
        assert_eq!(plan.assignment, vec![1, 1, 2, 0, 0]);
        plan.validate_live(&sensors, 10.0, &[true; 5]).unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate order entry")]
    fn reorder_rejects_non_permutation() {
        let (mut plan, _) = plan_and_sensors();
        plan.reorder_polling_points(&[0, 0, 1]);
    }

    #[test]
    fn remove_all_points_leaves_everyone_orphaned() {
        let (mut plan, _) = plan_and_sensors();
        while plan.n_polling_points() > 0 {
            plan.remove_polling_point(0);
        }
        assert_eq!(plan.tour_length, 0.0);
        assert_eq!(plan.unassigned_sensors(&[true; 5]).len(), 5);
    }
}
