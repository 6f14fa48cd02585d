//! Coverage instances: targets, candidate polling points and who covers
//! whom.

use mdg_geom::{Aabb, Point, SpatialGrid};

/// Candidates per block of the parallel list build. Fixed, so block
/// boundaries never depend on the thread count.
const ROW_BLOCK: usize = 1024;

/// A set-cover instance: `n_targets` sensors and a list of candidate
/// polling points, each covering the sensors within radio range of it.
///
/// The coverage relation is held once, as one ascending list of target
/// indices per candidate ([`CoverageInstance::covers`]) in CSR form:
/// 4 bytes per covering pair.
#[derive(Debug, Clone)]
pub struct CoverageInstance {
    /// Target (sensor) positions; the entries of every candidate's list
    /// index this.
    target_pts: Vec<Point>,
    /// Candidate positions, where the mobile collector would pause.
    sites: Vec<Point>,
    /// Candidate `c` covers `targets[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    targets: Vec<u32>,
    /// The transmission range that defined coverage.
    range: f64,
}

/// `acc + len`, the next list start.
///
/// # Panics
/// Panics if the relation holds more than `u32::MAX` covering pairs.
fn next_start(acc: u32, len: u32) -> u32 {
    acc.checked_add(len)
        .expect("coverage relation exceeds u32::MAX covering pairs")
}

impl CoverageInstance {
    /// Number of targets.
    pub fn n_targets(&self) -> usize {
        self.target_pts.len()
    }

    /// Number of candidates.
    pub fn n_candidates(&self) -> usize {
        self.sites.len()
    }

    /// The targets candidate `c` covers, ascending.
    #[inline]
    pub fn covers(&self, c: usize) -> &[u32] {
        &self.targets[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// Where candidate `c` would have the collector pause.
    #[inline]
    pub fn pos(&self, c: usize) -> Point {
        self.sites[c]
    }

    /// Position of target `t`.
    pub(crate) fn target_pos(&self, t: usize) -> Point {
        self.target_pts[t]
    }

    /// **Sensor-site candidates** (the paper's default): every sensor
    /// position is a candidate polling point; pausing at a sensor collects
    /// from it (distance 0) and every sensor within `range`. Candidate
    /// `i` is sensor `i`, even one at a non-finite position that covers
    /// nobody.
    pub fn sensor_sites(sensors: &[Point], range: f64) -> Self {
        assert!(range > 0.0 && range.is_finite(), "range must be positive");
        Self::build(sensors.to_vec(), sensors.to_vec(), range, true)
    }

    /// **Sensor sites, restricted to a subset**: the instance over
    /// `sensors[subset[0]], sensors[subset[1]], …` with sensor-site
    /// candidates, using *local* indices — target and candidate `i` both
    /// refer to `sensors[subset[i]]`. This is the per-tile building block
    /// of hierarchical planning: a tile's instance only pays for the
    /// tile's own covering pairs.
    ///
    /// Coverage is computed within the subset only; a sensor just outside
    /// the subset does not appear, even if it is within range. Each sensor
    /// still covers itself, so the instance is always feasible.
    ///
    /// # Panics
    /// Panics if `range` is not strictly positive and finite, or if any
    /// subset index is out of bounds.
    pub fn sensor_sites_subset(sensors: &[Point], subset: &[u32], range: f64) -> Self {
        assert!(range > 0.0 && range.is_finite(), "range must be positive");
        let local: Vec<Point> = subset.iter().map(|&g| sensors[g as usize]).collect();
        CoverageInstance::sensor_sites(&local, range)
    }

    /// **Grid candidates**: candidate polling points on a square lattice of
    /// the given `spacing` over `field` ("predefined positions" on a grid,
    /// the SHDG variant used in the comparison experiments). Grid points
    /// covering no sensor are dropped; the rest keep row-major order.
    pub fn grid_candidates(sensors: &[Point], field: &Aabb, spacing: f64, range: f64) -> Self {
        assert!(
            spacing > 0.0 && spacing.is_finite(),
            "spacing must be positive"
        );
        assert!(range > 0.0 && range.is_finite(), "range must be positive");
        if sensors.is_empty() {
            return Self::build(Vec::new(), Vec::new(), range, false);
        }
        let nx = (field.width() / spacing).floor() as usize + 1;
        let ny = (field.height() / spacing).floor() as usize + 1;
        let lattice = (0..nx * ny)
            .map(|cell| {
                let (gy, gx) = (cell / nx, cell % nx);
                Point::new(
                    (field.min.x + gx as f64 * spacing).min(field.max.x),
                    (field.min.y + gy as f64 * spacing).min(field.max.y),
                )
            })
            .collect();
        Self::build(sensors.to_vec(), lattice, range, false)
    }

    /// The one builder behind every constructor: candidate `c` at
    /// `sites[c]` covers the targets within `range` of it, by the grid's
    /// in-range predicate. Without `keep_empty`, candidates covering
    /// nothing are dropped and the rest keep their order.
    ///
    /// Two passes over fixed [`ROW_BLOCK`]-candidate blocks, as the
    /// unit-disk graph is built: the first counts each candidate's
    /// targets, which lays out the lists in one exact-size array; the
    /// second fills each list from the grid and sorts it. Each list is a
    /// pure function of its own position, so the instance is
    /// bit-identical at any thread count.
    fn build(target_pts: Vec<Point>, mut sites: Vec<Point>, range: f64, keep_empty: bool) -> Self {
        let grid = SpatialGrid::build(&target_pts, range);
        let mut lens = vec![0u32; sites.len()];
        mdg_par::par_chunks_mut(&mut lens, ROW_BLOCK, |start, lens| {
            for (len, &p) in lens.iter_mut().zip(&sites[start..]) {
                *len = grid.count_within(p, range) as u32;
            }
        });
        if !keep_empty {
            (sites, lens) = sites
                .iter()
                .zip(&lens)
                .filter(|&(_, &len)| len > 0)
                .map(|(&p, &len)| (p, len))
                .unzip();
        }
        let mut starts = Vec::with_capacity(sites.len() + 1);
        starts.push(0u32);
        for &len in &lens {
            starts.push(next_start(starts[starts.len() - 1], len));
        }
        let mut targets = vec![0u32; starts[sites.len()] as usize];
        {
            // Cut the array into each block's slice up front, so every
            // task owns its output outright.
            let mut blocks = Vec::with_capacity(sites.len().div_ceil(ROW_BLOCK));
            let mut rest = &mut targets[..];
            for first in (0..sites.len()).step_by(ROW_BLOCK) {
                let rows = first..(first + ROW_BLOCK).min(sites.len());
                let len = (starts[rows.end] - starts[rows.start]) as usize;
                let (lists, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                blocks.push((rows, lists));
            }
            mdg_par::par_chunks_mut(&mut blocks, 1, |_, block| {
                let (rows, lists) = &mut block[0];
                let base = starts[rows.start] as usize;
                for c in rows.clone() {
                    let lo = starts[c] as usize - base;
                    let list = &mut lists[lo..starts[c + 1] as usize - base];
                    let mut k = 0;
                    grid.for_each_within(sites[c], range, |t| {
                        list[k] = t;
                        k += 1;
                    });
                    assert_eq!(k, list.len(), "one grid fills its lists as it counted them");
                    list.sort_unstable();
                }
            });
        }
        CoverageInstance {
            target_pts,
            sites,
            starts,
            targets,
            range,
        }
    }

    /// Targets not covered by *any* candidate (possible with grid
    /// candidates and coarse spacing; with sensor-site candidates only a
    /// sensor at a non-finite position, which covers not even itself).
    pub fn uncoverable_targets(&self) -> Vec<usize> {
        let mut covered = vec![false; self.n_targets()];
        let mut left = self.n_targets();
        // Stop at the first list that leaves nothing uncovered: on a
        // dense field that is the first list.
        for c in 0..self.n_candidates() {
            if left == 0 {
                break;
            }
            for &t in self.covers(c) {
                left -= usize::from(!std::mem::replace(&mut covered[t as usize], true));
            }
        }
        (0..self.n_targets()).filter(|&t| !covered[t]).collect()
    }

    /// Returns `true` if every target is covered by some candidate.
    pub fn is_feasible(&self) -> bool {
        self.uncoverable_targets().is_empty()
    }

    /// Returns `true` if the candidate subset `selected` covers all
    /// targets.
    pub fn is_cover(&self, selected: &[usize]) -> bool {
        let mut covered = vec![false; self.n_targets()];
        for &s in selected {
            for &t in self.covers(s) {
                covered[t as usize] = true;
            }
        }
        covered.into_iter().all(|c| c)
    }

    /// Assigns each target to the **nearest** selected candidate that
    /// covers it (ties to the lowest index in `selected`). Returns
    /// `assignment[t] = index into selected`, or `None` if `selected` is
    /// not a cover.
    ///
    /// The selected positions are indexed by a [`SpatialGrid`], so each
    /// target costs `O(local density)` instead of `O(selected)`. Coverage
    /// is the grid's in-range predicate, and `dist_sq` is symmetric bit
    /// for bit, so the grid around a target visits exactly the selected
    /// candidates whose lists hold it.
    pub fn assign(&self, selected: &[usize]) -> Option<Vec<usize>> {
        let pts: Vec<Point> = selected.iter().map(|&s| self.sites[s]).collect();
        let grid = SpatialGrid::build(&pts, self.range);
        self.target_pts
            .iter()
            .map(|&tp| {
                let mut best = usize::MAX;
                let mut best_d = f64::INFINITY;
                // Min over (dist², index): the nearest, ties to the
                // lowest index.
                grid.for_each_within_d(tp, self.range, |k, d| {
                    let k = k as usize;
                    if d < best_d || (d == best_d && k < best) {
                        best_d = d;
                        best = k;
                    }
                });
                (best != usize::MAX).then_some(best)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_sensors() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
            Point::new(60.0, 0.0),
        ]
    }

    #[test]
    fn sensor_sites_cover_themselves() {
        let inst = CoverageInstance::sensor_sites(&line_sensors(), 12.0);
        assert_eq!(inst.n_candidates(), 4);
        assert!(inst.is_feasible());
        for i in 0..inst.n_candidates() {
            assert!(
                inst.covers(i).contains(&(i as u32)),
                "candidate {i} must cover its own sensor"
            );
        }
        // Candidate 1 (x=10) covers sensors 0, 1, 2 at R=12.
        assert_eq!(inst.covers(1), [0, 1, 2]);
        // The isolated sensor is covered only by itself.
        assert_eq!(inst.covers(3), [3]);
    }

    #[test]
    fn coverage_is_symmetric_for_sensor_sites() {
        let sensors = line_sensors();
        let inst = CoverageInstance::sensor_sites(&sensors, 15.0);
        for i in 0..sensors.len() {
            for j in 0..sensors.len() {
                assert_eq!(
                    inst.covers(i).contains(&(j as u32)),
                    inst.covers(j).contains(&(i as u32)),
                    "symmetry ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn is_cover_and_assignment() {
        let inst = CoverageInstance::sensor_sites(&line_sensors(), 12.0);
        assert!(
            inst.is_cover(&[1, 3]),
            "x=10 covers 0..=2, x=60 covers itself"
        );
        assert!(!inst.is_cover(&[1]), "sensor 3 uncovered");
        assert!(!inst.is_cover(&[]));
        let assign = inst.assign(&[1, 3]).unwrap();
        assert_eq!(assign, vec![0, 0, 0, 1]);
        assert!(inst.assign(&[1]).is_none());
    }

    #[test]
    fn assignment_picks_nearest() {
        let inst = CoverageInstance::sensor_sites(&line_sensors(), 12.0);
        // Sensors 0 and 2 both covered by candidates 0,1 and 1,2 resp.
        let assign = inst.assign(&[0, 1, 2, 3]).unwrap();
        assert_eq!(
            assign,
            vec![0, 1, 2, 3],
            "each sensor assigned to itself (distance 0)"
        );
    }

    #[test]
    fn grid_candidates_cover_with_fine_spacing() {
        let sensors = line_sensors();
        let field = Aabb::square(70.0);
        let inst = CoverageInstance::grid_candidates(&sensors, &field, 5.0, 12.0);
        assert!(inst.is_feasible());
        assert!(inst.n_candidates() > 0);
        // Every retained grid candidate covers at least one sensor.
        for c in 0..inst.n_candidates() {
            assert!(!inst.covers(c).is_empty());
            assert!(field.contains(inst.pos(c)));
        }
    }

    #[test]
    fn grid_candidates_may_be_infeasible_when_sparse() {
        // One sensor, a tiny range, and a huge spacing: the lattice point
        // nearest the sensor may still be out of range.
        let sensors = vec![Point::new(33.0, 33.0)];
        let field = Aabb::square(100.0);
        let inst = CoverageInstance::grid_candidates(&sensors, &field, 50.0, 5.0);
        assert!(!inst.is_feasible());
        assert_eq!(inst.uncoverable_targets(), vec![0]);
    }

    #[test]
    fn empty_instance() {
        let inst = CoverageInstance::sensor_sites(&[], 10.0);
        assert_eq!(inst.n_targets(), 0);
        assert!(inst.is_feasible());
        assert!(inst.is_cover(&[]), "empty cover suffices for zero targets");
        assert_eq!(inst.assign(&[]).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn sensor_sites_subset_matches_full_instance_on_isolated_cluster() {
        // Two clusters farther apart than the range: restricting to one
        // cluster reproduces exactly that cluster's coverage structure.
        let sensors = vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(200.0, 200.0),
            Point::new(8.0, 0.0),
        ];
        let subset = [0u32, 1, 3];
        let inst = CoverageInstance::sensor_sites_subset(&sensors, &subset, 10.0);
        assert_eq!(inst.n_targets(), 3);
        assert_eq!(inst.n_candidates(), 3);
        assert!(inst.is_feasible(), "sensor sites always cover themselves");
        for (i, &g) in subset.iter().enumerate() {
            assert_eq!(inst.pos(i), sensors[g as usize]);
            assert!(inst.covers(i).contains(&(i as u32)), "self-coverage");
        }
        // Local candidate 1 (global sensor 1 at x=5) reaches both cluster
        // mates; the far-away sensor 2 is simply absent from the instance.
        assert_eq!(inst.covers(1), [0, 1, 2]);
    }

    #[test]
    fn sensor_sites_subset_empty_subset_is_feasible() {
        let sensors = vec![Point::new(1.0, 1.0)];
        let inst = CoverageInstance::sensor_sites_subset(&sensors, &[], 10.0);
        assert_eq!(inst.n_targets(), 0);
        assert!(inst.is_feasible());
    }
}
