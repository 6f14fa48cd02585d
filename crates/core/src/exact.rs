//! Exact SHDGP solving for small instances.
//!
//! Substitutes the paper's CPLEX/ILP optimal baseline. The search exploits
//! a structural fact: by the triangle inequality, some optimal solution's
//! polling-point set is an **inclusion-minimal cover** (a redundant polling
//! point could be dropped, and the tour through fewer points is never
//! longer). The solver therefore enumerates inclusion-minimal covers by
//! branching on the hardest uncovered sensor, lower-bounds each partial
//! selection by the convex-hull perimeter of the already-chosen points plus
//! the sink (hull perimeter ≤ any closed tour through those points, and it
//! is monotone under adding points), and evaluates complete covers exactly
//! with Held–Karp.

use crate::error::PlanError;
use crate::plan::{GatheringPlan, PollingPoint};
use mdg_cover::CoverageInstance;
use mdg_geom::{hull_perimeter, Point};
use mdg_net::Network;
use mdg_tour::{exact::HELD_KARP_MAX, held_karp, MatrixCost};

/// Sensor-count limit for the exact solver (keeps minimal-cover
/// enumeration and Held–Karp tractable).
pub const EXACT_MAX_SENSORS: usize = 18;

/// Search-node budget (safety valve; experiment instances finish well
/// below it).
const NODE_BUDGET: u64 = 5_000_000;

/// Solves SHDGP exactly on a small network with sensor-site candidates.
/// Returns the optimal plan (minimum tour length over all valid
/// polling-point sets).
///
/// # Errors
/// * [`PlanError::TooLargeForExact`] above [`EXACT_MAX_SENSORS`] sensors.
/// * [`PlanError::ExactBudgetExhausted`] if the node budget runs out.
pub fn exact_plan(net: &Network) -> Result<GatheringPlan, PlanError> {
    let n = net.n_sensors();
    if n > EXACT_MAX_SENSORS {
        return Err(PlanError::TooLargeForExact {
            n_sensors: n,
            limit: EXACT_MAX_SENSORS,
        });
    }
    let sink = net.deployment.sink;
    if n == 0 {
        return Ok(GatheringPlan::new(sink, Vec::new(), Vec::new()));
    }
    let inst = CoverageInstance::sensor_sites(&net.deployment.sensors, net.range);

    // Seed the incumbent with the heuristic plan.
    let heuristic = crate::planner::ShdgPlanner::new()
        .plan(net)
        .expect("sensor-site instances are always feasible");
    let mut best_len = heuristic.tour_length;
    let mut best_sel: Vec<usize> = heuristic
        .polling_points
        .iter()
        .map(|pp| pp.candidate)
        .collect();

    // Each candidate's covered set as a bit mask (n ≤ EXACT_MAX_SENSORS
    // < 32), and per-target coverer lists in candidate order.
    let masks: Vec<u32> = (0..inst.n_candidates())
        .map(|c| inst.covers(c).iter().fold(0, |m, &t| m | 1 << t))
        .collect();
    let coverers: Vec<Vec<usize>> = (0..n)
        .map(|t| {
            (0..inst.n_candidates())
                .filter(|&c| masks[c] >> t & 1 == 1)
                .collect()
        })
        .collect();

    struct Search<'a> {
        inst: &'a CoverageInstance,
        sink: Point,
        masks: &'a [u32],
        coverers: &'a [Vec<usize>],
        best_len: f64,
        best_sel: Vec<usize>,
        nodes: u64,
        exhausted: bool,
    }

    impl Search<'_> {
        fn optimal_tour_len(&self, sel: &[usize]) -> f64 {
            let mut pts = Vec::with_capacity(sel.len() + 1);
            pts.push(self.sink);
            pts.extend(sel.iter().map(|&c| self.inst.pos(c)));
            if pts.len() > HELD_KARP_MAX {
                // More polling points than Held–Karp handles can only
                // happen with > HELD_KARP_MAX-1 selections; bound instances
                // keep us below this, but degrade gracefully if not.
                let cost = MatrixCost::from_points(&pts);
                return mdg_tour::plan_tour(&cost).length(&cost);
            }
            let cost = MatrixCost::from_points(&pts);
            held_karp(&cost).1
        }

        fn recurse(&mut self, covered: u32, chosen: &mut Vec<usize>) {
            self.nodes += 1;
            if self.nodes > NODE_BUDGET {
                self.exhausted = true;
                return;
            }
            // Hull lower bound on any tour extending `chosen`.
            let mut pts: Vec<Point> = Vec::with_capacity(chosen.len() + 1);
            pts.push(self.sink);
            pts.extend(chosen.iter().map(|&c| self.inst.pos(c)));
            if hull_perimeter(&pts) >= self.best_len - 1e-12 {
                return;
            }
            let n = self.inst.n_targets();
            if covered.count_ones() as usize == n {
                // Complete cover: check inclusion-minimality to avoid
                // re-evaluating supersets (optimality is preserved; see
                // module docs).
                if is_inclusion_minimal(self.inst, chosen) {
                    let len = self.optimal_tour_len(chosen);
                    if len < self.best_len {
                        self.best_len = len;
                        self.best_sel = chosen.clone();
                    }
                }
                return;
            }
            let target = (0..n)
                .filter(|&t| covered >> t & 1 == 0)
                .min_by_key(|&t| self.coverers[t].len())
                .expect("uncovered target exists");
            for &c in &self.coverers[target] {
                if self.exhausted {
                    return;
                }
                if chosen.contains(&c) {
                    continue;
                }
                chosen.push(c);
                self.recurse(covered | self.masks[c], chosen);
                chosen.pop();
            }
        }
    }

    let mut search = Search {
        inst: &inst,
        sink,
        masks: &masks,
        coverers: &coverers,
        best_len,
        best_sel: std::mem::take(&mut best_sel),
        nodes: 0,
        exhausted: false,
    };
    search.recurse(0, &mut Vec::new());
    if search.exhausted {
        return Err(PlanError::ExactBudgetExhausted);
    }
    best_len = search.best_len;
    let sel = search.best_sel;

    // Materialize the optimal plan: exact tour order + nearest assignment.
    let mut pts = Vec::with_capacity(sel.len() + 1);
    pts.push(sink);
    pts.extend(sel.iter().map(|&c| inst.pos(c)));
    let cost = MatrixCost::from_points(&pts);
    let tour = if pts.len() <= HELD_KARP_MAX {
        held_karp(&cost).0
    } else {
        mdg_tour::plan_tour(&cost)
    };
    let order = tour.order();
    debug_assert_eq!(order[0], 0);
    let tour_cands: Vec<usize> = order[1..].iter().map(|&i| sel[i - 1]).collect();
    let assignment = inst.assign(&tour_cands).expect("selection is a cover");
    let mut covered_lists: Vec<Vec<u32>> = vec![Vec::new(); tour_cands.len()];
    for (s, &k) in assignment.iter().enumerate() {
        covered_lists[k].push(s as u32);
    }
    let polling_points = tour_cands
        .iter()
        .zip(covered_lists)
        .map(|(&c, cov)| PollingPoint {
            pos: inst.pos(c),
            candidate: c,
            covered: cov,
        })
        .collect();
    let plan = GatheringPlan::new(sink, polling_points, assignment);
    debug_assert!((plan.tour_length - best_len).abs() < 1e-6);
    Ok(plan)
}

/// Returns `true` if no member of `sel` is redundant (each uniquely covers
/// some target).
fn is_inclusion_minimal(inst: &CoverageInstance, sel: &[usize]) -> bool {
    let n = inst.n_targets();
    let mut count = vec![0u32; n];
    for &c in sel {
        for &t in inst.covers(c) {
            count[t as usize] += 1;
        }
    }
    sel.iter()
        .all(|&c| inst.covers(c).iter().any(|&t| count[t as usize] == 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::ShdgPlanner;
    use mdg_net::DeploymentConfig;

    fn net(n: usize, side: f64, range: f64, seed: u64) -> Network {
        Network::build(DeploymentConfig::uniform(n, side).generate(seed), range)
    }

    #[test]
    fn exact_never_worse_than_heuristic() {
        for seed in 0..8 {
            let net = net(12, 80.0, 25.0, seed);
            let exact = exact_plan(&net).unwrap();
            let heur = ShdgPlanner::new().plan(&net).unwrap();
            exact.validate(&net.deployment.sensors, net.range).unwrap();
            assert!(
                exact.tour_length <= heur.tour_length + 1e-6,
                "seed {seed}: exact {} > heuristic {}",
                exact.tour_length,
                heur.tour_length
            );
        }
    }

    #[test]
    fn exact_beats_or_equals_brute_force_over_covers() {
        // On very small instances, compare against every subset of sensors
        // that is a cover, each evaluated with Held–Karp.
        for seed in [0u64, 3, 5] {
            let net = net(8, 70.0, 25.0, seed);
            let inst = CoverageInstance::sensor_sites(&net.deployment.sensors, net.range);
            let sink = net.deployment.sink;
            let mut brute = f64::INFINITY;
            let m = inst.n_candidates();
            for mask in 1u32..(1 << m) {
                let sel: Vec<usize> = (0..m).filter(|&c| mask & (1 << c) != 0).collect();
                if !inst.is_cover(&sel) {
                    continue;
                }
                let mut pts = vec![sink];
                pts.extend(sel.iter().map(|&c| inst.pos(c)));
                let cost = MatrixCost::from_points(&pts);
                let (_, len) = held_karp(&cost);
                brute = brute.min(len);
            }
            let exact = exact_plan(&net).unwrap();
            assert!(
                (exact.tour_length - brute).abs() < 1e-6,
                "seed {seed}: exact {} vs brute {}",
                exact.tour_length,
                brute
            );
        }
    }

    #[test]
    fn single_sensor_exact() {
        let net = net(1, 60.0, 20.0, 1);
        let plan = exact_plan(&net).unwrap();
        let d = net.deployment.sink.dist(net.deployment.sensors[0]);
        assert!((plan.tour_length - 2.0 * d).abs() < 1e-9);
    }

    #[test]
    fn empty_network_exact() {
        let net = net(0, 60.0, 20.0, 1);
        let plan = exact_plan(&net).unwrap();
        assert_eq!(plan.tour_length, 0.0);
    }

    #[test]
    fn too_large_is_rejected() {
        let net = net(EXACT_MAX_SENSORS + 1, 100.0, 20.0, 1);
        match exact_plan(&net) {
            Err(PlanError::TooLargeForExact { n_sensors, limit }) => {
                assert_eq!(n_sensors, EXACT_MAX_SENSORS + 1);
                assert_eq!(limit, EXACT_MAX_SENSORS);
            }
            other => panic!("expected TooLargeForExact, got {other:?}"),
        }
    }

    #[test]
    fn minimality_check() {
        let sensors: Vec<Point> = [0.0, 10.0, 20.0]
            .iter()
            .map(|&x| Point::new(x, 0.0))
            .collect();
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        assert!(is_inclusion_minimal(&inst, &[1]));
        assert!(
            !is_inclusion_minimal(&inst, &[0, 1]),
            "0 is redundant given 1"
        );
        assert!(is_inclusion_minimal(&inst, &[0, 2]));
    }
}
