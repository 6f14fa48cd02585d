//! Incremental plan repair: restore the single-hop coverage invariant
//! after node deaths without re-solving the whole SHDG instance.
//!
//! A polling point is *anchored* at the sensor whose site the collector
//! pauses at (sensor-site candidates; the anchor coordinates the stop's
//! uploads). When the anchor dies the stop goes stale: the collector can
//! still drive there, but the sensors assigned to it are **orphaned** —
//! their data is no longer gathered.
//!
//! [`repair_plan`] runs the repair pipeline:
//!
//! 1. purge dead sensors from the plan;
//! 2. remove stale stops (dead anchor) and stops left serving no one;
//! 3. if too much of the tour was lost, fall back to a **full re-plan**
//!    of the surviving sub-network;
//! 4. otherwise *adopt* orphans into surviving in-range stops (zero tour
//!    cost), re-cover the rest with a restricted greedy over live
//!    candidates (ties broken by cheapest-insertion detour), splice the
//!    new stops into the tour, and polish with a bounded 2-opt/Or-opt
//!    touch-up.
//!
//! The post-condition — every live sensor single-hop covered by an
//! in-range polling point — is checked by
//! [`GatheringPlan::validate_live`] (debug builds assert it).

use mdg_core::{GatheringPlan, PlannerConfig, PollingPoint, ShdgPlanner, UNASSIGNED};
use mdg_cover::{greedy_cover_restricted, CoverageInstance};
use mdg_net::Network;
use mdg_tour::{cheapest_insertion_position, improve, MatrixCost, Tour};
use serde::{Deserialize, Serialize};

/// Repair tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepairConfig {
    /// Local-search passes for the post-splice tour touch-up (0 disables
    /// polishing).
    pub improve_passes: usize,
    /// If at least this fraction of the tour's stops went stale, repair
    /// falls back to a full re-plan of the surviving sub-network.
    pub full_replan_stop_fraction: f64,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            improve_passes: 8,
            full_replan_stop_fraction: 0.5,
        }
    }
}

/// What one repair invocation did. `ops` is a deterministic work measure
/// (candidate/edge scans), usable in traces where wall-clock time would
/// break replay determinism.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RepairReport {
    /// Stale or empty stops removed from the tour.
    pub removed_stops: usize,
    /// Replacement stops spliced in (or, on full re-plan, the stop count
    /// of the new tour).
    pub added_stops: usize,
    /// Orphans adopted by surviving stops at zero tour cost.
    pub adopted: usize,
    /// Orphans re-covered by newly spliced stops.
    pub recovered: usize,
    /// Whether repair escalated to a full re-plan.
    pub full_replan: bool,
    /// Deterministic work measure.
    pub ops: u64,
}

impl RepairReport {
    /// Whether the repair changed the plan at all.
    pub fn changed(&self) -> bool {
        self.removed_stops > 0 || self.added_stops > 0 || self.adopted > 0 || self.full_replan
    }
}

/// Index of the sensor anchoring polling point `pp`, if the plan uses
/// sensor-site candidates (`candidate < n_sensors`). Grid-candidate plans
/// have no anchor and never go stale.
fn anchor_of(pp: &PollingPoint, n_sensors: usize) -> Option<usize> {
    (pp.candidate < n_sensors).then_some(pp.candidate)
}

/// Repairs `plan` in place so every live sensor is single-hop covered
/// again. `inst` must be the sensor-site coverage instance of `net`
/// (cached by the caller — building it is the expensive part).
///
/// Returns what was done. With no relevant deaths this is a cheap no-op.
pub fn repair_plan(
    plan: &mut GatheringPlan,
    net: &Network,
    inst: &CoverageInstance,
    alive: &[bool],
    cfg: &RepairConfig,
) -> RepairReport {
    let n = net.n_sensors();
    assert_eq!(alive.len(), n, "alive mask size");
    let mut report = RepairReport::default();

    // Pristine network with total coverage: nothing to repair, at zero
    // cost. Both halves matter: a live sensor can be UNASSIGNED without
    // any death when the caller grew the deployment (sensors added to a
    // warm serving session) — those orphans go through the same
    // adopt/re-cover pipeline below.
    if alive.iter().all(|&a| a) && !plan.assignment.contains(&UNASSIGNED) {
        return report;
    }

    // 1. Purge dead sensors.
    plan.drop_dead_sensors(alive);

    // 2. Remove stale stops (dead anchor) and stops serving no one.
    let n_stops_before = plan.n_polling_points();
    let stale: Vec<usize> = plan
        .polling_points
        .iter()
        .enumerate()
        .filter(|(_, pp)| {
            let anchor_dead = anchor_of(pp, n).is_some_and(|a| !alive[a]);
            anchor_dead || pp.covered.is_empty()
        })
        .map(|(k, _)| k)
        .collect();
    for &k in stale.iter().rev() {
        plan.remove_polling_point(k);
        report.removed_stops += 1;
    }
    report.ops += n_stops_before as u64;

    let orphans = plan.unassigned_sensors(alive);
    if orphans.is_empty() {
        debug_assert!(plan
            .validate_live(&net.deployment.sensors, net.range, alive)
            .is_ok());
        return report;
    }

    // 3. Escalate to a full re-plan when the tour lost too many stops for
    //    splicing to stay near-optimal.
    let lost_fraction = if n_stops_before == 0 {
        1.0
    } else {
        report.removed_stops as f64 / n_stops_before as f64
    };
    if lost_fraction >= cfg.full_replan_stop_fraction || plan.n_polling_points() == 0 {
        full_replan(plan, net, alive, cfg, &mut report);
        debug_assert!(plan
            .validate_live(&net.deployment.sensors, net.range, alive)
            .is_ok());
        return report;
    }

    // 4a. Adoption: orphans within range of a surviving stop are simply
    //     reassigned — no tour change at all. The surviving stops are
    //     indexed by a spatial grid so each orphan costs O(local density)
    //     instead of O(stops); the grid's hits are re-filtered with the
    //     linear scan's exact predicate and (distance, index) tie rule, so
    //     the adoption choices are unchanged.
    let mut unadopted = Vec::new();
    let stop_pts: Vec<_> = plan.polling_points.iter().map(|pp| pp.pos).collect();
    let stop_grid = mdg_geom::SpatialGrid::build(&stop_pts, net.range);
    for &s in &orphans {
        let sp = net.deployment.sensors[s];
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        // Query with an inflated radius, then apply the exact
        // `d ≤ range + 1e-9` predicate: sqrt-vs-squared rounding right at
        // the boundary could otherwise flip a borderline hit.
        stop_grid.for_each_within(sp, net.range + 1e-6, |k| {
            report.ops += 1;
            let k = k as usize;
            let d = sp.dist(stop_pts[k]);
            if d <= net.range + 1e-9 && (d < best_d || (d == best_d && k < best)) {
                best_d = d;
                best = k;
            }
        });
        if best != usize::MAX {
            plan.assign_sensor(s, best);
            report.adopted += 1;
        } else {
            unadopted.push(s);
        }
    }

    // 4b. Re-cover the rest with new stops chosen from live candidates,
    //     ties broken toward the cheapest tour insertion.
    if !unadopted.is_empty() {
        let allowed: Vec<usize> = (0..n).filter(|&c| alive[c]).collect();
        let cycle = plan.tour_positions();
        report.ops += (allowed.len() * unadopted.len()) as u64;
        let selected = greedy_cover_restricted(inst, &unadopted, &allowed, |c| {
            cheapest_insertion_position(&cycle, inst.pos(c)).1
        });
        let Some(selected) = selected else {
            // A live sensor covered by no live candidate cannot happen with
            // sensor-site candidates (it covers itself), but be safe.
            full_replan(plan, net, alive, cfg, &mut report);
            debug_assert!(plan
                .validate_live(&net.deployment.sensors, net.range, alive)
                .is_ok());
            return report;
        };

        // Assign each still-orphaned sensor to the nearest covering new stop.
        let mut served: Vec<Vec<u32>> = vec![Vec::new(); selected.len()];
        for &s in &unadopted {
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            for (i, &c) in selected.iter().enumerate() {
                report.ops += 1;
                if inst.covers(c).binary_search(&(s as u32)).is_ok() {
                    let d = inst.pos(c).dist_sq(net.deployment.sensors[s]);
                    if d < best_d {
                        best_d = d;
                        best = i;
                    }
                }
            }
            debug_assert_ne!(best, usize::MAX, "greedy returned a cover");
            served[best].push(s as u32);
        }

        // Splice each new stop into the tour at its cheapest position.
        for (&c, covered) in selected.iter().zip(served) {
            let pp = PollingPoint {
                pos: inst.pos(c),
                candidate: c,
                covered,
            };
            let cycle = plan.tour_positions();
            report.ops += cycle.len() as u64;
            let (idx, _) = cheapest_insertion_position(&cycle, pp.pos);
            // Cycle index 0 is the sink, so plan position = idx - 1.
            let recovered = pp.covered.len();
            plan.insert_polling_point(idx - 1, pp);
            report.added_stops += 1;
            report.recovered += recovered;
        }
    }

    // 4c. Polish the spliced tour with a bounded local search.
    if cfg.improve_passes > 0 && plan.n_polling_points() >= 3 {
        let pts = plan.tour_positions();
        let cost = MatrixCost::from_points(&pts);
        let tour = improve(&cost, Tour::identity(pts.len()), cfg.improve_passes);
        report.ops += (pts.len() * pts.len()) as u64 * cfg.improve_passes as u64;
        let order = tour.into_order();
        debug_assert_eq!(order[0], 0, "normalized tours lead with the depot");
        if order.windows(2).any(|w| w[1] != w[0] + 1) {
            let pp_order: Vec<usize> = order[1..].iter().map(|&i| i - 1).collect();
            plan.reorder_polling_points(&pp_order);
        }
    }

    debug_assert!(plan
        .validate_live(&net.deployment.sensors, net.range, alive)
        .is_ok());
    report
}

/// Plans the surviving sensors from scratch and maps the result back
/// onto global sensor ids.
fn full_replan(
    plan: &mut GatheringPlan,
    net: &Network,
    alive: &[bool],
    cfg: &RepairConfig,
    report: &mut RepairReport,
) {
    report.full_replan = true;
    let live_ids: Vec<u32> = (0..net.n_sensors() as u32)
        .filter(|&s| alive[s as usize])
        .collect();
    report.ops += (live_ids.len() * live_ids.len()) as u64;
    let mut assignment = vec![UNASSIGNED; net.n_sensors()];
    if live_ids.is_empty() {
        *plan = GatheringPlan::new(plan.sink, Vec::new(), assignment);
        return;
    }

    let sub = CoverageInstance::sensor_sites_subset(&net.deployment.sensors, &live_ids, net.range);
    let sub_plan = ShdgPlanner::with_config(PlannerConfig {
        improve_passes: cfg.improve_passes.max(1) * 8,
        ..PlannerConfig::default()
    })
    .plan_instance(&sub, net.deployment.sink)
    .expect("sensor-site candidates are always feasible");

    // Remap local (subset) ids back to global ids.
    for (local, &pp) in sub_plan.assignment.iter().enumerate() {
        assignment[live_ids[local] as usize] = pp;
    }
    let polling_points: Vec<PollingPoint> = sub_plan
        .polling_points
        .into_iter()
        .map(|pp| PollingPoint {
            pos: pp.pos,
            candidate: live_ids[pp.candidate] as usize,
            covered: pp.covered.iter().map(|&s| live_ids[s as usize]).collect(),
        })
        .collect();
    report.added_stops += polling_points.len();
    report.recovered += live_ids.len();
    *plan = GatheringPlan::new(net.deployment.sink, polling_points, assignment);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_net::{Deployment, DeploymentConfig};

    fn setup(n: usize, seed: u64) -> (Network, CoverageInstance, GatheringPlan) {
        let net = Network::build(DeploymentConfig::uniform(n, 200.0).generate(seed), 30.0);
        let inst = CoverageInstance::sensor_sites(&net.deployment.sensors, net.range);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        (net, inst, plan)
    }

    #[test]
    fn no_deaths_is_a_noop() {
        let (net, inst, mut plan) = setup(80, 1);
        let before = plan.clone();
        let rep = repair_plan(
            &mut plan,
            &net,
            &inst,
            &[true; 80],
            &RepairConfig::default(),
        );
        assert!(!rep.changed());
        assert_eq!(plan, before);
    }

    #[test]
    fn dead_anchor_triggers_recovery() {
        let (net, inst, mut plan) = setup(100, 2);
        let mut alive = vec![true; 100];
        // Kill the anchor of the stop serving the most sensors.
        let victim = plan
            .polling_points
            .iter()
            .max_by_key(|pp| pp.covered.len())
            .unwrap()
            .candidate;
        alive[victim] = false;
        let rep = repair_plan(&mut plan, &net, &inst, &alive, &RepairConfig::default());
        assert!(rep.changed());
        assert_eq!(rep.removed_stops, 1);
        plan.validate_live(&net.deployment.sensors, net.range, &alive)
            .unwrap();
    }

    #[test]
    fn covered_non_anchor_death_just_purges() {
        let (net, inst, mut plan) = setup(100, 3);
        // Kill a sensor that is covered by a stop anchored elsewhere.
        let victim = plan
            .polling_points
            .iter()
            .flat_map(|pp| pp.covered.iter().map(|&s| s as usize))
            .find(|&s| plan.polling_points[plan.assignment[s]].candidate != s)
            .expect("some sensor is served by a neighbor's stop");
        let mut alive = vec![true; 100];
        alive[victim] = false;
        let stops_before = plan.n_polling_points();
        let rep = repair_plan(&mut plan, &net, &inst, &alive, &RepairConfig::default());
        assert!(!rep.full_replan);
        assert_eq!(rep.recovered, 0);
        // The victim's stop survives unless the victim was its only client.
        assert!(plan.n_polling_points() >= stops_before - 1);
        plan.validate_live(&net.deployment.sensors, net.range, &alive)
            .unwrap();
    }

    #[test]
    fn mass_death_escalates_to_full_replan() {
        let (net, inst, mut plan) = setup(120, 4);
        let mut alive = vec![true; 120];
        // Kill every anchor: 100% of stops go stale.
        for pp in &plan.polling_points.clone() {
            alive[pp.candidate] = false;
        }
        let rep = repair_plan(&mut plan, &net, &inst, &alive, &RepairConfig::default());
        assert!(rep.full_replan);
        plan.validate_live(&net.deployment.sensors, net.range, &alive)
            .unwrap();
        assert!(plan.n_polling_points() > 0);
    }

    #[test]
    fn everyone_dead_empties_the_plan() {
        let (net, inst, mut plan) = setup(40, 5);
        let alive = vec![false; 40];
        let rep = repair_plan(&mut plan, &net, &inst, &alive, &RepairConfig::default());
        // Every stop's anchor is dead, so stale removal alone empties the
        // plan; with no live orphans there is nothing to re-plan.
        assert!(!rep.full_replan);
        assert!(rep.removed_stops > 0);
        assert_eq!(plan.n_polling_points(), 0);
        plan.validate_live(&net.deployment.sensors, net.range, &alive)
            .unwrap();
    }

    #[test]
    fn added_sensors_are_recovered_without_deaths() {
        let (net, _, mut plan) = setup(100, 9);
        // Grow the deployment by five sensors (one colocated with an
        // existing stop so adoption triggers, the rest off in a corner so
        // new stops must be spliced in).
        let mut sensors = net.deployment.sensors.clone();
        sensors.push(plan.polling_points[0].pos);
        for i in 0..4 {
            sensors.push(mdg_geom::Point::new(190.0 + i as f64, 190.0));
        }
        let grown = Network::build(
            Deployment {
                sensors: sensors.clone(),
                sink: net.deployment.sink,
                field: net.deployment.field,
            },
            net.range,
        );
        let inst = CoverageInstance::sensor_sites(&sensors, net.range);
        plan.assignment.extend([UNASSIGNED; 5]);
        let alive = vec![true; 105];
        let rep = repair_plan(&mut plan, &grown, &inst, &alive, &RepairConfig::default());
        assert!(rep.changed(), "added sensors must trigger repair");
        assert!(!rep.full_replan);
        assert_eq!(rep.adopted + rep.recovered, 5);
        assert!(rep.adopted >= 1, "colocated sensor is adopted for free");
        // Full (not just live) validation: every sensor covered again.
        plan.validate(&sensors, grown.range).unwrap();
    }

    #[test]
    fn repair_is_deterministic() {
        let (net, inst, plan0) = setup(100, 6);
        let mut alive = vec![true; 100];
        for pp in plan0.polling_points.iter().take(2) {
            alive[pp.candidate] = false;
        }
        let mut a = plan0.clone();
        let mut b = plan0.clone();
        let ra = repair_plan(&mut a, &net, &inst, &alive, &RepairConfig::default());
        let rb = repair_plan(&mut b, &net, &inst, &alive, &RepairConfig::default());
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_repair_converges() {
        let (net, inst, mut plan) = setup(90, 7);
        let mut alive = vec![true; 90];
        alive[plan.polling_points[0].candidate] = false;
        repair_plan(&mut plan, &net, &inst, &alive, &RepairConfig::default());
        let after_first = plan.clone();
        let rep = repair_plan(&mut plan, &net, &inst, &alive, &RepairConfig::default());
        assert!(!rep.changed(), "second repair must be a no-op");
        assert_eq!(plan, after_first);
    }
}
