//! Multi-collector planning: splitting a data-gathering plan across a
//! fleet of M-collectors to meet a latency deadline.
//!
//! For large fields, one collector's round can exceed the application's
//! data-gathering deadline (the collector moves at ~1 m/s). The paper's
//! extension deploys several M-collectors, each serving a subset of the
//! polling points on its own sink-anchored sub-tour. Two strategies are
//! provided:
//!
//! * [`plan_fleet`] / [`plan_fleet_for_deadline`]: split the global tour
//!   (Frederickson-style packing over the tour order, binary-searching the
//!   makespan) — the primary method. Both read the plan's positions
//!   through one in-order packer and compute each leg on demand, so they
//!   take `O(m)` memory in the stop count `m`.
//! * [`plan_fleet_angular`]: partition polling points into `k` angular
//!   sectors around the sink and plan each sector independently — the A3
//!   ablation alternative.

use crate::plan::GatheringPlan;
use mdg_geom::{closed_tour_length, Point};
use mdg_tour::{
    pack_in_order, plan_tour, split_into_k, EuclideanCost, MatrixCost, SplitTour, Tour,
};
use serde::{Deserialize, Serialize};

/// One collector's assignment in a fleet plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectorTour {
    /// Indices into the source plan's `polling_points`, in visiting order.
    pub polling_points: Vec<usize>,
    /// Closed sub-tour length (sink → points… → sink) in meters.
    pub length: f64,
    /// Number of sensors served on this sub-tour.
    pub sensors_served: usize,
}

impl CollectorTour {
    /// Collection time of this sub-tour at `speed_mps` with `upload_secs`
    /// pause per served sensor.
    pub fn collection_time(&self, speed_mps: f64, upload_secs: f64) -> f64 {
        assert!(speed_mps > 0.0, "collector speed must be positive");
        self.length / speed_mps + upload_secs * self.sensors_served as f64
    }
}

/// A fleet plan: one sub-tour per collector. All collectors depart the sink
/// simultaneously; the round finishes when the slowest returns (makespan).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetPlan {
    /// Sub-tours, one per collector.
    pub collectors: Vec<CollectorTour>,
}

impl FleetPlan {
    /// Number of collectors deployed.
    pub fn n_collectors(&self) -> usize {
        self.collectors.len()
    }

    /// Longest sub-tour length.
    pub fn max_length(&self) -> f64 {
        self.collectors.iter().map(|c| c.length).fold(0.0, f64::max)
    }

    /// Sum of sub-tour lengths (total fleet travel).
    pub fn total_length(&self) -> f64 {
        self.collectors.iter().map(|c| c.length).sum()
    }

    /// Round makespan: the slowest collector's collection time.
    pub fn makespan(&self, speed_mps: f64, upload_secs: f64) -> f64 {
        self.collectors
            .iter()
            .map(|c| c.collection_time(speed_mps, upload_secs))
            .fold(0.0, f64::max)
    }

    /// Checks the fleet partitions the plan's polling points exactly.
    pub fn validate(&self, plan: &GatheringPlan) -> Result<(), String> {
        let mut seen = vec![false; plan.n_polling_points()];
        for (k, c) in self.collectors.iter().enumerate() {
            for &pp in &c.polling_points {
                if pp >= seen.len() {
                    return Err(format!("collector {k} visits unknown polling point {pp}"));
                }
                if seen[pp] {
                    return Err(format!("polling point {pp} visited by two collectors"));
                }
                seen[pp] = true;
            }
        }
        if let Some(miss) = seen.iter().position(|&s| !s) {
            return Err(format!("polling point {miss} not visited by any collector"));
        }
        Ok(())
    }
}

/// Maps sub-tours over the plan's tour cities (sink = city 0, polling
/// point `i` = city `i + 1`) back to polling points.
fn materialize(plan: &GatheringPlan, splits: Vec<SplitTour>) -> FleetPlan {
    let collectors = splits
        .into_iter()
        .map(|st| {
            let polling_points: Vec<usize> = st.cities.iter().map(|&c| c - 1).collect();
            let sensors_served = polling_points
                .iter()
                .map(|&pp| plan.polling_points[pp].covered.len())
                .sum();
            CollectorTour {
                polling_points,
                length: st.length,
                sensors_served,
            }
        })
        .collect();
    FleetPlan { collectors }
}

/// Splits `plan` across exactly `k` collectors (fewer if fewer suffice for
/// the same makespan), minimizing the longest sub-tour.
pub fn plan_fleet(plan: &GatheringPlan, k: usize) -> FleetPlan {
    let pts = plan.tour_positions();
    let cost = EuclideanCost::new(&pts);
    materialize(plan, split_into_k(&cost, &Tour::identity(pts.len()), k))
}

/// Finds the smallest fleet whose round completes within
/// `deadline_secs` (travel at `speed_mps` plus `upload_secs` per sensor).
/// Returns `None` if even a dedicated collector per polling point misses
/// the deadline (some point is too far, or its uploads alone take too
/// long).
/// ```
/// use mdg_core::{fleet::plan_fleet_for_deadline, ShdgPlanner};
/// use mdg_net::{DeploymentConfig, Network};
///
/// let net = Network::build(DeploymentConfig::uniform(150, 300.0).generate(7), 30.0);
/// let plan = ShdgPlanner::new().plan(&net).unwrap();
/// let single_round = plan.collection_time(1.0, 0.5);
/// // Halving the deadline needs a (validated) multi-collector fleet.
/// let fleet = plan_fleet_for_deadline(&plan, single_round / 2.0, 1.0, 0.5).unwrap();
/// assert!(fleet.n_collectors() >= 2);
/// assert!(fleet.makespan(1.0, 0.5) <= single_round / 2.0);
/// ```
pub fn plan_fleet_for_deadline(
    plan: &GatheringPlan,
    deadline_secs: f64,
    speed_mps: f64,
    upload_secs: f64,
) -> Option<FleetPlan> {
    assert!(deadline_secs > 0.0, "deadline must be positive");
    assert!(speed_mps > 0.0, "speed must be positive");
    // Upload pauses differ per polling point, so a pure length bound is
    // inexact: a sub-tour serving a set S of points needs len/speed +
    // upload·sensors(S). Packing in tour order with that exact time
    // accounting needs no binary search: the deadline itself is the budget.
    let pts = plan.tour_positions();
    let splits = pack_in_order(
        &EuclideanCost::new(&pts),
        &Tour::identity(pts.len()),
        |c| plan.polling_points[c - 1].covered.len(),
        |len, sensors| len / speed_mps + upload_secs * sensors as f64 <= deadline_secs + 1e-9,
    )?;
    Some(materialize(plan, splits))
}

/// Angular-partition fleet planning (ablation A3): polling points are
/// bucketed into `k` equal angular sectors around the sink and each
/// sector's tour is planned independently. Empty sectors get no collector.
pub fn plan_fleet_angular(plan: &GatheringPlan, k: usize) -> FleetPlan {
    assert!(k > 0, "need at least one sector");
    let sink = plan.sink;
    let mut sectors: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, pp) in plan.polling_points.iter().enumerate() {
        let v = pp.pos - sink;
        // atan2 ∈ (-π, π]; map into [0, τ).
        let mut a = v.angle();
        if a < 0.0 {
            a += std::f64::consts::TAU;
        }
        let sector = ((a / std::f64::consts::TAU * k as f64) as usize).min(k - 1);
        sectors[sector].push(i);
    }
    let collectors = sectors
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|pps| {
            // Plan this sector's own tour: sink + its points.
            let mut pts: Vec<Point> = Vec::with_capacity(pps.len() + 1);
            pts.push(sink);
            pts.extend(pps.iter().map(|&i| plan.polling_points[i].pos));
            let cost = MatrixCost::from_points(&pts);
            let tour = plan_tour(&cost);
            let order = tour.order();
            debug_assert_eq!(order[0], 0);
            let polling_points: Vec<usize> = order[1..].iter().map(|&c| pps[c - 1]).collect();
            let tour_pts: Vec<Point> = order.iter().map(|&c| pts[c]).collect();
            let length = closed_tour_length(&tour_pts);
            let sensors_served = polling_points
                .iter()
                .map(|&pp| plan.polling_points[pp].covered.len())
                .sum();
            CollectorTour {
                polling_points,
                length,
                sensors_served,
            }
        })
        .collect();
    FleetPlan { collectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PollingPoint;
    use crate::planner::ShdgPlanner;
    use mdg_net::{DeploymentConfig, Network};

    fn plan(n: usize, side: f64, range: f64, seed: u64) -> (GatheringPlan, Network) {
        let net = Network::build(DeploymentConfig::uniform(n, side).generate(seed), range);
        (ShdgPlanner::new().plan(&net).unwrap(), net)
    }

    #[test]
    fn single_collector_fleet_equals_plan() {
        let (p, _) = plan(100, 200.0, 30.0, 1);
        let fleet = plan_fleet(&p, 1);
        assert_eq!(fleet.n_collectors(), 1);
        assert!((fleet.max_length() - p.tour_length).abs() < 1e-6);
        fleet.validate(&p).unwrap();
        assert_eq!(fleet.collectors[0].sensors_served, p.n_sensors());
    }

    #[test]
    fn fleet_partitions_polling_points() {
        let (p, _) = plan(150, 300.0, 30.0, 3);
        for k in [2, 3, 5] {
            let fleet = plan_fleet(&p, k);
            fleet.validate(&p).unwrap();
            assert!(fleet.n_collectors() <= k);
            let served: usize = fleet.collectors.iter().map(|c| c.sensors_served).sum();
            assert_eq!(served, p.n_sensors());
        }
    }

    #[test]
    fn makespan_decreases_with_fleet_size() {
        let (p, _) = plan(200, 400.0, 30.0, 5);
        let m1 = plan_fleet(&p, 1).makespan(1.0, 0.0);
        let m3 = plan_fleet(&p, 3).makespan(1.0, 0.0);
        let m6 = plan_fleet(&p, 6).makespan(1.0, 0.0);
        assert!(m3 <= m1 + 1e-9);
        assert!(m6 <= m3 + 1e-9);
        assert!(
            m6 < m1,
            "a 6-collector fleet must beat one collector on a 400 m field"
        );
    }

    #[test]
    fn deadline_planning_meets_deadline() {
        let (p, _) = plan(150, 300.0, 30.0, 7);
        let speed = 1.0;
        let upload = 1.0;
        let single_time = p.collection_time(speed, upload);
        for frac in [0.3, 0.5, 0.8] {
            let deadline = single_time * frac;
            let fleet = plan_fleet_for_deadline(&p, deadline, speed, upload).unwrap();
            fleet.validate(&p).unwrap();
            assert!(
                fleet.makespan(speed, upload) <= deadline + 1e-6,
                "deadline {deadline} violated: {}",
                fleet.makespan(speed, upload)
            );
            assert!(
                fleet.n_collectors() >= 2,
                "a {frac} deadline needs more than one collector"
            );
        }
    }

    #[test]
    fn deadline_collector_count_is_monotone() {
        let (p, _) = plan(120, 300.0, 30.0, 11);
        let single = p.collection_time(1.0, 1.0);
        let mut prev = usize::MAX;
        for frac in [0.25, 0.4, 0.6, 0.9, 1.1] {
            let fleet = plan_fleet_for_deadline(&p, single * frac, 1.0, 1.0).unwrap();
            assert!(
                fleet.n_collectors() <= prev,
                "looser deadline needs no more collectors"
            );
            prev = fleet.n_collectors();
        }
        assert_eq!(
            prev, 1,
            "a deadline above the single-collector time needs one collector"
        );
    }

    #[test]
    fn impossible_deadline_is_none() {
        let (p, _) = plan(50, 300.0, 30.0, 2);
        // No collector can serve the farthest point in 1 second.
        assert!(plan_fleet_for_deadline(&p, 1.0, 1.0, 0.0).is_none());
    }

    #[test]
    fn angular_partition_covers_everything() {
        let (p, _) = plan(150, 300.0, 30.0, 13);
        for k in [2, 4, 8] {
            let fleet = plan_fleet_angular(&p, k);
            fleet.validate(&p).unwrap();
            assert!(fleet.n_collectors() <= k);
        }
    }

    #[test]
    fn empty_plan_fleet() {
        let (p, _) = plan(0, 100.0, 30.0, 1);
        assert_eq!(plan_fleet(&p, 3).n_collectors(), 0);
        let fleet = plan_fleet_for_deadline(&p, 10.0, 1.0, 1.0).unwrap();
        assert_eq!(fleet.n_collectors(), 0);
        assert_eq!(fleet.makespan(1.0, 1.0), 0.0);
        plan_fleet_angular(&p, 4).validate(&p).unwrap();
    }

    #[test]
    fn a_60_000_stop_plan_splits_without_a_distance_matrix() {
        // One sensor per stop on a 245-column lattice, 10 m apart: a
        // 60 001-vertex tour whose m × m matrix would take 28.8 GB.
        let stops: Vec<PollingPoint> = (0..60_000u32)
            .map(|i| PollingPoint {
                pos: Point::new((i % 245) as f64 * 10.0, (i / 245) as f64 * 10.0),
                candidate: i as usize,
                covered: vec![i],
            })
            .collect();
        let p = GatheringPlan::new(Point::ORIGIN, stops, (0..60_000).collect());
        let fleet = plan_fleet(&p, 3);
        fleet.validate(&p).unwrap();
        assert_eq!(fleet.n_collectors(), 3);
        assert!(fleet.max_length() < p.tour_length);
        let deadline = p.collection_time(1.0, 0.5) / 3.0;
        let fleet = plan_fleet_for_deadline(&p, deadline, 1.0, 0.5).unwrap();
        fleet.validate(&p).unwrap();
        assert!(fleet.n_collectors() >= 3);
        assert!(fleet.makespan(1.0, 0.5) <= deadline + 1e-6);
    }

    #[test]
    fn hier_fleet_partitions_a_tiled_plan() {
        use crate::hier::{HierConfig, HierPlan};
        let net = Network::build(DeploymentConfig::uniform(700, 600.0).generate(5), 30.0);
        let hp = HierPlan::build(
            &net.deployment.sensors,
            net.deployment.sink,
            net.range,
            HierConfig {
                tile_cells: Some(6.0),
                ..HierConfig::default()
            },
        )
        .unwrap();
        for k in [2, 4] {
            let fleet = plan_fleet(hp.plan(), k);
            fleet.validate(hp.plan()).unwrap();
            assert!(fleet.n_collectors() <= k);
            let served: usize = fleet.collectors.iter().map(|c| c.sensors_served).sum();
            assert_eq!(served, hp.plan().n_sensors());
        }
    }

    #[test]
    fn collector_time_accounts_uploads() {
        let (p, _) = plan(80, 200.0, 30.0, 17);
        let fleet = plan_fleet(&p, 2);
        for c in &fleet.collectors {
            let t = c.collection_time(2.0, 3.0);
            assert!((t - (c.length / 2.0 + 3.0 * c.sensors_served as f64)).abs() < 1e-9);
        }
    }
}
