//! Property-based tests for the SHDG planner and fleet planning.

use mdg_core::{
    exact_plan, plan_fleet, plan_fleet_for_deadline, CoveringStrategy, PlanMetrics, PlannerConfig,
    ShdgPlanner,
};
use mdg_geom::hull_perimeter;
use mdg_net::{DeploymentConfig, Network};
use proptest::prelude::*;

fn arb_net() -> impl Strategy<Value = Network> {
    (5usize..120, 80.0..350.0f64, 20.0..50.0f64, any::<u64>()).prop_map(|(n, side, r, seed)| {
        Network::build(DeploymentConfig::uniform(n, side).generate(seed), r)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn plans_are_always_valid(net in arb_net()) {
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        prop_assert!(plan.validate(&net.deployment.sensors, net.range).is_ok());
        // Upload distances respect the transmission range.
        let m = PlanMetrics::of(&plan, &net.deployment.sensors);
        prop_assert!(m.max_upload_dist <= net.range + 1e-9);
        // Tour length respects the hull lower bound of its own vertices.
        prop_assert!(plan.tour_length + 1e-6 >= hull_perimeter(&plan.tour_positions()));
    }

    #[test]
    fn visiting_all_sensors_is_never_shorter(net in arb_net()) {
        // The SHDG tour visits a subset of sensor sites; a tour through
        // ALL sensor sites (plus sink) is at least as long after equal
        // polish. This is the headline "aggregation shortens the tour"
        // property, checked via the planner run with range so small each
        // sensor is its own polling point.
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        let all = Network::build(net.deployment.clone(), 1e-3);
        let visit_all = ShdgPlanner::new().plan(&all).unwrap();
        prop_assert!(plan.tour_length <= visit_all.tour_length + 1e-6,
            "subset tour {} vs visit-all {}", plan.tour_length, visit_all.tour_length);
    }

    #[test]
    fn greedy_and_tour_aware_both_cover(net in arb_net()) {
        for covering in [CoveringStrategy::Greedy, CoveringStrategy::TourAware] {
            let cfg = PlannerConfig { covering, ..PlannerConfig::default() };
            let plan = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
            prop_assert!(plan.validate(&net.deployment.sensors, net.range).is_ok());
        }
    }

    #[test]
    fn fleet_splits_partition_and_shrink_makespan(net in arb_net(), k in 1usize..6) {
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        let fleet = plan_fleet(&plan, k);
        prop_assert!(fleet.validate(&plan).is_ok());
        prop_assert!(fleet.n_collectors() <= k.max(1));
        prop_assert!(fleet.max_length() <= plan.tour_length + 1e-6 ||
            fleet.n_collectors() == 1);
        let served: usize = fleet.collectors.iter().map(|c| c.sensors_served).sum();
        prop_assert_eq!(served, plan.n_sensors());
    }

    #[test]
    fn deadline_fleets_meet_their_deadline(net in arb_net(), frac in 0.3..1.5f64) {
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        if plan.n_polling_points() == 0 { return Ok(()); }
        let speed = 1.0;
        let upload = 0.5;
        let deadline = plan.collection_time(speed, upload) * frac;
        if let Some(fleet) = plan_fleet_for_deadline(&plan, deadline, speed, upload) {
            prop_assert!(fleet.validate(&plan).is_ok());
            prop_assert!(fleet.makespan(speed, upload) <= deadline + 1e-6);
        } else {
            // Only possible when some solo polling point misses the
            // deadline outright.
            let impossible = plan.polling_points.iter().any(|pp| {
                2.0 * plan.sink.dist(pp.pos) / speed + upload * pp.covered.len() as f64
                    > deadline
            });
            prop_assert!(impossible, "None returned though all points fit solo");
        }
    }

    #[test]
    fn exact_plan_lower_bounds_heuristic(seed in any::<u64>()) {
        let net = Network::build(DeploymentConfig::uniform(10, 70.0).generate(seed), 25.0);
        let exact = exact_plan(&net).unwrap();
        let heur = ShdgPlanner::new().plan(&net).unwrap();
        prop_assert!(exact.tour_length <= heur.tour_length + 1e-6);
        prop_assert!(exact.validate(&net.deployment.sensors, net.range).is_ok());
        // The exact tour also respects the hull bound over sensors ∪ sink…
        prop_assert!(exact.tour_length + 1e-6 >= hull_perimeter(&exact.tour_positions()));
    }
}
