//! Simulation of multi-collector (fleet) rounds: the DES check of
//! `plan_fleet`'s closed-form makespans, built for the tests only.
//!
//! All collectors depart the sink simultaneously, each driving its own
//! sub-tour; the round completes when the slowest returns. Each
//! collector's leg is simulated by the same DES as single-collector
//! rounds, so energy accounting and waiting semantics are identical.

use crate::bridge::scenario_from_plan;
use crate::mobile::{MobileGatheringSim, MobileScenario, Stop, Upload};
use crate::report::RoundReport;
use crate::SimConfig;
use mdg_core::{FleetPlan, GatheringPlan};
use mdg_energy::EnergyLedger;
use mdg_geom::Point;

/// Outcome of one fleet round.
#[derive(Debug, Clone)]
struct FleetRoundReport {
    /// Per-collector round reports, in fleet order.
    per_collector: Vec<RoundReport>,
    /// Makespan: the slowest collector's round duration.
    duration_secs: f64,
    /// Combined per-sensor energy ledger.
    ledger: EnergyLedger,
    /// Total packets collected by the whole fleet.
    packets_delivered: usize,
    /// Total packets expected (one per alive sensor).
    packets_expected: usize,
}

impl FleetRoundReport {
    /// Delivery ratio across the fleet.
    fn delivery_ratio(&self) -> f64 {
        if self.packets_expected == 0 {
            1.0
        } else {
            self.packets_delivered as f64 / self.packets_expected as f64
        }
    }
}

/// Builds the per-collector scenario: only the stops (and uploads) of that
/// collector's sub-tour.
fn collector_scenario(
    plan: &GatheringPlan,
    sensors: &[Point],
    polling_points: &[usize],
) -> MobileScenario {
    let stops: Vec<Stop> = polling_points
        .iter()
        .map(|&i| {
            let pp = &plan.polling_points[i];
            Stop {
                pos: pp.pos,
                uploads: pp
                    .covered
                    .iter()
                    .map(|&s| Upload::direct(s as usize))
                    .collect(),
            }
        })
        .collect();
    MobileScenario {
        sensors: sensors.to_vec(),
        sink: plan.sink,
        stops,
    }
}

/// Simulates one round of `fleet` over `plan` with all sensors alive.
///
/// # Panics
/// Panics if the fleet does not partition the plan's polling points
/// (validate it first).
fn simulate_fleet_round(
    plan: &GatheringPlan,
    fleet: &FleetPlan,
    sensors: &[Point],
    cfg: SimConfig,
) -> FleetRoundReport {
    fleet
        .validate(plan)
        .expect("fleet must partition the plan's polling points");
    if fleet.collectors.is_empty() {
        // Degenerate: no collectors (empty plan). One empty "round".
        let scen = scenario_from_plan(plan, sensors);
        let r = MobileGatheringSim::new(scen, cfg).run();
        let ledger = r.ledger.clone();
        return FleetRoundReport {
            duration_secs: r.duration_secs,
            packets_delivered: r.packets_delivered,
            packets_expected: r.packets_expected,
            per_collector: vec![r],
            ledger,
        };
    }
    let mut per_collector = Vec::with_capacity(fleet.n_collectors());
    let mut ledger = EnergyLedger::new(sensors.len(), cfg.radio);
    let mut delivered = 0;
    let mut expected = 0;
    let mut makespan = 0.0f64;
    for c in &fleet.collectors {
        let scen = collector_scenario(plan, sensors, &c.polling_points);
        let r = MobileGatheringSim::new(scen, cfg).run();
        makespan = makespan.max(r.duration_secs);
        delivered += r.packets_delivered;
        expected += r.packets_expected;
        ledger.merge(&r.ledger);
        per_collector.push(r);
    }
    FleetRoundReport {
        per_collector,
        duration_secs: makespan,
        ledger,
        packets_delivered: delivered,
        packets_expected: expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_core::{fleet::plan_fleet, ShdgPlanner};
    use mdg_net::{DeploymentConfig, Network};

    fn setup(k: usize) -> (GatheringPlan, FleetPlan, Network) {
        let net = Network::build(DeploymentConfig::uniform(120, 250.0).generate(3), 30.0);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        let fleet = plan_fleet(&plan, k);
        (plan, fleet, net)
    }

    #[test]
    fn fleet_round_collects_everything() {
        let (plan, fleet, net) = setup(3);
        let r = simulate_fleet_round(&plan, &fleet, &net.deployment.sensors, SimConfig::default());
        assert_eq!(r.packets_delivered, net.n_sensors());
        assert_eq!(r.packets_expected, net.n_sensors());
        assert!((r.delivery_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(r.per_collector.len(), fleet.n_collectors());
    }

    #[test]
    fn makespan_matches_fleet_plan_estimate() {
        let (plan, fleet, net) = setup(4);
        let cfg = SimConfig::default();
        let r = simulate_fleet_round(&plan, &fleet, &net.deployment.sensors, cfg);
        let estimate = fleet.makespan(cfg.speed_mps, cfg.upload_secs);
        assert!(
            (r.duration_secs - estimate).abs() < 1e-6,
            "DES {} vs closed form {}",
            r.duration_secs,
            estimate
        );
    }

    #[test]
    fn fleet_energy_equals_single_collector_energy() {
        // Energy is a property of the uploads, not of who drives: the
        // fleet round must charge the sensors exactly what the single
        // round does.
        let (plan, fleet, net) = setup(3);
        let cfg = SimConfig::default();
        let single =
            MobileGatheringSim::new(scenario_from_plan(&plan, &net.deployment.sensors), cfg).run();
        let fleet_r = simulate_fleet_round(&plan, &fleet, &net.deployment.sensors, cfg);
        assert!((fleet_r.ledger.total_joules() - single.total_joules()).abs() < 1e-12);
        assert_eq!(fleet_r.ledger.total_tx(), single.ledger.total_tx());
    }

    #[test]
    fn more_collectors_shrink_the_simulated_makespan() {
        let (plan, _, net) = setup(1);
        let cfg = SimConfig::default();
        let mut prev = f64::INFINITY;
        for k in [1, 2, 4] {
            let fleet = plan_fleet(&plan, k);
            let r = simulate_fleet_round(&plan, &fleet, &net.deployment.sensors, cfg);
            assert!(r.duration_secs <= prev + 1e-9, "k={k}");
            prev = r.duration_secs;
        }
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn invalid_fleet_is_rejected() {
        let (plan, mut fleet, net) = setup(2);
        fleet.collectors[0].polling_points.pop(); // drop a point
        simulate_fleet_round(&plan, &fleet, &net.deployment.sensors, SimConfig::default());
    }
}
