//! The event-driven control loop tying faults, simulation, state tracking
//! and plan repair together.
//!
//! Each round:
//!
//! 1. **Repair** (policy `Repair` only): fix the plan using what the
//!    previous rounds revealed — deaths that occur *this* round are not
//!    yet known, so repair always lags detection by one round, like a
//!    real deployment.
//! 2. **Faults**: apply deaths whose scheduled time has arrived.
//! 3. **Collect**: build the round's upload scenario — stale stops (dead
//!    anchor) are still driven to but serve no uploads — and run the
//!    discrete-event round with this round's fault hooks (packet loss,
//!    retries, speed degradation).
//! 4. **Account**: orphaned live sensors, battery drain, clock advance,
//!    one JSONL trace record.
//!
//! All trace-visible quantities are deterministic in `(seed, config)`;
//! wall-clock repair latency is reported only in [`RuntimeReport`].

use crate::faults::{FaultConfig, FaultPlan};
use crate::repair::{repair_plan, RepairConfig, RepairReport};
use crate::state::{DeathCause, NetworkState};
use crate::trace::{RoundRecord, TraceWriter};
use mdg_core::GatheringPlan;
use mdg_cover::CoverageInstance;
use mdg_net::Network;
use mdg_sim::{MobileGatheringSim, MobileScenario, SimConfig, Stop, Upload};
use serde::{Deserialize, Serialize};
use std::io::Write;

/// How the runtime reacts to detected failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairPolicy {
    /// Keep driving the original plan forever (the paper's offline SHDG).
    Static,
    /// Incrementally repair the plan every round (see [`crate::repair`]).
    Repair,
}

/// Runtime configuration. Serializable so a recorded trace bundle's
/// manifest (see [`crate::trace::TraceHeader`]) can embed the exact
/// configuration needed to replay the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Simulation parameters (speed, upload time, radio model).
    pub sim: SimConfig,
    /// Injected faults.
    pub faults: FaultConfig,
    /// Repair tuning.
    pub repair: RepairConfig,
    /// Reaction policy.
    pub policy: RepairPolicy,
    /// Maximum rounds to run.
    pub max_rounds: u64,
    /// Initial battery per sensor, joules (`None` = unlimited).
    pub battery_j: Option<f64>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            sim: SimConfig::default(),
            faults: FaultConfig::default(),
            repair: RepairConfig::default(),
            policy: RepairPolicy::Repair,
            max_rounds: 100,
            battery_j: None,
        }
    }
}

/// Aggregate outcome of a runtime run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Total packets delivered to the collector.
    pub delivered: u64,
    /// Total packets expected (live, covered sensors × rounds).
    pub expected: u64,
    /// Total retransmissions.
    pub retries: u64,
    /// Total packets dropped after exhausting retries.
    pub drops: u64,
    /// Live-sensor-seconds spent without coverage.
    pub orphan_secs: f64,
    /// (sensor, round) pairs where a live sensor was uncovered.
    pub orphan_sensor_rounds: u64,
    /// Rounds in which repair changed the plan.
    pub repairs: u64,
    /// Repairs that escalated to a full re-plan.
    pub full_replans: u64,
    /// Stale stops removed across all repairs.
    pub stops_removed: u64,
    /// Replacement stops added across all repairs.
    pub stops_added: u64,
    /// Deterministic repair work across all repairs.
    pub repair_ops: u64,
    /// Wall-clock time spent in plan repair, microseconds (not traced —
    /// machine-dependent).
    pub repair_wall_micros: u128,
    /// Simulated time elapsed, seconds.
    pub elapsed_secs: f64,
    /// Sensors alive at the end.
    pub final_alive: usize,
    /// Deaths by hardware fault.
    pub fault_deaths: usize,
    /// Deaths by battery exhaustion.
    pub energy_deaths: usize,
    /// Tour length at the end, meters.
    pub final_tour_length: f64,
}

impl RuntimeReport {
    /// Overall delivery ratio (1 when nothing was expected).
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.expected as f64
        }
    }
}

/// The online gathering runtime: owns the evolving plan and network state.
#[derive(Debug, Clone)]
pub struct GatheringRuntime {
    net: Network,
    plan: GatheringPlan,
    inst: CoverageInstance,
    fault_plan: FaultPlan,
    cfg: RuntimeConfig,
    state: NetworkState,
}

impl GatheringRuntime {
    /// Creates the runtime around an initial plan. The coverage instance
    /// is built once here and reused by every repair.
    pub fn new(net: Network, plan: GatheringPlan, cfg: RuntimeConfig) -> Self {
        assert_eq!(plan.n_sensors(), net.n_sensors(), "plan matches network");
        let inst = CoverageInstance::sensor_sites(&net.deployment.sensors, net.range);
        let fault_plan = cfg.faults.plan(net.n_sensors());
        let state = NetworkState::new(net.n_sensors(), cfg.battery_j);
        GatheringRuntime {
            net,
            plan,
            inst,
            fault_plan,
            cfg,
            state,
        }
    }

    /// The current (possibly repaired) plan.
    pub fn plan(&self) -> &GatheringPlan {
        &self.plan
    }

    /// The current network state.
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// The materialized fault schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Runs to completion without tracing.
    pub fn run(&mut self) -> RuntimeReport {
        let mut devnull = TraceWriter::new(std::io::sink());
        self.run_traced(&mut devnull)
            .expect("sink writes cannot fail")
    }

    /// Runs to completion, emitting one trace record per round.
    pub fn run_traced<W: Write>(
        &mut self,
        trace: &mut TraceWriter<W>,
    ) -> std::io::Result<RuntimeReport> {
        let n = self.net.n_sensors();
        let mut report = RuntimeReport::default();

        // Observability: spans/counters describe the run but never feed
        // back into it — traces stay deterministic in (seed, config).
        let mut sp_rt = mdg_obs::span("runtime");
        let ctr_retries = mdg_obs::counter("runtime/retries");
        let ctr_attempt_failures = mdg_obs::counter("runtime/attempt_failures");
        let ctr_drops = mdg_obs::counter("runtime/drops");
        let ctr_repairs = mdg_obs::counter("runtime/repairs");
        let ctr_full_replans = mdg_obs::counter("runtime/full_replans");
        let ctr_stops_removed = mdg_obs::counter("runtime/stops_removed");
        let ctr_stops_added = mdg_obs::counter("runtime/stops_added");
        let hist_repair_ops = mdg_obs::histogram("runtime/repair_ops_per_round");
        let hist_retries = mdg_obs::histogram("runtime/retries_per_round");

        for round in 0..self.cfg.max_rounds {
            if self.state.n_alive() == 0 {
                break;
            }
            let _sp_round = mdg_obs::span("round");

            // 1. Repair from what previous rounds revealed.
            let mut rrep = RepairReport::default();
            if self.cfg.policy == RepairPolicy::Repair {
                let _sp = mdg_obs::span("repair");
                let t0 = std::time::Instant::now();
                rrep = repair_plan(
                    &mut self.plan,
                    &self.net,
                    &self.inst,
                    self.state.alive(),
                    &self.cfg.repair,
                );
                report.repair_wall_micros += t0.elapsed().as_micros();
            }

            // 2. Apply fault deaths that have come due.
            let due: Vec<usize> = self.fault_plan.due_deaths(self.state.clock_secs).collect();
            for s in due {
                self.state.kill(s, DeathCause::Fault);
            }
            if self.state.n_alive() == 0 {
                break;
            }

            // 3. Build the round's scenario. A stop with a dead anchor is
            //    still driven to (the collector does not know yet) but
            //    serves no uploads; its live sensors are orphaned.
            let alive = self.state.alive().to_vec();
            let mut covered_live = vec![false; n];
            let stops: Vec<Stop> = self
                .plan
                .polling_points
                .iter()
                .map(|pp| {
                    let anchor_dead = pp.candidate < n && !alive[pp.candidate];
                    let uploads = if anchor_dead {
                        Vec::new()
                    } else {
                        pp.covered
                            .iter()
                            .map(|&s| s as usize)
                            .filter(|&s| alive[s])
                            .inspect(|&s| covered_live[s] = true)
                            .map(Upload::direct)
                            .collect()
                    };
                    Stop {
                        pos: pp.pos,
                        uploads,
                    }
                })
                .collect();
            let orphans = (0..n).filter(|&s| alive[s] && !covered_live[s]).count();

            let sim = MobileGatheringSim::new(
                MobileScenario {
                    sensors: self.net.deployment.sensors.clone(),
                    sink: self.net.deployment.sink,
                    stops,
                },
                self.cfg.sim,
            );
            let mut hooks = self.fault_plan.round_hooks(round, self.state.clock_secs);
            let r = sim.run_round_with(&alive, &mut hooks);

            // 4. Accounting and trace.
            self.state.note_orphans(orphans, r.duration_secs);
            self.state.apply_round_energy(&r.ledger);

            trace.record(&RoundRecord {
                round,
                t_start_secs: self.state.clock_secs,
                duration_secs: r.duration_secs,
                n_alive: alive.iter().filter(|&&a| a).count(),
                delivered: r.packets_delivered,
                expected: r.packets_expected,
                retries: hooks.counters.retries,
                attempt_failures: hooks.counters.attempt_failures,
                drops: hooks.counters.drops,
                orphans,
                orphan_secs_total: self.state.orphan_secs,
                repaired: rrep.changed(),
                stops_removed: rrep.removed_stops,
                stops_added: rrep.added_stops,
                full_replan: rrep.full_replan,
                repair_ops: rrep.ops,
                tour_length_m: self.plan.tour_length,
            })?;

            self.state.advance(r.duration_secs);

            sp_rt.add_items(1);
            ctr_retries.add(hooks.counters.retries);
            ctr_attempt_failures.add(hooks.counters.attempt_failures);
            ctr_drops.add(hooks.counters.drops);
            ctr_repairs.add(u64::from(rrep.changed()));
            ctr_full_replans.add(u64::from(rrep.full_replan));
            ctr_stops_removed.add(rrep.removed_stops as u64);
            ctr_stops_added.add(rrep.added_stops as u64);
            if self.cfg.policy == RepairPolicy::Repair {
                hist_repair_ops.record(rrep.ops);
            }
            hist_retries.record(hooks.counters.retries);

            report.rounds += 1;
            report.delivered += r.packets_delivered as u64;
            report.expected += r.packets_expected as u64;
            report.retries += hooks.counters.retries;
            report.drops += hooks.counters.drops;
            report.repairs += u64::from(rrep.changed());
            report.full_replans += u64::from(rrep.full_replan);
            report.stops_removed += rrep.removed_stops as u64;
            report.stops_added += rrep.added_stops as u64;
            report.repair_ops += rrep.ops;
        }

        report.orphan_secs = self.state.orphan_secs;
        report.orphan_sensor_rounds = self.state.orphan_sensor_rounds;
        report.elapsed_secs = self.state.clock_secs;
        report.final_alive = self.state.n_alive();
        report.fault_deaths = self.state.fault_deaths;
        report.energy_deaths = self.state.energy_deaths;
        report.final_tour_length = self.plan.tour_length;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Slowdown;
    use mdg_core::ShdgPlanner;
    use mdg_net::DeploymentConfig;

    fn setup(n: usize, seed: u64) -> (Network, GatheringPlan) {
        let net = Network::build(DeploymentConfig::uniform(n, 200.0).generate(seed), 30.0);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        (net, plan)
    }

    #[test]
    fn faultless_run_delivers_everything() {
        let (net, plan) = setup(60, 1);
        let cfg = RuntimeConfig {
            max_rounds: 5,
            ..RuntimeConfig::default()
        };
        let mut rt = GatheringRuntime::new(net, plan, cfg);
        let rep = rt.run();
        assert_eq!(rep.rounds, 5);
        assert_eq!(rep.delivered, rep.expected);
        assert_eq!(rep.expected, 5 * 60);
        assert_eq!(rep.orphan_secs, 0.0);
        assert_eq!(rep.repairs, 0);
        assert_eq!(rep.final_alive, 60);
    }

    #[test]
    fn static_and_repair_agree_without_faults() {
        let (net, plan) = setup(50, 2);
        let run = |policy| {
            let cfg = RuntimeConfig {
                policy,
                max_rounds: 3,
                ..RuntimeConfig::default()
            };
            let mut rt = GatheringRuntime::new(net.clone(), plan.clone(), cfg);
            let mut tw = TraceWriter::new(Vec::new());
            rt.run_traced(&mut tw).unwrap();
            tw.into_inner().unwrap()
        };
        assert_eq!(run(RepairPolicy::Static), run(RepairPolicy::Repair));
    }

    #[test]
    fn repair_bounds_orphan_time_static_does_not() {
        let (net, plan) = setup(100, 3);
        let faults = FaultConfig {
            seed: 11,
            death_rate: 0.2,
            death_horizon_secs: 2_000.0,
            ..FaultConfig::default()
        };
        let run = |policy| {
            let cfg = RuntimeConfig {
                faults,
                policy,
                max_rounds: 20,
                ..RuntimeConfig::default()
            };
            GatheringRuntime::new(net.clone(), plan.clone(), cfg).run()
        };
        let st = run(RepairPolicy::Static);
        let rp = run(RepairPolicy::Repair);
        assert!(rp.repairs > 0, "deaths must trigger repairs");
        assert!(
            rp.orphan_secs < st.orphan_secs,
            "repair {} vs static {}",
            rp.orphan_secs,
            st.orphan_secs
        );
        assert!(rp.delivered > st.delivered);
    }

    #[test]
    fn repaired_plan_keeps_live_sensors_covered() {
        let (net, plan) = setup(80, 4);
        let cfg = RuntimeConfig {
            faults: FaultConfig {
                seed: 5,
                death_rate: 0.3,
                death_horizon_secs: 3_000.0,
                ..FaultConfig::default()
            },
            max_rounds: 30,
            ..RuntimeConfig::default()
        };
        let mut rt = GatheringRuntime::new(net.clone(), plan, cfg);
        rt.run();
        // After the final round's repair opportunity has passed, repair
        // once more by hand and check the invariant directly.
        let mut final_plan = rt.plan().clone();
        let inst = CoverageInstance::sensor_sites(&net.deployment.sensors, net.range);
        repair_plan(
            &mut final_plan,
            &net,
            &inst,
            rt.state().alive(),
            &RepairConfig::default(),
        );
        final_plan
            .validate_live(&net.deployment.sensors, net.range, rt.state().alive())
            .unwrap();
    }

    #[test]
    fn packet_loss_with_retries_still_delivers() {
        let (net, plan) = setup(40, 6);
        let cfg = RuntimeConfig {
            faults: FaultConfig {
                seed: 9,
                loss_rate: 0.3,
                max_retries: 8,
                backoff_secs: 0.1,
                ..FaultConfig::default()
            },
            max_rounds: 4,
            ..RuntimeConfig::default()
        };
        let mut rt = GatheringRuntime::new(net, plan, cfg);
        let rep = rt.run();
        assert!(rep.retries > 0, "30% loss must trigger retries");
        assert_eq!(rep.delivered, rep.expected, "8 retries beat 30% loss");
    }

    #[test]
    fn slowdown_stretches_rounds() {
        let (net, plan) = setup(30, 7);
        let base = RuntimeConfig {
            max_rounds: 1,
            ..RuntimeConfig::default()
        };
        let plain = GatheringRuntime::new(net.clone(), plan.clone(), base).run();
        let slowed = GatheringRuntime::new(
            net,
            plan,
            RuntimeConfig {
                faults: FaultConfig {
                    slowdown: Some(Slowdown {
                        start_secs: 0.0,
                        duration_secs: f64::INFINITY,
                        factor: 0.5,
                    }),
                    ..FaultConfig::default()
                },
                ..base
            },
        )
        .run();
        assert!(slowed.elapsed_secs > 1.9 * plain.elapsed_secs);
        assert_eq!(slowed.delivered, plain.delivered);
    }

    #[test]
    fn battery_exhaustion_ends_the_run() {
        let (net, plan) = setup(50, 8);
        let cfg = RuntimeConfig {
            battery_j: Some(1e-6),
            max_rounds: 50,
            ..RuntimeConfig::default()
        };
        let mut rt = GatheringRuntime::new(net, plan, cfg);
        let rep = rt.run();
        assert!(rep.energy_deaths > 0);
        assert!(rep.rounds < 50, "tiny batteries cannot last 50 rounds");
    }
}
