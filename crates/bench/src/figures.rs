//! One function per reconstructed table/figure of the evaluation.
//!
//! Every figure replays identical seeded topologies through all compared
//! schemes and averages over `params.replicates` topologies per data point
//! (the paper averages over 500). Sweep ranges follow the paper's
//! settings: `L = 200 m` fields with `N = 100..500` and `R = 30 m` unless
//! the figure sweeps that parameter; CME tracks are 100 m apart.

use crate::params::{Params, Profile};
use crate::runner::{mean_rows, replicate};
use crate::schemes::{
    cme_tracks_for_field, eval_cme, eval_direct, eval_multihop, eval_shdg, eval_visit_all,
};
use crate::table::Table;
use mdg_baselines::{random_waypoint_walk, visit_all_plan};
use mdg_core::{exact_plan, fleet, CoveringStrategy, PlanMetrics, PlannerConfig, ShdgPlanner};
use mdg_geom::hull_perimeter;
use mdg_net::{DeploymentConfig, Network, SinkPlacement, Topology};
use mdg_sim::{scenario_from_plan, simulate_lifetime, MobileGatheringSim, MultihopRoutingSim};
use mdg_tour::{
    christofides_like, held_karp_lower_bound, mst_2approx, nearest_neighbor, plan_tour, three_opt,
    two_opt, MatrixCost,
};

fn uniform_net(n: usize, side: f64, range: f64, seed: u64) -> Network {
    Network::build(DeploymentConfig::uniform(n, side).generate(seed), range)
}

fn n_sweep(p: &Params) -> Vec<usize> {
    match p.profile {
        Profile::Smoke => vec![40, 80],
        _ => vec![100, 200, 300, 400, 500],
    }
}

// ---------------------------------------------------------------------
// E1 — the worked example (paper §"comparison with the optimal solution")
// ---------------------------------------------------------------------

/// E1: one small network solved by the heuristic, the exact solver and
/// visit-all; prints the chosen polling points and tours. Row encoding:
/// `scheme` column is 0 = heuristic, 1 = exact, 2 = visit-all.
pub fn e1(p: &Params) -> Table {
    let net = uniform_net(16, 70.0, 25.0, p.base_seed);
    let heur = ShdgPlanner::new().plan(&net).unwrap();
    let exact = exact_plan(&net).unwrap();
    let va = visit_all_plan(&net);

    println!("E1 example network: 16 sensors on 70 m × 70 m, R = 25 m, sink at center");
    for (i, s) in net.deployment.sensors.iter().enumerate() {
        println!("  sensor {i:2}: {s}");
    }
    for (name, plan) in [("heuristic", &heur), ("exact", &exact), ("visit-all", &va)] {
        let pps: Vec<usize> = plan.polling_points.iter().map(|pp| pp.candidate).collect();
        println!(
            "  {name:9}: tour {:7.2} m, polling points (tour order): {pps:?}",
            plan.tour_length
        );
    }

    let mut t = Table::new(
        "E1",
        "Worked example: heuristic vs exact vs visit-all (16 sensors, 70 m field, R = 25 m)",
        &[
            "scheme",
            "tour_m",
            "polling_points",
            "mean_upload_m",
            "max_sensors_per_pp",
        ],
    );
    for (i, plan) in [&heur, &exact, &va].iter().enumerate() {
        let m = PlanMetrics::of(plan, &net.deployment.sensors);
        t.push_row(vec![
            i as f64,
            m.tour_length,
            m.n_polling_points as f64,
            m.mean_upload_dist,
            m.max_sensors_per_pp as f64,
        ]);
    }
    t.notes = "scheme: 0 = SHDG heuristic, 1 = exact SHDGP (Held–Karp over minimal covers, \
               substituting the paper's CPLEX run), 2 = visit-every-sensor."
        .into();
    t
}

// ---------------------------------------------------------------------
// T1 — optimality gap on small instances
// ---------------------------------------------------------------------

/// T1: heuristic vs exact optimum across instance sizes.
pub fn t1(p: &Params) -> Table {
    let sizes: Vec<usize> = match p.profile {
        Profile::Smoke => vec![8, 10],
        _ => vec![10, 12, 14, 16],
    };
    let mut t = Table::new(
        "T1",
        "Optimality gap of the SHDG heuristic (70 m field, R = 25 m)",
        &[
            "n_sensors",
            "heur_tour_m",
            "opt_tour_m",
            "gap_pct",
            "heur_pps",
            "opt_pps",
        ],
    );
    for &n in &sizes {
        let rows: Vec<Vec<f64>> = replicate(p, |seed| {
            let net = uniform_net(n, 70.0, 25.0, seed);
            let heur = ShdgPlanner::new().plan(&net).unwrap();
            let Ok(exact) = exact_plan(&net) else {
                return Vec::new(); // budget exhausted: skip this replicate
            };
            let gap = if exact.tour_length > 1e-9 {
                (heur.tour_length / exact.tour_length - 1.0) * 100.0
            } else {
                0.0
            };
            vec![
                heur.tour_length,
                exact.tour_length,
                gap,
                heur.n_polling_points() as f64,
                exact.n_polling_points() as f64,
            ]
        })
        .into_iter()
        .filter(|r| !r.is_empty())
        .collect();
        let m = mean_rows(&rows);
        t.push_row(vec![n as f64, m[0], m[1], m[2], m[3], m[4]]);
    }
    t.notes = format!(
        "mean over {} random topologies per size; exact = minimal-cover enumeration + Held–Karp",
        p.replicates
    );
    t
}

// ---------------------------------------------------------------------
// F1–F3 — tour length sweeps
// ---------------------------------------------------------------------

/// F1: tour length vs number of sensors (L = 200 m, R = 30 m).
pub fn f1(p: &Params) -> Table {
    let side = 200.0;
    let tracks = cme_tracks_for_field(side);
    let mut t = Table::new(
        "F1",
        "Tour length vs number of sensors (200 m field, R = 30 m)",
        &["n", "shdg_m", "visit_all_m", "cme_m", "hull_lb_m"],
    );
    for &n in &n_sweep(p) {
        let m = crate::runner::replicate_mean(p, |seed| {
            let net = uniform_net(n, side, 30.0, seed);
            let shdg = eval_shdg(&net, &p.sim);
            let va = eval_visit_all(&net, &p.sim);
            let cme = eval_cme(&net, tracks, &p.sim);
            let mut pts = net.deployment.sensors.clone();
            pts.push(net.deployment.sink);
            vec![
                shdg.tour_length,
                va.tour_length,
                cme.tour_length,
                hull_perimeter(&pts),
            ]
        });
        t.push_row(vec![n as f64, m[0], m[1], m[2], m[3]]);
    }
    t.notes = format!(
        "mean over {} topologies; CME uses {} fixed tracks (100 m apart), its length is \
         independent of n; hull_lb = convex-hull perimeter (lower bound on any tour)",
        p.replicates, tracks
    );
    t
}

/// F2: tour length and polling points vs transmission range (N = 200,
/// L = 200 m).
pub fn f2(p: &Params) -> Table {
    let ranges: Vec<f64> = match p.profile {
        Profile::Smoke => vec![25.0, 45.0],
        _ => vec![20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0],
    };
    let mut t = Table::new(
        "F2",
        "Tour length vs transmission range (200 sensors, 200 m field)",
        &[
            "r_m",
            "shdg_tour_m",
            "polling_points",
            "mean_upload_m",
            "visit_all_m",
        ],
    );
    for &r in &ranges {
        let m = crate::runner::replicate_mean(p, |seed| {
            let net = uniform_net(200, 200.0, r, seed);
            let plan = ShdgPlanner::new().plan(&net).unwrap();
            let pm = PlanMetrics::of(&plan, &net.deployment.sensors);
            let va = visit_all_plan(&net);
            vec![
                plan.tour_length,
                pm.n_polling_points as f64,
                pm.mean_upload_dist,
                va.tour_length,
            ]
        });
        t.push_row(vec![r, m[0], m[1], m[2], m[3]]);
    }
    t.notes = format!(
        "mean over {} topologies; visit-all is range-independent",
        p.replicates
    );
    t
}

/// F3: tour length vs field size (N = 400, R = 30 m).
pub fn f3(p: &Params) -> Table {
    let sides: Vec<f64> = match p.profile {
        Profile::Smoke => vec![100.0, 200.0],
        _ => vec![100.0, 200.0, 300.0, 400.0, 500.0],
    };
    let mut t = Table::new(
        "F3",
        "Tour length vs field size (400 sensors, R = 30 m)",
        &["l_m", "shdg_m", "visit_all_m", "cme_m", "mh_delivery"],
    );
    for &side in &sides {
        let m = crate::runner::replicate_mean(p, |seed| {
            let net = uniform_net(400, side, 30.0, seed);
            let shdg = eval_shdg(&net, &p.sim);
            let va = eval_visit_all(&net, &p.sim);
            // Paper setting for the L sweep: 5 tracks spanning the field.
            let cme = eval_cme(&net, 5, &p.sim);
            let mh = eval_multihop(&net, &p.sim);
            vec![
                shdg.tour_length,
                va.tour_length,
                cme.tour_length,
                mh.delivery,
            ]
        });
        t.push_row(vec![side, m[0], m[1], m[2], m[3]]);
    }
    t.notes = format!(
        "mean over {} topologies; CME fixed at 5 tracks; mh_delivery shows static routing \
         failing as the field outgrows connectivity",
        p.replicates
    );
    t
}

// ---------------------------------------------------------------------
// F4 — polling-point counts
// ---------------------------------------------------------------------

/// F4: number of polling points vs N for the covering strategies.
pub fn f4(p: &Params) -> Table {
    let mut t = Table::new(
        "F4",
        "Polling points vs number of sensors (200 m field, R = 30 m)",
        &[
            "n",
            "pps_tour_aware",
            "pps_greedy",
            "pps_greedy_unpruned",
            "sensors_per_pp",
        ],
    );
    for &n in &n_sweep(p) {
        let m = crate::runner::replicate_mean(p, |seed| {
            let net = uniform_net(n, 200.0, 30.0, seed);
            let aware = ShdgPlanner::new().plan(&net).unwrap();
            let greedy = ShdgPlanner::with_config(PlannerConfig {
                covering: CoveringStrategy::Greedy,
                ..PlannerConfig::default()
            })
            .plan(&net)
            .unwrap();
            let unpruned = ShdgPlanner::with_config(PlannerConfig {
                covering: CoveringStrategy::Greedy,
                prune: false,
                ..PlannerConfig::default()
            })
            .plan(&net)
            .unwrap();
            vec![
                aware.n_polling_points() as f64,
                greedy.n_polling_points() as f64,
                unpruned.n_polling_points() as f64,
                n as f64 / aware.n_polling_points().max(1) as f64,
            ]
        });
        t.push_row(vec![n as f64, m[0], m[1], m[2], m[3]]);
    }
    t.notes = format!("mean over {} topologies", p.replicates);
    t
}

// ---------------------------------------------------------------------
// F5–F6 — energy
// ---------------------------------------------------------------------

/// F5: transmissions and energy per round vs N.
pub fn f5(p: &Params) -> Table {
    let mut t = Table::new(
        "F5",
        "Transmissions and sensor energy per round vs number of sensors (200 m field, R = 30 m)",
        &[
            "n",
            "tx_shdg",
            "tx_multihop",
            "e_shdg_mj",
            "e_multihop_mj",
            "e_direct_mj",
        ],
    );
    for &n in &n_sweep(p) {
        let m = crate::runner::replicate_mean(p, |seed| {
            let net = uniform_net(n, 200.0, 30.0, seed);
            let shdg = eval_shdg(&net, &p.sim);
            let mh = eval_multihop(&net, &p.sim);
            let d = eval_direct(&net, &p.sim);
            vec![
                shdg.transmissions,
                mh.transmissions,
                shdg.energy_j * 1e3,
                mh.energy_j * 1e3,
                d.energy_j * 1e3,
            ]
        });
        t.push_row(vec![n as f64, m[0], m[1], m[2], m[3], m[4]]);
    }
    t.notes = format!(
        "mean over {} topologies; SHDG transmits exactly once per sensor (tx_shdg = n)",
        p.replicates
    );
    t
}

/// F6: uniformity of energy consumption vs N (Jain's fairness index).
pub fn f6(p: &Params) -> Table {
    let mut t = Table::new(
        "F6",
        "Energy-consumption uniformity vs number of sensors (Jain index; 1 = perfectly uniform)",
        &["n", "jain_shdg", "jain_multihop", "jain_direct"],
    );
    for &n in &n_sweep(p) {
        let m = crate::runner::replicate_mean(p, |seed| {
            let net = uniform_net(n, 200.0, 30.0, seed);
            vec![
                eval_shdg(&net, &p.sim).fairness,
                eval_multihop(&net, &p.sim).fairness,
                eval_direct(&net, &p.sim).fairness,
            ]
        });
        t.push_row(vec![n as f64, m[0], m[1], m[2]]);
    }
    t.notes = format!(
        "mean over {} topologies; SHDG approaches 1 (every sensor transmits once over a \
         bounded distance), routing funnels load toward the sink",
        p.replicates
    );
    t
}

// ---------------------------------------------------------------------
// F7 — lifetime
// ---------------------------------------------------------------------

/// F7: network lifetime (rounds to first death) vs N, SHDG vs multi-hop
/// routing.
pub fn f7(p: &Params) -> Table {
    // Lifetime comparison needs a *connected* topology: unreachable
    // sensors never transmit under multihop routing, which would make a
    // sparse smoke network spuriously outlive mobile collection. n = 100
    // on the 200 m field (the paper's default density) is connected w.h.p.
    let ns = match p.profile {
        Profile::Smoke => vec![100],
        _ => vec![100, 200, 300, 400, 500],
    };
    let mut t = Table::new(
        "F7",
        "Network lifetime vs number of sensors (rounds until first sensor death)",
        &[
            "n",
            "shdg_first_death",
            "mh_first_death",
            "shdg_10pct",
            "mh_10pct",
        ],
    );
    for &n in &ns {
        let m = crate::runner::replicate_mean(p, |seed| {
            let net = uniform_net(n, 200.0, 30.0, seed);
            let plan = ShdgPlanner::new().plan(&net).unwrap();
            let scen = scenario_from_plan(&plan, &net.deployment.sensors);
            let mut mobile = MobileGatheringSim::new(scen, p.sim);
            let lr_m = simulate_lifetime(&mut mobile, p.battery_j, p.max_rounds);
            let mut routing = MultihopRoutingSim::new(&net, p.sim);
            let lr_r = simulate_lifetime(&mut routing, p.battery_j, p.max_rounds);
            let cap = p.max_rounds as f64;
            vec![
                lr_m.first_death_round.map_or(cap, |r| r as f64),
                lr_r.first_death_round.map_or(cap, |r| r as f64),
                lr_m.ten_pct_death_round.map_or(cap, |r| r as f64),
                lr_r.ten_pct_death_round.map_or(cap, |r| r as f64),
            ]
        });
        t.push_row(vec![n as f64, m[0], m[1], m[2], m[3]]);
    }
    t.notes = format!(
        "mean over {} topologies; batteries {} J; values capped at {} rounds",
        p.replicates, p.battery_j, p.max_rounds
    );
    t
}

// ---------------------------------------------------------------------
// F8 — latency
// ---------------------------------------------------------------------

/// F8: per-round data-collection latency vs N for all schemes.
pub fn f8(p: &Params) -> Table {
    let mut t = Table::new(
        "F8",
        "Data-collection latency per round vs number of sensors (collector 1 m/s)",
        &["n", "t_shdg_s", "t_visit_all_s", "t_cme_s", "t_multihop_s"],
    );
    for &n in &n_sweep(p) {
        let m = crate::runner::replicate_mean(p, |seed| {
            let net = uniform_net(n, 200.0, 30.0, seed);
            vec![
                eval_shdg(&net, &p.sim).latency_s,
                eval_visit_all(&net, &p.sim).latency_s,
                eval_cme(&net, 3, &p.sim).latency_s,
                eval_multihop(&net, &p.sim).latency_s,
            ]
        });
        t.push_row(vec![n as f64, m[0], m[1], m[2], m[3]]);
    }
    t.notes = format!(
        "mean over {} topologies; the mobility/latency tradeoff: routing delivers in \
         milliseconds, mobile schemes in tens of minutes — SHDG cuts the mobile latency \
         versus visit-all",
        p.replicates
    );
    t
}

// ---------------------------------------------------------------------
// F9 — multi-collector fleets
// ---------------------------------------------------------------------

/// F9: minimum fleet size vs data-gathering deadline (N = 400, L = 400 m).
pub fn f9(p: &Params) -> Table {
    let (n, side) = match p.profile {
        Profile::Smoke => (80, 200.0),
        _ => (400, 400.0),
    };
    let fracs = [0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0];
    let mut t = Table::new(
        "F9",
        "Fleet size vs data-gathering deadline (400 sensors, 400 m field, R = 30 m)",
        &["deadline_frac", "deadline_s", "collectors", "makespan_s"],
    );
    let rows: Vec<Vec<f64>> = replicate(p, |seed| {
        let net = uniform_net(n, side, 30.0, seed);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        let single = plan.collection_time(p.sim.speed_mps, p.sim.upload_secs);
        let mut out = Vec::new();
        for &frac in &fracs {
            let deadline = single * frac;
            match fleet::plan_fleet_for_deadline(
                &plan,
                deadline,
                p.sim.speed_mps,
                p.sim.upload_secs,
            ) {
                Some(f) => {
                    out.push(deadline);
                    out.push(f.n_collectors() as f64);
                    out.push(f.makespan(p.sim.speed_mps, p.sim.upload_secs));
                }
                None => {
                    out.push(deadline);
                    out.push(f64::NAN);
                    out.push(f64::NAN);
                }
            }
        }
        out
    });
    let m = mean_rows(&rows);
    for (i, &frac) in fracs.iter().enumerate() {
        t.push_row(vec![frac, m[3 * i], m[3 * i + 1], m[3 * i + 2]]);
    }
    t.notes = format!(
        "mean over {} topologies; deadline_frac is relative to the single-collector round time",
        p.replicates
    );
    t
}

// ---------------------------------------------------------------------
// F10 — disconnected networks
// ---------------------------------------------------------------------

/// F10: delivery on deliberately disconnected corridor topologies.
pub fn f10(p: &Params) -> Table {
    let ranges: Vec<f64> = match p.profile {
        Profile::Smoke => vec![20.0, 40.0],
        _ => vec![20.0, 30.0, 40.0, 50.0, 60.0],
    };
    let mut t = Table::new(
        "F10",
        "Delivery ratio on disconnected corridor fields (3 bands, 300 m field)",
        &[
            "r_m",
            "shdg_delivery",
            "mh_delivery",
            "cme_delivery",
            "components",
        ],
    );
    for &r in &ranges {
        let m = crate::runner::replicate_mean(p, |seed| {
            let cfg = DeploymentConfig {
                field_side: 300.0,
                sink: SinkPlacement::Center,
                topology: Topology::Corridors {
                    bands: 3,
                    per_band: 60,
                    band_height: 20.0,
                },
            };
            let net = Network::build(cfg.generate(seed), r);
            let shdg = eval_shdg(&net, &p.sim);
            let mh = eval_multihop(&net, &p.sim);
            let cme = eval_cme(&net, 3, &p.sim);
            let (components, _) = mdg_net::components(&net.sensor_graph);
            vec![shdg.delivery, mh.delivery, cme.delivery, components as f64]
        });
        t.push_row(vec![r, m[0], m[1], m[2], m[3]]);
    }
    t.notes = format!(
        "mean over {} topologies; the mobile collector serves every island regardless of \
         connectivity — static routing cannot cross the 80 m gaps",
        p.replicates
    );
    t
}

/// F11: buffer-bounded polling points — the paper's buffer-constraint
/// motivation made quantitative: tighter per-point buffers force more
/// polling points and a longer tour.
pub fn f11(p: &Params) -> Table {
    let n = match p.profile {
        Profile::Smoke => 60,
        _ => 300,
    };
    let caps: Vec<Option<usize>> = vec![Some(2), Some(5), Some(10), Some(20), Some(40), None];
    let mut t = Table::new(
        "F11",
        "Buffer-bounded polling points (300 sensors, 200 m field, R = 30 m)",
        &[
            "cap",
            "polling_points",
            "tour_m",
            "max_load",
            "mean_pause_s",
        ],
    );
    for &cap in &caps {
        let m = crate::runner::replicate_mean(p, |seed| {
            let net = uniform_net(n, 200.0, 30.0, seed);
            let cfg = PlannerConfig {
                max_sensors_per_pp: cap,
                ..PlannerConfig::default()
            };
            let plan = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
            vec![
                plan.n_polling_points() as f64,
                plan.tour_length,
                plan.max_sensors_per_pp() as f64,
                p.sim.upload_secs * plan.max_sensors_per_pp() as f64,
            ]
        });
        t.push_row(vec![
            cap.map_or(f64::INFINITY, |c| c as f64),
            m[0],
            m[1],
            m[2],
            m[3],
        ]);
    }
    t.notes = format!(
        "mean over {} topologies; cap = maximum sensors a single polling point may buffer          (inf = unbounded); mean_pause_s is the worst single-stop pause at {} s/upload",
        p.replicates, p.sim.upload_secs
    );
    t
}

/// F12: uncontrolled mobility — a random-waypoint data MULE given
/// multiples of the SHDG tour budget, versus the planned tour's guaranteed
/// full coverage.
pub fn f12(p: &Params) -> Table {
    let n = match p.profile {
        Profile::Smoke => 60,
        _ => 200,
    };
    let budgets = [0.5, 1.0, 2.0, 4.0, 8.0];
    let mut t = Table::new(
        "F12",
        "Random-waypoint MULE coverage vs travel budget (multiples of the SHDG tour)",
        &[
            "budget_x",
            "mule_coverage",
            "mule_mean_contact_s",
            "shdg_tour_s",
        ],
    );
    let rows: Vec<Vec<f64>> = replicate(p, |seed| {
        let net = uniform_net(n, 200.0, 30.0, seed);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        let mut out = Vec::new();
        for &bx in &budgets {
            let walk = random_waypoint_walk(
                &net,
                p.sim.speed_mps,
                bx * plan.tour_length / p.sim.speed_mps,
                seed ^ 0xA5A5,
            );
            out.push(walk.coverage());
            out.push(walk.mean_contact_latency());
        }
        out.push(plan.tour_length / p.sim.speed_mps);
        out
    });
    let m = mean_rows(&rows);
    for (i, &bx) in budgets.iter().enumerate() {
        t.push_row(vec![bx, m[2 * i], m[2 * i + 1], m[2 * budgets.len()]]);
    }
    t.notes = format!(
        "mean over {} topologies; the planned tour contacts 100% of sensors by construction —          the random mule needs multiples of that budget and still only covers probabilistically",
        p.replicates
    );
    t
}

// ---------------------------------------------------------------------
// A1–A3 — ablations
// ---------------------------------------------------------------------

/// A1: covering-strategy ablation (tour-aware vs plain greedy vs
/// unpruned).
pub fn a1(p: &Params) -> Table {
    let mut t = Table::new(
        "A1",
        "Ablation: covering strategy (tour length, 200 m field, R = 30 m)",
        &[
            "n",
            "tour_aware_m",
            "greedy_m",
            "greedy_unpruned_m",
            "no_improve_m",
        ],
    );
    for &n in &n_sweep(p) {
        let m = crate::runner::replicate_mean(p, |seed| {
            let net = uniform_net(n, 200.0, 30.0, seed);
            let aware = ShdgPlanner::new().plan(&net).unwrap().tour_length;
            let greedy = ShdgPlanner::with_config(PlannerConfig {
                covering: CoveringStrategy::Greedy,
                ..PlannerConfig::default()
            })
            .plan(&net)
            .unwrap()
            .tour_length;
            let unpruned = ShdgPlanner::with_config(PlannerConfig {
                covering: CoveringStrategy::Greedy,
                prune: false,
                ..PlannerConfig::default()
            })
            .plan(&net)
            .unwrap()
            .tour_length;
            let no_improve = ShdgPlanner::with_config(PlannerConfig {
                improve_passes: 0,
                ..PlannerConfig::default()
            })
            .plan(&net)
            .unwrap()
            .tour_length;
            vec![aware, greedy, unpruned, no_improve]
        });
        t.push_row(vec![n as f64, m[0], m[1], m[2], m[3]]);
    }
    t.notes = format!("mean over {} topologies", p.replicates);
    t
}

/// A2: TSP-construction ablation on the planner's own polling-point sets.
pub fn a2(p: &Params) -> Table {
    let ns = match p.profile {
        Profile::Smoke => vec![60],
        _ => vec![100, 300, 500],
    };
    let mut t = Table::new(
        "A2",
        "Ablation: tour construction over the selected polling points + sink",
        &[
            "n",
            "nn_m",
            "nn_2opt_m",
            "nn_3opt_m",
            "ci_full_m",
            "mst_2approx_m",
            "christofides_m",
            "hk_lower_bound_m",
        ],
    );
    for &n in &ns {
        let m = crate::runner::replicate_mean(p, |seed| {
            let net = uniform_net(n, 200.0, 30.0, seed);
            let plan = ShdgPlanner::new().plan(&net).unwrap();
            let pts = plan.tour_positions();
            let cost = MatrixCost::from_points(&pts);
            let nn = nearest_neighbor(&cost);
            let nn_len = nn.length(&cost);
            let nn2 = two_opt(&cost, nn.clone()).length(&cost);
            let nn3 = three_opt(&cost, nn).length(&cost);
            let ci = plan_tour(&cost).length(&cost);
            let mst = mst_2approx(&cost).length(&cost);
            let ch = christofides_like(&cost).length(&cost);
            let lb = held_karp_lower_bound(&cost, 50);
            vec![nn_len, nn2, nn3, ci, mst, ch, lb]
        });
        t.push_row(vec![n as f64, m[0], m[1], m[2], m[3], m[4], m[5], m[6]]);
    }
    t.notes = format!(
        "mean over {} topologies; instances are each plan's sink + polling points",
        p.replicates
    );
    t
}

/// A3: fleet-partitioning ablation — tour splitting vs angular sectors.
pub fn a3(p: &Params) -> Table {
    let (n, side) = match p.profile {
        Profile::Smoke => (80, 200.0),
        _ => (400, 400.0),
    };
    let ks = [2usize, 3, 4, 6, 8];
    let mut t = Table::new(
        "A3",
        "Ablation: fleet partitioning — tour splitting vs angular sectors (max sub-tour, m)",
        &[
            "k",
            "split_max_m",
            "angular_max_m",
            "split_total_m",
            "angular_total_m",
        ],
    );
    let rows: Vec<Vec<f64>> = replicate(p, |seed| {
        let net = uniform_net(n, side, 30.0, seed);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        let mut out = Vec::new();
        for &k in &ks {
            let split = fleet::plan_fleet(&plan, k);
            let angular = fleet::plan_fleet_angular(&plan, k);
            out.push(split.max_length());
            out.push(angular.max_length());
            out.push(split.total_length());
            out.push(angular.total_length());
        }
        out
    });
    let m = mean_rows(&rows);
    for (i, &k) in ks.iter().enumerate() {
        t.push_row(vec![
            k as f64,
            m[4 * i],
            m[4 * i + 1],
            m[4 * i + 2],
            m[4 * i + 3],
        ]);
    }
    t.notes = format!(
        "mean over {} topologies; 400 sensors on a 400 m field",
        p.replicates
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Params {
        Params::smoke()
    }

    #[test]
    fn f1_shapes_hold() {
        let t = f1(&smoke());
        // SHDG ≤ visit-all at every point; hull lower-bounds SHDG.
        let shdg = t.column_values("shdg_m").unwrap();
        let va = t.column_values("visit_all_m").unwrap();
        let lb = t.column_values("hull_lb_m").unwrap();
        for i in 0..shdg.len() {
            assert!(shdg[i] <= va[i] + 1e-6, "row {i}");
            assert!(
                shdg[i] + 1e-6 >= lb[i],
                "row {i}: tour beats its lower bound?"
            );
        }
        // Visit-all grows with n.
        assert!(va.last().unwrap() > va.first().unwrap());
    }

    #[test]
    fn f2_tour_shrinks_with_range() {
        let t = f2(&smoke());
        let tour = t.column_values("shdg_tour_m").unwrap();
        assert!(
            tour.last().unwrap() < tour.first().unwrap(),
            "larger R ⇒ shorter tour"
        );
        let pps = t.column_values("polling_points").unwrap();
        assert!(
            pps.last().unwrap() < pps.first().unwrap(),
            "larger R ⇒ fewer polling points"
        );
    }

    #[test]
    fn f5_transmission_identity() {
        let t = f5(&smoke());
        let n = t.column_values("n").unwrap();
        let tx = t.column_values("tx_shdg").unwrap();
        for i in 0..n.len() {
            assert!(
                (tx[i] - n[i]).abs() < 1e-9,
                "SHDG sends exactly one tx per sensor"
            );
        }
        let mh = t.column_values("tx_multihop").unwrap();
        for i in 0..n.len() {
            assert!(mh[i] >= tx[i], "relaying cannot beat one tx per packet");
        }
    }

    #[test]
    fn f6_shdg_is_most_uniform() {
        let t = f6(&smoke());
        let shdg = t.column_values("jain_shdg").unwrap();
        let mh = t.column_values("jain_multihop").unwrap();
        for i in 0..shdg.len() {
            assert!(
                shdg[i] > mh[i],
                "row {i}: mobile single-hop must be more uniform"
            );
            // One tx per sensor over 0..R meters: high but not perfect
            // uniformity (distance term varies).
            assert!(
                shdg[i] > 0.8,
                "row {i}: SHDG fairness should be high, got {}",
                shdg[i]
            );
        }
    }

    #[test]
    fn f7_mobile_outlives_routing() {
        let t = f7(&smoke());
        let shdg = t.column_values("shdg_first_death").unwrap();
        let mh = t.column_values("mh_first_death").unwrap();
        for i in 0..shdg.len() {
            assert!(
                shdg[i] > mh[i],
                "row {i}: SHDG {} vs multihop {}",
                shdg[i],
                mh[i]
            );
        }
    }

    #[test]
    fn f9_collectors_decrease_with_deadline() {
        let t = f9(&smoke());
        let col = t.column_values("collectors").unwrap();
        for w in col.windows(2) {
            if w[0].is_nan() || w[1].is_nan() {
                continue;
            }
            assert!(
                w[1] <= w[0] + 1e-9,
                "looser deadline needs no more collectors"
            );
        }
    }

    #[test]
    fn f10_mobile_always_delivers() {
        let t = f10(&smoke());
        let shdg = t.column_values("shdg_delivery").unwrap();
        let mh = t.column_values("mh_delivery").unwrap();
        for i in 0..shdg.len() {
            assert!(
                (shdg[i] - 1.0).abs() < 1e-9,
                "row {i}: SHDG delivery must be 1"
            );
            assert!(
                mh[i] < 0.9,
                "row {i}: routing cannot bridge the corridor gaps"
            );
        }
    }

    #[test]
    fn t1_gap_is_small_and_nonnegative() {
        let t = t1(&smoke());
        let gap = t.column_values("gap_pct").unwrap();
        for (i, &g) in gap.iter().enumerate() {
            assert!(g >= -1e-6, "row {i}: heuristic cannot beat the optimum");
            assert!(g < 60.0, "row {i}: gap {g}% is implausibly large");
        }
    }

    #[test]
    fn a2_improvement_ordering() {
        let t = a2(&smoke());
        let nn = t.column_values("nn_m").unwrap();
        let nn2 = t.column_values("nn_2opt_m").unwrap();
        for i in 0..nn.len() {
            assert!(nn2[i] <= nn[i] + 1e-6, "2-opt must not lengthen NN");
        }
    }
}
