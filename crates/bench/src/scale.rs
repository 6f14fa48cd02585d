//! S1 — planner scaling sweep.
//!
//! Times the full SHDG planning pipeline (UDG + coverage instance build,
//! tour-aware cover, prune, tour construction and polish, assignment) on
//! uniform fields of growing size at **constant density**: the field side
//! grows as `sqrt(n) * 10`, so mean degree stays fixed while `n` sweeps
//! from 1 000 to 100 000 sensors. One topology per point (`base_seed`) —
//! the quantity of interest is wall-clock scaling, not topology variance.
//!
//! The committed `BENCH_scale.json` is this table as the `experiments`
//! binary writes it: `experiments scale --out results && cp
//! results/scale_sweep.json BENCH_scale.json`.

use crate::params::{Params, Profile};
use crate::table::Table;
use mdg_core::{PlanMetrics, ShdgPlanner};
use mdg_net::{DeploymentConfig, Network};
use std::time::Instant;

/// Transmission range for every sweep point (the paper's `R = 30 m`).
const RANGE: f64 = 30.0;

/// Sensor counts per profile. Smoke is sized for a CI release-mode run in
/// a few seconds; Default/Full climb to the 100 000-sensor point.
fn n_sweep(p: &Params) -> Vec<usize> {
    match p.profile {
        Profile::Smoke => vec![500, 2_000],
        _ => vec![1_000, 5_000, 20_000, 100_000],
    }
}

/// S1: planning wall-clock vs field size at constant density.
pub fn scale(p: &Params) -> Table {
    let mut t = Table::new(
        "scale_sweep",
        "Planner scaling at constant density (side = sqrt(n)·10 m, R = 30 m, 1 topology)",
        &[
            "n_sensors",
            "side_m",
            "build_ms",
            "plan_ms",
            "polling_points",
            "tour_m",
            "mean_upload_m",
        ],
    );
    for &n in &n_sweep(p) {
        let side = (n as f64).sqrt() * 10.0;
        let t_build = Instant::now();
        let net = Network::build(
            DeploymentConfig::uniform(n, side).generate(p.base_seed),
            RANGE,
        );
        let build_ms = t_build.elapsed().as_secs_f64() * 1e3;
        let t_plan = Instant::now();
        let plan = ShdgPlanner::new()
            .plan(&net)
            .expect("uniform field is feasible");
        let plan_ms = t_plan.elapsed().as_secs_f64() * 1e3;
        let m = PlanMetrics::of(&plan, &net.deployment.sensors);
        t.push_row(vec![
            n as f64,
            side,
            build_ms,
            plan_ms,
            m.n_polling_points as f64,
            m.tour_length,
            m.mean_upload_dist,
        ]);
        println!(
            "  scale: n = {n:>6}  build {build_ms:>9.1} ms  plan {plan_ms:>9.1} ms  \
             {} polling points, tour {:.1} m",
            m.n_polling_points, m.tour_length
        );
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    t.notes = format!(
        "Single topology per point (seed = base_seed); build_ms covers deployment + UDG \
         construction, plan_ms the full plan (cover, prune, tour, assignment). Constant \
         density: ~n/100 sensors per 10 m × 10 m cell at every n. Host had {cores} CPU \
         core(s) available; mdg-par ran {} worker thread(s).",
        mdg_par::threads()
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_all_points() {
        let t = scale(&Params::smoke());
        assert_eq!(t.rows.len(), 2);
        let n = t.col("n_sensors").unwrap();
        let pps = t.col("polling_points").unwrap();
        let tour = t.col("tour_m").unwrap();
        for row in &t.rows {
            assert!(row[pps] >= 1.0, "n = {} produced no polling points", row[n]);
            assert!(row[tour].is_finite() && row[tour] > 0.0);
        }
        // Constant density: the larger field needs more polling points.
        assert!(t.rows[1][pps] > t.rows[0][pps]);
    }
}
