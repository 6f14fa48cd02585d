//! S5 — hierarchical planner scaling sweep.
//!
//! Extends the S1 constant-density sweep (side = `sqrt(n) * 10`,
//! `R = 30 m`, one topology per point) through the wall S1 stops at: the
//! flat planner's superlinear time caps it near 100 000 sensors (23.8 s
//! there in S1), while the hierarchical planner (`HierPlanner`: tile → plan
//! per tile → stitch → seam touch-up) keeps memory per tile bounded and
//! climbs to **one million sensors**.
//!
//! Every point plans hierarchically; points small enough for the flat
//! planner (n ≤ 20 000) also plan flat and record the quality ratio
//! `hier_tour_m / flat_tour_m`, asserting the ≤ 1.25× gate and full
//! coverage. One mid-size point re-plans at 1/2/8 worker threads and
//! asserts bit-identical plans — the determinism contract must hold
//! through the tiled fan-out, not just the flat pipeline.
//!
//! The committed `BENCH_scale_hier.json` is this table as the
//! `experiments` binary writes it: `experiments scale_hier --out results
//! && cp results/scale_hier_sweep.json BENCH_scale_hier.json`.

use crate::params::{Params, Profile};
use crate::table::Table;
use mdg_core::{HierPlanner, PlanMetrics, ShdgPlanner};
use mdg_net::{DeploymentConfig, Network};
use std::time::Instant;

/// Transmission range for every sweep point (the paper's `R = 30 m`).
const RANGE: f64 = 30.0;

/// Largest n the flat planner also runs at, for the quality ratio. The
/// flat 100 000-sensor point costs ~2 minutes on its own (see S1), so the
/// side-by-side comparison stops at 20 000.
const FLAT_LIMIT: usize = 20_000;

/// Hier tours may be at most this factor longer than flat tours wherever
/// both run (the ISSUE's quality gate).
const QUALITY_GATE: f64 = 1.25;

/// Thread counts for the determinism check.
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

/// Sensor counts per profile. Smoke is sized for a CI release-mode run in
/// seconds; Default/Full climb to the million-sensor point.
fn n_sweep(p: &Params) -> Vec<usize> {
    match p.profile {
        Profile::Smoke => vec![500, 2_000],
        _ => vec![1_000, 5_000, 20_000, 100_000, 1_000_000],
    }
}

/// The sweep point the thread-determinism check runs on.
fn determinism_n(p: &Params) -> usize {
    match p.profile {
        Profile::Smoke => 2_000,
        _ => 20_000,
    }
}

/// S5: hierarchical planner scaling at constant density, flat comparison
/// where feasible, thread-count determinism on one point.
pub fn scale_hier(p: &Params) -> Table {
    let mut t = Table::new(
        "scale_hier_sweep",
        "Hierarchical planner scaling at constant density (side = sqrt(n)·10 m, R = 30 m, \
         1 topology; flat comparison for n <= 20 000)",
        &[
            "n_sensors",
            "side_m",
            "build_ms",
            "hier_plan_ms",
            "hier_polling_points",
            "hier_tour_m",
            "tiles_occupied",
            "spliced_stops",
            "flat_plan_ms",
            "flat_tour_m",
            "tour_ratio",
        ],
    );
    let det_n = determinism_n(p);
    for &n in &n_sweep(p) {
        let side = (n as f64).sqrt() * 10.0;
        let t_build = Instant::now();
        let net = Network::build(
            DeploymentConfig::uniform(n, side).generate(p.base_seed),
            RANGE,
        );
        let build_ms = t_build.elapsed().as_secs_f64() * 1e3;

        let t_hier = Instant::now();
        let (hier_plan, stats) = HierPlanner::new()
            .plan_with_stats(&net)
            .expect("uniform field is feasible");
        let hier_ms = t_hier.elapsed().as_secs_f64() * 1e3;
        hier_plan
            .validate(&net.deployment.sensors, RANGE)
            .expect("hier plan must cover every sensor");
        let hm = PlanMetrics::of(&hier_plan, &net.deployment.sensors);

        // Flat comparison where the flat planner is still tractable.
        let (flat_ms, flat_tour, ratio) = if n <= FLAT_LIMIT {
            let t_flat = Instant::now();
            let flat = ShdgPlanner::new()
                .plan(&net)
                .expect("uniform field is feasible");
            let flat_ms = t_flat.elapsed().as_secs_f64() * 1e3;
            let fm = PlanMetrics::of(&flat, &net.deployment.sensors);
            let ratio = hm.tour_length / fm.tour_length;
            assert!(
                ratio <= QUALITY_GATE,
                "n = {n}: hier tour {:.1} m is {ratio:.3}x the flat tour {:.1} m \
                 (gate {QUALITY_GATE}x)",
                hm.tour_length,
                fm.tour_length
            );
            (flat_ms, fm.tour_length, ratio)
        } else {
            (f64::NAN, f64::NAN, f64::NAN)
        };

        // Determinism across worker-thread counts on one mid-size point:
        // the tiled fan-out must be bit-identical at any thread count.
        if n == det_n {
            for &threads in &THREAD_SWEEP {
                mdg_par::set_threads(threads);
                let again = HierPlanner::new()
                    .plan(&net)
                    .expect("uniform field is feasible");
                mdg_par::set_threads(0);
                assert_eq!(
                    hier_plan, again,
                    "hier plan diverged at {threads} threads — determinism broken"
                );
            }
        }

        t.push_row(vec![
            n as f64,
            side,
            build_ms,
            hier_ms,
            hm.n_polling_points as f64,
            hm.tour_length,
            stats.n_occupied as f64,
            stats.spliced_stops as f64,
            flat_ms,
            flat_tour,
            ratio,
        ]);
        println!(
            "  scale_hier: n = {n:>7}  build {build_ms:>9.1} ms  hier {hier_ms:>9.1} ms  \
             {} polling points, tour {:.1} m, {} tiles{}",
            hm.n_polling_points,
            hm.tour_length,
            stats.n_occupied,
            if ratio.is_finite() {
                format!(", {ratio:.3}x flat")
            } else {
                String::new()
            }
        );
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    t.notes = format!(
        "Single topology per point (seed = base_seed); constant density as in S1. Every hier \
         plan is validated for full coverage; where flat also runs (n <= {FLAT_LIMIT}) the \
         sweep asserts tour_ratio <= {QUALITY_GATE}. The n = {det_n} point re-plans at \
         1/2/8 worker threads and asserts bit-identical plans. Auto tile sizing \
         (~2048 sensors per tile). Host had {cores} CPU core(s) available — hier beats \
         flat even single-threaded because per-tile covering avoids the flat planner's \
         superlinear candidate scan."
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_compares_against_flat_and_checks_determinism() {
        let t = scale_hier(&Params::smoke());
        assert_eq!(t.rows.len(), 2);
        let pps = t.col("hier_polling_points").unwrap();
        let tour = t.col("hier_tour_m").unwrap();
        let ratio = t.col("tour_ratio").unwrap();
        for row in &t.rows {
            assert!(row[pps] >= 1.0);
            assert!(row[tour].is_finite() && row[tour] > 0.0);
            // Smoke points are all small enough for the flat comparison.
            assert!(row[ratio].is_finite() && row[ratio] <= QUALITY_GATE);
        }
    }
}
