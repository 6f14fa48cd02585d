//! S2 — parallel scaling sweep.
//!
//! Times the full SHDG planning pipeline on ONE fixed topology while the
//! `mdg-par` worker-thread count sweeps 1/2/4/8: the complement of the S1
//! sweep (which fixes threads and grows `n`). The field matches an S1
//! point — constant density, side = `sqrt(n) * 10`, `R = 30 m` — with
//! `n = 20 000` by default and `n = 2 000` under the smoke profile.
//!
//! Besides wall-clock, every row records `polling_points` and `tour_m`,
//! and the sweep asserts the *entire plan* is bit-identical across thread
//! counts — the hard invariant of the `mdg-par` layer. A speedup column
//! normalizes against the single-thread row.
//!
//! The committed `BENCH_scale_par.json` is this table as the `experiments`
//! binary writes it: `experiments scale_par --out results && cp
//! results/scale_par_sweep.json BENCH_scale_par.json`.

use crate::params::{Params, Profile};
use crate::table::Table;
use mdg_core::{PlanMetrics, ShdgPlanner};
use mdg_net::{DeploymentConfig, Network};
use std::time::Instant;

/// Transmission range for every sweep point (the paper's `R = 30 m`).
const RANGE: f64 = 30.0;

/// Worker-thread counts swept, smallest first so the speedup baseline is
/// always row 0.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Fixed sensor count per profile.
fn n_sensors(p: &Params) -> usize {
    match p.profile {
        Profile::Smoke => 2_000,
        _ => 20_000,
    }
}

/// S2: planning wall-clock vs worker-thread count on a fixed field.
pub fn scale_par(p: &Params) -> Table {
    let n = n_sensors(p);
    let side = (n as f64).sqrt() * 10.0;
    let mut t = Table::new(
        "scale_par_sweep",
        "Parallel planner scaling on a fixed field (n fixed, threads = 1/2/4/8, R = 30 m)",
        &[
            "threads",
            "n_sensors",
            "plan_ms",
            "speedup",
            "polling_points",
            "tour_m",
        ],
    );
    let net = Network::build(
        DeploymentConfig::uniform(n, side).generate(p.base_seed),
        RANGE,
    );
    let mut baseline_ms = f64::NAN;
    let mut baseline_plan = None;
    for &threads in &THREAD_SWEEP {
        mdg_par::set_threads(threads);
        let t_plan = Instant::now();
        let plan = ShdgPlanner::new()
            .plan(&net)
            .expect("uniform field is feasible");
        let plan_ms = t_plan.elapsed().as_secs_f64() * 1e3;
        let m = PlanMetrics::of(&plan, &net.deployment.sensors);
        match &baseline_plan {
            None => {
                baseline_ms = plan_ms;
                baseline_plan = Some(plan);
            }
            Some(base) => assert_eq!(
                *base, plan,
                "plan diverged at {threads} threads — mdg-par determinism broken"
            ),
        }
        let speedup = baseline_ms / plan_ms;
        t.push_row(vec![
            threads as f64,
            n as f64,
            plan_ms,
            speedup,
            m.n_polling_points as f64,
            m.tour_length,
        ]);
        println!(
            "  scale_par: n = {n:>6}  threads {threads}  plan {plan_ms:>9.1} ms  \
             speedup {speedup:.2}x  {} polling points, tour {:.1} m",
            m.n_polling_points, m.tour_length
        );
    }
    mdg_par::set_threads(0); // Back to auto for whatever runs next.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    t.notes = format!(
        "Single topology (seed = base_seed) planned once per thread count; speedup is \
         plan_ms(1 thread) / plan_ms(t threads). The sweep asserts plans are bit-identical \
         across thread counts, so polling_points and tour_m must match in every row. \
         Host had {cores} CPU core(s) available: speedup saturates at the core count \
         (on a 1-core host every row measures scheduling overhead, not scaling)."
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_covers_all_thread_counts() {
        let t = scale_par(&Params::smoke());
        assert_eq!(t.rows.len(), THREAD_SWEEP.len());
        let threads = t.col("threads").unwrap();
        let pps = t.col("polling_points").unwrap();
        let tour = t.col("tour_m").unwrap();
        let speedup = t.col("speedup").unwrap();
        for (row, &want) in t.rows.iter().zip(&THREAD_SWEEP) {
            assert_eq!(row[threads], want as f64);
            // Determinism: the sweep itself asserts plan equality; the
            // published columns must reflect it bit-for-bit.
            assert_eq!(row[pps], t.rows[0][pps]);
            assert_eq!(row[tour], t.rows[0][tour]);
            assert!(row[speedup].is_finite() && row[speedup] > 0.0);
        }
    }
}
