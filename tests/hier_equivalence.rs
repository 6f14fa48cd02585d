//! Cross-thread-count equivalence suite for the hierarchical planner.
//!
//! The hierarchical planner fans per-tile planning out on `mdg-par`, so
//! it inherits — and must uphold — the layer's hard invariant: **plans
//! are bit-identical at any thread count**. Tiles are planned as
//! independent work items and combined in deterministic (serpentine)
//! index order; stitching, splicing and the seam touch-up are sequential.
//! This suite re-plans the same fields at 1, 2 and 8 worker threads and
//! requires `GatheringPlan` equality (derived `PartialEq` — exact f64
//! comparison, no tolerances), plus full coverage and the ≤ 1.25× tour
//! quality gate against the flat planner.
//!
//! Thread counts are driven through `mdg_par::set_threads`, which is
//! process-global — every test that touches it serializes on [`lock`].
//!
//! Tiles planned on `mdg-par` workers build their working buffers afresh
//! and free them when the tile is done (`tests/retained_bytes.rs` holds a
//! dropped hier plan to the live bytes of before it), so a worker carries
//! nothing from one tile, plan or thread count to the next.

use mobile_collectors::core::{
    CoveringStrategy, GatheringPlan, HierConfig, HierPlanner, PlanMetrics, PlannerConfig,
    ShdgPlanner,
};
use mobile_collectors::net::{DeploymentConfig, Network};
use mobile_collectors::par;
use std::sync::{Mutex, MutexGuard, OnceLock};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const RANGE: f64 = 30.0;

/// Serializes tests around the process-global thread-count override.
/// Also honors `MDG_COUNT_ALLOC` (CI's test job re-runs this suite
/// under the counting allocator — counting must never change a plan).
fn lock() -> MutexGuard<'static, ()> {
    mobile_collectors::obs::alloc::counting_from_env();
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn plan_with(cfg: &HierConfig, net: &Network, threads: usize) -> GatheringPlan {
    par::set_threads(threads);
    let plan = HierPlanner::with_config(*cfg)
        .plan(net)
        .expect("field is feasible");
    par::set_threads(0);
    plan
}

/// Plans `net` hierarchically at every thread count and asserts all plans
/// are identical to the single-thread one. Returns the reference plan.
fn assert_thread_count_invariant(cfg: &HierConfig, net: &Network, label: &str) -> GatheringPlan {
    let reference = plan_with(cfg, net, THREAD_COUNTS[0]);
    for &t in &THREAD_COUNTS[1..] {
        let plan = plan_with(cfg, net, t);
        assert_eq!(
            reference, plan,
            "{label}: hier plan at {t} threads differs from single-threaded plan"
        );
    }
    reference
}

fn uniform(n: usize, side: f64, seed: u64) -> Network {
    Network::build(DeploymentConfig::uniform(n, side).generate(seed), RANGE)
}

#[test]
fn hier_plans_bit_identical_across_thread_counts() {
    let _g = lock();
    // Many tiles (small forced tile side) so the par_map fan-out really
    // has work items to distribute; 10 seeds.
    for seed in 0..10u64 {
        let n = 400 + (seed as usize % 4) * 200;
        let net = uniform(n, 900.0, seed);
        let cfg = HierConfig {
            tile_cells: Some(5.0),
            ..HierConfig::default()
        };
        let plan = assert_thread_count_invariant(&cfg, &net, &format!("seed {seed}"));
        plan.validate(&net.deployment.sensors, RANGE)
            .expect("hier plan covers every live sensor");
    }
}

#[test]
fn hier_determinism_holds_for_every_covering_strategy() {
    let _g = lock();
    let net = uniform(800, 900.0, 7);
    let base_for = |covering, cap| PlannerConfig {
        covering,
        max_sensors_per_pp: cap,
        ..PlannerConfig::default()
    };
    for (label, base) in [
        ("greedy", base_for(CoveringStrategy::Greedy, None)),
        ("tour_aware", base_for(CoveringStrategy::TourAware, None)),
        ("capacitated", base_for(CoveringStrategy::Greedy, Some(16))),
    ] {
        let cfg = HierConfig {
            base,
            tile_cells: Some(6.0),
        };
        let plan = assert_thread_count_invariant(&cfg, &net, label);
        plan.validate(&net.deployment.sensors, RANGE)
            .expect("hier plan covers every live sensor");
    }
}

#[test]
fn hier_quality_stays_within_the_gate_at_any_thread_count() {
    let _g = lock();
    let net = uniform(1_500, 1_200.0, 21);
    let cfg = HierConfig::default();
    let hier = assert_thread_count_invariant(&cfg, &net, "quality field");
    let flat = ShdgPlanner::new().plan(&net).expect("field is feasible");
    let hm = PlanMetrics::of(&hier, &net.deployment.sensors);
    let fm = PlanMetrics::of(&flat, &net.deployment.sensors);
    let ratio = hm.tour_length / fm.tour_length;
    assert!(
        ratio <= 1.25,
        "hier tour {:.1} m is {ratio:.3}x the flat tour {:.1} m",
        hm.tour_length,
        fm.tour_length
    );
}
