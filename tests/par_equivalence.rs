//! Cross-thread-count equivalence suite for the `mdg-par` layer.
//!
//! The hard invariant of the parallel planner: **plans are bit-identical
//! at any thread count**. Parallel stages only compute; every selection
//! and tie-break stays in a deterministic sequential reducer. This suite
//! re-plans the same fields at 1, 2 and 8 worker threads and requires
//! `GatheringPlan` equality (derived `PartialEq` — exact f64 comparison,
//! no tolerances) across:
//!
//! * both covering strategies (`Greedy` and `TourAware`),
//! * both tour-improvement paths (dense 2-opt/Or-opt below the planner's
//!   512-stop limit, neighbor-list passes above it),
//! * ≥ 20 random fields.
//!
//! Thread counts are driven through `mdg_par::set_threads`, which is
//! process-global — every test that touches it serializes on [`lock`].
//!
//! The scratch-arena variant of this invariant — the same field set
//! re-planned under pool poisoning, arenas on vs off — lives in
//! `tests/scratch_poison.rs`.

use mobile_collectors::core::{CoveringStrategy, GatheringPlan, PlannerConfig, ShdgPlanner};
use mobile_collectors::net::{DeploymentConfig, Network};
use mobile_collectors::par;
use std::sync::{Mutex, MutexGuard, OnceLock};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

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

fn plan_with(cfg: &PlannerConfig, net: &Network, threads: usize) -> GatheringPlan {
    par::set_threads(threads);
    let plan = ShdgPlanner::with_config(*cfg)
        .plan(net)
        .expect("field is feasible");
    par::set_threads(0);
    plan
}

/// Plans `net` at every thread count and asserts all plans are identical
/// to the single-thread one. Returns the reference plan.
fn assert_thread_count_invariant(cfg: &PlannerConfig, net: &Network, label: &str) -> GatheringPlan {
    let reference = plan_with(cfg, net, THREAD_COUNTS[0]);
    for &t in &THREAD_COUNTS[1..] {
        let plan = plan_with(cfg, net, t);
        assert_eq!(
            reference, plan,
            "{label}: plan at {t} threads differs from single-threaded plan"
        );
    }
    reference
}

fn greedy_cfg() -> PlannerConfig {
    PlannerConfig {
        covering: CoveringStrategy::Greedy,
        ..PlannerConfig::default()
    }
}

fn tour_aware_cfg() -> PlannerConfig {
    PlannerConfig {
        covering: CoveringStrategy::TourAware {
            insertion_weight: 1.0,
        },
        ..PlannerConfig::default()
    }
}

#[test]
fn dense_path_bit_identical_across_thread_counts() {
    let _g = lock();
    // Small dense fields: few polling points, so the planner takes the
    // dense DistMatrix + 2-opt/Or-opt path (≤ 512 stops). 20 seeds × both
    // strategies.
    for seed in 0..20u64 {
        let n = 150 + (seed as usize % 5) * 40;
        let side = 300.0 + (seed as f64 % 3.0) * 100.0;
        let net = Network::build(DeploymentConfig::uniform(n, side).generate(seed), 30.0);
        for (cfg, label) in [(greedy_cfg(), "greedy"), (tour_aware_cfg(), "tour-aware")] {
            let plan = assert_thread_count_invariant(&cfg, &net, &format!("{label} seed {seed}"));
            assert!(
                plan.n_polling_points() <= 512,
                "seed {seed}: expected the dense tour path"
            );
            plan.validate(&net.deployment.sensors, net.range)
                .expect("plan is valid");
        }
    }
}

#[test]
fn neighbor_list_path_bit_identical_across_thread_counts() {
    let _g = lock();
    // Sparse fields: enough polling points to exceed the planner's
    // 512-stop dense limit, forcing cheapest insertion + neighbor-list
    // improvement. 4 seeds × both strategies (each plan runs 6× here, so
    // the fields are kept moderate).
    for seed in 100..104u64 {
        let net = Network::build(DeploymentConfig::uniform(700, 2_300.0).generate(seed), 30.0);
        for (cfg, label) in [(greedy_cfg(), "greedy"), (tour_aware_cfg(), "tour-aware")] {
            let plan =
                assert_thread_count_invariant(&cfg, &net, &format!("{label} NL seed {seed}"));
            assert!(
                plan.n_polling_points() > 512,
                "seed {seed}: got {} stops, expected the neighbor-list path",
                plan.n_polling_points()
            );
        }
    }
}

#[test]
fn dense_improve_parallel_branch_matches_sequential() {
    use mobile_collectors::geom::Point;
    use mobile_collectors::tour::{improve, EuclideanCost, ImproveConfig, Tour};
    let _g = lock();
    // Drive `improve` directly at n = 600, past the planner's dense limit,
    // with EuclideanCost. Its candidate scans run inline on the calling
    // thread, so the improved tour must be identical at every thread
    // count.
    let mut state = 0xD1CEu64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 1_000.0
    };
    let pts: Vec<Point> = (0..600).map(|_| Point::new(next(), next())).collect();
    let cost = EuclideanCost::new(&pts);
    let cfg = ImproveConfig {
        max_passes: 2,
        ..ImproveConfig::default()
    };
    par::set_threads(1);
    let reference = improve(&cost, Tour::identity(600), &cfg);
    for &t in &THREAD_COUNTS[1..] {
        par::set_threads(t);
        let tour = improve(&cost, Tour::identity(600), &cfg);
        assert_eq!(
            reference.order(),
            tour.order(),
            "dense improve diverged at {t} threads"
        );
    }
    par::set_threads(0);
}

#[test]
fn env_thread_override_is_respected() {
    let _g = lock();
    // `set_threads` beats the environment; 0 restores auto.
    par::set_threads(3);
    assert_eq!(par::threads(), 3);
    par::set_threads(1);
    assert_eq!(par::threads(), 1);
    par::set_threads(0);
    assert!(par::threads() >= 1);
}
