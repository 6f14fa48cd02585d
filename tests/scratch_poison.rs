//! Poisoning property suite for the scratch arenas.
//!
//! The arena contract: a pooled buffer hands back *capacity only* — its
//! length is always zero on `take`, so no stale content from a previous
//! planning run can leak into the next one. This suite turns the pool's
//! poison mode on (every `put` overwrites the buffer's spare capacity
//! with a `0xA5` sentinel), re-plans the `par_equivalence` field set at
//! 1 and 4 worker threads, and requires the plans to be bit-identical
//! both across thread counts and with the arenas disabled entirely
//! (`scratch::set_enabled(false)` = every take is a fresh allocation).
//! A buffer whose old contents were ever *read* after reuse would plan
//! through sentinel garbage here and diverge loudly.
//!
//! Poison, enablement and the thread count are process-global, so every
//! test serializes on [`lock`] (shared across files via the process-wide
//! `set_threads`, same discipline as the other equivalence suites) and
//! restores the globals through a drop guard even on panic.

use mobile_collectors::core::{
    CoveringStrategy, GatheringPlan, HierConfig, HierPlanner, PlannerConfig, ShdgPlanner,
};
use mobile_collectors::net::{DeploymentConfig, Network};
use mobile_collectors::par;
use std::sync::{Mutex, MutexGuard, OnceLock};

const THREAD_COUNTS: [usize; 2] = [1, 4];
const RANGE: f64 = 30.0;

/// Serializes tests around the process-global scratch/thread overrides.
/// Also honors `MDG_COUNT_ALLOC` (CI's test job re-runs this suite
/// under the counting allocator — counting must never change a plan).
fn lock() -> MutexGuard<'static, ()> {
    mobile_collectors::obs::alloc::counting_from_env();
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores every global this suite mutates, even when an assert fires.
struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        par::scratch::set_poison(false);
        par::scratch::set_enabled(true);
        par::set_threads(0);
    }
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

fn plan_flat(cfg: &PlannerConfig, net: &Network, threads: usize) -> GatheringPlan {
    par::set_threads(threads);
    ShdgPlanner::with_config(*cfg)
        .plan(net)
        .expect("field is feasible")
}

/// Plans `net` under poison at 1 and 4 threads with arenas on, then again
/// with arenas off, and requires all four plans bit-identical.
fn assert_poison_invariant(cfg: &PlannerConfig, net: &Network, label: &str) -> GatheringPlan {
    let reference = plan_flat(cfg, net, THREAD_COUNTS[0]);
    for &t in &THREAD_COUNTS[1..] {
        let plan = plan_flat(cfg, net, t);
        assert_eq!(
            reference, plan,
            "{label}: poisoned plan at {t} threads differs from single-threaded plan"
        );
    }
    par::scratch::set_enabled(false);
    for &t in &THREAD_COUNTS {
        let plan = plan_flat(cfg, net, t);
        assert_eq!(
            reference, plan,
            "{label}: plan with arenas disabled ({t} threads) differs from the pooled plan"
        );
    }
    par::scratch::set_enabled(true);
    reference
}

#[test]
fn dense_fields_survive_poisoned_reuse() {
    let _g = lock();
    let _restore = Restore;
    par::scratch::set_poison(true);
    // The par_equivalence dense set: 20 seeds × both strategies, all on
    // the DistMatrix + 2-opt/Or-opt path. Running them back-to-back in
    // one process is the point — every plan reuses buffers the previous
    // plan poisoned.
    for seed in 0..20u64 {
        let n = 150 + (seed as usize % 5) * 40;
        let side = 300.0 + (seed as f64 % 3.0) * 100.0;
        let net = Network::build(DeploymentConfig::uniform(n, side).generate(seed), RANGE);
        for (cfg, label) in [(greedy_cfg(), "greedy"), (tour_aware_cfg(), "tour-aware")] {
            let plan = assert_poison_invariant(&cfg, &net, &format!("{label} seed {seed}"));
            plan.validate(&net.deployment.sensors, net.range)
                .expect("plan is valid");
        }
    }
}

#[test]
fn neighbor_list_fields_survive_poisoned_reuse() {
    let _g = lock();
    let _restore = Restore;
    par::scratch::set_poison(true);
    // The par_equivalence sparse set: > 512 stops forces the k-NN build
    // and the neighbor-list 2-opt/Or-opt passes — the heaviest scratch
    // consumers (k-NN rows, move queues, position tables).
    for seed in 100..104u64 {
        let net = Network::build(
            DeploymentConfig::uniform(700, 2_300.0).generate(seed),
            RANGE,
        );
        for (cfg, label) in [(greedy_cfg(), "greedy"), (tour_aware_cfg(), "tour-aware")] {
            let plan = assert_poison_invariant(&cfg, &net, &format!("{label} NL seed {seed}"));
            assert!(
                plan.n_polling_points() > 512,
                "seed {seed}: got {} stops, expected the neighbor-list path",
                plan.n_polling_points()
            );
        }
    }
}

#[test]
fn hier_plans_survive_poisoned_reuse() {
    let _g = lock();
    let _restore = Restore;
    par::scratch::set_poison(true);
    // The hierarchical pipeline pools the most state (tile closures,
    // stitch buffers, assignment tables); 4 seeds under poison, arenas
    // on/off, 1 vs 4 threads.
    for seed in 0..4u64 {
        let n = 400 + (seed as usize) * 200;
        let net = Network::build(DeploymentConfig::uniform(n, 900.0).generate(seed), RANGE);
        let cfg = HierConfig {
            tile_cells: Some(5.0),
            ..HierConfig::default()
        };
        let hier_plan = |threads: usize| -> GatheringPlan {
            par::set_threads(threads);
            HierPlanner::with_config(cfg)
                .plan(&net)
                .expect("field is feasible")
        };
        let reference = hier_plan(1);
        let four = hier_plan(4);
        assert_eq!(
            reference, four,
            "seed {seed}: poisoned hier plan diverged between 1 and 4 threads"
        );
        par::scratch::set_enabled(false);
        let off = hier_plan(4);
        par::scratch::set_enabled(true);
        assert_eq!(
            reference, off,
            "seed {seed}: hier plan with arenas disabled differs from the pooled plan"
        );
        reference
            .validate(&net.deployment.sensors, RANGE)
            .expect("hier plan covers every live sensor");
    }
}
