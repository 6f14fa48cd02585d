//! The observability determinism contract: enabling `mdg-obs` profiling
//! must not perturb planning — plans are **bit-identical** with profiling
//! on and off, at 1 and 4 worker threads (the acceptance criterion of the
//! instrumentation layer).
//!
//! Thread-count equivalence itself is covered by `par_equivalence.rs`;
//! here the axis under test is the profiling flag.

use mobile_collectors::core::{GatheringPlan, HierConfig, HierPlan, HierPlanner, ShdgPlanner};
use mobile_collectors::net::{DeploymentConfig, Network};
use mobile_collectors::{obs, par};

/// The obs registry and the thread override are process globals; the
/// tests in this binary serialize on this lock so they cannot interleave.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn field(n: usize, side: f64, seed: u64) -> Network {
    Network::build(DeploymentConfig::uniform(n, side).generate(seed), 30.0)
}

fn plan_with_obs(net: &Network, profiling: bool) -> GatheringPlan {
    obs::reset();
    obs::set_enabled(profiling);
    let plan = ShdgPlanner::new().plan(net).unwrap();
    obs::set_enabled(false);
    plan
}

#[test]
fn plans_bit_identical_with_profiling_on_and_off_at_1_and_4_threads() {
    let _g = obs_lock();
    // Sizes straddle DENSE_TOUR_LIMIT-ish behavior differences: small
    // fields use the dense tour pipeline, the 2500-sensor field the
    // neighbor-list one.
    for (n, side) in [(120usize, 200.0), (600, 400.0), (2500, 700.0)] {
        for seed in [1u64, 17] {
            let net = field(n, side, seed);
            for threads in [1usize, 4] {
                par::set_threads(threads);
                let off = plan_with_obs(&net, false);
                let on = plan_with_obs(&net, true);
                assert_eq!(
                    off, on,
                    "profiling changed the plan: n={n} seed={seed} threads={threads}"
                );
            }
            // And across thread counts with profiling on.
            par::set_threads(1);
            let t1 = plan_with_obs(&net, true);
            par::set_threads(4);
            let t4 = plan_with_obs(&net, true);
            assert_eq!(
                t1, t4,
                "n={n} seed={seed}: profiled plans differ by threads"
            );
        }
    }
    par::set_threads(0);
}

#[test]
fn profiled_plan_records_the_pipeline_phases() {
    let _g = obs_lock();
    let net = field(300, 250.0, 3);
    obs::reset();
    obs::set_enabled(true);
    ShdgPlanner::new().plan(&net).unwrap();
    obs::set_enabled(false);
    let prof = obs::snapshot();
    let paths: Vec<&str> = prof.spans.iter().map(|s| s.path.as_str()).collect();
    for expect in [
        "plan",
        "plan/instance",
        "plan/cover",
        "plan/cover/tour_aware",
        "plan/tour",
        "plan/tour/improve",
        "plan/assign",
    ] {
        assert!(paths.contains(&expect), "missing {expect} in {paths:?}");
    }
    // The root span accounts the sensors as items and bounds its children.
    let root = &prof.spans[0];
    assert_eq!(root.path, "plan");
    assert_eq!(root.items, 300);
    for s in &prof.spans[1..] {
        assert!(
            s.wall_nanos <= root.wall_nanos,
            "{} outlasted its root",
            s.path
        );
    }
    obs::reset();
}

#[test]
fn tile_spans_nest_under_the_parallel_call_at_2_threads() {
    let _g = obs_lock();
    // 16 occupied tiles over 2 000 sensors, planned on two threads: the
    // tiles a worker plans must record under `hier/tiles` like the ones
    // the submitting thread plans, not as a second root.
    let net = field(2000, 1000.0, 11);
    let planner = HierPlanner::with_config(HierConfig {
        tile_cells: Some(10.0),
        ..HierConfig::default()
    });
    par::set_threads(2);
    obs::reset();
    let (off, _) = planner.plan_with_stats(&net).unwrap();
    obs::set_enabled(true);
    let (on, stats) = planner.plan_with_stats(&net).unwrap();
    obs::set_enabled(false);
    par::set_threads(0);
    let prof = obs::snapshot();
    obs::reset();
    assert_eq!(off, on, "profiling changed the hier plan");
    assert_eq!(stats.n_occupied, 16);
    let tile = prof
        .spans
        .iter()
        .find(|s| s.path == "hier/tiles/tile")
        .expect("tile spans recorded");
    assert_eq!(tile.calls, stats.n_occupied as u64);
    for s in &prof.spans {
        assert!(s.path.starts_with("hier"), "stray root span {}", s.path);
    }
}

#[test]
fn a_one_tile_delta_computes_knn_rows_for_a_small_share_of_the_stops() {
    let _g = obs_lock();
    // 6 000 sensors in 150 m tiles: about 36 occupied tiles and 400 stops.
    // A death and an addition at the same spot dirty one tile, so the
    // seam touch-up reads the k-NN rows around that tile's seams only;
    // `hier/knn_rows` counts them.
    let dep = DeploymentConfig::uniform(6000, 775.0).generate(5);
    let cfg = HierConfig {
        tile_cells: Some(5.0),
        ..HierConfig::default()
    };
    let mut sensors = dep.sensors.clone();
    let mut alive = vec![true; sensors.len()];
    let mut hp = HierPlan::build(&sensors, dep.sink, 30.0, cfg).unwrap();
    let stops = hp.plan().n_polling_points();
    assert!(hp.stats().n_occupied >= 30, "{:?}", hp.stats());
    alive[123] = false;
    sensors.push(sensors[123]);
    alive.push(true);
    obs::reset();
    obs::set_enabled(true);
    let report = hp.apply_delta(&sensors, &alive, &[123], None).unwrap();
    obs::set_enabled(false);
    let rows = obs::counter("hier/knn_rows").get() as usize;
    obs::reset();
    assert_eq!((report.dirty_tiles, report.full_rebuild), (1, false));
    hp.plan().validate_live(&sensors, 30.0, &alive).unwrap();
    assert!(rows > 0, "the dirty tile's seams were polished");
    assert!(
        rows * 10 <= stops,
        "{rows} k-NN rows computed for a one-tile delta over {stops} stops"
    );
}

#[test]
fn profile_jsonl_round_trips_through_the_vendored_parser() {
    let _g = obs_lock();
    let net = field(200, 200.0, 9);
    obs::reset();
    obs::set_enabled(true);
    ShdgPlanner::new().plan(&net).unwrap();
    obs::set_enabled(false);
    let prof = obs::snapshot();
    let jsonl = prof.to_jsonl();
    assert!(!jsonl.is_empty());
    let mut kinds = std::collections::BTreeSet::new();
    for line in jsonl.lines() {
        let v = serde_json::parse_value(line).expect("line parses as JSON");
        match v.get("kind") {
            Some(serde::Value::Str(kind)) => {
                kinds.insert(kind.clone());
            }
            other => panic!("bad kind: {other:?}"),
        }
        assert!(matches!(v.get("path"), Some(serde::Value::Str(_))));
    }
    assert!(kinds.contains("span"));
    assert!(kinds.contains("counter"), "planner bumps move counters");
    obs::reset();
}
