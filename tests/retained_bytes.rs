//! A finished plan leaves nothing behind: once a plan and its network are
//! dropped, the process holds the live bytes it held before planning.
//!
//! The planner builds its working state per call and frees it when the
//! call returns, on the calling thread and on the `mdg-par` workers
//! alike, whose threads live as long as the process. The fields here make
//! that state large: over co-located sensors the tour-aware cover's
//! inverted index alone is about 4·n² bytes per tile.
//!
//! The allocator's live-byte level is process-wide, so this file holds a
//! single test: nothing else in the process allocates while it measures.

use mobile_collectors::core::{HierPlanner, ShdgPlanner};
use mobile_collectors::geom::{Aabb, Point};
use mobile_collectors::net::{Deployment, DeploymentConfig, Network};
use mobile_collectors::obs::alloc;
use mobile_collectors::par;

const RANGE: f64 = 30.0;
const SENSORS_PER_BLOB: usize = 1_500;
/// What a plan may leave allocated for good, such as the entries it adds
/// to the `mdg-obs` counter registry.
const SLACK_BYTES: u64 = 64 * 1024;

/// `SENSORS_PER_BLOB` sensors in a 1 m square shifted `dx` meters east.
fn blob(dx: f64, seed: u64) -> Vec<Point> {
    let d = DeploymentConfig::uniform(SENSORS_PER_BLOB, 1.0).generate(seed);
    d.sensors
        .into_iter()
        .map(|p| Point::new(p.x + dx, p.y))
        .collect()
}

#[test]
fn a_dropped_plan_leaves_no_live_bytes() {
    alloc::set_counting(true);
    // Two threads put one of the hier field's two tiles on a worker.
    // Spawning the workers allocates what they keep for the life of the
    // process, so that happens before the level is read.
    par::set_threads(2);
    assert_eq!(par::par_map(2, |i| i), [0, 1]);
    let level = alloc::totals().current;
    let drift = || alloc::totals().current.abs_diff(level);

    let net = Network::build(
        DeploymentConfig::uniform(SENSORS_PER_BLOB, 1.0).generate(1),
        RANGE,
    );
    let plan = ShdgPlanner::new().plan(&net).expect("field is feasible");
    plan.validate(&net.deployment.sensors, RANGE)
        .expect("plan is valid");
    drop((plan, net));
    let after_flat = drift();

    let mut sensors = blob(0.0, 2);
    sensors.extend(blob(50_000.0, 3));
    let field = Aabb::from_points(&sensors).expect("the field has sensors");
    let sink = Point::new(0.5, 0.5);
    let net = Network::build(
        Deployment {
            sensors,
            sink,
            field,
        },
        RANGE,
    );
    let (plan, stats) = HierPlanner::default()
        .plan_with_stats(&net)
        .expect("field is feasible");
    plan.validate(&net.deployment.sensors, RANGE)
        .expect("plan is valid");
    assert_eq!(stats.n_occupied, 2, "one tile per blob");
    drop((plan, net));
    let after_hier = drift();

    par::set_threads(0);
    alloc::set_counting(false);
    assert!(
        after_flat <= SLACK_BYTES,
        "a dropped flat plan moved live bytes by {after_flat} B"
    );
    assert!(
        after_hier <= SLACK_BYTES,
        "a dropped hier plan moved live bytes by {after_hier} B"
    );
}
