//! A flat session's byte estimate tracks what the session holds.
//!
//! The daemon's session table evicts by `FieldSession::approx_bytes`, so
//! the estimate must stay within a factor of two of the live bytes a
//! warm flat session keeps: its network, coverage lists, alive mask and
//! plan.
//!
//! The allocator's live-byte level is process-wide, so this file holds a
//! single test: nothing else in the process allocates while it measures.

use mobile_collectors::core::PlannerConfig;
use mobile_collectors::net::DeploymentConfig;
use mobile_collectors::obs::alloc;
use mobile_collectors::par;
use mobile_collectors::serve::FieldSession;

const RANGE: f64 = 30.0;

#[test]
fn flat_session_estimates_are_within_twice_the_live_bytes() {
    alloc::set_counting(true);
    // Spawning the workers allocates what they keep for the life of the
    // process, so that happens before any level is read.
    par::set_threads(2);
    assert_eq!(par::par_map(2, |i| i), [0, 1]);
    let mut readings = Vec::new();
    for n in [2_000, 10_000] {
        let level = alloc::totals().current;
        // The S-series density: 100 m² per sensor.
        let side = (n as f64).sqrt() * 10.0;
        let session = FieldSession::plan_cold(
            "f",
            DeploymentConfig::uniform(n, side).generate(1),
            RANGE,
            PlannerConfig::default(),
        )
        .expect("field is feasible");
        let held = alloc::totals().current - level;
        readings.push((n, session.approx_bytes(), held));
    }
    par::set_threads(0);
    alloc::set_counting(false);
    for (n, estimate, held) in readings {
        assert!(
            estimate <= 2 * held && held <= 2 * estimate,
            "n = {n}: approx_bytes {estimate} B against {held} B live"
        );
    }
}
