//! # mdg-cover — polling-point coverage instances and set-cover solvers
//!
//! The covering subproblem of the single-hop data gathering problem: choose
//! a set of *polling points* such that **every sensor is within the radio
//! transmission range of at least one chosen point** — then (in `mdg-core`)
//! a tour visits exactly the chosen points.
//!
//! This crate provides:
//!
//! * [`CoverageInstance`]: targets (sensors), candidate polling points
//!   (sensor sites or grid positions, per the paper's "predefined
//!   positions"), and their coverage relation, held once as an ascending
//!   list of covered targets per candidate (4 bytes per covering pair).
//! * [`greedy_cover`]: the classic greedy max-coverage heuristic with a
//!   caller-supplied tie-breaker (the planner breaks ties toward the sink).
//! * [`prune_cover`]: reverse-delete removal of redundant selections.
//! * [`capacitated_greedy_cover`]: greedy covering with a per-point load
//!   limit.

pub mod capacitated;
#[cfg(test)]
mod exact;
pub mod greedy;
pub mod instance;
pub mod prune;

pub use capacitated::{capacitated_greedy_cover, CapacitatedCover};
pub use greedy::{greedy_cover, greedy_cover_restricted};
pub use instance::CoverageInstance;
pub use prune::prune_cover;

/// Random sensor fields and ranges for the property tests of the
/// test-only oracles.
#[cfg(test)]
fn arb_sensors() -> impl proptest::Strategy<Value = (Vec<mdg_geom::Point>, f64)> {
    use proptest::prelude::*;
    (
        proptest::collection::vec(
            (0.0..150.0f64, 0.0..150.0f64).prop_map(|(x, y)| mdg_geom::Point::new(x, y)),
            1..40,
        ),
        15.0..60.0f64,
    )
}
