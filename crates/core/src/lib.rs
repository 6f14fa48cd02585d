//! # mdg-core — single-hop mobile data gathering (SHDG) planning
//!
//! The primary contribution of *"Data gathering in wireless sensor networks
//! with mobile collectors"* (Ma & Yang, IPDPS 2008), reproduced as a
//! library: plan the tour of a mobile collector (an *M-collector*) that
//! starts at the static data sink, pauses at a set of **polling points**,
//! collects data from every sensor via **single-hop** uploads, and returns
//! to the sink.
//!
//! ## The SHDG problem
//!
//! Choose polling points such that every sensor is within transmission
//! range of at least one of them, and find the minimum-length closed tour
//! through the sink and all chosen points. The problem couples set cover
//! with the TSP and is NP-hard (reduction from TSP: shrink the range until
//! every sensor must be visited individually).
//!
//! ## What this crate provides
//!
//! * [`ShdgPlanner`] — the heuristic planner: greedy or **tour-aware**
//!   covering, redundancy pruning against the actual tour, and 2-opt/Or-opt
//!   tour polishing. Produces a [`GatheringPlan`] from a network
//!   ([`ShdgPlanner::plan`]) or from a prebuilt coverage instance
//!   ([`ShdgPlanner::plan_instance`]).
//! * [`hier::HierPlanner`] — the hierarchical tiled planner for very
//!   large fields: tile the field, run the flat planner's pipeline per
//!   tile in parallel, stitch the sub-tours, and polish the seams. Plans
//!   million-sensor fields that the flat planner cannot reach.
//!
//! The cover → prune → tour → assign pipeline exists once, in
//! [`planner`]: a flat plan runs it from the sink over the whole field,
//! and every hier tile runs it over the tile's sensors with cover ties
//! broken toward the tile center and no depot in the tour.
//! * [`exact`] — an exact SHDGP solver for small instances (enumerates
//!   inclusion-minimal covers with a convex-hull tour lower bound, solving
//!   each tour with Held–Karp), substituting the paper's CPLEX baseline.
//! * [`fleet`] — the multi-collector extension: split the plan into
//!   sub-tours to meet a data-gathering deadline, minimizing the number of
//!   collectors; plus an angular-partition alternative used as an ablation.
//! * [`metrics`] — per-plan statistics feeding the experiment harness.

pub mod error;
pub mod exact;
pub mod fleet;
pub mod hier;
pub mod ilp;
pub mod metrics;
pub mod mutate;
pub mod plan;
pub mod planner;
mod tour_aware;

pub use error::PlanError;
pub use exact::exact_plan;
pub use fleet::{
    plan_fleet, plan_fleet_angular, plan_fleet_for_deadline, CollectorTour, FleetPlan,
};
pub use hier::{HierConfig, HierDeltaReport, HierPlan, HierPlanner, HierStats};
pub use ilp::IlpInstance;
pub use metrics::PlanMetrics;
pub use mutate::UNASSIGNED;
pub use plan::{GatheringPlan, PollingPoint};
pub use planner::{CandidateMode, CoveringStrategy, PlannerConfig, ShdgPlanner};
