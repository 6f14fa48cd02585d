//! # mobile-collectors
//!
//! A production-quality Rust reproduction of **"Data gathering in wireless
//! sensor networks with mobile collectors"** (Ma & Yang, IEEE IPDPS 2008):
//! plan the tour of a mobile collector (*M-collector*) that starts at the
//! static data sink, pauses at a minimal set of **polling points**, gathers
//! every sensor's data via **single-hop** uploads, and returns to the sink
//! — plus the multi-collector extension for deadline-bounded gathering,
//! every baseline the paper compares against, and a discrete-event
//! simulator for energy/latency/lifetime studies.
//!
//! ## Quickstart
//!
//! ```rust
//! use mobile_collectors::net::{DeploymentConfig, Network};
//! use mobile_collectors::core::ShdgPlanner;
//!
//! // 200 sensors on a 200 m × 200 m field, sink at the center, R = 30 m.
//! let deployment = DeploymentConfig::uniform(200, 200.0).generate(42);
//! let network = Network::build(deployment, 30.0);
//!
//! let plan = ShdgPlanner::new().plan(&network).unwrap();
//! println!(
//!     "{} polling points, tour {:.0} m",
//!     plan.n_polling_points(),
//!     plan.tour_length
//! );
//! assert!(plan.validate(&network.deployment.sensors, network.range).is_ok());
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`par`] | `mdg-par` | deterministic thread-pool parallelism (`MDG_THREADS`) |
//! | [`obs`] | `mdg-obs` | observability: phase spans, counters, histograms, profile exporters |
//! | [`geom`] | `mdg-geom` | points, hulls, spatial grids, distance matrices |
//! | [`net`] | `mdg-net` | deployments, unit-disk graphs, BFS trees, components |
//! | [`energy`] | `mdg-energy` | first-order radio model, batteries, ledgers |
//! | [`tour`] | `mdg-tour` | TSP construction/improvement/exact/splitting |
//! | [`cover`] | `mdg-cover` | polling-point coverage and set-cover solvers |
//! | [`core`] | `mdg-core` | **the SHDG planner**, exact solver, fleet planner |
//! | [`sim`] | `mdg-sim` | discrete-event simulator, lifetime studies |
//! | [`baselines`] | `mdg-baselines` | visit-all, multi-hop routing, CME, direct |
//! | [`runtime`] | `mdg-runtime` | online re-planning: fault injection, plan repair, trace bundles + counterfactual replay |
//! | [`serve`] | `mdg-serve` | planning-as-a-service daemon: warm sessions, incremental replans over TCP |

pub mod render;

pub use mdg_baselines as baselines;
pub use mdg_core as core;
pub use mdg_cover as cover;
pub use mdg_energy as energy;
pub use mdg_geom as geom;
pub use mdg_net as net;
pub use mdg_obs as obs;
pub use mdg_par as par;
pub use mdg_runtime as runtime;
pub use mdg_serve as serve;
pub use mdg_sim as sim;
pub use mdg_tour as tour;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use mdg_baselines::{plan_cme, visit_all_plan, MultihopMetrics};
    pub use mdg_core::{
        exact_plan, plan_fleet, plan_fleet_for_deadline, GatheringPlan, PlanMetrics, PlannerConfig,
        ShdgPlanner,
    };
    pub use mdg_energy::RadioModel;
    pub use mdg_geom::Point;
    pub use mdg_net::{Deployment, DeploymentConfig, Network, SinkPlacement, Topology};
    pub use mdg_runtime::{
        parse_bundle, FaultConfig, GatheringRuntime, PolicyOverrides, RepairPolicy, ReplayEngine,
        ReplayManifest, RuntimeConfig, SweepSpec, TopologyManifest, TraceHeader, TraceWriter,
    };
    pub use mdg_sim::{
        scenario_from_plan, simulate_lifetime, MobileGatheringSim, MultihopRoutingSim, SimConfig,
    };
}
