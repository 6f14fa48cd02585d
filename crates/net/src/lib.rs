//! # mdg-net — sensor deployments, unit-disk graphs and graph algorithms
//!
//! This crate is the networking substrate of the `mobile-collectors`
//! workspace. It provides:
//!
//! * **Deployment generators** ([`deployment`]): seeded, reproducible sensor
//!   placements over a rectangular field (uniform random, jittered grid,
//!   Gaussian clusters, disconnected corridors) plus sink placement.
//! * **Unit-disk communication graphs** ([`udg`]): two sensors (or a sensor
//!   and the sink) can communicate iff their Euclidean distance is at most
//!   the transmission range `R`. Adjacency is stored in compressed sparse
//!   row ([`graph::Csr`]) form.
//! * **Graph algorithms** ([`traverse`], [`mod@components`]): BFS hop trees
//!   (the minimum-hop routing structure used by the paper's multi-hop
//!   baseline) and connected components.
//!
//! Everything is deterministic given a seed: the experiment harness relies
//! on replaying identical topologies across schemes.

pub mod components;
pub mod deployment;
pub mod graph;
pub mod stats;
pub mod traverse;
pub mod udg;
pub mod unionfind;

pub use components::{component_sizes, components};
pub use deployment::{Deployment, DeploymentConfig, SinkPlacement, Topology};
pub use graph::Csr;
pub use stats::TopologyStats;
pub use traverse::{bfs_hops, bfs_tree, BfsTree};
pub use udg::Network;

/// Sentinel meaning "unreachable" in hop-count vectors.
pub const UNREACHABLE: u32 = u32::MAX;
