//! Topology statistics: degree and component structure.
//!
//! The evaluation interprets its sweeps through density arguments
//! ("sensors become more densely scattered…"), so the harness reports the
//! structural quantities behind them.

use crate::graph::Csr;
use crate::udg::Network;
use serde::{Deserialize, Serialize};

/// Degree and component structure of one communication graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyStats {
    /// Number of nodes.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Mean node degree.
    pub mean_degree: f64,
    /// Smallest node degree.
    pub min_degree: usize,
    /// Largest node degree.
    pub max_degree: usize,
    /// Nodes with no neighbors at all.
    pub isolated: usize,
    /// Number of connected components.
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
}

impl TopologyStats {
    /// Computes the statistics of a graph.
    pub fn of(g: &Csr) -> TopologyStats {
        let n = g.n();
        let degrees: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
        let sizes = crate::components::component_sizes(g);
        TopologyStats {
            n,
            m: g.m(),
            mean_degree: g.avg_degree(),
            min_degree: degrees.iter().copied().min().unwrap_or(0),
            max_degree: degrees.iter().copied().max().unwrap_or(0),
            isolated: degrees.iter().filter(|&&d| d == 0).count(),
            components: sizes.len(),
            largest_component: sizes.first().copied().unwrap_or(0),
        }
    }

    /// Statistics of a network's sensor-only graph.
    pub fn of_network(net: &Network) -> TopologyStats {
        TopologyStats::of(&net.sensor_graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 - 1 - 2,  3 isolated.
    fn sample() -> Csr {
        Csr::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0)])
    }

    #[test]
    fn stats_of_sample() {
        let s = TopologyStats::of(&sample());
        assert_eq!(s.n, 4);
        assert_eq!(s.m, 2);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.isolated, 1);
        assert_eq!(s.components, 2);
        assert_eq!(s.largest_component, 3);
        assert!((s.mean_degree - 1.0).abs() < 1e-12);
    }
}
