//! Breadth-first traversals: hop distances and BFS trees.
//!
//! BFS from the sink over the full graph yields the minimum-hop routing
//! structure of the paper's multi-hop baseline.

use crate::graph::Csr;
use crate::UNREACHABLE;
use std::collections::VecDeque;

/// A BFS tree: hop counts and parent pointers from a single source.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// `hops[v]` = hop distance from the source ([`UNREACHABLE`] if
    /// disconnected).
    pub hops: Vec<u32>,
    /// `parent[v]` = predecessor of `v` on a shortest hop path
    /// ([`UNREACHABLE`] for the source and unreachable nodes).
    pub parent: Vec<u32>,
    /// The source node.
    pub source: usize,
}

impl BfsTree {
    /// Reconstructs the path from `v` back to the source (inclusive, ending
    /// at the source). Returns `None` if `v` is unreachable.
    pub fn path_to_source(&self, v: usize) -> Option<Vec<u32>> {
        if self.hops[v] == UNREACHABLE {
            return None;
        }
        let mut path = vec![v as u32];
        let mut cur = v;
        while cur != self.source {
            cur = self.parent[cur] as usize;
            path.push(cur as u32);
        }
        Some(path)
    }

    /// Maximum finite hop count (the eccentricity of the source within its
    /// component). 0 if the source is isolated.
    pub fn max_hops(&self) -> u32 {
        self.hops
            .iter()
            .copied()
            .filter(|&h| h != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }

    /// Mean hop count over reachable nodes, excluding the source itself.
    pub fn mean_hops(&self) -> f64 {
        let mut sum = 0u64;
        let mut cnt = 0u64;
        for (v, &h) in self.hops.iter().enumerate() {
            if v != self.source && h != UNREACHABLE {
                sum += h as u64;
                cnt += 1;
            }
        }
        if cnt == 0 {
            0.0
        } else {
            sum as f64 / cnt as f64
        }
    }
}

/// Hop distances from `source` ([`UNREACHABLE`] where disconnected).
pub fn bfs_hops(g: &Csr, source: usize) -> Vec<u32> {
    bfs_tree(g, source).hops
}

/// Full BFS tree from `source`.
pub fn bfs_tree(g: &Csr, source: usize) -> BfsTree {
    assert!(source < g.n(), "source out of range");
    let mut hops = vec![UNREACHABLE; g.n()];
    let mut parent = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    hops[source] = 0;
    queue.push_back(source as u32);
    while let Some(u) = queue.pop_front() {
        let hu = hops[u as usize];
        for &v in g.neighbors(u as usize) {
            if hops[v as usize] == UNREACHABLE {
                hops[v as usize] = hu + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    BfsTree {
        hops,
        parent,
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 - 1 - 2 - 3   4 - 5
    fn two_paths() -> Csr {
        Csr::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
    }

    #[test]
    fn hops_on_path() {
        let g = two_paths();
        let h = bfs_hops(&g, 0);
        assert_eq!(&h[..4], &[0, 1, 2, 3]);
        assert_eq!(h[4], UNREACHABLE);
        assert_eq!(h[5], UNREACHABLE);
    }

    #[test]
    fn tree_paths_and_stats() {
        let g = two_paths();
        let t = bfs_tree(&g, 0);
        assert_eq!(t.path_to_source(3), Some(vec![3, 2, 1, 0]));
        assert_eq!(t.path_to_source(0), Some(vec![0]));
        assert_eq!(t.path_to_source(5), None);
        assert_eq!(t.max_hops(), 3);
        assert!((t.mean_hops() - 2.0).abs() < 1e-12, "(1+2+3)/3");
    }

    #[test]
    fn parents_form_shortest_paths() {
        // Diamond: 0-1, 0-2, 1-3, 2-3 — node 3 has two shortest paths.
        let g = Csr::from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]);
        let t = bfs_tree(&g, 0);
        assert_eq!(t.hops, vec![0, 1, 1, 2]);
        let p3 = t.parent[3];
        assert!(p3 == 1 || p3 == 2);
    }

    #[test]
    fn isolated_node_bfs() {
        let g = Csr::from_edges(1, &[]);
        let t = bfs_tree(&g, 0);
        assert_eq!(t.hops, vec![0]);
        assert_eq!(t.max_hops(), 0);
        assert_eq!(t.mean_hops(), 0.0);
    }
}
