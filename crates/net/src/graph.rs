//! Compressed-sparse-row (CSR) adjacency for undirected weighted graphs.
//!
//! CSR keeps each node's neighbor list contiguous, which is what the BFS
//! inner loops of the multi-hop baselines want: one cache line per
//! neighborhood instead of a pointer chase per edge (this is why the graph
//! library is hand-rolled rather than pulled from a general-purpose crate).

/// An undirected weighted graph in CSR form. Node ids are `0..n`.
///
/// Construction deduplicates nothing: callers are expected to provide each
/// undirected edge once; both directions are materialized internally.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    n_edges: usize,
}

impl Csr {
    /// Builds a CSR graph over `n` nodes from an undirected edge list
    /// `(u, v, weight)`. Self-loops are rejected.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n` or `u == v`.
    pub fn from_edges(n: usize, edges: &[(u32, u32, f64)]) -> Self {
        let mut degree = vec![0u32; n + 1];
        for &(u, v, _) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            assert!(u != v, "self-loops are not allowed");
            degree[u as usize + 1] += 1;
            degree[v as usize + 1] += 1;
        }
        for i in 0..n {
            degree[i + 1] += degree[i];
        }
        let offsets = degree.clone();
        let mut cursor = degree;
        let mut targets = vec![0u32; edges.len() * 2];
        let mut weights = vec![0.0f64; edges.len() * 2];
        for &(u, v, w) in edges {
            let cu = cursor[u as usize] as usize;
            targets[cu] = v;
            weights[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            targets[cv] = u;
            weights[cv] = w;
            cursor[v as usize] += 1;
        }
        Csr {
            offsets,
            targets,
            weights,
            n_edges: edges.len(),
        }
    }

    /// Adopts finished CSR arrays: row `u` is
    /// `targets[offsets[u]..offsets[u + 1]]` (weights alongside), and
    /// every undirected edge appears in both endpoints' rows. Applies the
    /// checks [`Csr::from_edges`] makes on its edge list.
    ///
    /// # Panics
    /// Panics if `offsets` does not start at 0, decreases, or does not end
    /// at the entry count; if the entry count is odd or differs between
    /// `targets` and `weights`; or if a row lists its own node or a node
    /// `>= n`.
    pub(crate) fn from_rows(offsets: Vec<u32>, targets: Vec<u32>, weights: Vec<f64>) -> Self {
        assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must never decrease"
        );
        assert_eq!(
            offsets[offsets.len() - 1] as usize,
            targets.len(),
            "offsets must end at the entry count"
        );
        assert_eq!(targets.len(), weights.len(), "one weight per entry");
        assert!(
            targets.len().is_multiple_of(2),
            "each undirected edge is listed in both rows"
        );
        let n = offsets.len() - 1;
        for (u, row) in offsets.windows(2).enumerate() {
            for &v in &targets[row[0] as usize..row[1] as usize] {
                assert!((v as usize) < n, "edge endpoint out of range");
                assert!(v as usize != u, "self-loops are not allowed");
            }
        }
        Csr {
            n_edges: targets.len() / 2,
            offsets,
            targets,
            weights,
        }
    }

    /// The arrays `(offsets, targets, weights)` that [`Csr::from_rows`]
    /// takes.
    pub(crate) fn rows(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.offsets, &self.targets, &self.weights)
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.n_edges
    }

    /// Neighbors of `u`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Neighbors of `u` with edge weights.
    #[inline]
    pub fn neighbors_weighted(&self, u: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Average node degree (`2m / n`), 0 for an empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n() as f64
        }
    }

    /// Returns `true` if `u` and `v` are adjacent (linear scan of the
    /// shorter neighborhood).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).contains(&(b as u32))
    }

    /// Iterates all undirected edges `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.neighbors_weighted(u)
                .filter(move |&(v, _)| (u as u32) < v)
                .map(move |(v, w)| (u as u32, v, w))
        })
    }

    /// Builds the induced subgraph on `keep` (a set of node ids). Returns
    /// the subgraph and the mapping `new_id -> old_id`.
    pub fn induced_subgraph(&self, keep: &[usize]) -> (Csr, Vec<usize>) {
        let mut old_to_new = vec![u32::MAX; self.n()];
        for (new, &old) in keep.iter().enumerate() {
            old_to_new[old] = new as u32;
        }
        let mut edges = Vec::new();
        for &old_u in keep {
            let new_u = old_to_new[old_u];
            for (v, w) in self.neighbors_weighted(old_u) {
                let new_v = old_to_new[v as usize];
                if new_v != u32::MAX && new_u < new_v {
                    edges.push((new_u, new_v, w));
                }
            }
        }
        (Csr::from_edges(keep.len(), &edges), keep.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 - 1 - 2
    ///     |
    ///     3       4 (isolated)
    fn sample() -> Csr {
        Csr::from_edges(5, &[(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)])
    }

    #[test]
    fn counts_and_degrees() {
        let g = sample();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(4), 0);
        assert!((g.avg_degree() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn neighbors_bidirectional() {
        let g = sample();
        assert_eq!(g.neighbors(0), &[1]);
        let mut n1: Vec<u32> = g.neighbors(1).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![0, 2, 3]);
        assert!(g.neighbors(4).is_empty());
    }

    #[test]
    fn weighted_neighbors() {
        let g = sample();
        let w: Vec<(u32, f64)> = g.neighbors_weighted(2).collect();
        assert_eq!(w, vec![(1, 2.0)]);
    }

    #[test]
    fn has_edge_symmetric() {
        let g = sample();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(4, 0));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = sample();
        let mut edges: Vec<(u32, u32, f64)> = g.edges().collect();
        edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(edges, vec![(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = sample();
        let (sub, map) = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 1, "only edge 1-2 survives");
        assert_eq!(map, vec![1, 2, 4]);
        assert!(sub.has_edge(0, 1)); // new ids of old 1 and 2
        assert_eq!(sub.degree(2), 0); // old node 4
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        Csr::from_edges(2, &[(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        Csr::from_edges(2, &[(0, 2, 1.0)]);
    }

    #[test]
    fn from_rows_adopts_from_edges_arrays() {
        let g = sample();
        let h = Csr::from_rows(g.offsets.clone(), g.targets.clone(), g.weights.clone());
        assert_eq!((h.n(), h.m()), (5, 3));
        assert!(h.has_edge(1, 3));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn from_rows_rejects_self_loops() {
        Csr::from_rows(vec![0, 1, 2], vec![0, 0], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_rows_rejects_bad_endpoints() {
        Csr::from_rows(vec![0, 1, 2], vec![2, 0], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "entry count")]
    fn from_rows_rejects_offsets_short_of_the_entries() {
        Csr::from_rows(vec![0, 1, 1], vec![1, 0], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "never decrease")]
    fn from_rows_rejects_decreasing_offsets() {
        Csr::from_rows(vec![0, 2, 1, 2], vec![1, 2, 0, 0], vec![1.0; 4]);
    }
}
