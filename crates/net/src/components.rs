//! Connected components of the communication graph.
//!
//! Mobile collection is evaluated on *disconnected* deployments too — the
//! collector can physically drive between islands that multi-hop routing
//! can never bridge. Component labeling quantifies that.

use crate::graph::Csr;
use crate::unionfind::UnionFind;

/// Labels connected components. Returns `(component_count, labels)` where
/// `labels[v] ∈ 0..component_count` and labels are assigned in order of
/// first appearance by node id.
pub fn components(g: &Csr) -> (usize, Vec<u32>) {
    let n = g.n();
    let mut uf = UnionFind::new(n);
    for (u, v, _) in g.edges() {
        uf.union(u as usize, v as usize);
    }
    let mut labels = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n {
        let root = uf.find(v);
        if labels[root] == u32::MAX {
            labels[root] = next;
            next += 1;
        }
        labels[v] = labels[root];
    }
    (next as usize, labels)
}

/// Sizes of all components, descending.
pub fn component_sizes(g: &Csr) -> Vec<usize> {
    let (count, labels) = components(g);
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Components: {0,1,2}, {3,4}, {5}
    fn three_islands() -> Csr {
        Csr::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
    }

    #[test]
    fn counts_and_labels() {
        let g = three_islands();
        let (count, labels) = components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[5]);
        assert_ne!(labels[3], labels[5]);
    }

    #[test]
    fn labels_in_first_appearance_order() {
        let (_, labels) = components(&three_islands());
        assert_eq!(labels[0], 0);
        assert_eq!(labels[3], 1);
        assert_eq!(labels[5], 2);
    }

    #[test]
    fn sizes_descending() {
        assert_eq!(component_sizes(&three_islands()), vec![3, 2, 1]);
    }

    #[test]
    fn fully_connected_is_one_component() {
        let g = Csr::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let (count, _) = components(&g);
        assert_eq!(count, 1);
        assert_eq!(component_sizes(&g), vec![4]);
    }

    #[test]
    fn empty_and_edgeless() {
        let empty = Csr::from_edges(0, &[]);
        assert_eq!(components(&empty).0, 0);
        assert!(component_sizes(&empty).is_empty());
        let edgeless = Csr::from_edges(3, &[]);
        assert_eq!(components(&edgeless).0, 3);
        assert_eq!(component_sizes(&edgeless), vec![1, 1, 1]);
    }
}
