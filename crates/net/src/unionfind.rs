//! Disjoint-set union (union-find) with path halving and union by size.

/// A classic disjoint-set forest over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grandparent = self.parent[self.parent[x] as usize];
            self.parent[x] = grandparent;
            x = grandparent as usize;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert!(!uf.connected(0, 1));
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already connected");
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(2, 3));
    }

    #[test]
    fn full_merge() {
        let mut uf = UnionFind::new(8);
        for i in 1..8 {
            uf.union(0, i);
        }
        for i in 0..8 {
            assert!(uf.connected(0, i));
        }
    }

    #[test]
    fn empty_and_single() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        let mut one = UnionFind::new(1);
        assert_eq!(one.find(0), 0);
    }
}
