//! A compact dynamic bitset over `0..len`.
//!
//! Coverage sets are dense over a few hundred sensors; `u64` blocks give
//! word-parallel union/subset/count operations that dominate the greedy
//! cover inner loop.

/// A fixed-length bitset backed by `u64` blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    blocks: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An all-zero bitset of `len` bits.
    pub fn new(len: usize) -> Self {
        BitSet {
            blocks: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of addressable bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the bitset addresses zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.blocks[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn none(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Returns `true` if every bit in `0..len` is set.
    pub fn all(&self) -> bool {
        self.count() == self.len
    }

    /// `self |= other`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Number of bits set in `self & !other` — how many of `self`'s bits
    /// are *not* already in `other`. The greedy-cover marginal gain.
    pub fn count_and_not(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.len, other.len);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Returns `true` if every set bit of `self` is also set in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset length mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut bits = block;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(bi * 64 + tz)
                }
            })
        })
    }

    /// Builds a bitset from set-bit indices.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut bs = BitSet::new(len);
        for &i in indices {
            bs.set(i);
        }
        bs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bs = BitSet::new(130);
        assert_eq!(bs.len(), 130);
        assert!(bs.none());
        bs.set(0);
        bs.set(64);
        bs.set(129);
        assert!(bs.get(0) && bs.get(64) && bs.get(129));
        assert!(!bs.get(1) && !bs.get(65));
        assert_eq!(bs.count(), 3);
        bs.clear(64);
        assert!(!bs.get(64));
        assert_eq!(bs.count(), 2);
    }

    #[test]
    fn union_with_sets_both() {
        let mut a = BitSet::from_indices(100, &[1, 50, 99]);
        let b = BitSet::from_indices(100, &[50, 51]);
        a.union_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1, 50, 51, 99]);
    }

    #[test]
    fn count_and_not_is_marginal_gain() {
        let covered = BitSet::from_indices(64, &[0, 1, 2]);
        let candidate = BitSet::from_indices(64, &[2, 3, 4]);
        assert_eq!(candidate.count_and_not(&covered), 2, "bits 3 and 4 are new");
        assert_eq!(covered.count_and_not(&candidate), 2);
        assert_eq!(candidate.count_and_not(&candidate), 0);
    }

    #[test]
    fn subset_relation() {
        let small = BitSet::from_indices(70, &[3, 66]);
        let big = BitSet::from_indices(70, &[3, 10, 66]);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(small.is_subset(&small));
        assert!(
            BitSet::new(70).is_subset(&small),
            "empty set is a subset of everything"
        );
    }

    #[test]
    fn all_and_none() {
        let mut bs = BitSet::new(3);
        assert!(bs.none());
        assert!(!bs.all());
        bs.set(0);
        bs.set(1);
        bs.set(2);
        assert!(bs.all());
        // A 0-length bitset is vacuously all-set and none-set.
        let empty = BitSet::new(0);
        assert!(empty.all());
        assert!(empty.none());
        assert!(empty.is_empty());
    }

    #[test]
    fn iter_ones_order() {
        let bs = BitSet::from_indices(200, &[199, 0, 63, 64, 127, 128]);
        assert_eq!(
            bs.iter_ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 127, 128, 199]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_set_panics() {
        BitSet::new(10).set(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_union_panics() {
        let mut a = BitSet::new(10);
        a.union_with(&BitSet::new(11));
    }
}
