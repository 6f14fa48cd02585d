//! The closed-tour representation.

use crate::cost::CostMatrix;

/// A closed tour: a permutation of `0..n` visited in order, returning from
/// the last city to the first.
///
/// Tours are usually kept in *canonical form* — depot (city `0`) first, and
/// oriented so that the second city has the smaller id of the two depot
/// neighbors — so that structurally identical tours compare equal. See
/// [`Tour::normalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tour {
    order: Vec<usize>,
}

impl Tour {
    /// Creates a tour from a visiting order.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn new(order: Vec<usize>) -> Self {
        let mut seen = vec![false; order.len()];
        for &c in &order {
            assert!(c < order.len(), "city {c} out of range");
            assert!(!seen[c], "city {c} repeated");
            seen[c] = true;
        }
        Tour { order }
    }

    /// The identity tour `0, 1, …, n−1`.
    pub fn identity(n: usize) -> Self {
        Tour {
            order: (0..n).collect(),
        }
    }

    /// Creates a tour without validating (internal fast path).
    pub(crate) fn from_order_unchecked(order: Vec<usize>) -> Self {
        debug_assert!({
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.iter().copied().eq(0..order.len())
        });
        Tour { order }
    }

    /// Number of cities.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` for a zero-city tour.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The visiting order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Consumes the tour, returning the order.
    pub fn into_order(self) -> Vec<usize> {
        self.order
    }

    /// Total closed-tour length under `cost`.
    pub fn length<C: CostMatrix>(&self, cost: &C) -> f64 {
        let n = self.order.len();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        for i in 0..n {
            total += cost.cost(self.order[i], self.order[(i + 1) % n]);
        }
        total
    }

    /// Rotates and possibly reverses the order into canonical form: city
    /// `0` first, and the successor of `0` is the smaller-id of `0`'s two
    /// tour neighbors. Closed-tour length is invariant under both
    /// operations.
    pub fn normalize(&mut self) {
        let n = self.order.len();
        if n == 0 {
            return;
        }
        let pos = self
            .order
            .iter()
            .position(|&c| c == 0)
            .expect("city 0 present");
        self.order.rotate_left(pos);
        if n >= 3 && self.order[1] > self.order[n - 1] {
            self.order[1..].reverse();
        }
    }

    /// Returns the canonical form of this tour.
    pub fn normalized(mut self) -> Self {
        self.normalize();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EuclideanCost;
    use mdg_geom::Point;

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ]
    }

    #[test]
    fn length_of_square_tours() {
        let pts = square();
        let cost = EuclideanCost::new(&pts);
        assert!((Tour::new(vec![0, 1, 2, 3]).length(&cost) - 4.0).abs() < 1e-12);
        // Crossing diagonals is longer.
        let crossing = Tour::new(vec![0, 2, 1, 3]).length(&cost);
        assert!(crossing > 4.0);
    }

    #[test]
    fn degenerate_lengths() {
        let pts = square();
        let cost = EuclideanCost::new(&pts);
        assert_eq!(Tour::new(vec![]).length(&cost), 0.0);
        assert_eq!(Tour::new(vec![0]).length(&cost), 0.0);
        // Two cities: out and back.
        let pts2 = vec![Point::new(0.0, 0.0), Point::new(3.0, 0.0)];
        let cost2 = EuclideanCost::new(&pts2);
        assert!((Tour::new(vec![0, 1]).length(&cost2) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_rotation_and_orientation() {
        let mut t = Tour::new(vec![2, 3, 0, 1]);
        t.normalize();
        assert_eq!(t.order(), &[0, 1, 2, 3]);
        // Reverse orientation normalizes to the same canonical order.
        let r = Tour::new(vec![0, 3, 2, 1]).normalized();
        assert_eq!(r.order(), &[0, 1, 2, 3]);
    }

    #[test]
    fn normalize_preserves_length() {
        let pts = square();
        let cost = EuclideanCost::new(&pts);
        let t = Tour::new(vec![2, 0, 3, 1]);
        let len = t.length(&cost);
        let n = t.normalized();
        assert!((n.length(&cost) - len).abs() < 1e-12);
        assert_eq!(n.order()[0], 0);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn repeated_city_panics() {
        Tour::new(vec![0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_city_panics() {
        Tour::new(vec![0, 5]);
    }
}
