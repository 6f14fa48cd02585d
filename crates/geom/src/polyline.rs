//! Polyline and tour lengths.
//!
//! The mobile collector's trajectory is a closed polyline through the sink
//! and the polling points; its length is the tour length every plan reports.

use crate::point::Point;

/// Total length of the open path `p₀ → p₁ → … → pₖ`.
pub fn open_path_length(path: &[Point]) -> f64 {
    path.windows(2).map(|w| w[0].dist(w[1])).sum()
}

/// Total length of the closed tour `p₀ → p₁ → … → pₖ → p₀`.
/// A tour of fewer than two points has length 0.
pub fn closed_tour_length(tour: &[Point]) -> f64 {
    if tour.len() < 2 {
        return 0.0;
    }
    open_path_length(tour) + tour[tour.len() - 1].dist(tour[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn l_path() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 4.0),
        ]
    }

    #[test]
    fn open_and_closed_lengths() {
        let p = l_path();
        assert!(approx_eq(open_path_length(&p), 7.0));
        assert!(approx_eq(closed_tour_length(&p), 12.0), "7 + hypotenuse 5");
        assert!(approx_eq(closed_tour_length(&[Point::ORIGIN]), 0.0));
        assert!(approx_eq(open_path_length(&[]), 0.0));
    }

    #[test]
    fn two_point_closed_tour_is_out_and_back() {
        let tour = [Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        assert!(approx_eq(closed_tour_length(&tour), 10.0));
    }
}
