//! Distribution summaries for per-node measurements.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    /// Population standard deviation (÷ n, not n−1): the evaluation treats
    /// the node set as the full population, not a sample.
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Computes the summary of `xs`. An empty slice yields all-zero stats.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n: xs.len(),
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Coefficient of variation (`std_dev / mean`), 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Jain's fairness index `(Σx)² / (n · Σx²)`.
///
/// Ranges from `1/n` (one node carries everything) to `1` (perfectly
/// uniform). By convention an empty or all-zero sample scores `1` (nothing
/// is unfair about zero load).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.cv() - s.std_dev / 2.5).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_and_constant() {
        let e = Summary::of(&[]);
        assert_eq!(e.n, 0);
        assert_eq!(e.mean, 0.0);
        let c = Summary::of(&[7.0; 5]);
        assert_eq!(c.std_dev, 0.0);
        assert_eq!(c.cv(), 0.0);
        assert_eq!(c.min, 7.0);
        assert_eq!(c.max, 7.0);
    }

    #[test]
    fn jain_bounds() {
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One node carries all: index = 1/n.
        assert!((jain_index(&[9.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        // Monotone: more skew, lower index.
        assert!(jain_index(&[4.0, 6.0]) > jain_index(&[1.0, 9.0]));
    }
}
