//! Cumulative distribution functions over measured samples.
//!
//! Every figure in the paper's evaluation is either a CDF (state over
//! nodes, stretch over source–destination pairs, congestion over edges) or
//! a mean-vs-parameter curve; this module provides the shared machinery.

/// An empirical CDF over a set of samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from raw samples (NaNs are rejected).
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "CDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Cdf { sorted: samples }
    }

    /// Build from integer samples.
    pub fn from_counts(samples: impl IntoIterator<Item = usize>) -> Self {
        Cdf::new(samples.into_iter().map(|x| x as f64).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// The `p`-quantile (0 ≤ p ≤ 1) using nearest-rank interpolation.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p));
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = ((self.sorted.len() - 1) as f64 * p).round() as usize;
        self.sorted[idx]
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// `points` equally-spaced (in probability) points of the CDF as
    /// `(value, cumulative fraction)` pairs — the series a figure plots.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let p = i as f64 / points as f64;
                (self.percentile(p), p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let c = Cdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 4.0);
        assert!((c.mean() - 2.5).abs() < 1e-12);
        assert!((c.median() - 2.0).abs() < 1e-12 || (c.median() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_and_fractions() {
        let c = Cdf::from_counts(1..=100usize);
        assert!((c.percentile(0.95) - 95.0).abs() <= 1.0);
        assert!((c.fraction_at_most(50.0) - 0.5).abs() < 0.02);
        assert_eq!(c.fraction_at_most(0.0), 0.0);
        assert_eq!(c.fraction_at_most(1000.0), 1.0);
    }

    #[test]
    fn series_is_monotone() {
        let c = Cdf::new(vec![5.0, 1.0, 9.0, 3.0, 7.0]);
        let s = c.series(10);
        assert_eq!(s.len(), 10);
        for w in s.windows(2) {
            assert!(w[0].0 <= w[1].0 + 1e-12);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((s.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cdf_is_harmless() {
        let c = Cdf::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.mean(), 0.0);
        assert_eq!(c.percentile(0.9), 0.0);
        assert!(c.series(5).is_empty());
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let _ = Cdf::new(vec![1.0, f64::NAN]);
    }
}
