//! Order statistics shared by every workload: medians, percentiles, the
//! "highest percentile the sample supports" picker, and the quartile
//! spread `--repeat` judges run-to-run noise with.

/// Percentiles the picker may report, highest first, in per mille (so
/// "ten samples beyond" is whole-number arithmetic).
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Linear-interpolated percentile `p` (0–100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Percentile `p` (0–100) of an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest ladder percentile with at least ten samples beyond it, or
/// `None` when the sample is too small to support any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| n * (1000 - p) >= MIN_BEYOND * 1000)
        .map(|p| p as f64 / 10.0)
}

/// A timing distribution as every report states it: the median, the
/// highest percentile the sample supports, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`; absent below 40 samples.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        p50: percentile_sorted(&s, 50.0),
        tail: tail_percentile(s.len()).map(|p| (p, percentile_sorted(&s, p))),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them — the acceptance rule is stated
/// in those terms, so `--repeat` must agree with it digit for digit.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let len = s.len() as i64;
    assert!(len >= 2, "quartiles need two samples");
    let cut = |i: i64| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = i * m - j * 4;
        (s[(j - 1) as usize] * (4 - delta) as f64 + s[j as usize] * delta as f64) / 4.0
    };
    (cut(1), cut(3))
}

/// Run-to-run spread as a share of the median: the inter-quartile
/// distance, or — below four samples, where the exclusive-method
/// quartiles lie outside the data — the whole range.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = if samples.len() >= 4 {
        quartiles(samples)
    } else {
        let s = sorted(samples);
        (s[0], s[s.len() - 1])
    };
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(64), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(400), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(39_000), Some(99.9));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let v: Vec<f64> = (1..=400).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 400);
        assert_eq!(s.p50, 200.5);
        let (p, value) = s.tail.unwrap();
        assert_eq!(p, 95.0);
        assert!((value - 380.05).abs() < 1e-9);
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).tail, None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0]), (1.0, 5.0));
        // statistics.quantiles([2, 10], n=4) == [0.0, 6.0, 12.0]
        assert_eq!(quartiles(&[2.0, 10.0]), (0.0, 12.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert!((spread(&[9.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
