//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a [`Summary`]: the median, the
//! highest standard percentile that still has at least ten samples beyond
//! it, and the sample count.

/// Percentiles tried, highest first, when choosing the reported tail.
const TAIL_PCTS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples needed beyond a percentile before it is reported.
const TAIL_SUPPORT: f64 = 10.0;

/// Median, upper quartile, tail percentile and count of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub upper_quartile: f64,
    /// Which percentile [`Summary::tail`] is (50 when the set is too small
    /// for any higher one to have ten samples beyond it).
    pub tail_pct: f64,
    pub tail: f64,
    pub n: usize,
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of sorted samples, linearly interpolated.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (0 for an empty set).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// Summarizes `xs`; an empty set summarizes to zeros.
pub fn summarize(xs: &[f64]) -> Summary {
    let s = sorted(xs);
    let n = s.len();
    let tail_pct = TAIL_PCTS
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 + 1e-9 >= TAIL_SUPPORT)
        .unwrap_or(50.0);
    Summary {
        median: quantile_sorted(&s, 0.5),
        upper_quartile: quantile_sorted(&s, 0.75),
        tail_pct,
        tail: quantile_sorted(&s, tail_pct / 100.0),
        n,
    }
}

/// Geometric mean of positive values (0 for an empty set).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail_pct, 50.0);
        let xs: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail_pct, 75.0);
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.tail_pct, s.n), (90.0, 100));
        assert!((s.tail - 89.1).abs() < 1e-9);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail_pct, 99.0);
    }

    #[test]
    fn geomean_and_ratio() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
