//! Order statistics the way the benchmark reports them.

/// Samples that must lie beyond a reported percentile: with fewer, the
/// percentile is one or two outliers, not a property of the run.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending-sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[rank]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Distance between the first and the third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(n=4)`
/// (the rule the benchmark driver judges spread by).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles of fewer than two values");
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quartile(2)
}

/// The highest quantile `<= want` that still has [`MIN_BEYOND`] samples
/// above it in a sample of `n` (never below the median).
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let cap = 1.0 - MIN_BEYOND as f64 / n as f64;
    want.min(cap).max(0.5)
}

/// `want`-quantile of `sorted`, lowered to what the sample supports;
/// returns `(value, quantile actually used)`.
pub fn percentile_supported(sorted: &[f64], want: f64) -> (f64, f64) {
    let q = supported_quantile(sorted.len(), want);
    (quantile_sorted(sorted, q), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        // 4000 samples carry p99 (40 beyond); 600 carry p95 (30) but
        // only p98.3 toward p99; 360 carry p95 (18) and p97.2.
        assert_eq!(supported_quantile(4000, 0.99), 0.99);
        assert_eq!(supported_quantile(600, 0.95), 0.95);
        assert!((supported_quantile(600, 0.99) - (1.0 - 10.0 / 600.0)).abs() < 1e-12);
        assert!((supported_quantile(360, 0.99) - (1.0 - 10.0 / 360.0)).abs() < 1e-12);
        // Twelve samples support nothing above the median.
        assert_eq!(supported_quantile(12, 0.95), 0.5);
        assert_eq!(supported_quantile(0, 0.95), 0.5);
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (v, q) = percentile_supported(&sorted, 0.99);
        assert_eq!(q, 0.99);
        assert!(sorted.iter().filter(|&&x| x > v).count() >= MIN_BEYOND);
        let (v, q) = percentile_supported(&sorted[..100], 0.99);
        assert!((q - 0.9).abs() < 1e-12);
        assert!(sorted[..100].iter().filter(|&&x| x > v).count() >= MIN_BEYOND);
    }

    #[test]
    fn iqr_share_follows_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert!((iqr_share(&[5.0, 1.0, 4.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 10, 10, 12], n=4) == [10.0, 10.0, 11.5]
        assert!((iqr_share(&[10.0, 10.0, 10.0, 12.0]) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), 1.0);
    }
}
