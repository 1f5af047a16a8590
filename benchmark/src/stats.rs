//! Exact order statistics over raw samples.
//!
//! The serving stack's own `LatencyHistogram` is log-linear (≤12.5%
//! bucket error), which is wider than the regression bounds this
//! benchmark gates on — so every gated timing is computed here, by sort,
//! from the raw per-token nanoseconds the driver recorded.

/// Fewest samples that must lie *beyond* a percentile before it is
/// reported: below that the tail is a handful of outliers, not a
/// distribution.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1]` of an ascending slice, or `None`
/// when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} out of (0, 1]");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unordered values (mean of the two middle ones for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the rule the acceptance driver applies — or `None`
/// for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median: the run-to-run spread
/// a regression bound has to clear.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.9), Some(90));
        // p99 of 100 samples leaves one sample beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v, 0.999), None);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 1.0), None);
        // Exactly ten beyond the median of 20.
        let v: Vec<u64> = (0..20).collect();
        assert_eq!(percentile(&v, 0.5), Some(9));
        assert_eq!(percentile(&v[..19], 0.5), None);
        // Ties are values like any other.
        let v = [5u64; 40];
        assert_eq!(percentile(&v, 0.5), Some(5));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
