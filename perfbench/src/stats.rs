//! Order statistics with the benchmark's sample-count rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it, so
//! a p99 needs at least 1,000 samples.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the counts that justify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked beyond the percentile.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} out of (0, 1]");
    let n = sorted.len();
    // The epsilon keeps ranks such as 0.99 * 1000 from rounding up to 991.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median of `xs` (mean of the middle pair for even counts); `NaN` when
/// empty. The median is always reported, whatever the sample count.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let p = percentile(&ramp(1000), 0.99).expect("1000 samples suffice");
        assert_eq!(p.value, 990.0);
        assert_eq!((p.samples, p.beyond), (1000, 10));
        assert!(percentile(&ramp(999), 0.99).is_none());
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let p = percentile(&ramp(20), 0.5).expect("20 samples suffice");
        assert_eq!((p.value, p.beyond), (10.0, 10));
        assert!(percentile(&ramp(19), 0.5).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
