//! Order statistics used by the metrics and by `compare`.

/// The `p`-th percentile (`p <= 100`) by rank: the `⌊p·n/100⌋ + 1`-th
/// smallest sample, i.e. the smallest sample with more than `p`% of the
/// samples at or below it. This is the nearest-rank method except when
/// `p·n/100` is whole, where it takes the upper of the two candidate
/// ranks. Job latencies come in equal-sized groups (one sample per job
/// per pass), so at p50 the lower rank is the slowest sample of the
/// faster half, an outlier; the upper rank is the fastest of the slower
/// half. `None` on an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: usize) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() / 100 + 1).min(sorted.len());
    sorted.get(rank.checked_sub(1)?).copied()
}

/// The median, averaging the two middle samples of an even count.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quartiles(samples).map(|(_, m, _)| m)
}

/// First quartile, median and third quartile, with the exclusive
/// interpolation Python's `statistics.quantiles(values, n=4)` uses on
/// three or more samples, so spreads read the same here as in a
/// notebook. Fewer samples are clamped to their range, not extrapolated.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        1 => Some((sorted[0], sorted[0], sorted[0])),
        _ => {
            let at = |q: f64| {
                // Position q·(n+1), 1-based, clamped to the sample range.
                let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
                let lo = pos.floor() as usize;
                let frac = pos - lo as f64;
                let a = sorted[lo - 1];
                let b = sorted[lo.min(n - 1)];
                a + (b - a) * frac
            };
            let mid = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            };
            Some((at(0.25), mid, at(0.75)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_by_rank() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(6.0));
        assert_eq!(percentile(&xs, 55), Some(6.0));
        assert_eq!(percentile(&xs, 90), Some(10.0));
        assert_eq!(percentile(&xs, 100), Some(10.0));
        assert_eq!(percentile(&xs, 1), Some(1.0));
        assert_eq!(percentile(&[3.5], 90), Some(3.5));
        assert_eq!(percentile(&[], 50), None);
        // Two equal groups: p50 is the fastest of the slower group.
        let groups = [1.0, 1.1, 9.0, 1.2, 5.0, 5.1, 5.2, 1.3];
        assert_eq!(percentile(&groups, 50), Some(5.0));
        // 101 samples: p90 has ten samples beyond it.
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), Some(91.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
