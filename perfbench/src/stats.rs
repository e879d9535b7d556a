//! Order statistics over per-execution samples.

/// Median; the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks, so the 50th percentile is the median.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside 0..=100");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest of the 90th, 95th and 99th percentiles that has at least
/// ten samples beyond it, if any does.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    [99, 95, 90]
        .into_iter()
        .find(|p| samples.len() * (100 - p) >= 10 * 100)
        .map(|p| (p as f64, percentile(samples, p as f64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert!((percentile(&[1.0, 2.0], 25.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs[..99]), None);
        assert_eq!(tail_percentile(&xs[..100]).map(|t| t.0), Some(90.0));
        assert_eq!(tail_percentile(&xs[..200]).map(|t| t.0), Some(95.0));
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many).map(|t| t.0), Some(99.0));
    }
}
