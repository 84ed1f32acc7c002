//! Order statistics over timing samples.

/// The median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) and the number of
/// samples strictly beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    Some((s[rank - 1], s.len() - rank))
}

/// Percentiles the tail report climbs, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] with at least `min_beyond`
/// samples beyond it, as `(p, value)`; `None` when even the median lacks
/// that many.
pub fn tail(samples: &[f64], min_beyond: usize) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find_map(|&p| match percentile(samples, p) {
            Some((v, beyond)) if beyond >= min_beyond => Some((p, v)),
            _ => None,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median's rank is 10, leaving only 9 beyond it.
        assert_eq!(tail(&ramp(19), 10), None);
        assert_eq!(tail(&ramp(20), 10), Some((50.0, 10.0)));
        // 100 samples: p90 is the 90th value with exactly 10 beyond;
        // p95 would leave 5.
        assert_eq!(tail(&ramp(100), 10), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(199), 10), Some((90.0, 180.0)));
        assert_eq!(tail(&ramp(200), 10), Some((95.0, 190.0)));
        assert_eq!(tail(&ramp(1000), 10), Some((99.0, 990.0)));
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut shuffled = ramp(100);
        shuffled.reverse();
        shuffled.swap(3, 71);
        assert_eq!(tail(&shuffled, 10), tail(&ramp(100), 10));
    }
}
