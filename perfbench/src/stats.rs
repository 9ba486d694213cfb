//! Exact order statistics over raw samples.

/// The nearest-rank `p`-quantile of `sorted`, and how many samples lie
/// above it. `None` for no samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// The median, averaging the middle pair; 0 for no values.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some((50, 50)));
        assert_eq!(percentile(&v, 0.99), Some((99, 1)));
        assert_eq!(percentile(&[7], 0.99), Some((7, 0)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
