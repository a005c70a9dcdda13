//! Order statistics over raw samples. Every timing the benchmark reports is
//! computed here from per-call samples, never from histogram buckets.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly between
/// the two closest ranks. `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples`, or 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The `q`-quantile of each full window of `window` consecutive samples,
/// in order; a trailing partial window is dropped.
pub fn window_quantiles(samples: &[f64], window: usize, q: f64) -> Vec<f64> {
    samples
        .chunks_exact(window)
        .filter_map(|w| quantile(w, q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&samples, 1.0), Some(4.0));
        assert_eq!(median(&samples), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn window_quantiles_drop_the_partial_tail() {
        let samples: Vec<f64> = (0..25).map(f64::from).collect();
        assert_eq!(window_quantiles(&samples, 10, 1.0), vec![9.0, 19.0]);
    }
}
