//! Order statistics over timing samples.
//!
//! Percentiles interpolate linearly between the two closest ranks (the
//! "linear" method of NumPy and of Python's `statistics.quantiles` with
//! `method="inclusive"`), so a median of an even-sized sample is the
//! mean of its two middle values.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `samples`, or `None` for an
/// empty sample. The input need not be sorted.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(percentile_sorted(&v, p))
}

/// [`percentile`] over an already sorted, non-empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The median of `samples`, or `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 99.0), Some(100.0));
        assert_eq!(percentile(&v, 100.0), Some(101.0));
        // 10 samples: rank of p90 is 8.1 → 9 + 0.1·(10 − 9).
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        let p90 = percentile(&w, 90.0).unwrap();
        assert!((p90 - 9.1).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn quartiles_match_python_inclusive_method() {
        // statistics.quantiles([1..9], n=4, method="inclusive")
        // == [3.0, 5.0, 7.0].
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(percentile(&v, 25.0), Some(3.0));
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 75.0), Some(7.0));
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 100.0), Some(9.0));
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.0), Some(1.0));
    }
}
