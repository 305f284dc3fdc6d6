//! Order statistics over small sample sets.

/// Sorted copy of `values` (total order; the benchmark never records NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle sample, or the mean of the two middle samples.
///
/// # Panics
///
/// Panics on an empty slice — every caller records at least one sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the two
/// nearest order statistics (numpy's default, "type 7").
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let v = sorted(values);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was counted in the denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_ignores_input_order_and_outliers() {
        assert_eq!(median(&[1000.0, 2.0, 1.0, 3.0, 2.5]), 2.5);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert!((quantile(&v, 0.9) - 46.0).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quantile_agrees_with_median() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), median(&v));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_out_of_range_q() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
