//! Gini-coefficient fairness index (the paper's Eq. 1).
//!
//! PACM bounds the inequality of per-app *storage efficiency*
//! `C_a = Σ_{A_d = a} s_d / R(a)` with the Gini coefficient
//! `F(A) = Σ_x Σ_y |C_x − C_y| / (2·A·Σ_x C_x) ≤ θ`.

/// Computes the Gini coefficient of a set of non-negative shares.
///
/// Returns 0.0 for empty input, single elements, or an all-zero vector
/// (perfect equality by convention).
///
/// # Examples
///
/// ```
/// use ape_cachealg::gini;
///
/// assert_eq!(gini(&[5.0, 5.0, 5.0]), 0.0);          // perfect equality
/// assert!(gini(&[0.0, 0.0, 12.0]) > 0.6);           // strong inequality
/// ```
pub fn gini(shares: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = shares.to_vec();
    gini_in_place(&mut sorted)
}

/// [`gini`] without the defensive copy: sorts `shares` in place.
///
/// The allocation-free form used on PACM's eviction hot path, where the
/// caller owns a reusable scratch buffer. The total is summed over the
/// *input* order before sorting, so the result is bit-identical to
/// [`gini`] on the same values.
pub fn gini_in_place(shares: &mut [f64]) -> f64 {
    let n = shares.len();
    if n <= 1 {
        return 0.0;
    }
    let total: f64 = shares.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    // O(n log n) via the sorted-form identity:
    // Σ_x Σ_y |C_x − C_y| = 2 Σ_i (2i − n + 1) · C_(i)  for sorted C.
    shares.sort_by(|a, b| a.partial_cmp(b).expect("non-finite share"));
    let pairwise: f64 = shares
        .iter()
        .enumerate()
        .map(|(i, c)| (2.0 * i as f64 - n as f64 + 1.0) * c)
        .sum::<f64>()
        * 2.0;
    pairwise / (2.0 * n as f64 * total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_check::check;

    /// The Gini coefficient the quadratic way, exactly the paper's Eq. 1:
    /// the oracle the sorted form is held to.
    fn gini_naive(shares: &[f64]) -> f64 {
        let n = shares.len();
        if n <= 1 {
            return 0.0;
        }
        let total: f64 = shares.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let mut pairwise = 0.0;
        for x in shares {
            for y in shares {
                pairwise += (x - y).abs();
            }
        }
        pairwise / (2.0 * n as f64 * total)
    }

    #[test]
    fn gini_is_in_unit_interval_and_matches_naive() {
        check("gini_is_in_unit_interval_and_matches_naive", 256, |g| {
            let shares = g.vec(0..12, |g| g.f64(0.0..1000.0));
            let gi = gini(&shares);
            assert!((0.0..=1.0).contains(&gi), "g = {gi}");
            assert!((gi - gini_naive(&shares)).abs() < 1e-9);
        });
    }

    #[test]
    fn equality_is_zero() {
        assert_eq!(gini(&[3.0, 3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn empty_and_singleton_are_zero() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[7.0]), 0.0);
    }

    #[test]
    fn all_zero_is_zero() {
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn maximum_concentration_approaches_bound() {
        // One app holds everything: G = (n-1)/n.
        let g = gini(&[0.0, 0.0, 0.0, 10.0]);
        assert!((g - 0.75).abs() < 1e-9, "g={g}");
    }

    #[test]
    fn matches_naive_formula() {
        let cases: &[&[f64]] = &[
            &[1.0, 2.0, 3.0],
            &[0.5, 0.5, 9.0, 2.0],
            &[10.0, 0.0, 5.0, 5.0, 1.0],
            &[2.0, 2.0],
        ];
        for c in cases {
            assert!((gini(c) - gini_naive(c)).abs() < 1e-12, "mismatch on {c:?}");
        }
    }

    #[test]
    fn within_unit_interval() {
        let g = gini(&[1.0, 4.0, 0.0, 2.5, 7.0]);
        assert!((0.0..=1.0).contains(&g));
    }

    #[test]
    fn scale_invariant() {
        let a = gini(&[1.0, 2.0, 3.0]);
        let b = gini(&[100.0, 200.0, 300.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn in_place_matches_copying_form_bitwise() {
        let cases: &[&[f64]] = &[
            &[],
            &[7.0],
            &[0.0, 0.0],
            &[1.0, 2.0, 3.0],
            &[10.0, 0.0, 5.0, 5.0, 1.0],
            &[0.5, 0.5, 9.0, 2.0],
        ];
        for c in cases {
            let mut buf = c.to_vec();
            assert_eq!(
                gini(c).to_bits(),
                gini_in_place(&mut buf).to_bits(),
                "mismatch on {c:?}"
            );
        }
    }
}
