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
    shares.sort_by(|a, b| a.partial_cmp(b).expect("non-finite share"));
    gini_of_sorted(shares.iter().copied(), total)
}

/// The last step of [`gini_in_place`]: Eq. 1 over `n ≥ 2` shares in
/// ascending order whose total, summed in input order, is `total > 0`.
///
/// O(n) via the sorted-form identity
/// `Σ_x Σ_y |C_x − C_y| = 2 Σ_i (2i − n + 1) · C_(i)` for sorted `C`. Two
/// orders of equal shares give the same terms in the same places, so any
/// ascending order of the same values returns the same bits.
pub(crate) fn gini_of_sorted(sorted: impl ExactSizeIterator<Item = f64>, total: f64) -> f64 {
    let n = sorted.len();
    let pairwise: f64 = sorted
        .enumerate()
        .map(|(i, c)| (2.0 * i as f64 - n as f64 + 1.0) * c)
        .sum::<f64>()
        * 2.0;
    pairwise / (2.0 * n as f64 * total)
}

/// How many times their first-order float-error bounds the margins of
/// [`gini_estimate`] and [`sorted_gini_estimate`] are.
const ESTIMATE_MARGIN: f64 = 2.0;

/// A sort-free bracket on [`gini_in_place`]: for `n ≥ 2` shares in any
/// order and their input-order sum `total > 0`, returns `(estimate,
/// margin)` with `|estimate − gini_in_place(shares)| ≤ margin`.
///
/// The estimate is Eq. 1 as written, `Σ_{x<y} |C_x − C_y| / (n · total)`,
/// in `n(n − 1)/2` branch-free steps. Both it and the sorted form are
/// within `(n(n − 1)/2 + n + 4) · 2⁻⁵³` of the same real number, the
/// margin is twice that, and `DESIGN.md` §11 has the argument. A caller
/// that needs `gini_in_place(shares) > θ` can take `estimate > θ` when
/// `|estimate − θ| > margin`, and must compute the exact form otherwise.
pub(crate) fn gini_estimate(shares: &[f64], total: f64) -> (f64, f64) {
    let n = shares.len();
    // Four running sums, so the additions pipeline.
    let mut lanes = [0.0f64; 4];
    for (i, &x) in shares.iter().enumerate() {
        let mut rest = shares[i + 1..].chunks_exact(4);
        for ys in &mut rest {
            for (lane, &y) in lanes.iter_mut().zip(ys) {
                *lane += (x - y).abs();
            }
        }
        for (lane, &y) in lanes.iter_mut().zip(rest.remainder()) {
            *lane += (x - y).abs();
        }
    }
    let gaps: f64 = lanes.iter().sum();
    let pairs = n * (n - 1) / 2;
    let margin = ESTIMATE_MARGIN * (pairs + n + 4) as f64 * (f64::EPSILON / 2.0);
    (gaps / (n as f64 * total), margin)
}

/// [`gini_estimate`] for shares already in ascending order, in O(n): the
/// sorted form with its two sums in four interleaved lanes instead of one
/// chain, so its additions pipeline. For `n ≥ 2` shares with a positive
/// sum, `|estimate − gini_in_place(shares)| ≤ margin`; both are within
/// `(2n + 2) · 2⁻⁵³` of the same real number, and the margin is twice
/// their sum (`DESIGN.md` §11).
pub(crate) fn sorted_gini_estimate(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    // The weight `2i − n + 1` of each lane's share, stepped exactly.
    let mut weight = [0.0, 2.0, 4.0, 6.0].map(|w| w + 1.0 - n as f64);
    let (mut total, mut pairwise) = ([0.0f64; 4], [0.0f64; 4]);
    let mut chunks = sorted.chunks_exact(4);
    for cs in &mut chunks {
        for lane in 0..4 {
            total[lane] += cs[lane];
            pairwise[lane] += weight[lane] * cs[lane];
            weight[lane] += 8.0;
        }
    }
    for (lane, &c) in chunks.remainder().iter().enumerate() {
        total[lane] += c;
        pairwise[lane] += weight[lane] * c;
    }
    let (total, pairwise): (f64, f64) = (total.iter().sum(), pairwise.iter().sum());
    let margin = ESTIMATE_MARGIN * (4 * n + 4) as f64 * (f64::EPSILON / 2.0);
    (pairwise / (n as f64 * total), margin)
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
    fn estimates_bracket_the_sorted_form() {
        check("estimates_bracket_the_sorted_form", 256, |g| {
            // Shares over many decades, with ties and zeros.
            let shares = g.vec(2..40, |g| match g.range(0u8..4) {
                0 => 0.0,
                1 => 1.0,
                _ => 10f64.powf(g.f64(-6.0..12.0)),
            });
            let total: f64 = shares.iter().sum();
            if total <= 0.0 {
                return;
            }
            let mut sorted = shares.clone();
            let exact = gini_in_place(&mut sorted);
            for (estimate, margin) in [gini_estimate(&shares, total), sorted_gini_estimate(&sorted)]
            {
                assert!(
                    (estimate - exact).abs() <= margin,
                    "estimate {estimate} is {} from {exact}, margin {margin}",
                    (estimate - exact).abs()
                );
            }
        });
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
