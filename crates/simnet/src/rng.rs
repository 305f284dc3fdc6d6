//! Deterministic randomness for simulations.
//!
//! Every run of the simulator is seeded explicitly, so identical seeds give
//! identical event sequences. [`SimRng`] wraps a self-contained xoshiro256++
//! generator (no external dependencies, so streams are stable across
//! toolchains and environments) and adds the sampling helpers the rest of
//! the workspace needs (uniform ranges, exponential jitter, normal variates
//! via Box–Muller).

use crate::time::SimDuration;

/// Advances a SplitMix64 state and returns the next output.
///
/// Used for seed expansion: it diffuses low-entropy seeds (0, 1, 2, …)
/// into well-distributed xoshiro state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One-shot SplitMix64 finalizer: a bijective `u64 -> u64` mixing function.
///
/// Shared by seed expansion, the event queue's tie-break perturbation (the
/// bijectivity guarantees scrambled tie-break keys stay unique) and the
/// perturbation-key derivation in [`crate::determinism`].
pub(crate) fn mix64(x: u64) -> u64 {
    let mut state = x;
    splitmix64(&mut state)
}

/// Deterministic pseudo-random source used throughout a simulation run.
///
/// The core generator is xoshiro256++ (Blackman & Vigna), seeded through
/// SplitMix64. It is fast, passes the usual statistical batteries, and —
/// because it is implemented in-repo — produces bit-identical streams on
/// every platform, which the bitwise-determinism contract of the parallel
/// experiment runner relies on.
///
/// # Examples
///
/// ```
/// use ape_simnet::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator, e.g. one per node, so that
    /// adding consumers does not perturb unrelated streams.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix the stream id through SplitMix64 so forks with nearby ids do
        // not produce correlated child seeds.
        let mut z = self.next_u64() ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        SimRng::seed_from(z ^ (z >> 31))
    }

    /// Next raw 64-bit value (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64: lo {lo} > hi {hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        // Multiply-shift maps the raw draw onto [0, span]; the bias for
        // simulation-scale spans (≪ 2^64) is immeasurably small.
        let range = span + 1;
        lo + ((self.next_u64() as u128 * range as u128) >> 64) as u64
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite(),
            "uniform_f64: bounds must be finite"
        );
        assert!(lo <= hi, "uniform_f64: lo {lo} > hi {hi}");
        if lo == hi {
            return lo;
        }
        let v = lo + self.unit() * (hi - lo);
        // Guard against rounding landing exactly on the open upper bound.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for long-tailed network jitter and Poisson inter-arrival gaps.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = 1.0 - self.unit(); // in (0, 1]
        -mean * u.ln()
    }

    /// Standard normal variate via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal variate with given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Exponential jitter duration with the given mean duration.
    pub fn jitter(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exponential(mean.as_secs_f64()))
    }

    /// Picks a uniformly random element of a slice.
    ///
    /// Returns `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let idx = self.uniform_u64(0, items.len() as u64 - 1) as usize;
            Some(&items[idx])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_streams() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_deterministic_but_distinct() {
        let mut root1 = SimRng::seed_from(7);
        let mut root2 = SimRng::seed_from(7);
        let mut f1 = root1.fork(1);
        let mut f2 = root2.fork(1);
        assert_eq!(f1.next_u64(), f2.next_u64());

        let mut root3 = SimRng::seed_from(7);
        let mut g1 = root3.fork(2);
        assert_ne!(f1.next_u64(), g1.next_u64());
    }

    #[test]
    fn unit_is_in_range() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            let v = r.uniform_u64(5, 9);
            assert!((5..=9).contains(&v));
            let f = r.uniform_f64(1.0, 2.0);
            assert!((1.0..2.0).contains(&f));
        }
        assert_eq!(r.uniform_u64(4, 4), 4);
        assert_eq!(r.uniform_f64(4.0, 4.0), 4.0);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::seed_from(11);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.2, "observed mean {observed}");
    }

    #[test]
    fn exponential_of_nonpositive_mean_is_zero() {
        let mut r = SimRng::seed_from(11);
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.exponential(-1.0), 0.0);
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::seed_from(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(17);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut r = SimRng::seed_from(19);
        let empty: [u8; 0] = [];
        assert_eq!(r.choose(&empty), None);
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    fn jitter_is_nonnegative() {
        let mut r = SimRng::seed_from(23);
        for _ in 0..100 {
            let j = r.jitter(SimDuration::from_millis(2));
            assert!(j >= SimDuration::ZERO);
        }
    }
}
