//! Deterministic randomness for simulations.
//!
//! Every run of the simulator is seeded explicitly, so identical seeds give
//! identical event sequences. [`SimRng`] wraps a self-contained xoshiro256++
//! generator (no external dependencies, so streams are stable across
//! toolchains and environments) and adds the sampling helpers the rest of
//! the workspace needs (uniform ranges, exponential jitter, normal variates
//! via Box–Muller).

/// SplitMix64's increment: its state after `i` steps from `s` is
/// `s + i·GAMMA`, wrapping.
const GAMMA: u64 = 0x9E3779B97F4A7C15;

/// SplitMix64's output function of an advanced state.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Advances a SplitMix64 state and returns the next output.
///
/// Used for seed expansion: it diffuses low-entropy seeds (0, 1, 2, …)
/// into well-distributed xoshiro state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    finalize(*state)
}

/// xoshiro256++'s output for state words `s0` and `s3`, the only two it
/// reads.
#[inline]
fn plusplus(s0: u64, s3: u64) -> u64 {
    s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0)
}

/// A uniform float in `[0, 1)` from the top 53 bits of a raw draw.
#[inline]
fn unit_of(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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

    /// Next raw 64-bit value (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = plusplus(s[0], s[3]);
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
        unit_of(self.next_u64())
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
    /// Used for Poisson inter-arrival gaps; a send draws its long-tailed
    /// jitter the same way through `SendDraws`.
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

/// The run seed, mixed once: every keyed stream of a run derives from it.
///
/// A keyed stream is `SimRng::seed_from(mix64(seed) ^ key)`, so `(seed,
/// key)` alone decides it: no draw made elsewhere in the run, nor the
/// order in which other streams are drawn, can move it. Keys of one run
/// must differ, and seed expansion mixes them, so keys that differ in a
/// few low bits (consecutive ids, consecutive sends) still give unrelated
/// streams. The world mixes its seed here once, so a stream costs only
/// its own seed expansion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamSeed(u64);

impl StreamSeed {
    /// Mixes the run seed `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        StreamSeed(mix64(seed))
    }

    /// The generator of the stream named `key` (a node's own stream).
    pub(crate) fn rng(self, key: u64) -> SimRng {
        SimRng::seed_from(self.0 ^ key)
    }

    /// The draws of the stream named `key` (one send's), made lazily.
    #[inline]
    pub(crate) fn send_draws(self, key: u64) -> SendDraws {
        SendDraws {
            seed: self.0 ^ key,
            drawn: 0,
            rng: SimRng { state: [0; 4] },
        }
    }
}

/// The draws of one send: the stream [`StreamSeed::rng`] would give for
/// the same key, draw for draw, without building it up front.
///
/// A send draws once (jitter) on a lossless link outside any fault burst,
/// and xoshiro256++'s first output reads only state words s0 and s3, so
/// the first draw takes two SplitMix64 rounds instead of the four a full
/// seed expansion costs. A second draw (link loss, a loss burst) adds the
/// other two words and steps the generator past the first output.
#[derive(Debug)]
pub(crate) struct SendDraws {
    seed: u64,
    drawn: u8,
    /// Words s0 and s3 after the first draw; the whole generator, stepped
    /// past every draw made, from the second on.
    rng: SimRng,
}

impl SendDraws {
    /// Next raw 64-bit value of the stream.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        if self.drawn > 0 {
            return self.next_after_first();
        }
        self.drawn = 1;
        // SplitMix64's first and fourth outputs are s0 and s3.
        let s0 = finalize(self.seed.wrapping_add(GAMMA));
        let s3 = finalize(self.seed.wrapping_add(GAMMA.wrapping_mul(4)));
        self.rng.state[0] = s0;
        self.rng.state[3] = s3;
        plusplus(s0, s3)
    }

    /// Every draw after the first, out of line: a lossless send makes none.
    #[inline(never)]
    fn next_after_first(&mut self) -> u64 {
        if self.drawn == 1 {
            self.drawn = 2;
            self.rng.state[1] = finalize(self.seed.wrapping_add(GAMMA.wrapping_mul(2)));
            self.rng.state[2] = finalize(self.seed.wrapping_add(GAMMA.wrapping_mul(3)));
            self.rng.next_u64();
        }
        self.rng.next_u64()
    }

    /// Bernoulli trial with probability `p`, as [`SimRng::chance`].
    #[inline]
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        unit_of(self.next_u64()) < p.clamp(0.0, 1.0)
    }

    /// Exponential value with mean `mean` (seconds), as
    /// [`SimRng::exponential`]: a mean of zero draws nothing.
    #[inline]
    pub(crate) fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = 1.0 - unit_of(self.next_u64());
        -mean * u.ln()
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
    fn keyed_streams_depend_on_seed_and_key_only() {
        let first = |seed, key| StreamSeed::new(seed).rng(key).next_u64();
        assert_eq!(first(7, 1), first(7, 1));
        assert_ne!(first(7, 1), first(7, 2));
        assert_ne!(first(7, 1), first(8, 1));
    }

    /// Differential: a send's lazy draws against the keyed generator they
    /// replace, `SimRng::seed_from(mix64(seed) ^ key)`, over many keys,
    /// including the keys a send makes (mixed pair ^ small send number).
    #[test]
    fn send_draws_are_the_keyed_stream() {
        let mut keys = SimRng::seed_from(29);
        for i in 0..4_096u64 {
            let seed = if i % 2 == 0 { i } else { keys.next_u64() };
            let key = match i % 3 {
                0 => i,
                1 => mix64(i << 32 | (i + 1)) ^ (i % 17),
                _ => keys.next_u64(),
            };
            let mut keyed = SimRng::seed_from(mix64(seed) ^ key);
            let mut lazy = StreamSeed::new(seed).send_draws(key);
            for draw in 0..4 {
                assert_eq!(
                    lazy.next_u64(),
                    keyed.next_u64(),
                    "seed {seed:#x} key {key:#x} draw {draw}"
                );
            }
        }
    }

    #[test]
    fn send_draw_helpers_match_the_generator() {
        for key in 0..256 {
            let stream = StreamSeed::new(42);
            let (mut lazy, mut keyed) = (stream.send_draws(key), stream.rng(key));
            assert_eq!(lazy.exponential(0.0), 0.0, "a zero mean draws nothing");
            assert_eq!(lazy.chance(0.3), keyed.chance(0.3));
            assert_eq!(
                lazy.exponential(2e-4).to_bits(),
                keyed.exponential(2e-4).to_bits()
            );
        }
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
}
