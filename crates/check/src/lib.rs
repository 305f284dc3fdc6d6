//! # ape-check: the workspace's property-test kit
//!
//! [`check`] runs a property over a fixed number of cases. Each case draws
//! its inputs from a [`Gen`], xoshiro256++ seeded through SplitMix64, whose
//! seed is FNV-1a of the test name mixed with the case index. The cases are
//! therefore the same on every run, and a failure reproduces by rerunning
//! its test. A failing case is reported, not shrunk: the panic names the
//! test, the case index and the seed, after the case's own message.
//!
//! ```
//! use ape_check::check;
//!
//! check("addition_commutes", 64, |g| {
//!     let (a, b) = (g.range(0u32..1_000), g.range(0u32..1_000));
//!     let digits = g.vec(1..4, |g| g.string("0123456789", 1..=3));
//!     assert_eq!(a + b, b + a);
//!     assert!((1..4).contains(&digits.len()));
//! });
//! ```

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Printable ASCII, space through `~`.
pub const PRINTABLE: &str = " !\"#$%&'()*+,-./0123456789:;<=>?@\
    ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

/// Runs `property` on `cases` cases, each with its own seeded [`Gen`].
///
/// # Panics
///
/// Panics if a case panics, naming the test, the case index and the seed.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Gen)) {
    for case in 0..u64::from(cases) {
        let seed = case_seed(name, case);
        let mut g = Gen::from_seed(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(panic payload is not text)");
            panic!("property '{name}' failed at case {case} (seed {seed:#x}): {message}");
        }
    }
}

/// FNV-1a of `name`, mixed with the case index.
fn case_seed(name: &str, case: u64) -> u64 {
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    base ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// One case's source of inputs.
#[derive(Debug)]
pub struct Gen {
    state: [u64; 4],
}

impl Gen {
    fn from_seed(seed: u64) -> Gen {
        let mut sm = seed;
        let mut splitmix64 = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Gen {
            state: [splitmix64(), splitmix64(), splitmix64(), splitmix64()],
        }
    }

    /// Any `u64`; narrow it with `as` for any smaller integer.
    pub fn u64(&mut self) -> u64 {
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

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Uniform in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no value to draw");
        ((u128::from(self.u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in the half-open integer range `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is empty or holds a value no `u64` can hold.
    pub fn range<T: Copy + TryFrom<u64> + TryInto<u64>>(&mut self, r: Range<T>) -> T {
        let widen = |v: T| v.try_into().ok().expect("range bound fits in u64");
        let (lo, hi) = (widen(r.start), widen(r.end));
        assert!(lo < hi, "empty range {lo}..{hi}");
        let v = lo + self.below(hi - lo);
        T::try_from(v)
            .ok()
            .expect("drawn value lies inside the range")
    }

    /// Uniform in the half-open float range `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is empty.
    pub fn f64(&mut self, r: Range<f64>) -> f64 {
        assert!(r.start < r.end, "empty range {r:?}");
        let unit = (self.u64() >> 11) as f64 / (1u64 << 53) as f64;
        let v = r.start + unit * (r.end - r.start);
        // Rounding can land on the excluded end; fold it onto the start.
        if v < r.end {
            v
        } else {
            r.start
        }
    }

    /// One of `items`, each equally likely.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize].clone()
    }

    /// A vector whose length is drawn from `len`, each element by `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// `Some(value)` three times in four, `None` otherwise.
    pub fn option<T>(&mut self, value: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        if self.below(4) > 0 {
            Some(value(self))
        } else {
            None
        }
    }

    /// A string of `len` characters (inclusive bounds), each drawn from
    /// `alphabet`.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet` is empty or `len` is empty.
    pub fn string(&mut self, alphabet: &str, len: RangeInclusive<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let n = self.range(*len.start()..*len.end() + 1);
        (0..n).map(|_| self.pick(&chars)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(name: &str) -> Vec<u64> {
        let mut out = Vec::new();
        check(name, 16, |g| out.push(g.u64()));
        out
    }

    #[test]
    fn deterministic_per_test_name() {
        assert_eq!(draws("a_property"), draws("a_property"));
        assert_ne!(draws("a_property"), draws("another_property"));
        let first = draws("a_property");
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), first.len(), "every case has its own seed");
    }

    #[test]
    fn a_failing_case_names_its_test_case_and_seed() {
        let mut ran = 0;
        let payload = catch_unwind(AssertUnwindSafe(|| {
            check("fails_at_three", 8, |_| {
                ran += 1;
                assert!(ran < 4, "ran {ran} cases");
            })
        }))
        .expect_err("case 3 panics");
        let message = payload.downcast_ref::<String>().expect("formatted panic");
        let seed = case_seed("fails_at_three", 3);
        assert_eq!(
            *message,
            format!("property 'fails_at_three' failed at case 3 (seed {seed:#x}): ran 4 cases")
        );
        assert_eq!(ran, 4, "no case runs after the failing one");
    }

    #[test]
    fn draws_stay_inside_their_bounds() {
        let (mut ints, mut lens, mut chars) = (Vec::new(), Vec::new(), Vec::new());
        check("draws_stay_inside_their_bounds", 512, |g| {
            let v = g.range(3u8..7);
            assert!((3..7).contains(&v));
            ints.push(v);
            let items = g.vec(1..5, |g| g.range(0usize..10));
            assert!((1..5).contains(&items.len()));
            assert!(items.iter().all(|&i| i < 10));
            lens.push(items.len());
            let text = g.string("ab-", 2..=4);
            assert!((2..=4).contains(&text.len()), "{text:?}");
            chars.extend(text.chars());
            let x = g.f64(-1.5..2.0);
            assert!((-1.5..2.0).contains(&x));
            assert!(g.below(7) < 7);
            assert!(g
                .option(|g| g.pick(&[1, 2]))
                .is_none_or(|v| v == 1 || v == 2));
            assert!(PRINTABLE.contains(g.string(PRINTABLE, 1..=1).as_str()));
        });
        // Both ends of each bound are reached.
        assert_eq!((ints.iter().min(), ints.iter().max()), (Some(&3), Some(&6)));
        assert_eq!((lens.iter().min(), lens.iter().max()), (Some(&1), Some(&4)));
        chars.sort_unstable();
        chars.dedup();
        assert_eq!(chars, ['-', 'a', 'b']);
        assert_eq!(PRINTABLE.len(), 95);
    }
}
