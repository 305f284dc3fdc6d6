//! Virtual time for the discrete-event simulator.
//!
//! All simulation time is kept in integer nanoseconds so that event ordering
//! is exact and runs are bit-for-bit reproducible. [`SimTime`] is an absolute
//! instant on the simulation clock (nanoseconds since simulation start) and
//! [`SimDuration`] a span between two instants.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock.
///
/// # Examples
///
/// ```
/// use ape_simnet::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_millis_f64(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time.
///
/// # Examples
///
/// ```
/// use ape_simnet::SimDuration;
///
/// let d = SimDuration::from_micros(1500);
/// assert_eq!(d.as_millis_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; used as an "infinitely far" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

/// Nanosecond counts below which [`round_nanos`] rounds with an `i64`
/// cast: a whole part below 2⁶² and its successor both fit an `i64`.
const CAST_BELOW: f64 = (1u64 << 62) as f64;

/// `ns.round() as u64` for a finite `ns > 0`: half away from zero, and
/// saturating at `u64::MAX`.
///
/// Below [`CAST_BELOW`] (about 4.6e18 ns, 146 years) it takes an integer
/// cast and a compare instead of a libm call. It also takes no branch
/// there: on a jittered send delay, "is the fraction at least a half" is a
/// coin flip, which a predictor loses half the time. Above it, where every
/// `f64` is already whole, `f64::round` keeps the saturating cast.
#[inline]
fn round_nanos(ns: f64) -> u64 {
    if ns < CAST_BELOW {
        let whole = ns as i64;
        // Exact: the whole part of an `f64` is an `f64`, and for `ns ≥ 1`
        // the two are within a factor of two (Sterbenz).
        let frac = ns - whole as f64;
        (whole + i64::from(frac >= 0.5)) as u64
    } else {
        ns.round() as u64
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * 1_000_000_000)
    }

    /// Creates a duration from a float number of milliseconds.
    ///
    /// Negative or non-finite inputs are a producer bug: debug builds
    /// panic, release builds clamp to zero.
    pub fn from_millis_f64(millis: f64) -> Self {
        debug_assert!(
            millis.is_finite() && millis >= 0.0,
            "non-finite or negative duration: {millis} ms"
        );
        if !millis.is_finite() || millis <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_nanos(millis * 1e6))
    }

    /// Creates a duration from a float number of seconds.
    ///
    /// Negative or non-finite inputs are a producer bug: debug builds
    /// panic, release builds clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(
            secs.is_finite() && secs >= 0.0,
            "non-finite or negative duration: {secs} s"
        );
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_nanos(secs * 1e9))
    }

    /// Creates a duration from a float number of nanoseconds, truncating
    /// toward zero.
    ///
    /// Truncation (not rounding) is deliberate: this is the typed home for
    /// the `(x as f64 * rate) as u64` pattern that used to live at call
    /// sites, and replaying old traces requires the exact same values.
    /// Negative or non-finite inputs are a producer bug: debug builds
    /// panic, release builds clamp to zero.
    pub fn from_nanos_f64(nanos: f64) -> Self {
        debug_assert!(
            nanos.is_finite() && nanos >= 0.0,
            "non-finite or negative duration: {nanos} ns"
        );
        if !nanos.is_finite() || nanos <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(nanos as u64)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds in this duration, truncating.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Whole seconds, saturating at `u32::MAX` — sized for wire fields
    /// like DNS TTLs, replacing ad-hoc `as_secs_f64() as u32` casts.
    pub fn as_secs_u32(self) -> u32 {
        u32::try_from(self.as_secs()).unwrap_or(u32::MAX)
    }

    /// Milliseconds in this duration, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds in this duration, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        // Saturation at u64::MAX would silently freeze the clock ~584 years
        // in; debug builds flag the overflow at its source instead.
        debug_assert!(
            self.0.checked_add(rhs.0).is_some(),
            "SimTime overflow: {} ns + {} ns",
            self.0,
            rhs.0
        );
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(10) + SimDuration::from_micros(500);
        assert_eq!(t.as_nanos(), 10_500_000);
        assert_eq!((t - SimTime::from_millis(10)).as_millis_f64(), 0.5);
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis(1).saturating_sub(SimDuration::from_millis(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn float_constructors_accept_good_input() {
        assert_eq!(SimDuration::from_millis_f64(2.5).as_nanos(), 2_500_000);
        assert_eq!(SimDuration::from_millis_f64(0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn from_nanos_f64_truncates_exactly_like_the_raw_cast() {
        // Pinned replay-compatibility contract: `from_nanos_f64(x)` must
        // produce the same nanos as the `(x) as u64` casts it replaced at
        // call sites (core/src/router.rs CPU-cost model), or old traces
        // stop replaying bitwise-identically.
        for x in [0.0, 0.4, 0.9999, 1.0, 61.0, 1500.75, 9.6e4, 1.23456789e9] {
            assert_eq!(SimDuration::from_nanos_f64(x).as_nanos(), x as u64);
        }
        // The exact shape router.rs computes: size * per-byte cost.
        let (size, per_byte_ns) = (1500u32, 0.64f64);
        assert_eq!(
            SimDuration::from_nanos_f64(size as f64 * per_byte_ns).as_nanos(),
            (size as f64 * per_byte_ns) as u64
        );
    }

    /// Differential: the cast-and-compare rounding against the libm
    /// `round` it replaced, on the inputs where rounding is delicate.
    #[test]
    fn from_secs_f64_rounds_like_f64_round() {
        let libm = |ns: f64| ns.round() as u64;
        let mut nanos = vec![
            0.5,
            1.5,
            2.5,
            1e6 + 0.5,
            0.49999999999999994,
            1.0 - f64::EPSILON / 4.0,
            2f64.powi(52) - 0.5,
            2f64.powi(52),
            2f64.powi(52) + 1.0,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            CAST_BELOW.next_down(),
            CAST_BELOW,
            CAST_BELOW.next_up(),
            2f64.powi(64),
            1e300,
            f64::MIN_POSITIVE,
        ];
        let mut r = crate::rng::SimRng::seed_from(5);
        for _ in 0..20_000 {
            // Any finite positive value, and sub-second delays with and
            // without an exact half.
            let any = f64::from_bits(r.next_u64() >> 1);
            let ns = r.uniform_f64(0.0, 1e9);
            nanos.extend([ns, ns.floor() + 0.5]);
            if any.is_finite() && any > 0.0 {
                nanos.push(any);
            }
        }
        for ns in nanos {
            assert_eq!(round_nanos(ns), libm(ns), "{ns:e} ns");
            let secs = ns / 1e9;
            assert_eq!(
                SimDuration::from_secs_f64(secs).as_nanos(),
                libm(secs * 1e9),
                "{secs:e} s"
            );
        }
    }

    #[test]
    fn whole_second_accessors_match_the_float_casts_they_replaced() {
        // Pinned: `as_secs()` / `as_secs_u32()` must agree with the
        // `as_secs_f64() as u64/u32` truncation they replaced (nodes/src/
        // ap.rs DNS TTL, core/src/router.rs second-boundary loop) for every
        // duration a simulation can produce (minutes to days — far below
        // the ~104-day scale where f64 division could round differently).
        for ns in [
            0u64,
            1,
            999_999_999,
            1_000_000_000,
            1_000_000_001,
            59_999_999_999,
            86_400_000_000_000,
            7 * 86_400_000_000_000,
        ] {
            let d = SimDuration::from_nanos(ns);
            assert_eq!(d.as_secs(), d.as_secs_f64() as u64, "ns={ns}");
            assert_eq!(d.as_secs_u32(), d.as_secs_f64() as u32, "ns={ns}");
        }
    }

    #[test]
    fn as_secs_u32_saturates() {
        let huge = SimDuration::from_secs(u64::from(u32::MAX) + 5);
        assert_eq!(huge.as_secs_u32(), u32::MAX);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite or negative duration")]
    fn float_constructors_panic_on_negative_in_debug() {
        let _ = SimDuration::from_millis_f64(-3.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite or negative duration")]
    fn float_constructors_panic_on_nan_in_debug() {
        let _ = SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn float_constructors_clamp_bad_input_in_release() {
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SimTime overflow")]
    fn time_plus_duration_overflow_panics_in_debug() {
        let _ = SimTime::MAX + SimDuration::from_nanos(1);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn time_plus_duration_saturates_in_release() {
        assert_eq!(SimTime::MAX + SimDuration::from_nanos(1), SimTime::MAX);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!((d * 3).as_millis_f64(), 30.0);
        assert_eq!((d / 2).as_millis_f64(), 5.0);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimDuration::from_micros(999) < SimDuration::from_millis(1));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", SimTime::from_millis(1)), "1.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(250)), "0.250ms");
    }

    #[test]
    fn saturating_since_orders() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(8);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(3));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(8);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_millis(5);
        let y = SimDuration::from_millis(8);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }
}
