//! Cacheable-object metadata shared by the cache store and the policies.

use std::fmt;
use std::num::NonZeroU8;

use ape_dnswire::UrlHash;
use ape_simnet::{SimDuration, SimTime};

/// Identifies the app a cacheable object belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(u32);

impl AppId {
    /// Creates an app id.
    pub const fn new(raw: u32) -> Self {
        AppId(raw)
    }

    /// The raw id.
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// Developer-assigned priority of a cacheable object.
///
/// The paper defines priority as a positive integer where larger means more
/// important, and its programming model accepts 1 (low) or 2 (high). Zero
/// is unrepresentable, so an `Option` of anything holding a priority (a
/// delegation's `CacheOp` in every HTTP request event) costs no extra word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(NonZeroU8);

impl Priority {
    /// Low priority (1): objects off the app's critical path.
    pub const LOW: Priority = Priority(NonZeroU8::MIN);
    /// High priority (2): objects on the app's critical path.
    pub const HIGH: Priority = Priority(NonZeroU8::new(2).unwrap());

    /// Creates a priority from a positive integer.
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero — the paper defines priorities as positive.
    pub fn new(value: u8) -> Self {
        Priority(NonZeroU8::new(value).expect("priority must be positive"))
    }

    /// The numeric value.
    pub const fn get(self) -> u8 {
        self.0.get()
    }

    /// Whether this is (at least) high priority.
    pub fn is_high(self) -> bool {
        self.0 >= Priority::HIGH.0
    }
}

impl Default for Priority {
    fn default() -> Self {
        Priority::LOW
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Priority::LOW => write!(f, "low"),
            Priority::HIGH => write!(f, "high"),
            Priority(v) => write!(f, "priority{v}"),
        }
    }
}

/// Metadata of one cacheable object, the unit PACM reasons about.
///
/// Field names follow the paper's model (§IV-C): `s_d` size, `p_d` priority,
/// `e_d` remaining validity, `l_d` latency saved per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Hash of the object's full URL — the cache key.
    pub key: UrlHash,
    /// App the object belongs to (`A_d`).
    pub app: AppId,
    /// Object size in bytes (`s_d`).
    pub size: u64,
    /// Developer priority (`p_d`).
    pub priority: Priority,
    /// Absolute expiry instant, from the developer TTL.
    pub expires_at: SimTime,
    /// Latency a client saves by fetching from the AP instead of the remote
    /// server (`l_d`), approximated by the AP's observed delegation latency.
    pub fetch_latency: SimDuration,
}

impl ObjectMeta {
    /// Remaining valid time `e_d` at `now`; zero when expired.
    pub fn remaining_ttl(&self, now: SimTime) -> SimDuration {
        self.expires_at.saturating_since(now)
    }

    /// Whether the object has expired at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        self.expires_at <= now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(expires_ms: u64) -> ObjectMeta {
        ObjectMeta {
            key: UrlHash::of("http://x/y"),
            app: AppId::new(1),
            size: 1000,
            priority: Priority::HIGH,
            expires_at: SimTime::from_millis(expires_ms),
            fetch_latency: SimDuration::from_millis(30),
        }
    }

    #[test]
    fn priority_ordering_and_flags() {
        assert!(Priority::HIGH > Priority::LOW);
        assert!(Priority::HIGH.is_high());
        assert!(!Priority::LOW.is_high());
        assert_eq!(Priority::new(2), Priority::HIGH);
        assert_eq!(Priority::default(), Priority::LOW);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_priority_rejected() {
        let _ = Priority::new(0);
    }

    #[test]
    fn priority_display() {
        assert_eq!(Priority::LOW.to_string(), "low");
        assert_eq!(Priority::HIGH.to_string(), "high");
        assert_eq!(Priority::new(5).to_string(), "priority5");
    }

    #[test]
    fn remaining_ttl_saturates() {
        let m = meta(100);
        assert_eq!(
            m.remaining_ttl(SimTime::from_millis(40)),
            SimDuration::from_millis(60)
        );
        assert_eq!(
            m.remaining_ttl(SimTime::from_millis(200)),
            SimDuration::ZERO
        );
        assert!(m.is_expired(SimTime::from_millis(100)));
        assert!(!m.is_expired(SimTime::from_millis(99)));
    }

    #[test]
    fn app_id_display() {
        assert_eq!(AppId::new(3).to_string(), "app#3");
        assert_eq!(AppId::new(3).get(), 3);
    }
}
