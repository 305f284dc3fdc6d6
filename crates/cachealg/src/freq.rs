//! Per-app request-frequency tracking (the paper's `R(a)` EWMA).
//!
//! The AP recomputes, once per round, `R(a) = (1 − α)·R'(a) + α·r_a(Δt)`
//! where `r_a(Δt)` is the number of requests for app `a` observed since the
//! previous round and `α` (0.7 in the paper) weights recent measurements.

use std::collections::{BTreeMap, BTreeSet};

use ape_simnet::SimTime;

use crate::object::AppId;

/// Exponentially weighted per-app request-frequency estimator.
///
/// # Examples
///
/// ```
/// use ape_cachealg::{AppId, FrequencyTracker};
/// use ape_simnet::SimTime;
///
/// let mut tracker = FrequencyTracker::new(0.7);
/// let app = AppId::new(1);
/// tracker.record(app);
/// tracker.record(app);
/// tracker.roll(SimTime::from_secs(60));
/// assert!(tracker.rate(app) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct FrequencyTracker {
    alpha: f64,
    rates: BTreeMap<AppId, f64>,
    window_counts: BTreeMap<AppId, u64>,
    last_roll: SimTime,
}

impl FrequencyTracker {
    /// Creates a tracker with smoothing factor `alpha` (the paper uses 0.7).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        FrequencyTracker {
            alpha,
            rates: BTreeMap::new(),
            window_counts: BTreeMap::new(),
            last_roll: SimTime::ZERO,
        }
    }

    /// Records one request for `app` in the current window.
    pub fn record(&mut self, app: AppId) {
        *self.window_counts.entry(app).or_insert(0) += 1;
    }

    /// Rates decayed below this are dropped from the table entirely: a
    /// long-quiet app's EWMA approaches zero geometrically but never
    /// reaches it, so without a floor the map grows monotonically for the
    /// AP's whole uptime. 1e-6 is far below any rate PACM's utility
    /// function can distinguish from zero.
    const DROP_EPSILON: f64 = 1e-6;

    /// Closes the current window at `now` and folds its counts into the
    /// per-app EWMA. Apps seen before but quiet this window decay, and
    /// apps whose rate has decayed to (effectively) zero are dropped so
    /// the table tracks only live apps.
    pub fn roll(&mut self, now: SimTime) {
        let counts = std::mem::take(&mut self.window_counts);
        // Decay every known app; quiet apps contribute zero new requests.
        // The set union also dedups apps present in both maps — chaining
        // the key iterators raw would fold such apps twice per roll.
        let apps: BTreeSet<AppId> = self
            .rates
            .keys()
            .copied()
            .chain(counts.keys().copied())
            .collect();
        for app in apps {
            let fresh = counts.get(&app).copied().unwrap_or(0) as f64;
            let prev = self.rates.get(&app).copied().unwrap_or(0.0);
            let next = (1.0 - self.alpha) * prev + self.alpha * fresh;
            if next < Self::DROP_EPSILON {
                self.rates.remove(&app);
            } else {
                self.rates.insert(app, next);
            }
        }
        self.last_roll = now;
    }

    /// Current smoothed request frequency `R(a)`; zero for unseen apps.
    pub fn rate(&self, app: AppId) -> f64 {
        self.rates.get(&app).copied().unwrap_or(0.0)
    }

    /// Every tracked `(app, R(a))`, by app id; an app absent here has
    /// rate zero.
    pub fn rates(&self) -> impl Iterator<Item = (AppId, f64)> + '_ {
        self.rates.iter().map(|(&app, &rate)| (app, rate))
    }

    /// Time of the last roll.
    pub fn last_roll(&self) -> SimTime {
        self.last_roll
    }

    /// Number of apps with a tracked rate.
    pub fn tracked_apps(&self) -> usize {
        self.rates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_window_applies_alpha() {
        let mut t = FrequencyTracker::new(0.7);
        let a = AppId::new(1);
        for _ in 0..10 {
            t.record(a);
        }
        t.roll(SimTime::from_secs(60));
        assert!((t.rate(a) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn rates_decay_when_quiet() {
        let mut t = FrequencyTracker::new(0.7);
        let a = AppId::new(1);
        for _ in 0..10 {
            t.record(a);
        }
        t.roll(SimTime::from_secs(60));
        let r1 = t.rate(a);
        t.roll(SimTime::from_secs(120));
        let r2 = t.rate(a);
        assert!((r2 - r1 * 0.3).abs() < 1e-9, "r1={r1} r2={r2}");
        t.roll(SimTime::from_secs(180));
        assert!(t.rate(a) < r2);
    }

    #[test]
    fn steady_load_converges_to_window_count() {
        let mut t = FrequencyTracker::new(0.7);
        let a = AppId::new(1);
        for round in 1..=30 {
            for _ in 0..6 {
                t.record(a);
            }
            t.roll(SimTime::from_secs(round * 60));
        }
        assert!((t.rate(a) - 6.0).abs() < 1e-3, "rate {}", t.rate(a));
    }

    #[test]
    fn unseen_apps_have_zero_rate() {
        let t = FrequencyTracker::new(0.5);
        assert_eq!(t.rate(AppId::new(9)), 0.0);
        assert_eq!(t.tracked_apps(), 0);
    }

    #[test]
    fn multiple_apps_tracked_independently() {
        let mut t = FrequencyTracker::new(1.0); // no smoothing: rate == count
        let a = AppId::new(1);
        let b = AppId::new(2);
        t.record(a);
        t.record(a);
        t.record(b);
        t.roll(SimTime::from_secs(60));
        assert_eq!(t.rate(a), 2.0);
        assert_eq!(t.rate(b), 1.0);
        assert_eq!(t.tracked_apps(), 2);
        assert_eq!(t.last_roll(), SimTime::from_secs(60));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_rejected() {
        let _ = FrequencyTracker::new(0.0);
    }

    #[test]
    fn decayed_quiet_apps_are_dropped() {
        let mut t = FrequencyTracker::new(0.7);
        let quiet = AppId::new(1);
        let busy = AppId::new(2);
        t.record(quiet);
        t.record(busy);
        t.roll(SimTime::from_secs(60));
        assert_eq!(t.tracked_apps(), 2);

        // 0.7 * 0.3^k drops below 1e-6 after k = 12 quiet windows; the
        // busy app keeps getting requests and must survive every roll.
        for round in 2..=20 {
            t.record(busy);
            t.roll(SimTime::from_secs(round * 60));
        }
        assert_eq!(t.tracked_apps(), 1, "quiet app should have been dropped");
        assert_eq!(t.rate(quiet), 0.0);
        assert!(t.rate(busy) > 0.5);
    }

    #[test]
    fn dropped_app_returns_when_active_again() {
        let mut t = FrequencyTracker::new(1.0); // alpha 1: one quiet roll drops
        let a = AppId::new(7);
        t.record(a);
        t.roll(SimTime::from_secs(60));
        assert_eq!(t.tracked_apps(), 1);
        t.roll(SimTime::from_secs(120));
        assert_eq!(t.tracked_apps(), 0);
        t.record(a);
        t.roll(SimTime::from_secs(180));
        assert_eq!(t.tracked_apps(), 1);
        assert_eq!(t.rate(a), 1.0);
    }
}
