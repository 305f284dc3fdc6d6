//! The eviction-policy abstraction and the cache manager combining a store
//! with a policy.
//!
//! A policy sees the store only when asked for victims: what it needs to
//! know about the cached objects (recency, per-app totals) the store
//! keeps, so no mutation has to be reported to the policy.

use ape_dnswire::UrlHash;
use ape_simnet::SimTime;

use crate::object::{AppId, ObjectMeta};
use crate::pacm::EvictStats;
use crate::store::{CacheStore, Lookup};

/// Chooses which cached objects to evict to admit an incoming object.
///
/// Implementations must be deterministic: given the same store state and
/// inputs they must return the same victims (the reproduction's determinism
/// tests rely on it).
///
/// `Send` is required so nodes owning a boxed policy can move between the
/// parallel experiment runner's worker threads.
pub trait EvictionPolicy: std::fmt::Debug + Send {
    /// Observes one client request for `app` (PACM's frequency signal).
    fn note_request(&mut self, _app: AppId) {}

    /// Closes the current measurement window at `now` (PACM's EWMA roll).
    fn roll_window(&mut self, _now: SimTime) {}

    /// Cumulative eviction-engine counters, when the policy keeps them
    /// (PACM does; LRU and test policies return `None`).
    fn evict_stats(&self) -> Option<EvictStats> {
        None
    }

    /// Returns the keys to evict so that `incoming` fits. Implementations
    /// may assume expired entries were already purged. Must return victims
    /// whose combined size, plus current free space, covers
    /// `incoming.size`; returning fewer makes the admission fail safely.
    fn select_victims(
        &mut self,
        store: &CacheStore,
        incoming: &ObjectMeta,
        now: SimTime,
    ) -> Vec<UrlHash>;
}

impl<P: EvictionPolicy + ?Sized> EvictionPolicy for Box<P> {
    fn note_request(&mut self, app: AppId) {
        (**self).note_request(app);
    }
    fn roll_window(&mut self, now: SimTime) {
        (**self).roll_window(now);
    }
    fn evict_stats(&self) -> Option<EvictStats> {
        (**self).evict_stats()
    }
    fn select_victims(
        &mut self,
        store: &CacheStore,
        incoming: &ObjectMeta,
        now: SimTime,
    ) -> Vec<UrlHash> {
        (**self).select_victims(store, incoming, now)
    }
}

/// Outcome of trying to admit a delegated object into the AP cache.
/// `purged` lists what the admission's expiry purge removed, in key order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Object cached; lists what was evicted to make room.
    Stored {
        /// Keys evicted by the policy (empty when the object fit).
        evicted: Vec<UrlHash>,
        /// Keys purged as expired before the policy ran.
        purged: Vec<UrlHash>,
    },
    /// Object exceeded the block-list threshold (or can never fit) and was
    /// added to the block list; future lookups return `Cache-Miss`.
    Blocked,
    /// The policy declined to make enough room; the object is not cached
    /// but remains delegable next time.
    Declined {
        /// Keys purged as expired before the policy ran.
        purged: Vec<UrlHash>,
    },
}

/// A cache store paired with an eviction policy — the AP's "cache
/// management module" (paper §IV, Fig. 5).
#[derive(Debug)]
pub struct CacheManager<P> {
    store: CacheStore,
    policy: P,
}

impl<P: EvictionPolicy> CacheManager<P> {
    /// Creates a manager over a fresh store.
    pub fn new(store: CacheStore, policy: P) -> Self {
        CacheManager { store, policy }
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &CacheStore {
        &self.store
    }

    /// The policy (e.g. to inspect PACM state in tests).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Observes one client request for `app`.
    pub fn note_request(&mut self, app: AppId) {
        self.policy.note_request(app);
    }

    /// Closes the frequency window at `now`.
    pub fn roll_window(&mut self, now: SimTime) {
        self.policy.roll_window(now);
    }

    /// Classifies `key`, bumping recency on hits.
    pub fn lookup(&mut self, key: UrlHash, now: SimTime) -> Lookup {
        self.store.lookup(key, now)
    }

    /// Classifies `key` without mutating state.
    pub fn peek(&self, key: UrlHash, now: SimTime) -> Lookup {
        self.store.peek(key, now)
    }

    /// Admits a freshly delegated object, evicting per policy when needed.
    pub fn admit(&mut self, meta: ObjectMeta, now: SimTime) -> AdmitOutcome {
        if self.store.exceeds_block_threshold(meta.size) || meta.size > self.store.capacity() {
            self.store.block(meta.key);
            return AdmitOutcome::Blocked;
        }
        // Expired entries are dead weight; reclaim them before consulting
        // the policy so its view matches reality.
        let purged = self.store.purge_expired(now);
        let mut evicted = Vec::new();
        if self.store.free() < meta.size {
            let victims = self.policy.select_victims(&self.store, &meta, now);
            for key in victims {
                if self.store.remove(key).is_some() {
                    evicted.push(key);
                }
            }
            if self.store.free() < meta.size {
                return AdmitOutcome::Declined { purged };
            }
        }
        self.store.insert(meta, now);
        AdmitOutcome::Stored { evicted, purged }
    }

    /// Drops expired objects, returning their keys in key order.
    pub fn purge_expired(&mut self, now: SimTime) -> Vec<UrlHash> {
        self.store.purge_expired(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Priority;
    use ape_simnet::SimDuration;

    /// Evicts nothing, ever.
    #[derive(Debug)]
    struct NeverEvict;
    impl EvictionPolicy for NeverEvict {
        fn select_victims(&mut self, _: &CacheStore, _: &ObjectMeta, _: SimTime) -> Vec<UrlHash> {
            Vec::new()
        }
    }

    /// Evicts everything.
    #[derive(Debug)]
    struct EvictAll;
    impl EvictionPolicy for EvictAll {
        fn select_victims(
            &mut self,
            store: &CacheStore,
            _: &ObjectMeta,
            _: SimTime,
        ) -> Vec<UrlHash> {
            store.keys().collect()
        }
    }

    fn meta(url: &str, size: u64, expires_s: u64) -> ObjectMeta {
        ObjectMeta {
            key: UrlHash::of(url),
            app: AppId::new(1),
            size,
            priority: Priority::LOW,
            expires_at: SimTime::from_secs(expires_s),
            fetch_latency: SimDuration::from_millis(25),
        }
    }

    #[test]
    fn admit_without_pressure_evicts_nothing() {
        let mut m = CacheManager::new(CacheStore::new(1000, 500), NeverEvict);
        let out = m.admit(meta("a", 100, 60), SimTime::ZERO);
        assert_eq!(
            out,
            AdmitOutcome::Stored {
                evicted: vec![],
                purged: vec![]
            }
        );
        assert_eq!(m.lookup(UrlHash::of("a"), SimTime::ZERO), Lookup::Hit);
    }

    #[test]
    fn oversized_object_is_blocked() {
        let mut m = CacheManager::new(CacheStore::new(1000, 500), NeverEvict);
        let out = m.admit(meta("big", 600, 60), SimTime::ZERO);
        assert_eq!(out, AdmitOutcome::Blocked);
        assert_eq!(m.lookup(UrlHash::of("big"), SimTime::ZERO), Lookup::Blocked);
    }

    #[test]
    fn object_larger_than_capacity_is_blocked() {
        let mut m = CacheManager::new(CacheStore::new(300, 500), NeverEvict);
        let out = m.admit(meta("big", 400, 60), SimTime::ZERO);
        assert_eq!(out, AdmitOutcome::Blocked);
    }

    #[test]
    fn refusing_policy_declines_admission() {
        let mut m = CacheManager::new(CacheStore::new(150, 500), NeverEvict);
        m.admit(meta("a", 100, 60), SimTime::ZERO);
        let out = m.admit(meta("b", 100, 60), SimTime::ZERO);
        assert_eq!(out, AdmitOutcome::Declined { purged: vec![] });
        assert_eq!(m.lookup(UrlHash::of("a"), SimTime::ZERO), Lookup::Hit);
        assert_eq!(m.lookup(UrlHash::of("b"), SimTime::ZERO), Lookup::Absent);
    }

    #[test]
    fn eager_policy_makes_room() {
        let mut m = CacheManager::new(CacheStore::new(150, 500), EvictAll);
        m.admit(meta("a", 100, 60), SimTime::ZERO);
        let out = m.admit(meta("b", 100, 60), SimTime::ZERO);
        assert_eq!(
            out,
            AdmitOutcome::Stored {
                evicted: vec![UrlHash::of("a")],
                purged: vec![]
            }
        );
        assert_eq!(m.lookup(UrlHash::of("b"), SimTime::ZERO), Lookup::Hit);
    }

    #[test]
    fn expired_entries_purged_before_policy_runs() {
        let mut m = CacheManager::new(CacheStore::new(150, 500), NeverEvict);
        m.admit(meta("a", 100, 10), SimTime::ZERO);
        // At t=20 the old entry is expired, so "b" fits without eviction,
        // and the outcome names what the purge removed.
        let out = m.admit(meta("b", 100, 60), SimTime::from_secs(20));
        assert_eq!(
            out,
            AdmitOutcome::Stored {
                evicted: vec![],
                purged: vec![UrlHash::of("a")]
            }
        );
    }
}
