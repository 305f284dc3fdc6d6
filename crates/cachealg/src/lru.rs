//! Least-recently-used eviction — the policy used by Wi-Cache and by the
//! APE-CACHE-LRU ablation baseline.

use ape_dnswire::UrlHash;
use ape_simnet::SimTime;

use crate::object::ObjectMeta;
use crate::policy::EvictionPolicy;
use crate::store::CacheStore;

/// Classic LRU: evict the least-recently-accessed objects until the
/// incoming object fits, ties on access time broken by key.
///
/// The policy holds no state. The store keeps its entries on a recency
/// list in `(last_access, key)` order ([`CacheStore::by_recency`]), and the
/// victims are the shortest prefix of it that makes room.
#[derive(Debug, Clone, Default)]
pub struct LruPolicy;

impl LruPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        LruPolicy
    }
}

impl EvictionPolicy for LruPolicy {
    fn select_victims(
        &mut self,
        store: &CacheStore,
        incoming: &ObjectMeta,
        _now: SimTime,
    ) -> Vec<UrlHash> {
        let mut victims = Vec::new();
        let mut reclaimed = store.free();
        for entry in store.by_recency() {
            if reclaimed >= incoming.size {
                break;
            }
            victims.push(entry.meta.key);
            reclaimed += entry.meta.size;
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{AppId, Priority};
    use crate::policy::{AdmitOutcome, CacheManager};
    use crate::store::Lookup;
    use ape_simnet::SimDuration;

    fn meta(url: &str, size: u64) -> ObjectMeta {
        ObjectMeta {
            key: UrlHash::of(url),
            app: AppId::new(1),
            size,
            priority: Priority::LOW,
            expires_at: SimTime::from_secs(3600),
            fetch_latency: SimDuration::from_millis(25),
        }
    }

    fn manager(capacity: u64) -> CacheManager<LruPolicy> {
        CacheManager::new(CacheStore::new(capacity, 500_000), LruPolicy::new())
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut m = manager(250);
        m.admit(meta("a", 100), SimTime::from_secs(1));
        m.admit(meta("b", 100), SimTime::from_secs(2));
        // Touch "a" so "b" becomes the LRU victim.
        assert_eq!(
            m.lookup(UrlHash::of("a"), SimTime::from_secs(3)),
            Lookup::Hit
        );
        let out = m.admit(meta("c", 100), SimTime::from_secs(4));
        assert_eq!(
            out,
            AdmitOutcome::Stored {
                evicted: vec![UrlHash::of("b")],
                purged: vec![]
            }
        );
        assert_eq!(
            m.lookup(UrlHash::of("a"), SimTime::from_secs(5)),
            Lookup::Hit
        );
        assert_eq!(
            m.lookup(UrlHash::of("b"), SimTime::from_secs(5)),
            Lookup::Absent
        );
    }

    #[test]
    fn evicts_multiple_when_needed() {
        let mut m = manager(300);
        m.admit(meta("a", 100), SimTime::from_secs(1));
        m.admit(meta("b", 100), SimTime::from_secs(2));
        m.admit(meta("c", 100), SimTime::from_secs(3));
        let out = m.admit(meta("d", 250), SimTime::from_secs(4));
        match out {
            AdmitOutcome::Stored { evicted, .. } => {
                assert_eq!(evicted.len(), 3, "needs all three evicted: {evicted:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut m = manager(1000);
        for i in 0..50 {
            let out = m.admit(meta(&format!("u{i}"), 90), SimTime::from_secs(i));
            assert!(matches!(out, AdmitOutcome::Stored { .. }));
            assert!(m.store().used() <= m.store().capacity());
        }
    }

    #[test]
    fn deterministic_tie_break() {
        // Two entries with identical last_access: victim picked by key.
        let run = || {
            let mut m = manager(250);
            m.admit(meta("x", 100), SimTime::from_secs(1));
            m.admit(meta("y", 100), SimTime::from_secs(1));
            match m.admit(meta("z", 150), SimTime::from_secs(2)) {
                AdmitOutcome::Stored { evicted, .. } => evicted,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(run(), run());
    }
}
