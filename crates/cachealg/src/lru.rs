//! Least-recently-used eviction — the policy used by Wi-Cache and by the
//! APE-CACHE-LRU ablation baseline.

use std::collections::BTreeSet;
use std::ops::Bound;

use ape_dnswire::UrlHash;
use ape_simnet::SimTime;

use crate::object::ObjectMeta;
use crate::policy::EvictionPolicy;
use crate::store::CacheStore;

/// Classic LRU: evict the least-recently-accessed objects until the
/// incoming object fits, ties on access time broken by key.
///
/// Victims come off a recency index that is only checked against the store
/// while they are chosen. `last_access` never decreases, so an out-of-date
/// element sits earlier than its entry's true place and is always met, and
/// moved, before it could be passed over; the elements that check out are
/// in `(last_access, key)` order, the order a sort of the store would give.
#[derive(Debug, Clone, Default)]
pub struct LruPolicy {
    /// `(last_access, key)` as of when the element was last checked; a new
    /// key enters at time zero, early for certain.
    order: BTreeSet<(SimTime, UrlHash)>,
    /// Objects and bytes the hooks saw enter, less those they saw leave. A
    /// store whose totals differ was changed without the hooks (PACM keeps
    /// the same fingerprint), and the index is rebuilt from it.
    hooked: (usize, u64),
}

impl LruPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn note_insert(&mut self, meta: &ObjectMeta) {
        self.order.insert((SimTime::ZERO, meta.key));
        self.hooked.0 += 1;
        self.hooked.1 += meta.size;
    }

    fn note_remove(&mut self, meta: &ObjectMeta) {
        // The element stays until a walk meets it: its time is not known here.
        self.hooked.0 = self.hooked.0.saturating_sub(1);
        self.hooked.1 = self.hooked.1.saturating_sub(meta.size);
    }

    fn select_victims(
        &mut self,
        store: &CacheStore,
        incoming: &ObjectMeta,
        _now: SimTime,
    ) -> Vec<UrlHash> {
        if self.hooked != (store.len(), store.used()) {
            self.order = store.iter().map(|e| (e.last_access, e.meta.key)).collect();
            self.hooked = (store.len(), store.used());
        }
        let mut victims = Vec::new();
        let mut reclaimed = store.free();
        // Everything up to and including `checked` matched the store.
        let mut checked = Bound::Unbounded;
        loop {
            let mut outdated = None;
            for &(at, key) in self.order.range((checked, Bound::Unbounded)) {
                if reclaimed >= incoming.size {
                    return victims;
                }
                match store.get(key) {
                    Some(e) if e.last_access == at => {
                        victims.push(key);
                        reclaimed += e.meta.size;
                    }
                    entry => {
                        outdated = Some(((at, key), entry.map(|e| e.last_access)));
                        break;
                    }
                }
            }
            let Some((element, last_access)) = outdated else {
                return victims;
            };
            // Gone from the store: drop it. Touched since: move it to where
            // it belongs, which is later, so the walk still meets it.
            self.order.remove(&element);
            if let Some(at) = last_access {
                self.order.insert((at, element.1));
            }
            checked = Bound::Excluded(element);
        }
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

    #[test]
    fn policy_name() {
        assert_eq!(LruPolicy::new().name(), "lru");
    }
}
