//! `LruPolicy`'s walk of the store's recency list against the sort it
//! replaced.
//!
//! The oracle below is the former `select_victims` body: copy the store,
//! sort by `(last access, key)`, take from the front. It keeps its own
//! record of each key's last access, written from the operations the test
//! makes (an admission, or a lookup that hits), and never reads the
//! store's `Entry::last_access`: a store that forgot a hit would rank both
//! sides alike. It lives here and not in the library, so the only LRU that
//! ships is the list walk. Time never runs backwards in these runs, as in
//! the simulator; several operations share each instant so ties on the
//! last access are decided by key.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use ape_cachealg::{
    AdmitOutcome, AppId, CacheManager, CacheStore, EvictionPolicy, Lookup, LruPolicy, ObjectMeta,
    Priority,
};
use ape_check::{check, Gen};
use ape_dnswire::UrlHash;
use ape_simnet::{SimDuration, SimTime};

const CAPACITY: u64 = 1_000;
const BLOCK_THRESHOLD: u64 = 400;

/// LRU by sorting a copy of the store on every call, ranked by the last
/// accesses the test recorded. Clones share one record, so the test keeps
/// a handle while the manager owns the policy.
#[derive(Debug, Clone, Default)]
struct SortLru {
    last_access: Arc<Mutex<BTreeMap<UrlHash, SimTime>>>,
}

impl SortLru {
    /// Records an access to `key` at `now`: it was stored, or hit.
    fn touch(&self, key: UrlHash, now: SimTime) {
        self.last_access
            .lock()
            .expect("no holder panicked")
            .insert(key, now);
    }
}

impl EvictionPolicy for SortLru {
    fn select_victims(
        &mut self,
        store: &CacheStore,
        incoming: &ObjectMeta,
        _now: SimTime,
    ) -> Vec<UrlHash> {
        let last_access = self.last_access.lock().expect("no holder panicked");
        let mut by_recency: Vec<(SimTime, UrlHash, u64)> = store
            .iter()
            .map(|e| (last_access[&e.meta.key], e.meta.key, e.meta.size))
            .collect();
        by_recency.sort();
        let mut victims = Vec::new();
        let mut reclaimed = store.free();
        for (_, key, size) in by_recency {
            if reclaimed >= incoming.size {
                break;
            }
            victims.push(key);
            reclaimed += size;
        }
        victims
    }
}

fn meta(key: u64, size: u64, expires_at: SimTime) -> ObjectMeta {
    ObjectMeta {
        key: UrlHash(key),
        app: AppId::new(1),
        size,
        priority: Priority::LOW,
        expires_at,
        fetch_latency: SimDuration::from_millis(25),
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Admit `key` with `size` bytes (above `BLOCK_THRESHOLD` block-lists
    /// it) living `ttl_s` seconds; a key already cached is re-admitted.
    Admit {
        key: u64,
        size: u64,
        ttl_s: u64,
    },
    Lookup {
        key: u64,
    },
    Purge,
    /// Replace the manager with an empty one, as `ApNode::flush_cache` does.
    Flush,
}

/// An operation and how far the clock moves before it (mostly not at all).
fn step(g: &mut Gen) -> (u64, Op) {
    let advance_s = g.range(0u64..12).saturating_sub(8);
    let (key, size, ttl_s) = (g.range(0u64..16), g.range(1u64..450), g.range(1u64..40));
    let op = match g.range(0u32..14) {
        0..=5 => Op::Admit { key, size, ttl_s },
        6..=11 => Op::Lookup { key },
        12 => Op::Purge,
        _ => Op::Flush,
    };
    (advance_s, op)
}

fn fresh<P: EvictionPolicy>(policy: P) -> CacheManager<P> {
    CacheManager::new(CacheStore::new(CAPACITY, BLOCK_THRESHOLD), policy)
}

/// Runs `steps` through the indexed and the sorting manager side by side.
/// Every outcome must agree — an admission's outcome is its victim list,
/// in order — so the two stores stay identical throughout.
fn run_lockstep(steps: &[(u64, Op)]) {
    let mut indexed = fresh(LruPolicy::new());
    let mut oracle = SortLru::default();
    let mut sorted = fresh(oracle.clone());
    let mut now = SimTime::ZERO;
    for (advance_s, op) in steps {
        now += SimDuration::from_secs(*advance_s);
        match *op {
            Op::Admit { key, size, ttl_s } => {
                let m = meta(key, size, now + SimDuration::from_secs(ttl_s));
                let got = indexed.admit(m.clone(), now);
                let want = sorted.admit(m, now);
                if matches!(want, AdmitOutcome::Stored { .. }) {
                    oracle.touch(UrlHash(key), now);
                }
                assert_eq!(got, want, "admit {key} at {now:?}");
            }
            Op::Lookup { key } => {
                let key = UrlHash(key);
                let want = sorted.lookup(key, now);
                if want == Lookup::Hit {
                    oracle.touch(key, now);
                }
                assert_eq!(indexed.lookup(key, now), want);
            }
            Op::Purge => {
                assert_eq!(indexed.purge_expired(now), sorted.purge_expired(now));
            }
            Op::Flush => {
                indexed = fresh(LruPolicy::new());
                oracle = SortLru::default();
                sorted = fresh(oracle.clone());
            }
        }
        assert!(indexed.store().iter().eq(sorted.store().iter()));
    }
}

#[test]
fn indexed_lru_evicts_what_the_sort_evicts() {
    check("indexed_lru_evicts_what_the_sort_evicts", 256, |g| {
        run_lockstep(&g.vec(1..200, step));
    });
}

// A store filled and changed behind the policy's back, as `bench-evict`
// and unit tests do: entries inserted out of time order, hits made on the
// bare store, and removals the policy never hears of.
#[test]
fn store_changed_without_hooks() {
    check("store_changed_without_hooks", 256, |g| {
        let entries = g.vec(1..24, |g| (g.range(1u64..300), g.range(0u64..4)));
        let touched = g.vec(0..24, |g| (g.range(0u64..24), g.range(0u64..3)));
        // More than any one entry holds, so making room always changes
        // the store's object count.
        let wanted = g.range(300u64..BLOCK_THRESHOLD);
        let total: u64 = entries.iter().map(|(size, _)| size).sum();
        let mut store = CacheStore::new(total, BLOCK_THRESHOLD);
        let forever = SimTime::from_secs(3_600);
        let mut oracle = SortLru::default();
        for (key, (size, at_s)) in entries.iter().enumerate() {
            let at = SimTime::from_secs(*at_s);
            store.insert(meta(key as u64, *size, forever), at);
            oracle.touch(UrlHash(key as u64), at);
        }
        let incoming = meta(u64::MAX, wanted, forever);
        let mut policy = LruPolicy::new();
        let mut now = SimTime::from_secs(4);
        let expected = oracle.select_victims(&store, &incoming, now);
        assert_eq!(
            policy.select_victims(&store, &incoming, now),
            expected.clone()
        );
        assert_eq!(policy.select_victims(&store, &incoming, now), expected);

        for (key, advance_s) in touched {
            now += SimDuration::from_secs(advance_s);
            if store.lookup(UrlHash(key), now) == Lookup::Hit {
                oracle.touch(UrlHash(key), now);
            }
        }
        let expected = oracle.select_victims(&store, &incoming, now);
        assert_eq!(
            policy.select_victims(&store, &incoming, now),
            expected.clone()
        );

        for key in expected {
            store.remove(key);
        }
        if store.free() >= wanted {
            store.insert(incoming, now);
            oracle.touch(UrlHash(u64::MAX), now);
        }
        let next = meta(u64::MAX - 1, wanted, forever);
        let expected = oracle.select_victims(&store, &next, now);
        assert_eq!(policy.select_victims(&store, &next, now), expected);
    });
}

#[test]
fn fresh_manager_mid_run() {
    // Fill, touch, flush, then refill to eviction at instants the first
    // life already used: nothing of the old index may leak into the new.
    let admit = |key, size| Op::Admit {
        key,
        size,
        ttl_s: 30,
    };
    let mut steps = vec![
        (0, admit(1, 300)),
        (0, admit(2, 300)),
        (1, admit(3, 300)),
        (0, Op::Lookup { key: 1 }),
        (1, admit(4, 300)),
        (0, Op::Flush),
    ];
    steps.extend((1..8).map(|key| (0, admit(key, 300))));
    run_lockstep(&steps);
}
