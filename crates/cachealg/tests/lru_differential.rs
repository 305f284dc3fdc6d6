//! `LruPolicy`'s recency index against the sort it replaced.
//!
//! The oracle below is the former `select_victims` body: copy the store,
//! sort by `(last_access, key)`, take from the front. It lives here and not
//! in the library, so the only LRU that ships is the indexed one. Time never
//! runs backwards in these runs, as in the simulator; several operations
//! share each instant so ties on `last_access` are decided by key.

use ape_cachealg::{
    AppId, CacheManager, CacheStore, EvictionPolicy, LruPolicy, ObjectMeta, Priority,
};
use ape_dnswire::UrlHash;
use ape_simnet::{SimDuration, SimTime};
use proptest::prelude::*;

const CAPACITY: u64 = 1_000;
const BLOCK_THRESHOLD: u64 = 400;

/// LRU by sorting a copy of the store on every call.
#[derive(Debug)]
struct SortLru;

impl EvictionPolicy for SortLru {
    fn name(&self) -> &'static str {
        "sort-lru"
    }

    fn select_victims(
        &mut self,
        store: &CacheStore,
        incoming: &ObjectMeta,
        _now: SimTime,
    ) -> Vec<UrlHash> {
        let mut by_recency: Vec<(SimTime, UrlHash, u64)> = store
            .iter()
            .map(|e| (e.last_access, e.meta.key, e.meta.size))
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
fn arb_step() -> impl Strategy<Value = (u64, Op)> {
    let op =
        (0u32..14, 0u64..16, 1u64..450, 1u64..40).prop_map(|(pick, key, size, ttl_s)| match pick {
            0..=5 => Op::Admit { key, size, ttl_s },
            6..=11 => Op::Lookup { key },
            12 => Op::Purge,
            _ => Op::Flush,
        });
    let advance_s = (0u64..12).prop_map(|pick| pick.saturating_sub(8));
    (advance_s, op)
}

fn fresh<P: EvictionPolicy>(policy: P) -> CacheManager<P> {
    CacheManager::new(CacheStore::new(CAPACITY, BLOCK_THRESHOLD), policy)
}

/// Runs `steps` through the indexed and the sorting manager side by side.
/// Every outcome must agree — an admission's outcome is its victim list,
/// in order — so the two stores stay identical throughout.
fn run_lockstep(steps: &[(u64, Op)]) -> Result<(), proptest::TestCaseError> {
    let mut indexed = fresh(LruPolicy::new());
    let mut sorted = fresh(SortLru);
    let mut now = SimTime::ZERO;
    for (advance_s, op) in steps {
        now += SimDuration::from_secs(*advance_s);
        match *op {
            Op::Admit { key, size, ttl_s } => {
                let m = meta(key, size, now + SimDuration::from_secs(ttl_s));
                let got = indexed.admit(m.clone(), now);
                prop_assert_eq!(got, sorted.admit(m, now), "admit {} at {:?}", key, now);
            }
            Op::Lookup { key } => {
                let key = UrlHash(key);
                prop_assert_eq!(indexed.lookup(key, now), sorted.lookup(key, now));
            }
            Op::Purge => {
                prop_assert_eq!(indexed.purge_expired(now), sorted.purge_expired(now));
            }
            Op::Flush => {
                indexed = fresh(LruPolicy::new());
                sorted = fresh(SortLru);
            }
        }
        prop_assert!(indexed.store().iter().eq(sorted.store().iter()));
    }
    Ok(())
}

proptest! {
    #[test]
    fn indexed_lru_evicts_what_the_sort_evicts(
        steps in proptest::collection::vec(arb_step(), 1..200)
    ) {
        run_lockstep(&steps)?;
    }

    // A store filled and changed behind the policy's back, as `bench-evict`
    // and unit tests do: the index is built on first use, reused on the
    // second call, follows hits made on the bare store, and is rebuilt once
    // the store's contents no longer match what the hooks accounted for.
    #[test]
    fn store_changed_without_hooks(
        entries in proptest::collection::vec((1u64..300, 0u64..4), 1..24),
        touched in proptest::collection::vec((0u64..24, 0u64..3), 0..24),
        // More than any one entry holds, so making room always changes
        // the store's object count.
        wanted in 300u64..BLOCK_THRESHOLD,
    ) {
        let total: u64 = entries.iter().map(|(size, _)| size).sum();
        let mut store = CacheStore::new(total, BLOCK_THRESHOLD);
        let forever = SimTime::from_secs(3_600);
        for (key, (size, at_s)) in entries.iter().enumerate() {
            store.insert(meta(key as u64, *size, forever), SimTime::from_secs(*at_s));
        }
        let incoming = meta(u64::MAX, wanted, forever);
        let mut policy = LruPolicy::new();
        let mut now = SimTime::from_secs(4);
        let expected = SortLru.select_victims(&store, &incoming, now);
        prop_assert_eq!(policy.select_victims(&store, &incoming, now), expected.clone());
        prop_assert_eq!(policy.select_victims(&store, &incoming, now), expected);

        for (key, advance_s) in touched {
            now += SimDuration::from_secs(advance_s);
            store.lookup(UrlHash(key), now);
        }
        let expected = SortLru.select_victims(&store, &incoming, now);
        prop_assert_eq!(policy.select_victims(&store, &incoming, now), expected.clone());

        for key in expected {
            store.remove(key);
        }
        if store.free() >= wanted {
            store.insert(incoming, now);
        }
        let next = meta(u64::MAX - 1, wanted, forever);
        let expected = SortLru.select_victims(&store, &next, now);
        prop_assert_eq!(policy.select_victims(&store, &next, now), expected);
    }
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
    run_lockstep(&steps).unwrap();
}
