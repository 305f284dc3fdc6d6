//! What the store keeps besides its entries, against a rescan of them:
//! `CacheStore::by_recency` against a sort of the store, and
//! `CacheStore::app_totals` against a per-app sum.
//!
//! After every operation the recency list must hold exactly the store's
//! entries in `(last_access, key)` order, and the totals each app's bytes
//! and object count, with no app that holds nothing. The operations are
//! `lru_differential.rs`'s mix (admissions that evict or block-list,
//! lookups, purges, a fresh manager) plus lookups at an instant earlier
//! than the last one, as `bench-evict` and unit tests make, re-admissions
//! of a cached key, under its own app or another one, and block-listing of
//! a cached key. Keys belong to one of three apps.

use std::collections::BTreeMap;

use ape_cachealg::{AppId, CacheManager, CacheStore, LruPolicy, ObjectMeta, Priority};
use ape_check::{check, Gen};
use ape_dnswire::UrlHash;
use ape_simnet::{SimDuration, SimTime};

const CAPACITY: u64 = 1_000;
const BLOCK_THRESHOLD: u64 = 400;

const APPS: u64 = 3;

fn meta(key: u64, size: u64, expires_at: SimTime) -> ObjectMeta {
    ObjectMeta {
        key: UrlHash(key),
        app: AppId::new((key % APPS) as u32),
        size,
        priority: Priority::LOW,
        expires_at,
        fetch_latency: SimDuration::from_millis(25),
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Admit `key` with `size` bytes (above `BLOCK_THRESHOLD` block-lists
    /// it) living `ttl_s` seconds.
    Admit {
        key: u64,
        size: u64,
        ttl_s: u64,
    },
    Lookup {
        key: u64,
    },
    /// Look `key` up `back_s` seconds before the clock.
    LookupEarlier {
        key: u64,
        back_s: u64,
    },
    /// Admit the `nth` cached key (modulo the store's size) again.
    Readmit {
        nth: usize,
        size: u64,
        ttl_s: u64,
    },
    /// Admit the `nth` cached key again under the next app.
    Rehome {
        nth: usize,
        size: u64,
        ttl_s: u64,
    },
    /// Block-list the `nth` cached key.
    Block {
        nth: usize,
    },
    Purge,
    Flush,
}

fn step(g: &mut Gen) -> (u64, Op) {
    let advance_s = g.range(0u64..12).saturating_sub(8);
    let (key, size, ttl_s) = (g.range(0u64..16), g.range(1u64..450), g.range(1u64..40));
    let nth = g.range(0usize..16);
    let op = match g.range(0u32..22) {
        0..=5 => Op::Admit { key, size, ttl_s },
        6..=10 => Op::Lookup { key },
        11..=13 => Op::LookupEarlier {
            key,
            back_s: g.range(0u64..6),
        },
        14 | 15 => Op::Readmit {
            nth,
            size: size.min(BLOCK_THRESHOLD),
            ttl_s,
        },
        16 | 17 => Op::Rehome {
            nth,
            size: size.min(BLOCK_THRESHOLD),
            ttl_s,
        },
        18 => Op::Block { nth },
        19 | 20 => Op::Purge,
        _ => Op::Flush,
    };
    (advance_s, op)
}

fn fresh() -> CacheManager<LruPolicy> {
    CacheManager::new(CacheStore::new(CAPACITY, BLOCK_THRESHOLD), LruPolicy::new())
}

fn nth_key(store: &CacheStore, nth: usize) -> Option<u64> {
    let len = store.len();
    (len > 0).then(|| store.keys().nth(nth % len).expect("in range").0)
}

fn assert_listed_in_rank_order(store: &CacheStore) {
    let listed: Vec<(SimTime, UrlHash)> = store
        .by_recency()
        .map(|e| (e.last_access, e.meta.key))
        .collect();
    let mut sorted: Vec<(SimTime, UrlHash)> =
        store.iter().map(|e| (e.last_access, e.meta.key)).collect();
    sorted.sort();
    assert_eq!(listed, sorted);
}

fn assert_totals_are_a_rescan(store: &CacheStore) {
    let mut rescan: BTreeMap<AppId, (u64, u32)> = BTreeMap::new();
    for e in store.iter() {
        let totals = rescan.entry(e.meta.app).or_default();
        totals.0 += e.meta.size;
        totals.1 += 1;
    }
    assert_eq!(store.app_totals(), &rescan);
}

/// Runs one drawn sequence of operations, calling `holds` on the store
/// after each.
fn run_ops(g: &mut Gen, holds: fn(&CacheStore)) {
    let mut manager = fresh();
    let mut now = SimTime::ZERO;
    for (advance_s, op) in g.vec(1..200, step) {
        now += SimDuration::from_secs(advance_s);
        let expires = |ttl_s| now + SimDuration::from_secs(ttl_s);
        match op {
            Op::Admit { key, size, ttl_s } => {
                manager.admit(meta(key, size, expires(ttl_s)), now);
            }
            Op::Lookup { key } => {
                manager.lookup(UrlHash(key), now);
            }
            Op::LookupEarlier { key, back_s } => {
                // Saturates at time zero.
                let earlier = now - SimDuration::from_secs(back_s);
                manager.lookup(UrlHash(key), earlier);
            }
            Op::Readmit { nth, size, ttl_s } => {
                if let Some(key) = nth_key(manager.store(), nth) {
                    manager.admit(meta(key, size, expires(ttl_s)), now);
                }
            }
            Op::Rehome { nth, size, ttl_s } => {
                if let Some(key) = nth_key(manager.store(), nth) {
                    let mut moved = meta(key, size, expires(ttl_s));
                    moved.app = AppId::new(((key + 1) % APPS) as u32);
                    manager.admit(moved, now);
                }
            }
            Op::Block { nth } => {
                if let Some(key) = nth_key(manager.store(), nth) {
                    manager.admit(meta(key, BLOCK_THRESHOLD + 1, expires(60)), now);
                    assert!(manager.store().get(UrlHash(key)).is_none());
                }
            }
            Op::Purge => {
                manager.purge_expired(now);
            }
            Op::Flush => manager = fresh(),
        }
        holds(manager.store());
    }
}

#[test]
fn recency_list_is_the_store_sorted_by_access_then_key() {
    check(
        "recency_list_is_the_store_sorted_by_access_then_key",
        256,
        |g| run_ops(g, assert_listed_in_rank_order),
    );
}

#[test]
fn app_totals_are_a_rescan_of_the_store() {
    check("app_totals_are_a_rescan_of_the_store", 256, |g| {
        run_ops(g, assert_totals_are_a_rescan)
    });
}
