//! `CacheStore::purge_expired` behind its expiry lower bound against a
//! full scan: the bound may only ever save the walk, never a due purge.

use std::collections::BTreeMap;

use ape_cachealg::{AppId, CacheStore, ObjectMeta, Priority};
use ape_dnswire::UrlHash;
use ape_simnet::{SimDuration, SimTime};
use proptest::prelude::*;

fn meta(key: u64, expires_s: u64) -> ObjectMeta {
    ObjectMeta {
        key: UrlHash(key),
        app: AppId::new(1),
        size: 10,
        priority: Priority::LOW,
        expires_at: SimTime::from_secs(expires_s),
        fetch_latency: SimDuration::from_millis(25),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert { key: u64, ttl_s: u64 },
    Remove { key: u64 },
    Purge,
}

fn arb_step() -> impl Strategy<Value = (u64, Op)> {
    let op = (0u32..9, 0u64..12, 0u64..20).prop_map(|(pick, key, ttl_s)| match pick {
        0..=3 => Op::Insert { key, ttl_s },
        4..=5 => Op::Remove { key },
        _ => Op::Purge,
    });
    (0u64..4, op)
}

proptest! {
    #[test]
    fn bounded_purge_returns_what_a_full_scan_returns(
        steps in proptest::collection::vec(arb_step(), 1..120)
    ) {
        let mut store = CacheStore::new(1_000, 500);
        let mut model: BTreeMap<UrlHash, ObjectMeta> = BTreeMap::new();
        let mut now_s = 0;
        for (advance_s, op) in steps {
            now_s += advance_s;
            let now = SimTime::from_secs(now_s);
            match op {
                Op::Insert { key, ttl_s } => {
                    let m = meta(key, now_s + ttl_s);
                    model.insert(m.key, m.clone());
                    store.insert(m, now);
                }
                Op::Remove { key } => {
                    let removed = store.remove(UrlHash(key)).map(|e| e.meta);
                    prop_assert_eq!(removed, model.remove(&UrlHash(key)));
                }
                Op::Purge => {
                    let due: Vec<ObjectMeta> =
                        model.values().filter(|m| m.is_expired(now)).cloned().collect();
                    model.retain(|_, m| !m.is_expired(now));
                    prop_assert_eq!(store.purge_expired(now), due);
                }
            }
            prop_assert!(store.keys().eq(model.keys().copied()));
        }
    }
}

#[test]
fn bound_survives_losing_its_earliest_entry() {
    // "a" sets the bound to 10 s and is then evicted: the bound is now
    // early, which costs the scan at 15 s and nothing else.
    let mut store = CacheStore::new(1_000, 500);
    store.insert(meta(1, 10), SimTime::ZERO);
    store.insert(meta(2, 20), SimTime::ZERO);
    store.remove(UrlHash(1));
    assert!(store.purge_expired(SimTime::from_secs(15)).is_empty());
    assert!(store.purge_expired(SimTime::from_secs(19)).is_empty());
    assert_eq!(
        store.purge_expired(SimTime::from_secs(20)),
        vec![meta(2, 20)]
    );
    assert!(store.is_empty());
}
