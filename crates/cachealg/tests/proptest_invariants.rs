//! Property tests over the cache algorithms' core invariants.

use ape_cachealg::{
    gini, AdmitOutcome, AppId, CacheManager, CacheStore, LruPolicy, ObjectMeta, PacmConfig,
    PacmPolicy, Priority,
};
use ape_check::{check, Gen};
use ape_dnswire::UrlHash;
use ape_simnet::{SimDuration, SimTime};

fn meta(g: &mut Gen) -> ObjectMeta {
    ObjectMeta {
        key: UrlHash(g.u64()),
        app: AppId::new(g.range(0u32..6)),
        size: g.range(1u64..120_000),
        priority: g.pick(&[Priority::LOW, Priority::HIGH]),
        expires_at: SimTime::from_secs(g.range(1u64..3600)),
        fetch_latency: SimDuration::from_millis(g.range(1u64..100)),
    }
}

#[test]
fn gini_zero_iff_equal() {
    check("gini_zero_iff_equal", 256, |g| {
        let shares = vec![g.f64(0.1..100.0); g.range(2usize..10)];
        assert!(gini(&shares) < 1e-12);
    });
}

#[test]
fn lru_never_exceeds_capacity() {
    check("lru_never_exceeds_capacity", 256, |g| {
        let mut manager = CacheManager::new(CacheStore::new(200_000, 150_000), LruPolicy::new());
        for (i, meta) in g.vec(1..40, meta).into_iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            let _ = manager.admit(meta, now);
            assert!(manager.store().used() <= manager.store().capacity());
        }
    });
}

#[test]
fn pacm_never_exceeds_capacity() {
    check("pacm_never_exceeds_capacity", 256, |g| {
        let mut manager = CacheManager::new(
            CacheStore::new(200_000, 150_000),
            PacmPolicy::new(PacmConfig::default()),
        );
        for (i, meta) in g.vec(1..40, meta).into_iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            let app = meta.app;
            manager.note_request(app);
            let _ = manager.admit(meta, now);
            assert!(manager.store().used() <= manager.store().capacity());
        }
    });
}

#[test]
fn admitted_object_is_always_present() {
    check("admitted_object_is_always_present", 256, |g| {
        // Any object below the block threshold admitted into an empty cache
        // must be a Hit immediately afterwards (before its TTL).
        let mut manager = CacheManager::new(
            CacheStore::new(200_000, 150_000),
            PacmPolicy::new(PacmConfig::default()),
        );
        let meta = meta(g);
        let key = meta.key;
        let out = manager.admit(meta, SimTime::ZERO);
        assert!(matches!(out, AdmitOutcome::Stored { .. }), "{out:?}");
        assert_eq!(
            manager.lookup(key, SimTime::ZERO),
            ape_cachealg::Lookup::Hit
        );
    });
}
