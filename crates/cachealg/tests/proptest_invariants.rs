//! Property tests over the cache algorithms' core invariants.

use ape_cachealg::{
    gini, gini_naive, solve_brute_force, solve_exact_in, AdmitOutcome, AppId, CacheManager,
    CacheStore, KnapsackItem, KnapsackWorkspace, LruPolicy, ObjectMeta, PacmConfig, PacmPolicy,
    Priority,
};
use ape_dnswire::UrlHash;
use ape_simnet::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_items() -> impl Strategy<Value = Vec<KnapsackItem>> {
    proptest::collection::vec(
        (1u64..40, 0u32..100).prop_map(|(weight, value)| KnapsackItem {
            weight,
            value: value as f64,
        }),
        0..12,
    )
}

fn arb_meta() -> impl Strategy<Value = ObjectMeta> {
    (
        any::<u64>(),
        0u32..6,
        1u64..120_000,
        prop_oneof![Just(Priority::LOW), Just(Priority::HIGH)],
        1u64..3600,
        1u64..100,
    )
        .prop_map(|(key, app, size, priority, ttl_s, lat_ms)| ObjectMeta {
            key: UrlHash(key),
            app: AppId::new(app),
            size,
            priority,
            expires_at: SimTime::from_secs(ttl_s),
            fetch_latency: SimDuration::from_millis(lat_ms),
        })
}

proptest! {
    #[test]
    fn exact_knapsack_is_optimal(items in arb_items(), capacity in 0u64..200) {
        let mut ws = KnapsackWorkspace::new();
        let (total_value, total_weight) = solve_exact_in(&mut ws, &items, capacity, 1);
        let brute = solve_brute_force(&items, capacity);
        prop_assert!((total_value - brute.total_value).abs() < 1e-9);
        prop_assert!(total_weight <= capacity);
    }

    #[test]
    fn gini_is_in_unit_interval_and_matches_naive(
        shares in proptest::collection::vec(0.0f64..1000.0, 0..12)
    ) {
        let g = gini(&shares);
        prop_assert!((0.0..=1.0).contains(&g), "g = {g}");
        prop_assert!((g - gini_naive(&shares)).abs() < 1e-9);
    }

    #[test]
    fn gini_zero_iff_equal(share in 0.1f64..100.0, n in 2usize..10) {
        let shares = vec![share; n];
        prop_assert!(gini(&shares) < 1e-12);
    }

    #[test]
    fn lru_never_exceeds_capacity(metas in proptest::collection::vec(arb_meta(), 1..40)) {
        let mut manager = CacheManager::new(CacheStore::new(200_000, 150_000), LruPolicy::new());
        for (i, meta) in metas.into_iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            let _ = manager.admit(meta, now);
            prop_assert!(manager.store().used() <= manager.store().capacity());
        }
    }

    #[test]
    fn pacm_never_exceeds_capacity(metas in proptest::collection::vec(arb_meta(), 1..40)) {
        let mut manager = CacheManager::new(
            CacheStore::new(200_000, 150_000),
            PacmPolicy::new(PacmConfig::default()),
        );
        for (i, meta) in metas.into_iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            let app = meta.app;
            manager.note_request(app);
            let _ = manager.admit(meta, now);
            prop_assert!(manager.store().used() <= manager.store().capacity());
        }
    }

    #[test]
    fn admitted_object_is_always_present(meta in arb_meta()) {
        // Any object below the block threshold admitted into an empty cache
        // must be a Hit immediately afterwards (before its TTL).
        let mut manager = CacheManager::new(
            CacheStore::new(200_000, 150_000),
            PacmPolicy::new(PacmConfig::default()),
        );
        let key = meta.key;
        let out = manager.admit(meta, SimTime::ZERO);
        prop_assert!(matches!(out, AdmitOutcome::Stored { .. }), "{out:?}");
        prop_assert_eq!(manager.lookup(key, SimTime::ZERO), ape_cachealg::Lookup::Hit);
    }
}
