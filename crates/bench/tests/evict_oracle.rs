//! `repro bench-evict`'s PACM decisions, checked on the stores it benches.
//!
//! The `pacm_equivalence` suite holds PACM to the frozen seed engine in
//! general; this test pins the decision on each store whose cost the sweep
//! reports, with and without fairness. Up to [`ORACLE_MAX_OBJECTS`]
//! objects the victims must equal the seed engine's; above that the seed's
//! full choice matrix would not fit in memory, so the kept set must
//! satisfy PACM's constraints instead.

#[path = "../../cachealg/tests/support/reference.rs"]
mod reference;

use std::collections::BTreeMap;

use ape_bench::{evict_stores, evict_training, ReproOptions};
use ape_cachealg::{
    gini, pacm, AppId, CacheStore, EvictionPolicy, ObjectMeta, PacmConfig, PacmPolicy,
};
use ape_dnswire::UrlHash;
use ape_simnet::SimTime;
use reference::ReferencePacm;

/// The largest store whose decision is compared with the seed engine's.
/// The seed DP allocates one `bool` per object and capacity unit: about
/// 55 MB here, and about 0.88 GB at 16384 objects.
const ORACLE_MAX_OBJECTS: usize = 4096;

#[test]
fn benched_pacm_decisions_match_the_seed_or_are_feasible() {
    // As in the sweep: the window rolls at 60 s and the decision is at 61 s.
    let now = SimTime::from_secs(61);
    let stores = evict_stores(ReproOptions::default().seed);
    assert_eq!(stores.len(), 5, "the testbed-shaped store, then 4 sizes");
    for (store, probe) in &stores {
        for fairness in [true, false] {
            let mut policy = PacmPolicy::new(PacmConfig::default());
            if !fairness {
                policy = policy.without_fairness();
            }
            evict_training(|app| policy.note_request(app));
            policy.roll_window(SimTime::from_secs(60));
            let victims = policy.select_victims(store, probe, now);
            let case = format!("{} objects, fairness {fairness}", store.len());
            assert!(!victims.is_empty(), "{case}: the probe must evict");

            if store.len() <= ORACLE_MAX_OBJECTS {
                let mut oracle = ReferencePacm::new(PacmConfig::default());
                if !fairness {
                    oracle = oracle.without_fairness();
                }
                evict_training(|app| oracle.note_request(app));
                oracle.roll_window(SimTime::from_secs(60));
                assert_eq!(
                    victims,
                    oracle.select_victims(store, probe, now),
                    "{case}: the optimized engine diverged from the seed"
                );
            } else {
                assert_feasible(&policy, store, probe, &victims, fairness, &case);
            }
        }
    }
}

/// PACM's constraints on the kept set: it fits beside the incoming object,
/// and with fairness its per-app storage-efficiency Gini is at most θ
/// unless a single app is left.
fn assert_feasible(
    policy: &PacmPolicy,
    store: &CacheStore,
    probe: &ObjectMeta,
    victims: &[UrlHash],
    fairness: bool,
    case: &str,
) {
    let mut evicted = victims.to_vec();
    evicted.sort_unstable();
    let mut kept_bytes = 0u64;
    let mut per_app: BTreeMap<AppId, u64> = BTreeMap::new();
    for e in store.iter() {
        if evicted.binary_search(&e.meta.key).is_err() {
            kept_bytes += e.meta.size;
            *per_app.entry(e.meta.app).or_insert(0) += e.meta.size;
        }
    }
    assert!(
        kept_bytes + probe.size <= store.capacity(),
        "{case}: kept {kept_bytes} B + incoming {} B exceed the {} B store",
        probe.size,
        store.capacity()
    );
    if fairness {
        let theta = policy.config().fairness_theta;
        let shares: Vec<f64> = per_app
            .iter()
            .map(|(&app, &bytes)| bytes as f64 / policy.rate(app).max(pacm::MIN_RATE))
            .collect();
        let f = gini(&shares);
        assert!(
            f <= theta || per_app.len() <= 1,
            "{case}: kept set's Gini {f} exceeds θ = {theta} over {} apps",
            per_app.len()
        );
    }
}
