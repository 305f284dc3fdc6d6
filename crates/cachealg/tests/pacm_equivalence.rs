//! Equivalence proofs for the incremental PACM eviction engine.
//!
//! The optimized `PacmPolicy::select_victims` (reusable workspace,
//! certified cover search with the plain DP as its fallback, pre-solver
//! reductions, incremental fairness repair) must return **byte-identical
//! victim lists** — same keys, same order — as the frozen seed
//! implementation in `support/reference.rs`, on every input. These tests
//! pin that claim on randomized stores (sizes, priorities, TTLs incl.
//! expired, app mixes, trained frequencies, θ and granularity choices),
//! stores whose app ids straddle the dense id table, fairness bounds set
//! within an ulp or two of the kept set's Gini, plus a golden regression
//! on a seeded 1 000-object store, a brim-full store probed with small,
//! typical and maximal admissions, a store of more than 4 096 small
//! objects, and a store of identical objects that the search declines and
//! the DP decides.

use std::collections::BTreeMap;

#[path = "support/reference.rs"]
mod reference;

use ape_cachealg::pacm::MIN_RATE;
use ape_cachealg::{
    gini, solve_exact_in, solve_in, AppId, CacheStore, EvictionPolicy, KnapsackItem,
    KnapsackWorkspace, ObjectMeta, PacmConfig, PacmPolicy, Priority,
};
use ape_check::{check, Gen};
use ape_dnswire::UrlHash;
use ape_simnet::{SimDuration, SimTime};
use reference::{solve_exact_seed, ReferencePacm};

fn object(g: &mut Gen, max_size: u64) -> ObjectMeta {
    ObjectMeta {
        key: UrlHash(g.u64()),
        app: AppId::new(g.range(0u32..8)),
        size: g.range(0u64..max_size),
        priority: g.pick(&[Priority::LOW, Priority::HIGH]),
        // Expiry in absolute seconds; `now` is 61, so a chunk is expired.
        expires_at: SimTime::from_secs(g.range(0u64..3600)),
        fetch_latency: SimDuration::from_millis(g.range(0u64..120)),
    }
}

/// Granularities both tests sweep: exact, odd, and the simulator's 1 kB.
const GRANULARITIES: [u64; 3] = [1, 7, 1024];

/// Draws one PACM instance (store contents, training traffic, config),
/// runs it through both engines and returns their victim lists.
fn run_both(g: &mut Gen) -> (Vec<Vec<UrlHash>>, Vec<Vec<UrlHash>>) {
    let capacity = g.range(20_000u64..120_000);
    // Objects that would not fit are skipped (the generator is oblivious
    // to capacity), so both policies see the identical store.
    let mut store = CacheStore::new(capacity, capacity);
    for meta in g.vec(0..48, |g| object(g, 9_000)) {
        if meta.size <= store.free() && !store.exceeds_block_threshold(meta.size) {
            store.insert(meta, SimTime::ZERO);
        }
    }
    let incoming = object(g, 60_000);
    let config = PacmConfig {
        fairness_theta: g.pick(&[0.0, 0.05, 0.2, 0.4, 1.0]),
        granularity: g.pick(&GRANULARITIES),
    };
    let mut new_policy = PacmPolicy::new(config);
    let mut seed_policy = ReferencePacm::new(config);
    if g.bool() {
        new_policy = new_policy.without_fairness();
        seed_policy = seed_policy.without_fairness();
    }
    // `(app, request_count)` training before the window roll.
    for (app, count) in g.vec(0..8, |g| (g.range(0u32..8), g.range(0u8..40))) {
        for _ in 0..count {
            new_policy.note_request(AppId::new(app));
            seed_policy.note_request(AppId::new(app));
        }
    }
    new_policy.roll_window(SimTime::from_secs(60));
    seed_policy.roll_window(SimTime::from_secs(60));

    let now = SimTime::from_secs(61);
    // Two consecutive selects: the second proves workspace/buffer reuse
    // leaves no state behind that could change the answer.
    let new_victims: Vec<Vec<UrlHash>> = (0..2)
        .map(|_| new_policy.select_victims(&store, &incoming, now))
        .collect();
    let seed_victims: Vec<Vec<UrlHash>> = (0..2)
        .map(|_| seed_policy.select_victims(&store, &incoming, now))
        .collect();
    (new_victims, seed_victims)
}

// The tentpole claim: optimized and seed PACM pick byte-identical
// victim lists (same keys, same order) across randomized instances.
#[test]
fn victim_sets_match_seed() {
    check("victim_sets_match_seed", 220, |g| {
        let (new_victims, seed_victims) = run_both(g);
        assert_eq!(&new_victims[0], &seed_victims[0]);
        assert_eq!(&new_victims[1], &seed_victims[1]);
        assert_eq!(&new_victims[0], &new_victims[1]);
    });
}

/// Both engines under `config`, fed `(app, requests)` and rolled at 60 s.
fn trained(config: PacmConfig, requests: &[(u32, u8)]) -> (PacmPolicy, ReferencePacm) {
    let mut policy = PacmPolicy::new(config);
    let mut seed_policy = ReferencePacm::new(config);
    for &(app, count) in requests {
        for _ in 0..count {
            policy.note_request(AppId::new(app));
            seed_policy.note_request(AppId::new(app));
        }
    }
    policy.roll_window(SimTime::from_secs(60));
    seed_policy.roll_window(SimTime::from_secs(60));
    (policy, seed_policy)
}

/// App ids on both sides of the policy's dense id table (`1 << 16`): a
/// store holding any id at or above it finds apps by search instead.
const MIXED_IDS: [u32; 8] = [0, 3, 7, 65_535, 65_536, 70_001, 1 << 24, u32::MAX];

// Stores whose apps are drawn from `MIXED_IDS`: most hold a sparse id, a
// few only dense ones, and both engines must agree on every one.
#[test]
fn sparse_app_ids_match_seed() {
    let mut sparse = 0;
    check("sparse_app_ids_match_seed", 160, |g| {
        let mut store = CacheStore::new(g.range(20_000u64..80_000), 500_000);
        for mut meta in g.vec(4..40, |g| object(g, 6_000)) {
            meta.app = AppId::new(g.pick(&MIXED_IDS));
            if meta.size <= store.free() {
                store.insert(meta, SimTime::ZERO);
            }
        }
        sparse += usize::from(store.app_totals().keys().any(|a| a.get() >= 1 << 16));
        let config = PacmConfig {
            fairness_theta: g.pick(&[0.0, 0.05, 0.2, 0.4]),
            granularity: g.pick(&GRANULARITIES),
        };
        let requests = g.vec(0..8, |g| (g.pick(&MIXED_IDS), g.range(0u8..40)));
        let (mut policy, mut seed_policy) = trained(config, &requests);
        let incoming = object(g, 30_000);
        let now = SimTime::from_secs(61);
        assert_eq!(
            policy.select_victims(&store, &incoming, now),
            seed_policy.select_victims(&store, &incoming, now)
        );
    });
    assert!(
        sparse >= 100,
        "only {sparse} of 160 stores held a sparse id"
    );
}

/// The Gini a fairness check of the seed computes once `evicted` are
/// gone: per-app storage efficiency of the rest, in app order.
fn kept_gini(store: &CacheStore, policy: &PacmPolicy, evicted: &[UrlHash]) -> f64 {
    let mut kept: BTreeMap<AppId, u64> = BTreeMap::new();
    for e in store.iter() {
        if !evicted.contains(&e.meta.key) {
            *kept.entry(e.meta.app).or_insert(0) += e.meta.size;
        }
    }
    let shares: Vec<f64> = kept
        .iter()
        .map(|(&app, &bytes)| bytes as f64 / policy.rate(app).max(MIN_RATE))
        .collect();
    gini(&shares)
}

// θ on the Gini of a fairness check, and one and two ulps either side:
// the first check, which PACM decides by a sort-free estimate, and later
// ones, which it decides from its sorted shares by another. An estimate
// that decided this close to θ without the exact sorted form would
// disagree with the seed on one side. The checks are read off the seed's
// repair at θ = 0, which runs until one app is left or all are equal;
// only checks below every earlier one are taken, so a repair bounded by
// their Gini reaches them.
#[test]
fn theta_on_each_repair_check_matches_seed() {
    let (mut first, mut later) = (0, 0);
    check("theta_on_each_repair_check_matches_seed", 48, |g| {
        let mut store = CacheStore::new(g.range(40_000u64..120_000), 500_000);
        for mut meta in g.vec(8..48, |g| object(g, 6_000)) {
            meta.app = AppId::new(g.range(0u32..24));
            meta.expires_at = SimTime::from_secs(g.range(600u64..3600));
            if meta.size <= store.free() {
                store.insert(meta, SimTime::ZERO);
            }
        }
        let requests = g.vec(4..24, |g| (g.range(0u32..24), g.range(1u8..40)));
        let granularity = g.pick(&GRANULARITIES);
        let config = |fairness_theta| PacmConfig {
            fairness_theta,
            granularity,
        };
        let incoming = object(g, 30_000);
        let now = SimTime::from_secs(61);

        let (probe, mut seed_policy) = trained(config(0.0), &requests);
        let evicted = seed_policy.select_victims(&store, &incoming, now);
        let knapsack = trained(config(0.0), &requests)
            .1
            .without_fairness()
            .select_victims(&store, &incoming, now);
        let mut lowest = f64::INFINITY;
        for check in knapsack.len()..evicted.len() {
            let at = kept_gini(&store, &probe, &evicted[..check]);
            if at >= lowest || at <= 0.0 {
                continue;
            }
            lowest = at;
            for ulps in -2i64..=2 {
                let theta = f64::from_bits(at.to_bits().wrapping_add_signed(ulps));
                let (mut policy, mut seed_policy) = trained(config(theta), &requests);
                let victims = seed_policy.select_victims(&store, &incoming, now);
                assert_eq!(
                    policy.select_victims(&store, &incoming, now),
                    victims,
                    "θ = check {} Gini {at} {ulps:+} ulps",
                    check - knapsack.len()
                );
                if ulps == 0 {
                    assert_eq!(victims.len(), check, "the repair stops at its check");
                }
            }
            if check == knapsack.len() {
                first += 1;
            } else {
                later += 1;
            }
        }
    });
    assert!(
        first >= 40 && later >= 200,
        "θ sat on {first} first checks and {later} later ones"
    );
}

// Workspace DP and PACM's solver (certified or not) vs the seed DP:
// identical keep vectors and totals, including zero-weight/zero-value
// items, coarse granularity and, with values in sixteenths, many ties.
#[test]
fn workspace_dp_matches_seed_dp() {
    check("workspace_dp_matches_seed_dp", 220, |g| {
        let items = g.vec(0..40, |g| KnapsackItem {
            weight: g.range(0u64..5_000),
            value: f64::from(g.range(0u32..400)) / 16.0,
        });
        let capacity = g.range(0u64..60_000);
        let granularity = g.pick(&GRANULARITIES);
        let seed = solve_exact_seed(&items, capacity, granularity);
        let mut ws = KnapsackWorkspace::new();
        let (value, weight) = solve_exact_in(&mut ws, &items, capacity, granularity);
        assert_eq!(ws.keep(), seed.keep.as_slice());
        assert_eq!(value.to_bits(), seed.total_value.to_bits());
        assert_eq!(weight, seed.total_weight);
        let solved = solve_in(&mut ws, &items, capacity, granularity);
        assert_eq!(ws.keep(), seed.keep.as_slice());
        assert_eq!(solved.total_value.to_bits(), seed.total_value.to_bits());
        assert_eq!(solved.total_weight, seed.total_weight);
    });
}

/// Deterministic 1 000-object store used by the golden regression.
fn golden_store() -> (CacheStore, ObjectMeta) {
    let mut state = 0xA5A5_5A5A_1234_5678u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut store = CacheStore::new(5_000_000, 500_000);
    let mut inserted = 0u32;
    while inserted < 1_000 {
        let meta = ObjectMeta {
            key: UrlHash(next()),
            app: AppId::new((next() % 30) as u32),
            size: next() % 6_000 + 200,
            priority: if next() % 5 < 2 {
                Priority::HIGH
            } else {
                Priority::LOW
            },
            expires_at: SimTime::from_secs(next() % 3000 + 30),
            fetch_latency: SimDuration::from_millis(next() % 90 + 5),
        };
        if meta.size <= store.free() {
            store.insert(meta, SimTime::ZERO);
            inserted += 1;
        }
    }
    let incoming = ObjectMeta {
        key: UrlHash::of("golden-incoming"),
        app: AppId::new(3),
        size: 80_000,
        priority: Priority::HIGH,
        expires_at: SimTime::from_secs(4000),
        fetch_latency: SimDuration::from_millis(40),
    };
    (store, incoming)
}

fn fnv1a(victims: &[UrlHash]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for v in victims {
        for byte in v.0.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

/// Golden-victims regression: the exact victim list on a fixed seeded
/// 1 000-object store, pinned by count and FNV-1a digest. Any change to
/// utilities, solver order, reductions, or repair semantics trips this.
#[test]
fn golden_victims_on_seeded_store() {
    let (store, incoming) = golden_store();
    let mut policy = PacmPolicy::new(PacmConfig::default());
    for i in 0..600u32 {
        policy.note_request(AppId::new(i % 7));
    }
    policy.roll_window(SimTime::from_secs(60));
    let victims = policy.select_victims(&store, &incoming, SimTime::from_secs(61));

    // Pinned from the frozen seed implementation (ReferencePacm agrees).
    let mut seed_policy = ReferencePacm::new(PacmConfig::default());
    for i in 0..600u32 {
        seed_policy.note_request(AppId::new(i % 7));
    }
    seed_policy.roll_window(SimTime::from_secs(60));
    let seed_victims = seed_policy.select_victims(&store, &incoming, SimTime::from_secs(61));
    assert_eq!(victims, seed_victims);

    assert_eq!(
        victims.len(),
        GOLDEN_VICTIM_COUNT,
        "victim count drifted (digest {:#018x})",
        fnv1a(&victims)
    );
    assert_eq!(
        fnv1a(&victims),
        GOLDEN_VICTIM_DIGEST,
        "victim list digest drifted"
    );
}

const GOLDEN_VICTIM_COUNT: usize = 16;
const GOLDEN_VICTIM_DIGEST: u64 = 0x98d651e184d6cfe3;

/// The shape the simulator produces: a 5 MB store filled to the brim, one
/// admission that does not fit. The incoming size sets the overflow the
/// solver must cover (about `size / granularity` units), so 1 kB, 40 kB
/// and 490 kB cover an overflow of a few units, the testbed's typical
/// one, and the widest a 500 kB block threshold admits. One policy pair
/// serves all three, widest last and then narrowest again, so reused
/// buffers hold stale state from a larger solve.
#[test]
fn eviction_shaped_stores_match_seed() {
    let mut state = 0x1357_9BDF_0246_8ACEu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut store = CacheStore::new(5_000_000, 500_000);
    while store.free() >= 1_000 {
        store.insert(
            ObjectMeta {
                key: UrlHash(next()),
                app: AppId::new((next() % 30) as u32),
                size: (next() % 59_000 + 1_000).min(store.free()),
                priority: if next() % 5 < 2 {
                    Priority::HIGH
                } else {
                    Priority::LOW
                },
                // Nothing expired at t = 61 s: expired bytes would let the
                // 1 kB admission through without a solve.
                expires_at: SimTime::from_secs(next() % 3000 + 100),
                fetch_latency: SimDuration::from_millis(next() % 90 + 5),
            },
            SimTime::ZERO,
        );
    }

    let mut policy = PacmPolicy::new(PacmConfig::default());
    let mut seed_policy = ReferencePacm::new(PacmConfig::default());
    for i in 0..900u32 {
        policy.note_request(AppId::new(i % 23));
        seed_policy.note_request(AppId::new(i % 23));
    }
    policy.roll_window(SimTime::from_secs(60));
    seed_policy.roll_window(SimTime::from_secs(60));

    let now = SimTime::from_secs(61);
    for size in [1_000u64, 40_000, 490_000, 1_000] {
        let incoming = ObjectMeta {
            key: UrlHash::of("eviction-shaped-incoming"),
            app: AppId::new(3),
            size,
            priority: Priority::HIGH,
            expires_at: SimTime::from_secs(4000),
            fetch_latency: SimDuration::from_millis(40),
        };
        let victims = policy.select_victims(&store, &incoming, now);
        assert!(!victims.is_empty(), "incoming {size} B must not fit");
        assert_eq!(
            victims,
            seed_policy.select_victims(&store, &incoming, now),
            "incoming {size} B"
        );
    }
    let stats = policy.stats();
    assert_eq!(
        stats.certified + stats.dp_runs,
        4,
        "every case must reach the solver: {stats:?}"
    );
}

/// More objects than the 4 096 above which the seed switched to a greedy
/// solver: 5 000 objects of 100–700 B fill a store exactly, so the seed
/// DP's `items × capacity_units` choice matrix stays near 10 MB. Each
/// object rounds up to one 1 kB unit, so the survivors overflow the
/// capacity; the certified search decides, and its victims are the seed
/// DP's.
#[test]
fn stores_beyond_the_old_greedy_cutover_match_seed() {
    let mut state = 0x2468_ACE0_1357_9BDFu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let objects: Vec<ObjectMeta> = (0..5_000)
        .map(|_| ObjectMeta {
            key: UrlHash(next()),
            app: AppId::new((next() % 12) as u32),
            size: next() % 601 + 100,
            priority: if next() % 5 < 2 {
                Priority::HIGH
            } else {
                Priority::LOW
            },
            expires_at: SimTime::from_secs(next() % 3000 + 100),
            fetch_latency: SimDuration::from_millis(next() % 90 + 5),
        })
        .collect();
    let mut store = CacheStore::new(objects.iter().map(|m| m.size).sum(), 500_000);
    for meta in objects {
        store.insert(meta, SimTime::ZERO);
    }
    assert_eq!(store.len(), 5_000);

    let mut policy = PacmPolicy::new(PacmConfig::default());
    let mut seed_policy = ReferencePacm::new(PacmConfig::default());
    for i in 0..500u32 {
        policy.note_request(AppId::new(i % 9));
        seed_policy.note_request(AppId::new(i % 9));
    }
    policy.roll_window(SimTime::from_secs(60));
    seed_policy.roll_window(SimTime::from_secs(60));

    let incoming = ObjectMeta {
        key: UrlHash::of("many-small-incoming"),
        app: AppId::new(3),
        size: 20_000,
        priority: Priority::HIGH,
        expires_at: SimTime::from_secs(4000),
        fetch_latency: SimDuration::from_millis(40),
    };
    let now = SimTime::from_secs(61);
    let victims = policy.select_victims(&store, &incoming, now);
    assert!(!victims.is_empty());
    assert_eq!(victims, seed_policy.select_victims(&store, &incoming, now));
    let stats = policy.stats();
    assert_eq!(
        (stats.certified, stats.dp_runs),
        (1, 0),
        "the search decides a 5 000-object store: {stats:?}"
    );
}

/// Forty identical objects (same app, size, TTL, latency and priority):
/// every cover of the overflow costs the same, so the search declines the
/// tie and the DP decides, by its strict `>` in item order. Its victims
/// must be the seed's.
#[test]
fn a_tie_the_search_declines_is_decided_by_the_dp_as_the_seed_decides() {
    let mut store = CacheStore::new(40_000, 500_000);
    for i in 0..40 {
        store.insert(
            ObjectMeta {
                key: UrlHash::of(&format!("tie/{i}")),
                app: AppId::new(5),
                size: 1_000,
                priority: Priority::HIGH,
                expires_at: SimTime::from_secs(3600),
                fetch_latency: SimDuration::from_millis(30),
            },
            SimTime::ZERO,
        );
    }
    let incoming = ObjectMeta {
        key: UrlHash::of("tie-incoming"),
        app: AppId::new(2),
        size: 2_500,
        priority: Priority::HIGH,
        expires_at: SimTime::from_secs(3600),
        fetch_latency: SimDuration::from_millis(30),
    };
    let (mut policy, mut seed_policy) = trained(PacmConfig::default(), &[(5, 20), (2, 5)]);
    let now = SimTime::from_secs(61);
    let victims = policy.select_victims(&store, &incoming, now);
    // 37 500 B hold 36 one-unit objects of the 40.
    assert_eq!(victims.len(), 4);
    assert_eq!(victims, seed_policy.select_victims(&store, &incoming, now));
    let stats = policy.stats();
    assert_eq!(
        (stats.certified, stats.dp_runs),
        (0, 1),
        "the tie goes to the DP: {stats:?}"
    );
}

/// A policy keeps no view of a store between calls: after selecting on
/// one store it picks, on another of the same object count and bytes but
/// another app, what a fresh policy picks there.
#[test]
fn a_policy_that_saw_one_store_picks_on_another_as_a_fresh_one() {
    let store_of = |app| {
        let mut store = CacheStore::new(10_000, 500_000);
        for key in 0..10 {
            store.insert(
                ObjectMeta {
                    key: UrlHash(key),
                    app: AppId::new(app),
                    size: 1_000,
                    priority: Priority::LOW,
                    expires_at: SimTime::from_secs(3600),
                    fetch_latency: SimDuration::from_millis(30),
                },
                SimTime::ZERO,
            );
        }
        store
    };
    let incoming = ObjectMeta {
        key: UrlHash(99),
        app: AppId::new(2),
        size: 1_000,
        priority: Priority::HIGH,
        expires_at: SimTime::from_secs(3600),
        fetch_latency: SimDuration::from_millis(30),
    };
    let now = SimTime::from_secs(61);
    let (first, second) = (store_of(1), store_of(7));
    let mut seasoned = PacmPolicy::new(PacmConfig::default());
    assert!(!seasoned.select_victims(&first, &incoming, now).is_empty());
    let victims = seasoned.select_victims(&second, &incoming, now);
    let mut fresh = PacmPolicy::new(PacmConfig::default());
    assert_eq!(victims, fresh.select_victims(&second, &incoming, now));
    let mut seed_policy = ReferencePacm::new(PacmConfig::default());
    assert_eq!(victims, seed_policy.select_victims(&second, &incoming, now));
}
