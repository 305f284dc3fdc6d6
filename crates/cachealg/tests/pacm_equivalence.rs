//! Equivalence proofs for the incremental PACM eviction engine.
//!
//! The optimized `PacmPolicy::select_victims` (reusable workspace,
//! band-relative DP, pre-solver reductions, incremental fairness
//! repair) must return **byte-identical victim lists** — same keys, same
//! order — as the frozen seed implementation preserved in
//! `ape_cachealg::reference`, on every input. These tests pin that claim on
//! randomized stores (sizes, priorities, TTLs incl. expired, app mixes,
//! trained frequencies, θ and granularity choices, both solver paths) plus
//! a golden regression on a seeded 1 000-object store and a brim-full store
//! probed with small, typical and maximal admissions.

use ape_cachealg::reference::{solve_exact_seed, ReferencePacm};
use ape_cachealg::{
    solve_exact_in, AppId, CacheStore, KnapsackItem, KnapsackWorkspace, ObjectMeta, PacmConfig,
    PacmPolicy, Priority,
};
use ape_dnswire::UrlHash;
use ape_simnet::{SimDuration, SimTime};
use proptest::prelude::*;

/// One randomized PACM instance: store contents, training traffic, config.
#[derive(Debug, Clone)]
struct Instance {
    capacity: u64,
    objects: Vec<ObjectMeta>,
    /// `(app, request_count)` training before the window roll.
    training: Vec<(u32, u8)>,
    incoming: ObjectMeta,
    theta: f64,
    granularity: u64,
    max_dp_items: usize,
    fairness: bool,
}

fn arb_object(max_size: u64) -> impl Strategy<Value = ObjectMeta> {
    (
        any::<u64>(),
        0u32..8,
        0u64..max_size,
        prop_oneof![Just(Priority::LOW), Just(Priority::HIGH)],
        // Expiry in absolute seconds; `now` is 61, so a chunk is expired.
        0u64..3600,
        0u64..120,
    )
        .prop_map(|(key, app, size, priority, expires_s, lat_ms)| ObjectMeta {
            key: UrlHash(key),
            app: AppId::new(app),
            size,
            priority,
            expires_at: SimTime::from_secs(expires_s),
            fetch_latency: SimDuration::from_millis(lat_ms),
        })
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        20_000u64..120_000,
        proptest::collection::vec(arb_object(9_000), 0..48),
        proptest::collection::vec((0u32..8, 0u8..40), 0..8),
        arb_object(60_000),
        prop_oneof![Just(0.0), Just(0.05), Just(0.2), Just(0.4), Just(1.0)],
        prop_oneof![Just(1u64), Just(7), Just(1024)],
        // Small cap forces the greedy path on larger instances.
        prop_oneof![Just(4usize), Just(4096)],
        any::<bool>(),
    )
        .prop_map(
            |(
                capacity,
                objects,
                training,
                incoming,
                theta,
                granularity,
                max_dp_items,
                fairness,
            )| {
                Instance {
                    capacity,
                    objects,
                    training,
                    incoming,
                    theta,
                    granularity,
                    max_dp_items,
                    fairness,
                }
            },
        )
}

/// Builds the store, skipping objects that would not fit (the generator is
/// oblivious to capacity) so both policies see the identical store.
fn build_store(inst: &Instance) -> CacheStore {
    let mut store = CacheStore::new(inst.capacity, inst.capacity);
    for meta in &inst.objects {
        if meta.size <= store.free() && !store.exceeds_block_threshold(meta.size) {
            store.insert(meta.clone(), SimTime::ZERO);
        }
    }
    store
}

fn config_of(inst: &Instance) -> PacmConfig {
    PacmConfig {
        fairness_theta: inst.theta,
        granularity: inst.granularity,
        max_dp_items: inst.max_dp_items,
        ..PacmConfig::default()
    }
}

/// Runs one instance through both engines and returns their victim lists.
fn run_both(inst: &Instance) -> (Vec<Vec<UrlHash>>, Vec<Vec<UrlHash>>) {
    let store = build_store(inst);
    let config = config_of(inst);
    let mut new_policy = PacmPolicy::new(config);
    let mut seed_policy = ReferencePacm::new(config);
    if !inst.fairness {
        new_policy = new_policy.without_fairness();
        seed_policy = seed_policy.without_fairness();
    }
    for &(app, count) in &inst.training {
        for _ in 0..count {
            use ape_cachealg::EvictionPolicy;
            new_policy.note_request(AppId::new(app));
            seed_policy.note_request(AppId::new(app));
        }
    }
    {
        use ape_cachealg::EvictionPolicy;
        new_policy.roll_window(SimTime::from_secs(60));
    }
    seed_policy.roll_window(SimTime::from_secs(60));

    let now = SimTime::from_secs(61);
    // Two consecutive selects: the second proves workspace/buffer reuse
    // leaves no state behind that could change the answer.
    use ape_cachealg::EvictionPolicy;
    let new_victims: Vec<Vec<UrlHash>> = (0..2)
        .map(|_| new_policy.select_victims(&store, &inst.incoming, now))
        .collect();
    let seed_victims: Vec<Vec<UrlHash>> = (0..2)
        .map(|_| seed_policy.select_victims(&store, &inst.incoming, now))
        .collect();
    (new_victims, seed_victims)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(220))]

    // The tentpole claim: optimized and seed PACM pick byte-identical
    // victim lists (same keys, same order) across randomized instances.
    #[test]
    fn victim_sets_match_seed(inst in arb_instance()) {
        let (new_victims, seed_victims) = run_both(&inst);
        prop_assert_eq!(&new_victims[0], &seed_victims[0]);
        prop_assert_eq!(&new_victims[1], &seed_victims[1]);
        prop_assert_eq!(&new_victims[0], &new_victims[1]);
    }

    // Workspace DP vs the seed DP: identical keep vectors and totals,
    // including zero-weight/zero-value items and coarse granularity.
    #[test]
    fn workspace_dp_matches_seed_dp(
        items in proptest::collection::vec(
            (0u64..5_000, 0u32..400).prop_map(|(weight, value)| KnapsackItem {
                weight,
                value: value as f64 / 16.0,
            }),
            0..40,
        ),
        capacity in 0u64..60_000,
        granularity in prop_oneof![Just(1u64), Just(7), Just(1024)],
    ) {
        let seed = solve_exact_seed(&items, capacity, granularity);
        let mut ws = KnapsackWorkspace::new();
        let (value, weight) = solve_exact_in(&mut ws, &items, capacity, granularity);
        prop_assert_eq!(ws.keep(), seed.keep.as_slice());
        prop_assert_eq!(value.to_bits(), seed.total_value.to_bits());
        prop_assert_eq!(weight, seed.total_weight);
    }
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
    use ape_cachealg::EvictionPolicy;
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
/// admission that does not fit. The incoming size sets the DP's band width
/// (about `size / granularity` cells), so 1 kB, 40 kB and 490 kB cover a
/// band of a few cells, the testbed's typical band, and the widest a
/// 500 kB block threshold admits. One policy pair serves all three, widest
/// last and then narrowest again, so reused buffers hold stale wider rows.
#[test]
fn eviction_shaped_stores_match_seed() {
    use ape_cachealg::EvictionPolicy;
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
    assert_eq!(stats.dp_runs, 4, "every case must reach the DP: {stats:?}");
}
