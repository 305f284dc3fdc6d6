//! Allocation budget: a settled fetch costs a bounded number of heap
//! allocations.
//!
//! Identity values (`Url`, `DomainName`) are shared handles with their hash
//! and text length cached at construction, and wire sizes are arithmetic,
//! so a fetch no longer formats or deep-copies them at every hop. Before
//! that a fetch cost 70–82 allocations, then 9–13; with each fetch's URL
//! built once per run (`ClientApps`) it cost 7–10. The DNS-Cache round
//! trip now moves its tuples instead of copying them (no request-hash
//! `Vec`, no flag `BTreeMap` per answer, no per-answer waiter list) and
//! `Msg::HttpReq` carries its request inline: 4.8 on the LRU testbed, 5.3
//! on the PACM testbed and 4.8 on the 16-AP city (run with `--nocapture`
//! to see the three numbers). The budget of 8 — the worst reading plus
//! about three — is close enough that a few new allocations per fetch —
//! one per hop, or per-element work on an admission — fail here and do not
//! hide in the headroom.
//!
//! The counting `#[global_allocator]` lives here because integration tests
//! are outside the library crates' `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ape_appdag::DummyAppConfig;
use ape_proto::{names, Msg};
use ape_simnet::{SimDuration, World};
use ape_workload::ScheduleConfig;
use apecache::{
    build, build_topology, paper_suite, synthetic_suite, System, TestbedConfig, TopologyConfig,
};

/// Allocations allowed per issued fetch.
const BUDGET: f64 = 8.0;

/// Untimed lead-in: caches fill, lazily registered metrics and pending maps
/// reach their steady capacity.
const WARMUP: SimDuration = SimDuration::from_mins(5);

/// The counted phase.
const MEASURED: SimDuration = SimDuration::from_mins(10);

struct CountingAlloc;

// Statistics only: no other data is published through these, so every
// access is `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter never
// touches the returned memory or the layout.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from the system allocator with this layout.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from the system allocator with this layout.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `world` through the warm-up, then counts allocations per
/// `client.fetches` over the measured phase.
fn allocs_per_fetch(world: &mut World<Msg>) -> f64 {
    world.run_for(WARMUP);
    let fetches_before = world.metrics().counter(names::CLIENT_FETCHES);
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    world.run_for(MEASURED);
    COUNTING.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let fetches = world.metrics().counter(names::CLIENT_FETCHES) - fetches_before;
    assert!(
        fetches > 100,
        "only {fetches} fetches in the measured phase"
    );
    allocs as f64 / fetches as f64
}

/// The Fig. 9 testbed: 30-app suite, default schedule.
fn testbed(system: System) -> TestbedConfig {
    TestbedConfig::new(system, paper_suite(&DummyAppConfig::default(), 42))
}

/// A 16-AP cut of the benchmark's cooperative city: a cache far below the
/// working set, so delegation and peer fetches stay busy.
fn city() -> TopologyConfig {
    let mut base = TestbedConfig::new(
        System::ApeCache,
        synthetic_suite(5, &DummyAppConfig::default(), 42),
    );
    base.schedule = ScheduleConfig {
        apps: 5,
        avg_per_minute: 10.0,
        zipf_exponent: 0.8,
        duration: WARMUP + MEASURED,
    };
    base.ap.cache_capacity = 400_000;
    TopologyConfig::new(base, 16)
        .with_clients_per_ap(2)
        .with_roam_rate(6.0)
}

// One test: the switch and the counter are process-wide, and the harness
// runs separate tests on parallel threads.
#[test]
fn a_fetch_stays_within_its_allocation_budget() {
    let readings = [
        (
            "testbed, LRU",
            allocs_per_fetch(&mut build(&testbed(System::ApeCacheLru)).world),
        ),
        (
            "testbed, PACM",
            allocs_per_fetch(&mut build(&testbed(System::ApeCache)).world),
        ),
        (
            "16-AP cooperative city",
            allocs_per_fetch(&mut build_topology(&city()).world),
        ),
    ];
    for (what, per_fetch) in readings {
        println!("{what}: {per_fetch:.1} allocations per fetch");
        assert!(
            per_fetch <= BUDGET,
            "{what}: {per_fetch:.1} allocations per fetch, budget {BUDGET}"
        );
    }
}
