//! Heap budget: nothing a run holds is held twice, or held before it is
//! due.
//!
//! Two copies used to grow with the city. Every client and AP carried its
//! own deep copy of the run's address map, so the heap a city holds after
//! its build grew per node with the AP count (7.5 kB a node at 16 APs and
//! 16.8 kB at 256, measured as below); now one map is shared. And
//! `collect` cloned the whole metric registry at the end of every run,
//! adding its size again to the live heap at the run's end (+520 kB
//! here); now it moves the registry into the result and adds nothing.
//! Each client also held its whole share of the schedule from the build
//! on (6.3 kB a node); now it draws each execution as the one before it
//! fires, and a node's build heap is 1.0–1.5 kB at either size.
//!
//! The live-bytes `#[global_allocator]` lives here, in its own test
//! binary, because integration tests are outside the library crates'
//! `forbid(unsafe_code)` and the count is process-wide.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use ape_appdag::DummyAppConfig;
use ape_proto::names;
use ape_simnet::{Metrics, SimDuration};
use ape_workload::ScheduleConfig;
use apecache::{
    build, build_topology, collect_topology, run_system, synthetic_suite, System, TestbedConfig,
    TopologyConfig,
};

/// How far a 256-AP city's build heap per node may sit above a 16-AP
/// city's.
const PER_NODE_GROWTH: f64 = 0.10;

/// The most a roaming 256-AP city may hold per node after its build:
/// 3 107 B as measured once clients were handed their schedules as
/// streams, plus 10 %. With every client's share drawn up front as a
/// `Vec` it held 8 153 B, and 12 691 B before that, while every link slot
/// carried its own spec and arrival vector.
const ROAMING_BYTES_PER_NODE: f64 = 3_418.0;

/// How much more the benchmark testbed may hold after its build for an
/// eight-hour schedule than for a half-hour one. The build draws no
/// schedule, so the two differ by nothing the schedule owns; when each
/// client was handed its share as a `Vec`, the eight hours held 737 kB
/// more.
const HORIZON_SLACK_BYTES: i64 = 4_096;

/// What `collect` may add to the live heap, as a share of the registry it
/// hands over.
const COLLECT_SHARE: f64 = 0.01;

struct LiveBytes;

// Statistics only: no other data is published through this, so every
// access is `Relaxed`.
static LIVE: AtomicI64 = AtomicI64::new(0);

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Held by every test for its whole body: the tally is process-wide, and
/// the harness runs separate tests on parallel threads.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the tally never
// touches the returned memory or the layout.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from the system allocator with this layout.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from the system allocator with this layout.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// `alloc_budget.rs`'s cooperative city at `aps` APs: two clients an AP
/// roaming `roam` times a minute, a cache far below the working set.
fn city(aps: usize, roam: f64) -> TopologyConfig {
    let mut base = TestbedConfig::new(
        System::ApeCache,
        synthetic_suite(5, &DummyAppConfig::default(), 42),
    );
    base.schedule = ScheduleConfig {
        apps: 5,
        avg_per_minute: 10.0,
        zipf_exponent: 0.8,
        duration: SimDuration::from_mins(15),
    };
    base.ap.cache_capacity = 400_000;
    TopologyConfig::new(base, aps)
        .with_clients_per_ap(2)
        .with_roam_rate(roam)
}

/// Heap bytes per node that a built (not yet run) city holds. A roaming
/// client is linked to every AP its walk visits, and a walk on a small
/// grid revisits APs where one on a large grid finds new ones, so roaming
/// adds links per node that grow with the grid by design: the growth
/// bound compares cities whose clients stay home.
fn build_bytes_per_node(aps: usize, roam: f64) -> f64 {
    let config = city(aps, roam);
    let before = live();
    let top = build_topology(&config);
    let held = live() - before;
    held as f64 / top.world.node_count() as f64
}

/// The benchmark testbed (30 apps, three clients) with a schedule of
/// `minutes`.
fn testbed(minutes: u64) -> TestbedConfig {
    let suite = synthetic_suite(30, &DummyAppConfig::default(), 42);
    let mut config = TestbedConfig::new(System::ApeCache, suite);
    config.schedule.duration = SimDuration::from_mins(minutes);
    config
}

/// Heap bytes the benchmark testbed holds after its build for a schedule
/// of `minutes`.
fn testbed_build_bytes(minutes: u64) -> i64 {
    let config = testbed(minutes);
    let before = live();
    let _bed = build(&config);
    live() - before
}

/// A registry's names by kind: counters, histograms, series.
fn registered(m: &Metrics) -> [Vec<&str>; 3] {
    [
        m.counter_names().collect(),
        m.histogram_names().collect(),
        m.series_names().collect(),
    ]
}

#[test]
fn a_city_holds_nothing_twice() {
    let _serial = serial();
    let small = build_bytes_per_node(16, 0.0);
    let large = build_bytes_per_node(256, 0.0);
    let roaming = build_bytes_per_node(256, 6.0);
    println!(
        "build heap per node: {small:.0} B at 16 APs, {large:.0} B at 256 APs, \
         {roaming:.0} B at 256 roaming APs"
    );
    assert!(
        large <= small * (1.0 + PER_NODE_GROWTH),
        "a node of a 256-AP city holds {large:.0} B after the build, one of a 16-AP city \
         {small:.0} B: something per node grows with the AP count"
    );
    assert!(
        roaming <= ROAMING_BYTES_PER_NODE,
        "a node of a roaming 256-AP city holds {roaming:.0} B after the build, over the \
         {ROAMING_BYTES_PER_NODE:.0} B bound: the build holds a schedule, or links hold \
         more than a key, a spec index and a reservation handle"
    );

    let short = testbed_build_bytes(30);
    let long = testbed_build_bytes(480);
    println!("testbed build heap: {short} B for 30 sim-min, {long} B for 480");
    assert!(
        long - short <= HORIZON_SLACK_BYTES,
        "the testbed holds {long} B after its build for 480 sim-min and {short} B for 30: \
         the build holds schedule that has not fallen due"
    );

    let mut top = build_topology(&city(16, 6.0));
    top.world.run_for(SimDuration::from_mins(3));
    let before = live();
    let result = collect_topology(System::ApeCache, &mut top);
    let added = live() - before;
    let registry = result.metrics.approx_bytes();
    println!("collect added {added} B for a {registry} B registry");
    assert!(registry > 0 && result.metrics.counter(names::CLIENT_FETCHES) > 0);
    assert!(
        (added as f64) < registry as f64 * COLLECT_SHARE,
        "collect added {added} B to the live heap for a {registry} B registry: \
         the registry is copied, not moved"
    );
    assert_eq!(top.world.metrics().counter_names().count(), 0);
}

/// The metrics plane is fixed-memory: a run four times as long registers
/// the same names and holds the same registry bytes. When a series kept
/// its points, each sample added about 9 B.
#[test]
fn a_registry_does_not_grow_with_the_run() {
    let _serial = serial();
    let [short, long] = [30, 120]
        .map(|minutes| run_system(&testbed(minutes), SimDuration::from_mins(minutes)).metrics);
    assert_eq!(
        registered(&short),
        registered(&long),
        "the runs register different names"
    );
    let samples = |m: &Metrics| m.time_series(names::AP_CPU).map_or(0, |s| s.len());
    assert!(samples(&long) > 3 * samples(&short));
    let (short, long) = (short.approx_bytes(), long.approx_bytes());
    println!("registry: {short} B after 30 sim-min, {long} B after 120");
    assert_eq!(
        short, long,
        "the registry holds more after 120 sim-min than after 30: something in it grows per sample"
    );
}
