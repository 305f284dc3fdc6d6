//! Cross-crate integration tests: full-stack behaviors of the assembled
//! testbed that no single crate can exercise alone.

use ape_appdag::DummyAppConfig;
use ape_nodes::{ApNode, LookupMode, WiCacheControllerNode};
use ape_proto::names;
use ape_simnet::SimDuration;
use ape_workload::ScheduleConfig;
use apecache::{build, collect, run_system, synthetic_suite, System, TestbedConfig};

fn config(system: System, apps: usize, minutes: u64) -> TestbedConfig {
    let suite = synthetic_suite(apps, &DummyAppConfig::default(), 11);
    let mut config = TestbedConfig::new(system, suite);
    config.schedule = ScheduleConfig {
        apps,
        avg_per_minute: 3.0,
        zipf_exponent: 0.8,
        duration: SimDuration::from_mins(minutes),
    };
    config
}

#[test]
fn delegations_populate_the_ap_cache() {
    let cfg = config(System::ApeCache, 5, 5);
    let mut bed = build(&cfg);
    assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 0);
    bed.world.run_for(SimDuration::from_mins(5));
    let ap = bed.world.node::<ApNode>(bed.ap);
    assert!(ap.cached_objects() > 10, "cached {}", ap.cached_objects());
    assert!(ap.cached_bytes() > 100_000, "bytes {}", ap.cached_bytes());
    assert!(
        ap.cached_bytes() <= 5_000_000,
        "capacity respected: {}",
        ap.cached_bytes()
    );
    // Delegations and subsequent hits both happened.
    let m = bed.world.metrics();
    assert!(m.counter(names::AP_DELEGATIONS) > 0);
    assert!(m.counter(names::AP_CACHE_HITS) > 0);
    assert!(m.counter(names::AP_DNS_CACHE_QUERIES) > 0);
}

#[test]
fn short_circuit_fires_once_objects_are_cached() {
    let cfg = config(System::ApeCache, 5, 10);
    let mut result = run_system(&cfg, SimDuration::from_mins(10));
    assert!(
        result.metrics.counter(names::AP_SHORT_CIRCUITS) > 0,
        "short-circuit fired"
    );
    // The summary is well-formed.
    let s = result.summary();
    assert!(s.executions > 50);
    assert!((0.0..=1.0).contains(&s.hit_ratio));
}

#[test]
fn wicache_controller_learns_placements() {
    let cfg = config(System::WiCache, 5, 5);
    let mut bed = build(&cfg);
    bed.world.run_for(SimDuration::from_mins(5));
    let controller_id = bed.controller.expect("wicache testbed has a controller");
    let controller = bed.world.node::<WiCacheControllerNode>(controller_id);
    assert!(controller.lookups() > 0, "clients consulted the controller");
    assert!(controller.hits() > 0, "placements resolved lookups");
    assert!(
        controller.placement_count() > 0,
        "AP advertisements registered"
    );
    let result = collect(System::WiCache, &mut bed);
    assert!(
        result.report.hit_ratio() > 0.3,
        "hit ratio {}",
        result.report.hit_ratio()
    );
}

#[test]
fn edge_cache_never_touches_the_ap_cache() {
    let cfg = config(System::EdgeCache, 5, 5);
    let mut bed = build(&cfg);
    bed.world.run_for(SimDuration::from_mins(5));
    assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 0);
    let result = collect(System::EdgeCache, &mut bed);
    assert_eq!(result.report.hits, 0);
    assert!(result.report.requests > 100);
    assert_eq!(result.report.failures, 0);
}

#[test]
fn standalone_lookup_mode_is_slower_than_piggybacked() {
    let mut piggy_cfg = config(System::ApeCache, 5, 8);
    piggy_cfg.lookup_mode = LookupMode::Piggybacked;
    let mut standalone_cfg = config(System::ApeCache, 5, 8);
    standalone_cfg.lookup_mode = LookupMode::Standalone;

    let mut piggy = run_system(&piggy_cfg, SimDuration::from_mins(8));
    let mut standalone = run_system(&standalone_cfg, SimDuration::from_mins(8));
    let p = piggy.summary();
    let s = standalone.summary();
    assert!(
        s.lookup_ms > p.lookup_ms + 2.0,
        "standalone {:.2} vs piggybacked {:.2}",
        s.lookup_ms,
        p.lookup_ms
    );
    // Both still function correctly.
    assert_eq!(s.failures, 0);
    assert!(s.hit_ratio > 0.3);
}

#[test]
fn identical_configs_produce_identical_runs() {
    let run = |seed: u64| {
        let mut cfg = config(System::ApeCache, 8, 5);
        cfg.seed = seed;
        let mut result = run_system(&cfg, SimDuration::from_mins(5));
        let s = result.summary();
        (
            s.executions,
            s.hit_ratio.to_bits(),
            s.app_latency_ms.to_bits(),
            s.lookup_ms.to_bits(),
            result.metrics.counter(names::NET_MESSAGES),
        )
    };
    assert_eq!(run(1), run(1), "same seed, same world");
    assert_ne!(run(1), run(2), "different seed, different world");
}

#[test]
fn cold_edge_warms_through_origin() {
    let mut cfg = config(System::EdgeCache, 4, 5);
    cfg.prewarm_edge = false;
    let result = run_system(&cfg, SimDuration::from_mins(5));
    assert!(
        result.metrics.counter(names::EDGE_ORIGIN_FETCHES) > 0,
        "cold edge filled from origin"
    );
    assert_eq!(result.report.failures, 0);
}

#[test]
fn ap_resources_are_sampled_and_bounded() {
    let cfg = config(System::ApeCache, 10, 5);
    let result = run_system(&cfg, SimDuration::from_mins(5));
    let cpu = result.metrics.time_series(names::AP_CPU).expect("sampled");
    assert!(cpu.len() >= 290, "samples {}", cpu.len());
    assert!(cpu.points().iter().all(|(_, v)| (0.0..=1.0).contains(v)));
    let mem = result
        .metrics
        .time_series(names::AP_APE_MEM_MB)
        .expect("sampled");
    assert!(mem.max() < 15.0, "ape memory {:.1} MB", mem.max());
}

#[test]
fn per_app_latencies_cover_every_app() {
    let cfg = config(System::ApeCache, 6, 8);
    let mut result = run_system(&cfg, SimDuration::from_mins(8));
    let s = result.summary();
    assert_eq!(
        s.per_app_latency_ms.len(),
        6,
        "{:?}",
        s.per_app_latency_ms.keys()
    );
    for (name, (avg, p95)) in &s.per_app_latency_ms {
        assert!(*avg > 0.0, "{name} avg");
        // Nearest-rank p95 can dip just below a heavily right-skewed mean,
        // but never collapse relative to it.
        assert!(*p95 > avg * 0.8, "{name} p95 {p95} vs avg {avg}");
    }
}

#[test]
fn prefetch_extension_raises_hit_ratio() {
    // Extension (paper §VI): shipping request-dependency information to
    // the AP should convert would-be delegations into hits.
    let base = config(System::ApeCache, 10, 8);
    let mut with_prefetch = base.clone();
    with_prefetch.prefetch_hints = true;

    let mut plain = run_system(&base, SimDuration::from_mins(8));
    let mut prefetched = run_system(&with_prefetch, SimDuration::from_mins(8));
    let p = plain.summary();
    let q = prefetched.summary();
    assert!(
        prefetched.metrics.counter(names::AP_PREFETCHES) > 0,
        "prefetches happened"
    );
    assert!(
        q.hit_ratio >= p.hit_ratio,
        "prefetching must not hurt: {:.3} vs {:.3}",
        q.hit_ratio,
        p.hit_ratio
    );
    assert!(
        q.app_latency_ms <= p.app_latency_ms * 1.02,
        "latency with prefetch {:.1} vs without {:.1}",
        q.app_latency_ms,
        p.app_latency_ms
    );
    assert_eq!(q.failures, 0);
}

#[test]
fn the_event_queue_holds_what_is_in_flight() {
    // The benchmark testbed's eight hours: 30 apps × 3 a minute × 480
    // minutes ≈ 43 200 executions. Clients arm their schedules as timer
    // series, so after start the queue holds each node's next instant and
    // periodic ticks, not the whole run.
    let cfg = config(System::ApeCache, 30, 480);
    let mut bed = build(&cfg);
    assert!(bed.scheduled > 40_000, "scheduled {}", bed.scheduled);
    bed.world.run_for(SimDuration::ZERO);
    let pending = bed.world.pending_events();
    assert!(
        pending <= 4 * bed.world.node_count(),
        "{pending} events pending for {} nodes after start",
        bed.world.node_count()
    );
}
