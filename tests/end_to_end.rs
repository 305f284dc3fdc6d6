//! Cross-crate integration tests: full-stack behaviors of the assembled
//! testbed that no single crate can exercise alone.

use ape_appdag::DummyAppConfig;
use ape_nodes::{ApNode, WiCacheControllerNode};
use ape_proto::names;
use ape_simnet::{keys, ProfCategory, SimDuration};
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
fn ap_resources_are_sampled_and_bounded() {
    let cfg = config(System::ApeCache, 10, 5);
    let result = run_system(&cfg, SimDuration::from_mins(5));
    let cpu = result.metrics.time_series(names::AP_CPU).expect("sampled");
    assert!(cpu.len() >= 290, "samples {}", cpu.len());
    // Each sample is range-checked where it is taken
    // (`ApNode::sample_resources`); the series keeps only its aggregates.
    assert!(cpu.max() <= 1.0, "cpu max {}", cpu.max());
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
    // minutes ≈ 43 200 executions. A client draws each execution as the
    // one before it fires, so after start the queue holds each node's
    // next timer and periodic ticks, not the whole run; the first ten
    // minutes then run in 1-s slices.
    let cfg = config(System::ApeCache, 30, 480);
    let scheduled = cfg.scheduled_executions();
    assert!(scheduled > 40_000, "scheduled {scheduled}");
    let mut bed = build(&cfg);
    bed.world.run_for(SimDuration::ZERO);
    let nodes = bed.world.node_count();
    let pending = bed.world.pending_events();
    assert!(
        pending <= 4 * nodes,
        "{pending} events pending for {nodes} nodes after start"
    );
    // A settled fetch, DNS query or resolution cancels its timers, so
    // while the run goes on the queue holds a few events a node, not a
    // watchdog for every fetch of the last few seconds.
    let mut peak = 0;
    for _ in 0..600 {
        bed.world.run_for(SimDuration::from_secs(1));
        peak = peak.max(bed.world.pending_events());
    }
    assert!(
        peak <= 3 * nodes,
        "{peak} events pending at a 1-s boundary for {nodes} nodes"
    );
}

#[test]
fn the_profiler_counts_what_the_benchmark_divides_by() {
    // `benchmark/` turns the profiler's host time into per-call and
    // per-fetch figures by these call counts, so each must count the work
    // it is named for; and profiling must not move the run.
    let mut cfg = config(System::ApeCache, 10, 3);
    let run = |cfg: &TestbedConfig| {
        let mut bed = build(cfg);
        bed.world.run_for(SimDuration::from_mins(3));
        bed
    };
    let plain = run(&cfg).world.fingerprint();
    cfg.profiler = true;
    let bed = run(&cfg);
    let fp = bed.world.fingerprint();
    assert_eq!(fp, plain, "profiling moved the run");
    let p = bed.world.profile_report();
    assert!(fp.events > 0);
    assert_eq!(p.calls(ProfCategory::QueuePop), fp.events, "queue pops");
    assert_eq!(p.calls(ProfCategory::Dispatch), fp.events, "dispatches");
    let m = bed.world.metrics();
    let sends = m.counter(keys::NET_MESSAGES)
        + m.counter(keys::NET_DROPPED)
        + m.counter(keys::NET_FAULT_DROPPED);
    assert_eq!(p.calls(ProfCategory::LinkFault), sends, "sends");
    let admits = m.counter(names::AP_ADMISSIONS)
        + m.counter(names::AP_BLOCK_LISTED)
        + m.counter(names::AP_ADMIT_DECLINED);
    assert!(admits > 0);
    let evicts = p.calls(ProfCategory::Evict);
    assert!(
        evicts >= admits,
        "{evicts} evict calls for {admits} admissions"
    );
}
