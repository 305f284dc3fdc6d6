//! System-level property tests: random small deployments must satisfy the
//! architecture's invariants regardless of workload shape.

use ape_appdag::DummyAppConfig;
use ape_check::{check, Gen};
use ape_nodes::ApNode;
use ape_proto::names;
use ape_simnet::SimDuration;
use ape_workload::ScheduleConfig;
use apecache::{build, collect, synthetic_suite, System, TestbedConfig};

#[derive(Debug, Clone)]
struct Scenario {
    system: System,
    apps: usize,
    size_hi: u64,
    frequency: f64,
    minutes: u64,
    seed: u64,
}

fn scenario(g: &mut Gen) -> Scenario {
    Scenario {
        system: g.pick(&[
            System::ApeCache,
            System::ApeCacheLru,
            System::WiCache,
            System::EdgeCache,
        ]),
        apps: g.range(2usize..8),
        size_hi: g.range(20_000u64..300_000),
        frequency: g.f64(1.0..4.0),
        minutes: g.range(2u64..4),
        seed: g.u64(),
    }
}

fn run(scenario: &Scenario) -> (apecache::RunResult, u64, u64) {
    let dummy = DummyAppConfig::default().with_size_range(1_000, scenario.size_hi);
    let suite = synthetic_suite(scenario.apps, &dummy, scenario.seed);
    let mut config = TestbedConfig::new(scenario.system, suite);
    config.seed = scenario.seed;
    config.schedule = ScheduleConfig {
        apps: scenario.apps,
        avg_per_minute: scenario.frequency,
        zipf_exponent: 0.8,
        duration: SimDuration::from_mins(scenario.minutes),
    };
    let mut bed = build(&config);
    // Two more minutes drain what the schedule's last minute left in
    // flight, so the fetch ledger below can be an equality.
    bed.world
        .run_for(SimDuration::from_mins(scenario.minutes + 2));
    let cached_bytes = bed.world.node::<ApNode>(bed.ap).cached_bytes();
    let capacity = config.ap.cache_capacity;
    let result = collect(scenario.system, &mut bed);
    (result, cached_bytes, capacity)
}

#[test]
fn invariants_hold_for_random_scenarios() {
    check("invariants_hold_for_random_scenarios", 12, |g| {
        let scenario = scenario(g);
        let (result, cached_bytes, capacity) = run(&scenario);
        let report = &result.report;

        // Cache capacity is inviolable.
        assert!(cached_bytes <= capacity, "{cached_bytes} > {capacity}");

        // Counters are internally consistent.
        assert!(report.hits <= report.requests);
        assert!(report.high_hits <= report.high_requests);
        assert!(report.high_requests <= report.requests);
        let ratio = report.hit_ratio();
        assert!((0.0..=1.0).contains(&ratio));

        // Healthy network ⇒ no failures; work happened.
        assert_eq!(report.failures, 0);
        assert!(report.executions > 0);
        assert!(report.requests > 0);

        // The fetch ledger closes: every fetch started settled as one
        // success or one failure, and every retrieval was served by
        // exactly one layer.
        let m = &result.metrics;
        let samples = |name| m.histogram(name).map_or(0, |h| h.count() as u64);
        let settled = samples(names::CLIENT_OBJECT_TOTAL_MS);
        let failed = m.counter(names::CLIENT_FETCH_FAILURES);
        assert_eq!(m.counter(names::CLIENT_FETCHES), settled + failed);
        assert_eq!(
            samples(names::CLIENT_RETRIEVAL_MS),
            samples(names::CLIENT_RETRIEVAL_HIT_MS)
                + samples(names::CLIENT_RETRIEVAL_DELEGATION_MS)
                + samples(names::CLIENT_RETRIEVAL_EDGE_MS)
        );

        // The Edge Cache baseline never records AP hits.
        if scenario.system == System::EdgeCache {
            assert_eq!(report.hits, 0);
        }
    });
}

#[test]
fn reruns_are_bit_identical() {
    check("reruns_are_bit_identical", 12, |g| {
        let scenario = scenario(g);
        let (a, a_bytes, _) = run(&scenario);
        let (b, b_bytes, _) = run(&scenario);
        assert_eq!(a.report, b.report);
        assert_eq!(a_bytes, b_bytes);
        assert_eq!(
            a.metrics.counter(names::NET_MESSAGES),
            b.metrics.counter(names::NET_MESSAGES)
        );
    });
}
