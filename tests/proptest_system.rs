//! System-level property tests: random small deployments must satisfy the
//! architecture's invariants regardless of workload shape.

use ape_appdag::DummyAppConfig;
use ape_nodes::ApNode;
use ape_proto::names;
use ape_simnet::SimDuration;
use ape_workload::ScheduleConfig;
use apecache::{build, collect, synthetic_suite, System, TestbedConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    system: System,
    apps: usize,
    size_hi: u64,
    frequency: f64,
    minutes: u64,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        prop_oneof![
            Just(System::ApeCache),
            Just(System::ApeCacheLru),
            Just(System::WiCache),
            Just(System::EdgeCache),
        ],
        2usize..8,
        20_000u64..300_000,
        1.0f64..4.0,
        2u64..4,
        any::<u64>(),
    )
        .prop_map(
            |(system, apps, size_hi, frequency, minutes, seed)| Scenario {
                system,
                apps,
                size_hi,
                frequency,
                minutes,
                seed,
            },
        )
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn invariants_hold_for_random_scenarios(scenario in arb_scenario()) {
        let (result, cached_bytes, capacity) = run(&scenario);
        let report = &result.report;

        // Cache capacity is inviolable.
        prop_assert!(cached_bytes <= capacity, "{cached_bytes} > {capacity}");

        // Counters are internally consistent.
        prop_assert!(report.hits <= report.requests);
        prop_assert!(report.high_hits <= report.high_requests);
        prop_assert!(report.high_requests <= report.requests);
        let ratio = report.hit_ratio();
        prop_assert!((0.0..=1.0).contains(&ratio));

        // Healthy network ⇒ no failures; work happened.
        prop_assert_eq!(report.failures, 0);
        prop_assert!(report.executions > 0);
        prop_assert!(report.requests > 0);

        // The fetch ledger closes: every fetch started settled as one
        // success or one failure, every retrieval was served by exactly
        // one layer, and the clients' own report agrees.
        let m = &result.metrics;
        let samples = |name| m.histogram(name).map_or(0, |h| h.count() as u64);
        let settled = samples(names::CLIENT_OBJECT_TOTAL_MS);
        let failed = m.counter(names::CLIENT_FETCH_FAILURES);
        prop_assert_eq!(m.counter(names::CLIENT_FETCHES), settled + failed);
        prop_assert_eq!(
            samples(names::CLIENT_RETRIEVAL_MS),
            samples(names::CLIENT_RETRIEVAL_HIT_MS)
                + samples(names::CLIENT_RETRIEVAL_DELEGATION_MS)
                + samples(names::CLIENT_RETRIEVAL_EDGE_MS)
        );
        prop_assert_eq!(report.requests, settled);
        prop_assert_eq!(report.failures, failed);

        // The Edge Cache baseline never records AP hits.
        if scenario.system == System::EdgeCache {
            prop_assert_eq!(report.hits, 0);
        }
    }

    #[test]
    fn reruns_are_bit_identical(scenario in arb_scenario()) {
        let (a, a_bytes, _) = run(&scenario);
        let (b, b_bytes, _) = run(&scenario);
        prop_assert_eq!(a.report, b.report);
        prop_assert_eq!(a_bytes, b_bytes);
        prop_assert_eq!(
            a.metrics.counter(names::NET_MESSAGES),
            b.metrics.counter(names::NET_MESSAGES)
        );
    }
}
