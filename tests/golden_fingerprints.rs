//! Golden run fingerprints: the plain [`World`](ape_simnet::World) path is
//! bitwise frozen.
//!
//! Every PR so far has promised "`repro --quick all` is bitwise identical
//! to the previous PR" and checked it by hand-diffing CLI output. This
//! suite pins the same promise as constants: each scenario's
//! [`Fingerprint`](ape_simnet::Fingerprint) — final clock, events
//! processed, metric-registry digest, trace digest — captured at commit
//! `bc2407c`. A change that moves any of them changed a simulated result
//! and must say so (and re-pin here) rather than discover it downstream.
//!
//! `events=` alone was re-pinned by the commit after `280f1a0`: a fetch,
//! DNS query or LDNS resolution now cancels its timers when it settles,
//! so the watchdogs that used to pop as no-ops after it are no longer
//! dispatched or counted. No surviving event moved, so the clock, metrics
//! and trace digests are still those of `bc2407c`.
//!
//! Tracing is on in every scenario so the trace digest is pinned too.

use ape_appdag::DummyAppConfig;
use ape_simnet::{SimDuration, TraceConfig};
use ape_workload::ScheduleConfig;
use apecache::{
    build, build_topology, paper_suite, synthetic_suite, System, TestbedConfig, TopologyConfig,
};

const RUN: SimDuration = SimDuration::from_mins(10);

/// The paper-default Fig. 9 testbed: 30-app suite, default schedule, AP
/// and client parameters, seed 42.
fn default_testbed(system: System) -> TestbedConfig {
    let mut cfg = TestbedConfig::new(system, paper_suite(&DummyAppConfig::default(), 42));
    cfg.trace = TraceConfig::enabled();
    cfg
}

fn testbed_fingerprint(cfg: &TestbedConfig) -> String {
    let mut bed = build(cfg);
    bed.world.run_for(RUN);
    bed.world.fingerprint().to_string()
}

#[test]
fn default_testbed_fingerprints_are_pinned_for_all_four_systems() {
    let golden = [
        (
            System::ApeCache,
            "clock=600000000000ns events=33059 metrics=612bf2c5b8fd93d3 trace=de9924659241e34b",
        ),
        (
            System::ApeCacheLru,
            "clock=600000000000ns events=34487 metrics=003b7663cf5daf30 trace=b6a256ca1534d76e",
        ),
        (
            System::WiCache,
            "clock=600000000000ns events=44457 metrics=d9f462c99416aaae trace=c3885e3c5f05d139",
        ),
        (
            System::EdgeCache,
            "clock=600000000000ns events=27169 metrics=c042716853c1922b trace=6aeda07d94bc732c",
        ),
    ];
    for (system, want) in golden {
        let got = testbed_fingerprint(&default_testbed(system));
        assert_eq!(got, want, "{system:?} default testbed moved");
    }
}

#[test]
fn lossy_wifi_testbed_fingerprint_is_pinned() {
    let mut cfg = default_testbed(System::ApeCache);
    cfg.wifi_loss = 0.02;
    assert_eq!(
        testbed_fingerprint(&cfg),
        "clock=600000000000ns events=34464 metrics=0b21cf33192cbdb6 trace=323c92f04b6480b1"
    );
}

#[test]
fn cooperative_roaming_city_fingerprint_is_pinned() {
    let mut base = TestbedConfig::new(
        System::ApeCache,
        synthetic_suite(8, &DummyAppConfig::default(), 42),
    );
    base.schedule = ScheduleConfig {
        apps: 8,
        avg_per_minute: 6.0,
        zipf_exponent: 0.8,
        duration: RUN,
    };
    base.trace = TraceConfig::enabled();
    let config = TopologyConfig::new(base, 16)
        .with_clients_per_ap(2)
        .with_roam_rate(2.0);
    let mut city = build_topology(&config);
    city.world.run_for(RUN);
    assert_eq!(
        city.world.fingerprint().to_string(),
        "clock=600000000000ns events=266607 metrics=1be01de11c2884e8 trace=a018635f9b585654"
    );
}
