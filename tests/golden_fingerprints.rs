//! Golden run fingerprints: the plain [`World`](ape_simnet::World) path is
//! bitwise frozen.
//!
//! Every PR so far has promised "`repro --quick all` is bitwise identical
//! to the previous PR" and checked it by hand-diffing CLI output. This
//! suite pins the same promise as constants: each scenario's
//! [`Fingerprint`](ape_simnet::Fingerprint) — final clock, events
//! processed, metric-registry digest, trace digest. A change that moves
//! any of them changed a simulated result and must say so (and re-pin
//! here) rather than discover it downstream.
//!
//! The pins date from the change that gave each node and each link send
//! its own random stream in place of the run's one shared stream: every
//! draw moved, so every digest did too. `events=` alone was re-pinned
//! since, when the AP's window tick went: the sample tick that lands on
//! the roll instant runs the roll, so each AP dispatches one timer fewer
//! per window (9 on a 10-minute testbed, 144 on the 16-AP city) and the
//! clock, metrics and trace digests did not move. `metrics=` alone was
//! re-pinned since, once, in all six scenarios, when a time series stopped
//! keeping its points: the registry digest now hashes a series as its name,
//! its length and its order-dependent fold of every point's time and value
//! bits, where it had hashed every point. No simulated result moved: the
//! clock, event count, trace digest and every aggregate stayed bitwise
//! equal. `metrics=` alone moved once more, in all six, when the registry
//! became the one ledger of settled fetches: a run's `ClientReport` is read
//! off it, and the two facts it lacked, `client.high_priority_fetches` and
//! `client.high_priority_hits`, became counters the digest hashes. The
//! clock, event count and trace digest stayed equal.
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
            "clock=600000000000ns events=33294 metrics=da2164c4acb83837 trace=7299da73de242d8d",
        ),
        (
            System::ApeCacheLru,
            "clock=600000000000ns events=34362 metrics=2c237c9b936533ab trace=85ddd5a7e117f04a",
        ),
        (
            System::WiCache,
            "clock=600000000000ns events=44453 metrics=1c16b0ceff6630e2 trace=b04f1ab6d2bd2786",
        ),
        (
            System::EdgeCache,
            "clock=600000000000ns events=27158 metrics=3c1bc2fb9cd29aba trace=7ecbf4bbf11c8648",
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
        "clock=600000000000ns events=34734 metrics=32f41025cadddb70 trace=2b504dda598a2e12"
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
        "clock=600000000000ns events=266461 metrics=8ba5843b8e66e7d1 trace=6ba8d710be97ea38"
    );
}
