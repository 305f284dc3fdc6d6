//! Live differential check of the timing-wheel scheduler on the default
//! testbed.
//!
//! [`World::enable_queue_oracle`](ape_simnet::World::enable_queue_oracle)
//! mirrors every event-queue push and pop of a run against the frozen
//! pre-wheel binary heap (`ape_simnet::reference`); the first pop where the
//! wheel and the heap disagree on `(at, seq)` panics inside the queue. This
//! test drives full APE-CACHE testbed runs through that mirror — under the
//! unperturbed baseline and all four tie-perturbation keys the determinism
//! harness sweeps — and additionally pins that mirrored runs produce
//! bitwise-identical fingerprints to oracle-off runs (the oracle must
//! observe, never influence). A lossy run repeats the check where timers
//! are re-armed and cancelled: DNS and HTTP retries, and give-ups.

use ape_appdag::DummyAppConfig;
use ape_proto::names;
use ape_simnet::{FaultPlan, SimDuration, SimTime, TraceConfig};
use ape_workload::ScheduleConfig;
use apecache::{build, synthetic_suite, System, TestbedConfig};

/// Same keys as `tests/determinism_perturbation.rs`.
const PERTURBATION_KEYS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xD1B5_4A32_D192_ED03,
    0xA5A5_A5A5_A5A5_A5A5,
    0x0123_4567_89AB_CDEF,
];

/// The recovery counters a lossy run must move.
const RECOVERY: [&str; 4] = [
    names::CLIENT_DNS_RETRIES,
    names::CLIENT_HTTP_RETRIES,
    names::CLIENT_DNS_GIVE_UPS,
    names::CLIENT_HTTP_GIVE_UPS,
];

/// Runs the default testbed for two simulated minutes, lossy or not, and
/// returns the world fingerprint and the [`RECOVERY`] counters.
fn run(key: Option<u64>, oracle: bool, lossy: bool) -> (String, [u64; 4]) {
    let suite = synthetic_suite(5, &DummyAppConfig::default(), 11);
    let mut cfg = TestbedConfig::new(System::ApeCache, suite);
    cfg.schedule = ScheduleConfig {
        apps: 5,
        avg_per_minute: 3.0,
        zipf_exponent: 0.8,
        duration: SimDuration::from_mins(2),
    };
    cfg.trace = TraceConfig::enabled();
    cfg.tie_perturbation = key;
    if lossy {
        cfg.wifi_loss = 0.02;
    }
    let mut bed = build(&cfg);
    if lossy {
        let secs = SimTime::from_secs;
        bed.world.set_fault_plan(
            FaultPlan::new()
                .link_down(bed.clients[1], bed.ap, secs(20), secs(50))
                .loss_burst(bed.clients[0], bed.ap, secs(20), secs(110), 0.3)
                .loss_burst(bed.ap, bed.ldns, secs(20), secs(60), 0.5),
        );
    }
    if oracle {
        bed.world.enable_queue_oracle();
    }
    bed.world.run_for(SimDuration::from_mins(2));
    let counters = RECOVERY.map(|name| bed.world.metrics().counter(name));
    (bed.world.fingerprint().to_string(), counters)
}

#[test]
fn wheel_matches_reference_heap_across_perturbed_testbed_runs() {
    for key in std::iter::once(None).chain(PERTURBATION_KEYS.into_iter().map(Some)) {
        let mirrored = run(key, true, false);
        let plain = run(key, false, false);
        assert_eq!(
            mirrored, plain,
            "oracle changed the run it was mirroring (key {key:?})"
        );
    }
}

#[test]
fn wheel_matches_reference_heap_where_timers_are_cancelled() {
    for key in std::iter::once(None).chain(PERTURBATION_KEYS.into_iter().map(Some)) {
        let mirrored = run(key, true, true);
        let plain = run(key, false, true);
        assert_eq!(
            mirrored, plain,
            "oracle changed the lossy run it was mirroring (key {key:?})"
        );
        let (_, counters) = mirrored;
        assert!(
            counters.iter().all(|&n| n > 0),
            "{RECOVERY:?} = {counters:?} under key {key:?}: the run must retry and give up"
        );
    }
}
