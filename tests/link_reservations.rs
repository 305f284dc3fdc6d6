//! A link holds a reservation entry only while it has a message in flight.
//!
//! Each directed link reserves its arrival nanoseconds so that two
//! messages on one pair never tie at the receiver. The arrival times sit
//! in one world-wide slab that holds an entry for a link only while that
//! link has an arrival in flight, and the delivery of the link's last
//! arrival frees it. So at every instant the entries in use are at most
//! the deliveries queued, and a world with nothing in flight holds none.
//! Both bounds are checked after every event of two busy runs: the lossy
//! testbed under a recurring fault plan, and a roaming cooperative city.
//! (Neither world ever idles: the APs sample their resources for good.
//! `world::tests` runs worlds to idle.)

use ape_appdag::DummyAppConfig;
use ape_proto::{names, Msg};
use ape_simnet::{FaultPlan, SimDuration, SimTime, StopReason, World};
use ape_workload::ScheduleConfig;
use apecache::{build, build_topology, synthetic_suite, System, TestbedConfig, TopologyConfig};

const RUN: SimDuration = SimDuration::from_mins(4);

/// Runs `world` for `span` one event at a time, asserting after each
/// that no more links hold an entry than there are deliveries queued.
/// Returns the most entries seen at once.
fn run_checking_releases(world: &mut World<Msg>, span: SimDuration, label: &str) -> usize {
    let end = world.now() + span;
    world.set_event_cap(1);
    let mut peak = 0;
    while world.run_until(end).reason == StopReason::EventCap {
        let (live, queued) = (world.live_reservations(), world.pending_deliveries());
        assert!(
            live <= queued,
            "{label} at {}: {live} links hold a reservation entry for {queued} queued deliveries",
            world.now()
        );
        peak = peak.max(live);
    }
    world.set_event_cap(u64::MAX);
    peak
}

fn schedule(avg_per_minute: f64) -> ScheduleConfig {
    ScheduleConfig {
        apps: 5,
        avg_per_minute,
        zipf_exponent: 0.8,
        duration: RUN,
    }
}

#[test]
fn the_lossy_testbed_releases_every_reservation_at_delivery() {
    let mut config = TestbedConfig::new(
        System::ApeCache,
        synthetic_suite(5, &DummyAppConfig::default(), 42),
    );
    config.schedule = schedule(30.0);
    config.wifi_loss = 0.02;
    let mut bed = build(&config);
    // The benchmark's lossy workload plan, on a minute's period: a
    // client↔AP partition, an AP↔LDNS loss burst and an AP↔edge delay
    // spike, each opening once a period.
    let mut plan = FaultPlan::new();
    let mut start = SimTime::from_secs(30);
    while start < SimTime::ZERO + RUN {
        let until = |secs| start + SimDuration::from_secs(secs);
        plan = plan
            .link_down(bed.clients[0], bed.ap, start, until(15))
            .loss_burst(bed.ap, bed.ldns, start, until(30), 0.30)
            .delay_spike(
                bed.ap,
                bed.edge,
                start,
                until(20),
                SimDuration::from_millis(40),
            );
        start += SimDuration::from_secs(60);
    }
    bed.world.set_fault_plan(plan);
    let peak = run_checking_releases(&mut bed.world, RUN, "lossy testbed");
    assert!(peak > 0, "nothing was ever in flight");
    assert!(bed.world.metrics().counter(names::NET_FAULT_DROPPED) > 0);
}

#[test]
fn a_roaming_cooperative_city_releases_every_reservation_at_delivery() {
    let mut base = TestbedConfig::new(
        System::ApeCache,
        synthetic_suite(5, &DummyAppConfig::default(), 42),
    );
    base.schedule = schedule(10.0);
    base.ap.cache_capacity = 400_000;
    let config = TopologyConfig::new(base, 16)
        .with_clients_per_ap(2)
        .with_roam_rate(6.0);
    let mut top = build_topology(&config);
    let peak = run_checking_releases(&mut top.world, RUN, "16-AP city");
    assert!(
        peak > 10,
        "at most {peak} links ever had a message in flight"
    );
    assert!(top.world.metrics().counter(names::CLIENT_ROAMS) > 0);
}
