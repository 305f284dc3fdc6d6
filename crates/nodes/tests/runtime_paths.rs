//! Client-runtime integration paths: the enhanced HTTP client library
//! driving real app DAGs against an AP, resolver chain and edge server —
//! wired by hand so each path can be inspected closely.

use std::sync::Arc;

use ape_appdag::{movie_trailer, AppId, AppSpec};
use ape_dnswire::DomainName;
use ape_nodes::{
    ApConfig, ApNode, AuthDnsNode, Catalog, CatalogEntry, ClientApps, ClientConfig, ClientNode,
    EdgeNode, LdnsNode, LookupMode, OriginNode, Strategy, ZoneAnswer,
};
use ape_proto::{names, IpMap, Msg};
use ape_simnet::{LinkSpec, NodeId, SimDuration, SimTime, World};
use ape_workload::Execution;

struct MiniBed {
    world: World<Msg>,
    client: NodeId,
    clients: Vec<NodeId>,
    ap: NodeId,
}

/// Client + AP + LDNS/ADNS/CDN-DNS + edge + origin for the given apps.
fn mini_bed(
    apps: Vec<AppSpec>,
    schedule: Vec<Execution>,
    strategy: Strategy,
    lookup_mode: LookupMode,
) -> MiniBed {
    mini_bed_multi(apps, vec![schedule], strategy, lookup_mode)
}

/// Like [`mini_bed`], with one client per schedule.
fn mini_bed_multi(
    apps: Vec<AppSpec>,
    schedules: Vec<Vec<Execution>>,
    strategy: Strategy,
    lookup_mode: LookupMode,
) -> MiniBed {
    let mut world = World::new(99);

    let mut catalog = Catalog::new();
    for app in &apps {
        for (_, obj) in app.dag().iter() {
            catalog.add(
                obj.url.base_id(),
                CatalogEntry {
                    size: obj.size,
                    extra_latency: obj.remote_latency,
                },
            );
        }
    }
    let origin = world.add_node(
        "origin",
        OriginNode::new(catalog.clone(), SimDuration::from_micros(500)),
    );
    let mut edge = EdgeNode::new(origin, catalog, SimDuration::from_micros(400));
    edge.prewarm();
    let edge = world.add_node("edge", edge);

    let mut ip_map = IpMap::new();
    let edge_ip = ip_map.assign(edge);

    let mut adns = AuthDnsNode::new(SimDuration::from_micros(300));
    let mut cdn = AuthDnsNode::new(SimDuration::from_micros(300));
    let mut delegations = Vec::new();
    for app in &apps {
        for (_, obj) in app.dag().iter() {
            let host = obj.url.host().clone();
            let alias: DomainName = format!("{host}.edgekey.example").parse().expect("alias");
            adns.wildcard(
                host.clone(),
                ZoneAnswer::Cname {
                    target: alias,
                    ttl: 300,
                },
            );
            if !delegations.contains(&host) {
                delegations.push(host);
            }
        }
    }
    cdn.wildcard(
        "edgekey.example".parse().expect("static"),
        ZoneAnswer::A {
            ip: edge_ip,
            ttl: 60,
        },
    );
    let adns = world.add_node("adns", adns);
    let cdn = world.add_node("cdn-dns", cdn);
    let mut table: Vec<(DomainName, NodeId)> =
        vec![("edgekey.example".parse().expect("static"), cdn)];
    for host in delegations {
        table.push((host, adns));
    }
    let ldns = world.add_node("ldns", LdnsNode::new(SimDuration::from_micros(200), table));

    let ap = world.add_node("ap", ApNode::new(ApConfig::default(), ldns, ip_map.clone()));

    let client_apps = Arc::new(ClientApps::new(apps));
    let mut clients = Vec::new();
    for (i, schedule) in schedules.into_iter().enumerate() {
        let mut client_config = ClientConfig::new(strategy, ap, ap, ip_map.clone());
        client_config.lookup_mode = lookup_mode;
        if strategy == Strategy::EdgeCache {
            client_config.dns_server = ldns;
        }
        let client = world.add_node(
            format!("client{i}"),
            ClientNode::new(client_config, Arc::clone(&client_apps), schedule),
        );
        world.connect(
            client,
            ap,
            LinkSpec::from_rtt(1, SimDuration::from_millis(3)),
        );
        world.connect(
            client,
            edge,
            LinkSpec::from_rtt(7, SimDuration::from_millis(15)),
        );
        world.connect(
            client,
            ldns,
            LinkSpec::from_rtt(6, SimDuration::from_millis(16)),
        );
        clients.push(client);
    }
    world.connect(
        ap,
        ldns,
        LinkSpec::from_rtt(5, SimDuration::from_millis(13)),
    );
    world.connect(
        ap,
        edge,
        LinkSpec::from_rtt(7, SimDuration::from_millis(14)),
    );
    world.connect(
        ldns,
        adns,
        LinkSpec::from_rtt(12, SimDuration::from_millis(30)),
    );
    world.connect(
        ldns,
        cdn,
        LinkSpec::from_rtt(9, SimDuration::from_millis(20)),
    );
    MiniBed {
        world,
        client: clients[0],
        clients,
        ap,
    }
}

fn movie_schedule(times: &[u64]) -> Vec<Execution> {
    times
        .iter()
        .map(|&s| Execution {
            at: SimTime::from_secs(s),
            app: ape_cachealg::AppId::new(0),
        })
        .collect()
}

#[test]
fn first_execution_delegates_second_hits() {
    let apps = vec![movie_trailer(AppId::new(0))];
    let mut bed = mini_bed(
        apps,
        movie_schedule(&[1, 10]),
        Strategy::ApeCache,
        LookupMode::Piggybacked,
    );
    bed.world.run_until(SimTime::from_secs(9));
    let after_first = bed.world.node::<ClientNode>(bed.client).report();
    assert_eq!(after_first.executions, 1);
    assert_eq!(after_first.requests, 5, "five MovieTrailer objects");
    // First pass can only delegate (nothing cached yet) unless variants
    // collide; hits must be well below a full execution.
    assert!(after_first.hits <= 2, "hits {}", after_first.hits);
    assert!(bed.world.node::<ApNode>(bed.ap).cached_objects() >= 4);

    bed.world.run_until(SimTime::from_secs(20));
    let after_second = bed.world.node::<ClientNode>(bed.client).report();
    assert_eq!(after_second.executions, 2);
    // Second execution may use a different movie (variant); but across the
    // 10-variant space with one prior run, at least the re-used variant
    // case must be visible over several runs — so force it by checking
    // delegations did not double.
    assert_eq!(after_second.requests, 10);
    assert_eq!(after_second.failures, 0);
}

#[test]
fn repeated_executions_converge_to_hits() {
    let apps = vec![movie_trailer(AppId::new(0))];
    let times: Vec<u64> = (0..40).map(|i| 1 + i * 20).collect();
    let mut bed = mini_bed(
        apps,
        movie_schedule(&times),
        Strategy::ApeCache,
        LookupMode::Piggybacked,
    );
    bed.world.run_until(SimTime::from_secs(830));
    let report = bed.world.node::<ClientNode>(bed.client).report();
    assert_eq!(report.executions, 40);
    assert_eq!(report.failures, 0);
    // All ten variants of all five objects fit in 5 MB, so the steady
    // state is hit-dominated.
    assert!(
        report.hit_ratio() > 0.6,
        "hit ratio {:.3} ({} / {})",
        report.hit_ratio(),
        report.hits,
        report.requests
    );
    // High-priority objects (movieID, thumbnail) hit at least as often.
    assert!(report.high_priority_hit_ratio() >= report.hit_ratio() - 0.1);
}

#[test]
fn wicache_without_controller_fails_cleanly() {
    let apps = vec![movie_trailer(AppId::new(0))];
    let mut bed = mini_bed(
        apps,
        movie_schedule(&[1]),
        Strategy::WiCache,
        LookupMode::Piggybacked,
    );
    bed.world.run_until(SimTime::from_secs(30));
    let report = bed.world.node::<ClientNode>(bed.client).report();
    // No controller configured: every lookup fails, the execution still
    // terminates (dependents cancelled), nothing hangs.
    assert_eq!(report.executions, 1);
    assert!(report.failures > 0);
    assert_eq!(report.requests, 0, "no object completed without lookups");
}

#[test]
fn dead_resolver_exhausts_retries_then_fails() {
    let apps = vec![movie_trailer(AppId::new(0))];
    let mut bed = mini_bed(
        apps,
        movie_schedule(&[1]),
        Strategy::ApeCache,
        LookupMode::Piggybacked,
    );
    // Sever the AP's upstream entirely: DNS-Cache queries for unknown
    // domains can never be answered.
    bed.world.connect(
        bed.ap,
        NodeId::from_raw(4), // the LDNS in construction order
        LinkSpec::from_rtt(5, SimDuration::from_millis(13)).loss_probability(0.999),
    );
    bed.world.run_until(SimTime::from_secs(60));
    let metrics = bed.world.metrics();
    assert!(
        metrics.counter(names::CLIENT_DNS_RETRIES) > 0
            || metrics.counter(names::CLIENT_DNS_GIVE_UPS) > 0,
        "retry machinery engaged"
    );
    let report = bed.world.node::<ClientNode>(bed.client).report();
    assert_eq!(report.executions, 1, "execution terminated regardless");
}

#[test]
fn standalone_mode_doubles_dns_queries() {
    let apps = vec![movie_trailer(AppId::new(0))];
    let times: Vec<u64> = (0..10).map(|i| 1 + i * 70).collect(); // past DNS TTL

    let mut piggy = mini_bed(
        apps.clone(),
        movie_schedule(&times),
        Strategy::ApeCache,
        LookupMode::Piggybacked,
    );
    piggy.world.run_until(SimTime::from_secs(700));
    let piggy_queries = piggy.world.metrics().counter(names::CLIENT_DNS_QUERIES);

    let mut standalone = mini_bed(
        apps,
        movie_schedule(&times),
        Strategy::ApeCache,
        LookupMode::Standalone,
    );
    standalone.world.run_until(SimTime::from_secs(700));
    let standalone_queries = standalone
        .world
        .metrics()
        .counter(names::CLIENT_DNS_QUERIES);

    assert!(
        standalone_queries >= piggy_queries * 2,
        "standalone {standalone_queries} vs piggybacked {piggy_queries}"
    );
    // Both deliver the data.
    assert_eq!(
        standalone
            .world
            .node::<ClientNode>(standalone.client)
            .report()
            .failures,
        0
    );
}

#[test]
fn edge_strategy_resolves_per_fetch_and_skips_ap() {
    let apps = vec![movie_trailer(AppId::new(0))];
    let times: Vec<u64> = (0..5).map(|i| 1 + i * 30).collect();
    let mut bed = mini_bed(
        apps,
        movie_schedule(&times),
        Strategy::EdgeCache,
        LookupMode::Piggybacked,
    );
    bed.world.run_until(SimTime::from_secs(200));
    let report = bed.world.node::<ClientNode>(bed.client).report();
    assert_eq!(report.executions, 5);
    assert_eq!(report.hits, 0);
    assert_eq!(report.failures, 0);
    assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 0);
    // Per-fetch resolution: at least one DNS query per object fetch that
    // could not coalesce; far more than one per execution.
    let queries = bed.world.metrics().counter(names::CLIENT_DNS_QUERIES);
    assert!(queries >= 10, "queries {queries}");
}

#[test]
fn ap_cache_flush_recovers_via_delegation() {
    let apps = vec![movie_trailer(AppId::new(0))];
    let times: Vec<u64> = (0..20).map(|i| 1 + i * 20).collect();
    let mut bed = mini_bed(
        apps,
        movie_schedule(&times),
        Strategy::ApeCache,
        LookupMode::Piggybacked,
    );
    // Warm up: several executions populate the cache.
    bed.world.run_until(SimTime::from_secs(150));
    assert!(bed.world.node::<ApNode>(bed.ap).cached_objects() > 5);

    // Simulated AP reboot wipes the cache mid-run.
    bed.world.node_mut::<ApNode>(bed.ap).flush_cache();
    assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 0);

    // The remaining executions — some holding stale Cache-Hit flags —
    // must all complete, and the cache must repopulate.
    bed.world.run_until(SimTime::from_secs(420));
    let report = bed.world.node::<ClientNode>(bed.client).report();
    assert_eq!(report.failures, 0, "stale flags degrade, never fail");
    assert_eq!(report.executions, 20);
    assert!(
        bed.world.node::<ApNode>(bed.ap).cached_objects() > 5,
        "cache repopulated after the flush"
    );
}

#[test]
fn clients_share_the_ap_cache() {
    // A synthetic single-variant app: client A runs it first, client B
    // afterwards — B's fetches must hit what A's delegations cached.
    let app = {
        let mut rng = ape_simnet::SimRng::seed_from(5);
        ape_appdag::generate_app(
            AppId::new(0),
            &ape_appdag::DummyAppConfig::default(),
            &mut rng,
        )
    };
    let a_schedule = movie_schedule(&[1]);
    let b_schedule = movie_schedule(&[30]);
    let mut bed = mini_bed_multi(
        vec![app],
        vec![a_schedule, b_schedule],
        Strategy::ApeCache,
        LookupMode::Piggybacked,
    );
    bed.world.run_until(SimTime::from_secs(60));
    let a = bed.world.node::<ClientNode>(bed.clients[0]).report();
    let b = bed.world.node::<ClientNode>(bed.clients[1]).report();
    assert_eq!(a.executions, 1);
    assert_eq!(b.executions, 1);
    assert_eq!(a.hits, 0, "first client populated the cache");
    assert_eq!(b.hits, b.requests, "second client hit everything: {b:?}");
    assert_eq!(a.failures + b.failures, 0);
}
