//! Protocol-level AP tests: DNS edge cases and delegation defaults that
//! the happy-path suites don't reach.

use ape_cachealg::{AppId, Priority};
use ape_dnswire::{CacheFlag, DnsMessage, DomainName, Rcode};
use ape_httpsim::{HttpRequest, HttpResponse, Url};
use std::net::Ipv4Addr;

use ape_nodes::{
    ApConfig, ApNode, AuthDnsNode, Catalog, CatalogEntry, CatalogServer, LdnsNode,
    WiCacheControllerNode, ZoneAnswer,
};
use ape_proto::{names, CacheOp, ConnId, IpMap, Msg, RequestId};
use ape_simnet::{Context, LinkSpec, Node, NodeId, SimDuration, SimTime, World};

#[derive(Debug, Default)]
struct Probe {
    dns: Vec<DnsMessage>,
    http: Vec<(RequestId, HttpResponse, bool)>,
}

impl Node<Msg> for Probe {
    fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::Dns(m) if m.header.response => self.dns.push(*m),
            Msg::HttpRsp {
                req,
                response,
                from_cache,
                ..
            } => self.http.push((req, response, from_cache)),
            _ => {}
        }
    }
}

struct Bed {
    world: World<Msg>,
    probe: NodeId,
    ap: NodeId,
    origin: NodeId,
    controller: Option<NodeId>,
}

fn bed() -> Bed {
    wired(false)
}

/// The AP behind its forwarder chain, advertising to a Wi-Cache
/// controller when `wicache` is set.
fn wired(wicache: bool) -> Bed {
    let mut world = World::new(3);
    let probe = world.add_node("probe", Probe::default());

    let mut catalog = Catalog::new();
    catalog.add(
        "http://known.zone.example/obj",
        CatalogEntry {
            size: 10_000,
            extra_latency: SimDuration::from_millis(25),
        },
    );
    let origin = world.add_node(
        "origin",
        CatalogServer::new(catalog, SimDuration::from_micros(300)),
    );
    let mut ip_map = IpMap::new();
    let origin_ip = ip_map.assign(origin);

    let mut adns = AuthDnsNode::new(SimDuration::from_micros(300));
    adns.wildcard(
        "zone.example".parse().expect("static"),
        ZoneAnswer::A {
            ip: origin_ip,
            ttl: 30,
        },
    );
    let adns = world.add_node("adns", adns);
    let ldns = world.add_node(
        "ldns",
        LdnsNode::new(
            SimDuration::from_micros(200),
            vec![("zone.example".parse().expect("static"), adns)],
        ),
    );
    let controller = wicache.then(|| {
        world.add_node(
            "controller",
            WiCacheControllerNode::new(SimDuration::from_micros(100)),
        )
    });
    let mut ap = ApNode::new(ApConfig::default(), ldns, ip_map);
    if let Some(controller) = controller {
        ap = ap.with_wicache(controller);
    }
    let ap = world.add_node("ap", ap);
    if let Some(controller) = controller {
        world
            .node_mut::<WiCacheControllerNode>(controller)
            .register_ap_at(ap, Ipv4Addr::new(10, 9, 9, 9), (0, 0));
        world.connect(
            ap,
            controller,
            LinkSpec::from_rtt(1, SimDuration::from_millis(2)),
        );
    }

    world.connect(
        probe,
        ap,
        LinkSpec::from_rtt(1, SimDuration::from_millis(3)),
    );
    world.connect(
        ap,
        ldns,
        LinkSpec::from_rtt(5, SimDuration::from_millis(13)),
    );
    world.connect(
        ldns,
        adns,
        LinkSpec::from_rtt(12, SimDuration::from_millis(30)),
    );
    world.connect(
        ap,
        origin,
        LinkSpec::from_rtt(9, SimDuration::from_millis(20)),
    );
    Bed {
        world,
        probe,
        ap,
        origin,
        controller,
    }
}

fn settle(world: &mut World<Msg>) {
    world.run_for(SimDuration::from_secs(2));
}

#[test]
fn nxdomain_relays_through_the_forwarder() {
    let mut bed = bed();
    let name: DomainName = "nope.zone.example".parse().expect("static");
    // The wildcard answers any zone.example subdomain; use a foreign zone.
    let missing: DomainName = "else.where.example".parse().expect("static");
    let _ = name;
    bed.world
        .post(bed.probe, bed.ap, Msg::dns(DnsMessage::query(7, missing)));
    settle(&mut bed.world);
    let probe = bed.world.node::<Probe>(bed.probe);
    let resp = probe.dns.last().expect("relayed");
    assert_eq!(resp.header.id, 7);
    assert_eq!(resp.header.rcode, Rcode::ServFail);
    assert_eq!(resp.answer_ip(), None);
}

#[test]
fn delegation_without_cache_op_uses_defaults() {
    let mut bed = bed();
    let url = Url::parse("http://known.zone.example/obj?v=1").expect("static");
    // No prior DNS, no cache_op: the AP must resolve and apply default
    // metadata (low priority, 10-minute TTL).
    bed.world.post(
        bed.probe,
        bed.ap,
        Msg::HttpReq {
            conn: ConnId(1),
            req: RequestId(1),
            request: HttpRequest::get(url.clone()),
            cache_op: None,
        },
    );
    settle(&mut bed.world);
    let probe = bed.world.node::<Probe>(bed.probe);
    let (_, response, from_cache) = probe.http.last().expect("answered");
    assert!(response.status.is_success());
    assert!(!from_cache);
    assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 1);

    // Cached under default TTL: still present at +9 min, gone at +11.
    bed.world.run_until(SimTime::from_secs(9 * 60));
    bed.world.post(
        bed.probe,
        bed.ap,
        Msg::dns(DnsMessage::dns_cache_request(
            2,
            "known.zone.example".parse().expect("static"),
            &[url.hash()],
        )),
    );
    settle(&mut bed.world);
    let flag = bed
        .world
        .node::<Probe>(bed.probe)
        .dns
        .last()
        .unwrap()
        .cache_response_tuples()[0]
        .flag;
    assert_eq!(flag, CacheFlag::Hit);

    bed.world.run_until(SimTime::from_secs(11 * 60));
    bed.world.post(
        bed.probe,
        bed.ap,
        Msg::dns(DnsMessage::dns_cache_request(
            3,
            "known.zone.example".parse().expect("static"),
            &[url.hash()],
        )),
    );
    settle(&mut bed.world);
    let flag = bed
        .world
        .node::<Probe>(bed.probe)
        .dns
        .last()
        .unwrap()
        .cache_response_tuples()[0]
        .flag;
    assert_eq!(flag, CacheFlag::Delegation, "expired after the default TTL");
}

#[test]
fn prefetch_hints_populate_without_any_client_request() {
    let mut bed = bed();
    let url = Url::parse("http://known.zone.example/obj?v=9").expect("static");
    bed.world.post(
        bed.probe,
        bed.ap,
        Msg::PrefetchHints {
            hints: vec![ape_proto::PrefetchHint {
                url: url.clone(),
                op: CacheOp {
                    ttl: SimDuration::from_mins(20),
                    priority: Priority::HIGH,
                    app: AppId::new(0),
                },
            }],
        },
    );
    settle(&mut bed.world);
    assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 1);
    assert_eq!(bed.world.metrics().counter(names::AP_PREFETCHES), 1);
    // A subsequent lookup reports Hit with zero delegations by the client.
    bed.world.post(
        bed.probe,
        bed.ap,
        Msg::dns(DnsMessage::dns_cache_request(
            4,
            "known.zone.example".parse().expect("static"),
            &[url.hash()],
        )),
    );
    settle(&mut bed.world);
    let flag = bed
        .world
        .node::<Probe>(bed.probe)
        .dns
        .last()
        .unwrap()
        .cache_response_tuples()[0]
        .flag;
    assert_eq!(flag, CacheFlag::Hit);
}

#[test]
fn duplicate_prefetch_hints_fetch_once() {
    let mut bed = bed();
    let url = Url::parse("http://known.zone.example/obj?v=2").expect("static");
    let hint = ape_proto::PrefetchHint {
        url,
        op: CacheOp {
            ttl: SimDuration::from_mins(20),
            priority: Priority::LOW,
            app: AppId::new(0),
        },
    };
    bed.world.post(
        bed.probe,
        bed.ap,
        Msg::PrefetchHints {
            hints: vec![hint.clone(), hint.clone()],
        },
    );
    bed.world
        .post(bed.probe, bed.ap, Msg::PrefetchHints { hints: vec![hint] });
    settle(&mut bed.world);
    assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 1);
    // Only the first hint started a fetch; the rest were deduplicated
    // against the in-flight delegation or the cached copy.
    assert_eq!(bed.world.node::<CatalogServer>(bed.origin).served(), 1);
}

#[test]
fn frequency_window_rolls_update_pacm_rates() {
    let mut bed = bed();
    let url = Url::parse("http://known.zone.example/obj?v=3").expect("static");
    // Issue several data requests for app 5, then cross a window boundary.
    for i in 0..6u64 {
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(i),
                req: RequestId(i),
                request: HttpRequest::get(url.clone()),
                cache_op: Some(CacheOp {
                    ttl: SimDuration::from_mins(20),
                    priority: Priority::LOW,
                    app: AppId::new(5),
                }),
            },
        );
        settle(&mut bed.world);
    }
    // Past the 60 s window the AP rolled at least once; the run proceeds
    // without issue and requests were all answered.
    bed.world.run_until(SimTime::from_secs(65));
    let probe = bed.world.node::<Probe>(bed.probe);
    assert_eq!(probe.http.len(), 6);
    // First was a delegation, the rest cache hits.
    assert!(!probe.http[0].2);
    assert!(probe.http[1..].iter().all(|(_, _, from_cache)| *from_cache));
}

#[test]
fn delegation_for_unresolvable_domain_fails_instead_of_looping() {
    let mut bed = bed();
    // A domain outside every delegation: resolution SERVFAILs.
    let url = Url::parse("http://nowhere.void.example/x").expect("static");
    bed.world.post(
        bed.probe,
        bed.ap,
        Msg::HttpReq {
            conn: ConnId(1),
            req: RequestId(1),
            request: HttpRequest::get(url),
            cache_op: Some(CacheOp {
                ttl: SimDuration::from_mins(10),
                priority: Priority::LOW,
                app: AppId::new(0),
            }),
        },
    );
    // Long horizon: a livelock would keep the event queue busy forever.
    let report = bed.world.run_until(SimTime::from_secs(30));
    assert!(
        report.events < 1_000,
        "resolution failure must not spin: {} events",
        report.events
    );
    let probe = bed.world.node::<Probe>(bed.probe);
    let (_, response, _) = probe.http.last().expect("waiter answered");
    assert!(!response.status.is_success(), "gateway timeout returned");
    assert_eq!(
        bed.world
            .metrics()
            .counter(names::AP_DELEGATION_DNS_FAILURES),
        1
    );
}

#[test]
fn admission_purges_are_counted_and_withdrawn_from_the_controller() {
    let mut bed = wired(true);
    let controller = bed.controller.expect("wired with a controller");
    let fetch = |bed: &mut Bed, req: u64, url: &Url, ttl: SimDuration| {
        let op = CacheOp {
            ttl,
            priority: Priority::LOW,
            app: AppId::new(0),
        };
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(req),
                req: RequestId(req),
                request: HttpRequest::get(url.clone()),
                cache_op: Some(op),
            },
        );
        settle(&mut bed.world);
    };
    let short = Url::parse("http://known.zone.example/obj?v=1").expect("static");
    let long = Url::parse("http://known.zone.example/obj?v=2").expect("static");
    fetch(&mut bed, 1, &short, SimDuration::from_secs(1));
    let holders = |bed: &Bed, url: &Url| {
        let wicache = bed.world.node::<WiCacheControllerNode>(controller);
        wicache.holder_count(url.hash())
    };
    assert_eq!(holders(&bed, &short), 1);

    // Long before the window roll, the next admission purges the expired
    // object: it is counted, and the controller stops naming this AP.
    fetch(&mut bed, 2, &long, SimDuration::from_mins(10));
    assert!(bed.world.now() < SimTime::from_secs(60));
    assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 1);
    assert_eq!(bed.world.metrics().counter(names::AP_TTL_PURGES), 1);
    assert_eq!(holders(&bed, &short), 0, "still listed after its purge");
    assert_eq!(holders(&bed, &long), 1);

    // Fetching an expired object again purges its old copy in the same
    // admission that stores the new one: the advert both removes and adds
    // one key, and the controller must end up naming this AP.
    fetch(&mut bed, 3, &short, SimDuration::from_secs(1));
    fetch(&mut bed, 4, &short, SimDuration::from_secs(1));
    assert!(bed.world.now() < SimTime::from_secs(60));
    assert_eq!(bed.world.metrics().counter(names::AP_TTL_PURGES), 2);
    assert_eq!(holders(&bed, &short), 1, "lost the fresh copy's holder");
    assert_eq!(holders(&bed, &long), 1);
}
