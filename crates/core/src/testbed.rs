//! Builds the paper's evaluation testbed (Fig. 9) as a simulated world.
//!
//! Topology: two "phones" and one "client simulator" behind a WiFi AP; an
//! edge cache server 7 hops away; the local DNS a few hops upstream with
//! the authoritative/CDN DNS chain behind it; an origin further out; and —
//! for the Wi-Cache baseline — an EC2-hosted controller 12 hops away.
//! Link characteristics are calibrated to the paper's measured anatomy
//! (WiFi RTT ≈ 3 ms, AP↔edge ≈ 14 ms, controller ≈ 24 ms, Table I-level
//! DNS latencies).

use ape_appdag::AppSpec;
use ape_dnswire::DomainName;
use ape_nodes::{
    ApConfig, ApNode, ApPolicy, AuthDnsNode, Catalog, CatalogEntry, ClientConfig, ClientNode,
    EdgeNode, LdnsNode, LookupMode, OriginNode, Strategy, WiCacheControllerNode, WiCacheLink,
    ZoneAnswer,
};
use ape_proto::{IpMap, Msg};
use ape_simnet::{FaultPlan, LinkSpec, NodeId, SimDuration, SimRng, TraceConfig, World};
use ape_workload::{generate_schedule, Execution, ScheduleConfig};

use crate::system::System;

/// Everything needed to instantiate one evaluation run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Which caching system to deploy.
    pub system: System,
    /// The app suite (paper: 2 real + 28 synthetic apps).
    pub apps: Vec<AppSpec>,
    /// Execution schedule parameters.
    pub schedule: ScheduleConfig,
    /// AP parameters (policy is overridden to match `system`).
    pub ap: ApConfig,
    /// Number of client devices sharing the schedule (paper: 2 phones +
    /// 1 emulator host).
    pub clients: usize,
    /// APE-CACHE lookup mode (Fig. 11b ablation).
    pub lookup_mode: LookupMode,
    /// Whether the edge starts with every object cached (the paper's
    /// ample-capacity steady-state assumption).
    pub prewarm_edge: bool,
    /// Extension (paper §VI): clients send request-dependency information
    /// so the AP prefetches upcoming objects.
    pub prefetch_hints: bool,
    /// Request-tracing knobs (disabled by default; enabling records causal
    /// spans for every sampled client fetch).
    pub trace: TraceConfig,
    /// Enables the sim-loop self-profiler (see
    /// [`World::enable_profiler`](ape_simnet::World::enable_profiler)).
    /// Off by default; on or off, simulation outputs are unchanged — the
    /// profiler only attributes host wall-clock.
    pub profiler: bool,
    /// Steady-state packet-loss probability of the WiFi radio, applied to
    /// every client link (AP, edge, LDNS, and controller paths all cross
    /// the radio as their first hop). `0.0` — the default — keeps the
    /// links lossless and the run's RNG draws, and therefore its outputs,
    /// bitwise identical to before this knob existed.
    pub wifi_loss: f64,
    /// Scheduled link disturbances (partitions, loss bursts, delay
    /// spikes). The empty default draws no RNG and records no metrics, so
    /// it is bitwise invisible.
    pub faults: FaultPlan,
    /// Root seed for all randomness in the run.
    pub seed: u64,
    /// Schedule-perturbation key for the race detector: when set, the
    /// world's same-timestamp tie-breaks follow a seeded permutation
    /// instead of FIFO order (see
    /// [`World::set_tie_perturbation`](ape_simnet::World::set_tie_perturbation)).
    /// `None` — the default — is the production FIFO order.
    pub tie_perturbation: Option<u64>,
}

impl TestbedConfig {
    /// Paper-default testbed for `system` over `apps`.
    pub fn new(system: System, apps: Vec<AppSpec>) -> Self {
        TestbedConfig {
            system,
            apps,
            schedule: ScheduleConfig::default(),
            ap: ApConfig::default(),
            clients: 3,
            lookup_mode: LookupMode::Piggybacked,
            prewarm_edge: true,
            prefetch_hints: false,
            trace: TraceConfig::default(),
            profiler: false,
            wifi_loss: 0.0,
            faults: FaultPlan::new(),
            seed: 42,
            tie_perturbation: None,
        }
    }
}

/// A built testbed: the world plus the node ids a harness needs.
pub struct Testbed {
    /// The simulated deployment.
    pub world: World<Msg>,
    /// Client device nodes.
    pub clients: Vec<NodeId>,
    /// The WiFi AP.
    pub ap: NodeId,
    /// The edge cache server.
    pub edge: NodeId,
    /// The origin server.
    pub origin: NodeId,
    /// The local DNS resolver.
    pub ldns: NodeId,
    /// The Wi-Cache controller, when deployed.
    pub controller: Option<NodeId>,
    /// The schedule that was installed across clients.
    pub schedule: Vec<Execution>,
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("clients", &self.clients.len())
            .field("schedule_len", &self.schedule.len())
            .finish()
    }
}

/// Suffix of the per-domain CDN aliases (mirroring
/// `www.apple.com → www.apple.com.edgekey.net`).
pub(crate) const CDN_SUFFIX: &str = "edgekey.example";

/// TTL of the CDN's A record (Akamai-style short TTL, seconds).
pub(crate) const CDN_A_TTL: u32 = 60;

/// TTL of the site CNAME records (seconds).
pub(crate) const CNAME_TTL: u32 = 300;

/// Applies the config's world-level knobs (perturbation, tracing, profiler,
/// faults). Shared by the single-AP testbed and the multi-AP
/// topology (`crate::topology`).
pub(crate) fn configure_world(world: &mut World<Msg>, config: &TestbedConfig) {
    if let Some(key) = config.tie_perturbation {
        world.set_tie_perturbation(key);
    }
    world.set_trace_config(config.trace);
    if config.profiler {
        world.enable_profiler();
    }
    if !config.faults.is_empty() {
        world.set_fault_plan(config.faults.clone());
    }
}

/// Node ids of the serving/DNS spine shared by the single-AP testbed and
/// the multi-AP topology (`crate::topology`).
pub(crate) struct SpineIds {
    /// The origin server.
    pub origin: NodeId,
    /// The edge cache server.
    pub edge: NodeId,
    /// The authoritative DNS for the app domains.
    pub adns: NodeId,
    /// The CDN's authoritative DNS.
    pub cdn_dns: NodeId,
    /// The local DNS resolver.
    pub ldns: NodeId,
}

/// Assembles the serving spine — origin, edge, and the DNS hierarchy — in
/// the canonical order (origin, edge, adns, cdn-dns, ldns), assigning the
/// edge and origin addresses into `ip_map`. Both [`build`] and the
/// multi-AP topology builder start from this sequence, so their spine
/// node ids line up.
pub(crate) fn assemble_spine(
    world: &mut World<Msg>,
    config: &TestbedConfig,
    ip_map: &mut IpMap,
) -> SpineIds {
    // --- Catalog shared by origin and edge -----------------------------
    let mut catalog = Catalog::new();
    for app in &config.apps {
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

    // --- Servers --------------------------------------------------------
    let origin = world.add_node(
        "origin",
        OriginNode::new(catalog.clone(), SimDuration::from_micros(500)),
    );
    let mut edge_node = EdgeNode::new(origin, catalog, SimDuration::from_micros(400));
    if config.prewarm_edge {
        edge_node.prewarm();
    }
    let edge = world.add_node("edge", edge_node);

    let edge_ip = ip_map.assign(edge);
    let _origin_ip = ip_map.assign(origin);

    // --- DNS hierarchy ----------------------------------------------------
    // Each app domain gets its own CDN alias (`<host>.edgekey.example`),
    // as real CDNs do, so short A-record TTLs expire per domain.
    let mut adns = AuthDnsNode::new(SimDuration::from_micros(300));
    for app in &config.apps {
        for (_, obj) in app.dag().iter() {
            let alias: DomainName = format!("{}.{}", obj.url.host(), CDN_SUFFIX)
                .parse()
                .expect("alias from valid host");
            adns.wildcard(
                obj.url.host().clone(),
                ZoneAnswer::Cname {
                    target: alias,
                    ttl: CNAME_TTL,
                },
            );
        }
    }
    let adns_id = world.add_node("adns", adns);

    let mut cdn_dns = AuthDnsNode::new(SimDuration::from_micros(300));
    cdn_dns.wildcard(
        CDN_SUFFIX.parse().expect("static name"),
        ZoneAnswer::A {
            ip: edge_ip,
            ttl: CDN_A_TTL,
        },
    );
    let cdn_dns_id = world.add_node("cdn-dns", cdn_dns);

    let mut delegations: Vec<(DomainName, NodeId)> =
        vec![("edgekey.example".parse().expect("static name"), cdn_dns_id)];
    for app in &config.apps {
        for (_, obj) in app.dag().iter() {
            let host = obj.url.host().clone();
            if !delegations.iter().any(|(d, _)| *d == host) {
                delegations.push((host, adns_id));
            }
        }
    }
    let ldns = world.add_node(
        "ldns",
        LdnsNode::new(SimDuration::from_micros(200), delegations),
    );

    SpineIds {
        origin,
        edge,
        adns: adns_id,
        cdn_dns: cdn_dns_id,
        ldns,
    }
}

/// Builds the world for `config`: spine (origin, edge, DNS chain),
/// controller, AP, clients, then links.
///
/// # Panics
///
/// Panics if the config has no apps or zero clients.
pub fn build(config: &TestbedConfig) -> Testbed {
    assert!(!config.apps.is_empty(), "testbed needs at least one app");
    assert!(config.clients > 0, "testbed needs at least one client");
    let mut world = World::new(config.seed);
    configure_world(&mut world, config);

    let mut ip_map = IpMap::new();
    let spine = assemble_spine(&mut world, config, &mut ip_map);
    let SpineIds {
        origin,
        edge,
        adns: adns_id,
        cdn_dns: cdn_dns_id,
        ldns,
    } = spine;

    // --- AP ----------------------------------------------------------------
    let mut ap_config = config.ap.clone();
    ap_config.policy = match config.system {
        // APE-CACHE honours the configured policy so PACM ablations
        // (e.g. fairness off) can run under the normal workflow.
        System::ApeCache => config.ap.policy,
        System::ApeCacheLru | System::WiCache => ApPolicy::Lru,
        // Unused for Edge Cache, but keep the AP present for fair
        // resource comparisons.
        System::EdgeCache => ApPolicy::Lru,
    };
    let ap_node = ApNode::new(ap_config, ldns, ip_map.clone());

    // --- Wi-Cache controller ------------------------------------------------
    let (ap, controller) = if config.system == System::WiCache {
        let controller = world.add_node(
            "wicache-controller",
            WiCacheControllerNode::new(SimDuration::from_micros(300)),
        );
        // The AP id is allocated after the controller; assign its address
        // first so the node can be constructed with the link.
        let ap_ip_probe = {
            let mut m = ip_map.clone();
            m.assign(NodeId::from_raw(world.node_count() as u32))
        };
        let ap = world.add_node(
            "ap",
            ap_node.with_wicache(WiCacheLink {
                controller,
                own_address: ap_ip_probe,
            }),
        );
        let ap_ip = ip_map.assign(ap);
        world
            .node_mut::<WiCacheControllerNode>(controller)
            .register_ap(ap, ap_ip);
        (ap, Some(controller))
    } else {
        (world.add_node("ap", ap_node), None)
    };

    // --- Schedule -------------------------------------------------------------
    let mut rng = SimRng::seed_from(config.seed ^ 0x5EED_5EED);
    let schedule = generate_schedule(&config.schedule, &mut rng);

    // --- Clients -----------------------------------------------------------------
    let strategy = match config.system {
        System::ApeCache | System::ApeCacheLru => Strategy::ApeCache,
        System::WiCache => Strategy::WiCache,
        System::EdgeCache => Strategy::EdgeCache,
    };
    let mut clients = Vec::with_capacity(config.clients);
    for i in 0..config.clients {
        let share: Vec<Execution> = schedule
            .iter()
            .enumerate()
            .filter(|(idx, _)| idx % config.clients == i)
            .map(|(_, e)| *e)
            .collect();
        let dns_server = match strategy {
            // APE-CACHE clients resolve through the AP (it is the LAN's
            // DNS); the Edge Cache baseline queries the LDNS directly.
            Strategy::ApeCache | Strategy::WiCache => ap,
            Strategy::EdgeCache => ldns,
        };
        let mut client_config = ClientConfig::new(strategy, dns_server, ap, ip_map.clone());
        client_config.controller = controller;
        client_config.lookup_mode = config.lookup_mode;
        client_config.prefetch_hints = config.prefetch_hints;
        let node = ClientNode::new(client_config, config.apps.clone(), share);
        clients.push(world.add_node(format!("client{i}"), node));
    }

    // --- Links (Fig. 9 distances) ------------------------------------------------
    // All client links cross the WiFi radio as their first hop, so the
    // configured radio loss applies to each of them.
    let lossy = |link: LinkSpec| {
        if config.wifi_loss > 0.0 {
            link.loss_probability(config.wifi_loss)
        } else {
            link
        }
    };
    let wifi = lossy(
        LinkSpec::from_rtt(1, SimDuration::from_millis(3))
            .bandwidth_bytes_per_sec(40_000_000)
            .jitter_mean(SimDuration::from_micros(200)),
    );
    let ap_ldns = LinkSpec::from_rtt(5, SimDuration::from_millis(13))
        .jitter_mean(SimDuration::from_micros(600));
    let ldns_adns = LinkSpec::from_rtt(12, SimDuration::from_millis(30))
        .jitter_mean(SimDuration::from_millis(2));
    let ldns_cdn = LinkSpec::from_rtt(9, SimDuration::from_millis(20))
        .jitter_mean(SimDuration::from_millis(1));
    let ap_edge = LinkSpec::from_rtt(7, SimDuration::from_millis(14))
        .jitter_mean(SimDuration::from_micros(800));
    let client_edge = lossy(
        LinkSpec::from_rtt(7, SimDuration::from_millis(15))
            .bandwidth_bytes_per_sec(40_000_000)
            .jitter_mean(SimDuration::from_micros(800)),
    );
    let client_ldns = lossy(
        LinkSpec::from_rtt(6, SimDuration::from_millis(16))
            .jitter_mean(SimDuration::from_micros(700)),
    );
    let controller_link = LinkSpec::from_rtt(12, SimDuration::from_millis(24))
        .jitter_mean(SimDuration::from_millis(1));
    let client_controller = lossy(controller_link);
    let edge_origin = LinkSpec::from_rtt(8, SimDuration::from_millis(24))
        .jitter_mean(SimDuration::from_millis(1));

    world.connect(ap, ldns, ap_ldns);
    world.connect(ldns, adns_id, ldns_adns);
    world.connect(ldns, cdn_dns_id, ldns_cdn);
    world.connect(ap, edge, ap_edge);
    world.connect(edge, origin, edge_origin);
    for &client in &clients {
        world.connect(client, ap, wifi);
        world.connect(client, edge, client_edge);
        world.connect(client, ldns, client_ldns);
        if let Some(controller) = controller {
            world.connect(client, controller, client_controller);
        }
    }
    if let Some(controller) = controller {
        world.connect(ap, controller, controller_link);
    }

    Testbed {
        world,
        clients,
        ap,
        edge,
        origin,
        ldns,
        controller,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_appdag::{generate_fleet, DummyAppConfig};

    fn apps(n: usize) -> Vec<AppSpec> {
        let mut rng = SimRng::seed_from(1);
        generate_fleet(n, &DummyAppConfig::default(), &mut rng)
    }

    #[test]
    fn builds_all_four_systems() {
        for system in System::ALL {
            let config = TestbedConfig::new(system, apps(3));
            let bed = build(&config);
            assert_eq!(bed.clients.len(), 3);
            assert_eq!(bed.controller.is_some(), system == System::WiCache);
            assert!(!bed.schedule.is_empty());
        }
    }

    #[test]
    fn schedule_is_identical_across_systems() {
        let a = build(&TestbedConfig::new(System::ApeCache, apps(3)));
        let b = build(&TestbedConfig::new(System::EdgeCache, apps(3)));
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    #[should_panic(expected = "at least one app")]
    fn empty_app_suite_rejected() {
        let _ = build(&TestbedConfig::new(System::ApeCache, Vec::new()));
    }
}
