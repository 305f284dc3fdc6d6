//! The one world builder: the paper's Fig. 9 testbed and the city-scale
//! multi-AP deployments it argues for are the same construction at
//! different sizes.
//!
//! [`assemble`] adds every node and link `crates/core` ever creates: the
//! serving/DNS spine (origin, edge, authoritative DNS, CDN DNS, local
//! DNS), the Wi-Cache controller when deployed, a √N×√N grid of APs with
//! 4-adjacency, each AP's client population, and the links between them.
//! [`crate::build`] is its one-AP case (no roaming, no neighbors);
//! [`build_topology`] is the general one. Link characteristics are
//! calibrated to the paper's measured Fig. 9 anatomy (WiFi RTT ≈ 3 ms,
//! AP↔edge ≈ 14 ms, controller ≈ 24 ms, Table I-level DNS latencies); in
//! a grid, AP `i` draws backhaul class `i mod 3` (fiber — the Fig. 9
//! links — then cable, then DSL), so hit ratio and tail latency are
//! measured over a realistic mix, not a uniform fleet.
//!
//! Every random choice — per-AP schedules, per-client roam walks — draws
//! from a seed derived from the config, so a run replays bitwise from its
//! config. Roam walks are drawn at build time, since a client is linked
//! to every AP its walk visits; schedules are streams, each execution
//! drawn as the one before it fires. Runs are also invariant under
//! tie-perturbation keys (`tests/chaos_roam.rs` pins a 9-AP grid, and the
//! `bench-scale` sweep every city cell; `DESIGN.md` §16).
//!
//! The builder homes full [`ClientNode`]s at each AP: every client runs
//! the real enhanced-client runtime end to end.

use std::sync::Arc;

use ape_dnswire::DomainName;
use ape_nodes::{
    ApNode, AuthDnsNode, Catalog, CatalogEntry, CatalogServer, ClientApps, ClientConfig,
    ClientNode, GridPos, LdnsNode, RoamStop, WiCacheControllerNode, ZoneAnswer,
};
use ape_proto::{IpMap, Msg};
use ape_simnet::{LinkSpec, NodeId, SimDuration, SimRng, World};
use ape_workload::{generate_roam_schedule, RoamConfig, ScheduleStream};

use crate::system::System;
use crate::testbed::TestbedConfig;

/// Seed-mixing constant for per-AP and per-client derived streams
/// (splitmix64's increment; any odd constant with good avalanche works).
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Stream tag of the per-AP schedule RNGs.
const SCHEDULE_STREAM: u64 = 0x5EED_5EED;

/// Stream tag of the per-client roam RNGs.
const ROAM_STREAM: u64 = 0x0A0A_D0AD_0A0A_D0AD;

/// Suffix of the per-domain CDN aliases (mirroring
/// `www.apple.com → www.apple.com.edgekey.net`).
const CDN_SUFFIX: &str = "edgekey.example";

/// TTL of the CDN's A record (Akamai-style short TTL, seconds).
const CDN_A_TTL: u32 = 60;

/// TTL of the site CNAME records (seconds).
const CNAME_TTL: u32 = 300;

/// A multi-AP deployment to instantiate.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Per-run knobs shared with the single-AP testbed: system, app suite,
    /// schedule shape, AP parameters, seed, tie perturbation, tracing.
    /// `base.clients` is the population homed at *each* AP.
    pub base: TestbedConfig,
    /// Number of APs in the grid (1 = the Fig. 9 testbed, 256 = city ward).
    pub aps: usize,
    /// Mean roams per client per minute (`0.0` pins every client to its
    /// home AP and draws no roam randomness).
    pub roam_per_minute: f64,
    /// When true, APs gossip cache summaries to grid neighbors and try a
    /// nearest-holder peer fetch before going upstream; when false each AP
    /// cache is isolated (the paper's per-AP deployment).
    pub cooperative: bool,
}

impl TopologyConfig {
    /// A cooperative, non-roaming grid of `aps` APs over `base`.
    pub fn new(base: TestbedConfig, aps: usize) -> Self {
        TopologyConfig {
            base,
            aps,
            roam_per_minute: 0.0,
            cooperative: true,
        }
    }

    /// Sets the per-AP client population (`base.clients`).
    pub fn with_clients_per_ap(mut self, clients: usize) -> Self {
        self.base.clients = clients;
        self
    }

    /// Sets the mean roam rate (roams per client per minute).
    pub fn with_roam_rate(mut self, per_minute: f64) -> Self {
        self.roam_per_minute = per_minute;
        self
    }

    /// Disables AP↔AP cooperation (isolated per-AP caches).
    pub fn isolated(mut self) -> Self {
        self.cooperative = false;
        self
    }

    /// App executions the built deployment's clients will run, counted by
    /// drawing every AP's schedule; the build itself draws none.
    pub fn scheduled_executions(&self) -> usize {
        (0..self.aps)
            .map(|i| ap_schedule(&self.base, i).count())
            .sum()
    }
}

/// A built multi-AP deployment.
pub struct Topology {
    /// The simulated deployment.
    pub world: World<Msg>,
    /// AP nodes, in grid order (index `i` sits at [`grid_pos`]`(i, side)`).
    pub aps: Vec<NodeId>,
    /// All client nodes, grouped by home AP (AP `i`'s clients occupy
    /// indices `i*clients .. (i+1)*clients` for `clients = base.clients`).
    pub clients: Vec<NodeId>,
    /// Home-AP grid index of each client.
    pub client_home: Vec<usize>,
    /// The edge cache server.
    pub edge: NodeId,
    /// The origin server. It is idle, since the edge holds every object
    /// and no request goes past it. The node, its IP and its links stay so
    /// that every later `NodeId`, and with them every per-link random
    /// stream, keeps its place.
    pub origin: NodeId,
    /// The local DNS resolver.
    pub ldns: NodeId,
    /// The Wi-Cache controller, when deployed.
    pub controller: Option<NodeId>,
}

impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topology")
            .field("aps", &self.aps.len())
            .field("clients", &self.clients.len())
            .finish()
    }
}

/// Side length of the AP grid: the smallest square that fits `aps` cells.
pub fn grid_side(aps: usize) -> usize {
    let mut side = (aps as f64).sqrt() as usize;
    while side * side < aps {
        side += 1;
    }
    side.max(1)
}

/// Grid position of AP `i` on a grid with side length `side`.
pub fn grid_pos(i: usize, side: usize) -> GridPos {
    ((i % side) as u32, (i / side) as u32)
}

/// 4-adjacency neighbor lists over the (possibly ragged) `aps`-cell grid.
/// Entry `i` lists the grid indices adjacent to AP `i`, in ascending order.
pub fn grid_neighbors(aps: usize) -> Vec<Vec<usize>> {
    let side = grid_side(aps);
    (0..aps)
        .map(|i| {
            let (x, y) = (i % side, i / side);
            let mut out = Vec::new();
            if y > 0 {
                out.push(i - side);
            }
            if x > 0 {
                out.push(i - 1);
            }
            if x + 1 < side && i + 1 < aps {
                out.push(i + 1);
            }
            if i + side < aps {
                out.push(i + side);
            }
            out
        })
        .collect()
}

/// The random stream of the schedule AP `i` serves: independently seeded
/// per AP, the same for every system under one seed.
fn schedule_rng(base: &TestbedConfig, i: usize) -> SimRng {
    SimRng::seed_from(base.seed ^ SCHEDULE_STREAM ^ (i as u64).wrapping_mul(SEED_MIX))
}

/// The schedule AP `i` serves, whole.
pub(crate) fn ap_schedule(base: &TestbedConfig, i: usize) -> ScheduleStream {
    ScheduleStream::new(&base.schedule, schedule_rng(base, i))
}

/// Builds the multi-AP world for `config`.
///
/// # Panics
///
/// Panics if the config has no APs, more APs and clients than the
/// address map can hold, no clients per AP, or no apps.
pub fn build_topology(config: &TopologyConfig) -> Topology {
    assemble(
        &config.base,
        config.aps,
        config.roam_per_minute,
        config.cooperative,
    )
}

/// Adds every node and link of a deployment of `aps` APs over `base`:
/// the spine (origin, edge, adns, cdn-dns, ldns), the controller, the AP
/// grid, then each AP's client population, every group with its links.
pub(crate) fn assemble(
    base: &TestbedConfig,
    aps: usize,
    roam_per_minute: f64,
    cooperative: bool,
) -> Topology {
    assert!(aps > 0, "deployment needs at least one AP");
    assert!(
        base.clients > 0,
        "deployment needs at least one client per AP"
    );
    assert!(!base.apps.is_empty(), "deployment needs at least one app");

    let mut world = World::new(base.seed);
    if let Some(key) = base.tie_perturbation {
        world.set_tie_perturbation(key);
    }
    world.set_trace_config(base.trace);
    if base.profiler {
        world.enable_profiler();
    }

    // --- Catalog: the origin's; the edge serves it without latency -----
    let mut catalog = Catalog::new();
    for app in &base.apps {
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
    // The edge holds every object, so no request reaches the origin. Its
    // node, IP and links stay: removing them would shift every later
    // `NodeId`, and with them every per-link random stream.
    let edge_catalog = catalog.without_latency();
    let origin = world.add_node(
        "origin",
        CatalogServer::new(catalog, SimDuration::from_micros(500)),
    );
    let edge = world.add_node(
        "edge",
        CatalogServer::new(edge_catalog, SimDuration::from_micros(400)),
    );

    let mut ip_map = IpMap::new();
    let edge_ip = ip_map.assign(edge);
    ip_map.assign(origin);

    // --- DNS hierarchy --------------------------------------------------
    // Each app domain gets its own CDN alias (`<host>.edgekey.example`),
    // as real CDNs do, so short A-record TTLs expire per domain.
    let mut adns_node = AuthDnsNode::new(SimDuration::from_micros(300));
    for app in &base.apps {
        for (_, obj) in app.dag().iter() {
            let alias: DomainName = format!("{}.{}", obj.url.host(), CDN_SUFFIX)
                .parse()
                .expect("alias from valid host");
            adns_node.wildcard(
                obj.url.host().clone(),
                ZoneAnswer::Cname {
                    target: alias,
                    ttl: CNAME_TTL,
                },
            );
        }
    }
    let adns = world.add_node("adns", adns_node);

    let mut cdn_dns_node = AuthDnsNode::new(SimDuration::from_micros(300));
    cdn_dns_node.wildcard(
        CDN_SUFFIX.parse().expect("static name"),
        ZoneAnswer::A {
            ip: edge_ip,
            ttl: CDN_A_TTL,
        },
    );
    let cdn_dns = world.add_node("cdn-dns", cdn_dns_node);

    let mut delegations: Vec<(DomainName, NodeId)> =
        vec![(CDN_SUFFIX.parse().expect("static name"), cdn_dns)];
    for app in &base.apps {
        for (_, obj) in app.dag().iter() {
            let host = obj.url.host().clone();
            if !delegations.iter().any(|(d, _)| *d == host) {
                delegations.push((host, adns));
            }
        }
    }
    let ldns = world.add_node(
        "ldns",
        LdnsNode::new(SimDuration::from_micros(200), delegations),
    );

    // --- Links (Fig. 9 distances) ---------------------------------------
    // Heterogeneous backhaul, (AP↔edge, AP↔LDNS): AP i draws class
    // i mod 3. Fiber is the calibrated Fig. 9 anatomy; cable and DSL
    // stretch both paths.
    let backhaul = [
        (
            LinkSpec::from_rtt(7, SimDuration::from_millis(14))
                .jitter_mean(SimDuration::from_micros(800)),
            LinkSpec::from_rtt(5, SimDuration::from_millis(13))
                .jitter_mean(SimDuration::from_micros(600)),
        ),
        (
            LinkSpec::from_rtt(8, SimDuration::from_millis(21))
                .jitter_mean(SimDuration::from_millis(1)),
            LinkSpec::from_rtt(6, SimDuration::from_millis(18))
                .jitter_mean(SimDuration::from_micros(800)),
        ),
        (
            LinkSpec::from_rtt(10, SimDuration::from_millis(35))
                .jitter_mean(SimDuration::from_millis(2)),
            LinkSpec::from_rtt(7, SimDuration::from_millis(26))
                .jitter_mean(SimDuration::from_millis(1)),
        ),
    ];
    // Neighbor APs share a wired LAN segment (metro backhaul hop).
    let ap_peer = LinkSpec::from_rtt(2, SimDuration::from_millis(4))
        .jitter_mean(SimDuration::from_micros(300));
    let controller_link = LinkSpec::from_rtt(12, SimDuration::from_millis(24))
        .jitter_mean(SimDuration::from_millis(1));
    let ldns_adns = LinkSpec::from_rtt(12, SimDuration::from_millis(30))
        .jitter_mean(SimDuration::from_millis(2));
    let ldns_cdn = LinkSpec::from_rtt(9, SimDuration::from_millis(20))
        .jitter_mean(SimDuration::from_millis(1));
    let edge_origin = LinkSpec::from_rtt(8, SimDuration::from_millis(24))
        .jitter_mean(SimDuration::from_millis(1));
    // All client links cross the WiFi radio as their first hop, so the
    // configured radio loss applies to each of them.
    let lossy = |link: LinkSpec| {
        if base.wifi_loss > 0.0 {
            link.loss_probability(base.wifi_loss)
        } else {
            link
        }
    };
    let wifi = lossy(
        LinkSpec::from_rtt(1, SimDuration::from_millis(3))
            .bandwidth_bytes_per_sec(40_000_000)
            .jitter_mean(SimDuration::from_micros(200)),
    );
    let client_edge = lossy(
        LinkSpec::from_rtt(7, SimDuration::from_millis(15))
            .bandwidth_bytes_per_sec(40_000_000)
            .jitter_mean(SimDuration::from_micros(800)),
    );
    let client_ldns = lossy(
        LinkSpec::from_rtt(6, SimDuration::from_millis(16))
            .jitter_mean(SimDuration::from_micros(700)),
    );
    let client_controller = lossy(controller_link);

    world.connect(ldns, adns, ldns_adns);
    world.connect(ldns, cdn_dns, ldns_cdn);
    world.connect(edge, origin, edge_origin);

    // --- Wi-Cache controller -------------------------------------------
    let controller = (base.system == System::WiCache).then(|| {
        world.add_node(
            "wicache-controller",
            WiCacheControllerNode::new(SimDuration::from_micros(300)),
        )
    });

    // --- AP grid --------------------------------------------------------
    // AP ids follow the current node count, so both their NodeIds and
    // their addresses can be fixed before any AP is constructed — every AP
    // then carries the complete AP address map.
    let side = grid_side(aps);
    let adjacency = grid_neighbors(aps);
    let ap_base = world.node_count();
    let ap_id = |i: usize| NodeId::from_raw((ap_base + i) as u32);
    let ap_ips: Vec<_> = (0..aps).map(|i| ip_map.assign(ap_id(i))).collect();

    let mut ap_config = base.ap.clone();
    ap_config.policy = base.system.ap_policy(base.ap.policy);
    let mut ap_nodes = Vec::with_capacity(aps);
    for i in 0..aps {
        // Distinct tick phases per AP (see `ApConfig::phase_stagger`): 17 ns
        // keeps the AP grid off the clients' 61 ns watchdog grid and the
        // 61 ns step keeps APs off each other.
        ap_config.phase_stagger = SimDuration::from_nanos(17 + 61 * i as u64);
        let mut node = ApNode::new(ap_config.clone(), ldns, ip_map.clone());
        if let Some(controller) = controller {
            node = node.with_wicache(controller);
        }
        if cooperative {
            node = node.with_neighbors(adjacency[i].iter().map(|&j| ap_id(j)).collect());
        }
        let ap = world.add_node(format!("ap{i}"), node);
        debug_assert_eq!(ap, ap_id(i), "AP id prediction out of sync");
        let (ap_edge, ap_ldns) = backhaul[i % backhaul.len()];
        world.connect(ap, edge, ap_edge);
        world.connect(ap, ldns, ap_ldns);
        // AP↔AP segments exist regardless of cooperation: roam handoffs
        // travel them even when summary gossip is off.
        for &j in adjacency[i].iter().filter(|&&j| j < i) {
            world.connect(ap, ap_id(j), ap_peer);
        }
        if let Some(controller) = controller {
            world.connect(ap, controller, controller_link);
            world
                .node_mut::<WiCacheControllerNode>(controller)
                .register_ap_at(ap, ap_ips[i], grid_pos(i, side));
        }
        ap_nodes.push(ap);
    }

    // --- Clients ----------------------------------------------------------
    let roam = RoamConfig {
        per_client_per_minute: roam_per_minute,
        duration: base.schedule.duration,
    };
    // One copy of the suite-derived tables and of the popularity table
    // for the whole population.
    let client_apps = Arc::new(ClientApps::new(base.apps.clone()));
    let popularity = base.schedule.popularity();
    let mut clients = Vec::with_capacity(aps * base.clients);
    let mut client_home = Vec::with_capacity(clients.capacity());
    for (i, &home_ap) in ap_nodes.iter().enumerate() {
        for j in 0..base.clients {
            let g = clients.len();
            // Each AP's schedule is split round-robin over its population.
            // A client's share is a stream over the AP's draws: nothing of
            // the schedule exists before it falls due.
            let share = ScheduleStream::share(
                &base.schedule,
                &popularity,
                schedule_rng(base, i),
                j,
                base.clients,
            );
            let mut roam_rng =
                SimRng::seed_from(base.seed ^ ROAM_STREAM ^ (g as u64).wrapping_mul(SEED_MIX));
            let walk = generate_roam_schedule(&adjacency, i, &roam, &mut roam_rng);
            let stops: Vec<RoamStop> = walk
                .iter()
                .map(|ev| RoamStop {
                    at: ev.at,
                    ap: ap_id(ev.ap),
                })
                .collect();
            // The radio association set: home plus every AP the walk
            // visits, linked upfront so the links exist before the roam.
            let mut radio: Vec<usize> = walk.iter().map(|ev| ev.ap).chain([i]).collect();
            radio.sort_unstable();
            radio.dedup();

            let dns_server = if base.system.caches_on_ap() {
                home_ap
            } else {
                ldns
            };
            let mut client_config =
                ClientConfig::new(base.system.strategy(), dns_server, home_ap, ip_map.clone());
            client_config.controller = controller;
            client_config.prefetch_hints = base.prefetch_hints;
            let node = ClientNode::new(client_config, Arc::clone(&client_apps), share)
                .with_roam_schedule(stops);
            let client = world.add_node(format!("client{g}"), node);
            for &a in &radio {
                world.connect(client, ap_nodes[a], wifi);
            }
            world.connect(client, edge, client_edge);
            world.connect(client, ldns, client_ldns);
            if let Some(controller) = controller {
                world.connect(client, controller, client_controller);
                world
                    .node_mut::<WiCacheControllerNode>(controller)
                    .register_requester_at(client, grid_pos(i, side));
            }
            clients.push(client);
            client_home.push(i);
        }
    }

    Topology {
        world,
        aps: ap_nodes,
        clients,
        client_home,
        edge,
        origin,
        ldns,
        controller,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::collect_topology;
    use ape_appdag::{generate_fleet, DummyAppConfig};
    use ape_proto::names;
    use ape_workload::ScheduleConfig;

    fn apps(n: usize) -> Vec<AppSpec> {
        let mut rng = SimRng::seed_from(1);
        generate_fleet(n, &DummyAppConfig::default(), &mut rng)
    }

    use ape_appdag::AppSpec;

    fn small_base(system: System) -> TestbedConfig {
        let mut config = TestbedConfig::new(system, apps(5));
        config.schedule = ScheduleConfig {
            apps: 5,
            avg_per_minute: 6.0,
            zipf_exponent: 0.8,
            duration: SimDuration::from_mins(3),
        };
        config
    }

    #[test]
    fn grid_geometry_is_sane() {
        assert_eq!(grid_side(1), 1);
        assert_eq!(grid_side(16), 4);
        assert_eq!(grid_side(17), 5);
        assert_eq!(grid_pos(5, 4), (1, 1));
        let adj = grid_neighbors(16);
        assert_eq!(adj[0], vec![1, 4]);
        assert_eq!(adj[5], vec![1, 4, 6, 9]);
        assert_eq!(adj[15], vec![11, 14]);
        // Ragged 5-cell grid on a 3-wide board: cell 4 has no right/down.
        let ragged = grid_neighbors(5);
        assert_eq!(ragged[4], vec![1, 3]);
        // Adjacency is symmetric.
        for (i, ns) in adj.iter().enumerate() {
            for &j in ns {
                assert!(adj[j].contains(&i), "{i} -> {j} not symmetric");
            }
        }
    }

    #[test]
    fn builds_a_grid_with_per_ap_populations() {
        let config = TopologyConfig::new(small_base(System::ApeCache), 4).with_clients_per_ap(2);
        let top = build_topology(&config);
        assert_eq!(top.aps.len(), 4);
        assert_eq!(top.clients.len(), 8);
        assert_eq!(top.client_home, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert!(top.controller.is_none());
        assert_eq!(config.base.clients, 2);
    }

    #[test]
    fn link_specs_do_not_grow_with_the_grid() {
        // Three upstream links, two backhaul links per class, the AP↔AP
        // segment and three client links: 13 specs however many APs, and
        // however many links roaming radio sets add.
        let specs = |aps| {
            let config = TopologyConfig::new(small_base(System::ApeCache), aps)
                .with_clients_per_ap(1)
                .with_roam_rate(6.0);
            build_topology(&config).world.distinct_link_specs()
        };
        assert_eq!(specs(16), 13);
        assert_eq!(specs(256), 13);
        // The testbed has one backhaul class and no AP↔AP segment.
        assert_eq!(specs(1), 8);
    }

    #[test]
    fn grids_past_2048_aps_are_built() {
        // 2,048 APs was the cap while every draw shared one stream; the
        // limit is now what the address map can hold.
        let config = TopologyConfig::new(small_base(System::ApeCache), 2049).with_clients_per_ap(1);
        let top = build_topology(&config);
        assert_eq!((top.aps.len(), top.clients.len()), (2049, 2049));
    }

    #[test]
    fn single_ap_topology_runs_clean() {
        let config = TopologyConfig::new(small_base(System::ApeCache), 1).with_clients_per_ap(3);
        let mut top = build_topology(&config);
        top.world.run_for(SimDuration::from_mins(3));
        let mut result = collect_topology(System::ApeCache, &mut top);
        let s = result.summary();
        assert!(s.executions > 10, "executions {}", s.executions);
        assert_eq!(s.failures, 0);
        assert!(s.hit_ratio > 0.3, "hit ratio {}", s.hit_ratio);
    }

    #[test]
    fn roaming_clients_roam_and_the_run_stays_clean() {
        let config = TopologyConfig::new(small_base(System::ApeCache), 4)
            .with_clients_per_ap(2)
            .with_roam_rate(2.0);
        let mut top = build_topology(&config);
        top.world.run_for(SimDuration::from_mins(3));
        let roams = top.world.metrics().counter(names::CLIENT_ROAMS);
        assert!(roams > 0, "no client ever roamed");
        let departures = top.world.metrics().counter(names::AP_ROAM_DEPARTURES);
        assert_eq!(roams, departures, "every roam notifies the departed AP");
        let mut result = collect_topology(System::ApeCache, &mut top);
        let s = result.summary();
        assert!(s.executions > 10, "executions {}", s.executions);
    }

    #[test]
    fn cooperative_aps_peer_fetch() {
        let config = TopologyConfig::new(small_base(System::ApeCache), 4).with_clients_per_ap(2);
        let mut top = build_topology(&config);
        top.world.run_for(SimDuration::from_mins(3));
        let fetches = top.world.metrics().counter(names::AP_PEER_FETCHES);
        let hits = top.world.metrics().counter(names::AP_PEER_HITS);
        let misses = top.world.metrics().counter(names::AP_PEER_MISSES);
        assert!(fetches > 0, "cooperative grid never tried a peer fetch");
        assert_eq!(fetches, hits + misses, "every peer fetch resolves");
        assert!(hits > 0, "gossiped summaries never produced a peer hit");
    }

    #[test]
    fn isolated_aps_never_peer_fetch() {
        let config = TopologyConfig::new(small_base(System::ApeCache), 4)
            .with_clients_per_ap(2)
            .isolated();
        let mut top = build_topology(&config);
        top.world.run_for(SimDuration::from_mins(3));
        assert_eq!(top.world.metrics().counter(names::AP_PEER_FETCHES), 0);
    }

    #[test]
    fn wicache_topology_tracks_multiple_holders() {
        let config = TopologyConfig::new(small_base(System::WiCache), 4).with_clients_per_ap(2);
        let mut top = build_topology(&config);
        let controller = top.controller.expect("WiCache deploys the controller");
        top.world.run_for(SimDuration::from_mins(3));
        let node = top.world.node::<WiCacheControllerNode>(controller);
        assert!(node.placement_count() > 0, "no placements registered");
        let mut result = collect_topology(System::WiCache, &mut top);
        assert!(result.summary().executions > 10);
    }
}
