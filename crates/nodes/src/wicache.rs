//! The Wi-Cache controller (baseline, §V-A).
//!
//! Wi-Cache routes every cache request through a centralized controller
//! that knows which AP holds which object. The paper deploys it on EC2,
//! 12 hops from the AP — which is exactly why its cache *lookup* latency
//! exceeds 22 ms while APE-CACHE's stays under 8 ms.
//!
//! The placement registry is **multi-holder**: an object can be cached on
//! several APs at once (city-scale fleets make that the common case), and
//! removals only clear the removing AP's own entry. A lookup answers with
//! the holder nearest to the requester's registered grid position
//! (Manhattan distance, address as the deterministic tie-break), so routing
//! is stable across tie-perturbation keys.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use ape_dnswire::UrlHash;
use ape_proto::{names, Msg};
use ape_simnet::{Context, Node, NodeId, SimDuration};

/// A grid position used for nearest-holder selection (arbitrary units;
/// the topology builder uses AP grid coordinates).
pub type GridPos = (u32, u32);

/// The controller: a registry of object → AP-set placements, updated by AP
/// advertisements, answering client lookups with the nearest holder.
#[derive(Debug)]
pub struct WiCacheControllerNode {
    placements: BTreeMap<UrlHash, BTreeSet<Ipv4Addr>>,
    /// Address of each advertising AP (learned from the testbed builder).
    ap_addresses: BTreeMap<NodeId, Ipv4Addr>,
    /// Grid position of registered nodes: APs (keyed by address via
    /// `addr_positions`) and lookup requesters (clients, keyed by node).
    node_positions: BTreeMap<NodeId, GridPos>,
    addr_positions: BTreeMap<Ipv4Addr, GridPos>,
    processing: SimDuration,
    lookups: u64,
    hits: u64,
}

impl WiCacheControllerNode {
    /// Creates a controller with the given per-request processing time.
    pub fn new(processing: SimDuration) -> Self {
        WiCacheControllerNode {
            placements: BTreeMap::new(),
            ap_addresses: BTreeMap::new(),
            node_positions: BTreeMap::new(),
            addr_positions: BTreeMap::new(),
            processing,
            lookups: 0,
            hits: 0,
        }
    }

    /// Registers an AP with its address, so advertisements can be
    /// attributed, and its grid position.
    pub fn register_ap_at(&mut self, ap: NodeId, address: Ipv4Addr, pos: GridPos) {
        self.ap_addresses.insert(ap, address);
        self.node_positions.insert(ap, pos);
        self.addr_positions.insert(address, pos);
    }

    /// Registers a lookup requester's grid position (a client's home-AP
    /// cell), used to pick the nearest holder for its lookups.
    pub fn register_requester_at(&mut self, node: NodeId, pos: GridPos) {
        self.node_positions.insert(node, pos);
    }

    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that found a holder.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of objects with at least one tracked holder (for tests).
    pub fn placement_count(&self) -> usize {
        self.placements.len()
    }

    /// Number of holders tracked for `key` (for tests).
    pub fn holder_count(&self, key: UrlHash) -> usize {
        self.placements.get(&key).map_or(0, BTreeSet::len)
    }

    /// The holder nearest to `from`: minimal (Manhattan distance, address).
    /// Unregistered positions default to the grid origin, which degenerates
    /// to lowest-address selection — still fully deterministic.
    fn nearest_holder(&self, from: NodeId, key: UrlHash) -> Option<Ipv4Addr> {
        let holders = self.placements.get(&key)?;
        let origin = self.node_positions.get(&from).copied().unwrap_or((0, 0));
        holders
            .iter()
            .min_by_key(|addr| {
                let pos = self.addr_positions.get(addr).copied().unwrap_or((0, 0));
                let dist = pos.0.abs_diff(origin.0) as u64 + pos.1.abs_diff(origin.1) as u64;
                (dist, **addr)
            })
            .copied()
    }
}

impl Node<Msg> for WiCacheControllerNode {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::WiCacheLookup { req, url_hash } => {
                self.lookups += 1;
                let holder = self.nearest_holder(from, url_hash);
                if holder.is_some() {
                    self.hits += 1;
                }
                ctx.send_after(self.processing, from, Msg::WiCacheResult { req, holder });
            }
            Msg::WiCacheAdvertise { added, removed } => {
                let Some(&address) = self.ap_addresses.get(&from) else {
                    // Unregistered AP: a topology misconfiguration. Count it
                    // so it is observable instead of silently invisible.
                    ctx.metrics().incr_id(names::id::WICACHE_ADVERT_DROPPED, 1);
                    return;
                };
                for key in added {
                    self.placements.entry(key).or_default().insert(address);
                }
                for key in removed {
                    // Per-holder remove: only this AP's entry goes away;
                    // other holders keep serving the object.
                    if let Some(holders) = self.placements.get_mut(&key) {
                        holders.remove(&address);
                        if holders.is_empty() {
                            self.placements.remove(&key);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_proto::RequestId;
    use ape_simnet::{LinkSpec, World};

    #[derive(Debug, Default)]
    struct Probe {
        results: Vec<(RequestId, Option<Ipv4Addr>)>,
    }

    impl Node<Msg> for Probe {
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::WiCacheResult { req, holder } = msg {
                self.results.push((req, holder));
            }
        }
    }

    fn world() -> (World<Msg>, NodeId, NodeId, NodeId) {
        let mut w = World::new(4);
        let probe = w.add_node("probe", Probe::default());
        let ap = w.add_node("ap", Probe::default()); // stands in for an AP
        let controller = w.add_node(
            "controller",
            WiCacheControllerNode::new(SimDuration::from_micros(300)),
        );
        w.connect(
            probe,
            controller,
            LinkSpec::from_rtt(12, SimDuration::from_millis(24)),
        );
        w.connect(
            ap,
            controller,
            LinkSpec::from_rtt(12, SimDuration::from_millis(24)),
        );
        (w, probe, ap, controller)
    }

    /// Adds a second stand-in AP wired to the controller.
    fn second_ap(w: &mut World<Msg>, controller: NodeId) -> NodeId {
        let ap_b = w.add_node("ap-b", Probe::default());
        w.connect(
            ap_b,
            controller,
            LinkSpec::from_rtt(12, SimDuration::from_millis(24)),
        );
        ap_b
    }

    fn advertise(w: &mut World<Msg>, ap: NodeId, controller: NodeId, key: UrlHash, add: bool) {
        let (added, removed) = if add {
            (vec![key], vec![])
        } else {
            (vec![], vec![key])
        };
        w.post(ap, controller, Msg::WiCacheAdvertise { added, removed });
        w.run_to_idle();
    }

    #[test]
    fn lookup_miss_then_hit_after_advertisement() {
        let (mut w, probe, ap, controller) = world();
        let ap_ip = Ipv4Addr::new(10, 0, 0, 3);
        w.node_mut::<WiCacheControllerNode>(controller)
            .register_ap_at(ap, ap_ip, (0, 0));

        let key = UrlHash::of("http://a/x");
        w.post(
            probe,
            controller,
            Msg::WiCacheLookup {
                req: RequestId(1),
                url_hash: key,
            },
        );
        w.run_to_idle();
        assert_eq!(w.node::<Probe>(probe).results, vec![(RequestId(1), None)]);

        advertise(&mut w, ap, controller, key, true);
        w.post(
            probe,
            controller,
            Msg::WiCacheLookup {
                req: RequestId(2),
                url_hash: key,
            },
        );
        w.run_to_idle();
        let results = &w.node::<Probe>(probe).results;
        assert_eq!(results[1], (RequestId(2), Some(ap_ip)));
        let c = w.node::<WiCacheControllerNode>(controller);
        assert_eq!(c.lookups(), 2);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn removal_clears_placement() {
        let (mut w, probe, ap, controller) = world();
        let ap_ip = Ipv4Addr::new(10, 0, 0, 3);
        w.node_mut::<WiCacheControllerNode>(controller)
            .register_ap_at(ap, ap_ip, (0, 0));
        let key = UrlHash::of("http://a/x");
        advertise(&mut w, ap, controller, key, true);
        assert_eq!(
            w.node::<WiCacheControllerNode>(controller)
                .placement_count(),
            1
        );
        advertise(&mut w, ap, controller, key, false);
        assert_eq!(
            w.node::<WiCacheControllerNode>(controller)
                .placement_count(),
            0
        );
        w.post(
            probe,
            controller,
            Msg::WiCacheLookup {
                req: RequestId(3),
                url_hash: key,
            },
        );
        w.run_to_idle();
        assert_eq!(w.node::<Probe>(probe).results.last().unwrap().1, None);
    }

    /// The single-holder registry bug this PR fixes: AP B advertising a key
    /// AP A already holds used to *steal* the placement, and A's later
    /// `removed` was ignored by the owner guard — stranding stale state.
    /// With the multi-holder registry both holders are tracked, and each
    /// removal clears exactly its own entry.
    #[test]
    fn second_holder_does_not_steal_and_removal_is_per_holder() {
        let (mut w, probe, ap_a, controller) = world();
        let ap_b = second_ap(&mut w, controller);
        let ip_a = Ipv4Addr::new(10, 0, 0, 3);
        let ip_b = Ipv4Addr::new(10, 0, 0, 4);
        {
            let c = w.node_mut::<WiCacheControllerNode>(controller);
            c.register_ap_at(ap_a, ip_a, (0, 0));
            c.register_ap_at(ap_b, ip_b, (0, 0));
        }
        let key = UrlHash::of("http://a/x");
        advertise(&mut w, ap_a, controller, key, true);
        advertise(&mut w, ap_b, controller, key, true);
        assert_eq!(
            w.node::<WiCacheControllerNode>(controller)
                .holder_count(key),
            2
        );

        // A removes its copy; B must remain the (only) holder.
        advertise(&mut w, ap_a, controller, key, false);
        let c = w.node::<WiCacheControllerNode>(controller);
        assert_eq!(c.holder_count(key), 1);
        w.post(
            probe,
            controller,
            Msg::WiCacheLookup {
                req: RequestId(7),
                url_hash: key,
            },
        );
        w.run_to_idle();
        assert_eq!(w.node::<Probe>(probe).results.last().unwrap().1, Some(ip_b));

        // B removes too: no holders left, lookups miss again.
        advertise(&mut w, ap_b, controller, key, false);
        assert_eq!(
            w.node::<WiCacheControllerNode>(controller)
                .placement_count(),
            0
        );
    }

    /// Nearest-holder selection: a requester registered next to AP B gets
    /// B even though A's address sorts first; ties break on address.
    #[test]
    fn lookup_returns_nearest_holder_with_address_tiebreak() {
        let (mut w, probe, ap_a, controller) = world();
        let ap_b = second_ap(&mut w, controller);
        let ip_a = Ipv4Addr::new(10, 0, 0, 3);
        let ip_b = Ipv4Addr::new(10, 0, 0, 4);
        {
            let c = w.node_mut::<WiCacheControllerNode>(controller);
            c.register_ap_at(ap_a, ip_a, (0, 0));
            c.register_ap_at(ap_b, ip_b, (3, 0));
            c.register_requester_at(probe, (3, 0));
        }
        let key = UrlHash::of("http://a/x");
        advertise(&mut w, ap_a, controller, key, true);
        advertise(&mut w, ap_b, controller, key, true);
        w.post(
            probe,
            controller,
            Msg::WiCacheLookup {
                req: RequestId(1),
                url_hash: key,
            },
        );
        w.run_to_idle();
        assert_eq!(w.node::<Probe>(probe).results.last().unwrap().1, Some(ip_b));

        // Re-home the requester midway: both holders now tie on distance,
        // and the lower address (A) wins deterministically.
        w.node_mut::<WiCacheControllerNode>(controller)
            .register_requester_at(probe, (1, 1));
        w.post(
            probe,
            controller,
            Msg::WiCacheLookup {
                req: RequestId(2),
                url_hash: key,
            },
        );
        w.run_to_idle();
        assert_eq!(w.node::<Probe>(probe).results.last().unwrap().1, Some(ip_a));
    }

    #[test]
    fn unregistered_ap_advertisements_ignored() {
        let (mut w, _probe, ap, controller) = world();
        let key = UrlHash::of("http://a/x");
        w.post(
            ap,
            controller,
            Msg::WiCacheAdvertise {
                added: vec![key],
                removed: vec![],
            },
        );
        w.run_to_idle();
        assert_eq!(
            w.node::<WiCacheControllerNode>(controller)
                .placement_count(),
            0
        );
        assert_eq!(w.metrics().counter(names::WICACHE_ADVERT_DROPPED), 1);
    }

    #[test]
    fn lookup_round_trip_pays_controller_distance() {
        let (mut w, probe, _ap, controller) = world();
        let key = UrlHash::of("http://a/x");
        let start = w.now();
        w.post(
            probe,
            controller,
            Msg::WiCacheLookup {
                req: RequestId(1),
                url_hash: key,
            },
        );
        w.run_to_idle();
        let elapsed = (w.now() - start).as_millis_f64();
        assert!(elapsed >= 24.0, "lookup took {elapsed}ms");
    }
}
