//! Address assignment: simulated IPv4 addresses ↔ simulator node ids.
//!
//! DNS answers carry IPv4 addresses, but the simulator routes by
//! [`NodeId`]. The testbed builder assigns each server-ish node an address
//! from `10.0.0.0/8` and hands the map to clients and APs so a resolved IP
//! can be dialled.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ape_simnet::NodeId;

/// Bidirectional IPv4 ↔ node map.
///
/// # Examples
///
/// ```
/// use ape_proto::IpMap;
/// use ape_simnet::NodeId;
///
/// let mut map = IpMap::new();
/// let ip = map.assign(NodeId::from_raw(3));
/// assert_eq!(map.node_of(ip), Some(NodeId::from_raw(3)));
/// assert_eq!(map.ip_of(NodeId::from_raw(3)), Some(ip));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IpMap {
    ip_to_node: BTreeMap<Ipv4Addr, NodeId>,
    node_to_ip: BTreeMap<NodeId, Ipv4Addr>,
    next_host: u32,
}

impl IpMap {
    /// The dummy address APs return when short-circuiting DNS resolution
    /// (paper §IV-B3); it is never assigned to a node.
    pub const DUMMY: Ipv4Addr = Ipv4Addr::new(0, 0, 0, 0);

    /// Maximum number of distinct addresses the allocator can hand out
    /// (hosts `10.0.0.1` … `10.255.255.255`). Past this, `assign` would
    /// wrap octets back onto live addresses; it panics instead.
    pub const CAPACITY: usize = (1 << 24) - 1;

    /// Creates an empty map.
    pub fn new() -> Self {
        IpMap::default()
    }

    /// Assigns the next free `10.x.y.z` address to `node`, or returns the
    /// existing assignment.
    pub fn assign(&mut self, node: NodeId) -> Ipv4Addr {
        if let Some(ip) = self.node_to_ip.get(&node) {
            return *ip;
        }
        self.next_host += 1;
        let h = self.next_host;
        assert!(
            h < (1 << 24),
            "IpMap exhausted: 10.0.0.0/8 host space wraps past {} assignments",
            (1 << 24) - 1
        );
        let ip = Ipv4Addr::new(10, (h >> 16) as u8, (h >> 8) as u8, h as u8);
        let stale = self.ip_to_node.insert(ip, node);
        assert!(
            stale.is_none(),
            "IpMap wrapped onto live address {ip} (held by {stale:?})"
        );
        self.node_to_ip.insert(node, ip);
        ip
    }

    /// The node behind an address.
    pub fn node_of(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.ip_to_node.get(&ip).copied()
    }

    /// The address of a node.
    pub fn ip_of(&self, node: NodeId) -> Option<Ipv4Addr> {
        self.node_to_ip.get(&node).copied()
    }

    /// Whether `ip` is the dummy short-circuit address.
    pub fn is_dummy(ip: Ipv4Addr) -> bool {
        ip == Self::DUMMY
    }

    /// Number of assigned addresses.
    pub fn len(&self) -> usize {
        self.node_to_ip.len()
    }

    /// Whether no addresses are assigned.
    pub fn is_empty(&self) -> bool {
        self.node_to_ip.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_is_idempotent() {
        let mut m = IpMap::new();
        let n = NodeId::from_raw(7);
        let a = m.assign(n);
        let b = m.assign(n);
        assert_eq!(a, b);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn distinct_nodes_get_distinct_ips() {
        let mut m = IpMap::new();
        let a = m.assign(NodeId::from_raw(1));
        let b = m.assign(NodeId::from_raw(2));
        assert_ne!(a, b);
        assert_eq!(m.node_of(a), Some(NodeId::from_raw(1)));
        assert_eq!(m.node_of(b), Some(NodeId::from_raw(2)));
    }

    #[test]
    fn dummy_is_never_assigned() {
        let mut m = IpMap::new();
        for i in 0..300 {
            let ip = m.assign(NodeId::from_raw(i));
            assert!(!IpMap::is_dummy(ip));
        }
        assert_eq!(m.node_of(IpMap::DUMMY), None);
    }

    #[test]
    fn unknown_lookups_are_none() {
        let m = IpMap::new();
        assert!(m.is_empty());
        assert_eq!(m.ip_of(NodeId::from_raw(9)), None);
        assert_eq!(m.node_of(Ipv4Addr::new(10, 0, 0, 1)), None);
    }

    /// Capacity contract: the allocator hands out hosts `10.0.0.1` through
    /// `10.255.255.255` — 2^24 − 1 distinct addresses — and panics
    /// instead of wrapping back onto live addresses. City
    /// topologies of thousands of APs are nowhere near the bound; this test
    /// documents where it is.
    #[test]
    fn capacity_is_two_to_the_24_minus_one() {
        assert_eq!(IpMap::CAPACITY, (1 << 24) - 1);
        // Spot-check the edges of the encoding without allocating 16M
        // entries: the first and a deep host land where the /8 math says.
        let mut m = IpMap::new();
        assert_eq!(m.assign(NodeId::from_raw(0)), Ipv4Addr::new(10, 0, 0, 1));
        m.next_host = IpMap::CAPACITY as u32 - 1;
        assert_eq!(
            m.assign(NodeId::from_raw(1)),
            Ipv4Addr::new(10, 255, 255, 255)
        );
    }

    #[test]
    #[should_panic(expected = "IpMap exhausted")]
    fn exhaustion_panics_instead_of_wrapping() {
        let mut m = IpMap::new();
        m.next_host = IpMap::CAPACITY as u32;
        m.assign(NodeId::from_raw(2));
    }

    #[test]
    fn addresses_roll_over_octets() {
        let mut m = IpMap::new();
        let mut last = Ipv4Addr::UNSPECIFIED;
        for i in 0..600 {
            last = m.assign(NodeId::from_raw(i));
        }
        assert_eq!(last, Ipv4Addr::new(10, 0, 2, 88));
        assert_eq!(m.len(), 600);
    }
}
