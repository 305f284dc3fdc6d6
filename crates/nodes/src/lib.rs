//! # ape-nodes — simulated node runtimes for the APE-CACHE testbed
//!
//! Every box in the paper's Fig. 9 testbed, as a [`Node`](ape_simnet::Node)
//! implementation over [`ape_proto::Msg`]:
//!
//! * [`ClientNode`] — the enhanced HTTP-client runtime (programming
//!   support + cache lookup & fetching) executing app DAGs,
//! * [`ApNode`] — the router: dnsmasq-style forwarder with the DNS-Cache
//!   extension, delegation fetcher, PACM/LRU cache, resource meters,
//! * [`LdnsNode`] / [`AuthDnsNode`] — the recursive and authoritative DNS
//!   infrastructure (with CNAME chains into a CDN namespace),
//! * [`EdgeNode`] / [`OriginNode`] — the edge cache server and origin,
//! * [`WiCacheControllerNode`] — the Wi-Cache baseline's controller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ap;
mod client;
mod resolver;
mod server;
mod txn;
mod wicache;

pub use ap::{ApConfig, ApNode, ApPolicy};
pub use client::{
    ClientApps, ClientConfig, ClientNode, ClientReport, LookupMode, RoamStop, Strategy,
};
pub use resolver::{AuthDnsNode, LdnsNode, ZoneAnswer};
pub use server::{Catalog, CatalogEntry, EdgeNode, OriginNode};
pub use wicache::{GridPos, WiCacheControllerNode};
