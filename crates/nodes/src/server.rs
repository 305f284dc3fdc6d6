//! HTTP servers: the edge cache server and the origin, one node type.
//!
//! A [`CatalogServer`] answers every request for an object in its catalog
//! after its processing time plus the object's `extra_latency`, and 404s
//! the rest. The catalog is what tells the two roles apart. The origin's
//! entries carry each object's configured `remote_latency`, standing in for
//! servers at varying distances (the paper assigns 20–50 ms per object).
//! The edge sits 7 hops from the AP and holds every object from the start,
//! the paper's assumption that "the edge server's cache capacity was ample
//! enough to store all cacheable objects", so its entries carry none.

use std::collections::BTreeMap;

use ape_httpsim::{Body, HttpResponse, Url};
use ape_proto::Msg;
use ape_simnet::{Context, Node, NodeId, SimDuration};

/// What a server knows about one object family (keyed by base id).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogEntry {
    /// Object size in bytes.
    pub size: u64,
    /// Extra service latency simulating the object's origin distance
    /// (zero at the edge).
    pub extra_latency: SimDuration,
}

/// A server's object catalog: base-URL → entry.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    entries: BTreeMap<String, CatalogEntry>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers an object family by its base URL.
    pub fn add(&mut self, base_id: impl Into<String>, entry: CatalogEntry) -> &mut Self {
        self.entries.insert(base_id.into(), entry);
        self
    }

    /// Looks up the entry serving `url`.
    pub fn entry_for(&self, url: &Url) -> Option<CatalogEntry> {
        self.entries.get(url.base_id()).copied()
    }

    /// The same objects with no extra latency: the edge's catalog.
    pub fn without_latency(&self) -> Catalog {
        let entries = self
            .entries
            .iter()
            .map(|(base_id, entry)| {
                let entry = CatalogEntry {
                    extra_latency: SimDuration::ZERO,
                    ..*entry
                };
                (base_id.clone(), entry)
            })
            .collect();
        Catalog { entries }
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An HTTP server over a catalog (see the module docs for its two roles).
#[derive(Debug)]
pub struct CatalogServer {
    catalog: Catalog,
    processing: SimDuration,
    served: u64,
}

impl CatalogServer {
    /// Creates a server over `catalog` with base per-request processing.
    pub fn new(catalog: Catalog, processing: SimDuration) -> Self {
        CatalogServer {
            catalog,
            processing,
            served: 0,
        }
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }
}

impl Node<Msg> for CatalogServer {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::TcpSyn { conn } => {
                ctx.send_after(self.processing, from, Msg::TcpSynAck { conn });
            }
            Msg::HttpReq {
                conn, req, request, ..
            } => {
                self.served += 1;
                let (response, delay) = match self.catalog.entry_for(&request.url) {
                    Some(entry) => (
                        HttpResponse::ok(Body::synthetic(entry.size)),
                        self.processing + entry.extra_latency,
                    ),
                    None => (HttpResponse::not_found(), self.processing),
                };
                ctx.send_after(
                    delay,
                    from,
                    Msg::HttpRsp {
                        conn,
                        req,
                        response,
                        from_cache: false,
                    },
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_httpsim::HttpRequest;
    use ape_proto::{ConnId, RequestId};
    use ape_simnet::{LinkSpec, SimTime, World};

    /// Minimal TCP client driving one fetch.
    #[derive(Debug)]
    struct FetchProbe {
        target: Option<NodeId>,
        url: Url,
        response: Option<(HttpResponse, bool)>,
        finished_at: Option<SimTime>,
    }

    impl FetchProbe {
        fn new(url: Url) -> Self {
            FetchProbe {
                target: None,
                url,
                response: None,
                finished_at: None,
            }
        }
    }

    impl Node<Msg> for FetchProbe {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if let Some(t) = self.target {
                ctx.send(t, Msg::TcpSyn { conn: ConnId(1) });
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::TcpSynAck { conn } => {
                    ctx.send(
                        from,
                        Msg::HttpReq {
                            conn,
                            req: RequestId(9),
                            request: HttpRequest::get(self.url.clone()),
                            cache_op: None,
                        },
                    );
                }
                Msg::HttpRsp {
                    response,
                    from_cache,
                    ..
                } => {
                    self.response = Some((response, from_cache));
                    self.finished_at = Some(ctx.now());
                }
                _ => {}
            }
        }
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(
            "http://app.example/thumb",
            CatalogEntry {
                size: 50_000,
                extra_latency: SimDuration::from_millis(40),
            },
        );
        c
    }

    fn url() -> Url {
        Url::parse("http://app.example/thumb?v=1").unwrap()
    }

    #[test]
    fn origin_serves_catalog_objects_with_latency() {
        let mut w = World::new(1);
        let mut probe = FetchProbe::new(url());
        let origin = w.add_node(
            "origin",
            CatalogServer::new(catalog(), SimDuration::from_micros(500)),
        );
        probe.target = Some(origin);
        let probe_id = w.add_node("probe", probe);
        w.connect(
            probe_id,
            origin,
            LinkSpec::from_rtt(10, SimDuration::from_millis(20)),
        );
        w.run_to_idle();
        let p = w.node::<FetchProbe>(probe_id);
        let (rsp, from_cache) = p.response.as_ref().expect("got response");
        assert!(rsp.status.is_success());
        assert_eq!(rsp.body.size(), 50_000);
        assert!(!from_cache);
        // 2 RTTs (40ms) + 40ms origin latency + processing.
        let t = p.finished_at.unwrap().as_millis_f64();
        assert!(t > 80.0, "took {t}ms");
        assert_eq!(w.node::<CatalogServer>(origin).served(), 1);
    }

    #[test]
    fn origin_404s_unknown_objects() {
        let mut w = World::new(1);
        let mut probe = FetchProbe::new(Url::parse("http://other.example/x").unwrap());
        let origin = w.add_node(
            "origin",
            CatalogServer::new(catalog(), SimDuration::from_micros(500)),
        );
        probe.target = Some(origin);
        let probe_id = w.add_node("probe", probe);
        w.connect(
            probe_id,
            origin,
            LinkSpec::new(1, SimDuration::from_millis(1)),
        );
        w.run_to_idle();
        let (rsp, _) = w.node::<FetchProbe>(probe_id).response.as_ref().unwrap();
        assert!(!rsp.status.is_success());
    }

    /// The edge role: a catalog without extra latency, so a fetch costs
    /// the client's two round trips and processing alone.
    #[test]
    fn prewarmed_edge_serves_quickly() {
        let mut w = World::new(2);
        let edge = w.add_node(
            "edge",
            CatalogServer::new(catalog().without_latency(), SimDuration::from_micros(500)),
        );
        let mut probe = FetchProbe::new(url());
        probe.target = Some(edge);
        let probe = w.add_node("probe", probe);
        w.connect(
            probe,
            edge,
            LinkSpec::from_rtt(7, SimDuration::from_millis(14)),
        );
        w.run_to_idle();
        let p = w.node::<FetchProbe>(probe);
        let (rsp, _) = p.response.as_ref().unwrap();
        assert!(rsp.status.is_success());
        assert_eq!(rsp.body.size(), 50_000);
        // 2 client RTTs ≈ 28ms + transfer + processing; well under 40ms.
        let t = p.finished_at.unwrap().as_millis_f64();
        assert!(t < 40.0, "took {t}ms");
        assert_eq!(w.node::<CatalogServer>(edge).served(), 1);
    }

    #[test]
    fn catalog_lookup_by_base_id() {
        let c = catalog();
        assert!(c.entry_for(&url()).is_some());
        assert!(c
            .entry_for(&Url::parse("http://app.example/thumb?v=9").unwrap())
            .is_some());
        assert!(c
            .entry_for(&Url::parse("http://app.example/other").unwrap())
            .is_none());
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        let edge = c.without_latency().entry_for(&url()).unwrap();
        assert_eq!(edge.size, 50_000);
        assert_eq!(edge.extra_latency, SimDuration::ZERO);
    }
}
