//! HTTP servers: the origin and the edge cache server.
//!
//! The origin hosts every object and adds each object's configured
//! `remote_latency` as service time — standing in for servers at varying
//! distances (the paper assigns 20–50 ms per object). The edge cache server
//! sits 7 hops from the AP, has ample capacity (the paper's assumption:
//! "the edge server's cache capacity was ample enough to store all
//! cacheable objects"), and fetches from the origin on first touch.

use std::collections::{BTreeMap, BTreeSet};

use ape_httpsim::{Body, HttpRequest, HttpResponse, Url};
use ape_proto::{names, ConnId, Msg, RequestId, SpanKind};
use ape_simnet::{Context, Node, NodeId, SimDuration, SpanCtx};

/// What the origin knows about one object family (keyed by base id).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogEntry {
    /// Object size in bytes.
    pub size: u64,
    /// Extra service latency simulating the object's origin distance.
    pub extra_latency: SimDuration,
}

/// The object catalog shared by origin and edge: base-URL → entry.
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

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The origin server: serves everything in its catalog, slowly.
#[derive(Debug)]
pub struct OriginNode {
    catalog: Catalog,
    processing: SimDuration,
    served: u64,
}

impl OriginNode {
    /// Creates an origin over `catalog` with base per-request processing.
    pub fn new(catalog: Catalog, processing: SimDuration) -> Self {
        OriginNode {
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

impl Node<Msg> for OriginNode {
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

/// A fetch the edge is waiting on from the origin.
#[derive(Debug)]
struct PendingOriginFetch {
    client: NodeId,
    conn: ConnId,
    req: RequestId,
    url: Url,
    /// Origin-fill span, child of whatever span the request carried.
    span: Option<SpanCtx>,
}

/// The edge cache server.
///
/// Serves cached objects immediately; on a miss, fetches from the origin
/// first (adding the origin round trip and the object's origin latency),
/// then caches the object forever (ample capacity).
#[derive(Debug)]
pub struct EdgeNode {
    origin: NodeId,
    catalog: Catalog,
    cached: BTreeSet<String>,
    pending: BTreeMap<RequestId, PendingOriginFetch>,
    processing: SimDuration,
    next_conn: u64,
    next_req: u64,
    hits: u64,
}

impl EdgeNode {
    /// Creates an edge server that fills misses from `origin`.
    pub fn new(origin: NodeId, catalog: Catalog, processing: SimDuration) -> Self {
        EdgeNode {
            origin,
            catalog,
            cached: BTreeSet::new(),
            pending: BTreeMap::new(),
            processing,
            next_conn: 1_000_000,
            next_req: 1_000_000,
            hits: 0,
        }
    }

    /// Pre-warms the edge with every catalog object (used when a run should
    /// start from the paper's steady-state assumption).
    pub fn prewarm(&mut self) {
        let keys: Vec<String> = self.catalog.entries.keys().cloned().collect();
        self.cached.extend(keys);
    }

    /// Cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    fn serve(
        &self,
        ctx: &mut Context<'_, Msg>,
        to: NodeId,
        conn: ConnId,
        req: RequestId,
        url: &Url,
    ) {
        let response = match self.catalog.entry_for(url) {
            Some(entry) => HttpResponse::ok(Body::synthetic(entry.size)),
            None => HttpResponse::not_found(),
        };
        ctx.send_after(
            self.processing,
            to,
            Msg::HttpRsp {
                conn,
                req,
                response,
                from_cache: true,
            },
        );
    }
}

impl Node<Msg> for EdgeNode {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::TcpSyn { conn } => {
                ctx.send_after(self.processing, from, Msg::TcpSynAck { conn });
            }
            Msg::TcpSynAck { .. } => {
                // Connection to origin accepted; our upstream requests are
                // sent eagerly below, so nothing to do.
            }
            Msg::HttpReq {
                conn, req, request, ..
            } => {
                if self.cached.contains(request.url.base_id())
                    || self.catalog.entry_for(&request.url).is_none()
                {
                    self.hits += 1;
                    self.serve(ctx, from, conn, req, &request.url);
                    return;
                }
                // Miss: fetch from origin, then serve. The upstream TCP
                // handshake is modelled by a SYN the origin answers while
                // the request is already queued behind it.
                ctx.metrics().incr_id(names::id::EDGE_ORIGIN_FETCHES, 1);
                let span = ctx.span_start(SpanKind::OriginFetch);
                let up_conn = ConnId(self.next_conn);
                self.next_conn += 1;
                let up_req = RequestId(self.next_req);
                self.next_req += 1;
                self.pending.insert(
                    up_req,
                    PendingOriginFetch {
                        client: from,
                        conn,
                        req,
                        url: request.url.clone(),
                        span,
                    },
                );
                ctx.send_after(self.processing, self.origin, Msg::TcpSyn { conn: up_conn });
                // One RTT after the SYN the handshake is done; issue the
                // request with that extra delay so timing matches a real
                // connect-then-request exchange.
                let handshake = ctx.link_rtt(self.origin).unwrap_or(SimDuration::ZERO);
                ctx.send_after(
                    self.processing + handshake,
                    self.origin,
                    Msg::HttpReq {
                        conn: up_conn,
                        req: up_req,
                        request: HttpRequest::get(request.url),
                        cache_op: None,
                    },
                );
            }
            Msg::HttpRsp { req, response, .. } => {
                // Origin answered one of our fills.
                let Some(pending) = self.pending.remove(&req) else {
                    return;
                };
                if let Some(span) = pending.span {
                    ctx.span_end(span, SpanKind::OriginFetch);
                }
                if response.status.is_success() {
                    self.cached.insert(pending.url.base_id().to_owned());
                }
                ctx.send_after(
                    self.processing,
                    pending.client,
                    Msg::HttpRsp {
                        conn: pending.conn,
                        req: pending.req,
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
            OriginNode::new(catalog(), SimDuration::from_micros(500)),
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
        assert_eq!(w.node::<OriginNode>(origin).served(), 1);
    }

    #[test]
    fn origin_404s_unknown_objects() {
        let mut w = World::new(1);
        let mut probe = FetchProbe::new(Url::parse("http://other.example/x").unwrap());
        let origin = w.add_node(
            "origin",
            OriginNode::new(catalog(), SimDuration::from_micros(500)),
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

    fn edge_world(prewarm: bool) -> (World<Msg>, ape_simnet::NodeId, ape_simnet::NodeId) {
        let mut w = World::new(2);
        let origin = w.add_node(
            "origin",
            OriginNode::new(catalog(), SimDuration::from_micros(500)),
        );
        let mut edge = EdgeNode::new(origin, catalog(), SimDuration::from_micros(500));
        if prewarm {
            edge.prewarm();
        }
        let edge_id = w.add_node("edge", edge);
        let mut probe = FetchProbe::new(url());
        probe.target = Some(edge_id);
        let probe_id = w.add_node("probe", probe);
        w.connect(
            probe_id,
            edge_id,
            LinkSpec::from_rtt(7, SimDuration::from_millis(14)),
        );
        w.connect(
            edge_id,
            origin,
            LinkSpec::from_rtt(8, SimDuration::from_millis(24)),
        );
        (w, edge_id, probe_id)
    }

    #[test]
    fn prewarmed_edge_serves_quickly() {
        let (mut w, edge, probe) = edge_world(true);
        w.run_to_idle();
        let p = w.node::<FetchProbe>(probe);
        let (rsp, from_cache) = p.response.as_ref().unwrap();
        assert!(rsp.status.is_success());
        assert!(from_cache);
        // 2 client RTTs ≈ 28ms + transfer + processing; well under 40ms.
        let t = p.finished_at.unwrap().as_millis_f64();
        assert!(t < 40.0, "took {t}ms");
        assert_eq!(w.node::<EdgeNode>(edge).hits(), 1);
        assert_eq!(w.metrics().counter(names::EDGE_ORIGIN_FETCHES), 0);
    }

    #[test]
    fn cold_edge_fills_from_origin_then_caches() {
        let (mut w, edge, probe) = edge_world(false);
        w.run_to_idle();
        let t_first = w
            .node::<FetchProbe>(probe)
            .finished_at
            .unwrap()
            .as_millis_f64();
        // First fetch pays origin RTTs + 40ms origin latency on top.
        assert!(t_first > 100.0, "cold fetch took {t_first}ms");
        assert_eq!(w.metrics().counter(names::EDGE_ORIGIN_FETCHES), 1);

        // Second fetch (fresh probe wired to same edge) is a hit.
        let mut probe2 = FetchProbe::new(url());
        probe2.target = Some(edge);
        let probe2_id = w.add_node("probe2", probe2);
        w.connect(
            probe2_id,
            edge,
            LinkSpec::from_rtt(7, SimDuration::from_millis(14)),
        );
        let start = w.now();
        w.post(probe2_id, edge, Msg::TcpSyn { conn: ConnId(5) });
        w.run_to_idle();
        let p2 = w.node::<FetchProbe>(probe2_id);
        // probe2's on_start didn't run a SYN (target set before add, started
        // world already); the posted SYN drove the handshake instead.
        let warm = (p2.finished_at.unwrap() - start).as_millis_f64();
        assert!(warm < 40.0, "warm fetch took {warm}ms");
        assert_eq!(w.node::<EdgeNode>(edge).hits(), 1);
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
    }
}
