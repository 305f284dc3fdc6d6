//! The message enum and its identifiers.

use ape_cachealg::{AppId, Priority};
use ape_dnswire::{DnsMessage, UrlHash};
use ape_httpsim::{HttpRequest, HttpResponse};
use ape_simnet::{Message, NodeId, SimDuration};
use std::net::Ipv4Addr;

/// Identifies a TCP connection; unique per initiating node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// Correlates a request with its response across the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Delegation metadata a client attaches when asking the AP to fetch and
/// cache an object on its behalf (paper §IV-B2: "the client sends the raw
/// URL of the request, along with its TTL and priority level, to the AP").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOp {
    /// Developer TTL for the object.
    pub ttl: SimDuration,
    /// Developer priority.
    pub priority: Priority,
    /// App the object belongs to.
    pub app: AppId,
}

/// A single prefetch suggestion: an object the client expects to request
/// soon (a dependent of the object it just asked for), with the cache
/// metadata the AP needs to delegate it proactively.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchHint {
    /// Concrete URL the upcoming request will use.
    pub url: ape_httpsim::Url,
    /// Delegation metadata for the object.
    pub op: CacheOp,
}

/// Every message a node can receive in the APE-CACHE testbed.
///
/// The two bulky payloads — a full DNS packet and a full HTTP request —
/// are boxed: `Msg` rides inline in every scheduled event, so its size is
/// paid per *pending event slot* in the timing wheel, and the hot variants
/// (TCP control, HTTP responses with interned bodies) should not carry the
/// fattest variant's footprint. The compile-time guard below pins the
/// resulting event size.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// A UDP DNS packet (query or response, plain or DNS-Cache).
    Dns(Box<DnsMessage>),
    /// TCP connection request.
    TcpSyn {
        /// Connection being opened.
        conn: ConnId,
    },
    /// TCP connection accept.
    TcpSynAck {
        /// Connection being accepted.
        conn: ConnId,
    },
    /// An HTTP request on an established connection. `cache_op` is present
    /// when this is a delegation request to an APE-CACHE AP.
    HttpReq {
        /// Connection the request travels on.
        conn: ConnId,
        /// Request correlation id.
        req: RequestId,
        /// The request itself.
        request: Box<HttpRequest>,
        /// Delegation metadata (AP-bound requests only).
        cache_op: Option<CacheOp>,
    },
    /// An HTTP response.
    HttpRsp {
        /// Connection the response travels on.
        conn: ConnId,
        /// Correlation id of the request being answered.
        req: RequestId,
        /// The response itself.
        response: HttpResponse,
        /// True when the responder served the object from its local cache
        /// (drives the client-side hit-ratio accounting).
        from_cache: bool,
    },
    /// Wi-Cache: client asks the controller which AP holds an object.
    WiCacheLookup {
        /// Request correlation id.
        req: RequestId,
        /// Hash of the wanted URL.
        url_hash: UrlHash,
    },
    /// Wi-Cache: controller answer; `holder` is the AP's address when some
    /// AP caches the object.
    WiCacheResult {
        /// Correlation id of the lookup being answered.
        req: RequestId,
        /// Address of the caching AP, if any.
        holder: Option<Ipv4Addr>,
    },
    /// Wi-Cache: AP advertises cache contents changes to the controller.
    WiCacheAdvertise {
        /// Keys now cached on the advertising AP.
        added: Vec<UrlHash>,
        /// Keys no longer cached.
        removed: Vec<UrlHash>,
    },
    /// Extension (paper §VI): request-dependency information sent to the
    /// AP so it can prefetch the objects the app will ask for next.
    PrefetchHints {
        /// Upcoming objects, at most a handful per request.
        hints: Vec<PrefetchHint>,
    },
    /// Cooperation: an AP asks a neighbor AP for an object it believes the
    /// neighbor holds, before falling back to the edge/origin path.
    PeerFetch {
        /// Correlation id (the requester's delegation request id).
        req: RequestId,
        /// Hash of the wanted URL.
        key: UrlHash,
    },
    /// Cooperation: a neighbor AP's answer to a [`Msg::PeerFetch`]. A hit
    /// carries the cached response; either way the responder piggybacks a
    /// summary of its hottest cached keys on the delegation-protocol reply.
    PeerRsp {
        /// Correlation id of the peer fetch being answered.
        req: RequestId,
        /// The cached object on a hit, `None` on a miss.
        response: Option<Box<HttpResponse>>,
        /// Hot-object summary of the responder's cache.
        summary: Vec<UrlHash>,
    },
    /// Cooperation: an AP shares a summary of its hottest cached keys with
    /// a neighbor (periodic gossip, and the roam hand-off from a departing
    /// client's old AP to its new one).
    CacheSummary {
        /// Hot cached keys on the sending AP.
        keys: Vec<UrlHash>,
    },
    /// Roaming: a client informs its old AP that it has re-homed to a
    /// neighbor AP, so the old AP can cancel per-client pending state and
    /// hand hot-object summaries to the new AP.
    RoamNotice {
        /// The AP the client now associates with.
        new_ap: NodeId,
    },
}

impl Msg {
    /// Wraps a DNS packet into a message (the boxing is an implementation
    /// detail of the event-size budget, not a protocol property).
    pub fn dns(m: DnsMessage) -> Self {
        Msg::Dns(Box::new(m))
    }

    /// Builds an HTTP request message (boxed, see [`Msg::dns`]).
    pub fn http_req(
        conn: ConnId,
        req: RequestId,
        request: HttpRequest,
        cache_op: Option<CacheOp>,
    ) -> Self {
        Msg::HttpReq {
            conn,
            req,
            request: Box::new(request),
            cache_op,
        }
    }
}

/// `Msg` rides inline in every scheduled event, so its size is paid per
/// pending slot of the timing wheel. If a change fattens the event past
/// this bound, shrink or box the offending variant — don't bump the bound.
const _: () = assert!(ape_simnet::event_footprint::<Msg>() <= 104);

impl Message for Msg {
    fn wire_size(&self) -> usize {
        match self {
            // Encoded packet length + UDP/IP headers.
            Msg::Dns(m) => m.wire_len() + 28,
            // TCP header (no payload) + IP header.
            Msg::TcpSyn { .. } | Msg::TcpSynAck { .. } => 40,
            Msg::HttpReq {
                request, cache_op, ..
            } => request.wire_size() + 40 + if cache_op.is_some() { 24 } else { 0 },
            Msg::HttpRsp { response, .. } => response.wire_size() + 40,
            Msg::WiCacheLookup { .. } => 28 + 16,
            Msg::WiCacheResult { .. } => 28 + 8,
            Msg::WiCacheAdvertise { added, removed } => 28 + 8 * (added.len() + removed.len()),
            Msg::PrefetchHints { hints } => {
                28 + hints.iter().map(|h| h.url.text_len() + 24).sum::<usize>()
            }
            Msg::PeerFetch { .. } => 28 + 16,
            Msg::PeerRsp {
                response, summary, ..
            } => 40 + response.as_deref().map_or(0, |r| r.wire_size()) + 8 * summary.len(),
            Msg::CacheSummary { keys } => 28 + 8 * keys.len(),
            Msg::RoamNotice { .. } => 28 + 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_dnswire::DomainName;
    use ape_httpsim::{Body, Url};

    #[test]
    fn dns_wire_size_tracks_encoding() {
        let name = DomainName::parse("www.apple.com").unwrap();
        let m = Msg::dns(DnsMessage::query(1, name));
        let Msg::Dns(inner) = &m else { unreachable!() };
        assert_eq!(m.wire_size(), inner.wire_len() + 28);
    }

    #[test]
    fn handshake_messages_are_header_sized() {
        assert_eq!(Msg::TcpSyn { conn: ConnId(1) }.wire_size(), 40);
        assert_eq!(Msg::TcpSynAck { conn: ConnId(1) }.wire_size(), 40);
    }

    #[test]
    fn http_response_dominated_by_body() {
        let rsp = Msg::HttpRsp {
            conn: ConnId(1),
            req: RequestId(1),
            response: HttpResponse::ok(Body::synthetic(50_000)),
            from_cache: true,
        };
        assert!(rsp.wire_size() > 50_000);
    }

    #[test]
    fn delegation_request_carries_extra_bytes() {
        let url = Url::parse("http://a.b/c").unwrap();
        let plain = Msg::http_req(ConnId(1), RequestId(1), HttpRequest::get(url.clone()), None);
        let delegated = Msg::http_req(
            ConnId(1),
            RequestId(1),
            HttpRequest::get(url),
            Some(CacheOp {
                ttl: SimDuration::from_mins(10),
                priority: Priority::HIGH,
                app: AppId::new(1),
            }),
        );
        assert_eq!(delegated.wire_size() - plain.wire_size(), 24);
    }

    #[test]
    fn advertise_scales_with_keys() {
        let small = Msg::WiCacheAdvertise {
            added: vec![UrlHash(1)],
            removed: vec![],
        };
        let large = Msg::WiCacheAdvertise {
            added: vec![UrlHash(1); 10],
            removed: vec![UrlHash(2); 5],
        };
        assert!(large.wire_size() > small.wire_size());
    }

    #[test]
    fn peer_fetch_matches_controller_lookup_size() {
        let fetch = Msg::PeerFetch {
            req: RequestId(1),
            key: UrlHash(2),
        };
        let lookup = Msg::WiCacheLookup {
            req: RequestId(1),
            url_hash: UrlHash(2),
        };
        assert_eq!(fetch.wire_size(), lookup.wire_size());
    }

    #[test]
    fn peer_rsp_pays_for_body_and_summary() {
        let miss = Msg::PeerRsp {
            req: RequestId(1),
            response: None,
            summary: vec![UrlHash(9); 4],
        };
        assert_eq!(miss.wire_size(), 40 + 8 * 4);
        let hit = Msg::PeerRsp {
            req: RequestId(1),
            response: Some(Box::new(HttpResponse::ok(Body::synthetic(10_000)))),
            summary: vec![UrlHash(9); 4],
        };
        assert!(hit.wire_size() > 10_000 + miss.wire_size());
    }

    #[test]
    fn cache_summary_scales_with_keys() {
        let keys = |n: usize| Msg::CacheSummary {
            keys: vec![UrlHash(3); n],
        };
        assert_eq!(keys(8).wire_size() - keys(0).wire_size(), 64);
        assert_eq!(
            Msg::RoamNotice {
                new_ap: NodeId::from_raw(1)
            }
            .wire_size(),
            36
        );
    }

    #[test]
    fn ids_are_ordered() {
        assert!(ConnId(1) < ConnId(2));
        assert!(RequestId(1) < RequestId(2));
    }
}
