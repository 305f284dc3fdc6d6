//! The span-kind vocabulary of the request-tracing layer.
//!
//! Every span a testbed node opens has one of these kinds. Keeping the
//! vocabulary typed (instead of ad-hoc strings at each call site) means the
//! attribution pass in `apecache` and the instrumentation in `ape-nodes`
//! cannot drift apart, and exporters get a stable, documented label set.

use ape_simnet::SpanLabel;

/// The kind of one traced span in the request lifecycle.
///
/// `Context`'s span methods take a [`SpanLabel`], which a kind converts
/// into and a string does not:
///
/// ```
/// use ape_proto::{Msg, SpanKind};
/// fn lookup(ctx: &mut ape_simnet::Context<'_, Msg>) {
///     let _ = ctx.span_start(SpanKind::Lookup);
/// }
/// ```
///
/// ```compile_fail
/// use ape_proto::{Msg, SpanKind};
/// fn lookup(ctx: &mut ape_simnet::Context<'_, Msg>) {
///     let _ = ctx.span_start("lookup");
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// Root span: one client object fetch, from request start to response
    /// delivery (or failure).
    Fetch,
    /// Client-side lookup stage: fetch start until the cache flag (or DNS
    /// answer) tells the client where to retrieve from.
    Lookup,
    /// Client-side retrieval from the AP cache (a DNS-Cache *Hit*).
    RetrievalHit,
    /// Client-side retrieval via AP delegation (*Miss* → delegate).
    RetrievalDelegation,
    /// Client-side retrieval from the edge server (baseline path, or an
    /// uncacheable object).
    RetrievalEdge,
    /// AP-side upstream DNS resolution for a forwarded query.
    DnsUpstream,
    /// AP-side WAN fetch of a delegated object (starts when the delegation
    /// is enqueued, ends when the upstream response arrives).
    WanFetch,
    /// Edge-side origin fill on an edge cache miss.
    OriginFetch,
    /// AP-side cache admission of a delegated object, covering the
    /// eviction decision (PACM solve / LRU scan) and the insert — the
    /// `EVICTION_PROCESSING` work the AP charges per admission.
    CacheEvict,
}

impl SpanKind {
    /// Every kind, in presentation order.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Fetch,
        SpanKind::Lookup,
        SpanKind::RetrievalHit,
        SpanKind::RetrievalDelegation,
        SpanKind::RetrievalEdge,
        SpanKind::DnsUpstream,
        SpanKind::WanFetch,
        SpanKind::OriginFetch,
        SpanKind::CacheEvict,
    ];

    /// Stable label recorded in trace events and exported in JSONL.
    pub const fn as_str(self) -> &'static str {
        match self {
            SpanKind::Fetch => "fetch",
            SpanKind::Lookup => "lookup",
            SpanKind::RetrievalHit => "retrieval.hit",
            SpanKind::RetrievalDelegation => "retrieval.delegation",
            SpanKind::RetrievalEdge => "retrieval.edge",
            SpanKind::DnsUpstream => "dns.upstream",
            SpanKind::WanFetch => "wan.fetch",
            SpanKind::OriginFetch => "origin.fetch",
            SpanKind::CacheEvict => "cache.evict",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(label: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.as_str() == label)
    }
}

impl From<SpanKind> for SpanLabel {
    #[expect(
        clippy::disallowed_methods,
        reason = "one of the three modules that declare names; see clippy.toml"
    )]
    fn from(kind: SpanKind) -> SpanLabel {
        SpanLabel::new(kind.as_str())
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::parse("nonsense"), None);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = SpanKind::ALL.iter().map(|k| k.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), SpanKind::ALL.len());
    }
}
