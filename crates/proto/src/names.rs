//! The canonical metric names.
//!
//! Every metric the testbed nodes record and the harnesses read is declared
//! here, once: [`metric_names!`](ape_simnet::metric_names) turns each line
//! into the `&str` constant the read side uses and, in [`id`], the
//! [`MetricId`](ape_simnet::MetricId) the write side takes, indexed by
//! position after the `net.*` names `ape_simnet` owns (re-exported here so
//! this module is the single import point). Adding a metric is one line.
//!
//! A write takes an id, so a misspelt or undeclared name does not compile:
//!
//! ```
//! use ape_proto::names;
//! let mut m = ape_simnet::Metrics::new();
//! m.incr_id(names::id::AP_CACHE_HITS, 1);
//! ```
//!
//! ```compile_fail
//! use ape_proto::names;
//! let mut m = ape_simnet::Metrics::new();
//! m.incr_id("ap.cache_hits", 1);
//! ```
#![expect(
    clippy::disallowed_methods,
    reason = "one of the three modules that declare names; see clippy.toml"
)]

pub use ape_simnet::keys::{NET_BYTES, NET_DROPPED, NET_FAULT_DROPPED, NET_MESSAGES};

ape_simnet::metric_names! {
    first_index = ape_simnet::keys::id::ALL.len() as u16;

    // --- AP (access point) --------------------------------------------------

    /// DNS queries of any kind arriving at the AP.
    AP_DNS_QUERIES = "ap.dns_queries";
    /// DNS-Cache (piggybacked) queries arriving at the AP.
    AP_DNS_CACHE_QUERIES = "ap.dns_cache_queries";
    /// DNS queries answered from the AP's dnsmasq record cache (no upstream).
    AP_DNS_CACHE_HITS = "ap.dns_cache_hits";
    /// DNS-Cache queries answered with a dummy IP, all requested URLs cached.
    AP_SHORT_CIRCUITS = "ap.short_circuits";
    /// DNS queries forwarded to the upstream resolver.
    AP_DNS_FORWARDS = "ap.dns_forwards";
    /// Objects served straight from the AP cache.
    AP_CACHE_HITS = "ap.cache_hits";
    /// Data (HTTP) requests arriving at the AP.
    AP_DATA_REQUESTS = "ap.data_requests";
    /// Requests the AP served by fetching without caching (block-listed).
    AP_BLOCKED_SERVES = "ap.blocked_serves";
    /// Delegated fetches the AP started on behalf of clients.
    AP_DELEGATIONS = "ap.delegations";
    /// Delegations abandoned because upstream DNS resolution failed.
    AP_DELEGATION_DNS_FAILURES = "ap.delegation_dns_failures";
    /// Upstream fetch time of delegated objects, milliseconds (histogram).
    AP_DELEGATION_FETCH_MS = "ap.delegation_fetch_ms";
    /// Objects admitted into the AP cache.
    AP_ADMISSIONS = "ap.admissions";
    /// Objects evicted from the AP cache.
    AP_EVICTIONS = "ap.evictions";
    /// Objects the admission policy declined to cache.
    AP_ADMIT_DECLINED = "ap.admit_declined";
    /// Objects added to the block list (too large to cache).
    AP_BLOCK_LISTED = "ap.block_listed";
    /// Cache entries purged by TTL expiry sweeps.
    AP_TTL_PURGES = "ap.ttl_purges";
    /// Eviction-solver invocations (PACM `select_victims` calls).
    AP_EVICT_SOLVER_RUNS = "ap.evict_solver_runs";
    /// Cached objects examined by the eviction solver.
    AP_EVICT_ITEMS = "ap.evict_items";
    /// Eviction decisions certified by the cheapest-cover search (no DP).
    AP_EVICT_CERTIFIED = "ap.evict_certified";
    /// Eviction decisions the knapsack DP made: the search was not certified.
    AP_EVICT_DP_RUNS = "ap.evict_dp_runs";
    /// Eviction decisions short-circuited (survivors fit; DP skipped).
    AP_EVICT_SHORT_CIRCUITS = "ap.evict_short_circuits";
    /// Objects evicted outright by pre-solver reductions (expired/oversized).
    AP_EVICT_FORCED = "ap.evict_forced";
    /// Objects evicted by the fairness-repair loop.
    AP_EVICT_REPAIRS = "ap.evict_repairs";
    /// Prefetch delegations started from client hints.
    AP_PREFETCHES = "ap.prefetches";
    /// Upstream DNS forwards retransmitted by the pending-forward reaper.
    AP_DNS_UPSTREAM_RETRIES = "ap.dns_upstream_retries";
    /// Pending forwards abandoned (client answered SERVFAIL) after the retry.
    AP_DNS_UPSTREAM_GIVE_UPS = "ap.dns_upstream_give_ups";
    /// Stuck delegated fetches restarted by the delegation reaper.
    AP_DELEGATION_RETRIES = "ap.delegation_retries";
    /// Delegations abandoned (waiters answered 504) after the retry.
    AP_DELEGATION_REAPS = "ap.delegation_reaps";
    /// AP CPU utilization samples, 0..1 (time series).
    AP_CPU = "ap.cpu";
    /// APE-CACHE memory on the AP, MB (time series).
    AP_APE_MEM_MB = "ap.ape_mem_mb";

    // --- Client -------------------------------------------------------------

    /// Object fetches started.
    CLIENT_FETCHES = "client.fetches";
    /// Fetches that failed (DNS give-up, HTTP error…).
    CLIENT_FETCH_FAILURES = "client.fetch_failures";
    /// App executions abandoned because a fetch failed.
    CLIENT_FAILED_EXECUTIONS = "client.failed_executions";
    /// DNS queries sent.
    CLIENT_DNS_QUERIES = "client.dns_queries";
    /// DNS retransmissions after timeout.
    CLIENT_DNS_RETRIES = "client.dns_retries";
    /// DNS queries abandoned after the retry budget.
    CLIENT_DNS_GIVE_UPS = "client.dns_give_ups";
    /// HTTP/lookup requests re-issued after a response timeout.
    CLIENT_HTTP_RETRIES = "client.http_retries";
    /// Fetches abandoned after the HTTP retry budget.
    CLIENT_HTTP_GIVE_UPS = "client.http_give_ups";
    /// Wi-Cache controller lookups sent.
    CLIENT_WICACHE_LOOKUPS = "client.wicache_lookups";
    /// Fetches answered from the AP cache (client-observed).
    CLIENT_CACHE_HITS = "client.cache_hits";
    /// Prefetch-hint messages sent to the AP.
    CLIENT_PREFETCH_HINTS = "client.prefetch_hints";
    /// Cache-lookup latency over actual lookup operations, ms (histogram).
    CLIENT_LOOKUP_QUERY_MS = "client.lookup_query_ms";
    /// Lookup-stage latency over all fetches (0 when skipped), ms (histogram).
    CLIENT_LOOKUP_OP_MS = "client.lookup_op_ms";
    /// Retrieval latency over all fetches, ms (histogram).
    CLIENT_RETRIEVAL_MS = "client.retrieval_ms";
    /// Retrieval latency of AP cache hits, ms (histogram).
    CLIENT_RETRIEVAL_HIT_MS = "client.retrieval_hit_ms";
    /// Retrieval latency of delegated fetches, ms (histogram).
    CLIENT_RETRIEVAL_DELEGATION_MS = "client.retrieval_delegation_ms";
    /// Retrieval latency of edge fetches, ms (histogram).
    CLIENT_RETRIEVAL_EDGE_MS = "client.retrieval_edge_ms";
    /// Whole-object latency (lookup + retrieval), ms (histogram).
    CLIENT_OBJECT_TOTAL_MS = "client.object_total_ms";
    /// App-level latency across all apps, ms (histogram).
    CLIENT_APP_LATENCY_MS = "client.app_latency_ms";
    /// Prefix of the per-app latency histograms
    /// (`client.app_latency_ms.<app>`), the one family whose members are
    /// named at run time; written through `Metrics::observe_under`.
    CLIENT_APP_LATENCY_MS_PREFIX = "client.app_latency_ms.";

    // --- Multi-AP cooperation & roaming -------------------------------------

    /// Advertisements the Wi-Cache controller dropped (unregistered AP).
    WICACHE_ADVERT_DROPPED = "wicache.advert_dropped";
    /// Peer fetches the AP sent to neighbor APs before going upstream.
    AP_PEER_FETCHES = "ap.peer_fetches";
    /// Peer fetches answered from a neighbor AP's cache.
    AP_PEER_HITS = "ap.peer_hits";
    /// Peer fetches the neighbor missed (fell back to the edge path).
    AP_PEER_MISSES = "ap.peer_misses";
    /// Roam notices received (a homed client re-homed to a neighbor AP).
    AP_ROAM_DEPARTURES = "ap.roam_departures";
    /// Pending DNS forwards cancelled because their client roamed away.
    AP_ROAM_CANCELLED_FORWARDS = "ap.roam_cancelled_forwards";
    /// Delegation waiters cancelled because their client roamed away.
    AP_ROAM_CANCELLED_WAITERS = "ap.roam_cancelled_waiters";
    /// Roams a client executed (re-homed to a neighbor AP).
    CLIENT_ROAMS = "client.roams";

    // --- Client fetch ledger, high priority ---------------------------------

    /// High-priority object fetches completed.
    CLIENT_HIGH_PRIORITY_FETCHES = "client.high_priority_fetches";
    /// High-priority fetches served from the AP cache.
    CLIENT_HIGH_PRIORITY_HITS = "client.high_priority_hits";
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_simnet::Metrics;

    #[test]
    fn interned_ids_are_dense_unique_and_named() {
        let all = || ape_simnet::keys::id::ALL.iter().chain(id::ALL);
        for (i, id) in all().enumerate() {
            assert_eq!(id.index(), i, "id {:?} out of position", id.name());
            assert!(
                id.name().contains('.')
                    && id
                        .name()
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "`{}` is not a dotted lowercase name",
                id.name()
            );
        }
        let mut names: Vec<&str> = all().map(|id| id.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all().count(), "duplicate metric name");
        // A per-app member is not a declared metric: no declared name but
        // the prefix itself lies in its family.
        for name in names {
            assert!(
                name == CLIENT_APP_LATENCY_MS_PREFIX
                    || !name.starts_with(CLIENT_APP_LATENCY_MS_PREFIX),
                "`{name}` names a member of the per-app family"
            );
        }
    }

    #[test]
    fn interned_ids_carry_their_string_names() {
        assert_eq!(id::AP_CACHE_HITS.name(), AP_CACHE_HITS);
        assert_eq!(id::CLIENT_APP_LATENCY_MS.name(), CLIENT_APP_LATENCY_MS);
        assert_eq!(id::CLIENT_ROAMS.name(), CLIENT_ROAMS);
    }

    #[test]
    fn per_app_key_round_trips_through_prefix() {
        let mut m = Metrics::new();
        m.observe_under(id::CLIENT_APP_LATENCY_MS_PREFIX, "news", 0, 5.0);
        let keys: Vec<&str> = m.histogram_names().collect();
        assert_eq!(keys, ["client.app_latency_ms.news"]);
        assert_eq!(
            keys[0].strip_prefix(CLIENT_APP_LATENCY_MS_PREFIX),
            Some("news")
        );
    }

    #[test]
    fn net_keys_are_reexported() {
        assert_eq!(NET_MESSAGES, "net.messages");
        assert_eq!(NET_BYTES, "net.bytes");
        assert_eq!(NET_DROPPED, "net.dropped");
    }
}
