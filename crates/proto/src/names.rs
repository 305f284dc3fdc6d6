//! The canonical metric-name registry.
//!
//! Every metric key used by the testbed nodes and harnesses lives here (the
//! three `net.*` keys are owned by `ape_simnet`, which records them, and are
//! re-exported so this module is the single import point). Using constants
//! instead of inline string literals means a typo fails to compile instead
//! of silently reporting zero.

pub use ape_simnet::keys::{NET_BYTES, NET_DROPPED, NET_FAULT_DROPPED, NET_MESSAGES};

// --- AP (access point) --------------------------------------------------

/// DNS queries of any kind arriving at the AP.
pub const AP_DNS_QUERIES: &str = "ap.dns_queries";
/// DNS-Cache (piggybacked) queries arriving at the AP.
pub const AP_DNS_CACHE_QUERIES: &str = "ap.dns_cache_queries";
/// DNS queries answered from the AP's dnsmasq record cache (no upstream).
pub const AP_DNS_CACHE_HITS: &str = "ap.dns_cache_hits";
/// DNS-Cache queries answered with a dummy IP, all requested URLs cached.
pub const AP_SHORT_CIRCUITS: &str = "ap.short_circuits";
/// DNS queries forwarded to the upstream resolver.
pub const AP_DNS_FORWARDS: &str = "ap.dns_forwards";
/// Objects served straight from the AP cache.
pub const AP_CACHE_HITS: &str = "ap.cache_hits";
/// Data (HTTP) requests arriving at the AP.
pub const AP_DATA_REQUESTS: &str = "ap.data_requests";
/// Requests the AP served by fetching without caching (block-listed).
pub const AP_BLOCKED_SERVES: &str = "ap.blocked_serves";
/// Delegated fetches the AP started on behalf of clients.
pub const AP_DELEGATIONS: &str = "ap.delegations";
/// Delegations abandoned because upstream DNS resolution failed.
pub const AP_DELEGATION_DNS_FAILURES: &str = "ap.delegation_dns_failures";
/// Upstream fetch time of delegated objects, milliseconds (histogram).
pub const AP_DELEGATION_FETCH_MS: &str = "ap.delegation_fetch_ms";
/// Objects admitted into the AP cache.
pub const AP_ADMISSIONS: &str = "ap.admissions";
/// Objects evicted from the AP cache.
pub const AP_EVICTIONS: &str = "ap.evictions";
/// Objects the admission policy declined to cache.
pub const AP_ADMIT_DECLINED: &str = "ap.admit_declined";
/// Objects added to the block list (too large to cache).
pub const AP_BLOCK_LISTED: &str = "ap.block_listed";
/// Cache entries purged by TTL expiry sweeps.
pub const AP_TTL_PURGES: &str = "ap.ttl_purges";
/// Eviction-solver invocations (PACM `select_victims` calls).
pub const AP_EVICT_SOLVER_RUNS: &str = "ap.evict_solver_runs";
/// Cached objects examined by the eviction solver.
pub const AP_EVICT_ITEMS: &str = "ap.evict_items";
/// Eviction decisions resolved by the knapsack DP.
pub const AP_EVICT_DP_RUNS: &str = "ap.evict_dp_runs";
/// Eviction decisions resolved by the greedy fallback.
pub const AP_EVICT_GREEDY_RUNS: &str = "ap.evict_greedy_runs";
/// Eviction decisions short-circuited (survivors fit; DP skipped).
pub const AP_EVICT_SHORT_CIRCUITS: &str = "ap.evict_short_circuits";
/// Objects evicted outright by pre-solver reductions (expired/oversized).
pub const AP_EVICT_FORCED: &str = "ap.evict_forced";
/// Objects evicted by the fairness-repair loop.
pub const AP_EVICT_REPAIRS: &str = "ap.evict_repairs";
/// Prefetch delegations started from client hints.
pub const AP_PREFETCHES: &str = "ap.prefetches";
/// Upstream DNS forwards retransmitted by the pending-forward reaper.
pub const AP_DNS_UPSTREAM_RETRIES: &str = "ap.dns_upstream_retries";
/// Pending forwards abandoned (client answered SERVFAIL) after the retry.
pub const AP_DNS_UPSTREAM_GIVE_UPS: &str = "ap.dns_upstream_give_ups";
/// Stuck delegated fetches restarted by the delegation reaper.
pub const AP_DELEGATION_RETRIES: &str = "ap.delegation_retries";
/// Delegations abandoned (waiters answered 504) after the retry.
pub const AP_DELEGATION_REAPS: &str = "ap.delegation_reaps";
/// AP CPU utilization samples, 0..1 (time series).
pub const AP_CPU: &str = "ap.cpu";
/// APE-CACHE memory on the AP, MB (time series).
pub const AP_APE_MEM_MB: &str = "ap.ape_mem_mb";
/// Total AP memory in use, MB (time series).
pub const AP_TOTAL_MEM_MB: &str = "ap.total_mem_mb";

// --- Client -------------------------------------------------------------

/// Object fetches started.
pub const CLIENT_FETCHES: &str = "client.fetches";
/// Fetches that failed (DNS give-up, HTTP error…).
pub const CLIENT_FETCH_FAILURES: &str = "client.fetch_failures";
/// App executions abandoned because a fetch failed.
pub const CLIENT_FAILED_EXECUTIONS: &str = "client.failed_executions";
/// DNS queries sent.
pub const CLIENT_DNS_QUERIES: &str = "client.dns_queries";
/// DNS retransmissions after timeout.
pub const CLIENT_DNS_RETRIES: &str = "client.dns_retries";
/// DNS queries abandoned after the retry budget.
pub const CLIENT_DNS_GIVE_UPS: &str = "client.dns_give_ups";
/// HTTP/lookup requests re-issued after a response timeout.
pub const CLIENT_HTTP_RETRIES: &str = "client.http_retries";
/// Fetches abandoned after the HTTP retry budget.
pub const CLIENT_HTTP_GIVE_UPS: &str = "client.http_give_ups";
/// Wi-Cache controller lookups sent.
pub const CLIENT_WICACHE_LOOKUPS: &str = "client.wicache_lookups";
/// Fetches answered from the AP cache (client-observed).
pub const CLIENT_CACHE_HITS: &str = "client.cache_hits";
/// Prefetch-hint messages sent to the AP.
pub const CLIENT_PREFETCH_HINTS: &str = "client.prefetch_hints";
/// Cache-lookup latency over actual lookup operations, ms (histogram).
pub const CLIENT_LOOKUP_QUERY_MS: &str = "client.lookup_query_ms";
/// Lookup-stage latency over all fetches (0 when skipped), ms (histogram).
pub const CLIENT_LOOKUP_OP_MS: &str = "client.lookup_op_ms";
/// Retrieval latency over all fetches, ms (histogram).
pub const CLIENT_RETRIEVAL_MS: &str = "client.retrieval_ms";
/// Retrieval latency of AP cache hits, ms (histogram).
pub const CLIENT_RETRIEVAL_HIT_MS: &str = "client.retrieval_hit_ms";
/// Retrieval latency of delegated fetches, ms (histogram).
pub const CLIENT_RETRIEVAL_DELEGATION_MS: &str = "client.retrieval_delegation_ms";
/// Retrieval latency of edge fetches, ms (histogram).
pub const CLIENT_RETRIEVAL_EDGE_MS: &str = "client.retrieval_edge_ms";
/// Whole-object latency (lookup + retrieval), ms (histogram).
pub const CLIENT_OBJECT_TOTAL_MS: &str = "client.object_total_ms";
/// App-level latency across all apps, ms (histogram).
pub const CLIENT_APP_LATENCY_MS: &str = "client.app_latency_ms";
/// Prefix of the per-app latency histograms (`client.app_latency_ms.<app>`).
pub const CLIENT_APP_LATENCY_MS_PREFIX: &str = "client.app_latency_ms.";

/// Per-app latency histogram key for `app`.
pub fn client_app_latency_ms(app: &str) -> String {
    format!("{CLIENT_APP_LATENCY_MS_PREFIX}{app}")
}

// --- Edge ---------------------------------------------------------------

/// Edge cache misses filled from the origin.
pub const EDGE_ORIGIN_FETCHES: &str = "edge.origin_fetches";

// --- Multi-AP cooperation & roaming -------------------------------------

/// Advertisements the Wi-Cache controller dropped (unregistered AP).
pub const WICACHE_ADVERT_DROPPED: &str = "wicache.advert_dropped";
/// Peer fetches the AP sent to neighbor APs before going upstream.
pub const AP_PEER_FETCHES: &str = "ap.peer_fetches";
/// Peer fetches answered from a neighbor AP's cache.
pub const AP_PEER_HITS: &str = "ap.peer_hits";
/// Peer fetches the neighbor missed (fell back to the edge/origin path).
pub const AP_PEER_MISSES: &str = "ap.peer_misses";
/// Roam notices received (a homed client re-homed to a neighbor AP).
pub const AP_ROAM_DEPARTURES: &str = "ap.roam_departures";
/// Pending DNS forwards cancelled because their client roamed away.
pub const AP_ROAM_CANCELLED_FORWARDS: &str = "ap.roam_cancelled_forwards";
/// Delegation waiters cancelled because their client roamed away.
pub const AP_ROAM_CANCELLED_WAITERS: &str = "ap.roam_cancelled_waiters";
/// Roams a client executed (re-homed to a neighbor AP).
pub const CLIENT_ROAMS: &str = "client.roams";

// --- Machine-readable registry -------------------------------------------

/// Every static metric-name constant in this module as `(ident, value)`
/// pairs, `net.*` re-exports included.
///
/// This is the export `ape-lint`'s `metric-registry` rule resolves against
/// (one of its three rules, beside `span-balance` and `metric-name`; hash
/// collections and host-clock reads are `clippy.toml`'s job): a string
/// literal at an `incr`/`observe`/`record_point` call site is flagged with
/// the constant to use when it matches one of these values, and as
/// unregistered when it matches neither a value nor a [`DYNAMIC_PREFIXES`]
/// prefix; an `incr_id`/`observe_id` argument must name one of these idents. Keeping
/// the table here — next to the constants — means adding a metric is one
/// edit, and the drift tests below keep it in lockstep with [`id::ALL`].
pub const REGISTRY: &[(&str, &str)] = &[
    ("NET_MESSAGES", NET_MESSAGES),
    ("NET_BYTES", NET_BYTES),
    ("NET_DROPPED", NET_DROPPED),
    ("NET_FAULT_DROPPED", NET_FAULT_DROPPED),
    ("AP_DNS_QUERIES", AP_DNS_QUERIES),
    ("AP_DNS_CACHE_QUERIES", AP_DNS_CACHE_QUERIES),
    ("AP_DNS_CACHE_HITS", AP_DNS_CACHE_HITS),
    ("AP_SHORT_CIRCUITS", AP_SHORT_CIRCUITS),
    ("AP_DNS_FORWARDS", AP_DNS_FORWARDS),
    ("AP_CACHE_HITS", AP_CACHE_HITS),
    ("AP_DATA_REQUESTS", AP_DATA_REQUESTS),
    ("AP_BLOCKED_SERVES", AP_BLOCKED_SERVES),
    ("AP_DELEGATIONS", AP_DELEGATIONS),
    ("AP_DELEGATION_DNS_FAILURES", AP_DELEGATION_DNS_FAILURES),
    ("AP_DELEGATION_FETCH_MS", AP_DELEGATION_FETCH_MS),
    ("AP_ADMISSIONS", AP_ADMISSIONS),
    ("AP_EVICTIONS", AP_EVICTIONS),
    ("AP_ADMIT_DECLINED", AP_ADMIT_DECLINED),
    ("AP_BLOCK_LISTED", AP_BLOCK_LISTED),
    ("AP_TTL_PURGES", AP_TTL_PURGES),
    ("AP_EVICT_SOLVER_RUNS", AP_EVICT_SOLVER_RUNS),
    ("AP_EVICT_ITEMS", AP_EVICT_ITEMS),
    ("AP_EVICT_DP_RUNS", AP_EVICT_DP_RUNS),
    ("AP_EVICT_GREEDY_RUNS", AP_EVICT_GREEDY_RUNS),
    ("AP_EVICT_SHORT_CIRCUITS", AP_EVICT_SHORT_CIRCUITS),
    ("AP_EVICT_FORCED", AP_EVICT_FORCED),
    ("AP_EVICT_REPAIRS", AP_EVICT_REPAIRS),
    ("AP_PREFETCHES", AP_PREFETCHES),
    ("AP_DNS_UPSTREAM_RETRIES", AP_DNS_UPSTREAM_RETRIES),
    ("AP_DNS_UPSTREAM_GIVE_UPS", AP_DNS_UPSTREAM_GIVE_UPS),
    ("AP_DELEGATION_RETRIES", AP_DELEGATION_RETRIES),
    ("AP_DELEGATION_REAPS", AP_DELEGATION_REAPS),
    ("AP_CPU", AP_CPU),
    ("AP_APE_MEM_MB", AP_APE_MEM_MB),
    ("AP_TOTAL_MEM_MB", AP_TOTAL_MEM_MB),
    ("CLIENT_FETCHES", CLIENT_FETCHES),
    ("CLIENT_FETCH_FAILURES", CLIENT_FETCH_FAILURES),
    ("CLIENT_FAILED_EXECUTIONS", CLIENT_FAILED_EXECUTIONS),
    ("CLIENT_DNS_QUERIES", CLIENT_DNS_QUERIES),
    ("CLIENT_DNS_RETRIES", CLIENT_DNS_RETRIES),
    ("CLIENT_DNS_GIVE_UPS", CLIENT_DNS_GIVE_UPS),
    ("CLIENT_HTTP_RETRIES", CLIENT_HTTP_RETRIES),
    ("CLIENT_HTTP_GIVE_UPS", CLIENT_HTTP_GIVE_UPS),
    ("CLIENT_WICACHE_LOOKUPS", CLIENT_WICACHE_LOOKUPS),
    ("CLIENT_CACHE_HITS", CLIENT_CACHE_HITS),
    ("CLIENT_PREFETCH_HINTS", CLIENT_PREFETCH_HINTS),
    ("CLIENT_LOOKUP_QUERY_MS", CLIENT_LOOKUP_QUERY_MS),
    ("CLIENT_LOOKUP_OP_MS", CLIENT_LOOKUP_OP_MS),
    ("CLIENT_RETRIEVAL_MS", CLIENT_RETRIEVAL_MS),
    ("CLIENT_RETRIEVAL_HIT_MS", CLIENT_RETRIEVAL_HIT_MS),
    (
        "CLIENT_RETRIEVAL_DELEGATION_MS",
        CLIENT_RETRIEVAL_DELEGATION_MS,
    ),
    ("CLIENT_RETRIEVAL_EDGE_MS", CLIENT_RETRIEVAL_EDGE_MS),
    ("CLIENT_OBJECT_TOTAL_MS", CLIENT_OBJECT_TOTAL_MS),
    ("CLIENT_APP_LATENCY_MS", CLIENT_APP_LATENCY_MS),
    ("EDGE_ORIGIN_FETCHES", EDGE_ORIGIN_FETCHES),
    ("WICACHE_ADVERT_DROPPED", WICACHE_ADVERT_DROPPED),
    ("AP_PEER_FETCHES", AP_PEER_FETCHES),
    ("AP_PEER_HITS", AP_PEER_HITS),
    ("AP_PEER_MISSES", AP_PEER_MISSES),
    ("AP_ROAM_DEPARTURES", AP_ROAM_DEPARTURES),
    ("AP_ROAM_CANCELLED_FORWARDS", AP_ROAM_CANCELLED_FORWARDS),
    ("AP_ROAM_CANCELLED_WAITERS", AP_ROAM_CANCELLED_WAITERS),
    ("CLIENT_ROAMS", CLIENT_ROAMS),
];

/// Prefixes of dynamically-built metric names as `(ident, prefix)` pairs.
/// A name starting with one of these prefixes (with a non-empty suffix) is
/// registered even though the full key is not in [`REGISTRY`]; the helper
/// next to each prefix constant is the sanctioned way to build such keys.
pub const DYNAMIC_PREFIXES: &[(&str, &str)] =
    &[("CLIENT_APP_LATENCY_MS_PREFIX", CLIENT_APP_LATENCY_MS_PREFIX)];

/// Interned [`MetricId`](ape_simnet::MetricId)s for every static key above.
///
/// The hot recording paths (`incr_id`/`observe_id`/`record_point_id`) index
/// the registry's tables by these instead of comparing names, so
/// steady-state metric recording does zero string work. Indices `0..FIRST_FREE_INDEX` belong to
/// `ape_simnet` (the `net.*` keys, re-exported here); the rest are allocated
/// densely in declaration order. Only static keys get ids — the dynamic
/// per-app histograms ([`client_app_latency_ms`]) are written by name.
pub mod id {
    use ape_simnet::keys::id::FIRST_FREE_INDEX;
    pub use ape_simnet::keys::id::{NET_BYTES, NET_DROPPED, NET_FAULT_DROPPED, NET_MESSAGES};
    use ape_simnet::MetricId;

    const BASE: u16 = FIRST_FREE_INDEX;

    /// Interned [`super::AP_DNS_QUERIES`].
    pub const AP_DNS_QUERIES: MetricId = MetricId::new(BASE, super::AP_DNS_QUERIES);
    /// Interned [`super::AP_DNS_CACHE_QUERIES`].
    pub const AP_DNS_CACHE_QUERIES: MetricId = MetricId::new(BASE + 1, super::AP_DNS_CACHE_QUERIES);
    /// Interned [`super::AP_DNS_CACHE_HITS`].
    pub const AP_DNS_CACHE_HITS: MetricId = MetricId::new(BASE + 2, super::AP_DNS_CACHE_HITS);
    /// Interned [`super::AP_SHORT_CIRCUITS`].
    pub const AP_SHORT_CIRCUITS: MetricId = MetricId::new(BASE + 3, super::AP_SHORT_CIRCUITS);
    /// Interned [`super::AP_DNS_FORWARDS`].
    pub const AP_DNS_FORWARDS: MetricId = MetricId::new(BASE + 4, super::AP_DNS_FORWARDS);
    /// Interned [`super::AP_CACHE_HITS`].
    pub const AP_CACHE_HITS: MetricId = MetricId::new(BASE + 5, super::AP_CACHE_HITS);
    /// Interned [`super::AP_DATA_REQUESTS`].
    pub const AP_DATA_REQUESTS: MetricId = MetricId::new(BASE + 6, super::AP_DATA_REQUESTS);
    /// Interned [`super::AP_BLOCKED_SERVES`].
    pub const AP_BLOCKED_SERVES: MetricId = MetricId::new(BASE + 7, super::AP_BLOCKED_SERVES);
    /// Interned [`super::AP_DELEGATIONS`].
    pub const AP_DELEGATIONS: MetricId = MetricId::new(BASE + 8, super::AP_DELEGATIONS);
    /// Interned [`super::AP_DELEGATION_DNS_FAILURES`].
    pub const AP_DELEGATION_DNS_FAILURES: MetricId =
        MetricId::new(BASE + 9, super::AP_DELEGATION_DNS_FAILURES);
    /// Interned [`super::AP_DELEGATION_FETCH_MS`].
    pub const AP_DELEGATION_FETCH_MS: MetricId =
        MetricId::new(BASE + 10, super::AP_DELEGATION_FETCH_MS);
    /// Interned [`super::AP_ADMISSIONS`].
    pub const AP_ADMISSIONS: MetricId = MetricId::new(BASE + 11, super::AP_ADMISSIONS);
    /// Interned [`super::AP_EVICTIONS`].
    pub const AP_EVICTIONS: MetricId = MetricId::new(BASE + 12, super::AP_EVICTIONS);
    /// Interned [`super::AP_ADMIT_DECLINED`].
    pub const AP_ADMIT_DECLINED: MetricId = MetricId::new(BASE + 13, super::AP_ADMIT_DECLINED);
    /// Interned [`super::AP_BLOCK_LISTED`].
    pub const AP_BLOCK_LISTED: MetricId = MetricId::new(BASE + 14, super::AP_BLOCK_LISTED);
    /// Interned [`super::AP_TTL_PURGES`].
    pub const AP_TTL_PURGES: MetricId = MetricId::new(BASE + 15, super::AP_TTL_PURGES);
    /// Interned [`super::AP_EVICT_SOLVER_RUNS`].
    pub const AP_EVICT_SOLVER_RUNS: MetricId =
        MetricId::new(BASE + 16, super::AP_EVICT_SOLVER_RUNS);
    /// Interned [`super::AP_EVICT_ITEMS`].
    pub const AP_EVICT_ITEMS: MetricId = MetricId::new(BASE + 17, super::AP_EVICT_ITEMS);
    /// Interned [`super::AP_EVICT_DP_RUNS`].
    pub const AP_EVICT_DP_RUNS: MetricId = MetricId::new(BASE + 18, super::AP_EVICT_DP_RUNS);
    /// Interned [`super::AP_EVICT_GREEDY_RUNS`].
    pub const AP_EVICT_GREEDY_RUNS: MetricId =
        MetricId::new(BASE + 19, super::AP_EVICT_GREEDY_RUNS);
    /// Interned [`super::AP_EVICT_SHORT_CIRCUITS`].
    pub const AP_EVICT_SHORT_CIRCUITS: MetricId =
        MetricId::new(BASE + 20, super::AP_EVICT_SHORT_CIRCUITS);
    /// Interned [`super::AP_EVICT_FORCED`].
    pub const AP_EVICT_FORCED: MetricId = MetricId::new(BASE + 21, super::AP_EVICT_FORCED);
    /// Interned [`super::AP_EVICT_REPAIRS`].
    pub const AP_EVICT_REPAIRS: MetricId = MetricId::new(BASE + 22, super::AP_EVICT_REPAIRS);
    /// Interned [`super::AP_PREFETCHES`].
    pub const AP_PREFETCHES: MetricId = MetricId::new(BASE + 23, super::AP_PREFETCHES);
    /// Interned [`super::AP_DNS_UPSTREAM_RETRIES`].
    pub const AP_DNS_UPSTREAM_RETRIES: MetricId =
        MetricId::new(BASE + 24, super::AP_DNS_UPSTREAM_RETRIES);
    /// Interned [`super::AP_DNS_UPSTREAM_GIVE_UPS`].
    pub const AP_DNS_UPSTREAM_GIVE_UPS: MetricId =
        MetricId::new(BASE + 25, super::AP_DNS_UPSTREAM_GIVE_UPS);
    /// Interned [`super::AP_DELEGATION_RETRIES`].
    pub const AP_DELEGATION_RETRIES: MetricId =
        MetricId::new(BASE + 26, super::AP_DELEGATION_RETRIES);
    /// Interned [`super::AP_DELEGATION_REAPS`].
    pub const AP_DELEGATION_REAPS: MetricId = MetricId::new(BASE + 27, super::AP_DELEGATION_REAPS);
    /// Interned [`super::AP_CPU`].
    pub const AP_CPU: MetricId = MetricId::new(BASE + 28, super::AP_CPU);
    /// Interned [`super::AP_APE_MEM_MB`].
    pub const AP_APE_MEM_MB: MetricId = MetricId::new(BASE + 29, super::AP_APE_MEM_MB);
    /// Interned [`super::AP_TOTAL_MEM_MB`].
    pub const AP_TOTAL_MEM_MB: MetricId = MetricId::new(BASE + 30, super::AP_TOTAL_MEM_MB);
    /// Interned [`super::CLIENT_FETCHES`].
    pub const CLIENT_FETCHES: MetricId = MetricId::new(BASE + 31, super::CLIENT_FETCHES);
    /// Interned [`super::CLIENT_FETCH_FAILURES`].
    pub const CLIENT_FETCH_FAILURES: MetricId =
        MetricId::new(BASE + 32, super::CLIENT_FETCH_FAILURES);
    /// Interned [`super::CLIENT_FAILED_EXECUTIONS`].
    pub const CLIENT_FAILED_EXECUTIONS: MetricId =
        MetricId::new(BASE + 33, super::CLIENT_FAILED_EXECUTIONS);
    /// Interned [`super::CLIENT_DNS_QUERIES`].
    pub const CLIENT_DNS_QUERIES: MetricId = MetricId::new(BASE + 34, super::CLIENT_DNS_QUERIES);
    /// Interned [`super::CLIENT_DNS_RETRIES`].
    pub const CLIENT_DNS_RETRIES: MetricId = MetricId::new(BASE + 35, super::CLIENT_DNS_RETRIES);
    /// Interned [`super::CLIENT_DNS_GIVE_UPS`].
    pub const CLIENT_DNS_GIVE_UPS: MetricId = MetricId::new(BASE + 36, super::CLIENT_DNS_GIVE_UPS);
    /// Interned [`super::CLIENT_HTTP_RETRIES`].
    pub const CLIENT_HTTP_RETRIES: MetricId = MetricId::new(BASE + 37, super::CLIENT_HTTP_RETRIES);
    /// Interned [`super::CLIENT_HTTP_GIVE_UPS`].
    pub const CLIENT_HTTP_GIVE_UPS: MetricId =
        MetricId::new(BASE + 38, super::CLIENT_HTTP_GIVE_UPS);
    /// Interned [`super::CLIENT_WICACHE_LOOKUPS`].
    pub const CLIENT_WICACHE_LOOKUPS: MetricId =
        MetricId::new(BASE + 39, super::CLIENT_WICACHE_LOOKUPS);
    /// Interned [`super::CLIENT_CACHE_HITS`].
    pub const CLIENT_CACHE_HITS: MetricId = MetricId::new(BASE + 40, super::CLIENT_CACHE_HITS);
    /// Interned [`super::CLIENT_PREFETCH_HINTS`].
    pub const CLIENT_PREFETCH_HINTS: MetricId =
        MetricId::new(BASE + 41, super::CLIENT_PREFETCH_HINTS);
    /// Interned [`super::CLIENT_LOOKUP_QUERY_MS`].
    pub const CLIENT_LOOKUP_QUERY_MS: MetricId =
        MetricId::new(BASE + 42, super::CLIENT_LOOKUP_QUERY_MS);
    /// Interned [`super::CLIENT_LOOKUP_OP_MS`].
    pub const CLIENT_LOOKUP_OP_MS: MetricId = MetricId::new(BASE + 43, super::CLIENT_LOOKUP_OP_MS);
    /// Interned [`super::CLIENT_RETRIEVAL_MS`].
    pub const CLIENT_RETRIEVAL_MS: MetricId = MetricId::new(BASE + 44, super::CLIENT_RETRIEVAL_MS);
    /// Interned [`super::CLIENT_RETRIEVAL_HIT_MS`].
    pub const CLIENT_RETRIEVAL_HIT_MS: MetricId =
        MetricId::new(BASE + 45, super::CLIENT_RETRIEVAL_HIT_MS);
    /// Interned [`super::CLIENT_RETRIEVAL_DELEGATION_MS`].
    pub const CLIENT_RETRIEVAL_DELEGATION_MS: MetricId =
        MetricId::new(BASE + 46, super::CLIENT_RETRIEVAL_DELEGATION_MS);
    /// Interned [`super::CLIENT_RETRIEVAL_EDGE_MS`].
    pub const CLIENT_RETRIEVAL_EDGE_MS: MetricId =
        MetricId::new(BASE + 47, super::CLIENT_RETRIEVAL_EDGE_MS);
    /// Interned [`super::CLIENT_OBJECT_TOTAL_MS`].
    pub const CLIENT_OBJECT_TOTAL_MS: MetricId =
        MetricId::new(BASE + 48, super::CLIENT_OBJECT_TOTAL_MS);
    /// Interned [`super::CLIENT_APP_LATENCY_MS`].
    pub const CLIENT_APP_LATENCY_MS: MetricId =
        MetricId::new(BASE + 49, super::CLIENT_APP_LATENCY_MS);
    /// Interned [`super::EDGE_ORIGIN_FETCHES`].
    pub const EDGE_ORIGIN_FETCHES: MetricId = MetricId::new(BASE + 50, super::EDGE_ORIGIN_FETCHES);
    /// Interned [`super::WICACHE_ADVERT_DROPPED`].
    pub const WICACHE_ADVERT_DROPPED: MetricId =
        MetricId::new(BASE + 51, super::WICACHE_ADVERT_DROPPED);
    /// Interned [`super::AP_PEER_FETCHES`].
    pub const AP_PEER_FETCHES: MetricId = MetricId::new(BASE + 52, super::AP_PEER_FETCHES);
    /// Interned [`super::AP_PEER_HITS`].
    pub const AP_PEER_HITS: MetricId = MetricId::new(BASE + 53, super::AP_PEER_HITS);
    /// Interned [`super::AP_PEER_MISSES`].
    pub const AP_PEER_MISSES: MetricId = MetricId::new(BASE + 54, super::AP_PEER_MISSES);
    /// Interned [`super::AP_ROAM_DEPARTURES`].
    pub const AP_ROAM_DEPARTURES: MetricId = MetricId::new(BASE + 55, super::AP_ROAM_DEPARTURES);
    /// Interned [`super::AP_ROAM_CANCELLED_FORWARDS`].
    pub const AP_ROAM_CANCELLED_FORWARDS: MetricId =
        MetricId::new(BASE + 56, super::AP_ROAM_CANCELLED_FORWARDS);
    /// Interned [`super::AP_ROAM_CANCELLED_WAITERS`].
    pub const AP_ROAM_CANCELLED_WAITERS: MetricId =
        MetricId::new(BASE + 57, super::AP_ROAM_CANCELLED_WAITERS);
    /// Interned [`super::CLIENT_ROAMS`].
    pub const CLIENT_ROAMS: MetricId = MetricId::new(BASE + 58, super::CLIENT_ROAMS);

    /// Every interned id, `net.*` keys included, indexed by
    /// [`MetricId::index`] — the registry the uniqueness test walks.
    pub const ALL: [MetricId; BASE as usize + 59] = [
        NET_MESSAGES,
        NET_BYTES,
        NET_DROPPED,
        NET_FAULT_DROPPED,
        AP_DNS_QUERIES,
        AP_DNS_CACHE_QUERIES,
        AP_DNS_CACHE_HITS,
        AP_SHORT_CIRCUITS,
        AP_DNS_FORWARDS,
        AP_CACHE_HITS,
        AP_DATA_REQUESTS,
        AP_BLOCKED_SERVES,
        AP_DELEGATIONS,
        AP_DELEGATION_DNS_FAILURES,
        AP_DELEGATION_FETCH_MS,
        AP_ADMISSIONS,
        AP_EVICTIONS,
        AP_ADMIT_DECLINED,
        AP_BLOCK_LISTED,
        AP_TTL_PURGES,
        AP_EVICT_SOLVER_RUNS,
        AP_EVICT_ITEMS,
        AP_EVICT_DP_RUNS,
        AP_EVICT_GREEDY_RUNS,
        AP_EVICT_SHORT_CIRCUITS,
        AP_EVICT_FORCED,
        AP_EVICT_REPAIRS,
        AP_PREFETCHES,
        AP_DNS_UPSTREAM_RETRIES,
        AP_DNS_UPSTREAM_GIVE_UPS,
        AP_DELEGATION_RETRIES,
        AP_DELEGATION_REAPS,
        AP_CPU,
        AP_APE_MEM_MB,
        AP_TOTAL_MEM_MB,
        CLIENT_FETCHES,
        CLIENT_FETCH_FAILURES,
        CLIENT_FAILED_EXECUTIONS,
        CLIENT_DNS_QUERIES,
        CLIENT_DNS_RETRIES,
        CLIENT_DNS_GIVE_UPS,
        CLIENT_HTTP_RETRIES,
        CLIENT_HTTP_GIVE_UPS,
        CLIENT_WICACHE_LOOKUPS,
        CLIENT_CACHE_HITS,
        CLIENT_PREFETCH_HINTS,
        CLIENT_LOOKUP_QUERY_MS,
        CLIENT_LOOKUP_OP_MS,
        CLIENT_RETRIEVAL_MS,
        CLIENT_RETRIEVAL_HIT_MS,
        CLIENT_RETRIEVAL_DELEGATION_MS,
        CLIENT_RETRIEVAL_EDGE_MS,
        CLIENT_OBJECT_TOTAL_MS,
        CLIENT_APP_LATENCY_MS,
        EDGE_ORIGIN_FETCHES,
        WICACHE_ADVERT_DROPPED,
        AP_PEER_FETCHES,
        AP_PEER_HITS,
        AP_PEER_MISSES,
        AP_ROAM_DEPARTURES,
        AP_ROAM_CANCELLED_FORWARDS,
        AP_ROAM_CANCELLED_WAITERS,
        CLIENT_ROAMS,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interned_ids_are_dense_unique_and_named() {
        for (i, id) in id::ALL.iter().enumerate() {
            assert_eq!(id.index(), i, "id {:?} out of registry order", id.name());
        }
        let mut names: Vec<&str> = id::ALL.iter().map(|id| id.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), id::ALL.len(), "duplicate metric name");
    }

    #[test]
    fn interned_ids_carry_their_string_names() {
        assert_eq!(id::AP_CACHE_HITS.name(), AP_CACHE_HITS);
        assert_eq!(id::CLIENT_APP_LATENCY_MS.name(), CLIENT_APP_LATENCY_MS);
        assert_eq!(id::EDGE_ORIGIN_FETCHES.name(), EDGE_ORIGIN_FETCHES);
        assert_eq!(id::NET_MESSAGES.name(), NET_MESSAGES);
    }

    #[test]
    fn per_app_key_round_trips_through_prefix() {
        let key = client_app_latency_ms("news");
        assert_eq!(key, "client.app_latency_ms.news");
        assert_eq!(key.strip_prefix(CLIENT_APP_LATENCY_MS_PREFIX), Some("news"));
    }

    #[test]
    fn registry_covers_every_interned_id() {
        use std::collections::BTreeSet;
        let values: BTreeSet<&str> = REGISTRY.iter().map(|(_, v)| *v).collect();
        for id in id::ALL.iter() {
            assert!(
                values.contains(id.name()),
                "interned id `{}` missing from REGISTRY",
                id.name()
            );
        }
        // Every static key is interned, so the two tables are the same set.
        assert_eq!(REGISTRY.len(), id::ALL.len(), "REGISTRY/id::ALL drift");
    }

    #[test]
    fn registry_entries_are_unique_and_well_formed() {
        use std::collections::BTreeSet;
        let mut idents = BTreeSet::new();
        let mut values = BTreeSet::new();
        for (ident, value) in REGISTRY {
            assert!(idents.insert(*ident), "duplicate REGISTRY ident {ident}");
            assert!(values.insert(*value), "duplicate REGISTRY value {value}");
            assert!(
                ident.chars().all(|c| c.is_ascii_uppercase() || c == '_'),
                "REGISTRY ident `{ident}` is not SCREAMING_SNAKE_CASE"
            );
            assert!(
                value
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "REGISTRY value `{value}` is not a dotted lowercase key"
            );
        }
        for (ident, prefix) in DYNAMIC_PREFIXES {
            assert!(ident.ends_with("_PREFIX"), "prefix ident `{ident}`");
            assert!(prefix.ends_with('.'), "prefix `{prefix}` must end in `.`");
            assert!(
                !values.contains(prefix),
                "prefix `{prefix}` collides with a static key"
            );
        }
    }

    #[test]
    fn net_keys_are_reexported() {
        assert_eq!(NET_MESSAGES, "net.messages");
        assert_eq!(NET_BYTES, "net.bytes");
        assert_eq!(NET_DROPPED, "net.dropped");
    }
}
