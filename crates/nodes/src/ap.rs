//! The APE-CACHE access-point runtime.
//!
//! One node plays the GL-MT1300 router: a dnsmasq-style DNS forwarder with
//! a TTL cache, extended with the paper's DNS-Cache handling (§IV-B); an
//! HTTP server for cache hits; a delegation fetcher that retrieves objects
//! from the edge on clients' behalf and admits them through the configured
//! eviction policy (PACM or LRU); and CPU/memory meters so the overhead
//! experiments (Fig. 2, Fig. 14) measure a load-dependent device rather
//! than a free abstraction.
//!
//! Design accommodations from §IV-B3 are all here and individually
//! switchable for ablations:
//! * **batching** — a DNS-Cache response reports status for *every* URL the
//!   AP knows under the queried domain, not just the requested hashes;
//! * **short-circuit** — when all requested URLs are cached, the AP answers
//!   with a dummy IP (TTL 0) instead of waiting for upstream resolution;
//! * **no proactive refresh** — the AP only ever contacts the remote server
//!   when a client triggers a delegation.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ape_cachealg::{
    AdmitOutcome, CacheManager, CacheStore, EvictStats, EvictionPolicy, Lookup, LruPolicy,
    ObjectMeta, PacmConfig, PacmPolicy, Priority,
};
use ape_dnswire::{CacheFlag, CacheTuple, DnsMessage, DomainName, Rcode, UrlHash};
use ape_httpsim::{Body, HttpRequest, HttpResponse, Url};
use ape_proto::{names, CacheOp, ConnId, IpMap, Msg, RequestId, SpanKind};
use ape_simnet::{
    Context, CpuMeter, MemMeter, Node, NodeId, ProfCategory, SimDuration, SimTime, SpanCtx,
    TimerToken,
};

use crate::txn::alloc_txn;

/// Which eviction policy the AP runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApPolicy {
    /// Priority-Aware Cache Management (APE-CACHE).
    Pacm,
    /// PACM with the fairness constraint disabled (ablation).
    PacmNoFairness,
    /// Least-recently-used (Wi-Cache / APE-CACHE-LRU).
    Lru,
}

/// CPU time per DNS message handled.
const DNS_PROCESSING: SimDuration = SimDuration::from_micros(150);

/// Extra CPU for DNS-Cache queries over plain DNS (Fig. 11b's 0.02 ms).
const DNSCACHE_EXTRA: SimDuration = SimDuration::from_micros(20);

/// CPU time per HTTP message handled.
const HTTP_PROCESSING: SimDuration = SimDuration::from_micros(400);

/// CPU time per PACM/LRU eviction run.
const EVICTION_PROCESSING: SimDuration = SimDuration::from_micros(1_500);

/// Pending-state reaper interval (drives the upstream-DNS and delegation
/// timeouts below; granularity, not a timeout itself).
const REAP_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Age at which a forwarded DNS query is retransmitted upstream, and
/// (after one retransmit) abandoned with SERVFAIL to the client.
const DNS_UPSTREAM_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Age at which a delegated fetch is restarted, and (after one restart)
/// abandoned with 504 to its waiters.
const DELEGATION_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// Resource sampling interval.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Router cores (MT7621A: 2 cores at 880 MHz).
const CORES: u32 = 2;

/// Baseline firmware/OS memory, bytes.
const MEM_BASELINE: u64 = 60_000_000;

/// Static memory cost of the APE-CACHE components themselves, bytes.
const APE_CODE_OVERHEAD: u64 = 4_000_000;

/// Per-cached-entry metadata overhead, bytes.
const PER_ENTRY_OVERHEAD: u64 = 512;

/// AP configuration; defaults follow the paper's evaluation settings. The
/// device calibration nobody varies (processing costs, timeouts, the
/// router's cores and memory) is the constants above.
#[derive(Debug, Clone)]
pub struct ApConfig {
    /// Cache memory granted to APE-CACHE (paper: 5 MB).
    pub cache_capacity: u64,
    /// Block-list threshold (paper: 500 KB).
    pub block_threshold: u64,
    /// Eviction policy.
    pub policy: ApPolicy,
    /// PACM tuning (ignored for LRU).
    pub pacm: PacmConfig,
    /// Frequency-window roll and expiry-purge interval.
    pub window: SimDuration,
    /// Dummy-IP short-circuit enabled (§IV-B3).
    pub short_circuit: bool,
    /// Per-domain flag batching enabled (§IV-B3).
    pub batch_domain_flags: bool,
    /// Phase offset added to this AP's periodic timers (window, sample,
    /// reap), set by the world builder from the AP's grid index: every AP
    /// of a multi-AP deployment gets a distinct sub-microsecond offset, or
    /// all their round-grid ticks fire on the same nanosecond and
    /// tie-break perturbation reorders their jitter draws from the shared
    /// RNG stream (see `REAP_PHASE`). A lone AP has no such neighbour and
    /// stays at `ZERO`, the paper testbed's bitwise-pinned schedule.
    pub phase_stagger: SimDuration,
}

impl Default for ApConfig {
    fn default() -> Self {
        ApConfig {
            cache_capacity: 5_000_000,
            block_threshold: 500_000,
            policy: ApPolicy::Pacm,
            pacm: PacmConfig::default(),
            window: SimDuration::from_secs(60),
            short_circuit: true,
            batch_domain_flags: true,
            phase_stagger: SimDuration::ZERO,
        }
    }
}

/// Cache metadata the AP has learned for a URL through delegation.
#[derive(Debug, Clone)]
struct RegisteredUrl {
    op: CacheOp,
}

/// One client (or probe) waiting for a delegated object.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    node: NodeId,
    conn: ConnId,
    req: RequestId,
}

/// State of an in-flight delegation fetch.
#[derive(Debug)]
struct Delegation {
    url: Url,
    op: CacheOp,
    waiters: Vec<Waiter>,
    /// When the AP started the upstream fetch (drives `l_d`).
    started: SimTime,
    /// Whether the fetched object should be admitted to the cache.
    cache_result: bool,
    /// WAN-fetch span, attributed to the waiter that triggered the fetch
    /// (prefetch delegations are untraced).
    span: Option<SpanCtx>,
    /// Whether the reaper already restarted this fetch once.
    retried: bool,
    /// The in-flight upstream request, so a restart can disown it.
    upstream_req: Option<RequestId>,
}

/// A DNS query forwarded upstream, awaiting the answer.
#[derive(Debug)]
struct PendingForward {
    client: NodeId,
    query: DnsMessage,
    /// Whether the client asked via DNS-Cache (flags ride on the relay).
    extra_flags: bool,
    /// True for the AP's own delegation resolutions (no client to relay to).
    internal: bool,
    /// Upstream-resolution span, child of the querying client's lookup.
    span: Option<SpanCtx>,
    /// When the query was (last) sent upstream.
    at: SimTime,
    /// Whether the reaper already retransmitted this query once.
    retried: bool,
}

const TICK_WINDOW: TimerToken = TimerToken::new(1);
const TICK_SAMPLE: TimerToken = TimerToken::new(2);
const TICK_REAP: TimerToken = TimerToken::new(3);

/// Phase offset for the first reap tick. The window and sample ticks fire
/// on round-second grids; starting the reaper 137 µs off that grid keeps
/// its firings from ever tying with them, so tie-break perturbation can
/// never reorder a reap's retry sends against the window tick's
/// advertisement sends (both draw link jitter from the shared RNG stream).
const REAP_PHASE: SimDuration = SimDuration::from_micros(137);

/// The AP node.
pub struct ApNode {
    config: ApConfig,
    upstream: NodeId,
    ip_map: IpMap,
    cache: CacheManager<Box<dyn EvictionPolicy>>,
    dns_cache: BTreeMap<DomainName, (Ipv4Addr, SimTime, u32)>,
    registry: BTreeMap<UrlHash, RegisteredUrl>,
    domain_urls: BTreeMap<DomainName, Vec<UrlHash>>,
    pending_forwards: BTreeMap<u16, PendingForward>,
    delegations: BTreeMap<UrlHash, Delegation>,
    delegation_reqs: BTreeMap<RequestId, UrlHash>,
    /// Delegations blocked on resolving their domain first.
    awaiting_dns: BTreeMap<DomainName, Vec<UrlHash>>,
    /// Neighbor APs (grid adjacency) for cooperative caching; empty in
    /// single-AP testbeds, which keeps the whole peer path inert.
    neighbors: Vec<NodeId>,
    /// Latest advertised holder among neighbors for hot keys, learned from
    /// piggybacked summaries, with the instant it was absorbed. The latest
    /// summary wins; summaries landing at the *same* instant (window-roll
    /// gossip is synchronized across the grid) tie-break on the lowest node
    /// id, so the winner is a function of the schedule, not of the order
    /// two simultaneous deliveries happened to pop in.
    neighbor_holders: BTreeMap<UrlHash, (NodeId, SimTime)>,
    /// In-flight peer fetches: request id → delegation key.
    peer_reqs: BTreeMap<RequestId, UrlHash>,
    /// The Wi-Cache controller this AP advertises to, when deployed.
    wicache_controller: Option<NodeId>,
    cpu: CpuMeter,
    mem: MemMeter,
    next_txn: u16,
    next_conn: u64,
    next_req: u64,
    /// When the next frequency-window roll is due. The roll runs lazily
    /// from whichever periodic tick reaches the due instant first (see
    /// [`ApNode::roll_window_if_due`]), so same-instant tick ordering can
    /// never change what the resource sampler observes.
    next_window_roll: SimTime,
}

impl std::fmt::Debug for ApNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApNode")
            .field("cached_objects", &self.cache.store().len())
            .field("used_bytes", &self.cache.store().used())
            .field("registry", &self.registry.len())
            .finish()
    }
}

impl ApNode {
    /// Creates an AP forwarding DNS to `upstream` (the LDNS) and dialling
    /// resolved addresses through `ip_map`.
    pub fn new(config: ApConfig, upstream: NodeId, ip_map: IpMap) -> Self {
        let store = CacheStore::new(config.cache_capacity, config.block_threshold);
        let policy: Box<dyn EvictionPolicy> = match config.policy {
            ApPolicy::Pacm => Box::new(PacmPolicy::new(config.pacm)),
            ApPolicy::PacmNoFairness => Box::new(PacmPolicy::new(config.pacm).without_fairness()),
            ApPolicy::Lru => Box::new(LruPolicy::new()),
        };
        ApNode {
            config,
            upstream,
            ip_map,
            cache: CacheManager::new(store, policy),
            dns_cache: BTreeMap::new(),
            registry: BTreeMap::new(),
            domain_urls: BTreeMap::new(),
            pending_forwards: BTreeMap::new(),
            delegations: BTreeMap::new(),
            delegation_reqs: BTreeMap::new(),
            awaiting_dns: BTreeMap::new(),
            neighbors: Vec::new(),
            neighbor_holders: BTreeMap::new(),
            peer_reqs: BTreeMap::new(),
            wicache_controller: None,
            cpu: CpuMeter::new(CORES),
            mem: MemMeter::with_baseline(MEM_BASELINE),
            next_txn: 1,
            next_conn: 1,
            next_req: 1,
            next_window_roll: SimTime::from_nanos(0),
        }
    }

    /// Enables Wi-Cache advertisements to `controller`.
    pub fn with_wicache(mut self, controller: NodeId) -> Self {
        self.wicache_controller = Some(controller);
        self
    }

    /// Enables AP↔AP cooperation with the given neighbor APs: cache
    /// summaries are exchanged on every window roll, and delegated fetches
    /// try the nearest advertised holder before dialling the edge.
    pub fn with_neighbors(mut self, neighbors: Vec<NodeId>) -> Self {
        self.neighbors = neighbors;
        self
    }

    /// Number of objects currently cached (for tests).
    pub fn cached_objects(&self) -> usize {
        self.cache.store().len()
    }

    /// Bytes currently cached (for tests).
    pub fn cached_bytes(&self) -> u64 {
        self.cache.store().used()
    }

    /// Simulates a cache wipe (AP reboot / OOM): every cached object and
    /// DNS entry is dropped while the block list and URL registry persist
    /// in flash, exactly the state a restarted dnsmasq-based AP would
    /// recover with. Clients holding stale `Cache-Hit` flags fall back to
    /// the delegation path transparently.
    pub fn flush_cache(&mut self) {
        let store = CacheStore::new(self.config.cache_capacity, self.config.block_threshold);
        let policy: Box<dyn EvictionPolicy> = match self.config.policy {
            ApPolicy::Pacm => Box::new(PacmPolicy::new(self.config.pacm)),
            ApPolicy::PacmNoFairness => {
                Box::new(PacmPolicy::new(self.config.pacm).without_fairness())
            }
            ApPolicy::Lru => Box::new(LruPolicy::new()),
        };
        self.cache = CacheManager::new(store, policy);
        self.dns_cache.clear();
    }

    /// Cached bytes split by priority `(high, low)` — diagnostic for the
    /// PACM-vs-LRU composition analysis.
    pub fn cached_bytes_by_priority(&self) -> (u64, u64) {
        let mut high = 0;
        let mut low = 0;
        for entry in self.cache.store().iter() {
            if entry.meta.priority.is_high() {
                high += entry.meta.size;
            } else {
                low += entry.meta.size;
            }
        }
        (high, low)
    }

    /// Memory footprint of the APE-CACHE components right now: code, cache
    /// contents, and per-entry/registry metadata.
    pub fn ape_memory_bytes(&self) -> u64 {
        APE_CODE_OVERHEAD
            + self.cache.store().used()
            + self.cache.store().len() as u64 * PER_ENTRY_OVERHEAD
            + self.registry.len() as u64 * 160
            + self.dns_cache.len() as u64 * 96
    }

    /// Charges CPU work and returns the latency until it completes
    /// (queueing + service), so responses reflect device load.
    fn work(&mut self, now: SimTime, cost: SimDuration) -> SimDuration {
        let done = self.cpu.charge(now, cost);
        done - now
    }

    /// Allocates an upstream DNS transaction id no pending forward holds.
    fn alloc_txn(&mut self) -> u16 {
        let pending = &self.pending_forwards;
        alloc_txn(&mut self.next_txn, pending.len(), |txn| {
            pending.contains_key(&txn)
        })
    }

    /// Sizes of every pending-state map, labelled — the chaos tests assert
    /// all of these drain to zero once in-flight traffic settles.
    pub fn pending_counts(&self) -> [(&'static str, usize); 5] {
        [
            ("ap.pending_forwards", self.pending_forwards.len()),
            ("ap.delegations", self.delegations.len()),
            ("ap.delegation_reqs", self.delegation_reqs.len()),
            ("ap.awaiting_dns", self.awaiting_dns.len()),
            ("ap.peer_reqs", self.peer_reqs.len()),
        ]
    }

    fn flag_for(&self, key: UrlHash, now: SimTime) -> CacheFlag {
        match self.cache.peek(key, now) {
            Lookup::Hit => CacheFlag::Hit,
            Lookup::Blocked => CacheFlag::Miss,
            Lookup::Expired | Lookup::Absent => CacheFlag::Delegation,
        }
    }

    /// Builds the DNS-Cache response tuples for a query about `domain`:
    /// requested hashes plus (with batching) every URL known under the
    /// domain (§IV-B3).
    fn tuples_for(
        &self,
        domain: &DomainName,
        requested: &[UrlHash],
        now: SimTime,
    ) -> Vec<CacheTuple> {
        // `domain_urls` lists hold no duplicates (`remember_domain_url`),
        // so a known URL is new to the answer iff it was not requested.
        let known = self
            .domain_urls
            .get(domain)
            .filter(|_| self.config.batch_domain_flags)
            .into_iter()
            .flatten()
            .filter(|k| !requested.contains(k));
        requested
            .iter()
            .chain(known)
            .map(|&k| CacheTuple::new(k, self.flag_for(k, now)))
            .collect()
    }

    fn remember_domain_url(&mut self, domain: DomainName, key: UrlHash) {
        let list = self.domain_urls.entry(domain).or_default();
        if !list.contains(&key) {
            list.push(key);
        }
    }

    // ------------------------------------------------------------------
    // DNS handling
    // ------------------------------------------------------------------

    fn handle_dns_query(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, query: DnsMessage) {
        let now = ctx.now();
        let is_cache_query = query.is_dns_cache_query();
        let mut cost = DNS_PROCESSING;
        if is_cache_query {
            cost += DNSCACHE_EXTRA;
            ctx.metrics().incr_id(names::id::AP_DNS_CACHE_QUERIES, 1);
        } else {
            ctx.metrics().incr_id(names::id::AP_DNS_QUERIES, 1);
        }
        let latency = self.work(now, cost);
        let Some(domain) = query.question_name().cloned() else {
            return;
        };
        let requested = query.cache_request_hashes();
        for k in &requested {
            self.remember_domain_url(domain.clone(), *k);
        }

        let tuples = if is_cache_query {
            self.tuples_for(&domain, &requested, now)
        } else {
            Vec::new()
        };

        // Short-circuit: if every *requested* URL is already cached, the
        // client will fetch from the AP anyway — skip upstream resolution
        // and answer a dummy IP with TTL 0 (§IV-B3).
        if is_cache_query
            && self.config.short_circuit
            && !requested.is_empty()
            && requested
                .iter()
                .all(|k| self.cache.peek(*k, now) == Lookup::Hit)
        {
            ctx.metrics().incr_id(names::id::AP_SHORT_CIRCUITS, 1);
            let response = DnsMessage::dns_cache_response(&query, IpMap::DUMMY, 0, tuples);
            ctx.send_after(latency, from, Msg::dns(response));
            return;
        }

        // dnsmasq cache.
        if let Some((ip, expires, _)) = self.dns_cache.get(&domain) {
            if *expires > now {
                ctx.metrics().incr_id(names::id::AP_DNS_CACHE_HITS, 1);
                let remaining = (*expires - now).as_secs_u32();
                let response =
                    DnsMessage::dns_cache_response(&query, *ip, remaining.max(1), tuples);
                ctx.send_after(latency, from, Msg::dns(response));
                return;
            }
        }

        // Forward upstream; flags are recomputed when the answer returns.
        ctx.metrics().incr_id(names::id::AP_DNS_FORWARDS, 1);
        let span = ctx.span_start(SpanKind::DnsUpstream);
        let txn = self.alloc_txn();
        self.pending_forwards.insert(
            txn,
            PendingForward {
                client: from,
                query,
                extra_flags: is_cache_query,
                internal: false,
                span,
                at: now,
                retried: false,
            },
        );
        let upstream_query = DnsMessage::query(txn, domain);
        ctx.send_after(latency, self.upstream, Msg::dns(upstream_query));
    }

    fn handle_dns_response(&mut self, ctx: &mut Context<'_, Msg>, response: DnsMessage) {
        let now = ctx.now();
        let latency = self.work(now, DNS_PROCESSING);
        let Some(pending) = self.pending_forwards.remove(&response.header.id) else {
            return;
        };
        // The domain comes from the forwarded query, which always carries a
        // question; deriving it from the response allowed a malformed (or
        // mismatched) answer to return early and leak the open DnsUpstream
        // span. Such answers now count as resolution failures instead.
        let domain = pending
            .query
            .question_name()
            .cloned()
            .expect("forwarded queries carry a question");
        let answer = response
            .answer_ip()
            .filter(|_| response.question_name() == Some(&domain))
            .map(|ip| {
                let ttl = response.answers.first().map(|a| a.ttl).unwrap_or(1).max(1);
                (ip, ttl)
            });
        if let Some((ip, ttl)) = answer {
            self.dns_cache.insert(
                domain.clone(),
                (ip, now + SimDuration::from_secs(ttl as u64), ttl),
            );
        }

        // Resume delegations that were waiting for this resolution — or
        // fail them when the domain did not resolve; re-entering the fetch
        // path on a permanent NXDOMAIN would re-query upstream forever.
        // Each resumed fetch switches the span context to its own
        // delegation, so restore the responder's context for the relay.
        let relay_span = ctx.span_ctx();
        if answer.is_some() {
            if let Some(keys) = self.awaiting_dns.remove(&domain) {
                for key in keys {
                    self.start_upstream_fetch(ctx, key);
                }
            }
        } else {
            self.fail_awaiting_dns(ctx, &domain);
        }
        ctx.set_span_ctx(relay_span);

        // Relay to the querying client (if this forward had one).
        if let Some(span) = pending.span {
            ctx.span_end(span, SpanKind::DnsUpstream);
        }
        if pending.internal {
            return;
        }
        let requested = pending.query.cache_request_hashes();
        let tuples = if pending.extra_flags {
            self.tuples_for(&domain, &requested, now)
        } else {
            Vec::new()
        };
        let response_to_client = match answer {
            Some((ip, ttl)) => DnsMessage::dns_cache_response(&pending.query, ip, ttl, tuples),
            None => {
                let mut r = DnsMessage::dns_cache_response(
                    &pending.query,
                    Ipv4Addr::UNSPECIFIED,
                    0,
                    tuples,
                );
                r.answers.clear();
                r.header.rcode = response.header.rcode;
                r
            }
        };
        ctx.send_after(latency, pending.client, Msg::dns(response_to_client));
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    fn handle_http_request(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        conn: ConnId,
        req: RequestId,
        request: HttpRequest,
        cache_op: Option<CacheOp>,
    ) {
        let now = ctx.now();
        let latency = self.work(now, HTTP_PROCESSING);
        let key = request.url.hash();
        self.remember_domain_url(request.url.host().clone(), key);

        // Feed PACM's frequency signal.
        let op = cache_op.or_else(|| self.registry.get(&key).map(|r| r.op));
        if let Some(op) = op {
            self.cache.note_request(op.app);
        }
        ctx.metrics().incr_id(names::id::AP_DATA_REQUESTS, 1);

        let waiter = Waiter {
            node: from,
            conn,
            req,
        };
        match self.cache.lookup(key, now) {
            Lookup::Hit => {
                let size = self
                    .cache
                    .store()
                    .get(key)
                    .map(|e| e.meta.size)
                    .expect("hit entry exists");
                ctx.metrics().incr_id(names::id::AP_CACHE_HITS, 1);
                ctx.send_after(
                    latency,
                    from,
                    Msg::HttpRsp {
                        conn,
                        req,
                        response: HttpResponse::ok(Body::synthetic(size)),
                        from_cache: true,
                    },
                );
            }
            Lookup::Blocked => {
                // Block-listed: fetch-and-forward without caching.
                ctx.metrics().incr_id(names::id::AP_BLOCKED_SERVES, 1);
                self.enqueue_delegation(ctx, waiter, request.url, op, false);
            }
            Lookup::Expired | Lookup::Absent => {
                ctx.metrics().incr_id(names::id::AP_DELEGATIONS, 1);
                self.enqueue_delegation(ctx, waiter, request.url, op, true);
            }
        }
    }

    /// Adds a waiter for `url`; starts the upstream fetch when none is
    /// already in flight.
    fn enqueue_delegation(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        waiter: Waiter,
        url: Url,
        op: Option<CacheOp>,
        cache_result: bool,
    ) {
        let key = url.hash();
        if let Some(existing) = self.delegations.get_mut(&key) {
            existing.waiters.push(waiter);
            return;
        }
        let op = op.unwrap_or(CacheOp {
            ttl: SimDuration::from_mins(10),
            priority: Priority::LOW,
            app: ape_cachealg::AppId::new(u32::MAX),
        });
        self.registry.insert(key, RegisteredUrl { op });
        // The WAN fetch is a child of the triggering waiter's retrieval
        // span; later coalesced waiters share the same upstream fetch.
        let span = ctx.span_start(SpanKind::WanFetch);
        self.delegations.insert(
            key,
            Delegation {
                url,
                op,
                waiters: vec![waiter],
                started: ctx.now(),
                cache_result,
                span,
                retried: false,
                upstream_req: None,
            },
        );
        self.start_upstream_fetch(ctx, key);
    }

    /// Dials the object's server (resolving its domain first if needed) and
    /// issues the upstream request.
    fn start_upstream_fetch(&mut self, ctx: &mut Context<'_, Msg>, key: UrlHash) {
        let Some(delegation) = self.delegations.get_mut(&key) else {
            return;
        };
        delegation.started = ctx.now();
        // Everything sent on behalf of this delegation — the inline DNS
        // resolution and the upstream request — belongs to its WAN span.
        ctx.set_span_ctx(delegation.span);
        // Cooperative step: when a neighbor AP advertised this key, ask it
        // first — one hop over the backhaul instead of the edge round trip.
        // Reap-retried fetches skip the peer path (it already failed or
        // timed out) and go straight upstream; a peer miss clears the stale
        // holder entry and re-enters here on the normal path.
        if !delegation.retried {
            if let Some(&(holder, _)) = self.neighbor_holders.get(&key) {
                let peer_req = RequestId(self.next_req);
                self.next_req += 1;
                delegation.upstream_req = Some(peer_req);
                self.peer_reqs.insert(peer_req, key);
                ctx.metrics().incr_id(names::id::AP_PEER_FETCHES, 1);
                ctx.send(holder, Msg::PeerFetch { req: peer_req, key });
                return;
            }
        }
        let domain = delegation.url.host().clone();
        let now = ctx.now();
        let target_ip = match self.dns_cache.get(&domain) {
            Some((ip, expires, _)) if *expires > now => *ip,
            _ => {
                // Resolve first; the fetch resumes from
                // `handle_dns_response`.
                let first = self.awaiting_dns.get(&domain).is_none_or(|w| w.is_empty());
                if first {
                    let txn = self.alloc_txn();
                    self.pending_forwards.insert(
                        txn,
                        PendingForward {
                            client: ctx.self_id(),
                            query: DnsMessage::query(txn, domain.clone()),
                            extra_flags: false,
                            internal: true,
                            // Resolution time is inside the WAN-fetch span.
                            span: None,
                            at: now,
                            retried: false,
                        },
                    );
                    ctx.send(
                        self.upstream,
                        Msg::dns(DnsMessage::query(txn, domain.clone())),
                    );
                }
                self.awaiting_dns.entry(domain).or_default().push(key);
                return;
            }
        };
        let Some(target) = self.ip_map.node_of(target_ip) else {
            // Resolution produced an address outside the testbed; fail all
            // waiters.
            let delegation = self.delegations.remove(&key).expect("present above");
            if let Some(span) = delegation.span {
                ctx.span_end(span, SpanKind::WanFetch);
            }
            for w in delegation.waiters {
                ctx.send(
                    w.node,
                    Msg::HttpRsp {
                        conn: w.conn,
                        req: w.req,
                        response: HttpResponse::gateway_timeout(),
                        from_cache: false,
                    },
                );
            }
            return;
        };
        let conn = ConnId(self.next_conn);
        self.next_conn += 1;
        let up_req = RequestId(self.next_req);
        self.next_req += 1;
        self.delegation_reqs.insert(up_req, key);
        delegation.upstream_req = Some(up_req);
        let handshake = ctx.link_rtt(target).unwrap_or(SimDuration::ZERO);
        ctx.send(target, Msg::TcpSyn { conn });
        ctx.send_after(
            handshake,
            target,
            Msg::HttpReq {
                conn,
                req: up_req,
                request: Box::new(HttpRequest::get(delegation.url.clone())),
                cache_op: None,
            },
        );
    }

    fn handle_upstream_response(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        req: RequestId,
        response: HttpResponse,
    ) {
        let now = ctx.now();
        let latency = self.work(now, HTTP_PROCESSING);
        let Some(key) = self.delegation_reqs.remove(&req) else {
            return;
        };
        let Some(delegation) = self.delegations.remove(&key) else {
            return;
        };
        let fetch_latency = now - delegation.started;
        ctx.metrics().observe_id(
            names::id::AP_DELEGATION_FETCH_MS,
            fetch_latency.as_millis_f64(),
        );
        if let Some(span) = delegation.span {
            ctx.span_end(span, SpanKind::WanFetch);
        }

        if response.status.is_success() && delegation.cache_result {
            let admit_latency = self.work(now, EVICTION_PROCESSING);
            let meta = ObjectMeta {
                key,
                app: delegation.op.app,
                size: response.body.size(),
                priority: delegation.op.priority,
                expires_at: now + delegation.op.ttl,
                fetch_latency,
            };
            // The admission (eviction decision + insert) is charged
            // `EVICTION_PROCESSING` CPU; the span covers that modeled
            // interval so `repro trace` attributes eviction cost per
            // admission.
            let evict_span = ctx.span_start(SpanKind::CacheEvict);
            let prof = ctx.prof_start();
            let stats_before = self.cache.policy().evict_stats();
            let outcome = self.cache.admit(meta, now);
            ctx.prof_end(ProfCategory::Evict, prof);
            match outcome {
                AdmitOutcome::Stored { evicted } => {
                    ctx.metrics().incr_id(names::id::AP_ADMISSIONS, 1);
                    ctx.metrics()
                        .incr_id(names::id::AP_EVICTIONS, evicted.len() as u64);
                    if let Some(controller) = self.wicache_controller {
                        ctx.send(
                            controller,
                            Msg::WiCacheAdvertise {
                                added: vec![key],
                                removed: evicted,
                            },
                        );
                    }
                }
                AdmitOutcome::Blocked => {
                    ctx.metrics().incr_id(names::id::AP_BLOCK_LISTED, 1);
                }
                AdmitOutcome::Declined => {
                    ctx.metrics().incr_id(names::id::AP_ADMIT_DECLINED, 1);
                }
            }
            self.record_evict_stats(ctx, stats_before);
            if let Some(span) = evict_span {
                ctx.span_end_at(span, SpanKind::CacheEvict, now + admit_latency);
            }
        }

        for w in delegation.waiters {
            ctx.send_after(
                latency,
                w.node,
                Msg::HttpRsp {
                    conn: w.conn,
                    req: w.req,
                    response: response.clone(),
                    from_cache: false,
                },
            );
        }
    }

    /// Extension (paper §VI): proactively delegate the objects a client
    /// says it will request next, so the follow-up requests hit.
    fn handle_prefetch_hints(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        hints: Vec<ape_proto::PrefetchHint>,
    ) {
        let now = ctx.now();
        let latency = self.work(now, HTTP_PROCESSING);
        let _ = latency; // prefetching is off the client's critical path
                         // Prefetch fetches serve no specific request: detach them from the
                         // hinting client's trace so attribution only sees demand fetches.
        ctx.set_span_ctx(None);
        for hint in hints {
            let key = hint.url.hash();
            match self.cache.peek(key, now) {
                Lookup::Hit | Lookup::Blocked => continue,
                Lookup::Expired | Lookup::Absent => {}
            }
            if self.delegations.contains_key(&key) {
                continue; // already being fetched
            }
            ctx.metrics().incr_id(names::id::AP_PREFETCHES, 1);
            self.registry.insert(key, RegisteredUrl { op: hint.op });
            self.delegations.insert(
                key,
                Delegation {
                    url: hint.url,
                    op: hint.op,
                    waiters: Vec::new(),
                    started: now,
                    cache_result: true,
                    span: None,
                    retried: false,
                    upstream_req: None,
                },
            );
            self.start_upstream_fetch(ctx, key);
        }
    }

    // ------------------------------------------------------------------
    // AP↔AP cooperation & roaming
    // ------------------------------------------------------------------

    /// How many cached keys a summary carries (peer-fetch piggybacks, the
    /// window-roll gossip, and the roam hand-off all use the same bound).
    const SUMMARY_KEYS: usize = 32;

    /// A deterministic hot-object summary of the local cache: the first
    /// [`Self::SUMMARY_KEYS`] keys in store order.
    fn cache_summary(&self) -> Vec<UrlHash> {
        self.cache
            .store()
            .iter()
            .map(|e| e.meta.key)
            .take(Self::SUMMARY_KEYS)
            .collect()
    }

    /// Records a neighbor's advertised hot keys; the latest summary wins,
    /// and two summaries absorbed at the same instant tie-break on the
    /// lowest node id (see [`Self::neighbor_holders`]). Summaries from APs
    /// we don't cooperate with — e.g. a roam handoff arriving at an
    /// isolated grid — are dropped: peer fetching is an opt-in, and
    /// honouring a stray summary would silently re-enable it.
    fn absorb_summary(&mut self, now: SimTime, from: NodeId, keys: Vec<UrlHash>) {
        if !self.neighbors.contains(&from) {
            return;
        }
        for key in keys {
            match self.neighbor_holders.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert((from, now));
                }
                Entry::Occupied(mut slot) => {
                    let (holder, at) = *slot.get();
                    if now > at || (now == at && from < holder) {
                        slot.insert((from, now));
                    }
                }
            }
        }
    }

    /// Serves a neighbor's peer fetch from the local cache (`None` on a
    /// miss) and piggybacks a hot-object summary on the reply either way.
    fn handle_peer_fetch(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        req: RequestId,
        key: UrlHash,
    ) {
        let now = ctx.now();
        let latency = self.work(now, HTTP_PROCESSING);
        let response = match self.cache.lookup(key, now) {
            Lookup::Hit => {
                let size = self
                    .cache
                    .store()
                    .get(key)
                    .map(|e| e.meta.size)
                    .expect("hit entry exists");
                Some(Box::new(HttpResponse::ok(Body::synthetic(size))))
            }
            Lookup::Blocked | Lookup::Expired | Lookup::Absent => None,
        };
        let summary = self.cache_summary();
        ctx.send_after(
            latency,
            from,
            Msg::PeerRsp {
                req,
                response,
                summary,
            },
        );
    }

    /// Completes (or falls back from) a peer fetch. A hit flows through the
    /// normal upstream-response path — fetch-latency accounting, admission,
    /// Wi-Cache advertisement, waiter serving — so a peer-fetched object is
    /// indistinguishable from an edge-fetched one downstream.
    fn handle_peer_rsp(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        req: RequestId,
        response: Option<Box<HttpResponse>>,
        summary: Vec<UrlHash>,
    ) {
        self.absorb_summary(ctx.now(), from, summary);
        let Some(key) = self.peer_reqs.remove(&req) else {
            return; // disowned by the reaper; the summary still counted
        };
        match response {
            Some(rsp) => {
                ctx.metrics().incr_id(names::id::AP_PEER_HITS, 1);
                self.delegation_reqs.insert(req, key);
                self.handle_upstream_response(ctx, req, *rsp);
            }
            None => {
                ctx.metrics().incr_id(names::id::AP_PEER_MISSES, 1);
                if self.neighbor_holders.get(&key).map(|&(h, _)| h) == Some(from) {
                    self.neighbor_holders.remove(&key);
                }
                if let Some(d) = self.delegations.get_mut(&key) {
                    d.upstream_req = None;
                    self.start_upstream_fetch(ctx, key);
                }
            }
        }
    }

    /// A homed client re-homed to `new_ap`: cancel its pending DNS relays,
    /// drop it from delegation waiter lists (the fetches themselves finish
    /// and are admitted for whoever stayed), and hand the new home a
    /// hot-object summary so the roamer's working set stays one peer fetch
    /// away.
    fn handle_roam_notice(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, new_ap: NodeId) {
        ctx.metrics().incr_id(names::id::AP_ROAM_DEPARTURES, 1);
        let stale: Vec<u16> = self
            .pending_forwards
            .iter()
            .filter(|(_, p)| !p.internal && p.client == from)
            .map(|(txn, _)| *txn)
            .collect();
        for txn in stale {
            let pending = self.pending_forwards.remove(&txn).expect("collected above");
            if let Some(span) = pending.span {
                ctx.span_end(span, SpanKind::DnsUpstream);
            }
            ctx.metrics()
                .incr_id(names::id::AP_ROAM_CANCELLED_FORWARDS, 1);
        }
        for d in self.delegations.values_mut() {
            let before = d.waiters.len();
            d.waiters.retain(|w| w.node != from);
            let cancelled = (before - d.waiters.len()) as u64;
            if cancelled > 0 {
                ctx.metrics()
                    .incr_id(names::id::AP_ROAM_CANCELLED_WAITERS, cancelled);
            }
        }
        if new_ap != ctx.self_id() {
            let keys = self.cache_summary();
            if !keys.is_empty() {
                ctx.send(new_ap, Msg::CacheSummary { keys });
            }
        }
    }

    /// Publishes the eviction-engine counters advanced by the last
    /// admission (PACM only; LRU keeps no stats) as metric deltas.
    fn record_evict_stats(&mut self, ctx: &mut Context<'_, Msg>, before: Option<EvictStats>) {
        let (Some(before), Some(after)) = (before, self.cache.policy().evict_stats()) else {
            return;
        };
        let deltas = [
            (
                names::id::AP_EVICT_SOLVER_RUNS,
                after.solver_runs - before.solver_runs,
            ),
            (
                names::id::AP_EVICT_ITEMS,
                after.items_considered - before.items_considered,
            ),
            (names::id::AP_EVICT_DP_RUNS, after.dp_runs - before.dp_runs),
            (
                names::id::AP_EVICT_GREEDY_RUNS,
                after.greedy_runs - before.greedy_runs,
            ),
            (
                names::id::AP_EVICT_SHORT_CIRCUITS,
                after.short_circuits - before.short_circuits,
            ),
            (
                names::id::AP_EVICT_FORCED,
                after.forced_victims - before.forced_victims,
            ),
            (
                names::id::AP_EVICT_REPAIRS,
                after.repair_evictions - before.repair_evictions,
            ),
        ];
        for (id, delta) in deltas {
            if delta > 0 {
                ctx.metrics().incr_id(id, delta);
            }
        }
    }

    /// Fails every delegation blocked on resolving `domain`: the answer is
    /// not coming, so the waiters get 504 and the state is dropped.
    fn fail_awaiting_dns(&mut self, ctx: &mut Context<'_, Msg>, domain: &DomainName) {
        let Some(keys) = self.awaiting_dns.remove(domain) else {
            return;
        };
        for key in keys {
            let Some(delegation) = self.delegations.remove(&key) else {
                continue;
            };
            ctx.metrics()
                .incr_id(names::id::AP_DELEGATION_DNS_FAILURES, 1);
            if let Some(span) = delegation.span {
                ctx.span_end(span, SpanKind::WanFetch);
            }
            for w in delegation.waiters {
                ctx.send(
                    w.node,
                    Msg::HttpRsp {
                        conn: w.conn,
                        req: w.req,
                        response: HttpResponse::gateway_timeout(),
                        from_cache: false,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Pending-state reapers
    // ------------------------------------------------------------------
    //
    // A lossy uplink can swallow any upstream message, which without a
    // timeout would strand `pending_forwards` / `delegations` /
    // `awaiting_dns` entries (and their waiters) forever. The reaper tick
    // retries each stuck operation exactly once and then fails it toward
    // the client — SERVFAIL for DNS forwards, 504 for delegation waiters —
    // so every pending map provably drains once traffic stops.

    fn reap(&mut self, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        self.reap_forwards(ctx, now);
        self.reap_delegations(ctx, now);
        ctx.set_span_ctx(None);
    }

    fn reap_forwards(&mut self, ctx: &mut Context<'_, Msg>, now: SimTime) {
        let stale: Vec<u16> = self
            .pending_forwards
            .iter()
            .filter(|(_, p)| now - p.at >= DNS_UPSTREAM_TIMEOUT)
            .map(|(txn, _)| *txn)
            .collect();
        for txn in stale {
            if !self.pending_forwards[&txn].retried {
                // Retransmit once, same transaction id: whichever copy's
                // answer arrives first completes the forward.
                let upstream = self.upstream;
                let p = self
                    .pending_forwards
                    .get_mut(&txn)
                    .expect("collected above");
                p.retried = true;
                p.at = now;
                let query = p
                    .query
                    .question_name()
                    .cloned()
                    .map(|d| DnsMessage::query(txn, d));
                ctx.metrics().incr_id(names::id::AP_DNS_UPSTREAM_RETRIES, 1);
                ctx.set_span_ctx(self.pending_forwards[&txn].span);
                if let Some(query) = query {
                    ctx.send(upstream, Msg::dns(query));
                }
                continue;
            }
            let pending = self.pending_forwards.remove(&txn).expect("collected above");
            ctx.set_span_ctx(None);
            ctx.metrics()
                .incr_id(names::id::AP_DNS_UPSTREAM_GIVE_UPS, 1);
            if let Some(span) = pending.span {
                ctx.span_end(span, SpanKind::DnsUpstream);
            }
            let Some(domain) = pending.query.question_name().cloned() else {
                continue;
            };
            if pending.internal {
                // Delegations blocked on this resolution can never proceed.
                self.fail_awaiting_dns(ctx, &domain);
            } else {
                let tuples = if pending.extra_flags {
                    self.tuples_for(&domain, &pending.query.cache_request_hashes(), now)
                } else {
                    Vec::new()
                };
                let mut r = DnsMessage::dns_cache_response(
                    &pending.query,
                    Ipv4Addr::UNSPECIFIED,
                    0,
                    tuples,
                );
                r.answers.clear();
                r.header.rcode = Rcode::ServFail;
                ctx.send(pending.client, Msg::dns(r));
            }
        }
    }

    fn reap_delegations(&mut self, ctx: &mut Context<'_, Msg>, now: SimTime) {
        // Delegations still waiting on DNS are owned by the forward reaper
        // (its give-up path drains them via `fail_awaiting_dns`), so only
        // fetches that actually went upstream are considered here.
        let stale: Vec<UrlHash> = self
            .delegations
            .iter()
            .filter(|(key, d)| {
                now - d.started >= DELEGATION_TIMEOUT
                    && !self
                        .awaiting_dns
                        .get(d.url.host())
                        .is_some_and(|keys| keys.contains(key))
            })
            .map(|(key, _)| *key)
            .collect();
        for key in stale {
            if !self.delegations[&key].retried {
                let d = self.delegations.get_mut(&key).expect("collected above");
                d.retried = true;
                // Disown the stale upstream request: if its response ever
                // arrives it must not complete the restarted fetch too.
                if let Some(up) = d.upstream_req.take() {
                    self.delegation_reqs.remove(&up);
                    self.peer_reqs.remove(&up);
                }
                ctx.metrics().incr_id(names::id::AP_DELEGATION_RETRIES, 1);
                self.start_upstream_fetch(ctx, key);
                continue;
            }
            let delegation = self.delegations.remove(&key).expect("collected above");
            ctx.set_span_ctx(None);
            if let Some(up) = delegation.upstream_req {
                self.delegation_reqs.remove(&up);
                self.peer_reqs.remove(&up);
            }
            ctx.metrics().incr_id(names::id::AP_DELEGATION_REAPS, 1);
            if let Some(span) = delegation.span {
                ctx.span_end(span, SpanKind::WanFetch);
            }
            for w in delegation.waiters {
                ctx.send(
                    w.node,
                    Msg::HttpRsp {
                        conn: w.conn,
                        req: w.req,
                        response: HttpResponse::gateway_timeout(),
                        from_cache: false,
                    },
                );
            }
        }
    }

    /// Rolls the frequency window and purges expired objects once the due
    /// instant is reached. Both the window tick and the sample tick call
    /// this, so when the two grids land on the same nanosecond the roll
    /// happens exactly once, before whichever handler the queue runs
    /// first does its own work — the resource sampler can never observe a
    /// pre-purge state that tie-break order would otherwise decide.
    fn roll_window_if_due(&mut self, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        if now < self.next_window_roll {
            return;
        }
        self.next_window_roll = now + self.config.window;
        let prof = ctx.prof_start();
        self.cache.roll_window(now);
        let purged = self.cache.purge_expired(now);
        ctx.prof_end(ProfCategory::Evict, prof);
        ctx.metrics()
            .incr_id(names::id::AP_TTL_PURGES, purged.len() as u64);
        if let Some(controller) = self.wicache_controller {
            if !purged.is_empty() {
                let added = Vec::new();
                let removed = purged.into_iter().map(|meta| meta.key).collect();
                ctx.send(controller, Msg::WiCacheAdvertise { added, removed });
            }
        }
        // Cooperative gossip rides the same roll: each neighbor learns this
        // AP's current hot set once per window.
        if !self.neighbors.is_empty() {
            let keys = self.cache_summary();
            if !keys.is_empty() {
                for i in 0..self.neighbors.len() {
                    let neighbor = self.neighbors[i];
                    ctx.send(neighbor, Msg::CacheSummary { keys: keys.clone() });
                }
            }
        }
    }

    fn sample_resources(&mut self, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        let cpu = self.cpu.sample_utilization(now);
        let ape_mem = self.ape_memory_bytes();
        self.mem.alloc(0); // keep the meter's peak tracking coherent
        ctx.metrics().record_point_id(names::id::AP_CPU, now, cpu);
        ctx.metrics()
            .record_point_id(names::id::AP_APE_MEM_MB, now, ape_mem as f64 / 1e6);
        ctx.metrics().record_point_id(
            names::id::AP_TOTAL_MEM_MB,
            now,
            (MEM_BASELINE + ape_mem) as f64 / 1e6,
        );
    }
}

impl Node<Msg> for ApNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        // The stagger shifts every periodic tick off the shared grids once,
        // at start; each tick reschedules itself relatively, so the phase
        // persists for the whole run.
        let stagger = self.config.phase_stagger;
        self.next_window_roll = ctx.now() + self.config.window + stagger;
        ctx.schedule(self.config.window + stagger, TICK_WINDOW);
        ctx.schedule(SAMPLE_INTERVAL + stagger, TICK_SAMPLE);
        ctx.schedule(REAP_INTERVAL + REAP_PHASE + stagger, TICK_REAP);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Dns(dns) if dns.header.response => self.handle_dns_response(ctx, *dns),
            Msg::Dns(dns) => self.handle_dns_query(ctx, from, *dns),
            Msg::TcpSyn { conn } => {
                let latency = self.work(ctx.now(), HTTP_PROCESSING);
                ctx.send_after(latency, from, Msg::TcpSynAck { conn });
            }
            Msg::TcpSynAck { .. } => {}
            Msg::HttpReq {
                conn,
                req,
                request,
                cache_op,
            } => self.handle_http_request(ctx, from, conn, req, *request, cache_op),
            Msg::HttpRsp { req, response, .. } => self.handle_upstream_response(ctx, req, response),
            Msg::PrefetchHints { hints } => self.handle_prefetch_hints(ctx, hints),
            Msg::PeerFetch { req, key } => self.handle_peer_fetch(ctx, from, req, key),
            Msg::PeerRsp {
                req,
                response,
                summary,
            } => self.handle_peer_rsp(ctx, from, req, response, summary),
            Msg::CacheSummary { keys } => self.absorb_summary(ctx.now(), from, keys),
            Msg::RoamNotice { new_ap } => self.handle_roam_notice(ctx, from, new_ap),
            Msg::WiCacheLookup { .. }
            | Msg::WiCacheResult { .. }
            | Msg::WiCacheAdvertise { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: TimerToken) {
        match token {
            TICK_WINDOW => {
                self.roll_window_if_due(ctx);
                ctx.schedule(self.config.window, TICK_WINDOW);
            }
            TICK_SAMPLE => {
                self.roll_window_if_due(ctx);
                self.sample_resources(ctx);
                ctx.schedule(SAMPLE_INTERVAL, TICK_SAMPLE);
            }
            TICK_REAP => {
                self.reap(ctx);
                ctx.schedule(REAP_INTERVAL, TICK_REAP);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// APs re-arm periodic timers, so the queue never drains; run long
    /// enough for all request/response traffic to settle instead.
    fn settle(world: &mut World<Msg>) {
        world.run_for(SimDuration::from_secs(2));
    }

    use crate::server::{Catalog, CatalogEntry, EdgeNode, OriginNode};
    use ape_simnet::{LinkSpec, World};

    /// Scripted prober standing in for a client.
    #[derive(Debug, Default)]
    struct Probe {
        dns_responses: Vec<DnsMessage>,
        http_responses: Vec<(RequestId, HttpResponse, bool)>,
        last_at: Option<SimTime>,
    }

    impl Node<Msg> for Probe {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            self.last_at = Some(ctx.now());
            match msg {
                Msg::Dns(m) => self.dns_responses.push(*m),
                Msg::HttpRsp {
                    req,
                    response,
                    from_cache,
                    ..
                } => self.http_responses.push((req, response, from_cache)),
                _ => {}
            }
        }
    }

    struct Bed {
        world: World<Msg>,
        probe: NodeId,
        ap: NodeId,
        #[allow(dead_code)]
        edge: NodeId,
        ldns: NodeId,
    }

    fn url() -> Url {
        Url::parse("http://app0.dummy.example/obj0?v=1").unwrap()
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(
            "http://app0.dummy.example/obj0",
            CatalogEntry {
                size: 40_000,
                extra_latency: SimDuration::from_millis(30),
            },
        );
        c.add(
            "http://app0.dummy.example/big",
            CatalogEntry {
                size: 600_000,
                extra_latency: SimDuration::from_millis(30),
            },
        );
        c
    }

    /// probe —1.5ms— AP —8ms— LDNS; AP —14ms— edge —24ms— origin.
    fn bed(config: ApConfig) -> Bed {
        use crate::resolver::{AuthDnsNode, LdnsNode, ZoneAnswer};
        let mut w = World::new(11);
        let probe = w.add_node("probe", Probe::default());
        let origin = w.add_node(
            "origin",
            OriginNode::new(catalog(), SimDuration::from_micros(500)),
        );
        let mut edge = EdgeNode::new(origin, catalog(), SimDuration::from_micros(500));
        edge.prewarm();
        let edge_id = w.add_node("edge", edge);

        let mut ip_map = IpMap::new();
        let edge_ip = ip_map.assign(edge_id);

        let mut cdn = AuthDnsNode::new(SimDuration::from_micros(300));
        cdn.wildcard(
            DomainName::parse("dummy.example").unwrap(),
            ZoneAnswer::A {
                ip: edge_ip,
                ttl: 20,
            },
        );
        let cdn_id = w.add_node("cdn-dns", cdn);
        let ldns = w.add_node(
            "ldns",
            LdnsNode::new(
                SimDuration::from_micros(200),
                vec![(DomainName::parse("dummy.example").unwrap(), cdn_id)],
            ),
        );
        let ap = w.add_node("ap", ApNode::new(config, ldns, ip_map));

        w.connect(
            probe,
            ap,
            LinkSpec::from_rtt(1, SimDuration::from_millis(3)),
        );
        w.connect(ap, ldns, LinkSpec::from_rtt(4, SimDuration::from_millis(8)));
        w.connect(
            ldns,
            cdn_id,
            LinkSpec::from_rtt(9, SimDuration::from_millis(20)),
        );
        w.connect(
            ap,
            edge_id,
            LinkSpec::from_rtt(7, SimDuration::from_millis(14)),
        );
        w.connect(
            edge_id,
            origin,
            LinkSpec::from_rtt(8, SimDuration::from_millis(24)),
        );
        Bed {
            world: w,
            probe,
            ap,
            edge: edge_id,
            ldns,
        }
    }

    fn dns_cache_query(id: u16, hashes: &[UrlHash]) -> Msg {
        Msg::dns(DnsMessage::dns_cache_request(
            id,
            DomainName::parse("app0.dummy.example").unwrap(),
            hashes,
        ))
    }

    fn delegation_op() -> CacheOp {
        CacheOp {
            ttl: SimDuration::from_mins(10),
            priority: Priority::HIGH,
            app: ape_cachealg::AppId::new(0),
        }
    }

    #[test]
    fn unknown_url_reports_delegation_flag() {
        let mut bed = bed(ApConfig::default());
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(1, &[url().hash()]));
        settle(&mut bed.world);
        let probe = bed.world.node::<Probe>(bed.probe);
        let resp = probe.dns_responses.last().unwrap();
        let tuples = resp.cache_response_tuples();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].flag, CacheFlag::Delegation);
        // Unknown domain forced upstream resolution: a real IP came back.
        assert!(resp.answer_ip().is_some());
        assert!(!IpMap::is_dummy(resp.answer_ip().unwrap()));
    }

    #[test]
    fn delegation_fetches_caches_and_replies() {
        let mut bed = bed(ApConfig::default());
        // Resolve first so the AP has the edge address cached.
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(1, &[url().hash()]));
        settle(&mut bed.world);
        // Open TCP + delegation request.
        bed.world
            .post(bed.probe, bed.ap, Msg::TcpSyn { conn: ConnId(1) });
        settle(&mut bed.world);
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(7),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(delegation_op()),
            },
        );
        settle(&mut bed.world);
        let probe = bed.world.node::<Probe>(bed.probe);
        let (req, response, from_cache) = probe.http_responses.last().unwrap();
        assert_eq!(*req, RequestId(7));
        assert!(response.status.is_success());
        assert_eq!(response.body.size(), 40_000);
        assert!(!from_cache, "first fetch is a delegation");
        assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 1);
    }

    #[test]
    fn second_fetch_is_served_from_ap_cache() {
        let mut bed = bed(ApConfig::default());
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(1, &[url().hash()]));
        settle(&mut bed.world);
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(1),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(delegation_op()),
            },
        );
        settle(&mut bed.world);
        let t0 = bed.world.now();
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(2),
                req: RequestId(2),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(delegation_op()),
            },
        );
        settle(&mut bed.world);
        let probe = bed.world.node::<Probe>(bed.probe);
        let (_, response, from_cache) = probe.http_responses.last().unwrap();
        assert!(from_cache, "second fetch hits the AP cache");
        assert!(response.status.is_success());
        let elapsed = (probe.last_at.unwrap() - t0).as_millis_f64();
        assert!(elapsed < 6.0, "cache hit took {elapsed}ms");
        assert_eq!(bed.world.metrics().counter(names::AP_CACHE_HITS), 1);
    }

    #[test]
    fn cached_urls_short_circuit_dns_with_dummy_ip() {
        let mut bed = bed(ApConfig::default());
        // Prime: resolve + delegate once.
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(1, &[url().hash()]));
        settle(&mut bed.world);
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(1),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(delegation_op()),
            },
        );
        settle(&mut bed.world);
        // Let the AP's dnsmasq entry (TTL 20s) expire so only the
        // short-circuit can avoid an upstream round trip.
        bed.world.run_until(SimTime::from_secs(30));
        let t0 = bed.world.now();
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(2, &[url().hash()]));
        settle(&mut bed.world);
        let probe = bed.world.node::<Probe>(bed.probe);
        let resp = probe.dns_responses.last().unwrap();
        assert_eq!(resp.answer_ip(), Some(IpMap::DUMMY));
        assert_eq!(resp.answers[0].ttl, 0);
        assert_eq!(resp.cache_response_tuples()[0].flag, CacheFlag::Hit);
        let elapsed = (probe.last_at.unwrap() - t0).as_millis_f64();
        assert!(elapsed < 5.0, "short-circuit lookup took {elapsed}ms");
        assert_eq!(bed.world.metrics().counter(names::AP_SHORT_CIRCUITS), 1);
    }

    #[test]
    fn short_circuit_can_be_disabled() {
        let config = ApConfig {
            short_circuit: false,
            ..ApConfig::default()
        };
        let mut bed = bed(config);
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(1, &[url().hash()]));
        settle(&mut bed.world);
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(1),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(delegation_op()),
            },
        );
        settle(&mut bed.world);
        bed.world.run_until(SimTime::from_secs(30));
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(2, &[url().hash()]));
        settle(&mut bed.world);
        let resp = bed
            .world
            .node::<Probe>(bed.probe)
            .dns_responses
            .last()
            .cloned()
            .unwrap();
        // Flags still present, but a real upstream-resolved IP.
        assert_eq!(resp.cache_response_tuples()[0].flag, CacheFlag::Hit);
        assert!(!IpMap::is_dummy(resp.answer_ip().unwrap()));
        assert_eq!(bed.world.metrics().counter(names::AP_SHORT_CIRCUITS), 0);
    }

    #[test]
    fn batched_flags_cover_sibling_urls() {
        let mut bed = bed(ApConfig::default());
        let sibling = Url::parse("http://app0.dummy.example/obj0?v=2").unwrap();
        // Teach the AP both URLs exist by delegating both.
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(1, &[url().hash()]));
        settle(&mut bed.world);
        for (i, u) in [url(), sibling.clone()].into_iter().enumerate() {
            bed.world.post(
                bed.probe,
                bed.ap,
                Msg::HttpReq {
                    conn: ConnId(i as u64 + 1),
                    req: RequestId(i as u64 + 1),
                    request: Box::new(HttpRequest::get(u)),
                    cache_op: Some(delegation_op()),
                },
            );
            settle(&mut bed.world);
        }
        // Ask about only one hash; batching must report both.
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(2, &[url().hash()]));
        settle(&mut bed.world);
        let resp = bed
            .world
            .node::<Probe>(bed.probe)
            .dns_responses
            .last()
            .cloned()
            .unwrap();
        let tuples = resp.cache_response_tuples();
        assert_eq!(tuples.len(), 2, "{tuples:?}");
        assert!(tuples.iter().all(|t| t.flag == CacheFlag::Hit));
        assert!(tuples.iter().any(|t| t.url_hash == sibling.hash()));
    }

    #[test]
    fn oversized_objects_get_block_listed_and_flagged_miss() {
        let mut bed = bed(ApConfig::default());
        let big = Url::parse("http://app0.dummy.example/big?v=1").unwrap();
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(1, &[big.hash()]));
        settle(&mut bed.world);
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(1),
                request: Box::new(HttpRequest::get(big.clone())),
                cache_op: Some(delegation_op()),
            },
        );
        settle(&mut bed.world);
        // Data delivered despite being uncacheable.
        let probe = bed.world.node::<Probe>(bed.probe);
        let (_, response, _) = probe.http_responses.last().unwrap();
        assert_eq!(response.body.size(), 600_000);
        assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 0);
        // Next lookup reports Cache-Miss.
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(2, &[big.hash()]));
        settle(&mut bed.world);
        let resp = bed
            .world
            .node::<Probe>(bed.probe)
            .dns_responses
            .last()
            .cloned()
            .unwrap();
        assert_eq!(resp.cache_response_tuples()[0].flag, CacheFlag::Miss);
    }

    #[test]
    fn concurrent_delegations_coalesce_into_one_fetch() {
        let mut bed = bed(ApConfig::default());
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(1, &[url().hash()]));
        settle(&mut bed.world);
        for i in 0..3u64 {
            bed.world.post(
                bed.probe,
                bed.ap,
                Msg::HttpReq {
                    conn: ConnId(i + 1),
                    req: RequestId(i + 1),
                    request: Box::new(HttpRequest::get(url())),
                    cache_op: Some(delegation_op()),
                },
            );
        }
        settle(&mut bed.world);
        let probe = bed.world.node::<Probe>(bed.probe);
        assert_eq!(probe.http_responses.len(), 3, "all waiters answered");
        assert_eq!(bed.world.metrics().counter(names::EDGE_ORIGIN_FETCHES), 0);
        // Only one upstream request reached the edge for the three waiters.
        assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 1);
        let delegation_fetches = bed
            .world
            .metrics()
            .histogram(names::AP_DELEGATION_FETCH_MS)
            .unwrap()
            .count();
        assert_eq!(delegation_fetches, 1);
    }

    #[test]
    fn delegation_without_prior_dns_resolves_inline() {
        let mut bed = bed(ApConfig::default());
        // Straight to delegation; the AP must resolve the domain itself.
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(1),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(delegation_op()),
            },
        );
        settle(&mut bed.world);
        let probe = bed.world.node::<Probe>(bed.probe);
        let (_, response, _) = probe.http_responses.last().unwrap();
        assert!(response.status.is_success());
        assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 1);
    }

    #[test]
    fn expired_objects_are_purged_on_window_tick() {
        let config = ApConfig {
            window: SimDuration::from_secs(30),
            ..ApConfig::default()
        };
        let mut bed = bed(config);
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(1),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(CacheOp {
                    ttl: SimDuration::from_secs(10),
                    priority: Priority::LOW,
                    app: ape_cachealg::AppId::new(0),
                }),
            },
        );
        settle(&mut bed.world);
        assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 1);
        bed.world.run_until(SimTime::from_secs(31));
        assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 0);
        assert!(bed.world.metrics().counter(names::AP_TTL_PURGES) >= 1);
    }

    #[test]
    fn resource_sampling_records_series() {
        let mut bed = bed(ApConfig::default());
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(1, &[url().hash()]));
        bed.world.run_until(SimTime::from_secs(5));
        let cpu = bed.world.metrics().time_series(names::AP_CPU).unwrap();
        assert!(cpu.len() >= 4);
        let mem = bed
            .world
            .metrics()
            .time_series(names::AP_APE_MEM_MB)
            .unwrap();
        assert!(
            mem.mean() > 3.9,
            "APE code overhead visible: {}",
            mem.mean()
        );
        assert!(mem.mean() < 15.0, "within the paper's 13MB envelope");
    }

    #[test]
    fn ape_memory_grows_with_cache_contents() {
        let mut bed = bed(ApConfig::default());
        let before = bed.world.node::<ApNode>(bed.ap).ape_memory_bytes();
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(1),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(delegation_op()),
            },
        );
        settle(&mut bed.world);
        let after = bed.world.node::<ApNode>(bed.ap).ape_memory_bytes();
        assert!(after > before + 40_000, "before {before} after {after}");
    }

    #[test]
    fn lru_policy_variant_works_end_to_end() {
        let config = ApConfig {
            policy: ApPolicy::Lru,
            ..ApConfig::default()
        };
        let mut bed = bed(config);
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(1),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(delegation_op()),
            },
        );
        settle(&mut bed.world);
        assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 1);
    }

    fn assert_drained(bed: &Bed) {
        for (map, n) in bed.world.node::<ApNode>(bed.ap).pending_counts() {
            assert_eq!(n, 0, "{map} leaked {n} entries");
        }
    }

    /// The roam-departure bugfix, pinned deterministically: a client with a
    /// DNS forward and a delegation both in flight roams away; the AP must
    /// cancel the forward, drop the client from the waiter list, count both
    /// distinctly from timeout reaps, and still finish + admit the fetch.
    #[test]
    fn roam_notice_cancels_pending_state_mid_flight() {
        let mut bed = bed(ApConfig::default());
        bed.world
            .post(bed.probe, bed.ap, Msg::TcpSyn { conn: ConnId(1) });
        settle(&mut bed.world);
        // A delegated fetch (probe becomes a waiter; resolving the domain
        // parks an *internal* forward that must survive the roam) plus a
        // plain client DNS query (a cancellable *client* forward).
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(9),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(delegation_op()),
            },
        );
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::dns(DnsMessage::query(
                5,
                DomainName::parse("other.dummy.example").unwrap(),
            )),
        );
        // Both upstream round trips take ≥ 28 ms; the notice lands ~1.5 ms
        // after this pause, squarely mid-flight.
        bed.world.run_for(SimDuration::from_millis(5));
        bed.world
            .post(bed.probe, bed.ap, Msg::RoamNotice { new_ap: bed.ap });
        bed.world.run_for(SimDuration::from_secs(8));

        let m = bed.world.metrics();
        assert_eq!(m.counter(names::AP_ROAM_DEPARTURES), 1);
        assert_eq!(
            m.counter(names::AP_ROAM_CANCELLED_FORWARDS),
            1,
            "the client's DNS forward is cancelled (the internal one is not)"
        );
        assert_eq!(
            m.counter(names::AP_ROAM_CANCELLED_WAITERS),
            1,
            "the departed waiter leaves the delegation list"
        );
        assert_eq!(
            m.counter(names::AP_DNS_UPSTREAM_GIVE_UPS),
            0,
            "cancellation is distinct from the reaper's timeout path"
        );
        let probe = bed.world.node::<Probe>(bed.probe);
        assert!(
            probe.http_responses.is_empty() && probe.dns_responses.is_empty(),
            "cancelled state produces no replies to the departed client"
        );
        // The delegation itself finished and was admitted for whoever stayed.
        assert_eq!(bed.world.node::<ApNode>(bed.ap).cached_objects(), 1);
        assert_drained(&bed);
    }

    #[test]
    fn dead_upstream_forward_is_retried_once_then_servfailed() {
        use ape_simnet::FaultPlan;
        let mut bed = bed(ApConfig::default());
        // Partition the AP from the LDNS for the whole run: the forwarded
        // query and its single retry both vanish.
        bed.world.set_fault_plan(FaultPlan::new().link_down(
            bed.ap,
            bed.ldns,
            SimTime::from_nanos(0),
            SimTime::from_secs(1_000),
        ));
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(1, &[url().hash()]));
        // 2 × DNS_UPSTREAM_TIMEOUT (2 s) plus reap-tick slack.
        bed.world.run_for(SimDuration::from_secs(6));
        let probe = bed.world.node::<Probe>(bed.probe);
        let resp = probe.dns_responses.last().expect("client got an answer");
        assert_eq!(resp.header.rcode, Rcode::ServFail);
        assert_eq!(
            bed.world.metrics().counter(names::AP_DNS_UPSTREAM_RETRIES),
            1
        );
        assert_eq!(
            bed.world.metrics().counter(names::AP_DNS_UPSTREAM_GIVE_UPS),
            1
        );
        assert_drained(&bed);
    }

    #[test]
    fn dead_edge_delegation_is_retried_once_then_gateway_timeout() {
        use ape_simnet::FaultPlan;
        let mut bed = bed(ApConfig::default());
        // Resolve first so the delegation dials the edge directly.
        bed.world
            .post(bed.probe, bed.ap, dns_cache_query(1, &[url().hash()]));
        settle(&mut bed.world);
        // Now partition the AP from the edge and delegate: the upstream
        // fetch and its retry both vanish.
        bed.world.set_fault_plan(FaultPlan::new().link_down(
            bed.ap,
            bed.edge,
            bed.world.now(),
            SimTime::from_secs(10_000),
        ));
        bed.world
            .post(bed.probe, bed.ap, Msg::TcpSyn { conn: ConnId(1) });
        settle(&mut bed.world);
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(7),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(delegation_op()),
            },
        );
        // 2 × DELEGATION_TIMEOUT (10 s) plus reap-tick slack.
        bed.world.run_for(SimDuration::from_secs(25));
        let probe = bed.world.node::<Probe>(bed.probe);
        let (req, response, _) = probe.http_responses.last().expect("waiter was answered");
        assert_eq!(*req, RequestId(7));
        assert!(!response.status.is_success(), "504, not a hang");
        assert_eq!(bed.world.metrics().counter(names::AP_DELEGATION_RETRIES), 1);
        assert_eq!(bed.world.metrics().counter(names::AP_DELEGATION_REAPS), 1);
        assert_drained(&bed);
    }

    #[test]
    fn dead_upstream_dns_fails_awaiting_delegations() {
        use ape_simnet::FaultPlan;
        let mut bed = bed(ApConfig::default());
        // Partition the AP from the LDNS before anything resolves, then
        // delegate: the fetch parks in awaiting_dns and must be failed by
        // the forward reaper, not leak forever.
        bed.world.set_fault_plan(FaultPlan::new().link_down(
            bed.ap,
            bed.ldns,
            SimTime::from_nanos(0),
            SimTime::from_secs(1_000),
        ));
        bed.world
            .post(bed.probe, bed.ap, Msg::TcpSyn { conn: ConnId(1) });
        settle(&mut bed.world);
        bed.world.post(
            bed.probe,
            bed.ap,
            Msg::HttpReq {
                conn: ConnId(1),
                req: RequestId(9),
                request: Box::new(HttpRequest::get(url())),
                cache_op: Some(delegation_op()),
            },
        );
        bed.world.run_for(SimDuration::from_secs(8));
        let probe = bed.world.node::<Probe>(bed.probe);
        let (req, response, _) = probe.http_responses.last().expect("waiter was answered");
        assert_eq!(*req, RequestId(9));
        assert!(!response.status.is_success());
        assert!(
            bed.world
                .metrics()
                .counter(names::AP_DELEGATION_DNS_FAILURES)
                >= 1
        );
        assert_drained(&bed);
    }
}
