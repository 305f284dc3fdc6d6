//! The client runtime: the paper's enhanced HTTP client library.
//!
//! Two modules from Fig. 5 live here. *Programming support* holds the
//! `Cacheable` registry (base URL → priority/TTL, mirroring the Java
//! annotations) and intercepts outgoing requests whose base URL matches.
//! *Cache lookup & fetching* implements the strategy-specific retrieval
//! workflows:
//!
//! * **APE-CACHE** — piggyback the AP cache lookup on the DNS query
//!   (DNS-Cache), then fetch from the AP (`Cache-Hit`), delegate to it
//!   (`Delegation`), or fall back to the edge (`Cache-Miss`);
//! * **Wi-Cache** — ask the remote controller who holds the object, then
//!   fetch from the AP or delegate through it on a miss;
//! * **Edge Cache** — resolve the CDN name through the local DNS and fetch
//!   from the edge server.
//!
//! The client also executes app DAGs: an execution starts at the roots,
//! each completed object releases its dependents, and app-level latency is
//! the time until the last object lands (the "composeUI" moment).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use ape_appdag::{AppSpec, ObjIdx};
use ape_cachealg::Priority;
use ape_dnswire::{CacheFlag, DnsMessage, DomainName, Rcode, UrlHash};
use ape_httpsim::{HttpRequest, HttpResponse, Url};
use ape_proto::{names, CacheOp, ConnId, IpMap, Msg, RequestId, SpanKind};
use ape_simnet::{Context, Node, NodeId, SimDuration, SimTime, SpanCtx, TimerToken};
use ape_workload::Execution;

use crate::txn::alloc_txn;

/// Which caching system the client runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// APE-CACHE (and APE-CACHE-LRU — the difference is the AP's policy).
    ApeCache,
    /// The Wi-Cache baseline: controller-mediated lookups.
    WiCache,
    /// The Edge Cache baseline: plain DNS + edge fetch.
    EdgeCache,
}

/// How APE-CACHE cache lookups are issued (Fig. 11b ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LookupMode {
    /// Piggybacked on the DNS query (the paper's design).
    #[default]
    Piggybacked,
    /// A separate cache query after a regular DNS query.
    Standalone,
}

/// Client-side processing per protocol step (Android runtime overhead).
const PROCESSING: SimDuration = SimDuration::from_micros(300);

/// DNS retry timeout.
const DNS_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// DNS retries before a fetch fails.
const DNS_RETRIES: u32 = 2;

/// Base timeout for the retrieval stage (controller lookup, TCP connect,
/// HTTP response); doubles per retry (exponential backoff).
const HTTP_TIMEOUT: SimDuration = SimDuration::from_secs(4);

/// Retrieval retries before a fetch fails.
const HTTP_RETRIES: u32 = 2;

/// Client configuration and wiring.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Retrieval strategy.
    pub strategy: Strategy,
    /// Lookup mode (APE-CACHE only).
    pub lookup_mode: LookupMode,
    /// Where DNS queries go: the AP for APE-CACHE (it *is* the resolver on
    /// real LANs), the LDNS for the Edge Cache baseline.
    pub dns_server: NodeId,
    /// The AP serving cache hits and delegations.
    pub ap: NodeId,
    /// The Wi-Cache controller (Wi-Cache strategy only).
    pub controller: Option<NodeId>,
    /// Address book for dialling resolved IPs.
    pub ip_map: IpMap,
    /// Extension (paper §VI): ship request-dependency information to the
    /// AP so it prefetches the objects this execution will need next.
    pub prefetch_hints: bool,
}

impl ClientConfig {
    /// Baseline config for `strategy`; callers fill in the wiring ids.
    pub fn new(strategy: Strategy, dns_server: NodeId, ap: NodeId, ip_map: IpMap) -> Self {
        ClientConfig {
            strategy,
            lookup_mode: LookupMode::Piggybacked,
            dns_server,
            ap,
            controller: None,
            ip_map,
            prefetch_hints: false,
        }
    }
}

/// What the registry knows about a cacheable object family — the runtime
/// image of one `@Cacheable` annotation.
#[derive(Debug, Clone, Copy)]
struct CacheableSpec {
    priority: Priority,
    ttl: SimDuration,
    app: ape_cachealg::AppId,
}

/// How a fetch will retrieve its object once the lookup resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchMode {
    ApHit,
    Delegation,
    Edge,
}

#[derive(Debug)]
enum Phase {
    /// Waiting on a DNS (or DNS-Cache) response for the domain.
    AwaitingDns,
    /// Waiting on the Wi-Cache controller.
    AwaitingController,
    /// TCP SYN sent.
    Connecting { target: NodeId, mode: FetchMode },
    /// Request sent on the established connection.
    Fetching { mode: FetchMode },
}

/// One in-flight object fetch.
#[derive(Debug)]
struct Fetch {
    exec: u64,
    obj: ObjIdx,
    app_idx: usize,
    url: Url,
    key: UrlHash,
    /// The registry entry for the URL's base id, resolved once at start.
    spec: CacheableSpec,
    started: SimTime,
    lookup_started: SimTime,
    /// Set when the lookup needed an actual network query.
    lookup_was_query: bool,
    retrieval_started: Option<SimTime>,
    phase: Phase,
    /// Retrieval attempts consumed (0 = first try); stale timers and
    /// responses from earlier attempts are recognized by mismatch.
    attempt: u32,
    /// The connection of the current attempt, so abandoning or finishing
    /// the fetch also drops its `conns` entry.
    conn: Option<ConnId>,
    /// Root span of this fetch's trace (tracing enabled + sampled only).
    root_span: Option<SpanCtx>,
    /// Open lookup-stage span; taken when the stage ends.
    lookup_span: Option<SpanCtx>,
    /// Open retrieval-stage span and its kind; taken when the fetch ends.
    retrieval_span: Option<(SpanCtx, SpanKind)>,
}

/// One running app execution.
#[derive(Debug)]
struct Exec {
    app_idx: usize,
    started: SimTime,
    remaining: usize,
    /// Outstanding dependency count per object (`usize::MAX` = cancelled).
    deps_left: Vec<usize>,
    variant: u32,
    failed: bool,
}

/// A DNS(-Cache) query in flight for a domain.
#[derive(Debug)]
struct PendingDns {
    txn: u16,
    waiting: Vec<RequestId>,
    retries: u32,
    /// Hashes included in the query (DNS-Cache mode).
    hashes: Vec<UrlHash>,
    /// Standalone second-stage query flag.
    cache_stage: bool,
}

/// Client-side outcome counters, exposed for harnesses and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Cacheable object fetches completed.
    pub requests: u64,
    /// Fetches served from the AP cache.
    pub hits: u64,
    /// High-priority fetches completed.
    pub high_requests: u64,
    /// High-priority fetches served from the AP cache.
    pub high_hits: u64,
    /// Fetches that failed (DNS give-up or upstream error).
    pub failures: u64,
    /// App executions completed.
    pub executions: u64,
}

impl ClientReport {
    /// Overall AP-cache hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// High-priority AP-cache hit ratio.
    pub fn high_priority_hit_ratio(&self) -> f64 {
        if self.high_requests == 0 {
            0.0
        } else {
            self.high_hits as f64 / self.high_requests as f64
        }
    }

    /// Adds another report's counters.
    pub fn merge(&mut self, other: &ClientReport) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.high_requests += other.high_requests;
        self.high_hits += other.high_hits;
        self.failures += other.failures;
        self.executions += other.executions;
    }
}

/// One stop on a client's roam schedule: at `at`, the client re-homes to
/// `ap` (its new DNS server and delegation target), notifying the old AP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoamStop {
    /// When the roam fires.
    pub at: SimTime,
    /// The AP the client associates with from then on.
    pub ap: NodeId,
}

/// Everything a client derives from the app suite alone — the DAGs'
/// reverse edges, the `Cacheable` registry and every fetch's identity —
/// built once per run and shared by all of its clients.
///
/// A fetch's identity is its concrete URL (the object's template with the
/// execution's `?v={variant}` query) and the registry entry of the URL's
/// base id. Variants are few (≤ 10), so all of them are formatted, hashed
/// and looked up here, once; starting a fetch clones a shared handle.
#[derive(Debug)]
pub struct ClientApps {
    apps: Vec<AppSpec>,
    /// Dependents per app per object (reverse edges of the DAG).
    children: Vec<Vec<Vec<ObjIdx>>>,
    /// Per app, `(url, spec)` of object `o` under variant `v` at
    /// `o * variants + v`.
    identities: Vec<Vec<(Url, CacheableSpec)>>,
    /// App id → index into `apps`.
    app_index: BTreeMap<u32, usize>,
}

impl ClientApps {
    /// Derives the shared tables from `apps`. When two apps annotate one
    /// base URL, the later app's annotation wins for both.
    pub fn new(apps: Vec<AppSpec>) -> Self {
        let mut registry = BTreeMap::new();
        let mut app_index = BTreeMap::new();
        let mut children = Vec::with_capacity(apps.len());
        for (i, app) in apps.iter().enumerate() {
            app_index.insert(app.id().get(), i);
            let dag = app.dag();
            let mut kids = vec![Vec::new(); dag.len()];
            for (idx, obj) in dag.iter() {
                for dep in dag.deps(idx) {
                    kids[dep.get()].push(idx);
                }
                registry.insert(
                    obj.url.base_id(),
                    CacheableSpec {
                        priority: obj.priority,
                        ttl: obj.ttl,
                        app: app.id(),
                    },
                );
            }
            children.push(kids);
        }
        let identities = apps
            .iter()
            .map(|app| {
                app.dag()
                    .iter()
                    .flat_map(|(_, obj)| {
                        (0..app.variants()).map(|v| obj.url.with_query(format_args!("v={v}")))
                    })
                    .map(|url| {
                        let spec = registry[url.base_id()];
                        (url, spec)
                    })
                    .collect()
            })
            .collect();
        ClientApps {
            apps,
            children,
            identities,
            app_index,
        }
    }

    /// The URL and registry entry of object `obj` of app `app_idx` in an
    /// execution that drew `variant`.
    fn identity(&self, app_idx: usize, obj: ObjIdx, variant: u32) -> &(Url, CacheableSpec) {
        let variants = self.apps[app_idx].variants() as usize;
        &self.identities[app_idx][obj.get() * variants + variant as usize]
    }
}

/// The client node.
#[derive(Debug)]
pub struct ClientNode {
    config: ClientConfig,
    apps: Arc<ClientApps>,
    schedule: Vec<Execution>,
    /// Roam stops, installed at build time (empty for non-roaming clients,
    /// which then schedule no roam timers at all).
    roam_schedule: Vec<RoamStop>,
    dns_cache: BTreeMap<DomainName, (Ipv4Addr, SimTime)>,
    /// No `dns_cache` entry expires before this instant.
    dns_expiry_floor: SimTime,
    /// Per-domain cached flags and their validity horizon.
    flags: BTreeMap<DomainName, (BTreeMap<UrlHash, CacheFlag>, SimTime)>,
    pending_dns: BTreeMap<DomainName, PendingDns>,
    txn_domains: BTreeMap<u16, DomainName>,
    fetches: BTreeMap<RequestId, Fetch>,
    conns: BTreeMap<ConnId, RequestId>,
    execs: BTreeMap<u64, Exec>,
    report: ClientReport,
    next_txn: u16,
    next_req: u64,
    next_conn: u64,
    next_exec: u64,
}

/// Timer-token namespaces. Tokens below `1 << 32` are execution-schedule
/// indices and tokens `TOKEN_ROAM_BASE + i` roam-schedule indices: both
/// are timer series armed once in `on_start` (`Context::schedule_series`
/// numbers element `i` from the base), so the queue holds only each
/// schedule's next instant. Bit 32 marks DNS retransmit timers (txn id in
/// the low 16 bits); bit 33 marks HTTP/retrieval timers (request id in the
/// low 32 bits, attempt number in bits 40+).
const TOKEN_DNS_BASE: u64 = 1 << 32;
const TOKEN_HTTP_BASE: u64 = 1 << 33;
const TOKEN_ROAM_BASE: u64 = 1 << 34;
const HTTP_ATTEMPT_SHIFT: u32 = 40;

/// Phase-staggers a watchdog delay so timers armed by the same handler
/// never share a nanosecond. Fetches launched together share `now`; if
/// their watchdogs tied, tie-break order would decide which retransmission
/// draws link jitter from the world's shared RNG stream first, breaking
/// tie-perturbation invariance under loss. 61 ns per id keeps the skew
/// under 4 ms — noise against the multi-second timeouts it offsets.
fn staggered(base: SimDuration, id: u64) -> SimDuration {
    let skew_ns = (id & 0xFFFF) * 61;
    base + SimDuration::from_nanos(skew_ns)
}

fn http_token(req: RequestId, attempt: u32) -> TimerToken {
    TimerToken::new(
        TOKEN_HTTP_BASE | ((attempt as u64) << HTTP_ATTEMPT_SHIFT) | (req.0 & 0xFFFF_FFFF),
    )
}

impl ClientNode {
    /// Creates a client running `apps` on the time-sorted `schedule`
    /// (entries refer to apps by [`AppId`](ape_cachealg::AppId); entries
    /// for unknown apps are ignored).
    pub fn new(config: ClientConfig, apps: Arc<ClientApps>, schedule: Vec<Execution>) -> Self {
        ClientNode {
            config,
            apps,
            schedule,
            roam_schedule: Vec::new(),
            dns_cache: BTreeMap::new(),
            dns_expiry_floor: SimTime::MAX,
            flags: BTreeMap::new(),
            pending_dns: BTreeMap::new(),
            txn_domains: BTreeMap::new(),
            fetches: BTreeMap::new(),
            conns: BTreeMap::new(),
            execs: BTreeMap::new(),
            report: ClientReport::default(),
            next_txn: 1,
            next_req: 1,
            next_conn: 1,
            next_exec: 1,
        }
    }

    /// Installs a time-sorted roam schedule (multi-AP topologies; each stop
    /// re-homes the client to a neighbor AP at the given instant). Like the
    /// execution schedule, it is armed at start as one timer series, so
    /// only the next stop is ever in the event queue.
    pub fn with_roam_schedule(mut self, roam_schedule: Vec<RoamStop>) -> Self {
        self.roam_schedule = roam_schedule;
        self
    }

    /// The outcome counters.
    pub fn report(&self) -> ClientReport {
        self.report
    }

    /// Kicks off one execution of app `app_idx` immediately (tests and
    /// micro-benches; scheduled runs use the construction-time schedule).
    pub fn trigger_execution(&mut self, ctx: &mut Context<'_, Msg>, app_idx: usize) {
        let dag = self.apps.apps[app_idx].dag();
        let exec_id = self.next_exec;
        self.next_exec += 1;
        let variants = self.apps.apps[app_idx].variants();
        let variant = if variants <= 1 {
            0
        } else {
            ctx.rng().uniform_u64(0, variants as u64 - 1) as u32
        };
        let deps_left: Vec<usize> = dag.iter().map(|(idx, _)| dag.deps(idx).len()).collect();
        let roots = dag.roots();
        let len = dag.len();
        self.execs.insert(
            exec_id,
            Exec {
                app_idx,
                started: ctx.now(),
                remaining: len,
                deps_left,
                variant,
                failed: false,
            },
        );
        if len == 0 {
            self.finish_exec(ctx, exec_id);
            return;
        }
        for root in roots {
            self.start_fetch(ctx, exec_id, root);
        }
    }

    fn finish_exec(&mut self, ctx: &mut Context<'_, Msg>, exec_id: u64) {
        let Some(exec) = self.execs.remove(&exec_id) else {
            return;
        };
        self.report.executions += 1;
        let latency = (ctx.now() - exec.started).as_millis_f64();
        ctx.metrics()
            .observe_id(names::id::CLIENT_APP_LATENCY_MS, latency);
        ctx.metrics().observe_under(
            names::id::CLIENT_APP_LATENCY_MS_PREFIX,
            self.apps.apps[exec.app_idx].name(),
            latency,
        );
        if exec.failed {
            ctx.metrics()
                .incr_id(names::id::CLIENT_FAILED_EXECUTIONS, 1);
        }
    }

    // ------------------------------------------------------------------
    // Fetch lifecycle
    // ------------------------------------------------------------------

    fn start_fetch(&mut self, ctx: &mut Context<'_, Msg>, exec_id: u64, obj: ObjIdx) {
        let exec = &self.execs[&exec_id];
        let app_idx = exec.app_idx;
        let variant = exec.variant;
        let (url, spec) = self.apps.identity(app_idx, obj, variant).clone();
        let key = url.hash();
        let req = RequestId(self.next_req);
        self.next_req += 1;
        let now = ctx.now();
        // Every fetch is a trace root; the messages sent below inherit the
        // root context, so downstream nodes land their spans in this trace.
        let root_span = ctx.begin_trace(SpanKind::Fetch);
        let lookup_span = ctx.span_start(SpanKind::Lookup);
        let fetch = Fetch {
            exec: exec_id,
            obj,
            app_idx,
            url,
            key,
            spec,
            started: now,
            lookup_started: now,
            lookup_was_query: false,
            retrieval_started: None,
            phase: Phase::AwaitingDns,
            attempt: 0,
            conn: None,
            root_span,
            lookup_span,
            retrieval_span: None,
        };
        self.fetches.insert(req, fetch);
        ctx.metrics().incr_id(names::id::CLIENT_FETCHES, 1);

        match self.config.strategy {
            Strategy::ApeCache => self.lookup_ape(ctx, req),
            Strategy::EdgeCache => self.lookup_edge(ctx, req),
            Strategy::WiCache => self.lookup_wicache(ctx, req),
        }
    }

    /// APE-CACHE lookup: use fresh local flags, else join/send a DNS-Cache
    /// query to the AP.
    fn lookup_ape(&mut self, ctx: &mut Context<'_, Msg>, req: RequestId) {
        let now = ctx.now();
        let (domain, key) = {
            let f = &self.fetches[&req];
            (f.url.host().clone(), f.key)
        };
        if let Some((table, valid_until)) = self.flags.get(&domain) {
            if *valid_until > now {
                let flag = table.get(&key).copied().unwrap_or(CacheFlag::Delegation);
                let ip = self.fresh_dns_ip(&domain, now);
                self.act_on_flag(ctx, req, flag, ip);
                return;
            }
        }
        self.join_or_send_dns(ctx, req, domain, true);
    }

    /// Edge Cache lookup: plain DNS against the configured resolver.
    /// Resolved addresses are not reused here — APE-CACHE needs that
    /// (flags ride on the DNS entries), but the baseline follows the
    /// paper's Fig. 1 workflow, where every object access initiates its
    /// own DNS resolution.
    fn lookup_edge(&mut self, ctx: &mut Context<'_, Msg>, req: RequestId) {
        let domain = self.fetches[&req].url.host().clone();
        self.join_or_send_dns(ctx, req, domain, false);
    }

    /// Wi-Cache lookup: ask the controller.
    fn lookup_wicache(&mut self, ctx: &mut Context<'_, Msg>, req: RequestId) {
        let Some(controller) = self.config.controller else {
            self.fail_fetch(ctx, req);
            return;
        };
        let key = self.fetches[&req].key;
        if let Some(f) = self.fetches.get_mut(&req) {
            f.lookup_was_query = true;
            f.phase = Phase::AwaitingController;
        }
        ctx.metrics().incr_id(names::id::CLIENT_WICACHE_LOOKUPS, 1);
        ctx.send_after(
            PROCESSING,
            controller,
            Msg::WiCacheLookup { req, url_hash: key },
        );
        self.arm_http_timer(ctx, req);
    }

    /// Arms the retrieval watchdog for the fetch's current attempt with
    /// exponential backoff. Every non-DNS phase is covered by one of these
    /// timers, so a lost response can never strand the fetch.
    fn arm_http_timer(&mut self, ctx: &mut Context<'_, Msg>, req: RequestId) {
        let Some(fetch) = self.fetches.get(&req) else {
            return;
        };
        let backoff = HTTP_TIMEOUT * (1u64 << fetch.attempt.min(16));
        ctx.schedule(staggered(backoff, req.0), http_token(req, fetch.attempt));
    }

    /// Allocates a DNS transaction id not live in `txn_domains`.
    fn alloc_txn(&mut self) -> u16 {
        let live = &self.txn_domains;
        alloc_txn(&mut self.next_txn, live.len(), |txn| {
            live.contains_key(&txn)
        })
    }

    fn fresh_dns_ip(&self, domain: &DomainName, now: SimTime) -> Option<Ipv4Addr> {
        match self.dns_cache.get(domain) {
            Some((ip, expires)) if *expires > now => Some(*ip),
            _ => None,
        }
    }

    fn join_or_send_dns(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        req: RequestId,
        domain: DomainName,
        dns_cache_query: bool,
    ) {
        if let Some(f) = self.fetches.get_mut(&req) {
            f.lookup_was_query = true;
            f.phase = Phase::AwaitingDns;
        }
        if let Some(pending) = self.pending_dns.get_mut(&domain) {
            pending.waiting.push(req);
            return;
        }
        let txn = self.alloc_txn();
        let hashes = if dns_cache_query && self.config.lookup_mode == LookupMode::Piggybacked {
            vec![self.fetches[&req].key]
        } else {
            Vec::new()
        };
        let query = if hashes.is_empty() {
            DnsMessage::query(txn, domain.clone())
        } else {
            DnsMessage::dns_cache_request(txn, domain.clone(), &hashes)
        };
        self.pending_dns.insert(
            domain.clone(),
            PendingDns {
                txn,
                waiting: vec![req],
                retries: 0,
                hashes,
                cache_stage: false,
            },
        );
        self.txn_domains.insert(txn, domain);
        ctx.metrics().incr_id(names::id::CLIENT_DNS_QUERIES, 1);
        ctx.send_after(PROCESSING, self.config.dns_server, Msg::dns(query));
        ctx.schedule(
            staggered(DNS_TIMEOUT, txn as u64),
            TimerToken::new(TOKEN_DNS_BASE | txn as u64),
        );
    }

    /// Applies a resolved cache flag: dial the AP (hit/delegation) or the
    /// edge (miss).
    fn act_on_flag(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        req: RequestId,
        flag: CacheFlag,
        ip: Option<Ipv4Addr>,
    ) {
        let now = ctx.now();
        let Some(fetch) = self.fetches.get(&req) else {
            return;
        };
        // Wi-Cache fetches armed their watchdog at lookup time; it spans
        // the whole attempt, so arming another here would double-fire.
        let watchdog_armed = matches!(fetch.phase, Phase::AwaitingController);
        // One DNS answer can resolve several waiting fetches; re-anchor the
        // trace context to this fetch so its sends land in its own trace.
        ctx.set_span_ctx(fetch.root_span);
        // Lookup-stage latency counts once per fetch; retry passes would
        // re-observe it inflated by the timeout that triggered them.
        if fetch.attempt == 0 {
            if fetch.lookup_was_query {
                let lookup_ms = (now - fetch.lookup_started).as_millis_f64();
                ctx.metrics()
                    .observe_id(names::id::CLIENT_LOOKUP_QUERY_MS, lookup_ms);
            }
            ctx.metrics().observe_id(
                names::id::CLIENT_LOOKUP_OP_MS,
                (now - fetch.lookup_started).as_millis_f64(),
            );
        }
        let mode = match flag {
            CacheFlag::Hit => FetchMode::ApHit,
            CacheFlag::Delegation | CacheFlag::Query => FetchMode::Delegation,
            CacheFlag::Miss => FetchMode::Edge,
        };
        let target = match mode {
            FetchMode::ApHit | FetchMode::Delegation => self.config.ap,
            FetchMode::Edge => {
                let Some(node) = ip.and_then(|ip| self.config.ip_map.node_of(ip)) else {
                    self.fail_fetch(ctx, req);
                    return;
                };
                node
            }
        };
        let conn = ConnId(self.next_conn);
        self.next_conn += 1;
        let fetch = self.fetches.get_mut(&req).expect("checked above");
        fetch.retrieval_started = Some(now);
        fetch.phase = Phase::Connecting { target, mode };
        fetch.conn = Some(conn);
        let lookup_span = fetch.lookup_span.take();
        self.conns.insert(conn, req);
        if let Some(span) = lookup_span {
            ctx.span_end(span, SpanKind::Lookup);
        }
        let retrieval_kind = match mode {
            FetchMode::ApHit => SpanKind::RetrievalHit,
            FetchMode::Delegation => SpanKind::RetrievalDelegation,
            FetchMode::Edge => SpanKind::RetrievalEdge,
        };
        let retrieval_span = ctx.span_start(retrieval_kind);
        self.fetches
            .get_mut(&req)
            .expect("checked above")
            .retrieval_span = retrieval_span.map(|s| (s, retrieval_kind));
        ctx.send_after(PROCESSING, target, Msg::TcpSyn { conn });
        if !watchdog_armed {
            self.arm_http_timer(ctx, req);
        }
        if self.config.prefetch_hints && target == self.config.ap {
            self.send_prefetch_hints(ctx, req);
        }
    }

    /// Extension (paper §VI): tell the AP which objects this execution
    /// will request once the current fetch completes — its DAG dependents.
    fn send_prefetch_hints(&mut self, ctx: &mut Context<'_, Msg>, req: RequestId) {
        let Some(fetch) = self.fetches.get(&req) else {
            return;
        };
        let Some(exec) = self.execs.get(&fetch.exec) else {
            return;
        };
        let children = &self.apps.children[fetch.app_idx][fetch.obj.get()];
        let hints: Vec<ape_proto::PrefetchHint> = children
            .iter()
            .take(4)
            .map(|&child| {
                let (url, cacheable) = self.apps.identity(fetch.app_idx, child, exec.variant);
                ape_proto::PrefetchHint {
                    url: url.clone(),
                    op: CacheOp {
                        ttl: cacheable.ttl,
                        priority: cacheable.priority,
                        app: cacheable.app,
                    },
                }
            })
            .collect();
        if !hints.is_empty() {
            ctx.metrics()
                .incr_id(names::id::CLIENT_PREFETCH_HINTS, hints.len() as u64);
            ctx.send_after(PROCESSING, self.config.ap, Msg::PrefetchHints { hints });
        }
    }

    fn fail_fetch(&mut self, ctx: &mut Context<'_, Msg>, req: RequestId) {
        let Some(fetch) = self.fetches.remove(&req) else {
            return;
        };
        if let Some(conn) = fetch.conn {
            self.conns.remove(&conn);
        }
        self.report.failures += 1;
        ctx.metrics().incr_id(names::id::CLIENT_FETCH_FAILURES, 1);
        if let Some(span) = fetch.lookup_span {
            ctx.span_end(span, SpanKind::Lookup);
        }
        if let Some((span, kind)) = fetch.retrieval_span {
            ctx.span_end(span, kind);
        }
        if let Some(root) = fetch.root_span {
            ctx.span_end(root, SpanKind::Fetch);
        }
        if self.execs.contains_key(&fetch.exec) {
            {
                let exec = self.execs.get_mut(&fetch.exec).expect("checked");
                exec.failed = true;
                exec.remaining -= 1;
            }
            // Dependents can never run; cancel them so the execution ends.
            let mut cancelled = vec![fetch.obj];
            while let Some(obj) = cancelled.pop() {
                for &child in &self.apps.children[fetch.app_idx][obj.get()] {
                    let exec = self.execs.get_mut(&fetch.exec).expect("checked");
                    if exec.deps_left[child.get()] == usize::MAX {
                        continue;
                    }
                    exec.deps_left[child.get()] = usize::MAX;
                    exec.remaining -= 1;
                    cancelled.push(child);
                }
            }
            if self.execs[&fetch.exec].remaining == 0 {
                self.finish_exec(ctx, fetch.exec);
            }
        }
    }

    fn complete_fetch(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        req: RequestId,
        response: HttpResponse,
        from_cache: bool,
    ) {
        let now = ctx.now();
        if !response.status.is_success() {
            self.fail_fetch(ctx, req);
            return;
        }
        let Some(fetch) = self.fetches.remove(&req) else {
            return;
        };
        // A response from an abandoned attempt can land while the current
        // attempt is mid-retry; drop whichever conn the fetch now owns so
        // the connection table drains either way.
        if let Some(conn) = fetch.conn {
            self.conns.remove(&conn);
        }
        let mode = match &fetch.phase {
            Phase::Fetching { mode } | Phase::Connecting { mode, .. } => *mode,
            _ => FetchMode::Edge,
        };
        if let Some((span, kind)) = fetch.retrieval_span {
            ctx.span_end(span, kind);
        }
        if let Some(root) = fetch.root_span {
            ctx.span_end(root, SpanKind::Fetch);
        }
        let spec = fetch.spec;
        self.report.requests += 1;
        if spec.priority.is_high() {
            self.report.high_requests += 1;
        }
        let served_by_ap_cache = from_cache && mode != FetchMode::Edge;
        if served_by_ap_cache {
            self.report.hits += 1;
            if spec.priority.is_high() {
                self.report.high_hits += 1;
            }
            ctx.metrics().incr_id(names::id::CLIENT_CACHE_HITS, 1);
        }
        if let Some(retrieval_started) = fetch.retrieval_started {
            let retrieval_ms = (now - retrieval_started).as_millis_f64();
            match mode {
                FetchMode::ApHit => ctx
                    .metrics()
                    .observe_id(names::id::CLIENT_RETRIEVAL_HIT_MS, retrieval_ms),
                FetchMode::Delegation => ctx
                    .metrics()
                    .observe_id(names::id::CLIENT_RETRIEVAL_DELEGATION_MS, retrieval_ms),
                FetchMode::Edge => ctx
                    .metrics()
                    .observe_id(names::id::CLIENT_RETRIEVAL_EDGE_MS, retrieval_ms),
            }
            ctx.metrics()
                .observe_id(names::id::CLIENT_RETRIEVAL_MS, retrieval_ms);
        }
        ctx.metrics().observe_id(
            names::id::CLIENT_OBJECT_TOTAL_MS,
            (now - fetch.started).as_millis_f64(),
        );

        // Release dependents.
        let exec_id = fetch.exec;
        if self.execs.contains_key(&exec_id) {
            let mut ready = Vec::new();
            {
                let exec = self.execs.get_mut(&exec_id).expect("checked");
                exec.remaining -= 1;
                for &child in &self.apps.children[fetch.app_idx][fetch.obj.get()] {
                    if exec.deps_left[child.get()] == usize::MAX {
                        continue;
                    }
                    exec.deps_left[child.get()] -= 1;
                    if exec.deps_left[child.get()] == 0 {
                        ready.push(child);
                    }
                }
            }
            for child in ready {
                self.start_fetch(ctx, exec_id, child);
            }
            if self.execs[&exec_id].remaining == 0 {
                self.finish_exec(ctx, exec_id);
            }
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn handle_dns_response(&mut self, ctx: &mut Context<'_, Msg>, response: DnsMessage) {
        let txn = response.header.id;
        let Some(domain) = self.txn_domains.remove(&txn) else {
            return;
        };
        let Some(mut pending) = self.pending_dns.remove(&domain) else {
            return;
        };
        if pending.txn != txn {
            // Stale retry answer; put the live query back.
            self.txn_domains.insert(pending.txn, domain.clone());
            self.pending_dns.insert(domain, pending);
            return;
        }
        let now = ctx.now();

        let answer = response
            .answer_ip()
            .map(|ip| (ip, response.answers.first().map(|a| a.ttl).unwrap_or(0)));
        let mut flag_horizon = now;
        if let Some((ip, ttl)) = answer {
            if !IpMap::is_dummy(ip) {
                // Clamp like the AP does (ap.rs answers use `.max(1)`): a
                // TTL-0 record would be cached with expiry == now, never
                // consulted, and never purged.
                let expires = now + SimDuration::from_secs(ttl.max(1) as u64);
                self.dns_cache.insert(domain.clone(), (ip, expires));
                self.dns_expiry_floor = self.dns_expiry_floor.min(expires);
            }
            // Dummy-IP (TTL 0) answers deliberately collapse the flag
            // horizon to `now`: the flags serve only the waiting fetches.
            flag_horizon = now + SimDuration::from_secs(ttl as u64);
        }
        // Opportunistic purge: without it, long runs grow the map by one
        // dead entry per domain whose records expired. `dns_expiry_floor`
        // is a lower bound on every entry's expiry, so while it is ahead of
        // the clock nothing can have expired and the scan is skipped.
        if self.dns_expiry_floor <= now {
            let mut floor = SimTime::MAX;
            self.dns_cache.retain(|_, (_, expires)| {
                let live = *expires > now;
                if live {
                    floor = floor.min(*expires);
                }
                live
            });
            self.dns_expiry_floor = floor;
        }

        // Standalone mode: plain stage answered → issue the cache query.
        if self.config.strategy == Strategy::ApeCache
            && self.config.lookup_mode == LookupMode::Standalone
            && !pending.cache_stage
            && response.cache_response_tuples().is_empty()
        {
            let txn2 = self.alloc_txn();
            let hashes: Vec<UrlHash> = pending
                .waiting
                .iter()
                .filter_map(|r| self.fetches.get(r).map(|f| f.key))
                .collect();
            let query = DnsMessage::dns_cache_request(txn2, domain.clone(), &hashes);
            pending.txn = txn2;
            pending.cache_stage = true;
            pending.hashes = hashes;
            self.txn_domains.insert(txn2, domain.clone());
            self.pending_dns.insert(domain, pending);
            ctx.metrics().incr_id(names::id::CLIENT_DNS_QUERIES, 1);
            ctx.send_after(PROCESSING, self.config.dns_server, Msg::dns(query));
            ctx.schedule(
                staggered(DNS_TIMEOUT, txn2 as u64),
                TimerToken::new(TOKEN_DNS_BASE | txn2 as u64),
            );
            return;
        }

        // Record flags (DNS-Cache responses carry them; plain ones do not).
        let tuples = response.cache_response_tuples();
        if !tuples.is_empty() {
            let table = tuples
                .iter()
                .map(|t| (t.url_hash, t.flag))
                .collect::<BTreeMap<_, _>>();
            // Dummy-IP (TTL 0) responses: flags serve the waiting fetches
            // only; the horizon collapses to `now`.
            self.flags.insert(domain.clone(), (table, flag_horizon));
        }

        if response.header.rcode != Rcode::NoError {
            for req in pending.waiting {
                self.fail_fetch(ctx, req);
            }
            return;
        }
        let ip = answer.map(|(ip, _)| ip).filter(|ip| !IpMap::is_dummy(*ip));
        // Resolve every waiter's flag before acting on any: acting needs
        // `&mut self`, and nothing it does touches `flags` or a fetch's key.
        let flag_table = self.flags.get(&domain).map(|(table, _)| table);
        let resolved: Vec<(RequestId, CacheFlag)> = pending
            .waiting
            .iter()
            .map(|&req| {
                let flag = match self.config.strategy {
                    Strategy::ApeCache => self
                        .fetches
                        .get(&req)
                        .and_then(|f| flag_table?.get(&f.key).copied())
                        .unwrap_or(CacheFlag::Delegation),
                    _ => CacheFlag::Miss,
                };
                (req, flag)
            })
            .collect();
        for (req, flag) in resolved {
            self.act_on_flag(ctx, req, flag, ip);
        }
    }

    fn handle_dns_timeout(&mut self, ctx: &mut Context<'_, Msg>, txn: u16) {
        let Some(domain) = self.txn_domains.get(&txn).cloned() else {
            return; // Answered already.
        };
        let Some(pending) = self.pending_dns.get_mut(&domain) else {
            return;
        };
        if pending.txn != txn {
            return;
        }
        if pending.retries >= DNS_RETRIES {
            let pending = self.pending_dns.remove(&domain).expect("present above");
            self.txn_domains.remove(&txn);
            ctx.metrics().incr_id(names::id::CLIENT_DNS_GIVE_UPS, 1);
            for req in pending.waiting {
                self.fail_fetch(ctx, req);
            }
            return;
        }
        pending.retries += 1;
        ctx.metrics().incr_id(names::id::CLIENT_DNS_RETRIES, 1);
        let query = if pending.hashes.is_empty() {
            DnsMessage::query(txn, domain.clone())
        } else {
            DnsMessage::dns_cache_request(txn, domain.clone(), &pending.hashes)
        };
        ctx.send_after(PROCESSING, self.config.dns_server, Msg::dns(query));
        ctx.schedule(
            staggered(DNS_TIMEOUT, txn as u64),
            TimerToken::new(TOKEN_DNS_BASE | txn as u64),
        );
    }

    /// The retrieval watchdog fired: if the attempt it guarded is still
    /// in flight, abandon it and retry the whole lookup (backoff doubles),
    /// or fail the fetch once the retry budget is spent.
    fn handle_http_timeout(&mut self, ctx: &mut Context<'_, Msg>, req: RequestId, attempt: u32) {
        let Some(fetch) = self.fetches.get(&req) else {
            return; // Completed or failed already.
        };
        if fetch.attempt != attempt {
            return; // A newer attempt owns the fetch now.
        }
        if matches!(fetch.phase, Phase::AwaitingDns) {
            // The DNS retry machinery owns this phase; its give-up path
            // fails the fetch, so a second watchdog would double-fail.
            return;
        }
        ctx.set_span_ctx(fetch.root_span);
        if fetch.attempt >= HTTP_RETRIES {
            ctx.metrics().incr_id(names::id::CLIENT_HTTP_GIVE_UPS, 1);
            self.fail_fetch(ctx, req);
            return;
        }
        let fetch = self.fetches.get_mut(&req).expect("checked above");
        fetch.attempt += 1;
        fetch.retrieval_started = None;
        if let Some(conn) = fetch.conn.take() {
            self.conns.remove(&conn);
        }
        if let Some((span, kind)) = fetch.retrieval_span.take() {
            ctx.span_end(span, kind);
        }
        ctx.metrics().incr_id(names::id::CLIENT_HTTP_RETRIES, 1);
        match self.config.strategy {
            Strategy::ApeCache => self.lookup_ape(ctx, req),
            Strategy::EdgeCache => self.lookup_edge(ctx, req),
            Strategy::WiCache => self.lookup_wicache(ctx, req),
        }
    }

    /// Sizes of every pending-state map, labelled, for drain assertions in
    /// tests and the fault harness. All zeros once a run has fully drained.
    pub fn pending_counts(&self) -> [(&'static str, usize); 5] {
        [
            ("pending_dns", self.pending_dns.len()),
            ("txn_domains", self.txn_domains.len()),
            ("fetches", self.fetches.len()),
            ("conns", self.conns.len()),
            ("execs", self.execs.len()),
        ]
    }

    fn handle_wicache_result(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        req: RequestId,
        holder: Option<Ipv4Addr>,
    ) {
        // Only act while the fetch is actually waiting on the controller:
        // with retries, a duplicate result for an abandoned lookup could
        // otherwise open a second connection for the same fetch.
        let Some(fetch) = self.fetches.get(&req) else {
            return;
        };
        if !matches!(fetch.phase, Phase::AwaitingController) {
            return;
        }
        // Holder is our own AP → fetch from it directly. Holder elsewhere
        // (multi-AP fleet) or unknown → delegate through the home AP — it
        // peer-fetches from the holder or fills from the edge, so the
        // Wi-Cache fleet's cache fills either way, mirroring the paper's
        // adaptation of Wi-Cache to small cacheable objects.
        let flag = match holder {
            Some(ip) if self.config.ip_map.node_of(ip) == Some(self.config.ap) => CacheFlag::Hit,
            Some(_) | None => CacheFlag::Delegation,
        };
        self.act_on_flag(ctx, req, flag, None);
    }

    /// Executes roam stop `idx`: notify the old AP (it cancels this
    /// client's pending relays and hands a cache summary to the new home),
    /// then re-home DNS and delegation traffic. Cached cache-flags describe
    /// the old AP's cache and are dropped; resolved DNS records are
    /// AP-independent and survive. In-flight fetches settle through their
    /// normal watchdogs — a cancelled waiter simply times out and retries
    /// against the new home.
    fn execute_roam(&mut self, ctx: &mut Context<'_, Msg>, idx: usize) {
        let Some(&stop) = self.roam_schedule.get(idx) else {
            return;
        };
        let old_ap = self.config.ap;
        if stop.ap == old_ap {
            return;
        }
        ctx.metrics().incr_id(names::id::CLIENT_ROAMS, 1);
        ctx.set_span_ctx(None);
        ctx.send(old_ap, Msg::RoamNotice { new_ap: stop.ap });
        if self.config.dns_server == old_ap {
            self.config.dns_server = stop.ap;
        }
        self.config.ap = stop.ap;
        self.flags.clear();
    }
}

impl Node<Msg> for ClientNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.schedule_series(self.schedule.iter().map(|exec| exec.at), TimerToken::new(0));
        ctx.schedule_series(
            self.roam_schedule.iter().map(|stop| stop.at),
            TimerToken::new(TOKEN_ROAM_BASE),
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::Dns(dns) if dns.header.response => self.handle_dns_response(ctx, *dns),
            Msg::Dns(_) => {}
            Msg::TcpSynAck { conn } => {
                let Some(&req) = self.conns.get(&conn) else {
                    return;
                };
                let Some(fetch) = self.fetches.get_mut(&req) else {
                    return;
                };
                let Phase::Connecting { target, mode } = fetch.phase else {
                    return;
                };
                fetch.phase = Phase::Fetching { mode };
                let cache_op = (mode == FetchMode::Delegation).then_some(CacheOp {
                    ttl: fetch.spec.ttl,
                    priority: fetch.spec.priority,
                    app: fetch.spec.app,
                });
                let request = HttpRequest::get(fetch.url.clone());
                ctx.send_after(
                    PROCESSING,
                    target,
                    Msg::http_req(conn, req, request, cache_op),
                );
            }
            Msg::HttpRsp {
                conn,
                req,
                response,
                from_cache,
            } => {
                self.conns.remove(&conn);
                self.complete_fetch(ctx, req, response, from_cache);
            }
            Msg::WiCacheResult { req, holder } => self.handle_wicache_result(ctx, req, holder),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: TimerToken) {
        let raw = token.get();
        if raw & TOKEN_HTTP_BASE != 0 {
            self.handle_http_timeout(
                ctx,
                RequestId(raw & 0xFFFF_FFFF),
                ((raw >> HTTP_ATTEMPT_SHIFT) & 0xFF) as u32,
            );
            return;
        }
        if raw & TOKEN_ROAM_BASE != 0 {
            self.execute_roam(ctx, (raw & 0xFFFF_FFFF) as usize);
            return;
        }
        if raw & TOKEN_DNS_BASE != 0 {
            self.handle_dns_timeout(ctx, (raw & 0xFFFF) as u16);
            return;
        }
        let idx = raw as usize;
        if idx < self.schedule.len() {
            let app_id = self.schedule[idx].app;
            if let Some(&app_idx) = self.apps.app_index.get(&app_id.get()) {
                self.trigger_execution(ctx, app_idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_appdag::{movie_trailer, AppId};

    fn client(strategy: Strategy) -> ClientNode {
        ClientNode::new(
            ClientConfig::new(
                strategy,
                NodeId::from_raw(0),
                NodeId::from_raw(0),
                IpMap::new(),
            ),
            Arc::new(ClientApps::new(vec![movie_trailer(AppId::new(1))])),
            Vec::new(),
        )
    }

    #[test]
    fn registry_is_built_from_annotations() {
        let c = client(Strategy::ApeCache);
        let app = &c.apps.apps[0];
        assert_eq!(c.apps.identities[0].len(), 5 * app.variants() as usize);
        for (idx, obj) in app.dag().iter() {
            for variant in 0..app.variants() {
                let (url, spec) = c.apps.identity(0, idx, variant);
                // What `start_fetch` used to build on every fetch.
                let formatted = obj.url.with_query(format_args!("v={variant}"));
                assert_eq!(url, &formatted);
                assert_eq!(url.hash(), UrlHash::of(&formatted.to_string()));
                assert_eq!((spec.priority, spec.ttl), (obj.priority, obj.ttl));
                assert_eq!(spec.app, app.id());
            }
        }
        let thumb = app
            .dag()
            .iter()
            .find(|(_, obj)| obj.url.base_id() == "http://api.movietrailer.example/thumbnail")
            .map(|(idx, _)| c.apps.identity(0, idx, 3))
            .unwrap();
        assert!(thumb.1.priority.is_high());
        assert_eq!(thumb.0.query(), Some("v=3"));
        assert_eq!(c.report(), ClientReport::default());
    }

    #[test]
    fn a_later_app_annotating_the_same_base_url_wins_for_both() {
        let mut second = movie_trailer(AppId::new(2));
        for (idx, _) in second.clone().dag().iter() {
            second.dag_mut().object_mut(idx).ttl = SimDuration::from_secs(7);
        }
        let apps = ClientApps::new(vec![movie_trailer(AppId::new(1)), second]);
        for (_, spec) in apps.identities.iter().flatten() {
            assert_eq!(
                (spec.app, spec.ttl),
                (AppId::new(2), SimDuration::from_secs(7))
            );
        }
    }

    #[test]
    fn children_reverse_edges_match_dag() {
        let c = client(Strategy::EdgeCache);
        let kids = &c.apps.children[0];
        let total: usize = kids.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
        assert_eq!(kids[0].len(), 4);
    }

    #[test]
    fn report_ratios() {
        let r = ClientReport {
            requests: 10,
            hits: 4,
            high_requests: 5,
            high_hits: 5,
            failures: 0,
            executions: 2,
        };
        assert!((r.hit_ratio() - 0.4).abs() < 1e-12);
        assert!((r.high_priority_hit_ratio() - 1.0).abs() < 1e-12);
        let empty = ClientReport::default();
        assert_eq!(empty.hit_ratio(), 0.0);
        assert_eq!(empty.high_priority_hit_ratio(), 0.0);
        let mut merged = r;
        merged.merge(&r);
        assert_eq!(merged.requests, 20);
        assert_eq!(merged.executions, 4);
    }

    #[test]
    fn report_merge_with_default_is_identity() {
        let r = ClientReport {
            requests: 7,
            hits: 3,
            high_requests: 2,
            high_hits: 1,
            failures: 4,
            executions: 5,
        };
        let mut left = r;
        left.merge(&ClientReport::default());
        assert_eq!(left, r);
        let mut right = ClientReport::default();
        right.merge(&r);
        assert_eq!(right, r);
    }

    #[test]
    fn report_merge_sums_every_field_and_commutes() {
        let a = ClientReport {
            requests: 1,
            hits: 2,
            high_requests: 3,
            high_hits: 4,
            failures: 5,
            executions: 6,
        };
        let b = ClientReport {
            requests: 10,
            hits: 20,
            high_requests: 30,
            high_hits: 40,
            failures: 50,
            executions: 60,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(
            ab,
            ClientReport {
                requests: 11,
                hits: 22,
                high_requests: 33,
                high_hits: 44,
                failures: 55,
                executions: 66,
            }
        );
        // Ratios derive from the merged counters, not an average of ratios.
        assert!((ab.hit_ratio() - 2.0).abs() < 1e-12);
    }
}
