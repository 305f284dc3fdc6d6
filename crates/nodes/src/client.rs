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
use ape_dnswire::{CacheFlag, CacheTuple, DnsMessage, DomainName, Rcode, UrlHash};
use ape_httpsim::{HttpRequest, HttpResponse, Url};
use ape_proto::{names, CacheOp, ConnId, IpMap, Msg, RequestId, SpanKind};
use ape_simnet::{
    Context, Metrics, Node, NodeId, SimDuration, SimTime, SpanCtx, TimerId, TimerToken,
};
use ape_workload::Execution;

use crate::txn::alloc_txn;
use crate::window::IdWindow;

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
    /// Retrieval attempts consumed (0 = first try); stale responses from
    /// earlier attempts are recognized by mismatch.
    attempt: u32,
    /// The current attempt's retrieval watchdog, cancelled when the fetch
    /// settles (a no-op if it has fired); `None` until one is armed.
    watchdog: Option<TimerId>,
    /// The connection of the current attempt (see [`conn_id`]); a SYN-ACK
    /// naming any other connection of this fetch is stale.
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
    /// Retransmit timer of the current transmission, cancelled when the
    /// query is answered.
    timer: TimerId,
}

/// Client-side outcome counters, read off the metric registry (the one
/// ledger of settled fetches) by [`ClientReport::from_metrics`].
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
    /// The outcome counters of every client that wrote to `metrics`.
    pub fn from_metrics(metrics: &Metrics) -> Self {
        let samples = |name| metrics.histogram(name).map_or(0, |h| h.count() as u64);
        ClientReport {
            requests: samples(names::CLIENT_OBJECT_TOTAL_MS),
            hits: metrics.counter(names::CLIENT_CACHE_HITS),
            high_requests: metrics.counter(names::CLIENT_HIGH_PRIORITY_FETCHES),
            high_hits: metrics.counter(names::CLIENT_HIGH_PRIORITY_HITS),
            failures: metrics.counter(names::CLIENT_FETCH_FAILURES),
            executions: samples(names::CLIENT_APP_LATENCY_MS),
        }
    }

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
    ///
    /// # Panics
    ///
    /// Panics if two apps share a name: each app's name is its own
    /// `client.app_latency_ms.<name>` histogram.
    pub fn new(apps: Vec<AppSpec>) -> Self {
        let mut names: Vec<&str> = apps.iter().map(AppSpec::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), apps.len(), "two apps share a name");
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
    /// Executions not yet armed: the next is drawn as the armed one fires.
    schedule: Executions,
    /// Roam stops, installed at build time (empty for non-roaming clients,
    /// which then schedule no roam timers at all).
    roam_schedule: Vec<RoamStop>,
    /// Per-domain cached flags, sorted by hash with one tuple per hash
    /// (see [`flag_table`]), the answer's address (`None` for the dummy
    /// IP) and their validity horizon, the answer's TTL. The address
    /// needs no expiry of its own: an AP answers a real address with a TTL
    /// of at least 1 s, so the address is fresh whenever the flags are.
    flags: BTreeMap<DomainName, (Vec<CacheTuple>, Option<Ipv4Addr>, SimTime)>,
    pending_dns: BTreeMap<DomainName, PendingDns>,
    fetches: IdWindow<Fetch>,
    execs: IdWindow<Exec>,
    next_txn: u16,
    next_req: u64,
    next_exec: u64,
}

/// A client's schedule as it is consumed: any time-sorted iterator of
/// executions (a `ScheduleStream` share in built worlds, a `Vec` in tests).
struct Executions(Box<dyn Iterator<Item = Execution> + Send>);

impl std::fmt::Debug for Executions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Executions(..)")
    }
}

/// Timer-token namespaces. Tokens below `1 << 32` are executions, the
/// token the [`AppId`](ape_cachealg::AppId) of the app to run; tokens
/// `TOKEN_ROAM_BASE + i` are roam stop `i`. Each schedule has at most
/// one timer queued: `on_start` arms its first element, and each element
/// arms the next as it fires. Bit 32 marks DNS retransmit timers (txn id
/// in the low 16 bits); bit 33 marks HTTP/retrieval timers (request id in
/// the low 32 bits, attempt number in bits 40+).
const TOKEN_DNS_BASE: u64 = 1 << 32;
const TOKEN_HTTP_BASE: u64 = 1 << 33;
const TOKEN_ROAM_BASE: u64 = 1 << 34;
const HTTP_ATTEMPT_SHIFT: u32 = 40;

/// Phase-staggers a watchdog delay so timers armed by one handler never
/// share a nanosecond: tied watchdogs retransmit down one link, and
/// tie-break order would pick which takes the link's next draw
/// (`chaos_faults`' `randomized_fault_plans_terminate_drained_and_tie_invariant`
/// fails without it: the `client-stagger` row of `scripts/mutants.tsv`).
/// 61 ns per id keeps the skew under 4 ms.
fn staggered(base: SimDuration, id: u64) -> SimDuration {
    let skew_ns = (id & 0xFFFF) * 61;
    base + SimDuration::from_nanos(skew_ns)
}

/// The connection of attempt `attempt` of fetch `req`: a SYN-ACK names
/// its fetch ([`conn_request`]), and no two attempts share an id.
fn conn_id(req: RequestId, attempt: u32) -> ConnId {
    ConnId((req.0 << CONN_ATTEMPT_BITS) | u64::from(attempt))
}

/// The fetch whose attempt opened `conn`.
fn conn_request(conn: ConnId) -> RequestId {
    RequestId(conn.0 >> CONN_ATTEMPT_BITS)
}

const CONN_ATTEMPT_BITS: u32 = 8;
const _: () = assert!(HTTP_RETRIES < 1 << CONN_ATTEMPT_BITS);

fn http_token(req: RequestId, attempt: u32) -> TimerToken {
    TimerToken::new(
        TOKEN_HTTP_BASE | ((attempt as u64) << HTTP_ATTEMPT_SHIFT) | (req.0 & 0xFFFF_FFFF),
    )
}

/// Arms the retrieval watchdog for attempt `attempt` of fetch `req` with
/// exponential backoff. Every non-DNS phase is covered by one of these
/// timers, so a lost response can never strand the fetch.
fn arm_http_timer(ctx: &mut Context<'_, Msg>, req: RequestId, attempt: u32) -> TimerId {
    let backoff = HTTP_TIMEOUT * (1u64 << attempt.min(16));
    ctx.schedule(staggered(backoff, req.0), http_token(req, attempt))
}

/// Arms the retransmit timer of DNS transaction `txn`.
fn arm_dns_timer(ctx: &mut Context<'_, Msg>, txn: u16) -> TimerId {
    ctx.schedule(
        staggered(DNS_TIMEOUT, txn as u64),
        TimerToken::new(TOKEN_DNS_BASE | txn as u64),
    )
}

/// Turns a DNS-Cache answer's tuples into a domain's flag table in place:
/// sorted by hash, and where a hash repeats the later tuple wins.
fn flag_table(mut tuples: Vec<CacheTuple>) -> Vec<CacheTuple> {
    tuples.sort_by_key(|t| t.url_hash);
    tuples.dedup_by(|later, kept| {
        let repeat = later.url_hash == kept.url_hash;
        if repeat {
            kept.flag = later.flag;
        }
        repeat
    });
    tuples
}

/// The flag a domain's table holds for `key`.
fn flag_in(table: &[CacheTuple], key: UrlHash) -> Option<CacheFlag> {
    table
        .binary_search_by_key(&key, |t| t.url_hash)
        .ok()
        .map(|i| table[i].flag)
}

impl ClientNode {
    /// Creates a client running `apps` on the time-sorted `schedule`
    /// (entries refer to apps by [`AppId`](ape_cachealg::AppId); entries
    /// for unknown apps are ignored). The schedule is drawn lazily: an
    /// execution is taken from it when the one before it fires.
    pub fn new<S>(config: ClientConfig, apps: Arc<ClientApps>, schedule: S) -> Self
    where
        S: IntoIterator<Item = Execution>,
        S::IntoIter: Send + 'static,
    {
        ClientNode {
            config,
            apps,
            schedule: Executions(Box::new(schedule.into_iter())),
            roam_schedule: Vec::new(),
            flags: BTreeMap::new(),
            pending_dns: BTreeMap::new(),
            fetches: IdWindow::new(),
            execs: IdWindow::new(),
            next_txn: 1,
            next_req: 1,
            next_exec: 1,
        }
    }

    /// Installs a time-sorted roam schedule (multi-AP topologies; each stop
    /// re-homes the client to a neighbor AP at the given instant). Like the
    /// execution schedule, it is armed one stop at a time, each as the one
    /// before it fires, so only the next stop is ever in the event queue.
    pub fn with_roam_schedule(mut self, roam_schedule: Vec<RoamStop>) -> Self {
        self.roam_schedule = roam_schedule;
        self
    }

    /// Kicks off one execution of app `app_idx` immediately (tests and
    /// micro-benches; a scheduled execution calls it when its timer fires).
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
        let Some(exec) = self.execs.remove(exec_id) else {
            return;
        };
        let latency = (ctx.now() - exec.started).as_millis_f64();
        ctx.metrics()
            .observe_id(names::id::CLIENT_APP_LATENCY_MS, latency);
        ctx.metrics().observe_under(
            names::id::CLIENT_APP_LATENCY_MS_PREFIX,
            self.apps.apps[exec.app_idx].name(),
            exec.app_idx,
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
        let exec = &self.execs[exec_id];
        let app_idx = exec.app_idx;
        let variant = exec.variant;
        let (url, spec) = self.apps.identity(app_idx, obj, variant).clone();
        let key = url.hash();
        assert!(
            self.next_req < 1 << 32,
            "request id {} reaches 2^32: a retrieval timer token keeps only the low 32 bits",
            self.next_req
        );
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
            watchdog: None,
            conn: None,
            root_span,
            lookup_span,
            retrieval_span: None,
        };
        self.fetches.insert(req.0, fetch);
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
        let fetch = &self.fetches[req.0];
        let domain = fetch.url.host();
        let fresh = self
            .flags
            .get(domain)
            .filter(|(_, _, valid_until)| *valid_until > now)
            .map(|(table, ip, _)| {
                let flag = flag_in(table, fetch.key).unwrap_or(CacheFlag::Delegation);
                (flag, *ip)
            });
        match fresh {
            Some((flag, ip)) => self.act_on_flag(ctx, req, flag, ip),
            None => {
                let domain = domain.clone();
                self.join_or_send_dns(ctx, req, domain, true);
            }
        }
    }

    /// Edge Cache lookup: plain DNS against the configured resolver.
    /// Resolved addresses are not reused here — APE-CACHE needs that
    /// (flags ride on the DNS entries), but the baseline follows the
    /// paper's Fig. 1 workflow, where every object access initiates its
    /// own DNS resolution.
    fn lookup_edge(&mut self, ctx: &mut Context<'_, Msg>, req: RequestId) {
        let domain = self.fetches[req.0].url.host().clone();
        self.join_or_send_dns(ctx, req, domain, false);
    }

    /// Wi-Cache lookup: ask the controller.
    fn lookup_wicache(&mut self, ctx: &mut Context<'_, Msg>, req: RequestId) {
        let Some(controller) = self.config.controller else {
            self.fail_fetch(ctx, req);
            return;
        };
        let Some(f) = self.fetches.get_mut(req.0) else {
            return;
        };
        f.lookup_was_query = true;
        f.phase = Phase::AwaitingController;
        let (key, attempt) = (f.key, f.attempt);
        ctx.metrics().incr_id(names::id::CLIENT_WICACHE_LOOKUPS, 1);
        ctx.send_after(
            PROCESSING,
            controller,
            Msg::WiCacheLookup { req, url_hash: key },
        );
        f.watchdog = Some(arm_http_timer(ctx, req, attempt));
    }

    /// Allocates a DNS transaction id no pending query holds.
    fn alloc_txn(&mut self) -> u16 {
        let pending = &self.pending_dns;
        alloc_txn(&mut self.next_txn, pending.len(), |txn| {
            pending.values().any(|p| p.txn == txn)
        })
    }

    /// The domain whose pending query is transaction `txn`, if any: an
    /// answer or timer of a settled query finds none.
    fn pending_domain(&self, txn: u16) -> Option<DomainName> {
        self.pending_dns
            .iter()
            .find(|(_, p)| p.txn == txn)
            .map(|(domain, _)| domain.clone())
    }

    fn join_or_send_dns(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        req: RequestId,
        domain: DomainName,
        dns_cache_query: bool,
    ) {
        if let Some(f) = self.fetches.get_mut(req.0) {
            f.lookup_was_query = true;
            f.phase = Phase::AwaitingDns;
        }
        if let Some(pending) = self.pending_dns.get_mut(&domain) {
            pending.waiting.push(req);
            return;
        }
        let txn = self.alloc_txn();
        let hashes = if dns_cache_query {
            vec![self.fetches[req.0].key]
        } else {
            Vec::new()
        };
        let query = if hashes.is_empty() {
            DnsMessage::query(txn, domain.clone())
        } else {
            DnsMessage::dns_cache_request(txn, domain.clone(), &hashes)
        };
        ctx.metrics().incr_id(names::id::CLIENT_DNS_QUERIES, 1);
        ctx.send_after(PROCESSING, self.config.dns_server, Msg::dns(query));
        let timer = arm_dns_timer(ctx, txn);
        self.pending_dns.insert(
            domain,
            PendingDns {
                txn,
                waiting: vec![req],
                retries: 0,
                hashes,
                timer,
            },
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
        let Some(fetch) = self.fetches.get_mut(req.0) else {
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
        let conn = conn_id(req, fetch.attempt);
        fetch.retrieval_started = Some(now);
        fetch.phase = Phase::Connecting { target, mode };
        fetch.conn = Some(conn);
        if let Some(span) = fetch.lookup_span.take() {
            ctx.span_end(span, SpanKind::Lookup);
        }
        let retrieval_kind = match mode {
            FetchMode::ApHit => SpanKind::RetrievalHit,
            FetchMode::Delegation => SpanKind::RetrievalDelegation,
            FetchMode::Edge => SpanKind::RetrievalEdge,
        };
        fetch.retrieval_span = ctx.span_start(retrieval_kind).map(|s| (s, retrieval_kind));
        let attempt = fetch.attempt;
        ctx.send_after(PROCESSING, target, Msg::TcpSyn { conn });
        if !watchdog_armed {
            fetch.watchdog = Some(arm_http_timer(ctx, req, attempt));
        }
        if self.config.prefetch_hints && target == self.config.ap {
            self.send_prefetch_hints(ctx, req);
        }
    }

    /// Extension (paper §VI): tell the AP which objects this execution
    /// will request once the current fetch completes — its DAG dependents.
    fn send_prefetch_hints(&mut self, ctx: &mut Context<'_, Msg>, req: RequestId) {
        let Some(fetch) = self.fetches.get(req.0) else {
            return;
        };
        let Some(exec) = self.execs.get(fetch.exec) else {
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
        let Some(fetch) = self.fetches.remove(req.0) else {
            return;
        };
        if let Some(watchdog) = fetch.watchdog {
            ctx.cancel(watchdog);
        }
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
        let Some(exec) = self.execs.get_mut(fetch.exec) else {
            return;
        };
        exec.failed = true;
        exec.remaining -= 1;
        // Dependents can never run; cancel them so the execution ends.
        let mut cancelled = vec![fetch.obj];
        while let Some(obj) = cancelled.pop() {
            for &child in &self.apps.children[fetch.app_idx][obj.get()] {
                if exec.deps_left[child.get()] == usize::MAX {
                    continue;
                }
                exec.deps_left[child.get()] = usize::MAX;
                exec.remaining -= 1;
                cancelled.push(child);
            }
        }
        if exec.remaining == 0 {
            self.finish_exec(ctx, fetch.exec);
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
        let Some(fetch) = self.fetches.remove(req.0) else {
            return;
        };
        if let Some(watchdog) = fetch.watchdog {
            ctx.cancel(watchdog);
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
        let high = fetch.spec.priority.is_high();
        if high {
            ctx.metrics()
                .incr_id(names::id::CLIENT_HIGH_PRIORITY_FETCHES, 1);
        }
        if from_cache && mode != FetchMode::Edge {
            ctx.metrics().incr_id(names::id::CLIENT_CACHE_HITS, 1);
            if high {
                ctx.metrics()
                    .incr_id(names::id::CLIENT_HIGH_PRIORITY_HITS, 1);
            }
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
        let Some(exec) = self.execs.get_mut(exec_id) else {
            return;
        };
        exec.remaining -= 1;
        let mut ready = Vec::new();
        for &child in &self.apps.children[fetch.app_idx][fetch.obj.get()] {
            if exec.deps_left[child.get()] == usize::MAX {
                continue;
            }
            exec.deps_left[child.get()] -= 1;
            if exec.deps_left[child.get()] == 0 {
                ready.push(child);
            }
        }
        for child in ready {
            self.start_fetch(ctx, exec_id, child);
        }
        if self.execs[exec_id].remaining == 0 {
            self.finish_exec(ctx, exec_id);
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn handle_dns_response(&mut self, ctx: &mut Context<'_, Msg>, mut response: DnsMessage) {
        // An answer to a query that was answered or given up on already
        // names no pending transaction and is dropped.
        let Some(domain) = self.pending_domain(response.header.id) else {
            return;
        };
        let pending = self.pending_dns.remove(&domain).expect("found above");
        ctx.cancel(pending.timer);
        let now = ctx.now();

        let answer = response
            .answer_ip()
            .map(|ip| (ip, response.answers.first().map(|a| a.ttl).unwrap_or(0)));
        let ip = answer.map(|(ip, _)| ip).filter(|ip| !IpMap::is_dummy(*ip));
        // Dummy-IP (TTL 0) answers deliberately collapse the flag horizon
        // to `now`: the flags serve only the waiting fetches.
        let flag_horizon = answer.map_or(now, |(_, ttl)| now + SimDuration::from_secs(ttl as u64));
        // Record flags (DNS-Cache responses carry them; plain ones do not).
        let tuples = response.take_cache_response_tuples();
        if !tuples.is_empty() {
            self.flags
                .insert(domain.clone(), (flag_table(tuples), ip, flag_horizon));
        }

        if response.header.rcode != Rcode::NoError {
            for req in pending.waiting {
                self.fail_fetch(ctx, req);
            }
            return;
        }
        // Acting on a flag touches neither `flags` nor a fetch's key, so
        // each waiter's flag can be read just before acting on it.
        for req in pending.waiting {
            let flag = match self.config.strategy {
                Strategy::ApeCache => self
                    .fetches
                    .get(req.0)
                    .and_then(|f| flag_in(&self.flags.get(&domain)?.0, f.key))
                    .unwrap_or(CacheFlag::Delegation),
                _ => CacheFlag::Miss,
            };
            self.act_on_flag(ctx, req, flag, ip);
        }
    }

    fn handle_dns_timeout(&mut self, ctx: &mut Context<'_, Msg>, txn: u16) {
        let domain = self.pending_domain(txn);
        debug_assert!(
            domain.is_some(),
            "DNS timer of answered txn {txn} fired: the answer cancels it"
        );
        let Some(domain) = domain else {
            return; // Answered already.
        };
        let pending = self.pending_dns.get_mut(&domain).expect("found above");
        if pending.retries >= DNS_RETRIES {
            let pending = self.pending_dns.remove(&domain).expect("present above");
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
        pending.timer = arm_dns_timer(ctx, txn);
    }

    /// The retrieval watchdog fired: if the attempt it guarded is still
    /// in flight, abandon it and retry the whole lookup (backoff doubles),
    /// or fail the fetch once the retry budget is spent.
    fn handle_http_timeout(&mut self, ctx: &mut Context<'_, Msg>, req: RequestId, attempt: u32) {
        let fetch = self.fetches.get(req.0);
        debug_assert!(
            fetch.is_some(),
            "watchdog of settled fetch {req:?} fired: settling cancels it"
        );
        let Some(fetch) = fetch else {
            return; // Completed or failed already.
        };
        // Only this handler advances `attempt`, and only when the current
        // attempt's watchdog fires, so no older watchdog is still armed.
        debug_assert_eq!(
            fetch.attempt, attempt,
            "watchdog of an abandoned attempt of {req:?} fired"
        );
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
        let fetch = self.fetches.get_mut(req.0).expect("checked above");
        fetch.attempt += 1;
        fetch.retrieval_started = None;
        fetch.conn = None;
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
    pub fn pending_counts(&self) -> [(&'static str, usize); 3] {
        [
            ("pending_dns", self.pending_dns.len()),
            ("fetches", self.fetches.len()),
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
        let Some(fetch) = self.fetches.get(req.0) else {
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
    /// the old AP's cache and are dropped with the addresses they carry.
    /// In-flight fetches settle through their
    /// normal watchdogs — a cancelled waiter simply times out and retries
    /// against the new home.
    fn execute_roam(&mut self, ctx: &mut Context<'_, Msg>, idx: usize) {
        let Some(&stop) = self.roam_schedule.get(idx) else {
            return;
        };
        self.arm_roam(ctx, idx + 1);
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

    /// Arms the schedule's next execution, if any, drawing it now.
    fn arm_next_execution(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(exec) = self.schedule.0.next() {
            assert!(exec.at >= ctx.now(), "a schedule must be time-sorted");
            let token = TimerToken::new(u64::from(exec.app.get()));
            ctx.schedule(exec.at - ctx.now(), token);
        }
    }

    /// Arms roam stop `idx`, if the roam schedule has one.
    fn arm_roam(&self, ctx: &mut Context<'_, Msg>, idx: usize) {
        if let Some(stop) = self.roam_schedule.get(idx) {
            assert!(stop.at >= ctx.now(), "a roam schedule must be time-sorted");
            let token = TimerToken::new(TOKEN_ROAM_BASE + idx as u64);
            ctx.schedule(stop.at - ctx.now(), token);
        }
    }
}

impl Node<Msg> for ClientNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.arm_next_execution(ctx);
        self.arm_roam(ctx, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::Dns(dns) if dns.header.response => self.handle_dns_response(ctx, *dns),
            Msg::Dns(_) => {}
            Msg::TcpSynAck { conn } => {
                let req = conn_request(conn);
                let Some(fetch) = self.fetches.get_mut(req.0) else {
                    return;
                };
                if fetch.conn != Some(conn) {
                    return; // The handshake of an abandoned attempt.
                }
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
                req,
                response,
                from_cache,
                ..
            } => self.complete_fetch(ctx, req, response, from_cache),
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
        self.arm_next_execution(ctx);
        if let Some(&app_idx) = self.apps.app_index.get(&(raw as u32)) {
            self.trigger_execution(ctx, app_idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_appdag::{movie_trailer, AppId};
    use ape_simnet::{LinkSpec, World};

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

    /// Records what the client sends: it is the client's AP and resolver.
    #[derive(Debug, Default)]
    struct Probe(Vec<Msg>);

    impl Node<Msg> for Probe {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, msg: Msg) {
            self.0.push(msg);
        }
    }

    const PROBE: NodeId = NodeId::from_raw(0);

    /// A [`Probe`] and a [`client`] that runs MovieTrailer (one root
    /// object) once at 1 s.
    fn probed_client() -> (World<Msg>, NodeId) {
        let mut world = World::new(3);
        world.add_node("probe", Probe::default());
        let mut c = client(Strategy::ApeCache);
        let at = SimTime::from_secs(1);
        let app = AppId::new(1);
        c.schedule = Executions(Box::new(std::iter::once(Execution { at, app })));
        let c = world.add_node("client", c);
        world.connect(c, PROBE, LinkSpec::from_rtt(1, SimDuration::from_millis(3)));
        (world, c)
    }

    /// The DNS queries, SYNs and HTTP requests the probe received.
    fn sent(world: &World<Msg>) -> (Vec<DnsMessage>, Vec<ConnId>, Vec<ConnId>) {
        let (mut dns, mut syns, mut requests) = (Vec::new(), Vec::new(), Vec::new());
        for msg in &world.node::<Probe>(PROBE).0 {
            match msg {
                Msg::Dns(query) => dns.push((**query).clone()),
                Msg::TcpSyn { conn } => syns.push(*conn),
                Msg::HttpReq { conn, .. } => requests.push(*conn),
                _ => {}
            }
        }
        (dns, syns, requests)
    }

    /// A `Cache-Hit` answer to `query`, with an address and a 60 s TTL.
    fn hit_answer(query: &DnsMessage) -> Msg {
        let hashes = query.cache_request_hashes();
        let tuples = hashes.map(|k| CacheTuple::new(k, CacheFlag::Hit)).collect();
        let ip = Ipv4Addr::new(10, 0, 0, 9);
        Msg::dns(DnsMessage::dns_cache_response(query, ip, 60, tuples))
    }

    #[test]
    fn a_syn_ack_of_an_abandoned_attempt_is_ignored() {
        let (mut world, c) = probed_client();
        world.run_until(SimTime::from_millis(1_100));
        world.post(PROBE, c, hit_answer(&sent(&world).0[0]));
        // Nobody answers the handshake: the watchdog abandons attempt 0,
        // and attempt 1 dials again at once on the still-fresh flags.
        world.run_until(SimTime::from_secs(6));
        let [stale, live] = sent(&world).1[..] else {
            panic!("two attempts dial: {:?}", sent(&world).1);
        };
        world.post(PROBE, c, Msg::TcpSynAck { conn: stale });
        world.run_until(SimTime::from_millis(6_100));
        assert!(
            sent(&world).2.is_empty(),
            "a stale handshake sent a request"
        );
        world.post(PROBE, c, Msg::TcpSynAck { conn: live });
        world.run_until(SimTime::from_millis(6_200));
        assert_eq!(sent(&world).2, [live]);
    }

    #[test]
    fn a_dns_answer_after_the_give_up_is_dropped() {
        let (mut world, c) = probed_client();
        // Nobody answers: the query is retried `DNS_RETRIES` times and
        // given up, which fails the root and ends the execution.
        world.run_until(SimTime::from_secs(12));
        let queries = sent(&world).0;
        assert_eq!(queries.len(), 1 + DNS_RETRIES as usize);
        world.post(PROBE, c, hit_answer(&queries[0]));
        world.run_until(SimTime::from_secs(13));
        assert!(sent(&world).1.is_empty(), "the late answer dialled");
        assert_eq!(world.metrics().counter(names::CLIENT_FETCH_FAILURES), 1);
        let c = world.node::<ClientNode>(c);
        assert!(c.flags.is_empty(), "{c:?}");
        assert!(c.pending_counts().iter().all(|&(_, n)| n == 0), "{c:?}");
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
    }

    #[test]
    fn a_later_app_annotating_the_same_base_url_wins_for_both() {
        let dag = movie_trailer(AppId::new(2)).dag().clone();
        let mut second = AppSpec::new(AppId::new(2), "SecondTrailer", dag).with_variants(10);
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
    #[should_panic(expected = "two apps share a name")]
    fn a_suite_with_two_apps_of_one_name_is_refused() {
        ClientApps::new(vec![
            movie_trailer(AppId::new(1)),
            movie_trailer(AppId::new(2)),
        ]);
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
    }

    #[test]
    fn report_reads_the_registry() {
        let mut m = Metrics::new();
        assert_eq!(ClientReport::from_metrics(&m), ClientReport::default());
        m.observe_id(names::id::CLIENT_OBJECT_TOTAL_MS, 3.0);
        m.observe_id(names::id::CLIENT_OBJECT_TOTAL_MS, 4.0);
        m.observe_id(names::id::CLIENT_APP_LATENCY_MS, 9.0);
        m.incr_id(names::id::CLIENT_CACHE_HITS, 2);
        m.incr_id(names::id::CLIENT_HIGH_PRIORITY_FETCHES, 3);
        m.incr_id(names::id::CLIENT_HIGH_PRIORITY_HITS, 4);
        m.incr_id(names::id::CLIENT_FETCH_FAILURES, 5);
        let r = ClientReport::from_metrics(&m);
        let fields = [r.requests, r.hits, r.high_requests, r.high_hits];
        assert_eq!(fields, [2, 2, 3, 4]);
        assert_eq!((r.failures, r.executions), (5, 1));
    }
}
