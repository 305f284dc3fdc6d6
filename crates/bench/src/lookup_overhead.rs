//! Fig. 11b: the latency anatomy of the DNS-Cache design.
//!
//! Four query types measured against the same warm AP:
//!
//! 1. regular DNS query answered from the AP's dnsmasq cache (*hit*),
//! 2. regular DNS query needing upstream recursion (*miss*),
//! 3. a DNS-Cache query (piggybacked lookup) on the warm path,
//! 4. two standalone queries: a regular DNS query followed by a separate
//!    cache-status query.
//!
//! The paper reports (3) − (1) ≈ 0.02 ms and (4) − (3) ≈ 7 ms.

use ape_appdag::DummyAppConfig;
use ape_cachealg::{AppId, Priority};
use ape_dnswire::{DnsMessage, DomainName};
use ape_httpsim::{HttpRequest, Url};
use ape_proto::{CacheOp, ConnId, Msg, RequestId};
use ape_simnet::{Context, LinkSpec, Node, NodeId, SimDuration, SimTime};
use apecache::{build, paper_suite, System, TestbedConfig};

use crate::experiments::ReproOptions;

/// Probe recording DNS response arrival times.
#[derive(Debug, Default)]
struct Probe {
    dns_at: Option<SimTime>,
    http_at: Option<SimTime>,
}

impl Node<Msg> for Probe {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::Dns(m) if m.header.response => self.dns_at = Some(ctx.now()),
            Msg::HttpRsp { .. } => self.http_at = Some(ctx.now()),
            _ => {}
        }
    }
}

/// Measured means for the query types, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct LookupOverhead {
    /// Regular DNS query, AP cache hit.
    pub regular_hit_ms: f64,
    /// Regular DNS query, AP cache miss (upstream recursion).
    pub regular_miss_ms: f64,
    /// DNS-Cache query answered from dnsmasq (no short-circuit) — the
    /// like-for-like comparison behind the paper's +0.02 ms.
    pub dns_cache_ms: f64,
    /// DNS-Cache query short-circuited with the dummy IP (all requested
    /// URLs cached).
    pub dns_cache_short_circuit_ms: f64,
    /// Regular DNS query + standalone cache query.
    pub standalone_pair_ms: f64,
}

/// Runs the Fig. 11b micro-measurement.
pub fn measure(opts: &ReproOptions) -> LookupOverhead {
    // An APE-CACHE testbed plus one probe client wired to the AP.
    let config = TestbedConfig::new(
        System::ApeCache,
        paper_suite(&DummyAppConfig::default(), opts.seed),
    );
    let mut bed = build(&config);
    let probe = bed.world.add_node("probe", Probe::default());
    bed.world.connect(
        probe,
        bed.ap,
        LinkSpec::from_rtt(1, SimDuration::from_millis(3)),
    );

    let domain: DomainName = "app2.dummy.example".parse().expect("suite domain");
    let url = Url::parse("http://app2.dummy.example/obj0?v=0").expect("suite url");

    // Prime: resolve + delegate so the AP caches both the DNS entry and
    // the object.
    bed.world.post(
        probe,
        bed.ap,
        Msg::dns(DnsMessage::dns_cache_request(
            9999,
            domain.clone(),
            &[url.hash()],
        )),
    );
    bed.world.run_for(SimDuration::from_secs(1));
    bed.world
        .post(probe, bed.ap, Msg::TcpSyn { conn: ConnId(1) });
    bed.world.run_for(SimDuration::from_secs(1));
    bed.world.post(
        probe,
        bed.ap,
        Msg::HttpReq {
            conn: ConnId(1),
            req: RequestId(1),
            request: HttpRequest::get(url.clone()),
            cache_op: Some(CacheOp {
                ttl: SimDuration::from_mins(30),
                priority: Priority::HIGH,
                app: AppId::new(2),
            }),
        },
    );
    bed.world.run_for(SimDuration::from_secs(1));

    // Interleave all query types so every sample sees identical AP
    // conditions: idle past the record TTL, one warming query, then the
    // measured query.
    let uncached = Url::parse("http://app2.dummy.example/obj0?v=77").expect("suite url");
    let mut totals = [0.0f64; 5];
    // One discarded warm-up pass (trial 0) settles post-priming state.
    for trial in 0..=opts.micro_trials as u16 {
        let queries: [DnsMessage; 5] = [
            // regular (hit)
            DnsMessage::query(trial, domain.clone()),
            // DNS-Cache, not short-circuitable (one unknown URL)
            DnsMessage::dns_cache_request(trial, domain.clone(), &[url.hash(), uncached.hash()]),
            // DNS-Cache, short-circuited (all requested URLs cached)
            DnsMessage::dns_cache_request(trial, domain.clone(), &[url.hash()]),
            // standalone pair, first half (regular)
            DnsMessage::query(trial, domain.clone()),
            // standalone pair, second half (cache status)
            DnsMessage::dns_cache_request(trial, domain.clone(), &[url.hash(), uncached.hash()]),
        ];
        for (slot, query) in queries.into_iter().enumerate() {
            let idle = bed.world.now() + SimDuration::from_secs(61);
            bed.world.run_until(idle);
            bed.world.post(
                probe,
                bed.ap,
                Msg::dns(DnsMessage::query(60_000 + trial, domain.clone())),
            );
            bed.world.run_for(SimDuration::from_secs(1));
            let start = bed.world.now();
            bed.world.post(probe, bed.ap, Msg::dns(query));
            bed.world.run_for(SimDuration::from_secs(2));
            let done = bed.world.node::<Probe>(probe).dns_at.expect("dns answered");
            if trial > 0 {
                totals[slot] += (done - start).as_millis_f64();
            }
        }
    }
    let mean = |slot: usize| totals[slot] / opts.micro_trials as f64;
    let regular_hit_ms = mean(0);
    let dns_cache_ms = mean(1);
    let dns_cache_short_circuit_ms = mean(2);
    let standalone_pair_ms = mean(3) + mean(4);

    // Misses: fresh subdomains force upstream recursion each trial.
    let mut total = 0.0;
    for trial in 0..opts.micro_trials {
        let fresh: DomainName = format!("m{trial}.app2.dummy.example")
            .parse()
            .expect("fresh subdomain");
        let start = bed.world.now();
        bed.world.post(
            probe,
            bed.ap,
            Msg::dns(DnsMessage::query(30_000 + trial as u16, fresh)),
        );
        bed.world.run_for(SimDuration::from_secs(2));
        let done = bed.world.node::<Probe>(probe).dns_at.expect("answered");
        total += (done - start).as_millis_f64();
    }
    let regular_miss_ms = total / opts.micro_trials as f64;

    LookupOverhead {
        regular_hit_ms,
        regular_miss_ms,
        dns_cache_ms,
        dns_cache_short_circuit_ms,
        standalone_pair_ms,
    }
}

/// Fig. 11b rendered as text.
pub fn fig11b(opts: &ReproOptions) -> String {
    let m = measure(opts);
    format!(
        "Fig. 11b: Lookup Latency Overhead of DNS-Cache Queries\n\n\
         {:<44} {:>10}\n\
         {:<44} {:>10.3}\n\
         {:<44} {:>10.3}\n\
         {:<44} {:>10.3}\n\
         {:<44} {:>10.3}\n\
         {:<44} {:>10.3}\n\n\
         DNS-Cache overhead vs regular DNS (hit): {:+.3} ms (paper: +0.02 ms)\n\
         standalone pair vs piggybacked:          {:+.3} ms (paper: +7.02 ms)\n",
        "query type",
        "mean (ms)",
        "regular DNS query (AP cache hit)",
        m.regular_hit_ms,
        "regular DNS query (miss, recursive)",
        m.regular_miss_ms,
        "DNS-Cache query (piggybacked)",
        m.dns_cache_ms,
        "DNS-Cache query (short-circuited)",
        m.dns_cache_short_circuit_ms,
        "two standalone queries (DNS + cache)",
        m.standalone_pair_ms,
        m.dns_cache_ms - m.regular_hit_ms,
        m.standalone_pair_ms - m.dns_cache_ms,
    )
}
