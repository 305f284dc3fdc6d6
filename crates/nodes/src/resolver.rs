//! DNS infrastructure nodes: authoritative servers and the recursive local
//! resolver (LDNS).
//!
//! Mirrors the CDN resolution anatomy the paper measures in §II (Fig. 1):
//! the LDNS resolves `www.apple.com` against the site's authoritative DNS,
//! receives a CNAME into the CDN's namespace (`…edgekey.net`), chases it to
//! the CDN's DNS, and returns the nearest cache server's address. Record
//! TTLs drive caching at every level; CDN A records are deliberately short
//! (Akamai uses ~20 s), which is why cache lookups stay expensive in the
//! baseline.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ape_dnswire::{DnsMessage, DomainName, RData, Rcode, ResourceRecord};
use ape_proto::Msg;
use ape_simnet::{Context, Node, NodeId, SimDuration, SimTime, TimerId, TimerToken};

use crate::txn::alloc_txn;

/// What a zone says about a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Terminal address record.
    A {
        /// The address.
        ip: Ipv4Addr,
        /// Record TTL in seconds.
        ttl: u32,
    },
    /// Alias into another namespace (e.g. the CDN's).
    Cname {
        /// The alias target.
        target: DomainName,
        /// Record TTL in seconds.
        ttl: u32,
    },
}

/// An authoritative DNS server for a set of names.
///
/// Also used for the CDN's DNS service, whose zone maps CDN names to the
/// nearest cache server for the querying region (the region binding is
/// static per testbed, as in the paper's single-region deployments).
#[derive(Debug)]
pub struct AuthDnsNode {
    zone: BTreeMap<DomainName, ZoneAnswer>,
    /// Wildcard suffix answers: any subdomain of the key resolves to the
    /// value (keeps 30-app zones terse).
    wildcard: Vec<(DomainName, ZoneAnswer)>,
    processing: SimDuration,
    served: u64,
}

impl AuthDnsNode {
    /// Creates an empty authoritative server with the given per-query
    /// processing time.
    pub fn new(processing: SimDuration) -> Self {
        AuthDnsNode {
            zone: BTreeMap::new(),
            wildcard: Vec::new(),
            processing,
            served: 0,
        }
    }

    /// Adds an exact-name record.
    pub fn record(&mut self, name: DomainName, answer: ZoneAnswer) -> &mut Self {
        self.zone.insert(name, answer);
        self
    }

    /// Adds a wildcard record answering for every subdomain of `suffix`.
    pub fn wildcard(&mut self, suffix: DomainName, answer: ZoneAnswer) -> &mut Self {
        self.wildcard.push((suffix, answer));
        self
    }

    /// Number of queries answered (for tests).
    pub fn served(&self) -> u64 {
        self.served
    }

    fn answer_for(&self, name: &DomainName) -> Option<ZoneAnswer> {
        if let Some(a) = self.zone.get(name) {
            return Some(a.clone());
        }
        self.wildcard
            .iter()
            .find(|(suffix, _)| name.is_subdomain_of(suffix))
            .map(|(_, a)| a.clone())
    }
}

impl Node<Msg> for AuthDnsNode {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        let Msg::Dns(query) = msg else {
            return; // Authoritative servers only speak DNS.
        };
        if query.header.response {
            return;
        }
        let Some(name) = query.question_name().cloned() else {
            return;
        };
        self.served += 1;
        let mut response = DnsMessage {
            header: ape_dnswire::Header {
                id: query.header.id,
                response: true,
                authoritative: true,
                ..Default::default()
            },
            questions: query.questions.clone(),
            ..Default::default()
        };
        match self.answer_for(&name) {
            Some(ZoneAnswer::A { ip, ttl }) => {
                response
                    .answers
                    .push(ResourceRecord::new(name, ttl, RData::A(ip)));
            }
            Some(ZoneAnswer::Cname { target, ttl }) => {
                response
                    .answers
                    .push(ResourceRecord::new(name, ttl, RData::Cname(target)));
            }
            None => {
                response.header.rcode = Rcode::NxDomain;
            }
        }
        ctx.send_after(self.processing, from, Msg::dns(response));
    }
}

/// A cached record at the LDNS.
#[derive(Debug, Clone)]
enum CachedAnswer {
    A {
        ip: Ipv4Addr,
        expires: SimTime,
        ttl: u32,
    },
    Cname {
        target: DomainName,
        expires: SimTime,
    },
}

/// One in-flight recursive resolution.
#[derive(Debug)]
struct PendingResolution {
    client: NodeId,
    client_query: DnsMessage,
    /// Name currently being chased (changes on CNAME).
    current: DomainName,
    hops: u8,
    /// When the resolution started (drives the give-up timer).
    started: SimTime,
    /// The give-up timer, cancelled when the resolution settles.
    timer: TimerId,
}

/// How long a recursive resolution may chase before the client gets
/// SERVFAIL. One-shot timers (token = txn) rather than a periodic tick, so
/// idle worlds still drain for `run_to_idle`-based tests.
const RESOLVE_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// The recursive local DNS resolver.
///
/// Maintains an answer cache with TTL expiry and chases CNAME chains across
/// the configured delegations. Produces a final A response to the querying
/// client (or SERVFAIL when resolution dead-ends).
#[derive(Debug)]
pub struct LdnsNode {
    /// Longest-suffix-match delegation table: which server is authoritative
    /// for which namespace.
    delegations: Vec<(DomainName, NodeId)>,
    cache: BTreeMap<DomainName, CachedAnswer>,
    pending: BTreeMap<u16, PendingResolution>,
    processing: SimDuration,
    next_id: u16,
    /// Count of queries answered from cache (for tests/metrics).
    cache_hits: u64,
    /// Count of recursive resolutions performed.
    recursions: u64,
}

const MAX_CNAME_HOPS: u8 = 8;

impl LdnsNode {
    /// Creates a resolver with the given delegation table.
    pub fn new(processing: SimDuration, delegations: Vec<(DomainName, NodeId)>) -> Self {
        LdnsNode {
            delegations,
            cache: BTreeMap::new(),
            pending: BTreeMap::new(),
            processing,
            next_id: 1,
            cache_hits: 0,
            recursions: 0,
        }
    }

    /// Queries answered straight from cache so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Recursive resolutions performed so far.
    pub fn recursions(&self) -> u64 {
        self.recursions
    }

    /// In-flight recursive resolutions (the chaos tests assert this drains).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    fn delegation_for(&self, name: &DomainName) -> Option<NodeId> {
        self.delegations
            .iter()
            .filter(|(suffix, _)| name.is_subdomain_of(suffix))
            .max_by_key(|(suffix, _)| suffix.label_count())
            .map(|(_, node)| *node)
    }

    /// Follows fresh cached CNAMEs from `name`, returning the deepest
    /// alias target — where resolution should resume when the terminal A
    /// record expired (a real resolver re-queries only the CDN's DNS).
    fn deepest_fresh_alias(&self, name: &DomainName, now: SimTime) -> DomainName {
        let mut current = name.clone();
        for _ in 0..MAX_CNAME_HOPS {
            match self.cache.get(&current) {
                Some(CachedAnswer::Cname { target, expires }) if *expires > now => {
                    current = target.clone();
                }
                _ => break,
            }
        }
        current
    }

    /// Follows cached CNAMEs from `name`; returns the final cached A if the
    /// whole chain is fresh.
    fn cached_chain(&self, name: &DomainName, now: SimTime) -> Option<(Ipv4Addr, u32)> {
        let mut current = name.clone();
        for _ in 0..MAX_CNAME_HOPS {
            match self.cache.get(&current) {
                Some(CachedAnswer::A { ip, expires, ttl }) if *expires > now => {
                    return Some((*ip, *ttl));
                }
                Some(CachedAnswer::Cname { target, expires }) if *expires > now => {
                    current = target.clone();
                }
                _ => return None,
            }
        }
        None
    }

    fn respond(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        to: NodeId,
        client_query: &DnsMessage,
        outcome: Result<(Ipv4Addr, u32), Rcode>,
    ) {
        let response = match outcome {
            Ok((ip, ttl)) => DnsMessage::dns_cache_response(client_query, ip, ttl, Vec::new()),
            Err(rcode) => {
                let mut r = DnsMessage::dns_cache_response(
                    client_query,
                    Ipv4Addr::UNSPECIFIED,
                    0,
                    Vec::new(),
                );
                r.answers.clear();
                r.header.rcode = rcode;
                r
            }
        };
        ctx.send_after(self.processing, to, Msg::dns(response));
    }

    fn resolve_step(&mut self, ctx: &mut Context<'_, Msg>, txn: u16) {
        let Some(pending) = self.pending.get(&txn) else {
            return;
        };
        let current = pending.current.clone();
        // A fresh cached chain may complete resolution without upstream.
        if let Some((ip, ttl)) = self.cached_chain(&current, ctx.now()) {
            let pending = self.settle(ctx, txn);
            self.respond(ctx, pending.client, &pending.client_query, Ok((ip, ttl)));
            return;
        }
        match self.delegation_for(&current) {
            Some(auth) => {
                let upstream = DnsMessage::query(txn, current);
                ctx.send_after(self.processing, auth, Msg::dns(upstream));
            }
            None => {
                let pending = self.settle(ctx, txn);
                self.respond(
                    ctx,
                    pending.client,
                    &pending.client_query,
                    Err(Rcode::ServFail),
                );
            }
        }
    }

    fn handle_client_query(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, query: DnsMessage) {
        let Some(name) = query.question_name().cloned() else {
            return;
        };
        if let Some((ip, ttl)) = self.cached_chain(&name, ctx.now()) {
            self.cache_hits += 1;
            self.respond(ctx, from, &query, Ok((ip, ttl)));
            return;
        }
        self.recursions += 1;
        let pending = &self.pending;
        let txn = alloc_txn(&mut self.next_id, pending.len(), |txn| {
            pending.contains_key(&txn)
        });
        let resume_from = self.deepest_fresh_alias(&name, ctx.now());
        let timer = ctx.schedule(RESOLVE_TIMEOUT, TimerToken::new(txn as u64));
        self.pending.insert(
            txn,
            PendingResolution {
                client: from,
                client_query: query,
                current: resume_from,
                hops: 0,
                started: ctx.now(),
                timer,
            },
        );
        self.resolve_step(ctx, txn);
    }

    /// Removes the pending resolution `txn` and cancels its give-up timer.
    fn settle(&mut self, ctx: &mut Context<'_, Msg>, txn: u16) -> PendingResolution {
        let done = self.pending.remove(&txn).expect("resolution is pending");
        ctx.cancel(done.timer);
        done
    }

    fn handle_upstream_response(&mut self, ctx: &mut Context<'_, Msg>, response: DnsMessage) {
        let txn = response.header.id;
        let Some(pending) = self.pending.get_mut(&txn) else {
            return; // Late or duplicate response.
        };
        let now = ctx.now();
        if let Some(ip) = response.answer_ip() {
            let ttl = response.answers[0].ttl;
            self.cache.insert(
                pending.current.clone(),
                CachedAnswer::A {
                    ip,
                    expires: now + SimDuration::from_secs(ttl as u64),
                    ttl,
                },
            );
            let done = self.settle(ctx, txn);
            self.respond(ctx, done.client, &done.client_query, Ok((ip, ttl)));
            return;
        }
        if let Some(target) = response.answer_cname().cloned() {
            let ttl = response.answers[0].ttl;
            self.cache.insert(
                pending.current.clone(),
                CachedAnswer::Cname {
                    target: target.clone(),
                    expires: now + SimDuration::from_secs(ttl as u64),
                },
            );
            pending.current = target;
            pending.hops += 1;
            if pending.hops > MAX_CNAME_HOPS {
                let done = self.settle(ctx, txn);
                self.respond(ctx, done.client, &done.client_query, Err(Rcode::ServFail));
                return;
            }
            self.resolve_step(ctx, txn);
            return;
        }
        // NXDOMAIN or empty answer: fail the client query.
        let done = self.settle(ctx, txn);
        let rcode = match response.header.rcode {
            Rcode::NoError => Rcode::ServFail,
            other => other,
        };
        self.respond(ctx, done.client, &done.client_query, Err(rcode));
    }
}

impl Node<Msg> for LdnsNode {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        let Msg::Dns(dns) = msg else {
            return;
        };
        if dns.header.response {
            self.handle_upstream_response(ctx, *dns);
        } else {
            self.handle_client_query(ctx, from, *dns);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: TimerToken) {
        // One-shot resolution give-up: an upstream answer lost on a faulty
        // link would otherwise strand the pending entry (and the client)
        // forever. Settling a resolution cancels its timer, so a txn reused
        // by a newer resolution never sees an older timer; the age check
        // only guards against a leaked one.
        let txn = token.get() as u16;
        let Some(p) = self.pending.get(&txn) else {
            return;
        };
        let early = ctx.now() - p.started < RESOLVE_TIMEOUT;
        debug_assert!(!early, "give-up timer of settled txn {txn} fired");
        if early {
            return;
        }
        let done = self.pending.remove(&txn).expect("checked above");
        self.respond(ctx, done.client, &done.client_query, Err(Rcode::ServFail));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ape_simnet::{LinkSpec, World};

    /// Records the last DNS response it receives.
    #[derive(Debug, Default)]
    struct Probe {
        last: Option<DnsMessage>,
        received_at: Option<SimTime>,
    }

    impl Node<Msg> for Probe {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Dns(m) = msg {
                self.last = Some(*m);
                self.received_at = Some(ctx.now());
            }
        }
    }

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    /// Builds probe → LDNS → {site ADNS, CDN DNS} with the Fig. 1 zones.
    fn testbed() -> (World<Msg>, NodeId, NodeId, NodeId, NodeId) {
        let mut w = World::new(5);
        let probe = w.add_node("probe", Probe::default());

        let mut adns = AuthDnsNode::new(SimDuration::from_micros(300));
        adns.record(
            name("www.apple.example"),
            ZoneAnswer::Cname {
                target: name("www.apple.example.edgekey.example"),
                ttl: 300,
            },
        );
        let adns_id = w.add_node("adns", adns);

        let mut cdn = AuthDnsNode::new(SimDuration::from_micros(300));
        cdn.wildcard(
            name("edgekey.example"),
            ZoneAnswer::A {
                ip: Ipv4Addr::new(10, 0, 0, 9),
                ttl: 20,
            },
        );
        let cdn_id = w.add_node("cdn-dns", cdn);

        let ldns = LdnsNode::new(
            SimDuration::from_micros(200),
            vec![
                (name("apple.example"), adns_id),
                (name("edgekey.example"), cdn_id),
            ],
        );
        let ldns_id = w.add_node("ldns", ldns);

        w.connect(
            probe,
            ldns_id,
            LinkSpec::from_rtt(4, SimDuration::from_millis(8)),
        );
        w.connect(
            ldns_id,
            adns_id,
            LinkSpec::from_rtt(12, SimDuration::from_millis(30)),
        );
        w.connect(
            ldns_id,
            cdn_id,
            LinkSpec::from_rtt(9, SimDuration::from_millis(20)),
        );
        (w, probe, ldns_id, adns_id, cdn_id)
    }

    #[test]
    fn full_cname_chain_resolves() {
        let (mut w, probe, ldns, _adns, _cdn) = testbed();
        let q = DnsMessage::query(42, name("www.apple.example"));
        w.post(probe, ldns, Msg::dns(q));
        w.run_to_idle();
        let p = w.node::<Probe>(probe);
        let resp = p.last.as_ref().expect("response received");
        assert_eq!(resp.header.id, 42);
        assert_eq!(resp.answer_ip(), Some(Ipv4Addr::new(10, 0, 0, 9)));
        // Cold resolution crosses LDNS→ADNS (30ms) and LDNS→CDN (20ms) plus
        // the client RTT (8ms): > 58 ms.
        let t = p.received_at.unwrap().as_millis_f64();
        assert!(t > 58.0, "took {t}ms");
        assert_eq!(w.node::<LdnsNode>(ldns).recursions(), 1);
    }

    #[test]
    fn second_query_hits_ldns_cache() {
        let (mut w, probe, ldns, _adns, _cdn) = testbed();
        w.post(
            probe,
            ldns,
            Msg::dns(DnsMessage::query(1, name("www.apple.example"))),
        );
        w.run_to_idle();
        // Idling runs past the resolution give-up timer's (no-op) firing,
        // so measure the warm lookup from its own post time.
        let t1 = w.now();
        w.post(
            probe,
            ldns,
            Msg::dns(DnsMessage::query(2, name("www.apple.example"))),
        );
        w.run_to_idle();
        let t2 = w.node::<Probe>(probe).received_at.unwrap();
        // Warm query only pays the client↔LDNS RTT.
        let warm = (t2 - t1).as_millis_f64();
        assert!(warm < 10.0, "warm lookup took {warm}ms");
        assert_eq!(w.node::<LdnsNode>(ldns).cache_hits(), 1);
    }

    #[test]
    fn short_ttl_expires_and_forces_recursion() {
        let (mut w, probe, ldns, _adns, cdn) = testbed();
        w.post(
            probe,
            ldns,
            Msg::dns(DnsMessage::query(1, name("www.apple.example"))),
        );
        w.run_to_idle();
        assert_eq!(w.node::<AuthDnsNode>(cdn).served(), 1);
        // After 25 s the 20 s A record expired but the 300 s CNAME is fresh:
        // resolution goes straight to the CDN DNS, not the site ADNS.
        w.run_until(SimTime::from_secs(25));
        w.post(
            probe,
            ldns,
            Msg::dns(DnsMessage::query(2, name("www.apple.example"))),
        );
        w.run_to_idle();
        assert_eq!(w.node::<AuthDnsNode>(cdn).served(), 2);
        let ldns_node = w.node::<LdnsNode>(ldns);
        assert_eq!(ldns_node.recursions(), 2);
    }

    #[test]
    fn unknown_domain_servfails() {
        let (mut w, probe, ldns, _adns, _cdn) = testbed();
        w.post(
            probe,
            ldns,
            Msg::dns(DnsMessage::query(7, name("nosuch.zone.example"))),
        );
        w.run_to_idle();
        let resp = w.node::<Probe>(probe).last.as_ref().unwrap();
        assert_eq!(resp.header.rcode, Rcode::ServFail);
        assert_eq!(resp.answer_ip(), None);
    }

    #[test]
    fn nxdomain_propagates() {
        let (mut w, probe, ldns, _adns, _cdn) = testbed();
        // apple.example zone exists but the name does not.
        w.post(
            probe,
            ldns,
            Msg::dns(DnsMessage::query(8, name("missing.apple.example"))),
        );
        w.run_to_idle();
        let resp = w.node::<Probe>(probe).last.as_ref().unwrap();
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn longest_suffix_delegation_wins() {
        let mut w = World::new(1);
        let probe = w.add_node("probe", Probe::default());
        let mut coarse = AuthDnsNode::new(SimDuration::ZERO);
        coarse.wildcard(
            name("example"),
            ZoneAnswer::A {
                ip: Ipv4Addr::new(10, 0, 0, 1),
                ttl: 60,
            },
        );
        let coarse_id = w.add_node("coarse", coarse);
        let mut fine = AuthDnsNode::new(SimDuration::ZERO);
        fine.wildcard(
            name("special.example"),
            ZoneAnswer::A {
                ip: Ipv4Addr::new(10, 0, 0, 2),
                ttl: 60,
            },
        );
        let fine_id = w.add_node("fine", fine);
        let ldns = w.add_node(
            "ldns",
            LdnsNode::new(
                SimDuration::ZERO,
                vec![
                    (name("example"), coarse_id),
                    (name("special.example"), fine_id),
                ],
            ),
        );
        for (a, b) in [(probe, ldns), (ldns, coarse_id), (ldns, fine_id)] {
            w.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
        }
        w.post(
            probe,
            ldns,
            Msg::dns(DnsMessage::query(1, name("x.special.example"))),
        );
        w.run_to_idle();
        assert_eq!(
            w.node::<Probe>(probe).last.as_ref().unwrap().answer_ip(),
            Some(Ipv4Addr::new(10, 0, 0, 2))
        );
    }
}
