//! Per-layer kernels: timed calls into each crate's public functions, on
//! inputs taken from the workload's own suite, catalog and configuration.
//!
//! A kernel answers "what does this layer cost per operation, alone?", so a
//! later change to one layer can be read here before it is looked for in the
//! end-to-end numbers. Each kernel is one span.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use ape_appdag::AppSpec;
use ape_cachealg::{CacheManager, CacheStore, EvictionPolicy, LruPolicy, ObjectMeta, PacmPolicy};
use ape_dnswire::{CacheFlag, CacheTuple, DnsMessage, DomainName, UrlHash};
use ape_httpsim::{Body, HttpRequest, HttpResponse, Url};
use ape_nodes::ApPolicy;
use ape_proto::{ConnId, Msg, RequestId};
use ape_simnet::{
    event_footprint, Context, LinkSpec, Message, Node, NodeId, SimDuration, SimRng, SimTime, World,
};
use ape_workload::{generate_roam_schedule, generate_schedule, RoamConfig, ZipfSampler};
use apecache::{grid_neighbors, System, TestbedConfig};

use crate::spans::Spans;
use crate::workloads::{Workload, CITY_CLIENTS_PER_AP, CITY_ROAMS_PER_MINUTE};

/// Host time a calibrated kernel loop aims to fill.
const KERNEL_TARGET_S: f64 = 0.05;

/// Tokens the bare-forwarding kernel bounces.
const BOUNCE_TOKENS: u64 = 1_000_000;

/// Grid the roam-walk kernel draws on: the city workload's, on every
/// workload (over each workload's own schedule span).
const ROAM_KERNEL_APS: usize = 256;

/// Trial index on every kernel span: kernels belong to the traced trial 0.
const KERNEL_TRIAL: u32 = 0;

/// `(metric name, value)` pairs, in report order.
pub type KernelResults = Vec<(&'static str, f64)>;

/// Mean host nanoseconds per call of `op`, as one span named `name`: the
/// batch doubles until it fills [`KERNEL_TARGET_S`], and the last batch is
/// the measurement.
fn ns_per_op(spans: &mut Spans, name: &'static str, mut op: impl FnMut()) -> f64 {
    let span = spans.enter(name, KERNEL_TRIAL);
    let mut iters = 1u64;
    let per_op = loop {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed >= KERNEL_TARGET_S {
            break elapsed * 1e9 / iters as f64;
        }
        iters *= 2;
    };
    spans.exit(span);
    per_op
}

/// [`ns_per_op`] over `items` in rotation: one call of `op` per item.
///
/// # Panics
///
/// Panics if `items` is empty — every suite has apps, objects and domains.
fn ns_per_item<T>(
    spans: &mut Spans,
    name: &'static str,
    items: &[T],
    mut op: impl FnMut(&T),
) -> f64 {
    let mut next = items.iter().cycle();
    ns_per_op(spans, name, || {
        op(next.next().expect("kernel input is not empty"));
    })
}

/// A 16-byte message that counts down as it bounces.
#[derive(Debug)]
struct Token {
    left: u64,
    _pad: u64,
}

impl Message for Token {
    fn wire_size(&self) -> usize {
        16
    }
}

/// Sends every token straight back until its count runs out.
struct Bouncer;

impl Node<Token> for Bouncer {
    fn on_message(&mut self, ctx: &mut Context<'_, Token>, from: NodeId, msg: Token) {
        if msg.left > 0 {
            ctx.send(
                from,
                Token {
                    left: msg.left - 1,
                    _pad: 0,
                },
            );
        }
    }
}

/// Bare forwarding: host ns per event when nodes do nothing but resend.
fn bounce(spans: &mut Spans, seed: u64) -> f64 {
    let mut world = World::new(seed);
    let a = world.add_node("a", Bouncer);
    let b = world.add_node("b", Bouncer);
    world.connect(a, b, LinkSpec::new(1, SimDuration::from_millis(1)));
    world.post(
        a,
        b,
        Token {
            left: BOUNCE_TOKENS - 1,
            _pad: 0,
        },
    );
    let (report, wall_s) = spans.time("simnet.bounce", KERNEL_TRIAL, || world.run_to_idle());
    assert_eq!(report.events, BOUNCE_TOKENS, "bounce kernel lost a token");
    wall_s * 1e9 / report.events as f64
}

/// Every cacheable object the suite can request — one entry per URL
/// variant — as the AP would admit it at `now`.
fn catalog(apps: &[AppSpec], now: SimTime) -> Vec<ObjectMeta> {
    let mut metas = Vec::new();
    for app in apps {
        for (_, obj) in app.dag().iter() {
            for variant in 0..app.variants() {
                metas.push(ObjectMeta {
                    key: obj.url.with_query(format!("v={variant}")).hash(),
                    app: app.id(),
                    size: obj.size,
                    priority: obj.priority,
                    expires_at: now + obj.ttl,
                    fetch_latency: obj.remote_latency,
                });
            }
        }
    }
    metas
}

/// `CacheManager::admit` under pressure: the store starts full of the
/// workload's catalog and every call admits the next catalog object.
fn admit_us<P: EvictionPolicy>(spans: &mut Spans, config: &TestbedConfig, policy: P) -> f64 {
    let now = SimTime::from_secs(61);
    let metas = catalog(&config.apps, now);
    let store = CacheStore::new(config.ap.cache_capacity, config.ap.block_threshold);
    let mut manager = CacheManager::new(store, policy);
    for meta in &metas {
        manager.note_request(meta.app);
    }
    manager.roll_window(SimTime::from_secs(60));
    for meta in &metas {
        black_box(manager.admit(meta.clone(), now));
    }
    ns_per_item(spans, "cachealg.admit", &metas, |meta| {
        black_box(manager.admit(meta.clone(), now));
    }) / 1e3
}

/// `CacheStore::lookup` over the whole catalog on a store filled from it
/// (hits for what fitted, absences for the rest).
fn lookup_ns(spans: &mut Spans, config: &TestbedConfig) -> f64 {
    let now = SimTime::from_secs(61);
    let metas = catalog(&config.apps, now);
    let mut store = CacheStore::new(config.ap.cache_capacity, config.ap.block_threshold);
    for meta in &metas {
        if meta.size <= store.free() && !store.exceeds_block_threshold(meta.size) {
            store.insert(meta.clone(), now);
        }
    }
    ns_per_item(spans, "cachealg.lookup", &metas, |meta| {
        black_box(store.lookup(meta.key, now));
    })
}

/// The suite's domains, each with the hashes of the URLs under it.
fn domains(apps: &[AppSpec]) -> Vec<(DomainName, Vec<UrlHash>)> {
    let mut out: Vec<(DomainName, Vec<UrlHash>)> = Vec::new();
    for app in apps {
        for (_, obj) in app.dag().iter() {
            let url = obj.url.with_query("v=0");
            match out.iter_mut().find(|(d, _)| d == url.host()) {
                Some((_, hashes)) => hashes.push(url.hash()),
                None => out.push((url.host().clone(), vec![url.hash()])),
            }
        }
    }
    out
}

/// DNS-Cache codec: per domain, the client's one-hash request and the AP's
/// response carrying a flag for every URL under the domain.
fn dnswire(spans: &mut Spans, config: &TestbedConfig, out: &mut KernelResults) {
    let domains = domains(&config.apps);
    let build = |i: usize| -> (DnsMessage, DnsMessage) {
        let (domain, hashes) = &domains[i % domains.len()];
        let query = DnsMessage::dns_cache_request(i as u16, domain.clone(), &hashes[..1]);
        let tuples = hashes
            .iter()
            .map(|h| CacheTuple::new(*h, CacheFlag::Hit))
            .collect();
        let response =
            DnsMessage::dns_cache_response(&query, Ipv4Addr::new(10, 0, 0, 2), 30, tuples);
        (query, response)
    };
    let messages: Vec<DnsMessage> = (0..domains.len())
        .flat_map(|i| {
            let (query, response) = build(i);
            [query, response]
        })
        .collect();
    let wires: Vec<Vec<u8>> = messages.iter().map(DnsMessage::encode).collect();

    let mut i = 0usize;
    let build_ns = ns_per_op(spans, "dnswire.build", || {
        black_box(build(i));
        i += 1;
    }) / 2.0;
    let wire_len_ns = ns_per_item(spans, "dnswire.wire_len", &messages, |m| {
        black_box(m.wire_len());
    });
    let encode_ns = ns_per_item(spans, "dnswire.encode", &messages, |m| {
        black_box(m.encode());
    });
    let decode_ns = ns_per_item(spans, "dnswire.decode", &wires, |wire| {
        black_box(DnsMessage::decode(wire).expect("own encoding decodes"));
    });
    out.push(("dnswire.build_ns_per_msg", build_ns));
    out.push(("dnswire.wire_len_ns", wire_len_ns));
    out.push(("dnswire.encode_ns_per_msg", encode_ns));
    out.push(("dnswire.decode_ns_per_msg", decode_ns));
}

/// One message of each kind a fetch puts on the wire, per suite object.
fn message_mix(apps: &[AppSpec]) -> Vec<Msg> {
    let mut mix = Vec::new();
    for (i, (domain, hashes)) in domains(apps).into_iter().enumerate() {
        mix.push(Msg::dns(DnsMessage::dns_cache_request(
            i as u16,
            domain,
            &hashes[..1],
        )));
    }
    for (i, app) in apps.iter().enumerate() {
        for (_, obj) in app.dag().iter() {
            let (conn, req) = (ConnId(i as u64), RequestId(i as u64));
            mix.push(Msg::TcpSyn { conn });
            mix.push(Msg::http_req(
                conn,
                req,
                HttpRequest::get(obj.url.with_query("v=0")),
                None,
            ));
            mix.push(Msg::HttpRsp {
                conn,
                req,
                response: HttpResponse::ok(Body::synthetic(obj.size)),
                from_cache: true,
            });
        }
    }
    mix
}

/// Runs every kernel for `workload` and returns the kernel-backed
/// per-layer metrics.
pub fn run_kernels(
    workload: &Workload,
    config: &TestbedConfig,
    seed: u64,
    spans: &mut Spans,
) -> KernelResults {
    let root = spans.enter("kernels", KERNEL_TRIAL);
    let mut out = KernelResults::new();

    out.push(("simnet.bounce_ns_per_event", bounce(spans, seed)));

    let policy = match workload.system {
        System::ApeCache => config.ap.policy,
        _ => ApPolicy::Lru,
    };
    let admit = match policy {
        ApPolicy::Pacm => admit_us(spans, config, PacmPolicy::new(config.ap.pacm)),
        ApPolicy::PacmNoFairness => admit_us(
            spans,
            config,
            PacmPolicy::new(config.ap.pacm).without_fairness(),
        ),
        ApPolicy::Lru => admit_us(spans, config, LruPolicy::new()),
    };
    out.push(("cachealg.admit_us", admit));
    out.push(("cachealg.lookup_ns", lookup_ns(spans, config)));

    dnswire(spans, config, &mut out);

    let urls: Vec<String> = config
        .apps
        .iter()
        .flat_map(|app| app.dag().iter().map(|(_, obj)| obj.url.to_string()))
        .collect();
    let url_parse_ns = ns_per_item(spans, "httpsim.url_parse", &urls, |url| {
        black_box(Url::parse(url).expect("suite urls parse"));
    });
    out.push(("httpsim.url_parse_ns", url_parse_ns));

    out.push(("proto.event_bytes", event_footprint::<Msg>() as f64));
    let mix = message_mix(&config.apps);
    let msg_clone_ns = ns_per_item(spans, "proto.msg_clone", &mix, |msg| {
        black_box(msg.clone());
    });
    out.push(("proto.msg_clone_ns", msg_clone_ns));

    let suite_build_ns = ns_per_op(spans, "appdag.suite_build", || {
        black_box(workload.suite());
    });
    out.push(("appdag.suite_build_ms", suite_build_ns / 1e6));
    let critical_path_ns = ns_per_item(spans, "appdag.critical_path", &config.apps, |app| {
        black_box(app.dag().critical_path());
    });
    out.push(("appdag.critical_path_ns_per_app", critical_path_ns));

    let schedule_gen_ns = ns_per_op(spans, "workload.schedule_gen", || {
        let mut rng = SimRng::seed_from(seed);
        black_box(generate_schedule(&config.schedule, &mut rng));
    });
    out.push(("workload.schedule_gen_ms", schedule_gen_ns / 1e6));
    let adjacency = grid_neighbors(ROAM_KERNEL_APS);
    let roam = RoamConfig {
        per_client_per_minute: CITY_ROAMS_PER_MINUTE,
        duration: config.schedule.duration,
    };
    let roam_gen_ns = ns_per_op(spans, "workload.roam_gen", || {
        for client in 0..ROAM_KERNEL_APS * CITY_CLIENTS_PER_AP {
            let mut rng = SimRng::seed_from(seed ^ client as u64);
            let home = client / CITY_CLIENTS_PER_AP;
            black_box(generate_roam_schedule(&adjacency, home, &roam, &mut rng));
        }
    });
    out.push(("workload.roam_gen_ms", roam_gen_ns / 1e6));
    let zipf = ZipfSampler::new(config.schedule.apps, config.schedule.zipf_exponent);
    let mut rng = SimRng::seed_from(seed);
    let zipf_ns = ns_per_op(spans, "workload.zipf", || {
        black_box(zipf.sample(&mut rng));
    });
    out.push(("workload.zipf_ns_per_sample", zipf_ns));

    spans.exit(root);
    out
}
