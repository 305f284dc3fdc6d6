//! The §II-B empirical study (Table I): measuring CDN cache-lookup and
//! cache-retrieval anatomy from three vantage points.
//!
//! The paper probed Akamai-hosted sites (apple.com, microsoft.com,
//! yahoo.com) from Michigan, Tokyo and São Paulo with 100 DNS resolutions,
//! pings and traceroutes per cell. We cannot reach Akamai from a
//! simulation, so each cell gets a mini-Internet whose path parameters are
//! calibrated to the published measurements — and the *measured* values are
//! produced by actually running DNS resolutions (CNAME chase, TTL expiry
//! and all) and TCP handshakes through the simulated stack.

use std::net::Ipv4Addr;

use ape_dnswire::{DnsMessage, DomainName};
use ape_nodes::{AuthDnsNode, CatalogServer, LdnsNode, ZoneAnswer};
use ape_proto::{ConnId, Msg};
use ape_simnet::{Context, LinkSpec, Node, NodeId, SimDuration, SimTime, World};

/// Path calibration for one (vantage point, site) cell.
#[derive(Debug, Clone, Copy)]
pub struct PathSpec {
    /// Vantage-point region name.
    pub region: &'static str,
    /// Probed site.
    pub site: &'static str,
    /// RTT to the local resolver, ms.
    pub ldns_rtt_ms: f64,
    /// RTT from the LDNS to the site's authoritative DNS, ms.
    pub adns_rtt_ms: f64,
    /// RTT from the LDNS to the CDN's DNS, ms.
    pub cdn_dns_rtt_ms: f64,
    /// Hop count to the serving cache (or origin) server.
    pub server_hops: u32,
    /// RTT to the serving server, ms.
    pub server_rtt_ms: f64,
}

/// One row cell of Table I, as measured through the simulation.
#[derive(Debug, Clone)]
pub struct Table1Cell {
    /// Vantage-point region.
    pub region: &'static str,
    /// Probed site.
    pub site: &'static str,
    /// Mean DNS resolution latency over the trials, ms.
    pub dns_resolution_ms: f64,
    /// Mean TCP round-trip time to the serving server, ms.
    pub rtt_ms: f64,
    /// Network hops to the serving server.
    pub hops: u32,
}

/// The nine cells of Table I, calibrated to the paper's measurements.
///
/// São Paulo has no Yahoo replica (the paper's observation): its traffic
/// crosses to a distant origin, and even its CDN DNS resolution leaves the
/// region.
pub fn table1_paths() -> Vec<PathSpec> {
    let cell = |region, site, ldns, adns, cdn, hops, rtt| PathSpec {
        region,
        site,
        ldns_rtt_ms: ldns,
        adns_rtt_ms: adns,
        cdn_dns_rtt_ms: cdn,
        server_hops: hops,
        server_rtt_ms: rtt,
    };
    vec![
        cell("Michigan, US", "Apple", 4.0, 28.0, 12.0, 13, 34.0),
        cell("Michigan, US", "Microsoft", 4.0, 30.0, 13.0, 13, 33.0),
        cell("Michigan, US", "Yahoo", 4.0, 32.0, 15.0, 16, 53.0),
        cell("Tokyo, Japan", "Apple", 4.0, 30.0, 12.0, 7, 22.0),
        cell("Tokyo, Japan", "Microsoft", 5.0, 38.0, 19.0, 10, 27.0),
        cell("Tokyo, Japan", "Yahoo", 5.0, 40.0, 20.0, 13, 93.0),
        cell("São Paulo, Brazil", "Apple", 5.0, 32.0, 13.0, 12, 19.0),
        cell("São Paulo, Brazil", "Microsoft", 5.0, 42.0, 19.0, 10, 19.0),
        // No regional Yahoo replica: every resolution crosses continents.
        cell("São Paulo, Brazil", "Yahoo", 5.0, 240.0, 215.0, 15, 156.0),
    ]
}

/// Probe node recording DNS and TCP handshake completions.
#[derive(Debug, Default)]
struct ProbeNode {
    dns_done: Option<SimTime>,
    syn_ack_done: Option<SimTime>,
}

impl Node<Msg> for ProbeNode {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::Dns(m) if m.header.response => self.dns_done = Some(ctx.now()),
            Msg::TcpSynAck { .. } => self.syn_ack_done = Some(ctx.now()),
            _ => {}
        }
    }
}

/// Measures one Table I cell by running `samples` resolutions and TCP
/// handshakes through a calibrated mini-Internet, spaced 30 s apart so the
/// CDN's 20 s A-record TTL expires between trials (as it does in the wild).
pub fn measure_cell(path: &PathSpec, samples: usize, seed: u64) -> Table1Cell {
    let mut world = World::new(seed);
    let probe = world.add_node("probe", ProbeNode::default());
    let server = world.add_node(
        "cache-server",
        CatalogServer::new(ape_nodes::Catalog::new(), SimDuration::from_micros(200)),
    );

    let site_name: DomainName = format!("www.{}.example", path.site.to_lowercase())
        .parse()
        .expect("valid site name");
    let cdn_name: DomainName = format!("www.{}.example.edgekey.example", path.site.to_lowercase())
        .parse()
        .expect("valid cdn name");
    let server_ip = Ipv4Addr::new(10, 9, 9, 9);

    let mut adns = AuthDnsNode::new(SimDuration::from_micros(300));
    adns.record(
        site_name.clone(),
        ZoneAnswer::Cname {
            target: cdn_name.clone(),
            ttl: 300,
        },
    );
    let adns_id = world.add_node("adns", adns);

    let mut cdn = AuthDnsNode::new(SimDuration::from_micros(300));
    cdn.record(
        cdn_name,
        ZoneAnswer::A {
            ip: server_ip,
            ttl: 20,
        },
    );
    let cdn_id = world.add_node("cdn-dns", cdn);

    let ldns = world.add_node(
        "ldns",
        LdnsNode::new(
            SimDuration::from_micros(200),
            vec![
                (site_name.suffix(2), adns_id),
                ("edgekey.example".parse().expect("static"), cdn_id),
            ],
        ),
    );

    let ms = SimDuration::from_millis_f64;
    world.connect(
        probe,
        ldns,
        LinkSpec::from_rtt(3, ms(path.ldns_rtt_ms)).jitter_mean(ms(path.ldns_rtt_ms * 0.06)),
    );
    world.connect(
        ldns,
        adns_id,
        LinkSpec::from_rtt(11, ms(path.adns_rtt_ms)).jitter_mean(ms(path.adns_rtt_ms * 0.06)),
    );
    world.connect(
        ldns,
        cdn_id,
        LinkSpec::from_rtt(8, ms(path.cdn_dns_rtt_ms)).jitter_mean(ms(path.cdn_dns_rtt_ms * 0.06)),
    );
    world.connect(
        probe,
        server,
        LinkSpec::from_rtt(path.server_hops, ms(path.server_rtt_ms))
            .jitter_mean(ms(path.server_rtt_ms * 0.04)),
    );

    let mut dns_total = 0.0;
    let mut rtt_total = 0.0;
    for trial in 0..samples {
        let start = world.now();
        world.post(
            probe,
            ldns,
            Msg::dns(DnsMessage::query(trial as u16, site_name.clone())),
        );
        world.run_to_idle();
        let dns_done = world
            .node::<ProbeNode>(probe)
            .dns_done
            .expect("dns answered");
        dns_total += (dns_done - start).as_millis_f64();

        let t0 = world.now();
        world.post(
            probe,
            server,
            Msg::TcpSyn {
                conn: ConnId(trial as u64),
            },
        );
        world.run_to_idle();
        let syn_done = world
            .node::<ProbeNode>(probe)
            .syn_ack_done
            .expect("handshake answered");
        rtt_total += (syn_done - t0).as_millis_f64();

        // Space trials so short-TTL records expire, as in the real study.
        let next = world.now() + SimDuration::from_secs(30);
        world.run_until(next);
    }

    Table1Cell {
        region: path.region,
        site: path.site,
        dns_resolution_ms: dns_total / samples as f64,
        rtt_ms: rtt_total / samples as f64,
        hops: path.server_hops,
    }
}

/// Measures the full table.
pub fn measure_table1(samples: usize, seed: u64) -> Vec<Table1Cell> {
    table1_paths()
        .iter()
        .enumerate()
        .map(|(i, p)| measure_cell(p, samples, seed.wrapping_add(i as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn michigan_apple_matches_paper_scale() {
        let paths = table1_paths();
        let cell = measure_cell(&paths[0], 50, 7);
        // Paper: 18 ms DNS, 34 ms RTT, 13 hops.
        assert!(
            (10.0..30.0).contains(&cell.dns_resolution_ms),
            "dns {}",
            cell.dns_resolution_ms
        );
        assert!((30.0..40.0).contains(&cell.rtt_ms), "rtt {}", cell.rtt_ms);
        assert_eq!(cell.hops, 13);
    }

    #[test]
    fn sao_paulo_yahoo_is_the_outlier() {
        let paths = table1_paths();
        let sp_yahoo = measure_cell(&paths[8], 30, 7);
        let sp_apple = measure_cell(&paths[6], 30, 7);
        assert!(
            sp_yahoo.dns_resolution_ms > 5.0 * sp_apple.dns_resolution_ms,
            "yahoo {} vs apple {}",
            sp_yahoo.dns_resolution_ms,
            sp_apple.dns_resolution_ms
        );
        assert!(sp_yahoo.rtt_ms > 100.0);
    }

    #[test]
    fn full_table_has_nine_cells() {
        let table = measure_table1(5, 1);
        assert_eq!(table.len(), 9);
        // Average DNS resolution across cells lands in the tens of ms
        // (paper: 22 ms average excluding the São Paulo outlier).
        let non_outlier_mean: f64 =
            table[..8].iter().map(|c| c.dns_resolution_ms).sum::<f64>() / 8.0;
        assert!(
            (10.0..35.0).contains(&non_outlier_mean),
            "mean {non_outlier_mean}"
        );
    }
}
