//! Property tests: arbitrary DNS messages survive encode → decode, and the
//! decoder never panics on arbitrary bytes.

use std::net::Ipv4Addr;

use ape_check::{check, Gen};
use ape_dnswire::{
    CacheFlag, CacheTuple, DnsMessage, DomainName, Header, Question, RData, Rcode, ResourceRecord,
    RrClass, RrType, UrlHash,
};

/// `[a-z0-9_-]`: DNS label characters.
const LABEL: &str = "abcdefghijklmnopqrstuvwxyz0123456789_-";
const FLAGS: [CacheFlag; 4] = [
    CacheFlag::Query,
    CacheFlag::Hit,
    CacheFlag::Miss,
    CacheFlag::Delegation,
];

fn bytes(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<u8> {
    g.vec(len, |g| g.u64() as u8)
}

fn name(g: &mut Gen) -> DomainName {
    let labels = g.vec(1..5, |g| g.string(LABEL, 1..=12));
    DomainName::parse(&labels.join(".")).expect("valid labels")
}

fn tuple(g: &mut Gen) -> CacheTuple {
    CacheTuple::new(UrlHash(g.u64()), g.pick(&FLAGS))
}

fn rdata(g: &mut Gen) -> RData {
    match g.below(4) {
        0 => RData::A(Ipv4Addr::from(g.u64() as u32)),
        1 => RData::Cname(name(g)),
        2 => RData::DnsCache(g.vec(0..8, tuple)),
        _ => {
            // Any code the typed variants do not claim (NS, TXT and OPT
            // among them) travels as opaque bytes.
            let code = loop {
                let code = g.u64() as u16;
                if !matches!(code, 1 | 5 | 300) {
                    break code;
                }
            };
            RData::Other(code, bytes(g, 0..40))
        }
    }
}

fn record(g: &mut Gen) -> ResourceRecord {
    let name = name(g);
    let ttl = g.u64() as u32;
    let rdata = rdata(g);
    let class = match rdata {
        RData::DnsCache(_) => RrClass::CacheResponse,
        _ => RrClass::In,
    };
    ResourceRecord {
        name,
        class,
        ttl,
        rdata,
    }
}

fn message(g: &mut Gen) -> DnsMessage {
    let header = Header {
        id: g.u64() as u16,
        response: g.bool(),
        authoritative: g.bool(),
        truncated: g.bool(),
        recursion_desired: g.bool(),
        recursion_available: g.bool(),
        rcode: Rcode::NoError,
    };
    DnsMessage {
        header,
        questions: g.vec(0..3, |g| Question::new(name(g), RrType::A)),
        answers: g.vec(0..4, record),
        authorities: g.vec(0..2, record),
        additionals: g.vec(0..3, record),
    }
}

#[test]
fn encode_decode_roundtrip() {
    check("encode_decode_roundtrip", 256, |g| {
        let msg = message(g);
        let wire = msg.encode();
        let parsed = DnsMessage::decode(&wire).expect("decode of own encoding");
        assert_eq!(parsed, msg);
    });
}

#[test]
fn decoder_never_panics_on_garbage() {
    check("decoder_never_panics_on_garbage", 256, |g| {
        let _ = DnsMessage::decode(&bytes(g, 0..200));
    });
}

// `wire_len` is arithmetic over field lengths; the encoder is the
// reference, over every `RData` variant.
#[test]
fn wire_len_is_consistent() {
    check("wire_len_is_consistent", 256, |g| {
        let msg = message(g);
        assert_eq!(msg.wire_len(), msg.encode().len());
    });
}

#[test]
fn valid_names_roundtrip_via_display() {
    check("valid_names_roundtrip_via_display", 256, |g| {
        let labels = g.vec(1..5, |g| {
            g.string("abcdefghijklmnopqrstuvwxyz0123456789", 1..=10)
        });
        let name = DomainName::parse(&labels.join(".")).expect("valid");
        let again = DomainName::parse(&name.to_string()).expect("display output reparses");
        assert_eq!(name, again);
    });
}

#[test]
fn mutated_messages_never_panic() {
    check("mutated_messages_never_panic", 256, |g| {
        let mut wire = message(g).encode();
        if !wire.is_empty() {
            let i = g.below(wire.len() as u64) as usize;
            wire[i] ^= 1 << g.range(0u8..8);
            let _ = DnsMessage::decode(&wire);
        }
    });
}
