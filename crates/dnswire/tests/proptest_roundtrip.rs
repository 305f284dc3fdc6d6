//! Property tests: arbitrary DNS messages survive encode → decode, and the
//! decoder never panics on arbitrary bytes.

use std::net::Ipv4Addr;

use ape_check::{check, Gen, PRINTABLE};
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
    match g.below(6) {
        0 => RData::A(Ipv4Addr::from(g.u64() as u32)),
        1 => RData::Cname(name(g)),
        2 => RData::Ns(name(g)),
        3 => RData::Txt(g.string(PRINTABLE, 0..=60)),
        4 => RData::Opt(bytes(g, 0..40)),
        _ => RData::DnsCache(g.vec(0..8, tuple)),
    }
}

/// Payloads the roundtrip cannot carry — text past the 255-byte
/// character-string limit is truncated on encode — but whose encoded size
/// `wire_len` must still predict, plus the opaque `Other` payload.
fn lossy_rdata(g: &mut Gen) -> RData {
    if g.bool() {
        RData::Txt(g.string(PRINTABLE, 200..=400))
    } else {
        RData::Other(bytes(g, 0..40))
    }
}

fn record(g: &mut Gen, rdata: fn(&mut Gen) -> RData) -> ResourceRecord {
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
        answers: g.vec(0..4, |g| record(g, rdata)),
        authorities: g.vec(0..2, |g| record(g, rdata)),
        additionals: g.vec(0..3, |g| record(g, rdata)),
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
        let mut msg = message(g);
        let lossy = g.vec(0..3, |g| record(g, lossy_rdata));
        msg.additionals.extend(lossy);
        assert_eq!(msg.wire_len(), msg.encode().len());
    });
}

// Names order as their label vectors do, whatever the storage:
// `BTreeMap<DomainName, _>` iteration feeds the run fingerprints. The
// tiny alphabet makes shared prefixes — and `-` (which sorts below the
// `.` separator as a byte) against a label end — common.
#[test]
fn names_order_label_wise() {
    check("names_order_label_wise", 256, |g| {
        let a = g.vec(0..4, |g| g.string("ab-", 1..=3));
        let b = g.vec(0..4, |g| g.string("ab-", 1..=3));
        let parse = |labels: &[String]| DomainName::parse(&labels.join(".")).expect("valid labels");
        assert_eq!(parse(&a).cmp(&parse(&b)), a.cmp(&b));
        assert_eq!(parse(&a) == parse(&b), a == b);
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
