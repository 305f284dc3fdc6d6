//! Property tests: arbitrary DNS messages survive encode → decode, and the
//! decoder never panics on arbitrary bytes.

use std::net::Ipv4Addr;

use ape_dnswire::{
    CacheFlag, CacheTuple, DnsMessage, DomainName, Header, Question, RData, Rcode, ResourceRecord,
    RrClass, RrType, UrlHash,
};
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9_-]{1,12}").expect("valid regex")
}

fn arb_name() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| DomainName::parse(&labels.join(".")).expect("valid labels"))
}

fn arb_flag() -> impl Strategy<Value = CacheFlag> {
    prop_oneof![
        Just(CacheFlag::Query),
        Just(CacheFlag::Hit),
        Just(CacheFlag::Miss),
        Just(CacheFlag::Delegation),
    ]
}

fn arb_tuple() -> impl Strategy<Value = CacheTuple> {
    (any::<u64>(), arb_flag()).prop_map(|(h, f)| CacheTuple::new(UrlHash(h), f))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        proptest::string::string_regex("[ -~]{0,60}")
            .expect("valid regex")
            .prop_map(RData::Txt),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(RData::Opt),
        proptest::collection::vec(arb_tuple(), 0..8).prop_map(RData::DnsCache),
    ]
}

/// Payloads the roundtrip cannot carry — text past the 255-byte
/// character-string limit is truncated on encode — but whose encoded size
/// `wire_len` must still predict, plus the opaque `Other` payload.
fn arb_lossy_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        proptest::string::string_regex("[ -~]{200,400}")
            .expect("valid regex")
            .prop_map(RData::Txt),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(RData::Other),
    ]
}

fn arb_record() -> impl Strategy<Value = ResourceRecord> {
    arb_record_of(arb_rdata())
}

fn arb_record_of(rdata: impl Strategy<Value = RData>) -> impl Strategy<Value = ResourceRecord> {
    (arb_name(), any::<u32>(), rdata).prop_map(|(name, ttl, rdata)| {
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
    })
}

fn arb_question() -> impl Strategy<Value = Question> {
    arb_name().prop_map(|n| Question::new(n, RrType::A))
}

fn arb_header() -> impl Strategy<Value = Header> {
    (
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(id, response, aa, tc, rd, ra)| Header {
            id,
            response,
            authoritative: aa,
            truncated: tc,
            recursion_desired: rd,
            recursion_available: ra,
            rcode: Rcode::NoError,
        })
}

fn arb_message() -> impl Strategy<Value = DnsMessage> {
    (
        arb_header(),
        proptest::collection::vec(arb_question(), 0..3),
        proptest::collection::vec(arb_record(), 0..4),
        proptest::collection::vec(arb_record(), 0..2),
        proptest::collection::vec(arb_record(), 0..3),
    )
        .prop_map(
            |(header, questions, answers, authorities, additionals)| DnsMessage {
                header,
                questions,
                answers,
                authorities,
                additionals,
            },
        )
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(msg in arb_message()) {
        let wire = msg.encode();
        let parsed = DnsMessage::decode(&wire).expect("decode of own encoding");
        prop_assert_eq!(parsed, msg);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = DnsMessage::decode(&bytes);
    }

    // `wire_len` is arithmetic over field lengths; the encoder is the
    // reference, over every `RData` variant.
    #[test]
    fn wire_len_is_consistent(
        msg in arb_message(),
        lossy in proptest::collection::vec(arb_record_of(arb_lossy_rdata()), 0..3),
    ) {
        let mut msg = msg;
        msg.additionals.extend(lossy);
        prop_assert_eq!(msg.wire_len(), msg.encode().len());
    }

    // Names order as their label vectors do, whatever the storage:
    // `BTreeMap<DomainName, _>` iteration feeds the run fingerprints. The
    // tiny alphabet makes shared prefixes — and `-` (which sorts below the
    // `.` separator as a byte) against a label end — common.
    #[test]
    fn names_order_label_wise(
        a in proptest::collection::vec("[ab-]{1,3}", 0..4),
        b in proptest::collection::vec("[ab-]{1,3}", 0..4),
    ) {
        let parse = |labels: &[String]| DomainName::parse(&labels.join(".")).expect("valid labels");
        prop_assert_eq!(parse(&a).cmp(&parse(&b)), a.cmp(&b));
        prop_assert_eq!(parse(&a) == parse(&b), a == b);
    }

    #[test]
    fn valid_names_roundtrip_via_display(labels in proptest::collection::vec("[a-z0-9]{1,10}", 1..5)) {
        let text = labels.join(".");
        let name = DomainName::parse(&text).expect("valid");
        let again = DomainName::parse(&name.to_string()).expect("display output reparses");
        prop_assert_eq!(name, again);
    }

    #[test]
    fn mutated_messages_never_panic(msg in arb_message(), idx in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut wire = msg.encode();
        if !wire.is_empty() {
            let i = idx.index(wire.len());
            wire[i] ^= 1 << bit;
            let _ = DnsMessage::decode(&wire);
        }
    }
}
