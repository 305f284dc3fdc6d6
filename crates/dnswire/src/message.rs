//! Full DNS messages (RFC1035 §4) and DNS-Cache query construction helpers.

use std::fmt;
use std::net::Ipv4Addr;

use crate::bytes::{Reader, Writer};
use crate::error::WireError;
use crate::name::DomainName;
use crate::rr::{CacheFlag, CacheTuple, RData, ResourceRecord, RrClass, RrType};

/// Response code (RCODE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rcode {
    /// No error.
    #[default]
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Other code.
    Other(u8),
}

impl Rcode {
    /// 4-bit wire code.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::Other(c) => c & 0x0F,
        }
    }

    /// Parses the 4-bit wire code.
    pub fn from_code(code: u8) -> Self {
        match code & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            c => Rcode::Other(c),
        }
    }
}

/// The fixed 12-byte message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Transaction id chosen by the requester.
    pub id: u16,
    /// True for responses (QR bit).
    pub response: bool,
    /// Authoritative answer.
    pub authoritative: bool,
    /// Truncation flag.
    pub truncated: bool,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Recursion available.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    fn flags_word(&self) -> u16 {
        let mut w = 0u16;
        if self.response {
            w |= 1 << 15;
        }
        if self.authoritative {
            w |= 1 << 10;
        }
        if self.truncated {
            w |= 1 << 9;
        }
        if self.recursion_desired {
            w |= 1 << 8;
        }
        if self.recursion_available {
            w |= 1 << 7;
        }
        w | self.rcode.code() as u16
    }

    fn from_flags_word(id: u16, w: u16) -> Header {
        Header {
            id,
            response: w & (1 << 15) != 0,
            authoritative: w & (1 << 10) != 0,
            truncated: w & (1 << 9) != 0,
            recursion_desired: w & (1 << 8) != 0,
            recursion_available: w & (1 << 7) != 0,
            rcode: Rcode::from_code(w as u8),
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub name: DomainName,
    /// Queried type.
    pub qtype: RrType,
    /// Queried class.
    pub qclass: RrClass,
}

impl Question {
    /// Creates an `IN`-class question.
    pub fn new(name: DomainName, qtype: RrType) -> Self {
        Question {
            name,
            qtype,
            qclass: RrClass::In,
        }
    }

    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        w.u16(self.qtype.code());
        w.u16(self.qclass.code());
    }

    fn wire_len(&self) -> usize {
        self.name.encoded_len() + 4
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Question {
            name: DomainName::decode(r)?,
            qtype: RrType::from_code(r.u16()?),
            qclass: RrClass::from_code(r.u16()?),
        })
    }
}

/// A complete DNS message with all five sections.
///
/// DNS-Cache queries (§IV-B of the paper) are ordinary A-record queries whose
/// *Additional* section carries a [`RrType::DnsCache`] record listing
/// `⟨HASH(URL), FLAG⟩` tuples.
///
/// # Examples
///
/// ```
/// use ape_dnswire::{DnsMessage, UrlHash};
///
/// let query = DnsMessage::dns_cache_request(
///     7,
///     "api.movie.example".parse()?,
///     &[UrlHash::of("http://api.movie.example/id?name=dune")],
/// );
/// let wire = query.encode();
/// let parsed = DnsMessage::decode(&wire)?;
/// assert_eq!(parsed, query);
/// assert_eq!(parsed.cache_request_hashes().count(), 1);
/// # Ok::<(), ape_dnswire::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DnsMessage {
    /// Header fields.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
    /// Authority section.
    pub authorities: Vec<ResourceRecord>,
    /// Additional section (carries DNS-Cache records).
    pub additionals: Vec<ResourceRecord>,
}

impl DnsMessage {
    /// A plain recursive A query for `name`.
    pub fn query(id: u16, name: DomainName) -> Self {
        DnsMessage {
            header: Header {
                id,
                recursion_desired: true,
                ..Header::default()
            },
            questions: vec![Question::new(name, RrType::A)],
            ..DnsMessage::default()
        }
    }

    /// A DNS-Cache request: an A query for `name` whose Additional section
    /// carries the hashed URLs the client wants cache status for.
    pub fn dns_cache_request(id: u16, name: DomainName, url_hashes: &[crate::UrlHash]) -> Self {
        let mut msg = DnsMessage::query(id, name.clone());
        let tuples = url_hashes
            .iter()
            .map(|&h| CacheTuple::new(h, CacheFlag::Query))
            .collect();
        msg.additionals.push(ResourceRecord::new_dns_cache(
            name,
            RrClass::CacheRequest,
            tuples,
        ));
        msg
    }

    /// Builds a response to `query` answering with `ip`/`ttl` and, when
    /// `tuples` is non-empty, a DNS-Cache RESPONSE record in Additional.
    ///
    /// # Panics
    ///
    /// Panics if `query` has no question.
    pub fn dns_cache_response(
        query: &DnsMessage,
        ip: Ipv4Addr,
        ttl: u32,
        tuples: Vec<CacheTuple>,
    ) -> Self {
        let q = query.questions.first().expect("query has a question");
        let mut msg = DnsMessage {
            header: Header {
                id: query.header.id,
                response: true,
                recursion_desired: query.header.recursion_desired,
                recursion_available: true,
                ..Header::default()
            },
            questions: query.questions.clone(),
            answers: vec![ResourceRecord::new(q.name.clone(), ttl, RData::A(ip))],
            ..DnsMessage::default()
        };
        if !tuples.is_empty() {
            msg.additionals.push(ResourceRecord::new_dns_cache(
                q.name.clone(),
                RrClass::CacheResponse,
                tuples,
            ));
        }
        msg
    }

    /// The first question's name, if any.
    pub fn question_name(&self) -> Option<&DomainName> {
        self.questions.first().map(|q| &q.name)
    }

    /// The DNS-Cache REQUEST records' hashes, in order (none unless this is
    /// a DNS-Cache request).
    pub fn cache_request_hashes(&self) -> impl Iterator<Item = crate::UrlHash> + '_ {
        self.additionals
            .iter()
            .filter(|rr| rr.class == RrClass::CacheRequest)
            .flat_map(|rr| match &rr.rdata {
                RData::DnsCache(tuples) => tuples.as_slice(),
                _ => &[],
            })
            .map(|t| t.url_hash)
    }

    /// The tuples of the first DNS-Cache RESPONSE record (the one
    /// [`DnsMessage::dns_cache_response`] adds), or none.
    pub fn cache_response_tuples(&self) -> &[CacheTuple] {
        self.additionals
            .iter()
            .filter(|rr| rr.class == RrClass::CacheResponse)
            .find_map(|rr| match &rr.rdata {
                RData::DnsCache(tuples) => Some(tuples.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// Moves [`DnsMessage::cache_response_tuples`] out of the message,
    /// leaving that record empty: the receiver keeps them without a copy.
    pub fn take_cache_response_tuples(&mut self) -> Vec<CacheTuple> {
        self.additionals
            .iter_mut()
            .filter(|rr| rr.class == RrClass::CacheResponse)
            .find_map(|rr| match &mut rr.rdata {
                RData::DnsCache(tuples) => Some(std::mem::take(tuples)),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Whether any Additional record is a DNS-Cache record.
    pub fn is_dns_cache_query(&self) -> bool {
        self.additionals
            .iter()
            .any(|rr| rr.rtype() == RrType::DnsCache)
    }

    /// The first A answer, if any.
    pub fn answer_ip(&self) -> Option<Ipv4Addr> {
        self.answers.iter().find_map(|rr| match rr.rdata {
            RData::A(ip) => Some(ip),
            _ => None,
        })
    }

    /// The first CNAME answer, if any.
    pub fn answer_cname(&self) -> Option<&DomainName> {
        self.answers.iter().find_map(|rr| match &rr.rdata {
            RData::Cname(n) => Some(n),
            _ => None,
        })
    }

    /// Serializes the message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u16(self.header.id);
        w.u16(self.header.flags_word());
        w.u16(self.questions.len() as u16);
        w.u16(self.answers.len() as u16);
        w.u16(self.authorities.len() as u16);
        w.u16(self.additionals.len() as u16);
        for q in &self.questions {
            q.encode(&mut w);
        }
        for rr in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            rr.encode(&mut w);
        }
        w.into_vec()
    }

    /// Size of the encoded message in bytes: the 12-byte header plus every
    /// entry's own length. The encoder writes no compression pointers, so
    /// the sum is exact.
    pub fn wire_len(&self) -> usize {
        let questions: usize = self.questions.iter().map(Question::wire_len).sum();
        let records: usize = self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
            .map(ResourceRecord::wire_len)
            .sum();
        12 + questions + records
    }

    /// Parses a complete message; trailing bytes are an error.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] variant describing the malformation.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(data);
        let id = r.u16()?;
        let flags = r.u16()?;
        let header = Header::from_flags_word(id, flags);
        let qd = r.u16()? as usize;
        let an = r.u16()? as usize;
        let ns = r.u16()? as usize;
        let ar = r.u16()? as usize;
        // Cheap sanity bound: even an empty record needs 11 bytes.
        if qd + an + ns + ar > data.len() {
            return Err(WireError::BadCount);
        }
        let mut questions = Vec::with_capacity(qd);
        for _ in 0..qd {
            questions.push(Question::decode(&mut r)?);
        }
        let decode_rrs = |count: usize, r: &mut Reader<'_>| {
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                out.push(ResourceRecord::decode(r)?);
            }
            Ok::<_, WireError>(out)
        };
        let answers = decode_rrs(an, &mut r)?;
        let authorities = decode_rrs(ns, &mut r)?;
        let additionals = decode_rrs(ar, &mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(DnsMessage {
            header,
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

impl fmt::Display for DnsMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} id={} q={} an={} ar={}",
            if self.header.response {
                "resp"
            } else {
                "query"
            },
            self.header.id,
            self.questions.len(),
            self.answers.len(),
            self.additionals.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UrlHash;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn plain_query_roundtrip() {
        let q = DnsMessage::query(0x1234, name("www.apple.com"));
        let wire = q.encode();
        let parsed = DnsMessage::decode(&wire).unwrap();
        assert_eq!(parsed, q);
        assert!(!parsed.header.response);
        assert!(parsed.header.recursion_desired);
        assert!(!parsed.is_dns_cache_query());
    }

    #[test]
    fn an_answer_of_unknown_type_keeps_its_code() {
        // A hand-built response whose one answer is TYPE 99: it decodes as
        // `Other(99)` and re-encodes to the same bytes.
        let mut w = Writer::new();
        for word in [0x0042, 0x8180, 0, 1, 0, 0] {
            w.u16(word); // id, flags, then one answer and no other records
        }
        name("x.example").encode(&mut w);
        w.u16(99);
        w.u16(1); // IN
        w.u32(60);
        w.u16(3);
        w.bytes(&[7, 8, 9]);
        let wire = w.into_vec();
        let msg = DnsMessage::decode(&wire).unwrap();
        assert_eq!(msg.answers[0].rtype(), RrType::Other(99));
        assert_eq!(msg.answers[0].rdata, RData::Other(99, vec![7, 8, 9]));
        assert_eq!(msg.encode(), wire);
    }

    #[test]
    fn dns_cache_request_roundtrip() {
        let hashes = [UrlHash::of("http://api/a"), UrlHash::of("http://api/b")];
        let q = DnsMessage::dns_cache_request(9, name("api.example.com"), &hashes);
        let parsed = DnsMessage::decode(&q.encode()).unwrap();
        assert!(parsed.is_dns_cache_query());
        assert!(parsed.cache_request_hashes().eq(hashes));
    }

    #[test]
    fn dns_cache_response_carries_tuples_and_ip() {
        let q = DnsMessage::dns_cache_request(9, name("api.example.com"), &[UrlHash::of("u")]);
        let tuples = vec![
            CacheTuple::new(UrlHash::of("u"), CacheFlag::Hit),
            CacheTuple::new(UrlHash::of("v"), CacheFlag::Delegation),
        ];
        let resp =
            DnsMessage::dns_cache_response(&q, Ipv4Addr::new(10, 0, 0, 2), 30, tuples.clone());
        let mut parsed = DnsMessage::decode(&resp.encode()).unwrap();
        assert!(parsed.header.response);
        assert_eq!(parsed.header.id, 9);
        assert_eq!(parsed.answer_ip(), Some(Ipv4Addr::new(10, 0, 0, 2)));
        assert_eq!(parsed.cache_response_tuples(), tuples);
        assert_eq!(parsed.take_cache_response_tuples(), tuples);
        assert!(parsed.cache_response_tuples().is_empty());
        assert_eq!(parsed.cache_request_hashes().count(), 0);
    }

    #[test]
    fn dummy_ip_response_with_zero_ttl() {
        // The paper's short-circuit: dummy IP with TTL 0 so the client
        // does not cache the fake address.
        let q = DnsMessage::dns_cache_request(1, name("a.b"), &[]);
        let resp = DnsMessage::dns_cache_response(
            &q,
            Ipv4Addr::UNSPECIFIED,
            0,
            vec![CacheTuple::new(UrlHash::of("x"), CacheFlag::Hit)],
        );
        let parsed = DnsMessage::decode(&resp.encode()).unwrap();
        assert_eq!(parsed.answer_ip(), Some(Ipv4Addr::UNSPECIFIED));
        assert_eq!(parsed.answers[0].ttl, 0);
    }

    #[test]
    fn cname_answers_visible() {
        let mut msg = DnsMessage::query(2, name("www.apple.com"));
        msg.header.response = true;
        msg.answers.push(ResourceRecord::new(
            name("www.apple.com"),
            300,
            RData::Cname(name("www.apple.com.edgekey.net")),
        ));
        let parsed = DnsMessage::decode(&msg.encode()).unwrap();
        assert_eq!(
            parsed.answer_cname().unwrap().to_string(),
            "www.apple.com.edgekey.net"
        );
        assert_eq!(parsed.answer_ip(), None);
    }

    #[test]
    fn flags_roundtrip_all_bits() {
        let mut h = Header {
            id: 77,
            response: true,
            authoritative: true,
            truncated: true,
            recursion_desired: true,
            recursion_available: true,
            rcode: Rcode::NxDomain,
        };
        let w = h.flags_word();
        let back = Header::from_flags_word(77, w);
        assert_eq!(back, h);
        h.rcode = Rcode::ServFail;
        assert_ne!(
            Header::from_flags_word(77, h.flags_word()).rcode,
            Rcode::NxDomain
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let q = DnsMessage::query(1, name("x.y"));
        let mut wire = q.encode();
        wire.push(0);
        assert!(matches!(
            DnsMessage::decode(&wire),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(DnsMessage::decode(&[0, 1, 2]), Err(WireError::Truncated));
    }

    #[test]
    fn absurd_counts_rejected() {
        let q = DnsMessage::query(1, name("x.y"));
        let mut wire = q.encode();
        // Overwrite ANCOUNT with a huge value.
        wire[6] = 0xFF;
        wire[7] = 0xFF;
        let err = DnsMessage::decode(&wire).unwrap_err();
        assert!(matches!(err, WireError::BadCount | WireError::Truncated));
    }

    #[test]
    fn wire_len_matches_encode() {
        let q = DnsMessage::dns_cache_request(5, name("a.b.c"), &[UrlHash::of("u")]);
        assert_eq!(q.wire_len(), q.encode().len());
    }

    #[test]
    fn display_mentions_kind() {
        let q = DnsMessage::query(5, name("a.b"));
        assert!(q.to_string().starts_with("query"));
    }

    #[test]
    fn empty_message_roundtrip() {
        let m = DnsMessage::default();
        assert_eq!(DnsMessage::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.question_name(), None);
    }
}
