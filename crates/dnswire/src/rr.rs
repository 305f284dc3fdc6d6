//! Resource records: types, classes, RDATA variants — including the paper's
//! DNS-Cache record (TYPE 300).

use std::fmt;
use std::net::Ipv4Addr;

use crate::bytes::{Reader, Writer};
use crate::error::WireError;
use crate::hash::UrlHash;
use crate::name::DomainName;

/// Record type code. The paper assigns the unused value **300** to its
/// "DNS-Cache" record (§IV-B, Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrType {
    /// IPv4 address record.
    A,
    /// Canonical name (alias) record.
    Cname,
    /// APE-CACHE's DNS-Cache record, TYPE = 300.
    DnsCache,
    /// Any other type, kept as its raw code.
    Other(u16),
}

impl RrType {
    /// Wire code of this type.
    pub fn code(self) -> u16 {
        match self {
            RrType::A => 1,
            RrType::Cname => 5,
            RrType::DnsCache => 300,
            RrType::Other(c) => c,
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: u16) -> Self {
        match code {
            1 => RrType::A,
            5 => RrType::Cname,
            300 => RrType::DnsCache,
            c => RrType::Other(c),
        }
    }
}

impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrType::A => write!(f, "A"),
            RrType::Cname => write!(f, "CNAME"),
            RrType::DnsCache => write!(f, "DNS-CACHE"),
            RrType::Other(c) => write!(f, "TYPE{c}"),
        }
    }
}

/// Record class. Standard queries use `IN`; the paper overloads the CLASS
/// field of DNS-Cache records to mark the direction of the piggybacked
/// lookup: `REQUEST` (client → AP) or `RESPONSE` (AP → client). We place
/// those in the private-use range (0xFF01/0xFF02) so they cannot collide
/// with IANA-assigned classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrClass {
    /// The Internet class.
    In,
    /// DNS-Cache lookup request (client → AP).
    CacheRequest,
    /// DNS-Cache lookup response (AP → client).
    CacheResponse,
    /// Any other class, kept as its raw code.
    Other(u16),
}

impl RrClass {
    /// Wire code of this class.
    pub fn code(self) -> u16 {
        match self {
            RrClass::In => 1,
            RrClass::CacheRequest => 0xFF01,
            RrClass::CacheResponse => 0xFF02,
            RrClass::Other(c) => c,
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: u16) -> Self {
        match code {
            1 => RrClass::In,
            0xFF01 => RrClass::CacheRequest,
            0xFF02 => RrClass::CacheResponse,
            c => RrClass::Other(c),
        }
    }
}

impl fmt::Display for RrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrClass::In => write!(f, "IN"),
            RrClass::CacheRequest => write!(f, "REQUEST"),
            RrClass::CacheResponse => write!(f, "RESPONSE"),
            RrClass::Other(c) => write!(f, "CLASS{c}"),
        }
    }
}

/// Per-URL cache status carried in a DNS-Cache tuple (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheFlag {
    /// Unknown to the requester; used in REQUEST tuples.
    Query,
    /// Object is cached on the AP and can be fetched directly.
    Hit,
    /// Object is not on the AP and the AP will not serve it (block-listed);
    /// fetch from the edge.
    Miss,
    /// Object is not cached but the AP will delegate the fetch.
    Delegation,
}

impl CacheFlag {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            CacheFlag::Query => 0,
            CacheFlag::Hit => 1,
            CacheFlag::Miss => 2,
            CacheFlag::Delegation => 3,
        }
    }

    /// Parses a wire code.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadRdata`] for unknown codes.
    pub fn from_code(code: u8) -> Result<Self, WireError> {
        match code {
            0 => Ok(CacheFlag::Query),
            1 => Ok(CacheFlag::Hit),
            2 => Ok(CacheFlag::Miss),
            3 => Ok(CacheFlag::Delegation),
            _ => Err(WireError::BadRdata("unknown cache flag")),
        }
    }
}

impl fmt::Display for CacheFlag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheFlag::Query => write!(f, "Query"),
            CacheFlag::Hit => write!(f, "Cache-Hit"),
            CacheFlag::Miss => write!(f, "Cache-Miss"),
            CacheFlag::Delegation => write!(f, "Delegation"),
        }
    }
}

/// One `⟨HASH(URL), FLAG⟩` tuple from DNS-Cache RDATA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheTuple {
    /// Stable hash of the object URL.
    pub url_hash: UrlHash,
    /// Cache status (or [`CacheFlag::Query`] in requests).
    pub flag: CacheFlag,
}

impl CacheTuple {
    /// Creates a tuple.
    pub fn new(url_hash: UrlHash, flag: CacheFlag) -> Self {
        CacheTuple { url_hash, flag }
    }

    const WIRE_LEN: usize = 9;

    fn encode(&self, w: &mut Writer) {
        w.u64(self.url_hash.get());
        w.u8(self.flag.code());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let hash = r.u64()?;
        let flag = CacheFlag::from_code(r.u8()?)?;
        Ok(CacheTuple::new(UrlHash(hash), flag))
    }
}

/// RDATA payload of a resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// Alias target.
    Cname(DomainName),
    /// DNS-Cache tuple list.
    DnsCache(Vec<CacheTuple>),
    /// The uninterpreted RDATA of any other type, with that type's code
    /// (one that no variant above claims, or the record decodes as that
    /// variant).
    Other(u16, Vec<u8>),
}

impl RData {
    /// The record type this payload belongs to.
    pub fn rtype(&self) -> RrType {
        match self {
            RData::A(_) => RrType::A,
            RData::Cname(_) => RrType::Cname,
            RData::DnsCache(_) => RrType::DnsCache,
            RData::Other(code, _) => RrType::Other(*code),
        }
    }

    fn encode(&self, w: &mut Writer) {
        match self {
            RData::A(ip) => w.bytes(&ip.octets()),
            RData::Cname(n) => n.encode(w),
            RData::Other(_, bytes) => w.bytes(bytes),
            RData::DnsCache(tuples) => {
                for t in tuples {
                    t.encode(w);
                }
            }
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            RData::A(_) => 4,
            RData::Cname(n) => n.encoded_len(),
            RData::Other(_, bytes) => bytes.len(),
            RData::DnsCache(tuples) => tuples.len() * CacheTuple::WIRE_LEN,
        }
    }

    fn decode(rtype: RrType, rdlength: usize, r: &mut Reader<'_>) -> Result<Self, WireError> {
        let end = r.pos() + rdlength;
        if r.remaining() < rdlength {
            return Err(WireError::Truncated);
        }
        let data = match rtype {
            RrType::A => {
                if rdlength != 4 {
                    return Err(WireError::BadRdata("A rdlength != 4"));
                }
                let b = r.take(4)?;
                RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RrType::Cname => RData::Cname(DomainName::decode(r)?),
            RrType::DnsCache => {
                if !rdlength.is_multiple_of(CacheTuple::WIRE_LEN) {
                    return Err(WireError::BadRdata("cache rdata not multiple of 9"));
                }
                let count = rdlength / CacheTuple::WIRE_LEN;
                let mut tuples = Vec::with_capacity(count);
                for _ in 0..count {
                    tuples.push(CacheTuple::decode(r)?);
                }
                RData::DnsCache(tuples)
            }
            RrType::Other(code) => RData::Other(code, r.take(rdlength)?.to_vec()),
        };
        if r.pos() != end {
            return Err(WireError::BadRdata("rdlength mismatch"));
        }
        Ok(data)
    }
}

/// A full resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Owner name.
    pub name: DomainName,
    /// Record class.
    pub class: RrClass,
    /// Time-to-live in seconds.
    pub ttl: u32,
    /// Typed payload; the record's TYPE derives from this.
    pub rdata: RData,
}

impl ResourceRecord {
    /// Creates an `IN`-class record.
    pub fn new(name: DomainName, ttl: u32, rdata: RData) -> Self {
        ResourceRecord {
            name,
            class: RrClass::In,
            ttl,
            rdata,
        }
    }

    /// Creates a DNS-Cache record with the given direction class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not `CacheRequest`/`CacheResponse` or the rdata
    /// is not [`RData::DnsCache`] — those combinations never appear on the
    /// wire and indicate a construction bug.
    pub fn new_dns_cache(name: DomainName, class: RrClass, tuples: Vec<CacheTuple>) -> Self {
        assert!(
            matches!(class, RrClass::CacheRequest | RrClass::CacheResponse),
            "DNS-Cache records use REQUEST/RESPONSE classes"
        );
        ResourceRecord {
            name,
            class,
            ttl: 0,
            rdata: RData::DnsCache(tuples),
        }
    }

    /// The record's TYPE.
    pub fn rtype(&self) -> RrType {
        self.rdata.rtype()
    }

    pub(crate) fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        w.u16(self.rtype().code());
        w.u16(self.class.code());
        w.u32(self.ttl);
        let len_pos = w.len();
        w.u16(0); // RDLENGTH patched below
        let start = w.len();
        self.rdata.encode(w);
        let rdlength = w.len() - start;
        w.patch_u16(len_pos, rdlength as u16);
    }

    /// Encoded size: name, the 10 fixed bytes (TYPE, CLASS, TTL,
    /// RDLENGTH) and the RDATA.
    pub(crate) fn wire_len(&self) -> usize {
        self.name.encoded_len() + 10 + self.rdata.wire_len()
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = DomainName::decode(r)?;
        let rtype = RrType::from_code(r.u16()?);
        let class = RrClass::from_code(r.u16()?);
        let ttl = r.u32()?;
        let rdlength = r.u16()? as usize;
        let rdata = RData::decode(rtype, rdlength, r)?;
        Ok(ResourceRecord {
            name,
            class,
            ttl,
            rdata,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn roundtrip(rr: &ResourceRecord) -> ResourceRecord {
        let mut w = Writer::new();
        rr.encode(&mut w);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        let out = ResourceRecord::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        out
    }

    #[test]
    fn type_codes_roundtrip() {
        for t in [
            RrType::A,
            RrType::Cname,
            RrType::DnsCache,
            RrType::Other(999),
        ] {
            assert_eq!(RrType::from_code(t.code()), t);
        }
        assert_eq!(RrType::DnsCache.code(), 300);
    }

    #[test]
    fn class_codes_roundtrip() {
        for c in [
            RrClass::In,
            RrClass::CacheRequest,
            RrClass::CacheResponse,
            RrClass::Other(77),
        ] {
            assert_eq!(RrClass::from_code(c.code()), c);
        }
    }

    #[test]
    fn cache_flag_codes() {
        for f in [
            CacheFlag::Query,
            CacheFlag::Hit,
            CacheFlag::Miss,
            CacheFlag::Delegation,
        ] {
            assert_eq!(CacheFlag::from_code(f.code()).unwrap(), f);
        }
        assert!(CacheFlag::from_code(9).is_err());
    }

    #[test]
    fn a_record_roundtrip() {
        let rr = ResourceRecord::new(
            name("www.apple.com"),
            60,
            RData::A(Ipv4Addr::new(23, 4, 5, 6)),
        );
        assert_eq!(roundtrip(&rr), rr);
        assert_eq!(rr.rtype(), RrType::A);
    }

    #[test]
    fn cname_record_roundtrip() {
        let rr = ResourceRecord::new(
            name("www.apple.com"),
            300,
            RData::Cname(name("www.apple.com.edgekey.net")),
        );
        assert_eq!(roundtrip(&rr), rr);
    }

    #[test]
    fn txt_record_roundtrip() {
        // TXT has no typed variant: it travels as its code and raw bytes.
        let text = b"\x0bhello world".to_vec();
        let rr = ResourceRecord::new(name("x.y"), 0, RData::Other(16, text));
        assert_eq!(roundtrip(&rr), rr);
        assert_eq!(rr.rtype(), RrType::Other(16));
    }

    #[test]
    fn dns_cache_record_roundtrip() {
        let tuples = vec![
            CacheTuple::new(UrlHash::of("http://a/1"), CacheFlag::Hit),
            CacheTuple::new(UrlHash::of("http://a/2"), CacheFlag::Delegation),
            CacheTuple::new(UrlHash::of("http://a/3"), CacheFlag::Miss),
        ];
        let rr = ResourceRecord::new_dns_cache(name("a"), RrClass::CacheResponse, tuples.clone());
        let out = roundtrip(&rr);
        assert_eq!(out, rr);
        match out.rdata {
            RData::DnsCache(ts) => assert_eq!(ts, tuples),
            other => panic!("wrong rdata {other:?}"),
        }
    }

    #[test]
    fn empty_cache_record_is_valid() {
        let rr = ResourceRecord::new_dns_cache(name("a"), RrClass::CacheRequest, Vec::new());
        assert_eq!(roundtrip(&rr), rr);
    }

    #[test]
    #[should_panic(expected = "REQUEST/RESPONSE")]
    fn dns_cache_with_in_class_panics() {
        let _ = ResourceRecord::new_dns_cache(name("a"), RrClass::In, Vec::new());
    }

    #[test]
    fn bad_cache_rdata_length_rejected() {
        // Hand-encode a DNS-Cache record with RDLENGTH 8 (not multiple of 9).
        let mut w = Writer::new();
        name("a").encode(&mut w);
        w.u16(300);
        w.u16(RrClass::CacheRequest.code());
        w.u32(0);
        w.u16(8);
        w.u64(42);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert!(matches!(
            ResourceRecord::decode(&mut r),
            Err(WireError::BadRdata(_))
        ));
    }

    #[test]
    fn a_record_with_bad_length_rejected() {
        let mut w = Writer::new();
        name("a").encode(&mut w);
        w.u16(1); // A
        w.u16(1); // IN
        w.u32(0);
        w.u16(3);
        w.bytes(&[1, 2, 3]);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert!(ResourceRecord::decode(&mut r).is_err());
    }

    #[test]
    fn display_strings() {
        assert_eq!(RrType::DnsCache.to_string(), "DNS-CACHE");
        assert_eq!(RrClass::CacheRequest.to_string(), "REQUEST");
        assert_eq!(CacheFlag::Hit.to_string(), "Cache-Hit");
        assert_eq!(RrType::Other(512).to_string(), "TYPE512");
    }
}
