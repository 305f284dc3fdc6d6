//! Domain names and their RFC1035 wire representation.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

use crate::bytes::{Reader, Writer};
use crate::error::WireError;

/// Maximum bytes in one label.
const MAX_LABEL: usize = 63;
/// Maximum bytes in a full encoded name.
const MAX_NAME: usize = 255;
/// Upper bound on pointer chase depth (RFC names fit in far fewer).
const MAX_POINTER_HOPS: usize = 32;

/// A validated, case-insensitive DNS domain name.
///
/// Stored in lowercase; comparison and hashing are therefore
/// case-insensitive, matching DNS semantics. The name is one immutable
/// shared buffer, so `clone` is a reference-count increment: names ride in
/// every DNS message and key most per-domain maps. Names order by their
/// text; beside the buffer sits that order's key, computed once, so most
/// comparisons never read the text (see the `Ord` impl).
///
/// # Examples
///
/// ```
/// use ape_dnswire::DomainName;
///
/// let name: DomainName = "WWW.Apple.COM".parse()?;
/// assert_eq!(name.to_string(), "www.apple.com");
/// assert_eq!(name.labels().count(), 3);
/// # Ok::<(), ape_dnswire::WireError>(())
/// ```
#[derive(Clone)]
pub struct DomainName {
    /// The first 8 bytes of `text`, packed big-endian and zero-padded:
    /// the text order of names that differ there.
    key: u64,
    /// Lowercased labels joined by `.`; empty for the root name. Label
    /// bytes are `[a-z0-9_-]`, so the separator is unambiguous.
    text: Arc<str>,
}

/// Validates one label byte and lowercases it.
fn label_byte(b: u8) -> Result<u8, WireError> {
    if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' {
        Ok(b.to_ascii_lowercase())
    } else {
        Err(WireError::BadLabel(b))
    }
}

impl DomainName {
    /// Wraps validated, lowercased text, computing its order key.
    fn from_text(text: Arc<str>) -> Self {
        let mut key = [0u8; 8];
        let head = text.len().min(8);
        key[..head].copy_from_slice(&text.as_bytes()[..head]);
        DomainName {
            key: u64::from_be_bytes(key),
            text,
        }
    }

    /// The DNS root (empty) name.
    pub fn root() -> Self {
        DomainName::from_text(Arc::from(""))
    }

    /// Parses a dotted name, validating label lengths and characters.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LabelTooLong`], [`WireError::NameTooLong`] or
    /// [`WireError::BadLabel`] for invalid input.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        let mut text = String::with_capacity(trimmed.len());
        if !trimmed.is_empty() {
            for label in trimmed.split('.') {
                if label.len() > MAX_LABEL {
                    return Err(WireError::LabelTooLong(label.len()));
                }
                if label.is_empty() {
                    return Err(WireError::BadLabel(b'.'));
                }
                if !text.is_empty() {
                    text.push('.');
                }
                for b in label.bytes() {
                    text.push(label_byte(b)? as char);
                }
            }
        }
        let name = DomainName::from_text(text.into());
        let encoded = name.encoded_len();
        if encoded > MAX_NAME {
            return Err(WireError::NameTooLong(encoded));
        }
        Ok(name)
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.text.is_empty()
    }

    /// Iterates the labels (ASCII by construction).
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        // Splitting the empty root text yields one empty piece; no real
        // label is empty.
        self.text.split('.').filter(|l| !l.is_empty())
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The registrable-ish suffix: last `n` labels as a new name.
    pub fn suffix(&self, n: usize) -> DomainName {
        let skip = self.label_count().saturating_sub(n);
        if skip == 0 {
            return self.clone();
        }
        let start = self
            .text
            .match_indices('.')
            .nth(skip - 1)
            .map_or(self.text.len(), |(dot, _)| dot + 1);
        DomainName::from_text(Arc::from(&self.text[start..]))
    }

    /// Whether `self` equals `other` or is a subdomain of it.
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        match self.text.strip_suffix(&*other.text) {
            Some(rest) => rest.is_empty() || other.is_root() || rest.ends_with('.'),
            None => false,
        }
    }

    /// Length of the uncompressed wire encoding (length bytes + terminator).
    pub fn encoded_len(&self) -> usize {
        // Each label trades its separator for a length byte; the first
        // label's length byte and the terminator add two.
        if self.is_root() {
            1
        } else {
            self.text.len() + 2
        }
    }

    /// Appends the uncompressed wire encoding.
    pub(crate) fn encode(&self, w: &mut Writer) {
        for label in self.labels() {
            w.u8(label.len() as u8);
            w.bytes(label.as_bytes());
        }
        w.u8(0);
    }

    /// Decodes a (possibly compressed) name from the reader.
    ///
    /// Compression pointers must point strictly backwards, per RFC1035
    /// deployment practice; forward pointers are rejected.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // `total` caps the wire form at MAX_NAME, and the joined text is
        // two bytes shorter, so the buffer cannot overflow.
        let mut text = [0u8; MAX_NAME];
        let mut used = 0usize;
        let mut total = 1usize; // terminator
        let mut hops = 0usize;
        // Position to restore after following pointers: end of the first
        // pointer encountered.
        let mut resume: Option<usize> = None;
        loop {
            let len = r.u8()?;
            match len {
                0 => break,
                1..=63 => {
                    let bytes = r.take(len as usize)?;
                    total += 1 + bytes.len();
                    if total > MAX_NAME {
                        return Err(WireError::NameTooLong(total));
                    }
                    if used > 0 {
                        text[used] = b'.';
                        used += 1;
                    }
                    for &b in bytes {
                        text[used] = label_byte(b)?;
                        used += 1;
                    }
                }
                b if b & 0xC0 == 0xC0 => {
                    let low = r.u8()?;
                    let target = (((b & 0x3F) as u16) << 8 | low as u16) as usize;
                    // The pointer occupied [pos-2, pos); it must point
                    // strictly before itself.
                    if target >= r.pos() - 2 {
                        return Err(WireError::BadPointer(target as u16));
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::PointerLoop);
                    }
                    if resume.is_none() {
                        resume = Some(r.pos());
                    }
                    r.seek(target)?;
                }
                b => return Err(WireError::BadLabel(b)),
            }
        }
        if let Some(pos) = resume {
            r.seek(pos)?;
        }
        let text = std::str::from_utf8(&text[..used]).expect("labels are ascii");
        Ok(DomainName::from_text(text.into()))
    }
}

/// Names order by their text, bytewise. No output depends on which total
/// order this is: every per-domain map is only looked up, inserted into,
/// removed from or cleared, or scanned where the order cannot show.
///
/// The order key decides whenever two names differ in their first 8 bytes,
/// with one integer compare. Zero padding agrees with the text order,
/// because no text byte is zero: a name that ends inside the key is a
/// prefix of the other, so it sorts first either way. Tied keys, equal
/// names included, fall back to the text.
impl Ord for DomainName {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key).then_with(|| self.cmp_tied(other))
    }
}

impl DomainName {
    /// The order of two names whose keys tie; kept out of line so the
    /// inlined `cmp` stays one compare and a branch.
    #[inline(never)]
    fn cmp_tied(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.text, &other.text) {
            return Ordering::Equal;
        }
        self.text.cmp(&other.text)
    }
}

impl PartialOrd for DomainName {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Equality is the text's; the key is a function of the text, so unequal
/// keys are only a shortcut to "different".
impl PartialEq for DomainName {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.text == other.text
    }
}

impl Eq for DomainName {}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.text.hash(state);
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DomainName")
            .field("text", &self.text)
            .finish()
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_root() { "." } else { &self.text })
    }
}

impl FromStr for DomainName {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl TryFrom<&str> for DomainName {
    type Error = WireError;
    fn try_from(s: &str) -> Result<Self, Self::Error> {
        DomainName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(name: &DomainName) -> DomainName {
        let mut w = Writer::new();
        name.encode(&mut w);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        let out = DomainName::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        out
    }

    #[test]
    fn parse_and_display_lowercases() {
        let n = DomainName::parse("WWW.Apple.COM").unwrap();
        assert_eq!(n.to_string(), "www.apple.com");
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn trailing_dot_is_accepted() {
        assert_eq!(
            DomainName::parse("a.b.").unwrap(),
            DomainName::parse("a.b").unwrap()
        );
    }

    #[test]
    fn root_name() {
        let root = DomainName::parse("").unwrap();
        assert!(root.is_root());
        assert_eq!(root.to_string(), ".");
        assert_eq!(root.encoded_len(), 1);
        assert_eq!(roundtrip(&root), root);
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(matches!(
            DomainName::parse("a..b"),
            Err(WireError::BadLabel(_))
        ));
        assert!(matches!(
            DomainName::parse("sp ace.com"),
            Err(WireError::BadLabel(b' '))
        ));
        let long = "x".repeat(64);
        assert!(matches!(
            DomainName::parse(&long),
            Err(WireError::LabelTooLong(64))
        ));
    }

    #[test]
    fn rejects_over_long_names() {
        let label = "x".repeat(60);
        let name = [label.as_str(); 5].join(".");
        assert!(matches!(
            DomainName::parse(&name),
            Err(WireError::NameTooLong(_))
        ));
    }

    #[test]
    fn wire_roundtrip() {
        let n = DomainName::parse("cdn.edge-key_1.example.com").unwrap();
        assert_eq!(roundtrip(&n), n);
    }

    #[test]
    fn encoded_len_matches_encoding() {
        let n = DomainName::parse("a.bc.def").unwrap();
        let mut w = Writer::new();
        n.encode(&mut w);
        assert_eq!(w.len(), n.encoded_len());
    }

    #[test]
    fn decode_follows_backward_pointer() {
        // "example.com" at offset 0, then a name "www" + pointer to 0.
        let mut w = Writer::new();
        DomainName::parse("example.com").unwrap().encode(&mut w);
        let ptr_name_start = w.len();
        w.u8(3);
        w.bytes(b"www");
        w.u16(0xC000); // pointer to offset 0
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        r.seek(ptr_name_start).unwrap();
        let n = DomainName::decode(&mut r).unwrap();
        assert_eq!(n.to_string(), "www.example.com");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn decode_rejects_forward_and_self_pointers() {
        // Pointer at offset 0 pointing to itself.
        let buf = [0xC0, 0x00];
        let mut r = Reader::new(&buf);
        assert!(matches!(
            DomainName::decode(&mut r),
            Err(WireError::BadPointer(_))
        ));
    }

    #[test]
    fn subdomain_relation() {
        let apex = DomainName::parse("apple.com").unwrap();
        let www = DomainName::parse("www.apple.com").unwrap();
        assert!(www.is_subdomain_of(&apex));
        assert!(www.is_subdomain_of(&www));
        assert!(!apex.is_subdomain_of(&www));
        let other = DomainName::parse("www.orange.com").unwrap();
        assert!(!other.is_subdomain_of(&apex));
    }

    #[test]
    fn suffix_extracts_apex() {
        let www = DomainName::parse("www.apple.com").unwrap();
        assert_eq!(www.suffix(2).to_string(), "apple.com");
        assert_eq!(www.suffix(9), www);
    }

    /// Differential: the keyed `Ord` against `str::cmp` on the texts, on
    /// names built to share 0–12 leading bytes over `ab-.`, so keys tie
    /// (equal first 8 bytes, equal names) as often as they decide.
    #[test]
    fn order_is_the_text_order() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let text = |len: u64, next: &mut dyn FnMut(u64) -> u64| -> String {
            (0..len)
                .map(|_| b"ab-."[next(4) as usize] as char)
                .collect()
        };
        let (mut checked, mut tied, mut equal, mut roots, mut single) = (0, 0, 0, 0, 0);
        for _ in 0..40_000 {
            let shared = text(next(13), &mut next);
            let a = shared.clone() + &text(next(13), &mut next);
            let b = if next(8) == 0 {
                a.clone()
            } else {
                shared + &text(next(13), &mut next)
            };
            let (Ok(x), Ok(y)) = (DomainName::parse(&a), DomainName::parse(&b)) else {
                continue;
            };
            assert_eq!(x.cmp(&y), x.text.cmp(&y.text), "{a:?} vs {b:?}");
            assert_eq!(y.cmp(&x), y.text.cmp(&x.text), "{b:?} vs {a:?}");
            assert_eq!(x == y, x.text == y.text, "{a:?} vs {b:?}");
            assert_eq!(x.cmp(&x.clone()), Ordering::Equal);
            checked += 1;
            tied += usize::from(x.key == y.key && x != y);
            equal += usize::from(x == y);
            roots += usize::from(x.is_root() || y.is_root());
            single += usize::from(x.label_count() == 1 || y.label_count() == 1);
        }
        // Every case the key has to get right turns up many times.
        for (what, count) in [
            ("pairs", checked),
            ("tied keys", tied),
            ("equal", equal),
            ("root", roots),
            ("one label", single),
        ] {
            assert!(count > 100, "only {count} {what}");
        }
    }

    #[test]
    fn comparison_is_case_insensitive_via_lowercasing() {
        let a: DomainName = "API.Example.com".parse().unwrap();
        let b: DomainName = "api.example.COM".parse().unwrap();
        assert_eq!(a, b);
    }
}
