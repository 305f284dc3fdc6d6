//! URLs of cacheable objects.
//!
//! The paper identifies cacheable objects by their "basic URLs without
//! parameters" (`id` in the `Cacheable` annotation) while full URLs — with
//! query parameters — name concrete objects. [`Url::base_id`] implements the
//! former, [`Url::hash`] the latter.

use std::fmt::{self, Write as _};
use std::str::FromStr;
use std::sync::Arc;

use ape_dnswire::{DomainName, UrlHash, WireError};

/// Error parsing a URL.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseUrlError {
    /// Missing or unsupported scheme.
    BadScheme,
    /// Host failed domain-name validation.
    BadHost(WireError),
    /// The URL had no host.
    MissingHost,
}

impl fmt::Display for ParseUrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseUrlError::BadScheme => write!(f, "scheme must be http or https"),
            ParseUrlError::BadHost(e) => write!(f, "invalid host: {e}"),
            ParseUrlError::MissingHost => write!(f, "url has no host"),
        }
    }
}

impl std::error::Error for ParseUrlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseUrlError::BadHost(e) => Some(e),
            _ => None,
        }
    }
}

/// URL scheme; the paper's clients speak HTTP(S) only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scheme {
    /// Plain HTTP.
    #[default]
    Http,
    /// HTTP over TLS.
    Https,
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::Http => write!(f, "http"),
            Scheme::Https => write!(f, "https"),
        }
    }
}

/// A parsed, validated object URL.
///
/// A `Url` is an immutable shared handle: `clone` is a reference-count
/// increment, and the canonical text, its length and its [`UrlHash`] are
/// computed once, in [`Url::parse`] / [`Url::with_query`]. URLs ride in
/// every HTTP request and are hashed at every hop, so neither copying nor
/// identifying one may cost a format.
///
/// # Examples
///
/// ```
/// use ape_httpsim::Url;
///
/// let url: Url = "http://api.movie.example/thumb?id=42".parse()?;
/// assert_eq!(url.host().to_string(), "api.movie.example");
/// assert_eq!(url.base_id(), "http://api.movie.example/thumb");
/// assert_eq!(url.query(), Some("id=42"));
/// # Ok::<(), ape_httpsim::ParseUrlError>(())
/// ```
#[derive(Clone)]
pub struct Url {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// Canonical text, `scheme://host/path[?query]` with the host
    /// lowercased — exactly what `Display` prints and `hash` covers.
    text: String,
    scheme: Scheme,
    host: DomainName,
    /// Offset of the path's leading `/`.
    path_start: usize,
    /// End of the path: `text[..base_len]` is the base id, and a query, if
    /// any, follows one `?` later.
    base_len: usize,
    /// FNV-1a of `text`.
    hash: UrlHash,
}

impl Url {
    /// Parses a URL of the form `http[s]://host[/path][?query]`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUrlError`] when the scheme is unsupported or the host
    /// is not a valid domain name.
    pub fn parse(s: &str) -> Result<Self, ParseUrlError> {
        let (scheme, rest) = if let Some(rest) = s.strip_prefix("http://") {
            (Scheme::Http, rest)
        } else if let Some(rest) = s.strip_prefix("https://") {
            (Scheme::Https, rest)
        } else {
            return Err(ParseUrlError::BadScheme);
        };
        let (authority, path_and_query) = match rest.find('/') {
            Some(idx) => (&rest[..idx], &rest[idx..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(ParseUrlError::MissingHost);
        }
        let host = DomainName::parse(authority).map_err(ParseUrlError::BadHost)?;
        let mut text = String::with_capacity(s.len() + 1);
        write!(text, "{scheme}://{host}").expect("writing to a String cannot fail");
        let path_start = text.len();
        text.push_str(path_and_query);
        let base_len = match path_and_query.find('?') {
            Some(q) => path_start + q,
            None => text.len(),
        };
        Ok(Url::from_parts(text, scheme, host, path_start, base_len))
    }

    fn from_parts(
        text: String,
        scheme: Scheme,
        host: DomainName,
        path_start: usize,
        base_len: usize,
    ) -> Url {
        let hash = UrlHash::of(&text);
        Url {
            inner: Arc::new(Inner {
                text,
                scheme,
                host,
                path_start,
                base_len,
                hash,
            }),
        }
    }

    /// The scheme.
    pub fn scheme(&self) -> Scheme {
        self.inner.scheme
    }

    /// The host name.
    pub fn host(&self) -> &DomainName {
        &self.inner.host
    }

    /// The path (always begins with `/`).
    pub fn path(&self) -> &str {
        &self.inner.text[self.inner.path_start..self.inner.base_len]
    }

    /// The query string, without the `?`.
    pub fn query(&self) -> Option<&str> {
        self.inner.text.get(self.inner.base_len + 1..)
    }

    /// The paper's object-family identifier: the URL without parameters.
    pub fn base_id(&self) -> &str {
        &self.inner.text[..self.inner.base_len]
    }

    /// Stable hash of the *full* URL (what DNS-Cache tuples carry).
    pub fn hash(&self) -> UrlHash {
        self.inner.hash
    }

    /// Length in bytes of the URL's text, i.e. of what `Display` prints.
    pub fn text_len(&self) -> usize {
        self.inner.text.len()
    }

    /// Returns a copy with a different query string.
    pub fn with_query(&self, query: impl fmt::Display) -> Url {
        let base = self.base_id();
        let mut text = String::with_capacity(base.len() + 16);
        write!(text, "{base}?{query}").expect("writing to a String cannot fail");
        Url::from_parts(
            text,
            self.inner.scheme,
            self.inner.host.clone(),
            self.inner.path_start,
            self.inner.base_len,
        )
    }
}

impl PartialEq for Url {
    fn eq(&self, other: &Self) -> bool {
        // The text determines every other field.
        self.inner.text == other.inner.text
    }
}

impl Eq for Url {}

impl std::hash::Hash for Url {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.inner.text.hash(state);
    }
}

impl fmt::Debug for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Url({:?})", self.inner.text)
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.inner.text)
    }
}

impl FromStr for Url {
    type Err = ParseUrlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_url() {
        let u = Url::parse("https://api.movie.example/v1/thumb?id=42&sz=big").unwrap();
        assert_eq!(u.scheme(), Scheme::Https);
        assert_eq!(u.host().to_string(), "api.movie.example");
        assert_eq!(u.path(), "/v1/thumb");
        assert_eq!(u.query(), Some("id=42&sz=big"));
    }

    #[test]
    fn display_roundtrips() {
        for s in ["http://a.b/c?d=e", "http://a.b/c", "https://x.y.z/"] {
            let u = Url::parse(s).unwrap();
            assert_eq!(u.to_string(), s);
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn missing_path_becomes_root() {
        let u = Url::parse("http://host.example").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.to_string(), "http://host.example/");
    }

    #[test]
    fn base_id_strips_query_only() {
        let a = Url::parse("http://h.x/obj?p=1").unwrap();
        let b = Url::parse("http://h.x/obj?p=2").unwrap();
        assert_eq!(a.base_id(), b.base_id());
        assert_ne!(a.hash(), b.hash(), "full-url hashes differ");
        let c = Url::parse("http://h.x/other?p=1").unwrap();
        assert_ne!(a.base_id(), c.base_id());
    }

    #[test]
    fn with_query_replaces() {
        let a = Url::parse("http://h.x/obj").unwrap();
        let b = a.with_query("name=dune");
        assert_eq!(b.to_string(), "http://h.x/obj?name=dune");
        assert_eq!(a.base_id(), b.base_id());
    }

    #[test]
    fn rejects_bad_scheme_and_host() {
        assert_eq!(Url::parse("ftp://x.y/"), Err(ParseUrlError::BadScheme));
        assert_eq!(Url::parse("http:///p"), Err(ParseUrlError::MissingHost));
        assert!(matches!(
            Url::parse("http://bad host/"),
            Err(ParseUrlError::BadHost(_))
        ));
    }

    #[test]
    fn host_comparison_is_case_insensitive() {
        let a = Url::parse("http://API.Example.com/x").unwrap();
        let b = Url::parse("http://api.example.com/x").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_display() {
        assert!(!ParseUrlError::BadScheme.to_string().is_empty());
        assert!(!ParseUrlError::MissingHost.to_string().is_empty());
    }
}
