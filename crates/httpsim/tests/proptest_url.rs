//! Property tests for URLs: display/parse roundtrips, base-id semantics
//! and hash stability — the invariants the DNS-Cache tuples depend on.

use ape_check::{check, Gen, PRINTABLE};
use ape_dnswire::UrlHash;
use ape_httpsim::Url;

/// `[a-z]`
const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
/// `[a-z0-9]`
const LOWER_DIGITS: &str = "abcdefghijklmnopqrstuvwxyz0123456789";
/// `[a-z0-9=]`
const SHORT_QUERY: &str = "abcdefghijklmnopqrstuvwxyz0123456789=";
/// `[a-zA-Z0-9_.-]`
const SEGMENT: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
/// `[a-zA-Z0-9=&_-]`
const QUERY: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789=&_-";

/// The identities cached at construction equal what formatting the URL
/// would give: the hash and length of the printed text, and the base id
/// as `scheme://host/path`.
fn assert_cached_identities(url: &Url) {
    let text = url.to_string();
    assert_eq!(url.hash(), UrlHash::of(&text));
    assert_eq!(url.text_len(), text.len());
    let base = format!("{}://{}{}", url.scheme(), url.host(), url.path());
    assert_eq!(url.base_id(), base.as_str());
}

fn host(g: &mut Gen) -> String {
    g.vec(2..5, |g| g.string(LOWER_DIGITS, 1..=10)).join(".")
}

fn path(g: &mut Gen) -> String {
    format!("/{}", g.vec(0..4, |g| g.string(SEGMENT, 1..=8)).join("/"))
}

#[test]
fn display_parse_roundtrip() {
    check("display_parse_roundtrip", 256, |g| {
        let (host, path) = (host(g), path(g));
        let query = g.option(|g| g.string(QUERY, 1..=20));
        let mut text = format!("http://{host}{path}");
        if let Some(q) = &query {
            text.push('?');
            text.push_str(q);
        }
        let url = Url::parse(&text).expect("constructed from valid parts");
        let again = Url::parse(&url.to_string()).expect("display output parses");
        assert_eq!(&url, &again);
        assert_eq!(url.hash(), again.hash());
        assert_eq!(url.query(), query.as_deref());
        assert_cached_identities(&url);
    });
}

#[test]
fn base_id_ignores_query_only() {
    check("base_id_ignores_query_only", 256, |g| {
        let (host, path) = (host(g), path(g));
        let (q1, q2) = (g.string(SHORT_QUERY, 1..=10), g.string(SHORT_QUERY, 1..=10));
        let a = Url::parse(&format!("http://{host}{path}?{q1}")).expect("valid");
        let b = Url::parse(&format!("http://{host}{path}?{q2}")).expect("valid");
        assert_eq!(a.base_id(), b.base_id());
        if q1 != q2 {
            assert_ne!(a.hash(), b.hash(), "full-url hashes must differ");
        }
    });
}

#[test]
fn with_query_preserves_base() {
    check("with_query_preserves_base", 256, |g| {
        let (host, path) = (host(g), path(g));
        let q = g.string(SHORT_QUERY, 1..=12);
        let base = Url::parse(&format!("http://{host}{path}")).expect("valid");
        let varied = base.with_query(q.clone());
        assert_eq!(base.base_id(), varied.base_id());
        assert_eq!(varied.query(), Some(q.as_str()));
        assert_cached_identities(&varied);
        // Replacing a query behaves like setting one.
        let replaced = varied.with_query("v=7");
        assert_eq!(&replaced, &base.with_query("v=7"));
        assert_cached_identities(&replaced);
    });
}

#[test]
fn parser_never_panics_on_garbage() {
    check("parser_never_panics_on_garbage", 256, |g| {
        let _ = Url::parse(&g.string(PRINTABLE, 0..=80));
    });
}

#[test]
fn distinct_paths_have_distinct_base_ids() {
    check("distinct_paths_have_distinct_base_ids", 256, |g| {
        let host = host(g);
        let p1 = g.string(LOWER, 1..=8);
        let mut p2 = g.string(LOWER, 1..=8);
        if p2 == p1 {
            // Step the last letter on, so `p2` stays in `[a-z]{1,8}`.
            let last = p2.pop().expect("non-empty");
            p2.push(char::from(b'a' + (last as u8 - b'a' + 1) % 26));
        }
        let a = Url::parse(&format!("http://{host}/{p1}")).expect("valid");
        let b = Url::parse(&format!("http://{host}/{p2}")).expect("valid");
        assert_ne!(a.base_id(), b.base_id());
    });
}
