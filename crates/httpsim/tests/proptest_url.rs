//! Property tests for URLs: display/parse roundtrips, base-id semantics
//! and hash stability — the invariants the DNS-Cache tuples depend on.

use ape_dnswire::UrlHash;
use ape_httpsim::Url;
use proptest::prelude::*;

/// The identities cached at construction equal what formatting the URL
/// would give: the hash and length of the printed text, and the base id
/// as `scheme://host/path`.
fn assert_cached_identities(url: &Url) -> Result<(), proptest::TestCaseError> {
    let text = url.to_string();
    prop_assert_eq!(url.hash(), UrlHash::of(&text));
    prop_assert_eq!(url.text_len(), text.len());
    let base = format!("{}://{}{}", url.scheme(), url.host(), url.path());
    prop_assert_eq!(url.base_id(), base.as_str());
    Ok(())
}

fn arb_host() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9]{1,10}", 2..5).prop_map(|labels| labels.join("."))
}

fn arb_path() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-zA-Z0-9_.-]{1,8}", 0..4)
        .prop_map(|segs| format!("/{}", segs.join("/")))
}

fn arb_query() -> impl Strategy<Value = Option<String>> {
    proptest::option::of("[a-zA-Z0-9=&_-]{1,20}")
}

proptest! {
    #[test]
    fn display_parse_roundtrip(host in arb_host(), path in arb_path(), query in arb_query()) {
        let mut text = format!("http://{host}{path}");
        if let Some(q) = &query {
            text.push('?');
            text.push_str(q);
        }
        let url = Url::parse(&text).expect("constructed from valid parts");
        let again = Url::parse(&url.to_string()).expect("display output parses");
        prop_assert_eq!(&url, &again);
        prop_assert_eq!(url.hash(), again.hash());
        prop_assert_eq!(url.query(), query.as_deref());
        assert_cached_identities(&url)?;
    }

    #[test]
    fn base_id_ignores_query_only(host in arb_host(), path in arb_path(), q1 in "[a-z0-9=]{1,10}", q2 in "[a-z0-9=]{1,10}") {
        let a = Url::parse(&format!("http://{host}{path}?{q1}")).expect("valid");
        let b = Url::parse(&format!("http://{host}{path}?{q2}")).expect("valid");
        prop_assert_eq!(a.base_id(), b.base_id());
        if q1 != q2 {
            prop_assert_ne!(a.hash(), b.hash(), "full-url hashes must differ");
        }
    }

    #[test]
    fn with_query_preserves_base(host in arb_host(), path in arb_path(), q in "[a-z0-9=]{1,12}") {
        let base = Url::parse(&format!("http://{host}{path}")).expect("valid");
        let varied = base.with_query(q.clone());
        prop_assert_eq!(base.base_id(), varied.base_id());
        prop_assert_eq!(varied.query(), Some(q.as_str()));
        assert_cached_identities(&varied)?;
        // Replacing a query behaves like setting one.
        let replaced = varied.with_query("v=7");
        prop_assert_eq!(&replaced, &base.with_query("v=7"));
        assert_cached_identities(&replaced)?;
    }

    #[test]
    fn parser_never_panics_on_garbage(text in "[ -~]{0,80}") {
        let _ = Url::parse(&text);
    }

    #[test]
    fn distinct_paths_have_distinct_base_ids(host in arb_host(), p1 in "[a-z]{1,8}", p2 in "[a-z]{1,8}") {
        prop_assume!(p1 != p2);
        let a = Url::parse(&format!("http://{host}/{p1}")).expect("valid");
        let b = Url::parse(&format!("http://{host}/{p2}")).expect("valid");
        prop_assert_ne!(a.base_id(), b.base_id());
    }
}
