//! Fixture tests: positive and negative cases for each rule, plus a
//! self-check that the real workspace scans clean.

use ape_lint::{scan_source, scan_workspace, workspace_files, workspace_root, Registry, Rule};

fn rules_of(report: &ape_lint::Report) -> Vec<Rule> {
    report.violations.iter().map(|v| v.rule).collect()
}

/// Synthetic registry for fixtures, mirroring the `ape_proto::names` shape.
fn fixture_registry() -> Registry {
    Registry::from_entries(
        &[
            ("AP_DNS_QUERIES", "ap.dns_queries"),
            ("CLIENT_LOOKUP_LATENCY_MS", "client.lookup_latency_ms"),
        ],
        &[("CLIENT_APP_LATENCY_MS_PREFIX", "client.app_latency_ms.")],
    )
}

fn scan(rel: &str, src: &str) -> ape_lint::Report {
    scan_source(rel, src, &fixture_registry())
}

// --- metric-name (span/trace sites) ------------------------------------

#[test]
fn d3_flags_bare_span_name_literals() {
    let src = r#"
fn instrumented(ctx: &mut Ctx) {
    let span = ctx.span_start("ap.fetch");
    ctx.span_end(span, "ap.fetch");
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src);
    assert_eq!(
        rules_of(&report),
        vec![Rule::MetricName, Rule::MetricName],
        "{:?}",
        report.violations
    );
}

#[test]
fn d3_accepts_span_kind_constants() {
    let src = r#"
fn instrumented(ctx: &mut Ctx) {
    let span = ctx.span_start(SpanKind::HttpFetch.as_str());
    ctx.span_end(span, SpanKind::HttpFetch.as_str());
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src);
    assert!(report.is_clean(), "{:?}", report.violations);
}

// --- span-balance ---------------------------------------------------------

#[test]
fn span_balance_flags_started_binding_never_used() {
    let src = r#"
fn fetch(ctx: &mut Ctx, early: bool) {
    let span = ctx.span_start(SpanKind::HttpFetch.as_str());
    if early {
        return;
    }
    ctx.do_work();
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src);
    assert_eq!(
        rules_of(&report),
        vec![Rule::SpanBalance],
        "{:?}",
        report.violations
    );
}

#[test]
fn span_balance_accepts_ended_or_stored_spans() {
    let src = r#"
fn fetch(ctx: &mut Ctx) {
    let span = ctx.span_start(SpanKind::HttpFetch.as_str());
    ctx.do_work();
    ctx.span_end(span, SpanKind::HttpFetch.as_str());
    let lookup_span = ctx.begin_trace(SpanKind::DnsLookup.as_str());
    self.pending.span = Some(lookup_span);
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src);
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn span_balance_flags_resumed_binding_never_used() {
    // The PR 5 `handle_dns_response` leak shape: a span resumed from
    // pending state whose end call was lost.
    let src = r#"
fn finish(&mut self, ctx: &mut Ctx, pending: Pending) {
    if let Some(span) = pending.span {
        ctx.log_completion();
    }
    while let Some((fetch_span, kind)) = self.queue.pop() {
        drop(kind);
    }
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src);
    assert_eq!(
        rules_of(&report),
        vec![Rule::SpanBalance, Rule::SpanBalance],
        "{:?}",
        report.violations
    );
}

#[test]
fn span_balance_accepts_resumed_binding_that_is_ended() {
    let src = r#"
fn finish(&mut self, ctx: &mut Ctx, pending: Pending) {
    if let Some(span) = pending.span {
        ctx.span_end(span, SpanKind::DnsUpstream.as_str());
    }
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src);
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn span_balance_skips_underscore_and_non_span_names() {
    let src = r#"
fn f(&mut self, ctx: &mut Ctx, pending: Pending) {
    let _span = ctx.span_start(SpanKind::HttpFetch.as_str());
    if let Some(value) = pending.span {
        drop(());
    }
    let count = self.items.len();
    drop(count);
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src);
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn span_balance_skips_tests() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn leak_fixture() {
        let mut ctx = Ctx::new();
        let span = ctx.span_start(SpanKind::HttpFetch.as_str());
    }
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src);
    assert!(report.is_clean(), "{:?}", report.violations);
}

// --- metric-registry ------------------------------------------------------

#[test]
fn metric_registry_flags_unregistered_and_prefix_literals() {
    let src = r#"
fn record(m: &mut Metrics) {
    m.incr("ap.totally_new_counter", 1);
    m.observe("client.app_latency_ms.maps", 3.0);
    m.observe(
        "client.lookup_latency_ms",
        4.0,
    );
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src);
    assert_eq!(
        rules_of(&report),
        vec![
            Rule::MetricRegistry,
            Rule::MetricRegistry,
            Rule::MetricRegistry
        ]
    );
    assert!(report.violations[0].message.contains("unregistered"));
    assert!(report.violations[1].message.contains("dynamic prefix"));
    // An exact duplicate of a registered key names the constant to use,
    // and is reported on the literal's own line.
    assert!(report.violations[2]
        .message
        .contains("ape_proto::names::CLIENT_LOOKUP_LATENCY_MS"));
    assert_eq!(report.violations[2].line, 6);
}

#[test]
fn metric_registry_checks_interned_id_constants() {
    let src = r#"
fn record(m: &mut Metrics) {
    m.incr_id(names::id::AP_DNS_QUERIES, 1);
    m.observe_id(STALE_ID, 2.0);
    m.observe_id(IDS[i % IDS.len()], 3.0);
    m.record_point_id(chosen_id, 4.0);
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src);
    assert_eq!(
        rules_of(&report),
        vec![Rule::MetricRegistry],
        "{:?}",
        report.violations
    );
    assert!(report.violations[0].message.contains("STALE_ID"));
}

#[test]
fn metric_registry_accepts_constants_and_skips_tests() {
    let src = r#"
use ape_proto::names;
fn record(m: &mut Metrics) {
    m.incr(names::AP_DNS_QUERIES, 1);
    m.observe(&dynamic_name, 2.0);
}

#[cfg(test)]
mod tests {
    #[test]
    fn literals_are_fine_in_tests() {
        let mut m = Metrics::new();
        m.incr("test.counter", 1);
        assert_eq!(m.counter("test.counter"), 1);
    }
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src);
    assert!(report.is_clean(), "{:?}", report.violations);
}

// --- Preprocessing robustness --------------------------------------------

#[test]
fn strings_comments_and_doc_examples_do_not_trigger() {
    let src = r##"
fn f() -> &'static str {
    // let span = ctx.span_start("ap.fetch");
    /* m.incr("ap.nope", 1) inside a block comment */
    let s = "m.incr(\"ap.dns\", 1) and ctx.begin_trace(\"x\")";
    let r = r#"ctx.span_end(span, "ap.fetch")"#;
    let _ = (s, r);
    "m.observe(\"ap.nope\", 1.0)"
}

/// Doc example:
/// ```
/// let span = ctx.span_start("ap.fetch");
/// m.incr("ap.nope", 1);
/// ```
fn g() {}
"##;
    let report = scan("crates/simnet/src/fixture.rs", src);
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn lexer_line_numbers_match_source_for_every_workspace_file() {
    // Token lines drive the test mask and violation reporting; a drift
    // (e.g. uncounted line-continuation escapes) misplaces both far below
    // it. Cross-check against a ground-truth line table for every real
    // source file.
    for file in workspace_files(&workspace_root()).expect("workspace files") {
        let src = std::fs::read_to_string(&file).expect("read source");
        let mut line_of = vec![1u32; src.len() + 1];
        let mut l = 1u32;
        for (i, b) in src.bytes().enumerate() {
            line_of[i] = l;
            if b == b'\n' {
                l += 1;
            }
        }
        for t in ape_lint::lexer::lex(&src) {
            assert_eq!(
                t.line,
                line_of[t.start],
                "token line drift in {} at byte {}: {:?}",
                file.display(),
                t.start,
                &src[t.start..t.end.min(t.start + 40)]
            );
        }
    }
}

// --- Self-checks against the real workspace -------------------------------

#[test]
fn workspace_scans_clean() {
    let root = workspace_root();
    let reg = Registry::workspace();
    let report = scan_workspace(&root, &reg).expect("workspace scan");
    assert!(report.files_scanned > 50, "suspiciously few files scanned");

    assert!(
        report.is_clean(),
        "workspace has lint violations: {:#?}",
        report.violations
    );
}

#[test]
fn deleting_the_dns_span_end_makes_span_balance_fire() {
    // Acceptance fixture for the PR 5 leak shape: remove the
    // `handle_dns_response` span_end and span-balance must catch it.
    let root = workspace_root();
    let rel = "crates/nodes/src/ap.rs";
    let src = std::fs::read_to_string(root.join(rel)).expect("ap.rs");
    let reg = Registry::workspace();

    let before = scan_source(rel, &src, &reg);
    assert!(
        before
            .violations
            .iter()
            .all(|v| v.rule != Rule::SpanBalance),
        "ap.rs should be span-balanced as committed: {:#?}",
        before.violations
    );

    let fn_pos = src.find("fn handle_dns_response").expect("handler present");
    let end_pos = fn_pos
        + src[fn_pos..]
            .find("ctx.span_end(span, SpanKind::DnsUpstream")
            .expect("span_end present");
    let line_start = src[..end_pos].rfind('\n').expect("not at start") + 1;
    let line_end = end_pos + src[end_pos..].find('\n').expect("not at eof") + 1;
    let mutated = format!("{}{}", &src[..line_start], &src[line_end..]);

    let after = scan_source(rel, &mutated, &reg);
    assert!(
        after.violations.iter().any(|v| v.rule == Rule::SpanBalance),
        "span-balance must fire on the mutated handler: {:#?}",
        after.violations
    );
}
