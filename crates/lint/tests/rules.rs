//! Fixture tests: positive, negative, waived and `--fix` round-trip cases
//! for every rule family, plus a self-check that the real workspace scans
//! clean.

use ape_lint::{
    apply_fixes, scan_source, scan_workspace, workspace_files, workspace_root, FileContext,
    Registry, Rule,
};

const SIM: FileContext = FileContext {
    sim_state: true,
    allow_wall_clock: false,
};

const HARNESS: FileContext = FileContext {
    sim_state: false,
    allow_wall_clock: true,
};

const NON_SIM: FileContext = FileContext {
    sim_state: false,
    allow_wall_clock: false,
};

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

fn scan(rel: &str, src: &str, ctx: FileContext) -> ape_lint::Report {
    scan_source(rel, src, ctx, &fixture_registry())
}

// --- D1 map-iter ----------------------------------------------------------

#[test]
fn d1_flags_hashmap_method_iteration() {
    let src = r#"
use std::collections::HashMap;
struct Cache {
    entries: HashMap<u64, u64>,
}
impl Cache {
    fn total(&self) -> u64 {
        self.entries.values().sum()
    }
    fn all(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
    let rules = rules_of(&report);
    assert_eq!(rules.iter().filter(|r| **r == Rule::MapIter).count(), 2);
    assert!(report.violations.iter().all(|v| !v.waived));
    assert!(!report.is_clean());
}

#[test]
fn d1_flags_for_loop_over_hashmap() {
    let src = r#"
use std::collections::HashSet;
fn walk(pending: &HashSet<u32>) {
    for id in pending {
        drop(id);
    }
}
fn walk2() {
    let mut seen: HashSet<u32> = HashSet::new();
    for id in &seen {
        drop(id);
    }
    drop(&mut seen);
}
"#;
    let report = scan("crates/simnet/src/fixture.rs", src, SIM);
    assert_eq!(
        rules_of(&report),
        vec![Rule::MapIter, Rule::MapIter],
        "{:?}",
        report.violations
    );
}

#[test]
fn d1_ignores_btreemap_and_point_lookups() {
    let src = r#"
use std::collections::{BTreeMap, HashMap};
struct S {
    ordered: BTreeMap<u64, u64>,
    table: HashMap<u64, u64>,
}
impl S {
    fn get(&self, k: u64) -> Option<u64> {
        self.table.get(&k).copied()
    }
    fn walk(&self) -> u64 {
        self.ordered.values().sum()
    }
}
"#;
    let report = scan("crates/core/src/fixture.rs", src, SIM);
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn d1_is_scoped_to_sim_state_crates() {
    let src = r#"
use std::collections::HashMap;
fn tally(counts: HashMap<String, u64>) -> u64 {
    counts.values().sum()
}
"#;
    let report = scan("crates/bench/src/fixture.rs", src, HARNESS);
    assert!(report.is_clean(), "{:?}", report.violations);
}

// --- D2 wall-clock --------------------------------------------------------

#[test]
fn d2_flags_wall_clock_and_ambient_randomness() {
    let src = r#"
fn now_ms() -> u128 {
    let t = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    t.elapsed().as_millis()
}
"#;
    let report = scan("crates/simnet/src/fixture.rs", src, SIM);
    let wall: Vec<_> = rules_of(&report)
        .into_iter()
        .filter(|r| *r == Rule::WallClock)
        .collect();
    assert_eq!(wall.len(), 2, "{:?}", report.violations); // Instant::now + SystemTime::now
}

#[test]
fn d2_allows_bench_and_simtime() {
    let bench = r#"
fn measure() -> std::time::Instant {
    std::time::Instant::now()
}
"#;
    assert!(scan("crates/bench/src/fixture.rs", bench, HARNESS).is_clean());

    let sim = r#"
use ape_simnet::{SimRng, SimTime};
fn t(rng: &mut SimRng) -> SimTime {
    let _ = rng.next_u64();
    SimTime::from_secs(1)
}
"#;
    assert!(scan("crates/simnet/src/fixture.rs", sim, SIM).is_clean());
}

// --- D3 metric-name (span/trace sites) ------------------------------------

#[test]
fn d3_flags_bare_span_name_literals() {
    let src = r#"
fn instrumented(ctx: &mut Ctx) {
    let span = ctx.span_start("ap.fetch");
    ctx.span_end(span, "ap.fetch");
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
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
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
    assert!(report.is_clean(), "{:?}", report.violations);
}

// --- D4 float-fold --------------------------------------------------------

#[test]
fn d4_flags_float_sum_over_hash_collections() {
    let src = r#"
use std::collections::HashMap;
fn mean(rates: &HashMap<u32, f64>) -> f64 {
    rates.values().sum::<f64>() / rates.len() as f64
}
fn folded(rates: &HashMap<u32, f64>) -> f64 {
    rates.values().fold(0.0, |acc, v| acc + v)
}
"#;
    // Non-sim-state context isolates D4 from D1.
    let report = scan("crates/httpsim/src/fixture.rs", src, NON_SIM);
    assert_eq!(
        rules_of(&report),
        vec![Rule::FloatFold, Rule::FloatFold],
        "{:?}",
        report.violations
    );
}

#[test]
fn d4_ignores_integer_sums_and_ordered_maps() {
    let src = r#"
use std::collections::{BTreeMap, HashMap};
fn count(c: &HashMap<u32, u64>) -> u64 {
    c.values().sum::<u64>()
}
fn mean(rates: &BTreeMap<u32, f64>) -> f64 {
    rates.values().sum::<f64>() / rates.len() as f64
}
"#;
    let report = scan("crates/httpsim/src/fixture.rs", src, NON_SIM);
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
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
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
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
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
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
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
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
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
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn span_balance_can_be_waived_and_skips_tests() {
    let src = r#"
fn f(ctx: &mut Ctx) {
    // ape-lint: allow(span-balance) -- span intentionally leaked to exercise the trace GC
    let span = ctx.span_start(SpanKind::HttpFetch.as_str());
}

#[cfg(test)]
mod tests {
    #[test]
    fn leak_fixture() {
        let mut ctx = Ctx::new();
        let span = ctx.span_start(SpanKind::HttpFetch.as_str());
    }
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert!(report.violations[0].waived);
    assert!(report.is_clean());
}

// --- sim-time-arith -------------------------------------------------------

#[test]
fn sim_time_arith_flags_raw_arith_and_truncating_casts() {
    let src = r#"
fn f(t: SimTime, d: SimDuration) -> u64 {
    let a = t.as_nanos() - 1;
    let b = 5 + d.as_nanos();
    let c = d.as_secs_f64() as u32;
    let e = SimDuration::from_nanos(a * 3);
    (a, b, u64::from(c), e).0
}
"#;
    let report = scan("crates/core/src/fixture.rs", src, SIM);
    assert_eq!(
        rules_of(&report),
        vec![
            Rule::SimTimeArith,
            Rule::SimTimeArith,
            Rule::SimTimeArith,
            Rule::SimTimeArith
        ],
        "{:?}",
        report.violations
    );
}

#[test]
fn sim_time_arith_ignores_typed_math_widening_and_shifts() {
    let src = r#"
fn as_nanos_total(x: u64) -> u64 {
    x
}
fn g(t: SimTime, d: SimDuration) -> f64 {
    let later = t + d;
    let widened = d.as_nanos() as f64;
    let slot = (t.as_nanos() >> 6) & 63;
    let whole = d.as_secs();
    drop((later, slot, whole));
    widened
}
"#;
    let report = scan("crates/core/src/fixture.rs", src, SIM);
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn sim_time_arith_exempts_time_impl_and_non_sim_crates() {
    let src = r#"
fn raw(d: SimDuration) -> u64 {
    d.as_nanos() - 1
}
"#;
    assert!(
        scan("crates/simnet/src/time.rs", src, SIM).is_clean(),
        "time.rs is the typed home for nanosecond math"
    );
    assert!(scan("crates/bench/src/fixture.rs", src, HARNESS).is_clean());
}

#[test]
fn sim_time_arith_can_be_waived() {
    let src = r#"
fn f(t: SimTime) -> u64 {
    // ape-lint: allow(sim-time-arith) -- wheel slot math is documented shift/mask on nanos
    t.as_nanos() % 7
}
"#;
    let report = scan("crates/simnet/src/fixture.rs", src, SIM);
    assert_eq!(report.violations.len(), 1);
    assert!(report.violations[0].waived);
    assert!(report.is_clean());
}

// --- metric-registry ------------------------------------------------------

#[test]
fn metric_registry_fixes_exact_literal_to_constant() {
    let src = r#"
fn record(m: &mut Metrics) {
    m.incr("ap.dns_queries", 1);
    m.observe(
        "client.lookup_latency_ms",
        4.0,
    );
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
    assert_eq!(
        rules_of(&report),
        vec![Rule::MetricRegistry, Rule::MetricRegistry],
        "{:?}",
        report.violations
    );
    assert!(report.violations.iter().all(|v| v.fix.is_some()));

    // --fix rewrites to the registered constants and is idempotent.
    let fixed = apply_fixes(src, &report).expect("fixes to apply");
    assert!(fixed.contains("m.incr(ape_proto::names::AP_DNS_QUERIES, 1)"));
    assert!(fixed.contains("ape_proto::names::CLIENT_LOOKUP_LATENCY_MS"));
    let second = scan("crates/nodes/src/fixture.rs", &fixed, SIM);
    assert!(second.is_clean(), "{:?}", second.violations);
    assert!(apply_fixes(&fixed, &second).is_none());
}

#[test]
fn metric_registry_flags_unregistered_and_prefix_literals() {
    let src = r#"
fn record(m: &mut Metrics) {
    m.incr("ap.totally_new_counter", 1);
    m.observe("client.app_latency_ms.maps", 3.0);
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
    assert_eq!(
        rules_of(&report),
        vec![Rule::MetricRegistry, Rule::MetricRegistry]
    );
    assert!(report.violations[0].message.contains("unregistered"));
    assert!(report.violations[0].fix.is_none(), "no safe rewrite exists");
    assert!(report.violations[1].message.contains("dynamic prefix"));
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
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
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
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn metric_registry_waiver_suppresses_fix_too() {
    let src = r#"
fn record(m: &mut Metrics) {
    // ape-lint: allow(metric-registry) -- migration shim, removed with the v1 exporter
    m.incr("ap.dns_queries", 1);
}
"#;
    let report = scan("crates/nodes/src/fixture.rs", src, SIM);
    assert_eq!(report.violations.len(), 1);
    assert!(report.violations[0].waived);
    assert!(report.is_clean());
    assert!(
        apply_fixes(src, &report).is_none(),
        "waived fixes must not apply"
    );
}

// --- Waivers --------------------------------------------------------------

#[test]
fn waiver_on_line_above_suppresses_and_is_marked_used() {
    let src = r#"
use std::collections::HashMap;
struct S {
    table: HashMap<u64, u64>,
}
impl S {
    fn snapshot(&self) -> Vec<u64> {
        // ape-lint: allow(map-iter) -- sorted immediately below
        let mut v: Vec<u64> = self.table.keys().copied().collect();
        v.sort_unstable();
        v
    }
}
"#;
    let report = scan("crates/cachealg/src/fixture.rs", src, SIM);
    assert_eq!(report.violations.len(), 1);
    assert!(report.violations[0].waived);
    assert!(report.is_clean());
    assert_eq!(report.waivers.len(), 1);
    assert!(report.waivers[0].used);
    assert_eq!(report.waivers[0].reason, "sorted immediately below");
}

#[test]
fn same_line_waiver_works() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> usize {
    m.keys().count() // ape-lint: allow(map-iter) -- count is order-free
}
"#;
    let report = scan("crates/proto/src/fixture.rs", src, SIM);
    assert_eq!(report.violations.len(), 1);
    assert!(report.violations[0].waived);
    assert!(report.is_clean());
}

#[test]
fn malformed_waivers_are_violations() {
    let missing_reason = "// ape-lint: allow(map-iter)\nfn f() {}\n";
    let report = scan("crates/core/src/fixture.rs", missing_reason, SIM);
    assert_eq!(rules_of(&report), vec![Rule::WaiverSyntax]);

    let unknown_rule = "// ape-lint: allow(hash-stuff) -- nope\nfn f() {}\n";
    let report = scan("crates/core/src/fixture.rs", unknown_rule, SIM);
    assert_eq!(rules_of(&report), vec![Rule::WaiverSyntax]);

    // The honesty meta-rules cannot be waived by name.
    let unwaivable = "// ape-lint: allow(unused-waiver) -- nice try\nfn f() {}\n";
    let report = scan("crates/core/src/fixture.rs", unwaivable, SIM);
    assert_eq!(rules_of(&report), vec![Rule::WaiverSyntax]);
}

// --- unused-waiver --------------------------------------------------------

#[test]
fn unused_waiver_is_flagged_and_fix_removes_it() {
    let src = r#"
fn f() -> u32 {
    // ape-lint: allow(wall-clock) -- this code stopped reading the clock long ago
    41 + 1
}
"#;
    let report = scan("crates/simnet/src/fixture.rs", src, SIM);
    assert_eq!(
        rules_of(&report),
        vec![Rule::UnusedWaiver],
        "{:?}",
        report.violations
    );
    assert!(!report.is_clean());
    assert_eq!(report.waivers.len(), 1);
    assert!(!report.waivers[0].used);

    // The fix deletes the whole comment line and is idempotent.
    let fixed = apply_fixes(src, &report).expect("removal fix");
    assert!(!fixed.contains("ape-lint"));
    assert_eq!(fixed, "\nfn f() -> u32 {\n    41 + 1\n}\n");
    let second = scan("crates/simnet/src/fixture.rs", &fixed, SIM);
    assert!(second.is_clean(), "{:?}", second.violations);
    assert!(apply_fixes(&fixed, &second).is_none());
}

#[test]
fn unused_trailing_waiver_fix_keeps_the_code() {
    let src = "fn f() -> u32 {\n    let x = 1; // ape-lint: allow(map-iter) -- stale\n    x\n}\n";
    let report = scan("crates/simnet/src/fixture.rs", src, SIM);
    assert_eq!(rules_of(&report), vec![Rule::UnusedWaiver]);
    let fixed = apply_fixes(src, &report).expect("removal fix");
    assert_eq!(fixed, "fn f() -> u32 {\n    let x = 1;\n    x\n}\n");
}

// --- Preprocessing robustness --------------------------------------------

#[test]
fn strings_comments_and_doc_examples_do_not_trigger() {
    let src = r##"
fn f() -> &'static str {
    // let x: HashMap<u32, u32> = HashMap::new(); x.keys();
    /* Instant::now() inside a block comment */
    let s = "m.incr(\"ap.dns\", 1) and Instant::now()";
    let r = r#"rates.values().sum::<f64>()"#;
    let _ = (s, r);
    "SystemTime"
}

/// Doc example:
/// ```
/// let t = std::time::Instant::now();
/// ```
fn g() {}
"##;
    let report = scan("crates/simnet/src/fixture.rs", src, SIM);
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.violations.is_empty());
}

#[test]
fn lexer_line_numbers_match_source_for_every_workspace_file() {
    // Token lines drive waiver matching and violation reporting; a drift
    // (e.g. uncounted line-continuation escapes) silently unmatches
    // waivers far below it. Cross-check against a ground-truth line table
    // for every real source file.
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

#[test]
fn json_output_is_well_formed_enough_to_grep() {
    let src = r#"
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> usize {
    m.keys().count()
}
"#;
    let report = scan("crates/core/src/fixture.rs", src, SIM);
    let json = report.to_json();
    assert!(json.contains("\"schema\": 3"));
    assert!(json.contains("\"rule\": \"map-iter\""));
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"excerpt\": \"m.keys().count()\""));
    assert!(json.starts_with('{') && json.ends_with('}'));
}

// --- Self-checks against the real workspace -------------------------------

#[test]
fn workspace_scans_clean() {
    let root = workspace_root();
    let reg = Registry::workspace();
    let report = scan_workspace(&root, &reg).expect("workspace scan");
    assert!(report.files_scanned > 50, "suspiciously few files scanned");

    let unwaived: Vec<_> = report.unwaived().collect();
    assert!(
        unwaived.is_empty(),
        "workspace has unwaived lint violations: {unwaived:#?}"
    );
    assert!(
        report.waivers.len() <= 5,
        "waiver budget exceeded: {:#?}",
        report.waivers
    );
    assert!(
        report.waivers.iter().all(|w| w.used),
        "unused waivers survived: {:#?}",
        report.waivers
    );
}

#[test]
fn deleting_the_dns_span_end_makes_span_balance_fire() {
    // Acceptance fixture for the PR 5 leak shape: remove the
    // `handle_dns_response` span_end and span-balance must catch it.
    let root = workspace_root();
    let rel = "crates/nodes/src/ap.rs";
    let src = std::fs::read_to_string(root.join(rel)).expect("ap.rs");
    let ctx = FileContext::for_path(rel);
    let reg = Registry::workspace();

    let before = scan_source(rel, &src, ctx, &reg);
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

    let after = scan_source(rel, &mutated, ctx, &reg);
    assert!(
        after
            .violations
            .iter()
            .any(|v| v.rule == Rule::SpanBalance && !v.waived),
        "span-balance must fire on the mutated handler: {:#?}",
        after.violations
    );
}
