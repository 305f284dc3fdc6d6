//! # ape-lint — determinism & sim-safety analysis for APE-CACHE
//!
//! Every result in this workspace is simulation-derived, so the simulator's
//! bitwise-determinism contract *is* the result. This crate enforces the
//! source-level half of that contract (the runtime half is
//! `ape_simnet::World::check_determinism`). v2 is built on a small
//! self-contained Rust lexer ([`lexer`]) and a brace-matched block tree
//! ([`tree`]) — no `syn`, no external dependencies — and enforces eight
//! rules:
//!
//! Line rules (v1, now driven by lexer-based blanking):
//! - **`map-iter` (D1)** — no unordered iteration (`.iter()`, `.keys()`,
//!   `.values()`, `.drain()`, `for _ in &map`, …) over `HashMap`/`HashSet`
//!   in sim-state crates. Use `BTreeMap`/`BTreeSet` or a sorted snapshot.
//! - **`wall-clock` (D2)** — no wall-clock reads (`Instant::now`,
//!   `SystemTime`) or ambient randomness (`thread_rng`, `from_entropy`, …)
//!   outside `crates/bench`. All time is `SimTime`; all randomness flows
//!   through the seeded `SimRng`.
//! - **`metric-name` (D3)** — no bare name literals at *span/trace*
//!   instrumentation sites (`ctx.begin_trace("…")`, `.span_start("…")`, …).
//!   Use `SpanKind::…::as_str()`. (Metric-recording sites moved to the
//!   registry-aware `metric-registry` rule below.)
//! - **`float-fold` (D4)** — no `f32`/`f64` accumulation (`.sum::<f64>()`,
//!   `.fold(0.0, …)`) over unordered collections: float addition is not
//!   associative, so an unordered reduction is nondeterministic even when
//!   the element set is identical.
//!
//! Token rules (v2, see [`rules`]):
//! - **`span-balance`** — a span binding (started via
//!   `span_start`/`begin_trace`, or resumed from pending state) that is
//!   never ended or stored: the PR 5 `handle_dns_response` leak shape.
//! - **`sim-time-arith`** — raw arithmetic or truncating `as` casts on
//!   `SimTime`/`SimDuration` accessor results, and inline arithmetic in
//!   `from_nanos(…)`, outside `crates/simnet/src/time.rs`.
//! - **`metric-registry`** — metric-name literals at
//!   `incr`/`observe`/`record_point`/`counter` sites and the const idents
//!   at `*_id` sites must resolve against `ape_proto::names`
//!   ([`registry::Registry`]). Exact-match literals carry a `--fix`
//!   rewrite to the registered constant.
//! - **`unused-waiver`** — a waiver whose rule no longer fires on its
//!   line is an error (with a `--fix` removal), keeping the ledger honest.
//!
//! Plus the unwaivable **`waiver-syntax`** meta-rule for malformed waiver
//! comments.
//!
//! ## Waivers
//!
//! A violation can be waived with an explicit comment on the same line or
//! the line directly above:
//!
//! ```text
//! // ape-lint: allow(map-iter) -- point-lookup table, never iterated for results
//! ```
//!
//! The reason after `--` is mandatory; `ape-lint check --list-waivers`
//! prints every waiver (with a used/unused summary) so reviewers can audit
//! the accumulated debt. `unused-waiver` and `waiver-syntax` cannot be
//! waived.
//!
//! ## Scope and honesty about the approach
//!
//! The lexer gives exact token boundaries (raw strings, nested block
//! comments, char/lifetime disambiguation), but there is still no type
//! inference: a hash map smuggled across a function boundary under a type
//! alias is not tracked, and span-balance flags the *never-used* leak
//! shape, not all-paths coverage. That is the deliberate trade-off for a
//! zero-dependency tool the repo can always build; the runtime race
//! detector and trace tests cover what the static side misses.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod registry;
pub mod rules;
pub mod tree;

pub use registry::Registry;

/// Crates whose state participates in simulation results: rules `map-iter`
/// and `sim-time-arith` apply to these only (the bench harness may use hash
/// maps and host time for its own bookkeeping; nothing there feeds a
/// simulated outcome).
pub const SIM_STATE_CRATES: &[&str] = &[
    "simnet", "nodes", "cachealg", "core", "proto", "dnswire", "appdag", "workload",
];

/// Crates allowed to read the wall clock / OS entropy (rule `wall-clock`
/// is skipped for these): only the measurement harness.
pub const WALL_CLOCK_CRATES: &[&str] = &["bench"];

/// The file where typed time math lives; exempt from `sim-time-arith`.
pub const TIME_IMPL_FILE: &str = "crates/simnet/src/time.rs";

/// The rules the scanner enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: unordered iteration over `HashMap`/`HashSet` in sim-state code.
    MapIter,
    /// D2: wall-clock or ambient randomness outside `crates/bench`.
    WallClock,
    /// D3: bare span/trace name literal at an instrumentation call site.
    MetricName,
    /// D4: float accumulation over an unordered collection.
    FloatFold,
    /// Span started/resumed but never ended or stored (leak shape).
    SpanBalance,
    /// Raw arithmetic / truncating cast on time values outside time.rs.
    SimTimeArith,
    /// Metric name/id does not resolve against `ape_proto::names`.
    MetricRegistry,
    /// A waiver whose rule no longer fires on its line (unwaivable).
    UnusedWaiver,
    /// A malformed `ape-lint:` waiver comment (unwaivable).
    WaiverSyntax,
}

impl Rule {
    /// The waiver/CLI name of the rule.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::MapIter => "map-iter",
            Rule::WallClock => "wall-clock",
            Rule::MetricName => "metric-name",
            Rule::FloatFold => "float-fold",
            Rule::SpanBalance => "span-balance",
            Rule::SimTimeArith => "sim-time-arith",
            Rule::MetricRegistry => "metric-registry",
            Rule::UnusedWaiver => "unused-waiver",
            Rule::WaiverSyntax => "waiver-syntax",
        }
    }

    /// Parses a waiver rule name. `unused-waiver` and `waiver-syntax` are
    /// intentionally not parseable: ledger-honesty rules cannot be waived.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "map-iter" => Some(Rule::MapIter),
            "wall-clock" => Some(Rule::WallClock),
            "metric-name" => Some(Rule::MetricName),
            "float-fold" => Some(Rule::FloatFold),
            "span-balance" => Some(Rule::SpanBalance),
            "sim-time-arith" => Some(Rule::SimTimeArith),
            "metric-registry" => Some(Rule::MetricRegistry),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A mechanical rewrite `--fix` can apply: replace the byte range
/// `start..end` of the original file with `replacement`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fix {
    /// Byte offset of the first replaced byte.
    pub start: usize,
    /// Byte offset one past the last replaced byte.
    pub end: usize,
    /// Replacement text (empty for deletions).
    pub replacement: String,
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule violated.
    pub rule: Rule,
    /// Human-readable description (includes the offending snippet).
    pub message: String,
    /// Whether a matching waiver covered this violation.
    pub waived: bool,
    /// The normalized source line (whitespace collapsed).
    pub excerpt: String,
    /// Mechanical rewrite, when one is safe.
    pub fix: Option<Fix>,
}

impl Violation {
    /// A fresh, unwaived violation; `excerpt` is filled in by the scanner.
    pub fn new(file: &str, line: usize, rule: Rule, message: String) -> Violation {
        Violation {
            file: file.to_owned(),
            line,
            rule,
            message,
            waived: false,
            excerpt: String::new(),
            fix: None,
        }
    }

    /// Attaches a mechanical fix.
    pub fn with_fix(mut self, fix: Fix) -> Violation {
        self.fix = Some(fix);
        self
    }
}

/// One `// ape-lint: allow(rule) -- reason` waiver comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line the comment is on (covers this line and the next).
    pub line: usize,
    /// The rule waived.
    pub rule: Rule,
    /// The mandatory justification after `--`.
    pub reason: String,
    /// Whether any violation actually matched this waiver.
    pub used: bool,
    /// Byte span of the comment in the source (for `--fix` removal).
    pub span: (usize, usize),
}

/// Scan result over one file or a whole workspace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All violations found, waived ones included (flagged).
    pub violations: Vec<Violation>,
    /// All waivers found, unused ones included (flagged).
    pub waivers: Vec<Waiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Violations not covered by a waiver: the ones that fail the build.
    pub fn unwaived(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| !v.waived)
    }

    /// Whether the scan is clean (no unwaived violations).
    pub fn is_clean(&self) -> bool {
        self.unwaived().next().is_none()
    }

    /// Violations carrying a fix that `--fix` would apply (unwaived only:
    /// a waiver is an explicit decision to keep the code as written).
    pub fn fixable(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .iter()
            .filter(|v| !v.waived && v.fix.is_some())
    }

    /// Serializes the report as a stable JSON document (hand-rolled — the
    /// workspace has no registry access, hence no serde). Schema 3; CI
    /// validates against `docs/lint-report.schema.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 3,\n  \"files_scanned\": ");
        out.push_str(&self.files_scanned.to_string());
        out.push_str(",\n  \"clean\": ");
        out.push_str(if self.is_clean() { "true" } else { "false" });
        out.push_str(",\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"waived\": {}, \
                 \"fixable\": {}, \"message\": {}, \"excerpt\": {}}}",
                json_str(&v.file),
                v.line,
                json_str(v.rule.as_str()),
                v.waived,
                v.fix.is_some(),
                json_str(&v.message),
                json_str(&v.excerpt)
            ));
        }
        out.push_str(if self.violations.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"used\": {}, \"reason\": {}}}",
                json_str(&w.file),
                w.line,
                json_str(w.rule.as_str()),
                w.used,
                json_str(&w.reason)
            ));
        }
        out.push_str(if self.waivers.is_empty() {
            "]\n}"
        } else {
            "\n  ]\n}"
        });
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Which rules apply to the file being scanned.
#[derive(Debug, Clone, Copy)]
pub struct FileContext {
    /// Apply sim-state rules (file belongs to a sim-state crate).
    pub sim_state: bool,
    /// Skip `wall-clock` (file belongs to the measurement harness).
    pub allow_wall_clock: bool,
}

impl FileContext {
    /// Context for a path under the workspace root, derived from the
    /// `crates/<name>/` component.
    pub fn for_path(rel: &str) -> FileContext {
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("");
        FileContext {
            sim_state: SIM_STATE_CRATES.contains(&crate_name),
            allow_wall_clock: WALL_CLOCK_CRATES.contains(&crate_name),
        }
    }
}

// --- Waiver harvesting ----------------------------------------------------

/// A waiver parsed from a comment, byte span included.
struct RawWaiver {
    line: usize,
    rule: Rule,
    reason: String,
    span: (usize, usize),
}

fn parse_waiver(
    comment: &str,
    line: usize,
    span: (usize, usize),
    waivers: &mut Vec<RawWaiver>,
    bad: &mut Vec<(usize, String)>,
) {
    let Some(idx) = comment.find("ape-lint:") else {
        return;
    };
    let rest = comment[idx + "ape-lint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        bad.push((line, "expected `allow(<rule>)` after `ape-lint:`".into()));
        return;
    };
    let Some(close) = rest.find(')') else {
        bad.push((line, "unclosed `allow(`".into()));
        return;
    };
    let rule_name = rest[..close].trim();
    let Some(rule) = Rule::parse(rule_name) else {
        bad.push((line, format!("unknown rule `{rule_name}`")));
        return;
    };
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix("--").map(str::trim).unwrap_or("");
    if reason.is_empty() {
        bad.push((
            line,
            format!("waiver for `{rule_name}` needs a reason: `-- <why>`"),
        ));
        return;
    }
    waivers.push(RawWaiver {
        line,
        rule,
        reason: reason.to_owned(),
        span,
    });
}

// --- Identifier tracking (v1 line rules) ----------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type in this
/// file: struct fields and `let` bindings with an explicit annotation,
/// `= HashMap::new()` initializers, and `let x = … .collect::<HashMap…>()`.
fn tracked_hash_idents(code_lines: &[&str]) -> BTreeMap<String, usize> {
    let mut tracked = BTreeMap::new();
    for (idx, line) in code_lines.iter().enumerate() {
        for ty in ["HashMap", "HashSet"] {
            // `ident: HashMap<` (field / annotated let / fn param).
            let mut from = 0;
            while let Some(pos) = line[from..].find(ty) {
                let at = from + pos;
                from = at + ty.len();
                // Reject identifiers merely containing the type name.
                let before_ok = at == 0 || !is_ident_char(line.as_bytes()[at - 1] as char);
                let after = line[at + ty.len()..].chars().next().unwrap_or(' ');
                if !before_ok || is_ident_char(after) {
                    continue;
                }
                if let Some(name) = ident_before_colon(line, at) {
                    tracked.entry(name).or_insert(idx + 1);
                } else if let Some(name) = let_binding_target(line) {
                    // `let x = HashMap::new()` / `let x: … = … HashMap …`.
                    tracked.entry(name).or_insert(idx + 1);
                }
            }
        }
    }
    tracked
}

/// For `foo: HashMap<…>` (also `foo: &HashMap<…>` / `&mut HashMap<…>`) at
/// `type_pos`, returns `foo`.
fn ident_before_colon(line: &str, type_pos: usize) -> Option<String> {
    let mut prefix = line[..type_pos].trim_end();
    loop {
        if let Some(p) = prefix.strip_suffix("mut") {
            prefix = p.trim_end();
        } else if let Some(p) = prefix.strip_suffix('&') {
            prefix = p.trim_end();
        } else {
            break;
        }
    }
    let prefix = prefix.strip_suffix(':')?.trim_end();
    let end = prefix.len();
    let start = prefix
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident_char(*c))
        .map(|(i, _)| i)
        .last()?;
    let name = &prefix[start..end];
    (!name.is_empty() && !name.chars().next().unwrap().is_ascii_digit()).then(|| name.to_owned())
}

/// For `let (mut) x = …`, returns `x`.
fn let_binding_target(line: &str) -> Option<String> {
    let t = line.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
    (!name.is_empty()).then_some(name)
}

// --- Line-rule detection (v1) ---------------------------------------------

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

const WALL_CLOCK_PATTERNS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "rand::random",
    "getrandom",
    "RandomState",
];

/// Span/trace instrumentation call sites for `metric-name` (D3): the name
/// must be a `SpanKind::…::as_str()`. Metric-recording sites
/// (`incr`/`observe`/`record_point`/`counter`) are owned by the
/// registry-aware `metric-registry` rule instead.
const METRIC_METHODS: &[&str] = &[
    ".begin_trace(",
    ".span_start(",
    ".span_end(",
    ".span_end_at(",
    ".span_instant(",
];

const FLOAT_FOLD_PATTERNS: &[&str] = &[".sum::<f64", ".sum::<f32", ".fold(0.0", ".fold(0f"];

/// Returns the receiver identifier of a method call ending at `dot_pos`
/// (the index of the `.`): for `self.entries.keys()` → `entries`.
fn receiver_ident(line: &str, dot_pos: usize) -> Option<String> {
    let prefix = &line[..dot_pos];
    let end = prefix.len();
    let start = prefix
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident_char(*c))
        .map(|(i, _)| i)
        .last()?;
    let name = &prefix[start..end];
    (!name.is_empty()).then(|| name.to_owned())
}

/// The statement window starting at `idx`: the line plus up to `extra`
/// following lines, stopping once a `;` or `{` closes the statement.
fn statement_window(code_lines: &[&str], idx: usize, extra: usize) -> String {
    let mut window = code_lines[idx].to_owned();
    let mut j = idx;
    while !window.contains(';')
        && !window.trim_end().ends_with('{')
        && j + 1 < code_lines.len()
        && j - idx < extra
    {
        j += 1;
        window.push(' ');
        window.push_str(code_lines[j]);
    }
    window
}

/// Detects `for pat in [&mut |&]ident {` over a tracked hash collection and
/// returns the identifier.
fn for_loop_hash_receiver(line: &str, tracked: &BTreeMap<String, usize>) -> Option<String> {
    let for_pos = find_keyword(line, "for ")?;
    let after_for = &line[for_pos + 4..];
    let in_pos = find_keyword(after_for, " in ")?;
    let expr = after_for[in_pos + 4..].trim();
    let expr = expr.split('{').next()?.trim();
    let expr = expr.strip_prefix("&mut ").unwrap_or(expr);
    let expr = expr.strip_prefix('&').unwrap_or(expr);
    let expr = expr.strip_prefix("self.").unwrap_or(expr);
    if !expr.is_empty() && expr.chars().all(is_ident_char) && tracked.contains_key(expr) {
        Some(expr.to_owned())
    } else {
        None
    }
}

/// Finds `kw` at a word boundary (so `before ` doesn't match `therefore `).
fn find_keyword(line: &str, kw: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = line[from..].find(kw) {
        let at = from + pos;
        let boundary = at == 0 || !is_ident_char(line.as_bytes()[at - 1] as char);
        let first_is_space = kw.starts_with(' ');
        if boundary || first_is_space {
            return Some(at);
        }
        from = at + kw.len();
    }
    None
}

/// Whether the argument list starting right after `(` contains a string
/// literal at any nesting depth before the call's closing paren. Blanked
/// code keeps every literal's opening `""`, so one `"` suffices.
fn first_arglist_has_literal(args: &str) -> bool {
    let mut depth = 1;
    for c in args.chars() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            '"' => return true,
            _ => {}
        }
    }
    false
}

// --- Scanning -------------------------------------------------------------

/// Scans one file's source. `rel_path` is used for reporting, waiver
/// bookkeeping and the `time.rs` exemption; `ctx` selects which rules
/// apply; `reg` is the metric-name registry (usually
/// [`Registry::workspace`]).
pub fn scan_source(rel_path: &str, source: &str, ctx: FileContext, reg: &Registry) -> Report {
    let raw_tokens = lexer::lex(source);
    let blanked = lexer::blank_non_code(source, &raw_tokens);
    let code: Vec<lexer::Token> = tree::code_tokens(&raw_tokens);
    let block_tree = tree::BlockTree::build(source, &code);
    let src_lines: Vec<&str> = source.lines().collect();
    let code_lines: Vec<&str> = blanked.lines().collect();
    let mask = tree::test_mask(source, &code, src_lines.len());

    // Harvest waivers from plain (non-doc) line comments.
    let mut raw_waivers: Vec<RawWaiver> = Vec::new();
    let mut bad_waivers: Vec<(usize, String)> = Vec::new();
    for t in &raw_tokens {
        if let lexer::TokenKind::LineComment { doc: false } = t.kind {
            parse_waiver(
                t.text(source),
                t.line as usize,
                (t.start, t.end),
                &mut raw_waivers,
                &mut bad_waivers,
            );
        }
    }

    let tracked = tracked_hash_idents(&code_lines);
    let mut violations = Vec::new();

    // v1 line rules over blanked source.
    for (idx, line) in code_lines.iter().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let line_no = idx + 1;

        // D1 map-iter + D4 float-fold share the tracked-receiver hit.
        let mut hash_iter_hit = false;
        for pat in ITER_METHODS {
            let mut from = 0;
            while let Some(pos) = line[from..].find(pat) {
                let at = from + pos;
                from = at + pat.len();
                if let Some(recv) = receiver_ident(line, at) {
                    if tracked.contains_key(&recv) {
                        hash_iter_hit = true;
                        if ctx.sim_state {
                            violations.push(Violation::new(
                                rel_path,
                                line_no,
                                Rule::MapIter,
                                format!(
                                    "unordered iteration `{recv}{pat}` over a HashMap/HashSet \
                                     (declared line {}); use BTreeMap/BTreeSet or a sorted \
                                     snapshot",
                                    tracked[&recv]
                                ),
                            ));
                        }
                    }
                }
            }
        }
        // `for x in &map` / `for x in map` forms.
        if let Some(recv) = for_loop_hash_receiver(line, &tracked) {
            hash_iter_hit = true;
            if ctx.sim_state {
                violations.push(Violation::new(
                    rel_path,
                    line_no,
                    Rule::MapIter,
                    format!(
                        "unordered `for … in {recv}` over a HashMap/HashSet (declared line {}); \
                         use BTreeMap/BTreeSet or a sorted snapshot",
                        tracked[&recv]
                    ),
                ));
            }
        }

        if hash_iter_hit {
            let window = statement_window(&code_lines, idx, 4);
            for pat in FLOAT_FOLD_PATTERNS {
                if window.contains(pat) {
                    violations.push(Violation::new(
                        rel_path,
                        line_no,
                        Rule::FloatFold,
                        format!(
                            "float accumulation `{pat}…` over an unordered collection; float \
                             addition is order-sensitive — collect and sort first"
                        ),
                    ));
                    break;
                }
            }
        }

        // D2 wall-clock / ambient randomness.
        if !ctx.allow_wall_clock {
            for pat in WALL_CLOCK_PATTERNS {
                if let Some(pos) = line.find(pat) {
                    let before_ok = pos == 0 || !is_ident_char(line.as_bytes()[pos - 1] as char);
                    if before_ok {
                        violations.push(Violation::new(
                            rel_path,
                            line_no,
                            Rule::WallClock,
                            format!(
                                "`{pat}` outside crates/bench; simulated code must use \
                                 SimTime/SimRng so runs are replayable"
                            ),
                        ));
                    }
                }
            }
        }

        // D3 bare span/trace name literals.
        for pat in METRIC_METHODS {
            let mut from = 0;
            while let Some(pos) = line[from..].find(pat) {
                let at = from + pos;
                from = at + pat.len();
                let window = statement_window(&code_lines, idx, 2);
                let wpos = window.find(pat).map(|p| p + pat.len()).unwrap_or(0);
                if first_arglist_has_literal(&window[wpos..]) {
                    violations.push(Violation::new(
                        rel_path,
                        line_no,
                        Rule::MetricName,
                        format!(
                            "bare name literal in `{}…)` call; reference \
                             SpanKind::…::as_str() (or an `ape_proto::names` constant) instead",
                            &pat[..pat.len() - 1]
                        ),
                    ));
                    break;
                }
            }
        }
    }

    // v2 token rules.
    rules::span_balance(rel_path, source, &code, &block_tree, &mask, &mut violations);
    if ctx.sim_state && rel_path != TIME_IMPL_FILE {
        rules::sim_time_arith(rel_path, source, &code, &mask, &mut violations);
    }
    rules::metric_registry(rel_path, source, &code, &mask, reg, &mut violations);

    // Waiver application: a waiver on line L covers violations on L and L+1.
    let mut waivers: Vec<Waiver> = raw_waivers
        .into_iter()
        .map(|w| Waiver {
            file: rel_path.to_owned(),
            line: w.line,
            rule: w.rule,
            reason: w.reason,
            used: false,
            span: w.span,
        })
        .collect();
    for v in &mut violations {
        for w in &mut waivers {
            if w.rule == v.rule && (w.line == v.line || w.line + 1 == v.line) {
                v.waived = true;
                w.used = true;
            }
        }
    }

    // Unused waivers are violations themselves, with a removal fix.
    for w in &waivers {
        if !w.used {
            violations.push(
                Violation::new(
                    rel_path,
                    w.line,
                    Rule::UnusedWaiver,
                    format!(
                        "waiver `allow({})` no longer matches any violation on line {} or {}; \
                         remove it (or re-justify it) so the ledger stays honest",
                        w.rule,
                        w.line,
                        w.line + 1
                    ),
                )
                .with_fix(waiver_removal_fix(source, w.span)),
            );
        }
    }

    for (line, msg) in bad_waivers {
        violations.push(Violation::new(
            rel_path,
            line,
            Rule::WaiverSyntax,
            format!("malformed ape-lint waiver: {msg}"),
        ));
    }

    // Fill excerpts (normalized raw source line) and sort for stable output.
    for v in &mut violations {
        if let Some(line) = src_lines.get(v.line.saturating_sub(1)) {
            v.excerpt = line.split_whitespace().collect::<Vec<_>>().join(" ");
        }
    }
    violations.sort_by(|a, b| {
        (a.line, a.rule.as_str(), &a.message).cmp(&(b.line, b.rule.as_str(), &b.message))
    });
    waivers.sort_by_key(|w| w.line);

    Report {
        violations,
        waivers,
        files_scanned: 1,
    }
}

/// A fix deleting the waiver comment at `span`. If the comment is alone on
/// its line the whole line goes (trailing newline included); otherwise the
/// comment plus the spaces before it.
fn waiver_removal_fix(source: &str, span: (usize, usize)) -> Fix {
    let (start, end) = span;
    let line_start = source[..start].rfind('\n').map(|p| p + 1).unwrap_or(0);
    let prefix = &source[line_start..start];
    if prefix.chars().all(char::is_whitespace) {
        let line_end = source[end..]
            .find('\n')
            .map(|p| end + p + 1)
            .unwrap_or(source.len());
        Fix {
            start: line_start,
            end: line_end,
            replacement: String::new(),
        }
    } else {
        let trimmed = prefix.trim_end();
        Fix {
            start: line_start + trimmed.len(),
            end,
            replacement: String::new(),
        }
    }
}

/// Applies every fix attached to an unwaived violation of `report` to
/// `source`. Returns the rewritten file, or `None` when there is nothing
/// to fix. Overlapping fixes (should not happen) keep only the first.
pub fn apply_fixes(source: &str, report: &Report) -> Option<String> {
    let mut fixes: Vec<&Fix> = report.fixable().filter_map(|v| v.fix.as_ref()).collect();
    if fixes.is_empty() {
        return None;
    }
    fixes.sort_by_key(|f| (f.start, f.end));
    let mut applied: Vec<&Fix> = Vec::with_capacity(fixes.len());
    let mut last_end = 0usize;
    for f in fixes {
        if f.start >= last_end && f.end >= f.start && f.end <= source.len() {
            applied.push(f);
            last_end = f.end;
        }
    }
    if applied.is_empty() {
        return None;
    }
    let mut out = String::with_capacity(source.len());
    let mut cursor = 0usize;
    for f in applied {
        out.push_str(&source[cursor..f.start]);
        out.push_str(&f.replacement);
        cursor = f.end;
    }
    out.push_str(&source[cursor..]);
    Some(out)
}

// --- Workspace walking ----------------------------------------------------

/// Scans every crate source file under `root` (`crates/*/src/**/*.rs` and
/// the umbrella `src/`), merging per-file reports. Test directories and
/// `target/` are out of scope: rules govern shipping simulation code.
pub fn scan_workspace(root: &Path, reg: &Registry) -> std::io::Result<Report> {
    let mut report = Report::default();
    for file in workspace_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        let ctx = FileContext::for_path(&rel);
        let file_report = scan_source(&rel, &source, ctx, reg);
        report.violations.extend(file_report.violations);
        report.waivers.extend(file_report.waivers);
        report.files_scanned += 1;
    }
    Ok(report)
}

/// The files a workspace scan visits, sorted.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files)?;
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root, resolved from this crate's manifest directory so
/// `cargo run -p ape-lint` works from any working directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}
