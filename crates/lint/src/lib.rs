//! # ape-lint — the sim-safety rules a compiler lint cannot express
//!
//! Every result in this workspace is simulation-derived, so the simulator's
//! bitwise-determinism contract *is* the result. The source-level half of
//! that contract has two parts. What types can decide — no `HashMap` /
//! `HashSet` / `RandomState`, no `Instant::now` / `SystemTime::now` — is
//! the root `clippy.toml`'s `disallowed-types` / `disallowed-methods`
//! lists, checked by `cargo clippy` in every crate and through every alias.
//! This crate is the rest: three rules about this repo's own naming
//! conventions, built on a small self-contained Rust lexer ([`lexer`]) and
//! a brace-matched block tree ([`tree`]) — no `syn`, no external
//! dependencies. (The runtime half is
//! `ape_simnet::World::check_determinism`.)
//!
//! - **`metric-name`** — no bare name literals at *span/trace*
//!   instrumentation sites (`ctx.begin_trace("…")`, `.span_start("…")`, …).
//!   Use `SpanKind::…::as_str()`.
//! - **`span-balance`** — a span binding (started via
//!   `span_start`/`begin_trace`, or resumed from pending state) that is
//!   never ended or stored: the PR 5 `handle_dns_response` leak shape.
//! - **`metric-registry`** — metric-name literals at
//!   `incr`/`observe`/`record_point`/`counter` sites and the const idents
//!   at `*_id` sites must resolve against `ape_proto::names`
//!   ([`registry::Registry`]).
//!
//! There are no waivers: every violation fails `check`.
//!
//! ## Scope and honesty about the approach
//!
//! The lexer gives exact token boundaries (raw strings, nested block
//! comments, char/lifetime disambiguation), but there is no type
//! inference, and span-balance flags the *never-used* leak shape, not
//! all-paths coverage. That is the deliberate trade-off for a
//! zero-dependency tool the repo can always build; the runtime race
//! detector and trace tests cover what the static side misses.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod registry;
pub mod rules;
pub mod tree;

pub use registry::Registry;

/// The rules the scanner enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Span started/resumed but never ended or stored (leak shape).
    SpanBalance,
    /// Bare span/trace name literal at an instrumentation call site.
    MetricName,
    /// Metric name/id does not resolve against `ape_proto::names`.
    MetricRegistry,
}

impl Rule {
    /// The CLI name of the rule.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::SpanBalance => "span-balance",
            Rule::MetricName => "metric-name",
            Rule::MetricRegistry => "metric-registry",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
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
}

impl Violation {
    /// A violation of `rule` at `file:line`.
    pub fn new(file: &str, line: usize, rule: Rule, message: String) -> Violation {
        Violation {
            file: file.to_owned(),
            line,
            rule,
            message,
        }
    }
}

/// Scan result over one file or a whole workspace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All violations found; any one fails the build.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the scan is clean (no violations).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

// --- metric-name (line rule over blanked source) ---------------------------

/// Span/trace instrumentation call sites for `metric-name`: the name
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

/// Scans one file's source. `rel_path` is used for reporting; `reg` is the
/// metric-name registry (usually [`Registry::workspace`]).
pub fn scan_source(rel_path: &str, source: &str, reg: &Registry) -> Report {
    let raw_tokens = lexer::lex(source);
    let blanked = lexer::blank_non_code(source, &raw_tokens);
    let code: Vec<lexer::Token> = tree::code_tokens(&raw_tokens);
    let block_tree = tree::BlockTree::build(source, &code);
    let code_lines: Vec<&str> = blanked.lines().collect();
    let mask = tree::test_mask(source, &code, source.lines().count());

    let mut violations = Vec::new();

    // metric-name: bare span/trace name literals, over blanked source.
    for (idx, line) in code_lines.iter().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
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
                        idx + 1,
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

    // Token rules.
    rules::span_balance(rel_path, source, &code, &block_tree, &mask, &mut violations);
    rules::metric_registry(rel_path, source, &code, &mask, reg, &mut violations);

    // Sort for stable output.
    violations.sort_by(|a, b| {
        (a.line, a.rule.as_str(), &a.message).cmp(&(b.line, b.rule.as_str(), &b.message))
    });

    Report {
        violations,
        files_scanned: 1,
    }
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
        report
            .violations
            .extend(scan_source(&rel, &source, reg).violations);
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
