//! The token rules: span-balance and metric-registry.
//!
//! These run on the comment-free token stream (plus the block tree), unlike
//! the `metric-name` line rule, which substring-searches blanked source.
//! Each detector pushes [`Violation`]s.
//!
//! Honesty about scope: span-balance is a *leak-shape* detector, not a path
//! analysis. It flags a span binding (started via `span_start`/`begin_trace`,
//! or resumed from state via a `span`/`*_span` binding) that is never
//! mentioned again inside its scope — the exact shape of the PR 5
//! `handle_dns_response` leak. A span that is used once but dropped on one
//! early-return path is beyond a zero-dependency linter; the runtime trace
//! tests cover that half.

use crate::lexer::{string_value, Token, TokenKind};
use crate::registry::Registry;
use crate::tree::BlockTree;
use crate::{Rule, Violation};

fn is_p(src: &str, t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text(src) == s
}

fn is_i(src: &str, t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text(src) == s
}

fn masked(mask: &[bool], t: &Token) -> bool {
    mask.get(t.line as usize - 1).copied().unwrap_or(false)
}

/// Index of the bracket matching the opener at `open_idx`, scanning forward.
fn find_close(src: &str, toks: &[Token], open_idx: usize) -> Option<usize> {
    let open = toks[open_idx].text(src);
    let close = match open {
        "(" => ")",
        "[" => "]",
        "{" => "}",
        _ => return None,
    };
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if is_p(src, t, open) {
            depth += 1;
        } else if is_p(src, t, close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

// --- span-balance ---------------------------------------------------------

/// Whether a binding name marks a span by convention.
fn span_name(name: &str) -> bool {
    name == "span" || name.ends_with("_span")
}

/// Detects span bindings that are never used again in their scope.
pub fn span_balance(
    rel: &str,
    src: &str,
    toks: &[Token],
    tree: &BlockTree,
    mask: &[bool],
    out: &mut Vec<Violation>,
) {
    let n = toks.len();
    let mut i = 0;
    while i < n {
        let t = &toks[i];
        // Pattern A/B: `let [mut] NAME [: T] = RHS ;` where the RHS calls
        // span_start/begin_trace, or NAME follows the span convention.
        if is_i(src, t, "let")
            && !(i > 0 && (is_i(src, &toks[i - 1], "if") || is_i(src, &toks[i - 1], "while")))
        {
            if let Some(v) = check_let_binding(rel, src, toks, tree, mask, i) {
                out.push(v);
            }
            i += 1;
            continue;
        }
        // Pattern C: `if/while let Some(NAME…) = … { body }` resuming a
        // span from state (`pending.span`, `fetch.lookup_span.take()`, …).
        if (is_i(src, t, "if") || is_i(src, t, "while"))
            && i + 4 < n
            && is_i(src, &toks[i + 1], "let")
            && is_i(src, &toks[i + 2], "Some")
            && is_p(src, &toks[i + 3], "(")
        {
            if let Some(v) = check_if_let_binding(rel, src, toks, tree, mask, i) {
                out.push(v);
            }
        }
        i += 1;
    }
}

fn check_let_binding(
    rel: &str,
    src: &str,
    toks: &[Token],
    tree: &BlockTree,
    mask: &[bool],
    let_idx: usize,
) -> Option<Violation> {
    let n = toks.len();
    let mut j = let_idx + 1;
    if j < n && is_i(src, &toks[j], "mut") {
        j += 1;
    }
    let name_tok = toks.get(j)?;
    if name_tok.kind != TokenKind::Ident {
        return None; // destructuring pattern — out of scope
    }
    let name = name_tok.text(src);
    if name.starts_with('_') || name == "let" {
        return None;
    }
    // Scan past an optional `: Type` annotation to the `=` (or bail at `;`).
    let mut k = j + 1;
    let mut depth = 0i32;
    while k < n {
        let t = &toks[k];
        if depth == 0 && is_p(src, t, "=") {
            break;
        }
        if depth == 0 && (is_p(src, t, ";") || is_p(src, t, "{") || is_p(src, t, "}")) {
            return None; // no initializer
        }
        if is_p(src, t, "(") || is_p(src, t, "[") || is_p(src, t, "<") {
            depth += 1;
        } else if is_p(src, t, ")") || is_p(src, t, "]") || is_p(src, t, ">") {
            depth -= 1;
        }
        k += 1;
    }
    if k >= n {
        return None;
    }
    // RHS: from past `=` to the statement's `;` at bracket depth 0.
    let rhs_start = k + 1;
    let mut depth = 0i32;
    let mut semi = None;
    for (m, t) in toks.iter().enumerate().skip(rhs_start) {
        if depth == 0 && is_p(src, t, ";") {
            semi = Some(m);
            break;
        }
        if is_p(src, t, "(") || is_p(src, t, "[") || is_p(src, t, "{") {
            depth += 1;
        } else if is_p(src, t, ")") || is_p(src, t, "]") || is_p(src, t, "}") {
            depth -= 1;
            if depth < 0 {
                break; // statement truncated by block close
            }
        }
    }
    let semi = semi?;
    let rhs_starts_span = toks[rhs_start..semi]
        .iter()
        .any(|t| is_i(src, t, "span_start") || is_i(src, t, "begin_trace"));
    if !rhs_starts_span && !span_name(name) {
        return None;
    }
    if masked(mask, name_tok) {
        return None;
    }
    // Scope: rest of the innermost block containing the `let`.
    let block = tree.innermost(let_idx);
    let used = toks[semi + 1..block.close.min(toks.len())]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text(src) == name);
    if used {
        return None;
    }
    Some(Violation::new(
        rel,
        name_tok.line as usize,
        Rule::SpanBalance,
        format!(
            "span binding `{name}` is started but never ended or stored; every span must reach \
             `span_end`/`span_end_at` or escape into pending state on all paths"
        ),
    ))
}

fn check_if_let_binding(
    rel: &str,
    src: &str,
    toks: &[Token],
    tree: &BlockTree,
    mask: &[bool],
    if_idx: usize,
) -> Option<Violation> {
    let n = toks.len();
    let mut inner = if_idx + 4;
    if inner < n && is_p(src, &toks[inner], "(") {
        inner += 1; // tuple pattern `Some((span, kind))`
    }
    let name_tok = toks.get(inner)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    let name = name_tok.text(src);
    if name.starts_with('_') || !span_name(name) {
        return None;
    }
    if masked(mask, name_tok) {
        return None;
    }
    // The body block: first `{` at bracket depth 0 after the pattern.
    let mut depth = 0i32;
    let mut open = None;
    for (k, t) in toks.iter().enumerate().skip(if_idx + 3) {
        if is_p(src, t, "(") || is_p(src, t, "[") {
            depth += 1;
        } else if is_p(src, t, ")") || is_p(src, t, "]") {
            depth -= 1;
        } else if depth == 0 && is_p(src, t, "{") {
            open = Some(k);
            break;
        }
    }
    let open = open?;
    let block = tree.blocks.iter().find(|b| b.open == open)?;
    let used = toks[block.open + 1..block.close.min(toks.len())]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text(src) == name);
    if used {
        return None;
    }
    Some(Violation::new(
        rel,
        name_tok.line as usize,
        Rule::SpanBalance,
        format!(
            "span binding `{name}` resumed from pending state is never ended or re-stored; \
             end it with `span_end`/`span_end_at` or put it back"
        ),
    ))
}

// --- metric-registry ------------------------------------------------------

/// Metric-recording methods taking a *name string* first argument. Span
/// methods (`begin_trace`, `span_start`, …) take `SpanKind` names and stay
/// under the `metric-name` rule.
const METRIC_STR_METHODS: &[&str] = &["incr", "observe", "record_point", "counter"];
/// Interned-id recording methods: the argument must be a registered const.
const METRIC_ID_METHODS: &[&str] = &["incr_id", "observe_id", "record_point_id"];

/// Checks metric-name literals and interned-id arguments against the
/// registry exported by `ape_proto::names`.
pub fn metric_registry(
    rel: &str,
    src: &str,
    toks: &[Token],
    mask: &[bool],
    reg: &Registry,
    out: &mut Vec<Violation>,
) {
    let n = toks.len();
    for i in 0..n {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || i == 0 || !is_p(src, &toks[i - 1], ".") {
            continue;
        }
        let method = t.text(src);
        let open = i + 1;
        if open >= n || !is_p(src, &toks[open], "(") {
            continue;
        }
        if masked(mask, t) {
            continue;
        }
        if METRIC_STR_METHODS.contains(&method) {
            let Some(arg) = toks.get(open + 1) else {
                continue;
            };
            if arg.kind != TokenKind::Str {
                continue;
            }
            let line = arg.line as usize;
            match string_value(src, arg) {
                Some(value) if reg.const_for(value).is_some() => {
                    let ident = reg.const_for(value).expect("checked");
                    out.push(Violation::new(
                        rel,
                        line,
                        Rule::MetricRegistry,
                        format!(
                            "literal metric name \"{value}\" duplicates the registered \
                             constant; use `ape_proto::names::{ident}`"
                        ),
                    ));
                }
                Some(value) if reg.resolves(value) => {
                    out.push(Violation::new(
                        rel,
                        line,
                        Rule::MetricRegistry,
                        format!(
                            "literal metric name \"{value}\" matches a registered dynamic \
                             prefix; build it with the helper next to the `*_PREFIX` constant \
                             in `ape_proto::names`"
                        ),
                    ));
                }
                Some(value) => {
                    out.push(Violation::new(
                        rel,
                        line,
                        Rule::MetricRegistry,
                        format!(
                            "unregistered metric name \"{value}\"; add it to \
                             `ape_proto::names` (REGISTRY) or use an existing constant"
                        ),
                    ));
                }
                None => {
                    out.push(Violation::new(
                        rel,
                        line,
                        Rule::MetricRegistry,
                        "escaped/opaque metric-name literal cannot resolve against \
                         `ape_proto::names`; use a registered constant"
                            .to_owned(),
                    ));
                }
            }
        } else if METRIC_ID_METHODS.contains(&method) {
            // First argument: the path's final SCREAMING_CASE ident must be
            // a registered const. Lowercase (variables) are skipped — the
            // static side cannot resolve them.
            let Some(close) = find_close(src, toks, open) else {
                continue;
            };
            let mut depth = 0i32;
            let mut last_const: Option<usize> = None;
            for ai in open + 1..close {
                let a = &toks[ai];
                if is_p(src, a, "(") {
                    depth += 1;
                } else if is_p(src, a, ")") {
                    depth -= 1;
                } else if depth == 0 && is_p(src, a, ",") {
                    break;
                } else if depth == 0 && a.kind == TokenKind::Ident {
                    let text = a.text(src);
                    if text.len() > 1
                        && text
                            .chars()
                            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
                    {
                        // `IDS[i]` / `IDS.len()` / `F(x)` are expressions
                        // *on* a const (e.g. indexing an id table), not a
                        // terminal id path — only flag the bare/path form.
                        let next = toks.get(ai + 1);
                        let indexed = next.is_some_and(|t| {
                            is_p(src, t, "[") || is_p(src, t, "(") || is_p(src, t, ".")
                        });
                        last_const = if indexed { None } else { Some(ai) };
                    }
                }
            }
            if let Some(ci) = last_const {
                let c = &toks[ci];
                let ident = c.text(src);
                if !reg.knows_ident(ident) {
                    out.push(Violation::new(
                        rel,
                        c.line as usize,
                        Rule::MetricRegistry,
                        format!(
                            "interned metric id `{ident}` is not in the `ape_proto::names` \
                             registry (stale or ad-hoc id)"
                        ),
                    ));
                }
            }
        }
    }
}
