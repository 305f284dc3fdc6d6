//! A small self-contained Rust lexer.
//!
//! The token rules (span-balance, metric-registry) need real token
//! boundaries — `m.incr("…")` is a call site while the same text inside a
//! string, a comment or a doc example is not — so this module tokenizes
//! Rust source properly: raw strings at any hash depth, nested block
//! comments, char-literal vs lifetime disambiguation, byte/raw-byte
//! strings, and byte-accurate spans.
//!
//! The lexer is deliberately smaller than a compiler front end: it does not
//! classify keywords (rules match identifier text), does not parse numeric
//! suffixes beyond gluing them to the number, and leaves `<`/`>` as single
//! puncts so generics never confuse shift detection.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`let`, `fn`, `as_nanos`, …).
    Ident,
    /// Lifetime (`'a`) — *not* a char literal.
    Lifetime,
    /// Numeric literal, suffix included (`1_000u64`, `0xFF`, `1.5e3`).
    Num,
    /// String literal of any flavor: `"…"`, `r#"…"#`, `b"…"`, `br##"…"##`.
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation; multi-char operators listed in [`COMBINED`] form one
    /// token (`::`, `->`, `=>`, `+=`, …), everything else is one char.
    Punct,
    /// `// …` comment. `doc` distinguishes `///` / `//!` prose.
    LineComment {
        /// Whether this is a doc comment (`///` or `//!`).
        doc: bool,
    },
    /// `/* … */` comment (nesting handled). `doc` marks `/**` / `/*!`.
    BlockComment {
        /// Whether this is a doc comment (`/**` or `/*!`).
        doc: bool,
    },
}

/// One token with its byte span in the original source.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based source line of the token's first byte.
    pub line: u32,
}

impl Token {
    /// The token's text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// Whether this token is a comment of either flavor.
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment { .. } | TokenKind::BlockComment { .. }
        )
    }
}

/// Multi-char operators combined into a single [`TokenKind::Punct`] token.
/// Order matters: longer first so `..=` wins over `..`.
const COMBINED: &[&str] = &[
    "..=", "...", "::", "->", "=>", "..", "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=",
    "/=", "%=", "&=", "|=", "^=",
];

/// Tokenizes `src`. Invalid input (unterminated string, stray byte) never
/// panics: the lexer emits a best-effort token and continues, because lint
/// must degrade gracefully on code that rustc will reject anyway.
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut tokens = Vec::with_capacity(n / 4);
    let mut i = 0;
    let mut line: u32 = 1;
    while i < n {
        let c = bytes[i];
        let start = i;
        let start_line = line;
        match c {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            c if c.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                let doc = matches!(bytes.get(i + 2), Some(b'/') | Some(b'!'))
                    // `////…` separator lines are not doc comments.
                    && bytes.get(i + 3) != Some(&b'/');
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::LineComment { doc },
                    start,
                    end: i,
                    line: start_line,
                });
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                let doc = matches!(bytes.get(i + 2), Some(b'*') | Some(b'!'))
                    && bytes.get(i + 3) != Some(&b'*');
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::BlockComment { doc },
                    start,
                    end: i,
                    line: start_line,
                });
            }
            b'r' | b'b' if is_string_start(bytes, i) => {
                i = skip_string(bytes, i, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Str,
                    start,
                    end: i,
                    line: start_line,
                });
            }
            b'b' if i + 1 < n && bytes[i + 1] == b'\'' => {
                i = skip_char_literal(bytes, i + 1).unwrap_or(i + 2);
                tokens.push(Token {
                    kind: TokenKind::Char,
                    start,
                    end: i,
                    line: start_line,
                });
            }
            b'"' => {
                i = skip_string(bytes, i, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Str,
                    start,
                    end: i,
                    line: start_line,
                });
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    i = end;
                    tokens.push(Token {
                        kind: TokenKind::Char,
                        start,
                        end: i,
                        line: start_line,
                    });
                } else {
                    // Lifetime: `'` + ident chars.
                    i += 1;
                    while i < n && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        start,
                        end: i,
                        line: start_line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                i = skip_number(bytes, i);
                tokens.push(Token {
                    kind: TokenKind::Num,
                    start,
                    end: i,
                    line: start_line,
                });
            }
            c if is_ident_start(c) => {
                i += 1;
                while i < n && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    start,
                    end: i,
                    line: start_line,
                });
            }
            _ => {
                // Punct, multi-char operators combined. Multi-byte UTF-8
                // (only legal inside strings/comments/idents in valid Rust)
                // is consumed whole so spans stay on char boundaries.
                if c >= 0x80 {
                    i += 1;
                    while i < n && bytes[i] & 0xC0 == 0x80 {
                        i += 1;
                    }
                } else {
                    let mut len = 1;
                    for op in COMBINED {
                        if src[i..].starts_with(op) {
                            len = op.len();
                            break;
                        }
                    }
                    i += len;
                }
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    start,
                    end: i,
                    line: start_line,
                });
            }
        }
    }
    tokens
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Whether a string literal (raw or byte or both) starts at `i`, where
/// `bytes[i]` is `r` or `b`.
fn is_string_start(bytes: &[u8], i: usize) -> bool {
    let n = bytes.len();
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if j >= n {
            return false;
        }
        if bytes[j] == b'"' {
            return true;
        }
    }
    if j < n && bytes[j] == b'r' {
        j += 1;
        while j < n && bytes[j] == b'#' {
            j += 1;
        }
        return j < n && bytes[j] == b'"';
    }
    false
}

/// Skips a string literal starting at `i` (`"`, `r"`, `r#"`, `b"`, `br#"`,
/// …), counting newlines into `line`. Returns the index past the closing
/// delimiter (or `len` if unterminated).
fn skip_string(bytes: &[u8], i: usize, line: &mut u32) -> usize {
    let n = bytes.len();
    let mut j = i;
    if j < n && bytes[j] == b'b' {
        j += 1;
    }
    let raw = j < n && bytes[j] == b'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while raw && j < n && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    debug_assert!(j < n && bytes[j] == b'"');
    j += 1; // opening quote
    while j < n {
        match bytes[j] {
            b'\\' if !raw => {
                // A line-continuation escape (`\` + newline) still advances
                // the line counter.
                if bytes.get(j + 1) == Some(&b'\n') {
                    *line += 1;
                }
                j += 2;
            }
            b'\n' => {
                *line += 1;
                j += 1;
            }
            b'"' => {
                let mut k = j + 1;
                let mut seen = 0usize;
                while k < n && seen < hashes && bytes[k] == b'#' {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return k;
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    n
}

/// If a char literal starts at `i` (which holds `'`), returns the index
/// past its closing quote; `None` for lifetimes.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let n = bytes.len();
    if i + 1 >= n {
        return None;
    }
    if bytes[i + 1] == b'\\' {
        return skip_char_literal(bytes, i);
    }
    if is_ident_start(bytes[i + 1]) {
        // `'a'` is a char, `'a` (no closing quote right after) a lifetime.
        // Multi-byte chars ('é') start >= 0x80 and fall through below.
        return (i + 2 < n && bytes[i + 2] == b'\'').then_some(i + 3);
    }
    if bytes[i + 1] == b'\'' {
        return None; // `''` — not valid; treat as two puncts-ish lifetime.
    }
    // Punct or multi-byte char payload: scan to the closing quote.
    skip_char_literal(bytes, i)
}

/// Scans a (possibly escaped) char literal starting at the `'` at `i`;
/// bounded so a stray quote cannot eat the file.
fn skip_char_literal(bytes: &[u8], i: usize) -> Option<usize> {
    let n = bytes.len();
    let mut j = i + 1;
    if j < n && bytes[j] == b'\\' {
        j += 2; // skip the escape head (`\n`, `\u`, `\'`, …)
        while j < n && bytes[j] != b'\'' && j - i < 12 {
            j += 1;
        }
    } else {
        while j < n && bytes[j] != b'\'' && j - i < 6 {
            j += 1;
        }
    }
    (j < n && bytes[j] == b'\'').then_some(j + 1)
}

/// Skips a numeric literal: digits, `_`, radix prefixes, a fractional part
/// (only when `.` is followed by a digit, so ranges stay puncts), exponents
/// and type suffixes.
fn skip_number(bytes: &[u8], i: usize) -> usize {
    let n = bytes.len();
    let mut j = i;
    while j < n && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
        // `1e-3` / `0x…` handled by the alphanumeric sweep; `e±` exponents:
        if (bytes[j] == b'e' || bytes[j] == b'E')
            && j + 1 < n
            && (bytes[j + 1] == b'+' || bytes[j + 1] == b'-')
            && bytes.get(j + 2).is_some_and(u8::is_ascii_digit)
        {
            j += 2;
        }
        j += 1;
    }
    if j < n && bytes[j] == b'.' && bytes.get(j + 1).is_some_and(u8::is_ascii_digit) {
        j += 1;
        while j < n && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            if (bytes[j] == b'e' || bytes[j] == b'E')
                && j + 1 < n
                && (bytes[j + 1] == b'+' || bytes[j + 1] == b'-')
                && bytes.get(j + 2).is_some_and(u8::is_ascii_digit)
            {
                j += 2;
            }
            j += 1;
        }
    }
    j
}

/// Returns a copy of `src` with every comment, string and char literal
/// blanked to spaces **of the same byte length** (newlines preserved), and
/// the first two bytes of each string literal set to `""`. Line and column
/// positions are untouched, so line-oriented rules can substring-search the
/// result, and "call site passes a literal" stays detectable via the `"`.
pub fn blank_non_code(src: &str, tokens: &[Token]) -> String {
    let mut out = src.as_bytes().to_vec();
    for t in tokens {
        match t.kind {
            TokenKind::LineComment { .. } | TokenKind::BlockComment { .. } | TokenKind::Char => {
                for b in &mut out[t.start..t.end] {
                    if *b != b'\n' {
                        *b = b' ';
                    }
                }
            }
            TokenKind::Str => {
                for b in &mut out[t.start..t.end] {
                    if *b != b'\n' {
                        *b = b' ';
                    }
                }
                out[t.start] = b'"';
                if t.start + 1 < t.end {
                    out[t.start + 1] = b'"';
                }
            }
            _ => {}
        }
    }
    // Blanking only ever rewrites whole tokens with single-byte fillers.
    String::from_utf8(out).expect("blanking preserves UTF-8")
}

/// The unescaped value of a plain (non-raw) or raw string token, or `None`
/// when the literal contains escapes the simple decoder does not handle
/// (registry names never need them).
pub fn string_value<'a>(src: &'a str, t: &Token) -> Option<&'a str> {
    let text = t.text(src);
    let body = text
        .strip_prefix('b')
        .unwrap_or(text)
        .trim_start_matches('r')
        .trim_start_matches('#')
        .trim_end_matches('#');
    let body = body.strip_prefix('"')?.strip_suffix('"')?;
    (!body.contains('\\')).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, t.text(src).to_owned()))
            .collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        let ks = kinds("let x = a.as_nanos() - 1_000u64;");
        let texts: Vec<&str> = ks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(
            texts,
            vec!["let", "x", "=", "a", ".", "as_nanos", "(", ")", "-", "1_000u64", ";"]
        );
    }

    #[test]
    fn combined_operators_are_single_tokens() {
        let ks = kinds("a::b -> c => d += e .. f ..= g");
        let ops: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ops, vec!["::", "->", "=>", "+=", "..", "..="]);
    }

    #[test]
    fn raw_and_byte_strings() {
        let src = r####"let a = r#"no " end"#; let b = b"x"; let c = br##"y"##;"####;
        let strs: Vec<String> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(strs.len(), 3, "{strs:?}");
        assert!(strs[0].starts_with("r#\""));
        assert_eq!(strs[1], "b\"x\"");
        assert_eq!(strs[2], "br##\"y\"##");
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a u8) { let c = 'x'; let nl = '\\n'; let q = '\\''; }";
        let ks = kinds(src);
        let lifetimes: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        let chars: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        assert_eq!(chars, vec!["'x'", "'\\n'", "'\\''"]);
    }

    #[test]
    fn nested_block_comments_and_doc_comments() {
        let src = "/* a /* b */ c */ fn f() {} /// doc\n//! inner\n// plain";
        let ks = kinds(src);
        assert_eq!(
            ks[0].0,
            TokenKind::BlockComment { doc: false },
            "{:?}",
            ks[0]
        );
        let docs = ks
            .iter()
            .filter(|(k, _)| matches!(k, TokenKind::LineComment { doc: true }))
            .count();
        let plain = ks
            .iter()
            .filter(|(k, _)| matches!(k, TokenKind::LineComment { doc: false }))
            .count();
        assert_eq!((docs, plain), (2, 1));
    }

    #[test]
    fn lines_are_tracked_through_multiline_tokens() {
        let src = "a\n/* x\ny */\nb \"s\ntr\" c";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.text(src) == "b").unwrap();
        let c = toks.iter().find(|t| t.text(src) == "c").unwrap();
        assert_eq!(b.line, 4);
        assert_eq!(c.line, 5);
    }

    #[test]
    fn line_continuation_escapes_count_newlines() {
        // `\` + newline inside a string is an escape pair; the newline must
        // still advance the line counter or every later violation line in
        // the file drifts (seen on simnet/src/metrics.rs).
        let src = "let m = \"head \\\n         tail\";\nlet after = 1;";
        let toks = lex(src);
        let after = toks.iter().find(|t| t.text(src) == "after").unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn blanking_preserves_length_and_lines() {
        let src = "m.incr(\"ap.x\", 1); // c\nlet s = r#\"multi\nline\"#;";
        let toks = lex(src);
        let blanked = blank_non_code(src, &toks);
        assert_eq!(blanked.len(), src.len());
        assert_eq!(blanked.matches('\n').count(), src.matches('\n').count());
        assert!(blanked.contains("m.incr(\"\""));
        assert!(!blanked.contains("ap.x"));
        assert!(!blanked.contains("// c"));
    }

    #[test]
    fn string_value_unescapes_simple_literals() {
        let src = "(\"ap.dns_queries\", r#\"raw\"#, \"has\\nescape\")";
        let toks = lex(src);
        let strs: Vec<Option<&str>> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| string_value(src, t))
            .collect();
        assert_eq!(strs, vec![Some("ap.dns_queries"), Some("raw"), None]);
    }

    #[test]
    fn floats_and_ranges_do_not_merge() {
        let ks = kinds("for i in 0..5 { let x = 1.5e-3; }");
        let texts: Vec<&str> = ks.iter().map(|(_, t)| t.as_str()).collect();
        assert!(texts.contains(&"0"));
        assert!(texts.contains(&".."));
        assert!(texts.contains(&"5"));
        assert!(texts.contains(&"1.5e-3"));
    }
}
