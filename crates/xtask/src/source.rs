//! A line-oriented model of one Rust source file.
//!
//! Rules never see raw text: each line is split into *code* (with
//! comment text and string/char-literal contents blanked out) and
//! *comment* (the text of any `//` / `/* */` / doc comment on that
//! line). Blanking rather than deleting keeps byte offsets stable, so a
//! finding's column context still lines up with the file on disk.
//!
//! The model also tracks which lines belong to `#[cfg(test)]` regions
//! (by brace counting from the attribute) and parses
//! `pinocchio-lint: allow(<rule>) -- <justification>` suppressions.

use crate::diag::{is_known_rule, Diagnostic, SUPPRESSION_RULE};

/// One source line after lexical classification.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line's code with comments removed and literal contents
    /// blanked (quotes kept, contents replaced by spaces).
    pub code: String,
    /// The concatenated comment text of the line (without `//`, `/*`).
    pub comment: String,
    /// Whether this line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
    /// Whether the line's comment is a doc comment (`///` or `//!`).
    /// Doc comments describe code — they never carry live suppressions.
    pub doc_comment: bool,
}

/// A parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule id being allowed.
    pub rule: String,
    /// The 1-based line the suppression applies to.
    pub target_line: usize,
    /// The 1-based line the comment itself is on.
    pub comment_line: usize,
    /// Whether a non-empty `-- <justification>` was given. Unjustified
    /// suppressions suppress nothing.
    pub justified: bool,
}

/// One fully classified source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Lines in order; index 0 is line 1.
    pub lines: Vec<Line>,
    /// All suppression comments found in the file.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Lexes `text` into the line model. `path` is stored verbatim and
    /// used by rules for scoping decisions.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let mut lexer = Lexer::default();
        let mut lines: Vec<Line> = text
            .lines()
            .map(|raw| {
                let (code, comment, doc_comment) = lexer.strip_line(raw);
                Line {
                    code,
                    comment,
                    in_test: false,
                    doc_comment,
                }
            })
            .collect();
        mark_test_regions(&mut lines);
        let suppressions = parse_suppressions(&lines);
        SourceFile {
            path: path.to_string(),
            lines,
            suppressions,
        }
    }

    /// Whether `rule` is validly suppressed at 1-based `line`.
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.justified && s.target_line == line && s.rule == rule)
    }

    /// Diagnostics for malformed suppressions: missing justification or
    /// unknown rule id. These are deny-severity — a suppression that
    /// does not explain itself defeats the audit trail it exists for.
    pub fn suppression_diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for s in &self.suppressions {
            if !s.justified {
                out.push(
                    Diagnostic::deny(
                        SUPPRESSION_RULE,
                        &self.path,
                        s.comment_line,
                        format!("suppression of `{}` has no justification", s.rule),
                    )
                    .with_suggestion(
                        "write `// pinocchio-lint: allow(<rule>) -- <why this is sound>`",
                    ),
                );
            }
            if !is_known_rule(&s.rule) {
                out.push(Diagnostic::deny(
                    SUPPRESSION_RULE,
                    &self.path,
                    s.comment_line,
                    format!("suppression names unknown rule `{}`", s.rule),
                ));
            }
        }
        out
    }

    /// Whether any code line contains `needle` (comments and literal
    /// contents excluded).
    pub fn code_contains(&self, needle: &str) -> bool {
        self.lines.iter().any(|l| l.code.contains(needle))
    }
}

/// Lexer state carried across lines: block-comment nesting (Rust block
/// comments nest) and raw-string continuation.
#[derive(Default)]
struct Lexer {
    block_depth: usize,
    /// `Some(hashes)` while inside a raw string `r#…"…"#…`.
    raw_string: Option<usize>,
    /// Inside an ordinary `"…"` literal that continues past a newline
    /// (e.g. a `\`-continuation string).
    in_string: bool,
}

impl Lexer {
    /// Splits one raw line into (code, comment, is-doc-comment),
    /// blanking literal contents. State persists across calls for
    /// multi-line constructs.
    fn strip_line(&mut self, raw: &str) -> (String, String, bool) {
        let bytes = raw.as_bytes();
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut doc_comment = false;
        let mut i = 0usize;
        if self.in_string {
            self.in_string = false;
            self.scan_string(raw, &mut code, &mut i);
        }
        while i < bytes.len() {
            if self.block_depth > 0 {
                // Inside /* … */ — collect as comment text.
                if bytes[i..].starts_with(b"*/") {
                    self.block_depth -= 1;
                    i += 2;
                } else if bytes[i..].starts_with(b"/*") {
                    self.block_depth += 1;
                    i += 2;
                } else {
                    push_char(raw, &mut comment, &mut i);
                }
                continue;
            }
            if let Some(hashes) = self.raw_string {
                // Inside a raw string literal — blank until `"###`.
                let mut close = String::from("\"");
                close.push_str(&"#".repeat(hashes));
                if raw[i..].starts_with(&close) {
                    code.push('"');
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    i += close.len();
                    self.raw_string = None;
                } else {
                    code.push(' ');
                    skip_char(raw, &mut i);
                }
                continue;
            }
            if bytes[i..].starts_with(b"//") {
                doc_comment = bytes[i..].starts_with(b"///") || bytes[i..].starts_with(b"//!");
                comment.push_str(raw[i + 2..].trim());
                break;
            }
            if bytes[i..].starts_with(b"/*") {
                self.block_depth += 1;
                i += 2;
                continue;
            }
            match bytes[i] {
                b'"' => {
                    code.push('"');
                    i += 1;
                    self.scan_string(raw, &mut code, &mut i);
                }
                b'r' if is_raw_string_start(raw, i) => {
                    let hashes = raw_string_hashes(raw, i).unwrap_or(0);
                    code.push('r');
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    code.push('"');
                    i += 1 + hashes + 1;
                    self.raw_string = Some(hashes);
                }
                b'b' if is_byte_raw_string_start(raw, i) => {
                    // `br#"…"#` — a byte raw string. Without this arm the
                    // `b` prefix defeats the identifier check on the `r`
                    // and the contents get scanned as a *normal* string,
                    // where a lone `"` or `\` corrupts the rest of the
                    // lex.
                    let hashes = raw_string_hashes(raw, i + 1).unwrap_or(0);
                    code.push('b');
                    code.push('r');
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    code.push('"');
                    i += 2 + hashes + 1;
                    self.raw_string = Some(hashes);
                }
                b'\'' => {
                    // Char literal vs lifetime: a literal closes with a
                    // quote after one (possibly escaped) character.
                    if let Some(len) = char_literal_len(raw, i) {
                        code.push('\'');
                        for _ in 0..len.saturating_sub(2) {
                            code.push(' ');
                        }
                        code.push('\'');
                        i += len;
                    } else {
                        push_char(raw, &mut code, &mut i);
                    }
                }
                _ => push_char(raw, &mut code, &mut i),
            }
        }
        (code, comment, doc_comment)
    }

    /// Consumes a normal string literal body (opening quote already
    /// emitted), blanking its contents. A literal still open at the end
    /// of the line (a `\`-continuation string) sets `in_string` so the
    /// next line resumes inside it.
    fn scan_string(&mut self, raw: &str, code: &mut String, i: &mut usize) {
        let bytes = raw.as_bytes();
        while *i < bytes.len() {
            match bytes[*i] {
                b'\\' => {
                    code.push(' ');
                    *i += 1;
                    if *i < bytes.len() {
                        code.push(' ');
                        skip_char(raw, i);
                    }
                }
                b'"' => {
                    code.push('"');
                    *i += 1;
                    return;
                }
                _ => {
                    code.push(' ');
                    skip_char(raw, i);
                }
            }
        }
        self.in_string = true;
    }
}

fn push_char(raw: &str, out: &mut String, i: &mut usize) {
    if let Some(c) = raw[*i..].chars().next() {
        out.push(c);
        *i += c.len_utf8();
    } else {
        *i += 1;
    }
}

fn skip_char(raw: &str, i: &mut usize) {
    if let Some(c) = raw[*i..].chars().next() {
        *i += c.len_utf8();
    } else {
        *i += 1;
    }
}

/// The hash count of a raw-string opener whose `r` sits at byte
/// `r_pos` (`r"` → 0, `r##"` → 2), or `None` when no `"` follows the
/// hashes (e.g. a raw identifier like `r#type`).
fn raw_string_hashes(raw: &str, r_pos: usize) -> Option<usize> {
    let bytes = raw.as_bytes();
    let mut j = r_pos + 1;
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some(hashes)
}

/// Is the `r` at byte `i` the start of a raw string (`r"` or `r#…"`)
/// rather than part of an identifier?
fn is_raw_string_start(raw: &str, i: usize) -> bool {
    let bytes = raw.as_bytes();
    if i > 0 {
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return false;
        }
    }
    raw_string_hashes(raw, i).is_some()
}

/// Is the `b` at byte `i` the start of a byte raw string (`br"…"` /
/// `br#…"`)?
fn is_byte_raw_string_start(raw: &str, i: usize) -> bool {
    let bytes = raw.as_bytes();
    if i > 0 {
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return false;
        }
    }
    bytes.get(i + 1) == Some(&b'r') && raw_string_hashes(raw, i + 1).is_some()
}

/// Byte length of a char literal starting at `i`, or `None` if this is
/// a lifetime / loop label.
fn char_literal_len(raw: &str, i: usize) -> Option<usize> {
    let rest = &raw[i + 1..];
    let mut chars = rest.char_indices();
    let (_, first) = chars.next()?;
    if first == '\\' {
        // Escaped literal: find the closing quote. Length is the opening
        // quote + the body up to and including the closing quote.
        for (off, c) in chars {
            if c == '\'' {
                return Some(off + 2);
            }
        }
        None
    } else {
        let (off, second) = chars.next()?;
        (second == '\'').then(|| 1 + off + second.len_utf8())
    }
}

/// The `#[cfg(test)]` item being marked.
struct TestItem {
    /// Brace depth at the item's first line; the item closes there.
    entry: i64,
    /// Whether the item's body `{` has opened yet.
    opened: bool,
    /// `(`/`[` nesting inside the item, so a `;` inside `[u8; 4]` is not
    /// taken for the end of a brace-less item.
    nest: i64,
}

/// Marks lines inside `#[cfg(test)]` items by brace counting.
///
/// An item stays open until its body `{` has opened and closed again, or
/// until a `;` ends a brace-less item (`#[cfg(test)] use …;`) before any
/// `{`. A signature wrapped over several lines therefore stays test code
/// until its body closes.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    let mut item: Option<TestItem> = None;

    for line in lines.iter_mut() {
        let code = line.code.trim();
        if item.is_some() {
            line.in_test = true;
        }
        let starts_test = pending_attr && !code.is_empty() && !code.starts_with("#[");
        if code.contains("#[cfg(test)]") {
            pending_attr = true;
        } else if starts_test {
            pending_attr = false;
        }
        if starts_test && item.is_none() {
            line.in_test = true;
            item = Some(TestItem {
                entry: depth,
                opened: false,
                nest: 0,
            });
        }
        let mut ended = false;
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            let Some(open) = item.as_mut() else {
                continue;
            };
            match c {
                '{' => open.opened = true,
                '(' | '[' => open.nest += 1,
                ')' | ']' => open.nest -= 1,
                ';' if !open.opened && open.nest == 0 && depth == open.entry => ended = true,
                _ => {}
            }
        }
        if let Some(open) = &item {
            // The closing line itself was already marked.
            if ended || depth < open.entry || (open.opened && depth <= open.entry) {
                item = None;
            }
        }
    }
}

/// Extracts `pinocchio-lint: allow(<rule>) -- <reason>` suppressions.
///
/// A trailing suppression applies to its own line; a suppression on a
/// comment-only line applies to the next line that carries code
/// (allowing several stacked suppression comments above one statement).
fn parse_suppressions(lines: &[Line]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.doc_comment {
            continue; // docs may quote the syntax without enacting it
        }
        let Some(pos) = line.comment.find("pinocchio-lint:") else {
            continue;
        };
        let directive = line.comment[pos + "pinocchio-lint:".len()..].trim();
        let Some(rest) = directive.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let tail = rest[close + 1..].trim();
        let justified = tail
            .strip_prefix("--")
            .map(|j| !j.trim().is_empty())
            .unwrap_or(false);
        let target_line = if line.code.trim().is_empty() {
            // Comment-only line: target the next code-bearing line.
            lines
                .iter()
                .enumerate()
                .skip(idx + 1)
                .find(|(_, l)| !l.code.trim().is_empty())
                .map(|(j, _)| j + 1)
                .unwrap_or(idx + 1)
        } else {
            idx + 1
        };
        out.push(Suppression {
            rule,
            target_line,
            comment_line: idx + 1,
            justified,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_comments_and_strings() {
        let f = SourceFile::parse("x.rs", "let a = \"x.unwrap()\"; // c.unwrap()\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].comment.contains("c.unwrap()"));
        // Quotes survive so string boundaries remain visible.
        assert!(f.lines[0].code.contains('"'));
    }

    #[test]
    fn strips_block_comments_across_lines() {
        let f = SourceFile::parse("x.rs", "a /* x\ny.unwrap()\nz */ b\n");
        assert!(f.lines[1].code.trim().is_empty());
        assert!(f.lines[1].comment.contains("unwrap"));
        assert!(f.lines[2].code.contains('b'));
    }

    #[test]
    fn nested_block_comments() {
        let f = SourceFile::parse("x.rs", "/* a /* b */ still */ code\n");
        assert!(f.lines[0].code.contains("code"));
        assert!(!f.lines[0].code.contains("still"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = SourceFile::parse("x.rs", "let p = r#\".unwrap()\"#;\nlet q = 1;\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[1].code.contains("let q"));
    }

    #[test]
    fn byte_raw_strings_are_blanked() {
        // Regression: `br#"…"#` used to be lexed as identifier `br`, a
        // stray `#`, then a *normal* string — so the lone `"` inside
        // closed it early and `.unwrap()` leaked into code.
        let f = SourceFile::parse(
            "x.rs",
            "let p = br#\"say \" then .unwrap()\"#;\nlet q = 2;\n",
        );
        assert!(!f.lines[0].code.contains("unwrap"), "{}", f.lines[0].code);
        assert!(f.lines[0].code.contains("br"));
        assert!(f.lines[1].code.contains("let q"), "{}", f.lines[1].code);
    }

    #[test]
    fn raw_strings_may_contain_quotes_comments_and_braces() {
        let text = "let a = r#\"quote \" and // comment and /* block and { brace\"#;\nlet b = 3;\n";
        let f = SourceFile::parse("x.rs", text);
        let code = &f.lines[0].code;
        assert!(!code.contains("comment"), "{code}");
        assert!(!code.contains('{'), "braces in literals must blank: {code}");
        assert!(f.lines[0].comment.is_empty(), "{:?}", f.lines[0].comment);
        assert!(f.lines[1].code.contains("let b"));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let f = SourceFile::parse("x.rs", "let r#type = r#fn + 1;\nlet s = \"x\";\n");
        assert!(f.lines[0].code.contains("r#type"), "{}", f.lines[0].code);
        assert!(f.lines[1].code.contains("let s"));
    }

    #[test]
    fn multi_hash_raw_strings_ignore_shorter_closers() {
        let text = "let a = r##\"inner \"# not closed .unwrap()\"##;\nlet b = 4;\n";
        let f = SourceFile::parse("x.rs", text);
        assert!(!f.lines[0].code.contains("unwrap"), "{}", f.lines[0].code);
        assert!(f.lines[1].code.contains("let b"));
    }

    #[test]
    fn suppressions_inside_raw_strings_do_not_enact() {
        let text =
            "let doc = r#\"// pinocchio-lint: allow(panic-path) -- quoted\"#;\nx.unwrap();\n";
        let f = SourceFile::parse("x.rs", text);
        assert!(f.suppressions.is_empty(), "{:?}", f.suppressions);
    }

    #[test]
    fn nested_block_comment_depth_spans_lines() {
        let text = "/* outer /* inner\nstill /* deeper */ inner */ comment */ code();\nafter();\n";
        let f = SourceFile::parse("x.rs", text);
        assert!(f.lines[0].code.trim().is_empty());
        assert!(f.lines[1].code.contains("code()"), "{}", f.lines[1].code);
        assert!(!f.lines[1].code.contains("inner"), "{}", f.lines[1].code);
        assert!(f.lines[2].code.contains("after"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let f = SourceFile::parse("x.rs", "fn f<'a>(x: &'a str) { let c = '\"'; }\n");
        let code = &f.lines[0].code;
        assert!(code.contains("'a"), "lifetime must survive: {code}");
        // The quote char literal must not open a string.
        assert!(code.contains("fn f"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let f = SourceFile::parse("x.rs", "/// x.unwrap()\nfn real() {}\n");
        assert!(f.lines[0].code.trim().is_empty());
        assert!(f.lines[0].comment.contains("unwrap"));
    }

    #[test]
    fn test_region_marking() {
        let text = "fn lib() {}\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                    fn t() { x.unwrap(); }\n\
                    }\n\
                    fn lib2() {}\n";
        let f = SourceFile::parse("x.rs", text);
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, false, true, true, true, false]);
    }

    #[test]
    fn test_region_spans_a_wrapped_signature_and_a_brace_less_item_closes_at_once() {
        let text = "#[cfg(test)]\n\
                    use std::fmt;\n\
                    fn lib() {}\n\
                    #[cfg(test)]\n\
                    pub(crate) fn fixture(\n\
                    seed: [u8; 4],\n\
                    ) -> u64 {\n\
                    x.unwrap()\n\
                    }\n\
                    fn lib2() {}\n";
        let f = SourceFile::parse("x.rs", text);
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(
            flags,
            vec![false, true, false, false, true, true, true, true, true, false]
        );
    }

    #[test]
    fn suppression_parsing_trailing_and_preceding() {
        let text =
            "x.unwrap(); // pinocchio-lint: allow(panic-path) -- invariant: built non-empty\n\
                    // pinocchio-lint: allow(atomic-ordering) -- single-threaded\n\
                    y.load(O);\n\
                    z.unwrap(); // pinocchio-lint: allow(panic-path)\n";
        let f = SourceFile::parse("x.rs", text);
        assert!(f.is_suppressed("panic-path", 1));
        assert!(f.is_suppressed("atomic-ordering", 3));
        // No justification: parses, but suppresses nothing and is itself
        // a deny diagnostic.
        assert!(!f.is_suppressed("panic-path", 4));
        let diags = f.suppression_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "suppression-hygiene");
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn doc_comments_never_enact_suppressions() {
        let f = SourceFile::parse(
            "x.rs",
            "/// Use `// pinocchio-lint: allow(panic-path)` to silence.\nx.unwrap();\n",
        );
        assert!(f.suppressions.is_empty());
        assert!(f.suppression_diagnostics().is_empty());
    }

    #[test]
    fn continuation_strings_stay_strings() {
        // A `\`-continued string spanning lines: its second line must not
        // be parsed as code or comments.
        let text = "let s = \"first \\\n    // pinocchio-lint: allow(panic-path) and .unwrap()\";\nlet t = 1;\n";
        let f = SourceFile::parse("x.rs", text);
        assert!(f.suppressions.is_empty());
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[2].code.contains("let t"));
    }

    #[test]
    fn unknown_rule_in_suppression_is_flagged() {
        let f = SourceFile::parse(
            "x.rs",
            "a(); // pinocchio-lint: allow(no-such-rule) -- because\n",
        );
        let diags = f.suppression_diagnostics();
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no-such-rule"));
    }
}
