//! The five lint rules.
//!
//! Every rule is a pure function from a [`SourceFile`] to diagnostics;
//! suppression filtering happens in the engine. Scoping conventions:
//!
//! * `panic-path` and `float-soundness` skip `#[cfg(test)]` regions —
//!   tests may unwrap and compare floats exactly.
//! * `atomic-ordering` covers tests too: a mis-ordered atomic in a test
//!   can mask the very race the test exists to catch.
//! * `crate-hygiene` applies to library crate roots (`src/lib.rs`);
//!   binary roots are exempt.
//! * `stats-accounting` applies to files that define a top-level entry
//!   point into an instrumented subsystem: a column-0 `pub fn solve…`
//!   in `crates/core` must account into `SolveStats`, and a column-0
//!   `pub fn serve…` in `crates/serve` must account into `ServeStats`.

use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Crates whose library code must stay panic-free.
const PANIC_FREE_CRATES: [&str; 4] = ["core", "prob", "geo", "index"];

/// The crate a repo-relative path belongs to (`crates/<name>/…`), or
/// `None` for the facade `src/` tree.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Whether this path is a library crate root.
fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
}

/// Runs every rule against one file.
pub fn check_file(file: &SourceFile, rules: &[&'static str]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &rule in rules {
        match rule {
            "panic-path" => panic_path(file, &mut out),
            "float-soundness" => float_soundness(file, &mut out),
            "atomic-ordering" => atomic_ordering(file, &mut out),
            "crate-hygiene" => crate_hygiene(file, &mut out),
            "stats-accounting" => stats_accounting(file, &mut out),
            _ => {}
        }
    }
    out
}

// ---- panic-path --------------------------------------------------------

/// Panicking constructs that have no place in library hot paths.
const PANIC_TOKENS: [(&str, &str); 6] = [
    (".unwrap()", "return a typed error (e.g. `SolveError`), use `unwrap_or`/`ok_or`, or justify the invariant with a suppression"),
    (".expect(", "return a typed error (e.g. `SolveError`) or justify the invariant with a suppression"),
    ("panic!(", "convert to a `Result` or justify with a suppression"),
    ("unreachable!(", "prove the arm impossible via types, or justify with a suppression"),
    ("todo!(", "finish the implementation before it ships"),
    ("unimplemented!(", "finish the implementation before it ships"),
];

fn panic_path(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let Some(krate) = crate_of(&file.path) else {
        return;
    };
    if !PANIC_FREE_CRATES.contains(&krate) || !file.path.contains("/src/") {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (token, suggestion) in PANIC_TOKENS {
            if line.code.contains(token) {
                let name = token.trim_matches(|c| c == '.' || c == '(' || c == ')');
                out.push(
                    Diagnostic::deny(
                        "panic-path",
                        &file.path,
                        idx + 1,
                        format!("`{name}` in non-test library code of `{krate}`"),
                    )
                    .with_suggestion(suggestion),
                );
            }
        }
        for col in arithmetic_subscripts(&line.code) {
            out.push(
                Diagnostic::deny(
                    "panic-path",
                    &file.path,
                    idx + 1,
                    format!(
                        "arithmetic in index subscript (column {col}) can panic on under/overflow"
                    ),
                )
                .with_suggestion("use `.get(…)` with a typed error, or a checked offset"),
            );
        }
    }
}

/// Byte columns (1-based) of `expr[… + …]`-style subscripts — indexing
/// whose subscript contains `+` or `-`, the classic off-by-one panic.
/// Plain loop-variable subscripts (`inf[j]`) are deliberately allowed:
/// they are bounds-checked by construction throughout this workspace,
/// and flagging them would bury the signal.
fn arithmetic_subscripts(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut cols = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        // Subscript only when `[` follows a value: identifier, `)`, `]`.
        let Some(&prev) = bytes[..i].last() else {
            continue;
        };
        if !(prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']') {
            continue;
        }
        // Find the matching `]` on this line.
        let mut depth = 1usize;
        let mut j = i + 1;
        while j < bytes.len() && depth > 0 {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if depth != 0 {
            continue;
        }
        let body = &code[i + 1..j - 1];
        // `;` means an array-repeat expression `[0u32; m]`, not indexing.
        if body.contains(';') {
            continue;
        }
        if body.contains('+') || body.contains('-') {
            cols.push(i + 1);
        }
    }
    cols
}

// ---- float-soundness ---------------------------------------------------

fn float_soundness(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.path.contains("/tests/") || file.path.contains("/benches/") {
        return; // integration tests and benches are test code wholesale
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if code.contains("f64::NAN") || code.contains("f32::NAN") {
            out.push(
                Diagnostic::deny(
                    "float-soundness",
                    &file.path,
                    idx + 1,
                    "NaN literal in non-test code".to_string(),
                )
                .with_suggestion("model the absent value with `Option<f64>` instead of NaN"),
            );
        }
        // rustfmt splits method chains, so the panicking adapter may sit
        // on the line after `partial_cmp`.
        let chain_next = file
            .lines
            .get(idx + 1)
            .map(|l| l.code.trim_start().starts_with('.'))
            .unwrap_or(false);
        let panics_here = code.contains(".unwrap()") || code.contains(".expect(");
        let panics_next = chain_next
            && file
                .lines
                .get(idx + 1)
                .map(|l| l.code.contains(".unwrap()") || l.code.contains(".expect("))
                .unwrap_or(false);
        if code.contains("partial_cmp") && (panics_here || panics_next) {
            out.push(
                Diagnostic::deny(
                    "float-soundness",
                    &file.path,
                    idx + 1,
                    "`partial_cmp(..).unwrap()` panics on NaN".to_string(),
                )
                .with_suggestion(
                    "use `f64::total_cmp`, or the repo's `argmax_smallest_index` helper for argmax",
                ),
            );
        }
        for col in float_eq_columns(code) {
            out.push(
                Diagnostic::deny(
                    "float-soundness",
                    &file.path,
                    idx + 1,
                    format!("`==`/`!=` against a float literal (column {col})"),
                )
                .with_suggestion(
                    "compare with an epsilon, `total_cmp`, or restructure to avoid exact equality",
                ),
            );
        }
    }
}

/// Byte columns of `==` / `!=` operators whose adjacent operand contains
/// a float literal. Token-level only: `a.x == b.x` with float fields is
/// invisible here (clippy's `float_cmp` covers that case in CI).
fn float_eq_columns(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut cols = Vec::new();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        let two = &bytes[i..i + 2];
        let is_eq = two == b"==" && bytes.get(i + 2) != Some(&b'=');
        let is_ne = two == b"!=";
        if (is_eq || is_ne)
            && (i == 0 || !matches!(bytes[i - 1], b'<' | b'>' | b'=' | b'!' | b'+' | b'-'))
        {
            let left = operand_before(code, i);
            let right = operand_after(code, i + 2);
            if has_float_literal(left) || has_float_literal(right) {
                cols.push(i + 1);
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    cols
}

fn operand_before(code: &str, op: usize) -> &str {
    let bytes = code.as_bytes();
    let mut start = op;
    while start > 0 {
        let b = bytes[start - 1];
        if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'(' | b')' | b' ') {
            start -= 1;
        } else {
            break;
        }
    }
    code[start..op].trim()
}

fn operand_after(code: &str, from: usize) -> &str {
    let bytes = code.as_bytes();
    let mut end = from;
    while end < bytes.len() {
        let b = bytes[end];
        if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'(' | b')' | b' ' | b'-') {
            end += 1;
        } else {
            break;
        }
    }
    code[from..end].trim()
}

/// Whether `s` contains a float literal: a digit, then `.`, then a digit
/// or a non-alphanumeric (so `2.0` and `1.` match but `x2.abs()` does
/// not).
fn has_float_literal(s: &str) -> bool {
    let bytes = s.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'.' || i == 0 {
            continue;
        }
        if !bytes[i - 1].is_ascii_digit() {
            continue;
        }
        match bytes.get(i + 1) {
            None => return true,
            Some(&n) if n.is_ascii_digit() => return true,
            Some(&n) if !n.is_ascii_alphanumeric() && n != b'_' => return true,
            _ => {}
        }
    }
    s.contains("_f64") || s.contains("_f32")
}

// ---- atomic-ordering ---------------------------------------------------

/// Atomic memory-ordering variants (`std::sync::atomic::Ordering`).
/// `cmp::Ordering`'s variants (`Less`/`Equal`/`Greater`) never collide.
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn atomic_ordering(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (idx, line) in file.lines.iter().enumerate() {
        for variant in ATOMIC_ORDERINGS {
            let token = format!("Ordering::{variant}");
            if !line.code.contains(&token) {
                continue;
            }
            // `use std::sync::atomic::Ordering;` style imports are not
            // uses — but `Ordering::X` inside a `use` never appears as a
            // call argument, and an import of a *variant* is worth the
            // same scrutiny as a use, so no exemption.
            if variant == "Relaxed" {
                out.push(
                    Diagnostic::deny(
                        "atomic-ordering",
                        &file.path,
                        idx + 1,
                        "`Ordering::Relaxed` is deny-by-default".to_string(),
                    )
                    .with_suggestion(
                        "use Acquire/Release with an `// ordering:` argument, or justify Relaxed \
                         with `// pinocchio-lint: allow(atomic-ordering) -- <why no ordering is needed>`",
                    ),
                );
                continue;
            }
            // Same-line comment, or anywhere in the contiguous block of
            // comment-only lines directly above (multi-line happens-before
            // arguments are the norm, not the exception).
            let mut documented = line.comment.contains("ordering:");
            let mut back = idx;
            while !documented && back > 0 {
                let prev = &file.lines[back - 1];
                if !prev.code.trim().is_empty() || prev.comment.trim().is_empty() {
                    break;
                }
                documented = prev.comment.contains("ordering:");
                back -= 1;
            }
            if !documented {
                out.push(
                    Diagnostic::deny(
                        "atomic-ordering",
                        &file.path,
                        idx + 1,
                        format!("`{token}` without an `// ordering:` justification comment"),
                    )
                    .with_suggestion(
                        "state the happens-before argument: `// ordering: <what this acquire/release pairs with>`",
                    ),
                );
            }
        }
    }
}

// ---- crate-hygiene -----------------------------------------------------

fn crate_hygiene(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_crate_root(&file.path) {
        return;
    }
    for (attr, why) in [
        (
            "#![forbid(unsafe_code)]",
            "the workspace is 100% safe Rust; forbid keeps it that way",
        ),
        (
            "#![deny(missing_docs)]",
            "public items must be documented; deny keeps the bar from slipping",
        ),
    ] {
        if !file.code_contains(attr) {
            out.push(
                Diagnostic::deny(
                    "crate-hygiene",
                    &file.path,
                    1,
                    format!("crate root is missing `{attr}`"),
                )
                .with_suggestion(why),
            );
        }
    }
}

// ---- stats-accounting --------------------------------------------------

/// Per-crate accounting contracts: a column-0 `pub fn <prefix>…` is an
/// entry point into an instrumented subsystem, and the file defining it
/// must reference the crate's counter block.
const ACCOUNTED_ENTRY_POINTS: [(&str, &str, &str, &str); 5] = [
    (
        "core",
        "pub fn solve",
        "SolveStats",
        "solver entry point in a file that never references `SolveStats`",
    ),
    (
        "core",
        "pub fn try_solve",
        "SolveStats",
        "fallible solver entry point in a file that never references `SolveStats`",
    ),
    (
        "serve",
        "pub fn serve",
        "ServeStats",
        "service entry point in a file that never references `ServeStats`",
    ),
    (
        "heatmap",
        "pub fn try_heatmap",
        "SolveStats",
        "fallible heat-map entry point in a file that never references `SolveStats`",
    ),
    (
        "heatmap",
        "pub fn try_top_region",
        "SolveStats",
        "fallible top-region entry point in a file that never references `SolveStats`",
    ),
];

fn stats_accounting(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.path.contains("/src/") {
        return;
    }
    // A crate can carry several contracts (e.g. `pub fn solve…` and the
    // fallible `pub fn try_solve…` coordinator entry points); apply every
    // one that matches the file's crate.
    for (_, prefix, stats_type, message) in ACCOUNTED_ENTRY_POINTS
        .iter()
        .filter(|(krate, ..)| crate_of(&file.path) == Some(krate))
    {
        if file.code_contains(stats_type) {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            // A column-0 `pub fn solve…`/`pub fn serve…` is an entry point;
            // methods are indented and dispatch to these.
            if line.code.starts_with(prefix) {
                out.push(
                    Diagnostic::deny("stats-accounting", &file.path, idx + 1, message.to_string())
                        .with_suggestion(format!(
                            "account the work in `{stats_type}` (see the accounting tests) so \
                             cost experiments keep covering it",
                        )),
                );
                break; // one diagnostic per (file, contract) is enough
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_as(path: &str, text: &str, rule: &'static str) -> Vec<Diagnostic> {
        check_file(&SourceFile::parse(path, text), &[rule])
    }

    #[test]
    fn panic_path_scoping() {
        let bad = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        assert_eq!(lint_as("crates/core/src/vo.rs", bad, "panic-path").len(), 1);
        // Other crates are out of scope.
        assert!(lint_as("crates/bench/src/lib.rs", bad, "panic-path").is_empty());
        // Test regions are out of scope.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint_as("crates/core/src/vo.rs", test_only, "panic-path").is_empty());
    }

    #[test]
    fn arithmetic_subscript_detection() {
        assert_eq!(arithmetic_subscripts("let x = v[i + 1];").len(), 1);
        assert_eq!(arithmetic_subscripts("let x = v[i - 1];").len(), 1);
        assert!(arithmetic_subscripts("let x = v[i];").is_empty());
        assert!(arithmetic_subscripts("let x = vec![0u32; m];").is_empty());
        assert!(arithmetic_subscripts("#[derive(Debug)]").is_empty());
        assert!(arithmetic_subscripts("fn f(x: &[f64]) {}").is_empty());
    }

    #[test]
    fn float_literal_detection() {
        assert!(has_float_literal("0.0"));
        assert!(has_float_literal("weight == 1."));
        assert!(has_float_literal("3.5e2"));
        assert!(!has_float_literal("x2.abs()"));
        assert!(!has_float_literal("v[0]"));
        assert!(!has_float_literal("a.b.c"));
    }

    #[test]
    fn float_eq_flags_literal_comparisons_only() {
        let hits = float_eq_columns("if weight == 0.0 {");
        assert_eq!(hits.len(), 1);
        assert!(float_eq_columns("if a == b {").is_empty());
        assert!(float_eq_columns("if n <= 0.5 {").is_empty());
        assert!(float_eq_columns("if x != 1.5 {").len() == 1);
    }

    #[test]
    fn atomic_ordering_requires_comment() {
        let undocumented = "let v = b.load(Ordering::Acquire);\n";
        let d = lint_as(
            "crates/core/src/parallel.rs",
            undocumented,
            "atomic-ordering",
        );
        assert_eq!(d.len(), 1);
        let documented =
            "// ordering: pairs with the fetch_max release below\nlet v = b.load(Ordering::Acquire);\n";
        assert!(lint_as("crates/core/src/parallel.rs", documented, "atomic-ordering").is_empty());
        let same_line = "let v = b.load(Ordering::Acquire); // ordering: pairs with fetch_max\n";
        assert!(lint_as("crates/core/src/parallel.rs", same_line, "atomic-ordering").is_empty());
    }

    #[test]
    fn relaxed_is_denied_even_with_comment() {
        let text = "// ordering: none needed\nlet v = c.fetch_add(1, Ordering::Relaxed);\n";
        let d = lint_as("crates/core/src/parallel.rs", text, "atomic-ordering");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Relaxed"));
    }

    #[test]
    fn crate_hygiene_checks_roots_only() {
        let bare = "pub fn f() {}\n";
        let d = lint_as("crates/geo/src/lib.rs", bare, "crate-hygiene");
        assert_eq!(d.len(), 2);
        assert!(lint_as("crates/geo/src/point.rs", bare, "crate-hygiene").is_empty());
        let good = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n";
        assert!(lint_as("crates/geo/src/lib.rs", good, "crate-hygiene").is_empty());
        assert_eq!(lint_as("src/lib.rs", bare, "crate-hygiene").len(), 2);
    }

    #[test]
    fn stats_accounting_flags_solver_files_without_stats() {
        let bad = "pub fn solve_fast() -> u32 {\n    1\n}\n";
        assert_eq!(
            lint_as("crates/core/src/fast.rs", bad, "stats-accounting").len(),
            1
        );
        let good = "use crate::result::SolveStats;\npub fn solve_fast() -> SolveStats {\n    SolveStats::default()\n}\n";
        assert!(lint_as("crates/core/src/fast.rs", good, "stats-accounting").is_empty());
        // Methods (indented) do not count as entry points.
        let method = "impl X {\n    pub fn solve(&self) {}\n}\n";
        assert!(lint_as("crates/core/src/x.rs", method, "stats-accounting").is_empty());
        // Other crates are out of scope.
        assert!(lint_as("crates/eval/src/fast.rs", bad, "stats-accounting").is_empty());
    }

    #[test]
    fn stats_accounting_covers_fallible_shard_coordinators() {
        // `pub fn try_solve…` does not share the `pub fn solve` prefix, so
        // this only trips if every matching contract is applied, not just
        // the first one found for the crate.
        let bad = "pub fn try_solve_fast() -> u32 {\n    1\n}\n";
        let d = lint_as("crates/core/src/shard.rs", bad, "stats-accounting");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("fallible"));
        let good = "use crate::result::SolveStats;\npub fn try_solve_fast() -> SolveStats {\n    SolveStats::default()\n}\n";
        assert!(lint_as("crates/core/src/shard.rs", good, "stats-accounting").is_empty());
        // A file violating both core contracts gets one diagnostic each.
        let both =
            "pub fn solve_all() -> u32 {\n    1\n}\npub fn try_solve_all() -> u32 {\n    2\n}\n";
        assert_eq!(
            lint_as("crates/core/src/shard.rs", both, "stats-accounting").len(),
            2
        );
    }

    #[test]
    fn stats_accounting_covers_the_serve_entry_point() {
        let bad = "pub fn serve_forever() -> u32 {\n    1\n}\n";
        let d = lint_as("crates/serve/src/entry.rs", bad, "stats-accounting");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("ServeStats"));
        let good = "use crate::stats::ServeStats;\npub fn serve_forever() -> ServeStats {\n    ServeStats::default()\n}\n";
        assert!(lint_as("crates/serve/src/entry.rs", good, "stats-accounting").is_empty());
        // The serve contract wants ServeStats, not core's SolveStats.
        let wrong_block = "use crate::SolveStats;\npub fn serve_forever() {}\n";
        assert_eq!(
            lint_as("crates/serve/src/entry.rs", wrong_block, "stats-accounting").len(),
            1
        );
        // `pub fn solve…` in serve is not an entry point there.
        let solver = "pub fn solve_fast() -> u32 {\n    1\n}\n";
        assert!(lint_as("crates/serve/src/entry.rs", solver, "stats-accounting").is_empty());
    }
}
