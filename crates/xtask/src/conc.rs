//! The five concurrency/resource rules built on the function-span model.
//!
//! Three are per-file (`condvar-discipline`, `bounded-io`,
//! `cast-truncation`); two need the whole workspace (`lock-ordering`
//! builds a per-crate nested-acquisition graph, `hot-path-alloc`
//! propagates allocation facts one call level). Soundness/precision
//! tradeoffs for each are documented in DESIGN.md §14; all five are
//! deny-by-default and suppressable with a justified
//! `// pinocchio-lint: allow(<rule>) -- <why>`.

use crate::diag::Diagnostic;
use crate::span::{FileAnalysis, FnSpan};
use std::collections::{BTreeMap, BTreeSet};

/// The crate a repo-relative path belongs to; the facade `src/` tree is
/// its own scope.
fn crate_key(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("src")
        .to_string()
}

/// Whole files that are test code: integration tests and benches.
fn is_test_file(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/benches/")
}

/// Runs the per-file span rules against one analyzed file.
pub fn check_file_spans(analysis: &FileAnalysis, rules: &[&'static str]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &rule in rules {
        match rule {
            "condvar-discipline" => condvar_discipline(analysis, &mut out),
            "bounded-io" => bounded_io(analysis, &mut out),
            "cast-truncation" => cast_truncation(analysis, &mut out),
            _ => {}
        }
    }
    out
}

/// Runs the workspace-level span rules against every analyzed file.
pub fn check_workspace(analyses: &[FileAnalysis], rules: &[&'static str]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if rules.contains(&"lock-ordering") {
        lock_ordering(analyses, &mut out);
    }
    if rules.contains(&"hot-path-alloc") {
        hot_path_alloc(analyses, &mut out);
    }
    out
}

// ---- condvar-discipline ------------------------------------------------

fn condvar_discipline(analysis: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    if is_test_file(&analysis.source.path) {
        return;
    }
    for f in analysis.fns.iter().filter(|f| !f.in_test) {
        for w in &f.waits {
            // `wait_while` re-checks the predicate internally; only the
            // consumption half of the discipline applies to it.
            if !w.in_loop && w.method != "wait_while" {
                out.push(
                    Diagnostic::deny(
                        "condvar-discipline",
                        &analysis.source.path,
                        w.line,
                        format!(
                            "`Condvar::{}` outside a predicate-rechecking loop in `{}` \
                             (spurious wakeups make a bare wait incorrect)",
                            w.method, f.name
                        ),
                    )
                    .with_suggestion(
                        "wrap the wait in `loop {{ if <predicate> {{ break; }} guard = cv.wait(guard)…; }}` \
                         or use `wait_while`",
                    ),
                );
            }
            if !w.consumed {
                out.push(
                    Diagnostic::deny(
                        "condvar-discipline",
                        &analysis.source.path,
                        w.line,
                        format!(
                            "`Condvar::{}` result discarded in `{}` — the reacquired guard \
                             must replace the old one",
                            w.method, f.name
                        ),
                    )
                    .with_suggestion("reassign the returned guard: `guard = cv.wait(guard)….0`"),
                );
            }
        }
    }
}

// ---- bounded-io --------------------------------------------------------

/// Paths whose readers may be fed by the network (or by files of
/// unbounded size): the serve crate, the experiment harness, the facade CLI.
fn in_io_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
        || path.starts_with("crates/bench/src/")
        || path.starts_with("src/")
}

/// Growth calls that extend a `Vec`/`String` without an intrinsic bound.
const GROWTH_TOKENS: [&str; 3] = [".extend_from_slice(", ".push_str(", ".extend("];

/// Whether a loop body line caps a growable buffer before growing it.
fn is_cap_check(code: &str) -> bool {
    code.contains(".len() >") || code.contains(".len() + ") && code.contains('>')
}

fn bounded_io(analysis: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    let path = &analysis.source.path;
    if !in_io_scope(path) || is_test_file(path) {
        return;
    }
    for (idx, line) in analysis.source.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let code = &line.code;
        for method in [".read_to_end(", ".read_to_string("] {
            if code.contains(method) {
                let name = method.trim_matches(|c| c == '.' || c == '(');
                out.push(
                    Diagnostic::deny(
                        "bounded-io",
                        path,
                        lineno,
                        format!("`{name}` reads without a size bound"),
                    )
                    .with_suggestion(
                        "read through a `read_bounded_*` helper with an explicit byte cap \
                         (see `serve::server::read_bounded_line`)",
                    ),
                );
            }
        }
        if code.contains(".read_line(") {
            let approved = analysis
                .fn_at(lineno)
                .is_some_and(|f| f.name.starts_with("read_bounded"));
            if !approved {
                out.push(
                    Diagnostic::deny(
                        "bounded-io",
                        path,
                        lineno,
                        "`read_line` grows the buffer until a newline arrives — a \
                         newline-free peer holds memory hostage"
                            .to_string(),
                    )
                    .with_suggestion(
                        "use a `read_bounded_*` helper with an explicit byte cap \
                         (see `serve::server::read_bounded_line`)",
                    ),
                );
            }
        }
    }
    // Growth inside reader-fed loops must be capped inside that loop.
    for f in analysis.fns.iter().filter(|f| !f.in_test) {
        if f.name.starts_with("read_bounded") {
            continue; // the approved helpers are audited by review + tests
        }
        for &(start, end) in &f.loops {
            let body = &analysis.source.lines[start - 1..end];
            let reads = body
                .iter()
                .any(|l| l.code.contains(".fill_buf(") || l.code.contains(".read("));
            if !reads {
                continue;
            }
            let capped = body.iter().any(|l| is_cap_check(&l.code));
            if capped {
                continue;
            }
            for (off, l) in body.iter().enumerate() {
                for token in GROWTH_TOKENS {
                    if l.code.contains(token) {
                        let name = token.trim_matches(|c| c == '.' || c == '(');
                        out.push(
                            Diagnostic::deny(
                                "bounded-io",
                                path,
                                start + off,
                                format!(
                                    "`{name}` grows a buffer inside a reader-fed loop in `{}` \
                                     with no length cap in the loop body",
                                    f.name
                                ),
                            )
                            .with_suggestion(
                                "check `buf.len()` against an explicit cap before growing, \
                                 or route through a `read_bounded_*` helper",
                            ),
                        );
                    }
                }
            }
        }
    }
}

// ---- cast-truncation ---------------------------------------------------

/// Cast targets that can truncate from any wider source. The workspace
/// targets 64-bit platforms (documented in DESIGN.md §14), so
/// `usize ↔ u64` and `u32 → usize` are treated as lossless and only the
/// genuinely narrow targets are in this set. `isize` is here because the
/// workspace's only motive for it is indexing math on values that start
/// life as `f64`.
const NARROW_TARGETS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32", "isize"];

/// Wide integer targets: lossy only when the source is a float, which
/// token-level analysis can see when a rounding adapter sits directly
/// before the cast.
const WIDE_INT_TARGETS: [&str; 5] = ["u64", "i64", "u128", "i128", "usize"];

const ROUNDING_SUFFIXES: [&str; 4] = [".floor()", ".ceil()", ".round()", ".trunc()"];

fn cast_truncation(analysis: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    let path = &analysis.source.path;
    if is_test_file(path) {
        return;
    }
    for (idx, line) in analysis.source.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let trimmed = code.trim_start();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue; // `use x as y` renames, not casts
        }
        let mut search = 0usize;
        while let Some(rel) = code[search..].find(" as ") {
            let at = search + rel;
            search = at + 4;
            let target: String = code[at + 4..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let before = code[..at].trim_end();
            if NARROW_TARGETS.contains(&target.as_str()) {
                out.push(
                    Diagnostic::deny(
                        "cast-truncation",
                        path,
                        idx + 1,
                        format!("`as {target}` silently truncates out-of-range values"),
                    )
                    .with_suggestion(format!(
                        "use `{target}::try_from(x)` with an explicit policy for the \
                         out-of-range case, or justify the bound with a suppression"
                    )),
                );
            } else if WIDE_INT_TARGETS.contains(&target.as_str())
                && ROUNDING_SUFFIXES.iter().any(|s| before.ends_with(s))
            {
                out.push(
                    Diagnostic::deny(
                        "cast-truncation",
                        path,
                        idx + 1,
                        format!(
                            "float rounded then cast `as {target}` saturates silently on \
                             out-of-range values"
                        ),
                    )
                    .with_suggestion(
                        "bound the float before casting (clamp in the float domain) or \
                         justify the range with a suppression",
                    ),
                );
            }
        }
    }
}

// ---- lock-ordering -----------------------------------------------------

/// A nested-acquisition edge: `held` was held while `acquired` was
/// taken, at `file:line` inside `in_fn` (possibly via a call into
/// `via_fn`).
#[derive(Debug, Clone)]
struct LockEdge {
    held: String,
    acquired: String,
    file: String,
    line: usize,
    in_fn: String,
    via: Option<String>,
}

fn lock_ordering(analyses: &[FileAnalysis], out: &mut Vec<Diagnostic>) {
    // Group files per crate: lock names are only comparable within one
    // crate (two crates may both have a lock field called `state`).
    let mut by_crate: BTreeMap<String, Vec<&FileAnalysis>> = BTreeMap::new();
    for a in analyses {
        if is_test_file(&a.source.path) {
            continue;
        }
        by_crate
            .entry(crate_key(&a.source.path))
            .or_default()
            .push(a);
    }
    for files in by_crate.values() {
        let resolver = Resolver::build(files);
        let summaries = lock_summaries(&resolver);
        let mut edges: Vec<LockEdge> = Vec::new();
        for a in files {
            for f in a.fns.iter().filter(|f| !f.in_test) {
                collect_edges(a, f, &resolver, &summaries, &mut edges);
            }
        }
        // Self-deadlock: the same lock re-acquired while held.
        for e in &edges {
            if e.held == e.acquired {
                let via = e
                    .via
                    .as_ref()
                    .map(|v| format!(" via call to `{v}`"))
                    .unwrap_or_default();
                out.push(
                    Diagnostic::deny(
                        "lock-ordering",
                        &e.file,
                        e.line,
                        format!(
                            "lock `{}` re-acquired while already held in `{}`{via} — \
                             self-deadlock on std::sync::Mutex",
                            e.held, e.in_fn
                        ),
                    )
                    .with_suggestion("drop the guard before the nested acquisition"),
                );
            }
        }
        // Cycles: a → b recorded somewhere, and b reaches a elsewhere.
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in &edges {
            if e.held != e.acquired {
                adj.entry(e.held.as_str())
                    .or_default()
                    .insert(e.acquired.as_str());
            }
        }
        let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
        for e in &edges {
            if e.held == e.acquired {
                continue;
            }
            if reaches(&adj, &e.acquired, &e.held)
                && reported.insert((e.held.clone(), e.acquired.clone()))
            {
                let via = e
                    .via
                    .as_ref()
                    .map(|v| format!(" via call to `{v}`"))
                    .unwrap_or_default();
                out.push(
                    Diagnostic::deny(
                        "lock-ordering",
                        &e.file,
                        e.line,
                        format!(
                            "lock-order cycle: `{}` is held while acquiring `{}` in `{}`{via}, \
                             but elsewhere `{}` is (transitively) held while acquiring `{}`",
                            e.held, e.acquired, e.in_fn, e.acquired, e.held
                        ),
                    )
                    .with_suggestion(
                        "pick one global acquisition order for these locks and restructure \
                         the losing site (usually: copy what you need out, drop, then lock)",
                    ),
                );
            }
        }
    }
}

/// Whether `to` is reachable from `from` in the acquisition graph.
fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// A resolvable crate-local function: its name and whether it takes
/// `self` (the shape of call that can reach it).
type FnKey<'a> = (&'a str, bool);

/// Transitive lock summaries per uniquely resolvable crate-local
/// function: everything the function may acquire directly or through
/// further uniquely resolved crate-local calls. The fixed point is what
/// makes the repo's own guard-wrapper idiom visible (`depth()` →
/// `lock()` → the `state` mutex is two hops).
fn lock_summaries<'a>(resolver: &Resolver<'a>) -> BTreeMap<FnKey<'a>, BTreeSet<String>> {
    let mut summary: BTreeMap<FnKey<'a>, BTreeSet<String>> = BTreeMap::new();
    for &name in resolver.by_name.keys() {
        for takes_self in [false, true] {
            if let Some(one) = resolver.resolve(name, takes_self) {
                let locks = one.locks.iter().map(|l| l.lock.clone()).collect();
                summary.insert((name, takes_self), locks);
            }
        }
    }
    loop {
        let mut changed = false;
        let keys: Vec<FnKey<'a>> = summary.keys().copied().collect();
        for key in keys {
            let Some(f) = resolver.resolve(key.0, key.1) else {
                continue;
            };
            let mut merged: BTreeSet<String> = BTreeSet::new();
            for call in &f.calls {
                let call_key = (call.callee.as_str(), call.method);
                if call_key != key {
                    if let Some(nested) = summary.get(&call_key) {
                        merged.extend(nested.iter().cloned());
                    }
                }
            }
            let own = summary.get_mut(&key).unwrap_or_else(|| unreachable!());
            let before = own.len();
            own.extend(merged);
            changed |= own.len() != before;
        }
        if !changed {
            return summary;
        }
    }
}

/// Records every nested-acquisition edge observable in `f`: a second
/// direct acquisition inside a guard extent, or a call inside a guard
/// extent into a uniquely resolved crate-local function whose transitive
/// summary acquires.
fn collect_edges<'a>(
    a: &FileAnalysis,
    f: &FnSpan,
    resolver: &Resolver<'a>,
    summaries: &BTreeMap<FnKey<'a>, BTreeSet<String>>,
    edges: &mut Vec<LockEdge>,
) {
    for (i, outer) in f.locks.iter().enumerate() {
        let extent = outer.line..=outer.release_line;
        for (j, inner) in f.locks.iter().enumerate() {
            if i != j && inner.line > outer.line && extent.contains(&inner.line) {
                edges.push(LockEdge {
                    held: outer.lock.clone(),
                    acquired: inner.lock.clone(),
                    file: a.source.path.clone(),
                    line: inner.line,
                    in_fn: f.name.clone(),
                    via: None,
                });
            }
        }
        for call in f.calls.iter().filter(|c| extent.contains(&c.line)) {
            let Some(callee) = resolver.resolve(&call.callee, call.method) else {
                continue;
            };
            if callee.name == f.name {
                continue; // recursion: the edge set is already complete
            }
            let Some(nested) = summaries.get(&(callee.name.as_str(), callee.takes_self)) else {
                continue;
            };
            for lock in nested {
                edges.push(LockEdge {
                    held: outer.lock.clone(),
                    acquired: lock.clone(),
                    file: a.source.path.clone(),
                    line: call.line,
                    in_fn: f.name.clone(),
                    via: Some(callee.name.clone()),
                });
            }
        }
    }
}

// ---- hot-path-alloc ----------------------------------------------------

fn hot_path_alloc(analyses: &[FileAnalysis], out: &mut Vec<Diagnostic>) {
    let mut by_crate: BTreeMap<String, Vec<&FileAnalysis>> = BTreeMap::new();
    for a in analyses {
        if is_test_file(&a.source.path) {
            continue;
        }
        by_crate
            .entry(crate_key(&a.source.path))
            .or_default()
            .push(a);
    }
    for files in by_crate.values() {
        let resolver = Resolver::build(files);
        for a in files {
            for f in a.fns.iter().filter(|f| f.hot && !f.in_test) {
                for alloc in &f.allocs {
                    out.push(
                        Diagnostic::deny(
                            "hot-path-alloc",
                            &a.source.path,
                            alloc.line,
                            format!(
                                "heap allocation (`{}`) in hot function `{}`",
                                alloc.what.trim_end_matches(['(', '!', '<', ':']),
                                f.name
                            ),
                        )
                        .with_suggestion(
                            "hoist the allocation into a reusable scratch buffer passed in by \
                             the caller, or justify it with a suppression",
                        ),
                    );
                }
                // One level of propagation: calls into uniquely resolved
                // crate-local helpers that allocate. Hot callees police
                // their own bodies; recursion adds nothing new.
                let mut flagged: BTreeSet<&str> = BTreeSet::new();
                for call in &f.calls {
                    let Some(callee) = resolver.resolve(&call.callee, call.method) else {
                        continue;
                    };
                    if callee.hot || callee.name == f.name || callee.allocs.is_empty() {
                        continue;
                    }
                    if !flagged.insert(call.callee.as_str()) {
                        continue; // one diagnostic per (hot fn, callee)
                    }
                    out.push(
                        Diagnostic::deny(
                            "hot-path-alloc",
                            &a.source.path,
                            call.line,
                            format!(
                                "hot function `{}` calls `{}`, which allocates (`{}` at line {})",
                                f.name,
                                callee.name,
                                callee.allocs[0].what.trim_end_matches(['(', '!', '<', ':']),
                                callee.allocs[0].line
                            ),
                        )
                        .with_suggestion(
                            "mark the callee `// pinocchio-hot` and fix it, hoist its \
                             allocation, or justify the call with a suppression",
                        ),
                    );
                }
            }
        }
    }
}

// ---- call resolution ---------------------------------------------------

/// Per-crate call resolution by name and call shape: a method call
/// (`x.name(`) resolves only to a function that takes `self`, a bare or
/// path call (`name(`, `Type::name(`) only to one that does not, and
/// only when exactly one non-test function in the crate fits. So a
/// crate-local free `fn push` never captures `v.push(x)` on a `Vec`.
/// Ambiguous names (every crate has many `fn new`) are skipped — a
/// documented precision tradeoff that keeps propagation sound where it
/// fires at all.
struct Resolver<'a> {
    by_name: BTreeMap<&'a str, Vec<&'a FnSpan>>,
}

impl<'a> Resolver<'a> {
    fn build(files: &[&'a FileAnalysis]) -> Resolver<'a> {
        let mut by_name: BTreeMap<&str, Vec<&FnSpan>> = BTreeMap::new();
        for a in files {
            for f in a.fns.iter().filter(|f| !f.in_test) {
                by_name.entry(f.name.as_str()).or_default().push(f);
            }
        }
        Resolver { by_name }
    }

    /// The one function named `name` whose `takes_self` is `method`.
    fn resolve(&self, name: &str, method: bool) -> Option<&'a FnSpan> {
        let mut fits = self
            .by_name
            .get(name)?
            .iter()
            .filter(|f| f.takes_self == method);
        match (fits.next(), fits.next()) {
            (Some(&one), None) => Some(one),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyse(path: &str, text: &str) -> FileAnalysis {
        FileAnalysis::parse(path, text)
    }

    fn file_rule(path: &str, text: &str, rule: &'static str) -> Vec<Diagnostic> {
        check_file_spans(&analyse(path, text), &[rule])
    }

    #[test]
    fn condvar_wait_needs_loop_and_consumption() {
        let bad = "fn park(&self, g: G) {\n    self.cv.wait(g);\n}\n";
        let d = file_rule("crates/serve/src/q.rs", bad, "condvar-discipline");
        assert_eq!(d.len(), 2, "no loop AND discarded: {d:?}");
        let good = "fn park(&self) {\n    let mut g = self.state.lock().unwrap_or_else(|p| p.into_inner());\n    while !g.ready {\n        g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());\n    }\n}\n";
        assert!(file_rule("crates/serve/src/q.rs", good, "condvar-discipline").is_empty());
    }

    #[test]
    fn wait_while_is_exempt_from_the_loop_requirement() {
        let text = "fn park(&self, g: G) {\n    let g = self.cv.wait_while(g, |s| !s.ready).unwrap_or_else(|p| p.into_inner());\n}\n";
        assert!(file_rule("crates/serve/src/q.rs", text, "condvar-discipline").is_empty());
    }

    #[test]
    fn bounded_io_denies_unbounded_reads_outside_approved_helpers() {
        let bad = "fn slurp(r: &mut R) {\n    let mut line = String::new();\n    r.read_line(&mut line);\n}\n";
        let d = file_rule("crates/serve/src/conn.rs", bad, "bounded-io");
        assert_eq!(d.len(), 1, "{d:?}");
        let approved = "fn read_bounded_line(r: &mut R) {\n    let mut line = String::new();\n    r.read_line(&mut line);\n}\n";
        assert!(file_rule("crates/serve/src/conn.rs", approved, "bounded-io").is_empty());
        // Out-of-scope crates are untouched.
        assert!(file_rule("crates/prob/src/x.rs", bad, "bounded-io").is_empty());
    }

    #[test]
    fn bounded_io_denies_uncapped_growth_in_reader_loops() {
        let bad = "fn pump(r: &mut R, out: &mut Vec<u8>) {\n    loop {\n        let chunk = r.fill_buf().unwrap_or_default();\n        out.extend_from_slice(chunk);\n    }\n}\n";
        let d = file_rule("crates/serve/src/conn.rs", bad, "bounded-io");
        assert_eq!(d.len(), 1, "{d:?}");
        let capped = "fn pump(r: &mut R, out: &mut Vec<u8>) {\n    loop {\n        let chunk = r.fill_buf().unwrap_or_default();\n        if out.len() > MAX {\n            return;\n        }\n        out.extend_from_slice(chunk);\n    }\n}\n";
        assert!(file_rule("crates/serve/src/conn.rs", capped, "bounded-io").is_empty());
    }

    #[test]
    fn cast_truncation_flags_narrow_and_rounded_casts() {
        let text = "fn f(n: usize, x: f64) {\n    let a = n as u32;\n    let b = x.round() as i64;\n    let c = n as u64;\n    let d = x as f64;\n}\n";
        let d = file_rule("crates/core/src/x.rs", text, "cast-truncation");
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("as u32"));
        assert!(d[1].message.contains("as i64"));
    }

    #[test]
    fn cast_truncation_skips_tests_and_use_renames() {
        let import = "use std::fmt::Debug as u32x;\n";
        assert!(file_rule("crates/core/src/x.rs", import, "cast-truncation").is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t(n: usize) { let a = n as u32; }\n}\n";
        assert!(file_rule("crates/core/src/x.rs", in_test, "cast-truncation").is_empty());
        let test_file = "fn t(n: usize) -> u32 { n as u32 }\n";
        assert!(file_rule("crates/core/tests/x.rs", test_file, "cast-truncation").is_empty());
    }

    #[test]
    fn lock_ordering_flags_cycles_across_files() {
        let a = analyse(
            "crates/serve/src/a.rs",
            "fn ab(&self) {\n    let g = self.alpha.lock().unwrap_or_else(|p| p.into_inner());\n    let h = self.beta.lock().unwrap_or_else(|p| p.into_inner());\n}\n",
        );
        let b = analyse(
            "crates/serve/src/b.rs",
            "fn ba(&self) {\n    let g = self.beta.lock().unwrap_or_else(|p| p.into_inner());\n    let h = self.alpha.lock().unwrap_or_else(|p| p.into_inner());\n}\n",
        );
        let d = check_workspace(&[a, b], &["lock-ordering"]);
        assert_eq!(d.len(), 2, "both directions report: {d:?}");
        assert!(d.iter().all(|x| x.message.contains("cycle")));
    }

    #[test]
    fn lock_ordering_consistent_nesting_is_clean() {
        let a = analyse(
            "crates/serve/src/a.rs",
            "fn ab(&self) {\n    let g = self.alpha.lock().unwrap_or_else(|p| p.into_inner());\n    let h = self.beta.lock().unwrap_or_else(|p| p.into_inner());\n}\nfn ab2(&self) {\n    let g = self.alpha.lock().unwrap_or_else(|p| p.into_inner());\n    let h = self.beta.lock().unwrap_or_else(|p| p.into_inner());\n}\n",
        );
        assert!(check_workspace(&[a], &["lock-ordering"]).is_empty());
    }

    #[test]
    fn lock_ordering_sees_one_call_level() {
        let a = analyse(
            "crates/serve/src/a.rs",
            "fn outer(&self) {\n    let g = self.alpha.lock().unwrap_or_else(|p| p.into_inner());\n    helper(self);\n}\nfn helper(s: &S) {\n    let h = s.beta.lock().unwrap_or_else(|p| p.into_inner());\n}\nfn reversed(&self) {\n    let g = self.beta.lock().unwrap_or_else(|p| p.into_inner());\n    let h = self.alpha.lock().unwrap_or_else(|p| p.into_inner());\n}\n",
        );
        let d = check_workspace(&[a], &["lock-ordering"]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("via call to `helper`")));
    }

    #[test]
    fn lock_ordering_sees_through_guard_wrappers() {
        // `probe` → `wrapper` → `inner_lock` → `state`: the acquisition
        // is two call hops away, the scheduler's `self.lock()` idiom.
        let a = analyse(
            "crates/serve/src/a.rs",
            "fn probe(&self) {\n    let g = self.stats.lock().unwrap_or_else(|p| p.into_inner());\n    wrapper(self);\n}\nfn wrapper(s: &S) -> usize {\n    inner_lock(s).jobs.len()\n}\nfn inner_lock(s: &S) -> G {\n    s.state.lock().unwrap_or_else(|p| p.into_inner())\n}\nfn reversed(&self) {\n    let g = self.state.lock().unwrap_or_else(|p| p.into_inner());\n    let h = self.stats.lock().unwrap_or_else(|p| p.into_inner());\n}\n",
        );
        let d = check_workspace(&[a], &["lock-ordering"]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d
            .iter()
            .any(|x| x.message.contains("via call to `wrapper`")));
    }

    #[test]
    fn lock_ordering_self_deadlock() {
        let a = analyse(
            "crates/serve/src/a.rs",
            "fn twice(&self) {\n    let g = self.alpha.lock().unwrap_or_else(|p| p.into_inner());\n    let h = self.alpha.lock().unwrap_or_else(|p| p.into_inner());\n}\n",
        );
        let d = check_workspace(&[a], &["lock-ordering"]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("self-deadlock"));
    }

    #[test]
    fn statement_temporaries_do_not_create_edges() {
        // `self.state.lock()….len()` releases at statement end, so a
        // later acquisition is not nested.
        let a = analyse(
            "crates/serve/src/a.rs",
            "fn depth(&self) -> usize {\n    let d = self.state.lock().unwrap_or_else(|p| p.into_inner()).jobs.len();\n    let g = self.stats.lock().unwrap_or_else(|p| p.into_inner());\n    d\n}\nfn rev(&self) {\n    let g = self.stats.lock().unwrap_or_else(|p| p.into_inner());\n    let d = self.state.lock().unwrap_or_else(|p| p.into_inner()).jobs.len();\n}\n",
        );
        // rev nests stats→state; depth holds state only for its own
        // statement (no overlap with the later stats acquisition)… but
        // the temporary's statement releases before line 3, so only the
        // rev edge exists and there is no cycle.
        assert!(check_workspace(&[a], &["lock-ordering"]).is_empty());
    }

    #[test]
    fn hot_path_alloc_direct_and_one_level() {
        let a = analyse(
            "crates/prob/src/k.rs",
            "// pinocchio-hot: kernel\nfn kernel(s: &mut S) {\n    let v = Vec::with_capacity(8);\n    helper(s);\n}\nfn helper(s: &mut S) {\n    let t = s.x.to_vec();\n}\nfn cold() {\n    let v = Vec::new();\n}\n",
        );
        let d = check_workspace(&[a], &["hot-path-alloc"]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("Vec::with_capacity"));
        assert!(d[1].message.contains("calls `helper`"));
    }

    #[test]
    fn hot_path_alloc_skips_hot_callees_and_ambiguous_names() {
        let a = analyse(
            "crates/prob/src/k.rs",
            "// pinocchio-hot\nfn kernel(s: &mut S) {\n    refine(s);\n    new_scratch();\n}\n// pinocchio-hot\nfn refine(s: &mut S) {\n}\nfn new_scratch() -> Vec<u32> {\n    Vec::new()\n}\nfn other() {\n    fn new_scratch_2() {}\n}\n",
        );
        let b = analyse(
            "crates/prob/src/k2.rs",
            "fn new_scratch() -> Vec<u32> {\n    Vec::new()\n}\n",
        );
        // `new_scratch` is defined twice in the crate → ambiguous → no
        // propagation; `refine` is hot → policed in its own body.
        let d = check_workspace(&[a, b], &["hot-path-alloc"]);
        assert!(d.is_empty(), "{d:?}");
    }
}
