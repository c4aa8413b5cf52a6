//! A function-span model layered over [`SourceFile`].
//!
//! The line model of [`crate::source`] answers "what tokens are on this
//! line"; the rules added for the concurrency/resource audit need the
//! next altitude up: *which function am I in, what does it acquire,
//! and what does it call*. This module parses item/function boundaries
//! by brace tracking over the already-blanked code lines and records
//! per-function facts:
//!
//! * lock acquisitions (`x.lock()` / `x.read()` / `x.write()`), with an
//!   approximate guard extent — bound guards live to the end of their
//!   innermost enclosing block or an explicit `drop(guard)`, statement
//!   temporaries to the end of their statement;
//! * `Condvar` waits, with whether they sit inside a loop and whether
//!   their result is consumed;
//! * heap-allocation constructors (`Vec::new`, `vec![`, `format!`, …);
//! * call sites, by identifier and call shape (method or bare), for
//!   one level of intra-crate fact propagation;
//! * loop extents, for the bounded-io growth check.
//!
//! The model is deliberately approximate — it is a lexer with a brace
//! counter, not a type checker. The precision tradeoffs of every
//! approximation are documented in DESIGN.md §14; the escape hatch for
//! a false positive is always a justified suppression.

use crate::source::SourceFile;

/// One lock acquisition inside a function.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Lock identity: the last non-`self` segment of the receiver path
    /// (`self.shared.stats.lock()` → `stats`). Identity is scoped per
    /// crate by the rules that consume it.
    pub lock: String,
    /// Last line (inclusive) on which the guard may still be held.
    pub release_line: usize,
}

/// One `Condvar::wait*` call inside a function.
#[derive(Debug, Clone)]
pub struct WaitSite {
    /// 1-based line of the wait.
    pub line: usize,
    /// `wait`, `wait_timeout`, or `wait_while`.
    pub method: &'static str,
    /// Whether an enclosing `loop`/`while`/`for` block (within the same
    /// function) was open at the wait.
    pub in_loop: bool,
    /// Whether the wait's result is consumed: the statement is a `let`
    /// binding, an assignment, a `match`/`if` scrutinee, or the
    /// function's tail expression.
    pub consumed: bool,
}

/// One heap-allocation token inside a function.
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// 1-based line of the allocation.
    pub line: usize,
    /// The matched constructor token (e.g. `Vec::new`).
    pub what: &'static str,
}

/// One call site, by callee identifier.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line of the call.
    pub line: usize,
    /// The identifier immediately before the `(`; method and free calls
    /// both reduce to their final name segment.
    pub callee: String,
    /// Whether the call is a method call (`.name(`); a bare or path
    /// call (`name(`, `Type::name(`) is not.
    pub method: bool,
}

/// One function (or method) span with its recorded facts.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub header_line: usize,
    /// 1-based line where the body closes.
    pub end_line: usize,
    /// Whether the header sits in a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Whether the first parameter is a `self` receiver (`self`,
    /// `&self`, `&'a mut self`, `self: Arc<Self>`, …).
    pub takes_self: bool,
    /// Whether the function is marked `// pinocchio-hot` (same line as
    /// the header or in the contiguous comment block above it).
    pub hot: bool,
    /// Lock acquisitions, in source order.
    pub locks: Vec<LockSite>,
    /// Condvar waits, in source order.
    pub waits: Vec<WaitSite>,
    /// Allocation tokens, in source order.
    pub allocs: Vec<AllocSite>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Closed `loop`/`while`/`for` block extents `(start, end)`, 1-based
    /// inclusive.
    pub loops: Vec<(usize, usize)>,
}

/// A parsed file plus its function spans — the unit the engine hands to
/// both the per-file and the workspace-level rules.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// The classified source file.
    pub source: SourceFile,
    /// Function spans in header order.
    pub fns: Vec<FnSpan>,
}

impl FileAnalysis {
    /// Parses `text` and scans its function spans.
    pub fn parse(path: &str, text: &str) -> FileAnalysis {
        let source = SourceFile::parse(path, text);
        let fns = scan(&source);
        FileAnalysis { source, fns }
    }

    /// The innermost function span containing 1-based `line`, preferring
    /// later (more deeply nested) headers.
    pub fn fn_at(&self, line: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.header_line <= line && line <= f.end_line)
            .max_by_key(|f| f.header_line)
    }
}

/// Heap-allocation constructor tokens. `.push(` and `.clone()` are
/// deliberately absent: push is amortized into a prior reservation
/// throughout this workspace, and clone is routinely `Copy` or an `Arc`
/// bump — flagging either would bury the signal.
const ALLOC_TOKENS: [&str; 16] = [
    "Vec::new",
    "Vec::with_capacity",
    "vec![",
    "String::new",
    "String::with_capacity",
    "String::from(",
    "Box::new",
    "format!(",
    ".to_string()",
    ".to_vec()",
    ".to_owned()",
    ".collect()",
    ".collect::<",
    "HashMap::new",
    "BTreeMap::new",
    "BinaryHeap::new",
];

/// Guard-returning recovery adapters that keep a `.lock()` chain a
/// guard expression rather than a consumed temporary.
const RECOVERY_ADAPTERS: [&str; 4] = ["unwrap_or_else", "unwrap", "expect", "into_inner"];

const KEYWORDS: [&str; 16] = [
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "else", "fn", "let",
    "mut", "ref", "use", "impl",
];

/// An open block on the scanner's stack.
struct Block {
    start_line: usize,
    is_loop: bool,
    /// Height of the open-fn stack when the block opened (0 = module
    /// level); blocks belong to the innermost function open at the time.
    owner: usize,
}

/// An open function under construction.
struct OpenFn {
    span: FnSpan,
    /// Brace depth of the body's opening `{` (the fn closes when depth
    /// returns to this value).
    entry_depth: i64,
    guards: Vec<OpenGuard>,
}

struct OpenGuard {
    lock_idx: usize,
    kind: GuardKind,
}

enum GuardKind {
    /// Bound to `name` at `depth`; released by `drop(name)` or when the
    /// brace depth falls below `depth`.
    Bound { name: String, depth: i64 },
}

/// Scans a classified file into function spans with facts.
pub fn scan(file: &SourceFile) -> Vec<FnSpan> {
    let mut done: Vec<FnSpan> = Vec::new();
    let mut stack: Vec<OpenFn> = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut depth: i64 = 0;
    // A detected header waiting for its body `{` (or a `;` for bodyless
    // trait declarations). `(name, header_line, hot, min_byte_on_line)`.
    let mut pending: Option<(String, usize, bool)> = None;
    let mut pending_pos: usize = 0;

    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = &line.code;

        if pending.is_none() {
            if let Some((pos, name)) = find_fn_header(code) {
                let hot = is_hot_marked(file, idx);
                pending = Some((name, lineno, hot));
                pending_pos = pos;
            }
        }

        let bytes = code.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'{' => {
                    if let Some((name, header_line, hot)) = pending.take() {
                        if i >= pending_pos || header_line != lineno {
                            stack.push(OpenFn {
                                span: FnSpan {
                                    name,
                                    header_line,
                                    end_line: header_line,
                                    in_test: file.lines[header_line - 1].in_test,
                                    takes_self: takes_self(file, header_line, lineno),
                                    hot,
                                    locks: Vec::new(),
                                    waits: Vec::new(),
                                    allocs: Vec::new(),
                                    calls: Vec::new(),
                                    loops: Vec::new(),
                                },
                                entry_depth: depth,
                                guards: Vec::new(),
                            });
                        } else {
                            pending = Some((name, header_line, hot));
                        }
                    }
                    blocks.push(Block {
                        start_line: lineno,
                        is_loop: opens_loop(code, i),
                        owner: stack.len(),
                    });
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if let Some(block) = blocks.pop() {
                        if block.is_loop && block.owner > 0 {
                            if let Some(open) = stack.get_mut(block.owner - 1) {
                                open.span.loops.push((block.start_line, lineno));
                            }
                        }
                    }
                    if let Some(open) = stack.last_mut() {
                        // Guards bound inside the block that just closed
                        // are released here.
                        release_out_of_scope_guards(open, depth, lineno);
                        if open.entry_depth == depth {
                            let mut open = stack.pop().unwrap_or_else(|| unreachable!());
                            for g in open.guards.drain(..) {
                                open.span.locks[g.lock_idx].release_line = lineno;
                            }
                            open.span.end_line = lineno;
                            done.push(open.span);
                        }
                    }
                }
                b';' if pending.is_some()
                    && (i >= pending_pos || !same_pending_line(&pending, lineno)) =>
                {
                    pending = None; // bodyless declaration
                }
                _ => {}
            }
        }
        // After the brace walk, a multi-line header's later lines may
        // open the body anywhere.
        pending_pos = 0;

        let height = stack.len();
        if let Some(open) = stack.last_mut() {
            record_facts(open, file, idx, &blocks, depth, height);
        }
    }
    // Unterminated functions (truncated file): close at EOF.
    while let Some(mut open) = stack.pop() {
        let last = file.lines.len().max(1);
        for g in open.guards.drain(..) {
            open.span.locks[g.lock_idx].release_line = last;
        }
        open.span.end_line = last;
        done.push(open.span);
    }
    done.sort_by_key(|f| f.header_line);
    done
}

fn same_pending_line(pending: &Option<(String, usize, bool)>, lineno: usize) -> bool {
    pending.as_ref().is_some_and(|(_, l, _)| *l == lineno)
}

fn release_out_of_scope_guards(open: &mut OpenFn, depth: i64, lineno: usize) {
    let mut kept = Vec::new();
    for g in open.guards.drain(..) {
        let GuardKind::Bound { depth: gd, .. } = &g.kind;
        if *gd > depth {
            open.span.locks[g.lock_idx].release_line = lineno;
        } else {
            kept.push(g);
        }
    }
    open.guards = kept;
}

/// Finds a `fn <name>` header on a code line; returns the byte offset of
/// the `fn` keyword and the name.
fn find_fn_header(code: &str) -> Option<(usize, String)> {
    let bytes = code.as_bytes();
    let mut search = 0usize;
    while let Some(rel) = code[search..].find("fn ") {
        let at = search + rel;
        search = at + 3;
        // Word boundary on the left (`pub fn`, column 0, `(`…).
        if at > 0 {
            let prev = bytes[at - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let rest = code[at + 3..].trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue; // `fn(` type position
        }
        return Some((at, name));
    }
    None
}

/// Whether the function whose `fn` keyword sits on 1-based
/// `header_line` takes a `self` receiver: its first parameter, read
/// across a header wrapped up to `last_line`. Generics before the
/// parameter list are skipped by angle-bracket depth (`->` inside them
/// closes nothing).
fn takes_self(file: &SourceFile, header_line: usize, last_line: usize) -> bool {
    let mut text = String::new();
    for line in &file.lines[header_line - 1..last_line] {
        text.push_str(&line.code);
        text.push(' ');
    }
    let Some((at, name)) = find_fn_header(&text) else {
        return false;
    };
    let after_name = text[at + 3..].trim_start();
    let mut rest = after_name[name.len()..].trim_start();
    if rest.starts_with('<') {
        let bytes = rest.as_bytes();
        let mut depth = 0usize;
        let mut end = None;
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'<' => depth += 1,
                b'>' if i > 0 && bytes[i - 1] == b'-' => {}
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end) = end else {
            return false;
        };
        rest = rest[end..].trim_start();
    }
    let Some(params) = rest.strip_prefix('(') else {
        return false;
    };
    let first = params.split([',', ')']).next().unwrap_or_default().trim();
    let first = first.strip_prefix('&').unwrap_or(first).trim_start();
    let first = match first.strip_prefix('\'') {
        Some(lifetime) => lifetime
            .trim_start_matches(|c: char| c.is_ascii_alphanumeric() || c == '_')
            .trim_start(),
        None => first,
    };
    let first = first.strip_prefix("mut ").unwrap_or(first).trim_start();
    first
        .strip_prefix("self")
        .is_some_and(|tail| !tail.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_'))
}

/// Whether the function whose header is at line index `idx` carries a
/// `pinocchio-hot` marker: on the header line's comment, or anywhere in
/// the contiguous comment/attribute block directly above it.
fn is_hot_marked(file: &SourceFile, idx: usize) -> bool {
    if file.lines[idx].comment.contains("pinocchio-hot") {
        return true;
    }
    let mut back = idx;
    while back > 0 {
        let prev = &file.lines[back - 1];
        let code = prev.code.trim();
        let comment_only = code.is_empty() && !prev.comment.trim().is_empty();
        let attribute = code.starts_with("#[");
        if !comment_only && !attribute {
            return false;
        }
        if prev.comment.contains("pinocchio-hot") {
            return true;
        }
        back -= 1;
    }
    false
}

/// Whether the `{` at byte `brace` opens a loop body: the code between
/// the previous statement boundary on the line and the brace contains a
/// `loop`/`while`/`for` keyword. A loop header split across lines is a
/// known false negative (documented).
fn opens_loop(code: &str, brace: usize) -> bool {
    let head = &code[..brace];
    let start = head.rfind([';', '{', '}']).map(|p| p + 1).unwrap_or(0);
    let head = &head[start..];
    for kw in ["loop", "while", "for"] {
        let mut search = 0usize;
        while let Some(rel) = head[search..].find(kw) {
            let at = search + rel;
            search = at + kw.len();
            let left_ok = at == 0 || {
                let p = head.as_bytes()[at - 1];
                !(p.is_ascii_alphanumeric() || p == b'_')
            };
            let right = head.as_bytes().get(at + kw.len());
            let right_ok = right.is_none_or(|&n| !(n.is_ascii_alphanumeric() || n == b'_'));
            if left_ok && right_ok {
                return true;
            }
        }
    }
    false
}

/// Records every fact visible on line `idx` into the innermost open fn
/// (`height` is the fn-stack height, which owns blocks with a matching
/// `owner`).
fn record_facts(
    open: &mut OpenFn,
    file: &SourceFile,
    idx: usize,
    blocks: &[Block],
    depth: i64,
    height: usize,
) {
    let lineno = idx + 1;
    let code = &file.lines[idx].code;

    // drop(guard) releases a bound guard early.
    for g in std::mem::take(&mut open.guards) {
        let GuardKind::Bound { name, .. } = &g.kind;
        if drops_name(code, name) {
            open.span.locks[g.lock_idx].release_line = lineno;
        } else {
            open.guards.push(g);
        }
    }

    let mut lock_positions: Vec<usize> = Vec::new();
    for method in [".lock()", ".read()", ".write()"] {
        let mut search = 0usize;
        while let Some(rel) = code[search..].find(method) {
            let at = search + rel;
            search = at + method.len();
            let lock = match receiver_at(code, at) {
                Receiver::Field(f) => Some(f),
                Receiver::BareSelf => None, // a method call, not a lock
                Receiver::Unknown => {
                    // Chain split across lines: resolve against the
                    // reconstructed statement instead.
                    let (stmt, _) = statement_around(file, idx);
                    match stmt.find(method).map(|p| receiver_at(&stmt, p)) {
                        Some(Receiver::Field(f)) => Some(f),
                        _ => None,
                    }
                }
            };
            let Some(lock) = lock else {
                continue;
            };
            lock_positions.push(at);
            let (stmt, stmt_end) = statement_around(file, idx);
            let lock_idx = open.span.locks.len();
            if let Some((name, bind_depth)) = guard_binding(&stmt, method, depth) {
                open.span.locks.push(LockSite {
                    line: lineno,
                    lock,
                    // Provisional: until released, the guard covers the
                    // rest of the function; finalized on release.
                    release_line: lineno,
                });
                open.guards.push(OpenGuard {
                    lock_idx,
                    kind: GuardKind::Bound {
                        name,
                        depth: bind_depth,
                    },
                });
            } else {
                open.span.locks.push(LockSite {
                    line: lineno,
                    lock,
                    release_line: stmt_end,
                });
            }
        }
    }

    for (pat, method) in [
        (".wait(", "wait"),
        (".wait_timeout(", "wait_timeout"),
        (".wait_while(", "wait_while"),
        (".wait_timeout_while(", "wait_timeout"),
    ] {
        let mut search = 0usize;
        while let Some(rel) = code[search..].find(pat) {
            let at = search + rel;
            search = at + pat.len();
            let in_loop = blocks.iter().any(|b| b.is_loop && b.owner == height);
            let (stmt, _) = statement_around(file, idx);
            open.span.waits.push(WaitSite {
                line: lineno,
                method,
                in_loop,
                consumed: wait_consumed(&stmt, pat),
            });
        }
    }

    for token in ALLOC_TOKENS {
        let mut search = 0usize;
        while let Some(rel) = code[search..].find(token) {
            let at = search + rel;
            search = at + token.len();
            // `Vec::new` must not also match inside `Vec::new_in` etc.
            let after = code.as_bytes().get(at + token.len());
            if !token.ends_with(['(', '!', ')', '<'])
                && after.is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
            {
                continue;
            }
            open.span.allocs.push(AllocSite {
                line: lineno,
                what: token,
            });
        }
    }

    // Call sites: identifier immediately before a `(`.
    let bytes = code.as_bytes();
    for i in 0..bytes.len() {
        if bytes[i] != b'(' {
            continue;
        }
        let mut start = i;
        while start > 0 && {
            let p = bytes[start - 1];
            p.is_ascii_alphanumeric() || p == b'_'
        } {
            start -= 1;
        }
        if start == i {
            continue;
        }
        let name = &code[start..i];
        if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            continue;
        }
        if KEYWORDS.contains(&name) {
            continue;
        }
        // Skip definitions (`fn name(`).
        if code[..start].trim_end().ends_with("fn") {
            continue;
        }
        // Skip sites already classified as lock acquisitions.
        if matches!(name, "lock" | "read" | "write")
            && lock_positions.iter().any(|&p| p + 1 == start)
        {
            continue;
        }
        open.span.calls.push(CallSite {
            line: lineno,
            callee: name.to_string(),
            method: start > 0 && bytes[start - 1] == b'.',
        });
    }
}

fn drops_name(code: &str, name: &str) -> bool {
    let mut search = 0usize;
    while let Some(rel) = code[search..].find("drop(") {
        let at = search + rel;
        search = at + 5;
        let rest = &code[at + 5..];
        if let Some(close) = rest.find(')') {
            if rest[..close].trim() == name {
                return true;
            }
        }
    }
    false
}

/// What sits before a `.method()` call at byte `dot`.
enum Receiver {
    /// A dotted path ending in a named field/binding — the lock identity.
    Field(String),
    /// Exactly `self`: a method call on the surrounding type, not a lock.
    BareSelf,
    /// Nothing scannable on this line (chain split across lines, or a
    /// parenthesized receiver).
    Unknown,
}

/// Classifies the receiver of the method call whose `.` is at `dot`:
/// the last non-`self` segment of the dotted path is the lock identity
/// (`self.shared.stats.lock()` → `stats`).
fn receiver_at(code: &str, dot: usize) -> Receiver {
    let bytes = code.as_bytes();
    let mut start = dot;
    while start > 0 {
        let p = bytes[start - 1];
        if p.is_ascii_alphanumeric() || p == b'_' || p == b'.' || p == b':' {
            start -= 1;
        } else {
            break;
        }
    }
    let path = &code[start..dot];
    match path.rsplit(['.', ':']).find(|s| !s.is_empty()) {
        None => Receiver::Unknown,
        Some("self") => Receiver::BareSelf,
        Some(field) => Receiver::Field(field.to_string()),
    }
}

/// Reconstructs the statement containing line `idx`: the lines from the
/// previous statement boundary through the first line carrying `;` (or
/// an opening `{`, or — for tail expressions — the line before the
/// block's closing `}`). Continuation lines starting with `.`/`)`/`?`
/// are fused without a separator so split method chains re-form into
/// scannable dotted paths. Returns the text and the 1-based end line.
fn statement_around(file: &SourceFile, idx: usize) -> (String, usize) {
    const LOOKAROUND: usize = 16;
    let mut start = idx;
    for _ in 0..LOOKAROUND {
        if start == 0 {
            break;
        }
        let prev = file.lines[start - 1].code.trim_end();
        let prev_trim = prev.trim();
        if prev_trim.is_empty() || prev.ends_with(';') || prev.ends_with('{') || prev.ends_with('}')
        {
            break;
        }
        start -= 1;
    }
    let mut end = idx;
    for _ in 0..LOOKAROUND {
        let code = file.lines[end].code.trim();
        if code.contains(';') || code.ends_with('{') {
            break;
        }
        let Some(next) = file.lines.get(end + 1) else {
            break;
        };
        if next.code.trim().starts_with('}') {
            break; // tail expression: the block closes next
        }
        end += 1;
    }
    let mut text = String::new();
    for l in &file.lines[start..=end] {
        let seg = l.code.trim();
        if seg.is_empty() {
            continue;
        }
        if !text.is_empty() && !seg.starts_with(['.', ')', '?', ',']) {
            text.push(' ');
        }
        text.push_str(seg);
    }
    (text, end + 1)
}

/// If the statement binds the guard of a `method` acquisition to a
/// variable, returns `(name, depth)`; otherwise the acquisition is a
/// statement temporary.
fn guard_binding(stmt: &str, method: &str, depth: i64) -> Option<(String, i64)> {
    let trimmed = stmt.trim_start();
    if !trimmed.starts_with("let ") {
        return None;
    }
    let eq = find_top_level_assign(trimmed)?;
    let (pattern, value) = trimmed.split_at(eq);
    let value = value[1..].trim_start();
    if value.starts_with('*') {
        return None; // the guard is dereferenced and copied, not held
    }
    // The chain after the acquisition must not consume the guard into
    // something else (`.lock().jobs.len()` is a temporary).
    let after_at = stmt.find(method)? + method.len();
    if chain_consumes(&stmt[after_at..]) {
        return None;
    }
    let pattern = pattern.trim_start_matches("let").trim();
    if pattern.starts_with('(') {
        return None; // tuple pattern: not a plain guard binding
    }
    let name: String = pattern
        .trim_start_matches("mut ")
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    Some((name, depth))
}

/// Byte offset of the first top-level `=` that is an assignment (not
/// `==`, `=>`, `<=`, `>=`, `!=`, `+=`, …).
fn find_top_level_assign(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0i64;
    for i in 0..bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'=' if depth == 0 => {
                let prev = if i == 0 { b' ' } else { bytes[i - 1] };
                let next = bytes.get(i + 1).copied().unwrap_or(b' ');
                if next != b'='
                    && next != b'>'
                    && !matches!(
                        prev,
                        b'=' | b'!'
                            | b'<'
                            | b'>'
                            | b'+'
                            | b'-'
                            | b'*'
                            | b'/'
                            | b'%'
                            | b'&'
                            | b'|'
                            | b'^'
                    )
                {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether the chain following a guard-producing call consumes the guard
/// into something that is not itself the guard (a field access or a
/// non-recovery adapter at the chain's own paren depth).
fn chain_consumes(after: &str) -> bool {
    let bytes = after.as_bytes();
    let mut depth = 0i64;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                depth -= 1;
                if depth < 0 {
                    return false; // left the acquisition expression
                }
            }
            b';' | b'{' if depth == 0 => return false,
            b'.' if depth == 0 => {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len() && {
                    let c = bytes[end];
                    c.is_ascii_alphanumeric() || c == b'_'
                } {
                    end += 1;
                }
                let ident = &after[start..end];
                if !ident.is_empty() && !RECOVERY_ADAPTERS.contains(&ident) {
                    return true;
                }
                i = end;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    false
}

/// Whether a wait's result is consumed by its statement.
fn wait_consumed(stmt: &str, pat: &str) -> bool {
    let trimmed = stmt.trim_start();
    if trimmed.starts_with("let ")
        || trimmed.starts_with("match ")
        || trimmed.starts_with("if ")
        || trimmed.starts_with("while ")
        || trimmed.starts_with("return ")
    {
        return true;
    }
    let Some(at) = stmt.find(pat) else {
        return false;
    };
    if find_top_level_assign(&stmt[..at]).is_some() {
        return true;
    }
    // Tail expression: the statement never terminates with `;`.
    !stmt.trim_end().ends_with(';')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyse(text: &str) -> FileAnalysis {
        FileAnalysis::parse("crates/serve/src/x.rs", text)
    }

    #[test]
    fn finds_fn_spans_and_nesting() {
        let a = analyse(
            "pub fn outer() {\n\
             \x20   let x = 1;\n\
             \x20   fn inner() { work(); }\n\
             }\n\
             fn second() {}\n",
        );
        let names: Vec<&str> = a.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "second"]);
        let outer = &a.fns[0];
        assert_eq!((outer.header_line, outer.end_line), (1, 4));
        assert_eq!(a.fn_at(3).map(|f| f.name.as_str()), Some("inner"));
        assert_eq!(a.fn_at(2).map(|f| f.name.as_str()), Some("outer"));
    }

    #[test]
    fn multi_line_headers_and_bodyless_declarations() {
        let a = analyse(
            "trait T {\n\
             \x20   fn decl(&self) -> u32;\n\
             }\n\
             pub fn long(\n\
             \x20   x: u32,\n\
             ) -> u32 {\n\
             \x20   x\n\
             }\n",
        );
        let names: Vec<&str> = a.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["long"], "declarations have no span: {a:?}");
        assert_eq!(a.fns[0].header_line, 4);
        assert_eq!(a.fns[0].end_line, 8);
    }

    #[test]
    fn lock_identity_and_bound_guard_extent() {
        let a = analyse(
            "fn f(&self) {\n\
             \x20   let mut guard = self.shared.stats.lock().unwrap_or_else(|p| p.into_inner());\n\
             \x20   work();\n\
             \x20   drop(guard);\n\
             \x20   more();\n\
             }\n",
        );
        let locks = &a.fns[0].locks;
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].lock, "stats");
        assert_eq!(locks[0].line, 2);
        assert_eq!(locks[0].release_line, 4, "released by drop: {locks:?}");
    }

    #[test]
    fn block_scoped_guard_releases_at_block_end() {
        let a = analyse(
            "fn f(&self) {\n\
             \x20   let view = {\n\
             \x20       let mut guard = self.stats.lock().unwrap_or_else(|p| p.into_inner());\n\
             \x20       *guard\n\
             \x20   };\n\
             \x20   self.queue.depth();\n\
             }\n",
        );
        let locks = &a.fns[0].locks;
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].release_line, 5, "block end releases: {locks:?}");
    }

    #[test]
    fn chained_temporary_is_statement_scoped() {
        let a = analyse(
            "fn depth(&self) -> usize {\n\
             \x20   self.state.lock().unwrap_or_else(|p| p.into_inner()).jobs.len()\n\
             }\n\
             fn copy(&self) -> u64 {\n\
             \x20   let snapshot = *self.state.lock().unwrap_or_else(|p| p.into_inner());\n\
             \x20   snapshot\n\
             }\n",
        );
        assert_eq!(a.fns[0].locks[0].release_line, 2, "{:?}", a.fns[0].locks);
        assert_eq!(a.fns[1].locks[0].release_line, 5, "{:?}", a.fns[1].locks);
    }

    #[test]
    fn bare_self_lock_is_a_call_not_an_acquisition() {
        let a = analyse(
            "fn close(&self) {\n\
             \x20   self.lock().closed = true;\n\
             }\n",
        );
        assert!(a.fns[0].locks.is_empty(), "{:?}", a.fns[0].locks);
        assert!(
            a.fns[0].calls.iter().any(|c| c.callee == "lock"),
            "{:?}",
            a.fns[0].calls
        );
    }

    #[test]
    fn split_chain_receiver_resolves_via_statement() {
        // rustfmt splits long chains; the receiver sits on the line
        // above the `.lock()` — exactly the scheduler's wrapper idiom.
        let a = analyse(
            "fn lock(&self) -> G {\n\
             \x20   self.state\n\
             \x20       .lock()\n\
             \x20       .unwrap_or_else(|p| p.into_inner())\n\
             }\n",
        );
        let locks = &a.fns[0].locks;
        assert_eq!(locks.len(), 1, "{locks:?}");
        assert_eq!(locks[0].lock, "state");
    }

    #[test]
    fn wait_facts_loop_and_consumption() {
        let a = analyse(
            "fn good(&self) {\n\
             \x20   let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());\n\
             \x20   loop {\n\
             \x20       if ready() { break; }\n\
             \x20       state = self\n\
             \x20           .available\n\
             \x20           .wait_timeout(state, remaining)\n\
             \x20           .unwrap_or_else(|p| p.into_inner())\n\
             \x20           .0;\n\
             \x20   }\n\
             }\n\
             fn bad(&self, mut g: G) {\n\
             \x20   self.cv.wait(g);\n\
             }\n",
        );
        let good = &a.fns[0].waits[0];
        assert!(good.in_loop && good.consumed, "{good:?}");
        assert_eq!(good.method, "wait_timeout");
        let bad = &a.fns[1].waits[0];
        assert!(!bad.in_loop && !bad.consumed, "{bad:?}");
    }

    #[test]
    fn alloc_call_and_loop_facts() {
        let a = analyse(
            "fn f() {\n\
             \x20   let mut v = Vec::with_capacity(4);\n\
             \x20   while cond() {\n\
             \x20       helper(v.len());\n\
             \x20   }\n\
             \x20   let s = format!(\"x\");\n\
             }\n",
        );
        let f = &a.fns[0];
        let allocs: Vec<&str> = f.allocs.iter().map(|s| s.what).collect();
        assert_eq!(allocs, vec!["Vec::with_capacity", "format!("]);
        assert!(f.calls.iter().any(|c| c.callee == "helper"));
        assert!(f.calls.iter().any(|c| c.callee == "cond"));
        assert_eq!(f.loops, vec![(3, 5)]);
    }

    #[test]
    fn calls_record_their_shape_and_fns_their_receiver() {
        let a = analyse(
            "fn free(v: &mut Vec<u32>) {\n\
             \x20   v.push(1);\n\
             \x20   push(v);\n\
             \x20   Vec::<u32>::with_capacity(1);\n\
             }\n\
             fn by_ref(&self) {}\n\
             fn by_mut_lifetime<'a>(&'a mut self, x: u32) {}\n\
             fn by_value(mut self) {}\n\
             fn typed<F: Fn(u32) -> u32>(self: Arc<Self>, f: F) {}\n\
             fn wrapped(\n\
             \x20   &self,\n\
             \x20   x: u32,\n\
             ) {}\n\
             fn selfish(selfie: u32) {}\n\
             fn none() {}\n",
        );
        let calls: Vec<(&str, bool)> = a.fns[0]
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), c.method))
            .collect();
        assert_eq!(
            calls,
            vec![("push", true), ("push", false), ("with_capacity", false)]
        );
        let receivers: Vec<(&str, bool)> = a
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.takes_self))
            .collect();
        assert_eq!(
            receivers,
            vec![
                ("free", false),
                ("by_ref", true),
                ("by_mut_lifetime", true),
                ("by_value", true),
                ("typed", true),
                ("wrapped", true),
                ("selfish", false),
                ("none", false),
            ]
        );
    }

    #[test]
    fn hot_marker_same_line_and_above() {
        let a = analyse(
            "// pinocchio-hot: per-pair kernel\n\
             fn k1() {}\n\
             fn cold() {}\n\
             #[inline]\n\
             // pinocchio-hot\n\
             fn k2() {}\n\
             fn k3() { /* pinocchio-hot */ }\n",
        );
        let hot: Vec<(&str, bool)> = a.fns.iter().map(|f| (f.name.as_str(), f.hot)).collect();
        assert_eq!(
            hot,
            vec![("k1", true), ("cold", false), ("k2", true), ("k3", true)]
        );
    }

    #[test]
    fn test_region_functions_are_marked() {
        let a = analyse(
            "fn lib() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() { let v = Vec::new(); }\n\
             }\n",
        );
        assert!(!a.fns[0].in_test);
        assert!(a.fns[1].in_test, "{:?}", a.fns[1]);
    }
}
