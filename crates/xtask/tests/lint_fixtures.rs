//! Fixture-driven integration tests for the lint engine.
//!
//! Each rule has a failing and a passing fixture under
//! `tests/fixtures/<rule>/{bad,good}.rs`. Fixtures are copied into a
//! throwaway mini-workspace (at a path that puts them in the rule's
//! scope) and linted through the same entry point the CLI uses, so
//! these tests cover collection, parsing, rule dispatch, suppression
//! filtering and reporting end to end.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::{lint, LintConfig, LintReport, Severity};

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Builds a throwaway mini-workspace holding the given files.
fn scratch(tag: &str, files: &[(&str, String)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("xtask-fixture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixtures live under root")).expect("mkdir");
        fs::write(path, text).expect("write fixture");
    }
    root
}

/// Lints a single fixture placed at `placed_at` inside a scratch
/// workspace and returns the report (scratch dir is cleaned up).
fn lint_fixture(tag: &str, placed_at: &str, fixture_rel: &str) -> LintReport {
    let root = scratch(tag, &[(placed_at, fixture(fixture_rel))]);
    let report = lint(&LintConfig::all(&root));
    let _ = fs::remove_dir_all(&root);
    report
}

fn rule_ids(report: &LintReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.rule).collect()
}

#[test]
fn panic_path_bad_trips_good_passes() {
    // Non-root path inside a panic-free crate: only panic-path applies.
    let bad = lint_fixture(
        "pp-bad",
        "crates/core/src/fixture_mod.rs",
        "panic_path/bad.rs",
    );
    let hits = rule_ids(&bad);
    assert_eq!(
        hits.iter().filter(|r| **r == "panic-path").count(),
        3,
        "unwrap, expect and arithmetic indexing must all trip: {bad:?}"
    );
    assert!(bad.has_denials());

    let good = lint_fixture(
        "pp-good",
        "crates/core/src/fixture_mod.rs",
        "panic_path/good.rs",
    );
    assert!(good.diagnostics.is_empty(), "{good:?}");
}

#[test]
fn panic_path_exempts_a_test_fn_with_a_wrapped_signature() {
    // The `.unwrap()` inside the wrapped `#[cfg(test)]` fn is test code;
    // the library fns after it, and after a brace-less `#[cfg(test)] use`,
    // are linted as usual.
    let report = lint_fixture(
        "pp-wrapped",
        "crates/core/src/fixture_mod.rs",
        "panic_path/cfg_test_wrapped.rs",
    );
    let lines: Vec<usize> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "panic-path")
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, vec![9, 24], "{report:?}");
}

#[test]
fn panic_path_is_scoped_to_the_panic_free_crates() {
    // The same bad fixture in a crate outside the scope is not flagged.
    let report = lint_fixture(
        "pp-scope",
        "crates/eval/src/fixture_mod.rs",
        "panic_path/bad.rs",
    );
    assert!(
        !rule_ids(&report).contains(&"panic-path"),
        "eval is outside the panic-free scope: {report:?}"
    );
}

#[test]
fn float_soundness_bad_trips_good_passes() {
    let bad = lint_fixture(
        "fs-bad",
        "crates/geo/src/fixture_mod.rs",
        "float_soundness/bad.rs",
    );
    let hits = rule_ids(&bad);
    assert!(
        hits.iter().filter(|r| **r == "float-soundness").count() >= 3,
        "float ==/!=, partial_cmp unwrap and NAN literal must trip: {bad:?}"
    );

    let good = lint_fixture(
        "fs-good",
        "crates/geo/src/fixture_mod.rs",
        "float_soundness/good.rs",
    );
    assert!(good.diagnostics.is_empty(), "{good:?}");
}

#[test]
fn atomic_ordering_bad_trips_good_passes() {
    let bad = lint_fixture(
        "ao-bad",
        "crates/core/src/fixture_mod.rs",
        "atomic_ordering/bad.rs",
    );
    let hits = rule_ids(&bad);
    assert_eq!(
        hits.iter().filter(|r| **r == "atomic-ordering").count(),
        2,
        "the undocumented Release and the Relaxed must both trip: {bad:?}"
    );

    let good = lint_fixture(
        "ao-good",
        "crates/core/src/fixture_mod.rs",
        "atomic_ordering/good.rs",
    );
    assert!(good.diagnostics.is_empty(), "{good:?}");
}

#[test]
fn crate_hygiene_bad_trips_good_passes() {
    // Hygiene fixtures must sit at a crate root to be in scope.
    let bad = lint_fixture("ch-bad", "crates/core/src/lib.rs", "crate_hygiene/bad.rs");
    let hits = rule_ids(&bad);
    assert_eq!(
        hits.iter().filter(|r| **r == "crate-hygiene").count(),
        2,
        "both missing attributes must be reported: {bad:?}"
    );

    let good = lint_fixture("ch-good", "crates/core/src/lib.rs", "crate_hygiene/good.rs");
    assert!(good.diagnostics.is_empty(), "{good:?}");
}

#[test]
fn stats_accounting_bad_trips_good_passes() {
    let bad = lint_fixture(
        "sa-bad",
        "crates/core/src/fixture_solver.rs",
        "stats_accounting/bad.rs",
    );
    assert!(
        rule_ids(&bad).contains(&"stats-accounting"),
        "a solver entry point without SolveStats must trip: {bad:?}"
    );

    let good = lint_fixture(
        "sa-good",
        "crates/core/src/fixture_solver.rs",
        "stats_accounting/good.rs",
    );
    assert!(good.diagnostics.is_empty(), "{good:?}");
}

#[test]
fn stats_accounting_covers_shard_coordinator_entry_points() {
    let bad = lint_fixture(
        "sa-shard-bad",
        "crates/core/src/fixture_shard.rs",
        "stats_accounting/shard_bad.rs",
    );
    assert!(
        rule_ids(&bad).contains(&"stats-accounting"),
        "a fallible shard coordinator without SolveStats must trip: {bad:?}"
    );
    assert!(
        bad.diagnostics
            .iter()
            .any(|d| d.rule == "stats-accounting" && d.message.contains("fallible")),
        "the diagnostic must come from the `try_solve` contract: {bad:?}"
    );

    let good = lint_fixture(
        "sa-shard-good",
        "crates/core/src/fixture_shard.rs",
        "stats_accounting/shard_good.rs",
    );
    assert!(good.diagnostics.is_empty(), "{good:?}");

    // The shard fixture placed in serve is out of scope there: serve's
    // contract is about `pub fn serve…`, not solver coordinators.
    let cross = lint_fixture(
        "sa-shard-scope",
        "crates/serve/src/fixture_shard.rs",
        "stats_accounting/shard_bad.rs",
    );
    assert!(
        !rule_ids(&cross).contains(&"stats-accounting"),
        "`pub fn try_solve…` in serve is not a serve entry point: {cross:?}"
    );
}

#[test]
fn stats_accounting_covers_heatmap_entry_points() {
    let bad = lint_fixture(
        "sa-heatmap-bad",
        "crates/heatmap/src/fixture_heatmap.rs",
        "stats_accounting/heatmap_bad.rs",
    );
    assert!(
        rule_ids(&bad).contains(&"stats-accounting"),
        "a heat-map entry point without SolveStats must trip: {bad:?}"
    );
    let hits = bad
        .diagnostics
        .iter()
        .filter(|d| d.rule == "stats-accounting")
        .count();
    assert_eq!(
        hits, 2,
        "both the try_heatmap and try_top_region contracts must trip: {bad:?}"
    );

    let good = lint_fixture(
        "sa-heatmap-good",
        "crates/heatmap/src/fixture_heatmap.rs",
        "stats_accounting/heatmap_good.rs",
    );
    assert!(good.diagnostics.is_empty(), "{good:?}");

    // The same file placed in core is out of scope there: core's
    // contracts are about `pub fn solve…`/`pub fn try_solve…`.
    let cross = lint_fixture(
        "sa-heatmap-scope",
        "crates/core/src/fixture_heatmap.rs",
        "stats_accounting/heatmap_bad.rs",
    );
    assert!(
        !rule_ids(&cross).contains(&"stats-accounting"),
        "`pub fn try_heatmap…` in core is not a core entry point: {cross:?}"
    );
}

#[test]
fn stats_accounting_covers_serve_entry_points() {
    let bad = lint_fixture(
        "sa-serve-bad",
        "crates/serve/src/fixture_server.rs",
        "stats_accounting/serve_bad.rs",
    );
    assert!(
        rule_ids(&bad).contains(&"stats-accounting"),
        "a service entry point without ServeStats must trip: {bad:?}"
    );
    assert!(
        bad.diagnostics
            .iter()
            .any(|d| d.rule == "stats-accounting" && d.message.contains("ServeStats")),
        "the diagnostic must name the serve counter block: {bad:?}"
    );

    let good = lint_fixture(
        "sa-serve-good",
        "crates/serve/src/fixture_server.rs",
        "stats_accounting/serve_good.rs",
    );
    assert!(good.diagnostics.is_empty(), "{good:?}");

    // The core fixture placed in serve is out of scope there: serve's
    // contract is about `pub fn serve…`, not solver entry points.
    let cross = lint_fixture(
        "sa-serve-scope",
        "crates/serve/src/fixture_server.rs",
        "stats_accounting/bad.rs",
    );
    assert!(
        !rule_ids(&cross).contains(&"stats-accounting"),
        "`pub fn solve…` in serve is not a serve entry point: {cross:?}"
    );
}

#[test]
fn suppression_hygiene_bad_trips_good_passes() {
    let bad = lint_fixture(
        "sh-bad",
        "crates/core/src/fixture_mod.rs",
        "suppression_hygiene/bad.rs",
    );
    let hits = rule_ids(&bad);
    assert_eq!(
        hits.iter().filter(|r| **r == "suppression-hygiene").count(),
        2,
        "the unjustified allow and the unknown rule must both trip: {bad:?}"
    );
    assert!(
        hits.contains(&"panic-path"),
        "an unjustified allow must not silence the finding: {bad:?}"
    );

    let good = lint_fixture(
        "sh-good",
        "crates/core/src/fixture_mod.rs",
        "suppression_hygiene/good.rs",
    );
    assert!(
        good.diagnostics.is_empty(),
        "a justified allow silences the finding and passes the audit: {good:?}"
    );
}

#[test]
fn every_diagnostic_is_deny_severity_by_default() {
    let bad = lint_fixture("sev", "crates/core/src/fixture_mod.rs", "panic_path/bad.rs");
    assert!(bad.diagnostics.iter().all(|d| d.severity == Severity::Deny));
    assert_eq!(bad.deny_count(), bad.diagnostics.len());
}

#[test]
fn json_report_round_trips_through_serde_json() {
    let root = scratch(
        "json",
        &[(
            "crates/core/src/fixture_mod.rs",
            fixture("panic_path/bad.rs"),
        )],
    );
    let report = lint(&LintConfig::all(&root));
    let _ = fs::remove_dir_all(&root);

    let value = report.to_json();
    let text = serde_json::to_string_pretty(&value).expect("serialise report");
    let parsed = serde_json::from_str(&text).expect("parse report back");
    assert_eq!(value, parsed, "JSON output must round-trip losslessly");

    // The parsed structure is navigable with the documented shape.
    let diags = parsed
        .get("diagnostics")
        .and_then(|v| v.as_array())
        .expect("diagnostics array");
    assert_eq!(diags.len(), report.diagnostics.len());
    let first = diags.first().expect("non-empty");
    assert_eq!(
        first.get("rule").and_then(|v| v.as_str()),
        Some("panic-path")
    );
    assert_eq!(first.get("severity").and_then(|v| v.as_str()), Some("deny"));
    assert_eq!(
        first.get("line").and_then(|v| v.as_u64()),
        Some(report.diagnostics[0].line as u64)
    );
    assert_eq!(
        parsed.get("deny_count").and_then(|v| v.as_u64()),
        Some(report.deny_count() as u64)
    );
}

#[test]
fn the_live_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root");
    let report = lint(&LintConfig::all(root));
    assert!(
        !report.has_denials(),
        "the live workspace must lint clean:\n{}",
        report.render_text()
    );
}

// ---- function-span rules (PR 7) --------------------------------------

#[test]
fn lock_ordering_bad_trips_good_passes() {
    let bad = lint_fixture(
        "lo-bad",
        "crates/serve/src/fixture_mod.rs",
        "lock_ordering/bad.rs",
    );
    let cycles = bad
        .diagnostics
        .iter()
        .filter(|d| d.rule == "lock-ordering" && d.message.contains("cycle"))
        .count();
    let self_deadlocks = bad
        .diagnostics
        .iter()
        .filter(|d| d.rule == "lock-ordering" && d.message.contains("re-acquired"))
        .count();
    assert_eq!(
        cycles, 2,
        "both sides of the inversion are reported: {bad:?}"
    );
    assert_eq!(
        self_deadlocks, 1,
        "the double acquisition is reported: {bad:?}"
    );

    let good = lint_fixture(
        "lo-good",
        "crates/serve/src/fixture_mod.rs",
        "lock_ordering/good.rs",
    );
    assert!(
        good.diagnostics.is_empty(),
        "scoped guards acquired in one global order pass: {good:?}"
    );
}

#[test]
fn condvar_discipline_bad_trips_good_passes() {
    let bad = lint_fixture(
        "cd-bad",
        "crates/serve/src/fixture_mod.rs",
        "condvar_discipline/bad.rs",
    );
    assert!(
        bad.diagnostics
            .iter()
            .any(|d| d.rule == "condvar-discipline" && d.message.contains("outside a predicate")),
        "the wait under `if` must trip the loop half: {bad:?}"
    );
    assert!(
        bad.diagnostics
            .iter()
            .any(|d| d.rule == "condvar-discipline" && d.message.contains("discarded")),
        "the dropped guard must trip the consumption half: {bad:?}"
    );

    let good = lint_fixture(
        "cd-good",
        "crates/serve/src/fixture_mod.rs",
        "condvar_discipline/good.rs",
    );
    assert!(
        good.diagnostics.is_empty(),
        "the canonical rebinding while-loop passes: {good:?}"
    );
}

#[test]
fn bounded_io_bad_trips_good_passes() {
    let bad = lint_fixture(
        "bio-bad",
        "crates/serve/src/fixture_io.rs",
        "bounded_io/bad.rs",
    );
    let hits = rule_ids(&bad);
    assert_eq!(
        hits.iter().filter(|r| **r == "bounded-io").count(),
        3,
        "read_to_end, read_line and the uncapped growth loop must all trip: {bad:?}"
    );

    let good = lint_fixture(
        "bio-good",
        "crates/serve/src/fixture_io.rs",
        "bounded_io/good.rs",
    );
    assert!(
        good.diagnostics.is_empty(),
        "the read_bounded_* helper and the capped loop pass: {good:?}"
    );
}

#[test]
fn bounded_io_is_scoped_to_network_facing_crates() {
    // The same unbounded reads in a non-network crate are fine: the rule
    // polices attacker-reachable inputs, not build scripts or loaders.
    let report = lint_fixture(
        "bio-scope",
        "crates/data/src/fixture_io.rs",
        "bounded_io/bad.rs",
    );
    assert!(
        !rule_ids(&report).contains(&"bounded-io"),
        "data is outside the bounded-io scope: {report:?}"
    );
}

#[test]
fn hot_path_alloc_bad_trips_good_passes() {
    let bad = lint_fixture(
        "hpa-bad",
        "crates/prob/src/fixture_mod.rs",
        "hot_path_alloc/bad.rs",
    );
    assert!(
        bad.diagnostics
            .iter()
            .any(|d| d.rule == "hot-path-alloc" && d.message.contains("in hot function")),
        "the direct allocation must trip: {bad:?}"
    );
    assert!(
        bad.diagnostics
            .iter()
            .any(|d| d.rule == "hot-path-alloc" && d.message.contains("calls `helper_alloc`")),
        "the allocating direct callee must trip one level deep: {bad:?}"
    );

    let good = lint_fixture(
        "hpa-good",
        "crates/prob/src/fixture_mod.rs",
        "hot_path_alloc/good.rs",
    );
    assert!(
        good.diagnostics.is_empty(),
        "caller-provided scratch in the hot fn and allocation in cold fns pass: {good:?}"
    );
}

#[test]
fn hot_path_alloc_resolves_method_calls_only_to_self_fns() {
    let bad = lint_fixture(
        "hpa-method-bad",
        "crates/prob/src/fixture_mod.rs",
        "hot_path_alloc/method_call_bad.rs",
    );
    let hits: Vec<_> = bad
        .diagnostics
        .iter()
        .filter(|d| d.rule == "hot-path-alloc")
        .collect();
    assert_eq!(hits.len(), 1, "{bad:?}");
    assert!(
        hits[0].message.contains("calls `helper`"),
        "`self.helper()` must resolve to `helper(&self)`: {bad:?}"
    );

    let good = lint_fixture(
        "hpa-method-good",
        "crates/prob/src/fixture_mod.rs",
        "hot_path_alloc/method_call_good.rs",
    );
    assert!(
        good.diagnostics.is_empty(),
        "`v.push(x)` must not resolve to the free `fn push`: {good:?}"
    );
}

#[test]
fn cast_truncation_bad_trips_good_passes() {
    let bad = lint_fixture(
        "ct-bad",
        "crates/data/src/fixture_mod.rs",
        "cast_truncation/bad.rs",
    );
    let hits = rule_ids(&bad);
    assert_eq!(
        hits.iter().filter(|r| **r == "cast-truncation").count(),
        2,
        "the narrowing and the rounded wide cast must both trip: {bad:?}"
    );

    let good = lint_fixture(
        "ct-good",
        "crates/data/src/fixture_mod.rs",
        "cast_truncation/good.rs",
    );
    assert!(
        good.diagnostics.is_empty(),
        "try_from and clamp-in-the-float-domain pass: {good:?}"
    );
}

#[test]
fn span_rule_reports_round_trip_through_json() {
    // One scratch workspace holding a finding from every new rule.
    let root = scratch(
        "span-json",
        &[
            (
                "crates/serve/src/fixture_locks.rs",
                fixture("lock_ordering/bad.rs"),
            ),
            (
                "crates/serve/src/fixture_io.rs",
                fixture("bounded_io/bad.rs"),
            ),
            (
                "crates/data/src/fixture_casts.rs",
                fixture("cast_truncation/bad.rs"),
            ),
        ],
    );
    let report = lint(&LintConfig::all(&root));
    let _ = fs::remove_dir_all(&root);

    let value = report.to_json();
    let text = serde_json::to_string_pretty(&value).expect("serialise report");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("parse report back");
    assert_eq!(value, parsed, "JSON output must round-trip losslessly");

    let diags = parsed
        .get("diagnostics")
        .and_then(|v| v.as_array())
        .expect("diagnostics array");
    for rule in ["lock-ordering", "bounded-io", "cast-truncation"] {
        assert!(
            diags
                .iter()
                .any(|d| d.get("rule").and_then(|v| v.as_str()) == Some(rule)),
            "JSON report must carry a {rule} finding"
        );
    }
}

#[test]
fn live_workspace_suppressions_are_justified_and_known() {
    // Belt-and-braces over suppression-hygiene: walk every allow in the
    // live tree and assert it names a registered rule and carries a
    // justification. A new rule id typo'd in a suppression fails here
    // even if the hygiene rule itself regresses.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root");
    let mut audited = 0usize;
    for rel in xtask::collect_files(root) {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let text = fs::read_to_string(root.join(&rel)).expect("read workspace file");
        let file = xtask::SourceFile::parse(&rel_str, &text);
        for (idx, line) in file.lines.iter().enumerate() {
            if line.doc_comment {
                continue; // doc comments describe the syntax; they never enact
            }
            let Some(pos) = line.comment.find("pinocchio-lint: allow(") else {
                continue;
            };
            let rest = &line.comment[pos + "pinocchio-lint: allow(".len()..];
            let Some(close) = rest.find(')') else {
                panic!("{rel_str}:{}: malformed allow", idx + 1);
            };
            let rule = &rest[..close];
            assert!(
                xtask::is_known_rule(rule),
                "{rel_str}:{}: suppression names unknown rule `{rule}`",
                idx + 1
            );
            let justification = rest[close + 1..]
                .split_once("--")
                .map(|(_, j)| j.trim())
                .unwrap_or("");
            assert!(
                !justification.is_empty(),
                "{rel_str}:{}: suppression of `{rule}` lacks a justification",
                idx + 1
            );
            audited += 1;
        }
    }
    assert!(
        audited >= 10,
        "the live tree documents its suppressions (found only {audited})"
    );
}
