//! The fixture self-test: every rule must fire on its deliberately-bad
//! snippet, the fully-suppressed fixture must come back clean, and the
//! report over the whole fixture tree must be byte-identical across
//! runs.

use std::path::{Path, PathBuf};

use sncheck::diag::Severity;
use sncheck::engine::{check_files, check_source, expand_path};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn check_fixture(rel: &str) -> Vec<sncheck::diag::Diagnostic> {
    let path = fixture_root().join(rel);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    check_source(rel, &source)
}

fn rules_fired(rel: &str) -> Vec<String> {
    let mut rules: Vec<String> = check_fixture(rel)
        .into_iter()
        .map(|d| d.rule.to_string())
        .collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn panic_fixture_fires_for_every_spelling() {
    let diags = check_fixture("crates/ndtensor/src/panics.rs");
    assert!(
        diags.iter().all(|d| d.rule == "no-panic-in-lib"),
        "{diags:?}"
    );
    // unwrap, expect, panic!, unreachable!, todo! — the #[cfg(test)]
    // module at the bottom must contribute nothing.
    assert_eq!(diags.len(), 5, "{diags:?}");
}

#[test]
fn clock_fixture_fires() {
    assert_eq!(
        rules_fired("crates/neural/src/clock.rs"),
        ["no-ambient-clock"]
    );
}

#[test]
fn spawn_fixture_fires_for_spawn_scope_and_builder() {
    let diags = check_fixture("crates/saliency/src/spawn.rs");
    assert!(diags.iter().all(|d| d.rule == "no-raw-spawn"), "{diags:?}");
    assert_eq!(diags.len(), 3, "{diags:?}");
}

#[test]
fn hashmap_fixture_fires() {
    assert_eq!(
        rules_fired("crates/metrics/src/hashmap.rs"),
        ["no-nondeterministic-iteration"]
    );
}

#[test]
fn float_eq_fixture_fires_exactly_three_times() {
    let diags = check_fixture("crates/novelty/src/floateq.rs");
    assert!(diags.iter().all(|d| d.rule == "no-float-eq"), "{diags:?}");
    // Three equality comparisons fire; the `<=`/`>=` pair must not.
    assert_eq!(diags.len(), 3, "{diags:?}");
}

#[test]
fn stdout_fixture_fires() {
    let diags = check_fixture("crates/ndtensor/src/stdout.rs");
    assert!(
        diags.iter().all(|d| d.rule == "no-stdout-in-lib"),
        "{diags:?}"
    );
    assert_eq!(diags.len(), 3, "{diags:?}");
}

#[test]
fn recorded_parity_fixture_flags_only_the_orphan() {
    let diags = check_fixture("crates/novelty/src/recorded.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "recorded-parity");
    assert!(diags[0].message.contains("orphan_recorded"));
}

#[test]
fn hot_alloc_fixture_fires_for_every_spelling() {
    let diags = check_fixture("crates/novelty/src/runtime.rs");
    assert!(diags.iter().all(|d| d.rule == "no-hot-alloc"), "{diags:?}");
    // vec!, Vec::with_capacity, .to_vec() — the suppressed setup-path
    // allocation and the #[cfg(test)] module contribute nothing.
    assert_eq!(diags.len(), 3, "{diags:?}");
}

#[test]
fn routines_tree_is_hot_alloc_covered() {
    // The GEMM kernels live in a nested `routines/` directory; path
    // classification and the hot-file list must reach it like any flat
    // hot module.
    let diags = check_fixture("crates/ndtensor/src/routines/kernels.rs");
    assert!(diags.iter().all(|d| d.rule == "no-hot-alloc"), "{diags:?}");
    // vec! and .to_vec() fire; the suppressed setup path, the
    // `Vec::new()` lookalike and the #[cfg(test)] module stay silent.
    assert_eq!(diags.len(), 2, "{diags:?}");
}

#[test]
fn suppressed_fixture_is_clean() {
    let diags = check_fixture("crates/ndtensor/src/suppressed.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn stale_allow_fixture_warns_on_hygiene() {
    let diags = check_fixture("crates/ndtensor/src/stale_allow.rs");
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Warn));
    assert!(diags.iter().any(|d| d.rule == "unused-suppression"));
    assert!(diags.iter().any(|d| d.rule == "unknown-rule"));
}

#[test]
fn hot_loop_fixture_fires_only_the_transitive_rules() {
    // The acceptance fixture: a bench binary is exempt from every
    // per-line rule, so v1 passed this file clean. The panic, alloc and
    // clock read sit below the `sncheck:hot-root` fn and only the
    // call-graph pass reaches them.
    let diags = check_fixture("crates/bench/src/bin/hot_loop.rs");
    let mut rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    rules.sort();
    assert_eq!(
        rules,
        [
            "hot-path-transitive-alloc",
            "hot-path-transitive-clock",
            "hot-path-transitive-panic",
        ],
        "{diags:?}"
    );
    // The unreachable cold_setup fn allocates and unwraps; none of that
    // may appear.
    assert!(diags.iter().all(|d| d.line < 35), "{diags:?}");
}

#[test]
fn drift_fixture_flags_only_the_impure_wrapper() {
    let diags = check_fixture("crates/novelty/src/drift.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "recorded-parity-drift");
    assert!(diags[0].message.contains("classify_window"));
    assert_eq!(diags[0].fn_path, "novelty::classify_window");
}

#[test]
fn locks_fixture_flags_the_inversion_once() {
    let diags = check_fixture("crates/novelty/src/locks.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "lock-order");
    assert_eq!(diags[0].token, "queue<stats");
}

#[test]
fn float_promotion_fixture_fires_only_in_the_marked_fn() {
    let diags = check_fixture("crates/ndtensor/src/floatpromo.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "no-float-promotion");
    assert_eq!(diags[0].fn_path, "ndtensor::qdot");
}

#[test]
fn diamond_fixture_reports_the_shared_leaf_once() {
    let diags = check_fixture("crates/saliency/src/diamond.rs");
    // The per-line rule and the transitive rule both fire on the one
    // unwrap — and the transitive one exactly once despite two paths.
    let mut rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    rules.sort();
    assert_eq!(
        rules,
        ["hot-path-transitive-panic", "no-panic-in-lib"],
        "{diags:?}"
    );
    assert_eq!(diags[0].line, diags[1].line);
}

#[test]
fn ambiguous_method_fixture_reaches_both_candidates() {
    let diags = check_fixture("crates/metrics/src/ambig.rs");
    // `w.tick()` fans out to Wall::tick and Counter::tick; the unwrap in
    // the latter is reached via the ambiguous edge.
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "hot-path-transitive-panic"
                && d.fn_path == "metrics::Counter::tick"),
        "{diags:?}"
    );
}

#[test]
fn every_primary_rule_has_a_firing_fixture() {
    let fixture_rels = [
        "crates/ndtensor/src/panics.rs",
        "crates/neural/src/clock.rs",
        "crates/saliency/src/spawn.rs",
        "crates/metrics/src/hashmap.rs",
        "crates/novelty/src/floateq.rs",
        "crates/ndtensor/src/stdout.rs",
        "crates/novelty/src/recorded.rs",
        "crates/novelty/src/runtime.rs",
        "crates/ndtensor/src/stale_allow.rs",
        "crates/bench/src/bin/hot_loop.rs",
        "crates/novelty/src/drift.rs",
        "crates/novelty/src/locks.rs",
        "crates/ndtensor/src/floatpromo.rs",
    ];
    let mut fired: Vec<String> = fixture_rels
        .iter()
        .flat_map(|rel| rules_fired(rel))
        .collect();
    fired.sort();
    fired.dedup();
    let all: Vec<&str> = sncheck::rules::RULES.iter().map(|r| r.id).collect();
    for rule in all {
        assert!(
            fired.iter().any(|f| f == rule),
            "rule {rule} has no fixture that triggers it (fired: {fired:?})"
        );
    }
}

#[test]
fn fixture_report_is_byte_identical_across_runs() {
    let root = fixture_root();
    let files = expand_path(&root).expect("fixture tree readable");
    assert!(!files.is_empty());
    let a = check_files(&root, &files).expect("first run");
    let b = check_files(&root, &files).expect("second run");
    assert!(
        a.report.deny_count() > 0,
        "fixtures must produce denied findings"
    );
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.graph_json, b.graph_json);
}
