//! Each seeded-defect fixture under `fixtures/` must fire exactly its
//! own rule family — the positive half of the analyzer's contract (the
//! negative half, zero findings on the real tree, is
//! `workspace_clean.rs`).

use std::path::PathBuf;

use oftt_lint::{run_scan, Options};

fn scan_fixture(name: &str) -> oftt_lint::report::Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("fixtures").join(name);
    assert!(path.is_file(), "missing fixture {}", path.display());
    run_scan(&Options { root, paths: vec![path] })
}

fn rules_fired(report: &oftt_lint::report::Report) -> Vec<&str> {
    let mut rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn role_leak_fixture_fires_role_confinement() {
    let report = scan_fixture("role_leak.rs");
    assert_eq!(rules_fired(&report), ["role-confinement"]);
    // Both the `.role =` and the `.term +=` store are caught.
    assert_eq!(report.findings.len(), 2);
    assert!(report.findings.iter().all(|f| f.message.contains("sneak_promote")));
}

#[test]
fn lock_cycle_fixture_fires_lock_order() {
    let report = scan_fixture("lock_cycle.rs");
    assert_eq!(rules_fired(&report), ["lock-order"]);
    let cycle = &report.findings[0];
    assert!(cycle.message.contains("alpha"), "{}", cycle.message);
    assert!(cycle.message.contains("beta"), "{}", cycle.message);
    // Both orderings made it into the static graph.
    assert!(report.lock_edges.contains(&("alpha".into(), "beta".into())));
    assert!(report.lock_edges.contains(&("beta".into(), "alpha".into())));
}

#[test]
fn blocking_fixture_fires_nonblocking() {
    let report = scan_fixture("blocking.rs");
    assert_eq!(rules_fired(&report), ["nonblocking"]);
    let names: Vec<&str> =
        report.findings.iter().map(|f| f.message.split('`').nth(1).unwrap_or("")).collect();
    assert_eq!(names, ["sleep", "recv"]);
}

#[test]
fn panics_fixture_fires_no_panic() {
    let report = scan_fixture("panics.rs");
    assert_eq!(rules_fired(&report), ["no-panic"]);
    // Index, panic!, unwrap — in line order.
    assert_eq!(report.findings.len(), 3);
}

#[test]
fn hot_blocking_fixture_fires_reactor_hot_path() {
    let report = scan_fixture("hot_blocking.rs");
    assert_eq!(rules_fired(&report), ["reactor-hot-path"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert!(f.message.contains("blocking call `sleep`"), "{}", f.message);
    // The witness chain spells the full path from the root.
    assert!(f.message.contains("on_frame → step → nap"), "{}", f.message);
}

#[test]
fn hot_panic_fixture_fires_reactor_hot_path() {
    let report = scan_fixture("hot_panic.rs");
    assert_eq!(rules_fired(&report), ["reactor-hot-path"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert!(f.message.contains("panic path `index`"), "{}", f.message);
    assert!(f.message.contains("on_frame → decode"), "{}", f.message);
}

#[test]
fn guard_block_fixture_fires_lock_across_blocking() {
    let report = scan_fixture("guard_block.rs");
    assert_eq!(rules_fired(&report), ["lock-across-blocking"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert!(f.message.contains("`state`"), "{}", f.message);
    assert!(f.message.contains("`persist`"), "{}", f.message);
    // The blocking ground is named even though it is two calls away.
    assert!(f.message.contains("sleep"), "{}", f.message);
}

#[test]
fn transitive_cycle_fixture_fires_lock_order() {
    let report = scan_fixture("transitive_cycle.rs");
    assert_eq!(rules_fired(&report), ["lock-order"]);
    let cycle = &report.findings[0];
    assert!(cycle.message.contains("outer"), "{}", cycle.message);
    assert!(cycle.message.contains("inner"), "{}", cycle.message);
    // No single function nests the pair: both edges are call-derived.
    assert!(report.lock_edges.contains(&("outer".into(), "inner".into())));
    assert!(report.lock_edges.contains(&("inner".into(), "outer".into())));
}

#[test]
fn fixtures_are_invisible_to_the_workspace_walk() {
    assert!(!oftt_lint::is_scanned("crates/oftt-lint/fixtures/lock_cycle.rs"));
}
