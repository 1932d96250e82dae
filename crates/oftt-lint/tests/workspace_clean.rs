//! Snapshot: the real workspace lints clean modulo the checked-in
//! baseline. This is the negative half of the analyzer's contract
//! (`fixtures.rs` is the positive half) and the test that makes an
//! accidental new violation — a role store outside a choke point, a
//! blocking call on an annotated path, an allocation on the reactor hot
//! path — fail `cargo test` before it ever reaches the CI lint stage.

use std::collections::BTreeSet;
use std::path::PathBuf;

use oftt_lint::report::{apply_baseline, parse_baseline};
use oftt_lint::{run_scan, Options};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

#[test]
fn workspace_scan_reports_zero_findings_beyond_the_baseline() {
    let root = workspace_root();
    let baseline_text =
        std::fs::read_to_string(root.join("lint-baseline.txt")).expect("lint-baseline.txt");
    let baseline = parse_baseline(&baseline_text).expect("well-formed baseline");
    let report = run_scan(&Options { root, ..Options::default() });
    let (kept, suppressed, stale) = apply_baseline(report.findings, &baseline);
    assert!(
        kept.is_empty(),
        "the workspace must lint clean modulo the baseline; new findings:\n{}",
        kept.iter()
            .map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The baseline is live, not a graveyard: every entry must still
    // suppress something, and a key may suppress several findings (same
    // message, different lines), so the count is a floor.
    assert!(stale.is_empty(), "stale baseline entries — prune them:\n{stale:#?}");
    assert!(
        suppressed >= baseline.len(),
        "baseline has {} entries but only {suppressed} fired — prune the stale ones",
        baseline.len()
    );
    // Coverage floor: the walk found the real tree, not an empty dir.
    assert!(report.files_scanned >= 40, "only {} files scanned", report.files_scanned);
    // The interprocedural layer is non-vacuous: the call graph covers
    // the workspace and the annotated reactor roots reach a real
    // subtree of the transport.
    assert!(report.functions >= 1000, "only {} functions indexed", report.functions);
    assert!(report.call_edges >= 2000, "only {} call edges resolved", report.call_edges);
    assert!(report.fixpoint_iterations >= 2, "fixpoint converged suspiciously fast");
    assert!(report.reactor_roots >= 7, "only {} reactor roots", report.reactor_roots);
    assert!(
        report.reactor_reachable >= 40,
        "roots reach only {} fns — annotations detached?",
        report.reactor_reachable
    );
    // The static lock graph is the one deadlock gate, so it is pinned
    // exactly: it sees the probe and supervisor locks, and its only
    // nested acquisitions are the supervisor's per-link lock held into
    // the msgq shard and the comsim pool. A new nested acquisition
    // anywhere in the workspace fails here with its edge named.
    for name in ["probe", "inner", "dests", "shelf"] {
        assert!(report.lock_names.contains(name), "no `{name}` in {:?}", report.lock_names);
    }
    let edges: BTreeSet<(&str, &str)> =
        report.lock_edges.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    assert_eq!(edges, BTreeSet::from([("inner", "dests"), ("inner", "shelf")]));
}

/// A directory whose manifest opens its own `[workspace]` (the stand-alone
/// `benchmark/` package) is another workspace: the walk must not descend
/// into it, however its sources would lint.
#[test]
fn nested_foreign_workspaces_are_not_scanned() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("nested-workspace-walk");
    let _ = std::fs::remove_dir_all(&root);
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(path, text).expect("write");
    };
    let violation = "// oftt-lint: no-panic\nfn f(x: Option<u8>) { x.unwrap(); }\n";
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    write("crates/owned/Cargo.toml", "[package]\nname = \"owned\"\n");
    write("crates/owned/src/lib.rs", "pub fn clean() {}\n");
    write("benchmark/Cargo.toml", "[package]\nname = \"bench\"\n\n[workspace]\n");
    write("benchmark/src/main.rs", violation);

    let report = run_scan(&Options { root: root.clone(), ..Options::default() });
    assert_eq!(report.files_scanned, 1, "only the owned crate's file is in scope");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);

    // The same sources under a member manifest (no `[workspace]`) are in
    // scope, so the skip is the manifest's doing and not the name's.
    write("benchmark/Cargo.toml", "[package]\nname = \"bench\"\n");
    let report = run_scan(&Options { root, ..Options::default() });
    assert_eq!(report.files_scanned, 2);
    assert!(report.findings.iter().any(|f| f.rule == "no-panic"), "{:#?}", report.findings);
}
