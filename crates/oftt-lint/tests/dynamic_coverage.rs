//! Static ⊇ dynamic, end to end: run a real (small-budget) oftt-audit
//! sweep, collect every lock base name it observed, and require the
//! static acquisition graph to cover all of them. This is what keeps
//! the static lock-order verdict non-vacuous — if the interpreter ever
//! stops seeing a lock the runtime actually takes, this test fails
//! rather than the cycle check silently passing on an empty graph.

use std::path::PathBuf;

use oftt_audit::sweep::audit_sweep;
use oftt_check::{ExploreConfig, Scenario};
use oftt_lint::{run_scan, Options};

#[test]
fn static_lock_graph_covers_every_dynamic_lock_site() {
    let config = ExploreConfig { seeds: vec![1, 2], budget: 40, ..ExploreConfig::default() };
    let mut dynamic = std::collections::BTreeSet::new();
    for name in ["pair-failover", "partitioned-startup"] {
        dynamic.extend(audit_sweep(&Scenario::named(name).unwrap(), &config).lock_sites);
    }
    assert!(!dynamic.is_empty(), "the sweep observed no lock sites at all");

    let root =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("root");
    let report = run_scan(&Options {
        root,
        dynamic_locks: dynamic.iter().cloned().collect(),
        ..Options::default()
    });
    assert_eq!(report.dynamic_checked, dynamic.len());
    let uncovered: Vec<_> = report.findings.iter().filter(|f| f.rule == "lock-coverage").collect();
    assert!(
        uncovered.is_empty(),
        "dynamic lock sites missing from the static graph: {uncovered:#?} (static: {:?})",
        report.lock_names
    );
}
