//! The unified bench-artifact schema validator.
//!
//! Every JSON artifact CI emits — the `oftt-lint` report, `BENCH_lint.json`,
//! `BENCH_verify.json` and `BENCH_campaign.json` — declares its schema in
//! a top-level `"schema"` string and is checked here against both its
//! shape and its acceptance thresholds. The `bench-validate` binary is a
//! thin wrapper over [`validate`]; keeping the arms in one module means a
//! new artifact adds a dispatch case instead of another copy of the
//! `require`/`require_number` scaffolding. (The repo's benchmark,
//! `benchmark/`, checks its own outputs and is not validated here.)
//!
//! Per-schema acceptance rules:
//!
//! * `oftt-bench-verify-v1` — every exploration tier must come back clean
//!   (zero violations, no lasso, not capped), the `default` tier must
//!   exhaust a ≥ 10⁶-state space at ≥ 10k states/s, and the refinement
//!   batch must include every export;
//! * `oftt-lint-v2` — the static analyzer's workspace report: zero
//!   non-baselined findings, zero dynamic lock sites missing from the
//!   static acquisition graph, and a scan that actually covered the
//!   workspace (≥ 40 files);
//! * `oftt-bench-lint-v2` — the analyzer's throughput artifact: coverage
//!   floors over files, functions, call edges and reactor roots, zero
//!   findings and zero stale baseline entries;
//! * `oftt-bench-campaign-v1` — a campaign sweep's cross-seed
//!   aggregates: every scenario's failover distribution must be ordered
//!   (p50 ≤ p95 ≤ p99 ≤ max), availability in `[0, 1]`, and the
//!   correctness gate must hold — scenarios not expecting violations
//!   must show zero violations and zero non-recovered seeds, scenarios
//!   *expecting* them (seeded-bug demonstrations) must actually surface
//!   at least one violating seed. Optional per-scenario `pin` thresholds
//!   (`min_availability`, `max_failover_p99_ms`, `min_failover_samples`)
//!   turn measured distributions into regression walls.

use crate::json::Json;

fn require<'a>(obj: &'a Json, key: &str, errors: &mut Vec<String>) -> Option<&'a Json> {
    let v = obj.get(key);
    if v.is_none() {
        errors.push(format!("missing key {key:?}"));
    }
    v
}

fn require_number(obj: &Json, key: &str, errors: &mut Vec<String>) -> Option<f64> {
    let v = require(obj, key, errors)?;
    let n = v.as_f64();
    if n.is_none() {
        errors.push(format!("key {key:?} is not a number"));
    }
    n
}

/// Validates a parsed artifact, dispatching on its `"schema"` string.
/// Returns every violation found (empty means the artifact conforms).
pub fn validate(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    if doc.as_object().is_none() {
        return vec!["top level is not an object".into()];
    }
    match require(doc, "schema", &mut errors).and_then(Json::as_str) {
        Some("oftt-bench-verify-v1") => errors.extend(validate_verify(doc)),
        Some("oftt-lint-v2") => errors.extend(validate_lint(doc)),
        Some("oftt-bench-lint-v2") => errors.extend(validate_bench_lint(doc)),
        Some("oftt-bench-campaign-v1") => errors.extend(validate_campaign(doc)),
        Some(other) => errors.push(format!("unknown schema {other:?}")),
        None => errors.push("schema is not a string".into()),
    }
    errors
}

fn validate_verify(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(cells) = require(doc, "cells", &mut errors).and_then(Json::as_array) else {
        errors.push("cells is not an array".into());
        return errors;
    };
    if cells.is_empty() {
        errors.push("cells is empty".into());
    }
    let mut default_tier_seen = false;
    for (i, cell) in cells.iter().enumerate() {
        let mut cell_errors = Vec::new();
        let name = require(cell, "name", &mut cell_errors).and_then(Json::as_str);
        let states = require_number(cell, "states", &mut cell_errors);
        require_number(cell, "transitions", &mut cell_errors);
        require_number(cell, "por_reduced", &mut cell_errors);
        require_number(cell, "truncated", &mut cell_errors);
        require_number(cell, "elapsed_ms", &mut cell_errors);
        let rate = require_number(cell, "states_per_sec", &mut cell_errors);
        // Every tier is a verification verdict: it must be clean.
        match require_number(cell, "violations", &mut cell_errors) {
            Some(v) if v > 0.0 => cell_errors.push(format!("{v} safety violations")),
            _ => {}
        }
        match require(cell, "lasso", &mut cell_errors).and_then(Json::as_bool) {
            Some(true) => cell_errors.push("a persistent dual-primary lasso was found".into()),
            Some(false) => {}
            None => cell_errors.push("lasso is not a boolean".into()),
        }
        // The acceptance tier: the full default budget must exhaust a
        // nontrivial space at a usable rate.
        if name == Some("default") {
            default_tier_seen = true;
            if let Some(s) = states {
                if s < 1_000_000.0 {
                    cell_errors.push(format!(
                        "default tier explored only {s} states; the full budget \
                         space is over a million"
                    ));
                }
            }
            if let Some(r) = rate {
                if r < 10_000.0 {
                    cell_errors.push(format!("{r:.0} states/s below the 10k floor"));
                }
            }
        }
        errors.extend(cell_errors.into_iter().map(|e| format!("cells[{i}]: {e}")));
    }
    if !default_tier_seen {
        errors.push("no default-budget tier in the cells".into());
    }

    let Some(refinement) = require(doc, "refinement", &mut errors) else {
        return errors;
    };
    let exports = require_number(refinement, "exports", &mut errors);
    require_number(refinement, "observations", &mut errors);
    require_number(refinement, "elapsed_ms", &mut errors);
    require_number(refinement, "exports_per_sec", &mut errors);
    if exports == Some(0.0) {
        errors.push("refinement: zero exports checked".into());
    }
    match require_number(refinement, "failures", &mut errors) {
        Some(f) if f > 0.0 => {
            errors.push(format!("refinement: {f} export(s) failed trace inclusion"));
        }
        _ => {}
    }
    errors
}

fn validate_lint(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    let files = require_number(doc, "files_scanned", &mut errors);
    require_number(doc, "suppressed", &mut errors);
    // The CI artifact comes from the clean tree: a scan that barely
    // covered the workspace means the walker broke, not that the code
    // shrank to nothing.
    if let Some(files) = files {
        if files < 40.0 {
            errors.push(format!("only {files} files scanned; the workspace has far more"));
        }
    }
    match require(doc, "findings", &mut errors).and_then(Json::as_array) {
        Some(findings) => {
            for (i, finding) in findings.iter().enumerate() {
                let mut f_errors = Vec::new();
                require(finding, "rule", &mut f_errors).and_then(Json::as_str);
                require(finding, "file", &mut f_errors).and_then(Json::as_str);
                require_number(finding, "line", &mut f_errors);
                require(finding, "message", &mut f_errors).and_then(Json::as_str);
                errors.extend(f_errors.into_iter().map(|e| format!("findings[{i}]: {e}")));
            }
            // The acceptance verdict: zero non-baselined findings.
            if !findings.is_empty() {
                errors.push(format!("{} non-baselined finding(s) in the report", findings.len()));
            }
        }
        None => errors.push("findings is not an array".into()),
    }
    if let Some(graph) = require(doc, "lock_graph", &mut errors) {
        let locks = require_number(graph, "locks", &mut errors);
        require_number(graph, "edges", &mut errors);
        if locks == Some(0.0) {
            errors.push("lock_graph: no static lock sites found".into());
        }
    }
    if let Some(dynamic) = require(doc, "dynamic_locks", &mut errors) {
        require_number(dynamic, "checked", &mut errors);
        match require_number(dynamic, "uncovered", &mut errors) {
            Some(u) if u > 0.0 => {
                errors.push(format!(
                    "dynamic_locks: {u} dynamically observed lock site(s) missing \
                     from the static acquisition graph"
                ));
            }
            _ => {}
        }
    }
    errors
}

fn validate_bench_lint(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    // Coverage floors: a scan that saw a toy-sized universe means the
    // walker or the call-graph builder broke, not that the code shrank.
    let floors: &[(&str, f64)] = &[
        ("files_scanned", 40.0),
        ("functions", 500.0),
        ("call_edges", 1000.0),
        ("fixpoint_iterations", 2.0),
        ("reactor_roots", 1.0),
        ("reactor_reachable", 10.0),
    ];
    for &(key, floor) in floors {
        if let Some(n) = require_number(doc, key, &mut errors) {
            if n < floor {
                errors.push(format!("{key} is {n}, below the coverage floor {floor}"));
            }
        }
    }
    // The acceptance verdict: the tree is clean modulo the checked-in
    // baseline, and the analysis finished in measurable time.
    match require_number(doc, "findings", &mut errors) {
        Some(n) if n > 0.0 => errors.push(format!("{n} non-baselined finding(s)")),
        _ => {}
    }
    require_number(doc, "suppressed", &mut errors);
    require_number(doc, "elapsed_ms", &mut errors);
    match require_number(doc, "files_per_sec", &mut errors) {
        Some(n) if n <= 0.0 => errors.push("files_per_sec is not positive".into()),
        _ => {}
    }
    // A stale baseline entry is as much a rot signal as a missed
    // finding: the defect it excused is gone, so the excuse must go too.
    match require_number(doc, "stale_baseline", &mut errors) {
        Some(n) if n > 0.0 => {
            errors.push(format!("{n} stale baseline entr(ies) match no current finding"));
        }
        _ => {}
    }
    errors
}

fn validate_campaign(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    require_number(doc, "total_runs", &mut errors);
    require_number(doc, "elapsed_ms", &mut errors);
    require_number(doc, "jobs", &mut errors);
    let Some(scenarios) = require(doc, "scenarios", &mut errors).and_then(Json::as_array) else {
        errors.push("scenarios is not an array".into());
        return errors;
    };
    if scenarios.is_empty() {
        errors.push("scenarios is empty".into());
    }
    for (i, sc) in scenarios.iter().enumerate() {
        let mut sc_errors = Vec::new();
        let name = require(sc, "name", &mut sc_errors).and_then(Json::as_str).unwrap_or("?");
        let seeds = require_number(sc, "seeds", &mut sc_errors);
        require_number(sc, "horizon_ms", &mut sc_errors);
        let recovered = require_number(sc, "recovered", &mut sc_errors);
        let non_recovered = require_number(sc, "non_recovered", &mut sc_errors);
        let violations = require_number(sc, "violations", &mut sc_errors);
        let violating_seeds = require_number(sc, "violating_seeds", &mut sc_errors);
        let samples = require_number(sc, "failover_samples", &mut sc_errors);
        let p50 = require_number(sc, "failover_ms_p50", &mut sc_errors);
        let p95 = require_number(sc, "failover_ms_p95", &mut sc_errors);
        let p99 = require_number(sc, "failover_ms_p99", &mut sc_errors);
        let max = require_number(sc, "failover_ms_max", &mut sc_errors);
        let avail_mean = require_number(sc, "availability_mean", &mut sc_errors);
        let avail_min = require_number(sc, "availability_min", &mut sc_errors);
        let expect = match require(sc, "expect_violations", &mut sc_errors).and_then(Json::as_bool)
        {
            Some(b) => b,
            None => {
                sc_errors.push("expect_violations is not a boolean".into());
                false
            }
        };
        if seeds.is_some_and(|s| s < 1.0) {
            sc_errors.push("seeds below 1".into());
        }
        if let (Some(seeds), Some(r), Some(nr)) = (seeds, recovered, non_recovered) {
            if r + nr != seeds {
                sc_errors.push(format!("recovered {r} + non_recovered {nr} != seeds {seeds}"));
            }
        }
        // The distribution must be internally ordered; a crossed quantile
        // means the aggregator, not the protocol, broke.
        if let (Some(p50), Some(p95), Some(p99), Some(max)) = (p50, p95, p99, max) {
            if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
                sc_errors.push(format!(
                    "failover quantiles out of order: p50 {p50} p95 {p95} p99 {p99} max {max}"
                ));
            }
        }
        for (key, v) in [("availability_mean", avail_mean), ("availability_min", avail_min)] {
            if v.is_some_and(|v| !(0.0..=1.0).contains(&v)) {
                sc_errors.push(format!("{key} outside [0, 1]"));
            }
        }
        if let (Some(mean), Some(min)) = (avail_mean, avail_min) {
            if min > mean {
                sc_errors.push(format!("availability_min {min} above mean {mean}"));
            }
        }
        // The correctness gate. A fault-free campaign that shows a single
        // invariant violation or a seed that never re-elected is a
        // protocol regression; a seeded-bug campaign that shows *no*
        // violation means the instrument went blind.
        if expect {
            if violating_seeds == Some(0.0) {
                sc_errors.push(
                    "expected violations but no seed surfaced one (instrument blind?)".into(),
                );
            }
        } else {
            if let Some(v) = violations {
                if v > 0.0 {
                    sc_errors.push(format!("{v} invariant violation(s) across the sweep"));
                }
            }
            if let Some(nr) = non_recovered {
                if nr > 0.0 {
                    sc_errors.push(format!("{nr} seed(s) never recovered a primary"));
                }
            }
        }
        // Optional pinned thresholds: the regression wall.
        if let Some(pin) = sc.get("pin") {
            if pin.as_object().is_none() {
                sc_errors.push("pin is not an object".into());
            }
            if let Some(floor) = pin.get("min_availability").and_then(Json::as_f64) {
                if avail_min.is_some_and(|v| v < floor) {
                    sc_errors.push(format!(
                        "availability_min {} below the pinned floor {floor}",
                        avail_min.unwrap_or(0.0)
                    ));
                }
            }
            if let Some(ceil) = pin.get("max_failover_p99_ms").and_then(Json::as_f64) {
                if p99.is_some_and(|v| v > ceil) {
                    sc_errors.push(format!(
                        "failover_ms_p99 {} over the pinned ceiling {ceil}",
                        p99.unwrap_or(0.0)
                    ));
                }
            }
            // Scenarios that exist to measure failovers pin a sample
            // floor; campaigns where the primary legitimately never dies
            // (pure partitions) just don't.
            if let Some(floor) = pin.get("min_failover_samples").and_then(Json::as_f64) {
                if samples.is_some_and(|v| v < floor) {
                    sc_errors.push(format!(
                        "failover_samples {} below the pinned floor {floor}",
                        samples.unwrap_or(0.0)
                    ));
                }
            }
        }
        errors.extend(sc_errors.into_iter().map(|e| format!("scenarios[{i}] ({name}): {e}")));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn unknown_schema_is_rejected() {
        let doc = parse(r#"{"schema": "mystery-v9"}"#).unwrap();
        let errors = validate(&doc);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("unknown schema"));
    }

    fn bench_lint_doc(stale: &str) -> String {
        format!(
            r#"{{
              "schema": "oftt-bench-lint-v2",
              "runs": 3,
              "files_scanned": 170,
              "functions": 1450,
              "call_edges": 3700,
              "fixpoint_iterations": 10,
              "reactor_roots": 7,
              "reactor_reachable": 60,
              "findings": 0,
              "suppressed": 8,
              "stale_baseline": {stale},
              "elapsed_ms": 120,
              "files_per_sec": 1366
            }}"#
        )
    }

    #[test]
    fn conforming_bench_lint_v2_doc_passes() {
        let doc = parse(&bench_lint_doc("0")).unwrap();
        assert_eq!(validate(&doc), Vec::<String>::new());
    }

    #[test]
    fn bench_lint_rejects_non_baselined_findings_and_thin_coverage() {
        let found = bench_lint_doc("0").replace(r#""findings": 0"#, r#""findings": 2"#);
        let errors = validate(&parse(&found).unwrap());
        assert!(errors.iter().any(|e| e.contains("non-baselined")), "{errors:?}");

        let thin = bench_lint_doc("0").replace(r#""functions": 1450"#, r#""functions": 3"#);
        let errors = validate(&parse(&thin).unwrap());
        assert!(errors.iter().any(|e| e.contains("coverage floor")), "{errors:?}");
    }

    #[test]
    fn bench_lint_v2_rejects_stale_baseline_entries() {
        let doc = parse(&bench_lint_doc("2")).unwrap();
        let errors = validate(&doc);
        assert!(errors.iter().any(|e| e.contains("stale baseline")), "{errors:?}");
    }

    const LINT_DOC: &str = r#"{
        "schema": "oftt-lint-v2",
        "files_scanned": 90,
        "suppressed": 2,
        "findings": [],
        "lock_graph": {"locks": 7, "edges": 3},
        "dynamic_locks": {"checked": 2, "uncovered": 0}
    }"#;

    #[test]
    fn clean_lint_v2_report_conforms() {
        let doc = parse(LINT_DOC).unwrap();
        assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
    }

    fn campaign_doc(scenario: &str) -> String {
        format!(
            r#"{{
              "schema": "oftt-bench-campaign-v1",
              "total_runs": 200,
              "elapsed_ms": 41000,
              "jobs": 8,
              "scenarios": [{scenario}]
            }}"#
        )
    }

    fn clean_scenario(extra: &str) -> String {
        format!(
            r#"{{
              "name": "partition_storm",
              "seeds": 100, "horizon_ms": 40000,
              "expect_violations": false,
              "recovered": 100, "non_recovered": 0,
              "violations": 0, "violating_seeds": 0,
              "failover_samples": 180,
              "failover_ms_p50": 610.0, "failover_ms_p95": 840.0,
              "failover_ms_p99": 910.0, "failover_ms_max": 1180.0,
              "availability_mean": 0.991, "availability_min": 0.972{extra}
            }}"#
        )
    }

    #[test]
    fn clean_campaign_report_conforms() {
        let doc = parse(&campaign_doc(&clean_scenario(""))).unwrap();
        assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
        // With pins the measured values clear.
        let pinned = clean_scenario(
            r#", "pin": {"min_availability": 0.9, "max_failover_p99_ms": 3000,
                         "min_failover_samples": 100}"#,
        );
        let doc = parse(&campaign_doc(&pinned)).unwrap();
        assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
    }

    #[test]
    fn campaign_violations_and_non_recovery_fail_the_gate() {
        let sc = clean_scenario("")
            .replace(r#""violations": 0"#, r#""violations": 2"#)
            .replace(r#""violating_seeds": 0"#, r#""violating_seeds": 1"#);
        let doc = parse(&campaign_doc(&sc)).unwrap();
        assert!(validate(&doc).iter().any(|e| e.contains("invariant violation")));

        let sc = clean_scenario("")
            .replace(r#""recovered": 100"#, r#""recovered": 97"#)
            .replace(r#""non_recovered": 0"#, r#""non_recovered": 3"#);
        let doc = parse(&campaign_doc(&sc)).unwrap();
        assert!(validate(&doc).iter().any(|e| e.contains("never recovered")));
    }

    #[test]
    fn campaign_expecting_violations_must_surface_one() {
        let sc = clean_scenario("")
            .replace(r#""expect_violations": false"#, r#""expect_violations": true"#);
        let doc = parse(&campaign_doc(&sc)).unwrap();
        let errors = validate(&doc);
        assert!(errors.iter().any(|e| e.contains("instrument blind")), "{errors:?}");
    }

    #[test]
    fn campaign_crossed_quantiles_and_broken_pins_fail() {
        let sc = clean_scenario("")
            .replace(r#""failover_ms_p95": 840.0"#, r#""failover_ms_p95": 2000.0"#);
        let doc = parse(&campaign_doc(&sc)).unwrap();
        assert!(validate(&doc).iter().any(|e| e.contains("quantiles out of order")));

        let pinned = clean_scenario(
            r#", "pin": {"min_availability": 0.99, "max_failover_p99_ms": 500,
                         "min_failover_samples": 500}"#,
        );
        let doc = parse(&campaign_doc(&pinned)).unwrap();
        let errors = validate(&doc);
        assert!(errors.iter().any(|e| e.contains("availability_min") && e.contains("floor")));
        assert!(errors.iter().any(|e| e.contains("pinned ceiling")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("failover_samples") && e.contains("floor")));
    }

    #[test]
    fn lint_report_with_findings_fails_acceptance() {
        let found = LINT_DOC.replace(
            r#""findings": []"#,
            r#""findings": [{"rule": "panic-path", "file": "a.rs", "line": 3,
                             "message": "unwrap on a hot path"}]"#,
        );
        let errors = validate(&parse(&found).unwrap());
        assert!(errors.iter().any(|e| e.contains("non-baselined finding")), "{errors:?}");
    }

    #[test]
    fn lint_report_with_uncovered_dynamic_lock_fails() {
        let uncovered = LINT_DOC.replace(
            r#""dynamic_locks": {"checked": 2, "uncovered": 0}"#,
            r#""dynamic_locks": {"checked": 2, "uncovered": 1}"#,
        );
        let errors = validate(&parse(&uncovered).unwrap());
        assert!(
            errors.iter().any(|e| e.contains("lock site") && e.contains("missing")),
            "{errors:?}"
        );
    }

    #[test]
    fn thin_lint_scan_is_rejected() {
        let thin = LINT_DOC.replace(r#""files_scanned": 90"#, r#""files_scanned": 3"#);
        let errors = validate(&parse(&thin).unwrap());
        assert!(errors.iter().any(|e| e.contains("files scanned")), "{errors:?}");
    }
}
