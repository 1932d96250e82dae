//! Sweep driver: runs every analyzer over every distinct schedule of an
//! oftt-check exploration.
//!
//! The audit rides [`oftt_check::explore_with`] so it sees exactly the
//! POR-pruned schedule set the model checker sees — the same frontier,
//! budget, and dedup. Findings recur across schedules (the same racy pair
//! exists in most interleavings), so the report dedups them by
//! `(analyzer, detail)` across the whole sweep and keeps the first
//! occurrence.

use std::collections::BTreeSet;

use oftt_check::{explore_with, ExploreConfig, ExploreReport, RunResult, Scenario};

use crate::{lint, race, stale, Finding};

/// Everything one audit sweep produces.
#[derive(Debug)]
pub struct AuditReport {
    /// The underlying exploration statistics (runs, distinct schedules,
    /// protocol-invariant counterexamples).
    pub explore: ExploreReport,
    /// Deduplicated analyzer findings across every distinct schedule.
    pub findings: Vec<Finding>,
}

/// Runs all three analyzers over a single run's artifacts.
pub fn analyze_run(result: &RunResult) -> Vec<Finding> {
    let mut out = race::find_races(&result.causality);
    out.extend(stale::find_stale_serves(&result.events));
    out.extend(lint::lint_api_usage(&result.events, &result.causality.api_calls));
    out
}

/// Explores `scenario` under `config` and audits every distinct schedule.
pub fn audit_sweep(scenario: &Scenario, config: &ExploreConfig) -> AuditReport {
    let mut findings = Vec::new();
    let mut seen: BTreeSet<(&'static str, String)> = BTreeSet::new();
    let explore = explore_with(scenario, config, |result| {
        for finding in analyze_run(result) {
            if seen.insert((finding.analyzer, finding.detail.clone())) {
                findings.push(finding);
            }
        }
    });
    AuditReport { explore, findings }
}
