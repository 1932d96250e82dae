//! Acceptance tests for the auditor.
//!
//! Without `inject_bugs`: the full pair-failover sweep and the
//! partitioned-startup sweep must come back with zero findings — the
//! middleware as shipped is race-free and uses its own API legally under
//! every explored interleaving.
//!
//! With `--features inject_bugs`: the two seeded defects (a cross-node
//! checkpoint-store peek, a premature watchdog delete) must each be
//! detected.

#[cfg(not(feature = "inject_bugs"))]
mod clean {
    use oftt_audit::audit_sweep;
    use oftt_check::{ExploreConfig, Scenario};

    /// The headline target: the default 600-run pair-failover sweep (the
    /// same one oftt-check certifies) carries zero audit findings.
    #[test]
    fn pair_failover_sweep_has_no_findings() {
        let report =
            audit_sweep(&Scenario::named("pair-failover").unwrap(), &ExploreConfig::default());
        assert!(report.explore.distinct >= 500, "sweep too small: {}", report.explore.distinct);
        assert!(
            report.findings.is_empty(),
            "expected a clean audit, got:\n{}",
            render(&report.findings)
        );
    }

    /// Partitioned startup exercises the transient dual-primary window —
    /// the natural home of stale serves and lifecycle confusion.
    #[test]
    fn partitioned_startup_sweep_has_no_findings() {
        let config = ExploreConfig { budget: 100, ..Default::default() };
        let report = audit_sweep(&Scenario::named("partitioned-startup").unwrap(), &config);
        assert!(report.explore.distinct >= 50, "sweep too small: {}", report.explore.distinct);
        assert!(
            report.findings.is_empty(),
            "expected a clean audit, got:\n{}",
            render(&report.findings)
        );
    }

    fn render(findings: &[oftt_audit::Finding]) -> String {
        findings.iter().map(|f| format!("  {f}\n")).collect()
    }
}

#[cfg(feature = "inject_bugs")]
mod seeded {
    use oftt_audit::analyze_run;
    use oftt_check::{run, RunResult, Scenario};

    fn pair_failover(seed: u64) -> RunResult {
        run(&Scenario::named("pair-failover").unwrap(), seed, &[])
    }

    /// Defect (a): the engine's debug peek at the *peer's* checkpoint
    /// store races the peer FTIM's installs — no message chain orders the
    /// two, on any schedule.
    #[test]
    fn seeded_cross_node_peek_is_flagged_as_a_race() {
        let detected = (1..=3).any(|seed| {
            analyze_run(&pair_failover(seed))
                .iter()
                .any(|f| f.analyzer == "race" && f.detail.contains("ckpt-store:"))
        });
        assert!(detected, "the injected cross-node store peek must show up as a race");
    }

    /// Defect (b): the deadman is deleted right after arming, so every
    /// later feed-driven reset is a use-after-delete.
    #[test]
    fn seeded_watchdog_use_after_delete_is_flagged() {
        let found = analyze_run(&pair_failover(1)).iter().any(|f| {
            f.analyzer == "lint"
                && f.detail.contains("watchdog_reset on nonexistent or deleted watchdog 'deadman'")
        });
        assert!(found, "the injected premature watchdog delete must be reported");
    }
}
