//! Acceptance tests for the model checker: the clean sweep target and the
//! injected-bug counterexample pipeline (explore → shrink → emit → replay).
//!
//! With `--features inject_bugs` Call Track carries a seeded premature
//! watchdog delete, so the clean sweeps give way to the test that the
//! `api-lifecycle` invariant reports it.

use ds_sim::prelude::Schedule;
use oftt_check::{check_all, explore, run, shrink, ExploreConfig, ReplayFile, Scenario};

/// The headline target: at least 500 distinct pair-failover schedules
/// within the default budget, every one clean.
#[cfg(not(feature = "inject_bugs"))]
#[test]
fn pair_failover_holds_invariants_across_500_distinct_schedules() {
    let config = ExploreConfig::default();
    assert!(config.budget >= 500, "default budget must cover the target");
    let report = explore(&Scenario::named("pair-failover").unwrap(), &config);
    assert!(
        report.distinct >= 500,
        "expected >= 500 distinct schedules, got {} ({} runs, {} duplicates)",
        report.distinct,
        report.runs,
        report.duplicates
    );
    assert!(
        report.counterexamples.is_empty(),
        "pair failover must be schedule-independent; first violation: {:?}",
        report.counterexamples[0].violations
    );
    assert!(report.choice_points > 0, "exploration must actually encounter races");
}

/// Re-introducing the §3.2 startup bug (no negotiation retries, fall back
/// to becoming primary) makes partitioned startup produce a dual-primary
/// counterexample; the shrunk schedule round-trips through the artifact
/// format and replays to the same violation.
#[test]
fn injected_startup_bug_yields_shrunk_replayable_dual_primary() {
    let scenario = Scenario::named("partitioned-startup").unwrap().with_startup_bug();
    let config = ExploreConfig { seeds: vec![1, 2], budget: 6, ..Default::default() };
    let report = explore(&scenario, &config);
    let ce = report.counterexamples.first().expect("the startup bug must produce a counterexample");
    assert!(
        ce.violations.iter().any(|v| v.invariant == "single-primary-per-term"),
        "expected a dual-primary violation, got {:?}",
        ce.violations
    );

    let shrunk = shrink(&ce.schedule, 32, |candidate: &Schedule| {
        let result = run(&scenario, candidate.seed, &candidate.choices);
        check_all(&result.events).iter().any(|v| v.invariant == "single-primary-per-term")
    });
    assert!(
        shrunk.schedule.choices.len() <= ce.schedule.choices.len(),
        "shrinking must not grow the schedule"
    );

    // Emit → parse → replay reproduces the violation.
    let artifact =
        ReplayFile { name: "partitioned-startup".into(), scenario, schedule: shrunk.schedule };
    let reloaded = ReplayFile::parse(&artifact.to_text()).expect("artifact must round-trip");
    assert_eq!(reloaded.schedule, artifact.schedule);
    let outcome = reloaded.replay();
    assert!(
        outcome.violations.iter().any(|v| v.invariant == "single-primary-per-term"),
        "replayed counterexample must still show dual primary, got {:?}",
        outcome.violations
    );
    assert!(
        outcome.trace_text.contains("role=primary term=1"),
        "the trace must show the term-1 dual claim"
    );
}

/// The correct (shipped) startup configuration survives the same
/// partitioned-startup campaign: the §3.2 fix is what the checker is
/// certifying.
#[cfg(not(feature = "inject_bugs"))]
#[test]
fn correct_startup_config_survives_partitioned_startup() {
    let config = ExploreConfig { seeds: vec![1, 2, 3], budget: 30, ..Default::default() };
    let report = explore(&Scenario::named("partitioned-startup").unwrap(), &config);
    assert!(report.distinct >= 25, "got {} distinct schedules", report.distinct);
    assert!(
        report.counterexamples.is_empty(),
        "shipped startup policy must be schedule-independent; first: {:?}",
        report.counterexamples[0].violations
    );
}

/// Seeded defect: Call Track deletes its deadman right after arming it, so
/// every later feed-driven reset names a watchdog the FTIM no longer holds.
/// The FTIM reports the ignored `NotFound` and `api-lifecycle` gates it.
#[cfg(feature = "inject_bugs")]
#[test]
fn seeded_premature_watchdog_delete_is_reported_as_api_misuse() {
    let result = run(&Scenario::named("pair-failover").unwrap(), 1, &[]);
    let violations = check_all(&result.events);
    assert!(
        violations.iter().any(|v| v.invariant == "api-lifecycle"
            && v.detail.ends_with("watchdog_reset on unknown watchdog \"deadman\"")),
        "the premature watchdog delete must be reported, got {violations:?}"
    );
}
