//! Campaign-level acceptance tests: the loader's hard-error contract
//! under arbitrary typos, and an end-to-end demonstration that a seeded
//! protocol defect actually surfaces in a campaign's summary — the
//! instrument detects what it exists to detect.

use oftt::config::OfttConfig;
use oftt_campaign::{aggregate, expand, gate_failures, run_campaign, CampaignError, Scenario};
use oftt_harness::overrides;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Any override key outside the accepted set — the toolkit's tunables
    /// and the harness's deployment keys; plausible typos included — must
    /// be rejected at load time with a typed error naming the key verbatim.
    #[test]
    fn arbitrary_unknown_override_keys_are_rejected(key in "[a-z_]{1,24}") {
        prop_assume!(!OfttConfig::KEYS.contains(&key.as_str()));
        prop_assume!(!overrides::KEYS.contains(&key.as_str()));
        let text = format!(
            r#"{{"name": "typo", "seeds": [1], "overrides": {{"{key}": 100}}}}"#
        );
        match Scenario::load("typo.json", &text) {
            Err(CampaignError::Override { inner, .. }) => {
                prop_assert!(
                    inner.to_string().contains(&key),
                    "error {inner} does not name the key {key:?}"
                );
            }
            other => prop_assert!(false, "expected an override rejection, got {other:?}"),
        }
    }

    /// Scenario-shell typos are equally fatal.
    #[test]
    fn arbitrary_unknown_shell_keys_are_rejected(key in "[a-z_]{1,24}") {
        const SHELL_KEYS: &[&str] = &[
            "name", "description", "seeds", "horizon_ms", "tie_window_us",
            "expect_violations", "overrides", "pin", "script",
        ];
        prop_assume!(!SHELL_KEYS.contains(&key.as_str()));
        let text = format!(r#"{{"name": "typo", "seeds": [1], "{key}": 100}}"#);
        match Scenario::load("typo.json", &text) {
            Err(CampaignError::UnknownKey { key: found, .. }) => {
                prop_assert_eq!(found, key);
            }
            other => prop_assert!(false, "expected an unknown-key rejection, got {other:?}"),
        }
    }
}

/// Every corpus file in `examples/campaigns` loads, and its template
/// expands to a non-empty script for seed 1.
#[test]
fn every_corpus_file_loads_and_expands() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaigns");
    let mut loaded = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "json") {
            let path = path.display().to_string();
            let sc = Scenario::load_file(&path).unwrap_or_else(|e| panic!("{e}"));
            assert!(!expand(&sc, 1).steps.is_empty(), "{path} expands to an empty script");
            loaded += 1;
        }
    }
    assert_eq!(loaded, 9, "the corpus is nine files");
}

/// The same scenario file and seed must reproduce the byte-identical
/// canonical outcome record across process-internal re-runs — the
/// determinism contract the campaign's statistics rest on.
#[test]
fn per_seed_outcomes_are_byte_identical() {
    let text = r#"{
        "name": "determinism",
        "seeds": [3, 11],
        "horizon_ms": 20000,
        "overrides": {"heartbeat_period_ms": 200},
        "script": [
            {"at_ms": 6000, "op": "partition"},
            {"at_ms": 8000, "op": "heal"},
            {"at_ms": 12000, "op": "reboot b", "jitter_ms": 300}
        ]
    }"#;
    let sc = Scenario::load("determinism.json", text).unwrap();
    // The expansion itself is stable…
    assert_eq!(expand(&sc, 3).to_text(), expand(&sc, 3).to_text());
    // …and so is the full simulated outcome, independent of worker count.
    let records = |jobs| {
        run_campaign(std::slice::from_ref(&sc), jobs)
            .iter()
            .map(|r| r.outcome.record(r.seed))
            .collect::<Vec<_>>()
    };
    let serial = records(1);
    let parallel = records(4);
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 2);
    for line in &serial {
        assert!(line.contains("recovered=true"), "{line}");
    }
}

/// A campaign over the pre-fix §3.2 configuration (no negotiation
/// retries, fall back to becoming primary) with the interconnect
/// partitioned through startup must surface the dual-primary hazard in
/// its summary — and, because the scenario declares
/// `expect_violations`, the gate must *pass* on detection and *fail* on
/// silence.
#[test]
fn seeded_startup_bug_surfaces_in_the_campaign_summary() {
    let text = r#"{
        "name": "startup_bug",
        "description": "pre-fix startup race demonstration",
        "seeds": {"range": [1, 4]},
        "horizon_ms": 15000,
        "expect_violations": true,
        "overrides": {"startup_retries": 0, "startup_fallback": "become-primary"},
        "script": [
            {"at_ms": 5, "op": "partition"},
            {"at_ms": 8000, "op": "heal"}
        ]
    }"#;
    let sc = Scenario::load("startup_bug.json", text).unwrap();
    let records = run_campaign(std::slice::from_ref(&sc), 4);
    let stats = aggregate(&sc, &records);
    assert!(stats.violating_seeds > 0, "the seeded defect never surfaced: {stats:?}");
    assert!(gate_failures(&stats).is_empty(), "detection satisfies an expect_violations gate");

    // The same campaign with the fix in place (no injected bug) is clean:
    // the violations really come from the seeded defect, not the script.
    let fixed_text = text
        .replace(r#""startup_retries": 0, "startup_fallback": "become-primary""#, "")
        .replace(r#""expect_violations": true"#, r#""expect_violations": false"#);
    let fixed = Scenario::load("startup_fixed.json", &fixed_text).unwrap();
    let records = run_campaign(std::slice::from_ref(&fixed), 4);
    let stats = aggregate(&fixed, &records);
    assert_eq!(stats.violations, 0, "{stats:?}");
    assert!(gate_failures(&stats).is_empty(), "{stats:?}");
}

/// The corpus's partition heals reset the link at both ends. A reset
/// that finds a backup only raises a suspicion, which the live peer's
/// next word clears or the running peer timeout overtakes; one that finds
/// a primary is ignored. No heal reset is ever a promotion's verdict.
#[test]
fn a_reset_at_a_partition_heal_is_never_a_verdict() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaigns");
    let path = dir.join("partition_storm.json").display().to_string();
    let sc = Scenario::load_file(&path).unwrap_or_else(|e| panic!("{e}"));
    let mut suspected = 0;
    for seed in 1..=20 {
        let seeded = oftt_check::Scenario { script: expand(&sc, seed), ..sc.base.clone() };
        let trace = oftt_check::run(&seeded, seed, &[]).trace_text;
        let count = |needle: &str| trace.lines().filter(|line| line.contains(needle)).count();
        assert_eq!(count("link reset by"), 8, "seed {seed}: two resets per heal");
        assert_eq!(count("link closed by peer,"), 0, "seed {seed}: a reset promoted");
        suspected += count("closed by peer: suspected");
    }
    assert!(suspected > 0, "no heal reset ever found a backup");
}

/// `crash_loop.json` kills the application on the node that is primary at
/// the first kill, and the loop ends in exactly one switchover, requested
/// by that node at its third failure.
#[test]
fn the_crash_loop_kills_the_primary_and_ends_in_one_switchover() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaigns");
    let path = dir.join("crash_loop.json").display().to_string();
    let sc = Scenario::load_file(&path).unwrap_or_else(|e| panic!("{e}"));
    for seed in 1..=20 {
        let script = expand(&sc, seed);
        let first_kill = script.steps.first().expect("a kill").0;
        let seeded = oftt_check::Scenario { script, ..sc.base.clone() };
        let entries = oftt_check::run(&seeded, seed, &[]).entries;
        let role_a_at_kill = entries
            .iter()
            .rfind(|e| e.at <= first_kill && e.message.starts_with("node0/oftt-engine: role="))
            .map(|e| e.message.clone());
        assert!(
            role_a_at_kill.as_deref().is_some_and(|m| m.contains("role=primary")),
            "seed {seed}: the first node is not primary at the first kill: {role_a_at_kill:?}"
        );
        let requests: Vec<&str> = entries
            .iter()
            .map(|e| e.message.as_str())
            .filter(|m| m.contains("requesting switchover"))
            .collect();
        assert_eq!(
            requests,
            ["node0/oftt-engine: requesting switchover: call-track failed permanently"],
            "seed {seed}"
        );
        let failures = entries
            .iter()
            .filter(|e| e.message == "node0/oftt-engine: detected failure of call-track")
            .count();
        assert!(failures >= 3, "seed {seed}: {failures} failures");
    }
}
