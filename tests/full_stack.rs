//! Workspace-level integration tests: the complete stack (ds-sim → ds-net →
//! comsim → opc/msgq/plant → oftt → harness) driven through its public API.

use ds_net::fault::Fault;
use ds_sim::prelude::{SimDuration, SimTime};
use oftt::config::engine_service;
use oftt_harness::scenario::{Fig3Scenario, ScenarioParams, APP_SERVICE};
use oftt_harness::scenario_fig1::{Fig1Scenario, ReferenceConfig};

/// The paper's full §4 demonstration as one run: all four failure classes
/// in sequence, with repairs in between, accounting at the end.
#[test]
fn demo_sequence_survives_all_four_failure_classes() {
    let params = ScenarioParams { seed: 9000, ..Default::default() };
    let mut scenario = Fig3Scenario::build(&params);
    scenario.start();

    // (a) node failure at t=60, repaired at t=120.
    scenario.run_until(SimTime::from_secs(60));
    let p = scenario.primary_node().expect("formed");
    scenario.inject(SimTime::from_secs(60), Fault::CrashNode(p));
    scenario.inject(SimTime::from_secs(120), Fault::RepairNode(p));

    // (b) NT crash at t=180.
    scenario.run_until(SimTime::from_secs(180));
    let p = scenario.primary_node().expect("reformed after repair");
    scenario.inject(SimTime::from_secs(180), Fault::RebootNode(p));

    // (c) application failure at t=280.
    scenario.run_until(SimTime::from_secs(280));
    let p = scenario.primary_node().expect("reformed after reboot");
    scenario.inject(SimTime::from_secs(280), Fault::KillService(p, APP_SERVICE.into()));

    // (d) middleware failure at t=360.
    scenario.run_until(SimTime::from_secs(360));
    let p = scenario.primary_node().expect("healthy before class d");
    scenario.inject(SimTime::from_secs(360), Fault::KillService(p, engine_service()));

    // Drain and account.
    scenario.stop_feed(SimTime::from_secs(420));
    scenario.run_until(SimTime::from_secs(460));

    let (_, state) = scenario.active_state().expect("an active Call Track at the end");
    let emitted = scenario.emitted();
    assert!(emitted > 100, "busy enough run: {emitted}");
    let lost = emitted as i64 - state.events as i64;
    assert!(
        lost >= 0 && (lost as f64) < 0.2 * emitted as f64,
        "bounded loss across four failures: lost {lost} of {emitted}"
    );
    // Call accounting is internally consistent after every restore.
    assert_eq!(state.started, state.ended + state.busy_count() as u64);
    // The monitor converged to exactly one primary.
    assert_eq!(scenario.probes.monitor.lock().primaries().len(), 1);
}

/// The same seed reproduces the same end state, even across a multi-fault
/// campaign — the determinism contract that makes EXPERIMENTS.md
/// reproducible.
#[test]
fn multi_fault_campaign_is_deterministic() {
    let run = |seed: u64| {
        let params = ScenarioParams { seed, ..Default::default() };
        let mut scenario = Fig3Scenario::build(&params);
        scenario.start();
        scenario.run_until(SimTime::from_secs(60));
        if let Some(p) = scenario.primary_node() {
            scenario.inject(SimTime::from_secs(60), Fault::CrashNode(p));
        }
        scenario.run_until(SimTime::from_secs(120));
        format!("{:?}", scenario.active_state())
    };
    assert_eq!(run(9100), run(9100));
    assert_ne!(run(9100), run(9101));
}

/// Fig. 1a: losing one Ethernet path of the dual link is invisible to the
/// application layer.
#[test]
fn dual_ethernet_path_failure_is_transparent() {
    let mut scenario = Fig1Scenario::build(ReferenceConfig::ControlWithRemoteMonitoring, 9200);
    scenario.start();
    scenario.run_until(SimTime::from_secs(40));
    let before = scenario.active_tagmon().expect("active").1.total_samples;
    // Fail path 0 of the pair interconnects.
    let (sa, sb) = (scenario.server_pair.a, scenario.server_pair.b);
    scenario.inject(SimTime::from_secs(40), Fault::PathDown(sa, sb, 0));
    let (ca, cb) = (scenario.client_pair.a, scenario.client_pair.b);
    scenario.inject(SimTime::from_secs(40), Fault::PathDown(ca, cb, 0));
    scenario.run_until(SimTime::from_secs(100));
    let after = scenario.active_tagmon().expect("still active").1.total_samples;
    assert!(after > before + 50, "monitoring unaffected: {before} -> {after}");
    // No spurious switchover happened on either pair.
    assert!(scenario.server_primary().is_some());
    assert!(scenario.client_primary().is_some());
}

/// The integrated configuration (Fig. 1b) rides through an NT crash of its
/// primary, which takes down BOTH the OPC server and the Tag Monitor on
/// that node at once.
#[test]
fn integrated_config_survives_combined_crash() {
    let mut scenario = Fig1Scenario::build(ReferenceConfig::IntegratedMonitoringAndControl, 9300);
    scenario.start();
    scenario.run_until(SimTime::from_secs(60));
    let before = scenario.active_tagmon().expect("active").1.total_samples;
    let p = scenario.server_primary().expect("formed");
    scenario.inject(SimTime::from_secs(60), Fault::RebootNode(p));
    scenario.run_until(SimTime::from_secs(180));
    let (node, state) = scenario.active_tagmon().expect("active after combined failover");
    assert_ne!(node, p, "the surviving node carries the monitoring function");
    assert!(state.total_samples > before, "statistics kept growing");
    // The rebooted node rejoined; both engines are running again.
    assert!(scenario.cs.cluster().node(p).status.is_up());
    assert!(scenario.cs.cluster().is_service_running(p, &engine_service()));
}

/// The System Monitor display renders both healthy and degraded states
/// without panicking, and tracks the primary through a switchover.
#[test]
fn monitor_display_tracks_switchover() {
    let params = ScenarioParams { seed: 9400, ..Default::default() };
    let mut scenario = Fig3Scenario::build(&params);
    scenario.start();
    scenario.run_until(SimTime::from_secs(30));
    let first = scenario.probes.monitor.lock().primaries();
    assert_eq!(first.len(), 1);
    let text = scenario.probes.monitor.lock().render(scenario.cs.now());
    assert!(text.contains("primary") && text.contains("backup"), "{text}");

    scenario.inject(SimTime::from_secs(30), Fault::CrashNode(first[0]));
    scenario.run_until(SimTime::from_secs(60));
    let second = scenario.probes.monitor.lock().primaries();
    assert_eq!(second.len(), 1);
    assert_ne!(first[0], second[0], "monitor followed the switchover");
    let text = scenario.probes.monitor.lock().render(scenario.cs.now());
    assert!(text.contains("NOT REPORTING"), "dead node flagged:\n{text}");
}

/// Checkpoint traffic responds to the configured period — halving the
/// period roughly doubles the checkpoints shipped.
#[test]
fn checkpoint_period_scales_traffic() {
    let count_ckpts = |period_ms: u64| {
        let mut params = ScenarioParams { seed: 9500, ..Default::default() };
        params.config.checkpoint_period = SimDuration::from_millis(period_ms);
        // Full mode ships every period; the default selective mode skips
        // empty deltas, so its count tracks the event rate rather than the
        // period.
        params.config.checkpoint_mode = oftt::config::CheckpointMode::Full;
        let mut scenario = Fig3Scenario::build(&params);
        scenario.start();
        scenario.run_until(SimTime::from_secs(120));
        let a = scenario.probes.ftims[0].lock().ckpts_sent;
        let b = scenario.probes.ftims[1].lock().ckpts_sent;
        a + b
    };
    let slow = count_ckpts(2000);
    let fast = count_ckpts(500);
    assert!(
        fast > slow * 2,
        "500 ms period ({fast}) should ship >2x the checkpoints of 2 s ({slow})"
    );
}
