//! Smoke tests for every experiment runner: each must produce sane
//! outcomes on at least one seed. (Full sweeps live in the bench harness;
//! these keep the runners honest under `cargo test`.)

use ds_sim::prelude::SimDuration;
use oftt::config::{CheckpointMode, StartupFallback};
use oftt_harness::experiments::{
    run_checkpoint_experiment, run_detection_experiment, run_diverter_experiment,
    run_failure_experiment, run_startup_experiment, CheckpointParams, DetectionParams,
    FailureClass, StartupParams,
};
use oftt_harness::scenario::ScenarioParams;

#[test]
fn e1_to_e4_every_failure_class_recovers() {
    for (i, class) in FailureClass::all().into_iter().enumerate() {
        let params = ScenarioParams { seed: 400 + i as u64, ..Default::default() };
        let outcome = run_failure_experiment(class, &params);
        assert!(outcome.recovered, "{}: did not recover: {outcome:?}", class.label());
        let recovery = outcome.recovery_latency.expect("recovery measured");
        assert!(
            recovery <= SimDuration::from_secs(60),
            "{}: recovery took {recovery}",
            class.label()
        );
        assert!(outcome.detection_latency.is_some(), "{}: no detection", class.label());
        // Bounded loss: no more than ~10% of a modest event stream.
        assert!(
            outcome.loss_fraction() < 0.25,
            "{}: lost {} of {}",
            class.label(),
            outcome.lost,
            outcome.emitted
        );
        assert!(!outcome.dual_active_seen, "{}: dual-active window", class.label());
    }
}

#[test]
fn e5_selective_ships_fewer_bytes_than_full() {
    let base = CheckpointParams {
        seed: 410,
        var_count: 64,
        var_bytes: 1024,
        dirty_per_tick: 2,
        mode: CheckpointMode::Full,
        period: SimDuration::from_millis(1000),
    };
    let full = run_checkpoint_experiment(&base);
    let selective = run_checkpoint_experiment(&CheckpointParams {
        mode: CheckpointMode::Selective { refresh_every: 64 },
        ..base.clone()
    });
    assert!(full.recovered_state_ok, "{full:?}");
    assert!(selective.recovered_state_ok, "{selective:?}");
    assert!(
        selective.bytes_sent * 4 < full.bytes_sent,
        "selective ({}) should ship far less than full ({})",
        selective.bytes_sent,
        full.bytes_sent
    );
    assert!(full.ckpts_sent > 10);
    // A healthy pair: every ack confirmed the image, so the one full image
    // of the term was the only one.
    assert_eq!(selective.fulls_sent, 1, "{selective:?}");
    assert_eq!((selective.unconfirmed_refreshes, selective.image_mismatches), (0, 0));
    assert_eq!(selective.last_confirmed, selective.last_acked, "{selective:?}");
}

#[test]
fn e6_detection_latency_tracks_timeout() {
    let fast = run_detection_experiment(&DetectionParams {
        seed: 420,
        heartbeat: SimDuration::from_millis(100),
        timeout: SimDuration::from_millis(400),
        loss: 0.0,
        inject_fault: true,
    });
    let slow = run_detection_experiment(&DetectionParams {
        seed: 420,
        heartbeat: SimDuration::from_millis(500),
        timeout: SimDuration::from_millis(3000),
        loss: 0.0,
        inject_fault: true,
    });
    let fast_latency = fast.detection_latency.expect("fast detected");
    let slow_latency = slow.detection_latency.expect("slow detected");
    assert!(
        fast_latency < slow_latency,
        "tighter timeout must detect sooner: {fast_latency} vs {slow_latency}"
    );
    assert_eq!(fast.false_switchovers, 0);
}

#[test]
fn e6_loss_with_tight_timeout_causes_false_switchovers() {
    // 20% loss with a timeout of only 2 heartbeats: false positives are
    // likely over 4 minutes; with a 3 s timeout they vanish.
    let twitchy = run_detection_experiment(&DetectionParams {
        seed: 421,
        heartbeat: SimDuration::from_millis(250),
        timeout: SimDuration::from_millis(600),
        loss: 0.20,
        inject_fault: false,
    });
    let patient = run_detection_experiment(&DetectionParams {
        seed: 421,
        heartbeat: SimDuration::from_millis(250),
        timeout: SimDuration::from_millis(3000),
        loss: 0.20,
        inject_fault: false,
    });
    assert!(
        twitchy.false_switchovers > patient.false_switchovers,
        "twitchy={} patient={}",
        twitchy.false_switchovers,
        patient.false_switchovers
    );
    assert_eq!(patient.false_switchovers, 0);
}

#[test]
fn e7_retries_fix_the_startup_shutdowns() {
    // The §3.2 story: with wide stagger and one attempt, some runs shut
    // down; with retries, none do.
    let mut original_failures = 0;
    let mut fixed_failures = 0;
    for seed in 0..10 {
        let base = StartupParams {
            seed: 430 + seed,
            stagger: SimDuration::from_secs(8),
            retries: 0,
            startup_timeout: SimDuration::from_secs(3),
            fallback: StartupFallback::ShutDown,
            partitioned: false,
        };
        let original = run_startup_experiment(&base);
        if !original.pair_formed {
            original_failures += 1;
        }
        let fixed = run_startup_experiment(&StartupParams { retries: 5, ..base });
        if !fixed.pair_formed {
            fixed_failures += 1;
        }
    }
    assert!(original_failures > 0, "the original design should fail sometimes");
    assert_eq!(fixed_failures, 0, "retries should always form the pair");
}

#[test]
fn e7_partitioned_startup_shutdown_vs_dual_primary() {
    let base = StartupParams {
        seed: 440,
        stagger: SimDuration::from_millis(500),
        retries: 2,
        startup_timeout: SimDuration::from_secs(2),
        fallback: StartupFallback::ShutDown,
        partitioned: true,
    };
    let safe = run_startup_experiment(&base);
    assert!(!safe.pair_formed);
    assert_eq!(safe.startup_shutdowns, 2, "both sides shut down safely");
    assert!(!safe.dual_primary);

    let unsafe_policy =
        run_startup_experiment(&StartupParams { fallback: StartupFallback::BecomePrimary, ..base });
    assert!(unsafe_policy.dual_primary, "availability-over-safety yields dual primary");
}

#[test]
fn e8_retargeting_diverter_beats_fixed_destination() {
    let with = run_diverter_experiment(450, true);
    let without = run_diverter_experiment(450, false);
    assert!(
        with.lost < without.lost,
        "diverter must reduce loss: with={} without={}",
        with.lost,
        without.lost
    );
    assert!(with.processed > 0 && without.emitted > 0);
    assert!(with.retransmissions > 0, "the retry mechanism must engage");
}

#[test]
fn e9_both_reference_configs_survive_primary_crashes() {
    use oftt_harness::experiments::run_config_experiment;
    use oftt_harness::scenario_fig1::ReferenceConfig;
    for (config, label) in [
        (ReferenceConfig::ControlWithRemoteMonitoring, "fig1a"),
        (ReferenceConfig::IntegratedMonitoringAndControl, "fig1b"),
    ] {
        for hit_server in [true, false] {
            let outcome = run_config_experiment(config, hit_server, 460);
            assert!(
                outcome.survived,
                "{label} hit_server={hit_server}: monitoring stalled: {outcome:?}"
            );
            assert!(outcome.samples_before > 10, "{label}: warmed up: {outcome:?}");
        }
    }
}

#[test]
fn e10_oftt_shrinks_client_visible_outage() {
    use oftt_harness::experiments::run_rpc_experiment;
    let bare = run_rpc_experiment(false, 474);
    let oftt = run_rpc_experiment(true, 474);
    assert!(bare.samples > 10 && oftt.samples > 10);
    assert!(
        oftt.max_gap * 3 < bare.max_gap,
        "OFTT outage ({}) should be several times shorter than bare ({})",
        oftt.max_gap,
        bare.max_gap
    );
}

#[test]
fn e11_dual_ethernet_masks_path_failure() {
    use oftt_harness::experiments::run_link_redundancy_experiment;
    let dual = run_link_redundancy_experiment(true, 480);
    let single = run_link_redundancy_experiment(false, 480);
    assert!(!dual.spurious_switchover, "dual Ethernet must mask a single path failure: {dual:?}");
    assert!(
        single.spurious_switchover,
        "a single Ethernet's failure partitions the pair: {single:?}"
    );
    assert!(dual.lost <= single.lost, "dual={dual:?} single={single:?}");
}

#[test]
fn e12_oftt_availability_dominates_unprotected_baseline() {
    use ds_sim::prelude::SimTime;
    use oftt_harness::experiments::run_availability_experiment;
    let duration = SimTime::from_secs(1_800); // 30 simulated minutes
    let mttf = SimDuration::from_secs(180);
    let mttr = SimDuration::from_secs(90);
    let protected = run_availability_experiment(true, 490, duration, mttf, mttr);
    let baseline = run_availability_experiment(false, 490, duration, mttf, mttr);
    assert!(protected.faults >= 3, "campaign must actually inject faults: {protected:?}");
    assert!(baseline.faults >= 3, "{baseline:?}");
    assert!(protected.availability > 0.97, "OFTT availability should be near 1: {protected:?}");
    assert!(
        protected.availability > baseline.availability + 0.05,
        "OFTT must clearly beat the operator-repair baseline: {protected:?} vs {baseline:?}"
    );
}
