//! Regenerates every experiment table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p oftt-harness --release --bin oftt-experiments            # all
//! cargo run -p oftt-harness --release --bin oftt-experiments e1 e5 e7   # subset
//! ```

use ds_sim::prelude::{Samples, SimDuration};
use oftt::config::{CheckpointMode, StartupFallback};
use oftt_harness::experiments::{
    run_checkpoint_experiment, run_detection_experiment, run_diverter_experiment,
    run_failure_experiment, run_startup_experiment, CheckpointParams, DetectionParams,
    FailureClass, StartupParams,
};
use oftt_harness::metrics::FailoverAggregate;
use oftt_harness::report::{pct, secs, Table};
use oftt_harness::scenario::ScenarioParams;

const SEEDS: u64 = 10;

fn e1_to_e4() {
    let mut table = Table::new(
        "E1–E4 (paper §4, Fig. 3): failover under the four failure classes — 10 seeds each",
        &[
            "failure class",
            "recovered",
            "detect mean",
            "detect p95",
            "recover mean",
            "recover p95",
            "events lost (mean)",
            "dual-active runs",
        ],
    );
    for class in FailureClass::all() {
        let mut agg = FailoverAggregate::default();
        for seed in 0..SEEDS {
            let params = ScenarioParams { seed: 1000 + seed, ..Default::default() };
            agg.push(&run_failure_experiment(class, &params));
        }
        let mut recovery = std::mem::take(&mut agg.recovery_s);
        let mut detection = std::mem::take(&mut agg.detection_s);
        table.row(&[
            class.label().to_string(),
            format!("{}/{}", agg.recovered, agg.total),
            secs(detection.mean()),
            secs(detection.p95()),
            secs(recovery.mean()),
            secs(recovery.p95()),
            format!("{:.1}", agg.lost.mean()),
            format!("{}", agg.dual_active),
        ]);
    }
    println!("{table}");
}

fn e5() {
    let mut table = Table::new(
        "E5 (paper §2.2.2, refs [10,11]): checkpoint policy vs shipped traffic (60 s primary uptime)",
        &[
            "state",
            "dirty/tick",
            "mode",
            "ckpts",
            "fulls",
            "timeout fulls",
            "mismatches",
            "confirmed = acked",
            "KB shipped",
            "KB/s",
            "ticks lost at crash",
            "restore ok",
        ],
    );
    let shapes = [
        (64usize, 1024usize, 2usize, "64 KiB"),
        (64, 1024, 64, "64 KiB"),
        (1024, 1024, 8, "1 MiB"),
    ];
    for (vars, bytes, dirty, label) in shapes {
        for (mode, mode_label) in [
            (CheckpointMode::Full, "full"),
            (CheckpointMode::Selective { refresh_every: 64 }, "selective"),
        ] {
            let mut kb = Samples::new();
            let mut lost = Samples::new();
            let mut ckpts = 0;
            let mut fulls = 0;
            let mut timeout_fulls = 0;
            let mut mismatches = 0;
            let mut confirmed = 0;
            let mut ok = 0;
            for seed in 0..SEEDS {
                let outcome = run_checkpoint_experiment(&CheckpointParams {
                    seed: 2000 + seed,
                    var_count: vars,
                    var_bytes: bytes,
                    dirty_per_tick: dirty,
                    mode,
                    period: SimDuration::from_millis(1000),
                });
                kb.push(outcome.bytes_sent as f64 / 1024.0);
                lost.push(outcome.lost.max(0) as f64);
                ckpts += outcome.ckpts_sent;
                fulls += outcome.fulls_sent;
                timeout_fulls += outcome.unconfirmed_refreshes;
                mismatches += outcome.image_mismatches;
                if outcome.last_confirmed == outcome.last_acked {
                    confirmed += 1;
                }
                if outcome.recovered_state_ok {
                    ok += 1;
                }
            }
            table.row(&[
                label.to_string(),
                format!("{dirty}/{vars}"),
                mode_label.to_string(),
                format!("{:.0}", ckpts as f64 / SEEDS as f64),
                format!("{:.0}", fulls as f64 / SEEDS as f64),
                timeout_fulls.to_string(),
                mismatches.to_string(),
                format!("{confirmed}/{SEEDS}"),
                format!("{:.0}", kb.mean()),
                format!("{:.1}", kb.mean() / 60.0),
                format!("{:.1}", lost.mean()),
                format!("{ok}/{SEEDS}"),
            ]);
        }
    }
    println!("{table}");
}

fn e5b() {
    // Figure-style series: state lost at a crash vs checkpoint period.
    let mut table = Table::new(
        "E5b (paper §2.1 'checkpointed … periodically'): state rolled back at a crash vs checkpoint period (selective mode, 10 seeds)",
        &["checkpoint period", "app ticks lost mean (1 tick = 250 ms)", "ticks lost p95", "KB/s shipped"],
    );
    for period_ms in [250u64, 500, 1000, 2000, 4000] {
        let mut lost = Samples::new();
        let mut kbps = Samples::new();
        for seed in 0..SEEDS {
            let outcome = run_checkpoint_experiment(&CheckpointParams {
                seed: 2500 + seed,
                var_count: 64,
                var_bytes: 1024,
                dirty_per_tick: 4,
                mode: CheckpointMode::Selective { refresh_every: 64 },
                period: SimDuration::from_millis(period_ms),
            });
            lost.push(outcome.lost.max(0) as f64);
            kbps.push(outcome.bytes_per_sec / 1024.0);
        }
        table.row(&[
            format!("{period_ms} ms"),
            format!("{:.1}", lost.mean()),
            format!("{:.1}", lost.p95()),
            format!("{:.1}", kbps.mean()),
        ]);
    }
    println!("{table}");
}

fn e6() {
    let mut table = Table::new(
        "E6 (paper §2.2.1): heartbeat/timeout tuning vs detection latency and false switchovers (4 sim-minutes, 10 seeds)",
        &[
            "heartbeat",
            "timeout",
            "link loss",
            "detect mean",
            "detect p95",
            "false switchovers (total)",
        ],
    );
    let grid = [
        (100u64, 400u64, 0.0),
        (250, 1000, 0.0),
        (500, 3000, 0.0),
        (250, 600, 0.10),
        (250, 1000, 0.10),
        (250, 3000, 0.10),
    ];
    for (hb, to, loss) in grid {
        let mut detect = Samples::new();
        let mut false_sw = 0;
        for seed in 0..SEEDS {
            let outcome = run_detection_experiment(&DetectionParams {
                seed: 3000 + seed,
                heartbeat: SimDuration::from_millis(hb),
                timeout: SimDuration::from_millis(to),
                loss,
                inject_fault: true,
            });
            if let Some(d) = outcome.detection_latency {
                detect.push(d.as_secs_f64());
            }
            false_sw += outcome.false_switchovers;
        }
        table.row(&[
            format!("{hb} ms"),
            format!("{to} ms"),
            pct(loss),
            secs(detect.mean()),
            secs(detect.p95()),
            format!("{false_sw}"),
        ]);
    }
    println!("{table}");
}

fn e7() {
    let mut table = Table::new(
        "E7 (paper §3.2): startup non-determinism — original single-try logic vs the shipped retry fix (20 seeds)",
        &[
            "stagger (max)",
            "retries",
            "fallback",
            "partitioned",
            "pairs formed",
            "startup shutdowns",
            "dual primary",
            "formation mean",
        ],
    );
    let cases = [
        (8u64, 0u32, StartupFallback::ShutDown, false),
        (8, 5, StartupFallback::ShutDown, false),
        (2, 0, StartupFallback::ShutDown, false),
        (2, 5, StartupFallback::ShutDown, false),
        (1, 2, StartupFallback::ShutDown, true),
        (1, 2, StartupFallback::BecomePrimary, true),
    ];
    for (stagger, retries, fallback, partitioned) in cases {
        let runs = 20;
        let mut formed = 0;
        let mut shutdowns = 0;
        let mut dual = 0;
        let mut formation = Samples::new();
        for seed in 0..runs {
            let outcome = run_startup_experiment(&StartupParams {
                seed: 4000 + seed,
                stagger: SimDuration::from_secs(stagger),
                retries,
                startup_timeout: SimDuration::from_secs(3),
                fallback,
                partitioned,
            });
            if outcome.pair_formed {
                formed += 1;
            }
            shutdowns += outcome.startup_shutdowns;
            if outcome.dual_primary {
                dual += 1;
            }
            if let Some(t) = outcome.formation_time {
                formation.push(t.as_secs_f64());
            }
        }
        table.row(&[
            format!("{stagger} s"),
            format!("{retries}"),
            format!("{fallback:?}"),
            format!("{partitioned}"),
            format!("{formed}/{runs}"),
            format!("{shutdowns}"),
            format!("{dual}/{runs}"),
            if formation.is_empty() { "-".into() } else { secs(formation.mean()) },
        ]);
    }
    println!("{table}");
}

fn e8() {
    let mut table = Table::new(
        "E8 (paper §2.2.3): message diverter across a primary crash — retargeting vs fixed destination (10 seeds)",
        &[
            "diverter",
            "emitted (mean)",
            "processed (mean)",
            "lost (mean)",
            "loss",
            "retransmissions (mean)",
        ],
    );
    for (retarget, label) in [(true, "retargeting (OFTT)"), (false, "fixed destination")] {
        let mut emitted = Samples::new();
        let mut processed = Samples::new();
        let mut lost = Samples::new();
        let mut rtx = Samples::new();
        for seed in 0..SEEDS {
            let outcome = run_diverter_experiment(5000 + seed, retarget);
            emitted.push(outcome.emitted as f64);
            processed.push(outcome.processed as f64);
            lost.push(outcome.lost.max(0) as f64);
            rtx.push(outcome.retransmissions as f64);
        }
        table.row(&[
            label.to_string(),
            format!("{:.0}", emitted.mean()),
            format!("{:.0}", processed.mean()),
            format!("{:.1}", lost.mean()),
            pct(lost.mean() / emitted.mean().max(1.0)),
            format!("{:.0}", rtx.mean()),
        ]);
    }
    println!("{table}");
}

fn e9() {
    use oftt_harness::experiments::run_config_experiment;
    use oftt_harness::scenario_fig1::ReferenceConfig;
    let mut table = Table::new(
        "E9 (paper Fig. 1): reference configurations under primary-node crashes (10 seeds each)",
        &[
            "configuration",
            "pair struck",
            "survived",
            "samples before (mean)",
            "samples after (mean)",
        ],
    );
    for (config, label) in [
        (ReferenceConfig::ControlWithRemoteMonitoring, "1a: remote monitoring"),
        (ReferenceConfig::IntegratedMonitoringAndControl, "1b: integrated"),
    ] {
        for (hit_server, target) in [(true, "OPC server pair"), (false, "monitor pair")] {
            if config == ReferenceConfig::IntegratedMonitoringAndControl && !hit_server {
                continue; // pairs coincide
            }
            let mut survived = 0;
            let mut before = Samples::new();
            let mut after = Samples::new();
            for seed in 0..SEEDS {
                let outcome = run_config_experiment(config, hit_server, 6000 + seed);
                if outcome.survived {
                    survived += 1;
                }
                before.push(outcome.samples_before as f64);
                after.push(outcome.samples_after as f64);
            }
            table.row(&[
                label.to_string(),
                target.to_string(),
                format!("{survived}/{SEEDS}"),
                format!("{:.0}", before.mean()),
                format!("{:.0}", after.mean()),
            ]);
        }
    }
    println!("{table}");
}

fn e10() {
    use oftt_harness::experiments::run_rpc_experiment;
    let mut table = Table::new(
        "E10 (paper §3.3): client-visible outage when an OPC server dies — bare DCOM vs OFTT (10 seeds)",
        &["client", "max sample gap mean", "max sample gap p95", "samples (mean)"],
    );
    for (with_oftt, label) in
        [(false, "bare (pinned, operator restart @30 s)"), (true, "OFTT pair + rebinding client")]
    {
        let mut gaps = Samples::new();
        let mut samples = Samples::new();
        for seed in 0..SEEDS {
            let outcome = run_rpc_experiment(with_oftt, 7000 + seed);
            gaps.push(outcome.max_gap.as_secs_f64());
            samples.push(outcome.samples as f64);
        }
        table.row(&[
            label.to_string(),
            secs(gaps.mean()),
            secs(gaps.p95()),
            format!("{:.0}", samples.mean()),
        ]);
    }
    println!("{table}");
}

fn e11() {
    use oftt_harness::experiments::run_link_redundancy_experiment;
    let mut table = Table::new(
        "E11 (paper §2.1): dual vs single Ethernet under a path failure at t=60 s (repaired t=90 s; 10 seeds)",
        &["pair interconnect", "spurious switchovers", "events lost (mean)", "loss"],
    );
    for (dual, label) in [(true, "dual Ethernet"), (false, "single Ethernet")] {
        let mut spurious = 0;
        let mut lost = Samples::new();
        let mut emitted = Samples::new();
        for seed in 0..SEEDS {
            let outcome = run_link_redundancy_experiment(dual, 8000 + seed);
            if outcome.spurious_switchover {
                spurious += 1;
            }
            lost.push(outcome.lost.max(0) as f64);
            emitted.push(outcome.emitted as f64);
        }
        table.row(&[
            label.to_string(),
            format!("{spurious}/{SEEDS}"),
            format!("{:.1}", lost.mean()),
            pct(lost.mean() / emitted.mean().max(1.0)),
        ]);
    }
    println!("{table}");
}

fn e12() {
    use ds_sim::prelude::SimTime;
    use oftt_harness::experiments::run_availability_experiment;
    let mut table = Table::new(
        "E12 (paper §1 motivation): availability under recurring faults — 1 simulated hour, MTTF 5 min, operator MTTR 2 min (5 seeds)",
        &["system", "availability mean", "availability min", "faults (mean)"],
    );
    let duration = SimTime::from_secs(3_600);
    let mttf = SimDuration::from_secs(300);
    let mttr = SimDuration::from_secs(120);
    for (with_oftt, label) in [(true, "OFTT pair"), (false, "single node + operator repair")] {
        let mut availability = Samples::new();
        let mut faults = Samples::new();
        for seed in 0..5u64 {
            let outcome = run_availability_experiment(with_oftt, 9000 + seed, duration, mttf, mttr);
            availability.push(outcome.availability);
            faults.push(outcome.faults as f64);
        }
        table.row(&[
            label.to_string(),
            pct(availability.mean()),
            pct(availability.min()),
            format!("{:.1}", faults.mean()),
        ]);
    }
    println!("{table}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|s| s.to_lowercase()).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");
    if want("e1") || want("e2") || want("e3") || want("e4") {
        e1_to_e4();
    }
    if want("e5") {
        e5();
        e5b();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e10") {
        e10();
    }
    if want("e11") {
        e11();
    }
    if want("e12") {
        e12();
    }
}
