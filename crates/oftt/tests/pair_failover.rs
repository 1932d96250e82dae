//! End-to-end tests of the full toolkit on a simulated pair: a
//! checkpointing application fed through the message diverter survives
//! each of the paper's four failure classes (§4) with bounded state loss.

use std::sync::Arc;

use ds_net::fault::{inject, Fault};
use ds_net::link::Link;
use ds_net::node::NodeConfig;
use ds_net::prelude::{
    ClusterSim, Endpoint, Envelope, NodeId, Process, ProcessEnv, SimDuration, SimTime,
};
use msgq::client::QueueConsumer;
use msgq::manager::{manager_endpoint, QueueConfig, QueueManager, QueueStats};
use oftt::checkpoint::VarSet;
use oftt::prelude::*;
use parking_lot::Mutex;

/// The test application: counts diverted events, remembers the last value,
/// and keeps a deadman watchdog armed.
struct CounterApp {
    count: u64,
    last_value: u64,
    watchdog_fires: Arc<Mutex<Vec<SimTime>>>,
    consumer: Option<QueueConsumer>,
    /// Live view for assertions: (count, active).
    view: Arc<Mutex<(u64, bool)>>,
}

impl CounterApp {
    fn new(view: Arc<Mutex<(u64, bool)>>, watchdog_fires: Arc<Mutex<Vec<SimTime>>>) -> Self {
        // A fresh incarnation starts inactive with zero state; clear the
        // shared view so it never shows a dead predecessor as active.
        *view.lock() = (0, false);
        CounterApp { count: 0, last_value: 0, watchdog_fires, consumer: None, view }
    }
}

impl FtApplication for CounterApp {
    fn snapshot(&self) -> VarSet {
        [
            ("count".to_string(), comsim::marshal::to_shared(&self.count).unwrap()),
            ("last_value".to_string(), comsim::marshal::to_shared(&self.last_value).unwrap()),
        ]
        .into_iter()
        .collect()
    }

    fn restore(&mut self, image: &VarSet) {
        if let Some(bytes) = image.get("count") {
            self.count = comsim::marshal::from_bytes(bytes).unwrap();
        }
        if let Some(bytes) = image.get("last_value") {
            self.last_value = comsim::marshal::from_bytes(bytes).unwrap();
        }
        *self.view.lock() = (self.count, false);
    }

    fn on_activate(&mut self, ctx: &mut FtCtx<'_>) {
        // Attach to the local application inbox (last attach wins — on the
        // new primary this inherits pending traffic).
        let node = ctx.env().self_endpoint().node;
        let consumer = QueueConsumer::new(manager_endpoint(node), APP_IN_QUEUE);
        consumer.attach(ctx.env());
        self.consumer = Some(consumer);
        // A reliable watchdog: fires if no event arrives for 30 s.
        if ctx.watchdog_create("deadman", SimDuration::from_secs(30)).is_err() {
            // Restored from checkpoint — already exists.
        }
        let _ = ctx.watchdog_set("deadman");
        *self.view.lock() = (self.count, true);
        // Re-attach periodically in case the manager was still starting.
        ctx.env().set_timer(SimDuration::from_secs(1), 1);
    }

    fn on_deactivate(&mut self, ctx: &mut FtCtx<'_>) {
        if let Some(consumer) = &self.consumer {
            consumer.detach(ctx.env());
        }
        *self.view.lock() = (self.count, false);
    }

    fn on_app_timer(&mut self, token: u64, ctx: &mut FtCtx<'_>) {
        if token == 1 {
            if let Some(consumer) = &self.consumer {
                consumer.attach(ctx.env());
            }
            ctx.env().set_timer(SimDuration::from_secs(1), 1);
        }
    }

    fn on_app_message(&mut self, envelope: Envelope, ctx: &mut FtCtx<'_>) {
        let Some(consumer) = &self.consumer else { return };
        if let Ok(msg) = consumer.handle_message(envelope, ctx.env()) {
            let value: u64 = comsim::marshal::from_bytes(&msg.body).unwrap();
            self.count += 1;
            self.last_value = value;
            let _ = ctx.watchdog_reset("deadman");
            *self.view.lock() = (self.count, true);
        }
    }

    fn on_watchdog(&mut self, name: &str, ctx: &mut FtCtx<'_>) {
        if name == "deadman" {
            self.watchdog_fires.lock().push(ctx.now());
        }
    }
}

/// Sends `total` numbered events through the diverter at a fixed period.
struct Feeder {
    diverter: Endpoint,
    period: SimDuration,
    next: u64,
    total: u64,
}

impl Process for Feeder {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        env.set_timer(self.period, 1);
    }
    fn on_timer(&mut self, _token: u64, env: &mut dyn ProcessEnv) {
        if self.next < self.total {
            divert(env, self.diverter.clone(), "event", &self.next).unwrap();
            self.next += 1;
            env.set_timer(self.period, 1);
        }
    }
}

struct Rig {
    cs: ClusterSim,
    a: NodeId,
    b: NodeId,
    #[allow(dead_code)]
    test_pc: NodeId,
    view_a: Arc<Mutex<(u64, bool)>>,
    view_b: Arc<Mutex<(u64, bool)>>,
    probe_a: Arc<Mutex<EngineProbe>>,
    probe_b: Arc<Mutex<EngineProbe>>,
    ftim_a: Arc<Mutex<FtimProbe>>,
    ftim_b: Arc<Mutex<FtimProbe>>,
    watchdog_fires: Arc<Mutex<Vec<SimTime>>>,
    monitor_table: Arc<Mutex<MonitorTable>>,
    queue_stats: Arc<Mutex<QueueStats>>,
}

/// Builds the paper's Figure-3 configuration: a redundant pair plus a test
/// and interface PC, with the call-track-shaped counter app, diverter on
/// the test PC, queue managers everywhere, and a System Monitor.
fn build_rig(seed: u64, mutate: impl Fn(&mut OfttConfig)) -> Rig {
    let mut cs = ClusterSim::new(seed);
    let a = cs.add_node(NodeConfig { name: "Primary".into(), ..Default::default() });
    let b = cs.add_node(NodeConfig { name: "Backup".into(), ..Default::default() });
    let test_pc = cs.add_node(NodeConfig { name: "TestPC".into(), ..Default::default() });
    cs.connect(a, b, Link::dual());
    cs.connect(a, test_pc, Link::single());
    cs.connect(b, test_pc, Link::single());

    let monitor_table = Arc::new(Mutex::new(MonitorTable::default()));
    let mut config = OfttConfig::new(Pair::new(a, b));
    config.monitor = Some(Endpoint::new(test_pc, "oftt-monitor"));
    mutate(&mut config);

    // Queue managers on every node.
    let queue_stats = Arc::new(Mutex::new(QueueStats::default()));
    for node in [a, b, test_pc] {
        let stats = if node == test_pc {
            queue_stats.clone()
        } else {
            Arc::new(Mutex::new(QueueStats::default()))
        };
        cs.register_service(
            node,
            msgq::manager::service_name(),
            Box::new(move || Box::new(QueueManager::new(QueueConfig::default(), stats.clone()))),
            true,
        );
    }

    // Engines + wrapped app on the pair.
    let probe_a = Arc::new(Mutex::new(EngineProbe::default()));
    let probe_b = Arc::new(Mutex::new(EngineProbe::default()));
    let ftim_a = Arc::new(Mutex::new(FtimProbe::default()));
    let ftim_b = Arc::new(Mutex::new(FtimProbe::default()));
    let view_a = Arc::new(Mutex::new((0, false)));
    let view_b = Arc::new(Mutex::new((0, false)));
    let watchdog_fires = Arc::new(Mutex::new(Vec::new()));
    for (node, probe, ftim_probe, view) in [
        (a, probe_a.clone(), ftim_a.clone(), view_a.clone()),
        (b, probe_b.clone(), ftim_b.clone(), view_b.clone()),
    ] {
        let engine_config = config.clone();
        cs.register_service(
            node,
            engine_service(),
            Box::new(move || Box::new(Engine::new(engine_config.clone(), probe.clone()))),
            true,
        );
        let app_config = config.clone();
        let fires = watchdog_fires.clone();
        cs.register_service(
            node,
            "call-track",
            Box::new(move || {
                Box::new(FtProcess::new(
                    app_config.clone(),
                    RecoveryRule::LocalRestart { max_attempts: 2 },
                    CounterApp::new(view.clone(), fires.clone()),
                    ftim_probe.clone(),
                ))
            }),
            true,
        );
    }

    // Diverter + monitor on the test PC.
    let diverter_config = config.clone();
    cs.register_service(
        test_pc,
        diverter_service(),
        Box::new(move || Box::new(Diverter::new(diverter_config.clone()))),
        true,
    );
    let table = monitor_table.clone();
    cs.register_service(
        test_pc,
        "oftt-monitor",
        Box::new(move || Box::new(SystemMonitor::new(SimDuration::from_secs(3), table.clone()))),
        true,
    );

    Rig {
        cs,
        a,
        b,
        test_pc,
        view_a,
        view_b,
        probe_a,
        probe_b,
        ftim_a,
        ftim_b,
        watchdog_fires,
        monitor_table,
        queue_stats,
    }
}

fn add_feeder(rig: &mut Rig, period: SimDuration, total: u64) {
    let diverter = Endpoint::new(rig.test_pc, diverter_service());
    rig.cs.register_service(
        rig.test_pc,
        "feeder",
        Box::new(move || Box::new(Feeder { diverter: diverter.clone(), period, next: 0, total })),
        false,
    );
    rig.cs.start_service_at(SimTime::from_secs(5), rig.test_pc, "feeder");
}

/// `true` if the app on `node` both believes it is active and is actually
/// alive (a crashed node's process can't update its shared view, so the
/// view alone would read stale-active).
fn app_alive_and_active(rig: &Rig, node: NodeId) -> bool {
    let view = if node == rig.a { &rig.view_a } else { &rig.view_b };
    view.lock().1
        && rig.cs.cluster().node(node).status.is_up()
        && rig.cs.cluster().is_service_running(node, &"call-track".into())
}

/// Which node's app is active, with its count.
fn active_view(rig: &Rig) -> Option<(NodeId, u64)> {
    let aa = app_alive_and_active(rig, rig.a);
    let ab = app_alive_and_active(rig, rig.b);
    match (aa, ab) {
        (true, false) => Some((rig.a, rig.view_a.lock().0)),
        (false, true) => Some((rig.b, rig.view_b.lock().0)),
        _ => None,
    }
}

fn primary_node(rig: &Rig) -> NodeId {
    if rig.probe_a.lock().current_role() == Some(Role::Primary) {
        rig.a
    } else {
        rig.b
    }
}

#[test]
fn steady_state_processes_all_events_exactly_once() {
    let mut rig = build_rig(301, |_| {});
    add_feeder(&mut rig, SimDuration::from_millis(200), 100);
    rig.cs.start();
    rig.cs.run_until(SimTime::from_secs(60));
    let (_, count) = active_view(&rig).expect("exactly one active app");
    assert_eq!(count, 100, "no failures: every event, exactly once");
    // Checkpoints flowed and were acknowledged.
    let shipped_a = rig.ftim_a.lock().ckpts_sent;
    let shipped = shipped_a + rig.ftim_b.lock().ckpts_sent;
    assert!(shipped > 10, "got {shipped} checkpoints");
    // Monitor shows exactly one primary.
    assert_eq!(rig.monitor_table.lock().primaries().len(), 1);
}

#[test]
fn class_a_node_failure_switchover_with_bounded_loss() {
    let mut rig = build_rig(302, |_| {});
    add_feeder(&mut rig, SimDuration::from_millis(200), u64::MAX); // continuous
    rig.cs.start();
    rig.cs.run_until(SimTime::from_secs(30));
    let victim = primary_node(&rig);
    let before = active_view(&rig).expect("active app before fault").1;
    inject(&mut rig.cs, SimTime::from_secs(30), Fault::CrashNode(victim));
    rig.cs.run_until(SimTime::from_secs(90));

    let (survivor, after) = active_view(&rig).expect("backup took over");
    assert_ne!(survivor, victim);
    assert!(after > before, "processing resumed: {after} <= {before}");

    // Bounded loss: events lost are at most one checkpoint period plus one
    // delivery round (~1 s of events at 5/s, plus margin). Messages parked
    // in the dead node's queue are lost with it (MSMQ semantics); the
    // diverter retargets undelivered ones.
    let survivor_probe = if survivor == rig.a { &rig.ftim_a } else { &rig.ftim_b };
    let restores = survivor_probe.lock().restores.clone();
    assert!(!restores.is_empty(), "state was restored, not reset");
    assert_eq!(survivor_probe.lock().fresh_activations, 0, "no data-loss activation");

    // ~5 events/s for 60 s minus the loss window; require most got through.
    let expected_min = before + 200; // 60 s * 5/s = 300; allow a wide margin
    assert!(after >= expected_min, "after={after}, before={before}");
}

#[test]
fn class_b_nt_crash_reboot_rejoins_and_ships_checkpoints_again() {
    let mut rig = build_rig(303, |_| {});
    add_feeder(&mut rig, SimDuration::from_millis(200), u64::MAX);
    rig.cs.start();
    rig.cs.run_until(SimTime::from_secs(30));
    let victim = primary_node(&rig);
    inject(&mut rig.cs, SimTime::from_secs(30), Fault::RebootNode(victim));
    rig.cs.run_until(SimTime::from_secs(150));

    // The rebooted node is back as backup and receives checkpoints.
    let victim_probe = if victim == rig.a { &rig.probe_a } else { &rig.probe_b };
    assert_eq!(victim_probe.lock().current_role(), Some(Role::Backup));
    let victim_ftim = if victim == rig.a { &rig.ftim_a } else { &rig.ftim_b };
    assert!(
        victim_ftim.lock().ckpts_installed > 0,
        "rejoined backup must be receiving checkpoints"
    );
    // Processing continued on the survivor.
    let (_, count) = active_view(&rig).expect("one active app");
    assert!(count > 400, "got {count}");
}

#[test]
fn class_c_app_failure_local_restart_restores_state() {
    let mut rig = build_rig(304, |_| {});
    add_feeder(&mut rig, SimDuration::from_millis(200), u64::MAX);
    rig.cs.start();
    rig.cs.run_until(SimTime::from_secs(30));
    let primary = primary_node(&rig);
    let before = active_view(&rig).expect("active").1;
    inject(&mut rig.cs, SimTime::from_secs(30), Fault::KillService(primary, "call-track".into()));
    rig.cs.run_until(SimTime::from_secs(90));

    // Same node still primary (local restart, not switchover) …
    assert_eq!(primary_node(&rig), primary);
    let probe = if primary == rig.a { &rig.probe_a } else { &rig.probe_b };
    assert!(probe.lock().restarts >= 1, "engine performed a local restart");
    assert_eq!(probe.lock().switchover_requests, 0, "no switchover for a transient fault");
    // … and the state came back from the peer's checkpoint store.
    let ftim = if primary == rig.a { &rig.ftim_a } else { &rig.ftim_b };
    let peer_restores: Vec<_> =
        ftim.lock().restores.iter().filter(|(_, _, local)| !local).cloned().collect();
    assert!(!peer_restores.is_empty(), "local restart restores from the peer store");
    let (_, after) = active_view(&rig).expect("active again");
    assert!(after > before, "processing resumed");
}

#[test]
fn class_d_middleware_failure_is_survived() {
    let mut rig = build_rig(305, |_| {});
    add_feeder(&mut rig, SimDuration::from_millis(200), u64::MAX);
    rig.cs.start();
    rig.cs.run_until(SimTime::from_secs(30));
    let victim = primary_node(&rig);
    let before = active_view(&rig).expect("active").1;
    inject(&mut rig.cs, SimTime::from_secs(30), Fault::KillService(victim, engine_service()));
    rig.cs.run_until(SimTime::from_secs(120));

    // Somebody is processing again…
    let (_, after) = active_view(&rig).expect("an app is active after middleware failure");
    assert!(after > before + 100, "processing resumed: {after} vs {before}");
    // …the killed engine was brought back by its FTIM…
    let ftim = if victim == rig.a { &rig.ftim_a } else { &rig.ftim_b };
    assert!(ftim.lock().engine_restarts >= 1, "FTIM restarts a silent engine");
    // …and the pair has settled to exactly one primary.
    assert_eq!(rig.monitor_table.lock().primaries().len(), 1);
}

#[test]
fn watchdog_survives_switchover() {
    let mut rig = build_rig(306, |_| {});
    // Only 10 events: the feed stops at ~t=7 s, so the 30 s deadman fires
    // afterwards — on whichever node is primary at that point.
    add_feeder(&mut rig, SimDuration::from_millis(200), 10);
    rig.cs.start();
    rig.cs.run_until(SimTime::from_secs(15));
    let victim = primary_node(&rig);
    // Fail the primary before the watchdog expires; the backup inherits
    // the armed watchdog through the checkpoint stream.
    inject(&mut rig.cs, SimTime::from_secs(15), Fault::CrashNode(victim));
    rig.cs.run_until(SimTime::from_secs(120));
    let fires = rig.watchdog_fires.lock();
    assert!(!fires.is_empty(), "the deadman watchdog must fire on the new primary after failover");
    // It fired well after the switchover, on the surviving node's clock.
    assert!(fires[0] >= SimTime::from_secs(15));
}

#[test]
fn no_dual_active_application_across_any_single_fault() {
    // Sweep the four fault classes; after settling, exactly one app is
    // active and the monitor agrees.
    type FaultFor = Box<dyn Fn(&Rig) -> Fault>;
    let faults: Vec<(&str, FaultFor)> = vec![
        ("node", Box::new(|r: &Rig| Fault::CrashNode(primary_node(r)))),
        ("os", Box::new(|r: &Rig| Fault::RebootNode(primary_node(r)))),
        ("app", Box::new(|r: &Rig| Fault::KillService(primary_node(r), "call-track".into()))),
        ("mw", Box::new(|r: &Rig| Fault::KillService(primary_node(r), engine_service()))),
    ];
    for (idx, (name, fault)) in faults.iter().enumerate() {
        let mut rig = build_rig(320 + idx as u64, |_| {});
        add_feeder(&mut rig, SimDuration::from_millis(200), u64::MAX);
        rig.cs.start();
        rig.cs.run_until(SimTime::from_secs(30));
        let f = fault(&rig);
        inject(&mut rig.cs, SimTime::from_secs(30), f);
        rig.cs.run_until(SimTime::from_secs(150));
        let active_a = app_alive_and_active(&rig, rig.a);
        let active_b = app_alive_and_active(&rig, rig.b);
        assert!(
            !(active_a && active_b),
            "fault class {name}: both applications active simultaneously"
        );
        assert!(active_a || active_b, "fault class {name}: no application active after recovery");
    }
}

#[test]
fn queue_stats_show_diverter_retry_not_duplicate_delivery() {
    let mut rig = build_rig(307, |_| {});
    add_feeder(&mut rig, SimDuration::from_millis(100), u64::MAX);
    rig.cs.start();
    rig.cs.run_until(SimTime::from_secs(30));
    let victim = primary_node(&rig);
    inject(&mut rig.cs, SimTime::from_secs(30), Fault::CrashNode(victim));
    rig.cs.run_until(SimTime::from_secs(90));
    let stats = *rig.queue_stats.lock();
    assert!(stats.accepted > 500, "feeder kept producing: {stats:?}");
    // The test PC manager retransmitted into the outage window.
    assert!(stats.retransmissions > 0, "switchover must force retries: {stats:?}");
}

/// Checkpoints converge across a lossy pair link: dropped deltas trigger
/// NACK + full resend, and a switchover still restores near-current state.
#[test]
fn lossy_checkpoint_channel_still_converges() {
    let mut rig = build_rig(308, |_| {});
    // Degrade the pair interconnect to a single 25%-lossy path.
    rig.cs.connect(
        rig.a,
        rig.b,
        ds_net::link::Link::new(vec![ds_net::link::PathConfig::default().with_loss(0.25)]),
    );
    add_feeder(&mut rig, SimDuration::from_millis(200), u64::MAX);
    rig.cs.start();
    rig.cs.run_until(SimTime::from_secs(60));
    let victim = primary_node(&rig);
    let before = active_view(&rig).expect("active").1;
    assert!(before > 100, "feed ran: {before}");
    // The backup's store must be keeping up despite the loss.
    let backup_idx = if victim == rig.a { 1 } else { 0 };
    let backup_ftim = if backup_idx == 0 { &rig.ftim_a } else { &rig.ftim_b };
    assert!(backup_ftim.lock().ckpts_installed > 10, "checkpoints flowed through loss");
    inject(&mut rig.cs, SimTime::from_secs(60), Fault::CrashNode(victim));
    rig.cs.run_until(SimTime::from_secs(120));
    let (survivor, after) = active_view(&rig).expect("switchover happened");
    assert_ne!(survivor, victim);
    assert!(after > before, "resumed past the pre-crash count: {after} vs {before}");
    // The post-fault activation restored state (earlier transient
    // promotions under 25% loss may have fresh-activated briefly before
    // dual-primary resolution demoted them — that is expected noise).
    let survivor_ftim = if survivor == rig.a { &rig.ftim_a } else { &rig.ftim_b };
    let restored_after_fault = survivor_ftim
        .lock()
        .restores
        .iter()
        .any(|(at, vars, _)| *at >= SimTime::from_secs(60) && *vars > 0);
    assert!(restored_after_fault, "the takeover restored checkpointed state");
}

/// The rig's recovery rule restarts this many failures of a run in place.
const MAX_ATTEMPTS: usize = 2;

/// A crash loop: `call-track` on the first elected primary is killed
/// `kills` times, `every` apart. Failures within five component timeouts
/// (5 s) of the last are one run, so the 1.1 s and 3 s cadences escalate
/// at failure `MAX_ATTEMPTS + 1`; ten seconds apart, every failure is a
/// run of its own and restarts in place.
#[test]
fn a_crash_loop_escalates_to_switchover_and_spaced_failures_restart_locally() {
    let start = SimTime::from_secs(30);
    for (kills, every_ms, escalates) in [(4, 1_100, true), (6, 3_000, true), (4, 10_000, false)] {
        let cadence = format!("{kills} kills {every_ms} ms apart");
        let mut rig = build_rig(304, |_| {});
        add_feeder(&mut rig, SimDuration::from_millis(200), u64::MAX);
        rig.cs.start();
        rig.cs.run_until(start);
        let victim = primary_node(&rig);
        for k in 0..kills {
            let at = start + SimDuration::from_millis(every_ms * k);
            inject(&mut rig.cs, at, Fault::KillService(victim, "call-track".into()));
        }
        rig.cs.run_until(
            start + SimDuration::from_millis(every_ms * kills) + SimDuration::from_secs(20),
        );

        let (probe, peer_probe) = if victim == rig.a {
            (&rig.probe_a, &rig.probe_b)
        } else {
            (&rig.probe_b, &rig.probe_a)
        };
        assert_eq!(peer_probe.lock().switchover_requests, 0, "{cadence}: the peer stays put");
        let probe = probe.lock();
        let (detections, restarts, requests) =
            (probe.detections.clone(), probe.restarts, probe.switchover_requests);
        let yielded = probe.first_role_after(start, Role::Backup);
        drop(probe);
        if escalates {
            assert_eq!(requests, 1, "{cadence}: {detections:?}");
            let failure = detections.get(MAX_ATTEMPTS).expect("a failure past the budget").0;
            assert_eq!(
                yielded,
                Some(failure),
                "{cadence}: the primary yields at failure {}",
                MAX_ATTEMPTS + 1
            );
            assert_ne!(primary_node(&rig), victim, "{cadence}: the peer is primary");
            let (active, _) = active_view(&rig).expect("one active app");
            assert_ne!(active, victim, "{cadence}: the peer's app is active");
        } else {
            assert_eq!(detections.len(), kills as usize, "{cadence}");
            assert_eq!(restarts, kills as u32, "{cadence}: every failure restarts locally");
            assert_eq!(requests, 0, "{cadence}");
            assert_eq!(primary_node(&rig), victim, "{cadence}");
        }
    }
}

/// The System Monitor shows a local restart while its run lasts.
#[test]
fn the_monitor_shows_a_restart_until_its_run_is_over() {
    let mut rig = build_rig(310, |_| {});
    add_feeder(&mut rig, SimDuration::from_millis(200), u64::MAX);
    rig.cs.start();
    let start = SimTime::from_secs(30);
    rig.cs.run_until(start);
    let victim = primary_node(&rig);
    inject(&mut rig.cs, start, Fault::KillService(victim, "call-track".into()));
    let mut shown = Vec::new();
    let mut now = start;
    while now < start + SimDuration::from_secs(10) {
        now += SimDuration::from_millis(50);
        rig.cs.run_until(now);
        let text = rig.monitor_table.lock().render(now);
        let row =
            text.lines().find(|l| l.starts_with(&victim.to_string())).unwrap_or("").to_string();
        let cell =
            row.split_whitespace().find(|w| w.starts_with("call-track[")).map(str::to_string);
        if shown.last() != Some(&cell) {
            shown.push(cell);
        }
    }
    let cell = |text: &str| Some(text.to_string());
    assert!(shown.contains(&cell("call-track[OK,r1]")), "after one local restart: {shown:?}");
    assert_eq!(shown.last(), Some(&cell("call-track[OK]")), "after the run window: {shown:?}");
}
