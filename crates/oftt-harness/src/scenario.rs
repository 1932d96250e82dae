//! Deployable scenarios: the paper's demonstration configuration
//! (Figure 3) and the reference configurations (Figure 1).
//!
//! A [`Fig3Scenario`] is the paper's §4 demo: a redundant pair running the
//! Call Track application under OFTT, plus a Test and Interface PC running
//! the telephone system simulator, the message diverter, and the System
//! Monitor.

use std::sync::Arc;

use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::fault::{inject, Fault};
use ds_net::link::{Link, PathConfig};
use ds_net::message::Envelope;
use ds_net::node::NodeConfig;
use ds_net::prelude::ClusterSim;
use ds_net::process::{Process, ProcessEnv};
use ds_sim::prelude::{SimDuration, SimTime};
use msgq::manager::{QueueConfig, QueueManager, QueueStats};
use oftt::config::{engine_endpoint, engine_service, OfttConfig, Pair, RecoveryRule};
use oftt::diverter::{divert, diverter_service, Diverter};
use oftt::engine::{Engine, EngineProbe};
use oftt::ftim::{FtProcess, FtimProbe};
use oftt::monitor::{MonitorTable, SystemMonitor};
use oftt::role::Role;
use parking_lot::Mutex;
use plant::telephone::{CallEvent, EventSink, TelephoneConfig, TelephoneSimulator};

use crate::calltrack::{CallTrack, CallTrackState};

/// Everything configurable about a Fig-3 run, as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioParams {
    /// Determinism seed.
    pub seed: u64,
    /// The toolkit configuration. The builder completes it with the pair
    /// and the monitor endpoint; every other field is used as given.
    pub config: OfttConfig,
    /// The telephone office shape.
    pub telephone: TelephoneConfig,
    /// The paths of every link (pair interconnect and both links to the
    /// test PC): two default paths are the paper's dual redundant
    /// Ethernets, one path a single Ethernet.
    pub link: Vec<PathConfig>,
    /// Arm the Call Track deadman watchdog with this period.
    pub watchdog: Option<SimDuration>,
    /// Recovery rule for the Call Track component.
    pub rule: RecoveryRule,
    /// When the telephone simulator starts (after system services settle).
    pub feed_start: SimTime,
    /// Diverter retargeting across switchover (disable for the E8
    /// baseline).
    pub diverter_retarget: bool,
    /// Per-node local-clock rate factors, indexed (a, b). A node with
    /// factor `f` sees all of its OFTT timers (heartbeats, timeouts,
    /// checkpoint cadence) stretched by `f` — the honest model of a local
    /// clock running slow (`f > 1`) or fast (`f < 1`) relative to true
    /// simulation time. Uniform scaling preserves the config's timeout
    /// orderings.
    pub drift: [f64; 2],
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            seed: 1,
            config: OfttConfig::new(Pair::new(NodeId(0), NodeId(1))),
            telephone: TelephoneConfig {
                // Faster office than the paper's defaults so short runs see
                // plenty of events.
                mean_interarrival: SimDuration::from_secs(10),
                mean_duration: SimDuration::from_secs(20),
                ..Default::default()
            },
            link: vec![PathConfig::default(); 2],
            watchdog: None,
            rule: RecoveryRule::LocalRestart { max_attempts: 2 },
            feed_start: SimTime::from_secs(5),
            diverter_retarget: true,
            drift: [1.0, 1.0],
        }
    }
}

/// Scales every node-local OFTT timer by `factor` (see
/// [`ScenarioParams::drift`]). `1.0` returns the config unchanged.
fn drift_config(config: &OfttConfig, factor: f64) -> OfttConfig {
    if factor == 1.0 {
        return config.clone();
    }
    let scale = |d: SimDuration| {
        SimDuration::from_micros(((d.as_micros() as f64) * factor).round().max(1.0) as u64)
    };
    let mut out = config.clone();
    out.heartbeat_period = scale(config.heartbeat_period);
    out.component_timeout = scale(config.component_timeout);
    out.peer_timeout = scale(config.peer_timeout);
    out.fail_safe_timeout = scale(config.fail_safe_timeout);
    out.checkpoint_period = scale(config.checkpoint_period);
    out.startup_timeout = scale(config.startup_timeout);
    out.status_period = scale(config.status_period);
    out
}

/// Converts simulator [`CallEvent`]s into diverter messages, counting them
/// (the emission side of the loss accounting).
pub struct EventGateway {
    diverter: Endpoint,
    emitted: Arc<Mutex<u64>>,
}

impl Process for EventGateway {
    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        if let Ok(event) = envelope.body.downcast::<CallEvent>() {
            *self.emitted.lock() += 1;
            let _ = divert(env, self.diverter.clone(), "call-event", &event);
        }
    }
}

/// Shared observation channels for a scenario run.
pub struct ScenarioProbes {
    /// Engine history per pair node (indexed a, b).
    pub engines: [Arc<Mutex<EngineProbe>>; 2],
    /// FTIM history per pair node.
    pub ftims: [Arc<Mutex<FtimProbe>>; 2],
    /// Live Call Track view per pair node: (state, active).
    pub views: [Arc<Mutex<(CallTrackState, bool)>>; 2],
    /// Deadman watchdog firings.
    pub watchdog_fires: Arc<Mutex<Vec<SimTime>>>,
    /// The System Monitor's table.
    pub monitor: Arc<Mutex<MonitorTable>>,
    /// Queue manager stats on the test PC (the diverter's sender side).
    pub test_pc_queue: Arc<Mutex<QueueStats>>,
    /// Events emitted by the telephone simulator.
    pub emitted: Arc<Mutex<u64>>,
}

/// A built Figure-3 deployment, ready to run and fault.
pub struct Fig3Scenario {
    /// The simulated cluster.
    pub cs: ClusterSim,
    /// The redundant pair.
    pub pair: Pair,
    /// The Test and Interface PC.
    pub test_pc: NodeId,
    /// Observation channels.
    pub probes: ScenarioProbes,
    /// The toolkit configuration in force.
    pub config: OfttConfig,
}

/// Service name of the protected application.
pub const APP_SERVICE: &str = "call-track";

impl Fig3Scenario {
    /// Builds the paper's demonstration configuration.
    pub fn build(params: &ScenarioParams) -> Self {
        let mut cs = ClusterSim::new(params.seed);
        let a = cs.add_node(NodeConfig { name: "Node 1 (pair)".into(), ..Default::default() });
        let b = cs.add_node(NodeConfig { name: "Node 2 (pair)".into(), ..Default::default() });
        let test_pc =
            cs.add_node(NodeConfig { name: "Test and Interface".into(), ..Default::default() });
        for (x, y) in [(a, b), (a, test_pc), (b, test_pc)] {
            cs.connect(x, y, Link::new(params.link.clone()));
        }

        let pair = Pair::new(a, b);
        let mut config = params.config.clone();
        config.pair = pair;
        config.monitor = Some(Endpoint::new(test_pc, "oftt-monitor"));

        // Queue managers everywhere.
        let test_pc_queue = Arc::new(Mutex::new(QueueStats::default()));
        for node in [a, b, test_pc] {
            let stats = if node == test_pc {
                test_pc_queue.clone()
            } else {
                Arc::new(Mutex::new(QueueStats::default()))
            };
            cs.register_service(
                node,
                msgq::manager::service_name(),
                Box::new(move || {
                    Box::new(QueueManager::new(QueueConfig::default(), stats.clone()))
                }),
                true,
            );
        }

        // Engines + Call Track on the pair.
        let engines = [
            Arc::new(Mutex::new(EngineProbe::default())),
            Arc::new(Mutex::new(EngineProbe::default())),
        ];
        let ftims = [
            Arc::new(Mutex::new(FtimProbe::default())),
            Arc::new(Mutex::new(FtimProbe::default())),
        ];
        let views = [
            Arc::new(Mutex::new((CallTrackState::new(params.telephone.lines), false))),
            Arc::new(Mutex::new((CallTrackState::new(params.telephone.lines), false))),
        ];
        let watchdog_fires = Arc::new(Mutex::new(Vec::new()));
        for (idx, node) in [a, b].into_iter().enumerate() {
            let node_config = drift_config(&config, params.drift[idx]);
            let engine_config = node_config.clone();
            let probe = engines[idx].clone();
            cs.register_service(
                node,
                engine_service(),
                Box::new(move || Box::new(Engine::new(engine_config.clone(), probe.clone()))),
                true,
            );
            // As `oftt-node` does on the socket runtime: the engine hears
            // its links' resets (`Fault::PeerReset` is their only source).
            cs.subscribe_transport_events(engine_endpoint(node));
            let app_config = node_config;
            let ftim_probe = ftims[idx].clone();
            let view = views[idx].clone();
            let fires = watchdog_fires.clone();
            let lines = params.telephone.lines;
            let watchdog = params.watchdog;
            let rule = params.rule;
            cs.register_service(
                node,
                APP_SERVICE,
                Box::new(move || {
                    Box::new(FtProcess::new(
                        app_config.clone(),
                        rule,
                        CallTrack::new(lines, view.clone(), watchdog, fires.clone()),
                        ftim_probe.clone(),
                    ))
                }),
                true,
            );
        }

        // Test PC: diverter, monitor, gateway, telephone simulator.
        let diverter_config = config.clone();
        let retarget = params.diverter_retarget;
        cs.register_service(
            test_pc,
            diverter_service(),
            Box::new(move || Box::new(Diverter::with_retarget(diverter_config.clone(), retarget))),
            true,
        );
        let monitor = Arc::new(Mutex::new(MonitorTable::default()));
        let table = monitor.clone();
        cs.register_service(
            test_pc,
            "oftt-monitor",
            Box::new(move || {
                Box::new(SystemMonitor::new(SimDuration::from_secs(3), table.clone()))
            }),
            true,
        );
        let emitted = Arc::new(Mutex::new(0));
        let gateway_emitted = emitted.clone();
        let gateway_target = Endpoint::new(test_pc, diverter_service());
        cs.register_service(
            test_pc,
            "event-gateway",
            Box::new(move || {
                Box::new(EventGateway {
                    diverter: gateway_target.clone(),
                    emitted: gateway_emitted.clone(),
                })
            }),
            true,
        );
        let sink = EventSink::Direct(Endpoint::new(test_pc, "event-gateway"));
        let telephone = params.telephone.clone();
        cs.register_service(
            test_pc,
            "telephone-sim",
            Box::new(move || Box::new(TelephoneSimulator::new(telephone.clone(), sink.clone()))),
            false,
        );
        cs.start_service_at(params.feed_start, test_pc, "telephone-sim");

        Fig3Scenario {
            cs,
            pair,
            test_pc,
            probes: ScenarioProbes {
                engines,
                ftims,
                views,
                watchdog_fires,
                monitor,
                test_pc_queue,
                emitted,
            },
            config,
        }
    }

    /// Boots every node.
    pub fn start(&mut self) {
        self.cs.start();
    }

    /// Runs to `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.cs.run_until(horizon);
    }

    /// Schedules a fault.
    pub fn inject(&mut self, at: SimTime, fault: Fault) {
        inject(&mut self.cs, at, fault);
    }

    /// Stops the telephone feed (lets in-flight traffic drain before
    /// measuring loss).
    pub fn stop_feed(&mut self, at: SimTime) {
        inject(&mut self.cs, at, Fault::KillService(self.test_pc, "telephone-sim".into()));
    }

    /// The pair index (0 or 1) of `node`.
    pub fn index_of(&self, node: NodeId) -> usize {
        if node == self.pair.a {
            0
        } else {
            1
        }
    }

    /// The node whose engine currently holds the primary role, if exactly
    /// one does.
    pub fn primary_node(&self) -> Option<NodeId> {
        let ra = self.probes.engines[0].lock().current_role();
        let rb = self.probes.engines[1].lock().current_role();
        let a_up = self.cs.cluster().node(self.pair.a).status.is_up()
            && self.cs.cluster().is_service_running(self.pair.a, &engine_service());
        let b_up = self.cs.cluster().node(self.pair.b).status.is_up()
            && self.cs.cluster().is_service_running(self.pair.b, &engine_service());
        match (a_up && ra == Some(Role::Primary), b_up && rb == Some(Role::Primary)) {
            (true, false) => Some(self.pair.a),
            (false, true) => Some(self.pair.b),
            _ => None,
        }
    }

    /// `true` if `node`'s application is alive and active.
    pub fn app_active(&self, node: NodeId) -> bool {
        let idx = self.index_of(node);
        self.probes.views[idx].lock().1
            && self.cs.cluster().node(node).status.is_up()
            && self.cs.cluster().is_service_running(node, &APP_SERVICE.into())
    }

    /// The active application's state, if exactly one is active.
    pub fn active_state(&self) -> Option<(NodeId, CallTrackState)> {
        match (self.app_active(self.pair.a), self.app_active(self.pair.b)) {
            (true, false) => Some((self.pair.a, self.probes.views[0].lock().0.clone())),
            (false, true) => Some((self.pair.b, self.probes.views[1].lock().0.clone())),
            _ => None,
        }
    }

    /// Total events emitted by the simulator so far.
    pub fn emitted(&self) -> u64 {
        *self.probes.emitted.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_steady_state_tracks_the_office() {
        let mut scenario = Fig3Scenario::build(&ScenarioParams::default());
        scenario.start();
        scenario.stop_feed(SimTime::from_secs(570));
        scenario.run_until(SimTime::from_secs(600));
        let (_, state) = scenario.active_state().expect("one active app");
        let emitted = scenario.emitted();
        assert!(emitted > 50, "10 simulated minutes of office traffic, got {emitted}");
        assert_eq!(state.events, emitted, "every event, exactly once");
        assert_eq!(state.started, state.ended + state.busy_count() as u64);
        assert_eq!(scenario.probes.monitor.lock().primaries().len(), 1);
    }

    #[test]
    fn drift_scales_timers_uniformly_and_keeps_orderings() {
        let pair = Pair::new(ds_net::endpoint::NodeId(0), ds_net::endpoint::NodeId(1));
        let config = OfttConfig::new(pair);
        let slow = drift_config(&config, 1.5);
        assert_eq!(slow.heartbeat_period, SimDuration::from_micros(375_000));
        assert_eq!(slow.peer_timeout, SimDuration::from_micros(1_500_000));
        assert_eq!(slow.check(), Ok(()), "uniform scaling preserves the timeout orderings");
        let fast = drift_config(&config, 0.5);
        assert_eq!(fast.heartbeat_period, SimDuration::from_micros(125_000));
        assert_eq!(fast.check(), Ok(()));
        assert_eq!(drift_config(&config, 1.0), config);
    }

    #[test]
    fn fig3_is_deterministic() {
        let run = |seed| {
            let mut scenario = Fig3Scenario::build(&ScenarioParams { seed, ..Default::default() });
            scenario.start();
            scenario.run_until(SimTime::from_secs(120));
            let (_, state) = scenario.active_state().expect("active");
            format!("{state:?}")
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
