//! End-to-end tests of the OPC stack over the simulated cluster:
//! PLC → fieldbus → OPC server → RPC → OPC client, including subscriptions
//! and device-failure quality degradation.

use std::sync::Arc;

use ds_net::fault::{inject, Fault};
use ds_net::link::Link;
use ds_net::node::NodeConfig;
use ds_net::prelude::{
    ClusterSim, Endpoint, Envelope, NodeId, Process, ProcessEnv, SimDuration, SimTime,
};
use opc::client::{OpcClient, OpcEvent};
use opc::item::{ItemValue, Quality, Value};
use opc::server::{GroupId, OpcServerConfig, OpcServerProcess, ServerState, ServerStatus};
use parking_lot::Mutex;
use plant::ladder::LadderProgram;
use plant::plc::{Plc, TankPhysics};

/// Everything interesting the test client observed.
#[derive(Default)]
struct Observed {
    status: Option<ServerStatus>,
    reads: Vec<Vec<(String, ItemValue)>>,
    browse: Option<Vec<opc::address_space::BrowseEntry>>,
    group: Option<GroupId>,
    changes: Vec<Vec<(String, ItemValue)>>,
    failures: Vec<comsim::ComError>,
}

/// A scripted OPC client: browses, subscribes, then reads periodically.
struct TestClient {
    opc: OpcClient,
    observed: Arc<Mutex<Observed>>,
    read_items: Vec<String>,
}

const READ_TICK: u64 = 1;

impl Process for TestClient {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        self.opc.get_status(env).expect("marshal");
        self.opc.browse(env, "").expect("marshal");
        self.opc.add_group(env, "display", SimDuration::from_millis(500), 0.5).expect("marshal");
        env.set_timer(SimDuration::from_secs(1), READ_TICK);
    }

    fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
        if self.opc.owns_timer(token) {
            if let Some(event) = self.opc.handle_timer(token) {
                self.apply(event, env);
            }
            return;
        }
        if token == READ_TICK {
            let items: Vec<&str> = self.read_items.iter().map(|s| s.as_str()).collect();
            self.opc.read(env, &items).expect("marshal");
            env.set_timer(SimDuration::from_secs(1), READ_TICK);
        }
    }

    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        let event = self.opc.handle_message(envelope, env);
        self.apply(event, env);
    }
}

impl TestClient {
    fn apply(&mut self, event: OpcEvent, env: &mut dyn ProcessEnv) {
        let mut observed = self.observed.lock();
        match event {
            OpcEvent::Status(s) => observed.status = Some(s),
            OpcEvent::ReadComplete(values) => observed.reads.push(values),
            OpcEvent::BrowseComplete(entries) => observed.browse = Some(entries),
            OpcEvent::GroupAdded(id) => {
                observed.group = Some(id);
                drop(observed);
                let items: Vec<&str> = self.read_items.iter().map(|s| s.as_str()).collect();
                self.opc.add_items(env, id, &items).expect("marshal");
            }
            OpcEvent::DataChange { items, .. } => observed.changes.push(items),
            OpcEvent::Failed { error, .. } => observed.failures.push(error),
            _ => {}
        }
    }
}

struct Stack {
    cs: ClusterSim,
    plc_node: NodeId,
    server_node: NodeId,
    observed: Arc<Mutex<Observed>>,
}

fn build_stack(seed: u64) -> Stack {
    let mut cs = ClusterSim::new(seed);
    let plc_node = cs.add_node(NodeConfig { name: "plc".into(), ..Default::default() });
    let server_node =
        cs.add_node(NodeConfig { name: "industrial-pc".into(), ..Default::default() });
    let client_node = cs.add_node(NodeConfig { name: "monitor-pc".into(), ..Default::default() });
    cs.connect(plc_node, server_node, Link::single());
    cs.connect(server_node, client_node, Link::dual());
    cs.connect(plc_node, client_node, Link::single());

    cs.register_service(
        plc_node,
        "plc",
        Box::new(|| {
            Box::new(Plc::new(
                SimDuration::from_millis(100),
                LadderProgram::empty(),
                Box::new(TankPhysics::new("tank1", 42.0, 0.0)),
            ))
        }),
        true,
    );

    let plc_ep = Endpoint::new(plc_node, "plc");
    cs.register_service(
        server_node,
        "opc-server",
        Box::new(move || {
            Box::new(OpcServerProcess::spawn(OpcServerConfig {
                devices: vec![("plant.line1".to_string(), plc_ep.clone())],
                ..Default::default()
            }))
        }),
        true,
    );

    let observed = Arc::new(Mutex::new(Observed::default()));
    let o = observed.clone();
    let server_ep = Endpoint::new(server_node, "opc-server");
    cs.register_service(
        client_node,
        "opc-client",
        Box::new(move || {
            Box::new(TestClient {
                opc: OpcClient::new(server_ep.clone(), SimDuration::from_secs(2)),
                observed: o.clone(),
                read_items: vec!["plant.line1.tank1.level".to_string()],
            })
        }),
        false,
    );
    // Apps start after system services.
    cs.start_service_at(SimTime::from_secs(2), client_node, "opc-client");
    Stack { cs, plc_node, server_node, observed }
}

#[test]
fn full_stack_reads_and_browses() {
    let mut stack = build_stack(51);
    stack.cs.start();
    stack.cs.run_until(SimTime::from_secs(20));
    let observed = stack.observed.lock();

    let status = observed.status.as_ref().expect("GetStatus completed");
    assert_eq!(status.state, ServerState::Running);
    assert!(status.item_count >= 1);

    let browse = observed.browse.as_ref().expect("Browse completed");
    assert_eq!(browse.len(), 1);
    assert_eq!(browse[0].name, "plant");
    assert!(browse[0].is_branch);

    assert!(observed.reads.len() >= 10, "got {} reads", observed.reads.len());
    let last = observed.reads.last().unwrap();
    assert_eq!(last.len(), 1);
    let (name, value) = &last[0];
    assert_eq!(name, "plant.line1.tank1.level");
    assert!(value.quality.is_good());
    match &value.value {
        Value::R8(level) => assert!((0.0..=100.0).contains(level)),
        other => panic!("expected R8, got {other:?}"),
    }
    assert!(observed.failures.is_empty(), "unexpected failures: {:?}", observed.failures);
}

#[test]
fn subscriptions_push_changes_with_deadband() {
    let mut stack = build_stack(52);
    stack.cs.start();
    stack.cs.run_until(SimTime::from_secs(30));
    let observed = stack.observed.lock();
    assert!(observed.group.is_some(), "group added");
    // The tank drains (valve closed), so the level changes continuously and
    // pushes keep coming — but rate-limited by update_rate and deadband.
    assert!(
        observed.changes.len() >= 5,
        "expected a stream of OnDataChange pushes, got {}",
        observed.changes.len()
    );
    for change in &observed.changes {
        for (name, value) in change {
            assert_eq!(name, "plant.line1.tank1.level");
            assert!(value.quality.is_good());
        }
    }
}

#[test]
fn dead_plc_degrades_quality_instead_of_lying() {
    let mut stack = build_stack(53);
    let plc = stack.plc_node;
    inject(&mut stack.cs, SimTime::from_secs(10), Fault::CrashNode(plc));
    stack.cs.start();
    stack.cs.run_until(SimTime::from_secs(30));
    let observed = stack.observed.lock();
    let last = observed.reads.last().expect("reads continued");
    let (_, value) = &last[0];
    assert!(
        matches!(value.quality, Quality::Uncertain(_)),
        "stale device data must be flagged, got {}",
        value.quality
    );
}

#[test]
fn dead_server_surfaces_rpc_failures() {
    let mut stack = build_stack(54);
    let server = stack.server_node;
    inject(&mut stack.cs, SimTime::from_secs(10), Fault::KillService(server, "opc-server".into()));
    stack.cs.start();
    stack.cs.run_until(SimTime::from_secs(30));
    let observed = stack.observed.lock();
    assert!(
        !observed.failures.is_empty(),
        "reads against a dead server must fail (DCOM-style timeout)"
    );
    assert!(observed.failures.iter().all(|e| e.is_connectivity()));
}

#[test]
fn stack_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut stack = build_stack(seed);
        stack.cs.start();
        stack.cs.run_until(SimTime::from_secs(10));
        let observed = stack.observed.lock();
        format!("{:?}", observed.reads)
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99), run(100));
}

/// The write path: a client's `IOPCSyncIO::Write` lands in the PLC's IO
/// image and the new value comes back through subsequent reads.
#[test]
fn client_writes_reach_the_device() {
    use opc::item::Value;

    struct Writer {
        opc: OpcClient,
        observed: Arc<Mutex<Observed>>,
        wrote: bool,
    }
    impl Process for Writer {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            env.set_timer(SimDuration::from_secs(1), 1);
        }
        fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
            if self.opc.owns_timer(token) {
                let _ = self.opc.handle_timer(token);
                return;
            }
            if !self.wrote {
                self.wrote = true;
                self.opc
                    .write(env, &[("plant.line1.tank1.setpoint".to_string(), Value::R8(77.5))])
                    .expect("marshal");
            } else {
                self.opc.read(env, &["plant.line1.tank1.setpoint"]).expect("marshal");
            }
            env.set_timer(SimDuration::from_secs(1), 1);
        }
        fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
            match self.opc.handle_message(envelope, env) {
                OpcEvent::WriteComplete(results) => {
                    assert!(results.iter().all(|h| h.is_success()));
                }
                OpcEvent::ReadComplete(values) => self.observed.lock().reads.push(values),
                OpcEvent::Failed { error, .. } => self.observed.lock().failures.push(error),
                _ => {}
            }
        }
    }

    let mut cs = ClusterSim::new(61);
    let plc_node = cs.add_node(NodeConfig::default());
    let server_node = cs.add_node(NodeConfig::default());
    let client_node = cs.add_node(NodeConfig::default());
    cs.connect(plc_node, server_node, ds_net::link::Link::single());
    cs.connect(server_node, client_node, ds_net::link::Link::dual());
    cs.register_service(
        plc_node,
        "plc",
        Box::new(|| {
            Box::new(Plc::new(
                SimDuration::from_millis(100),
                LadderProgram::empty(),
                Box::new(TankPhysics::new("tank1", 42.0, 0.0)),
            ))
        }),
        true,
    );
    let plc_ep = Endpoint::new(plc_node, "plc");
    cs.register_service(
        server_node,
        "opc-server",
        Box::new(move || {
            Box::new(OpcServerProcess::spawn(OpcServerConfig {
                devices: vec![("plant.line1".to_string(), plc_ep.clone())],
                ..Default::default()
            }))
        }),
        true,
    );
    let observed = Arc::new(Mutex::new(Observed::default()));
    let o = observed.clone();
    let server_ep = Endpoint::new(server_node, "opc-server");
    cs.register_service(
        client_node,
        "writer",
        Box::new(move || {
            Box::new(Writer {
                opc: OpcClient::new(server_ep.clone(), SimDuration::from_secs(2)),
                observed: o.clone(),
                wrote: false,
            })
        }),
        false,
    );
    cs.start_service_at(SimTime::from_secs(2), client_node, "writer");
    cs.start();
    cs.run_until(SimTime::from_secs(15));
    let observed = observed.lock();
    assert!(observed.failures.is_empty(), "{:?}", observed.failures);
    let last = observed.reads.last().expect("reads happened");
    let (name, value) = &last[0];
    assert_eq!(name, "plant.line1.tank1.setpoint");
    assert!(value.quality.is_good(), "written tag polled back as good data");
    assert_eq!(value.value, Value::R8(77.5));
}

/// Group lifecycle: removing a group stops its pushes.
#[test]
fn remove_group_stops_pushes() {
    struct Canceller {
        opc: OpcClient,
        group: Option<GroupId>,
        changes: Arc<Mutex<u64>>,
        removed_at_count: Arc<Mutex<Option<u64>>>,
    }
    impl Process for Canceller {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            self.opc.add_group(env, "g", SimDuration::from_millis(500), 0.0).expect("marshal");
        }
        fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
            let _ = env;
            if self.opc.owns_timer(token) {
                let _ = self.opc.handle_timer(token);
            }
        }
        fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
            match self.opc.handle_message(envelope, env) {
                OpcEvent::GroupAdded(group) => {
                    self.group = Some(group);
                    self.opc.add_items(env, group, &["plant.line1.tank1.level"]).expect("marshal");
                }
                OpcEvent::DataChange { .. } => {
                    let changes = {
                        let mut changes = self.changes.lock();
                        *changes += 1;
                        *changes
                    };
                    // After five pushes, cancel the subscription.
                    if changes == 5 {
                        let group = self.group.expect("group added");
                        self.opc.remove_group(env, group).expect("marshal");
                        *self.removed_at_count.lock() = Some(changes);
                    }
                }
                _ => {}
            }
        }
    }

    let mut cs = ClusterSim::new(62);
    let plc_node = cs.add_node(NodeConfig::default());
    let server_node = cs.add_node(NodeConfig::default());
    let client_node = cs.add_node(NodeConfig::default());
    cs.connect(plc_node, server_node, ds_net::link::Link::single());
    cs.connect(server_node, client_node, ds_net::link::Link::dual());
    cs.register_service(
        plc_node,
        "plc",
        Box::new(|| {
            Box::new(Plc::new(
                SimDuration::from_millis(100),
                LadderProgram::empty(),
                Box::new(TankPhysics::new("tank1", 20.0, 0.0)),
            ))
        }),
        true,
    );
    let plc_ep = Endpoint::new(plc_node, "plc");
    cs.register_service(
        server_node,
        "opc-server",
        Box::new(move || {
            Box::new(OpcServerProcess::spawn(OpcServerConfig {
                devices: vec![("plant.line1".to_string(), plc_ep.clone())],
                ..Default::default()
            }))
        }),
        true,
    );
    let changes = Arc::new(Mutex::new(0));
    let removed = Arc::new(Mutex::new(None));
    let (c, r) = (changes.clone(), removed.clone());
    let server_ep = Endpoint::new(server_node, "opc-server");
    cs.register_service(
        client_node,
        "canceller",
        Box::new(move || {
            Box::new(Canceller {
                opc: OpcClient::new(server_ep.clone(), SimDuration::from_secs(2)),
                group: None,
                changes: c.clone(),
                removed_at_count: r.clone(),
            })
        }),
        false,
    );
    cs.start_service_at(SimTime::from_secs(2), client_node, "canceller");
    cs.start();
    cs.run_until(SimTime::from_secs(60));
    assert_eq!(*removed.lock(), Some(5), "subscription was cancelled after 5 pushes");
    // A couple of in-flight pushes may still land; the stream must stop.
    assert!(*changes.lock() <= 7, "pushes stopped after RemoveGroup: {}", changes.lock());
}

/// The async read path (`IOPCAsyncIO2`): acceptance comes back on the RPC,
/// the data arrives later as an `OnReadComplete` callback.
#[test]
fn async_read_completes_via_callback() {
    struct AsyncReader {
        opc: OpcClient,
        accepted: Arc<Mutex<Vec<u32>>>,
        completed: Arc<Mutex<Vec<(u32, f64)>>>,
        sent: bool,
    }
    impl Process for AsyncReader {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            env.set_timer(SimDuration::from_secs(2), 1);
        }
        fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
            if self.opc.owns_timer(token) {
                let _ = self.opc.handle_timer(token);
                return;
            }
            if !self.sent {
                self.sent = true;
                self.opc.async_read(env, 42, &["plant.line1.tank1.level"]).expect("marshal");
            }
        }
        fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
            match self.opc.handle_message(envelope, env) {
                OpcEvent::AsyncReadAccepted { transaction_id } => {
                    self.accepted.lock().push(transaction_id);
                }
                OpcEvent::AsyncReadComplete { transaction_id, items } => {
                    for (_, value) in items {
                        self.completed.lock().push((transaction_id, value.value.as_f64()));
                    }
                }
                _ => {}
            }
        }
    }

    let mut stack = build_stack(55);
    let accepted = Arc::new(Mutex::new(Vec::new()));
    let completed = Arc::new(Mutex::new(Vec::new()));
    let (a, c) = (accepted.clone(), completed.clone());
    let server_ep = Endpoint::new(stack.server_node, "opc-server");
    stack.cs.register_service(
        stack.server_node, // reuse any node with connectivity; client here
        "async-reader",
        Box::new(move || {
            Box::new(AsyncReader {
                opc: OpcClient::new(server_ep.clone(), SimDuration::from_secs(2)),
                accepted: a.clone(),
                completed: c.clone(),
                sent: false,
            })
        }),
        true,
    );
    stack.cs.start();
    stack.cs.run_until(SimTime::from_secs(10));
    assert_eq!(*accepted.lock(), vec![42], "acceptance came back on the RPC");
    let completed = completed.lock();
    assert_eq!(completed.len(), 1, "exactly one completion callback");
    let (txn, level) = completed[0];
    assert_eq!(txn, 42);
    assert!((0.0..=100.0).contains(&level));
}
