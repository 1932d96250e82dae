//! The socket runtime, exercised in-process: two [`WireNet`]s on
//! loopback are two genuinely separate runtimes — separate mailboxes,
//! separate clocks, separate trace — connected only by TCP. The same
//! engine/FTIM/application code that runs on the simulator and the
//! thread runtime runs here unchanged.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use comsim::buf::Bytes;
use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::live::LiveNet;
use ds_net::message::Envelope;
use ds_net::process::{Process, ProcessEnv, ProcessEnvExt};
use oftt::config::{engine_endpoint, OfttConfig, Pair, RecoveryRule};
use oftt::engine::{Engine, EngineProbe};
use oftt::ftim::{FtProcess, FtimProbe};
use oftt::role::Role;
use oftt_wire::app::{LoadApp, LoadConfig, LoadView};
use oftt_wire::codec::{WireCodec, WirePing};
use oftt_wire::fault::FaultProxy;
use oftt_wire::harness::free_port;
use oftt_wire::runtime::WireNet;
use oftt_wire::supervisor::WireConfig;
use parking_lot::Mutex;

fn wait_for(cond: impl Fn() -> bool, timeout: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

fn wire_config(node: NodeId, listen_port: u16, peer: NodeId, peer_addr: &str) -> WireConfig {
    let mut config = WireConfig::loopback(node);
    config.listen = format!("127.0.0.1:{listen_port}");
    config.peers = vec![(peer, peer_addr.to_string())];
    config.seed = 100 + u64::from(node.0);
    config
}

/// Sends `WirePing` volleys and records every echo it gets back.
struct Pinger {
    target: Endpoint,
    limit: u64,
    seen: Arc<Mutex<Vec<u64>>>,
}

impl Process for Pinger {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        env.send_msg(self.target.clone(), WirePing { seq: 0, pad: Bytes::from(vec![0xCD; 256]) });
    }
    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        if let Some(ping) = envelope.body.downcast_ref::<WirePing>() {
            self.seen.lock().push(ping.seq);
            if ping.seq + 1 < self.limit {
                env.send_msg(
                    self.target.clone(),
                    WirePing { seq: ping.seq + 1, pad: Bytes::from(vec![0xCD; 256]) },
                );
            }
        }
    }
}

/// Echoes every ping straight back to its sender.
struct Echo;

impl Process for Echo {
    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        if let Some(ping) = envelope.body.downcast_ref::<WirePing>() {
            env.send_msg(envelope.from.clone(), ping.clone());
        }
    }
}

#[test]
fn ping_pong_crosses_real_sockets_both_ways() {
    let (na, nb) = (NodeId(0), NodeId(1));
    let (port_a, port_b) = (free_port(), free_port());
    let codec = Arc::new(WireCodec::standard());
    let mut a = WireNet::new(
        1,
        wire_config(na, port_a, nb, &format!("127.0.0.1:{port_b}")),
        Arc::clone(&codec),
    )
    .expect("net a");
    let mut b = WireNet::new(2, wire_config(nb, port_b, na, &format!("127.0.0.1:{port_a}")), codec)
        .expect("net b");

    let seen = Arc::new(Mutex::new(Vec::new()));
    {
        let seen = Arc::clone(&seen);
        let target = Endpoint::new(nb, "echo");
        a.register(
            Endpoint::new(na, "pinger"),
            Box::new(move || {
                Box::new(Pinger { target: target.clone(), limit: 50, seen: seen.clone() })
            }),
        );
    }
    b.register(Endpoint::new(nb, "echo"), Box::new(|| Box::new(Echo)));

    assert!(
        wait_for(|| a.connected(nb) && b.connected(na), Duration::from_secs(5)),
        "link must come up both ways"
    );
    b.start(&Endpoint::new(nb, "echo"));
    a.start(&Endpoint::new(na, "pinger"));

    assert!(
        wait_for(|| seen.lock().len() >= 50, Duration::from_secs(10)),
        "50 round trips must complete, saw {}",
        seen.lock().len()
    );
    let seen = seen.lock().clone();
    assert_eq!(&seen[..50], &(0..50).collect::<Vec<u64>>()[..], "echoes arrive in order");

    // The counters saw real traffic in both directions.
    let health_a = a.health();
    assert_eq!(health_a.len(), 1);
    assert!(health_a[0].bytes_out > 0 && health_a[0].bytes_in > 0);
    assert_eq!(a.dropped_count(), 0, "nothing silently dropped on a");
    assert_eq!(b.dropped_count(), 0, "nothing silently dropped on b");

    a.shutdown();
    b.shutdown();
}

struct OfttNode {
    net: WireNet,
    probe: Arc<Mutex<EngineProbe>>,
    view: Arc<Mutex<LoadView>>,
}

fn oftt_node(node: NodeId, listen_port: u16, peer: NodeId, peer_port: u16) -> OfttNode {
    let mut config = OfttConfig::new(Pair::new(node.min(peer), node.max(peer)));
    config.heartbeat_period = ds_sim::prelude::SimDuration::from_millis(50);
    config.component_timeout = ds_sim::prelude::SimDuration::from_millis(400);
    config.peer_timeout = ds_sim::prelude::SimDuration::from_millis(400);
    config.fail_safe_timeout = ds_sim::prelude::SimDuration::from_millis(250);
    config.checkpoint_period = ds_sim::prelude::SimDuration::from_millis(100);
    config.startup_timeout = ds_sim::prelude::SimDuration::from_millis(500);

    let mut net = WireNet::new(
        u64::from(node.0) + 10,
        wire_config(node, listen_port, peer, &format!("127.0.0.1:{peer_port}")),
        Arc::new(WireCodec::standard()),
    )
    .expect("wire net");

    let probe = Arc::new(Mutex::new(EngineProbe::default()));
    {
        let engine_config = config.clone();
        let probe = Arc::clone(&probe);
        net.register(
            engine_endpoint(node),
            Box::new(move || Box::new(Engine::new(engine_config.clone(), probe.clone()))),
        );
    }
    let view = Arc::new(Mutex::new(LoadView::default()));
    {
        let view = Arc::clone(&view);
        let ftim = Arc::new(Mutex::new(FtimProbe::default()));
        let load = LoadConfig {
            vars: 32,
            var_bytes: 32,
            dirty_per_tick: 2,
            tick_period: Duration::from_millis(10),
        };
        net.register(
            Endpoint::new(node, "app"),
            Box::new(move || {
                Box::new(FtProcess::new(
                    config.clone(),
                    RecoveryRule::LocalRestart { max_attempts: 1 },
                    LoadApp::new(load, view.clone()),
                    ftim.clone(),
                ))
            }),
        );
    }
    net.start(&engine_endpoint(node));
    net.start(&Endpoint::new(node, "app"));
    OfttNode { net, probe, view }
}

/// The headline property: the unchanged OFTT pair forms over TCP, the
/// active application advances, and killing the whole primary runtime
/// (sockets and all) moves the application to the backup with its
/// checkpointed state intact.
#[test]
fn oftt_pair_forms_and_fails_over_across_sockets() {
    let (na, nb) = (NodeId(0), NodeId(1));
    let (port_a, port_b) = (free_port(), free_port());
    let mut nodes = [oftt_node(na, port_a, nb, port_b), oftt_node(nb, port_b, na, port_a)];

    assert!(
        wait_for(
            || {
                let roles: Vec<_> = nodes.iter().map(|n| n.probe.lock().current_role()).collect();
                matches!(
                    (roles[0], roles[1]),
                    (Some(Role::Primary), Some(Role::Backup))
                        | (Some(Role::Backup), Some(Role::Primary))
                )
            },
            Duration::from_secs(10)
        ),
        "pair must form one primary + one backup over TCP"
    );
    let primary_idx = usize::from(nodes[0].probe.lock().current_role() != Some(Role::Primary));
    let backup_idx = 1 - primary_idx;

    // The active copy ticks; checkpoints accumulate real state.
    assert!(
        wait_for(|| nodes[primary_idx].view.lock().ticks > 20, Duration::from_secs(10)),
        "active application must advance"
    );
    let ticks_before = nodes[primary_idx].view.lock().ticks;

    // Node death: tear the whole primary runtime down, sockets included.
    nodes[primary_idx].net.shutdown();

    assert!(
        wait_for(
            || nodes[backup_idx].probe.lock().current_role() == Some(Role::Primary),
            Duration::from_secs(5)
        ),
        "backup must promote itself after the primary dies"
    );
    assert!(
        wait_for(
            || {
                let view = nodes[backup_idx].view.lock();
                view.active && view.ticks >= ticks_before.saturating_sub(15)
            },
            Duration::from_secs(10)
        ),
        "application must resume near the pre-crash state (got {:?}, wanted ~{ticks_before})",
        *nodes[backup_idx].view.lock()
    );
    assert!(
        nodes[backup_idx].view.lock().restores >= 1,
        "takeover must restore from a shipped checkpoint"
    );
    nodes[backup_idx].net.shutdown();
}

/// A partition injected by the fault proxy tears the link down; healing
/// brings it back on a *new* epoch, and traffic resumes. Reconnects are
/// visible in the health counters.
#[test]
fn partition_and_heal_reconnects_with_a_fresh_epoch() {
    let (na, nb) = (NodeId(0), NodeId(1));
    let (port_a, port_b) = (free_port(), free_port());
    let codec = Arc::new(WireCodec::standard());

    // B is reachable for A only through the proxy; B itself dials a dead
    // address so the proxied connection is the only possible path.
    let mut b = WireNet::new(2, wire_config(nb, port_b, na, "127.0.0.1:1"), Arc::clone(&codec))
        .expect("net b");
    let proxy =
        FaultProxy::start("127.0.0.1:0", format!("127.0.0.1:{port_b}").parse().unwrap(), 77)
            .expect("proxy");
    let mut a = WireNet::new(1, wire_config(na, port_a, nb, &proxy.addr().to_string()), codec)
        .expect("net a");

    let got = Arc::new(Mutex::new(Vec::<String>::new()));
    {
        let got = Arc::clone(&got);
        struct Sink(Arc<Mutex<Vec<String>>>);
        impl Process for Sink {
            fn on_message(&mut self, envelope: Envelope, _env: &mut dyn ProcessEnv) {
                if let Some(s) = envelope.body.downcast_ref::<String>() {
                    self.0.lock().push(s.clone());
                }
            }
        }
        b.register(Endpoint::new(nb, "sink"), Box::new(move || Box::new(Sink(got.clone()))));
    }
    b.start(&Endpoint::new(nb, "sink"));

    assert!(
        wait_for(|| a.connected(nb), Duration::from_secs(5)),
        "link must form through the proxy"
    );
    let epoch_before = a.health()[0].epoch;
    a.post(Endpoint::new(nb, "sink"), "before".to_string());
    assert!(wait_for(|| !got.lock().is_empty(), Duration::from_secs(5)));

    proxy.partition();
    assert!(
        wait_for(|| !a.connected(nb), Duration::from_secs(10)),
        "partition must tear the link down"
    );

    proxy.heal();
    assert!(wait_for(|| a.connected(nb), Duration::from_secs(15)), "healed link must reconnect");
    let health = a.health();
    assert!(health[0].reconnects >= 1, "reconnect must be counted: {health:?}");
    assert!(health[0].epoch > epoch_before, "a reconnect runs on a fresh epoch");

    a.post(Endpoint::new(nb, "sink"), "after".to_string());
    assert!(
        wait_for(|| got.lock().iter().any(|s| s == "after"), Duration::from_secs(5)),
        "traffic must flow again after heal"
    );

    a.shutdown();
    b.shutdown();
    proxy.shutdown();
}

/// The first incarnation parks inside `on_message` between two barrier
/// waits; later ones forward what they are sent. Every incarnation says
/// so when it is dropped, which `run_actor` does only after it has
/// reported its exit to the host.
struct Lingerer {
    first: bool,
    gate: Arc<Barrier>,
    seen: mpsc::Sender<u32>,
    gone: mpsc::Sender<bool>,
}

impl Process for Lingerer {
    fn on_message(&mut self, envelope: Envelope, _env: &mut dyn ProcessEnv) {
        if self.first {
            self.gate.wait();
            self.gate.wait();
        } else if let Ok(n) = envelope.body.downcast::<u32>() {
            let _ = self.seen.send(n);
        }
    }
}

impl Drop for Lingerer {
    fn drop(&mut self) {
        let _ = self.gone.send(self.first);
    }
}

/// The generation tag: a killed actor that is slow to leave `on_message`
/// exits after its successor registered, and must not retire the
/// successor's mailbox.
fn late_exit_of_a_killed_actor_spares_its_successor(net: &mut LiveNet) {
    let ep = Endpoint::new(NodeId(0), "lingerer");
    let gate = Arc::new(Barrier::new(2));
    let (seen_tx, seen) = mpsc::channel();
    let (gone_tx, gone) = mpsc::channel();
    let spawned = AtomicU32::new(0);
    let actor_gate = Arc::clone(&gate);
    net.register(
        ep.clone(),
        Box::new(move || {
            Box::new(Lingerer {
                first: spawned.fetch_add(1, Ordering::SeqCst) == 0,
                gate: Arc::clone(&actor_gate),
                seen: seen_tx.clone(),
                gone: gone_tx.clone(),
            })
        }),
    );
    net.start(&ep);
    net.post(ep.clone(), 0u32);
    gate.wait(); // the first incarnation is inside on_message
    net.kill(&ep);
    net.start(&ep);
    gate.wait(); // let it out: it finds the kill and exits
    assert_eq!(gone.recv_timeout(Duration::from_secs(5)), Ok(true), "first incarnation exits");
    assert!(net.is_running(&ep), "the late exit retired its successor's mailbox");
    net.post(ep.clone(), 7u32);
    assert_eq!(seen.recv_timeout(Duration::from_secs(5)), Ok(7), "successor still reachable");
    assert_eq!(net.dropped_count(), 0);
}

#[test]
fn generation_tag_protects_a_restarted_actor_on_both_runtimes() {
    late_exit_of_a_killed_actor_spares_its_successor(&mut LiveNet::new(1));
    let codec = Arc::new(WireCodec::standard());
    let mut peerless = WireNet::new(1, WireConfig::loopback(NodeId(0)), codec).expect("wire net");
    late_exit_of_a_killed_actor_spares_its_successor(&mut peerless);
}
