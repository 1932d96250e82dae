//! [`WireNet`]: the node runtime that hosts OFTT actors over TCP.
//!
//! One `WireNet` per OS process hosts the services of **one node**. It
//! is [`ds_net::live::LiveNet`] — the one actor host: same actor loop,
//! same mailbox semantics, same drop accounting, reached through `Deref`
//! — with the host's off-node seam plugged into a [`Supervisor`]:
//! envelopes addressed to another node are encoded by the [`WireCodec`]
//! and queued on the supervisor's link to that peer. Only what is about
//! sockets lives here. The actors cannot tell which backend they are on
//! — that is the point.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use comsim::pool::PoolStats;
use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::live::{ActorHost, LiveNet};
use ds_net::message::Envelope;
use ds_net::transport::{PeerHealth, TransportEvent, TransportReport, WIRE_SERVICE};
use ds_sim::prelude::TraceCategory;
use parking_lot::{Mutex, RwLock};

use crate::codec::WireCodec;
use crate::supervisor::{Supervisor, WireConfig, WireHandler};

/// The socket side of the runtime, shared by the host's seam, the
/// supervisor's handler and the reporter thread.
struct WireShared {
    node: NodeId,
    peers: HashSet<NodeId>,
    unroutable: AtomicU64,
    event_subs: Mutex<Vec<Endpoint>>,
    supervisor: RwLock<Option<Supervisor>>,
    shutting_down: AtomicBool,
}

impl WireShared {
    /// The host's off-node seam: queue on the link to the envelope's
    /// node, or count and trace it if no such link is configured.
    fn route_off_node(&self, host: &ActorHost, envelope: Envelope) {
        if !self.peers.contains(&envelope.to.node) {
            self.unroutable.fetch_add(1, Ordering::Relaxed);
            host.record(
                TraceCategory::Net,
                format!(
                    "wire drop {} -> {}: node {} has no configured link",
                    envelope.from, envelope.to, envelope.to.node
                ),
            );
            return;
        }
        let supervisor = self.supervisor.read();
        if let Some(sup) = supervisor.as_ref() {
            sup.send_envelope(envelope.to.node, &envelope);
        }
    }
}

/// What the supervisor's reactor threads call back into.
struct Inbound {
    host: Arc<ActorHost>,
    shared: Arc<WireShared>,
}

impl WireHandler for Inbound {
    fn deliver(&self, envelope: Envelope) {
        self.host.deliver_local(envelope);
    }

    fn peer_event(&self, event: TransportEvent) {
        let subs = self.shared.event_subs.lock().clone();
        let from = Endpoint::new(self.shared.node, WIRE_SERVICE);
        for to in subs {
            self.host.deliver_local(Envelope::new(from.clone(), to, event));
        }
    }

    fn record(&self, category: TraceCategory, message: String) {
        self.host.record(category, message);
    }
}

/// A TCP-backed node runtime hosting [`Process`] actors. Registering,
/// starting, killing, posting to and tracing them are [`LiveNet`]'s
/// methods.
///
/// [`Process`]: ds_net::process::Process
pub struct WireNet {
    net: LiveNet,
    shared: Arc<WireShared>,
    reporters: Vec<JoinHandle<()>>,
}

impl Deref for WireNet {
    type Target = LiveNet;
    fn deref(&self) -> &LiveNet {
        &self.net
    }
}

impl DerefMut for WireNet {
    fn deref_mut(&mut self) -> &mut LiveNet {
        &mut self.net
    }
}

impl WireNet {
    /// Starts the socket layer (binds the listener, begins dialing
    /// peers) and returns the runtime. Actors are registered and started
    /// afterwards, like on the other backends.
    pub fn new(seed: u64, config: WireConfig, codec: Arc<WireCodec>) -> std::io::Result<Self> {
        let shared = Arc::new(WireShared {
            node: config.node,
            peers: config.peers.iter().map(|(peer, _)| *peer).collect(),
            unroutable: AtomicU64::new(0),
            event_subs: Mutex::new(Vec::new()),
            supervisor: RwLock::new(None),
            shutting_down: AtomicBool::new(false),
        });
        let seam = Arc::clone(&shared);
        let net = LiveNet::with_off_node(
            seed,
            config.node,
            Box::new(move |host, envelope| seam.route_off_node(host, envelope)),
        );
        let handler =
            Arc::new(Inbound { host: Arc::clone(net.host()), shared: Arc::clone(&shared) });
        let supervisor = Supervisor::start(config, codec, handler)?;
        *shared.supervisor.write() = Some(supervisor);
        Ok(WireNet { net, shared, reporters: Vec::new() })
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.shared.node
    }

    /// The bound listen address (resolves port 0).
    pub fn listen_addr(&self) -> Option<SocketAddr> {
        self.shared.supervisor.read().as_ref().map(|s| s.local_addr())
    }

    /// Envelopes dropped because their destination node has no link.
    pub fn unroutable_count(&self) -> u64 {
        self.shared.unroutable.load(Ordering::Relaxed)
    }

    /// Per-peer link health from the supervisor.
    pub fn health(&self) -> Vec<PeerHealth> {
        self.shared.supervisor.read().as_ref().map(|s| s.health()).unwrap_or_default()
    }

    /// `true` if a handshaken connection to `peer` is currently up.
    pub fn connected(&self, peer: NodeId) -> bool {
        self.shared.supervisor.read().as_ref().map(|s| s.connected(peer)).unwrap_or(false)
    }

    /// Frames received from an abandoned connection epoch and dropped.
    pub fn stale_in(&self, peer: NodeId) -> u64 {
        self.shared.supervisor.read().as_ref().map(|s| s.stale_in(peer)).unwrap_or(0)
    }

    /// The fixed reactor thread count serving every connection (O(1) in
    /// the number of peers).
    pub fn io_threads(&self) -> usize {
        self.shared.supervisor.read().as_ref().map_or(0, |s| s.io_threads())
    }

    /// Encode-path buffer pool counters from the supervisor.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.shared.supervisor.read().as_ref().map(|s| s.pool_stats())
    }

    /// Subscribes a **local** service to [`TransportEvent`]s (delivered
    /// as ordinary envelopes from `<node>/`[`WIRE_SERVICE`]).
    pub fn subscribe_transport_events(&mut self, endpoint: Endpoint) {
        self.shared.event_subs.lock().push(endpoint);
    }

    /// Spawns a thread that periodically routes a [`TransportReport`] to
    /// `monitor` (which may live on a peer node).
    pub fn start_transport_reporter(&mut self, monitor: Endpoint, period: Duration) {
        let shared = Arc::clone(&self.shared);
        let host = Arc::clone(self.net.host());
        self.reporters.push(std::thread::spawn(move || loop {
            let mut slept = Duration::ZERO;
            while slept < period {
                if shared.shutting_down.load(Ordering::Relaxed) {
                    return;
                }
                let slice = Duration::from_millis(50).min(period - slept);
                std::thread::sleep(slice);
                slept += slice;
            }
            let peers = {
                let sup = shared.supervisor.read();
                match sup.as_ref() {
                    Some(s) => s.health(),
                    None => return,
                }
            };
            let report = TransportReport { node: shared.node, peers, at: host.now() };
            let from = Endpoint::new(shared.node, WIRE_SERVICE);
            host.route(Envelope::new(from, monitor.clone(), report));
        }));
    }

    /// Stops every service, the reporter, and the socket layer.
    pub fn shutdown(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.net.shutdown();
        for reporter in self.reporters.drain(..) {
            let _ = reporter.join();
        }
        // Taking the supervisor out breaks the ActorHost -> WireShared ->
        // Supervisor -> Inbound -> ActorHost Arc cycle and joins the
        // socket threads.
        let supervisor = self.shared.supervisor.write().take();
        if let Some(sup) = supervisor {
            sup.shutdown();
        }
    }
}

impl Drop for WireNet {
    fn drop(&mut self) {
        self.shutdown();
    }
}
