//! Per-peer connection supervision: dialing, accepting, handshakes,
//! reconnect backoff, write queues, and teardown — layered as
//! per-connection state machines over the [`Reactor`].
//!
//! One [`Supervisor`] owns every TCP concern of a node:
//!
//! - **Dial/accept race**: both sides dial. When two live connections for
//!   the same link collide, the one *initiated by the lower node id*
//!   wins and the other is closed — deterministic, no extra round trip.
//! - **Reconnect**: capped exponential backoff with jitter (so a
//!   restarted pair does not thundering-herd in lockstep).
//! - **Backpressure**: each link has a bounded write queue. When full,
//!   the oldest queued *heartbeat* is shed first (a late heartbeat is
//!   worse than none); only then the oldest data frame. Heartbeats are
//!   never queued across a disconnect at all.
//! - **Epochs**: every connection gets a fresh epoch on each side,
//!   exchanged in the handshake and stamped on every frame. A receiver
//!   drops frames from any epoch but the current one, and teardown
//!   purges the write queue — a reconnect can never resurrect a frame
//!   from a dead connection.
//!
//! The I/O itself is the reactor's: a fixed [`WireConfig::io_threads`]
//! threads serve every connection, so a node monitoring a thousand
//! applications costs the same thread count as a bare pair. Outbound
//! frames sit in each link's own queue, under the same lock as the
//! link's status, are pulled by the owning reactor thread in batches,
//! stamped with the connection's epoch at pull time, and leave in
//! coalesced vectored writes; frame buffers cycle through a [`BufPool`]
//! instead of the allocator.
//!
//! The supervisor is runtime-agnostic: it hands decoded envelopes and
//! link events to a [`WireHandler`] and knows nothing about actors.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use comsim::pool::{BufPool, PoolStats};
use ds_net::endpoint::NodeId;
use ds_net::message::Envelope;
use ds_net::transport::{LinkState, PeerHealth, TransportEvent};
use ds_sim::prelude::{SimDuration, SimRng, TraceCategory};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use crate::codec::{FramePayload, WireCodec};
use crate::frame::{
    read_frame, write_frame, Frame, FrameClass, OutFrame, DEFAULT_MAX_FRAME_BYTES, HEADER_LEN,
};
use crate::reactor::{ConnId, Directive, Reactor, ReactorHandler, StampedFrame};

use conn_state::{AwaitHello, Established};

/// Frames a reactor thread pulls from a link queue per refill.
const PULL_BATCH: usize = 128;

/// Socket-layer configuration for one node.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// This node's id.
    pub node: NodeId,
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Peer node ids and their listen addresses.
    pub peers: Vec<(NodeId, String)>,
    /// Receive-side cap on meta + body length.
    pub max_frame: u32,
    /// Write-queue bound per link, in frames.
    pub queue_limit: usize,
    /// First reconnect delay.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// TCP connect timeout per dial attempt.
    pub connect_timeout: Duration,
    /// Read timeout while waiting for the peer's handshake.
    pub handshake_timeout: Duration,
    /// Seed for backoff jitter.
    pub seed: u64,
    /// Reactor threads serving all connections (O(1) in connections).
    pub io_threads: usize,
    /// Accept handshakes from node ids not listed in `peers`, creating
    /// accept-only links on the fly. Off for a fixed OFTT pair; on for a
    /// node serving a fleet of monitored applications.
    pub accept_unknown: bool,
}

impl WireConfig {
    /// A loopback config for `node` with no peers yet.
    pub fn loopback(node: NodeId) -> Self {
        WireConfig {
            node,
            listen: "127.0.0.1:0".into(),
            peers: Vec::new(),
            max_frame: DEFAULT_MAX_FRAME_BYTES,
            queue_limit: 1024,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
            handshake_timeout: Duration::from_secs(2),
            seed: 1,
            io_threads: 2,
            accept_unknown: false,
        }
    }
}

/// What the supervisor needs from its hosting runtime.
pub trait WireHandler: Send + Sync {
    /// A decoded envelope arrived from a peer.
    fn deliver(&self, envelope: Envelope);
    /// A link changed state.
    fn peer_event(&self, event: TransportEvent);
    /// Trace a transport-level occurrence.
    fn record(&self, category: TraceCategory, message: String);
}

/// Handshake meta block: who is dialing/answering.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct Hello {
    pub(crate) node: NodeId,
}

/// The connection currently carrying a link.
#[derive(Clone, Copy)]
struct CurrentConn {
    id: ConnId,
    /// Who initiated it (race-resolution key).
    dialed_by: NodeId,
}

/// A link's state and its write queue, under one lock: every status
/// check and the queue operation it guards are one critical section, and
/// no other lock is ever taken while this one is held.
struct LinkInner {
    status: LinkState,
    conn: Option<CurrentConn>,
    next_epoch: u32,
    /// Epoch of the current (or most recent) connection, for health rows.
    epoch: u32,
    /// Outbound frames, oldest first.
    queue: VecDeque<OutFrame>,
}

struct Link {
    peer: NodeId,
    /// Dial address; `None` for accept-only links (the peer dials us).
    addr: Option<String>,
    inner: Mutex<LinkInner>,
    /// Set while a flush command is in flight to the reactor, so a burst
    /// of sends costs one wakeup, not one per frame.
    flush_armed: AtomicBool,
    installs: AtomicU64,
    reconnects: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    dropped_heartbeats: AtomicU64,
    dropped_frames: AtomicU64,
    purged: AtomicU64,
    stale_in: AtomicU64,
}

impl Link {
    fn new(peer: NodeId, addr: Option<String>) -> Self {
        Link {
            peer,
            addr,
            inner: Mutex::new(LinkInner {
                status: LinkState::Connecting,
                conn: None,
                next_epoch: 1,
                epoch: 0,
                queue: VecDeque::new(),
            }),
            flush_armed: AtomicBool::new(false),
            installs: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            dropped_heartbeats: AtomicU64::new(0),
            dropped_frames: AtomicU64::new(0),
            purged: AtomicU64::new(0),
            stale_in: AtomicU64::new(0),
        }
    }
}

/// The two states of a connection as a consuming typestate. Their fields
/// are private to this module, so the supervisor cannot write either
/// state as a struct literal: an accepted socket starts in
/// [`AwaitHello::accepted`], a dialed socket is born
/// [`Established::dialed`] (the dialer has already completed the
/// handshake inline), and the only other way to an [`Established`] is
/// [`AwaitHello::established`], which takes the waiting state by value —
/// a promotion needs an `AwaitHello` in hand and spends it.
mod conn_state {
    use std::sync::Arc;
    use std::time::Instant;

    use super::Link;
    use crate::frame::OutFrame;

    /// Accepted; waiting for the dialer's hello.
    pub(super) struct AwaitHello {
        deadline: Instant,
    }

    impl AwaitHello {
        pub(super) fn accepted(deadline: Instant) -> Self {
            AwaitHello { deadline }
        }

        /// The hello did not arrive in time.
        pub(super) fn expired(&self, now: Instant) -> bool {
            self.deadline <= now
        }

        /// The hello arrived and the link accepted the connection; `reply`
        /// is our half of the handshake, bound to this connection.
        pub(super) fn established(
            self,
            link: Arc<Link>,
            my_epoch: u32,
            peer_epoch: u32,
            reply: OutFrame,
        ) -> Established {
            Established { link, my_epoch, peer_epoch, pending: vec![reply] }
        }
    }

    /// Handshaken and installed (or superseded but not yet closed).
    pub(super) struct Established {
        link: Arc<Link>,
        my_epoch: u32,
        peer_epoch: u32,
        /// Frames bound to this connection specifically (the handshake
        /// reply), served before the link queue.
        pending: Vec<OutFrame>,
    }

    impl Established {
        pub(super) fn dialed(link: Arc<Link>, my_epoch: u32, peer_epoch: u32) -> Self {
            Established { link, my_epoch, peer_epoch, pending: Vec::new() }
        }

        pub(super) fn link(&self) -> &Arc<Link> {
            &self.link
        }

        pub(super) fn my_epoch(&self) -> u32 {
            self.my_epoch
        }

        pub(super) fn peer_epoch(&self) -> u32 {
            self.peer_epoch
        }

        /// Hands out the connection-bound frames, leaving none behind.
        pub(super) fn take_pending(&mut self) -> std::vec::Drain<'_, OutFrame> {
            self.pending.drain(..)
        }

        /// Teardown: the link and whatever was still pending.
        pub(super) fn into_parts(self) -> (Arc<Link>, Vec<OutFrame>) {
            (self.link, self.pending)
        }
    }
}

/// Per-connection protocol state, keyed by reactor [`ConnId`].
enum ConnCtx {
    AwaitHello(AwaitHello),
    Established(Established),
}

struct Shared {
    config: WireConfig,
    codec: Arc<WireCodec>,
    handler: Arc<dyn WireHandler>,
    /// Configured peers plus (with `accept_unknown`) links created at
    /// accept time.
    links: RwLock<HashMap<NodeId, Arc<Link>>>,
    /// Protocol state per live connection.
    conns: Mutex<HashMap<ConnId, ConnCtx>>,
    /// One arena for both directions: the encode path draws meta/head
    /// buffers here and the reactor's frame assemblers stage inbound
    /// payloads from the same shelves.
    pool: Arc<BufPool>,
    reactor: OnceLock<Arc<Reactor>>,
    listen_addr: SocketAddr,
    shutdown: AtomicBool,
    /// Dialer parking lot: woken on teardown for immediate redial.
    dial_mu: StdMutex<()>,
    dial_cv: Condvar,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Outcome of installing a handshaken connection on a link.
enum Install {
    Won { reconnect: bool },
    LostRace,
}

impl Shared {
    fn trace(&self, message: String) {
        self.handler.record(TraceCategory::Net, message);
    }

    fn link_for(&self, peer: NodeId) -> Option<Arc<Link>> {
        self.links.read().get(&peer).cloned()
    }

    fn reactor(&self) -> Option<&Arc<Reactor>> {
        self.reactor.get()
    }

    fn wake_dialer(&self) {
        let _guard = self.dial_mu.lock().unwrap_or_else(|e| e.into_inner());
        self.dial_cv.notify_all();
    }

    fn recycle_frame(&self, frame: OutFrame) {
        self.pool.give(frame.meta);
        self.pool.give(frame.head);
    }

    /// Installs a handshaken connection, resolving dial/accept races:
    /// the connection initiated by the lower node id wins. The loser of
    /// a race (existing or new) is closed via the reactor.
    fn install(&self, link: &Link, conn: ConnId, dialed_by: NodeId, my_epoch: u32) -> Install {
        let preferred = self.config.node.min(link.peer);
        let superseded = {
            let mut inner = link.inner.lock();
            let old = match inner.conn {
                Some(existing) if existing.dialed_by != dialed_by && dialed_by != preferred => {
                    // The established connection is (or will be) the
                    // preferred one; the newcomer loses quietly.
                    return Install::LostRace;
                }
                Some(existing) => Some(existing.id),
                None => None,
            };
            inner.conn = Some(CurrentConn { id: conn, dialed_by });
            inner.status = LinkState::Connected;
            inner.epoch = my_epoch;
            old
        };
        if let Some(old) = superseded {
            if let Some(reactor) = self.reactor() {
                reactor.close(old);
            }
        }
        let installs = link.installs.fetch_add(1, Ordering::Relaxed) + 1;
        let reconnect = installs > 1;
        if reconnect {
            link.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        Install::Won { reconnect }
    }

    fn announce_install(&self, link: &Link, my_epoch: u32, dialed_by: NodeId, reconnect: bool) {
        self.trace(format!(
            "wire link {} -> {}: connected (epoch={my_epoch}, dialed by {dialed_by})",
            self.config.node, link.peer
        ));
        self.handler.peer_event(TransportEvent::PeerConnected {
            peer: link.peer,
            epoch: my_epoch,
            reconnect,
        });
    }

    /// Link-level teardown after a connection died. Only the *current*
    /// connection tears the link down — a superseded loser closing late
    /// must not be collateral damage. `unsent` counts frames that were
    /// pulled into the connection's write batch but never hit the wire.
    fn teardown(&self, link: &Link, conn: ConnId, why: &str, unsent: u64) {
        let (is_current, purged) = {
            let mut inner = link.inner.lock();
            let current = inner.conn.map(|c| c.id) == Some(conn);
            if current {
                inner.conn = None;
                inner.status = LinkState::Backoff;
            }
            // Purge in the same critical section: nothing queued for a
            // dead connection may survive onto the next one.
            (current, if current { std::mem::take(&mut inner.queue) } else { VecDeque::new() })
        };
        let purged_count = unsent + purged.len() as u64;
        for f in purged {
            self.recycle_frame(f);
        }
        // Frames that die with their connection are purges, not sheds:
        // the backpressure counters stay a pure drop-policy signal.
        link.purged.fetch_add(purged_count, Ordering::Relaxed);
        if is_current && !self.shutdown.load(Ordering::Relaxed) {
            self.trace(format!(
                "wire link {} -> {}: down ({why}), purged {purged_count} queued frames",
                self.config.node, link.peer
            ));
            self.handler.peer_event(TransportEvent::PeerDown { peer: link.peer });
            self.wake_dialer();
        }
    }

    /// Queues an encoded frame for the link, applying the backpressure
    /// policy, and nudges the reactor. Returns `false` if the frame was
    /// shed immediately.
    fn enqueue(&self, link: &Link, frame: OutFrame) -> bool {
        let is_heartbeat = frame.class == FrameClass::Heartbeat;
        let mut shed = Vec::new();
        let (accepted, conn) = {
            let mut inner = link.inner.lock();
            if is_heartbeat && inner.status != LinkState::Connected {
                // A heartbeat held back and delivered after a reconnect
                // would assert liveness for the wrong moment in time.
                (false, None)
            } else {
                let q = &mut inner.queue;
                q.push_back(frame);
                while q.len() > self.config.queue_limit {
                    if let Some(pos) = q.iter().position(|f| f.class == FrameClass::Heartbeat) {
                        if let Some(f) = q.remove(pos) {
                            shed.push(f);
                        }
                    } else if let Some(f) = q.pop_front() {
                        shed.push(f);
                    }
                }
                (true, inner.conn.map(|c| c.id))
            }
        };
        if !accepted {
            link.dropped_heartbeats.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut shed_hb = 0u64;
        let mut shed_data = 0u64;
        for f in shed {
            match f.class {
                FrameClass::Heartbeat => shed_hb += 1,
                _ => shed_data += 1,
            }
            self.recycle_frame(f);
        }
        link.dropped_heartbeats.fetch_add(shed_hb, Ordering::Relaxed);
        link.dropped_frames.fetch_add(shed_data, Ordering::Relaxed);
        // One wakeup per burst: the reactor clears the arm when it
        // starts draining, so anything enqueued after that re-arms.
        if let Some(conn) = conn {
            if !link.flush_armed.swap(true, Ordering::AcqRel) {
                if let Some(reactor) = self.reactor() {
                    reactor.flush(conn);
                }
            }
        }
        true
    }

    /// Handles the hello frame on an accepted connection: resolve the
    /// link, allocate an epoch, stage the reply, install.
    ///
    /// Runs once per connection establishment, not per frame, so the
    /// handshake may format traces and build link state freely.
    fn handle_hello(&self, conn: ConnId, frame: &Frame) -> Directive {
        if frame.header.class != FrameClass::Handshake {
            self.trace(format!(
                "wire accept on {}: peer spoke before handshaking",
                self.config.node
            ));
            return Directive::Close;
        }
        let hello: Hello = match comsim::marshal::from_bytes(frame.meta.as_slice()) {
            Ok(h) => h,
            Err(e) => {
                self.trace(format!("wire accept on {}: unreadable hello: {e}", self.config.node));
                return Directive::Close;
            }
        };
        let link = match self.link_for(hello.node) {
            Some(link) => link,
            None if self.config.accept_unknown => {
                let mut links = self.links.write();
                Arc::clone(
                    links
                        .entry(hello.node)
                        .or_insert_with(|| Arc::new(Link::new(hello.node, None))),
                )
            }
            None => {
                self.trace(format!(
                    "wire accept on {}: unknown peer {} rejected",
                    self.config.node, hello.node
                ));
                return Directive::Close;
            }
        };
        // The promotion below spends the waiting state, so take it out of
        // the table first; a refusal from here on leaves no entry behind.
        let Some(ConnCtx::AwaitHello(waiting)) = self.conns.lock().remove(&conn) else {
            return Directive::Close;
        };
        let my_epoch = {
            let mut inner = link.inner.lock();
            let e = inner.next_epoch;
            inner.next_epoch += 1;
            e
        };
        let reconnect = match self.install(&link, conn, hello.node, my_epoch) {
            Install::Won { reconnect } => reconnect,
            Install::LostRace => {
                self.trace(format!(
                    "wire link {} -> {}: dropped duplicate connection dialed by {}",
                    self.config.node, link.peer, hello.node
                ));
                return Directive::Close;
            }
        };
        let mut reply_meta = self.pool.take(64);
        if comsim::marshal::to_bytes_into(&Hello { node: self.config.node }, &mut reply_meta)
            .is_err()
        {
            self.pool.give(reply_meta);
            return Directive::Close;
        }
        let reply = OutFrame {
            class: FrameClass::Handshake,
            meta: reply_meta,
            head: Vec::new(),
            shared: Vec::new(),
        };
        let established =
            waiting.established(Arc::clone(&link), my_epoch, frame.header.epoch, reply);
        self.conns.lock().insert(conn, ConnCtx::Established(established));
        self.announce_install(&link, my_epoch, hello.node, reconnect);
        Directive::Continue
    }

    /// Dialer-side handshake: connect, send our hello, await the peer's,
    /// then hand the socket to the reactor. A refused connect raises
    /// [`TransportEvent::PeerRefused`]; no other failure raises anything.
    #[expect(
        clippy::disallowed_methods,
        reason = "the dialer thread resolves and connects; reactor threads never dial"
    )]
    fn dial_once(self: &Arc<Self>, link: &Arc<Link>) -> Result<(), String> {
        let addr_str = link.addr.as_deref().ok_or("accept-only link")?;
        let addr = addr_str
            .to_socket_addrs()
            .map_err(|e| format!("resolve {addr_str}: {e}"))?
            .next()
            .ok_or_else(|| format!("{addr_str} resolves to nothing"))?;
        let mut stream = match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
            Ok(stream) => stream,
            Err(e) => {
                // Only a refusal is the peer host's own answer: its kernel
                // is up and nothing listens there. A timeout or an
                // unreachable host says nothing about the peer process.
                if e.kind() == io::ErrorKind::ConnectionRefused {
                    self.handler.peer_event(TransportEvent::PeerRefused { peer: link.peer });
                }
                return Err(format!("connect {addr}: {e}"));
            }
        };
        stream.set_nodelay(true).ok();
        let my_epoch = {
            let mut inner = link.inner.lock();
            let e = inner.next_epoch;
            inner.next_epoch += 1;
            e
        };
        let hello = comsim::marshal::to_bytes(&Hello { node: self.config.node })
            .map_err(|e| e.to_string())?;
        write_frame(&mut stream, FrameClass::Handshake, my_epoch, &hello, &[], &[])
            .map_err(|e| format!("handshake send: {e}"))?;
        stream.set_read_timeout(Some(self.config.handshake_timeout)).ok();
        let reply = read_frame(&mut stream, self.config.max_frame)
            .map_err(|e| format!("handshake reply: {e}"))?;
        if reply.header.class != FrameClass::Handshake {
            return Err("peer spoke before handshaking".into());
        }
        let peer_hello: Hello =
            comsim::marshal::from_bytes(reply.meta.as_slice()).map_err(|e| e.to_string())?;
        if peer_hello.node != link.peer {
            return Err(format!("dialed {} but {} answered", link.peer, peer_hello.node));
        }
        stream.set_read_timeout(None).ok();
        let reactor = Arc::clone(self.reactor().ok_or("reactor not started")?);
        let conn = reactor.reserve_conn();
        let established = Established::dialed(Arc::clone(link), my_epoch, reply.header.epoch);
        self.conns.lock().insert(conn, ConnCtx::Established(established));
        match self.install(link, conn, self.config.node, my_epoch) {
            Install::Won { reconnect } => {
                if let Err(e) = reactor.attach(conn, stream) {
                    self.conns.lock().remove(&conn);
                    let mut inner = link.inner.lock();
                    if inner.conn.map(|c| c.id) == Some(conn) {
                        inner.conn = None;
                        inner.status = LinkState::Backoff;
                    }
                    return Err(format!("attach: {e}"));
                }
                self.announce_install(link, my_epoch, self.config.node, reconnect);
                Ok(())
            }
            Install::LostRace => {
                // The accept path installed the preferred connection
                // while we dialed; ours closes quietly.
                self.conns.lock().remove(&conn);
                self.trace(format!(
                    "wire link {} -> {}: dropped duplicate connection dialed by {}",
                    self.config.node, link.peer, self.config.node
                ));
                Ok(())
            }
        }
    }

    /// The single dial thread for all peers: keeps every dialable link
    /// connected, with capped jittered backoff per link, parked on a
    /// condvar that teardown pokes for immediate redial.
    #[expect(clippy::disallowed_methods, reason = "the dialer thread parks between attempts")]
    fn dial_loop(self: Arc<Self>) {
        struct DialState {
            failures: u32,
            next_attempt: Instant,
        }
        let mut rng = SimRng::seed_from(self.config.seed ^ 0x9e37);
        let mut states: HashMap<NodeId, DialState> = HashMap::new();
        while !self.shutdown.load(Ordering::Relaxed) {
            let dialable: Vec<Arc<Link>> = {
                let links = self.links.read();
                links.values().filter(|l| l.addr.is_some()).cloned().collect()
            };
            let now = Instant::now();
            let mut next_due: Option<Instant> = None;
            for link in &dialable {
                if self.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                let connected = { link.inner.lock().conn.is_some() };
                let state =
                    states.entry(link.peer).or_insert(DialState { failures: 0, next_attempt: now });
                if connected {
                    state.failures = 0;
                    state.next_attempt = now;
                    continue;
                }
                if state.next_attempt > now {
                    next_due =
                        Some(next_due.map_or(state.next_attempt, |d| d.min(state.next_attempt)));
                    continue;
                }
                {
                    let mut inner = link.inner.lock();
                    if inner.conn.is_none() && inner.status == LinkState::Backoff {
                        inner.status = LinkState::Connecting;
                    }
                }
                match self.dial_once(link) {
                    Ok(()) => {
                        state.failures = 0;
                    }
                    Err(why) => {
                        if self.shutdown.load(Ordering::Relaxed) {
                            return;
                        }
                        // The acceptor may have installed a connection
                        // while the dial was failing.
                        if link.inner.lock().conn.is_some() {
                            state.failures = 0;
                            continue;
                        }
                        {
                            let mut inner = link.inner.lock();
                            if inner.conn.is_none() {
                                inner.status = LinkState::Backoff;
                            }
                        }
                        if state.failures == 0 {
                            self.trace(format!(
                                "wire link {} -> {}: dial failed ({why}), backing off",
                                self.config.node, link.peer
                            ));
                        }
                        let exp = self
                            .config
                            .backoff_base
                            .saturating_mul(1u32 << state.failures.min(6))
                            .min(self.config.backoff_cap);
                        state.failures = state.failures.saturating_add(1);
                        let base = SimDuration::from_micros(exp.as_micros() as u64);
                        let spread = SimDuration::from_micros((exp.as_micros() / 2) as u64);
                        let wait = Duration::from_micros(rng.jittered(base, spread).as_micros());
                        state.next_attempt = Instant::now() + wait;
                        next_due = Some(
                            next_due.map_or(state.next_attempt, |d| d.min(state.next_attempt)),
                        );
                    }
                }
            }
            // Park until the earliest backoff expires, a teardown pokes
            // us, or a periodic recheck (new accept-only links, races).
            let park = next_due
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(100))
                .clamp(Duration::from_millis(1), Duration::from_millis(100));
            let guard = self.dial_mu.lock().unwrap_or_else(|e| e.into_inner());
            let _ = self
                .dial_cv
                .wait_timeout(guard, park)
                .map(|(g, _)| drop(g))
                .map_err(|e| drop(e.into_inner().0));
        }
    }
}

impl ReactorHandler for Shared {
    fn on_accept(&self, conn: ConnId, _addr: SocketAddr) {
        let deadline = Instant::now() + self.config.handshake_timeout;
        self.conns.lock().insert(conn, ConnCtx::AwaitHello(AwaitHello::accepted(deadline)));
    }

    fn on_frame(&self, conn: ConnId, frame: Frame) -> Directive {
        enum Kind {
            Pending,
            Est { link: Arc<Link>, peer_epoch: u32 },
        }
        let kind = {
            let conns = self.conns.lock();
            match conns.get(&conn) {
                None => return Directive::Close,
                Some(ConnCtx::AwaitHello(_)) => Kind::Pending,
                Some(ConnCtx::Established(est)) => {
                    Kind::Est { link: Arc::clone(est.link()), peer_epoch: est.peer_epoch() }
                }
            }
        };
        match kind {
            Kind::Pending => self.handle_hello(conn, &frame),
            Kind::Est { link, peer_epoch } => {
                let wire_len =
                    HEADER_LEN as u64 + frame.header.meta_len as u64 + frame.header.body_len as u64;
                link.bytes_in.fetch_add(wire_len, Ordering::Relaxed);
                if frame.header.class == FrameClass::Handshake {
                    // Duplicate handshake mid-stream: harmless, skip.
                    return Directive::Continue;
                }
                if frame.header.epoch != peer_epoch {
                    // A frame from a connection the peer has already
                    // abandoned; never deliver it.
                    link.stale_in.fetch_add(1, Ordering::Relaxed);
                    return Directive::Continue;
                }
                match self.codec.decode_frame(&frame) {
                    Ok(envelope) => self.handler.deliver(envelope),
                    Err(e) => {
                        // The frame boundary held, so the stream is
                        // still in sync: skip this body only.
                        link.dropped_frames.fetch_add(1, Ordering::Relaxed);
                        self.trace(format!(
                            "wire link {} <- {}: undecodable frame skipped: {e}",
                            self.config.node, link.peer
                        ));
                    }
                }
                Directive::Continue
            }
        }
    }

    fn next_frames(&self, conn: ConnId, out: &mut Vec<StampedFrame>) {
        let (link, my_epoch) = {
            let mut conns = self.conns.lock();
            let Some(ConnCtx::Established(est)) = conns.get_mut(&conn) else {
                return;
            };
            let epoch = est.my_epoch();
            for frame in est.take_pending() {
                out.push(StampedFrame { frame, epoch });
            }
            (Arc::clone(est.link()), epoch)
        };
        // Clear the arm before draining: any sender that enqueues from
        // here on will arm and flush again, so nothing is stranded.
        link.flush_armed.store(false, Ordering::Release);
        let mut inner = link.inner.lock();
        if inner.conn.map(|c| c.id) != Some(conn) {
            // Superseded: the queue now belongs to the newer connection;
            // ship only this conn's pending frames.
            return;
        }
        let pull = inner.queue.len().min(PULL_BATCH);
        out.extend(inner.queue.drain(..pull).map(|frame| StampedFrame { frame, epoch: my_epoch }));
    }

    fn on_wrote(&self, conn: ConnId, bytes: u64) {
        let link = {
            let conns = self.conns.lock();
            match conns.get(&conn) {
                Some(ConnCtx::Established(est)) => Some(Arc::clone(est.link())),
                _ => None,
            }
        };
        if let Some(link) = link {
            link.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    fn recycle(&self, frame: OutFrame) {
        self.recycle_frame(frame);
    }

    fn on_closed(&self, conn: ConnId, error: Option<&io::Error>, unsent: Vec<OutFrame>) {
        let ctx = self.conns.lock().remove(&conn);
        let mut unsent_count = 0u64;
        for f in unsent {
            if f.class != FrameClass::Handshake {
                unsent_count += 1;
            }
            self.recycle_frame(f);
        }
        match ctx {
            Some(ConnCtx::Established(est)) => {
                let (link, pending) = est.into_parts();
                for f in pending {
                    self.recycle_frame(f);
                }
                let why = error.map_or_else(|| "closed".to_string(), |e| e.to_string());
                self.teardown(&link, conn, &why, unsent_count);
            }
            Some(ConnCtx::AwaitHello(_)) => {
                if let Some(e) = error {
                    self.trace(format!("wire accept on {}: {e}", self.config.node));
                }
            }
            None => {}
        }
    }

    fn on_tick(&self, close: &mut Vec<ConnId>) {
        let now = Instant::now();
        let conns = self.conns.lock();
        for (id, ctx) in conns.iter() {
            if let ConnCtx::AwaitHello(waiting) = ctx {
                if waiting.expired(now) {
                    close.push(*id);
                }
            }
        }
    }
}

/// The per-node connection supervisor.
pub struct Supervisor {
    shared: Arc<Shared>,
}

impl Supervisor {
    /// Binds the listener, starts the reactor threads and the dialer.
    pub fn start(
        config: WireConfig,
        codec: Arc<WireCodec>,
        handler: Arc<dyn WireHandler>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.listen)?;
        let listen_addr = listener.local_addr()?;
        let links: HashMap<NodeId, Arc<Link>> = config
            .peers
            .iter()
            .map(|(peer, addr)| (*peer, Arc::new(Link::new(*peer, Some(addr.clone())))))
            .collect();
        let io_threads = config.io_threads.max(1);
        let max_frame = config.max_frame;
        let pool = Arc::new(BufPool::new());
        let shared = Arc::new(Shared {
            config,
            codec,
            handler,
            links: RwLock::new(links),
            conns: Mutex::new(HashMap::new()),
            pool: Arc::clone(&pool),
            reactor: OnceLock::new(),
            listen_addr,
            shutdown: AtomicBool::new(false),
            dial_mu: StdMutex::new(()),
            dial_cv: Condvar::new(),
            threads: Mutex::new(Vec::new()),
        });
        let reactor = Reactor::start(
            Arc::clone(&shared) as Arc<dyn ReactorHandler>,
            Some(listener),
            io_threads,
            max_frame,
            pool,
        )?;
        let _ = shared.reactor.set(reactor);
        let dialer = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("wire-dialer".into())
            .spawn(move || dialer.dial_loop())?;
        shared.threads.lock().push(handle);
        Ok(Supervisor { shared })
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.listen_addr
    }

    /// The fixed reactor thread count serving all connections.
    pub fn io_threads(&self) -> usize {
        self.shared.reactor().map_or(0, |r| r.io_threads())
    }

    /// Buffer-pool effectiveness counters for the encode path.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// Encodes and queues an envelope for `peer`. Returns `false` if the
    /// peer is unknown, the body type unregistered, or the frame was
    /// shed immediately.
    pub fn send_envelope(&self, peer: NodeId, envelope: &Envelope) -> bool {
        let Some(link) = self.shared.link_for(peer) else {
            return false;
        };
        let mut meta_buf = self.shared.pool.take(64);
        match self.shared.codec.encode_envelope_into(envelope, &mut meta_buf) {
            Some(Ok(FramePayload { class, head, shared })) => {
                self.shared.enqueue(&link, OutFrame { class, meta: meta_buf, head, shared })
            }
            Some(Err(e)) => {
                self.shared.pool.give(meta_buf);
                link.dropped_frames.fetch_add(1, Ordering::Relaxed);
                self.shared.trace(format!(
                    "wire link {} -> {peer}: encode failed for {}: {e}",
                    self.shared.config.node, envelope.to
                ));
                false
            }
            None => {
                self.shared.pool.give(meta_buf);
                link.dropped_frames.fetch_add(1, Ordering::Relaxed);
                self.shared.trace(format!(
                    "wire link {} -> {peer}: body type of {} -> {} not wire-registered",
                    self.shared.config.node, envelope.from, envelope.to
                ));
                false
            }
        }
    }

    /// `true` if a handshaken connection to `peer` is up.
    pub fn connected(&self, peer: NodeId) -> bool {
        self.shared.link_for(peer).map(|l| l.inner.lock().conn.is_some()).unwrap_or(false)
    }

    /// Health counters for every known link.
    pub fn health(&self) -> Vec<PeerHealth> {
        let links: Vec<Arc<Link>> = self.shared.links.read().values().cloned().collect();
        let mut peers: Vec<PeerHealth> = links
            .iter()
            .map(|link| {
                let (state, epoch, queued) = {
                    let inner = link.inner.lock();
                    (inner.status, inner.epoch, inner.queue.len() as u64)
                };
                PeerHealth {
                    peer: link.peer,
                    state,
                    epoch,
                    reconnects: link.reconnects.load(Ordering::Relaxed),
                    bytes_in: link.bytes_in.load(Ordering::Relaxed),
                    bytes_out: link.bytes_out.load(Ordering::Relaxed),
                    queued,
                    dropped_heartbeats: link.dropped_heartbeats.load(Ordering::Relaxed),
                    dropped_frames: link.dropped_frames.load(Ordering::Relaxed),
                    purged: link.purged.load(Ordering::Relaxed),
                }
            })
            .collect();
        peers.sort_by_key(|p| p.peer);
        peers
    }

    /// Frames received from an abandoned connection epoch and dropped.
    pub fn stale_in(&self, peer: NodeId) -> u64 {
        self.shared.link_for(peer).map(|l| l.stale_in.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Stops the dialer and the reactor, closing all sockets. Idempotent.
    #[expect(clippy::disallowed_methods, reason = "shutdown joins the dialer thread")]
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.wake_dialer();
        loop {
            let Some(handle) = ({
                let mut threads = self.shared.threads.lock();
                threads.pop()
            }) else {
                break;
            };
            let _ = handle.join();
        }
        if let Some(reactor) = self.shared.reactor() {
            reactor.shutdown();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_net::endpoint::Endpoint;
    use std::sync::Mutex as TestMutex;

    #[derive(Default)]
    struct Sink {
        delivered: TestMutex<Vec<Envelope>>,
        events: TestMutex<Vec<TransportEvent>>,
        traces: TestMutex<Vec<String>>,
    }

    impl Sink {
        fn new() -> Arc<Self> {
            Arc::new(Sink::default())
        }
    }

    impl WireHandler for Sink {
        fn deliver(&self, envelope: Envelope) {
            self.delivered.lock().unwrap().push(envelope);
        }
        fn peer_event(&self, event: TransportEvent) {
            self.events.lock().unwrap().push(event);
        }
        fn record(&self, _category: TraceCategory, message: String) {
            self.traces.lock().unwrap().push(message);
        }
    }

    fn wait_for(cond: impl Fn() -> bool, timeout: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    /// What a raw peer writes to a socket: its hello, and one data frame
    /// carrying `text` from `peer` to node 0, both stamped epoch 1.
    fn raw_hello_and_data(peer: NodeId, text: &str) -> (Vec<u8>, Vec<u8>) {
        let mut hello = Vec::new();
        let meta = comsim::marshal::to_bytes(&Hello { node: peer }).unwrap();
        write_frame(&mut hello, FrameClass::Handshake, 1, &meta, &[], &[]).unwrap();
        let (meta, payload) = WireCodec::standard()
            .encode_envelope(&Envelope::new(
                Endpoint::new(peer, "x"),
                Endpoint::new(NodeId(0), "y"),
                text.to_string(),
            ))
            .unwrap()
            .unwrap();
        let mut data = Vec::new();
        write_frame(&mut data, payload.class, 1, &meta, &payload.head, &payload.shared).unwrap();
        (hello, data)
    }

    #[test]
    fn pair_connects_and_delivers_both_ways() {
        let codec = Arc::new(WireCodec::standard());
        let sink_a = Sink::new();
        let sink_b = Sink::new();
        // A lists B at an unconnectable address; the accept path installs
        // the link when B dials in.
        let mut config_a = WireConfig::loopback(NodeId(0));
        config_a.peers = vec![(NodeId(1), "127.0.0.1:1".into())];
        let a = Supervisor::start(config_a, Arc::clone(&codec), sink_a.clone()).unwrap();
        let mut config_b = WireConfig::loopback(NodeId(1));
        config_b.peers = vec![(NodeId(0), a.local_addr().to_string())];
        config_b.seed = 2;
        let b = Supervisor::start(config_b, Arc::clone(&codec), sink_b.clone()).unwrap();
        assert!(wait_for(|| b.connected(NodeId(0)), Duration::from_secs(3)));
        assert!(wait_for(|| a.connected(NodeId(1)), Duration::from_secs(3)));

        let env = Envelope::new(
            Endpoint::new(NodeId(1), "x"),
            Endpoint::new(NodeId(0), "y"),
            "over the wire".to_string(),
        );
        assert!(b.send_envelope(NodeId(0), &env));
        assert!(wait_for(|| !sink_a.delivered.lock().unwrap().is_empty(), Duration::from_secs(3)));
        let got = sink_a.delivered.lock().unwrap().remove(0);
        assert_eq!(got.body.downcast::<String>().unwrap(), "over the wire");
        a.shutdown();
        b.shutdown();
    }

    /// A node built before the checkpoint checksum changed speaks wire
    /// version 1; one built before acks carried the image checksum speaks
    /// version 2. Their handshakes are well-formed in every other respect,
    /// and they must still get no further than their first header: no link,
    /// no event, nothing delivered — the pair refuses to form instead of
    /// forming and then NACKing every checkpoint (1) or never confirming an
    /// image (2).
    #[test]
    fn older_version_peers_are_disconnected_at_their_first_header() {
        use std::io::{Read, Write};

        for version in [1u8, 2] {
            let sink = Sink::new();
            let mut config = WireConfig::loopback(NodeId(0));
            config.accept_unknown = true;
            let sup =
                Supervisor::start(config, Arc::new(WireCodec::standard()), sink.clone()).unwrap();

            let old_peer = NodeId(9);
            let (hello, data) = raw_hello_and_data(old_peer, "from the past");
            let hello_len = hello.len();
            let mut wire = [hello, data].concat();
            for frame_start in [0, hello_len] {
                wire[frame_start + 4] = version;
            }

            let mut stream = TcpStream::connect(sup.local_addr()).unwrap();
            stream.write_all(&wire).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            // The supervisor hangs up without a handshake reply: a clean
            // EOF, or a reset because it closed with our data frame still
            // unread.
            let mut reply = [0u8; 64];
            match stream.read(&mut reply) {
                Ok(0) => {}
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
                other => panic!("version {version}: expected a hang-up, got {other:?}"),
            }
            let refusal = format!("unsupported wire version {version}");
            assert!(
                wait_for(
                    || sink.traces.lock().unwrap().iter().any(|t| t.contains(&refusal)),
                    Duration::from_secs(3)
                ),
                "version {version}: no {refusal:?} in the trace"
            );
            assert!(!sup.connected(old_peer), "version {version}");
            assert!(sink.delivered.lock().unwrap().is_empty(), "version {version}");
            assert!(sink.events.lock().unwrap().is_empty(), "version {version}");
            sup.shutdown();
        }
    }

    /// What the accept side of the handshake does, over a real socket: a
    /// peer that speaks before its hello or never sends one is hung up on
    /// with nothing delivered, and a repeated hello mid-stream is skipped
    /// without disturbing the data behind it.
    #[test]
    fn accepted_connection_must_say_hello_first_and_in_time() {
        use std::io::{Read, Write};

        struct Case {
            name: &'static str,
            wire: Vec<u8>,
            /// `Some(text)`: the supervisor hangs up and traces `text`.
            /// `None`: the handshake completes and the link comes up.
            refused: Option<&'static str>,
            delivered: usize,
        }

        let peer = NodeId(9);
        let handshake_timeout = Duration::from_millis(100);
        let (hello, data) = raw_hello_and_data(peer, "after the hello");

        let cases = [
            Case {
                name: "data before hello",
                wire: data.clone(),
                refused: Some("peer spoke before handshaking"),
                delivered: 0,
            },
            Case {
                name: "no hello at all",
                wire: Vec::new(),
                refused: Some("handshake deadline"),
                delivered: 0,
            },
            Case {
                name: "hello, hello again, data",
                wire: [hello.clone(), hello, data].concat(),
                refused: None,
                delivered: 1,
            },
        ];
        for case in cases {
            let sink = Sink::new();
            let mut config = WireConfig::loopback(NodeId(0));
            config.accept_unknown = true;
            config.handshake_timeout = handshake_timeout;
            let sup =
                Supervisor::start(config, Arc::new(WireCodec::standard()), sink.clone()).unwrap();
            let dialed_at = Instant::now();
            let mut stream = TcpStream::connect(sup.local_addr()).unwrap();
            stream.write_all(&case.wire).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            match case.refused {
                Some(trace) => {
                    let mut reply = [0u8; 64];
                    match stream.read(&mut reply) {
                        Ok(0) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
                        other => panic!("{}: expected a hang-up, got {other:?}", case.name),
                    }
                    if case.wire.is_empty() {
                        // The deadline is armed at accept, which is after
                        // the dial began.
                        assert!(dialed_at.elapsed() >= handshake_timeout, "{}", case.name);
                    }
                    assert!(
                        wait_for(
                            || sink.traces.lock().unwrap().iter().any(|t| t.contains(trace)),
                            Duration::from_secs(3)
                        ),
                        "{}: no {trace:?} in {:?}",
                        case.name,
                        sink.traces.lock().unwrap()
                    );
                    assert!(!sup.connected(peer), "{}", case.name);
                }
                None => {
                    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
                    assert_eq!(reply.header.class, FrameClass::Handshake, "{}", case.name);
                    assert!(
                        wait_for(
                            || sink.delivered.lock().unwrap().len() == case.delivered,
                            Duration::from_secs(3)
                        ),
                        "{}",
                        case.name
                    );
                    assert!(sup.connected(peer), "{}", case.name);
                }
            }
            sup.shutdown();
            assert_eq!(sink.delivered.lock().unwrap().len(), case.delivered, "{}", case.name);
        }
    }

    /// A supervisor whose one peer, node 1, lives at `addr`, redialing
    /// every few milliseconds.
    fn dialing(addr: String) -> (Supervisor, Arc<Sink>) {
        let sink = Sink::new();
        let mut config = WireConfig::loopback(NodeId(0));
        config.peers = vec![(NodeId(1), addr)];
        config.backoff_base = Duration::from_millis(5);
        config.backoff_cap = Duration::from_millis(20);
        let sup = Supervisor::start(config, Arc::new(WireCodec::standard()), sink.clone()).unwrap();
        (sup, sink)
    }

    /// The link queue's three invariants, on a real socket whose far end is
    /// a raw peer: frames queued for a connection that dies are purged and
    /// never reach the next one; a heartbeat offered while the link is down
    /// is refused; data offered while it is down waits and goes out once,
    /// on the new connection.
    #[test]
    fn a_killed_connection_purges_its_queue_and_keeps_data_sent_while_down() {
        use crate::codec::WirePing;
        use comsim::buf::Bytes;
        use oftt::messages::PeerMsg;

        let peer = NodeId(1);
        let codec = WireCodec::standard();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (sup, _sink) = dialing(listener.local_addr().unwrap().to_string());
        // The raw peer's half of a handshake; returns the supervisor's
        // epoch for the connection.
        let answer = |stream: &mut TcpStream| {
            let hello = read_frame(stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(hello.header.class, FrameClass::Handshake);
            let meta = comsim::marshal::to_bytes(&Hello { node: peer }).unwrap();
            write_frame(stream, FrameClass::Handshake, 1, &meta, &[], &[]).unwrap();
            hello.header.epoch
        };
        let ping = |seq: u64, pad: &Bytes| {
            Envelope::new(
                Endpoint::new(NodeId(0), "x"),
                Endpoint::new(peer, "y"),
                WirePing { seq, pad: pad.clone() },
            )
        };
        let health = |sup: &Supervisor| sup.health().into_iter().find(|h| h.peer == peer).unwrap();

        let (mut first, _) = listener.accept().unwrap();
        answer(&mut first);
        assert!(wait_for(|| sup.connected(peer), Duration::from_secs(5)));

        // The raw peer never reads, so the socket buffers fill, the write
        // batch stalls, and the rest stays in the link queue.
        let big = Bytes::from(vec![0x5Au8; 1 << 20]);
        for seq in 0..24 {
            assert!(sup.send_envelope(peer, &ping(seq, &big)));
        }
        let last = std::cell::Cell::new(health(&sup).queued);
        assert!(
            wait_for(
                || {
                    std::thread::sleep(Duration::from_millis(50));
                    let now = health(&sup).queued;
                    last.replace(now) == now && now > 0
                },
                Duration::from_secs(5)
            ),
            "the queue never settled non-empty: {:?}",
            health(&sup)
        );

        drop(first);
        assert!(wait_for(|| !sup.connected(peer), Duration::from_secs(5)));
        let queued = last.get();
        let down = health(&sup);
        assert_eq!(down.queued, 0, "{down:?}");
        assert!(down.purged >= queued, "purged {} of {queued} queued", down.purged);

        let heartbeat = Envelope::new(
            Endpoint::new(NodeId(0), "x"),
            Endpoint::new(peer, "y"),
            PeerMsg::Heartbeat { node: NodeId(0), role: oftt::role::Role::Primary, term: 1 },
        );
        assert!(!sup.send_envelope(peer, &heartbeat), "a heartbeat was queued while down");
        assert_eq!(health(&sup).dropped_heartbeats, 1);
        assert!(sup.send_envelope(peer, &ping(1_000, &Bytes::from(vec![1u8; 8]))));
        assert_eq!(health(&sup).queued, 1);

        let (mut second, _) = listener.accept().unwrap();
        let epoch = answer(&mut second);
        second.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let frame = read_frame(&mut second, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(frame.header.epoch, epoch);
        let got = codec.decode_frame(&frame).unwrap().body.downcast::<WirePing>().unwrap();
        assert_eq!(got.seq, 1_000, "a frame queued for the dead connection came through");
        second.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        match read_frame(&mut second, DEFAULT_MAX_FRAME_BYTES) {
            Err(crate::frame::ReadError::Io(e))
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            other => panic!("expected nothing more on the new connection, got {other:?}"),
        }
        let up = health(&sup);
        assert_eq!((up.dropped_heartbeats, up.dropped_frames, up.purged), (1, 0, down.purged));
        sup.shutdown();
    }

    /// Nothing listens at the peer's address, so this host's kernel refuses
    /// every dial: each one is a `PeerRefused`, and the link never comes up
    /// or goes down.
    #[test]
    fn a_dial_to_an_address_with_no_listener_is_refused() {
        let vacant = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let (sup, sink) = dialing(vacant.to_string());
        let refusals = || {
            let events = sink.events.lock().unwrap();
            events.iter().filter(|e| **e == TransportEvent::PeerRefused { peer: NodeId(1) }).count()
        };
        assert!(wait_for(|| refusals() >= 3, Duration::from_secs(5)), "no refusals seen");
        sup.shutdown();
        let events = sink.events.lock().unwrap();
        assert!(
            events.iter().all(|e| matches!(e, TransportEvent::PeerRefused { peer: NodeId(1) })),
            "{events:?}"
        );
    }

    /// A partitioned proxy accepts the dial and then hangs up, as a cut
    /// network path does: the handshake fails, and nothing was refused —
    /// even though nothing listens behind the proxy either.
    #[test]
    fn a_dial_through_a_partitioned_proxy_is_never_refused() {
        let vacant = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let proxy = crate::fault::FaultProxy::start("127.0.0.1:0", vacant, 1).unwrap();
        proxy.partition();
        let (sup, sink) = dialing(proxy.addr().to_string());
        let traced = |needle: &str| sink.traces.lock().unwrap().iter().any(|t| t.contains(needle));
        assert!(
            wait_for(|| traced("dial failed (handshake"), Duration::from_secs(5)),
            "{:?}",
            sink.traces.lock().unwrap()
        );
        // Several more dials through the cut.
        std::thread::sleep(Duration::from_millis(200));
        sup.shutdown();
        assert!(sink.events.lock().unwrap().is_empty(), "{:?}", sink.events.lock().unwrap());
    }
}
