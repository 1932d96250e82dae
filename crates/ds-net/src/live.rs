//! The actor host: the one place real-time backends keep their mailboxes.
//!
//! [`ActorHost`] runs each service on its own OS thread (the `run_actor`
//! loop in [`crate::transport`]: a crossbeam channel mailbox and a local
//! timer heap, implementing [`ProcessEnv`] against real time) and
//! owns everything about hosting them: the mailbox registry, the spec
//! table, the generation counter, spawn/kill/restart, local delivery with
//! counted-and-traced drops, and the trace. It has one seam, [`OffNode`]:
//! where an envelope goes when it is addressed to a node the host does
//! not own.
//!
//! [`LiveNet`] owns a host and joins its threads on shutdown. Built with
//! [`LiveNet::new`] there is no seam: every endpoint, whatever its node
//! id, is a mailbox in this process, so the runtime models no network
//! imperfections — quantitative experiments use the deterministic
//! [`crate::cluster`] backend. Built with [`LiveNet::with_off_node`] it
//! hosts one node, and `oftt-wire`'s `WireNet` plugs its TCP supervisor
//! into the seam for machine-to-machine runs.
//!
//! [`ProcessEnv`]: crate::process::ProcessEnv

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, SendError, Sender};
use ds_sim::prelude::{SimTime, Trace, TraceCategory, TraceEntry, WallClock};
use parking_lot::{Mutex, RwLock};

use crate::endpoint::{Endpoint, NodeId};
use crate::message::Envelope;
use crate::process::ProcessFactory;
use crate::transport::{run_actor, Control};

/// The host's one seam: takes an envelope addressed to a node the host
/// does not own. The host is passed back so a refusal can be traced.
pub type OffNode = Box<dyn Fn(&ActorHost, Envelope) + Send + Sync>;

/// A live mailbox: its sender plus the generation of the spawn that
/// registered it, so a killed actor exiting late cannot retire a
/// successor's registration.
type Mailbox = (Sender<Control>, u64);

/// The state every hosted actor's thread shares; see the module docs.
pub struct ActorHost {
    /// `None`: every endpoint is local. `Some`: only this node's are, and
    /// the rest go through the seam.
    home: Option<(NodeId, OffNode)>,
    /// Read-mostly: socket reactor threads deliver concurrently with
    /// actor sends.
    mailboxes: RwLock<HashMap<Endpoint, Mailbox>>,
    specs: Mutex<HashMap<Endpoint, ProcessFactory>>,
    trace: Mutex<Trace>,
    clock: WallClock,
    handles: Mutex<Vec<JoinHandle<()>>>,
    seed: u64,
    generations: AtomicU64,
    dropped: AtomicU64,
}

impl ActorHost {
    fn kill(&self, endpoint: &Endpoint) {
        // Bind first so the registry guard is released before the
        // control send — no lock held across channel traffic.
        let removed = self.mailboxes.write().remove(endpoint);
        if let Some((tx, _)) = removed {
            let _ = tx.send(Control::Kill);
        }
    }

    fn spawn(self: &Arc<Self>, endpoint: Endpoint) {
        let actor = {
            let specs = self.specs.lock();
            let Some(factory) = specs.get(&endpoint) else { return };
            factory()
        };
        let (tx, rx) = unbounded();
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1;
        self.mailboxes.write().insert(endpoint.clone(), (tx, generation));
        let host = Arc::clone(self);
        let seed = self.seed.wrapping_add(generation);
        let handle =
            std::thread::spawn(move || run_actor(actor, endpoint, host, seed, generation, rx));
        self.handles.lock().push(handle);
    }

    fn is_running(&self, endpoint: &Endpoint) -> bool {
        self.mailboxes.read().contains_key(endpoint)
    }

    fn note_drop(&self, envelope: &Envelope) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        // Each backend's wording is what its trace readers match on.
        let (backend, mailbox) =
            if self.home.is_some() { ("wire", "local") } else { ("live", "live") };
        self.record(
            TraceCategory::Net,
            format!("{backend} drop {} -> {}: no {mailbox} mailbox", envelope.from, envelope.to),
        );
    }

    /// `true` if `target` is on a node this host owns; otherwise the
    /// refused `verb` is traced.
    fn owns(&self, target: &Endpoint, verb: &str) -> bool {
        match &self.home {
            Some((node, _)) if target.node != *node => {
                self.record(
                    TraceCategory::Net,
                    format!("wire: cannot {verb} {target}: not on node {node}"),
                );
                false
            }
            _ => true,
        }
    }

    /// Wall-derived time since the host started.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Records a trace entry at the current time.
    pub fn record(&self, category: TraceCategory, message: String) {
        let now = self.clock.now();
        self.trace.lock().record(now, category, message);
    }

    /// Hands an envelope to the mailbox registered for its destination.
    /// A missing or disconnected mailbox is a drop, but an auditable one:
    /// traced and counted, like the simulator does.
    pub fn deliver_local(&self, envelope: Envelope) {
        let target = self.mailboxes.read().get(&envelope.to).map(|(tx, _)| tx.clone());
        match target {
            Some(tx) => {
                if let Err(SendError(Control::Deliver(envelope))) =
                    tx.send(Control::Deliver(envelope))
                {
                    self.note_drop(&envelope);
                }
            }
            None => self.note_drop(&envelope),
        }
    }

    /// Routes an envelope towards its destination (may drop; delivery is
    /// asynchronous and unacknowledged, like the DCOM layer it models).
    pub fn route(&self, envelope: Envelope) {
        match &self.home {
            Some((node, off_node)) if envelope.to.node != *node => off_node(self, envelope),
            _ => self.deliver_local(envelope),
        }
    }

    pub(crate) fn kill_service(&self, target: &Endpoint) {
        if self.owns(target, "kill") {
            self.kill(target);
        }
    }

    pub(crate) fn restart_service(self: &Arc<Self>, target: &Endpoint) {
        if self.owns(target, "restart") && !self.is_running(target) {
            self.spawn(target.clone());
        }
    }

    /// The actor loop's final action: retires the mailbox registration,
    /// unless the endpoint has since been re-registered under a newer
    /// generation (a killed actor exiting late must not retire its
    /// successor's mailbox).
    pub(crate) fn actor_exited(&self, endpoint: &Endpoint, generation: u64) {
        let mut mailboxes = self.mailboxes.write();
        if mailboxes.get(endpoint).is_some_and(|(_, g)| *g == generation) {
            mailboxes.remove(endpoint);
        }
    }
}

/// A live, thread-backed runtime hosting the same [`Process`] actors as the
/// deterministic simulation.
///
/// [`Process`]: crate::process::Process
///
/// # Examples
///
/// ```
/// use ds_net::live::LiveNet;
/// use ds_net::prelude::*;
///
/// struct Greeter;
/// impl Process for Greeter {}
///
/// let mut net = LiveNet::new(1);
/// net.register(Endpoint::new(NodeId(0), "greeter"), Box::new(|| Box::new(Greeter)));
/// net.start(&Endpoint::new(NodeId(0), "greeter"));
/// net.shutdown();
/// ```
pub struct LiveNet {
    host: Arc<ActorHost>,
}

impl LiveNet {
    /// Creates a live runtime in which every endpoint is local; `seed`
    /// controls per-process RNG streams.
    pub fn new(seed: u64) -> Self {
        Self::build(seed, None)
    }

    /// Creates a runtime hosting only `node`'s services; envelopes for
    /// any other node are handed to `off_node`.
    pub fn with_off_node(seed: u64, node: NodeId, off_node: OffNode) -> Self {
        Self::build(seed, Some((node, off_node)))
    }

    fn build(seed: u64, home: Option<(NodeId, OffNode)>) -> Self {
        LiveNet {
            host: Arc::new(ActorHost {
                home,
                mailboxes: RwLock::new(HashMap::new()),
                specs: Mutex::new(HashMap::new()),
                trace: Mutex::new(Trace::new()),
                clock: WallClock::new(),
                handles: Mutex::new(Vec::new()),
                seed,
                generations: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// The shared host, for code that delivers from its own threads.
    pub fn host(&self) -> &Arc<ActorHost> {
        &self.host
    }

    /// Registers a service spec (not started yet).
    pub fn register(&mut self, endpoint: Endpoint, factory: ProcessFactory) {
        self.host.specs.lock().insert(endpoint, factory);
    }

    /// Starts a registered service on its own thread.
    pub fn start(&mut self, endpoint: &Endpoint) {
        self.host.spawn(endpoint.clone());
    }

    /// Kills a running service (no notification to the victim).
    pub fn kill(&mut self, endpoint: &Endpoint) {
        self.host.kill(endpoint);
    }

    /// `true` if the service currently has a live mailbox.
    pub fn is_running(&self, endpoint: &Endpoint) -> bool {
        self.host.is_running(endpoint)
    }

    /// Injects a message from an external driver (with a seam, a remote
    /// destination is routed through it like any actor's send).
    pub fn post<T: std::any::Any + Send>(&self, to: Endpoint, body: T) {
        let node = self.host.home.as_ref().map_or(to.node, |(node, _)| *node);
        self.host.route(Envelope::new(Endpoint::new(node, "__external"), to, body));
    }

    /// Copies out the trace recorded so far.
    pub fn trace_snapshot(&self) -> Trace {
        self.host.trace.lock().clone()
    }

    /// Copies out only the entries after the first `n`: what a reader
    /// that has already consumed `n` entries has not seen yet.
    pub fn trace_since(&self, n: usize) -> Vec<TraceEntry> {
        self.host.trace.lock().entries().get(n..).unwrap_or_default().to_vec()
    }

    /// Envelopes dropped because no live mailbox could accept them.
    pub fn dropped_count(&self) -> u64 {
        self.host.dropped.load(Ordering::Relaxed)
    }

    /// Milliseconds since the runtime started (live wall time).
    pub fn now(&self) -> SimTime {
        self.host.now()
    }

    /// Stops every service and joins all threads.
    pub fn shutdown(&mut self) {
        let endpoints: Vec<Endpoint> = self.host.mailboxes.read().keys().cloned().collect();
        for ep in endpoints {
            self.host.kill(&ep);
        }
        let handles: Vec<JoinHandle<()>> = self.host.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for LiveNet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::NodeId;
    use crate::process::{Process, ProcessEnv, ProcessEnvExt};
    use ds_sim::prelude::SimDuration;
    use std::sync::atomic::AtomicU32;
    use std::time::{Duration, Instant};

    struct Echo;
    impl Process for Echo {
        fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
            let from = envelope.from.clone();
            if let Ok(n) = envelope.body.downcast::<u32>() {
                env.send_msg(from, n + 1);
            }
        }
    }

    struct Counter {
        peer: Endpoint,
        seen: Arc<AtomicU32>,
    }
    impl Process for Counter {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            env.send_msg(self.peer.clone(), 1u32);
        }
        fn on_message(&mut self, envelope: Envelope, _env: &mut dyn ProcessEnv) {
            if let Ok(n) = envelope.body.downcast::<u32>() {
                self.seen.store(n, Ordering::SeqCst);
            }
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

    #[test]
    fn live_ping_pong() {
        let mut net = LiveNet::new(1);
        let a = Endpoint::new(NodeId(0), "counter");
        let b = Endpoint::new(NodeId(1), "echo");
        let seen = Arc::new(AtomicU32::new(0));
        let s = seen.clone();
        let peer = b.clone();
        net.register(b.clone(), Box::new(|| Box::new(Echo)));
        net.register(
            a.clone(),
            Box::new(move || Box::new(Counter { peer: peer.clone(), seen: s.clone() })),
        );
        net.start(&b);
        net.start(&a);
        assert!(wait_for(|| seen.load(Ordering::SeqCst) == 2, Duration::from_secs(2)));
        net.shutdown();
    }

    struct Tick {
        fires: Arc<AtomicU32>,
    }
    impl Process for Tick {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            env.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_timer(&mut self, _token: u64, env: &mut dyn ProcessEnv) {
            self.fires.fetch_add(1, Ordering::SeqCst);
            env.set_timer(SimDuration::from_millis(10), 0);
        }
    }

    #[test]
    fn live_timers_fire() {
        let mut net = LiveNet::new(2);
        let ep = Endpoint::new(NodeId(0), "tick");
        let fires = Arc::new(AtomicU32::new(0));
        let f = fires.clone();
        net.register(ep.clone(), Box::new(move || Box::new(Tick { fires: f.clone() })));
        net.start(&ep);
        assert!(wait_for(|| fires.load(Ordering::SeqCst) >= 3, Duration::from_secs(2)));
        net.kill(&ep);
        assert!(wait_for(|| !net.is_running(&ep), Duration::from_secs(2)));
    }

    #[test]
    fn kill_and_restart_via_registry() {
        let mut net = LiveNet::new(3);
        let ep = Endpoint::new(NodeId(0), "echo");
        net.register(ep.clone(), Box::new(|| Box::new(Echo)));
        net.start(&ep);
        assert!(wait_for(|| net.is_running(&ep), Duration::from_secs(2)));
        net.kill(&ep);
        assert!(wait_for(|| !net.is_running(&ep), Duration::from_secs(2)));
        net.start(&ep);
        assert!(wait_for(|| net.is_running(&ep), Duration::from_secs(2)));
        net.shutdown();
    }

    #[test]
    fn missing_mailbox_drop_is_traced_and_counted() {
        let net = LiveNet::new(4);
        assert_eq!(net.dropped_count(), 0);
        net.post(Endpoint::new(NodeId(0), "nobody"), 42u32);
        assert_eq!(net.dropped_count(), 1);
        let trace = net.trace_snapshot();
        let entry = trace.find("no live mailbox").expect("drop should be traced");
        assert_eq!(entry.category, TraceCategory::Net);
        assert!(entry.message.contains("node0/nobody"));
    }

    #[test]
    fn trace_since_is_the_tail_of_the_snapshot() {
        let net = LiveNet::new(5);
        for n in 0..5u32 {
            net.post(Endpoint::new(NodeId(0), "nobody"), n);
        }
        let all = net.trace_snapshot();
        assert_eq!(all.len(), 5);
        for k in 0..=6 {
            assert_eq!(net.trace_since(k), all.entries().get(k..).unwrap_or_default());
        }
    }
}
