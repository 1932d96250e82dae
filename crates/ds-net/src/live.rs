//! The actor host: the one place the real-time runtime keeps its mailboxes.
//!
//! [`ActorHost`] runs each service of one node on its own OS thread (the
//! `run_actor` loop in [`crate::transport`]: a crossbeam channel mailbox
//! and a local timer heap, implementing [`ProcessEnv`] against real time)
//! and owns everything about hosting them: the mailbox registry, the spec
//! table, the generation counter, spawn/kill/restart, local delivery with
//! counted-and-traced drops, and the trace. It has one seam, [`OffNode`]:
//! where an envelope goes when it is addressed to another node.
//!
//! [`LiveNet`] owns a host and joins its threads on shutdown. It is built
//! with [`LiveNet::with_off_node`] for exactly one node; `oftt-wire`'s
//! `WireNet` plugs its TCP supervisor into the seam for machine-to-machine
//! runs. The deterministic [`crate::cluster`] backend is the other runtime:
//! the same actors, with simulated time, links and faults.
//!
//! [`ProcessEnv`]: crate::process::ProcessEnv

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, SendError, Sender};
use ds_sim::prelude::{SimTime, Trace, TraceCategory, TraceEntry, WallClock};
use parking_lot::{Mutex, RwLock};

use crate::endpoint::{Endpoint, NodeId};
use crate::message::Envelope;
use crate::process::ProcessFactory;
use crate::transport::{run_actor, Control};

/// The host's one seam: takes an envelope addressed to another node. The
/// host is passed back so a refusal can be traced.
pub type OffNode = Box<dyn Fn(&ActorHost, Envelope) + Send + Sync>;

/// A live mailbox: its sender plus the generation of the spawn that
/// registered it, so a killed actor exiting late cannot retire a
/// successor's registration.
type Mailbox = (Sender<Control>, u64);

/// The state every hosted actor's thread shares; see the module docs.
pub struct ActorHost {
    /// The node whose services are mailboxes here, and the seam every
    /// other node's envelopes go through.
    home: (NodeId, OffNode),
    /// Read-mostly: socket reactor threads deliver concurrently with
    /// actor sends.
    mailboxes: RwLock<HashMap<Endpoint, Mailbox>>,
    specs: Mutex<HashMap<Endpoint, ProcessFactory>>,
    trace: Mutex<Trace>,
    /// The trace's length, published after each record so a reader can
    /// sleep until it grows. std's pair rather than the shim's: a condvar
    /// wait needs the std guard, which the shim's guard does not hand out.
    /// The lock is a leaf too; it is only taken with no other lock held.
    trace_len: (std::sync::Mutex<usize>, Condvar),
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
        self.record(
            TraceCategory::Net,
            format!("wire drop {} -> {}: no local mailbox", envelope.from, envelope.to),
        );
    }

    /// `true` if `target` is on this host's node; otherwise the refused
    /// `verb` is traced.
    fn owns(&self, target: &Endpoint, verb: &str) -> bool {
        let (node, _) = &self.home;
        if target.node == *node {
            return true;
        }
        self.record(
            TraceCategory::Net,
            format!("wire: cannot {verb} {target}: not on node {node}"),
        );
        false
    }

    /// Wall-derived time since the host started.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Records a trace entry at the current time and wakes every reader
    /// waiting in [`LiveNet::trace_wait_since`].
    pub fn record(&self, category: TraceCategory, message: String) {
        let now = self.clock.now();
        let len = {
            let mut trace = self.trace.lock();
            trace.record(now, category, message);
            trace.len()
        };
        let (published, grown) = &self.trace_len;
        let mut published = published.lock().unwrap_or_else(PoisonError::into_inner);
        // Two recorders may publish out of order; the larger length wins.
        *published = (*published).max(len);
        drop(published);
        grown.notify_all();
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
        let (node, off_node) = &self.home;
        if envelope.to.node == *node {
            self.deliver_local(envelope);
        } else {
            off_node(self, envelope);
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

/// A live, thread-backed runtime hosting one node's [`Process`] actors, the
/// same actors the deterministic simulation runs.
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
/// // One node; envelopes for any other node would go to the seam.
/// let mut net = LiveNet::with_off_node(1, NodeId(0), Box::new(|_host, _envelope| {}));
/// net.register(Endpoint::new(NodeId(0), "greeter"), Box::new(|| Box::new(Greeter)));
/// net.start(&Endpoint::new(NodeId(0), "greeter"));
/// net.shutdown();
/// ```
pub struct LiveNet {
    host: Arc<ActorHost>,
}

impl LiveNet {
    /// Creates a runtime hosting only `node`'s services; envelopes for
    /// any other node are handed to `off_node`. `seed` controls
    /// per-process RNG streams.
    pub fn with_off_node(seed: u64, node: NodeId, off_node: OffNode) -> Self {
        LiveNet {
            host: Arc::new(ActorHost {
                home: (node, off_node),
                mailboxes: RwLock::new(HashMap::new()),
                specs: Mutex::new(HashMap::new()),
                trace: Mutex::new(Trace::new()),
                trace_len: (std::sync::Mutex::new(0), Condvar::new()),
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

    /// Injects a message from outside the actors, sent as from this node
    /// (a remote destination is routed through the seam like any actor's
    /// send).
    pub fn post<T: std::any::Any + Send>(&self, to: Endpoint, body: T) {
        let (node, _) = &self.host.home;
        self.host.route(Envelope::new(Endpoint::new(*node, "__external"), to, body));
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

    /// [`LiveNet::trace_since`], but when there is nothing after the first
    /// `n` entries yet, waits up to `timeout` for a record. Returns as soon
    /// as the trace grows past `n`, and empty if it has not by the timeout.
    pub fn trace_wait_since(&self, n: usize, timeout: Duration) -> Vec<TraceEntry> {
        let (published, grown) = &self.host.trace_len;
        let published = published.lock().unwrap_or_else(PoisonError::into_inner);
        let waited = grown.wait_timeout_while(published, timeout, |len| *len <= n);
        drop(waited.unwrap_or_else(PoisonError::into_inner));
        self.trace_since(n)
    }

    /// Envelopes dropped because no local mailbox could accept them.
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

    const HOME: NodeId = NodeId(0);

    /// A host for node 0 whose seam counts what it is handed.
    fn one_node(seed: u64) -> (LiveNet, Arc<AtomicU32>) {
        let off_node = Arc::new(AtomicU32::new(0));
        let seam = Arc::clone(&off_node);
        let net = LiveNet::with_off_node(
            seed,
            HOME,
            Box::new(move |_, _| {
                seam.fetch_add(1, Ordering::SeqCst);
            }),
        );
        (net, off_node)
    }

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
        let (mut net, off_node) = one_node(1);
        let a = Endpoint::new(HOME, "counter");
        let b = Endpoint::new(HOME, "echo");
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
        assert_eq!(off_node.load(Ordering::SeqCst), 0, "local traffic stays off the seam");
        net.post(Endpoint::new(NodeId(1), "echo"), 7u32);
        assert_eq!(off_node.load(Ordering::SeqCst), 1, "another node's envelope takes the seam");
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
        let (mut net, _) = one_node(2);
        let ep = Endpoint::new(HOME, "tick");
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
        let (mut net, _) = one_node(3);
        let ep = Endpoint::new(HOME, "echo");
        net.register(ep.clone(), Box::new(|| Box::new(Echo)));
        net.start(&ep);
        assert!(wait_for(|| net.is_running(&ep), Duration::from_secs(2)));
        net.kill(&ep);
        assert!(wait_for(|| !net.is_running(&ep), Duration::from_secs(2)));
        net.start(&ep);
        assert!(wait_for(|| net.is_running(&ep), Duration::from_secs(2)));
        net.shutdown();
    }

    /// An actor's kill or restart of a service on another node is refused
    /// and traced: the host spawns only its own node's services.
    #[test]
    fn kill_and_restart_of_another_nodes_service_are_refused() {
        let (mut net, _) = one_node(6);
        let local = Endpoint::new(HOME, "echo");
        let remote = Endpoint::new(NodeId(1), "echo");
        net.register(remote.clone(), Box::new(|| Box::new(Echo)));
        net.register(local.clone(), Box::new(|| Box::new(Echo)));

        net.host.kill_service(&remote);
        net.host.restart_service(&remote);
        assert!(!net.is_running(&remote), "another node's service must not be spawned here");
        assert!(net.host.handles.lock().is_empty(), "nothing spawned");
        let trace = net.trace_snapshot();
        for verb in ["kill", "restart"] {
            let refusal = format!("wire: cannot {verb} node1/echo: not on node node0");
            let entry = trace.find(&refusal).expect("the refusal should be traced");
            assert_eq!(entry.category, TraceCategory::Net);
        }

        net.host.restart_service(&local);
        assert!(net.is_running(&local), "the host's own node's service restarts");
        assert_eq!(net.trace_snapshot().len(), 2, "a local restart is not a refusal");
    }

    #[test]
    fn missing_mailbox_drop_is_traced_and_counted() {
        let (net, _) = one_node(4);
        assert_eq!(net.dropped_count(), 0);
        net.post(Endpoint::new(HOME, "nobody"), 42u32);
        assert_eq!(net.dropped_count(), 1);
        let trace = net.trace_snapshot();
        let entry = trace
            .find("wire drop node0/__external -> node0/nobody: no local mailbox")
            .expect("drop should be traced");
        assert_eq!(entry.category, TraceCategory::Net);
    }

    #[test]
    fn trace_since_is_the_tail_of_the_snapshot() {
        let (net, _) = one_node(5);
        for n in 0..5u32 {
            net.post(Endpoint::new(HOME, "nobody"), n);
        }
        let all = net.trace_snapshot();
        assert_eq!(all.len(), 5);
        for k in 0..=6 {
            assert_eq!(net.trace_since(k), all.entries().get(k..).unwrap_or_default());
        }
    }

    /// A reader asleep in `trace_wait_since` wakes on a record made on
    /// another thread, long before its timeout.
    #[test]
    fn trace_wait_since_wakes_on_a_record() {
        let (net, _) = one_node(7);
        let host = Arc::clone(&net.host);
        let recorded = Arc::new(Mutex::new(None));
        let at = Arc::clone(&recorded);
        let recorder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            *at.lock() = Some(Instant::now());
            host.record(TraceCategory::Other, "grown".into());
        });
        let entries = net.trace_wait_since(0, Duration::from_secs(10));
        let woke = Instant::now();
        recorder.join().expect("recorder thread");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].message, "grown");
        let recorded = recorded.lock().expect("recorded before the wake");
        let lag = woke.saturating_duration_since(recorded);
        assert!(lag < Duration::from_millis(100), "woke {lag:?} after the record");
    }

    /// Entries beyond `n` already there: no wait at all.
    #[test]
    fn trace_wait_since_returns_at_once_when_behind() {
        let (net, _) = one_node(8);
        for n in 0..3u32 {
            net.post(Endpoint::new(HOME, "nobody"), n);
        }
        let start = Instant::now();
        let entries = net.trace_wait_since(1, Duration::from_secs(10));
        assert!(start.elapsed() < Duration::from_secs(1), "waited {:?}", start.elapsed());
        assert_eq!(entries, net.trace_since(1));
        assert_eq!(entries.len(), 2);
    }

    /// Nothing recorded past `n`: empty, and not before the timeout.
    #[test]
    fn trace_wait_since_times_out_empty() {
        let (net, _) = one_node(9);
        for n in 0..2 {
            let start = Instant::now();
            let entries = net.trace_wait_since(n, Duration::from_millis(40));
            assert!(entries.is_empty(), "nothing lies beyond entry {n}");
            assert!(start.elapsed() >= Duration::from_millis(40), "returned early");
            net.post(Endpoint::new(HOME, "nobody"), 0u32);
        }
    }
}
