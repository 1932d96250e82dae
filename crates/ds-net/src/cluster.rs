//! The simulated cluster: nodes, links, processes, and message routing,
//! driven by the `ds-sim` kernel.
//!
//! [`ClusterSim`] is the facade used by tests, examples, and the experiment
//! harness: build a topology, register services, inject faults, run, and
//! inspect the trace and counters.

use std::collections::{BTreeMap, HashMap};

use ds_sim::prelude::*;
use ds_sim::sim::Scheduler;

use crate::endpoint::{Endpoint, NodeId, ProcessId, ServiceName};
use crate::error::NetError;
use crate::link::{Link, RouteOutcome};
use crate::message::{Envelope, MsgBody};
use crate::node::{Node, NodeConfig, NodeStatus};
use crate::process::{Process, ProcessEnv, ProcessFactory, TimerHandle};
use crate::transport::{TransportEvent, WIRE_SERVICE};

/// Latency charged for same-node (IPC) messages — COM LPC was fast and
/// reliable relative to the network.
pub const IPC_LATENCY: SimDuration = SimDuration::from_micros(50);

/// Delay between a service being launched and its `on_start` running
/// (process creation + DLL load time).
pub const PROCESS_SPAWN_DELAY: SimDuration = SimDuration::from_millis(20);

/// Message-flow counters, updated on every routing decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Messages offered to the network.
    pub sent: u64,
    /// Messages handed to a running process.
    pub delivered: u64,
    /// Dropped by random path loss.
    pub dropped_loss: u64,
    /// Dropped because no healthy path existed.
    pub dropped_no_path: u64,
    /// Dropped because the destination node was down at delivery time.
    pub dropped_node_down: u64,
    /// Dropped because no process was registered for the destination
    /// service at delivery time.
    pub dropped_no_service: u64,
}

impl NetCounters {
    /// Total messages dropped for any reason.
    pub fn dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_no_path + self.dropped_node_down + self.dropped_no_service
    }
}

struct ProcSlot {
    pid: ProcessId,
    endpoint: Endpoint,
    actor: Option<Box<dyn Process>>,
    rng: SimRng,
    /// `false` until `on_start` has run — a service that has not finished
    /// starting is not listening, so deliveries to it are dropped.
    started: bool,
}

/// The world type simulated by [`ClusterSim`].
pub struct Cluster {
    nodes: BTreeMap<NodeId, Node>,
    links: HashMap<(NodeId, NodeId), Link>,
    procs: HashMap<ProcessId, ProcSlot>,
    services: HashMap<(NodeId, ServiceName), ProcessId>,
    specs: HashMap<(NodeId, ServiceName), ProcessFactory>,
    next_pid: u64,
    next_node: u16,
    /// Local services subscribed to [`TransportEvent`]s, as on the socket
    /// runtime.
    transport_subs: Vec<Endpoint>,
    /// When true, every send/delivery is traced (verbose; off by default).
    pub trace_net: bool,
    counters: NetCounters,
}

impl Cluster {
    fn new() -> Self {
        Cluster {
            nodes: BTreeMap::new(),
            links: HashMap::new(),
            procs: HashMap::new(),
            services: HashMap::new(),
            specs: HashMap::new(),
            next_pid: 0,
            next_node: 0,
            transport_subs: Vec::new(),
            trace_net: false,
            counters: NetCounters::default(),
        }
    }

    fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// The node with `id`.
    ///
    /// # Panics
    ///
    /// Panics if no such node exists.
    pub fn node(&self, id: NodeId) -> &Node {
        self.nodes.get(&id).unwrap_or_else(|| panic!("unknown node {id}"))
    }

    /// Exclusive access to the node with `id`.
    ///
    /// # Panics
    ///
    /// Panics if no such node exists.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes.get_mut(&id).unwrap_or_else(|| panic!("unknown node {id}"))
    }

    /// The node with `id`, as a typed error instead of a panic — the form
    /// the fault-injection and routing hot paths use, since an explored
    /// schedule or a mis-aimed fault can legitimately reference a node the
    /// cluster does not have.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if no such node exists.
    pub fn try_node(&self, id: NodeId) -> Result<&Node, NetError> {
        self.nodes.get(&id).ok_or(NetError::UnknownNode(id))
    }

    /// Exclusive [`Cluster::try_node`].
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if no such node exists.
    pub fn try_node_mut(&mut self, id: NodeId) -> Result<&mut Node, NetError> {
        self.nodes.get_mut(&id).ok_or(NetError::UnknownNode(id))
    }

    /// All node ids, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// The link between `a` and `b`, if connected.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        self.links.get(&Self::link_key(a, b))
    }

    /// Exclusive access to the link between `a` and `b`.
    pub fn link_mut(&mut self, a: NodeId, b: NodeId) -> Option<&mut Link> {
        self.links.get_mut(&Self::link_key(a, b))
    }

    /// Message-flow counters.
    pub fn counters(&self) -> NetCounters {
        self.counters
    }

    /// `true` if a process is currently registered for `service` on `node`.
    pub fn is_service_running(&self, node: NodeId, service: &ServiceName) -> bool {
        self.services.contains_key(&(node, service.clone()))
    }

    /// The pid of the running instance of `service` on `node`, if any.
    pub fn service_pid(&self, node: NodeId, service: &ServiceName) -> Option<ProcessId> {
        self.services.get(&(node, service.clone())).copied()
    }

    // ---- internal operations, called with the scheduler in hand ----------

    fn route(&mut self, sched: &mut Scheduler<'_, Cluster>, envelope: Envelope) {
        self.counters.sent += 1;
        let to = envelope.to.clone();
        if self.trace_net {
            sched.record(
                TraceCategory::Net,
                format!("send {} -> {} ({} B)", envelope.from, to, envelope.size_bytes),
            );
        }
        let src_node = envelope.from.node;
        let delay = if src_node == to.node {
            // Same-node IPC: reliable, fast, independent of node links.
            Some(IPC_LATENCY)
        } else {
            let Some(link) = self.links.get(&Self::link_key(src_node, to.node)) else {
                self.counters.dropped_no_path += 1;
                if self.trace_net {
                    sched.record(TraceCategory::Net, format!("no route {} -> {}", src_node, to));
                }
                return;
            };
            match link.route(envelope.size_bytes, sched.rng()) {
                RouteOutcome::Deliver(d) => Some(d),
                RouteOutcome::Lost => {
                    self.counters.dropped_loss += 1;
                    None
                }
                RouteOutcome::NoPath => {
                    self.counters.dropped_no_path += 1;
                    None
                }
            }
        };
        // A crashed sender cannot transmit: route() is only reachable from a
        // live process handler, so the source is up by construction.
        let Some(delay) = delay else { return };
        let mut envelope = envelope;
        envelope.clock = sched.current_clock();
        sched.schedule_scoped(
            delay,
            || format!("net:{to}"),
            move |cluster: &mut Cluster, sched| {
                cluster.deliver(sched, envelope);
            },
        );
    }

    fn deliver(&mut self, sched: &mut Scheduler<'_, Cluster>, envelope: Envelope) {
        let to = envelope.to.clone();
        if !self.nodes.get(&to.node).map(|n| n.status.is_up()).unwrap_or(false) {
            self.counters.dropped_node_down += 1;
            if self.trace_net {
                sched.record(TraceCategory::Net, format!("drop (node down): {}", to));
            }
            return;
        }
        let Some(&pid) = self.services.get(&(to.node, to.service.clone())) else {
            self.counters.dropped_no_service += 1;
            if self.trace_net {
                sched.record(TraceCategory::Net, format!("drop (no service): {}", to));
            }
            return;
        };
        if !self.procs.get(&pid).map(|s| s.started).unwrap_or(false) {
            self.counters.dropped_no_service += 1;
            if self.trace_net {
                sched.record(TraceCategory::Net, format!("drop (still starting): {}", to));
            }
            return;
        }
        self.counters.delivered += 1;
        self.dispatch(sched, pid, Dispatch::Message(envelope), None);
    }

    fn dispatch(
        &mut self,
        sched: &mut Scheduler<'_, Cluster>,
        pid: ProcessId,
        what: Dispatch,
        inherited: Option<VectorClock>,
    ) {
        let Some(slot) = self.procs.get_mut(&pid) else { return };
        let Some(mut actor) = slot.actor.take() else {
            // Re-entrant dispatch to a process already running a handler is
            // impossible in a sequential DES; treat defensively as a drop.
            return;
        };
        let mut rng = slot.rng.clone();
        let endpoint = slot.endpoint.clone();
        if sched.causality_enabled() {
            // Clock rules: the handling incarnation ticks its own component;
            // a delivered message joins the sender's stamp, and a spawn
            // joins the clock of whoever requested the (re)start.
            sched.begin_actor(&endpoint.to_string());
            if let Some(clock) = &inherited {
                sched.join_clock(clock);
            }
            if let Dispatch::Message(envelope) = &what {
                if let Some(clock) = &envelope.clock {
                    sched.join_clock(clock);
                }
            }
        }
        let mut env =
            ProcCtx { cluster: self, sched, pid, endpoint, rng: &mut rng, exit_requested: false };
        match what {
            Dispatch::Start => actor.on_start(&mut env),
            Dispatch::Message(envelope) => actor.on_message(envelope, &mut env),
            Dispatch::Timer(token) => actor.on_timer(token, &mut env),
        }
        let exited = env.exit_requested;
        // Put the actor back only if this incarnation still exists (the
        // handler may have killed its own service or crashed its own node).
        if let Some(slot) = self.procs.get_mut(&pid) {
            if exited {
                let key = (slot.endpoint.node, slot.endpoint.service.clone());
                self.services.remove(&key);
                self.procs.remove(&pid);
            } else {
                slot.actor = Some(actor);
                slot.rng = rng;
            }
        }
    }

    fn start_service(
        &mut self,
        sched: &mut Scheduler<'_, Cluster>,
        node: NodeId,
        service: ServiceName,
    ) {
        if !self.nodes.get(&node).map(|n| n.status.is_up()).unwrap_or(false) {
            return;
        }
        if self.services.contains_key(&(node, service.clone())) {
            return; // already running
        }
        let Some(factory) = self.specs.get(&(node, service.clone())) else {
            sched.record(
                TraceCategory::Other,
                format!("cannot start {node}/{service}: no spec registered"),
            );
            return;
        };
        let actor = factory();
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        let endpoint = Endpoint::new(node, service.clone());
        let rng = sched.rng().fork();
        self.procs.insert(pid, ProcSlot { pid, endpoint, actor: Some(actor), rng, started: false });
        self.services.insert((node, service.clone()), pid);
        sched.record(TraceCategory::Other, format!("start {node}/{service} as {pid}"));
        // Capture the requester's clock so the spawned incarnation's
        // `on_start` is happens-after whoever asked for the (re)start.
        let parent_clock = sched.current_clock();
        sched.schedule_scoped(
            PROCESS_SPAWN_DELAY,
            || format!("spawn:{node}/{service}"),
            move |cluster: &mut Cluster, sched| {
                if let Some(slot) = cluster.procs.get_mut(&pid) {
                    slot.started = true;
                    cluster.dispatch(sched, pid, Dispatch::Start, parent_clock);
                }
            },
        );
    }

    fn kill_service(
        &mut self,
        sched: &mut Scheduler<'_, Cluster>,
        node: NodeId,
        service: &ServiceName,
    ) {
        if let Some(pid) = self.services.remove(&(node, service.clone())) {
            self.procs.remove(&pid);
            sched.record(TraceCategory::Fault, format!("kill {node}/{service} ({pid})"));
        }
    }

    fn kill_all_on_node(&mut self, node: NodeId) {
        let dead: Vec<ProcessId> =
            self.procs.values().filter(|s| s.endpoint.node == node).map(|s| s.pid).collect();
        for pid in dead {
            if let Some(slot) = self.procs.remove(&pid) {
                self.services.remove(&(node, slot.endpoint.service));
            }
        }
    }

    /// Brings a node up (initial boot, repair, or reboot completion) and
    /// launches its auto-start services at randomized offsets, modelling the
    /// NT startup non-determinism of paper Section 3.2.
    fn boot_node(&mut self, sched: &mut Scheduler<'_, Cluster>, node_id: NodeId) {
        let (services, max_delay) = {
            let node = match self.try_node_mut(node_id) {
                Ok(node) => node,
                Err(err) => {
                    sched.record(TraceCategory::Fault, format!("boot failed: {err}"));
                    return;
                }
            };
            node.status = NodeStatus::Up;
            node.boot_count += 1;
            (node.autostart.clone(), node.config.max_start_delay)
        };
        sched.record(TraceCategory::Fault, format!("{node_id} up (boot)"));
        for service in services {
            let delay = if max_delay.is_zero() {
                SimDuration::ZERO
            } else {
                sched.rng().duration_between(SimDuration::ZERO, max_delay)
            };
            let label = format!("boot:{node_id}/{service}");
            sched.schedule_scoped(
                delay,
                || label,
                move |cluster: &mut Cluster, sched| {
                    cluster.start_service(sched, node_id, service.clone());
                },
            );
        }
    }
}

enum Dispatch {
    Start,
    Message(Envelope),
    Timer(u64),
}

/// [`ProcessEnv`] implementation backing simulated processes.
struct ProcCtx<'a, 'b> {
    cluster: &'a mut Cluster,
    sched: &'a mut Scheduler<'b, Cluster>,
    pid: ProcessId,
    endpoint: Endpoint,
    rng: &'a mut SimRng,
    exit_requested: bool,
}

impl ProcessEnv for ProcCtx<'_, '_> {
    fn now(&self) -> SimTime {
        self.sched.now()
    }

    fn self_endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    fn send(&mut self, to: Endpoint, body: MsgBody, size_bytes: u64) {
        let envelope = Envelope::sized(self.endpoint.clone(), to, body, size_bytes);
        self.cluster.route(self.sched, envelope);
    }

    fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerHandle {
        let pid = self.pid;
        let endpoint = &self.endpoint;
        let id = self.sched.schedule_scoped(
            after,
            || format!("timer:{endpoint}"),
            move |cluster: &mut Cluster, sched| {
                // The incarnation check: a timer armed by a dead process must
                // never fire into its successor.
                if cluster.procs.contains_key(&pid) {
                    // Timers are same-actor: program order already covers
                    // the arm→fire edge, so no clock rides along.
                    cluster.dispatch(sched, pid, Dispatch::Timer(token), None);
                }
            },
        );
        TimerHandle(id.as_u64())
    }

    fn cancel_timer(&mut self, handle: TimerHandle) {
        self.sched.cancel(EventId::from_u64(handle.0));
    }

    fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    fn record(&mut self, category: TraceCategory, message: String) {
        self.sched.record(category, message);
    }

    fn kill_service(&mut self, node: NodeId, service: &ServiceName) {
        if node == self.endpoint.node && *service == self.endpoint.service {
            self.exit_requested = true;
            return;
        }
        self.cluster.kill_service(self.sched, node, service);
    }

    fn restart_service(&mut self, node: NodeId, service: &ServiceName) {
        self.cluster.start_service(self.sched, node, service.clone());
    }

    fn exit(&mut self) {
        self.exit_requested = true;
    }
}

/// A buildable, runnable simulated cluster.
///
/// # Examples
///
/// ```
/// use ds_net::prelude::*;
///
/// let mut cluster = ClusterSim::new(42);
/// let a = cluster.add_node(NodeConfig::default());
/// let b = cluster.add_node(NodeConfig::default());
/// cluster.connect(a, b, Link::dual());
/// assert!(cluster.cluster().link(a, b).is_some());
/// ```
pub struct ClusterSim {
    sim: Sim<Cluster>,
}

impl ClusterSim {
    /// Creates an empty cluster with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        ClusterSim { sim: Sim::new(Cluster::new(), seed) }
    }

    /// Adds a node; returns its id.
    pub fn add_node(&mut self, config: NodeConfig) -> NodeId {
        let cluster = self.sim.world_mut();
        let id = NodeId(cluster.next_node);
        cluster.next_node += 1;
        cluster.nodes.insert(id, Node::new(id, config));
        id
    }

    /// Connects two nodes with a link (replacing any existing link).
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist or `a == b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: Link) {
        assert_ne!(a, b, "cannot link a node to itself");
        let cluster = self.sim.world_mut();
        assert!(cluster.nodes.contains_key(&a), "unknown node {a}");
        assert!(cluster.nodes.contains_key(&b), "unknown node {b}");
        cluster.links.insert(Cluster::link_key(a, b), link);
    }

    /// Registers a service spec on a node. If `autostart`, the service is
    /// launched at every boot of the node (including [`ClusterSim::start`]).
    pub fn register_service(
        &mut self,
        node: NodeId,
        service: impl Into<ServiceName>,
        factory: ProcessFactory,
        autostart: bool,
    ) {
        let service = service.into();
        let cluster = self.sim.world_mut();
        assert!(cluster.nodes.contains_key(&node), "unknown node {node}");
        cluster.specs.insert((node, service.clone()), factory);
        if autostart {
            cluster.node_mut(node).autostart.push(service);
        }
    }

    /// Boots every node at time zero: each auto-start service comes up at an
    /// independent random offset (the paper's NT startup non-determinism).
    pub fn start(&mut self) {
        let ids = self.sim.world().node_ids();
        for id in ids {
            self.sim.schedule_at_scoped(
                SimTime::ZERO,
                || format!("boot:{id}"),
                move |cluster: &mut Cluster, sched| {
                    // boot_node bumps boot_count; initial construction already
                    // counted boot 1, so compensate.
                    cluster.node_mut(id).boot_count -= 1;
                    cluster.boot_node(sched, id);
                },
            );
        }
    }

    /// Launches a specific service at an absolute time (for staggered-start
    /// experiments).
    pub fn start_service_at(&mut self, at: SimTime, node: NodeId, service: impl Into<ServiceName>) {
        let service = service.into();
        let label = format!("spawn:{node}/{service}");
        self.sim.schedule_at_scoped(
            at,
            || label,
            move |cluster: &mut Cluster, sched| {
                cluster.start_service(sched, node, service.clone());
            },
        );
    }

    /// Subscribes a service to [`TransportEvent`]s about its own node's
    /// links, delivered as envelopes from `<node>/__wire` — the same
    /// contract as the socket runtime's method of this name. The simulator
    /// has no sockets, so its only event sources are
    /// [`crate::fault::Fault::PeerReset`] and
    /// [`crate::fault::Fault::PeerRefused`].
    pub fn subscribe_transport_events(&mut self, endpoint: Endpoint) {
        self.sim.world_mut().transport_subs.push(endpoint);
    }

    /// Posts a message into the cluster from a synthetic external source
    /// (unit-test convenience; real drivers are processes).
    pub fn post<T: std::any::Any + Send>(&mut self, at: SimTime, to: Endpoint, body: T) {
        let from = Endpoint::new(to.node, "__external");
        let envelope = Envelope::new(from, to, body);
        self.sim.schedule_at(at, move |cluster: &mut Cluster, sched| {
            cluster.deliver(sched, envelope);
        });
    }

    /// Runs until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        self.sim.run_until(horizon)
    }

    /// Runs until the event queue drains (bounded by `max_events`).
    ///
    /// # Panics
    ///
    /// Panics if `max_events` is exceeded.
    pub fn run_to_completion(&mut self, max_events: u64) -> SimTime {
        self.sim.run_to_completion(max_events)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The cluster world.
    pub fn cluster(&self) -> &Cluster {
        self.sim.world()
    }

    /// Exclusive access to the cluster world (setup/inspection only; do not
    /// mutate topology mid-run except through fault injection).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        self.sim.world_mut()
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        self.sim.trace()
    }

    /// Exclusive access to the trace (e.g. to enable echo).
    pub fn trace_mut(&mut self) -> &mut Trace {
        self.sim.trace_mut()
    }

    /// The underlying simulation (escape hatch for the fault layer).
    pub fn sim_mut(&mut self) -> &mut Sim<Cluster> {
        &mut self.sim
    }

    /// Sets the same-timestamp tie-break policy (see
    /// [`ds_sim::schedule::SchedulePolicy`]). Install before
    /// [`ClusterSim::start`] so boot-time ties are already choice points.
    pub fn set_schedule_policy(&mut self, policy: SchedulePolicy) {
        self.sim.set_schedule_policy(policy);
    }

    /// Choice points recorded by an exploring schedule policy.
    pub fn choice_points(&self) -> &[ChoicePoint] {
        self.sim.choice_points()
    }

    /// The tie-break index taken at each choice point so far — pair with
    /// the seed for a replayable [`ds_sim::schedule::Schedule`].
    pub fn choices_taken(&self) -> Vec<u32> {
        self.sim.choices_taken()
    }

    /// Turns causality recording on or off (off by default). Install before
    /// [`ClusterSim::start`] so boot-time spawns already carry clocks.
    pub fn set_causality_recording(&mut self, on: bool) {
        self.sim.set_causality_recording(on);
    }

    /// Consumes the wrapper, returning world and trace.
    pub fn into_parts(self) -> (Cluster, Trace) {
        self.sim.into_parts()
    }
}

// Crate-internal hooks used by the fault layer.
impl Cluster {
    /// Surfaces a fault-layer error through the trace instead of panicking:
    /// a fault plan aimed at a node the cluster never had is a scenario bug
    /// the invariant engine should get to see, not an abort.
    fn fault_error(sched: &mut Scheduler<'_, Cluster>, what: &str, err: &NetError) {
        sched.record(TraceCategory::Fault, format!("fault {what} failed: {err}"));
    }

    pub(crate) fn fault_crash_node(&mut self, sched: &mut Scheduler<'_, Cluster>, node: NodeId) {
        match self.try_node_mut(node) {
            Ok(n) => n.status = NodeStatus::Crashed,
            Err(err) => return Self::fault_error(sched, "crash", &err),
        }
        self.kill_all_on_node(node);
        sched.record(TraceCategory::Fault, format!("{node} crashed (hard)"));
    }

    pub(crate) fn fault_repair_node(&mut self, sched: &mut Scheduler<'_, Cluster>, node: NodeId) {
        match self.try_node(node) {
            Ok(n) if n.status == NodeStatus::Crashed => self.boot_node(sched, node),
            Ok(_) => {}
            Err(err) => Self::fault_error(sched, "repair", &err),
        }
    }

    pub(crate) fn fault_reboot_node(&mut self, sched: &mut Scheduler<'_, Cluster>, node: NodeId) {
        let reboot_duration = match self.try_node(node) {
            Ok(n) => n.config.reboot_duration,
            Err(err) => return Self::fault_error(sched, "reboot", &err),
        };
        let until = sched.now() + reboot_duration;
        self.node_mut(node).status = NodeStatus::Rebooting { until };
        self.kill_all_on_node(node);
        sched.record(TraceCategory::Fault, format!("{node} blue screen; rebooting until {until}"));
        sched.schedule_at(until, move |cluster: &mut Cluster, sched| {
            if matches!(cluster.node(node).status, NodeStatus::Rebooting { .. }) {
                cluster.boot_node(sched, node);
            }
        });
    }

    pub(crate) fn fault_kill_service(
        &mut self,
        sched: &mut Scheduler<'_, Cluster>,
        node: NodeId,
        service: &ServiceName,
    ) {
        self.kill_service(sched, node, service);
    }

    pub(crate) fn fault_start_service(
        &mut self,
        sched: &mut Scheduler<'_, Cluster>,
        node: NodeId,
        service: ServiceName,
    ) {
        self.start_service(sched, node, service);
    }

    /// `to`'s transport reports `event` about one of its links: the fault
    /// is traced as `note`, and every subscriber on `to` gets the event
    /// from `<to>/__wire`.
    pub(crate) fn fault_transport_event(
        &mut self,
        sched: &mut Scheduler<'_, Cluster>,
        to: NodeId,
        event: TransportEvent,
        note: String,
    ) {
        sched.record(TraceCategory::Fault, note);
        let wire = Endpoint::new(to, WIRE_SERVICE);
        let subs: Vec<Endpoint> =
            self.transport_subs.iter().filter(|ep| ep.node == to).cloned().collect();
        for sub in subs {
            self.deliver(sched, Envelope::new(wire.clone(), sub, event));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessEnvExt;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// Echoes every u32 it receives back to the sender, incremented.
    struct Echo;
    impl Process for Echo {
        fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
            let from = envelope.from.clone();
            if let Ok(n) = envelope.body.downcast::<u32>() {
                env.send_msg(from, n + 1);
            }
        }
    }

    /// Sends `0` to a peer on start and counts replies.
    struct Pinger {
        peer: Endpoint,
        replies: Arc<AtomicU32>,
    }
    impl Process for Pinger {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            env.send_msg(self.peer.clone(), 0u32);
        }
        fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
            if let Ok(n) = envelope.body.downcast::<u32>() {
                self.replies.fetch_add(1, Ordering::SeqCst);
                if n < 10 {
                    env.send_msg(envelope.from, n + 1);
                }
            }
        }
    }

    fn two_node_cluster(seed: u64) -> (ClusterSim, NodeId, NodeId) {
        let mut cs = ClusterSim::new(seed);
        let a = cs.add_node(NodeConfig::default());
        let b = cs.add_node(NodeConfig::default());
        cs.connect(a, b, Link::dual());
        (cs, a, b)
    }

    #[test]
    fn ping_pong_round_trips() {
        let (mut cs, a, b) = two_node_cluster(6);
        let replies = Arc::new(AtomicU32::new(0));
        let r = replies.clone();
        cs.register_service(b, "echo", Box::new(|| Box::new(Echo)), true);
        cs.register_service(
            a,
            "pinger",
            Box::new(move || {
                Box::new(Pinger { peer: Endpoint::new(b, "echo"), replies: r.clone() })
            }),
            true,
        );
        cs.start();
        cs.run_until(SimTime::from_secs(5));
        // 0->1->2..: pinger sees odd numbers 1,3,5,7,9,11 → 6 replies.
        assert_eq!(replies.load(Ordering::SeqCst), 6);
        let c = cs.cluster().counters();
        assert_eq!(c.dropped(), 0);
        assert!(c.delivered >= 12);
    }

    #[test]
    fn messages_to_downed_node_are_dropped() {
        let (mut cs, a, b) = two_node_cluster(2);
        cs.register_service(b, "echo", Box::new(|| Box::new(Echo)), true);
        cs.register_service(
            a,
            "pinger",
            Box::new(move || {
                Box::new(Pinger {
                    peer: Endpoint::new(b, "echo"),
                    replies: Arc::new(AtomicU32::new(0)),
                })
            }),
            true,
        );
        cs.start();
        // Crash b before anything can run.
        crate::fault::inject(&mut cs, SimTime::from_micros(1), crate::fault::Fault::CrashNode(b));
        cs.run_until(SimTime::from_secs(2));
        let c = cs.cluster().counters();
        assert_eq!(c.delivered, 0);
        assert!(c.dropped_node_down + c.dropped_no_service >= 1);
    }

    #[test]
    fn service_restart_gets_fresh_incarnation() {
        let (mut cs, _a, b) = two_node_cluster(3);
        cs.register_service(b, "echo", Box::new(|| Box::new(Echo)), true);
        cs.start();
        cs.run_until(SimTime::from_secs(1));
        let pid1 = cs.cluster().service_pid(b, &"echo".into()).unwrap();
        crate::fault::inject(
            &mut cs,
            SimTime::from_secs(1),
            crate::fault::Fault::KillService(b, "echo".into()),
        );
        crate::fault::inject(
            &mut cs,
            SimTime::from_secs(2),
            crate::fault::Fault::StartService(b, "echo".into()),
        );
        cs.run_until(SimTime::from_secs(3));
        let pid2 = cs.cluster().service_pid(b, &"echo".into()).unwrap();
        assert_ne!(pid1, pid2, "restart must create a new incarnation");
    }

    /// A process that arms a timer and counts fires.
    struct Ticker {
        period: SimDuration,
        fires: Arc<AtomicU32>,
    }
    impl Process for Ticker {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            env.set_timer(self.period, 1);
        }
        fn on_timer(&mut self, _token: u64, env: &mut dyn ProcessEnv) {
            self.fires.fetch_add(1, Ordering::SeqCst);
            env.set_timer(self.period, 1);
        }
    }

    #[test]
    fn timers_fire_periodically_and_die_with_the_process() {
        let (mut cs, a, _b) = two_node_cluster(4);
        let fires = Arc::new(AtomicU32::new(0));
        let f = fires.clone();
        cs.register_service(
            a,
            "ticker",
            Box::new(move || {
                Box::new(Ticker { period: SimDuration::from_millis(100), fires: f.clone() })
            }),
            true,
        );
        cs.start();
        cs.run_until(SimTime::from_secs(1));
        // Service start is jittered within 0..500 ms (NT startup model) plus
        // a 20 ms spawn delay, so between ~4 and 10 fires land inside 1 s.
        let after_1s = fires.load(Ordering::SeqCst);
        assert!((4..=10).contains(&after_1s), "got {after_1s} fires");
        crate::fault::inject(
            &mut cs,
            SimTime::from_secs(1),
            crate::fault::Fault::KillService(a, "ticker".into()),
        );
        cs.run_until(SimTime::from_secs(3));
        let after_kill = fires.load(Ordering::SeqCst);
        assert!(after_kill <= after_1s + 1, "timers must stop after kill");
    }

    #[test]
    fn reboot_relaunches_autostart_services() {
        let (mut cs, a, _b) = two_node_cluster(5);
        let fires = Arc::new(AtomicU32::new(0));
        let f = fires.clone();
        cs.register_service(
            a,
            "ticker",
            Box::new(move || {
                Box::new(Ticker { period: SimDuration::from_millis(100), fires: f.clone() })
            }),
            true,
        );
        cs.start();
        crate::fault::inject(&mut cs, SimTime::from_secs(1), crate::fault::Fault::RebootNode(a));
        cs.run_until(SimTime::from_secs(60));
        assert_eq!(cs.cluster().node(a).boot_count, 2);
        assert!(cs.cluster().node(a).status.is_up());
        assert!(cs.cluster().is_service_running(a, &"ticker".into()));
        // Ticker ticked before the reboot and again after.
        assert!(fires.load(Ordering::SeqCst) > 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let (mut cs, a, b) = two_node_cluster(seed);
            let replies = Arc::new(AtomicU32::new(0));
            let r = replies.clone();
            cs.register_service(b, "echo", Box::new(|| Box::new(Echo)), true);
            cs.register_service(
                a,
                "pinger",
                Box::new(move || {
                    Box::new(Pinger { peer: Endpoint::new(b, "echo"), replies: r.clone() })
                }),
                true,
            );
            cs.start();
            cs.run_until(SimTime::from_secs(5));
            cs.trace().to_text()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::link::PathConfig;

    #[test]
    fn connect_replaces_an_existing_link() {
        let mut cs = ClusterSim::new(1);
        let a = cs.add_node(NodeConfig::default());
        let b = cs.add_node(NodeConfig::default());
        cs.connect(a, b, Link::dual());
        assert_eq!(cs.cluster().link(a, b).unwrap().path_count(), 2);
        cs.connect(a, b, Link::new(vec![PathConfig::default().with_loss(0.5)]));
        assert_eq!(cs.cluster().link(a, b).unwrap().path_count(), 1);
        // Link lookup is symmetric.
        assert!(cs.cluster().link(b, a).is_some());
    }

    #[test]
    #[should_panic(expected = "cannot link a node to itself")]
    fn self_link_rejected() {
        let mut cs = ClusterSim::new(1);
        let a = cs.add_node(NodeConfig::default());
        cs.connect(a, a, Link::single());
    }

    #[test]
    fn post_to_unknown_service_counts_a_drop() {
        let mut cs = ClusterSim::new(2);
        let a = cs.add_node(NodeConfig::default());
        cs.post(SimTime::from_millis(1), Endpoint::new(a, "nobody"), 42u32);
        cs.run_until(SimTime::from_secs(1));
        assert_eq!(cs.cluster().counters().dropped_no_service, 1);
        assert_eq!(cs.cluster().counters().delivered, 0);
    }

    #[test]
    fn start_service_without_spec_records_a_trace() {
        let mut cs = ClusterSim::new(3);
        let a = cs.add_node(NodeConfig::default());
        cs.start_service_at(SimTime::from_millis(1), a, "ghost");
        cs.run_until(SimTime::from_secs(1));
        assert!(cs.trace().find("no spec registered").is_some());
        assert!(!cs.cluster().is_service_running(a, &"ghost".into()));
    }

    #[test]
    fn messages_between_unconnected_nodes_drop_as_no_path() {
        struct Shout {
            to: Endpoint,
        }
        impl Process for Shout {
            fn on_start(&mut self, env: &mut dyn ProcessEnv) {
                crate::process::ProcessEnvExt::send_msg(env, self.to.clone(), 1u8);
            }
        }
        let mut cs = ClusterSim::new(4);
        let a = cs.add_node(NodeConfig::default());
        let b = cs.add_node(NodeConfig::default());
        // No connect(a, b).
        let to = Endpoint::new(b, "x");
        cs.register_service(a, "shout", Box::new(move || Box::new(Shout { to: to.clone() })), true);
        cs.start();
        cs.run_until(SimTime::from_secs(1));
        assert_eq!(cs.cluster().counters().dropped_no_path, 1);
    }

    #[test]
    fn trace_net_flag_records_sends() {
        struct SelfSend;
        impl Process for SelfSend {
            fn on_start(&mut self, env: &mut dyn ProcessEnv) {
                let me = env.self_endpoint();
                crate::process::ProcessEnvExt::send_msg(env, me, 1u8);
            }
        }
        let mut cs = ClusterSim::new(5);
        let a = cs.add_node(NodeConfig::default());
        cs.register_service(a, "echo", Box::new(|| Box::new(SelfSend)), true);
        cs.cluster_mut().trace_net = true;
        cs.start();
        cs.run_until(SimTime::from_secs(1));
        assert!(cs.trace().find("send node0/echo -> node0/echo").is_some());
    }
}
