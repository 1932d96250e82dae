//! Fault injection.
//!
//! The paper's demonstration (Section 4) exercises four failure classes:
//! (a) node failure, (b) NT crash / blue screen, (c) application software
//! failure, (d) OFTT middleware failure. Each maps to a [`Fault`] variant;
//! network-level faults (path failure, partition) cover the dual-Ethernet
//! discussion of Section 2.1 and the both-nodes-primary hazard of
//! Section 3.2.

use ds_sim::prelude::{SimTime, TraceCategory};

use crate::cluster::{Cluster, ClusterSim};
use crate::endpoint::{NodeId, ServiceName};
use crate::link::PathState;
use crate::transport::TransportEvent;

/// A fault (or repair) that can be scheduled against the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Hard node failure (paper class *a*); node stays down until
    /// [`Fault::RepairNode`].
    CrashNode(NodeId),
    /// Repair of a hard-crashed node: boots and relaunches auto-start
    /// services.
    RepairNode(NodeId),
    /// OS crash with automatic reboot (paper class *b*).
    RebootNode(NodeId),
    /// Kill one service instance (paper classes *c* and *d*, depending on
    /// whether the victim is the application or the OFTT engine).
    KillService(NodeId, ServiceName),
    /// Launch (or relaunch) a service from its registered spec.
    StartService(NodeId, ServiceName),
    /// Fail one path of the link between two nodes.
    PathDown(NodeId, NodeId, usize),
    /// Restore one path of the link between two nodes.
    PathUp(NodeId, NodeId, usize),
    /// Partition the link between two nodes entirely.
    Partition(NodeId, NodeId),
    /// Heal a partition.
    Heal(NodeId, NodeId),
    /// Retune every path of the link between two nodes (latency in µs,
    /// jitter in µs, bandwidth in bytes/s) — degraded-but-alive media.
    /// Restore by tuning back to the nominal figures.
    TuneLink {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
        /// New base latency, µs.
        latency_us: u64,
        /// New jitter (±), µs.
        jitter_us: u64,
        /// New bandwidth, bytes per second.
        bandwidth_bps: u64,
    },
    /// `to`'s transport sees its link to `from` closed by the remote end —
    /// what a peer's kernel does to its sockets when the whole process
    /// dies, or a proxy does when it severs a connection. Delivers
    /// [`crate::transport::TransportEvent::PeerDown`]`{ peer: from }` from
    /// `<to>/__wire` to `to`'s transport subscribers
    /// ([`ClusterSim::subscribe_transport_events`]). Routing is untouched.
    PeerReset {
        /// The node whose end of the link closed.
        from: NodeId,
        /// The node that observes the reset.
        to: NodeId,
    },
    /// `to`'s transport redials `from` and the dial is refused — what a
    /// live kernel answers when nothing listens at the peer's address, as
    /// after the whole process died. Delivers
    /// [`crate::transport::TransportEvent::PeerRefused`]`{ peer: from }`
    /// from `<to>/__wire` to `to`'s transport subscribers. Routing is
    /// untouched.
    PeerRefused {
        /// The node whose address refused the dial.
        from: NodeId,
        /// The node that dialed.
        to: NodeId,
    },
}

impl Fault {
    fn apply(&self, cluster: &mut Cluster, sched: &mut ds_sim::sim::Scheduler<'_, Cluster>) {
        match self {
            Fault::CrashNode(n) => cluster.fault_crash_node(sched, *n),
            Fault::RepairNode(n) => cluster.fault_repair_node(sched, *n),
            Fault::RebootNode(n) => cluster.fault_reboot_node(sched, *n),
            Fault::KillService(n, s) => cluster.fault_kill_service(sched, *n, s),
            Fault::StartService(n, s) => cluster.fault_start_service(sched, *n, s.clone()),
            Fault::PathDown(a, b, i) => {
                if let Some(link) = cluster.link_mut(*a, *b) {
                    // Scripted campaigns may address paths a narrower link
                    // does not have; record and move on rather than abort
                    // the whole run.
                    if *i < link.path_count() {
                        link.set_path_state(*i, PathState::Down);
                        sched.record(TraceCategory::Fault, format!("path {i} down: {a}<->{b}"));
                    } else {
                        sched.record(
                            TraceCategory::Fault,
                            format!("path {i} down ignored (no such path): {a}<->{b}"),
                        );
                    }
                }
            }
            Fault::PathUp(a, b, i) => {
                if let Some(link) = cluster.link_mut(*a, *b) {
                    if *i < link.path_count() {
                        link.set_path_state(*i, PathState::Up);
                        sched.record(TraceCategory::Fault, format!("path {i} up: {a}<->{b}"));
                    } else {
                        sched.record(
                            TraceCategory::Fault,
                            format!("path {i} up ignored (no such path): {a}<->{b}"),
                        );
                    }
                }
            }
            Fault::Partition(a, b) => {
                if let Some(link) = cluster.link_mut(*a, *b) {
                    link.set_partitioned(true);
                    sched.record(TraceCategory::Fault, format!("partition: {a}<->{b}"));
                }
            }
            Fault::Heal(a, b) => {
                if let Some(link) = cluster.link_mut(*a, *b) {
                    link.set_partitioned(false);
                    sched.record(TraceCategory::Fault, format!("heal: {a}<->{b}"));
                }
            }
            Fault::TuneLink { a, b, latency_us, jitter_us, bandwidth_bps } => {
                if let Some(link) = cluster.link_mut(*a, *b) {
                    link.tune_paths(
                        ds_sim::prelude::SimDuration::from_micros(*latency_us),
                        ds_sim::prelude::SimDuration::from_micros(*jitter_us),
                        *bandwidth_bps,
                    );
                    sched.record(
                        TraceCategory::Fault,
                        format!(
                            "tune: {a}<->{b} latency={latency_us}us \
                             jitter={jitter_us}us bw={bandwidth_bps}Bps"
                        ),
                    );
                }
            }
            Fault::PeerReset { from, to } => cluster.fault_transport_event(
                sched,
                *to,
                TransportEvent::PeerDown { peer: *from },
                format!("link reset by {from} seen at {to}"),
            ),
            Fault::PeerRefused { from, to } => cluster.fault_transport_event(
                sched,
                *to,
                TransportEvent::PeerRefused { peer: *from },
                format!("redial to {from} refused at {to}"),
            ),
        }
    }
}

/// Schedules one fault at an absolute time.
pub fn inject(sim: &mut ClusterSim, at: SimTime, fault: Fault) {
    sim.sim_mut().schedule_at_scoped(
        at,
        || "fault".to_string(),
        move |cluster: &mut Cluster, sched| {
            fault.apply(cluster, sched);
        },
    );
}

/// A timed sequence of faults — one failure campaign.
///
/// # Examples
///
/// ```
/// use ds_net::prelude::*;
/// use ds_net::fault::{Fault, FaultPlan};
///
/// let mut cluster = ClusterSim::new(1);
/// let a = cluster.add_node(NodeConfig::default());
/// let b = cluster.add_node(NodeConfig::default());
/// cluster.connect(a, b, Link::dual());
///
/// let mut plan = FaultPlan::new();
/// plan.at(SimTime::from_secs(10), Fault::CrashNode(a));
/// plan.at(SimTime::from_secs(40), Fault::RepairNode(a));
/// plan.schedule(&mut cluster);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<(SimTime, Fault)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at an absolute time; returns `&mut self` for chaining.
    pub fn at(&mut self, when: SimTime, fault: Fault) -> &mut Self {
        self.faults.push((when, fault));
        self
    }

    /// The planned faults in insertion order.
    pub fn faults(&self) -> &[(SimTime, Fault)] {
        &self.faults
    }

    /// Schedules every fault onto the simulation.
    pub fn schedule(&self, sim: &mut ClusterSim) {
        for (when, fault) in &self.faults {
            inject(sim, *when, fault.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSim;
    use crate::link::Link;
    use crate::node::{NodeConfig, NodeStatus};

    fn pair() -> (ClusterSim, NodeId, NodeId) {
        let mut cs = ClusterSim::new(7);
        let a = cs.add_node(NodeConfig::default());
        let b = cs.add_node(NodeConfig::default());
        cs.connect(a, b, Link::dual());
        (cs, a, b)
    }

    #[test]
    fn crash_and_repair_cycle() {
        let (mut cs, a, _) = pair();
        inject(&mut cs, SimTime::from_secs(1), Fault::CrashNode(a));
        cs.run_until(SimTime::from_secs(2));
        assert_eq!(cs.cluster().node(a).status, NodeStatus::Crashed);
        inject(&mut cs, SimTime::from_secs(3), Fault::RepairNode(a));
        cs.run_until(SimTime::from_secs(4));
        assert!(cs.cluster().node(a).status.is_up());
    }

    #[test]
    fn repair_of_up_node_is_noop() {
        let (mut cs, a, _) = pair();
        let boots_before = cs.cluster().node(a).boot_count;
        inject(&mut cs, SimTime::from_secs(1), Fault::RepairNode(a));
        cs.run_until(SimTime::from_secs(2));
        assert_eq!(cs.cluster().node(a).boot_count, boots_before);
    }

    #[test]
    fn reboot_goes_down_then_up() {
        let (mut cs, a, _) = pair();
        inject(&mut cs, SimTime::from_secs(1), Fault::RebootNode(a));
        cs.run_until(SimTime::from_secs(2));
        assert!(matches!(cs.cluster().node(a).status, NodeStatus::Rebooting { .. }));
        cs.run_until(SimTime::from_secs(60));
        assert!(cs.cluster().node(a).status.is_up());
    }

    #[test]
    fn partition_and_heal_toggle_link() {
        let (mut cs, a, b) = pair();
        inject(&mut cs, SimTime::from_secs(1), Fault::Partition(a, b));
        cs.run_until(SimTime::from_secs(2));
        assert!(!cs.cluster().link(a, b).unwrap().is_usable());
        inject(&mut cs, SimTime::from_secs(3), Fault::Heal(a, b));
        cs.run_until(SimTime::from_secs(4));
        assert!(cs.cluster().link(a, b).unwrap().is_usable());
    }

    #[test]
    fn path_faults_degrade_then_kill_dual_link() {
        let (mut cs, a, b) = pair();
        inject(&mut cs, SimTime::from_secs(1), Fault::PathDown(a, b, 0));
        cs.run_until(SimTime::from_secs(2));
        assert!(cs.cluster().link(a, b).unwrap().is_usable());
        inject(&mut cs, SimTime::from_secs(3), Fault::PathDown(a, b, 1));
        cs.run_until(SimTime::from_secs(4));
        assert!(!cs.cluster().link(a, b).unwrap().is_usable());
        inject(&mut cs, SimTime::from_secs(5), Fault::PathUp(a, b, 1));
        cs.run_until(SimTime::from_secs(6));
        assert!(cs.cluster().link(a, b).unwrap().is_usable());
    }

    #[test]
    fn tune_link_slows_traffic_without_dropping_it() {
        let (mut cs, a, b) = pair();
        inject(
            &mut cs,
            SimTime::from_secs(1),
            Fault::TuneLink { a, b, latency_us: 50_000, jitter_us: 0, bandwidth_bps: 10_000 },
        );
        cs.run_until(SimTime::from_secs(2));
        let link = cs.cluster().link(a, b).unwrap();
        assert!(link.is_usable(), "tuned link still carries traffic");
        match link.route(1_000, &mut ds_sim::prelude::SimRng::seed_from(1)) {
            crate::link::RouteOutcome::Deliver(d) => {
                // 50ms base + 1000B / 10kBps = 100ms transmission.
                assert!(d >= ds_sim::prelude::SimDuration::from_millis(140), "got {d}");
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn link_faults_reach_only_the_observing_nodes_subscribers() {
        use crate::endpoint::Endpoint;
        use crate::message::Envelope;
        use crate::process::{Process, ProcessEnv};
        use std::sync::{Arc, Mutex};

        type Seen = Arc<Mutex<Vec<(Endpoint, TransportEvent)>>>;
        struct Recorder(Seen);
        impl Process for Recorder {
            fn on_message(&mut self, envelope: Envelope, _env: &mut dyn ProcessEnv) {
                let from = envelope.from.clone();
                if let Ok(event) = envelope.body.downcast::<TransportEvent>() {
                    self.0.lock().unwrap().push((from, event));
                }
            }
        }

        let (mut cs, a, b) = pair();
        let seen: [Seen; 3] = Default::default();
        for (i, (node, svc)) in [(a, "sub"), (b, "sub"), (b, "deaf")].into_iter().enumerate() {
            let log = seen[i].clone();
            cs.register_service(node, svc, Box::new(move || Box::new(Recorder(log.clone()))), true);
        }
        cs.subscribe_transport_events(Endpoint::new(a, "sub"));
        cs.subscribe_transport_events(Endpoint::new(b, "sub"));
        cs.start();
        inject(&mut cs, SimTime::from_secs(1), Fault::PeerReset { from: a, to: b });
        inject(&mut cs, SimTime::from_millis(1_001), Fault::PeerRefused { from: a, to: b });
        cs.run_until(SimTime::from_secs(2));
        let got = seen[1].lock().unwrap().clone();
        let wire = Endpoint::new(b, "__wire");
        assert_eq!(
            got,
            vec![
                (wire.clone(), TransportEvent::PeerDown { peer: a }),
                (wire, TransportEvent::PeerRefused { peer: a }),
            ]
        );
        assert!(seen[0].lock().unwrap().is_empty(), "both are b's observations, not a's");
        assert!(seen[2].lock().unwrap().is_empty(), "unsubscribed services hear nothing");
        assert!(cs.cluster().link(a, b).unwrap().is_usable(), "routing is untouched");
    }

    #[test]
    fn fault_plan_schedules_in_order() {
        let (mut cs, a, _) = pair();
        let mut plan = FaultPlan::new();
        plan.at(SimTime::from_secs(1), Fault::CrashNode(a))
            .at(SimTime::from_secs(2), Fault::RepairNode(a));
        assert_eq!(plan.faults().len(), 2);
        plan.schedule(&mut cs);
        cs.run_until(SimTime::from_secs(3));
        assert!(cs.cluster().node(a).status.is_up());
        assert_eq!(cs.trace().count(TraceCategory::Fault), 2); // "crashed", "up (boot)"
    }
}
