//! Runtime-neutral plumbing shared by the real-time backends.
//!
//! Both the threads-only live runtime and the TCP wire runtime
//! (`oftt-wire`) host the same [`Process`] actors against real time, on
//! the one [`ActorHost`] in [`crate::live`]. This module holds the rest
//! of what they share:
//!
//! - `run_actor`: the mailbox/timer loop that drives one actor on its own
//!   OS thread, implementing [`ProcessEnv`] over its [`ActorHost`].
//! - Transport health/event types ([`PeerHealth`], [`TransportReport`],
//!   [`TransportEvent`]) reported by the socket backend and rendered by
//!   the OFTT System Monitor. They live here, not in `oftt-wire`, so
//!   middleware crates (msgq, oftt) can react to link events without
//!   depending on the socket backend.

use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use ds_sim::prelude::{SimDuration, SimRng, SimTime, TraceCategory};
use serde::{Deserialize, Serialize};

use crate::endpoint::{Endpoint, NodeId, ServiceName};
use crate::live::ActorHost;
use crate::message::{Envelope, MsgBody};
use crate::process::{Process, ProcessEnv, TimerHandle};

/// Control messages delivered to a hosted actor's mailbox.
pub(crate) enum Control {
    /// Deliver an application envelope.
    Deliver(Envelope),
    /// Terminate the actor without notification (models a process kill).
    Kill,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingTimer {
    deadline: Instant,
    handle: u64,
    token: u64,
}

impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by deadline.
        other.deadline.cmp(&self.deadline).then(other.handle.cmp(&self.handle))
    }
}

impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct HostEnv {
    host: Arc<ActorHost>,
    endpoint: Endpoint,
    rng: SimRng,
    timers: BinaryHeap<PendingTimer>,
    cancelled: HashSet<u64>,
    next_timer: u64,
    exit: bool,
}

impl ProcessEnv for HostEnv {
    fn now(&self) -> SimTime {
        self.host.now()
    }

    fn self_endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    fn send(&mut self, to: Endpoint, body: MsgBody, size_bytes: u64) {
        let envelope = Envelope::sized(self.endpoint.clone(), to, body, size_bytes);
        self.host.route(envelope);
    }

    fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerHandle {
        self.next_timer += 1;
        let handle = self.next_timer;
        let deadline = Instant::now() + Duration::from_micros(after.as_micros());
        self.timers.push(PendingTimer { deadline, handle, token });
        TimerHandle(handle)
    }

    fn cancel_timer(&mut self, handle: TimerHandle) {
        self.cancelled.insert(handle.0);
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    fn record(&mut self, category: TraceCategory, message: String) {
        self.host.record(category, message);
    }

    fn kill_service(&mut self, node: NodeId, service: &ServiceName) {
        let target = Endpoint::new(node, service.clone());
        if target == self.endpoint {
            self.exit = true;
        } else {
            self.host.kill_service(&target);
        }
    }

    fn restart_service(&mut self, node: NodeId, service: &ServiceName) {
        let target = Endpoint::new(node, service.clone());
        self.host.restart_service(&target);
    }

    fn exit(&mut self) {
        self.exit = true;
    }
}

/// Drives one actor against real time: fires due timers, then blocks on the
/// mailbox until the next deadline. Runs until the actor exits, is killed,
/// or its mailbox sender side is dropped. `generation` identifies this
/// registration and is echoed to the host as the loop's final action.
pub(crate) fn run_actor(
    mut actor: Box<dyn Process>,
    endpoint: Endpoint,
    host: Arc<ActorHost>,
    seed: u64,
    generation: u64,
    rx: Receiver<Control>,
) {
    let mut env = HostEnv {
        host,
        endpoint,
        rng: SimRng::seed_from(seed),
        timers: BinaryHeap::new(),
        cancelled: HashSet::new(),
        next_timer: 0,
        exit: false,
    };
    actor.on_start(&mut env);
    while !env.exit {
        // Fire due timers first.
        let now = Instant::now();
        let mut fired = Vec::new();
        loop {
            match env.timers.peek() {
                Some(top) if top.deadline <= now => {}
                _ => break,
            }
            let Some(t) = env.timers.pop() else { break };
            if !env.cancelled.remove(&t.handle) {
                fired.push(t.token);
            }
        }
        for token in fired {
            actor.on_timer(token, &mut env);
            if env.exit {
                break;
            }
        }
        if env.exit {
            break;
        }
        let wait = env
            .timers
            .peek()
            .map(|t| t.deadline.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok(Control::Deliver(envelope)) => actor.on_message(envelope, &mut env),
            Ok(Control::Kill) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    env.host.actor_exited(&env.endpoint, generation);
}

/// Connection state of one peer link, as seen by its supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkState {
    /// No connection yet; a dial attempt is in flight or imminent.
    Connecting,
    /// A handshaken TCP connection is carrying frames.
    Connected,
    /// The last connection failed; waiting out the reconnect backoff.
    Backoff,
}

impl std::fmt::Display for LinkState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LinkState::Connecting => "connecting",
            LinkState::Connected => "connected",
            LinkState::Backoff => "backoff",
        };
        f.write_str(s)
    }
}

/// Health counters for one peer link, published by socket-backed routers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerHealth {
    /// The remote node.
    pub peer: NodeId,
    /// Current connection state.
    pub state: LinkState,
    /// Epoch of the current (or next) connection; bumps on every dial or
    /// accept so stale frames are identifiable.
    pub epoch: u32,
    /// Successful connections beyond the first.
    pub reconnects: u64,
    /// Payload bytes received from this peer.
    pub bytes_in: u64,
    /// Payload bytes written to this peer.
    pub bytes_out: u64,
    /// Frames currently queued for write.
    pub queued: u64,
    /// Heartbeat-class frames shed by backpressure or while disconnected.
    pub dropped_heartbeats: u64,
    /// Data-class frames shed by backpressure (never by teardown).
    pub dropped_frames: u64,
    /// Frames of any class lost because their connection died — queued
    /// or already pulled into a write batch, but never delivered.
    pub purged: u64,
}

/// Periodic transport health snapshot for a node, sent to the System
/// Monitor alongside the per-service `StatusReport`s it already renders.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportReport {
    /// The reporting node.
    pub node: NodeId,
    /// One row per configured peer link.
    pub peers: Vec<PeerHealth>,
    /// Reporting node's clock when the snapshot was taken.
    pub at: SimTime,
}

/// The service name [`TransportEvent`]s are sent from, on the node whose
/// links they describe (`<node>/__wire`).
pub const WIRE_SERVICE: &str = "__wire";

/// Link lifecycle events delivered to subscribed local services, from
/// `<node>/`[`WIRE_SERVICE`]. The msgq manager uses `PeerConnected {
/// reconnect: true }` to retry store-and-forward transfers immediately
/// instead of waiting out its retry timer; the OFTT engine feeds
/// `PeerDown`, `PeerConnected` and `PeerRefused` to its detection rule
/// (`oftt::detect`) as a link reset, the link up and a refused redial —
/// suspicion, its clearing, and the verdict on an open suspicion.
/// These events never cross the wire: they are local to the node whose
/// links they describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportEvent {
    /// A handshaken connection to `peer` became active.
    PeerConnected {
        /// The remote node.
        peer: NodeId,
        /// Epoch of the new connection.
        epoch: u32,
        /// `true` if this link had been connected before (i.e. a reconnect).
        reconnect: bool,
    },
    /// The connection to `peer` was torn down.
    PeerDown {
        /// The remote node.
        peer: NodeId,
    },
    /// A dial to `peer`'s address was refused: the peer's host answered,
    /// and nothing listens there. Only a refusal raises it — a timeout, an
    /// unreachable host or a failed handshake does not.
    PeerRefused {
        /// The remote node.
        peer: NodeId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_state_renders_lowercase() {
        assert_eq!(LinkState::Connected.to_string(), "connected");
        assert_eq!(LinkState::Backoff.to_string(), "backoff");
    }

    #[test]
    fn transport_types_are_comparable_values() {
        // Marshal round-trips live in oftt-wire's codec tests (ds-net cannot
        // dev-depend on comsim without a cycle); here we pin value semantics.
        let health = PeerHealth {
            peer: NodeId(4),
            state: LinkState::Connected,
            epoch: 7,
            reconnects: 2,
            bytes_in: 1024,
            bytes_out: 2048,
            queued: 1,
            dropped_heartbeats: 5,
            dropped_frames: 0,
            purged: 0,
        };
        let report = TransportReport {
            node: NodeId(3),
            peers: vec![health.clone()],
            at: SimTime::from_millis(12),
        };
        assert_eq!(report, report.clone());
        assert_eq!(report.peers[0], health);

        let event = TransportEvent::PeerConnected { peer: NodeId(9), epoch: 3, reconnect: true };
        assert_ne!(event, TransportEvent::PeerDown { peer: NodeId(9) });
    }
}
