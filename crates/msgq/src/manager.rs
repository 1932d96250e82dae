//! The queue manager process — one per node, service name `"msgq"`.
//!
//! Implements MSMQ's observable guarantees at the level OFTT relies on:
//! store-and-forward between managers with ack/retry (sender keeps the
//! message until the destination manager acknowledges it), receiver-side
//! dedup (exactly-once acceptance), TTL with a dead-letter queue, and
//! push-delivery to an attached consumer with redelivery on consumer
//! silence. The [`ManagerMsg::RetargetNode`] control lets the OFTT message
//! diverter repoint undelivered traffic at the new primary during a
//! switchover ("message non-delivery is detected and retried", paper
//! §2.2.3).

use std::collections::HashMap;
use std::sync::Arc;

use comsim::buf::Bytes;
use ds_net::endpoint::{Endpoint, NodeId, ServiceName};
use ds_net::message::Envelope;
use ds_net::process::{Process, ProcessEnv, ProcessEnvExt};
use ds_net::transport::TransportEvent;
use ds_sim::prelude::{SimDuration, SimTime, TraceCategory};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::queue::{AcceptOutcome, LocalQueue, MessageId, QueueAddress, QueueMessage, QueueName};

/// Conventional service name for every node's queue manager.
pub fn service_name() -> ServiceName {
    ServiceName::new("msgq")
}

/// The endpoint of the queue manager on `node`.
pub fn manager_endpoint(node: NodeId) -> Endpoint {
    Endpoint::new(node, service_name())
}

/// Tuning knobs for a queue manager.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueConfig {
    /// How often the pump timer runs (retry/expiry/delivery scan).
    pub pump_period: SimDuration,
    /// Gap between retransmissions of an unacked transfer.
    pub retry_interval: SimDuration,
    /// How long to wait for a consumer ack before redelivering.
    pub delivery_timeout: SimDuration,
    /// Default message lifetime when the sender does not specify one.
    pub default_ttl: SimDuration,
    /// How long in-order acceptance waits on a sequence gap (left by an
    /// expired message) before skipping ahead.
    pub gap_timeout: SimDuration,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            pump_period: SimDuration::from_millis(50),
            retry_interval: SimDuration::from_millis(250),
            delivery_timeout: SimDuration::from_millis(500),
            default_ttl: SimDuration::from_secs(300),
            gap_timeout: SimDuration::from_secs(5),
        }
    }
}

/// Counters exposed for tests and the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Messages accepted from local senders.
    pub accepted: u64,
    /// Transfer attempts to remote managers (including retransmissions).
    pub transfers_sent: u64,
    /// Retransmissions only.
    pub retransmissions: u64,
    /// Transfers acknowledged by the destination.
    pub transfers_acked: u64,
    /// Duplicate transfers dropped by dedup.
    pub duplicates_dropped: u64,
    /// Messages handed to a consumer and acknowledged.
    pub delivered: u64,
    /// Redeliveries after a consumer ack timeout.
    pub redeliveries: u64,
    /// Messages expired into the dead-letter queue.
    pub dead_lettered: u64,
}

/// Messages understood by the queue manager.
#[derive(Debug, Serialize, Deserialize)]
pub enum ManagerMsg {
    /// A local sender hands in a message for a (possibly remote) queue.
    Enqueue {
        /// Destination queue.
        dest: QueueAddress,
        /// Application label.
        label: String,
        /// Marshaled payload.
        body: Bytes,
        /// Optional lifetime override.
        ttl: Option<SimDuration>,
    },
    /// A local sender hands in several messages for the same queue in one
    /// round — one wire message instead of one per item. Each item gets its
    /// own sequence number, so delivery semantics match a burst of
    /// [`ManagerMsg::Enqueue`]s.
    EnqueueBatch {
        /// Destination queue for every item.
        dest: QueueAddress,
        /// `(label, body)` per message, in send order.
        items: Vec<(String, Bytes)>,
        /// Optional lifetime override applied to every item.
        ttl: Option<SimDuration>,
    },
    /// Manager→manager transfer of one message.
    Transfer {
        /// Queue on the receiving node.
        queue: QueueName,
        /// The message.
        msg: QueueMessage,
    },
    /// Receiving manager's acknowledgment of a transfer.
    TransferAck {
        /// Acknowledged message.
        id: MessageId,
    },
    /// A consumer asks to receive pushes from a local queue (last attach
    /// wins — on switchover the new primary re-attaches).
    Attach {
        /// Queue to consume from.
        queue: QueueName,
        /// Where pushes go.
        consumer: Endpoint,
    },
    /// Stop pushing to `consumer` if it is the current one.
    Detach {
        /// Queue to stop consuming.
        queue: QueueName,
        /// The consumer detaching.
        consumer: Endpoint,
    },
    /// Consumer acknowledgment of a pushed message.
    Consumed {
        /// Queue it was consumed from.
        queue: QueueName,
        /// The consumed message.
        id: MessageId,
    },
    /// Repoint every unacknowledged outgoing transfer addressed to
    /// `from_node` at `to_node` and retry immediately (diverter support).
    RetargetNode {
        /// Old destination node (failed primary).
        from_node: NodeId,
        /// New destination node (new primary).
        to_node: NodeId,
    },
}

/// A message pushed to an attached consumer. The consumer must reply with
/// [`ManagerMsg::Consumed`] (or use [`crate::client::QueueConsumer`], which
/// does so automatically).
#[derive(Debug, Serialize, Deserialize)]
pub struct Push {
    /// Source queue.
    pub queue: QueueName,
    /// The message.
    pub msg: QueueMessage,
}

struct Outgoing {
    dest: QueueAddress,
    msg: QueueMessage,
    next_retry: SimTime,
    attempts: u32,
}

struct InFlight {
    id: MessageId,
    deadline: SimTime,
}

/// Per-(queue, origin) in-order acceptance state. The network reorders
/// transfers (jitter, retransmission), but consumers — the paper's
/// call-tracking app among them — need a sender's messages in send order.
#[derive(Default)]
struct OrderState {
    expected: u64,
    buffer: std::collections::BTreeMap<u64, QueueMessage>,
    blocked_since: Option<SimTime>,
}

const PUMP_TOKEN: u64 = 1;

/// The per-node queue manager process.
pub struct QueueManager {
    config: QueueConfig,
    queues: HashMap<QueueName, LocalQueue>,
    consumers: HashMap<QueueName, Endpoint>,
    inflight: HashMap<QueueName, InFlight>,
    outgoing: HashMap<MessageId, Outgoing>,
    ordering: HashMap<(QueueName, NodeId), OrderState>,
    dead_letter: Vec<QueueMessage>,
    /// Sender-side sequence per *queue name* (not per node!): queues of the
    /// same name across an OFTT pair are one logical queue, and sequencing
    /// by name keeps the stream continuous when the diverter retargets
    /// in-flight messages to the new primary. Per-node sequencing would let
    /// fresh enqueues collide with retargeted ones and be dropped as
    /// duplicates.
    next_seq: HashMap<QueueName, u64>,
    stats: Arc<Mutex<QueueStats>>,
}

impl QueueManager {
    /// Creates a manager; `stats` is a shared probe the harness reads.
    pub fn new(config: QueueConfig, stats: Arc<Mutex<QueueStats>>) -> Self {
        QueueManager {
            config,
            queues: HashMap::new(),
            consumers: HashMap::new(),
            inflight: HashMap::new(),
            outgoing: HashMap::new(),
            ordering: HashMap::new(),
            dead_letter: Vec::new(),
            next_seq: HashMap::new(),
            stats,
        }
    }

    /// Messages currently parked in the dead-letter queue.
    pub fn dead_letter_len(&self) -> usize {
        self.dead_letter.len()
    }

    fn store(&mut self, queue: &QueueName, msg: QueueMessage, now: SimTime) {
        let q = self.queues.entry(queue.clone()).or_default();
        match q.accept(msg.clone(), now) {
            AcceptOutcome::Stored => {}
            AcceptOutcome::Duplicate => {
                self.stats.lock().duplicates_dropped += 1;
            }
            AcceptOutcome::Expired => {
                self.dead_letter.push(msg);
                self.stats.lock().dead_lettered += 1;
            }
        }
    }

    /// Accepts a message respecting per-origin send order: out-of-order
    /// arrivals are buffered until the gap fills (or times out in `pump`).
    fn accept_local(&mut self, queue: QueueName, msg: QueueMessage, env: &mut dyn ProcessEnv) {
        let now = env.now();
        let key = (queue.clone(), msg.id.origin);
        let state = self.ordering.entry(key.clone()).or_default();
        if msg.id.seq < state.expected || state.buffer.contains_key(&msg.id.seq) {
            self.stats.lock().duplicates_dropped += 1;
            return;
        }
        if msg.id.seq > state.expected {
            if state.blocked_since.is_none() {
                state.blocked_since = Some(now);
            }
            state.buffer.insert(msg.id.seq, msg);
            return;
        }
        state.expected += 1;
        let mut ready = vec![msg];
        while let Some(next) = state.buffer.remove(&state.expected) {
            state.expected += 1;
            ready.push(next);
        }
        state.blocked_since = if state.buffer.is_empty() { None } else { Some(now) };
        for m in ready {
            self.store(&queue, m, now);
        }
    }

    fn send_transfer(&mut self, out: &Outgoing, env: &mut dyn ProcessEnv) {
        let transfer = ManagerMsg::Transfer { queue: out.dest.queue.clone(), msg: out.msg.clone() };
        let size = out.msg.wire_size();
        env.send_sized(manager_endpoint(out.dest.node), transfer, size);
        let mut stats = self.stats.lock();
        stats.transfers_sent += 1;
        if out.attempts > 0 {
            stats.retransmissions += 1;
        }
    }

    fn pump(&mut self, env: &mut dyn ProcessEnv) {
        let now = env.now();

        // Retransmit unacked transfers.
        let due: Vec<MessageId> =
            self.outgoing.iter().filter(|(_, o)| o.next_retry <= now).map(|(id, _)| *id).collect();
        for id in due {
            let mut out = self.outgoing.remove(&id).expect("listed");
            if out.msg.is_expired(now) {
                self.dead_letter.push(out.msg);
                self.stats.lock().dead_lettered += 1;
                continue;
            }
            self.send_transfer(&out, env);
            out.attempts += 1;
            out.next_retry = now + self.config.retry_interval;
            self.outgoing.insert(id, out);
        }

        // Expire queued messages.
        let names: Vec<QueueName> = self.queues.keys().cloned().collect();
        for name in names {
            let dead = self.queues.get_mut(&name).expect("listed").expire(now);
            if !dead.is_empty() {
                let mut stats = self.stats.lock();
                stats.dead_lettered += dead.len() as u64;
                drop(stats);
                // An expired message that was in flight must not block the
                // queue head.
                if let Some(inflight) = self.inflight.get(&name) {
                    if dead.iter().any(|m| m.id == inflight.id) {
                        self.inflight.remove(&name);
                    }
                }
                self.dead_letter.extend(dead);
            }
        }

        // Skip over sequence gaps that have been blocking too long (the
        // missing message expired at the sender and will never arrive).
        let stuck: Vec<(QueueName, NodeId)> = self
            .ordering
            .iter()
            .filter(|(_, s)| {
                s.blocked_since
                    .map(|t| now.saturating_since(t) >= self.config.gap_timeout)
                    .unwrap_or(false)
            })
            .map(|(k, _)| k.clone())
            .collect();
        for key in stuck {
            let state = self.ordering.get_mut(&key).expect("listed");
            let mut ready = Vec::new();
            if let Some((&lowest, _)) = state.buffer.iter().next() {
                state.expected = lowest;
                while let Some(next) = state.buffer.remove(&state.expected) {
                    state.expected += 1;
                    ready.push(next);
                }
            }
            state.blocked_since = if state.buffer.is_empty() { None } else { Some(now) };
            for m in ready {
                self.store(&key.0, m, now);
            }
        }

        // Redeliver timed-out pushes (consumer died or never acked).
        let lapsed: Vec<QueueName> = self
            .inflight
            .iter()
            .filter(|(_, f)| f.deadline <= now)
            .map(|(q, _)| q.clone())
            .collect();
        for name in lapsed {
            self.inflight.remove(&name);
            self.stats.lock().redeliveries += 1;
        }

        // Push queue heads to attached consumers.
        for (name, consumer) in self.consumers.clone() {
            if self.inflight.contains_key(&name) {
                continue;
            }
            let Some(q) = self.queues.get(&name) else { continue };
            let Some(head) = q.peek() else { continue };
            let push = Push { queue: name.clone(), msg: head.clone() };
            let size = head.wire_size();
            env.send_sized(consumer.clone(), push, size);
            self.inflight.insert(
                name,
                InFlight { id: head.id, deadline: now + self.config.delivery_timeout },
            );
        }
    }

    /// Accepts one locally-submitted message: assigns its identity, then
    /// either stores it (local queue) or starts the transfer/retry cycle
    /// (remote queue). Shared by `Enqueue` and `EnqueueBatch`.
    fn enqueue_one(
        &mut self,
        dest: QueueAddress,
        label: String,
        body: Bytes,
        ttl: Option<SimDuration>,
        env: &mut dyn ProcessEnv,
    ) {
        let now = env.now();
        let seq = self.next_seq.entry(dest.queue.clone()).or_insert(0);
        let id = MessageId { origin: env.self_endpoint().node, seq: *seq };
        *seq += 1;
        let msg = QueueMessage {
            id,
            label,
            body,
            enqueued_at: now,
            expires_at: now + ttl.unwrap_or(self.config.default_ttl),
        };
        self.stats.lock().accepted += 1;
        if dest.node == env.self_endpoint().node {
            self.accept_local(dest.queue, msg, env);
        } else {
            let out =
                Outgoing { dest, msg, next_retry: now + self.config.retry_interval, attempts: 0 };
            self.send_transfer(&out, env);
            self.outgoing.insert(id, Outgoing { attempts: 1, ..out });
        }
    }

    /// Retries every unacked transfer addressed to `peer` right away. Wired
    /// to [`TransportEvent::PeerConnected`] reconnects: a restored link means
    /// the retry backlog can drain now instead of waiting out
    /// [`QueueConfig::retry_interval`].
    fn retry_peer_now(&mut self, peer: NodeId, env: &mut dyn ProcessEnv) {
        let now = env.now();
        let mut due = 0;
        for out in self.outgoing.values_mut() {
            if out.dest.node == peer {
                out.next_retry = now;
                due += 1;
            }
        }
        if due > 0 {
            env.record(
                TraceCategory::Diverter,
                format!("{}: reconnect to {peer}, retrying {due} transfers", env.self_endpoint()),
            );
            self.pump(env);
        }
    }

    fn handle(&mut self, msg: ManagerMsg, from: Endpoint, env: &mut dyn ProcessEnv) {
        match msg {
            ManagerMsg::Enqueue { dest, label, body, ttl } => {
                self.enqueue_one(dest, label, body, ttl, env);
            }
            ManagerMsg::EnqueueBatch { dest, items, ttl } => {
                for (label, body) in items {
                    self.enqueue_one(dest.clone(), label, body, ttl, env);
                }
            }
            ManagerMsg::Transfer { queue, msg } => {
                let id = msg.id;
                self.accept_local(queue, msg, env);
                // Always ack, including duplicates — the sender may have
                // missed the first ack.
                env.send_msg(from, ManagerMsg::TransferAck { id });
            }
            ManagerMsg::TransferAck { id } => {
                if self.outgoing.remove(&id).is_some() {
                    self.stats.lock().transfers_acked += 1;
                }
            }
            ManagerMsg::Attach { queue, consumer } => {
                env.record(
                    TraceCategory::Diverter,
                    format!("{}: {} attached to {queue}", env.self_endpoint(), consumer),
                );
                self.consumers.insert(queue.clone(), consumer);
                // Re-push immediately to the new consumer.
                self.inflight.remove(&queue);
                self.pump(env);
            }
            ManagerMsg::Detach { queue, consumer } => {
                if self.consumers.get(&queue) == Some(&consumer) {
                    self.consumers.remove(&queue);
                }
            }
            ManagerMsg::Consumed { queue, id } => {
                if let Some(q) = self.queues.get_mut(&queue) {
                    if q.pop_if(id).is_some() {
                        self.stats.lock().delivered += 1;
                    }
                }
                if self.inflight.get(&queue).map(|f| f.id) == Some(id) {
                    self.inflight.remove(&queue);
                }
                self.pump(env);
            }
            ManagerMsg::RetargetNode { from_node, to_node } => {
                let mut moved = 0;
                for out in self.outgoing.values_mut() {
                    if out.dest.node == from_node {
                        out.dest.node = to_node;
                        out.next_retry = env.now();
                        moved += 1;
                    }
                }
                if moved > 0 {
                    env.record(
                        TraceCategory::Diverter,
                        format!(
                            "{}: retargeted {moved} transfers {from_node} -> {to_node}",
                            env.self_endpoint()
                        ),
                    );
                    self.pump(env);
                }
            }
        }
    }
}

impl Process for QueueManager {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        env.set_timer(self.config.pump_period, PUMP_TOKEN);
    }

    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        let from = envelope.from.clone();
        match envelope.body.downcast::<ManagerMsg>() {
            Ok(msg) => self.handle(msg, from, env),
            Err(body) => {
                if let Ok(TransportEvent::PeerConnected { peer, reconnect: true, .. }) =
                    body.downcast::<TransportEvent>()
                {
                    self.retry_peer_now(peer, env);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
        if token == PUMP_TOKEN {
            self.pump(env);
            env.set_timer(self.config.pump_period, PUMP_TOKEN);
        }
    }
}
