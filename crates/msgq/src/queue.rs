//! Queue data structures: message identity, addressing, and the in-memory
//! store kept by each queue manager.

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

use std::collections::{HashSet, VecDeque};
use std::fmt;

use comsim::buf::Bytes;
use ds_net::endpoint::NodeId;
use ds_sim::prelude::SimTime;
use serde::{Deserialize, Serialize};

/// Cluster-unique message identity: originating node + per-node sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId {
    /// Node whose queue manager first accepted the message.
    pub origin: NodeId,
    /// Sequence number within that manager's lifetime.
    pub seq: u64,
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// Name of a queue on some node.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QueueName(String);

impl QueueName {
    /// Creates a queue name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "queue name must be non-empty");
        QueueName(name)
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for QueueName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for QueueName {
    fn from(s: &str) -> Self {
        QueueName::new(s)
    }
}

/// A queue's full address: the node whose manager owns it, plus its name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QueueAddress {
    /// Node hosting the queue.
    pub node: NodeId,
    /// Queue name on that node.
    pub queue: QueueName,
}

impl QueueAddress {
    /// Creates a queue address.
    pub fn new(node: NodeId, queue: impl Into<QueueName>) -> Self {
        QueueAddress { node, queue: queue.into() }
    }
}

impl fmt::Display for QueueAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.queue)
    }
}

/// A queued message: identity, routing label, marshaled body, lifetime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueMessage {
    /// Cluster-unique identity (dedup key).
    pub id: MessageId,
    /// Application label (MSMQ's message label).
    pub label: String,
    /// Marshaled payload — a shared buffer, so the copies the manager keeps
    /// for retransmission and push-delivery are reference bumps.
    pub body: Bytes,
    /// When the originating manager accepted it.
    pub enqueued_at: SimTime,
    /// Absolute expiry ("time-to-reach-queue" analog); expired messages go
    /// to the dead-letter queue instead of being delivered.
    pub expires_at: SimTime,
}

impl QueueMessage {
    /// Nominal wire size: body + label + fixed header overhead.
    pub fn wire_size(&self) -> u64 {
        64 + self.label.len() as u64 + self.body.len() as u64
    }

    /// `true` once past its expiry.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now >= self.expires_at
    }
}

/// One local queue: FIFO of pending messages plus the dedup set of every
/// message id ever accepted.
#[derive(Debug, Default)]
pub struct LocalQueue {
    pending: VecDeque<QueueMessage>,
    seen: HashSet<MessageId>,
}

/// Outcome of offering a message to a local queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// Stored for delivery.
    Stored,
    /// Recognized as a duplicate retransmission and dropped.
    Duplicate,
    /// Already expired on arrival; routed to the dead-letter queue.
    Expired,
}

impl LocalQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        LocalQueue::default()
    }

    /// Offers a message, enforcing exactly-once acceptance and TTL.
    pub fn accept(&mut self, msg: QueueMessage, now: SimTime) -> AcceptOutcome {
        if self.seen.contains(&msg.id) {
            return AcceptOutcome::Duplicate;
        }
        self.seen.insert(msg.id);
        if msg.is_expired(now) {
            return AcceptOutcome::Expired;
        }
        self.pending.push_back(msg);
        AcceptOutcome::Stored
    }

    /// The message at the head of the queue, if any.
    pub fn peek(&self) -> Option<&QueueMessage> {
        self.pending.front()
    }

    /// Removes and returns the head message.
    pub fn pop(&mut self) -> Option<QueueMessage> {
        self.pending.pop_front()
    }

    /// Removes the head message only if it has `id` (consumer ack path).
    pub fn pop_if(&mut self, id: MessageId) -> Option<QueueMessage> {
        if self.pending.front().map(|m| m.id) == Some(id) {
            self.pending.pop_front()
        } else {
            None
        }
    }

    /// Drops expired messages from the queue, returning them owned
    /// (destined for the DLQ). Drains in place — no message is cloned.
    pub fn expire(&mut self, now: SimTime) -> Vec<QueueMessage> {
        if !self.pending.iter().any(|m| m.is_expired(now)) {
            return Vec::new();
        }
        let drained = std::mem::take(&mut self.pending);
        let mut out = Vec::new();
        for m in drained {
            if m.is_expired(now) {
                out.push(m);
            } else {
                self.pending.push_back(m);
            }
        }
        out
    }

    /// Number of messages awaiting delivery.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` when no messages await delivery.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u64, expires_at: SimTime) -> QueueMessage {
        QueueMessage {
            id: MessageId { origin: NodeId(0), seq },
            label: "call-event".into(),
            body: vec![1, 2, 3].into(),
            enqueued_at: SimTime::ZERO,
            expires_at,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = LocalQueue::new();
        for seq in 0..5 {
            assert_eq!(q.accept(msg(seq, SimTime::MAX), SimTime::ZERO), AcceptOutcome::Stored);
        }
        for seq in 0..5 {
            assert_eq!(q.pop().unwrap().id.seq, seq);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn duplicates_are_dropped_even_after_consumption() {
        let mut q = LocalQueue::new();
        let m = msg(1, SimTime::MAX);
        assert_eq!(q.accept(m.clone(), SimTime::ZERO), AcceptOutcome::Stored);
        assert_eq!(q.accept(m.clone(), SimTime::ZERO), AcceptOutcome::Duplicate);
        q.pop();
        // Retransmission arriving after delivery must still be recognized.
        assert_eq!(q.accept(m, SimTime::ZERO), AcceptOutcome::Duplicate);
    }

    #[test]
    fn expiry_on_arrival_and_in_place() {
        let mut q = LocalQueue::new();
        let now = SimTime::from_secs(10);
        assert_eq!(q.accept(msg(1, SimTime::from_secs(5)), now), AcceptOutcome::Expired);
        assert_eq!(q.accept(msg(2, SimTime::from_secs(20)), now), AcceptOutcome::Stored);
        assert_eq!(q.accept(msg(3, SimTime::from_secs(12)), now), AcceptOutcome::Stored);
        let dead = q.expire(SimTime::from_secs(15));
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].id.seq, 3);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_if_only_matches_head() {
        let mut q = LocalQueue::new();
        q.accept(msg(1, SimTime::MAX), SimTime::ZERO);
        q.accept(msg(2, SimTime::MAX), SimTime::ZERO);
        assert!(q.pop_if(MessageId { origin: NodeId(0), seq: 2 }).is_none());
        assert!(q.pop_if(MessageId { origin: NodeId(0), seq: 1 }).is_some());
        assert_eq!(q.peek().unwrap().id.seq, 2);
    }

    #[test]
    fn wire_size_scales_with_body() {
        let mut m = msg(1, SimTime::MAX);
        let small = m.wire_size();
        m.body = vec![0; 10_000].into();
        assert_eq!(m.wire_size(), small - 3 + 10_000);
    }

    #[test]
    fn expire_preserves_survivor_order_and_returns_owned() {
        let mut q = LocalQueue::new();
        q.accept(msg(1, SimTime::from_secs(5)), SimTime::ZERO);
        q.accept(msg(2, SimTime::MAX), SimTime::ZERO);
        q.accept(msg(3, SimTime::from_secs(5)), SimTime::ZERO);
        q.accept(msg(4, SimTime::MAX), SimTime::ZERO);
        let dead = q.expire(SimTime::from_secs(6));
        assert_eq!(dead.iter().map(|m| m.id.seq).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(q.pop().unwrap().id.seq, 2);
        assert_eq!(q.pop().unwrap().id.seq, 4);
        // No expired messages: fast path leaves the queue untouched.
        let mut q2 = LocalQueue::new();
        q2.accept(msg(1, SimTime::MAX), SimTime::ZERO);
        assert!(q2.expire(SimTime::from_secs(1)).is_empty());
        assert_eq!(q2.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_queue_name_rejected() {
        QueueName::new("");
    }
}
