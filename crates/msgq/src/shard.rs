//! Sharded per-destination diverter queues.
//!
//! [`ShardedQueues`] gives every destination its own FIFO and spreads
//! destinations over independently locked shards, so two senders
//! targeting different destinations almost never contend, and a thread
//! draining one destination never blocks a sender enqueueing for another.
//!
//! Its one caller is the benchmark's wire workload, which models the wire
//! supervisor's write queues with it. The supervisor itself keeps each
//! link's queue inside the link's state, under the link's one lock, so
//! this module goes when the benchmark's model does.
//!
//! The structure is deliberately policy-free: callers get a closure
//! over the destination's `VecDeque` ([`ShardedQueues::with_queue`])
//! and implement their own bounding/shedding. The ordering contract — and
//! the property the proptest in `tests/shard_order.rs` pins — is that
//! per-destination FIFO order is exactly what a single global queue would
//! deliver for that destination: sharding changes contention, never order.

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

use std::collections::VecDeque;

use parking_lot::Mutex;

/// Destination key: wide enough for any node/queue id in the workspace.
pub type DestId = u64;

struct Shard<T> {
    dests: Mutex<Vec<(DestId, VecDeque<T>)>>,
}

/// Per-destination FIFOs spread over independently locked shards.
pub struct ShardedQueues<T> {
    shards: Box<[Shard<T>]>,
    mask: u64,
}

impl<T> ShardedQueues<T> {
    /// Creates a structure with at least `shards` shards (rounded up to
    /// a power of two, minimum 1).
    pub fn new(shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let shards = (0..count).map(|_| Shard { dests: Mutex::new(Vec::new()) }).collect();
        ShardedQueues { shards, mask: (count - 1) as u64 }
    }

    #[expect(clippy::indexing_slicing, reason = "the slot is masked to shards.len() - 1")]
    fn shard(&self, dest: DestId) -> &Shard<T> {
        // Fibonacci multiplicative hash: adjacent destination ids land
        // on different shards.
        let slot = (dest.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.mask;
        &self.shards[slot as usize]
    }

    /// Runs `f` over the destination's queue (created empty on first
    /// touch), holding only that shard's lock.
    pub fn with_queue<R>(&self, dest: DestId, f: impl FnOnce(&mut VecDeque<T>) -> R) -> R {
        let mut dests = self.shard(dest).dests.lock();
        if dests.iter().all(|(d, _)| *d != dest) {
            dests.push((dest, VecDeque::new()));
        }
        match dests.iter_mut().find(|(d, _)| *d == dest) {
            Some((_, queue)) => f(queue),
            // Unreachable: the entry was just found or pushed.
            None => f(&mut VecDeque::new()),
        }
    }

    /// Appends `item` for `dest`, returning the queue length after the
    /// push (the caller applies its bounding policy on the result).
    pub fn push(&self, dest: DestId, item: T) -> usize {
        self.with_queue(dest, |q| {
            q.push_back(item);
            q.len()
        })
    }

    /// Pops up to `max` items from the front of `dest`'s queue into
    /// `out`, preserving FIFO order.
    pub fn drain_into(&self, dest: DestId, max: usize, out: &mut Vec<T>) {
        self.with_queue(dest, |q| {
            for _ in 0..max {
                match q.pop_front() {
                    Some(item) => out.push(item),
                    None => break,
                }
            }
        });
    }

    /// Current queue length for `dest`.
    pub fn len(&self, dest: DestId) -> usize {
        self.with_queue(dest, |q| q.len())
    }

    /// `true` if `dest` has nothing queued.
    pub fn is_empty(&self, dest: DestId) -> bool {
        self.len(dest) == 0
    }

    /// Drops everything queued for `dest`, returning the removed items
    /// (the wire supervisor counts purged heartbeats vs data frames).
    pub fn purge(&self, dest: DestId) -> Vec<T> {
        self.with_queue(dest, |q| q.drain(..).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_destination_fifo_holds() {
        let q: ShardedQueues<u32> = ShardedQueues::new(4);
        for i in 0..10 {
            q.push(1, i);
            q.push(2, 100 + i);
        }
        let mut out = Vec::new();
        q.drain_into(1, 100, &mut out);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        out.clear();
        q.drain_into(2, 3, &mut out);
        assert_eq!(out, vec![100, 101, 102]);
        assert_eq!(q.len(2), 7);
    }

    #[test]
    fn purge_empties_and_returns() {
        let q: ShardedQueues<&'static str> = ShardedQueues::new(1);
        q.push(9, "a");
        q.push(9, "b");
        assert_eq!(q.purge(9), vec!["a", "b"]);
        assert!(q.is_empty(9));
    }

    #[test]
    fn shard_count_rounds_up() {
        let q: ShardedQueues<u8> = ShardedQueues::new(3);
        assert_eq!(q.shards.len(), 4);
        let q: ShardedQueues<u8> = ShardedQueues::new(0);
        assert_eq!(q.shards.len(), 1);
    }
}
