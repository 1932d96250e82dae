//! Pooled byte buffers for marshaling hot paths.
//!
//! At saturation the transport encodes and writes thousands of frames a
//! second; without reuse every frame costs two heap round trips (meta
//! block + body head) on the sender alone. [`BufPool`] is a size-classed
//! freelist of `Vec<u8>`s: the wire supervisor draws buffers for
//! encoding, the reactor returns them once the frame's bytes are fully
//! on the wire, and per-connection read staging comes from the same
//! pool on connection churn.
//!
//! Buffers are grouped in power-of-two size classes so a request is
//! served by any buffer at least as large as asked; each shelf is
//! bounded, so a burst of giant checkpoints cannot pin unbounded memory
//! (overflow buffers just drop back to the allocator). Counters are
//! exposed because the saturation bench reports the hit rate — a pool
//! that never hits is dead code wearing a costume.

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

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Smallest class: requests below this round up to it.
const MIN_CLASS_BYTES: usize = 256;
/// Largest pooled capacity; bigger buffers are never retained.
const MAX_CLASS_BYTES: usize = 1 << 20;
/// Retained buffers per class.
const SHELF_LIMIT: usize = 64;

const CLASSES: usize = {
    let mut n = 0;
    let mut size = MIN_CLASS_BYTES;
    while size <= MAX_CLASS_BYTES {
        n += 1;
        size <<= 1;
    }
    n
};

/// Size-classed freelist of reusable `Vec<u8>` buffers.
pub struct BufPool {
    shelves: [Mutex<Vec<Vec<u8>>>; CLASSES],
    takes: AtomicU64,
    hits: AtomicU64,
    gives: AtomicU64,
}

/// Running pool effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers requested.
    pub takes: u64,
    /// Requests served from a shelf rather than the allocator.
    pub hits: u64,
    /// Buffers returned (whether or not the shelf had room).
    pub gives: u64,
}

impl PoolStats {
    /// Percentage of takes served from a shelf rather than the allocator.
    pub fn hit_pct(&self) -> f64 {
        if self.takes == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / self.takes as f64
        }
    }
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new()
    }
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufPool {
            shelves: std::array::from_fn(|_| Mutex::new(Vec::new())),
            takes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            gives: AtomicU64::new(0),
        }
    }

    /// The class index whose capacity is ≥ `len`, or `None` when the
    /// request is larger than anything pooled.
    fn class_for(len: usize) -> Option<usize> {
        if len > MAX_CLASS_BYTES {
            return None;
        }
        let rounded = len.max(MIN_CLASS_BYTES).next_power_of_two();
        Some(rounded.trailing_zeros() as usize - MIN_CLASS_BYTES.trailing_zeros() as usize)
    }

    /// An empty `Vec` with at least `min_capacity` capacity — pooled if
    /// a shelf has one, freshly allocated otherwise.
    pub fn take(&self, min_capacity: usize) -> Vec<u8> {
        self.takes.fetch_add(1, Ordering::Relaxed);
        if let Some(class) = Self::class_for(min_capacity) {
            // Any shelf at or above the class fits the request; checking
            // only the exact class keeps the lock count at one.
            let recycled = self.shelves.get(class).and_then(|shelf| shelf.lock().pop());
            if let Some(mut buf) = recycled {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                return buf;
            }
            return Vec::with_capacity(MIN_CLASS_BYTES << class);
        }
        Vec::with_capacity(min_capacity)
    }

    /// Returns a buffer to its shelf. Tiny, oversized, or
    /// overflow-of-shelf buffers are dropped to the allocator instead.
    ///
    /// The buffer moves into the pool, so the two ways to corrupt a
    /// freelist are compile errors, not conventions. Take, fill, read,
    /// give back:
    ///
    /// ```
    /// let pool = comsim::pool::BufPool::new();
    /// let mut buf = pool.take(64);
    /// buf.extend_from_slice(b"header");
    /// let sent = buf.len();
    /// pool.give(buf);
    /// assert_eq!(sent, 6);
    /// ```
    ///
    /// Reading the buffer after giving it back — by then another taker
    /// may own the allocation — is `E0382`, borrow of moved value:
    ///
    /// ```compile_fail,E0382
    /// let pool = comsim::pool::BufPool::new();
    /// let mut buf = pool.take(64);
    /// buf.extend_from_slice(b"header");
    /// pool.give(buf);
    /// let sent = buf.len();
    /// assert_eq!(sent, 6);
    /// ```
    ///
    /// Giving it back twice — the shelf would hand one allocation to two
    /// takers — is `E0382`, use of moved value:
    ///
    /// ```compile_fail,E0382
    /// let pool = comsim::pool::BufPool::new();
    /// let mut buf = pool.take(64);
    /// buf.extend_from_slice(b"header");
    /// let sent = buf.len();
    /// pool.give(buf);
    /// pool.give(buf);
    /// assert_eq!(sent, 6);
    /// ```
    pub fn give(&self, buf: Vec<u8>) {
        self.gives.fetch_add(1, Ordering::Relaxed);
        let cap = buf.capacity();
        if !(MIN_CLASS_BYTES..=MAX_CLASS_BYTES).contains(&cap) {
            return;
        }
        // Shelve by the class the buffer can *serve*: round capacity
        // down so a take never receives less than the class promises.
        let serve = if cap.is_power_of_two() { cap } else { cap.next_power_of_two() >> 1 };
        let Some(shelf) = Self::class_for(serve).and_then(|c| self.shelves.get(c)) else {
            return;
        };
        let mut shelf = shelf.lock();
        if shelf.len() < SHELF_LIMIT {
            shelf.push(buf);
        }
    }

    /// Effectiveness counters since construction.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            takes: self.takes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            gives: self.gives.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_hits_the_shelf() {
        let pool = BufPool::new();
        let buf = pool.take(1000);
        assert!(buf.capacity() >= 1000);
        pool.give(buf);
        let again = pool.take(900);
        assert!(again.capacity() >= 900);
        let stats = pool.stats();
        assert_eq!(stats.takes, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.gives, 1);
    }

    #[test]
    fn returned_buffers_come_back_empty() {
        let pool = BufPool::new();
        let mut buf = pool.take(64);
        buf.extend_from_slice(&[1, 2, 3]);
        pool.give(buf);
        let again = pool.take(64);
        assert!(again.is_empty());
    }

    #[test]
    fn oversized_requests_and_returns_bypass_the_pool() {
        let pool = BufPool::new();
        let huge = pool.take(MAX_CLASS_BYTES + 1);
        assert!(huge.capacity() > MAX_CLASS_BYTES);
        pool.give(huge);
        let stats = pool.stats();
        assert_eq!(stats.hits, 0);
        // Nothing was shelved: next take allocates fresh.
        pool.take(MAX_CLASS_BYTES + 1);
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn irregular_capacity_never_under_serves_its_class() {
        let pool = BufPool::new();
        // Capacity 700 serves the 512 class, not the 1024 class.
        let mut buf = Vec::with_capacity(700);
        buf.push(1u8);
        pool.give(buf);
        let got = pool.take(600);
        assert!(got.capacity() >= 600);
    }

    #[test]
    fn shelf_limit_bounds_retention() {
        let pool = BufPool::new();
        for _ in 0..(SHELF_LIMIT + 10) {
            pool.give(Vec::with_capacity(MIN_CLASS_BYTES));
        }
        let shelved = pool.shelves[0].lock().len();
        assert_eq!(shelved, SHELF_LIMIT);
    }
}
