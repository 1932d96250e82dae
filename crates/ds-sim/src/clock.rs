//! Vector clocks for happens-before reasoning over simulation runs.
//!
//! Each logical actor (a service incarnation in `ds-net`, but the kernel is
//! agnostic) owns one component of the clock. The causality tracker ticks an
//! actor's component every time it handles an event, joins clocks when a
//! message is delivered, and stamps trace entries and outgoing messages with
//! the handler's clock. Two records are *concurrent* — reorderable under some
//! schedule — exactly when neither clock is ≤ the other.
//!
//! The representation is sparse: components that were never ticked are
//! absent and read as zero, so clocks stay small even in long runs with many
//! short-lived actors.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A sparse vector clock over interned actor ids.
///
/// # Examples
///
/// ```
/// use ds_sim::clock::VectorClock;
///
/// let mut a = VectorClock::new();
/// let mut b = VectorClock::new();
/// a.tick(0);
/// b.tick(1);
/// assert!(a.concurrent(&b));
/// b.join(&a); // b received a message from a
/// b.tick(1);
/// assert!(a.lt(&b));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VectorClock {
    components: BTreeMap<u32, u64>,
}

impl VectorClock {
    /// The all-zero clock.
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// The component for `actor` (zero if never ticked).
    pub fn get(&self, actor: u32) -> u64 {
        self.components.get(&actor).copied().unwrap_or(0)
    }

    /// Advances `actor`'s own component by one.
    pub fn tick(&mut self, actor: u32) {
        *self.components.entry(actor).or_insert(0) += 1;
    }

    /// Component-wise maximum with `other` (the receive rule).
    pub fn join(&mut self, other: &VectorClock) {
        for (&actor, &v) in &other.components {
            let e = self.components.entry(actor).or_insert(0);
            *e = (*e).max(v);
        }
    }

    /// `true` when every component of `self` is ≤ the matching component of
    /// `other` — i.e. `self` happens-before-or-equals `other`.
    pub fn le(&self, other: &VectorClock) -> bool {
        self.components.iter().all(|(&actor, &v)| v <= other.get(actor))
    }

    /// Strict happens-before: `self ≤ other` and the clocks differ.
    pub fn lt(&self, other: &VectorClock) -> bool {
        self.le(other) && self != other
    }

    /// `true` when the clocks are incomparable: neither ≤ the other. Events
    /// so stamped could execute in either order under some schedule.
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// Iterates over the non-zero `(actor, component)` pairs.
    pub fn components(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.components.iter().map(|(&a, &v)| (a, v))
    }

    /// `true` when no component was ever ticked.
    pub fn is_zero(&self) -> bool {
        self.components.is_empty()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (actor, v)) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{actor}:{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(pairs: &[(u32, u64)]) -> VectorClock {
        let mut c = VectorClock::new();
        for &(a, v) in pairs {
            for _ in 0..v {
                c.tick(a);
            }
        }
        c
    }

    #[test]
    fn zero_is_le_everything() {
        let z = VectorClock::new();
        let c = clock(&[(0, 3), (2, 1)]);
        assert!(z.le(&c));
        assert!(z.le(&z));
        assert!(!z.lt(&z));
    }

    #[test]
    fn tick_orders_successive_states() {
        let before = clock(&[(1, 2)]);
        let mut after = before.clone();
        after.tick(1);
        assert!(before.lt(&after));
        assert!(!after.le(&before));
    }

    #[test]
    fn independent_ticks_are_concurrent() {
        let a = clock(&[(0, 1)]);
        let b = clock(&[(1, 1)]);
        assert!(a.concurrent(&b));
        assert!(b.concurrent(&a));
    }

    #[test]
    fn join_takes_componentwise_max() {
        let mut a = clock(&[(0, 2), (1, 1)]);
        let b = clock(&[(1, 3), (2, 1)]);
        a.join(&b);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 3);
        assert_eq!(a.get(2), 1);
        assert!(b.le(&a));
    }

    #[test]
    fn send_receive_creates_order() {
        let mut sender = VectorClock::new();
        sender.tick(0); // sender handles an event, then sends
        let stamp = sender.clone();
        let mut receiver = VectorClock::new();
        receiver.join(&stamp);
        receiver.tick(1);
        assert!(stamp.lt(&receiver));
    }

    #[test]
    fn display_is_compact() {
        let c = clock(&[(0, 2), (3, 1)]);
        assert_eq!(c.to_string(), "{0:2 3:1}");
    }

    #[test]
    fn join_is_idempotent_and_commutative() {
        let a = clock(&[(0, 2), (1, 1)]);
        let b = clock(&[(1, 3), (2, 1)]);
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        assert_eq!(ab, ba);
        let mut twice = ab.clone();
        twice.join(&b);
        assert_eq!(twice, ab);
    }
}
