//! Vector-clock assignment for post-hoc happens-before analysis.
//!
//! While a trace answers "what happened", the clocks answer "what could
//! have happened in another order". The [`CausalityTracker`] lives inside
//! the simulation: upper layers name the actor handling each event and join
//! clocks on message delivery; every trace entry and outgoing envelope is
//! stamped with the current actor's clock. `oftt-check`'s `ckpt-causality`
//! invariant reads those stamps.
//!
//! Recording is off by default and every entry point early-returns when
//! disabled, so ordinary simulation runs and experiments pay nothing.

use std::collections::HashMap;

use crate::clock::VectorClock;

/// Assigns vector-clock components to actors.
///
/// Clock assignment rules:
/// - every distinct actor name is interned to one clock component;
/// - [`CausalityTracker::begin`] (event dispatch to an actor) ticks that
///   actor's own component — program order within an actor is therefore
///   always ordered;
/// - [`CausalityTracker::join`] (message delivery, process spawn) folds the
///   sender's stamped clock into the receiver's — cross-actor edges exist
///   only where a message or spawn carried them;
/// - everything stamped between two `begin` calls carries the current
///   actor's clock.
#[derive(Debug, Default)]
pub struct CausalityTracker {
    recording: bool,
    ids: HashMap<String, u32>,
    clocks: Vec<VectorClock>,
    current: Option<u32>,
}

impl CausalityTracker {
    /// A disabled tracker (the default inside every `Sim`).
    pub fn new() -> Self {
        CausalityTracker::default()
    }

    /// Turns recording on or off. While off, every method is a no-op and
    /// [`CausalityTracker::current_clock`] returns `None`.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// `true` when recording is enabled.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    fn intern(&mut self, actor: &str) -> u32 {
        if let Some(&id) = self.ids.get(actor) {
            return id;
        }
        let id = self.clocks.len() as u32;
        self.ids.insert(actor.to_string(), id);
        self.clocks.push(VectorClock::new());
        id
    }

    /// Marks `actor` as the handler of the current event and ticks its
    /// clock component.
    pub fn begin(&mut self, actor: &str) {
        if !self.recording {
            return;
        }
        let id = self.intern(actor);
        self.clocks[id as usize].tick(id);
        self.current = Some(id);
    }

    /// Clears the current actor (called at every event boundary so stamps
    /// from non-actor events are never misattributed).
    pub fn clear_current(&mut self) {
        self.current = None;
    }

    /// Folds a received clock into the current actor's clock (the
    /// happens-before edge of a message delivery or spawn).
    pub fn join(&mut self, other: &VectorClock) {
        if !self.recording {
            return;
        }
        if let Some(id) = self.current {
            self.clocks[id as usize].join(other);
        }
    }

    /// The current actor's clock, for stamping outgoing messages and trace
    /// entries. `None` while disabled or outside any actor's handler.
    pub fn current_clock(&self) -> Option<VectorClock> {
        if !self.recording {
            return None;
        }
        self.current.map(|id| self.clocks[id as usize].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock_after(t: &mut CausalityTracker, actor: &str) -> VectorClock {
        t.begin(actor);
        t.current_clock().expect("recording, inside an actor")
    }

    #[test]
    fn disabled_tracker_stamps_nothing() {
        let mut t = CausalityTracker::new();
        t.begin("a");
        assert!(t.current_clock().is_none());
    }

    #[test]
    fn program_order_within_an_actor_is_ordered() {
        let mut t = CausalityTracker::new();
        t.set_recording(true);
        let first = clock_after(&mut t, "a");
        let second = clock_after(&mut t, "a");
        assert!(first.lt(&second));
    }

    #[test]
    fn unrelated_actors_are_concurrent_until_a_join() {
        let mut t = CausalityTracker::new();
        t.set_recording(true);
        let stamp = clock_after(&mut t, "a");
        let b = clock_after(&mut t, "b");
        assert!(stamp.concurrent(&b));
        // Deliver a's message to b: b's later stamps are ordered after it.
        t.begin("b");
        t.join(&stamp);
        assert!(stamp.lt(&t.current_clock().expect("recording")));
    }

    #[test]
    fn stamps_outside_any_actor_are_none() {
        let mut t = CausalityTracker::new();
        t.set_recording(true);
        t.begin("a");
        t.clear_current();
        assert!(t.current_clock().is_none());
    }
}
