//! Access-level causality recording for post-hoc happens-before analysis.
//!
//! While a trace answers "what happened", the causality log answers "what
//! could have happened in another order". The [`CausalityTracker`] lives
//! inside the simulation: upper layers name the actor handling each event,
//! join clocks on message delivery, and annotate shared-state touch points
//! (variable stores, queues, role fields) and middleware API calls.
//! `oftt-audit` consumes the resulting [`CausalityLog`] to report race
//! candidates, stale-read hazards, and API lifecycle violations.
//!
//! Recording is off by default and every entry point early-returns when
//! disabled, so ordinary simulation runs and experiments pay nothing.

use std::collections::HashMap;

use crate::clock::VectorClock;
use crate::time::SimTime;

/// Whether an annotated access read or wrote the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The object was only read.
    Read,
    /// The object was written (or read-modified-written).
    Write,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        })
    }
}

/// One annotated shared-state access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Simulated time of the access.
    pub at: SimTime,
    /// Name of the actor (service incarnation) performing it.
    pub actor: String,
    /// Stable name of the object touched (e.g. `varstore:node0/call-track`).
    pub object: String,
    /// Read or write.
    pub kind: AccessKind,
    /// Free-form context (call site, operation).
    pub detail: String,
    /// The actor's vector clock at the access.
    pub clock: VectorClock,
}

/// One middleware API call (OFTT lifecycle surface).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiEvent {
    /// Simulated time.
    pub at: SimTime,
    /// Actor (application service) making the call.
    pub actor: String,
    /// Call name (e.g. `watchdog_set`, `initialize`, `save`).
    pub call: String,
    /// Free-form arguments/outcome (e.g. `name=deadman ok=true`).
    pub detail: String,
    /// The actor's vector clock at the call.
    pub clock: VectorClock,
}

/// Everything the tracker recorded during a run, in execution order.
#[derive(Debug, Clone, Default)]
pub struct CausalityLog {
    /// Shared-state accesses.
    pub accesses: Vec<AccessRecord>,
    /// Middleware API calls.
    pub api_calls: Vec<ApiEvent>,
}

impl CausalityLog {
    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty() && self.api_calls.is_empty()
    }
}

/// Assigns vector-clock components to actors and records annotated events.
///
/// Clock assignment rules:
/// - every distinct actor name is interned to one clock component;
/// - [`CausalityTracker::begin`] (event dispatch to an actor) ticks that
///   actor's own component — program order within an actor is therefore
///   always ordered;
/// - [`CausalityTracker::join`] (message delivery, process spawn) folds the
///   sender's stamped clock into the receiver's — cross-actor edges exist
///   only where a message or spawn carried them;
/// - everything recorded between two `begin` calls is stamped with the
///   current actor's clock.
#[derive(Debug, Default)]
pub struct CausalityTracker {
    recording: bool,
    ids: HashMap<String, u32>,
    names: Vec<String>,
    clocks: Vec<VectorClock>,
    current: Option<u32>,
    log: CausalityLog,
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
        let id = self.names.len() as u32;
        self.ids.insert(actor.to_string(), id);
        self.names.push(actor.to_string());
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

    /// Clears the current actor (called at every event boundary so records
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

    fn stamp(&self) -> Option<(String, VectorClock)> {
        let id = self.current?;
        Some((self.names[id as usize].clone(), self.clocks[id as usize].clone()))
    }

    /// Records a shared-state access by the current actor.
    pub fn record_access(&mut self, at: SimTime, object: &str, kind: AccessKind, detail: &str) {
        if !self.recording {
            return;
        }
        if let Some((actor, clock)) = self.stamp() {
            self.log.accesses.push(AccessRecord {
                at,
                actor,
                object: object.to_string(),
                kind,
                detail: detail.to_string(),
                clock,
            });
        }
    }

    /// Records a middleware API call by the current actor.
    pub fn record_api(&mut self, at: SimTime, call: &str, detail: &str) {
        if !self.recording {
            return;
        }
        if let Some((actor, clock)) = self.stamp() {
            self.log.api_calls.push(ApiEvent {
                at,
                actor,
                call: call.to_string(),
                detail: detail.to_string(),
                clock,
            });
        }
    }

    /// The log recorded so far.
    pub fn log(&self) -> &CausalityLog {
        &self.log
    }

    /// Takes the log, leaving an empty one (clock state is kept).
    pub fn take_log(&mut self) -> CausalityLog {
        std::mem::take(&mut self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracker_records_nothing() {
        let mut t = CausalityTracker::new();
        t.begin("a");
        t.record_access(SimTime::ZERO, "x", AccessKind::Write, "");
        t.record_api(SimTime::ZERO, "save", "");
        assert!(t.log().is_empty());
        assert!(t.current_clock().is_none());
    }

    #[test]
    fn program_order_within_an_actor_is_ordered() {
        let mut t = CausalityTracker::new();
        t.set_recording(true);
        t.begin("a");
        t.record_access(SimTime::from_millis(1), "x", AccessKind::Write, "first");
        t.begin("a");
        t.record_access(SimTime::from_millis(2), "x", AccessKind::Write, "second");
        let log = t.log();
        assert!(log.accesses[0].clock.lt(&log.accesses[1].clock));
    }

    #[test]
    fn unrelated_actors_are_concurrent_until_a_join() {
        let mut t = CausalityTracker::new();
        t.set_recording(true);
        t.begin("a");
        t.record_access(SimTime::from_millis(1), "x", AccessKind::Write, "");
        let stamp = t.current_clock().expect("recording");
        t.begin("b");
        t.record_access(SimTime::from_millis(2), "x", AccessKind::Write, "");
        {
            let log = t.log();
            assert!(log.accesses[0].clock.concurrent(&log.accesses[1].clock));
        }
        // Deliver a's message to b: subsequent accesses are ordered.
        t.begin("b");
        t.join(&stamp);
        t.record_access(SimTime::from_millis(3), "x", AccessKind::Write, "");
        let log = t.log();
        assert!(log.accesses[0].clock.lt(&log.accesses[2].clock));
    }

    #[test]
    fn records_outside_any_actor_are_dropped() {
        let mut t = CausalityTracker::new();
        t.set_recording(true);
        t.begin("a");
        t.clear_current();
        t.record_access(SimTime::ZERO, "x", AccessKind::Read, "");
        assert!(t.log().accesses.is_empty());
        assert!(t.current_clock().is_none());
    }

    #[test]
    fn take_log_resets_log_but_keeps_clocks() {
        let mut t = CausalityTracker::new();
        t.set_recording(true);
        t.begin("a");
        t.record_api(SimTime::ZERO, "initialize", "");
        let log = t.take_log();
        assert_eq!(log.api_calls.len(), 1);
        assert!(t.log().is_empty());
        t.begin("a");
        assert_eq!(t.current_clock().expect("recording").get(0), 2);
    }
}
