//! The process model: runtime-neutral actors.
//!
//! Application and middleware components implement [`Process`]. Handlers
//! receive a `&mut dyn ProcessEnv` — in simulation this is backed by the
//! deterministic cluster ([`crate::cluster`]); the live runtime
//! ([`crate::live`]) backs it with real threads and channels, so the same
//! OFTT protocol code runs in both.

use ds_sim::prelude::{SimDuration, SimRng, SimTime, TraceCategory};

use crate::endpoint::{Endpoint, NodeId, ServiceName};
use crate::message::{Envelope, MsgBody};

/// Opaque handle for a pending process timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(pub(crate) u64);

/// The environment a process runs in: clock, messaging, timers, randomness,
/// tracing, and a small control plane (kill/restart services), which models
/// what the paper's OFTT engine does through the NT service control manager.
pub trait ProcessEnv {
    /// Current time (virtual in simulation, wall-derived in live mode).
    fn now(&self) -> SimTime;

    /// The endpoint this process is registered as.
    fn self_endpoint(&self) -> Endpoint;

    /// Sends a message; delivery is asynchronous and may fail silently if
    /// the destination is down or the network drops it (DCOM offered no
    /// stronger guarantee — reliability is layered on top, see `msgq`).
    fn send(&mut self, to: Endpoint, body: MsgBody, size_bytes: u64);

    /// Arms a one-shot timer; `token` is handed back to
    /// [`Process::on_timer`]. Timers die with the process incarnation.
    fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerHandle;

    /// Cancels a pending timer; no-op if already fired.
    fn cancel_timer(&mut self, handle: TimerHandle);

    /// Deterministic random source (per-process stream).
    fn rng(&mut self) -> &mut SimRng;

    /// Records a trace entry.
    fn record(&mut self, category: TraceCategory, message: String);

    /// Kills a service instance (no notification to the victim — models a
    /// process crash / TerminateProcess).
    fn kill_service(&mut self, node: NodeId, service: &ServiceName);

    /// (Re)starts a service from its registered spec, if its node is up.
    fn restart_service(&mut self, node: NodeId, service: &ServiceName);

    /// Terminates the calling process after the current handler returns.
    fn exit(&mut self);
}

/// Convenience extensions over [`ProcessEnv`].
pub trait ProcessEnvExt: ProcessEnv {
    /// Wraps `body` and sends it with the default control-message size.
    fn send_msg<T: std::any::Any + Send>(&mut self, to: Endpoint, body: T) {
        self.send(to, MsgBody::new(body), crate::message::DEFAULT_MSG_BYTES);
    }

    /// Wraps `body` and sends it with an explicit nominal size.
    fn send_sized<T: std::any::Any + Send>(&mut self, to: Endpoint, body: T, size_bytes: u64) {
        self.send(to, MsgBody::new(body), size_bytes);
    }
}

impl<E: ProcessEnv + ?Sized> ProcessEnvExt for E {}

/// A runtime-neutral actor. All handlers default to no-ops so simple
/// processes implement only what they need.
pub trait Process: Send {
    /// Called once when the process (incarnation) starts.
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        let _ = env;
    }

    /// Called for each delivered message.
    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        let _ = (envelope, env);
    }

    /// Called when a timer armed via [`ProcessEnv::set_timer`] fires.
    fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
        let _ = (token, env);
    }
}

/// Factory for service incarnations, used at start and on every restart.
pub type ProcessFactory = Box<dyn Fn() -> Box<dyn Process> + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    // A Process impl using only defaults must be constructible — guards the
    // trait's object-safety and default methods.
    struct Nop;
    impl Process for Nop {}

    #[test]
    fn default_handlers_are_noops() {
        let mut p: Box<dyn Process> = Box::new(Nop);
        // We can't easily fabricate a ProcessEnv here; the cluster tests
        // exercise real dispatch. This test just pins object safety.
        let _ = &mut p;
    }

    #[test]
    fn timer_handles_are_comparable() {
        assert_eq!(TimerHandle(1), TimerHandle(1));
        assert_ne!(TimerHandle(1), TimerHandle(2));
    }
}
