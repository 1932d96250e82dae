//! # oftt-audit — happens-before race analyzer and OFTT API-lifecycle
//! linter over deterministic traces
//!
//! oftt-check answers "does the failover protocol keep its promises under
//! every explored interleaving?". This crate answers the complementary
//! question: "does the *implementation* touch shared state safely and use
//! the OFTT API legally while doing so?"
//!
//! Every checked run records a causality log alongside its trace: each
//! scheduler dispatch ticks the handling actor's vector clock, message
//! deliveries and spawns join the sender's clock, and the instrumented
//! access sites (checkpoint `VarStore` reads/writes, `msgq` queue
//! mutations, engine role transitions, watchdog table operations) emit
//! typed, clocked records. Three post-hoc analyzers consume that log:
//!
//! * [`race`] — **race candidates**: two accesses to the same object, at
//!   least one a write, from different actors, whose vector clocks are
//!   concurrent (neither happens-before the other).
//! * [`stale`] — **stale-read hazards**: a node serving a checkpoint
//!   image older than a position whose acknowledgement it causally knew
//!   about at serve time.
//! * [`lint`] — **API-lifecycle linter**: a per-actor DFA over the OFTT
//!   call sequence flagging save-before-initialize, checkpoint calls from
//!   the backup role, watchdog set/reset/delete on nonexistent or deleted
//!   entries, and watchdogs leaked across a deactivation.
//!
//! Lock order is not checked here: `oftt-lint`'s static acquisition graph
//! is the one deadlock gate.
//!
//! [`sweep`] rides oftt-check's POR-pruned schedule exploration
//! ([`oftt_check::explore_with`]) so every analyzer sees every distinct
//! interleaving the model checker sees.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p oftt-audit --release -- scan --scenario pair-failover --budget 600
//! cargo run -p oftt-audit --release -- lint --scenario partitioned-startup --seed 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ds_sim::prelude::SimTime;

pub mod lint;
pub mod race;
pub mod stale;
pub mod sweep;

pub use sweep::{analyze_run, audit_sweep, AuditReport};

/// One analyzer finding, tied to the point in the run where it became
/// observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which analyzer raised it: `race`, `stale-read`, or `lint`.
    pub analyzer: &'static str,
    /// When the finding became observable.
    pub at: SimTime,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} at {}", self.analyzer, self.detail, self.at)
    }
}
