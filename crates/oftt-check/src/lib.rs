//! # oftt-check — schedule-exploring model checker for the OFTT failover
//! protocol
//!
//! The simulation stack is deterministic: one seed, one interleaving. That
//! is perfect for reproducing experiments and useless for finding ordering
//! bugs — the §3.2 both-nodes-primary hazard only bites under the *right*
//! startup interleaving. This crate turns the determinism into a search
//! space:
//!
//! * [`scenario`] holds the one run description, [`Scenario`] (a
//!   Figure-3 deployment, a fault script, a horizon and a tie window; the
//!   named ones are `pair-failover` and `partitioned-startup`), and the one
//!   runner, [`run`], which drives it under an exploring
//!   [`ds_sim::schedule::SchedulePolicy`] so every same-window event race
//!   becomes a recorded choice point.
//! * [`parse`] lifts the run's trace into typed events; [`invariants`]
//!   checks ten invariants over them: the failover protocol's nine safety
//!   properties (including the vector-clock `ckpt-causality` check) and
//!   `api-lifecycle`, which gates the FTIM's own API-misuse reports.
//! * [`outcome`] derives the statistical view of the same events —
//!   failover-time samples, availability fraction, recovery status — the
//!   structured result campaign sweeps aggregate across seeds.
//! * [`explore`] sweeps seeds × tie-break deviations breadth-first with
//!   partial-order pruning (one deviation per event scope) under a run
//!   budget.
//! * [`shrink`] reduces a violating schedule to a minimal still-failing
//!   forced prefix; [`replay`] saves/loads self-describing schedule
//!   artifacts and re-runs them.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p oftt-check --release -- --scenario pair-failover --budget 600
//! cargo run -p oftt-check --release -- --scenario partitioned-startup --inject-startup-bug --emit ce.sched
//! cargo run -p oftt-check --release -- --replay ce.sched
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub, unused_qualifications)]

pub mod explore;
pub mod export;
pub mod invariants;
pub mod outcome;
pub mod parse;
pub mod replay;
pub mod scenario;
pub mod shrink;

pub use explore::{explore, explore_with, Counterexample, ExploreConfig, ExploreReport};
pub use export::{TraceExport, TRACE_FORMAT};
pub use invariants::{check_all, Violation};
pub use outcome::RunOutcome;
pub use replay::{ReplayFile, ReplayOutcome};
pub use scenario::{run, FaultScript, PairSlot, RunResult, Scenario, ScriptOp};
pub use shrink::{shrink, Shrunk};
