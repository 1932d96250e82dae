//! # oftt-campaign — declarative scenario campaigns over the checked
//! simulator
//!
//! One deterministic run answers "what happened under this seed"; the
//! paper's claims are statistical — availability fractions, failover-time
//! distributions. This crate turns the ds-sim/oftt-check harness into a
//! statistical instrument:
//!
//! * [`scenario`] loads declarative JSON scenario files (fault-script
//!   template + seed population + validated parameter overrides) into one
//!   base [`oftt_check::Scenario`] plus what is campaign-specific, with
//!   unknown keys, duplicate keys, out-of-range times and seed spans as
//!   typed hard errors (the file is read by the crate's private,
//!   RFC 8259-strict `json` module);
//! * [`mod@expand`] unrolls the template per seed with deterministic jitter
//!   (`SimRng::derive(seed, fnv(name) ^ step)`), so every run is exactly
//!   reproducible from `(file, seed)`;
//! * [`exec`] fans the runs across worker threads — each executes the
//!   full trace-invariant engine plus the [`oftt_check::RunOutcome`]
//!   availability model;
//! * [`stats`] pools the outcomes into per-scenario distributions
//!   (p50/p95/p99/max failover, availability mean/min, violation and
//!   non-recovery counts) and applies the acceptance gate;
//! * [`report`] renders the human summary table and the `--out` JSON
//!   record (which adds the p95, `availability_min` and pins the table
//!   omits). The gate's verdict is the exit code; nothing re-checks the
//!   JSON.
//!
//! ## A scenario file
//!
//! Each step's `op` is one fault-script line without its time, parsed by
//! [`oftt_check::ScriptOp::parse`]:
//!
//! ```json
//! {
//!   "name": "slow_disk",
//!   "seeds": {"range": [1, 100]},
//!   "overrides": {"checkpoint_period_ms": 500},
//!   "script": [
//!     {"at_ms": 8000, "op": "slow-link 20000 5000 50000"},
//!     {"at_ms": 14000, "op": "kill-engine a"},
//!     {"at_ms": 22000, "op": "restart-engine a"},
//!     {"at_ms": 30000, "op": "partition", "repeat": 3, "every_ms": 2000}
//!   ]
//! }
//! ```
//!
//! ## Usage
//!
//! ```text
//! cargo run -p oftt-campaign --release -- run \
//!     --scenario examples/campaigns/partition_storm.json \
//!     --out campaign.json
//! ```
//!
//! Exit status: `0` clean, `1` load/usage error, `2` gate failure
//! (unexpected violations, non-recovered seeds, or a breached pin).

#![forbid(unsafe_code)]
// Scenario files arrive from outside the type system: every way one can
// be wrong is a typed error, never a panic.
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
#![warn(missing_docs)]
#![deny(unreachable_pub, unused_qualifications)]

pub mod error;
pub mod exec;
pub mod expand;
mod json;
pub mod report;
pub mod scenario;
pub mod stats;

pub use error::CampaignError;
pub use exec::{default_jobs, run_campaign, run_one, RunRecord};
pub use expand::expand;
pub use report::{render_json, render_summary};
pub use scenario::{Pin, Scenario, StepTemplate, MAX_SEEDS};
pub use stats::{aggregate, gate_failures, ScenarioStats};
