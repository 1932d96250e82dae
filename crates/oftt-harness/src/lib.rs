//! # oftt-harness — scenarios, failure campaigns, metrics, and reports
//!
//! Builds the paper's deployments out of the substrate crates and runs the
//! experiments indexed in `EXPERIMENTS.md`:
//!
//! * [`calltrack`] — the §4 Call Track demo application.
//! * [`scenario`] — the Figure-3 demonstration configuration (pair + Test
//!   and Interface PC) with full observability.
//! * [`scenario_fig1`] — the Figure-1 reference configurations (remote
//!   monitoring / integrated) with the OPC stack in the loop.
//! * [`tagmon`] — the OFTT-protected OPC-client Tag Monitor application.
//! * [`experiments`] — the E1–E8 runners: failure classes, checkpoint
//!   policy, detection tuning, startup non-determinism, diverter ablation.
//! * [`overrides`] — validated `key = value` parameter deltas for
//!   declarative sweeps (unknown keys are hard errors).
//! * [`metrics`] — outcome records and aggregation.
//! * [`report`] — plain-text result tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calltrack;
pub mod experiments;
pub mod metrics;
pub mod overrides;
pub mod report;
pub mod scenario;
pub mod scenario_fig1;
pub mod tagmon;

pub use calltrack::{CallTrack, CallTrackState};
pub use experiments::FailureClass;
pub use overrides::{OverrideError, OverrideValue};
pub use scenario::{Fig3Scenario, ScenarioParams};
pub use tagmon::{TagMonState, TagMonitor};
