//! # ds-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the OFTT reproduction: a deterministic
//! discrete-event simulator over an arbitrary *world* type. Upper layers
//! model a cluster of Windows-NT-era PCs (`ds-net`), a COM/DCOM analog
//! (`comsim`), OPC (`opc`), MSMQ (`msgq`), the plant (`plant`), and finally
//! the OFTT middleware itself (`oftt`).
//!
//! Determinism is the load-bearing property: a run is a pure function of its
//! seed, so failover timings measured in EXPERIMENTS.md are exactly
//! reproducible and property tests can explore fault schedules without
//! flakiness.
//!
//! ## Example
//!
//! ```
//! use ds_sim::prelude::*;
//!
//! // A world can be any type; here, a counter.
//! let mut sim = Sim::new(0u32, /* seed */ 7);
//! sim.schedule(SimDuration::from_millis(10), |n, sched| {
//!     *n += 1;
//!     sched.record(TraceCategory::App, "ticked");
//! });
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(*sim.world(), 1);
//! assert_eq!(sim.trace().count(TraceCategory::App), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causality;
pub mod clock;
pub mod event;
pub mod rng;
pub mod schedule;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

/// Convenience re-exports of the items nearly every user needs.
pub mod prelude {
    pub use crate::causality::CausalityTracker;
    pub use crate::clock::VectorClock;
    pub use crate::event::EventId;
    pub use crate::rng::SimRng;
    pub use crate::schedule::{ChoicePoint, Schedule, SchedulePolicy};
    pub use crate::sim::{Scheduler, Sim};
    pub use crate::stats::{Histogram, Samples};
    pub use crate::time::{SimDuration, SimTime, WallClock};
    pub use crate::trace::{Trace, TraceCategory, TraceEntry};
}

pub use clock::VectorClock;
pub use event::EventId;
pub use sim::{Scheduler, Sim};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceCategory};
