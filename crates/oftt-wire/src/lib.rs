//! # oftt-wire — the real-socket runtime backend
//!
//! Runs the unchanged OFTT actors (engine, FTIMs, queue managers, System
//! Monitor) across **separate OS processes** joined by TCP, where the
//! simulator's failure model becomes real: a SIGKILLed primary really
//! stops mid-write, a severed connection really loses in-flight frames.
//!
//! A node hosts its local services on [`ds_net::live::LiveNet`], the one
//! real-time actor host, which owns exactly one node; this crate plugs
//! sockets into that host's off-node seam, so envelopes addressed to
//! another node are encoded onto a supervised per-peer TCP link.
//!
//! Layers, bottom up:
//!
//! - [`frame`]: the length-prefixed binary frame (`OFTW` magic, version,
//!   class, connection epoch, meta + body lengths) and blocking
//!   read/write, with vectored writes so checkpoint payloads go from
//!   [`comsim::buf::Bytes`] to the socket without an intermediate copy.
//! - [`codec`]: maps [`ds_net::message::MsgBody`] (a `dyn Any`) to and
//!   from tagged frames via `comsim::marshal`; checkpoint deltas ship
//!   their variable windows as shared byte slices end-to-end.
//! - [`comsim::pool`] (shared with the FTIM's checkpoint staging): the
//!   size-classed buffer freelist feeding the encode path so a saturated
//!   sender stops paying per-frame allocations.
//! - [`reactor`]: the readiness-driven I/O core — a fixed, small set of
//!   threads each running an epoll/poll loop over nonblocking sockets,
//!   with incremental frame assembly on read and coalesced vectored
//!   mega-writes on write.
//! - [`supervisor`]: per-peer connection lifecycle — dial/accept race
//!   resolution, capped + jittered reconnect backoff, bounded write
//!   queues with drop-oldest-heartbeat backpressure, and epoch stamping
//!   so a reconnect can never resurrect a stale frame — layered as
//!   per-connection state machines over the reactor.
//! - [`runtime`]: [`runtime::WireNet`], the node runtime the OFTT
//!   services run on — the actor host plus the supervisor.
//! - [`fault`]: a loopback TCP proxy that injects delay, loss, and
//!   partitions between real processes for experiments.
//! - [`config`]: the `oftt-node` config-file format.
//! - [`app`]: a synthetic checkpointing application with configurable
//!   state size and write locality, used by the node agent and benches.
//! - [`harness`]: child-process helpers shared by the smoke test and the
//!   benchmark's `failover_kill` workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod codec;
pub mod config;
pub mod fault;
pub mod frame;
pub mod harness;
pub mod reactor;
pub mod runtime;
pub mod supervisor;

/// Convenience re-exports of the items most users need.
pub mod prelude {
    pub use crate::app::{LoadApp, LoadConfig, LoadView};
    pub use crate::codec::WireCodec;
    pub use crate::config::NodeConfig;
    pub use crate::fault::{FaultProxy, FaultSpec};
    pub use crate::frame::{FrameClass, WireError};
    pub use crate::runtime::WireNet;
    pub use crate::supervisor::WireConfig;
}
