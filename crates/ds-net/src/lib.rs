//! # ds-net — the simulated cluster substrate
//!
//! Models the hardware/OS environment the OFTT paper assumes: Windows-NT-era
//! PCs (nodes) running named services (processes), joined by single or dual
//! Ethernet links, with injectable faults covering the paper's four failure
//! classes plus network path failures and partitions.
//!
//! Processes are runtime-neutral actors ([`process::Process`]) programmed
//! against [`process::ProcessEnv`]; the deterministic simulation backend
//! lives in [`cluster`], and [`live`] holds the one actor host that runs the
//! same actor code in real time — on threads alone, or, with `oftt-wire`
//! plugged into its off-node seam, across processes over TCP.
//!
//! ## Example: a two-node pair with a fault
//!
//! ```
//! use ds_net::prelude::*;
//! use ds_net::fault::{self, Fault};
//!
//! let mut cluster = ClusterSim::new(42);
//! let primary = cluster.add_node(NodeConfig { name: "Primary".into(), ..Default::default() });
//! let backup = cluster.add_node(NodeConfig { name: "Backup".into(), ..Default::default() });
//! cluster.connect(primary, backup, Link::dual());
//! fault::inject(&mut cluster, SimTime::from_secs(5), Fault::CrashNode(primary));
//! cluster.run_until(SimTime::from_secs(10));
//! assert!(!cluster.cluster().node(primary).status.is_up());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod endpoint;
pub mod error;
pub mod fault;
pub mod link;
pub mod live;
pub mod message;
pub mod node;
pub mod process;
pub mod transport;

/// Convenience re-exports of the items nearly every user needs.
pub mod prelude {
    pub use crate::cluster::{ClusterSim, NetCounters};
    pub use crate::endpoint::{Endpoint, NodeId, ProcessId, ServiceName};
    pub use crate::error::NetError;
    pub use crate::fault::{Fault, FaultPlan};
    pub use crate::link::{Link, PathConfig, PathState};
    pub use crate::message::{Envelope, MsgBody};
    pub use crate::node::{NodeConfig, NodeStatus};
    pub use crate::process::{Process, ProcessEnv, ProcessEnvExt, ProcessFactory, TimerHandle};
    pub use crate::transport::{LinkState, PeerHealth, TransportEvent, TransportReport};
    pub use ds_sim::prelude::*;
}

pub use cluster::ClusterSim;
pub use endpoint::{Endpoint, NodeId, ProcessId, ServiceName};
pub use message::{Envelope, MsgBody};
pub use process::{Process, ProcessEnv, ProcessEnvExt};
