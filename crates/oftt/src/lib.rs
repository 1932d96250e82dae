//! # oftt — the OLE Fault Tolerance Technology toolkit
//!
//! A reproduction of *OFTT: A Fault Tolerance Middleware Toolkit for
//! Process Monitoring and Control Windows NT Applications* (Hecht, An,
//! Zhang, He — DSN 2000), built on the substrate crates `ds-sim`/`ds-net`
//! (the NT cluster), `comsim` (COM/DCOM), `opc` (OPC DA), `msgq` (MSMQ),
//! and `plant` (the factory floor).
//!
//! Two redundant PCs form a single logical execution unit: the primary runs
//! the application and ships state checkpoints; the backup detects primary
//! failure by heartbeat silence and resumes from the latest checkpoint
//! (paper §2.1).
//!
//! ## Components (paper §2.2, Figure 2)
//!
//! * [`engine`] — the OFTT Engine: role management (with the §3.2 startup
//!   retry fix), heartbeat failure detection, recovery rules, status
//!   reporting.
//! * [`ftim`] — the Fault Tolerance Interface Modules: the checkpointing
//!   client FTIM ([`ftim::FtProcess`]) and the stateless server FTIM
//!   ([`ftim::ServerFtProcess`]).
//! * [`checkpoint`] — checkpoint payloads (full / content-diffed delta),
//!   integrity, and the backup-side store.
//! * [`watchdog`] — reliable watchdog timer objects that survive failover.
//! * [`diverter`] — the Message Diverter over `msgq`, making the pair one
//!   addressable unit with retry across switchover.
//! * [`monitor`] — the System Monitor (status display; not required for
//!   fault tolerance).
//! * [`api`] — the paper's API names (`OFTTInitialize` … `OFTTDistress`)
//!   mapped onto the Rust surface.
//!
//! ## Minimal usage sketch
//!
//! ```no_run
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//! use oftt::prelude::*;
//! use oftt::checkpoint::VarSet;
//!
//! // 1. Write the application against FtApplication.
//! struct Counter { n: u64 }
//! impl FtApplication for Counter {
//!     fn snapshot(&self) -> VarSet {
//!         [("n".to_string(), comsim::marshal::to_shared(&self.n).unwrap())].into_iter().collect()
//!     }
//!     fn restore(&mut self, image: &VarSet) {
//!         if let Some(bytes) = image.get("n") {
//!             self.n = comsim::marshal::from_bytes(bytes).unwrap();
//!         }
//!     }
//! }
//!
//! // 2. Deploy an Engine plus the wrapped app on both pair nodes; see the
//! //    `call_track` example and `oftt-harness` for full scenarios.
//! # let pair = Pair::new(ds_net::NodeId(0), ds_net::NodeId(1));
//! let config = OfttConfig::new(pair);
//! let probe = Arc::new(Mutex::new(FtimProbe::default()));
//! let _process = FtProcess::new(config, RecoveryRule::default(), Counter { n: 0 }, probe);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub, unused_qualifications)]

pub mod api;
pub mod checkpoint;
pub mod config;
pub mod detect;
pub mod diverter;
pub mod engine;
pub mod ftim;
pub mod messages;
pub mod monitor;
pub mod role;
pub mod ship;
pub mod transition;
pub mod watchdog;

/// Convenience re-exports of the items nearly every user needs.
pub mod prelude {
    pub use crate::checkpoint::{Checkpoint, CheckpointStore};
    pub use crate::config::{
        engine_endpoint, engine_service, CheckpointMode, OfttConfig, Pair, RecoveryRule,
        StartupFallback, APP_IN_QUEUE,
    };
    pub use crate::diverter::{divert, diverter_service, DivertMsg, Diverter};
    pub use crate::engine::{Engine, EngineProbe};
    pub use crate::ftim::{
        FtApplication, FtCtx, FtProcess, FtimProbe, ServerFtProcess, FTIM_TIMER_BASE,
    };
    pub use crate::messages::{FtimKind, RoleReport, StatusReport};
    pub use crate::monitor::{MonitorTable, SystemMonitor};
    pub use crate::role::{Claim, Role};
    pub use crate::transition::{
        role_transition, Defects, Reason, RoleEvent, RoleOutcome, RoleView,
    };
    pub use crate::watchdog::{WatchdogError, WatchdogTable};
}

pub use config::{OfttConfig, Pair, RecoveryRule};
pub use engine::{Engine, EngineProbe};
pub use ftim::{FtApplication, FtCtx, FtProcess, FtimProbe};
pub use role::Role;

#[cfg(test)]
mod thread_safety_tests {
    //! C-SEND-SYNC: the types that cross threads on the real-time actor
    //! host must stay `Send` (a regression here would silently break
    //! `ds_net::live`).

    fn assert_send<T: Send>() {}

    #[test]
    fn processes_and_configs_are_send() {
        assert_send::<crate::engine::Engine>();
        assert_send::<crate::OfttConfig>();
        assert_send::<crate::checkpoint::Checkpoint>();
        assert_send::<crate::checkpoint::CheckpointStore>();
        assert_send::<crate::watchdog::WatchdogTable>();
        assert_send::<crate::diverter::Diverter>();
        assert_send::<crate::monitor::SystemMonitor>();
    }

    #[test]
    fn errors_are_well_behaved() {
        fn check<T: std::error::Error + Send + Sync + 'static>() {}
        check::<crate::watchdog::WatchdogError>();
    }
}
