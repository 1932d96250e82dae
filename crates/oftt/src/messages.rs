//! Protocol messages exchanged by OFTT components.
//!
//! Four conversations: FTIM↔engine (registration, heartbeats, role
//! updates, distress), engine↔engine (negotiation, heartbeats,
//! switchover), FTIM↔FTIM (checkpoint transfer and restore), and
//! engine→monitor (status reports).

use std::fmt;

use ds_net::endpoint::{Endpoint, NodeId, ServiceName};
use ds_net::message::MsgBody;
use ds_sim::prelude::SimTime;
use serde::{Deserialize, Serialize};

use crate::checkpoint::Checkpoint;
use crate::config::RecoveryRule;
use crate::role::Role;

/// A payload on an OFTT channel that failed to decode as the expected
/// message type — the typed replacement for the `expect("checked")`
/// downcasts formerly scattered through the receive paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The message type the receiver expected.
    pub expected: &'static str,
    /// Who sent the undecodable payload.
    pub from: Endpoint,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "payload from {} does not decode as {}", self.from, self.expected)
    }
}

impl std::error::Error for DecodeError {}

/// Decodes an envelope body as `T`, returning a typed error (instead of
/// panicking) when the payload is something else.
pub fn decode_body<T: std::any::Any>(body: MsgBody, from: &Endpoint) -> Result<T, DecodeError> {
    body.downcast::<T>()
        .map_err(|_| DecodeError { expected: std::any::type_name::<T>(), from: from.clone() })
}

/// Which flavor of FTIM a component registered with (paper §2.2.2): OPC
/// clients checkpoint, OPC servers only heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FtimKind {
    /// Checkpointing FTIM for stateful OPC clients.
    OpcClient,
    /// Heartbeat-only FTIM for stateless OPC servers.
    OpcServer,
}

/// FTIM/component → local engine.
#[derive(Debug, Serialize, Deserialize)]
pub enum ToEngine {
    /// `OFTTInitialize`: announce the component and its recovery rule.
    Register {
        /// The component's service name.
        service: ServiceName,
        /// Client (checkpointing) or server (stateless).
        kind: FtimKind,
        /// What to do when this component fails.
        rule: RecoveryRule,
    },
    /// Liveness beat.
    Heartbeat {
        /// The beating component.
        service: ServiceName,
    },
    /// `OFTTDistress`: the application self-reports a serious problem and
    /// requests a switchover if the peer is functional.
    Distress {
        /// The distressed component.
        service: ServiceName,
        /// Operator-readable reason.
        reason: String,
    },
    /// A diverter or tool asks which role this engine holds.
    QueryRole,
    /// Changes a registered component's recovery rule at run time — the
    /// paper's §2.2.1 notes the rule could be set "dynamically at
    /// run-time" but that its implementation "only supports static
    /// decision"; this reproduction implements the dynamic path.
    SetRecoveryRule {
        /// The component whose rule changes.
        service: ServiceName,
        /// The new rule.
        rule: RecoveryRule,
    },
}

/// Local engine → FTIM/component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FromEngine {
    /// The node's role changed (or a registration is being acknowledged).
    RoleUpdate {
        /// Current role.
        role: Role,
        /// Current promotion epoch.
        term: u64,
    },
    /// Engine liveness beat (lets FTIMs detect a dead engine — failure
    /// class *d*).
    EngineHeartbeat,
}

/// Engine ↔ engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PeerMsg {
    /// Startup negotiation probe.
    Hello {
        /// Sender node.
        node: NodeId,
        /// Sender's current role.
        role: Role,
        /// Sender's term.
        term: u64,
    },
    /// Reply to `Hello`.
    HelloReply {
        /// Sender node.
        node: NodeId,
        /// Sender's current role.
        role: Role,
        /// Sender's term.
        term: u64,
    },
    /// Periodic liveness + role advertisement.
    Heartbeat {
        /// Sender node.
        node: NodeId,
        /// Sender's current role.
        role: Role,
        /// Sender's term.
        term: u64,
    },
    /// Primary asks the backup to take over (recovery rule `Switchover`
    /// or `OFTTDistress`).
    SwitchoverRequest {
        /// Requesting node.
        node: NodeId,
        /// Requester's term.
        term: u64,
        /// Why.
        reason: String,
    },
}

/// Engine → any `QueryRole` sender.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoleReport {
    /// Reporting node.
    pub node: NodeId,
    /// Its role.
    pub role: Role,
    /// Its term.
    pub term: u64,
}

/// FTIM ↔ peer FTIM (checkpoint channel).
#[derive(Debug, Serialize, Deserialize)]
pub enum FtimPeerMsg {
    /// A checkpoint from the primary-side FTIM.
    Ckpt(Checkpoint),
    /// Backup acknowledges holding `(term, seq)` and says what it holds:
    /// the primary compares `crc` with the image checksum it computed when
    /// it shipped that position, so an ack is a confirmation of the image
    /// and not only of the delivery.
    CkptAck {
        /// Acknowledged term.
        term: u64,
        /// Acknowledged sequence.
        seq: u64,
        /// [`crate::checkpoint::CheckpointStore::image_crc`] of the
        /// backup's merged image at that position.
        crc: u32,
    },
    /// Backup cannot apply a delta; primary must resend a full image.
    CkptNack,
    /// A restarting FTIM asks its peer for the merged image (local
    /// restart restores from the backup's store).
    RestoreRequest,
    /// Reply to `RestoreRequest`.
    RestoreReply {
        /// The merged image, if the peer has one.
        image: Option<crate::checkpoint::VarSet>,
        /// Peer's store position.
        term: u64,
        /// Peer's store position.
        seq: u64,
    },
}

/// One component's health as the engine sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentStatus {
    /// Service name.
    pub service: String,
    /// FTIM flavor ("client" checkpoints, "server" does not).
    pub kind: FtimKind,
    /// `false` from a restart until the restarted copy registers or beats.
    pub healthy: bool,
    /// Restarts performed in the current run of failures
    /// ([`crate::recover`]); 0 once the run is over.
    pub restart_attempts: u32,
}

/// Engine → System Monitor (paper §2.2.4 "status reporting").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Reporting node.
    pub node: NodeId,
    /// Engine role.
    pub role: Role,
    /// Engine term.
    pub term: u64,
    /// Peer reachability as seen from this node.
    pub peer_visible: bool,
    /// Health of each registered component.
    pub components: Vec<ComponentStatus>,
    /// When the report was generated.
    pub at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_report_is_marshalable() {
        let report = RoleReport { node: NodeId(1), role: Role::Primary, term: 4 };
        let bytes = comsim::marshal::to_bytes(&report).unwrap();
        let back: RoleReport = comsim::marshal::from_bytes(&bytes).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn status_report_is_marshalable() {
        let report = StatusReport {
            node: NodeId(2),
            role: Role::Backup,
            term: 1,
            peer_visible: true,
            components: vec![ComponentStatus {
                service: "call-track".into(),
                kind: FtimKind::OpcClient,
                healthy: true,
                restart_attempts: 0,
            }],
            at: SimTime::from_secs(9),
        };
        let bytes = comsim::marshal::to_bytes(&report).unwrap();
        let back: StatusReport = comsim::marshal::from_bytes(&bytes).unwrap();
        assert_eq!(back, report);
    }
}
