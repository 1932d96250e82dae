//! Trace parser: turns the free-form [`Trace`] the simulation records into
//! the typed event stream the invariant engine consumes.
//!
//! The parser recognizes exactly the message shapes the substrate and
//! toolkit crates emit (engine role transitions, checkpoint positions,
//! diverter retargeting, fault-layer lifecycle records, the FTIM's API
//! misuse reports) and ignores everything else. Unrecognized lines are
//! *not* an error: the trace is a shared log and other subsystems are free
//! to add records.

use ds_sim::prelude::{SimTime, Trace, TraceCategory, VectorClock};
use oftt::role::Role;

/// One parsed, invariant-relevant occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
    /// Logical timestamp of the emitting actor, when the run was traced
    /// with causality recording on (`None` otherwise). Invariants that
    /// reason about happens-before treat `None` as vacuously ordered.
    pub clock: Option<VectorClock>,
}

/// The invariant-relevant event vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// An engine announced a role in a term: `role=... term=... (...)`.
    RoleUpdate {
        /// Announcing engine endpoint (`nodeN/oftt-engine`).
        ep: String,
        /// The announced role.
        role: Role,
        /// The announced term.
        term: u64,
    },
    /// An engine (re)started: `engine starting`.
    EngineStart {
        /// The starting engine endpoint.
        ep: String,
    },
    /// An engine asked its peer to take over: `requesting switchover: ...`.
    SwitchoverRequest {
        /// The requesting engine endpoint.
        ep: String,
    },
    /// An engine noticed a dead component: `detected failure of ...`.
    DetectedFailure {
        /// The detecting engine endpoint.
        ep: String,
    },
    /// A component reported itself sick: `DISTRESS from ...`.
    Distress {
        /// The engine endpoint that received the distress call.
        ep: String,
    },
    /// An FTIM shipped a checkpoint at a (term, seq) position. `crc` is
    /// the checksum of the primary's cumulative designated image at that
    /// position — the state the backup must converge to.
    CkptShipped {
        /// Shipping application endpoint.
        ep: String,
        /// Checkpoint position.
        term: u64,
        /// Checkpoint position.
        seq: u64,
        /// Checksum of the shipped cumulative image.
        crc: u32,
    },
    /// An FTIM installed a received checkpoint into its store. `crc` is
    /// the checksum of the store's merged image after installing.
    CkptInstalled {
        /// Installing application endpoint.
        ep: String,
        /// Checkpoint position.
        term: u64,
        /// Checkpoint position.
        seq: u64,
        /// Checksum of the merged store image after install.
        crc: u32,
    },
    /// An FTIM served its store (or live state) to a restarting peer.
    CkptServed {
        /// Serving application endpoint.
        ep: String,
        /// Position of the served image.
        term: u64,
        /// Position of the served image.
        seq: u64,
        /// Checksum of the served image.
        crc: u32,
    },
    /// A primary learned its shipped checkpoint was installed by the
    /// backup: `ckpt acked (term=T seq=S)`. (No crc — the ack carries only
    /// the position.)
    CkptAcked {
        /// The acked (shipping) application endpoint.
        ep: String,
        /// Checkpoint position.
        term: u64,
        /// Checkpoint position.
        seq: u64,
    },
    /// An FTIM restored application state from a (term, seq) position at
    /// takeover. `crc` is the checksum of the image actually restored.
    CkptRestore {
        /// Restoring application endpoint.
        ep: String,
        /// Restore position.
        term: u64,
        /// Restore position.
        seq: u64,
        /// Checksum of the restored image.
        crc: u32,
    },
    /// A diverter repointed traffic: `primary is now ...`.
    DiverterPrimary {
        /// The diverter endpoint.
        ep: String,
        /// The node it now believes primary.
        node: String,
    },
    /// A diverter forwarded a message: `enqueue to ...`.
    DiverterEnqueue {
        /// The diverter endpoint.
        ep: String,
        /// The destination node.
        node: String,
    },
    /// A node finished booting.
    NodeUp {
        /// The node (`nodeN`).
        node: String,
    },
    /// A node went down (hard crash or blue screen).
    NodeDown {
        /// The node (`nodeN`).
        node: String,
    },
    /// The pair interconnect was partitioned.
    Partition,
    /// The pair interconnect partition healed.
    Heal,
    /// A service instance was launched: `start node/svc as pid`.
    ServiceStart {
        /// The endpoint (`nodeN/svc`).
        ep: String,
    },
    /// A service instance was killed: `kill node/svc (pid)`.
    ServiceKill {
        /// The endpoint (`nodeN/svc`).
        ep: String,
    },
    /// An FTIM reported its application misusing the toolkit API:
    /// `api misuse: ...`.
    ApiMisuse {
        /// The application endpoint.
        ep: String,
        /// What was misused (the text after `api misuse: `).
        detail: String,
    },
}

/// Splits `"nodeN/svc: rest"` into the endpoint and the rest.
fn split_ep(message: &str) -> Option<(&str, &str)> {
    let (ep, rest) = message.split_once(": ")?;
    // Endpoints always look like `node<digits>/<service>`.
    let (node, _svc) = ep.split_once('/')?;
    node.strip_prefix("node")?.parse::<u64>().ok()?;
    Some((ep, rest))
}

/// Extracts `(term, seq)` from a `... (term=T seq=S)` suffix (no crc).
fn parse_bare_position(rest: &str) -> Option<(u64, u64)> {
    let inner = rest.split_once("(term=")?.1;
    let (term, after) = inner.split_once(" seq=")?;
    let seq = after.strip_suffix(')')?;
    Some((term.trim().parse().ok()?, seq.trim().parse().ok()?))
}

/// Extracts `(term, seq, crc)` from a `... (term=T seq=S crc=C)` suffix.
fn parse_position(rest: &str) -> Option<(u64, u64, u32)> {
    let inner = rest.split_once("(term=")?.1;
    let (term, after) = inner.split_once(" seq=")?;
    let (seq, after) = after.split_once(" crc=")?;
    let crc = after.strip_suffix(')')?;
    Some((term.trim().parse().ok()?, seq.trim().parse().ok()?, crc.trim().parse().ok()?))
}

fn parse_role(rest: &str) -> Option<EventKind> {
    // `role=primary term=3 (reason text)`
    let rest = rest.strip_prefix("role=")?;
    let (role, rest) = rest.split_once(" term=")?;
    let term_txt = rest.split_whitespace().next()?;
    let role = match role {
        "primary" => Role::Primary,
        "backup" => Role::Backup,
        "negotiating" => Role::Negotiating,
        _ => return None,
    };
    Some(EventKind::RoleUpdate { ep: String::new(), role, term: term_txt.parse().ok()? })
}

fn parse_engine(ep: &str, rest: &str) -> Option<EventKind> {
    if let Some(mut kind) = parse_role(rest) {
        if let EventKind::RoleUpdate { ep: slot, .. } = &mut kind {
            *slot = ep.to_string();
        }
        return Some(kind);
    }
    if rest == "engine starting" {
        Some(EventKind::EngineStart { ep: ep.to_string() })
    } else if rest.starts_with("requesting switchover:") {
        Some(EventKind::SwitchoverRequest { ep: ep.to_string() })
    } else if rest.starts_with("detected failure of ") {
        Some(EventKind::DetectedFailure { ep: ep.to_string() })
    } else if rest.starts_with("DISTRESS from ") {
        Some(EventKind::Distress { ep: ep.to_string() })
    } else {
        None
    }
}

fn parse_checkpoint(ep: &str, rest: &str) -> Option<EventKind> {
    let ep = ep.to_string();
    if rest.starts_with("ckpt shipped ") {
        let (term, seq, crc) = parse_position(rest)?;
        Some(EventKind::CkptShipped { ep, term, seq, crc })
    } else if rest.starts_with("ckpt installed ") {
        let (term, seq, crc) = parse_position(rest)?;
        Some(EventKind::CkptInstalled { ep, term, seq, crc })
    } else if rest.starts_with("ckpt served ") {
        let (term, seq, crc) = parse_position(rest)?;
        Some(EventKind::CkptServed { ep, term, seq, crc })
    } else if rest.starts_with("ckpt acked ") {
        let (term, seq) = parse_bare_position(rest)?;
        Some(EventKind::CkptAcked { ep, term, seq })
    } else if rest.starts_with("ckpt restore position ") {
        let (term, seq, crc) = parse_position(rest)?;
        Some(EventKind::CkptRestore { ep, term, seq, crc })
    } else {
        None
    }
}

fn parse_diverter(ep: &str, rest: &str) -> Option<EventKind> {
    if let Some(rest) = rest.strip_prefix("primary is now ") {
        let node = rest.split_whitespace().next()?;
        Some(EventKind::DiverterPrimary { ep: ep.to_string(), node: node.to_string() })
    } else if let Some(rest) = rest.strip_prefix("enqueue to ") {
        let node = rest.split_whitespace().next()?;
        Some(EventKind::DiverterEnqueue { ep: ep.to_string(), node: node.to_string() })
    } else {
        None
    }
}

fn parse_fault(message: &str) -> Option<EventKind> {
    if let Some(node) = message.strip_suffix(" up (boot)") {
        return Some(EventKind::NodeUp { node: node.to_string() });
    }
    if let Some(node) = message.strip_suffix(" crashed (hard)") {
        return Some(EventKind::NodeDown { node: node.to_string() });
    }
    if let Some((node, _)) = message.split_once(" blue screen; rebooting") {
        return Some(EventKind::NodeDown { node: node.to_string() });
    }
    if message.starts_with("partition: ") {
        return Some(EventKind::Partition);
    }
    if message.starts_with("heal: ") {
        return Some(EventKind::Heal);
    }
    if let Some(rest) = message.strip_prefix("kill ") {
        let (ep, _) = rest.split_once(" (")?;
        return Some(EventKind::ServiceKill { ep: ep.to_string() });
    }
    None
}

fn parse_other(message: &str) -> Option<EventKind> {
    let rest = message.strip_prefix("start ")?;
    let (ep, _) = rest.split_once(" as ")?;
    Some(EventKind::ServiceStart { ep: ep.to_string() })
}

/// Parses every invariant-relevant record out of a trace, in order.
pub fn parse_trace(trace: &Trace) -> Vec<Event> {
    let mut events = Vec::new();
    for entry in trace.entries() {
        let kind = match entry.category {
            TraceCategory::Engine => {
                split_ep(&entry.message).and_then(|(ep, rest)| parse_engine(ep, rest))
            }
            TraceCategory::Checkpoint => {
                split_ep(&entry.message).and_then(|(ep, rest)| parse_checkpoint(ep, rest))
            }
            TraceCategory::Diverter => {
                split_ep(&entry.message).and_then(|(ep, rest)| parse_diverter(ep, rest))
            }
            TraceCategory::App => split_ep(&entry.message).and_then(|(ep, rest)| {
                let detail = rest.strip_prefix("api misuse: ")?;
                Some(EventKind::ApiMisuse { ep: ep.to_string(), detail: detail.to_string() })
            }),
            TraceCategory::Fault => parse_fault(&entry.message),
            TraceCategory::Other => parse_other(&entry.message),
            _ => None,
        };
        if let Some(kind) = kind {
            events.push(Event { at: entry.at, kind, clock: entry.clock.clone() });
        }
    }
    events
}

/// The node part (`nodeN`) of an endpoint string.
pub fn node_of(ep: &str) -> &str {
    ep.split('/').next().unwrap_or(ep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_sim::prelude::SimDuration;

    fn trace_with(lines: &[(TraceCategory, &str)]) -> Trace {
        let mut trace = Trace::new();
        for (i, (cat, msg)) in lines.iter().enumerate() {
            trace.record(SimTime::ZERO + SimDuration::from_millis(i as u64), *cat, *msg);
        }
        trace
    }

    #[test]
    fn parses_engine_lifecycle() {
        let trace = trace_with(&[
            (TraceCategory::Engine, "node0/oftt-engine: engine starting"),
            (TraceCategory::Engine, "node0/oftt-engine: role=primary term=2 (peer silent)"),
            (TraceCategory::Engine, "node0/oftt-engine: detected failure of call-track"),
            (TraceCategory::Engine, "node0/oftt-engine: requesting switchover: too many restarts"),
            (TraceCategory::Engine, "node0/oftt-engine: some other chatter"),
        ]);
        let events = parse_trace(&trace);
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[1].kind,
            EventKind::RoleUpdate { ep: "node0/oftt-engine".into(), role: Role::Primary, term: 2 }
        );
    }

    #[test]
    fn parses_checkpoint_positions() {
        let trace = trace_with(&[
            (TraceCategory::Checkpoint, "node1/call-track: ckpt shipped (term=1 seq=4 crc=77)"),
            (TraceCategory::Checkpoint, "node0/call-track: ckpt installed (term=1 seq=4 crc=77)"),
            (TraceCategory::Checkpoint, "node1/call-track: ckpt served (term=1 seq=4 crc=77)"),
            (
                TraceCategory::Checkpoint,
                "node0/call-track: ckpt restore position (term=1 seq=4 crc=77)",
            ),
        ]);
        let events = parse_trace(&trace);
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[2].kind,
            EventKind::CkptServed { ep: "node1/call-track".into(), term: 1, seq: 4, crc: 77 }
        );
        assert_eq!(
            events[3].kind,
            EventKind::CkptRestore { ep: "node0/call-track".into(), term: 1, seq: 4, crc: 77 }
        );
    }

    #[test]
    fn parses_ckpt_ack_without_crc() {
        let trace = trace_with(&[(
            TraceCategory::Checkpoint,
            "node1/call-track: ckpt acked (term=1 seq=4)",
        )]);
        let events = parse_trace(&trace);
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            EventKind::CkptAcked { ep: "node1/call-track".into(), term: 1, seq: 4 }
        );
        assert!(events[0].clock.is_none(), "untraced runs carry no clocks");
    }

    #[test]
    fn parses_fault_and_lifecycle_records() {
        let trace = trace_with(&[
            (TraceCategory::Fault, "node0 up (boot)"),
            (TraceCategory::Fault, "node0 crashed (hard)"),
            (TraceCategory::Fault, "partition: node0<->node1"),
            (TraceCategory::Fault, "heal: node0<->node1"),
            (TraceCategory::Fault, "kill node1/call-track (pid7)"),
            (TraceCategory::Other, "start node1/call-track as pid9"),
        ]);
        let events = parse_trace(&trace);
        assert_eq!(events.len(), 6);
        assert_eq!(events[4].kind, EventKind::ServiceKill { ep: "node1/call-track".into() });
        assert_eq!(events[5].kind, EventKind::ServiceStart { ep: "node1/call-track".into() });
    }

    #[test]
    fn parses_diverter_records() {
        let trace = trace_with(&[
            (TraceCategory::Diverter, "node2/oftt-diverter: primary is now node0 (was None)"),
            (TraceCategory::Diverter, "node2/oftt-diverter: enqueue to node0 (call-event)"),
        ]);
        let events = parse_trace(&trace);
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].kind,
            EventKind::DiverterEnqueue { ep: "node2/oftt-diverter".into(), node: "node0".into() }
        );
    }

    #[test]
    fn parses_api_misuse_reports() {
        let trace = trace_with(&[
            (
                TraceCategory::App,
                "node0/call-track: api misuse: watchdog_reset on unknown watchdog \"deadman\"",
            ),
            (TraceCategory::App, "node0/call-track: watchdog \"deadman\" expired"),
        ]);
        let events = parse_trace(&trace);
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            EventKind::ApiMisuse {
                ep: "node0/call-track".into(),
                detail: "watchdog_reset on unknown watchdog \"deadman\"".into(),
            }
        );
    }

    #[test]
    fn node_of_extracts_node() {
        assert_eq!(node_of("node3/oftt-engine"), "node3");
    }
}
