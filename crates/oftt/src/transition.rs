//! The pair role-transition table as a pure function.
//!
//! Every role decision the engine makes — startup negotiation, promotion on
//! primary silence, dual-primary resolution, switchover handling, the §3.2
//! startup fallback — lives here as a side-effect-free function over an
//! explicit view of the engine's role state. [`crate::engine::Engine`]
//! consumes it for the concrete runtime, and `oftt-verify`'s abstract model
//! consumes the *same* function, so the transition table exists in exactly
//! one place and the model cannot silently drift from the shipped code.
//!
//! The function decides *what the role becomes*; timestamps, heartbeat
//! bookkeeping, message sends, and trace records stay in the engine. The
//! one non-obvious outcome is [`RoleOutcome::AdoptTerm`]: a backup that
//! observes a higher-term primary heartbeat adopts the term *silently* —
//! no role announcement, no trace line — which downstream tools (and the
//! abstract model) must reproduce exactly.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
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

use ds_net::endpoint::NodeId;
use serde::{Deserialize, Serialize};

use crate::config::StartupFallback;
use crate::role::{Claim, Role};

/// Runtime switches for the seeded protocol defects compiled in by the
/// `inject_bugs` feature. The fields always exist so configurations are
/// portable across builds; without the feature they have no effect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Defects {
    /// Dual-primary window: a primary that receives a *beating* peer claim
    /// fails to yield and keeps serving. The transient dual-primary window
    /// that claim resolution is supposed to close stays open forever — two
    /// live engines keep serving until something else kills one.
    pub dual_primary_window: bool,
    /// Stale promotion: a promoting FTIM restores the checkpoint image
    /// *preceding* the newest installed one, rolling the application back
    /// past acknowledged state.
    pub stale_promotion: bool,
}

/// The slice of engine state the transition table reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoleView {
    /// This engine's node.
    pub me: NodeId,
    /// The peer engine's node.
    pub peer: NodeId,
    /// Current role.
    pub role: Role,
    /// Current promotion epoch.
    pub term: u64,
    /// The peer's last advertised role, if any message arrived yet.
    pub peer_role: Option<Role>,
}

/// An input to the transition table. Peer-message events carry the fields
/// the decision reads; timer events carry the engine's already-evaluated
/// timing predicates (the table is time-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleEvent {
    /// A `PeerMsg::Hello` arrived with the sender's role and term.
    PeerHello {
        /// Sender's role.
        role: Role,
        /// Sender's term.
        term: u64,
    },
    /// A `PeerMsg::HelloReply` arrived.
    PeerHelloReply {
        /// Sender's role.
        role: Role,
        /// Sender's term.
        term: u64,
    },
    /// A `PeerMsg::Heartbeat` arrived.
    PeerHeartbeat {
        /// Sender's role.
        role: Role,
        /// Sender's term.
        term: u64,
    },
    /// A `PeerMsg::SwitchoverRequest` arrived.
    PeerSwitchoverRequest {
        /// Requester's term.
        term: u64,
    },
    /// The engine's tick found no primary heartbeat within `peer_timeout`.
    /// `peer_silent` is `true` when *no* peer message at all arrived within
    /// the timeout (the peer-death confirmation).
    PrimarySilenceExpired {
        /// Whether the peer has been completely silent.
        peer_silent: bool,
    },
    /// Startup negotiation retries are exhausted with no word from the
    /// peer; `fallback` is the configured §3.2 policy.
    StartupRetriesExhausted {
        /// The configured fallback.
        fallback: StartupFallback,
    },
    /// The engine sent a `SwitchoverRequest` and must stop acting as
    /// primary immediately.
    SwitchoverYield,
}

/// Why a role changed — the static part of the trace reason. Dynamic
/// context (the switchover requester's stated reason) is appended by the
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// Simultaneous startup resolved by node-id order.
    StartupTieBreak,
    /// The peer replied as an established primary.
    PeerIsPrimary,
    /// The peer replied as a backup expecting a primary.
    PeerIsBackup,
    /// A negotiating engine saw a primary heartbeat.
    ObservedPrimaryHeartbeat,
    /// A dual primary resolved by claim precedence; we lost.
    DualPrimaryYield,
    /// The peer asked us to take over (dynamic reason appended).
    SwitchoverRequest,
    /// The peer went completely silent; we take over.
    PeerSilent,
    /// The peer is alive but nobody is primary; the lower node takes over.
    NoPrimary,
    /// Startup retries exhausted under `StartupFallback::BecomePrimary`.
    StartupTimeout,
    /// We yielded after sending a switchover request.
    Yielded,
}

impl Reason {
    /// The trace text for this reason (the engine's historical strings).
    pub fn text(self) -> &'static str {
        match self {
            Reason::StartupTieBreak => "startup tie-break",
            Reason::PeerIsPrimary => "peer is primary",
            Reason::PeerIsBackup => "peer is backup",
            Reason::ObservedPrimaryHeartbeat => "observed primary heartbeat",
            Reason::DualPrimaryYield => "dual primary resolved: yielding to peer claim",
            Reason::SwitchoverRequest => "switchover request",
            Reason::PeerSilent => "peer silent: taking over",
            Reason::NoPrimary => "no primary: taking over",
            Reason::StartupTimeout => "startup timeout: assuming peer dead",
            Reason::Yielded => "yielded after switchover request",
        }
    }
}

/// What the table decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleOutcome {
    /// No role or term change.
    Stay,
    /// Announce a (role, term) via the engine's `set_role` path: trace
    /// line, probe entry, `RoleUpdate` to every registered component.
    Announce {
        /// The new role.
        role: Role,
        /// The new term.
        term: u64,
        /// Why (static part).
        reason: Reason,
    },
    /// Adopt a higher term *without* announcing — the backup observing a
    /// newer primary heartbeat mutates its epoch silently.
    AdoptTerm {
        /// The adopted term.
        term: u64,
    },
    /// Shut the engine down (§3.2 original fallback).
    ShutDown,
}

/// The startup tie-break both `Hello` and `HelloReply` apply when both
/// sides are still negotiating: shared term knowledge, lower node wins.
fn startup_tie_break(view: &RoleView, peer_term: u64) -> RoleOutcome {
    let term = view.term.max(peer_term) + 1;
    let role = if view.me < view.peer { Role::Primary } else { Role::Backup };
    RoleOutcome::Announce { role, term, reason: Reason::StartupTieBreak }
}

/// The pair role-transition table. Pure: reads only `view`, `event`, and
/// `defects`; performs no I/O and touches no clocks.
pub fn role_transition(view: &RoleView, event: &RoleEvent, defects: &Defects) -> RoleOutcome {
    let _ = defects; // only read under the inject_bugs feature
    match *event {
        RoleEvent::PeerHello { role, term } => {
            if view.role == Role::Negotiating && role == Role::Negotiating {
                startup_tie_break(view, term)
            } else {
                RoleOutcome::Stay
            }
        }
        RoleEvent::PeerHelloReply { role, term } => {
            if view.role != Role::Negotiating {
                return RoleOutcome::Stay;
            }
            match role {
                Role::Primary => RoleOutcome::Announce {
                    role: Role::Backup,
                    term,
                    reason: Reason::PeerIsPrimary,
                },
                // Peer holds checkpoints and expects a primary: we take the
                // role (we may be the old primary's node restarting after
                // an engine failure).
                Role::Backup => RoleOutcome::Announce {
                    role: Role::Primary,
                    term: term + 1,
                    reason: Reason::PeerIsBackup,
                },
                Role::Negotiating => startup_tie_break(view, term),
            }
        }
        RoleEvent::PeerHeartbeat { role, term } => {
            if role != Role::Primary {
                return RoleOutcome::Stay;
            }
            match view.role {
                Role::Negotiating => RoleOutcome::Announce {
                    role: Role::Backup,
                    term,
                    reason: Reason::ObservedPrimaryHeartbeat,
                },
                Role::Backup => {
                    if term > view.term {
                        RoleOutcome::AdoptTerm { term }
                    } else {
                        RoleOutcome::Stay
                    }
                }
                Role::Primary => {
                    // Dual primary (partition heal, §3.2 hazard): claims
                    // resolve it identically on both sides.
                    let theirs = Claim::new(term, view.peer);
                    let mine = Claim::new(view.term, view.me);
                    if theirs.beats(&mine) {
                        // Seeded defect: ignore the beating claim and keep
                        // serving — the dual-primary window never closes.
                        #[cfg(feature = "inject_bugs")]
                        if defects.dual_primary_window {
                            return RoleOutcome::Stay;
                        }
                        RoleOutcome::Announce {
                            role: Role::Backup,
                            term,
                            reason: Reason::DualPrimaryYield,
                        }
                    } else {
                        RoleOutcome::Stay
                    }
                }
            }
        }
        RoleEvent::PeerSwitchoverRequest { term } => {
            if view.role == Role::Primary {
                RoleOutcome::Stay
            } else {
                RoleOutcome::Announce {
                    role: Role::Primary,
                    term: view.term.max(term) + 1,
                    reason: Reason::SwitchoverRequest,
                }
            }
        }
        RoleEvent::PrimarySilenceExpired { peer_silent } => {
            if view.role != Role::Backup {
                return RoleOutcome::Stay;
            }
            let both_backup = view.peer_role == Some(Role::Backup);
            // If the peer engine is alive but not primary, only the lower
            // node id promotes (avoids a double promotion race).
            if peer_silent {
                RoleOutcome::Announce {
                    role: Role::Primary,
                    term: view.term + 1,
                    reason: Reason::PeerSilent,
                }
            } else if both_backup && view.me < view.peer {
                RoleOutcome::Announce {
                    role: Role::Primary,
                    term: view.term + 1,
                    reason: Reason::NoPrimary,
                }
            } else {
                RoleOutcome::Stay
            }
        }
        RoleEvent::StartupRetriesExhausted { fallback } => {
            if view.role != Role::Negotiating {
                return RoleOutcome::Stay;
            }
            match fallback {
                StartupFallback::ShutDown => RoleOutcome::ShutDown,
                StartupFallback::BecomePrimary => RoleOutcome::Announce {
                    role: Role::Primary,
                    term: view.term + 1,
                    reason: Reason::StartupTimeout,
                },
            }
        }
        // Stop acting as primary immediately, pre-allocating the term we
        // are granting: the peer's takeover lands on max(terms)+1, so by
        // adopting term+1 as a backup we can never silence-promote into
        // that same term ourselves. (Yielding at the *old* term is a real
        // collision: lose the switchover request, and both nodes sit in
        // Backup at term T until their silence timers expire — whereupon
        // both promote to T+1, a same-term dual primary. Found by
        // exhaustive exploration in oftt-verify.) If the peer never takes
        // over, the backup-promotion path returns control here at term+2.
        RoleEvent::SwitchoverYield => RoleOutcome::Announce {
            role: Role::Backup,
            term: view.term + 1,
            reason: Reason::Yielded,
        },
    }
}

#[cfg(test)]
mod tests {
    //! The exhaustive table test: every (role, event) pair is driven
    //! through `role_transition` and checked against expectations written
    //! out literally, so a behavioural change to the table cannot land
    //! without touching this file.

    use super::*;

    const ROLES: [Role; 3] = [Role::Negotiating, Role::Primary, Role::Backup];

    fn view(me: u16, peer: u16, role: Role, term: u64, peer_role: Option<Role>) -> RoleView {
        RoleView { me: NodeId(me), peer: NodeId(peer), role, term, peer_role }
    }

    fn announce(role: Role, term: u64, reason: Reason) -> RoleOutcome {
        RoleOutcome::Announce { role, term, reason }
    }

    const CLEAN: Defects = Defects { dual_primary_window: false, stale_promotion: false };

    #[test]
    fn hello_table() {
        for my_role in ROLES {
            for peer_role in ROLES {
                for (me, peer) in [(1, 2), (2, 1)] {
                    let v = view(me, peer, my_role, 3, None);
                    let ev = RoleEvent::PeerHello { role: peer_role, term: 5 };
                    let got = role_transition(&v, &ev, &CLEAN);
                    let expected = if my_role == Role::Negotiating && peer_role == Role::Negotiating
                    {
                        // max(3,5)+1 = 6; lower node becomes primary.
                        let winner = if me < peer { Role::Primary } else { Role::Backup };
                        announce(winner, 6, Reason::StartupTieBreak)
                    } else {
                        RoleOutcome::Stay
                    };
                    assert_eq!(got, expected, "hello: {my_role:?} sees {peer_role:?} (me={me})");
                }
            }
        }
    }

    #[test]
    fn hello_reply_table() {
        for my_role in ROLES {
            for peer_role in ROLES {
                for (me, peer) in [(1, 2), (2, 1)] {
                    let v = view(me, peer, my_role, 3, None);
                    let ev = RoleEvent::PeerHelloReply { role: peer_role, term: 5 };
                    let got = role_transition(&v, &ev, &CLEAN);
                    let expected = if my_role != Role::Negotiating {
                        RoleOutcome::Stay
                    } else {
                        match peer_role {
                            Role::Primary => announce(Role::Backup, 5, Reason::PeerIsPrimary),
                            Role::Backup => announce(Role::Primary, 6, Reason::PeerIsBackup),
                            Role::Negotiating => {
                                let winner = if me < peer { Role::Primary } else { Role::Backup };
                                announce(winner, 6, Reason::StartupTieBreak)
                            }
                        }
                    };
                    assert_eq!(got, expected, "reply: {my_role:?} sees {peer_role:?} (me={me})");
                }
            }
        }
    }

    #[test]
    fn heartbeat_table() {
        // Non-primary heartbeats never change anything.
        for my_role in ROLES {
            for peer_role in [Role::Negotiating, Role::Backup] {
                let v = view(1, 2, my_role, 3, None);
                let ev = RoleEvent::PeerHeartbeat { role: peer_role, term: 9 };
                assert_eq!(role_transition(&v, &ev, &CLEAN), RoleOutcome::Stay);
            }
        }
        // Primary heartbeat at a negotiating engine: follow as backup.
        let v = view(1, 2, Role::Negotiating, 0, None);
        let ev = RoleEvent::PeerHeartbeat { role: Role::Primary, term: 4 };
        assert_eq!(
            role_transition(&v, &ev, &CLEAN),
            announce(Role::Backup, 4, Reason::ObservedPrimaryHeartbeat)
        );
        // Primary heartbeat at a backup: silent term adoption iff newer.
        for (their_term, expected) in [
            (2, RoleOutcome::Stay),
            (3, RoleOutcome::Stay),
            (7, RoleOutcome::AdoptTerm { term: 7 }),
        ] {
            let v = view(1, 2, Role::Backup, 3, Some(Role::Primary));
            let ev = RoleEvent::PeerHeartbeat { role: Role::Primary, term: their_term };
            assert_eq!(role_transition(&v, &ev, &CLEAN), expected, "term {their_term}");
        }
        // Dual primary: the losing claim yields, the winning claim stays.
        // Higher term wins; ties break to the lower node.
        for (me, peer, my_term, their_term, expected) in [
            (1u16, 2u16, 3u64, 4u64, announce(Role::Backup, 4, Reason::DualPrimaryYield)),
            (1, 2, 4, 3, RoleOutcome::Stay),
            (1, 2, 3, 3, RoleOutcome::Stay), // tie: I am the lower node
            (2, 1, 3, 3, announce(Role::Backup, 3, Reason::DualPrimaryYield)),
        ] {
            let v = view(me, peer, Role::Primary, my_term, Some(Role::Primary));
            let ev = RoleEvent::PeerHeartbeat { role: Role::Primary, term: their_term };
            assert_eq!(
                role_transition(&v, &ev, &CLEAN),
                expected,
                "dual primary me={me} terms {my_term}/{their_term}"
            );
        }
    }

    #[test]
    fn switchover_request_table() {
        for (my_role, my_term, their_term, expected) in [
            (Role::Primary, 3, 5, RoleOutcome::Stay),
            (Role::Backup, 3, 5, announce(Role::Primary, 6, Reason::SwitchoverRequest)),
            (Role::Backup, 7, 5, announce(Role::Primary, 8, Reason::SwitchoverRequest)),
            (Role::Negotiating, 0, 5, announce(Role::Primary, 6, Reason::SwitchoverRequest)),
        ] {
            let v = view(1, 2, my_role, my_term, None);
            let ev = RoleEvent::PeerSwitchoverRequest { term: their_term };
            assert_eq!(role_transition(&v, &ev, &CLEAN), expected, "{my_role:?}");
        }
    }

    #[test]
    fn primary_silence_table() {
        // Only a backup reacts to primary silence.
        for my_role in [Role::Negotiating, Role::Primary] {
            for peer_silent in [false, true] {
                let v = view(1, 2, my_role, 3, Some(Role::Backup));
                let ev = RoleEvent::PrimarySilenceExpired { peer_silent };
                assert_eq!(role_transition(&v, &ev, &CLEAN), RoleOutcome::Stay);
            }
        }
        // A backup promotes on confirmed peer death regardless of id order.
        for (me, peer) in [(1, 2), (2, 1)] {
            let v = view(me, peer, Role::Backup, 3, Some(Role::Primary));
            let ev = RoleEvent::PrimarySilenceExpired { peer_silent: true };
            assert_eq!(
                role_transition(&v, &ev, &CLEAN),
                announce(Role::Primary, 4, Reason::PeerSilent)
            );
        }
        // Peer alive with no primary: only the lower node promotes, and
        // only once the peer is known to be a backup.
        for (me, peer, peer_role, expected) in [
            (1u16, 2u16, Some(Role::Backup), announce(Role::Primary, 4, Reason::NoPrimary)),
            (2, 1, Some(Role::Backup), RoleOutcome::Stay),
            (1, 2, Some(Role::Primary), RoleOutcome::Stay),
            (1, 2, Some(Role::Negotiating), RoleOutcome::Stay),
            (1, 2, None, RoleOutcome::Stay),
        ] {
            let v = view(me, peer, Role::Backup, 3, peer_role);
            let ev = RoleEvent::PrimarySilenceExpired { peer_silent: false };
            assert_eq!(
                role_transition(&v, &ev, &CLEAN),
                expected,
                "me={me} peer_role={peer_role:?}"
            );
        }
    }

    #[test]
    fn startup_exhausted_table() {
        for my_role in [Role::Primary, Role::Backup] {
            for fallback in [StartupFallback::ShutDown, StartupFallback::BecomePrimary] {
                let v = view(1, 2, my_role, 3, None);
                let ev = RoleEvent::StartupRetriesExhausted { fallback };
                assert_eq!(role_transition(&v, &ev, &CLEAN), RoleOutcome::Stay);
            }
        }
        let v = view(1, 2, Role::Negotiating, 0, None);
        assert_eq!(
            role_transition(
                &v,
                &RoleEvent::StartupRetriesExhausted { fallback: StartupFallback::ShutDown },
                &CLEAN
            ),
            RoleOutcome::ShutDown
        );
        assert_eq!(
            role_transition(
                &v,
                &RoleEvent::StartupRetriesExhausted { fallback: StartupFallback::BecomePrimary },
                &CLEAN
            ),
            announce(Role::Primary, 1, Reason::StartupTimeout)
        );
    }

    #[test]
    fn switchover_yield_table() {
        // Yielding pre-allocates the granted term (term+1): losing the
        // request can then never lead to both nodes silence-promoting into
        // the same term.
        for my_role in ROLES {
            let v = view(1, 2, my_role, 6, Some(Role::Backup));
            assert_eq!(
                role_transition(&v, &RoleEvent::SwitchoverYield, &CLEAN),
                announce(Role::Backup, 7, Reason::Yielded)
            );
        }
    }

    #[cfg(feature = "inject_bugs")]
    #[test]
    fn dual_primary_window_defect_ignores_beating_claim() {
        let defects = Defects { dual_primary_window: true, stale_promotion: false };
        // A beating peer claim arrives at a serving primary: the clean
        // table yields; the defect keeps serving and the dual-primary
        // window never closes.
        let v = view(1, 2, Role::Primary, 3, Some(Role::Primary));
        let ev = RoleEvent::PeerHeartbeat { role: Role::Primary, term: 4 };
        assert_eq!(
            role_transition(&v, &ev, &CLEAN),
            announce(Role::Backup, 4, Reason::DualPrimaryYield)
        );
        assert_eq!(role_transition(&v, &ev, &defects), RoleOutcome::Stay);
        // A losing claim is ignored either way.
        let losing = RoleEvent::PeerHeartbeat { role: Role::Primary, term: 2 };
        assert_eq!(role_transition(&v, &losing, &defects), RoleOutcome::Stay);
    }
}
