//! The peer-failure detection rule as a pure state machine.
//!
//! Whether a backup's peer is dead, and on what evidence, is decided here
//! and nowhere else (DESIGN.md §5, "Failure detection: suspicion, then
//! verdict"). [`PeerWatch::step`] takes one [`DetectEvent`] and returns one
//! [`DetectAction`]; it reads no clock, sends nothing and records nothing.
//!
//! Time stays in the shell. [`crate::engine::Engine`] keeps two silence
//! instants (the last primary heartbeat, the last word of any kind) and the
//! suspicion window's timer, turns them into the booleans the events carry,
//! and applies the actions: it restarts clocks, arms and cancels the timer,
//! writes the trace lines and bumps the probe. A verdict goes through the
//! unchanged [`crate::transition::role_transition`] as
//! `PrimarySilenceExpired { peer_silent }`. `oftt-verify`'s model runs the
//! same function over its tick counters.
//!
//! A suspicion belongs to a backup. A link reset opens one; word from the
//! peer or the link coming back up clears it; the window closing or a
//! refused redial confirms it; a move out of Backup overtakes it. Every
//! suspicion opened ends in exactly one of those four ways.

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

use ds_sim::prelude::SimDuration;

use crate::role::Role;

/// How long a suspicion waits for word from the peer: two heartbeat
/// periods, in which a live, connected primary is always heard, and never
/// longer than the timeout it shortcuts.
pub fn window(heartbeat: SimDuration, peer_timeout: SimDuration) -> SimDuration {
    heartbeat.saturating_mul(2).min(peer_timeout)
}

/// One engine's watch over its peer: its role, and whether it suspects
/// the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeerWatch {
    role: Role,
    suspecting: bool,
}

/// What confirmed the peer's death, or found its primary silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The suspicion window closed with no word from the peer.
    Window,
    /// A redial to the peer's address was refused while a suspicion was
    /// open.
    Refusal,
    /// No primary heartbeat within the peer timeout; `peer_silent` when
    /// no word of any kind arrived either.
    Timeout {
        /// Whether the peer has been completely silent.
        peer_silent: bool,
    },
}

impl Verdict {
    /// The `peer_silent` the transition table's `PrimarySilenceExpired`
    /// takes. A confirmed suspicion is a silent peer: the backup heard
    /// nothing since the reset.
    pub fn peer_silent(self) -> bool {
        match self {
            Verdict::Window | Verdict::Refusal => true,
            Verdict::Timeout { peer_silent } => peer_silent,
        }
    }
}

/// An input to the detection rule. Timing facts arrive as booleans the
/// shell computed from its own clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectEvent {
    /// The heartbeat tick: `primary_silent` when no primary heartbeat
    /// arrived within the peer timeout, `any_silent` when no word at all
    /// did.
    Tick {
        /// The primary-silence clock has run out.
        primary_silent: bool,
        /// The any-word clock has run out.
        any_silent: bool,
    },
    /// The suspicion window armed by [`DetectAction::Arm`] closed.
    WindowElapsed,
    /// A message arrived from the peer engine; `primary` when it is a
    /// heartbeat from a peer claiming Primary.
    Heard {
        /// The word is a primary's heartbeat.
        primary: bool,
    },
    /// This node's transport reports the link to the peer closed by the
    /// remote end (`TransportEvent::PeerDown`).
    LinkReset,
    /// This node's transport reports the link to the peer up
    /// (`TransportEvent::PeerConnected`).
    LinkUp,
    /// This node's redial to the peer was refused
    /// (`TransportEvent::PeerRefused`).
    RedialRefused,
    /// The engine announced `role` (possibly its current one, at a new
    /// term).
    RoleChanged(Role),
}

/// What the shell must do after a [`DetectEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectAction {
    /// Nothing: the rule ignores the event here.
    Nothing,
    /// Restart the silence clocks marked `true`.
    Restart {
        /// The primary-silence clock.
        primary: bool,
        /// The any-word clock.
        any: bool,
    },
    /// Restart the silence clocks marked `true`; the event also cleared
    /// the open suspicion, so cancel its window.
    Clear {
        /// The primary-silence clock.
        primary: bool,
        /// The any-word clock.
        any: bool,
    },
    /// A suspicion opened: arm its window.
    Arm,
    /// A verdict on the peer, for the transition table as
    /// `PrimarySilenceExpired { peer_silent: verdict.peer_silent() }`. A
    /// `Refusal` closed the suspicion before its window did, so cancel the
    /// window; a `Window` verdict is the window closing; a `Timeout` leaves
    /// any open suspicion to the role change it causes.
    Expired {
        /// What the verdict rests on.
        verdict: Verdict,
    },
    /// The role left Backup with a suspicion open: the timeout's promotion
    /// (or another role change) overtook it. Cancel its window.
    Overtaken,
}

impl PeerWatch {
    /// The watch of an engine in `role`, with a suspicion open or not. An
    /// engine starts negotiating with nothing suspected; `oftt-verify`'s
    /// model rebuilds the watch from its own encoding of the two facts.
    pub fn new(role: Role, suspecting: bool) -> Self {
        PeerWatch { role, suspecting }
    }

    /// `true` while a suspicion of the peer is open.
    pub fn suspecting(&self) -> bool {
        self.suspecting
    }

    /// Applies one event.
    pub fn step(&mut self, event: DetectEvent) -> DetectAction {
        let backup = self.role == Role::Backup;
        match event {
            // Only a backup promotes on silence, and only on the primary
            // clock; the any-word clock says whether the peer is dead.
            DetectEvent::Tick { primary_silent, any_silent } => {
                if backup && primary_silent {
                    let verdict = Verdict::Timeout { peer_silent: any_silent };
                    return DetectAction::Expired { verdict };
                }
            }
            DetectEvent::WindowElapsed => {
                if std::mem::take(&mut self.suspecting) {
                    return DetectAction::Expired { verdict: Verdict::Window };
                }
            }
            // Any word restarts the any-word clock and clears a suspicion;
            // a primary's heartbeat also restarts the primary clock.
            DetectEvent::Heard { primary } => {
                if std::mem::take(&mut self.suspecting) {
                    return DetectAction::Clear { primary, any: true };
                }
                return DetectAction::Restart { primary, any: true };
            }
            // A reset is suspicion, not failure: only a backup acts on it,
            // and an open suspicion keeps its window.
            DetectEvent::LinkReset => {
                if backup && !self.suspecting {
                    self.suspecting = true;
                    return DetectAction::Arm;
                }
            }
            DetectEvent::LinkUp => {
                if std::mem::take(&mut self.suspecting) {
                    return DetectAction::Clear { primary: false, any: false };
                }
            }
            // A refusal is the verdict on an open suspicion and nothing
            // else: refusals also happen while the peer starts up.
            DetectEvent::RedialRefused => {
                if std::mem::take(&mut self.suspecting) {
                    return DetectAction::Expired { verdict: Verdict::Refusal };
                }
            }
            // Entering Backup restarts the primary clock, so a demoted
            // primary gives the new one a full timeout to be heard. A
            // suspicion belongs to the backup that raised it.
            DetectEvent::RoleChanged(role) => {
                self.role = role;
                if role == Role::Backup {
                    return DetectAction::Restart { primary: true, any: false };
                }
                if std::mem::take(&mut self.suspecting) {
                    return DetectAction::Overtaken;
                }
            }
        }
        DetectAction::Nothing
    }
}

#[cfg(test)]
mod tests {
    //! The exhaustive table test: every state reachable from a starting
    //! engine is driven through every event, and each (state, event) pair
    //! is checked against the rule's properties.

    use std::collections::{HashSet, VecDeque};

    use ds_net::endpoint::NodeId;

    use super::*;
    use crate::transition::{role_transition, Defects, RoleEvent, RoleOutcome, RoleView};

    const ROLES: [Role; 3] = [Role::Negotiating, Role::Primary, Role::Backup];

    fn events() -> Vec<DetectEvent> {
        let mut events = vec![
            DetectEvent::WindowElapsed,
            DetectEvent::LinkReset,
            DetectEvent::LinkUp,
            DetectEvent::RedialRefused,
        ];
        for primary_silent in [false, true] {
            for any_silent in [false, true] {
                events.push(DetectEvent::Tick { primary_silent, any_silent });
            }
        }
        for primary in [false, true] {
            events.push(DetectEvent::Heard { primary });
        }
        for role in ROLES {
            events.push(DetectEvent::RoleChanged(role));
        }
        events
    }

    /// Checks one (state, event) pair; `after` is `before` stepped by
    /// `event`.
    fn check(before: PeerWatch, event: DetectEvent, after: PeerWatch, action: DetectAction) {
        let pair = format!("{before:?} --{event:?}--> {after:?}, {action:?}");
        assert!(!after.suspecting || after.role == Role::Backup, "only a backup suspects: {pair}");
        let opened = after.suspecting && !before.suspecting;
        let closed = before.suspecting && !after.suspecting;
        assert_eq!(opened, action == DetectAction::Arm, "{pair}");
        // Every suspicion ends once, and says how.
        let ends = matches!(
            action,
            DetectAction::Clear { .. }
                | DetectAction::Overtaken
                | DetectAction::Expired { verdict: Verdict::Window | Verdict::Refusal }
        );
        assert_eq!(closed, ends, "{pair}");
        if let DetectAction::Expired { verdict } = action {
            assert_eq!(before.role, Role::Backup, "a verdict outside Backup: {pair}");
            if !matches!(verdict, Verdict::Timeout { .. }) {
                assert!(before.suspecting, "a confirmation with no suspicion open: {pair}");
            }
        }
        if !matches!(event, DetectEvent::RoleChanged(_)) {
            assert_eq!(after.role, before.role, "{pair}");
        }
        match event {
            DetectEvent::Tick { primary_silent, any_silent } => {
                assert_eq!(after, before, "{pair}");
                let expected = if before.role == Role::Backup && primary_silent {
                    let verdict = Verdict::Timeout { peer_silent: any_silent };
                    DetectAction::Expired { verdict }
                } else {
                    DetectAction::Nothing
                };
                assert_eq!(action, expected, "{pair}");
            }
            DetectEvent::WindowElapsed => {
                let expected = if before.suspecting {
                    DetectAction::Expired { verdict: Verdict::Window }
                } else {
                    DetectAction::Nothing
                };
                assert_eq!(action, expected, "{pair}");
            }
            DetectEvent::Heard { primary } => {
                assert!(!after.suspecting, "word from the peer clears a suspicion: {pair}");
                let expected = if before.suspecting {
                    DetectAction::Clear { primary, any: true }
                } else {
                    DetectAction::Restart { primary, any: true }
                };
                assert_eq!(action, expected, "{pair}");
            }
            DetectEvent::LinkReset => {
                if before.suspecting || before.role != Role::Backup {
                    assert_eq!(after, before, "an open window is not re-armed: {pair}");
                    assert_eq!(action, DetectAction::Nothing, "{pair}");
                } else {
                    assert!(after.suspecting, "{pair}");
                }
            }
            DetectEvent::LinkUp => {
                assert!(!after.suspecting, "{pair}");
                if !before.suspecting {
                    assert_eq!(action, DetectAction::Nothing, "{pair}");
                }
            }
            DetectEvent::RedialRefused => {
                let expected = if before.suspecting {
                    DetectAction::Expired { verdict: Verdict::Refusal }
                } else {
                    DetectAction::Nothing
                };
                assert_eq!(action, expected, "a refusal only confirms: {pair}");
                assert!(!after.suspecting, "{pair}");
            }
            DetectEvent::RoleChanged(role) => {
                assert_eq!(after.role, role, "{pair}");
                let expected = if role == Role::Backup {
                    assert_eq!(after.suspecting, before.suspecting, "{pair}");
                    DetectAction::Restart { primary: true, any: false }
                } else if before.suspecting {
                    DetectAction::Overtaken
                } else {
                    DetectAction::Nothing
                };
                assert_eq!(action, expected, "{pair}");
            }
        }
    }

    #[test]
    fn every_reachable_state_keeps_the_rule() {
        let events = events();
        let start = PeerWatch::new(Role::Negotiating, false);
        let mut seen = HashSet::from([start]);
        let mut queue = VecDeque::from([start]);
        let mut pairs = 0;
        while let Some(before) = queue.pop_front() {
            for &event in &events {
                let mut after = before;
                let action = after.step(event);
                check(before, event, after, action);
                pairs += 1;
                if seen.insert(after) {
                    queue.push_back(after);
                }
            }
        }
        // Every role, and a backup with and without a suspicion open.
        let mut expected: HashSet<PeerWatch> =
            ROLES.iter().map(|&role| PeerWatch::new(role, false)).collect();
        expected.insert(PeerWatch::new(Role::Backup, true));
        assert_eq!(seen, expected);
        assert_eq!(pairs, expected.len() * events.len());
    }

    /// The model folds the window's expiry into its tick and feeds
    /// `WindowElapsed` before `Tick`. That applies one verdict per tick only
    /// because `peer_silent: true` promotes every backup, so the `Tick` that
    /// follows finds a primary and is ignored.
    #[test]
    fn a_window_verdict_leaves_no_second_verdict_on_the_same_tick() {
        let (a, b) = (NodeId(0), NodeId(1));
        for (me, peer) in [(a, b), (b, a)] {
            for peer_role in
                [None, Some(Role::Negotiating), Some(Role::Primary), Some(Role::Backup)]
            {
                let view = RoleView { me, peer, role: Role::Backup, term: 3, peer_role };
                let mut watch = PeerWatch::new(Role::Backup, true);
                let DetectAction::Expired { verdict } = watch.step(DetectEvent::WindowElapsed)
                else {
                    panic!("an open window confirms");
                };
                let event = RoleEvent::PrimarySilenceExpired { peer_silent: verdict.peer_silent() };
                let RoleOutcome::Announce { role, .. } =
                    role_transition(&view, &event, &Defects::default())
                else {
                    panic!("a confirmed suspicion promotes: {view:?}");
                };
                assert_eq!(role, Role::Primary);
                watch.step(DetectEvent::RoleChanged(role));
                for primary_silent in [false, true] {
                    for any_silent in [false, true] {
                        let tick = DetectEvent::Tick { primary_silent, any_silent };
                        assert_eq!(watch.step(tick), DetectAction::Nothing);
                    }
                }
            }
        }
    }

    #[test]
    fn a_timeout_that_overtakes_a_suspicion_names_it() {
        let mut watch = PeerWatch::new(Role::Negotiating, false);
        watch.step(DetectEvent::RoleChanged(Role::Backup));
        assert_eq!(watch.step(DetectEvent::LinkReset), DetectAction::Arm);
        let tick = DetectEvent::Tick { primary_silent: true, any_silent: false };
        let verdict = Verdict::Timeout { peer_silent: false };
        assert_eq!(watch.step(tick), DetectAction::Expired { verdict });
        assert!(watch.suspecting(), "the timeout alone closes nothing");
        assert_eq!(watch.step(DetectEvent::RoleChanged(Role::Primary)), DetectAction::Overtaken);
        assert!(!watch.suspecting());
        assert_eq!(watch.step(DetectEvent::WindowElapsed), DetectAction::Nothing);
    }

    #[test]
    fn the_window_is_two_beats_and_never_past_the_timeout() {
        let ms = SimDuration::from_millis;
        assert_eq!(window(ms(250), ms(1_000)), ms(500));
        assert_eq!(window(ms(250), ms(400)), ms(400));
    }
}
