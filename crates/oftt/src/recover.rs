//! The component recovery rule as a pure state machine.
//!
//! What the engine does about a failed FTIM-linked component — restart it
//! in place, or hand the pair to the peer — is decided here and nowhere
//! else (DESIGN.md §5, "Component recovery"). [`ComponentWatch::step`] takes
//! one [`RecoverEvent`] and returns one [`RecoverAction`]; it reads no
//! clock, sends nothing and records nothing.
//!
//! Time stays in the shell. [`crate::engine::Engine`] keeps each
//! component's last heartbeat and last failure instants, turns them into
//! [`RecoverEvent::Overdue`] and its `run_over`, and applies the actions:
//! it restarts the component, requests a switchover, writes the trace
//! lines and bumps the probe.
//!
//! A failure detected within [`RUN_TIMEOUTS`] component timeouts of the
//! same component's previous failure belongs to that failure's run
//! ([`run_over`]). A [`RecoveryRule::LocalRestart`] restarts the first
//! `max_attempts` failures of a run in place; the next one escalates, and
//! an escalation starts a new run. A component that registers again keeps
//! its run, so a copy that dies on every restart does escalate.

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

use crate::config::RecoveryRule;

/// How many component timeouts may separate two failures of one run. A
/// copy that dies at once after each restart fails about one timeout
/// after the last; five also holds a copy that lives a few seconds, while
/// at the 1 s default a component that fails every ten seconds restarts in
/// place each time.
pub const RUN_TIMEOUTS: u64 = 5;

/// `true` if a failure detected `since` after the same component's
/// previous failure starts a new run: more than [`RUN_TIMEOUTS`] component
/// timeouts later.
pub fn run_over(since: SimDuration, component_timeout: SimDuration) -> bool {
    since > component_timeout.saturating_mul(RUN_TIMEOUTS)
}

/// One engine's watch over one component: its rule, the restarts in the
/// current run of failures, and whether a restarted copy has yet to be
/// heard from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentWatch {
    rule: RecoveryRule,
    restarts: u32,
    restarting: bool,
}

/// An input to the recovery rule. Timing facts arrive as booleans the
/// shell computed from its own clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverEvent {
    /// The component registered, under `rule`: a first registration, a
    /// restarted copy's, or a re-registration with a restarted engine.
    Registered {
        /// The rule it registered with.
        rule: RecoveryRule,
    },
    /// The component's heartbeat arrived.
    Beat,
    /// No heartbeat within the component timeout: a failure. `run_over`
    /// as [`run_over`] finds it; a first failure starts a new run whatever
    /// it says.
    Overdue {
        /// This failure starts a new run.
        run_over: bool,
    },
    /// The component set a new rule at run time.
    RuleSet {
        /// The new rule.
        rule: RecoveryRule,
    },
}

/// What the shell must do after a [`RecoverEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverAction {
    /// Nothing.
    Nothing,
    /// Restart the component in place; `attempt` counts the restarts in
    /// this run, from 1.
    Restart {
        /// The restart's number within the run.
        attempt: u32,
    },
    /// The failure is permanent: a primary requests a switchover, and the
    /// local copy restarts as standby software.
    Escalate,
}

impl ComponentWatch {
    /// The watch of a newly registered component: no failures yet.
    pub fn new(rule: RecoveryRule) -> Self {
        ComponentWatch { rule, restarts: 0, restarting: false }
    }

    /// The restarts in the current run; the shell shows 0 once the run is
    /// over.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// `false` from a restart until the restarted copy registers or beats.
    pub fn healthy(&self) -> bool {
        !self.restarting
    }

    /// Applies one event.
    pub fn step(&mut self, event: RecoverEvent) -> RecoverAction {
        match event {
            RecoverEvent::Registered { rule } => {
                self.rule = rule;
                self.restarting = false;
            }
            RecoverEvent::Beat => self.restarting = false,
            RecoverEvent::RuleSet { rule } => {
                self.rule = rule;
                self.restarts = 0;
            }
            RecoverEvent::Overdue { run_over } => {
                if run_over {
                    self.restarts = 0;
                }
                self.restarting = true;
                return match self.rule {
                    RecoveryRule::LocalRestart { max_attempts } if self.restarts < max_attempts => {
                        self.restarts += 1;
                        RecoverAction::Restart { attempt: self.restarts }
                    }
                    _ => {
                        self.restarts = 0;
                        RecoverAction::Escalate
                    }
                };
            }
        }
        RecoverAction::Nothing
    }
}

#[cfg(test)]
mod tests {
    //! The exhaustive table test: every state reachable from a fresh
    //! watch is driven through every event, and each (state, event) pair
    //! is checked against the rule; then the rows that name its cases.

    use std::collections::VecDeque;

    use super::*;

    const RULES: [RecoveryRule; 4] = [
        RecoveryRule::Switchover,
        RecoveryRule::LocalRestart { max_attempts: 0 },
        RecoveryRule::LocalRestart { max_attempts: 1 },
        RecoveryRule::LocalRestart { max_attempts: 2 },
    ];

    /// The restarts a run may hold under `rule` before it escalates.
    fn budget(rule: RecoveryRule) -> u32 {
        match rule {
            RecoveryRule::LocalRestart { max_attempts } => max_attempts,
            RecoveryRule::Switchover => 0,
        }
    }

    fn events() -> Vec<RecoverEvent> {
        let mut events = vec![
            RecoverEvent::Beat,
            RecoverEvent::Overdue { run_over: false },
            RecoverEvent::Overdue { run_over: true },
        ];
        for rule in RULES {
            events.push(RecoverEvent::Registered { rule });
            events.push(RecoverEvent::RuleSet { rule });
        }
        events
    }

    /// Checks one (state, event) pair; `after` is `before` stepped by
    /// `event`.
    fn check(
        before: ComponentWatch,
        event: RecoverEvent,
        after: ComponentWatch,
        action: RecoverAction,
    ) {
        let pair = format!("{before:?} --{event:?}--> {after:?}, {action:?}");
        if !matches!(event, RecoverEvent::Overdue { .. }) {
            assert_eq!(action, RecoverAction::Nothing, "only a failure acts: {pair}");
        }
        match event {
            RecoverEvent::Registered { rule } => {
                let kept = ComponentWatch { rule, restarting: false, ..before };
                assert_eq!(after, kept, "a registration keeps the run: {pair}");
            }
            RecoverEvent::Beat => {
                assert_eq!(after, ComponentWatch { restarting: false, ..before }, "{pair}");
            }
            RecoverEvent::RuleSet { rule } => {
                let fresh = ComponentWatch { rule, restarts: 0, ..before };
                assert_eq!(after, fresh, "a new rule starts a new run: {pair}");
            }
            RecoverEvent::Overdue { run_over } => {
                assert_eq!(after.rule, before.rule, "{pair}");
                assert!(after.restarting, "a failure restarts the copy either way: {pair}");
                let spent = if run_over { 0 } else { before.restarts };
                let expected = if spent < budget(before.rule) {
                    RecoverAction::Restart { attempt: spent + 1 }
                } else {
                    RecoverAction::Escalate
                };
                assert_eq!(action, expected, "{pair}");
                let restarts =
                    if let RecoverAction::Restart { attempt } = action { attempt } else { 0 };
                assert_eq!(after.restarts, restarts, "an escalation starts a new run: {pair}");
            }
        }
    }

    #[test]
    fn every_reachable_state_keeps_the_rule() {
        let events = events();
        let mut seen: Vec<ComponentWatch> = RULES.iter().map(|&r| ComponentWatch::new(r)).collect();
        let mut queue: VecDeque<ComponentWatch> = seen.iter().copied().collect();
        let mut pairs = 0;
        while let Some(before) = queue.pop_front() {
            for &event in &events {
                let mut after = before;
                let action = after.step(event);
                check(before, event, after, action);
                pairs += 1;
                if !seen.contains(&after) {
                    seen.push(after);
                    queue.push_back(after);
                }
            }
        }
        // Any rule with a run of up to two restarts (a re-registration
        // under a smaller budget keeps the run); a copy still restarting
        // only within its rule's budget.
        let mut expected = Vec::new();
        for rule in RULES {
            for restarts in 0..=2 {
                for restarting in [false, true] {
                    if !restarting || restarts <= budget(rule) {
                        expected.push(ComponentWatch { rule, restarts, restarting });
                    }
                }
            }
        }
        assert_eq!(seen.len(), expected.len(), "{seen:?}");
        assert!(expected.iter().all(|state| seen.contains(state)), "{seen:?}");
        assert_eq!(pairs, expected.len() * events.len());
    }

    const LOCAL_2: RecoveryRule = RecoveryRule::LocalRestart { max_attempts: 2 };
    const FAIL: RecoverEvent = RecoverEvent::Overdue { run_over: false };
    const FAIL_LATE: RecoverEvent = RecoverEvent::Overdue { run_over: true };
    const REGISTER: RecoverEvent = RecoverEvent::Registered { rule: LOCAL_2 };

    fn restart(attempt: u32) -> RecoverAction {
        RecoverAction::Restart { attempt }
    }

    /// Events, each with the action it must return.
    type Steps = Vec<(RecoverEvent, RecoverAction)>;

    /// Each row: what it pins, the starting rule, and its steps.
    #[test]
    fn rows() {
        use RecoverAction::{Escalate, Nothing};
        let rows: [(&str, RecoveryRule, Steps); 6] = [
            (
                "a restarted copy registers again and keeps its run, so a crash loop escalates",
                LOCAL_2,
                vec![
                    (FAIL_LATE, restart(1)),
                    (REGISTER, Nothing),
                    (FAIL, restart(2)),
                    (REGISTER, Nothing),
                    (FAIL, Escalate),
                ],
            ),
            (
                "an escalation starts a new run",
                LOCAL_2,
                vec![
                    (FAIL_LATE, restart(1)),
                    (FAIL, restart(2)),
                    (FAIL, Escalate),
                    (FAIL, restart(1)),
                ],
            ),
            (
                "a new rule starts a new run",
                LOCAL_2,
                vec![
                    (FAIL_LATE, restart(1)),
                    (FAIL, restart(2)),
                    (RecoverEvent::RuleSet { rule: LOCAL_2 }, Nothing),
                    (FAIL, restart(1)),
                ],
            ),
            (
                "a failure long after the last starts a new run at attempt 1",
                LOCAL_2,
                vec![(FAIL_LATE, restart(1)), (FAIL, restart(2)), (FAIL_LATE, restart(1))],
            ),
            (
                "a switchover rule escalates every failure, until a registration replaces it",
                RecoveryRule::Switchover,
                vec![
                    (FAIL_LATE, Escalate),
                    (FAIL, Escalate),
                    (REGISTER, Nothing),
                    (FAIL, restart(1)),
                ],
            ),
            (
                "no restart budget escalates the first failure",
                RecoveryRule::LocalRestart { max_attempts: 0 },
                vec![(FAIL_LATE, Escalate), (RecoverEvent::Beat, Nothing), (FAIL, Escalate)],
            ),
        ];
        for (what, rule, steps) in rows {
            let mut watch = ComponentWatch::new(rule);
            for (i, (event, expected)) in steps.into_iter().enumerate() {
                assert_eq!(watch.step(event), expected, "{what}: step {i}, {event:?}");
            }
        }
    }

    #[test]
    fn health_reads_false_from_a_restart_until_the_copy_is_heard() {
        for heard in [REGISTER, RecoverEvent::Beat] {
            let mut watch = ComponentWatch::new(LOCAL_2);
            assert!(watch.healthy());
            watch.step(FAIL_LATE);
            assert!(!watch.healthy());
            watch.step(RecoverEvent::RuleSet { rule: LOCAL_2 });
            assert!(!watch.healthy(), "a rule change hears nothing from the copy");
            watch.step(heard);
            assert!(watch.healthy(), "{heard:?}");
            assert_eq!(watch.restarts(), 0);
        }
    }

    /// The OPC server FTIM registers with an unbounded budget: escalating
    /// would take `u32::MAX + 1` failures in one run, each at least one
    /// component timeout after the last — over a century at the defaults.
    #[test]
    fn an_unbounded_budget_restarts_every_failure() {
        let mut watch = ComponentWatch::new(RecoveryRule::LocalRestart { max_attempts: u32::MAX });
        assert_eq!(watch.step(FAIL_LATE), restart(1));
        for attempt in 2..=10_000 {
            assert_eq!(watch.step(FAIL), restart(attempt));
            watch.step(RecoverEvent::Registered { rule: watch.rule });
        }
    }

    #[test]
    fn a_run_spans_five_timeouts() {
        let ms = SimDuration::from_millis;
        assert!(!run_over(ms(5_000), ms(1_000)));
        assert!(run_over(ms(5_001), ms(1_000)));
        assert!(run_over(ms(2_001), ms(400)));
    }
}
