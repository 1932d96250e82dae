//! Rendering abstract counterexamples as replayable oftt-check fault
//! scripts.
//!
//! An abstract counterexample is an action sequence; its fault-class
//! actions (crash, repair, partition, heal, distress, reset, refuse) are exactly
//! the vocabulary of [`oftt_check::scenario::FaultScript`]. Protocol-level
//! actions (ticks, deliveries, checkpoint shipments) need no rendering:
//! the concrete simulation performs them on its own schedule. So a
//! rendered script keeps the fault actions in order and assigns them
//! concrete times spaced widely enough for the pair to settle between
//! injections — the abstraction works with logical rounds, and "wide
//! apart" is the faithful concretization of "in separate rounds".
//!
//! `Hang`/`WatchdogFire` have no script op (the concrete FTIM deadman
//! drives itself) and are skipped; a counterexample that *needs* a hang
//! to reproduce concretely must be exercised through the simulator's
//! distress path instead, which the `Distress` rendering covers.
//!
//! Two timing exceptions land a few microseconds after the step before
//! them, not seconds:
//!
//! * a `Partition` immediately following a `Distress` — the abstract
//!   path is using the partition to destroy the in-flight switchover
//!   request, and only a near-instant partition does that concretely;
//! * every `Reset` — it is the transport's immediate report of the crash
//!   or cut that enabled it, and a reset seconds later would find the
//!   peer already promoted by its timeout;
//! * every `Refuse` — the survivor's redial, which the reset before it
//!   triggers at once.

use ds_sim::prelude::SimTime;
use oftt_check::scenario::{FaultScript, PairSlot, ScriptOp};

use crate::model::{Action, Slot};

/// Seconds before the first injected fault: long enough for startup
/// negotiation and the first checkpoint interval to complete.
const FIRST_FAULT_S: u64 = 10;
/// Seconds between consecutive injected faults: several peer timeouts,
/// so each fault's consequences settle before the next.
const FAULT_SPACING_S: u64 = 2;
/// The near-instant follow-up delay for a request-cutting partition, a
/// reset or a refusal.
const CUT_DELAY_US: u64 = 50;

fn pair_slot(s: Slot) -> PairSlot {
    match s {
        Slot::A => PairSlot::A,
        Slot::B => PairSlot::B,
    }
}

/// Renders an abstract action path as a concrete fault script.
pub fn render_script(path: &[Action]) -> FaultScript {
    let mut steps: Vec<(SimTime, ScriptOp)> = Vec::new();
    let mut at_us: u64 = FIRST_FAULT_S * 1_000_000;
    let mut prev_action: Option<Action> = None;
    for &action in path {
        let op = match action {
            Action::Crash(s) => Some(ScriptOp::Crash(pair_slot(s))),
            Action::Repair(s) => Some(ScriptOp::Repair(pair_slot(s))),
            Action::Partition => Some(ScriptOp::Partition),
            Action::Heal => Some(ScriptOp::Heal),
            Action::Distress(s) => Some(ScriptOp::Distress(pair_slot(s))),
            Action::Reset(s) => Some(ScriptOp::Reset(pair_slot(s))),
            Action::Refuse(s) => Some(ScriptOp::Refuse(pair_slot(s))),
            Action::Tick(_)
            | Action::Deliver(..)
            | Action::Ship(_)
            | Action::Advance(_)
            | Action::Hang(_)
            | Action::WatchdogFire(_) => None,
        };
        if let Some(op) = op {
            let prompt = matches!(op, ScriptOp::Reset(_) | ScriptOp::Refuse(_))
                || matches!(op, ScriptOp::Partition)
                    && matches!(prev_action, Some(Action::Distress(_)));
            if !steps.is_empty() {
                at_us += if prompt { CUT_DELAY_US } else { FAULT_SPACING_S * 1_000_000 };
            }
            steps.push((SimTime::from_micros(at_us), op));
        }
        prev_action = Some(action);
    }
    FaultScript { steps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_actions_render_in_order_with_settling_gaps() {
        let path = [
            Action::Tick(Slot::A),
            Action::Partition,
            Action::Tick(Slot::B),
            Action::Tick(Slot::B),
            Action::Heal,
            Action::Deliver(crate::model::Dir::BToA, 0),
        ];
        let script = render_script(&path);
        assert_eq!(
            script.steps,
            vec![
                (SimTime::from_secs(10), ScriptOp::Partition),
                (SimTime::from_secs(12), ScriptOp::Heal),
            ]
        );
        // The script round-trips through its text form.
        let reparsed = FaultScript::parse(&script.to_text()).unwrap();
        assert_eq!(reparsed, script);
    }

    #[test]
    fn a_request_cutting_partition_lands_microseconds_after_the_distress() {
        let path = [Action::Distress(Slot::A), Action::Partition, Action::Heal];
        let script = render_script(&path);
        assert_eq!(script.steps[0], (SimTime::from_secs(10), ScriptOp::Distress(PairSlot::A)));
        assert_eq!(script.steps[1].0, SimTime::from_micros(10_000_050));
        assert_eq!(script.steps[1].1, ScriptOp::Partition);
        assert_eq!(script.steps[2].0, SimTime::from_micros(12_000_050));
    }

    #[test]
    fn a_reset_and_a_refusal_render_as_their_script_ops_right_after_their_fault() {
        let path = [
            Action::Crash(Slot::A),
            Action::Tick(Slot::B),
            Action::Reset(Slot::A),
            Action::Refuse(Slot::A),
        ];
        let script = render_script(&path);
        assert_eq!(
            script.steps,
            vec![
                (SimTime::from_secs(10), ScriptOp::Crash(PairSlot::A)),
                (SimTime::from_micros(10_000_050), ScriptOp::Reset(PairSlot::A)),
                (SimTime::from_micros(10_000_100), ScriptOp::Refuse(PairSlot::A)),
            ]
        );
        assert!(script.to_text().ends_with("10000050 reset a\n10000100 refuse a\n"));
    }

    #[test]
    fn protocol_only_paths_render_empty() {
        let path = [Action::Tick(Slot::A), Action::Ship(Slot::A)];
        assert!(render_script(&path).steps.is_empty());
    }
}
