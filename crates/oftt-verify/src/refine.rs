//! Refinement: concrete oftt-check executions conform to the abstract
//! model.
//!
//! The exhaustive checker proves properties of the *abstract* pair; the
//! proof only transfers to the concrete system if every concrete
//! behavior is (an implementation of) an abstract one. We check the
//! observable half of that claim as **trace inclusion**: project a
//! concrete run's trace onto the abstract observable vocabulary — role
//! announcements, the one externally meaningful thing an engine does —
//! and verify the abstract transition graph can reproduce the projected
//! sequence.
//!
//! The check is a standard subset simulation: maintain the set of
//! abstract states consistent with the observations so far (closed
//! under unobservable transitions), and advance the whole set on each
//! observation. An empty set means the concrete system did something
//! the model cannot — either a model bug or an implementation bug, and
//! in both cases exactly what this check exists to catch.

use std::collections::{BTreeSet, HashSet, VecDeque};

use oftt::role::Role;
use oftt_check::export::TraceExport;
use oftt_check::parse::{node_of, EventKind};

use crate::explore::Explored;
use crate::model::{Bounds, Obs, Slot};

/// Projects a concrete trace export onto the abstract observable
/// alphabet: engine role announcements, in trace order.
///
/// Fails when the export lies outside the model — recorded with the
/// startup-window bug injected (a defect the abstract model does not
/// carry), or reaching terms above the exploration bound.
pub fn project(export: &TraceExport, bounds: &Bounds) -> Result<Vec<Obs>, String> {
    if export.inject_startup_bug {
        return Err("trace was recorded with the startup-window bug injected; \
             the abstract model does not include that defect"
            .into());
    }
    let events = export.events();

    // Identify the pair: engine endpoints are `node<N>/oftt-engine`;
    // the lower node id is `pair.a`, which the model calls slot A.
    let mut ids: BTreeSet<u32> = BTreeSet::new();
    for ev in &events {
        let ep = match &ev.kind {
            EventKind::RoleUpdate { ep, .. } | EventKind::EngineStart { ep } => ep,
            _ => continue,
        };
        if !ep.contains("oftt-engine") {
            continue;
        }
        let node = node_of(ep);
        let n: u32 = node
            .strip_prefix("node")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("unrecognized engine node name {node:?}"))?;
        ids.insert(n);
    }
    if ids.len() > 2 {
        return Err(format!("trace involves {} engine nodes; the model is a pair", ids.len()));
    }
    let slot_of = |node: &str| -> Option<Slot> {
        let n: u32 = node.strip_prefix("node")?.parse().ok()?;
        let mut iter = ids.iter();
        if Some(&n) == iter.next() {
            Some(Slot::A)
        } else {
            Some(Slot::B)
        }
    };

    let mut obs = Vec::new();
    for ev in &events {
        let EventKind::RoleUpdate { ep, role, term } = &ev.kind else { continue };
        if !ep.contains("oftt-engine") || *role == Role::Negotiating {
            continue;
        }
        if *term > u64::from(bounds.term_max) {
            return Err(format!(
                "trace reaches term {term}, beyond the exploration bound \
                 {}; re-run with a larger --term-max",
                bounds.term_max
            ));
        }
        let slot =
            slot_of(node_of(ep)).ok_or_else(|| format!("unrecognized engine endpoint {ep:?}"))?;
        obs.push(Obs { slot, role: *role, term: *term as u8 });
    }
    Ok(obs)
}

/// Closes a state set under unobservable (no-announcement) transitions.
fn silent_closure(ex: &Explored, seed: impl IntoIterator<Item = u32>) -> HashSet<u32> {
    let mut closed: HashSet<u32> = HashSet::new();
    let mut queue: VecDeque<u32> = VecDeque::new();
    for s in seed {
        if closed.insert(s) {
            queue.push_back(s);
        }
    }
    while let Some(at) = queue.pop_front() {
        for e in &ex.edges[at as usize] {
            if e.obs.is_none() && closed.insert(e.target) {
                queue.push_back(e.target);
            }
        }
    }
    closed
}

/// Checks that the abstract transition graph can produce the projected
/// observation sequence (subset simulation from the initial state).
pub fn check_inclusion(ex: &Explored, obs: &[Obs]) -> Result<(), String> {
    let mut frontier = silent_closure(ex, [0u32]);
    for (i, o) in obs.iter().enumerate() {
        let matched: Vec<u32> = frontier
            .iter()
            .flat_map(|&s| ex.edges[s as usize].iter())
            .filter(|e| e.obs == Some(*o))
            .map(|e| e.target)
            .collect();
        if matched.is_empty() {
            let prefix: Vec<String> = obs[..i].iter().map(|o| o.to_string()).collect();
            return Err(format!(
                "observation {i} ({o}) is not producible by the abstract model \
                 (accepted prefix: [{}]; {} candidate states)",
                prefix.join(", "),
                frontier.len(),
            ));
        }
        frontier = silent_closure(ex, matched);
    }
    Ok(())
}

/// Projects an export and checks inclusion; returns the number of
/// observations verified.
pub fn refine_export(
    ex: &Explored,
    export: &TraceExport,
    bounds: &Bounds,
) -> Result<usize, String> {
    let obs = project(export, bounds)?;
    check_inclusion(ex, &obs)?;
    Ok(obs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::model::{AbsState, Budgets};
    use oftt::transition::Defects;

    const CLEAN: Defects = Defects { dual_primary_window: false, stale_promotion: false };

    fn explored() -> Explored {
        let budgets =
            Budgets { crashes: 1, partitions: 0, distress: 0, advances: 0, hangs: 0, resets: 0 };
        explore(AbsState::initial(budgets), &Bounds::default(), &CLEAN, 2_000_000)
    }

    #[test]
    fn the_crash_failover_observation_sequence_is_included() {
        let ex = explored();
        // Election, primary crash, silence takeover, rejoin as backup —
        // the concrete pair-failover scenario's announcement shape.
        let seq = [
            Obs { slot: Slot::B, role: Role::Backup, term: 1 },
            Obs { slot: Slot::A, role: Role::Primary, term: 1 },
            Obs { slot: Slot::B, role: Role::Primary, term: 2 },
            Obs { slot: Slot::A, role: Role::Backup, term: 2 },
        ];
        check_inclusion(&ex, &seq).expect("failover trace must refine");
    }

    #[test]
    fn an_impossible_announcement_is_rejected_with_context() {
        let ex = explored();
        // The favored node cannot lose the very first election.
        let seq = [Obs { slot: Slot::B, role: Role::Primary, term: 1 }];
        let err = check_inclusion(&ex, &seq).unwrap_err();
        assert!(err.contains("observation 0"), "{err}");
    }

    #[test]
    fn term_regressions_are_rejected() {
        let ex = explored();
        let seq = [
            Obs { slot: Slot::A, role: Role::Primary, term: 1 },
            Obs { slot: Slot::B, role: Role::Primary, term: 2 },
            // A term-1 re-announcement after term 2 existed.
            Obs { slot: Slot::B, role: Role::Primary, term: 1 },
        ];
        assert!(check_inclusion(&ex, &seq).is_err());
    }
}
