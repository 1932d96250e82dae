//! The OFTT failover protocol invariant catalog.
//!
//! Each invariant is a pure function over the parsed event stream of one
//! run. A run is *clean* when every invariant returns no violations.
//!
//! | name | property |
//! |------|----------|
//! | `single-primary-per-term`   | at most one engine ever claims primary in a given term |
//! | `term-monotonic`            | an engine's announced terms never decrease within an incarnation |
//! | `no-dual-primary-after-heal`| once the last partition heals, steady state has at most one live primary |
//! | `ckpt-monotone`             | installed checkpoint positions strictly increase; a takeover never restores a position older than the last install |
//! | `ckpt-restore-integrity`    | a backup's merged image matches the primary's shipped image at the same position, and every takeover restores an image whose checksum matches what was last installed, shipped, or served at that position |
//! | `switchover-has-cause`      | every switchover request is preceded by a detection or distress call on the same engine |
//! | `diverter-targets-primary`  | every diverted message goes to the node the diverter last announced as primary |
//! | `ckpt-causality`            | every install happens-after the shipping of that position, every ack happens-after the install, and no serve hands out a position older than an ack it happens-after (vector clocks; vacuous on untraced runs) |
//! | `converged-single-primary`  | when the network is whole at the end of the run, at most one live engine is primary (vacuous while partitioned) |
//! | `api-lifecycle`             | no FTIM reported its application misusing the toolkit API (an unknown watchdog, a save while backup, a deactivation holding live watchdogs) |

use std::collections::{BTreeMap, HashMap, HashSet};

use ds_sim::prelude::{SimTime, VectorClock};
use oftt::role::Role;

use crate::parse::{node_of, Event, EventKind};

/// One invariant breach, tied to the point in the run where it became
/// observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name (kebab-case, usable as a filter key).
    pub invariant: &'static str,
    /// When the breach became observable.
    pub at: SimTime,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} at {}", self.invariant, self.detail, self.at)
    }
}

/// Runs the full catalog; returns every violation found, in trace order
/// per invariant.
pub fn check_all(events: &[Event]) -> Vec<Violation> {
    let mut out = Vec::new();
    out.extend(single_primary_per_term(events));
    out.extend(term_monotonic(events));
    out.extend(no_dual_primary_after_heal(events));
    out.extend(ckpt_monotone(events));
    out.extend(ckpt_restore_integrity(events));
    out.extend(switchover_has_cause(events));
    out.extend(diverter_targets_primary(events));
    out.extend(ckpt_causality(events));
    out.extend(converged_single_primary(events));
    out.extend(api_lifecycle(events));
    out
}

/// At most one engine ever records `role=primary` for a given term ≥ 1.
/// Two claimants in one term is the paper's §3.2 both-nodes-primary hazard.
pub fn single_primary_per_term(events: &[Event]) -> Vec<Violation> {
    let mut claimants: BTreeMap<u64, HashSet<&str>> = BTreeMap::new();
    let mut reported: HashSet<u64> = HashSet::new();
    let mut out = Vec::new();
    for ev in events {
        let EventKind::RoleUpdate { ep, role: Role::Primary, term } = &ev.kind else { continue };
        if *term == 0 {
            continue;
        }
        let set = claimants.entry(*term).or_default();
        set.insert(ep.as_str());
        if set.len() > 1 && reported.insert(*term) {
            let mut eps: Vec<&str> = set.iter().copied().collect();
            eps.sort_unstable();
            out.push(Violation {
                invariant: "single-primary-per-term",
                at: ev.at,
                detail: format!("term {term} claimed primary by {}", eps.join(" and ")),
            });
        }
    }
    out
}

/// Within one engine incarnation, announced terms never decrease.
pub fn term_monotonic(events: &[Event]) -> Vec<Violation> {
    let mut last: HashMap<&str, u64> = HashMap::new();
    let mut out = Vec::new();
    for ev in events {
        match &ev.kind {
            EventKind::EngineStart { ep } => {
                last.remove(ep.as_str());
            }
            EventKind::RoleUpdate { ep, term, .. } => {
                if let Some(prev) = last.get(ep.as_str()) {
                    if *term < *prev {
                        out.push(Violation {
                            invariant: "term-monotonic",
                            at: ev.at,
                            detail: format!("{ep} went back from term {prev} to {term}"),
                        });
                    }
                }
                last.insert(ep.as_str(), *term);
            }
            _ => {}
        }
    }
    out
}

/// After the *last* heal (with no partition after it), the final state has
/// at most one live primary engine. Only meaningful for runs that
/// partitioned and healed; others pass vacuously.
pub fn no_dual_primary_after_heal(events: &[Event]) -> Vec<Violation> {
    let mut heals = 0usize;
    let mut partition_after_heal = false;
    for ev in events {
        match ev.kind {
            EventKind::Heal => {
                heals += 1;
                partition_after_heal = false;
            }
            EventKind::Partition if heals > 0 => {
                partition_after_heal = true;
            }
            _ => {}
        }
    }
    if heals == 0 || partition_after_heal {
        return Vec::new();
    }
    // Final liveness and final role per engine endpoint.
    let mut node_up: HashMap<&str, bool> = HashMap::new();
    let mut svc_up: HashMap<&str, bool> = HashMap::new();
    let mut final_role: HashMap<&str, (Role, u64)> = HashMap::new();
    let mut last_at = SimTime::ZERO;
    for ev in events {
        last_at = ev.at;
        match &ev.kind {
            EventKind::NodeUp { node } => {
                node_up.insert(node.as_str(), true);
            }
            EventKind::NodeDown { node } => {
                node_up.insert(node.as_str(), false);
                svc_up.retain(|ep, _| node_of(ep) != node.as_str());
            }
            EventKind::ServiceStart { ep } => {
                svc_up.insert(ep.as_str(), true);
            }
            EventKind::ServiceKill { ep } => {
                svc_up.insert(ep.as_str(), false);
            }
            EventKind::RoleUpdate { ep, role, term } => {
                final_role.insert(ep.as_str(), (*role, *term));
            }
            _ => {}
        }
    }
    let mut primaries: Vec<String> = final_role
        .iter()
        .filter(|(ep, (role, _))| {
            *role == Role::Primary
                && node_up.get(node_of(ep)).copied().unwrap_or(false)
                && svc_up.get(*ep).copied().unwrap_or(false)
        })
        .map(|(ep, (_, term))| format!("{ep} (term {term})"))
        .collect();
    if primaries.len() <= 1 {
        return Vec::new();
    }
    primaries.sort_unstable();
    vec![Violation {
        invariant: "no-dual-primary-after-heal",
        at: last_at,
        detail: format!(
            "steady state after heal has {} primaries: {}",
            primaries.len(),
            primaries.join(", ")
        ),
    }]
}

/// When the network is whole at the end of the run, at most one live
/// engine holds primary. Unlike `no-dual-primary-after-heal` this applies
/// to every run that ends un-partitioned — including runs that never
/// partitioned at all — so it catches dual primaries that arise from
/// yield failures rather than splits. Runs that end while partitioned
/// pass vacuously: two primaries across a split are unavoidable.
pub fn converged_single_primary(events: &[Event]) -> Vec<Violation> {
    let mut partitioned = false;
    let mut node_up: HashMap<&str, bool> = HashMap::new();
    let mut svc_up: HashMap<&str, bool> = HashMap::new();
    let mut final_role: HashMap<&str, (Role, u64)> = HashMap::new();
    let mut last_at = SimTime::ZERO;
    for ev in events {
        last_at = ev.at;
        match &ev.kind {
            EventKind::Partition => partitioned = true,
            EventKind::Heal => partitioned = false,
            EventKind::NodeUp { node } => {
                node_up.insert(node.as_str(), true);
            }
            EventKind::NodeDown { node } => {
                node_up.insert(node.as_str(), false);
                svc_up.retain(|ep, _| node_of(ep) != node.as_str());
            }
            EventKind::ServiceStart { ep } => {
                svc_up.insert(ep.as_str(), true);
            }
            EventKind::ServiceKill { ep } => {
                svc_up.insert(ep.as_str(), false);
            }
            EventKind::RoleUpdate { ep, role, term } => {
                final_role.insert(ep.as_str(), (*role, *term));
            }
            _ => {}
        }
    }
    if partitioned {
        return Vec::new();
    }
    let mut primaries: Vec<String> = final_role
        .iter()
        .filter(|(ep, (role, _))| {
            *role == Role::Primary
                && node_up.get(node_of(ep)).copied().unwrap_or(false)
                && svc_up.get(*ep).copied().unwrap_or(false)
        })
        .map(|(ep, (_, term))| format!("{ep} (term {term})"))
        .collect();
    if primaries.len() <= 1 {
        return Vec::new();
    }
    primaries.sort_unstable();
    vec![Violation {
        invariant: "converged-single-primary",
        at: last_at,
        detail: format!(
            "run ends un-partitioned with {} live primaries: {}",
            primaries.len(),
            primaries.join(", ")
        ),
    }]
}

/// Installed checkpoint positions strictly increase per endpoint
/// incarnation, and a restore at takeover never rolls back behind the last
/// installed position.
pub fn ckpt_monotone(events: &[Event]) -> Vec<Violation> {
    let mut installed: HashMap<&str, (u64, u64)> = HashMap::new();
    let mut out = Vec::new();
    for ev in events {
        match &ev.kind {
            // A fresh incarnation starts a fresh store.
            EventKind::ServiceStart { ep } => {
                installed.remove(ep.as_str());
            }
            EventKind::NodeDown { node } => {
                installed.retain(|ep, _| node_of(ep) != node.as_str());
            }
            EventKind::CkptInstalled { ep, term, seq, .. } => {
                let pos = (*term, *seq);
                if let Some(prev) = installed.get(ep.as_str()) {
                    if pos <= *prev {
                        out.push(Violation {
                            invariant: "ckpt-monotone",
                            at: ev.at,
                            detail: format!(
                                "{ep} installed ({term},{seq}) after ({},{})",
                                prev.0, prev.1
                            ),
                        });
                    }
                }
                installed.insert(ep.as_str(), pos);
            }
            EventKind::CkptRestore { ep, term, seq, .. } => {
                if let Some(prev) = installed.get(ep.as_str()) {
                    if (*term, *seq) < *prev {
                        out.push(Violation {
                            invariant: "ckpt-monotone",
                            at: ev.at,
                            detail: format!(
                                "{ep} restored ({term},{seq}) older than installed ({},{})",
                                prev.0, prev.1
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// The checkpoint data path preserves state content, not just positions.
///
/// Trace lines carry the checksum of the cumulative designated image:
/// `shipped` is the primary's image at a position, `installed` is the
/// backup store's merged image after accepting that checkpoint, `served`
/// is an image handed to a restarting peer, and `restore position` is the
/// image a takeover actually rehydrated from. Two checks follow:
///
/// 1. an `installed` checksum must equal the `shipped` checksum at the
///    same `(term, seq)` — the backup's merge (including the coalesced
///    dirty-delta path) reconstructed the primary's image exactly;
/// 2. a `restore` checksum must equal the endpoint's last `installed`
///    checksum, or the `shipped`/`served` checksum recorded at the
///    restore position — takeover never proceeds from an image nobody
///    acked shipping.
///
/// Positions with no shipped/served record (e.g. the shipping line was
/// truncated by a crash mid-send) are skipped rather than guessed at.
pub fn ckpt_restore_integrity(events: &[Event]) -> Vec<Violation> {
    // Last-wins maps: a position can legitimately be re-shipped after a
    // NACK-triggered full resend; the latest content is authoritative.
    let mut shipped: HashMap<(u64, u64), u32> = HashMap::new();
    let mut served: HashMap<(u64, u64), u32> = HashMap::new();
    let mut installed: HashMap<&str, ((u64, u64), u32)> = HashMap::new();
    let mut out = Vec::new();
    for ev in events {
        match &ev.kind {
            EventKind::ServiceStart { ep } => {
                installed.remove(ep.as_str());
            }
            EventKind::NodeDown { node } => {
                installed.retain(|ep, _| node_of(ep) != node.as_str());
            }
            EventKind::CkptShipped { term, seq, crc, .. } => {
                shipped.insert((*term, *seq), *crc);
            }
            EventKind::CkptServed { term, seq, crc, .. } => {
                served.insert((*term, *seq), *crc);
            }
            EventKind::CkptInstalled { ep, term, seq, crc } => {
                let pos = (*term, *seq);
                if let Some(sent) = shipped.get(&pos) {
                    if sent != crc {
                        out.push(Violation {
                            invariant: "ckpt-restore-integrity",
                            at: ev.at,
                            detail: format!(
                                "{ep} installed ({term},{seq}) with crc {crc} but the \
                                 primary shipped crc {sent} at that position"
                            ),
                        });
                    }
                }
                installed.insert(ep.as_str(), (pos, *crc));
            }
            EventKind::CkptRestore { ep, term, seq, crc } => {
                let pos = (*term, *seq);
                let last = installed.get(ep.as_str());
                let mut acked: Vec<u32> = Vec::new();
                if let Some((_, c)) = last {
                    acked.push(*c);
                }
                acked.extend(shipped.get(&pos));
                acked.extend(served.get(&pos));
                if !acked.is_empty() && !acked.contains(crc) {
                    out.push(Violation {
                        invariant: "ckpt-restore-integrity",
                        at: ev.at,
                        detail: format!(
                            "{ep} restored ({term},{seq}) with crc {crc}, matching no \
                             installed/shipped/served image at that position ({acked:?})"
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Every switchover request on an engine is preceded — within the same
/// incarnation — by a failure detection or a distress call on that engine.
pub fn switchover_has_cause(events: &[Event]) -> Vec<Violation> {
    let mut cause_seen: HashMap<&str, bool> = HashMap::new();
    let mut out = Vec::new();
    for ev in events {
        match &ev.kind {
            EventKind::EngineStart { ep } => {
                cause_seen.insert(ep.as_str(), false);
            }
            EventKind::DetectedFailure { ep } | EventKind::Distress { ep } => {
                cause_seen.insert(ep.as_str(), true);
            }
            EventKind::SwitchoverRequest { ep }
                if !cause_seen.get(ep.as_str()).copied().unwrap_or(false) =>
            {
                out.push(Violation {
                    invariant: "switchover-has-cause",
                    at: ev.at,
                    detail: format!("{ep} requested switchover with no preceding detection"),
                });
            }
            _ => {}
        }
    }
    out
}

/// Every diverted message is enqueued toward the node the diverter most
/// recently announced as primary — a message sent anywhere else is a
/// cancelled/diverted delivery leaking through.
pub fn diverter_targets_primary(events: &[Event]) -> Vec<Violation> {
    let mut believed: HashMap<&str, &str> = HashMap::new();
    let mut out = Vec::new();
    for ev in events {
        match &ev.kind {
            EventKind::DiverterPrimary { ep, node } => {
                believed.insert(ep.as_str(), node.as_str());
            }
            EventKind::DiverterEnqueue { ep, node } => match believed.get(ep.as_str()) {
                Some(target) if *target == node.as_str() => {}
                Some(target) => out.push(Violation {
                    invariant: "diverter-targets-primary",
                    at: ev.at,
                    detail: format!("{ep} enqueued to {node} while believing primary is {target}"),
                }),
                None => out.push(Violation {
                    invariant: "diverter-targets-primary",
                    at: ev.at,
                    detail: format!("{ep} enqueued to {node} before discovering any primary"),
                }),
            },
            _ => {}
        }
    }
    out
}

/// The checkpoint data path respects causality, not just positions and
/// content: an `installed (term, seq)` must be happens-after the latest
/// `shipped (term, seq)` (the install's vector clock dominates the ship's),
/// and a `ckpt acked` at a position must be happens-after that install.
/// A violation means the trace claims knowledge of state that could not
/// yet have causally reached the claimant. The converse is a stale serve:
/// a `ckpt served` at a position older than an ack the server happens-after
/// hands a restarting peer state behind what the protocol already confirmed
/// as replicated. Runs recorded without vector clocks pass vacuously.
pub fn ckpt_causality(events: &[Event]) -> Vec<Violation> {
    // Last-wins, like `ckpt_restore_integrity`: a NACK-triggered re-ship of
    // a position makes the newest shipping authoritative.
    let mut shipped: HashMap<(u64, u64), &VectorClock> = HashMap::new();
    let mut installed: HashMap<(u64, u64), &VectorClock> = HashMap::new();
    let mut acks: Vec<((u64, u64), &VectorClock)> = Vec::new();
    let mut out = Vec::new();
    for ev in events {
        let Some(clock) = &ev.clock else { continue };
        match &ev.kind {
            EventKind::CkptShipped { term, seq, .. } => {
                shipped.insert((*term, *seq), clock);
            }
            EventKind::CkptInstalled { ep, term, seq, .. } => {
                if let Some(ship) = shipped.get(&(*term, *seq)) {
                    if !ship.le(clock) {
                        out.push(Violation {
                            invariant: "ckpt-causality",
                            at: ev.at,
                            detail: format!(
                                "{ep} installed ({term},{seq}) without happening after its \
                                 shipping (ship clock {ship}, install clock {clock})"
                            ),
                        });
                    }
                }
                installed.insert((*term, *seq), clock);
            }
            EventKind::CkptAcked { ep, term, seq } => {
                if let Some(install) = installed.get(&(*term, *seq)) {
                    if !install.le(clock) {
                        out.push(Violation {
                            invariant: "ckpt-causality",
                            at: ev.at,
                            detail: format!(
                                "{ep} saw ack for ({term},{seq}) without happening after the \
                                 install (install clock {install}, ack clock {clock})"
                            ),
                        });
                    }
                }
                acks.push(((*term, *seq), clock));
            }
            EventKind::CkptServed { ep, term, seq, .. } => {
                let served = (*term, *seq);
                if let Some(((acked_term, acked_seq), _)) =
                    acks.iter().find(|(pos, ack)| *pos > served && ack.le(clock))
                {
                    out.push(Violation {
                        invariant: "ckpt-causality",
                        at: ev.at,
                        detail: format!(
                            "{ep} served stale image ({term},{seq}) while happening after \
                             the ack for ({acked_term},{acked_seq})"
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Every `api misuse` line the FTIM recorded is a violation. The FTIM owns
/// the watchdog table and the role, so it is where misuse is judged; this
/// invariant only makes the report a gate.
pub fn api_lifecycle(events: &[Event]) -> Vec<Violation> {
    events
        .iter()
        .filter_map(|ev| match &ev.kind {
            EventKind::ApiMisuse { ep, detail } => Some(Violation {
                invariant: "api-lifecycle",
                at: ev.at,
                detail: format!("{ep}: {detail}"),
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_sim::prelude::SimDuration;

    fn ev(ms: u64, kind: EventKind) -> Event {
        Event { at: SimTime::ZERO + SimDuration::from_millis(ms), kind, clock: None }
    }

    fn role(ms: u64, ep: &str, role: Role, term: u64) -> Event {
        ev(ms, EventKind::RoleUpdate { ep: ep.into(), role, term })
    }

    #[test]
    fn dual_primary_in_one_term_is_flagged() {
        let events = vec![
            role(1, "node0/oftt-engine", Role::Primary, 1),
            role(2, "node1/oftt-engine", Role::Primary, 1),
        ];
        let v = single_primary_per_term(&events);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("term 1"));
        // Same engine re-announcing is fine.
        let ok = vec![
            role(1, "node0/oftt-engine", Role::Primary, 1),
            role(2, "node0/oftt-engine", Role::Primary, 1),
        ];
        assert!(single_primary_per_term(&ok).is_empty());
    }

    #[test]
    fn term_regression_is_flagged_but_restart_resets() {
        let events = vec![
            role(1, "node0/oftt-engine", Role::Primary, 3),
            role(2, "node0/oftt-engine", Role::Backup, 2),
        ];
        assert_eq!(term_monotonic(&events).len(), 1);
        let with_restart = vec![
            role(1, "node0/oftt-engine", Role::Primary, 3),
            ev(2, EventKind::EngineStart { ep: "node0/oftt-engine".into() }),
            role(3, "node0/oftt-engine", Role::Negotiating, 0),
        ];
        assert!(term_monotonic(&with_restart).is_empty());
    }

    #[test]
    fn dual_primary_after_heal_requires_both_live() {
        let base = |final_roles: Vec<Event>| {
            let mut events = vec![
                ev(0, EventKind::NodeUp { node: "node0".into() }),
                ev(0, EventKind::NodeUp { node: "node1".into() }),
                ev(1, EventKind::ServiceStart { ep: "node0/oftt-engine".into() }),
                ev(1, EventKind::ServiceStart { ep: "node1/oftt-engine".into() }),
                ev(2, EventKind::Partition),
                ev(10, EventKind::Heal),
            ];
            events.extend(final_roles);
            events
        };
        let bad = base(vec![
            role(20, "node0/oftt-engine", Role::Primary, 1),
            role(21, "node1/oftt-engine", Role::Primary, 1),
        ]);
        assert_eq!(no_dual_primary_after_heal(&bad).len(), 1);
        let resolved = base(vec![
            role(20, "node0/oftt-engine", Role::Primary, 1),
            role(21, "node1/oftt-engine", Role::Primary, 1),
            role(22, "node1/oftt-engine", Role::Backup, 2),
        ]);
        assert!(no_dual_primary_after_heal(&resolved).is_empty());
        // No heal at all: vacuously clean.
        let unhealed = vec![
            ev(2, EventKind::Partition),
            role(20, "node0/oftt-engine", Role::Primary, 1),
            role(21, "node1/oftt-engine", Role::Primary, 1),
        ];
        assert!(no_dual_primary_after_heal(&unhealed).is_empty());
    }

    #[test]
    fn converged_single_primary_needs_a_whole_network() {
        let boot = || {
            vec![
                ev(0, EventKind::NodeUp { node: "node0".into() }),
                ev(0, EventKind::NodeUp { node: "node1".into() }),
                ev(1, EventKind::ServiceStart { ep: "node0/oftt-engine".into() }),
                ev(1, EventKind::ServiceStart { ep: "node1/oftt-engine".into() }),
            ]
        };
        // Two live primaries at the end of an un-partitioned run: flagged,
        // even though no heal ever happened (unlike the after-heal check).
        let mut bad = boot();
        bad.push(role(20, "node0/oftt-engine", Role::Primary, 1));
        bad.push(role(21, "node1/oftt-engine", Role::Primary, 2));
        let v = converged_single_primary(&bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("2 live primaries"), "got: {}", v[0].detail);
        // The same final roles while still partitioned: vacuous.
        let mut split = boot();
        split.push(ev(10, EventKind::Partition));
        split.push(role(20, "node0/oftt-engine", Role::Primary, 1));
        split.push(role(21, "node1/oftt-engine", Role::Primary, 2));
        assert!(converged_single_primary(&split).is_empty());
        // One primary plus a backup: clean.
        let mut ok = boot();
        ok.push(role(20, "node0/oftt-engine", Role::Primary, 2));
        ok.push(role(21, "node1/oftt-engine", Role::Backup, 2));
        assert!(converged_single_primary(&ok).is_empty());
        // A dead claimant does not count as a live primary.
        let mut dead = boot();
        dead.push(role(20, "node0/oftt-engine", Role::Primary, 1));
        dead.push(role(21, "node1/oftt-engine", Role::Primary, 2));
        dead.push(ev(22, EventKind::NodeDown { node: "node0".into() }));
        assert!(converged_single_primary(&dead).is_empty());
    }

    fn installed(ms: u64, ep: &str, term: u64, seq: u64, crc: u32) -> Event {
        ev(ms, EventKind::CkptInstalled { ep: ep.into(), term, seq, crc })
    }

    fn restore(ms: u64, ep: &str, term: u64, seq: u64, crc: u32) -> Event {
        ev(ms, EventKind::CkptRestore { ep: ep.into(), term, seq, crc })
    }

    #[test]
    fn ckpt_positions_must_advance() {
        let events = vec![
            installed(1, "node1/call-track", 1, 2, 7),
            installed(2, "node1/call-track", 1, 2, 7),
        ];
        assert_eq!(ckpt_monotone(&events).len(), 1);
        let restart_resets = vec![
            installed(1, "node1/call-track", 1, 5, 7),
            ev(2, EventKind::ServiceStart { ep: "node1/call-track".into() }),
            installed(3, "node1/call-track", 1, 1, 7),
        ];
        assert!(ckpt_monotone(&restart_resets).is_empty());
        let rollback_restore = vec![
            installed(1, "node1/call-track", 2, 3, 7),
            restore(2, "node1/call-track", 1, 9, 7),
        ];
        assert_eq!(ckpt_monotone(&rollback_restore).len(), 1);
    }

    #[test]
    fn install_crc_must_match_shipped_crc() {
        let shipped = |ms, term, seq, crc| {
            ev(ms, EventKind::CkptShipped { ep: "node0/ct".into(), term, seq, crc })
        };
        let ok = vec![shipped(1, 1, 4, 99), installed(2, "node1/ct", 1, 4, 99)];
        assert!(ckpt_restore_integrity(&ok).is_empty());
        let bad = vec![shipped(1, 1, 4, 99), installed(2, "node1/ct", 1, 4, 98)];
        let v = ckpt_restore_integrity(&bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("crc 98"));
        // A re-ship of the same position (NACK → full resend) is
        // authoritative: only the latest content must match.
        let reshipped =
            vec![shipped(1, 1, 4, 99), shipped(2, 1, 4, 77), installed(3, "node1/ct", 1, 4, 77)];
        assert!(ckpt_restore_integrity(&reshipped).is_empty());
    }

    #[test]
    fn restore_crc_must_match_an_acked_image() {
        // Restoring the last installed image is clean.
        let ok = vec![installed(1, "node1/ct", 1, 4, 99), restore(2, "node1/ct", 1, 4, 99)];
        assert!(ckpt_restore_integrity(&ok).is_empty());
        // Restoring an image nobody installed, shipped, or served at that
        // position is a silent state divergence.
        let bad = vec![installed(1, "node1/ct", 1, 4, 99), restore(2, "node1/ct", 1, 4, 55)];
        assert_eq!(ckpt_restore_integrity(&bad).len(), 1);
        // A served image is an acceptable restore source even with no
        // local install (cold restart pulling state from the peer).
        let served = vec![
            ev(1, EventKind::CkptServed { ep: "node0/ct".into(), term: 2, seq: 8, crc: 42 }),
            restore(2, "node1/ct", 2, 8, 42),
        ];
        assert!(ckpt_restore_integrity(&served).is_empty());
        // No record at all for the position: skipped, not guessed.
        let unknown = vec![restore(2, "node1/ct", 3, 1, 1234)];
        assert!(ckpt_restore_integrity(&unknown).is_empty());
    }

    fn clock_of(pairs: &[(u32, u64)]) -> VectorClock {
        let mut c = VectorClock::new();
        for &(actor, n) in pairs {
            for _ in 0..n {
                c.tick(actor);
            }
        }
        c
    }

    fn clocked(ms: u64, kind: EventKind, pairs: &[(u32, u64)]) -> Event {
        Event {
            at: SimTime::ZERO + SimDuration::from_millis(ms),
            kind,
            clock: Some(clock_of(pairs)),
        }
    }

    #[test]
    fn install_and_ack_must_happen_after_ship() {
        let ship = |ms, pairs: &[(u32, u64)]| {
            clocked(
                ms,
                EventKind::CkptShipped { ep: "node0/ct".into(), term: 1, seq: 4, crc: 9 },
                pairs,
            )
        };
        let install = |ms, pairs: &[(u32, u64)]| {
            clocked(
                ms,
                EventKind::CkptInstalled { ep: "node1/ct".into(), term: 1, seq: 4, crc: 9 },
                pairs,
            )
        };
        let ack = |ms, pairs: &[(u32, u64)]| {
            clocked(ms, EventKind::CkptAcked { ep: "node0/ct".into(), term: 1, seq: 4 }, pairs)
        };
        // Ship {0:1} → install {0:1,1:1} → ack {0:2,1:1}: a clean causal chain.
        let ok = vec![ship(1, &[(0, 1)]), install(2, &[(0, 1), (1, 1)]), ack(3, &[(0, 2), (1, 1)])];
        assert!(ckpt_causality(&ok).is_empty());
        // An install concurrent with its ship is a causality breach.
        let bad_install = vec![ship(1, &[(0, 1)]), install(2, &[(1, 1)])];
        let v = ckpt_causality(&bad_install);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("installed (1,4)"));
        // An ack that does not dominate the install's clock is a breach.
        let bad_ack = vec![ship(1, &[(0, 1)]), install(2, &[(0, 1), (1, 1)]), ack(3, &[(0, 2)])];
        let v = ckpt_causality(&bad_ack);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("ack"));
        // Untraced runs (no clocks) pass vacuously.
        let unclocked = vec![
            ev(1, EventKind::CkptShipped { ep: "node0/ct".into(), term: 1, seq: 4, crc: 9 }),
            ev(2, EventKind::CkptInstalled { ep: "node1/ct".into(), term: 1, seq: 4, crc: 9 }),
        ];
        assert!(ckpt_causality(&unclocked).is_empty());
    }

    fn acked(ms: u64, term: u64, seq: u64, pairs: &[(u32, u64)]) -> Event {
        clocked(ms, EventKind::CkptAcked { ep: "node0/ct".into(), term, seq }, pairs)
    }

    fn served(ms: u64, term: u64, seq: u64, pairs: &[(u32, u64)]) -> Event {
        clocked(ms, EventKind::CkptServed { ep: "node1/ct".into(), term, seq, crc: 1 }, pairs)
    }

    #[test]
    fn serving_behind_a_known_ack_is_flagged() {
        // Ack for (1,5) at clock {0:2}; the serve of (1,3) has clock
        // {0:2,1:1} — it happens after the newer ack.
        let events = vec![acked(1, 1, 5, &[(0, 2)]), served(2, 1, 3, &[(0, 2), (1, 1)])];
        let v = ckpt_causality(&events);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("stale image (1,3)"), "got: {}", v[0].detail);
        assert!(v[0].detail.contains("(1,5)"), "got: {}", v[0].detail);
    }

    #[test]
    fn serving_concurrently_with_a_newer_ack_is_clean() {
        // Same positions, but the serve's clock is concurrent with the
        // ack's — the server could not have known.
        let events = vec![acked(1, 1, 5, &[(0, 2)]), served(2, 1, 3, &[(1, 1)])];
        assert!(ckpt_causality(&events).is_empty());
    }

    #[test]
    fn serving_at_or_past_the_acked_position_is_clean() {
        let events = vec![
            acked(1, 1, 5, &[(0, 2)]),
            served(2, 1, 5, &[(0, 2), (1, 1)]),
            served(3, 1, 7, &[(0, 2), (1, 2)]),
        ];
        assert!(ckpt_causality(&events).is_empty());
    }

    #[test]
    fn unclocked_serves_pass_vacuously() {
        let events = vec![
            ev(1, EventKind::CkptAcked { ep: "node0/ct".into(), term: 1, seq: 5 }),
            ev(2, EventKind::CkptServed { ep: "node1/ct".into(), term: 1, seq: 1, crc: 1 }),
        ];
        assert!(ckpt_causality(&events).is_empty());
    }

    #[test]
    fn every_api_misuse_report_is_a_violation() {
        let misuse = |ms, detail: &str| {
            ev(ms, EventKind::ApiMisuse { ep: "node0/ct".into(), detail: detail.into() })
        };
        let events = vec![
            misuse(1, "watchdog_reset on unknown watchdog \"wd\""),
            ev(2, EventKind::ServiceStart { ep: "node0/ct".into() }),
            misuse(3, "save while backup"),
        ];
        let v = api_lifecycle(&events);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].invariant, "api-lifecycle");
        assert_eq!(v[1].detail, "node0/ct: save while backup");
    }

    #[test]
    fn switchover_needs_a_cause() {
        let bare = vec![
            ev(1, EventKind::EngineStart { ep: "node0/oftt-engine".into() }),
            ev(2, EventKind::SwitchoverRequest { ep: "node0/oftt-engine".into() }),
        ];
        assert_eq!(switchover_has_cause(&bare).len(), 1);
        let caused = vec![
            ev(1, EventKind::EngineStart { ep: "node0/oftt-engine".into() }),
            ev(2, EventKind::DetectedFailure { ep: "node0/oftt-engine".into() }),
            ev(3, EventKind::SwitchoverRequest { ep: "node0/oftt-engine".into() }),
        ];
        assert!(switchover_has_cause(&caused).is_empty());
    }

    #[test]
    fn diverter_must_hit_believed_primary() {
        let events = vec![
            ev(
                1,
                EventKind::DiverterPrimary {
                    ep: "node2/oftt-diverter".into(),
                    node: "node0".into(),
                },
            ),
            ev(
                2,
                EventKind::DiverterEnqueue {
                    ep: "node2/oftt-diverter".into(),
                    node: "node0".into(),
                },
            ),
            ev(
                3,
                EventKind::DiverterEnqueue {
                    ep: "node2/oftt-diverter".into(),
                    node: "node1".into(),
                },
            ),
        ];
        let v = diverter_targets_primary(&events);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("node1"));
    }
}
