//! Structured run outcomes: the statistical view of one checked run.
//!
//! The invariant engine answers "was this run *correct*"; campaign sweeps
//! also need "how did it *perform*" — how long was the pair without a
//! primary, how fast did failovers complete, did it come back at all.
//! [`RunOutcome::compute`] derives all of that from the same parsed event
//! stream the invariants consume, so one simulation feeds both the
//! correctness verdict and the distribution samples.

use std::collections::BTreeMap;

use ds_sim::prelude::SimTime;

use crate::invariants::{check_all, Violation};
use crate::parse::{Event, EventKind};
use oftt::role::Role;

/// The availability-relevant state of one engine endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EngineState {
    role: Role,
}

/// Everything one run contributes to a campaign's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The run horizon the outcome was computed against.
    pub horizon: SimTime,
    /// When the pair first had a live primary (initial election), if ever.
    pub first_primary: Option<SimTime>,
    /// Completed primary outages after the initial election: for each
    /// loss-of-primary that was later recovered, the gap duration in µs.
    /// These are the failover-time distribution samples.
    pub failover_us: Vec<u64>,
    /// Total time without a live primary between the initial election and
    /// the horizon (includes a trailing unrecovered outage), µs.
    pub unavailable_us: u64,
    /// Fraction of the post-election window with a live primary, in
    /// `[0, 1]`; `0` if no primary was ever elected.
    pub availability: f64,
    /// `true` if a live primary exists at the horizon.
    pub recovered: bool,
    /// Role announcements observed (a churn measure).
    pub role_updates: u64,
    /// Invariant violations found by the full trace-invariant engine.
    pub violations: Vec<Violation>,
}

impl RunOutcome {
    /// Derives the outcome of one run from its parsed events.
    ///
    /// "Live primary" means: some engine endpoint whose last role
    /// announcement was `primary`, whose node has not since gone down, and
    /// whose engine service has not since been killed. Dual primaries
    /// still count as *available* here — that hazard is the invariant
    /// engine's to flag, and it is, separately, in
    /// [`RunOutcome::violations`].
    pub fn compute(events: &[Event], horizon: SimTime) -> Self {
        let violations = check_all(events);
        let mut engines: BTreeMap<String, EngineState> = BTreeMap::new();
        let mut first_primary = None;
        let mut outage_since: Option<SimTime> = None;
        let mut failover_us = Vec::new();
        let mut unavailable_us = 0u64;
        let mut role_updates = 0u64;

        let mut was_available = false;
        for event in events {
            match &event.kind {
                EventKind::RoleUpdate { ep, role, .. } => {
                    role_updates += 1;
                    engines.insert(ep.clone(), EngineState { role: *role });
                }
                EventKind::EngineStart { ep } => {
                    engines.insert(ep.clone(), EngineState { role: Role::Negotiating });
                }
                EventKind::ServiceKill { ep } if ep.ends_with("/oftt-engine") => {
                    engines.remove(ep);
                }
                EventKind::NodeDown { node } => {
                    let prefix = format!("{node}/");
                    engines.retain(|ep, _| !ep.starts_with(&prefix));
                }
                _ => {}
            }
            let available = engines.values().any(|e| e.role == Role::Primary);
            if available && !was_available {
                if first_primary.is_none() {
                    first_primary = Some(event.at);
                } else if let Some(lost) = outage_since.take() {
                    let gap = event.at.as_micros().saturating_sub(lost.as_micros());
                    failover_us.push(gap);
                    unavailable_us += gap;
                }
            } else if !available && was_available {
                outage_since = Some(event.at);
            }
            was_available = available;
        }
        // A trailing outage runs to the horizon without producing a
        // failover sample — it never completed.
        if let Some(lost) = outage_since {
            unavailable_us += horizon.as_micros().saturating_sub(lost.as_micros());
        }
        let availability = match first_primary {
            Some(at) => {
                let window = horizon.as_micros().saturating_sub(at.as_micros());
                if window == 0 {
                    0.0
                } else {
                    1.0 - (unavailable_us.min(window) as f64 / window as f64)
                }
            }
            None => 0.0,
        };
        RunOutcome {
            horizon,
            first_primary,
            failover_us,
            unavailable_us,
            availability,
            recovered: was_available,
            role_updates,
            violations,
        }
    }

    /// A canonical, byte-stable, single-line rendering of the outcome —
    /// the determinism contract campaign runs are checked against: the
    /// same scenario and seed must reproduce this string exactly.
    pub fn record(&self, seed: u64) -> String {
        let first = match self.first_primary {
            Some(at) => at.as_micros().to_string(),
            None => "none".to_string(),
        };
        let failovers: Vec<String> = self.failover_us.iter().map(|us| us.to_string()).collect();
        let violations: Vec<&str> = self.violations.iter().map(|v| v.invariant).collect();
        format!(
            "seed={seed} horizon_us={} first_primary_us={first} failover_us=[{}] \
             unavailable_us={} availability={:.6} recovered={} role_updates={} violations=[{}]",
            self.horizon.as_micros(),
            failovers.join(","),
            self.unavailable_us,
            self.availability,
            self.recovered,
            self.role_updates,
            violations.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(at_us: u64, kind: EventKind) -> Event {
        Event { at: SimTime::from_micros(at_us), kind, clock: None }
    }

    fn role(at_us: u64, ep: &str, role: Role) -> Event {
        event(at_us, EventKind::RoleUpdate { ep: ep.to_string(), role, term: 1 })
    }

    #[test]
    fn failover_gap_and_availability_from_synthetic_events() {
        let horizon = SimTime::from_micros(10_000_000);
        let events = vec![
            role(1_000_000, "node1/oftt-engine", Role::Primary),
            role(1_000_000, "node2/oftt-engine", Role::Backup),
            event(4_000_000, EventKind::NodeDown { node: "node1".into() }),
            role(5_500_000, "node2/oftt-engine", Role::Primary),
        ];
        let outcome = RunOutcome::compute(&events, horizon);
        assert_eq!(outcome.first_primary, Some(SimTime::from_micros(1_000_000)));
        assert_eq!(outcome.failover_us, vec![1_500_000]);
        assert_eq!(outcome.unavailable_us, 1_500_000);
        assert!(outcome.recovered);
        // 1.5s of 9s post-election window unavailable.
        assert!((outcome.availability - (1.0 - 1.5 / 9.0)).abs() < 1e-9);
    }

    #[test]
    fn trailing_outage_counts_as_unrecovered() {
        let horizon = SimTime::from_micros(10_000_000);
        let events = vec![
            role(1_000_000, "node1/oftt-engine", Role::Primary),
            event(4_000_000, EventKind::NodeDown { node: "node1".into() }),
        ];
        let outcome = RunOutcome::compute(&events, horizon);
        assert!(!outcome.recovered);
        assert!(outcome.failover_us.is_empty(), "an incomplete outage is not a failover sample");
        assert_eq!(outcome.unavailable_us, 6_000_000);
        assert!((outcome.availability - (1.0 - 6.0 / 9.0)).abs() < 1e-9);
    }

    #[test]
    fn engine_kill_loses_the_primary_until_reelection() {
        let horizon = SimTime::from_micros(8_000_000);
        let events = vec![
            role(1_000_000, "node1/oftt-engine", Role::Primary),
            event(2_000_000, EventKind::ServiceKill { ep: "node1/oftt-engine".into() }),
            role(3_000_000, "node2/oftt-engine", Role::Primary),
        ];
        let outcome = RunOutcome::compute(&events, horizon);
        assert_eq!(outcome.failover_us, vec![1_000_000]);
        assert!(outcome.recovered);
    }

    #[test]
    fn no_primary_ever_means_zero_availability() {
        let outcome = RunOutcome::compute(&[], SimTime::from_secs(10));
        assert_eq!(outcome.first_primary, None);
        assert_eq!(outcome.availability, 0.0);
        assert!(!outcome.recovered);
    }

    // Clean only without the seeded watchdog misuse (`inject_bugs`).
    #[cfg(not(feature = "inject_bugs"))]
    #[test]
    fn real_failover_run_produces_one_clean_sample() {
        use crate::scenario::{run, Scenario};

        let scenario = Scenario::named("pair-failover").unwrap();
        let result = run(&scenario, 1, &[]);
        let outcome = RunOutcome::compute(&result.events, scenario.horizon);
        assert!(outcome.violations.is_empty());
        assert!(outcome.recovered, "the repaired pair must end with a primary");
        assert!(!outcome.failover_us.is_empty(), "the 10s crash must cost one failover");
        assert!(outcome.availability > 0.9, "got {}", outcome.availability);
        // The canonical record is reproducible.
        let again = run(&scenario, 1, &[]);
        let outcome2 = RunOutcome::compute(&again.events, scenario.horizon);
        assert_eq!(outcome.record(1), outcome2.record(1));
    }
}
