//! Per-seed script expansion.
//!
//! A [`StepTemplate`](crate::scenario::StepTemplate) with `repeat` /
//! `every_ms` / `jitter_ms` unrolls into concrete timed
//! [`ScriptOp`](oftt_check::ScriptOp)s. The jitter stream is a pure
//! function of `(scenario name, step index, seed)` via
//! [`SimRng::derive`], so the same scenario file and seed always produce
//! the byte-identical script — position in the file, load order, and the
//! other seeds running concurrently are all irrelevant. That is the
//! determinism contract the campaign's reproducibility tests pin.

use ds_sim::prelude::SimRng;
use ds_sim::prelude::SimTime;
use oftt_check::FaultScript;

use crate::scenario::Scenario;

/// FNV-1a over the scenario name: a stable stream label that keeps two
/// scenarios sharing a seed from sharing jitter draws.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Expands the scenario's script template for one seed.
pub fn expand(scenario: &Scenario, seed: u64) -> FaultScript {
    let label = fnv64(scenario.name.as_bytes());
    let mut steps = Vec::new();
    for (index, template) in scenario.steps.iter().enumerate() {
        // One derived stream per (scenario, step, seed): adding a step
        // never shifts the draws of the steps around it.
        let stream = label ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut rng = SimRng::derive(seed, stream);
        let jitter_span = template.jitter.as_micros();
        for k in 0..template.repeat {
            let mut at_us = template
                .at
                .as_micros()
                .saturating_add(template.every.as_micros().saturating_mul(k));
            if jitter_span > 0 {
                at_us = at_us.saturating_add(rng.uniform_u64(0..jitter_span.saturating_add(1)));
            }
            steps.push((SimTime::from_micros(at_us), template.op));
        }
    }
    // Canonical order: by time, file order among ties. Injection itself is
    // time-keyed, but the rendered script text is part of the determinism
    // record.
    steps.sort_by_key(|(at, _)| *at);
    FaultScript { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    const STORM: &str = r#"{
        "name": "storm",
        "seeds": {"range": [1, 4]},
        "script": [
            {"at_ms": 8000, "op": "partition", "repeat": 3, "every_ms": 5000,
             "jitter_ms": 400},
            {"at_ms": 9000, "op": "heal", "repeat": 3, "every_ms": 5000}
        ]
    }"#;

    #[test]
    fn expansion_is_deterministic_per_seed_and_varies_across_seeds() {
        let sc = Scenario::load("storm.json", STORM).unwrap();
        let a1 = expand(&sc, 7).to_text();
        let a2 = expand(&sc, 7).to_text();
        assert_eq!(a1, a2, "same scenario + seed must expand identically");
        let b = expand(&sc, 8).to_text();
        assert_ne!(a1, b, "different seeds must draw different jitter");
    }

    #[test]
    fn unjittered_steps_are_rigid() {
        let sc = Scenario::load("storm.json", STORM).unwrap();
        let script = expand(&sc, 1);
        // The heal steps carry no jitter: exactly 9s, 14s, 19s.
        let heals: Vec<u64> = script
            .steps
            .iter()
            .filter(|(_, op)| *op == oftt_check::ScriptOp::Heal)
            .map(|(at, _)| at.as_micros())
            .collect();
        assert_eq!(heals, vec![9_000_000, 14_000_000, 19_000_000]);
        // The partitions each land within [base, base + 400ms].
        let partitions: Vec<u64> = script
            .steps
            .iter()
            .filter(|(_, op)| *op == oftt_check::ScriptOp::Partition)
            .map(|(at, _)| at.as_micros())
            .collect();
        assert_eq!(partitions.len(), 3);
        for (base_ms, at) in [8000u64, 13000, 18000].iter().zip(&partitions) {
            let base = base_ms * 1000;
            assert!((base..=base + 400_000).contains(at), "{at} outside {base}+400ms");
        }
    }

    #[test]
    fn adding_a_step_does_not_shift_other_streams() {
        let sc = Scenario::load("storm.json", STORM).unwrap();
        let longer = STORM.replace(
            r#"{"at_ms": 9000, "op": "heal", "repeat": 3, "every_ms": 5000}"#,
            r#"{"at_ms": 9000, "op": "heal", "repeat": 3, "every_ms": 5000},
               {"at_ms": 30000, "op": "crash a"}"#,
        );
        let sc2 = Scenario::load("storm.json", &longer).unwrap();
        let p1: Vec<_> = expand(&sc, 5)
            .steps
            .into_iter()
            .filter(|(_, op)| *op == oftt_check::ScriptOp::Partition)
            .collect();
        let p2: Vec<_> = expand(&sc2, 5)
            .steps
            .into_iter()
            .filter(|(_, op)| *op == oftt_check::ScriptOp::Partition)
            .collect();
        assert_eq!(p1, p2, "the partition step's jitter stream moved");
    }
}
