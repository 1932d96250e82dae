//! Parallel campaign execution.
//!
//! Every `(scenario, seed)` pair is an independent deterministic
//! simulation, so the executor is a plain work-stealing loop: one shared
//! atomic cursor over the flattened run list, N worker threads pulling
//! from it, results re-sorted by `(scenario, seed)` afterwards so the
//! output order is independent of thread scheduling. No channels, no
//! per-run allocator churn beyond what the simulation itself does.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use oftt_check::{run, RunOutcome};

use crate::expand::expand;
use crate::scenario::Scenario;

/// One finished run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Index into the campaign's scenario list.
    pub scenario: usize,
    /// The seed this run used.
    pub seed: u64,
    /// The statistical outcome, violations included.
    pub outcome: RunOutcome,
}

/// The machine's parallelism, as a worker-count default.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Runs one seed of one scenario to completion.
pub fn run_one(scenario: &Scenario, index: usize, seed: u64) -> RunRecord {
    let seeded = oftt_check::Scenario { script: expand(scenario, seed), ..scenario.base.clone() };
    let result = run(&seeded, seed, &[]);
    let outcome = RunOutcome::compute(&result.events, seeded.horizon);
    RunRecord { scenario: index, seed, outcome }
}

/// Runs every seed of every scenario across `jobs` worker threads and
/// returns the records sorted by `(scenario, seed)`.
pub fn run_campaign(scenarios: &[Scenario], jobs: usize) -> Vec<RunRecord> {
    let work: Vec<(usize, u64)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(i, sc)| sc.seeds.iter().map(move |&seed| (i, seed)))
        .collect();
    let jobs = jobs.clamp(1, work.len().max(1));
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<RunRecord>> = Mutex::new(Vec::with_capacity(work.len()));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(index, seed)) = work.get(i) else { break };
                let Some(scenario) = scenarios.get(index) else { break };
                let record = run_one(scenario, index, seed);
                if let Ok(mut out) = results.lock() {
                    out.push(record);
                }
            });
        }
    });
    let mut out = results.into_inner().unwrap_or_default();
    out.sort_by_key(|r| (r.scenario, r.seed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const KILL: &str = r#"{
        "name": "engine_kill",
        "seeds": [1, 2],
        "horizon_ms": 20000,
        "script": [
            {"at_ms": 8000, "op": "kill-engine a"},
            {"at_ms": 12000, "op": "restart-engine a"}
        ]
    }"#;

    #[test]
    fn campaign_runs_are_byte_identical_across_executions() {
        let sc = Scenario::load("kill.json", KILL).unwrap();
        let scenarios = vec![sc];
        let first = run_campaign(&scenarios, 2);
        let second = run_campaign(&scenarios, 1);
        assert_eq!(first.len(), 2);
        let render = |records: &[RunRecord]| -> Vec<String> {
            records.iter().map(|r| r.outcome.record(r.seed)).collect()
        };
        // Same scenario + seed ⇒ the same canonical outcome record, no
        // matter how many workers ran it or in what order.
        assert_eq!(render(&first), render(&second));
    }

    #[test]
    fn engine_kill_produces_failover_samples_and_recovers() {
        let sc = Scenario::load("kill.json", KILL).unwrap();
        let records = run_campaign(&[sc], 2);
        for r in &records {
            assert!(r.outcome.violations.is_empty(), "seed {}: {:?}", r.seed, r.outcome);
            assert!(r.outcome.recovered, "seed {} never recovered", r.seed);
            assert!(
                !r.outcome.failover_us.is_empty(),
                "seed {} recorded no failover sample",
                r.seed
            );
        }
    }
}
