// oftt-lint: no-panic
//! Cross-seed aggregation and the acceptance gate.
//!
//! A campaign's verdict is computed here, once, and consumed once: the
//! CLI exits 2 on any [`gate_failures`]. The `--out` JSON carries the
//! same numbers for reading, not for a second check. What the gate does
//! not judge — that the aggregates are internally consistent (every seed
//! counted once, quantiles ordered, availability a fraction) — is the
//! aggregator's own contract, pinned by this module's tests.

use crate::exec::RunRecord;
use crate::scenario::{Pin, Scenario};

/// One scenario's cross-seed aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStats {
    /// The scenario's name.
    pub name: String,
    /// Seeds executed.
    pub seeds: usize,
    /// The per-run horizon, ms.
    pub horizon_ms: u64,
    /// Whether this scenario demonstrates a seeded defect.
    pub expect_violations: bool,
    /// Seeds that ended with a live primary.
    pub recovered: usize,
    /// Seeds that did not.
    pub non_recovered: usize,
    /// Total invariant violations across all seeds.
    pub violations: usize,
    /// Seeds with at least one violation.
    pub violating_seeds: usize,
    /// Which seeds those were (for the human report).
    pub violating_seed_list: Vec<u64>,
    /// Completed failover gaps pooled across all seeds.
    pub failover_samples: usize,
    /// Failover distribution, nearest-rank percentiles, ms.
    pub failover_ms_p50: f64,
    /// 95th percentile, ms.
    pub failover_ms_p95: f64,
    /// 99th percentile, ms.
    pub failover_ms_p99: f64,
    /// The worst observed failover, ms.
    pub failover_ms_max: f64,
    /// Mean per-seed availability.
    pub availability_mean: f64,
    /// Worst per-seed availability.
    pub availability_min: f64,
    /// The scenario's pinned thresholds, carried into the artifact.
    pub pin: Pin,
}

/// Nearest-rank percentile over an already-sorted µs sample pool, in ms.
fn percentile_ms(sorted_us: &[u64], pct: f64) -> f64 {
    let n = sorted_us.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let index = rank.clamp(1, n) - 1;
    sorted_us.get(index).copied().unwrap_or(0) as f64 / 1000.0
}

/// Aggregates one scenario's records (the caller passes only records whose
/// `scenario` index matches).
pub fn aggregate(scenario: &Scenario, records: &[RunRecord]) -> ScenarioStats {
    let mut samples_us: Vec<u64> = Vec::new();
    let mut recovered = 0usize;
    let mut violations = 0usize;
    let mut violating_seed_list = Vec::new();
    let mut availability_sum = 0.0f64;
    let mut availability_min = f64::INFINITY;
    for record in records {
        let outcome = &record.outcome;
        samples_us.extend_from_slice(&outcome.failover_us);
        if outcome.recovered {
            recovered += 1;
        }
        if !outcome.violations.is_empty() {
            violations += outcome.violations.len();
            violating_seed_list.push(record.seed);
        }
        availability_sum += outcome.availability;
        availability_min = availability_min.min(outcome.availability);
    }
    samples_us.sort_unstable();
    let count = records.len();
    ScenarioStats {
        name: scenario.name.clone(),
        seeds: count,
        horizon_ms: scenario.base.horizon.as_micros() / 1000,
        expect_violations: scenario.expect_violations,
        recovered,
        non_recovered: count - recovered,
        violations,
        violating_seeds: violating_seed_list.len(),
        failover_samples: samples_us.len(),
        failover_ms_p50: percentile_ms(&samples_us, 50.0),
        failover_ms_p95: percentile_ms(&samples_us, 95.0),
        failover_ms_p99: percentile_ms(&samples_us, 99.0),
        failover_ms_max: percentile_ms(&samples_us, 100.0),
        availability_mean: if count == 0 { 0.0 } else { availability_sum / count as f64 },
        availability_min: if count == 0 { 0.0 } else { availability_min },
        pin: scenario.pin,
        violating_seed_list,
    }
}

/// The acceptance gate: what, if anything, fails this scenario.
///
/// A scenario not expecting violations fails on any violation or any
/// non-recovered seed; a defect-demonstration scenario fails when *no*
/// seed surfaced the defect (the instrument went blind). Pinned
/// thresholds fail on breach either way.
pub fn gate_failures(stats: &ScenarioStats) -> Vec<String> {
    let name = &stats.name;
    let mut failures = Vec::new();
    if stats.expect_violations {
        if stats.violating_seeds == 0 {
            failures
                .push(format!("{name}: expected invariant violations but no seed surfaced one"));
        }
    } else {
        if stats.violations > 0 {
            failures.push(format!(
                "{name}: {} invariant violation(s) across seeds {:?}",
                stats.violations, stats.violating_seed_list
            ));
        }
        if stats.non_recovered > 0 {
            failures
                .push(format!("{name}: {} seed(s) never recovered a primary", stats.non_recovered));
        }
    }
    if let Some(floor) = stats.pin.min_availability {
        if stats.availability_min < floor {
            failures.push(format!(
                "{name}: availability_min {:.6} below the pinned floor {floor}",
                stats.availability_min
            ));
        }
    }
    if let Some(ceiling) = stats.pin.max_failover_p99_ms {
        if stats.failover_ms_p99 > ceiling {
            failures.push(format!(
                "{name}: failover p99 {:.3} ms over the pinned ceiling {ceiling} ms",
                stats.failover_ms_p99
            ));
        }
    }
    if let Some(floor) = stats.pin.min_failover_samples {
        if (stats.failover_samples as u64) < floor {
            failures.push(format!(
                "{name}: {} failover sample(s), below the pinned floor {floor}",
                stats.failover_samples
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_sim::prelude::SimTime;
    use oftt_check::{RunOutcome, Violation};

    #[test]
    fn nearest_rank_percentiles() {
        let pool: Vec<u64> = (1..=100).map(|n| n * 1000).collect();
        assert_eq!(percentile_ms(&pool, 50.0), 50.0);
        assert_eq!(percentile_ms(&pool, 95.0), 95.0);
        assert_eq!(percentile_ms(&pool, 99.0), 99.0);
        assert_eq!(percentile_ms(&pool, 100.0), 100.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
        assert_eq!(percentile_ms(&[7000], 99.0), 7.0);
    }

    fn record(seed: u64, failover_ms: Vec<u64>, availability: f64, violations: usize) -> RunRecord {
        let violation = Violation {
            invariant: "single-primary",
            at: SimTime::from_secs(2),
            detail: String::new(),
        };
        RunRecord {
            scenario: 0,
            seed,
            outcome: RunOutcome {
                horizon: SimTime::from_secs(30),
                first_primary: Some(SimTime::from_secs(1)),
                failover_us: failover_ms.iter().map(|ms| ms * 1000).collect(),
                unavailable_us: 0,
                availability,
                recovered: !seed.is_multiple_of(3),
                role_updates: 0,
                violations: vec![violation; violations],
            },
        }
    }

    #[test]
    fn aggregates_count_every_seed_once_and_stay_ordered() {
        let sc = Scenario::load(
            "t.json",
            r#"{"name": "t", "seeds": {"range": [1, 9]}, "horizon_ms": 30000}"#,
        )
        .unwrap();
        let records: Vec<RunRecord> = (1..=9u64)
            .map(|seed| {
                let samples = (0..seed).map(|k| (seed * 389 + k * 97) % 1000 + 1).collect();
                record(seed, samples, 1.0 - seed as f64 / 40.0, usize::from(seed == 4) * 2)
            })
            .collect();
        for pool in [&records[..], &records[..1], &[]] {
            let st = aggregate(&sc, pool);
            assert_eq!(st.seeds, pool.len());
            assert_eq!(st.recovered + st.non_recovered, st.seeds, "{st:?}");
            assert!(
                st.failover_ms_p50 <= st.failover_ms_p95
                    && st.failover_ms_p95 <= st.failover_ms_p99
                    && st.failover_ms_p99 <= st.failover_ms_max,
                "{st:?}"
            );
            for a in [st.availability_mean, st.availability_min] {
                assert!((0.0..=1.0).contains(&a), "{st:?}");
            }
            assert!(st.availability_min <= st.availability_mean, "{st:?}");
        }
        let st = aggregate(&sc, &records);
        assert_eq!((st.horizon_ms, st.recovered, st.non_recovered), (30_000, 6, 3));
        assert_eq!((st.violations, st.violating_seeds), (2, 1));
        assert_eq!(st.violating_seed_list, vec![4]);
        assert_eq!(st.failover_samples, 45);
        assert_eq!(st.availability_min, 1.0 - 9.0 / 40.0);
    }

    fn stats() -> ScenarioStats {
        ScenarioStats {
            name: "t".into(),
            seeds: 10,
            horizon_ms: 40000,
            expect_violations: false,
            recovered: 10,
            non_recovered: 0,
            violations: 0,
            violating_seeds: 0,
            violating_seed_list: Vec::new(),
            failover_samples: 30,
            failover_ms_p50: 600.0,
            failover_ms_p95: 800.0,
            failover_ms_p99: 900.0,
            failover_ms_max: 1000.0,
            availability_mean: 0.99,
            availability_min: 0.97,
            pin: Pin::default(),
        }
    }

    #[test]
    fn gate_passes_clean_and_fails_dirty() {
        assert!(gate_failures(&stats()).is_empty());

        let mut dirty = stats();
        dirty.violations = 2;
        dirty.violating_seeds = 1;
        dirty.violating_seed_list = vec![7];
        assert!(gate_failures(&dirty).iter().any(|f| f.contains("violation")));

        let mut stuck = stats();
        stuck.recovered = 9;
        stuck.non_recovered = 1;
        assert!(gate_failures(&stuck).iter().any(|f| f.contains("never recovered")));

        let mut blind = stats();
        blind.expect_violations = true;
        assert!(gate_failures(&blind).iter().any(|f| f.contains("no seed surfaced")));
        blind.violating_seeds = 3;
        assert!(gate_failures(&blind).is_empty(), "a surfaced defect satisfies the gate");
    }

    #[test]
    fn pins_gate_the_distribution() {
        let mut pinned = stats();
        pinned.pin = Pin {
            min_availability: Some(0.98),
            max_failover_p99_ms: Some(500.0),
            min_failover_samples: Some(100),
        };
        let failures = gate_failures(&pinned);
        assert_eq!(failures.len(), 3, "{failures:?}");
    }
}
