//! Property-based tests for the simulation kernel's core invariants:
//! monotone time, deterministic ordering, and quantile sanity.

use ds_sim::prelude::*;
use proptest::prelude::*;

/// Runs a batch of events with the given (delay, payload) pairs and returns
/// the (execution order payloads, final time).
fn run_batch(delays: &[(u64, u32)]) -> (Vec<u32>, SimTime) {
    let mut sim: Sim<Vec<u32>> = Sim::new(Vec::new(), 1);
    for &(ms, tag) in delays {
        sim.schedule(SimDuration::from_millis(ms), move |v, _| v.push(tag));
    }
    let end = sim.run_to_completion(100_000);
    let (world, _) = sim.into_parts();
    (world, end)
}

proptest! {
    /// Events always execute in non-decreasing time order, with schedule
    /// order breaking ties — i.e. sorting the input by (delay, index) yields
    /// the execution order exactly.
    #[test]
    fn execution_order_is_sorted_stable(delays in prop::collection::vec((0u64..1_000, any::<u32>()), 0..64)) {
        let (observed, _) = run_batch(&delays);
        let mut expected: Vec<(u64, usize, u32)> = delays
            .iter()
            .enumerate()
            .map(|(i, &(ms, tag))| (ms, i, tag))
            .collect();
        expected.sort();
        let expected: Vec<u32> = expected.into_iter().map(|(_, _, tag)| tag).collect();
        prop_assert_eq!(observed, expected);
    }

    /// The final clock equals the maximum delay (or zero when empty).
    #[test]
    fn clock_ends_at_last_event(delays in prop::collection::vec((0u64..1_000, any::<u32>()), 0..64)) {
        let (_, end) = run_batch(&delays);
        let max_ms = delays.iter().map(|&(ms, _)| ms).max().unwrap_or(0);
        prop_assert_eq!(end, SimTime::from_millis(max_ms));
    }

    /// Two runs with identical seeds and schedules produce identical traces.
    #[test]
    fn identical_seeds_identical_traces(seed in any::<u64>(), n in 1usize..32) {
        let run = |seed: u64| {
            let mut sim = Sim::new(0u64, seed);
            for i in 0..n {
                sim.schedule(SimDuration::from_millis(i as u64), move |w, sched| {
                    let draw = sched.rng().uniform_u64(0..1_000_000);
                    *w = w.wrapping_add(draw);
                    sched.record(TraceCategory::App, format!("event {i} draw {draw}"));
                });
            }
            sim.run_to_completion(10_000);
            let (world, trace) = sim.into_parts();
            (world, trace.to_text())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Cancelled events never execute, whichever order cancellations arrive.
    #[test]
    fn cancelled_events_never_run(
        delays in prop::collection::vec(0u64..100, 1..32),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..32),
    ) {
        let mut sim: Sim<Vec<usize>> = Sim::new(Vec::new(), 3);
        let mut ids = Vec::new();
        for (i, &ms) in delays.iter().enumerate() {
            ids.push(sim.schedule(SimDuration::from_millis(ms), move |v, _| v.push(i)));
        }
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for (i, (&id, &ms)) in ids.iter().zip(&delays).enumerate() {
            if cancel_mask.get(i).copied().unwrap_or(false) {
                sim.cancel(id);
            } else {
                expected.push((ms, i));
            }
        }
        expected.sort();
        sim.run_to_completion(10_000);
        let executed: Vec<usize> = sim.world().clone();
        prop_assert_eq!(executed, expected.into_iter().map(|(_, i)| i).collect::<Vec<_>>());
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_are_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s: Samples = values.iter().copied().collect();
        let q25 = s.quantile(0.25);
        let q50 = s.quantile(0.50);
        let q95 = s.quantile(0.95);
        prop_assert!(q25 <= q50 && q50 <= q95);
        prop_assert!(s.min() <= q25 && q95 <= s.max());
    }
}
