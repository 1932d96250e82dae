//! The discrete-event simulation core.
//!
//! A [`Sim`] owns a user-provided *world* `W` plus an event queue. Events are
//! boxed closures over `(&mut W, &mut Scheduler)`. The [`Scheduler`] facade
//! exposes the clock, event scheduling/cancellation, the deterministic RNG,
//! and the trace; events a handler schedules are buffered and merged into the
//! queue when the handler returns, which keeps the borrow structure simple
//! and the execution order fully deterministic.

use std::collections::{BinaryHeap, HashMap, HashSet};

use crate::causality::CausalityTracker;
use crate::clock::VectorClock;
use crate::event::{EventId, EventKey};
use crate::rng::SimRng;
use crate::schedule::{ChoicePoint, SchedulePolicy};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceCategory};

/// An event handler: runs against the world with scheduling context.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Scheduler<'_, W>)>;

/// Scheduling context handed to every event handler.
pub struct Scheduler<'a, W> {
    now: SimTime,
    next_id: &'a mut u64,
    deferred: &'a mut Vec<(SimTime, u64, EventFn<W>)>,
    cancelled: &'a mut HashSet<EventId>,
    rng: &'a mut SimRng,
    trace: &'a mut Trace,
    stop: &'a mut bool,
    scopes: &'a mut HashMap<u64, String>,
    scopes_on: bool,
    causality: &'a mut CausalityTracker,
}

impl<'a, W> Scheduler<'a, W> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `f` to run `after` from now; returns an id usable with
    /// [`Scheduler::cancel`].
    pub fn schedule(
        &mut self,
        after: SimDuration,
        f: impl FnOnce(&mut W, &mut Scheduler<'_, W>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now.saturating_add(after), f)
    }

    /// Schedules `f` at an absolute time (clamped to be no earlier than now).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Scheduler<'_, W>) + 'static,
    ) -> EventId {
        let at = at.max(self.now);
        let id = EventId(*self.next_id);
        *self.next_id += 1;
        self.deferred.push((at, id.0, Box::new(f)));
        id
    }

    /// Like [`Scheduler::schedule`], with a scope label for exploration.
    ///
    /// `scope` identifies the state the event touches (e.g. the destination
    /// endpoint of a delivery); the schedule explorer uses it to avoid
    /// branching on reorderings of events with identical scope. The label
    /// closure only runs when a policy that records choice points is
    /// active, so labelling costs nothing in the default configuration.
    pub fn schedule_scoped(
        &mut self,
        after: SimDuration,
        scope: impl FnOnce() -> String,
        f: impl FnOnce(&mut W, &mut Scheduler<'_, W>) + 'static,
    ) -> EventId {
        let id = self.schedule(after, f);
        if self.scopes_on {
            self.scopes.insert(id.0, scope());
        }
        id
    }

    /// `true` when the active schedule policy records scope labels.
    pub fn scopes_enabled(&self) -> bool {
        self.scopes_on
    }

    /// Cancels a scheduled event. Cancelling an already-fired or unknown id
    /// is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id);
    }

    /// The deterministic random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The trace log.
    pub fn trace(&mut self) -> &mut Trace {
        self.trace
    }

    /// Records a trace entry at the current time, stamped with the current
    /// actor's vector clock when causality recording is on.
    pub fn record(&mut self, category: TraceCategory, message: impl Into<String>) {
        let now = self.now;
        let clock = self.causality.current_clock();
        self.trace.record_clocked(now, category, message, clock);
    }

    /// Requests that the simulation stop after this handler returns.
    pub fn request_stop(&mut self) {
        *self.stop = true;
    }

    /// Names the actor handling the current event, ticking its clock
    /// component (no-op while causality recording is off).
    pub fn begin_actor(&mut self, actor: &str) {
        self.causality.begin(actor);
    }

    /// Folds a received vector clock into the current actor's clock — the
    /// happens-before edge of a message delivery or process spawn.
    pub fn join_clock(&mut self, clock: &VectorClock) {
        self.causality.join(clock);
    }

    /// The current actor's vector clock, for stamping outgoing messages.
    /// `None` while causality recording is off or outside any actor.
    pub fn current_clock(&self) -> Option<VectorClock> {
        self.causality.current_clock()
    }

    /// `true` when causality recording is on (lets callers skip building
    /// actor names on the hot path).
    pub fn causality_enabled(&self) -> bool {
        self.causality.is_recording()
    }
}

/// A deterministic discrete-event simulation over a world `W`.
///
/// # Examples
///
/// ```
/// use ds_sim::sim::Sim;
/// use ds_sim::time::{SimDuration, SimTime};
///
/// let mut sim = Sim::new(0u32, 42);
/// sim.schedule(SimDuration::from_millis(10), |count, sched| {
///     *count += 1;
///     sched.schedule(SimDuration::from_millis(10), |count, _| *count += 1);
/// });
/// sim.run_until(SimTime::from_secs(1));
/// assert_eq!(*sim.world(), 2);
/// assert_eq!(sim.now(), SimTime::from_secs(1));
/// ```
pub struct Sim<W> {
    world: W,
    queue: BinaryHeap<EventKey>,
    handlers: HashMap<u64, EventFn<W>>,
    cancelled: HashSet<EventId>,
    now: SimTime,
    next_id: u64,
    rng: SimRng,
    trace: Trace,
    stop: bool,
    executed: u64,
    policy: SchedulePolicy,
    /// Scope labels for pending events; populated only while exploring.
    scopes: HashMap<u64, String>,
    /// Choice points recorded so far (exploration mode only).
    choice_log: Vec<ChoicePoint>,
    /// How many forced choices have been consumed.
    forced_cursor: usize,
    /// Vector-clock assignment (off by default).
    causality: CausalityTracker,
}

impl<W> Sim<W> {
    /// Creates a simulation over `world`, seeded for determinism.
    pub fn new(world: W, seed: u64) -> Self {
        Sim {
            world,
            queue: BinaryHeap::new(),
            handlers: HashMap::new(),
            cancelled: HashSet::new(),
            now: SimTime::ZERO,
            next_id: 0,
            rng: SimRng::seed_from(seed),
            trace: Trace::new(),
            stop: false,
            executed: 0,
            policy: SchedulePolicy::ById,
            scopes: HashMap::new(),
            choice_log: Vec::new(),
            forced_cursor: 0,
            causality: CausalityTracker::new(),
        }
    }

    /// Installs a tie-break policy. Call before running; switching
    /// mid-run keeps already-recorded choice points.
    pub fn set_schedule_policy(&mut self, policy: SchedulePolicy) {
        self.policy = policy;
    }

    /// Choice points recorded by an exploring policy, in execution order.
    pub fn choice_points(&self) -> &[ChoicePoint] {
        &self.choice_log
    }

    /// The tie-break index taken at each choice point so far — the
    /// replayable schedule of this run (pair it with the seed).
    pub fn choices_taken(&self) -> Vec<u32> {
        self.choice_log.iter().map(|c| c.chosen).collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared view of the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive view of the world (for setup between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Exclusive access to the trace (e.g. to enable stdout echo).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The deterministic random source (for setup-time draws).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently scheduled (including cancelled tombstones).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// `true` once a handler has called [`Scheduler::request_stop`].
    pub fn stopped(&self) -> bool {
        self.stop
    }

    /// Consumes the simulation, returning the world and trace.
    pub fn into_parts(self) -> (W, Trace) {
        (self.world, self.trace)
    }

    /// Turns causality recording on or off (off by default; see
    /// [`crate::causality`]).
    pub fn set_causality_recording(&mut self, on: bool) {
        self.causality.set_recording(on);
    }

    /// Schedules `f` to run `after` from the current time.
    pub fn schedule(
        &mut self,
        after: SimDuration,
        f: impl FnOnce(&mut W, &mut Scheduler<'_, W>) + 'static,
    ) -> EventId {
        let at = self.now.saturating_add(after);
        self.schedule_at(at, f)
    }

    /// Schedules `f` at an absolute time (clamped to be no earlier than now).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Scheduler<'_, W>) + 'static,
    ) -> EventId {
        let at = at.max(self.now);
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.queue.push(EventKey { at, id });
        self.handlers.insert(id.0, Box::new(f));
        id
    }

    /// Like [`Sim::schedule_at`], with a scope label for exploration (see
    /// [`Scheduler::schedule_scoped`]).
    pub fn schedule_at_scoped(
        &mut self,
        at: SimTime,
        scope: impl FnOnce() -> String,
        f: impl FnOnce(&mut W, &mut Scheduler<'_, W>) + 'static,
    ) -> EventId {
        let id = self.schedule_at(at, f);
        if self.policy.is_exploring() {
            self.scopes.insert(id.0, scope());
        }
        id
    }

    /// Cancels a scheduled event; no-op if it already fired.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id);
    }

    /// Time of the next non-cancelled event, if any. Cancelled tombstones at
    /// the head of the queue are discarded as a side effect.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        while let Some(key) = self.queue.peek() {
            if self.cancelled.contains(&key.id) {
                let key = *key;
                self.queue.pop();
                self.cancelled.remove(&key.id);
                self.handlers.remove(&key.id.0);
                continue;
            }
            return Some(key.at);
        }
        None
    }

    /// Executes the next event, if any. Returns `false` when the queue is
    /// empty or a handler has requested a stop.
    pub fn step(&mut self) -> bool {
        if self.stop {
            return false;
        }
        let key = match &self.policy {
            SchedulePolicy::ById => loop {
                let Some(key) = self.queue.pop() else {
                    return false;
                };
                if self.cancelled.remove(&key.id) {
                    self.handlers.remove(&key.id.0);
                    continue;
                }
                if !self.handlers.contains_key(&key.id.0) {
                    continue;
                }
                break key;
            },
            SchedulePolicy::Explore { .. } => match self.pick_explored() {
                Some(key) => key,
                None => return false,
            },
        };
        let run = self.handlers.remove(&key.id.0).expect("selected event has a handler");
        self.scopes.remove(&key.id.0);
        // An exploration window can pick a later-stamped event first; the
        // clock then stays put when the earlier-stamped one fires (the same
        // clamp schedule_at applies to in-the-past requests).
        debug_assert!(
            self.policy.is_exploring() || key.at >= self.now,
            "time can never move backwards"
        );
        self.now = self.now.max(key.at);
        self.executed += 1;

        let scopes_on = self.policy.is_exploring();
        let mut deferred: Vec<(SimTime, u64, EventFn<W>)> = Vec::new();
        {
            // Event boundary: stamps are only attributed to an actor once
            // the handler names one via `begin_actor`.
            self.causality.clear_current();
            let mut sched = Scheduler {
                now: self.now,
                next_id: &mut self.next_id,
                deferred: &mut deferred,
                cancelled: &mut self.cancelled,
                rng: &mut self.rng,
                trace: &mut self.trace,
                stop: &mut self.stop,
                scopes: &mut self.scopes,
                scopes_on,
                causality: &mut self.causality,
            };
            run(&mut self.world, &mut sched);
        }
        for (at, seq, f) in deferred {
            self.queue.push(EventKey { at, id: EventId(seq) });
            self.handlers.insert(seq, f);
        }
        !self.stop
    }

    /// Exploration-mode event selection: gathers every live event within
    /// the tie window of the earliest one, consults the forced choice
    /// prefix, records the decision, and returns the chosen key (the rest
    /// go back on the queue).
    fn pick_explored(&mut self) -> Option<EventKey> {
        let SchedulePolicy::Explore { forced, window } = &self.policy else {
            unreachable!("caller checked the policy");
        };
        let window = *window;
        // Collect candidates in (at, id) order, discarding tombstones.
        let mut candidates: Vec<EventKey> = Vec::new();
        let mut horizon: Option<SimTime> = None;
        while let Some(key) = self.queue.peek().copied() {
            if let Some(h) = horizon {
                if key.at > h {
                    break;
                }
            }
            self.queue.pop();
            if self.cancelled.remove(&key.id) {
                self.handlers.remove(&key.id.0);
                self.scopes.remove(&key.id.0);
                continue;
            }
            if !self.handlers.contains_key(&key.id.0) {
                continue;
            }
            if horizon.is_none() {
                horizon = Some(key.at.saturating_add(window));
            }
            candidates.push(key);
        }
        if candidates.is_empty() {
            return None;
        }
        let chosen_idx = if candidates.len() == 1 {
            0
        } else {
            let idx = if self.forced_cursor < forced.len() {
                (forced[self.forced_cursor] as usize).min(candidates.len() - 1)
            } else {
                0
            };
            self.forced_cursor += 1;
            self.choice_log.push(ChoicePoint {
                at: candidates[0].at,
                arity: candidates.len() as u32,
                chosen: idx as u32,
                scopes: candidates
                    .iter()
                    .map(|k| self.scopes.get(&k.id.0).cloned().unwrap_or_default())
                    .collect(),
            });
            idx
        };
        let chosen = candidates.swap_remove(chosen_idx);
        for key in candidates {
            self.queue.push(key);
        }
        Some(chosen)
    }

    /// Runs until the queue drains, `horizon` passes, or a handler stops the
    /// run. On return the clock is at the stop point (exactly `horizon` if
    /// the run was horizon-limited or the queue drained early).
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        loop {
            match self.next_event_time() {
                Some(at) if at <= horizon => {
                    if !self.step() {
                        return self.now;
                    }
                }
                _ => {
                    // Queue empty or next event beyond the horizon: advance
                    // the clock to the horizon and stop.
                    if !self.stop {
                        self.now = self.now.max(horizon);
                    }
                    return self.now;
                }
            }
        }
    }

    /// Runs until the queue drains or `max_events` handlers have executed.
    ///
    /// # Panics
    ///
    /// Panics if `max_events` is exceeded, which almost always indicates a
    /// runaway self-rescheduling loop in a model.
    pub fn run_to_completion(&mut self, max_events: u64) -> SimTime {
        let start = self.executed;
        while self.step() {
            assert!(
                self.executed - start <= max_events,
                "simulation exceeded {max_events} events; runaway loop?"
            );
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new(Vec::new(), 0);
        sim.schedule(SimDuration::from_millis(30), |v, _| v.push(3));
        sim.schedule(SimDuration::from_millis(10), |v, _| v.push(1));
        sim.schedule(SimDuration::from_millis(20), |v, _| v.push(2));
        sim.run_to_completion(100);
        assert_eq!(sim.world(), &[1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new(Vec::new(), 0);
        for i in 0..10 {
            sim.schedule(SimDuration::from_millis(5), move |v, _| v.push(i));
        }
        sim.run_to_completion(100);
        assert_eq!(sim.world(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut sim = Sim::new(0u64, 0);
        fn tick(count: &mut u64, sched: &mut Scheduler<'_, u64>) {
            *count += 1;
            if *count < 5 {
                sched.schedule(SimDuration::from_millis(1), tick);
            }
        }
        sim.schedule(SimDuration::ZERO, tick);
        sim.run_to_completion(100);
        assert_eq!(*sim.world(), 5);
        assert_eq!(sim.now(), SimTime::from_millis(4));
    }

    #[test]
    fn cancellation_prevents_execution() {
        let mut sim = Sim::new(0u32, 0);
        let id = sim.schedule(SimDuration::from_millis(10), |c, _| *c += 1);
        sim.schedule(SimDuration::from_millis(20), |c, _| *c += 10);
        sim.cancel(id);
        sim.run_to_completion(10);
        assert_eq!(*sim.world(), 10);
    }

    #[test]
    fn cancellation_from_inside_a_handler() {
        let mut sim = Sim::new(0u32, 0);
        let victim = sim.schedule(SimDuration::from_millis(10), |c, _| *c += 1);
        sim.schedule(SimDuration::from_millis(5), move |_, sched| sched.cancel(victim));
        sim.run_to_completion(10);
        assert_eq!(*sim.world(), 0);
    }

    #[test]
    fn run_until_advances_clock_to_horizon() {
        let mut sim = Sim::new((), 0);
        sim.schedule(SimDuration::from_secs(10), |_, _| {});
        let t = sim.run_until(SimTime::from_secs(5));
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(sim.queued(), 1, "future event remains queued");
        let t = sim.run_until(SimTime::from_secs(20));
        assert_eq!(sim.executed(), 1);
        assert_eq!(t, SimTime::from_secs(20));
    }

    #[test]
    fn request_stop_halts_the_run() {
        let mut sim = Sim::new(0u32, 0);
        sim.schedule(SimDuration::from_millis(1), |c, sched| {
            *c += 1;
            sched.request_stop();
        });
        sim.schedule(SimDuration::from_millis(2), |c, _| *c += 100);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*sim.world(), 1);
        assert!(sim.stopped());
        assert_eq!(sim.now(), SimTime::from_millis(1));
    }

    #[test]
    fn schedule_at_clamps_to_now() {
        let mut sim = Sim::new(0u32, 0);
        sim.schedule(SimDuration::from_millis(10), |_, sched| {
            // Attempt to schedule in the past; must fire "now", not earlier.
            sched.schedule_at(SimTime::ZERO, |c, sched| {
                assert_eq!(sched.now(), SimTime::from_millis(10));
                *c += 1;
            });
        });
        sim.run_to_completion(10);
        assert_eq!(*sim.world(), 1);
    }

    #[test]
    fn rng_is_reachable_and_deterministic() {
        let draw = |seed| {
            let mut sim = Sim::new(0u64, seed);
            sim.schedule(SimDuration::ZERO, |w, sched| {
                *w = sched.rng().uniform_u64(0..1_000_000);
            });
            sim.run_to_completion(10);
            *sim.world()
        };
        assert_eq!(draw(77), draw(77));
        assert_ne!(draw(77), draw(78));
    }

    #[test]
    fn trace_records_at_current_time() {
        let mut sim = Sim::new((), 0);
        sim.schedule(SimDuration::from_millis(7), |_, sched| {
            sched.record(TraceCategory::App, "hello");
        });
        sim.run_to_completion(10);
        let e = &sim.trace().entries()[0];
        assert_eq!(e.at, SimTime::from_millis(7));
        assert_eq!(e.message, "hello");
    }

    #[test]
    fn explore_default_choices_match_by_id_order() {
        let run = |policy| {
            let mut sim: Sim<Vec<u32>> = Sim::new(Vec::new(), 0);
            sim.set_schedule_policy(policy);
            for i in 0..4 {
                sim.schedule(SimDuration::from_millis(5), move |v, _| v.push(i));
            }
            sim.run_to_completion(100);
            sim.world().clone()
        };
        assert_eq!(run(SchedulePolicy::ById), run(SchedulePolicy::explore(vec![])));
    }

    #[test]
    fn forced_choices_reorder_ties_and_are_recorded() {
        let mut sim: Sim<Vec<u32>> = Sim::new(Vec::new(), 0);
        sim.set_schedule_policy(SchedulePolicy::explore(vec![2, 1]));
        for i in 0..4 {
            sim.schedule(SimDuration::from_millis(5), move |v, _| v.push(i));
        }
        sim.run_to_completion(100);
        // First choice picks index 2 of [0,1,2,3] → 2; next picks index 1
        // of [0,1,3] → 1; then defaults.
        assert_eq!(sim.world(), &[2, 1, 0, 3]);
        let points = sim.choice_points();
        assert_eq!(points.len(), 3, "the final singleton is not a choice point");
        assert_eq!(points[0].arity, 4);
        assert_eq!(sim.choices_taken(), vec![2, 1, 0]);
    }

    #[test]
    fn recorded_choices_replay_identically() {
        let run = |forced: Vec<u32>| {
            let mut sim: Sim<Vec<u32>> = Sim::new(Vec::new(), 9);
            sim.set_schedule_policy(SchedulePolicy::explore(forced));
            for i in 0..5 {
                sim.schedule(SimDuration::from_millis(1), move |v, sched| {
                    v.push(i);
                    if i == 2 {
                        sched.schedule(SimDuration::ZERO, |v, _| v.push(99));
                    }
                });
            }
            sim.run_to_completion(100);
            (sim.world().clone(), sim.choices_taken())
        };
        let (order, taken) = run(vec![3, 0, 2]);
        let (replayed, retaken) = run(taken.clone());
        assert_eq!(order, replayed);
        assert_eq!(taken, retaken);
    }

    #[test]
    fn scope_labels_reach_choice_points() {
        let mut sim: Sim<()> = Sim::new((), 0);
        sim.set_schedule_policy(SchedulePolicy::explore(vec![]));
        sim.schedule_at_scoped(SimTime::from_millis(1), || "left".into(), |_, _| {});
        sim.schedule_at_scoped(SimTime::from_millis(1), || "right".into(), |_, _| {});
        sim.run_to_completion(10);
        assert_eq!(sim.choice_points()[0].scopes, vec!["left".to_string(), "right".into()]);
    }

    #[test]
    fn scope_labels_skipped_when_not_exploring() {
        let mut sim: Sim<u32> = Sim::new(0, 0);
        sim.schedule_at_scoped(
            SimTime::from_millis(1),
            || panic!("label must not be materialized under ById"),
            |n, _| *n += 1,
        );
        sim.schedule(SimDuration::from_millis(1), |n, sched| {
            assert!(!sched.scopes_enabled());
            sched.schedule_scoped(
                SimDuration::from_millis(1),
                || panic!("nor from inside a handler"),
                |n, _| *n += 1,
            );
            *n += 1;
        });
        sim.run_to_completion(10);
        assert_eq!(*sim.world(), 3);
    }

    #[test]
    fn cancelled_events_never_become_candidates() {
        let mut sim: Sim<Vec<u32>> = Sim::new(Vec::new(), 0);
        sim.set_schedule_policy(SchedulePolicy::explore(vec![1]));
        let victim = sim.schedule(SimDuration::from_millis(5), |v, _| v.push(0));
        sim.schedule(SimDuration::from_millis(5), |v, _| v.push(1));
        sim.schedule(SimDuration::from_millis(5), |v, _| v.push(2));
        sim.cancel(victim);
        sim.run_to_completion(10);
        // Candidates are [1, 2]; forced index 1 picks 2.
        assert_eq!(sim.world(), &[2, 1]);
        assert_eq!(sim.choice_points()[0].arity, 2);
    }

    #[test]
    fn tie_window_groups_nearby_events() {
        let mut sim: Sim<Vec<u32>> = Sim::new(Vec::new(), 0);
        sim.set_schedule_policy(SchedulePolicy::Explore {
            forced: vec![1],
            window: SimDuration::from_micros(100),
        });
        sim.schedule(SimDuration::from_micros(10), |v, _| v.push(0));
        sim.schedule(SimDuration::from_micros(50), |v, _| v.push(1));
        sim.schedule(SimDuration::from_millis(10), |v, _| v.push(2));
        sim.run_to_completion(10);
        // The 10µs and 50µs events share a window; the forced choice runs
        // the later-stamped one first and the clock never goes backwards.
        assert_eq!(sim.world(), &[1, 0, 2]);
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "runaway loop")]
    fn runaway_loops_are_caught() {
        let mut sim = Sim::new((), 0);
        fn again(_: &mut (), sched: &mut Scheduler<'_, ()>) {
            sched.schedule(SimDuration::from_millis(1), again);
        }
        sim.schedule(SimDuration::ZERO, again);
        sim.run_to_completion(50);
    }
}
