//! The Call Track application (paper §4).
//!
//! "The application keeps track of the usage of a simulated small office
//! telephone system that consists of 5 telephone lines and 10 callers.
//! Numbers of busy lines are displayed in the histogram. The application is
//! preferred to be fault tolerant since it records the past and present
//! states of the system."
//!
//! Call events arrive through the OFTT message diverter; the application
//! maintains the busy-line set, the histogram of busy-line counts, and
//! call totals — all checkpointed state.

use std::sync::Arc;

use ds_net::message::Envelope;
use ds_sim::prelude::{SimDuration, SimTime};
use msgq::client::QueueConsumer;
use msgq::manager::manager_endpoint;
use oftt::checkpoint::VarSet;
use oftt::config::APP_IN_QUEUE;
use oftt::ftim::{FtApplication, FtCtx};
use parking_lot::Mutex;
use plant::telephone::CallEvent;
use serde::{Deserialize, Serialize};

/// The checkpointed state of the Call Track application.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CallTrackState {
    /// `busy[i]` — whether line `i` is currently in use.
    pub busy: Vec<bool>,
    /// `histogram[k]` — time-steps observed with exactly `k` busy lines
    /// (bumped per event, as the paper's display was event-driven).
    pub histogram: Vec<u64>,
    /// Total calls started.
    pub started: u64,
    /// Total calls completed.
    pub ended: u64,
    /// Total blocked attempts.
    pub blocked: u64,
    /// Total events processed (exactly-once metric).
    pub events: u64,
    /// Timestamp of the newest processed event.
    pub last_event_at: SimTime,
}

impl CallTrackState {
    /// Fresh state for an office with `lines` lines.
    pub fn new(lines: usize) -> Self {
        CallTrackState {
            busy: vec![false; lines],
            histogram: vec![0; lines + 1],
            ..Default::default()
        }
    }

    /// Lines currently busy.
    pub fn busy_count(&self) -> usize {
        self.busy.iter().filter(|b| **b).count()
    }

    /// Applies one event. Tolerates inconsistencies that arise from a
    /// bounded checkpoint-loss window (e.g. an `Ended` whose `Started` was
    /// lost) by clamping rather than panicking — the operator display must
    /// keep working through a failover.
    pub fn apply(&mut self, event: &CallEvent) {
        match event {
            CallEvent::Started { line, .. } => {
                if let Some(slot) = self.busy.get_mut(*line as usize) {
                    *slot = true;
                }
                self.started += 1;
            }
            CallEvent::Ended { line, .. } => {
                if let Some(slot) = self.busy.get_mut(*line as usize) {
                    *slot = false;
                }
                self.ended += 1;
            }
            CallEvent::Blocked { .. } => {
                self.blocked += 1;
            }
        }
        let k = self.busy_count();
        if let Some(bucket) = self.histogram.get_mut(k) {
            *bucket += 1;
        }
        self.events += 1;
        self.last_event_at = event.at();
    }

    /// Renders the paper's busy-lines histogram as text.
    pub fn render_histogram(&self) -> String {
        let max = self.histogram.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::from("busy lines | observations\n");
        for (k, &count) in self.histogram.iter().enumerate() {
            let bar = (count as usize * 40) / max as usize;
            out.push_str(&format!("{k:>10} | {:<40} {count}\n", "#".repeat(bar)));
        }
        out
    }
}

/// Timer token for the periodic re-attach (below the FTIM namespace).
const REATTACH_TICK: u64 = 1;

/// The Call Track application, ready to wrap in
/// [`oftt::ftim::FtProcess`].
pub struct CallTrack {
    state: CallTrackState,
    consumer: Option<QueueConsumer>,
    /// Live view for assertions and displays: (state, active).
    view: Arc<Mutex<(CallTrackState, bool)>>,
    /// Arm a deadman watchdog with this period, if set.
    watchdog: Option<SimDuration>,
    /// Watchdog firings observed (shared).
    watchdog_fires: Arc<Mutex<Vec<SimTime>>>,
}

impl CallTrack {
    /// Creates the application for an office with `lines` lines.
    pub fn new(
        lines: usize,
        view: Arc<Mutex<(CallTrackState, bool)>>,
        watchdog: Option<SimDuration>,
        watchdog_fires: Arc<Mutex<Vec<SimTime>>>,
    ) -> Self {
        // A fresh incarnation is inactive with empty state.
        *view.lock() = (CallTrackState::new(lines), false);
        CallTrack {
            state: CallTrackState::new(lines),
            consumer: None,
            view,
            watchdog,
            watchdog_fires,
        }
    }

    fn publish(&self, active: bool) {
        *self.view.lock() = (self.state.clone(), active);
    }
}

impl FtApplication for CallTrack {
    fn snapshot(&self) -> VarSet {
        [("state".to_string(), comsim::marshal::to_shared(&self.state).expect("state marshals"))]
            .into_iter()
            .collect()
    }

    fn restore(&mut self, image: &VarSet) {
        if let Some(bytes) = image.get("state") {
            if let Ok(state) = comsim::marshal::from_bytes::<CallTrackState>(bytes) {
                self.state = state;
            }
        }
        self.publish(false);
    }

    fn on_activate(&mut self, ctx: &mut FtCtx<'_>) {
        let node = ctx.env().self_endpoint().node;
        let consumer = QueueConsumer::new(manager_endpoint(node), APP_IN_QUEUE);
        consumer.attach(ctx.env());
        self.consumer = Some(consumer);
        if let Some(period) = self.watchdog {
            let _ = ctx.watchdog_create("deadman", period);
            let _ = ctx.watchdog_set("deadman");
            // Seeded defect (c): premature cleanup — the deadman is deleted
            // right after arming, so every later reset from
            // `on_app_message` names an unknown watchdog, which the FTIM
            // reports and oftt-check's `api-lifecycle` must flag.
            #[cfg(feature = "inject_bugs")]
            let _ = ctx.watchdog_delete("deadman");
        }
        ctx.env().set_timer(SimDuration::from_secs(1), REATTACH_TICK);
        self.publish(true);
    }

    fn on_deactivate(&mut self, ctx: &mut FtCtx<'_>) {
        if let Some(consumer) = self.consumer.take() {
            consumer.detach(ctx.env());
        }
        if self.watchdog.is_some() {
            // Release the deadman on the way out so a deliberate deactivation
            // does not leave a leaked watchdog behind. Deleting twice (e.g.
            // after a use-after-delete defect fired) is tolerated.
            let _ = ctx.watchdog_delete("deadman");
        }
        self.publish(false);
    }

    fn on_app_timer(&mut self, token: u64, ctx: &mut FtCtx<'_>) {
        if token == REATTACH_TICK {
            if let Some(consumer) = &self.consumer {
                consumer.attach(ctx.env());
            }
            ctx.env().set_timer(SimDuration::from_secs(1), REATTACH_TICK);
        }
    }

    fn on_app_message(&mut self, envelope: Envelope, ctx: &mut FtCtx<'_>) {
        let Some(consumer) = &self.consumer else { return };
        if let Ok(msg) = consumer.handle_message(envelope, ctx.env()) {
            if let Ok(event) = comsim::marshal::from_bytes::<CallEvent>(&msg.body) {
                self.state.apply(&event);
                if self.watchdog.is_some() {
                    let _ = ctx.watchdog_reset("deadman");
                }
                self.publish(true);
            }
        }
    }

    fn on_watchdog(&mut self, name: &str, ctx: &mut FtCtx<'_>) {
        if name == "deadman" {
            self.watchdog_fires.lock().push(ctx.now());
            // Paper usage: a stuck feed is a significant problem worth
            // reporting; re-arm and continue.
            let _ = ctx.watchdog_set("deadman");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(line: u32, at: u64) -> CallEvent {
        CallEvent::Started { caller: 0, line, at: SimTime::from_secs(at) }
    }
    fn ended(line: u32, at: u64) -> CallEvent {
        CallEvent::Ended { caller: 0, line, at: SimTime::from_secs(at) }
    }

    #[test]
    fn state_tracks_busy_lines_and_histogram() {
        let mut state = CallTrackState::new(5);
        state.apply(&started(0, 1));
        state.apply(&started(3, 2));
        assert_eq!(state.busy_count(), 2);
        state.apply(&ended(0, 3));
        assert_eq!(state.busy_count(), 1);
        assert_eq!(state.started, 2);
        assert_eq!(state.ended, 1);
        assert_eq!(state.events, 3);
        // Histogram buckets: after e1 -> 1 busy, after e2 -> 2, after e3 -> 1.
        assert_eq!(state.histogram[1], 2);
        assert_eq!(state.histogram[2], 1);
        assert_eq!(state.last_event_at, SimTime::from_secs(3));
    }

    #[test]
    fn state_is_tolerant_of_loss_windows() {
        let mut state = CallTrackState::new(5);
        // Ended without Started, out-of-range line: clamp, don't panic.
        state.apply(&ended(2, 1));
        state.apply(&started(99, 2));
        assert_eq!(state.events, 2);
        assert_eq!(state.busy_count(), 0);
    }

    #[test]
    fn state_round_trips_through_marshal() {
        let mut state = CallTrackState::new(5);
        state.apply(&started(1, 1));
        let bytes = comsim::marshal::to_bytes(&state).unwrap();
        let back: CallTrackState = comsim::marshal::from_bytes(&bytes).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn histogram_renders() {
        let mut state = CallTrackState::new(5);
        state.apply(&started(0, 1));
        let text = state.render_histogram();
        assert!(text.contains("busy lines"));
        assert!(text.lines().count() >= 7);
    }
}
