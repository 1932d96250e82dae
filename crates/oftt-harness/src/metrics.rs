//! Outcome records and aggregation for the experiments.

use ds_sim::prelude::{Samples, SimDuration, SimTime};

/// What happened in one fault-injection run (experiments E1–E4).
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// The fault instant.
    pub fault_at: SimTime,
    /// An application copy was active again after the fault.
    pub recovered: bool,
    /// Fault → surviving/restarted application active.
    pub recovery_latency: Option<SimDuration>,
    /// Fault → surviving engine promoted (node/OS/middleware classes) or
    /// failure detected (application class).
    pub detection_latency: Option<SimDuration>,
    /// Events emitted by the workload over the whole run.
    pub emitted: u64,
    /// Events the (final) application state accounts for.
    pub processed: u64,
    /// Emitted − processed: positive = lost, negative = duplicated.
    pub lost: i64,
    /// Whether both application copies were ever active simultaneously.
    pub dual_active_seen: bool,
}

impl FailoverOutcome {
    /// Loss as a fraction of emitted events.
    pub fn loss_fraction(&self) -> f64 {
        if self.emitted == 0 {
            0.0
        } else {
            self.lost.max(0) as f64 / self.emitted as f64
        }
    }
}

/// Aggregate of many [`FailoverOutcome`]s (seed sweep).
#[derive(Debug, Default)]
pub struct FailoverAggregate {
    /// Recovery latencies (seconds) of recovered runs.
    pub recovery_s: Samples,
    /// Detection latencies (seconds).
    pub detection_s: Samples,
    /// Per-run loss counts.
    pub lost: Samples,
    /// Runs that recovered.
    pub recovered: u32,
    /// Runs total.
    pub total: u32,
    /// Runs where both copies were active at once.
    pub dual_active: u32,
}

impl FailoverAggregate {
    /// Folds one outcome in.
    pub fn push(&mut self, outcome: &FailoverOutcome) {
        self.total += 1;
        if outcome.recovered {
            self.recovered += 1;
        }
        if outcome.dual_active_seen {
            self.dual_active += 1;
        }
        if let Some(d) = outcome.recovery_latency {
            self.recovery_s.push(d.as_secs_f64());
        }
        if let Some(d) = outcome.detection_latency {
            self.detection_s.push(d.as_secs_f64());
        }
        self.lost.push(outcome.lost.max(0) as f64);
    }
}

impl Extend<FailoverOutcome> for FailoverAggregate {
    fn extend<T: IntoIterator<Item = FailoverOutcome>>(&mut self, iter: T) {
        for outcome in iter {
            self.push(&outcome);
        }
    }
}

/// One checkpoint-policy run (experiment E5).
#[derive(Debug, Clone)]
pub struct CheckpointOutcome {
    /// Checkpoints shipped.
    pub ckpts_sent: u64,
    /// Of which full images.
    pub fulls_sent: u64,
    /// Of which resent because no ack confirmed an image in time.
    pub unconfirmed_refreshes: u64,
    /// Acks that reported an image other than the one shipped.
    pub image_mismatches: u64,
    /// Newest `(term, seq)` acknowledged by the backup.
    pub last_acked: (u64, u64),
    /// Newest `(term, seq)` whose image the backup's ack confirmed.
    pub last_confirmed: (u64, u64),
    /// Total bytes shipped.
    pub bytes_sent: u64,
    /// Bytes per simulated second of primary uptime.
    pub bytes_per_sec: f64,
    /// State recovered after the injected switchover.
    pub recovered_state_ok: bool,
    /// Events lost across the switchover.
    pub lost: i64,
}

/// One detection-tuning run (experiment E6).
#[derive(Debug, Clone)]
pub struct DetectionOutcome {
    /// Fault → promotion, when a fault was injected.
    pub detection_latency: Option<SimDuration>,
    /// Primary↔backup switches not caused by any injected fault.
    pub false_switchovers: u32,
}

/// One startup run (experiment E7).
#[derive(Debug, Clone)]
pub struct StartupOutcome {
    /// Both engines settled into a primary/backup pair.
    pub pair_formed: bool,
    /// Time from first boot to pair formation.
    pub formation_time: Option<SimDuration>,
    /// Engines that shut themselves down at startup.
    pub startup_shutdowns: u32,
    /// Both engines believed primary at the measurement horizon.
    pub dual_primary: bool,
}

/// One diverter run (experiment E8).
#[derive(Debug, Clone)]
pub struct DiverterOutcome {
    /// Events emitted.
    pub emitted: u64,
    /// Events processed by the logical application.
    pub processed: u64,
    /// Emitted − processed.
    pub lost: i64,
    /// Sender-side retransmissions (the "detected and retried" mechanism).
    pub retransmissions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(recovered: bool, lost: i64) -> FailoverOutcome {
        FailoverOutcome {
            fault_at: SimTime::from_secs(30),
            recovered,
            recovery_latency: recovered.then(|| SimDuration::from_millis(1500)),
            detection_latency: Some(SimDuration::from_millis(1100)),
            emitted: 100,
            processed: (100 - lost.max(0)) as u64,
            lost,
            dual_active_seen: false,
        }
    }

    #[test]
    fn aggregate_folds_outcomes() {
        let mut agg = FailoverAggregate::default();
        agg.extend([outcome(true, 2), outcome(true, 0), outcome(false, 50)]);
        assert_eq!(agg.total, 3);
        assert_eq!(agg.recovered, 2);
        assert_eq!(agg.recovery_s.len(), 2);
        assert_eq!(agg.lost.max(), 50.0);
    }

    #[test]
    fn loss_fraction_clamps_duplicates() {
        assert_eq!(outcome(true, -3).loss_fraction(), 0.0);
        assert!((outcome(true, 2).loss_fraction() - 0.02).abs() < 1e-12);
    }
}
