//! Network links between nodes.
//!
//! A [`Link`] joins two nodes through one or more redundant *paths* —
//! modelling the paper's "paired up via one or dual Ethernet networks"
//! (Section 2.1). A message uses the lowest-numbered healthy path; if every
//! path is down or partitioned, the message is dropped. Per-path latency is
//! `base + jitter + size/bandwidth`, with an independent loss probability.

use ds_sim::prelude::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// Configuration for one path of a link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathConfig {
    /// Fixed propagation + protocol latency.
    pub base_latency: SimDuration,
    /// Uniform jitter applied on top of `base_latency` (±).
    pub jitter: SimDuration,
    /// Probability a given message is lost, in `[0, 1]`.
    pub loss_probability: f64,
    /// Usable bandwidth in bytes per second (drives size-dependent delay).
    pub bandwidth_bps: u64,
}

impl Default for PathConfig {
    /// A healthy switched 100 Mbit LAN segment, NT-era.
    fn default() -> Self {
        PathConfig {
            base_latency: SimDuration::from_micros(300),
            jitter: SimDuration::from_micros(100),
            loss_probability: 0.0,
            bandwidth_bps: 12_500_000, // 100 Mbit/s
        }
    }
}

impl PathConfig {
    /// A lossy path with the given drop probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0, 1]");
        self.loss_probability = p;
        self
    }
}

/// Dynamic state of one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathState {
    /// Carrying traffic.
    Up,
    /// Failed (cable pull, NIC death) — injected by the fault layer.
    Down,
}

/// One redundant path: static config plus dynamic state.
#[derive(Debug, Clone)]
pub struct Path {
    /// Static parameters.
    pub config: PathConfig,
    /// Current state.
    pub state: PathState,
}

/// The outcome of offering a message to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Deliver after this delay (includes transmission time).
    Deliver(SimDuration),
    /// Dropped by random loss on the chosen path.
    Lost,
    /// No healthy path (all down or link partitioned).
    NoPath,
}

/// A (possibly multi-path) connection between two nodes.
#[derive(Debug, Clone)]
pub struct Link {
    paths: Vec<Path>,
    partitioned: bool,
}

impl Link {
    /// Creates a link with the given redundant paths.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty.
    pub fn new(paths: Vec<PathConfig>) -> Self {
        assert!(!paths.is_empty(), "a link needs at least one path");
        Link {
            paths: paths.into_iter().map(|config| Path { config, state: PathState::Up }).collect(),
            partitioned: false,
        }
    }

    /// A single-path link with default parameters.
    pub fn single() -> Self {
        Link::new(vec![PathConfig::default()])
    }

    /// A dual-Ethernet link (two independent default paths), the paper's
    /// recommended configuration.
    pub fn dual() -> Self {
        Link::new(vec![PathConfig::default(), PathConfig::default()])
    }

    /// Number of paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Sets one path up or down.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_path_state(&mut self, index: usize, state: PathState) {
        self.paths[index].state = state;
    }

    /// Retunes latency, jitter, and bandwidth on every path, keeping each
    /// path's loss probability and up/down state. This is the fault layer's
    /// handle for degraded-but-alive media (saturated switch, flow-controlled
    /// NIC): traffic still flows, just slowly.
    pub fn tune_paths(&mut self, base: SimDuration, jitter: SimDuration, bandwidth_bps: u64) {
        for path in &mut self.paths {
            path.config.base_latency = base;
            path.config.jitter = jitter;
            path.config.bandwidth_bps = bandwidth_bps.max(1);
        }
    }

    /// Marks the whole link partitioned (no path passes traffic) or heals it.
    pub fn set_partitioned(&mut self, partitioned: bool) {
        self.partitioned = partitioned;
    }

    /// `true` if at least one path is up and the link is not partitioned.
    pub fn is_usable(&self) -> bool {
        !self.partitioned && self.paths.iter().any(|p| p.state == PathState::Up)
    }

    /// Routes one message of `size_bytes`, drawing jitter and loss from
    /// `rng`. The first healthy path carries the message (fail-over between
    /// redundant Ethernets was below the application in the paper's setup,
    /// so it is instantaneous here).
    pub fn route(&self, size_bytes: u64, rng: &mut SimRng) -> RouteOutcome {
        if self.partitioned {
            return RouteOutcome::NoPath;
        }
        let Some(path) = self.paths.iter().find(|p| p.state == PathState::Up) else {
            return RouteOutcome::NoPath;
        };
        if rng.chance(path.config.loss_probability) {
            return RouteOutcome::Lost;
        }
        let jittered = rng.jittered(path.config.base_latency, path.config.jitter);
        let tx_secs = size_bytes as f64 / path.config.bandwidth_bps as f64;
        RouteOutcome::Deliver(jittered + SimDuration::from_secs_f64(tx_secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(1)
    }

    #[test]
    fn healthy_link_delivers_with_latency() {
        let link = Link::single();
        match link.route(128, &mut rng()) {
            RouteOutcome::Deliver(d) => {
                assert!(d >= SimDuration::from_micros(200), "got {d}");
                assert!(d <= SimDuration::from_micros(500), "got {d}");
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn size_dependent_transmission_delay() {
        let link = Link::new(vec![PathConfig {
            base_latency: SimDuration::from_micros(100),
            jitter: SimDuration::ZERO,
            ..PathConfig::default()
        }]);
        let small = match link.route(1_000, &mut rng()) {
            RouteOutcome::Deliver(d) => d,
            other => panic!("{other:?}"),
        };
        let big = match link.route(10_000_000, &mut rng()) {
            RouteOutcome::Deliver(d) => d,
            other => panic!("{other:?}"),
        };
        assert!(big > small * 10, "10 MB ({big}) should dwarf 1 KB ({small})");
    }

    #[test]
    fn dual_link_survives_single_path_failure() {
        let mut link = Link::dual();
        link.set_path_state(0, PathState::Down);
        assert!(link.is_usable());
        assert!(matches!(link.route(128, &mut rng()), RouteOutcome::Deliver(_)));
        link.set_path_state(1, PathState::Down);
        assert!(!link.is_usable());
        assert_eq!(link.route(128, &mut rng()), RouteOutcome::NoPath);
    }

    #[test]
    fn partition_blocks_all_paths() {
        let mut link = Link::dual();
        link.set_partitioned(true);
        assert_eq!(link.route(128, &mut rng()), RouteOutcome::NoPath);
        link.set_partitioned(false);
        assert!(matches!(link.route(128, &mut rng()), RouteOutcome::Deliver(_)));
    }

    #[test]
    fn loss_probability_drops_roughly_that_fraction() {
        let link = Link::new(vec![PathConfig::default().with_loss(0.3)]);
        let mut rng = rng();
        let n = 10_000;
        let lost =
            (0..n).filter(|_| matches!(link.route(128, &mut rng), RouteOutcome::Lost)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed loss rate {rate}");
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn empty_link_rejected() {
        Link::new(vec![]);
    }
}
