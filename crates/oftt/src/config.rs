//! Toolkit configuration: the pair, detection timeouts, checkpoint policy,
//! recovery rules, and the startup policy of paper Section 3.2.
//!
//! It is also the one place a tunable has a name: campaign files and
//! `oftt-node` config files both parse theirs through [`OfttConfig::set`],
//! then run [`OfttConfig::check`] once on the finished table.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use ds_net::endpoint::{Endpoint, NodeId, ServiceName};
use ds_sim::prelude::SimDuration;
use serde::{Deserialize, Serialize};

/// Conventional service name for the OFTT engine on each pair node.
pub fn engine_service() -> ServiceName {
    ServiceName::new("oftt-engine")
}

/// The engine endpoint on `node`.
pub fn engine_endpoint(node: NodeId) -> Endpoint {
    Endpoint::new(node, engine_service())
}

/// Conventional queue name for diverted application input.
pub const APP_IN_QUEUE: &str = "app-in";

/// The two nodes forming one logical execution unit (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pair {
    /// First node of the pair.
    pub a: NodeId,
    /// Second node of the pair.
    pub b: NodeId,
}

impl Pair {
    /// Creates a pair.
    ///
    /// # Panics
    ///
    /// Panics if both nodes are the same.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "a redundant pair needs two distinct nodes");
        Pair { a, b }
    }

    /// The peer of `node` within the pair.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a member.
    #[expect(clippy::panic, reason = "a documented precondition, like `Pair::new`'s")]
    pub fn peer_of(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else if node == self.b {
            self.a
        } else {
            panic!("{node} is not a member of the pair");
        }
    }

    /// `true` if `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        node == self.a || node == self.b
    }
}

/// What the engine does when a monitored component stops heartbeating
/// (paper §2.2.1 "recovery rule": local recovery for transient faults,
/// switchover for permanent ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryRule {
    /// Restart the component in place, up to `max_attempts` times within a
    /// run of failures (defined in [`crate::recover`]); the next failure of
    /// the run escalates to switchover.
    LocalRestart {
        /// Restarts before escalating.
        max_attempts: u32,
    },
    /// Hand control to the backup node immediately.
    Switchover,
}

impl Default for RecoveryRule {
    fn default() -> Self {
        RecoveryRule::LocalRestart { max_attempts: 2 }
    }
}

/// What a negotiating engine does once its startup retries are exhausted
/// with no word from the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StartupFallback {
    /// Shut down (the paper's choice: protects against a partitioned
    /// startup creating two primaries).
    ShutDown,
    /// Assume the peer is dead and run as primary (trades dual-primary
    /// risk for availability; measured in experiment E7).
    BecomePrimary,
}

/// How application state is shipped to the backup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointMode {
    /// Every designated variable, every checkpoint (the "memory
    /// walkthrough" of paper §2.2.2).
    Full,
    /// Only variables whose content changed since the last shipped
    /// checkpoint (the user-directed optimization of refs [10, 11]). A
    /// full image is sent first in every term, and again only when there
    /// is a reason: the backup asked (NACK), the designation changed, an
    /// ack's image checksum differed from the one shipped — or no ack
    /// confirmed anything for `refresh_every` ship opportunities. A pair
    /// whose acks confirm its images never resends one.
    Selective {
        /// Ship opportunities (checkpoint periods and `OFTTSave` calls,
        /// whether or not anything had changed) an unconfirmed ship may
        /// wait for an ack carrying its image checksum before the whole
        /// image is resent. A silent peer therefore gets one full image
        /// per `refresh_every` deltas; a confirming one gets none.
        refresh_every: u32,
    },
}

impl Default for CheckpointMode {
    fn default() -> Self {
        CheckpointMode::Selective { refresh_every: 32 }
    }
}

/// Complete toolkit configuration, shared by engines and FTIMs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OfttConfig {
    /// The redundant pair.
    pub pair: Pair,
    /// Cadence of all heartbeats (component→engine, engine↔engine).
    pub heartbeat_period: SimDuration,
    /// Silence before a local component is declared failed.
    pub component_timeout: SimDuration,
    /// Silence before the peer engine/node is declared failed.
    pub peer_timeout: SimDuration,
    /// Silence from the local engine before an FTIM fail-safes its
    /// application (failure class *d*). Must be shorter than
    /// `peer_timeout` so a possibly-promoted peer never overlaps a
    /// still-active application on the node with the dead engine.
    pub fail_safe_timeout: SimDuration,
    /// Cadence of periodic checkpoints.
    pub checkpoint_period: SimDuration,
    /// Wait per startup negotiation attempt.
    pub startup_timeout: SimDuration,
    /// Negotiation attempts before the fallback applies. The paper's
    /// original design had effectively 1 (and shut down frequently, §3.2);
    /// the shipped fix retries several times.
    pub startup_retries: u32,
    /// Behaviour when retries are exhausted.
    pub startup_fallback: StartupFallback,
    /// Checkpoint shipping policy.
    pub checkpoint_mode: CheckpointMode,
    /// Where engines send status reports, if a System Monitor is deployed
    /// (not required for fault tolerance, paper §2.2.4).
    pub monitor: Option<Endpoint>,
    /// Status report cadence.
    pub status_period: SimDuration,
    /// Seeded-defect switches (effective only under the `inject_bugs`
    /// feature; inert otherwise so configurations stay portable).
    pub defects: crate::transition::Defects,
}

impl OfttConfig {
    /// A configuration with paper-plausible defaults for the given pair.
    pub fn new(pair: Pair) -> Self {
        OfttConfig {
            pair,
            heartbeat_period: SimDuration::from_millis(250),
            component_timeout: SimDuration::from_millis(1_000),
            peer_timeout: SimDuration::from_millis(1_000),
            fail_safe_timeout: SimDuration::from_millis(600),
            checkpoint_period: SimDuration::from_millis(1_000),
            startup_timeout: SimDuration::from_secs(5),
            startup_retries: 3,
            startup_fallback: StartupFallback::ShutDown,
            checkpoint_mode: CheckpointMode::default(),
            monitor: None,
            status_period: SimDuration::from_secs(1),
            defects: crate::transition::Defects::default(),
        }
    }

    /// Checks internal consistency, returning the first broken rule.
    /// Callers that assemble configurations from untrusted input (the
    /// campaign runner's parameter overrides, `oftt-node`'s config file)
    /// use this to reject bad combinations before a service ever boots
    /// with them.
    ///
    /// # Errors
    ///
    /// Returns a description of the zero period (a timer re-armed at zero
    /// fires forever at one instant) or the violated timeout ordering.
    pub fn check(&self) -> Result<(), &'static str> {
        let periods = [
            (self.heartbeat_period, "heartbeat period must be positive"),
            (self.checkpoint_period, "checkpoint period must be positive"),
            (self.status_period, "status period must be positive"),
            (self.startup_timeout, "startup timeout must be positive"),
        ];
        if let Some((_, why)) = periods.into_iter().find(|(period, _)| period.is_zero()) {
            return Err(why);
        }
        if self.component_timeout <= self.heartbeat_period {
            return Err("component timeout must exceed the heartbeat period");
        }
        if self.peer_timeout <= self.heartbeat_period {
            return Err("peer timeout must exceed the heartbeat period");
        }
        if self.fail_safe_timeout <= self.heartbeat_period {
            return Err("fail-safe timeout must exceed the heartbeat period");
        }
        if self.fail_safe_timeout >= self.peer_timeout {
            return Err("fail-safe must beat peer takeover, or class-d failures can \
                 leave two active applications");
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if a timeout is not longer than the heartbeat period (the
    /// detector would false-positive on every beat); see
    /// [`OfttConfig::check`] for the non-panicking form.
    #[expect(clippy::panic, reason = "the panicking form; `check` is the fallible one")]
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// Every key [`OfttConfig::set`] accepts: the tunables' one vocabulary.
    pub const KEYS: &'static [&'static str] = &[
        "heartbeat_period_ms",
        "component_timeout_ms",
        "peer_timeout_ms",
        "fail_safe_timeout_ms",
        "checkpoint_period_ms",
        "startup_timeout_ms",
        "status_period_ms",
        "startup_retries",
        "startup_fallback",
        "checkpoint_refresh_every",
    ];

    /// Sets the tunable `key` names from untrusted text, range-checking
    /// `value` and writing nothing on an error. The cross-field rules are
    /// [`OfttConfig::check`]'s, for the caller to run once its whole table
    /// is applied: per key, `fail_safe_timeout_ms: 1500` would be refused
    /// against the default peer timeout before `peer_timeout_ms: 2000`.
    ///
    /// # Errors
    ///
    /// [`OverrideError::UnknownKey`] for keys outside [`OfttConfig::KEYS`];
    /// [`OverrideError::BadValue`] for mistyped or out-of-range values.
    pub fn set(&mut self, key: &str, value: &OverrideValue) -> Result<(), OverrideError> {
        let unknown = || OverrideError::UnknownKey { key: key.to_string(), also_valid: &[] };
        let Some(&key) = Self::KEYS.iter().find(|valid| **valid == key) else {
            return Err(unknown());
        };
        let rejected = |detail: String| OverrideError::BadValue { key, detail };
        match key {
            "heartbeat_period_ms" => self.heartbeat_period = duration_ms(key, value)?,
            "component_timeout_ms" => self.component_timeout = duration_ms(key, value)?,
            "peer_timeout_ms" => self.peer_timeout = duration_ms(key, value)?,
            "fail_safe_timeout_ms" => self.fail_safe_timeout = duration_ms(key, value)?,
            "checkpoint_period_ms" => self.checkpoint_period = duration_ms(key, value)?,
            "startup_timeout_ms" => self.startup_timeout = duration_ms(key, value)?,
            "status_period_ms" => self.status_period = duration_ms(key, value)?,
            "startup_retries" => self.startup_retries = integer(key, value, 100)? as u32,
            "startup_fallback" => {
                self.startup_fallback = match value {
                    OverrideValue::Text(s) if s == "shut-down" => StartupFallback::ShutDown,
                    OverrideValue::Text(s) if s == "become-primary" => {
                        StartupFallback::BecomePrimary
                    }
                    other => {
                        return Err(rejected(format!(
                            "expected \"shut-down\" or \"become-primary\", got {other:?}"
                        )))
                    }
                };
            }
            // `0` selects `CheckpointMode::Full`; `n > 0` is `Selective`'s
            // `refresh_every`: how many ship opportunities an unconfirmed
            // checkpoint may wait for an ack carrying its image checksum
            // before the whole image is resent (not a blind refresh
            // interval — a pair whose acks confirm never resends).
            "checkpoint_refresh_every" => {
                self.checkpoint_mode = match integer(key, value, 1_000_000)? as u32 {
                    0 => CheckpointMode::Full,
                    n => CheckpointMode::Selective { refresh_every: n },
                };
            }
            // Every key in KEYS has an arm above.
            _ => return Err(unknown()),
        }
        Ok(())
    }
}

/// A raw parameter value as it arrives from untrusted text: a campaign
/// file's JSON, or a node file's `key = value` line.
#[derive(Debug, Clone, PartialEq)]
pub enum OverrideValue {
    /// A number.
    Number(f64),
    /// A string.
    Text(String),
    /// A boolean.
    Flag(bool),
}

/// Why a parameter override (or a whole table of them) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum OverrideError {
    /// The key is not one the caller knows.
    UnknownKey {
        /// The offending key, verbatim.
        key: String,
        /// The caller's own keys, listed as valid after [`OfttConfig::KEYS`].
        also_valid: &'static [&'static str],
    },
    /// The key is known but the value is mistyped or out of range.
    BadValue {
        /// The offending key.
        key: &'static str,
        /// What was wrong with the value.
        detail: String,
    },
    /// Every value is in range, but the finished table breaks one of
    /// [`OfttConfig::check`]'s cross-field rules.
    Inconsistent {
        /// `check`'s reason, verbatim.
        reason: &'static str,
    },
}

impl std::fmt::Display for OverrideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverrideError::UnknownKey { key, also_valid } => {
                let valid: Vec<&str> =
                    OfttConfig::KEYS.iter().chain(*also_valid).copied().collect();
                write!(f, "unknown override key {key:?}; valid keys: {}", valid.join(", "))
            }
            OverrideError::BadValue { key, detail } => {
                write!(f, "bad value for override key {key:?}: {detail}")
            }
            OverrideError::Inconsistent { reason } => write!(f, "inconsistent overrides: {reason}"),
        }
    }
}

impl std::error::Error for OverrideError {}

/// One day — a generous ceiling for any duration knob; values past it are
/// certainly typos (units confusion), not experiments.
pub const MAX_MS: f64 = 86_400_000.0;

/// `value` as a positive duration of at most [`MAX_MS`] milliseconds.
pub fn duration_ms(key: &'static str, value: &OverrideValue) -> Result<SimDuration, OverrideError> {
    let ms = number(key, value)?;
    if !(ms > 0.0 && ms <= MAX_MS) {
        return Err(OverrideError::BadValue {
            key,
            detail: format!("expected milliseconds in (0, {MAX_MS}], got {ms}"),
        });
    }
    Ok(SimDuration::from_micros((ms * 1_000.0).round() as u64))
}

/// `value` as a finite number.
pub fn number(key: &'static str, value: &OverrideValue) -> Result<f64, OverrideError> {
    match value {
        OverrideValue::Number(n) if n.is_finite() => Ok(*n),
        other => Err(OverrideError::BadValue {
            key,
            detail: format!("expected a finite number, got {other:?}"),
        }),
    }
}

/// `value` as a whole number in `[0, max]`.
pub fn integer(key: &'static str, value: &OverrideValue, max: u64) -> Result<u64, OverrideError> {
    let n = number(key, value)?;
    if n < 0.0 || n > max as f64 || n.fract() != 0.0 {
        return Err(OverrideError::BadValue {
            key,
            detail: format!("expected an integer in [0, {max}], got {n}"),
        });
    }
    Ok(n as u64)
}

/// `value` as a boolean.
pub fn flag(key: &'static str, value: &OverrideValue) -> Result<bool, OverrideError> {
    match value {
        OverrideValue::Flag(b) => Ok(*b),
        other => Err(OverrideError::BadValue {
            key,
            detail: format!("expected a boolean, got {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_membership_and_peers() {
        let pair = Pair::new(NodeId(1), NodeId(2));
        assert_eq!(pair.peer_of(NodeId(1)), NodeId(2));
        assert_eq!(pair.peer_of(NodeId(2)), NodeId(1));
        assert!(pair.contains(NodeId(1)));
        assert!(!pair.contains(NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "two distinct nodes")]
    fn degenerate_pair_rejected() {
        Pair::new(NodeId(1), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn peer_of_stranger_panics() {
        Pair::new(NodeId(1), NodeId(2)).peer_of(NodeId(9));
    }

    #[test]
    fn default_config_is_valid() {
        OfttConfig::new(Pair::new(NodeId(0), NodeId(1))).validate();
    }

    #[test]
    fn check_reports_broken_orderings_without_panicking() {
        let mut config = OfttConfig::new(Pair::new(NodeId(0), NodeId(1)));
        assert_eq!(config.check(), Ok(()));
        config.fail_safe_timeout = config.peer_timeout;
        assert!(config.check().unwrap_err().contains("fail-safe"));
    }

    #[test]
    fn check_rejects_zero_periods() {
        let fresh = || OfttConfig::new(Pair::new(NodeId(0), NodeId(1)));
        let mut config = fresh();
        config.heartbeat_period = SimDuration::ZERO;
        assert_eq!(config.check(), Err("heartbeat period must be positive"));
        let mut config = fresh();
        config.checkpoint_period = SimDuration::ZERO;
        assert_eq!(config.check(), Err("checkpoint period must be positive"));
        let mut config = fresh();
        config.status_period = SimDuration::ZERO;
        assert_eq!(config.check(), Err("status period must be positive"));
        let mut config = fresh();
        config.startup_timeout = SimDuration::ZERO;
        assert_eq!(config.check(), Err("startup timeout must be positive"));
    }

    #[test]
    #[should_panic(expected = "peer timeout")]
    fn inverted_timeouts_rejected() {
        let mut config = OfttConfig::new(Pair::new(NodeId(0), NodeId(1)));
        config.peer_timeout = SimDuration::from_millis(100);
        config.heartbeat_period = SimDuration::from_millis(500);
        config.validate();
    }
}
