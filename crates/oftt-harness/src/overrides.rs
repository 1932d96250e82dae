// oftt-lint: no-panic
//! Declarative parameter overrides for scenario sweeps.
//!
//! The campaign runner (and anything else that assembles runs from
//! untrusted text) describes configuration deltas as flat `key = value`
//! pairs. [`set`] is the single entry point: it hard-errors on unknown
//! keys — a typo'd override must fail the load, never silently run the
//! baseline — range-checks every value, and writes the field of
//! [`ScenarioParams`] directly, so the built scenario can no longer blow
//! up mid-simulation on a bad knob.

use ds_net::link::PathConfig;
use ds_sim::prelude::{SimDuration, SimTime};
use oftt::config::{CheckpointMode, RecoveryRule, StartupFallback};

use crate::scenario::ScenarioParams;

/// Every key [`set`] accepts, for error messages and docs.
pub const VALID_KEYS: &[&str] = &[
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
    "link",
    "link_loss",
    "link_latency_us",
    "link_jitter_us",
    "link_bandwidth_bps",
    "watchdog_ms",
    "recovery_max_restarts",
    "feed_start_ms",
    "mean_interarrival_ms",
    "mean_duration_ms",
    "lines",
    "drift_a",
    "drift_b",
    "diverter_retarget",
];

/// A raw override value as it arrives from a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub enum OverrideValue {
    /// A JSON number.
    Number(f64),
    /// A JSON string.
    Text(String),
    /// A JSON boolean.
    Flag(bool),
}

/// Why an override was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum OverrideError {
    /// The key is not one the harness knows; carries the full accepted set.
    UnknownKey {
        /// The offending key, verbatim.
        key: String,
    },
    /// The key is known but the value is mistyped or out of range.
    BadValue {
        /// The offending key.
        key: &'static str,
        /// What was wrong with the value.
        detail: String,
    },
}

impl std::fmt::Display for OverrideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverrideError::UnknownKey { key } => {
                write!(f, "unknown override key {key:?}; valid keys: {}", VALID_KEYS.join(", "))
            }
            OverrideError::BadValue { key, detail } => {
                write!(f, "bad value for override key {key:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for OverrideError {}

/// One day — a generous ceiling for any duration knob; values past it are
/// certainly typos (units confusion), not experiments.
const MAX_MS: f64 = 86_400_000.0;

fn duration_ms(key: &'static str, value: &OverrideValue) -> Result<SimDuration, OverrideError> {
    let ms = number(key, value)?;
    if !(ms > 0.0 && ms <= MAX_MS) {
        return Err(OverrideError::BadValue {
            key,
            detail: format!("expected milliseconds in (0, {MAX_MS}], got {ms}"),
        });
    }
    Ok(SimDuration::from_micros((ms * 1_000.0).round() as u64))
}

fn number(key: &'static str, value: &OverrideValue) -> Result<f64, OverrideError> {
    match value {
        OverrideValue::Number(n) if n.is_finite() => Ok(*n),
        other => Err(OverrideError::BadValue {
            key,
            detail: format!("expected a finite number, got {other:?}"),
        }),
    }
}

fn integer(key: &'static str, value: &OverrideValue, max: u64) -> Result<u64, OverrideError> {
    let n = number(key, value)?;
    if n < 0.0 || n > max as f64 || n.fract() != 0.0 {
        return Err(OverrideError::BadValue {
            key,
            detail: format!("expected an integer in [0, {max}], got {n}"),
        });
    }
    Ok(n as u64)
}

fn drift(key: &'static str, value: &OverrideValue) -> Result<f64, OverrideError> {
    let f = number(key, value)?;
    if !(0.25..=4.0).contains(&f) {
        return Err(OverrideError::BadValue {
            key,
            detail: format!("expected a clock-rate factor in [0.25, 4.0], got {f}"),
        });
    }
    Ok(f)
}

fn flag(key: &'static str, value: &OverrideValue) -> Result<bool, OverrideError> {
    match value {
        OverrideValue::Flag(b) => Ok(*b),
        other => Err(OverrideError::BadValue {
            key,
            detail: format!("expected a boolean, got {other:?}"),
        }),
    }
}

/// Applies a `link_*` key: the link collapses to a single path (tuned
/// links are single-path by definition) that keeps the first path's other
/// parameters.
fn tune_path(params: &mut ScenarioParams, edit: impl FnOnce(&mut PathConfig)) {
    let mut path = params.link.first().cloned().unwrap_or_default();
    edit(&mut path);
    params.link = vec![path];
}

/// Sets one `key = value` pair, writing the field of `params` directly.
///
/// # Errors
///
/// [`OverrideError::UnknownKey`] for keys outside [`VALID_KEYS`];
/// [`OverrideError::BadValue`] for mistyped or out-of-range values.
pub fn set(
    params: &mut ScenarioParams,
    key: &str,
    value: &OverrideValue,
) -> Result<(), OverrideError> {
    let Some(&key) = VALID_KEYS.iter().find(|valid| **valid == key) else {
        return Err(OverrideError::UnknownKey { key: key.to_string() });
    };
    let rejected = |detail: String| OverrideError::BadValue { key, detail };
    let config = &mut params.config;
    match key {
        "heartbeat_period_ms" => config.heartbeat_period = duration_ms(key, value)?,
        "component_timeout_ms" => config.component_timeout = duration_ms(key, value)?,
        "peer_timeout_ms" => config.peer_timeout = duration_ms(key, value)?,
        "fail_safe_timeout_ms" => config.fail_safe_timeout = duration_ms(key, value)?,
        "checkpoint_period_ms" => config.checkpoint_period = duration_ms(key, value)?,
        "startup_timeout_ms" => config.startup_timeout = duration_ms(key, value)?,
        "status_period_ms" => config.status_period = duration_ms(key, value)?,
        "startup_retries" => config.startup_retries = integer(key, value, 100)? as u32,
        "startup_fallback" => {
            config.startup_fallback = match value {
                OverrideValue::Text(s) if s == "shut-down" => StartupFallback::ShutDown,
                OverrideValue::Text(s) if s == "become-primary" => StartupFallback::BecomePrimary,
                other => {
                    return Err(rejected(format!(
                        "expected \"shut-down\" or \"become-primary\", got {other:?}"
                    )))
                }
            };
        }
        // `0` selects `CheckpointMode::Full`; `n > 0` is `Selective`'s
        // `refresh_every`: how many ship opportunities an unconfirmed
        // checkpoint may wait for an ack carrying its image checksum before
        // the whole image is resent (not a blind refresh interval — a pair
        // whose acks confirm never resends).
        "checkpoint_refresh_every" => {
            config.checkpoint_mode = match integer(key, value, 1_000_000)? as u32 {
                0 => CheckpointMode::Full,
                n => CheckpointMode::Selective { refresh_every: n },
            };
        }
        "link" => {
            let paths = match value {
                OverrideValue::Text(s) if s == "dual" => 2,
                OverrideValue::Text(s) if s == "single" => 1,
                other => {
                    return Err(rejected(format!("expected \"dual\" or \"single\", got {other:?}")))
                }
            };
            params.link = vec![PathConfig::default(); paths];
        }
        "link_loss" => {
            let p = number(key, value)?;
            if !(0.0..=1.0).contains(&p) {
                return Err(rejected(format!("expected a probability in [0, 1], got {p}")));
            }
            tune_path(params, |path| path.loss_probability = p);
        }
        "link_latency_us" => {
            let latency = SimDuration::from_micros(integer(key, value, 10_000_000)?);
            tune_path(params, |path| path.base_latency = latency);
        }
        "link_jitter_us" => {
            let jitter = SimDuration::from_micros(integer(key, value, 10_000_000)?);
            tune_path(params, |path| path.jitter = jitter);
        }
        "link_bandwidth_bps" => {
            let bps = integer(key, value, 10_000_000_000)?;
            if bps == 0 {
                return Err(rejected("bandwidth must be positive".into()));
            }
            tune_path(params, |path| path.bandwidth_bps = bps);
        }
        "watchdog_ms" => {
            let off = number(key, value)? == 0.0;
            params.watchdog = if off { None } else { Some(duration_ms(key, value)?) };
        }
        "recovery_max_restarts" => {
            params.rule = match integer(key, value, 100)? as u32 {
                0 => RecoveryRule::Switchover,
                n => RecoveryRule::LocalRestart { max_attempts: n },
            };
        }
        "feed_start_ms" => {
            let ms = number(key, value)?;
            if !(0.0..=MAX_MS).contains(&ms) {
                return Err(rejected(format!("expected milliseconds in [0, {MAX_MS}], got {ms}")));
            }
            params.feed_start = SimTime::from_micros((ms * 1_000.0).round() as u64);
        }
        "mean_interarrival_ms" => params.telephone.mean_interarrival = duration_ms(key, value)?,
        "mean_duration_ms" => params.telephone.mean_duration = duration_ms(key, value)?,
        "lines" => {
            let lines = integer(key, value, 100_000)?;
            if lines == 0 {
                return Err(rejected("an office needs at least one line".into()));
            }
            params.telephone.lines = lines as usize;
        }
        "drift_a" | "drift_b" => {
            let [a, b] = &mut params.drift;
            *(if key == "drift_a" { a } else { b }) = drift(key, value)?;
        }
        "diverter_retarget" => params.diverter_retarget = flag(key, value)?,
        // Every key in VALID_KEYS has an arm above.
        _ => return Err(OverrideError::UnknownKey { key: key.to_string() }),
    }
    Ok(())
}

/// Applies a whole override table through [`set`], enforcing the one
/// cross-key rule: the `link` topology key and the `link_*` tuning keys
/// are mutually exclusive, whatever their order.
///
/// # Errors
///
/// The first rejection [`set`] makes, or [`OverrideError::BadValue`] on
/// `link` when both kinds of link key appear.
pub fn set_all<'a>(
    params: &mut ScenarioParams,
    table: impl IntoIterator<Item = (&'a str, &'a OverrideValue)>,
) -> Result<(), OverrideError> {
    let (mut topology, mut tuned) = (false, false);
    for (key, value) in table {
        set(params, key, value)?;
        topology |= key == "link";
        tuned |= key.starts_with("link_");
        if topology && tuned {
            return Err(OverrideError::BadValue {
                key: "link",
                detail: "cannot combine the `link` topology key with `link_*` tuning keys \
                         (tuned links are single-path by definition)"
                    .into(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(n: f64) -> OverrideValue {
        OverrideValue::Number(n)
    }

    fn text(s: &str) -> OverrideValue {
        OverrideValue::Text(s.into())
    }

    #[test]
    fn unknown_keys_are_hard_errors_naming_the_key() {
        let mut params = ScenarioParams::default();
        let err = set(&mut params, "heartbeat_period_msec", &num(100.0)).unwrap_err();
        match &err {
            OverrideError::UnknownKey { key } => assert_eq!(key, "heartbeat_period_msec"),
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        assert!(err.to_string().contains("heartbeat_period_ms"), "lists the valid keys");
        assert_eq!(params, ScenarioParams::default(), "a rejected key writes nothing");
    }

    #[test]
    fn every_valid_key_is_accepted() {
        for key in VALID_KEYS {
            let candidates = [num(1.0), text("dual"), text("shut-down"), OverrideValue::Flag(true)];
            assert!(
                candidates.iter().any(|v| set(&mut ScenarioParams::default(), key, v).is_ok()),
                "no accepted value shape for key {key:?}"
            );
        }
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let mut p = ScenarioParams::default();
        assert!(matches!(
            set(&mut p, "heartbeat_period_ms", &num(0.0)),
            Err(OverrideError::BadValue { key: "heartbeat_period_ms", .. })
        ));
        assert!(set(&mut p, "link_loss", &num(1.5)).is_err());
        assert!(set(&mut p, "link_bandwidth_bps", &num(0.0)).is_err());
        assert!(set(&mut p, "link", &text("triple")).is_err());
        assert!(set(&mut p, "drift_a", &num(10.0)).is_err());
        assert!(set(&mut p, "startup_retries", &num(2.5)).is_err());
        assert!(set(&mut p, "startup_fallback", &num(1.0)).is_err());
        assert!(set(&mut p, "diverter_retarget", &num(1.0)).is_err());
        assert!(set(&mut p, "lines", &num(0.0)).is_err());
        assert!(set(&mut p, "feed_start_ms", &num(-1.0)).is_err());
    }

    #[test]
    fn topology_and_tuning_keys_conflict_in_either_order() {
        let (dual, loss) = (text("dual"), num(0.1));
        for table in
            [[("link", &dual), ("link_loss", &loss)], [("link_loss", &loss), ("link", &dual)]]
        {
            let err = set_all(&mut ScenarioParams::default(), table).unwrap_err();
            assert!(matches!(err, OverrideError::BadValue { key: "link", .. }), "{err}");
        }
        let mut p = ScenarioParams::default();
        set_all(&mut p, [("link", &text("single"))]).unwrap();
        assert_eq!(p.link, vec![PathConfig::default()]);
    }

    #[test]
    fn tuning_keys_build_one_path_from_the_defaults() {
        let mut p = ScenarioParams::default();
        set_all(&mut p, [("link_bandwidth_bps", &num(100_000.0)), ("link_loss", &num(0.25))])
            .unwrap();
        assert_eq!(
            p.link,
            vec![PathConfig {
                loss_probability: 0.25,
                bandwidth_bps: 100_000,
                ..Default::default()
            }]
        );
    }

    #[test]
    fn set_writes_the_fields_directly() {
        let mut p =
            ScenarioParams { watchdog: Some(SimDuration::from_secs(5)), ..Default::default() };
        p.config.startup_retries = 9;
        set(&mut p, "peer_timeout_ms", &num(2_000.0)).unwrap();
        set(&mut p, "watchdog_ms", &num(0.0)).unwrap();
        set(&mut p, "drift_b", &num(1.5)).unwrap();
        set(&mut p, "checkpoint_refresh_every", &num(0.0)).unwrap();
        set(&mut p, "recovery_max_restarts", &num(0.0)).unwrap();
        assert_eq!(p.watchdog, None);
        assert_eq!(p.drift, [1.0, 1.5]);
        assert_eq!(p.config.peer_timeout, SimDuration::from_millis(2_000));
        assert_eq!(p.config.startup_retries, 9, "untouched fields keep their values");
        assert_eq!(p.config.checkpoint_mode, CheckpointMode::Full);
        assert_eq!(p.rule, RecoveryRule::Switchover);
    }
}
