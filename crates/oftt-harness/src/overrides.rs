//! Declarative parameter overrides for scenario sweeps.
//!
//! The campaign runner (and anything else that assembles runs from
//! untrusted text) describes configuration deltas as flat `key = value`
//! pairs. [`set`] is the single entry point: it hard-errors on unknown
//! keys — a typo'd override must fail the load, never silently run the
//! baseline — range-checks every value, and writes the field of
//! [`ScenarioParams`] directly. The toolkit's tunables go through
//! [`OfttConfig::set`], the table `oftt-node`'s config files read too;
//! the deployment keys, [`KEYS`], are this module's. [`set_all`] checks
//! the finished table as a whole, so a built scenario can no longer blow
//! up mid-simulation on a bad knob or a bad combination of knobs.

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

use ds_net::link::PathConfig;
use ds_sim::prelude::{SimDuration, SimTime};
use oftt::config::{duration_ms, flag, integer, number, OfttConfig, RecoveryRule, MAX_MS};
pub use oftt::config::{OverrideError, OverrideValue};

use crate::scenario::ScenarioParams;

/// The deployment keys [`set`] accepts besides [`OfttConfig::KEYS`]: the
/// link, the watchdog, the recovery rule, the telephone load, clock drift
/// and the diverter.
pub const KEYS: &[&str] = &[
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
/// [`OverrideError::UnknownKey`] for keys outside [`OfttConfig::KEYS`]
/// and [`KEYS`]; [`OverrideError::BadValue`] for mistyped or out-of-range
/// values.
pub fn set(
    params: &mut ScenarioParams,
    key: &str,
    value: &OverrideValue,
) -> Result<(), OverrideError> {
    let Some(&key) = KEYS.iter().find(|valid| **valid == key) else {
        return OfttConfig::set(&mut params.config, key, value).map_err(|err| match err {
            OverrideError::UnknownKey { key, .. } => {
                OverrideError::UnknownKey { key, also_valid: KEYS }
            }
            other => other,
        });
    };
    let rejected = |detail: String| OverrideError::BadValue { key, detail };
    match key {
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
        // Every key in KEYS has an arm above.
        _ => return Err(OverrideError::UnknownKey { key: key.to_string(), also_valid: KEYS }),
    }
    Ok(())
}

/// Applies a whole override table through [`set`], enforcing the
/// cross-key rules: the `link` topology key and the `link_*` tuning keys
/// are mutually exclusive, whatever their order, and the finished
/// toolkit configuration must pass [`OfttConfig::check`].
///
/// # Errors
///
/// The first rejection [`set`] makes, [`OverrideError::BadValue`] on
/// `link` when both kinds of link key appear, or
/// [`OverrideError::Inconsistent`] with `check`'s reason.
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
    OfttConfig::check(&params.config).map_err(|reason| OverrideError::Inconsistent { reason })
}

#[cfg(test)]
mod tests {
    use oftt::config::{CheckpointMode, OfttConfig};

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
            OverrideError::UnknownKey { key, .. } => assert_eq!(key, "heartbeat_period_msec"),
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        let listed = err.to_string();
        assert!(listed.contains("heartbeat_period_ms") && listed.contains("drift_a"), "{listed}");
        assert_eq!(params, ScenarioParams::default(), "a rejected key writes nothing");
    }

    #[test]
    fn every_valid_key_is_accepted() {
        for key in OfttConfig::KEYS.iter().chain(KEYS) {
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
    fn a_table_is_checked_whole_after_it_is_applied() {
        // Against the default 1,000 ms peer timeout the fail-safe key alone
        // breaks the fail-safe rule; the table as a whole keeps it.
        let (fail_safe, peer) = (num(1_500.0), num(2_000.0));
        let mut p = ScenarioParams::default();
        set_all(&mut p, [("fail_safe_timeout_ms", &fail_safe), ("peer_timeout_ms", &peer)])
            .unwrap();
        assert_eq!(p.config.fail_safe_timeout, SimDuration::from_millis(1_500));
        let (heartbeat, peer) = (num(500.0), num(400.0));
        let err = set_all(
            &mut ScenarioParams::default(),
            [("heartbeat_period_ms", &heartbeat), ("peer_timeout_ms", &peer)],
        )
        .unwrap_err();
        assert_eq!(
            err,
            OverrideError::Inconsistent { reason: "peer timeout must exceed the heartbeat period" }
        );
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
