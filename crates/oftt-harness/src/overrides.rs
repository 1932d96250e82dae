// oftt-lint: no-panic
//! Declarative parameter overrides for scenario sweeps.
//!
//! The campaign runner (and anything else that assembles runs from
//! untrusted text) describes configuration deltas as flat `key = value`
//! pairs. [`ParamOverrides::set`] is the single entry point: it hard-errors
//! on unknown keys — a typo'd override must fail the load, never silently
//! run the baseline — and range-checks every value at set time, so
//! [`ParamOverrides::apply`] is infallible and the built scenario can no
//! longer blow up mid-simulation on a bad knob.

use std::sync::Arc;

use ds_sim::prelude::{SimDuration, SimTime};
use oftt::config::{CheckpointMode, OfttConfig, RecoveryRule, StartupFallback};

use crate::scenario::{LinkQuality, ScenarioParams};

/// Every key [`ParamOverrides::set`] accepts, for error messages and docs.
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

/// Which base link topology an override sweep starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkBase {
    Dual,
    Single,
}

/// A validated set of scenario parameter deltas. Build with
/// [`ParamOverrides::set`], apply with [`ParamOverrides::apply`].
#[derive(Debug, Clone, Default)]
pub struct ParamOverrides {
    heartbeat_period: Option<SimDuration>,
    component_timeout: Option<SimDuration>,
    peer_timeout: Option<SimDuration>,
    fail_safe_timeout: Option<SimDuration>,
    checkpoint_period: Option<SimDuration>,
    startup_timeout: Option<SimDuration>,
    status_period: Option<SimDuration>,
    startup_retries: Option<u32>,
    startup_fallback: Option<StartupFallback>,
    /// `0` selects `CheckpointMode::Full`; `n > 0` is `Selective`'s
    /// `refresh_every`: how many ship opportunities an unconfirmed
    /// checkpoint may wait for an ack carrying its image checksum before
    /// the whole image is resent (not a blind refresh interval — a pair
    /// whose acks confirm never resends).
    checkpoint_refresh_every: Option<u32>,
    link_base: Option<LinkBase>,
    link_loss: Option<f64>,
    link_latency_us: Option<u64>,
    link_jitter_us: Option<u64>,
    link_bandwidth_bps: Option<u64>,
    watchdog: Option<Option<SimDuration>>,
    recovery_max_restarts: Option<u32>,
    feed_start: Option<SimTime>,
    mean_interarrival: Option<SimDuration>,
    mean_duration: Option<SimDuration>,
    lines: Option<u32>,
    drift_a: Option<f64>,
    drift_b: Option<f64>,
    diverter_retarget: Option<bool>,
}

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

impl ParamOverrides {
    /// `true` if no override has been set.
    pub fn is_empty(&self) -> bool {
        // The link base alone still changes the built scenario, so every
        // field counts.
        self.clone().into_pairs().is_empty()
    }

    /// Sets one `key = value` pair.
    ///
    /// # Errors
    ///
    /// [`OverrideError::UnknownKey`] for keys outside [`VALID_KEYS`];
    /// [`OverrideError::BadValue`] for mistyped or out-of-range values.
    pub fn set(&mut self, key: &str, value: &OverrideValue) -> Result<(), OverrideError> {
        match key {
            "heartbeat_period_ms" => {
                self.heartbeat_period = Some(duration_ms("heartbeat_period_ms", value)?);
            }
            "component_timeout_ms" => {
                self.component_timeout = Some(duration_ms("component_timeout_ms", value)?);
            }
            "peer_timeout_ms" => self.peer_timeout = Some(duration_ms("peer_timeout_ms", value)?),
            "fail_safe_timeout_ms" => {
                self.fail_safe_timeout = Some(duration_ms("fail_safe_timeout_ms", value)?);
            }
            "checkpoint_period_ms" => {
                self.checkpoint_period = Some(duration_ms("checkpoint_period_ms", value)?);
            }
            "startup_timeout_ms" => {
                self.startup_timeout = Some(duration_ms("startup_timeout_ms", value)?);
            }
            "status_period_ms" => {
                self.status_period = Some(duration_ms("status_period_ms", value)?);
            }
            "startup_retries" => {
                self.startup_retries = Some(integer("startup_retries", value, 100)? as u32);
            }
            "startup_fallback" => {
                self.startup_fallback = Some(match value {
                    OverrideValue::Text(s) if s == "shut-down" => StartupFallback::ShutDown,
                    OverrideValue::Text(s) if s == "become-primary" => {
                        StartupFallback::BecomePrimary
                    }
                    other => {
                        return Err(OverrideError::BadValue {
                            key: "startup_fallback",
                            detail: format!(
                                "expected \"shut-down\" or \"become-primary\", got {other:?}"
                            ),
                        })
                    }
                });
            }
            "checkpoint_refresh_every" => {
                self.checkpoint_refresh_every =
                    Some(integer("checkpoint_refresh_every", value, 1_000_000)? as u32);
            }
            "link" => {
                self.link_base = Some(match value {
                    OverrideValue::Text(s) if s == "dual" => LinkBase::Dual,
                    OverrideValue::Text(s) if s == "single" => LinkBase::Single,
                    other => {
                        return Err(OverrideError::BadValue {
                            key: "link",
                            detail: format!("expected \"dual\" or \"single\", got {other:?}"),
                        })
                    }
                });
            }
            "link_loss" => {
                let p = number("link_loss", value)?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(OverrideError::BadValue {
                        key: "link_loss",
                        detail: format!("expected a probability in [0, 1], got {p}"),
                    });
                }
                self.link_loss = Some(p);
            }
            "link_latency_us" => {
                self.link_latency_us = Some(integer("link_latency_us", value, 10_000_000)?);
            }
            "link_jitter_us" => {
                self.link_jitter_us = Some(integer("link_jitter_us", value, 10_000_000)?);
            }
            "link_bandwidth_bps" => {
                let bps = integer("link_bandwidth_bps", value, 10_000_000_000)?;
                if bps == 0 {
                    return Err(OverrideError::BadValue {
                        key: "link_bandwidth_bps",
                        detail: "bandwidth must be positive".into(),
                    });
                }
                self.link_bandwidth_bps = Some(bps);
            }
            "watchdog_ms" => {
                let ms = number("watchdog_ms", value)?;
                self.watchdog =
                    Some(if ms == 0.0 { None } else { Some(duration_ms("watchdog_ms", value)?) });
            }
            "recovery_max_restarts" => {
                self.recovery_max_restarts =
                    Some(integer("recovery_max_restarts", value, 100)? as u32);
            }
            "feed_start_ms" => {
                let ms = number("feed_start_ms", value)?;
                if !(0.0..=MAX_MS).contains(&ms) {
                    return Err(OverrideError::BadValue {
                        key: "feed_start_ms",
                        detail: format!("expected milliseconds in [0, {MAX_MS}], got {ms}"),
                    });
                }
                self.feed_start = Some(SimTime::from_micros((ms * 1_000.0).round() as u64));
            }
            "mean_interarrival_ms" => {
                self.mean_interarrival = Some(duration_ms("mean_interarrival_ms", value)?);
            }
            "mean_duration_ms" => {
                self.mean_duration = Some(duration_ms("mean_duration_ms", value)?);
            }
            "lines" => {
                let lines = integer("lines", value, 100_000)?;
                if lines == 0 {
                    return Err(OverrideError::BadValue {
                        key: "lines",
                        detail: "an office needs at least one line".into(),
                    });
                }
                self.lines = Some(lines as u32);
            }
            "drift_a" => self.drift_a = Some(drift("drift_a", value)?),
            "drift_b" => self.drift_b = Some(drift("drift_b", value)?),
            "diverter_retarget" => {
                self.diverter_retarget = Some(flag("diverter_retarget", value)?);
            }
            _ => return Err(OverrideError::UnknownKey { key: key.to_string() }),
        }
        if self.link_base.is_some() && self.has_tuned_link() {
            return Err(OverrideError::BadValue {
                key: "link",
                detail: "cannot combine the `link` topology key with `link_*` tuning keys \
                         (tuned links are single-path by definition)"
                    .into(),
            });
        }
        Ok(())
    }

    fn has_tuned_link(&self) -> bool {
        self.link_loss.is_some()
            || self.link_latency_us.is_some()
            || self.link_jitter_us.is_some()
            || self.link_bandwidth_bps.is_some()
    }

    /// Rewrites `config` with the config-level overrides. Used both inside
    /// the [`ParamOverrides::apply`] tune hook and by loaders that want to
    /// range-check the *combination* (via [`OfttConfig::check`]) on a
    /// scratch config before committing to a sweep.
    pub fn apply_config(&self, config: &mut OfttConfig) {
        if let Some(d) = self.heartbeat_period {
            config.heartbeat_period = d;
        }
        if let Some(d) = self.component_timeout {
            config.component_timeout = d;
        }
        if let Some(d) = self.peer_timeout {
            config.peer_timeout = d;
        }
        if let Some(d) = self.fail_safe_timeout {
            config.fail_safe_timeout = d;
        }
        if let Some(d) = self.checkpoint_period {
            config.checkpoint_period = d;
        }
        if let Some(d) = self.startup_timeout {
            config.startup_timeout = d;
        }
        if let Some(d) = self.status_period {
            config.status_period = d;
        }
        if let Some(n) = self.startup_retries {
            config.startup_retries = n;
        }
        if let Some(f) = self.startup_fallback {
            config.startup_fallback = f;
        }
        if let Some(n) = self.checkpoint_refresh_every {
            config.checkpoint_mode = if n == 0 {
                CheckpointMode::Full
            } else {
                CheckpointMode::Selective { refresh_every: n }
            };
        }
    }

    /// Applies every override to `params`, wrapping (not replacing) its
    /// existing `tune` hook: the prior hook runs first, then the
    /// config-level overrides, so a sweep's deltas always win.
    pub fn apply(&self, params: &mut ScenarioParams) {
        if self.has_tuned_link() {
            params.link = LinkQuality::Tuned {
                loss: self.link_loss.unwrap_or(0.0),
                latency_us: self.link_latency_us.unwrap_or(300),
                jitter_us: self.link_jitter_us.unwrap_or(100),
                bandwidth_bps: self.link_bandwidth_bps.unwrap_or(12_500_000),
            };
        } else if let Some(base) = self.link_base {
            params.link = match base {
                LinkBase::Dual => LinkQuality::Dual,
                LinkBase::Single => LinkQuality::Single,
            };
        }
        if let Some(w) = self.watchdog {
            params.watchdog = w;
        }
        if let Some(n) = self.recovery_max_restarts {
            params.rule = if n == 0 {
                RecoveryRule::Switchover
            } else {
                RecoveryRule::LocalRestart { max_attempts: n }
            };
        }
        if let Some(at) = self.feed_start {
            params.feed_start = at;
        }
        if let Some(d) = self.mean_interarrival {
            params.telephone.mean_interarrival = d;
        }
        if let Some(d) = self.mean_duration {
            params.telephone.mean_duration = d;
        }
        if let Some(n) = self.lines {
            params.telephone.lines = n as usize;
        }
        let [da, db] = params.drift;
        params.drift = [self.drift_a.unwrap_or(da), self.drift_b.unwrap_or(db)];
        if let Some(r) = self.diverter_retarget {
            params.diverter_retarget = r;
        }
        let config_overrides = self.clone();
        let prior = Arc::clone(&params.tune);
        params.tune = Arc::new(move |config| {
            prior(config);
            config_overrides.apply_config(config);
        });
    }

    /// The overrides as `(key, rendered value)` pairs, for reports.
    pub fn into_pairs(self) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        let mut push_ms = |key, d: Option<SimDuration>| {
            if let Some(d) = d {
                out.push((key, format!("{}", d.as_micros() as f64 / 1_000.0)));
            }
        };
        push_ms("heartbeat_period_ms", self.heartbeat_period);
        push_ms("component_timeout_ms", self.component_timeout);
        push_ms("peer_timeout_ms", self.peer_timeout);
        push_ms("fail_safe_timeout_ms", self.fail_safe_timeout);
        push_ms("checkpoint_period_ms", self.checkpoint_period);
        push_ms("startup_timeout_ms", self.startup_timeout);
        push_ms("status_period_ms", self.status_period);
        push_ms("mean_interarrival_ms", self.mean_interarrival);
        push_ms("mean_duration_ms", self.mean_duration);
        if let Some(n) = self.startup_retries {
            out.push(("startup_retries", n.to_string()));
        }
        if let Some(f) = self.startup_fallback {
            let name = match f {
                StartupFallback::ShutDown => "shut-down",
                StartupFallback::BecomePrimary => "become-primary",
            };
            out.push(("startup_fallback", name.to_string()));
        }
        if let Some(n) = self.checkpoint_refresh_every {
            out.push(("checkpoint_refresh_every", n.to_string()));
        }
        if let Some(base) = self.link_base {
            let name = match base {
                LinkBase::Dual => "dual",
                LinkBase::Single => "single",
            };
            out.push(("link", name.to_string()));
        }
        if let Some(p) = self.link_loss {
            out.push(("link_loss", p.to_string()));
        }
        if let Some(n) = self.link_latency_us {
            out.push(("link_latency_us", n.to_string()));
        }
        if let Some(n) = self.link_jitter_us {
            out.push(("link_jitter_us", n.to_string()));
        }
        if let Some(n) = self.link_bandwidth_bps {
            out.push(("link_bandwidth_bps", n.to_string()));
        }
        if let Some(w) = self.watchdog {
            let ms = w.map(|d| d.as_micros() as f64 / 1_000.0).unwrap_or(0.0);
            out.push(("watchdog_ms", format!("{ms}")));
        }
        if let Some(n) = self.recovery_max_restarts {
            out.push(("recovery_max_restarts", n.to_string()));
        }
        if let Some(at) = self.feed_start {
            out.push(("feed_start_ms", format!("{}", at.as_micros() as f64 / 1_000.0)));
        }
        if let Some(n) = self.lines {
            out.push(("lines", n.to_string()));
        }
        if let Some(f) = self.drift_a {
            out.push(("drift_a", f.to_string()));
        }
        if let Some(f) = self.drift_b {
            out.push(("drift_b", f.to_string()));
        }
        if let Some(r) = self.diverter_retarget {
            out.push(("diverter_retarget", r.to_string()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(n: f64) -> OverrideValue {
        OverrideValue::Number(n)
    }

    #[test]
    fn unknown_keys_are_hard_errors_naming_the_key() {
        let mut o = ParamOverrides::default();
        let err = o.set("heartbeat_period_msec", &num(100.0)).unwrap_err();
        match &err {
            OverrideError::UnknownKey { key } => assert_eq!(key, "heartbeat_period_msec"),
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        assert!(err.to_string().contains("heartbeat_period_ms"), "lists the valid keys");
    }

    #[test]
    fn every_valid_key_is_accepted() {
        for key in VALID_KEYS {
            let mut o = ParamOverrides::default();
            let candidates = [
                num(1.0),
                OverrideValue::Text("dual".into()),
                OverrideValue::Text("shut-down".into()),
                OverrideValue::Flag(true),
            ];
            assert!(
                candidates.iter().any(|v| o.set(key, v).is_ok()),
                "no accepted value shape for key {key:?}"
            );
        }
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let mut o = ParamOverrides::default();
        assert!(matches!(
            o.set("heartbeat_period_ms", &num(0.0)),
            Err(OverrideError::BadValue { key: "heartbeat_period_ms", .. })
        ));
        assert!(o.set("link_loss", &num(1.5)).is_err());
        assert!(o.set("drift_a", &num(10.0)).is_err());
        assert!(o.set("startup_retries", &num(2.5)).is_err());
        assert!(o.set("startup_fallback", &num(1.0)).is_err());
        assert!(o.set("diverter_retarget", &num(1.0)).is_err());
    }

    #[test]
    fn topology_and_tuning_keys_conflict() {
        let mut o = ParamOverrides::default();
        o.set("link", &OverrideValue::Text("dual".into())).unwrap();
        assert!(o.set("link_loss", &num(0.1)).is_err());
        let mut o = ParamOverrides::default();
        o.set("link_loss", &num(0.1)).unwrap();
        assert!(o.set("link", &OverrideValue::Text("dual".into())).is_err());
    }

    #[test]
    fn apply_wraps_the_existing_tune_hook() {
        let mut o = ParamOverrides::default();
        o.set("peer_timeout_ms", &num(2_000.0)).unwrap();
        o.set("watchdog_ms", &num(0.0)).unwrap();
        o.set("drift_b", &num(1.5)).unwrap();
        let mut params = ScenarioParams {
            watchdog: Some(SimDuration::from_secs(5)),
            tune: Arc::new(|config| config.startup_retries = 9),
            ..Default::default()
        };
        o.apply(&mut params);
        assert_eq!(params.watchdog, None);
        assert_eq!(params.drift, [1.0, 1.5]);
        let pair =
            oftt::config::Pair::new(ds_net::endpoint::NodeId(0), ds_net::endpoint::NodeId(1));
        let mut config = OfttConfig::new(pair);
        (params.tune)(&mut config);
        assert_eq!(config.startup_retries, 9, "the prior hook still runs");
        assert_eq!(config.peer_timeout, SimDuration::from_millis(2_000));
    }

    #[test]
    fn pairs_render_every_set_override() {
        let mut o = ParamOverrides::default();
        o.set("checkpoint_period_ms", &num(500.0)).unwrap();
        o.set("link_bandwidth_bps", &num(100_000.0)).unwrap();
        let pairs = o.into_pairs();
        assert!(pairs.contains(&("checkpoint_period_ms", "500".to_string())));
        assert!(pairs.contains(&("link_bandwidth_bps", "100000".to_string())));
    }
}
