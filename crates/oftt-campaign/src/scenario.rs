// oftt-lint: no-panic
//! Declarative scenario files.
//!
//! A scenario file is a JSON document that names a seed population, a
//! fault script *template*, and the knobs of the checked deployment it
//! runs against. Loading it builds one base [`oftt_check::Scenario`] (the
//! deployment with its overrides, the horizon, the tie window) that every
//! seed runs with its own expansion of the template. The loader is deliberately unforgiving: unknown keys anywhere
//! (the scenario shell, a script step, the pin block, an override) are
//! hard errors, duplicate keys are hard errors, and every numeric field
//! is range-checked at load time — a campaign that runs 100 seeds per
//! scenario must not discover a typo'd `peer_timeout_sm` forty simulated
//! minutes in, silently running the default instead.
//!
//! ## Schema
//!
//! ```json
//! {
//!   "name": "partition_storm",
//!   "description": "repeated short partitions during steady state",
//!   "seeds": {"range": [1, 100]},
//!   "horizon_ms": 40000,
//!   "tie_window_us": 500,
//!   "expect_violations": false,
//!   "overrides": {"peer_timeout_ms": 1500},
//!   "pin": {"min_availability": 0.9, "max_failover_p99_ms": 3000},
//!   "script": [
//!     {"at_ms": 8000, "op": "partition", "repeat": 4, "every_ms": 6000,
//!      "jitter_ms": 500},
//!     {"at_ms": 9000, "op": "heal", "repeat": 4, "every_ms": 6000},
//!     {"at_ms": 20000, "op": "kill-engine a"},
//!     {"at_ms": 21000, "op": "slow-link 20000 5000 50000"}
//!   ]
//! }
//! ```
//!
//! `seeds` is either an explicit array (`[1, 2, 7]`, duplicates rejected)
//! or an inclusive `{"range": [lo, hi]}`; either form is capped at
//! [`MAX_SEEDS`]. A step's `"op"` is one fault-script line without its
//! time — `crash a`, `path-down 0`, `slow-link 20000 5000 50000` — read by
//! [`ScriptOp::parse`], the same parser `FaultScript::parse` uses, so the
//! op vocabulary and its operand checks live in one place. `repeat` /
//! `every_ms` / `jitter_ms` turn one step into a deterministic per-seed
//! storm (see [`crate::expand`]). The pre-fix §3.2 startup configuration is
//! two overrides: `"startup_retries": 0, "startup_fallback":
//! "become-primary"`.

use std::collections::BTreeSet;

use ds_sim::prelude::{SimDuration, SimTime};
use oftt_check::ScriptOp;
use oftt_harness::overrides::{self, OverrideValue};

use crate::error::CampaignError;
use crate::json::{parse_doc, Json, JsonErrorKind};

/// The most seeds one scenario may name — a guard against a fat-fingered
/// range (`[1, 10000000]`) launching a multi-day sweep.
pub const MAX_SEEDS: usize = 100_000;

/// Pinned acceptance thresholds a scenario carries into the artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Pin {
    /// The sweep's minimum per-seed availability must not fall below this.
    pub min_availability: Option<f64>,
    /// The failover p99 (ms) must not exceed this.
    pub max_failover_p99_ms: Option<f64>,
    /// The sweep must produce at least this many failover samples.
    pub min_failover_samples: Option<u64>,
}

impl Pin {
    /// `true` if any threshold is set.
    pub fn is_set(&self) -> bool {
        self.min_availability.is_some()
            || self.max_failover_p99_ms.is_some()
            || self.min_failover_samples.is_some()
    }
}

/// One script step before per-seed expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTemplate {
    /// When the first instance fires.
    pub at: SimTime,
    /// What it does.
    pub op: ScriptOp,
    /// How many instances to emit (default 1).
    pub repeat: u64,
    /// Spacing between instances (required when `repeat > 1`).
    pub every: SimDuration,
    /// Uniform per-instance start jitter in `[0, jitter]`, drawn from the
    /// seed-derived stream (default 0: fully rigid schedule).
    pub jitter: SimDuration,
}

/// A loaded, validated scenario: what is campaign-specific, around the
/// one run description every seed starts from.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The scenario's name (also its stream label for jitter derivation).
    pub name: String,
    /// Free-text documentation, not interpreted.
    pub description: String,
    /// The seed population, deduplicated, in file order.
    pub seeds: Vec<u64>,
    /// `true` for campaigns that *demonstrate* a defect: the gate then
    /// requires at least one violating seed instead of zero.
    pub expect_violations: bool,
    /// Pinned acceptance thresholds (may be empty).
    pub pin: Pin,
    /// The fault-script template.
    pub steps: Vec<StepTemplate>,
    /// The checked deployment with the file's overrides, horizon and tie
    /// window; its script is empty (each seed expands `steps`).
    pub base: oftt_check::Scenario,
}

/// `f64` → exact `u64`, or a description of why not.
fn as_integer(n: f64) -> Result<u64, String> {
    if n.fract() != 0.0 {
        return Err(format!("{n} is not an integer"));
    }
    if !(0.0..=(u64::MAX as f64)).contains(&n) {
        return Err(format!("{n} is out of range"));
    }
    Ok(n as u64)
}

impl Scenario {
    /// Reads and loads one scenario file.
    pub fn load_file(path: &str) -> Result<Scenario, CampaignError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CampaignError::Io { path: path.to_string(), detail: e.to_string() })?;
        Scenario::load(path, &text)
    }

    /// Loads a scenario from already-read text; `path` labels errors.
    pub fn load(path: &str, text: &str) -> Result<Scenario, CampaignError> {
        let doc = parse_doc(text).map_err(|e| match e.kind {
            JsonErrorKind::DuplicateKey(key) => {
                CampaignError::DuplicateKey { path: path.to_string(), key }
            }
            JsonErrorKind::Malformed(_) => {
                CampaignError::Json { path: path.to_string(), detail: e.to_string() }
            }
        })?;
        Loader { path }.scenario(&doc)
    }
}

/// The loading context: one file, threaded through every helper so each
/// error names its origin.
struct Loader<'a> {
    path: &'a str,
}

impl Loader<'_> {
    fn bad(&self, field: impl Into<String>, detail: impl Into<String>) -> CampaignError {
        CampaignError::BadField {
            path: self.path.to_string(),
            field: field.into(),
            detail: detail.into(),
        }
    }

    fn unknown(&self, context: &'static str, key: &str) -> CampaignError {
        CampaignError::UnknownKey { path: self.path.to_string(), context, key: key.to_string() }
    }

    fn seed_err(&self, detail: impl Into<String>) -> CampaignError {
        CampaignError::BadSeedSpan { path: self.path.to_string(), detail: detail.into() }
    }

    fn text(&self, v: &Json, field: &str) -> Result<String, CampaignError> {
        v.as_str().map(str::to_string).ok_or_else(|| self.bad(field, "expected a string"))
    }

    fn flag(&self, v: &Json, field: &str) -> Result<bool, CampaignError> {
        v.as_bool().ok_or_else(|| self.bad(field, "expected a boolean"))
    }

    fn integer(&self, v: &Json, field: &str) -> Result<u64, CampaignError> {
        let n = v.as_f64().ok_or_else(|| self.bad(field, "expected a number"))?;
        as_integer(n).map_err(|detail| self.bad(field, detail))
    }

    /// An integer field given in units of `unit_us` µs, as µs. A value
    /// whose µs count does not fit a `u64` is out of range, not wrapped.
    fn micros(&self, v: &Json, field: &str, unit_us: u64) -> Result<u64, CampaignError> {
        self.integer(v, field)?.checked_mul(unit_us).ok_or_else(|| self.bad(field, "out of range"))
    }

    /// A positive duration field, given in units of `unit_us` µs.
    fn duration(&self, v: &Json, field: &str, unit_us: u64) -> Result<SimDuration, CampaignError> {
        match self.micros(v, field, unit_us)? {
            0 => Err(self.bad(field, "must be positive")),
            us => Ok(SimDuration::from_micros(us)),
        }
    }

    fn scenario(&self, doc: &Json) -> Result<Scenario, CampaignError> {
        let Some(map) = doc.as_object() else {
            return Err(self.bad("scenario", "top level is not an object"));
        };
        let mut name = None;
        let mut description = String::new();
        let mut seeds = None;
        let mut base = oftt_check::Scenario::default();
        let mut expect_violations = false;
        let mut pin = Pin::default();
        let mut steps = Vec::new();
        for (key, value) in map {
            match key.as_str() {
                "name" => name = Some(self.text(value, "name")?),
                "description" => description = self.text(value, "description")?,
                "seeds" => seeds = Some(self.seeds(value)?),
                "horizon_ms" => {
                    let d = self.duration(value, "horizon_ms", 1_000)?;
                    base.horizon = SimTime::from_micros(d.as_micros());
                }
                "tie_window_us" => {
                    base.tie_window = self.duration(value, "tie_window_us", 1)?;
                }
                "expect_violations" => {
                    expect_violations = self.flag(value, "expect_violations")?;
                }
                "overrides" => self.overrides(value, &mut base)?,
                "pin" => pin = self.pin(value)?,
                "script" => steps = self.script(value)?,
                other => return Err(self.unknown("scenario", other)),
            }
        }
        let name = name.ok_or_else(|| self.bad("name", "required field is missing"))?;
        if name.is_empty() {
            return Err(self.bad("name", "must not be empty"));
        }
        let seeds = seeds.ok_or_else(|| self.seed_err("required field \"seeds\" is missing"))?;
        Ok(Scenario { name, description, seeds, expect_violations, pin, steps, base })
    }

    fn seeds(&self, v: &Json) -> Result<Vec<u64>, CampaignError> {
        if let Some(items) = v.as_array() {
            if items.is_empty() {
                return Err(self.seed_err("the seed list is empty"));
            }
            if items.len() > MAX_SEEDS {
                return Err(self.seed_err(format!(
                    "{} explicit seeds exceed the {MAX_SEEDS}-seed cap",
                    items.len()
                )));
            }
            let mut seen = BTreeSet::new();
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let seed = self.integer(item, "seeds")?;
                if !seen.insert(seed) {
                    return Err(self.seed_err(format!("seed {seed} is listed twice")));
                }
                out.push(seed);
            }
            return Ok(out);
        }
        let Some(map) = v.as_object() else {
            return Err(self.seed_err("expected an array of seeds or {\"range\": [lo, hi]}"));
        };
        for key in map.keys() {
            if key != "range" {
                return Err(self.unknown("seeds", key));
            }
        }
        let Some(range) = v.get("range").and_then(Json::as_array) else {
            return Err(self.seed_err("\"range\" must be a two-element array"));
        };
        let (lo, hi) = match (range.first(), range.get(1), range.len()) {
            (Some(lo), Some(hi), 2) => {
                (self.integer(lo, "seeds.range")?, self.integer(hi, "seeds.range")?)
            }
            _ => return Err(self.seed_err("\"range\" must be a two-element array")),
        };
        if lo > hi {
            return Err(self.seed_err(format!("range [{lo}, {hi}] is inverted")));
        }
        let span = hi - lo + 1;
        if span > MAX_SEEDS as u64 {
            return Err(self.seed_err(format!(
                "range [{lo}, {hi}] spans {span} seeds, over the {MAX_SEEDS}-seed cap"
            )));
        }
        Ok((lo..=hi).collect())
    }

    fn overrides(&self, v: &Json, base: &mut oftt_check::Scenario) -> Result<(), CampaignError> {
        let Some(map) = v.as_object() else {
            return Err(self.bad("overrides", "expected an object"));
        };
        let mut table = Vec::with_capacity(map.len());
        for (key, value) in map {
            table.push((
                key.as_str(),
                match value {
                    Json::Number(n) => OverrideValue::Number(*n),
                    Json::String(s) => OverrideValue::Text(s.clone()),
                    Json::Bool(b) => OverrideValue::Flag(*b),
                    _ => {
                        return Err(self.bad(
                            format!("overrides.{key}"),
                            "expected a number, string, or boolean",
                        ));
                    }
                },
            ));
        }
        overrides::set_all(&mut base.params, table.iter().map(|(key, value)| (*key, value)))
            .map_err(|inner| CampaignError::Override { path: self.path.to_string(), inner })
    }

    fn pin(&self, v: &Json) -> Result<Pin, CampaignError> {
        let Some(map) = v.as_object() else {
            return Err(self.bad("pin", "expected an object"));
        };
        let mut pin = Pin::default();
        for (key, value) in map {
            match key.as_str() {
                "min_availability" => {
                    let n = value
                        .as_f64()
                        .ok_or_else(|| self.bad("pin.min_availability", "expected a number"))?;
                    if !(0.0..=1.0).contains(&n) {
                        return Err(self.bad("pin.min_availability", "must be within [0, 1]"));
                    }
                    pin.min_availability = Some(n);
                }
                "max_failover_p99_ms" => {
                    let n = value
                        .as_f64()
                        .ok_or_else(|| self.bad("pin.max_failover_p99_ms", "expected a number"))?;
                    if n <= 0.0 {
                        return Err(self.bad("pin.max_failover_p99_ms", "must be positive"));
                    }
                    pin.max_failover_p99_ms = Some(n);
                }
                "min_failover_samples" => {
                    pin.min_failover_samples =
                        Some(self.integer(value, "pin.min_failover_samples")?);
                }
                other => return Err(self.unknown("pin", other)),
            }
        }
        Ok(pin)
    }

    fn script(&self, v: &Json) -> Result<Vec<StepTemplate>, CampaignError> {
        let Some(items) = v.as_array() else {
            return Err(self.bad("script", "expected an array of steps"));
        };
        items.iter().map(|step| self.step(step)).collect()
    }

    fn step(&self, v: &Json) -> Result<StepTemplate, CampaignError> {
        let Some(map) = v.as_object() else {
            return Err(self.bad("script step", "expected an object"));
        };
        let mut at = None;
        let mut op = None;
        let mut repeat = 1u64;
        let mut every = None;
        let mut jitter = SimDuration::from_micros(0);
        for (key, value) in map {
            match key.as_str() {
                "at_ms" => at = Some(SimTime::from_micros(self.micros(value, "at_ms", 1_000)?)),
                "op" => {
                    let line = self.text(value, "op")?;
                    op = Some(ScriptOp::parse(&line).map_err(|detail| self.bad("op", detail))?);
                }
                "repeat" => {
                    repeat = self.integer(value, "repeat")?;
                    if !(1..=10_000).contains(&repeat) {
                        return Err(self.bad("repeat", "must be within [1, 10000]"));
                    }
                }
                "every_ms" => every = Some(self.duration(value, "every_ms", 1_000)?),
                "jitter_ms" => {
                    jitter = SimDuration::from_micros(self.micros(value, "jitter_ms", 1_000)?);
                }
                other => return Err(self.unknown("script step", other)),
            }
        }
        let at = at.ok_or_else(|| self.bad("at_ms", "required step field is missing"))?;
        let op = op.ok_or_else(|| self.bad("op", "required step field is missing"))?;
        let every = match (every, repeat) {
            (Some(every), _) => every,
            (None, 1) => SimDuration::from_micros(0),
            (None, _) => {
                return Err(self.bad("every_ms", "required when repeat > 1"));
            }
        };
        Ok(StepTemplate { at, op, repeat, every, jitter })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftt_harness::overrides::OverrideError;

    const FULL: &str = r#"{
        "name": "storm",
        "description": "doc",
        "seeds": {"range": [1, 20]},
        "horizon_ms": 30000,
        "tie_window_us": 400,
        "expect_violations": false,
        "overrides": {"peer_timeout_ms": 1500, "link": "single"},
        "pin": {"min_availability": 0.9, "max_failover_p99_ms": 4000},
        "script": [
            {"at_ms": 8000, "op": "partition", "repeat": 3, "every_ms": 5000,
             "jitter_ms": 400},
            {"at_ms": 9000, "op": "heal", "repeat": 3, "every_ms": 5000},
            {"at_ms": 25000, "op": "crash a"},
            {"at_ms": 30000, "op": "repair a"},
            {"at_ms": 5000, "op": "path-down 0"},
            {"at_ms": 6000, "op": "slow-link 5000 1000 100000"}
        ]
    }"#;

    #[test]
    fn full_scenario_loads() {
        let sc = Scenario::load("full.json", FULL).unwrap();
        assert_eq!(sc.name, "storm");
        assert_eq!(sc.seeds, (1..=20).collect::<Vec<_>>());
        assert_eq!(sc.base.horizon, SimTime::from_secs(30));
        assert_eq!(sc.base.tie_window, SimDuration::from_micros(400));
        assert_eq!(sc.base.params.config.peer_timeout, SimDuration::from_millis(1_500));
        assert_eq!(sc.base.params.link.len(), 1, "the link override is applied at load");
        assert!(sc.base.script.steps.is_empty());
        assert_eq!(sc.pin.min_availability, Some(0.9));
        assert_eq!(sc.steps.len(), 6);
        let first = sc.steps.first().unwrap();
        assert_eq!(first.op, ScriptOp::Partition);
        assert_eq!(first.repeat, 3);
        assert_eq!(first.jitter, SimDuration::from_millis(400));
        let last = sc.steps.last().unwrap();
        assert_eq!(
            last.op,
            ScriptOp::SlowLink { latency_us: 5000, jitter_us: 1000, bandwidth_bps: 100_000 }
        );
    }

    #[test]
    fn unknown_keys_anywhere_are_hard_errors() {
        let shell = r#"{"name": "x", "seeds": [1], "horizen_ms": 1000}"#;
        match Scenario::load("t.json", shell).unwrap_err() {
            CampaignError::UnknownKey { context: "scenario", key, .. } => {
                assert_eq!(key, "horizen_ms");
            }
            other => panic!("{other}"),
        }
        for retired in ["inject_startup_bug", "overide"] {
            let shell = format!(r#"{{"name": "x", "seeds": [1], "{retired}": true}}"#);
            match Scenario::load("t.json", &shell).unwrap_err() {
                CampaignError::UnknownKey { context: "scenario", key, .. } => {
                    assert_eq!(key, retired);
                }
                other => panic!("{other}"),
            }
        }
        // The per-operand step keys are gone: operands live in the op line.
        for retired in ["slot", "path", "latency_us", "jitter_us", "bandwidth_bps"] {
            let step = format!(
                r#"{{"name": "x", "seeds": [1],
                    "script": [{{"at_ms": 1, "op": "heal", "{retired}": 1}}]}}"#
            );
            match Scenario::load("t.json", &step).unwrap_err() {
                CampaignError::UnknownKey { context: "script step", key, .. } => {
                    assert_eq!(key, retired);
                }
                other => panic!("{other}"),
            }
        }
        let pin = r#"{"name": "x", "seeds": [1], "pin": {"min_avail": 0.5}}"#;
        match Scenario::load("t.json", pin).unwrap_err() {
            CampaignError::UnknownKey { context: "pin", key, .. } => assert_eq!(key, "min_avail"),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn unknown_override_keys_carry_the_harness_error() {
        let text = r#"{"name": "x", "seeds": [1],
                       "overrides": {"peer_timeout_sm": 1500}}"#;
        match Scenario::load("t.json", text).unwrap_err() {
            CampaignError::Override { inner, .. } => {
                assert!(inner.to_string().contains("peer_timeout_sm"), "{inner}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn override_values_are_checked_and_combined_at_load() {
        for (overrides, needle) in [
            (r#"{"link_loss": 1.5}"#, "link_loss"),
            (r#"{"heartbeat_period_ms": 0}"#, "heartbeat_period_ms"),
            (r#"{"link": "single", "link_jitter_us": 5}"#, "cannot combine"),
        ] {
            let text = format!(r#"{{"name": "x", "seeds": [1], "overrides": {overrides}}}"#);
            match Scenario::load("t.json", &text).unwrap_err() {
                CampaignError::Override {
                    inner: OverrideError::BadValue { detail, key }, ..
                } => {
                    assert!(key == needle || detail.contains(needle), "{key}: {detail}");
                }
                other => panic!("{overrides}: {other}"),
            }
        }
        let startup_bug = r#"{"name": "x", "seeds": [1], "overrides":
                              {"startup_retries": 0, "startup_fallback": "become-primary"}}"#;
        let sc = Scenario::load("t.json", startup_bug).unwrap();
        assert!(sc.base.has_startup_bug(), "two overrides are the whole startup-bug preset");
    }

    #[test]
    fn duplicate_json_keys_are_typed_errors() {
        let text = r#"{"name": "x", "seeds": [1],
                       "overrides": {"peer_timeout_ms": 1500, "peer_timeout_ms": 2000}}"#;
        match Scenario::load("t.json", text).unwrap_err() {
            CampaignError::DuplicateKey { key, .. } => assert_eq!(key, "peer_timeout_ms"),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn bad_seed_spans_are_rejected() {
        for (text, needle) in [
            (r#"{"name": "x", "seeds": {"range": [9, 3]}}"#, "inverted"),
            (r#"{"name": "x", "seeds": {"range": [1, 10000000]}}"#, "cap"),
            (r#"{"name": "x", "seeds": [4, 4]}"#, "twice"),
            (r#"{"name": "x", "seeds": []}"#, "empty"),
            (r#"{"name": "x"}"#, "missing"),
        ] {
            match Scenario::load("t.json", text).unwrap_err() {
                CampaignError::BadSeedSpan { detail, .. } => {
                    assert!(detail.contains(needle), "{detail:?} vs {needle:?}");
                }
                other => panic!("{text}: {other}"),
            }
        }
    }

    #[test]
    fn ms_fields_past_the_microsecond_range_are_out_of_range() {
        // 2e16 ms is 2e19 us, past u64::MAX (~1.8e19): it must be a load
        // error, not an overflow panic (debug) or a wrapped time (release).
        const HUGE: u64 = 20_000_000_000_000_000;
        let step = |fields: &str| {
            format!(r#"{{"name": "ovf", "seeds": [1], "script": [{{"op": "heal", {fields}}}]}}"#)
        };
        for (field, text) in [
            ("horizon_ms", format!(r#"{{"name": "ovf", "seeds": [1], "horizon_ms": {HUGE}}}"#)),
            ("at_ms", step(&format!(r#""at_ms": {HUGE}"#))),
            ("every_ms", step(&format!(r#""at_ms": 1, "repeat": 2, "every_ms": {HUGE}"#))),
            ("jitter_ms", step(&format!(r#""at_ms": 1, "jitter_ms": {HUGE}"#))),
        ] {
            match Scenario::load("t.json", &text).unwrap_err() {
                CampaignError::BadField { field: got, detail, .. } => {
                    assert_eq!(got, field);
                    assert_eq!(detail, "out of range", "{field}");
                }
                other => panic!("{field}: {other}"),
            }
        }
    }

    #[test]
    fn wrong_operands_for_an_op_are_rejected() {
        for (op, needle) in [
            ("partition a", "partition takes no operands"),
            ("crash", "crash takes SLOT"),
            ("crash c", "bad pair slot"),
            ("path-down 256", "over 255"),
            ("slow-link 20000 5000", "slow-link takes"),
            ("slow-link 20000 5000 0", "bandwidth must be positive"),
            ("explode a", "unknown script op"),
        ] {
            let text = format!(
                r#"{{"name": "x", "seeds": [1], "script": [{{"at_ms": 1, "op": "{op}"}}]}}"#
            );
            match Scenario::load("t.json", &text).unwrap_err() {
                CampaignError::BadField { field, detail, .. } => {
                    assert_eq!(field, "op");
                    assert!(detail.contains(needle), "{op:?}: {detail}");
                }
                other => panic!("{op:?}: {other}"),
            }
        }
        let repeat = r#"{"name": "x", "seeds": [1],
                         "script": [{"at_ms": 1, "op": "heal", "repeat": 3}]}"#;
        let err = Scenario::load("t.json", repeat).unwrap_err().to_string();
        assert!(err.contains("every_ms"), "{err}");
    }
}
