//! Checked runs: one [`Scenario`] — a deployment, a fault script and a
//! horizon — and one runner, [`run`].
//!
//! [`run`] builds the full oftt-harness Figure-3 stack (pair + Test and
//! Interface PC with queue managers, engines, FTIM-wrapped Call Track,
//! diverter, monitor, telephone feed), installs an exploring schedule
//! policy, injects the script, runs to the horizon, and returns the parsed
//! trace plus the replayable schedule the run took.

use ds_net::endpoint::NodeId;
use ds_net::fault::Fault;
use ds_sim::prelude::{
    ChoicePoint, Schedule, SchedulePolicy, SimDuration, SimTime, TraceCategory, TraceEntry,
};
use oftt::config::{engine_endpoint, engine_service, StartupFallback};
use oftt::messages::ToEngine;
use oftt_harness::scenario::{Fig3Scenario, ScenarioParams};

use crate::parse::{parse_trace, Event};

/// The one run description: a deployment, a fault script and a horizon.
/// Every checked run — a named scenario, a campaign seed, a replayed
/// artifact, a rendered counterexample — is one of these handed to [`run`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The Figure-3 deployment, as plain data (the seed is [`run`]'s).
    pub params: ScenarioParams,
    /// The faults driven against it.
    pub script: FaultScript,
    /// How long the run lasts.
    pub horizon: SimTime,
    /// Events within this window of the earliest ready event count as
    /// simultaneous for tie-breaking. Wider windows create more choice
    /// points (more schedules) per run.
    pub tie_window: SimDuration,
}

impl Default for Scenario {
    /// The checked deployment with no faults.
    fn default() -> Self {
        Scenario {
            // Arm the Call Track deadman so checked runs exercise the
            // watchdog API surface (the FTIM reports its misuse and the
            // `api-lifecycle` invariant gates the report).
            params: ScenarioParams {
                watchdog: Some(SimDuration::from_secs(5)),
                ..Default::default()
            },
            script: FaultScript::default(),
            horizon: SimTime::from_secs(40),
            // Wide enough to make message races real choice points (IPC
            // latency is 50µs; link latencies are sub-millisecond).
            tie_window: SimDuration::from_micros(500),
        }
    }
}

impl Scenario {
    /// The checked deployment driven by `script`, everything else default.
    pub fn new(script: FaultScript) -> Self {
        Scenario { script, ..Default::default() }
    }

    /// The named scenarios, by their stable CLI and artifact names:
    ///
    /// * `pair-failover` — steady pair, hard-crash the first pair node
    ///   mid-run, repair it later: the paper's §4 class-(a) failover
    ///   exercised under every explored interleaving.
    /// * `partitioned-startup` — partition the pair interconnect during
    ///   the startup negotiation window, heal before the horizon: the §3.2
    ///   both-nodes-primary hazard's home turf.
    pub fn named(name: &str) -> Option<Self> {
        let steps = match name {
            "pair-failover" => vec![
                (SimTime::from_secs(10), ScriptOp::Crash(PairSlot::A)),
                (SimTime::from_secs(25), ScriptOp::Repair(PairSlot::A)),
            ],
            // Hit the window between boot and the first successful hello
            // exchange (services spawn with up to 500ms jitter + 20ms
            // process creation).
            "partitioned-startup" => vec![
                (SimTime::from_millis(5), ScriptOp::Partition),
                (SimTime::from_secs(8), ScriptOp::Heal),
            ],
            _ => return None,
        };
        Some(Scenario::new(FaultScript { steps }))
    }

    /// Re-introduces the pre-fix §3.2 startup behaviour — one negotiation
    /// attempt, then unilaterally become primary — as the two config
    /// values the campaign overrides `startup_retries: 0` and
    /// `startup_fallback: "become-primary"` also set.
    pub fn with_startup_bug(mut self) -> Self {
        self.params.config.startup_retries = 0;
        self.params.config.startup_fallback = StartupFallback::BecomePrimary;
        self
    }

    /// `true` if the deployment runs the pre-fix startup behaviour (what
    /// artifacts record as `inject-startup-bug`).
    pub fn has_startup_bug(&self) -> bool {
        self.params.config.startup_retries == 0
            && self.params.config.startup_fallback == StartupFallback::BecomePrimary
    }
}

/// Everything one checked run produces.
pub struct RunResult {
    /// The replayable schedule this run took (seed + every tie-break).
    pub schedule: Schedule,
    /// The choice points encountered, with candidate scopes.
    pub choice_points: Vec<ChoicePoint>,
    /// The parsed invariant-relevant events.
    pub events: Vec<Event>,
    /// The full rendered trace (for counterexample reports).
    pub trace_text: String,
    /// The protocol-relevant trace entries (engine, checkpoint, diverter,
    /// fault, and lifecycle records), clock-stripped — the payload of
    /// versioned trace exports.
    pub entries: Vec<TraceEntry>,
}

/// The trace categories a versioned export keeps: everything the protocol
/// invariants and the refinement checker read, nothing per-packet. The
/// FTIM's application-level API misuse reports are judged on the live run
/// and not exported.
pub const EXPORT_CATEGORIES: [TraceCategory; 5] = [
    TraceCategory::Fault,
    TraceCategory::Engine,
    TraceCategory::Checkpoint,
    TraceCategory::Diverter,
    TraceCategory::Other,
];

/// Runs `scenario` once under an exploring policy with the given forced
/// tie-break prefix. The same `(scenario, seed, forced)` always produces
/// the same result — replay is just re-running with a recorded prefix.
pub fn run(scenario: &Scenario, seed: u64, forced: &[u32]) -> RunResult {
    let mut fig3 = Fig3Scenario::build(&ScenarioParams { seed, ..scenario.params.clone() });
    fig3.cs.set_causality_recording(true);
    fig3.cs.set_schedule_policy(SchedulePolicy::Explore {
        forced: forced.to_vec(),
        window: scenario.tie_window,
    });
    scenario.script.inject(&mut fig3);
    fig3.start();
    fig3.run_until(scenario.horizon);
    let schedule = Schedule::new(seed, fig3.cs.choices_taken());
    let choice_points = fig3.cs.choice_points().to_vec();
    let trace = fig3.cs.trace();
    let entries = trace
        .entries()
        .iter()
        .filter(|e| EXPORT_CATEGORIES.contains(&e.category))
        .map(|e| TraceEntry { clock: None, ..e.clone() })
        .collect();
    RunResult {
        schedule,
        choice_points,
        events: parse_trace(trace),
        trace_text: trace.to_text(),
        entries,
    }
}

/// One side of the pair, named positionally so scripts stay independent of
/// concrete node names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairSlot {
    /// The pair's first node (`config.pair.a`).
    A,
    /// The pair's second node (`config.pair.b`).
    B,
}

impl PairSlot {
    /// Stable script name.
    pub fn name(self) -> &'static str {
        match self {
            PairSlot::A => "a",
            PairSlot::B => "b",
        }
    }

    /// Parses a script name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "a" => Some(PairSlot::A),
            "b" => Some(PairSlot::B),
            _ => None,
        }
    }

    fn node(self, a: NodeId, b: NodeId) -> NodeId {
        match self {
            PairSlot::A => a,
            PairSlot::B => b,
        }
    }
}

/// One step of a scripted fault campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Hard-crash a pair node.
    Crash(PairSlot),
    /// Repair a hard-crashed pair node.
    Repair(PairSlot),
    /// Kill just the OFTT engine on a pair node (paper failure class *d*).
    KillEngine(PairSlot),
    /// Relaunch a killed engine.
    RestartEngine(PairSlot),
    /// Partition the pair interconnect.
    Partition,
    /// Heal the pair interconnect.
    Heal,
    /// Deliver an `OFTTDistress` self-report to a pair node's engine,
    /// soliciting a switchover.
    Distress(PairSlot),
    /// Blue-screen a pair node: it goes down and reboots on its own
    /// (paper failure class *b*) — the reboot-loop campaigns' workhorse.
    Reboot(PairSlot),
    /// The other node's transport sees this node's end of the link close
    /// — its kernel's report of a whole-process death when paired with
    /// `crash` at the same instant, a severed connection otherwise.
    Reset(PairSlot),
    /// The other node's redial to this node is refused — its kernel's
    /// report that nothing listens at this node's address, as right after
    /// `crash` and `reset`.
    Refuse(PairSlot),
    /// Fail one path (by index) of the pair interconnect.
    PathDown(u8),
    /// Restore one path (by index) of the pair interconnect.
    PathUp(u8),
    /// Retune the pair interconnect's media: base latency (µs), jitter
    /// (µs), bandwidth (bytes/s). Traffic still flows, just degraded;
    /// restore by tuning back to the nominal `300 100 12500000`.
    SlowLink {
        /// New base latency, µs.
        latency_us: u64,
        /// New jitter (±), µs.
        jitter_us: u64,
        /// New bandwidth, bytes per second.
        bandwidth_bps: u64,
    },
}

/// Every script op with the operands it takes, for parse errors.
const OPS: [(&str, &str); 13] = [
    ("crash", "SLOT"),
    ("repair", "SLOT"),
    ("kill-engine", "SLOT"),
    ("restart-engine", "SLOT"),
    ("partition", "no operands"),
    ("heal", "no operands"),
    ("distress", "SLOT"),
    ("reboot", "SLOT"),
    ("reset", "SLOT"),
    ("refuse", "SLOT"),
    ("path-down", "PATH"),
    ("path-up", "PATH"),
    ("slow-link", "LATENCY_US JITTER_US BANDWIDTH_BPS"),
];

impl std::fmt::Display for ScriptOp {
    /// The script line form: the op name, then its operands.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptOp::Crash(slot) => write!(f, "crash {}", slot.name()),
            ScriptOp::Repair(slot) => write!(f, "repair {}", slot.name()),
            ScriptOp::KillEngine(slot) => write!(f, "kill-engine {}", slot.name()),
            ScriptOp::RestartEngine(slot) => write!(f, "restart-engine {}", slot.name()),
            ScriptOp::Partition => write!(f, "partition"),
            ScriptOp::Heal => write!(f, "heal"),
            ScriptOp::Distress(slot) => write!(f, "distress {}", slot.name()),
            ScriptOp::Reboot(slot) => write!(f, "reboot {}", slot.name()),
            ScriptOp::Reset(slot) => write!(f, "reset {}", slot.name()),
            ScriptOp::Refuse(slot) => write!(f, "refuse {}", slot.name()),
            ScriptOp::PathDown(path) => write!(f, "path-down {path}"),
            ScriptOp::PathUp(path) => write!(f, "path-up {path}"),
            ScriptOp::SlowLink { latency_us, jitter_us, bandwidth_bps } => {
                write!(f, "slow-link {latency_us} {jitter_us} {bandwidth_bps}")
            }
        }
    }
}

impl ScriptOp {
    /// Parses one op in its [`Display`](std::fmt::Display) form
    /// (`kill-engine a`, `slow-link 20000 5000 50000`): exactly the op's
    /// operands, a slot is `a` or `b`, a path index at most 255, a
    /// bandwidth positive.
    ///
    /// # Errors
    ///
    /// Returns a description naming the offending text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let slot = |w: &str| {
            PairSlot::parse(w).ok_or_else(|| format!("bad pair slot {w:?} (a or b) in {text:?}"))
        };
        let number = |w: &str| {
            w.parse::<u64>().map_err(|_| format!("bad numeric operand {w:?} in {text:?}"))
        };
        let path = |w: &str| {
            u8::try_from(number(w)?).map_err(|_| format!("path index {w} over 255 in {text:?}"))
        };
        let words: Vec<&str> = text.split_whitespace().collect();
        Ok(match words.as_slice() {
            ["crash", s] => ScriptOp::Crash(slot(s)?),
            ["repair", s] => ScriptOp::Repair(slot(s)?),
            ["kill-engine", s] => ScriptOp::KillEngine(slot(s)?),
            ["restart-engine", s] => ScriptOp::RestartEngine(slot(s)?),
            ["partition"] => ScriptOp::Partition,
            ["heal"] => ScriptOp::Heal,
            ["distress", s] => ScriptOp::Distress(slot(s)?),
            ["reboot", s] => ScriptOp::Reboot(slot(s)?),
            ["reset", s] => ScriptOp::Reset(slot(s)?),
            ["refuse", s] => ScriptOp::Refuse(slot(s)?),
            ["path-down", p] => ScriptOp::PathDown(path(p)?),
            ["path-up", p] => ScriptOp::PathUp(path(p)?),
            ["slow-link", latency, jitter, bandwidth] => {
                let bandwidth_bps = number(bandwidth)?;
                if bandwidth_bps == 0 {
                    return Err(format!("bandwidth must be positive in {text:?}"));
                }
                ScriptOp::SlowLink {
                    latency_us: number(latency)?,
                    jitter_us: number(jitter)?,
                    bandwidth_bps,
                }
            }
            [] => return Err("missing script op".to_string()),
            [op, ..] => {
                return Err(match OPS.iter().find(|(name, _)| name == op) {
                    Some((_, operands)) => format!("{op} takes {operands}, got {text:?}"),
                    None => format!("unknown script op {op:?}"),
                })
            }
        })
    }
}

/// A deterministic fault campaign: time-stamped [`ScriptOp`]s driven
/// against the standard Figure-3 deployment. Named scenarios, campaign
/// seeds and oftt-verify's rendered counterexamples are all scripts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    /// The steps, in schedule order.
    pub steps: Vec<(SimTime, ScriptOp)>,
}

impl FaultScript {
    /// Renders the script as line-oriented text: `<at-µs> <op>` per step,
    /// `#` comments and blank lines ignored on parse.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# oftt-check fault script\n");
        for (at, op) in &self.steps {
            out.push_str(&format!("{} {op}\n", at.as_micros()));
        }
        out
    }

    /// Parses [`FaultScript::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut steps = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (at, op) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let at = at.parse::<u64>().map_err(|_| format!("bad script time in {line:?}"))?;
            steps.push((SimTime::from_micros(at), ScriptOp::parse(op)?));
        }
        Ok(FaultScript { steps })
    }

    /// Schedules every step against a built deployment.
    fn inject(&self, fig3: &mut Fig3Scenario) {
        let (a, b) = (fig3.pair.a, fig3.pair.b);
        for &(at, op) in &self.steps {
            let fault = match op {
                ScriptOp::Crash(slot) => Fault::CrashNode(slot.node(a, b)),
                ScriptOp::Repair(slot) => Fault::RepairNode(slot.node(a, b)),
                ScriptOp::KillEngine(slot) => Fault::KillService(slot.node(a, b), engine_service()),
                ScriptOp::RestartEngine(slot) => {
                    Fault::StartService(slot.node(a, b), engine_service())
                }
                ScriptOp::Partition => Fault::Partition(a, b),
                ScriptOp::Heal => Fault::Heal(a, b),
                ScriptOp::Distress(slot) => {
                    fig3.cs.post(
                        at,
                        engine_endpoint(slot.node(a, b)),
                        ToEngine::Distress {
                            service: "scripted".into(),
                            reason: "scripted distress".into(),
                        },
                    );
                    continue;
                }
                ScriptOp::Reboot(slot) => Fault::RebootNode(slot.node(a, b)),
                ScriptOp::Reset(slot) => {
                    let from = slot.node(a, b);
                    Fault::PeerReset { from, to: if from == a { b } else { a } }
                }
                ScriptOp::Refuse(slot) => {
                    let from = slot.node(a, b);
                    Fault::PeerRefused { from, to: if from == a { b } else { a } }
                }
                ScriptOp::PathDown(path) => Fault::PathDown(a, b, path as usize),
                ScriptOp::PathUp(path) => Fault::PathUp(a, b, path as usize),
                ScriptOp::SlowLink { latency_us, jitter_us, bandwidth_bps } => {
                    Fault::TuneLink { a, b, latency_us, jitter_us, bandwidth_bps }
                }
            };
            fig3.inject(at, fault);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(feature = "inject_bugs"))]
    use crate::{invariants::check_all, parse::EventKind};

    #[test]
    fn only_the_two_names_resolve() {
        for name in ["pair-failover", "partitioned-startup"] {
            let scenario = Scenario::named(name).unwrap();
            assert_eq!(scenario.script.steps.len(), 2);
            assert!(!scenario.has_startup_bug());
            assert!(scenario.with_startup_bug().has_startup_bug());
        }
        assert_eq!(Scenario::named("nope"), None);
    }

    // Clean only without the seeded watchdog misuse (`inject_bugs`).
    #[cfg(not(feature = "inject_bugs"))]
    #[test]
    fn default_interleaving_of_pair_failover_is_clean_and_replayable() {
        let scenario = Scenario::named("pair-failover").unwrap();
        let first = run(&scenario, 1, &[]);
        assert!(
            first.events.iter().any(|e| matches!(
                &e.kind,
                EventKind::RoleUpdate { role: oftt::role::Role::Primary, .. }
            )),
            "a primary must be elected"
        );
        let violations = check_all(&first.events);
        assert!(violations.is_empty(), "default run must be clean: {violations:?}");
        assert!(!first.choice_points.is_empty(), "races must surface as choice points");
        // Replaying the recorded schedule reproduces the run exactly.
        let again = run(&scenario, 1, &first.schedule.choices);
        assert_eq!(again.trace_text, first.trace_text);
        assert_eq!(again.schedule, first.schedule);
        // The export selection keeps protocol events and drops per-packet
        // noise.
        assert!(!first.entries.is_empty());
        assert!(first.entries.iter().all(|e| EXPORT_CATEGORIES.contains(&e.category)));
        assert!(first.entries.iter().all(|e| e.clock.is_none()));
    }

    #[test]
    fn fault_scripts_round_trip_through_text() {
        let script = FaultScript {
            steps: vec![
                (SimTime::from_millis(5), ScriptOp::Partition),
                (SimTime::from_secs(8), ScriptOp::Heal),
                (SimTime::from_secs(10), ScriptOp::Crash(PairSlot::A)),
                (SimTime::from_secs(12), ScriptOp::KillEngine(PairSlot::B)),
                (SimTime::from_secs(14), ScriptOp::RestartEngine(PairSlot::B)),
                (SimTime::from_secs(20), ScriptOp::Distress(PairSlot::B)),
                (SimTime::from_secs(25), ScriptOp::Repair(PairSlot::A)),
                (SimTime::from_secs(26), ScriptOp::Reboot(PairSlot::B)),
                (SimTime::from_secs(26), ScriptOp::Reset(PairSlot::A)),
                (SimTime::from_secs(26), ScriptOp::Refuse(PairSlot::A)),
                (SimTime::from_secs(27), ScriptOp::PathDown(0)),
                (SimTime::from_secs(28), ScriptOp::PathUp(0)),
                (
                    SimTime::from_secs(30),
                    ScriptOp::SlowLink { latency_us: 5_000, jitter_us: 500, bandwidth_bps: 10_000 },
                ),
            ],
        };
        let text = script.to_text();
        assert_eq!(FaultScript::parse(&text).unwrap(), script);
        for (at, op) in &script.steps {
            assert_eq!(ScriptOp::parse(&op.to_string()), Ok(*op), "at {at:?}");
        }
        assert!(FaultScript::parse("soon crash a").is_err());
        assert!(FaultScript::parse("10").is_err());
    }

    #[test]
    fn wrong_operands_are_rejected_by_name() {
        for (line, needle) in [
            ("explode a", "unknown script op"),
            ("crash", "crash takes SLOT"),
            ("crash a b", "crash takes SLOT"),
            ("partition a", "partition takes no operands"),
            ("crash c", "bad pair slot"),
            ("reset", "reset takes SLOT"),
            ("refuse a b", "refuse takes SLOT"),
            ("path-down x", "bad numeric operand"),
            ("path-up 300", "over 255"),
            ("slow-link 5000", "slow-link takes LATENCY_US"),
            ("slow-link 1 1 0", "bandwidth must be positive"),
            ("", "missing script op"),
        ] {
            let err = ScriptOp::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    // Clean only without the seeded watchdog misuse (`inject_bugs`).
    #[cfg(not(feature = "inject_bugs"))]
    #[test]
    fn scripted_failover_matches_named_scenario() {
        // The pair-failover campaign written as script text produces the
        // same deterministic run as the named scenario.
        let script = FaultScript::parse("10000000 crash a\n25000000 repair a\n").unwrap();
        let scripted = run(&Scenario::new(script), 1, &[]);
        let named = run(&Scenario::named("pair-failover").unwrap(), 1, &[]);
        assert_eq!(scripted.trace_text, named.trace_text);
        assert!(check_all(&scripted.events).is_empty());
    }

    // Clean only without the seeded watchdog misuse (`inject_bugs`).
    #[cfg(not(feature = "inject_bugs"))]
    #[test]
    fn suspicion_records_are_no_events_and_scrape_nothing() {
        use ds_sim::prelude::Trace;
        // Refusals with no suspicion open, which both engines ignore; then
        // spurious resets with both nodes alive: the backup suspects its
        // primary and the next heartbeat clears it; the primary ignores its
        // own.
        let script = FaultScript::parse(
            "9000000 refuse a\n9000000 refuse b\n10000000 reset a\n10000000 reset b\n",
        )
        .unwrap();
        let result = run(&Scenario::new(script), 1, &[]);
        let words = ["redial to", "link reset by", "suspected", "suspicion"];
        let new_records: Vec<&TraceEntry> =
            result.entries.iter().filter(|e| words.iter().any(|w| e.message.contains(w))).collect();
        for needle in
            ["redial to", "link reset by", ": suspected, confirming within", "suspicion of"]
        {
            assert!(
                new_records.iter().any(|e| e.message.contains(needle)),
                "no {needle:?} record in the run"
            );
        }
        for entry in new_records {
            let mut trace = Trace::new();
            trace.record(entry.at, entry.category, entry.message.clone());
            assert_eq!(parse_trace(&trace), vec![], "{:?} must parse as no event", entry.message);
            // The substrings `oftt-node`'s stdout is scraped for.
            for scraped in [
                "role=primary",
                "role=backup",
                "ckpt shipped",
                "ckpt installed",
                "ckpt restore position",
                ": restored ",
                "application ACTIVE",
            ] {
                assert!(!entry.message.contains(scraped), "{:?}", entry.message);
            }
        }
        assert!(check_all(&result.events).is_empty());
    }

    // Clean only without the seeded watchdog misuse (`inject_bugs`).
    #[cfg(not(feature = "inject_bugs"))]
    #[test]
    fn distress_script_solicits_a_switchover() {
        let script =
            FaultScript { steps: vec![(SimTime::from_secs(10), ScriptOp::Distress(PairSlot::A))] };
        let result = run(&Scenario::new(script), 1, &[]);
        assert!(
            result.trace_text.contains("distress") || result.trace_text.contains("switchover"),
            "a distress report must surface in the trace"
        );
        assert!(check_all(&result.events).is_empty());
    }
}
