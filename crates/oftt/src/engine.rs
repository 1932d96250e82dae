//! The OFTT engine — "the core of the OFTT toolkit" (paper §2.2.1).
//!
//! One engine runs on each pair node as its own service (the paper runs it
//! as a client-side COM server in a separate process). It performs the four
//! functions the paper lists:
//!
//! * **Role management** — startup negotiation with the peer engine
//!   (including the §3.2 retry fix), promotion on peer silence, and
//!   deterministic dual-primary resolution by [`crate::role::Claim`]
//!   precedence after a partition heals.
//! * **Failure detection** — heartbeat timeouts for every FTIM-linked
//!   component on the node, and for the peer engine. The engine's own
//!   failure is detected by the *peer* engine (and by local FTIMs via
//!   missing engine heartbeats). A backup whose transport reports the
//!   peer's link closed by the remote end *suspects* the peer, and two
//!   silent heartbeat periods or a refused redial confirm the suspicion —
//!   a shortcut of the peer timeout for the one fault that announces
//!   itself (DESIGN.md §5). What is suspected, cleared and confirmed is
//!   [`crate::detect`]'s rule; the engine keeps the clocks and the
//!   window's timer, and writes the trace lines.
//! * **Recovery management** — per-component
//!   [`crate::config::RecoveryRule`]: local restart for transient faults,
//!   switchover for permanent ones, escalation when a run of failures
//!   exhausts its restarts. The rule is [`crate::recover`]'s; the engine
//!   keeps each component's clocks, restarts it, and writes the trace
//!   lines.
//! * **Status reporting** — periodic [`StatusReport`]s to the System
//!   Monitor, if one is configured.

use std::collections::BTreeMap;
use std::sync::Arc;

use ds_net::endpoint::{Endpoint, NodeId, ServiceName};
use ds_net::message::Envelope;
use ds_net::process::{Process, ProcessEnv, ProcessEnvExt, TimerHandle};
use ds_net::transport::{TransportEvent, WIRE_SERVICE};
use ds_sim::prelude::{SimDuration, SimTime, TraceCategory};
use parking_lot::Mutex;

use crate::config::{engine_endpoint, OfttConfig};
use crate::detect::{self, DetectAction, DetectEvent, PeerWatch, Verdict};
use crate::messages::{
    decode_body, ComponentStatus, FromEngine, FtimKind, PeerMsg, RoleReport, StatusReport, ToEngine,
};
use crate::recover::{self, ComponentWatch, RecoverAction, RecoverEvent};
use crate::role::{Role, RoleTerm};
use crate::transition::{role_transition, RoleEvent, RoleOutcome, RoleView};

/// Timer tokens (below the RPC namespace).
const TICK: u64 = 1;
const STARTUP: u64 = 2;
const STATUS: u64 = 3;
const SUSPECT: u64 = 4;

/// Observable engine history, shared with tests and the harness.
#[derive(Debug, Default)]
pub struct EngineProbe {
    /// Every role transition: (when, role, term).
    pub role_history: Vec<(SimTime, Role, u64)>,
    /// Every component failure detection: (when, service).
    pub detections: Vec<(SimTime, String)>,
    /// Local restarts performed.
    pub restarts: u32,
    /// Switchover requests sent to the peer.
    pub switchover_requests: u32,
    /// `true` if the engine shut itself down at startup (§3.2 behaviour).
    pub shut_down_at_startup: bool,
    /// Peer link resets that made this backup suspect its primary.
    pub suspicions: u32,
    /// Suspicions cleared by word from the peer before the window closed.
    pub suspicions_cleared: u32,
    /// Suspicions confirmed by a silent window, each one a promotion.
    pub suspicions_confirmed: u32,
    /// Suspicions confirmed at once by a refused redial, each one a
    /// promotion.
    pub suspicions_refused: u32,
    /// Suspicions still open when the backup left Backup — in practice,
    /// overtaken by the peer timeout's promotion.
    pub suspicions_overtaken: u32,
}

impl EngineProbe {
    /// Time of the first transition into `role` at or after `from`.
    pub fn first_role_after(&self, from: SimTime, role: Role) -> Option<SimTime> {
        self.role_history.iter().find(|(at, r, _)| *at >= from && *r == role).map(|(at, _, _)| *at)
    }

    /// The most recent role, if any history exists.
    pub fn current_role(&self) -> Option<Role> {
        self.role_history.last().map(|(_, role, _)| *role)
    }
}

struct Component {
    kind: FtimKind,
    endpoint: Endpoint,
    last_beat: SimTime,
    /// When the previous failure was detected; zero before the first,
    /// which finds no restarts in its run either way.
    last_failure: SimTime,
    /// The recovery rule's state: the rule and the current run.
    watch: ComponentWatch,
}

impl Component {
    /// `true` if a failure detected `now` would start a new run.
    fn run_over(&self, now: SimTime, timeout: SimDuration) -> bool {
        recover::run_over(now.saturating_since(self.last_failure), timeout)
    }
}

/// The engine process.
pub struct Engine {
    config: OfttConfig,
    me: NodeId,
    peer: NodeId,
    role_term: RoleTerm,
    components: BTreeMap<ServiceName, Component>,
    last_peer_primary: SimTime,
    last_peer_any: SimTime,
    peer_role: Option<Role>,
    hello_attempts: u32,
    /// The detection rule's state: this engine's role and its open
    /// suspicion of the peer, if any.
    watch: PeerWatch,
    /// The timer of the open suspicion's window, while one is open.
    window: Option<TimerHandle>,
    probe: Arc<Mutex<EngineProbe>>,
}

impl Engine {
    /// Creates an engine for the node it will be started on. `probe` is a
    /// shared observation channel for tests and the harness.
    pub fn new(config: OfttConfig, probe: Arc<Mutex<EngineProbe>>) -> Self {
        config.validate();
        Engine {
            config,
            me: NodeId(u16::MAX), // resolved at on_start
            peer: NodeId(u16::MAX),
            role_term: RoleTerm::default(),
            components: BTreeMap::new(),
            last_peer_primary: SimTime::ZERO,
            last_peer_any: SimTime::ZERO,
            peer_role: None,
            hello_attempts: 0,
            watch: PeerWatch::new(Role::Negotiating, false),
            window: None,
            probe,
        }
    }

    fn peer_endpoint(&self) -> Endpoint {
        engine_endpoint(self.peer)
    }

    fn set_role(&mut self, role: Role, term: u64, reason: &str, env: &mut dyn ProcessEnv) {
        if !self.role_term.apply(role, term) {
            return;
        }
        env.record(
            TraceCategory::Engine,
            format!("{}: role={role} term={term} ({reason})", env.self_endpoint()),
        );
        let now = env.now();
        self.probe.lock().role_history.push((now, role, term));
        let update = FromEngine::RoleUpdate { role, term };
        for component in self.components.values() {
            env.send_msg(component.endpoint.clone(), update.clone());
        }
    }

    /// The slice of state the shared transition table reads.
    fn role_view(&self) -> RoleView {
        RoleView {
            me: self.me,
            peer: self.peer,
            role: self.role_term.role(),
            term: self.role_term.term(),
            peer_role: self.peer_role,
        }
    }

    /// Applies a table outcome. `detail` is the dynamic reason suffix (the
    /// switchover requester's stated reason), appended to the static text.
    fn apply_outcome(
        &mut self,
        outcome: RoleOutcome,
        detail: Option<&str>,
        env: &mut dyn ProcessEnv,
    ) {
        match outcome {
            RoleOutcome::Stay => {}
            // Silent adoption: no announcement, no trace (by design — see
            // `crate::transition`).
            RoleOutcome::AdoptTerm { term } => self.role_term.adopt_term(term),
            RoleOutcome::Announce { role, term, reason } => {
                self.detect(DetectEvent::RoleChanged(role), env);
                match detail {
                    Some(detail) => {
                        let text = format!("{}: {detail}", reason.text());
                        self.set_role(role, term, &text, env);
                    }
                    None => self.set_role(role, term, reason.text(), env),
                }
            }
            RoleOutcome::ShutDown => {
                env.record(
                    TraceCategory::Engine,
                    format!(
                        "{}: startup timeout: shutting down (original §3.2 logic)",
                        env.self_endpoint()
                    ),
                );
                self.probe.lock().shut_down_at_startup = true;
                env.exit();
            }
        }
    }

    fn request_switchover(&mut self, reason: String, env: &mut dyn ProcessEnv) {
        self.probe.lock().switchover_requests += 1;
        env.record(
            TraceCategory::Engine,
            format!("{}: requesting switchover: {reason}", env.self_endpoint()),
        );
        let term = self.role_term.term();
        let node = self.me;
        env.send_msg(self.peer_endpoint(), PeerMsg::SwitchoverRequest { node, term, reason });
        let outcome =
            role_transition(&self.role_view(), &RoleEvent::SwitchoverYield, &self.config.defects);
        self.apply_outcome(outcome, None, env);
    }

    /// Link events from this node's own transport.
    fn handle_transport(&mut self, event: TransportEvent, env: &mut dyn ProcessEnv) {
        let event = match event {
            TransportEvent::PeerDown { peer } if peer == self.peer => DetectEvent::LinkReset,
            TransportEvent::PeerConnected { peer, .. } if peer == self.peer => DetectEvent::LinkUp,
            TransportEvent::PeerRefused { peer } if peer == self.peer => DetectEvent::RedialRefused,
            _ => return,
        };
        self.detect(event, env);
    }

    /// Feeds one event to the detection rule and applies its action:
    /// clocks, the window's timer, the probe, the trace, and a verdict's
    /// pass through the transition table.
    fn detect(&mut self, event: DetectEvent, env: &mut dyn ProcessEnv) {
        let now = env.now();
        let window = detect::window(self.config.heartbeat_period, self.config.peer_timeout);
        match self.watch.step(event) {
            DetectAction::Nothing => {}
            DetectAction::Restart { primary, any } => self.restart_clocks(primary, any, now),
            DetectAction::Clear { primary, any } => {
                self.restart_clocks(primary, any, now);
                self.cancel_window(env);
                self.probe.lock().suspicions_cleared += 1;
                let why = if event == DetectEvent::LinkUp {
                    "link reconnected"
                } else {
                    "heard from peer"
                };
                env.record(
                    TraceCategory::Engine,
                    format!("{}: suspicion of {} cleared ({why})", env.self_endpoint(), self.peer),
                );
            }
            DetectAction::Arm => {
                self.window = Some(env.set_timer(window, SUSPECT));
                self.probe.lock().suspicions += 1;
                env.record(
                    TraceCategory::Engine,
                    format!(
                        "{}: link to {} closed by peer: suspected, confirming within {window}",
                        env.self_endpoint(),
                        self.peer
                    ),
                );
            }
            DetectAction::Expired { verdict } => {
                let detail = match verdict {
                    Verdict::Window => {
                        self.window = None;
                        self.probe.lock().suspicions_confirmed += 1;
                        Some(format!("link closed by peer, silent for {window}"))
                    }
                    Verdict::Refusal => {
                        self.cancel_window(env);
                        self.probe.lock().suspicions_refused += 1;
                        Some("link closed by peer, redial refused".to_string())
                    }
                    Verdict::Timeout { .. } => None,
                };
                let peer_silent = verdict.peer_silent();
                let outcome = role_transition(
                    &self.role_view(),
                    &RoleEvent::PrimarySilenceExpired { peer_silent },
                    &self.config.defects,
                );
                self.apply_outcome(outcome, detail.as_deref(), env);
            }
            DetectAction::Overtaken => {
                self.cancel_window(env);
                self.probe.lock().suspicions_overtaken += 1;
            }
        }
    }

    fn restart_clocks(&mut self, primary: bool, any: bool, now: SimTime) {
        if primary {
            self.last_peer_primary = now;
        }
        if any {
            self.last_peer_any = now;
        }
    }

    fn cancel_window(&mut self, env: &mut dyn ProcessEnv) {
        if let Some(timer) = self.window.take() {
            env.cancel_timer(timer);
        }
    }

    fn handle_peer(&mut self, msg: PeerMsg, env: &mut dyn ProcessEnv) {
        // Only a primary's heartbeat restarts the primary clock. A hello
        // reply reaches a negotiating engine, whose clock restarts when it
        // enters Backup.
        let primary = matches!(msg, PeerMsg::Heartbeat { role: Role::Primary, .. });
        self.detect(DetectEvent::Heard { primary }, env);
        let defects = self.config.defects;
        match msg {
            PeerMsg::Hello { node, role, term } => {
                self.peer_role = Some(role);
                let my = PeerMsg::HelloReply {
                    node: self.me,
                    role: self.role_term.role(),
                    term: self.role_term.term(),
                };
                env.send_msg(engine_endpoint(node), my);
                let outcome = role_transition(
                    &self.role_view(),
                    &RoleEvent::PeerHello { role, term },
                    &defects,
                );
                self.apply_outcome(outcome, None, env);
            }
            PeerMsg::HelloReply { node: _, role, term } => {
                self.peer_role = Some(role);
                let outcome = role_transition(
                    &self.role_view(),
                    &RoleEvent::PeerHelloReply { role, term },
                    &defects,
                );
                self.apply_outcome(outcome, None, env);
            }
            PeerMsg::Heartbeat { node: _, role, term } => {
                self.peer_role = Some(role);
                let outcome = role_transition(
                    &self.role_view(),
                    &RoleEvent::PeerHeartbeat { role, term },
                    &defects,
                );
                self.apply_outcome(outcome, None, env);
            }
            PeerMsg::SwitchoverRequest { node: _, term, reason } => {
                let outcome = role_transition(
                    &self.role_view(),
                    &RoleEvent::PeerSwitchoverRequest { term },
                    &defects,
                );
                self.apply_outcome(outcome, Some(&reason), env);
            }
        }
    }

    fn handle_component(&mut self, msg: ToEngine, from: Endpoint, env: &mut dyn ProcessEnv) {
        let now = env.now();
        match msg {
            ToEngine::Register { service, kind, rule } => {
                env.record(
                    TraceCategory::Engine,
                    format!("{}: registered {service} ({kind:?})", env.self_endpoint()),
                );
                let endpoint = Endpoint::new(self.me, service.clone());
                let component =
                    self.components.entry(service.clone()).or_insert_with(|| Component {
                        kind,
                        endpoint: endpoint.clone(),
                        last_beat: now,
                        last_failure: SimTime::ZERO,
                        watch: ComponentWatch::new(rule),
                    });
                component.kind = kind;
                component.last_beat = now;
                self.recover(&service, RecoverEvent::Registered { rule }, env);
                let role = self.role_term.role();
                let term = self.role_term.term();
                env.send_msg(endpoint, FromEngine::RoleUpdate { role, term });
            }
            ToEngine::Heartbeat { service } => {
                if let Some(component) = self.components.get_mut(&service) {
                    component.last_beat = now;
                    self.recover(&service, RecoverEvent::Beat, env);
                }
            }
            ToEngine::Distress { service, reason } => {
                env.record(
                    TraceCategory::Engine,
                    format!("{}: DISTRESS from {service}: {reason}", env.self_endpoint()),
                );
                if self.role_term.role() == Role::Primary {
                    self.request_switchover(format!("distress from {service}: {reason}"), env);
                }
            }
            ToEngine::QueryRole => {
                let report = RoleReport {
                    node: self.me,
                    role: self.role_term.role(),
                    term: self.role_term.term(),
                };
                env.send_msg(from, report);
            }
            ToEngine::SetRecoveryRule { service, rule } => {
                if self.components.contains_key(&service) {
                    self.recover(&service, RecoverEvent::RuleSet { rule }, env);
                    env.record(
                        TraceCategory::Engine,
                        format!(
                            "{}: recovery rule for {service} set to {rule:?}",
                            env.self_endpoint()
                        ),
                    );
                }
            }
        }
    }

    fn check_components(&mut self, env: &mut dyn ProcessEnv) {
        let now = env.now();
        let timeout = self.config.component_timeout;
        let overdue: Vec<(ServiceName, bool)> = self
            .components
            .iter()
            .filter(|(_, c)| now.saturating_since(c.last_beat) > timeout)
            .map(|(s, c)| (s.clone(), c.run_over(now, timeout)))
            .collect();
        for (service, run_over) in overdue {
            self.probe.lock().detections.push((now, service.as_str().to_string()));
            env.record(
                TraceCategory::Engine,
                format!("{}: detected failure of {service}", env.self_endpoint()),
            );
            self.recover(&service, RecoverEvent::Overdue { run_over }, env);
        }
    }

    /// Feeds one event to `service`'s recovery rule and applies its action:
    /// the failure's instant, the restart's grace period, the trace, the
    /// probe, and an escalating primary's switchover request.
    fn recover(&mut self, service: &ServiceName, event: RecoverEvent, env: &mut dyn ProcessEnv) {
        let now = env.now();
        let Some(component) = self.components.get_mut(service) else { return };
        let action = component.watch.step(event);
        if action == RecoverAction::Nothing {
            return;
        }
        component.last_failure = now;
        // Grace period: a restarted copy takes a moment to register and
        // resume heartbeats.
        component.last_beat = now;
        if let RecoverAction::Restart { attempt } = action {
            env.record(
                TraceCategory::Engine,
                format!("{}: local restart of {service} (attempt {attempt})", env.self_endpoint()),
            );
        } else if self.role_term.role() == Role::Primary {
            self.request_switchover(format!("{service} failed permanently"), env);
        }
        // After an escalation too, whichever role we end up in: the copy
        // comes back as standby software, active only after a promotion.
        self.probe.lock().restarts += 1;
        env.restart_service(self.me, service);
    }

    fn tick(&mut self, env: &mut dyn ProcessEnv) {
        let now = env.now();
        // 1. Advertise liveness to the peer and to local components.
        let hb = PeerMsg::Heartbeat {
            node: self.me,
            role: self.role_term.role(),
            term: self.role_term.term(),
        };
        env.send_msg(self.peer_endpoint(), hb);
        for component in self.components.values() {
            env.send_msg(component.endpoint.clone(), FromEngine::EngineHeartbeat);
        }
        // 2. Backup promotion on primary silence: the clocks are read
        // here, the verdict is the detection rule's.
        let timeout = self.config.peer_timeout;
        let primary_silent = now.saturating_since(self.last_peer_primary) > timeout;
        let any_silent = now.saturating_since(self.last_peer_any) > timeout;
        self.detect(DetectEvent::Tick { primary_silent, any_silent }, env);
        // 3. Local component failure detection and recovery.
        if env.now() > SimTime::ZERO {
            self.check_components(env);
        }
    }

    fn send_status(&mut self, env: &mut dyn ProcessEnv) {
        let Some(monitor) = self.config.monitor.clone() else { return };
        let now = env.now();
        let timeout = self.config.component_timeout;
        let report = StatusReport {
            node: self.me,
            role: self.role_term.role(),
            term: self.role_term.term(),
            peer_visible: now.saturating_since(self.last_peer_any) <= self.config.peer_timeout,
            components: self
                .components
                .iter()
                .map(|(service, c)| ComponentStatus {
                    service: service.as_str().to_string(),
                    kind: c.kind,
                    healthy: c.watch.healthy(),
                    restart_attempts: if c.run_over(now, timeout) { 0 } else { c.watch.restarts() },
                })
                .collect(),
            at: now,
        };
        env.send_msg(monitor, report);
    }
}

impl Process for Engine {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        self.me = env.self_endpoint().node;
        self.peer = self.config.pair.peer_of(self.me);
        env.record(TraceCategory::Engine, format!("{}: engine starting", env.self_endpoint()));
        let now = env.now();
        self.probe.lock().role_history.push((now, Role::Negotiating, 0));
        let hello = PeerMsg::Hello {
            node: self.me,
            role: self.role_term.role(),
            term: self.role_term.term(),
        };
        env.send_msg(self.peer_endpoint(), hello);
        env.set_timer(self.config.startup_timeout, STARTUP);
        env.set_timer(self.config.heartbeat_period, TICK);
        env.set_timer(self.config.status_period, STATUS);
    }

    fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
        match token {
            TICK => {
                self.tick(env);
                env.set_timer(self.config.heartbeat_period, TICK);
            }
            STARTUP => {
                if self.role_term.role() != Role::Negotiating {
                    return;
                }
                if self.hello_attempts < self.config.startup_retries {
                    self.hello_attempts += 1;
                    env.record(
                        TraceCategory::Engine,
                        format!("{}: startup retry {}", env.self_endpoint(), self.hello_attempts),
                    );
                    let hello = PeerMsg::Hello {
                        node: self.me,
                        role: self.role_term.role(),
                        term: self.role_term.term(),
                    };
                    env.send_msg(self.peer_endpoint(), hello);
                    env.set_timer(self.config.startup_timeout, STARTUP);
                } else {
                    let fallback = self.config.startup_fallback;
                    let outcome = role_transition(
                        &self.role_view(),
                        &RoleEvent::StartupRetriesExhausted { fallback },
                        &self.config.defects,
                    );
                    self.apply_outcome(outcome, None, env);
                }
            }
            STATUS => {
                self.send_status(env);
                env.set_timer(self.config.status_period, STATUS);
            }
            SUSPECT => self.detect(DetectEvent::WindowElapsed, env),
            _ => {}
        }
    }

    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        let from = envelope.from.clone();
        if envelope.body.is::<PeerMsg>() {
            match decode_body::<PeerMsg>(envelope.body, &from) {
                Ok(msg) => self.handle_peer(msg, env),
                Err(err) => env.record(
                    TraceCategory::Engine,
                    format!("{}: dropped: {err}", env.self_endpoint()),
                ),
            }
        } else if envelope.body.is::<ToEngine>() {
            match decode_body::<ToEngine>(envelope.body, &from) {
                Ok(msg) => self.handle_component(msg, from, env),
                Err(err) => env.record(
                    TraceCategory::Engine,
                    format!("{}: dropped: {err}", env.self_endpoint()),
                ),
            }
        } else if from.node == self.me && from.service.as_str() == WIRE_SERVICE {
            // Only this node's own transport speaks for its links.
            if let Ok(event) = decode_body::<TransportEvent>(envelope.body, &from) {
                self.handle_transport(event, env);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Pair;
    use ds_net::cluster::PROCESS_SPAWN_DELAY;
    use ds_net::fault::{inject, Fault};
    use ds_net::link::Link;
    use ds_net::node::NodeConfig;
    use ds_net::prelude::ClusterSim;
    use ds_sim::prelude::SimDuration;

    struct Rig {
        cs: ClusterSim,
        a: NodeId,
        b: NodeId,
        probe_a: Arc<Mutex<EngineProbe>>,
        probe_b: Arc<Mutex<EngineProbe>>,
    }

    fn rig_with(seed: u64, mutate: impl Fn(&mut OfttConfig)) -> Rig {
        let mut cs = ClusterSim::new(seed);
        let a = cs.add_node(NodeConfig { name: "Primary".into(), ..Default::default() });
        let b = cs.add_node(NodeConfig { name: "Backup".into(), ..Default::default() });
        cs.connect(a, b, Link::dual());
        let mut config = OfttConfig::new(Pair::new(a, b));
        mutate(&mut config);
        let probe_a = Arc::new(Mutex::new(EngineProbe::default()));
        let probe_b = Arc::new(Mutex::new(EngineProbe::default()));
        for (node, probe) in [(a, probe_a.clone()), (b, probe_b.clone())] {
            let config = config.clone();
            let probe = probe.clone();
            cs.register_service(
                node,
                crate::config::engine_service(),
                Box::new(move || Box::new(Engine::new(config.clone(), probe.clone()))),
                true,
            );
            cs.subscribe_transport_events(engine_endpoint(node));
        }
        Rig { cs, a, b, probe_a, probe_b }
    }

    fn rig(seed: u64) -> Rig {
        rig_with(seed, |_| {})
    }

    fn roles(rig: &Rig) -> (Option<Role>, Option<Role>) {
        let a = rig.probe_a.lock().current_role();
        (a, rig.probe_b.lock().current_role())
    }

    /// Both engines' settled roles, with a readable panic when either engine
    /// never announced one.
    #[track_caller]
    fn settled_roles(rig: &Rig, context: &str) -> (Role, Role) {
        match roles(rig) {
            (Some(ra), Some(rb)) => (ra, rb),
            partial => {
                panic!("{context}: an engine never announced a role (node a/b = {partial:?})")
            }
        }
    }

    #[test]
    fn startup_elects_exactly_one_primary() {
        for seed in 0..20 {
            let mut r = rig(seed);
            r.cs.start();
            r.cs.run_until(SimTime::from_secs(10));
            let pair = settled_roles(&r, &format!("seed {seed}"));
            assert!(
                matches!(pair, (Role::Primary, Role::Backup) | (Role::Backup, Role::Primary)),
                "seed {seed}: got {pair:?}"
            );
        }
    }

    #[test]
    fn node_crash_promotes_backup_within_timeout_scale() {
        let mut r = rig(71);
        r.cs.start();
        r.cs.run_until(SimTime::from_secs(10));
        // Find which node is primary and crash it.
        let (ra, _) = roles(&r);
        let (primary, backup_probe) = if ra == Some(Role::Primary) {
            (r.a, r.probe_b.clone())
        } else {
            (r.b, r.probe_a.clone())
        };
        inject(&mut r.cs, SimTime::from_secs(10), Fault::CrashNode(primary));
        r.cs.run_until(SimTime::from_secs(20));
        let promoted = backup_probe
            .lock()
            .first_role_after(SimTime::from_secs(10), Role::Primary)
            .expect("backup promoted");
        let latency = promoted - SimTime::from_secs(10);
        // Detection needs peer_timeout (1s) plus at most a couple of beats.
        assert!(latency <= SimDuration::from_millis(2_000), "promotion took {latency}");
    }

    #[test]
    fn engine_kill_is_detected_by_peer_and_survivor_takes_over() {
        let mut r = rig(72);
        r.cs.start();
        r.cs.run_until(SimTime::from_secs(10));
        let (ra, _) = roles(&r);
        let (primary_node, backup_probe) = if ra == Some(Role::Primary) {
            (r.a, r.probe_b.clone())
        } else {
            (r.b, r.probe_a.clone())
        };
        // Kill only the engine (failure class d).
        inject(
            &mut r.cs,
            SimTime::from_secs(10),
            Fault::KillService(primary_node, crate::config::engine_service()),
        );
        r.cs.run_until(SimTime::from_secs(20));
        assert!(
            backup_probe.lock().first_role_after(SimTime::from_secs(10), Role::Primary).is_some(),
            "peer engine must take over when the primary engine dies"
        );
    }

    #[test]
    fn partition_heal_resolves_dual_primary() {
        let mut r = rig(73);
        r.cs.start();
        r.cs.run_until(SimTime::from_secs(10));
        inject(&mut r.cs, SimTime::from_secs(10), Fault::Partition(r.a, r.b));
        r.cs.run_until(SimTime::from_secs(20));
        // Both sides now believe they are primary (the accepted hazard).
        let (ra, rb) = roles(&r);
        assert_eq!((ra, rb), (Some(Role::Primary), Some(Role::Primary)));
        inject(&mut r.cs, SimTime::from_secs(20), Fault::Heal(r.a, r.b));
        r.cs.run_until(SimTime::from_secs(30));
        let pair = settled_roles(&r, "after heal");
        assert!(
            matches!(pair, (Role::Primary, Role::Backup) | (Role::Backup, Role::Primary)),
            "heal must demote one side, got {pair:?}"
        );
    }

    #[test]
    fn lone_engine_without_retries_shuts_down() {
        // Original §3.2 design: start only one engine; it must give up.
        let mut r = rig_with(74, |c| {
            c.startup_retries = 0;
            c.startup_timeout = SimDuration::from_secs(2);
        });
        // Peer engine never starts: deregister by crashing node b first.
        inject(&mut r.cs, SimTime::from_micros(1), Fault::CrashNode(r.b));
        r.cs.start();
        r.cs.run_until(SimTime::from_secs(30));
        assert!(r.probe_a.lock().shut_down_at_startup);
    }

    #[test]
    fn retries_ride_out_slow_peer_startup() {
        // The shipped fix: node b's engine starts 8 s late; with 3 retries
        // of 5 s each, node a waits long enough.
        let mut r = rig_with(75, |c| {
            c.startup_timeout = SimDuration::from_secs(5);
            c.startup_retries = 3;
        });
        // Delay b's engine: kill it at boot, restart at t=8s.
        inject(
            &mut r.cs,
            SimTime::from_millis(600),
            Fault::KillService(r.b, crate::config::engine_service()),
        );
        inject(
            &mut r.cs,
            SimTime::from_secs(8),
            Fault::StartService(r.b, crate::config::engine_service()),
        );
        r.cs.start();
        r.cs.run_until(SimTime::from_secs(30));
        assert!(!r.probe_a.lock().shut_down_at_startup, "retries should cover an 8 s stagger");
        let pair = settled_roles(&r, "after slow peer startup");
        assert!(
            matches!(pair, (Role::Primary, Role::Backup) | (Role::Backup, Role::Primary)),
            "got {pair:?}"
        );
    }

    /// The elected pair after 10 s: (primary node, backup node, backup's
    /// probe).
    fn formed(r: &mut Rig) -> (NodeId, NodeId, Arc<Mutex<EngineProbe>>) {
        r.cs.start();
        r.cs.run_until(SimTime::from_secs(10));
        match settled_roles(r, "formation") {
            (Role::Primary, Role::Backup) => (r.a, r.b, r.probe_b.clone()),
            (Role::Backup, Role::Primary) => (r.b, r.a, r.probe_a.clone()),
            pair => panic!("no elected pair: {pair:?}"),
        }
    }

    /// The default configuration's suspicion window: two 250 ms periods.
    const WINDOW: SimDuration = SimDuration::from_millis(500);

    /// Every suspicion the probe counts ended in exactly one recorded way.
    #[track_caller]
    fn assert_ledger(probe: &EngineProbe, context: &str) {
        let ended = probe.suspicions_cleared
            + probe.suspicions_confirmed
            + probe.suspicions_refused
            + probe.suspicions_overtaken;
        assert_eq!(probe.suspicions, ended, "{context}: {probe:?}");
    }

    #[test]
    fn crash_with_reset_promotes_within_the_suspicion_window() {
        for seed in 0..20 {
            let mut r = rig(seed);
            let (primary, backup, probe) = formed(&mut r);
            let at = SimTime::from_secs(10);
            inject(&mut r.cs, at, Fault::CrashNode(primary));
            inject(&mut r.cs, at, Fault::PeerReset { from: primary, to: backup });
            r.cs.run_until(SimTime::from_secs(20));
            let probe = probe.lock();
            let promoted = probe.first_role_after(at, Role::Primary).expect("backup promoted");
            let latency = promoted - at;
            let tick = OfttConfig::new(Pair::new(r.a, r.b)).heartbeat_period;
            assert!(latency <= WINDOW + tick, "seed {seed}: promotion took {latency}");
            assert_eq!((probe.suspicions, probe.suspicions_confirmed), (1, 1), "seed {seed}");
            assert_ledger(&probe, &format!("seed {seed}"));
            assert!(
                r.cs.trace().find("link closed by peer, silent for 500.000ms").is_some(),
                "seed {seed}: the promotion reason names the reset"
            );
        }
    }

    #[test]
    fn a_suspicion_the_timeout_overtakes_is_counted() {
        let mut overtaken = 0;
        for seed in 0..10 {
            let mut r = rig(seed);
            let (primary, backup, probe) = formed(&mut r);
            let at = SimTime::from_secs(10);
            inject(&mut r.cs, at, Fault::CrashNode(primary));
            // The reset lands just before the 1 s timeout runs out, so the
            // timeout promotes before the window closes.
            let late = at + SimDuration::from_millis(900);
            inject(&mut r.cs, late, Fault::PeerReset { from: primary, to: backup });
            r.cs.run_until(SimTime::from_secs(20));
            let probe = probe.lock();
            assert!(probe.first_role_after(at, Role::Primary).is_some(), "seed {seed}");
            assert_eq!(probe.suspicions_confirmed, 0, "seed {seed}: the timeout wins");
            assert_ledger(&probe, &format!("seed {seed}"));
            overtaken += probe.suspicions_overtaken;
        }
        assert!(overtaken > 0, "no seed opened a suspicion before the timeout promoted");
    }

    #[test]
    fn reset_alone_never_demotes_a_live_connected_primary() {
        for seed in 0..50 {
            let mut r = rig(seed);
            let (primary, backup, probe) = formed(&mut r);
            inject(
                &mut r.cs,
                SimTime::from_secs(10),
                Fault::PeerReset { from: primary, to: backup },
            );
            r.cs.run_until(SimTime::from_secs(15));
            let pair = settled_roles(&r, &format!("seed {seed}"));
            assert!(
                matches!(pair, (Role::Primary, Role::Backup) | (Role::Backup, Role::Primary)),
                "seed {seed}: a spurious reset changed the roles: {pair:?}"
            );
            let probe = probe.lock();
            assert!(probe.first_role_after(SimTime::from_secs(10), Role::Primary).is_none());
            assert_eq!(
                (probe.suspicions, probe.suspicions_cleared, probe.suspicions_confirmed),
                (1, 1, 0),
                "seed {seed}: the primary's next heartbeat clears the suspicion"
            );
            assert_ledger(&probe, &format!("seed {seed}"));
        }
    }

    #[test]
    fn crash_without_reset_still_waits_out_the_peer_timeout() {
        for seed in 0..10 {
            let mut r = rig(seed);
            let (primary, _, probe) = formed(&mut r);
            let at = SimTime::from_secs(10);
            inject(&mut r.cs, at, Fault::CrashNode(primary));
            r.cs.run_until(SimTime::from_secs(20));
            let probe = probe.lock();
            let latency = probe.first_role_after(at, Role::Primary).expect("backup promoted") - at;
            let config = OfttConfig::new(Pair::new(r.a, r.b));
            assert!(
                latency >= config.peer_timeout - config.heartbeat_period,
                "seed {seed}: a silent crash promoted after only {latency}"
            );
            assert_eq!(probe.suspicions, 0);
            assert_ledger(&probe, &format!("seed {seed}"));
        }
    }

    /// Sends one `TransportEvent` to `to` when started.
    struct Forger {
        to: Endpoint,
        event: TransportEvent,
    }

    impl Process for Forger {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            env.send_msg(self.to.clone(), self.event);
        }
    }

    #[test]
    fn transport_events_not_from_the_own_wire_are_ignored() {
        let mut r = rig(77);
        let at = SimTime::from_secs(10);
        // Each node's `__wire` tells the *other* engine that the link went
        // down: a peer cannot report on the backup's links.
        forge_on_both(
            &mut r,
            at,
            |_, other| engine_endpoint(other),
            |node, _| TransportEvent::PeerDown { peer: node },
        );
        let (primary, backup, probe) = formed(&mut r);
        // Nor is a synthetic source on the backup's own node its transport.
        r.cs.post(at, engine_endpoint(backup), TransportEvent::PeerDown { peer: primary });
        r.cs.run_until(SimTime::from_secs(15));
        let probe = probe.lock();
        assert_eq!(probe.suspicions, 0, "no forged event may raise a suspicion");
        assert_ledger(&probe, "forged");
        assert!(probe.first_role_after(at, Role::Primary).is_none());
    }

    /// The default configuration's heartbeat period.
    const TICK_PERIOD: SimDuration = SimDuration::from_millis(250);

    #[test]
    fn crash_reset_and_refusal_promote_within_one_tick() {
        for seed in 0..20 {
            let mut r = rig(seed);
            let (primary, backup, probe) = formed(&mut r);
            let at = SimTime::from_secs(10);
            inject(&mut r.cs, at, Fault::CrashNode(primary));
            inject(&mut r.cs, at, Fault::PeerReset { from: primary, to: backup });
            let redial = at + SimDuration::from_millis(1);
            inject(&mut r.cs, redial, Fault::PeerRefused { from: primary, to: backup });
            r.cs.run_until(SimTime::from_secs(20));
            let probe = probe.lock();
            let latency = probe.first_role_after(at, Role::Primary).expect("backup promoted") - at;
            assert!(latency <= TICK_PERIOD, "seed {seed}: promotion took {latency}");
            assert_eq!(
                (probe.suspicions, probe.suspicions_confirmed, probe.suspicions_refused),
                (1, 0, 1),
                "seed {seed}"
            );
            assert_ledger(&probe, &format!("seed {seed}"));
            assert!(
                r.cs.trace().find("link closed by peer, redial refused").is_some(),
                "seed {seed}: the promotion reason names the refusal"
            );
        }
    }

    #[test]
    fn a_refusal_with_no_open_suspicion_never_promotes() {
        for seed in 0..20 {
            let mut r = rig(seed);
            // At start-up, while the engines negotiate: each node's
            // transport has its dials refused, as before the peer binds.
            for ms in [1, 300, 700, 1_500] {
                for (from, to) in [(r.a, r.b), (r.b, r.a)] {
                    inject(&mut r.cs, SimTime::from_millis(ms), Fault::PeerRefused { from, to });
                }
            }
            let (primary, backup, probe) = formed(&mut r);
            // Beside a live, connected primary, at both engines.
            let at = SimTime::from_secs(10);
            inject(&mut r.cs, at, Fault::PeerRefused { from: primary, to: backup });
            inject(&mut r.cs, at, Fault::PeerRefused { from: backup, to: primary });
            r.cs.run_until(SimTime::from_secs(15));
            let pair = settled_roles(&r, &format!("seed {seed}"));
            assert!(
                matches!(pair, (Role::Primary, Role::Backup) | (Role::Backup, Role::Primary)),
                "seed {seed}: a refusal changed the roles: {pair:?}"
            );
            assert!(probe.lock().first_role_after(at, Role::Primary).is_none(), "seed {seed}");
            for probe in [&r.probe_a, &r.probe_b] {
                let probe = probe.lock();
                assert_eq!((probe.suspicions, probe.suspicions_refused), (0, 0), "seed {seed}");
                assert_ledger(&probe, &format!("seed {seed}"));
            }
        }
    }

    /// Registers, on both nodes, a service named like the transport that
    /// sends `event(node, other)` to `to(node, other)` at `sends_at`.
    fn forge_on_both(
        r: &mut Rig,
        sends_at: SimTime,
        to: impl Fn(NodeId, NodeId) -> Endpoint,
        event: impl Fn(NodeId, NodeId) -> TransportEvent,
    ) {
        let at = SimTime::from_micros(sends_at.as_micros() - PROCESS_SPAWN_DELAY.as_micros());
        for (node, other) in [(r.a, r.b), (r.b, r.a)] {
            let to = to(node, other);
            let event = event(node, other);
            r.cs.register_service(
                node,
                WIRE_SERVICE,
                Box::new(move || Box::new(Forger { to: to.clone(), event })),
                false,
            );
            r.cs.start_service_at(at, node, WIRE_SERVICE);
        }
    }

    #[test]
    fn a_refusal_after_the_link_reconnected_never_promotes() {
        for seed in 0..20 {
            let mut r = rig(seed);
            let at = SimTime::from_secs(10);
            // Each node's own transport reports the link back up, 1 ms
            // after the reset; a refusal follows 1 ms later.
            forge_on_both(
                &mut r,
                at + SimDuration::from_millis(1),
                |node, _| engine_endpoint(node),
                |_, other| TransportEvent::PeerConnected { peer: other, epoch: 2, reconnect: true },
            );
            let (primary, backup, probe) = formed(&mut r);
            inject(&mut r.cs, at, Fault::PeerReset { from: primary, to: backup });
            let redial = at + SimDuration::from_millis(2);
            inject(&mut r.cs, redial, Fault::PeerRefused { from: primary, to: backup });
            r.cs.run_until(SimTime::from_secs(15));
            let probe = probe.lock();
            assert!(probe.first_role_after(at, Role::Primary).is_none(), "seed {seed}");
            assert_eq!(
                (probe.suspicions, probe.suspicions_cleared, probe.suspicions_refused),
                (1, 1, 0),
                "seed {seed}"
            );
            assert_ledger(&probe, &format!("seed {seed}"));
        }
    }

    #[test]
    fn a_refusal_forged_from_the_peers_wire_is_ignored() {
        for seed in 0..20 {
            let mut r = rig(seed);
            let at = SimTime::from_secs(10);
            // Each node's `__wire` tells the *other* engine that its own
            // address refused a dial, 1 ms into a genuine suspicion.
            forge_on_both(
                &mut r,
                at + SimDuration::from_millis(1),
                |_, other| engine_endpoint(other),
                |node, _| TransportEvent::PeerRefused { peer: node },
            );
            let (primary, backup, probe) = formed(&mut r);
            inject(&mut r.cs, at, Fault::PeerReset { from: primary, to: backup });
            // Nor is a synthetic source on the backup's own node its
            // transport.
            let forged = TransportEvent::PeerRefused { peer: primary };
            r.cs.post(at + SimDuration::from_millis(2), engine_endpoint(backup), forged);
            r.cs.run_until(SimTime::from_secs(15));
            let probe = probe.lock();
            assert!(probe.first_role_after(at, Role::Primary).is_none(), "seed {seed}");
            assert_eq!(
                (probe.suspicions, probe.suspicions_cleared, probe.suspicions_refused),
                (1, 1, 0),
                "seed {seed}: the primary's heartbeat clears the suspicion"
            );
            assert_ledger(&probe, &format!("seed {seed}"));
        }
    }

    #[test]
    fn repaired_node_rejoins_as_backup() {
        let mut r = rig(76);
        r.cs.start();
        r.cs.run_until(SimTime::from_secs(10));
        let (ra, _) = roles(&r);
        let (primary, primary_probe, backup_probe) = if ra == Some(Role::Primary) {
            (r.a, r.probe_a.clone(), r.probe_b.clone())
        } else {
            (r.b, r.probe_b.clone(), r.probe_a.clone())
        };
        inject(&mut r.cs, SimTime::from_secs(10), Fault::RebootNode(primary));
        r.cs.run_until(SimTime::from_secs(120));
        // The survivor is primary; the rebooted node rejoined as backup.
        assert_eq!(backup_probe.lock().current_role(), Some(Role::Primary));
        assert_eq!(primary_probe.lock().current_role(), Some(Role::Backup));
    }
}

#[cfg(test)]
mod negotiation_edge_tests {
    use super::*;
    use crate::config::Pair;
    use ds_net::fault::{inject, Fault};
    use ds_net::link::Link;
    use ds_net::node::NodeConfig;
    use ds_net::prelude::ClusterSim;

    fn rig(seed: u64) -> (ClusterSim, NodeId, NodeId, [Arc<Mutex<EngineProbe>>; 2]) {
        let mut cs = ClusterSim::new(seed);
        let a = cs.add_node(NodeConfig::default());
        let b = cs.add_node(NodeConfig::default());
        cs.connect(a, b, Link::dual());
        let config = OfttConfig::new(Pair::new(a, b));
        let probes = [
            Arc::new(Mutex::new(EngineProbe::default())),
            Arc::new(Mutex::new(EngineProbe::default())),
        ];
        for (idx, node) in [a, b].into_iter().enumerate() {
            let engine_config = config.clone();
            let probe = probes[idx].clone();
            cs.register_service(
                node,
                crate::config::engine_service(),
                Box::new(move || Box::new(Engine::new(engine_config.clone(), probe.clone()))),
                true,
            );
        }
        (cs, a, b, probes)
    }

    /// Terms are strictly monotone within each engine's history — a role
    /// transition never reuses or decreases the epoch.
    #[test]
    fn terms_never_decrease_across_switchovers() {
        let (mut cs, a, b, probes) = rig(801);
        cs.start();
        // A gauntlet: crash a, repair, crash b, repair.
        inject(&mut cs, SimTime::from_secs(10), Fault::CrashNode(a));
        inject(&mut cs, SimTime::from_secs(30), Fault::RepairNode(a));
        inject(&mut cs, SimTime::from_secs(50), Fault::CrashNode(b));
        inject(&mut cs, SimTime::from_secs(70), Fault::RepairNode(b));
        cs.run_until(SimTime::from_secs(100));
        for probe in &probes {
            let history = probe.lock().role_history.clone();
            // A (Negotiating, 0) entry marks a fresh engine incarnation
            // after a repair — terms restart there by design and are then
            // re-learned from the peer. Within an incarnation they must be
            // monotone.
            for pair in history.windows(2) {
                if pair[1].1 == Role::Negotiating {
                    continue;
                }
                assert!(
                    pair[1].2 >= pair[0].2,
                    "terms regressed within an incarnation: {:?} -> {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    /// A switchover request arriving at a still-negotiating engine promotes
    /// it (the failing primary must be relieved even during a peer's
    /// startup window).
    #[test]
    fn switchover_request_during_negotiation_promotes() {
        let (mut cs, a, b, probes) = rig(802);
        // Hold b's engine back so a forms late.
        inject(
            &mut cs,
            SimTime::from_millis(600),
            Fault::KillService(b, crate::config::engine_service()),
        );
        inject(
            &mut cs,
            SimTime::from_secs(3),
            Fault::StartService(b, crate::config::engine_service()),
        );
        // While b renegotiates, push a switchover request at it.
        cs.post(
            SimTime::from_millis(3_700),
            engine_endpoint(b),
            PeerMsg::SwitchoverRequest { node: a, term: 5, reason: "test".into() },
        );
        cs.run_until(SimTime::from_secs(10));
        let role_b = probes[1].lock().current_role();
        assert_eq!(role_b, Some(Role::Primary), "request must promote the negotiating engine");
        // And the adopted term exceeds the requester's.
        let term_b = probes[1].lock().role_history.last().unwrap().2;
        assert!(term_b > 5);
    }

    /// An engine with zero registered components ticks forever without
    /// detections or restarts (no vacuous failure handling).
    #[test]
    fn componentless_engine_is_quiet() {
        let (mut cs, _a, _b, probes) = rig(803);
        cs.start();
        cs.run_until(SimTime::from_secs(120));
        for probe in &probes {
            let probe = probe.lock();
            assert!(probe.detections.is_empty());
            assert_eq!(probe.restarts, 0);
            assert_eq!(probe.switchover_requests, 0);
        }
    }

    /// Distress from the backup's application is ignored (only the primary
    /// can hand over).
    #[test]
    fn distress_from_backup_is_ignored() {
        let (mut cs, a, b, probes) = rig(804);
        cs.start();
        cs.run_until(SimTime::from_secs(10));
        let backup = if probes[0].lock().current_role() == Some(Role::Backup) { a } else { b };
        let backup_idx = if backup == a { 0 } else { 1 };
        cs.post(
            SimTime::from_secs(10),
            engine_endpoint(backup),
            ToEngine::Distress { service: "app".into(), reason: "spurious".into() },
        );
        cs.run_until(SimTime::from_secs(20));
        assert_eq!(probes[backup_idx].lock().current_role(), Some(Role::Backup));
        assert_eq!(probes[backup_idx].lock().switchover_requests, 0);
    }
}
