//! The Fault Tolerance Interface Module (paper §2.2.2).
//!
//! The FTIM is "linked to an application that wants to use OFTT services":
//! here, [`FtProcess`] wraps a type implementing [`FtApplication`] and runs
//! beside it, exactly as the paper's FTIM thread ran inside the
//! application's address space. It:
//!
//! * registers with the local engine and heartbeats (`OFTTInitialize`);
//! * takes periodic checkpoints of the application's designated variables
//!   and ships them to the peer FTIM (full or content-diffed deltas);
//! * receives and stores the peer's checkpoints while backup;
//! * activates the application on promotion, restoring the newest
//!   checkpoint (from its own store at switchover, or fetched from the
//!   peer after a local restart);
//! * manages reliable watchdog objects that survive failover;
//! * detects a dead local engine (failure class *d*) by missing engine
//!   heartbeats, fail-safes the application, and restarts the engine.
//!
//! The paper's *OPC server FTIM* (stateless, heartbeat-only) is
//! [`ServerFtProcess`].

use std::sync::Arc;

use ds_net::endpoint::Endpoint;
use ds_net::message::Envelope;
use ds_net::process::{Process, ProcessEnv, ProcessEnvExt, TimerHandle};
use ds_sim::prelude::{SimDuration, SimTime, TraceCategory};
use parking_lot::Mutex;

use crate::checkpoint::{
    checksum, AcceptOutcome, Checkpoint, CheckpointPayload, CheckpointStore, RejectReason, VarSet,
    VarStore,
};
use crate::config::{engine_service, OfttConfig, RecoveryRule};
use crate::messages::{FromEngine, FtimKind, FtimPeerMsg, ToEngine};
use crate::role::{Role, RoleTerm};
use crate::ship::{self, ShipAction, ShipEvent, ShipState};
use crate::watchdog::{WatchdogError, WatchdogTable, WATCHDOG_VAR};

/// Timer tokens at or above this value belong to the FTIM; applications
/// must keep their own tokens below it (and below
/// [`comsim::rpc::RPC_TIMER_BASE`]).
pub const FTIM_TIMER_BASE: u64 = 1 << 62;

const HEARTBEAT_TICK: u64 = FTIM_TIMER_BASE | 1;
const CHECKPOINT_TICK: u64 = FTIM_TIMER_BASE | 2;
const RESTORE_TIMEOUT: u64 = FTIM_TIMER_BASE | 3;

/// A fault-tolerant application, as the paper's OPC-client developers would
/// write one: domain logic plus named-state serialization.
pub trait FtApplication: Send {
    /// Marshals each named state variable (the "memory walkthrough" at
    /// `OFTTSelSave` granularity).
    fn snapshot(&self) -> VarSet;

    /// Incremental walkthrough: writes every variable that *may* have
    /// changed since the last call into `store`. Clean re-writes are
    /// filtered by the store's per-variable content digests, so the default
    /// (a full [`FtApplication::snapshot`] walk) is correct for every
    /// application — it just pays O(state) hashing per period. Override to
    /// write only the variables actually touched and the delta path becomes
    /// O(write set).
    fn snapshot_dirty(&mut self, store: &mut VarStore) {
        for (name, bytes) in self.snapshot() {
            store.set(name, bytes);
        }
    }

    /// Installs a restored image. Variables absent from the image keep
    /// their initial values.
    fn restore(&mut self, image: &VarSet);

    /// The application just became the active primary (state, if any, has
    /// already been restored).
    fn on_activate(&mut self, ctx: &mut FtCtx<'_>) {
        let _ = ctx;
    }

    /// The application must stop acting (demotion or fail-safe).
    fn on_deactivate(&mut self, ctx: &mut FtCtx<'_>) {
        let _ = ctx;
    }

    /// Application traffic, delivered only while active.
    fn on_app_message(&mut self, envelope: Envelope, ctx: &mut FtCtx<'_>) {
        let _ = (envelope, ctx);
    }

    /// Application timers, delivered only while active.
    fn on_app_timer(&mut self, token: u64, ctx: &mut FtCtx<'_>) {
        let _ = (token, ctx);
    }

    /// A reliable watchdog expired.
    fn on_watchdog(&mut self, name: &str, ctx: &mut FtCtx<'_>) {
        let _ = (name, ctx);
    }
}

/// Observable FTIM history for tests and the harness.
#[derive(Debug, Default)]
pub struct FtimProbe {
    /// Activation instants.
    pub activations: Vec<SimTime>,
    /// Deactivation instants.
    pub deactivations: Vec<SimTime>,
    /// Checkpoints shipped (count, bytes).
    pub ckpts_sent: u64,
    /// Checkpoint bytes shipped.
    pub ckpt_bytes_sent: u64,
    /// Full checkpoints among those shipped.
    pub fulls_sent: u64,
    /// Checkpoints installed into the local store.
    pub ckpts_installed: u64,
    /// Checkpoints the local store refused (stale, out of order, corrupt).
    pub ckpts_rejected: u64,
    /// Why the newest refused checkpoint was refused.
    pub last_reject: Option<RejectReason>,
    /// Highest `(term, seq)` acknowledged by the peer.
    pub last_acked: (u64, u64),
    /// Newest `(term, seq)` at which the peer's ack carried the image
    /// checksum this FTIM shipped: "is the backup's image current" is
    /// `last_confirmed` equal to the newest shipped position.
    pub last_confirmed: (u64, u64),
    /// Acks whose image checksum differed from the one shipped at that
    /// position — the backup's image had diverged; each is answered by a
    /// full image on the next ship.
    pub image_mismatches: u64,
    /// Full images shipped because `refresh_every` ship opportunities
    /// passed without a confirmation (as opposed to first-of-term, NACK,
    /// designation change or checksum mismatch).
    pub unconfirmed_refreshes: u64,
    /// Restores performed: (when, variables, from_local_store).
    pub restores: Vec<(SimTime, usize, bool)>,
    /// Activations that had no state to restore (data loss).
    pub fresh_activations: u64,
    /// Engine restarts this FTIM initiated (failure class d).
    pub engine_restarts: u64,
}

/// The toolkit services exposed to application callbacks — the paper's API
/// (`OFTTSave`, `OFTTSelSave`, `OFTTGetMyRole`, `OFTTWatchdog*`,
/// `OFTTDistress`) maps onto these methods; see [`crate::api`].
pub struct FtCtx<'a> {
    env: &'a mut dyn ProcessEnv,
    core: &'a mut FtimCore,
}

impl<'a> FtCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.env.now()
    }

    /// The underlying process environment (sending, timers, rng, trace).
    pub fn env(&mut self) -> &mut dyn ProcessEnv {
        self.env
    }

    /// `OFTTGetMyRole`: this node's current role.
    pub fn role(&self) -> Role {
        self.core.role_term.role()
    }

    /// `true` while this copy is the acting primary.
    pub fn is_active(&self) -> bool {
        self.core.active
    }

    /// `OFTTSelSave`: designates the variables to checkpoint; variables
    /// outside the designation are skipped. Calling with an empty list
    /// restores the default (checkpoint everything). Changing the
    /// designation forces the next checkpoint to be a full image, since
    /// pending deltas were filtered under the old designation.
    pub fn designate(&mut self, vars: &[&str]) {
        self.core.designated = (!vars.is_empty())
            .then(|| vars.iter().copied().chain([WATCHDOG_VAR]).map(str::to_string).collect());
        self.core.ship.step(ShipEvent::Designate);
    }

    /// `OFTTSave`: ship a checkpoint immediately, without waiting for the
    /// period (used for event-based checkpointing). A backup has nothing to
    /// ship; calling this there is reported as API misuse.
    pub fn save_now(&mut self) {
        if self.core.role_term.role() == Role::Backup {
            record_misuse(self.env, "save while backup");
        }
        self.core.save_requested = true;
    }

    /// Changes this component's recovery rule at run time (the dynamic
    /// decision the paper lists as unimplemented future work, §2.2.1).
    pub fn set_recovery_rule(&mut self, rule: RecoveryRule) {
        self.core.rule = rule;
        let service = self.core.service_endpoint.service.clone();
        let engine = self.core.engine_endpoint.clone();
        self.env.send_msg(engine, ToEngine::SetRecoveryRule { service, rule });
    }

    /// `OFTTDistress`: report a serious problem and request a switchover.
    pub fn distress(&mut self, reason: impl Into<String>) {
        let reason = reason.into();
        let service = self.core.service_endpoint.service.clone();
        let engine = self.core.engine_endpoint.clone();
        self.env.send_msg(engine, ToEngine::Distress { service, reason });
    }

    /// `OFTTWatchdogCreate`.
    ///
    /// # Errors
    ///
    /// [`WatchdogError::AlreadyExists`] on duplicate names.
    pub fn watchdog_create(
        &mut self,
        name: &str,
        period: SimDuration,
    ) -> Result<(), WatchdogError> {
        self.core.watchdogs.create(name, period)
    }

    /// `OFTTWatchdogSet`: arms the watchdog.
    ///
    /// # Errors
    ///
    /// [`WatchdogError::NotFound`] for unknown names.
    pub fn watchdog_set(&mut self, name: &str) -> Result<SimTime, WatchdogError> {
        let now = self.env.now();
        let res = self.core.watchdogs.set(name, now);
        self.check_found("watchdog_set", &res);
        res
    }

    /// `OFTTWatchdogReset`: kicks the watchdog.
    ///
    /// # Errors
    ///
    /// [`WatchdogError::NotFound`] for unknown names.
    pub fn watchdog_reset(&mut self, name: &str) -> Result<SimTime, WatchdogError> {
        let now = self.env.now();
        let res = self.core.watchdogs.reset(name, now);
        self.check_found("watchdog_reset", &res);
        res
    }

    /// `OFTTWatchdogDelete`.
    ///
    /// # Errors
    ///
    /// [`WatchdogError::NotFound`] for unknown names.
    pub fn watchdog_delete(&mut self, name: &str) -> Result<(), WatchdogError> {
        let res = self.core.watchdogs.delete(name);
        self.check_found("watchdog_delete", &res);
        res
    }

    /// Reports a `NotFound` the application may well ignore: the call named
    /// a watchdog this table does not hold.
    fn check_found<T>(&mut self, call: &str, res: &Result<T, WatchdogError>) {
        if let Err(WatchdogError::NotFound(name)) = res {
            record_misuse(self.env, &format!("{call} on unknown watchdog {name:?}"));
        }
    }
}

/// Records one `api misuse:` line — the FTIM owns the watchdog table and the
/// role, so it is where misuse of its API is judged (oftt-check's
/// `api-lifecycle` invariant reports each line).
fn record_misuse(env: &mut dyn ProcessEnv, what: &str) {
    env.record(TraceCategory::App, format!("{}: api misuse: {what}", env.self_endpoint()));
}

struct FtimCore {
    config: OfttConfig,
    rule: RecoveryRule,
    service_endpoint: Endpoint,
    engine_endpoint: Endpoint,
    peer_endpoint: Endpoint,
    role_term: RoleTerm,
    active: bool,
    /// The designation filter (`None`: everything), with the reserved
    /// watchdog variable always admitted — watchdog state must survive
    /// failover regardless of what the application designates.
    designated: Option<std::collections::BTreeSet<String>>,
    /// The primary-side shipping store: current image + pending delta +
    /// cached content digests + running image checksum.
    ship_store: VarStore,
    /// The shipping rule's state: full image owed, `seq`, unconfirmed ships.
    ship: ShipState,
    store: CheckpointStore,
    /// `(term, seq)` of the newest checkpoint this incarnation shipped
    /// while primary — used to decide whether the local store is actually
    /// newer than our live state when re-activating.
    shipped_position: (u64, u64),
    watchdogs: WatchdogTable,
    save_requested: bool,
    last_engine_heard: SimTime,
    engine_restart_pending: bool,
    pending_restore: bool,
    restore_timer: Option<TimerHandle>,
    /// The pending checkpoint tick; an activation restarts the period.
    ckpt_tick: Option<TimerHandle>,
    probe: Arc<Mutex<FtimProbe>>,
}

/// The client-FTIM process: wraps an [`FtApplication`].
pub struct FtProcess<A: FtApplication> {
    app: A,
    core: FtimCore,
}

impl<A: FtApplication> FtProcess<A> {
    /// Wraps `app` with OFTT services. `rule` is the component's recovery
    /// rule; `probe` is shared observability.
    pub fn new(
        config: OfttConfig,
        rule: RecoveryRule,
        app: A,
        probe: Arc<Mutex<FtimProbe>>,
    ) -> Self {
        config.validate();
        // Endpoints are resolved at on_start; placeholders until then.
        let placeholder = Endpoint::new(config.pair.a, "__unresolved");
        let ship = ShipState::new(config.checkpoint_mode);
        FtProcess {
            app,
            core: FtimCore {
                config,
                rule,
                service_endpoint: placeholder.clone(),
                engine_endpoint: placeholder.clone(),
                peer_endpoint: placeholder,
                role_term: RoleTerm::default(),
                active: false,
                designated: None,
                ship_store: VarStore::new(),
                ship,
                store: CheckpointStore::new(),
                shipped_position: (0, 0),
                watchdogs: WatchdogTable::new(),
                save_requested: false,
                last_engine_heard: SimTime::ZERO,
                engine_restart_pending: false,
                pending_restore: false,
                restore_timer: None,
                ckpt_tick: None,
                probe,
            },
        }
    }

    fn ctx_call(&mut self, env: &mut dyn ProcessEnv, f: impl FnOnce(&mut A, &mut FtCtx<'_>)) {
        {
            let mut ctx = FtCtx { env, core: &mut self.core };
            f(&mut self.app, &mut ctx);
        }
        if self.core.save_requested {
            self.core.save_requested = false;
            self.ship_checkpoint(env);
        }
    }

    fn activate(&mut self, env: &mut dyn ProcessEnv, image: Option<(VarSet, bool)>) {
        let now = env.now();
        match image {
            Some((vars, from_local)) => {
                // Watchdogs travel inside the image under a reserved name.
                if let Some(bytes) = vars.get(WATCHDOG_VAR) {
                    if let Ok(table) = comsim::marshal::from_bytes::<WatchdogTable>(bytes) {
                        self.core.watchdogs = table;
                    }
                }
                self.app.restore(&vars);
                self.core.probe.lock().restores.push((now, vars.len(), from_local));
                env.record(
                    TraceCategory::Checkpoint,
                    format!(
                        "{}: restored {} vars ({})",
                        env.self_endpoint(),
                        vars.len(),
                        if from_local { "local store" } else { "peer store" }
                    ),
                );
            }
            None => {
                self.core.probe.lock().fresh_activations += 1;
                env.record(
                    TraceCategory::Checkpoint,
                    format!(
                        "{}: activating with initial state (no checkpoint available)",
                        env.self_endpoint()
                    ),
                );
            }
        }
        self.start_term(env, false);
    }

    /// Activates on the application's state — restored or initial, or its
    /// live state if `resume` — runs `on_activate`, ships the first image at
    /// once and restarts the period, so the first delta trails it by a
    /// period.
    fn start_term(&mut self, env: &mut dyn ProcessEnv, resume: bool) {
        self.core.active = true;
        self.core.ship.step(ShipEvent::Activate { resume });
        self.core.ship_store.clear();
        self.core.probe.lock().activations.push(env.now());
        let me = env.self_endpoint();
        let suffix = if resume { " (resumed in place)" } else { "" };
        env.record(TraceCategory::Engine, format!("{me}: application ACTIVE{suffix}"));
        self.ctx_call(env, |app, ctx| app.on_activate(ctx));
        // An on_activate that saved already shipped the full image.
        if self.core.ship.owes_full() {
            self.ship_checkpoint(env);
        }
        let period = self.core.config.checkpoint_period;
        if let Some(tick) = self.core.ckpt_tick.replace(env.set_timer(period, CHECKPOINT_TICK)) {
            env.cancel_timer(tick);
        }
    }

    fn deactivate(&mut self, env: &mut dyn ProcessEnv, reason: &str) {
        if !self.core.active {
            return;
        }
        self.core.active = false;
        self.core.probe.lock().deactivations.push(env.now());
        env.record(
            TraceCategory::Engine,
            format!("{}: application INACTIVE ({reason})", env.self_endpoint()),
        );
        self.ctx_call(env, |app, ctx| app.on_deactivate(ctx));
        // Nothing feeds a watchdog the application still holds once it has
        // stopped acting: a leak.
        if !self.core.watchdogs.is_empty() {
            let live: Vec<&str> = self.core.watchdogs.names().collect();
            record_misuse(env, &format!("deactivated holding live watchdogs {live:?}"));
        }
    }

    /// The watchdog table as a checkpoint variable's bytes: it rides along
    /// with the image so watchdogs survive failover.
    fn watchdog_image(&self) -> Option<comsim::buf::Bytes> {
        comsim::marshal::to_shared(&self.core.watchdogs).ok()
    }

    /// A live designated image built directly from the application — the
    /// restore-serve path, which must not disturb the shipping store.
    fn current_vars(&self) -> VarSet {
        let mut vars = self.app.snapshot();
        if let Some(designated) = &self.core.designated {
            vars.retain(|name, _| designated.contains(name));
        }
        if !self.core.watchdogs.is_empty() {
            if let Some(bytes) = self.watchdog_image() {
                vars.insert(WATCHDOG_VAR.to_string(), bytes);
            }
        }
        vars
    }

    /// Brings the shipping store up to date with the application. An empty
    /// store (the first ship after an activation or a restart) is primed by
    /// walking the complete snapshot; every other sync lets the application
    /// report only its write set since the last one, which keeps the store
    /// current whether the ship is a delta or a full image. Either way the
    /// store's digests gate the dirty marks, so unchanged re-writes never
    /// dirty anything.
    fn sync_store(&mut self) {
        if self.core.ship_store.is_empty() {
            for (name, bytes) in self.app.snapshot() {
                self.core.ship_store.set(name, bytes);
            }
        } else {
            self.app.snapshot_dirty(&mut self.core.ship_store);
        }
        // Once shipped, the watchdog variable is kept current even if the
        // table empties (the peer must see the deletion).
        if !self.core.watchdogs.is_empty() || self.core.ship_store.get(WATCHDOG_VAR).is_some() {
            if let Some(bytes) = self.watchdog_image() {
                self.core.ship_store.set(WATCHDOG_VAR, bytes);
            }
        }
    }

    fn ship_checkpoint(&mut self, env: &mut dyn ProcessEnv) {
        if !self.core.active {
            return;
        }
        let opportunity = ShipEvent::Opportunity { term: self.core.role_term.term() };
        let ShipAction::Ship { term, seq, full, refresh } = self.core.ship.step(opportunity) else {
            return;
        };
        self.sync_store();
        let designated = self.core.designated.as_ref();
        // `image_crc` is the checksum of the *cumulative* designated image
        // (the store's running sum, no payload bytes touched) — the value
        // the backup's merged store must reproduce after installing this
        // checkpoint. For a full checkpoint it is also the payload
        // checksum; a delta's payload checksum is combined separately.
        let image_crc = self.core.ship_store.image_crc(designated);
        let (payload, payload_crc) = if full {
            let image = self.core.ship_store.image(designated);
            self.core.ship_store.clear_dirty();
            (CheckpointPayload::Full(image), image_crc)
        } else {
            let delta = self.core.ship_store.take_dirty(designated);
            if delta.is_empty() {
                // Nothing to ship; whether the peer is current is what the
                // confirmation clock decides.
                return;
            }
            let crc = self.core.ship_store.crc_of(&delta);
            (CheckpointPayload::Delta(delta), crc)
        };
        self.core.ship.step(ShipEvent::Shipped { image_crc });
        let checkpoint = Checkpoint::with_crc(term, seq, env.now(), payload, payload_crc);
        self.core.shipped_position = (term, seq);
        env.record(
            TraceCategory::Checkpoint,
            format!(
                "{}: ckpt shipped (term={term} seq={seq} crc={image_crc})",
                env.self_endpoint()
            ),
        );
        let size = checkpoint.wire_size();
        {
            let mut probe = self.core.probe.lock();
            probe.ckpts_sent += 1;
            probe.ckpt_bytes_sent += size;
            if full {
                probe.fulls_sent += 1;
            }
            if refresh {
                probe.unconfirmed_refreshes += 1;
            }
        }
        let peer = self.core.peer_endpoint.clone();
        env.send_sized(peer, FtimPeerMsg::Ckpt(checkpoint), size);
    }

    fn handle_engine(&mut self, msg: FromEngine, env: &mut dyn ProcessEnv) {
        self.core.last_engine_heard = env.now();
        self.core.engine_restart_pending = false;
        match msg {
            FromEngine::EngineHeartbeat => {}
            FromEngine::RoleUpdate { role, term } => {
                // The FTIM's dispatch copy of the engine's decision.
                self.core.role_term.apply(role, term);
                match role {
                    Role::Primary if !self.core.active && !self.core.pending_restore => {
                        let store_newer = self.core.store.is_restorable()
                            && self.core.store.position() > self.core.shipped_position;
                        if store_newer {
                            // Seeded defect: promote from the image the
                            // newest install displaced — a rollback past
                            // acknowledged state the ckpt-monotone
                            // invariant (and oftt-verify's promote-fresh
                            // property) must flag.
                            #[cfg(feature = "inject_bugs")]
                            if self.core.config.defects.stale_promotion {
                                if let Some((image, (rt, rs))) =
                                    self.core.store.stale_restore_image()
                                {
                                    env.record(
                                        TraceCategory::Checkpoint,
                                        format!(
                                            "{}: ckpt restore position (term={rt} seq={rs} crc={})",
                                            env.self_endpoint(),
                                            checksum(&image)
                                        ),
                                    );
                                    self.activate(env, Some((image, true)));
                                    return;
                                }
                            }
                            // Normal switchover: the peer's checkpoints in
                            // our store are the freshest state.
                            let (rt, rs) = self.core.store.position();
                            env.record(
                                TraceCategory::Checkpoint,
                                format!(
                                    "{}: ckpt restore position (term={rt} seq={rs} crc={})",
                                    env.self_endpoint(),
                                    self.core.store.image_crc()
                                ),
                            );
                            let image = self.core.store.to_restore_image();
                            self.activate(env, Some((image, true)));
                        } else if self.core.shipped_position > (0, 0) {
                            // This incarnation was primary before (e.g. a
                            // fail-safe blip while the engine restarted);
                            // its live state is newer than any checkpoint —
                            // resume in place, no rollback.
                            self.start_term(env, true);
                        } else {
                            // Fresh incarnation on the primary node (local
                            // restart): the newest state lives in the
                            // peer's store.
                            self.core.pending_restore = true;
                            let peer = self.core.peer_endpoint.clone();
                            env.send_msg(peer, FtimPeerMsg::RestoreRequest);
                            let timeout = self.core.config.component_timeout;
                            self.core.restore_timer = Some(env.set_timer(timeout, RESTORE_TIMEOUT));
                        }
                    }
                    Role::Backup | Role::Negotiating => {
                        self.core.pending_restore = false;
                        self.deactivate(env, "demoted");
                    }
                    _ => {}
                }
            }
        }
    }

    fn handle_peer(&mut self, msg: FtimPeerMsg, from: Endpoint, env: &mut dyn ProcessEnv) {
        match msg {
            FtimPeerMsg::Ckpt(checkpoint) => {
                let (term, seq) = (checkpoint.term, checkpoint.seq);
                let outcome = self.core.store.offer(&checkpoint);
                match outcome {
                    AcceptOutcome::Installed => {
                        self.core.probe.lock().ckpts_installed += 1;
                        // The merged image's checksum (the store's running
                        // sum) must equal the crc the primary logged when
                        // shipping — oftt-check's restore-integrity
                        // invariant audits exactly this.
                        let crc = self.core.store.image_crc();
                        env.record(
                            TraceCategory::Checkpoint,
                            format!(
                                "{}: ckpt installed (term={term} seq={seq} crc={crc})",
                                env.self_endpoint()
                            ),
                        );
                    }
                    AcceptOutcome::Rejected(reason) => {
                        let mut probe = self.core.probe.lock();
                        probe.ckpts_rejected += 1;
                        probe.last_reject = Some(reason);
                    }
                }
                let reply = ship::reply(outcome, &self.core.store);
                if matches!(reply, FtimPeerMsg::CkptNack) {
                    env.record(
                        TraceCategory::Checkpoint,
                        format!(
                            "{}: checkpoint ({term},{seq}) unusable; requesting full",
                            env.self_endpoint()
                        ),
                    );
                }
                env.send_msg(from, reply);
            }
            FtimPeerMsg::CkptAck { term, seq, crc } => {
                env.record(
                    TraceCategory::Checkpoint,
                    format!("{}: ckpt acked (term={term} seq={seq})", env.self_endpoint()),
                );
                let own_term = self.core.active.then(|| self.core.role_term.term());
                let ack = ShipEvent::Ack { own_term, position: (term, seq), crc };
                let action = self.core.ship.step(ack);
                {
                    let mut probe = self.core.probe.lock();
                    if (term, seq) > probe.last_acked {
                        probe.last_acked = (term, seq);
                    }
                    match action {
                        ShipAction::Confirmed => probe.last_confirmed = (term, seq),
                        ShipAction::Mismatch { .. } => probe.image_mismatches += 1,
                        ShipAction::Nothing | ShipAction::Ship { .. } => {}
                    }
                }
                if let ShipAction::Mismatch { shipped } = action {
                    env.record(
                        TraceCategory::Checkpoint,
                        format!(
                            "{}: ckpt image mismatch (term={term} seq={seq}): shipped crc \
                             {shipped}, peer holds {crc}; next ship is a full image",
                            env.self_endpoint()
                        ),
                    );
                }
            }
            FtimPeerMsg::CkptNack => {
                self.core.ship.step(ShipEvent::Nack);
            }
            FtimPeerMsg::RestoreRequest => {
                // Serve from the freshest source we have: our live state if
                // active, else our store. The "ckpt served" trace carries
                // the image checksum so oftt-check can tie the eventual
                // restore back to a state that actually existed here.
                let reply = if self.core.active {
                    let vars = self.current_vars();
                    env.record(
                        TraceCategory::Checkpoint,
                        format!(
                            "{}: ckpt served (term={} seq={} crc={})",
                            env.self_endpoint(),
                            self.core.role_term.term(),
                            self.core.ship.seq(),
                            checksum(&vars)
                        ),
                    );
                    FtimPeerMsg::RestoreReply {
                        image: Some(vars),
                        term: self.core.role_term.term(),
                        seq: self.core.ship.seq(),
                    }
                } else if self.core.store.is_restorable() {
                    let (term, seq) = self.core.store.position();
                    env.record(
                        TraceCategory::Checkpoint,
                        format!(
                            "{}: ckpt served (term={term} seq={seq} crc={})",
                            env.self_endpoint(),
                            self.core.store.image_crc()
                        ),
                    );
                    FtimPeerMsg::RestoreReply {
                        image: Some(self.core.store.to_restore_image()),
                        term,
                        seq,
                    }
                } else {
                    FtimPeerMsg::RestoreReply { image: None, term: 0, seq: 0 }
                };
                let size = match &reply {
                    FtimPeerMsg::RestoreReply { image: Some(vars), .. } => {
                        64 + crate::checkpoint::varset_wire_size(vars)
                    }
                    _ => 64,
                };
                env.send_sized(from, reply, size);
            }
            FtimPeerMsg::RestoreReply { image, term, seq } => {
                if !self.core.pending_restore {
                    return;
                }
                self.core.pending_restore = false;
                if let Some(handle) = self.core.restore_timer.take() {
                    env.cancel_timer(handle);
                }
                if let Some(vars) = &image {
                    env.record(
                        TraceCategory::Checkpoint,
                        format!(
                            "{}: ckpt restore position (term={term} seq={seq} crc={})",
                            env.self_endpoint(),
                            checksum(vars)
                        ),
                    );
                }
                self.activate(env, image.map(|vars| (vars, false)));
            }
        }
    }

    fn heartbeat_tick(&mut self, env: &mut dyn ProcessEnv) {
        let now = env.now();
        let service = self.core.service_endpoint.service.clone();
        let engine = self.core.engine_endpoint.clone();
        env.send_msg(engine, ToEngine::Heartbeat { service });

        // Failure class d: the local engine went silent. Fail safe (a
        // possibly-promoted peer must not find two active applications) and
        // bring the engine back.
        let engine_silent =
            now.saturating_since(self.core.last_engine_heard) > self.core.config.fail_safe_timeout;
        if engine_silent
            && !self.core.engine_restart_pending
            && self.core.last_engine_heard > SimTime::ZERO
        {
            self.core.engine_restart_pending = true;
            self.core.probe.lock().engine_restarts += 1;
            env.record(
                TraceCategory::Engine,
                format!("{}: engine silent; restarting it", env.self_endpoint()),
            );
            self.deactivate(env, "engine silent (fail-safe)");
            let node = env.self_endpoint().node;
            env.restart_service(node, &engine_service());
            // Re-register once the new engine is up (it has no component
            // table); registration is idempotent, so just re-send now and
            // rely on heartbeats afterwards.
            let service = self.core.service_endpoint.service.clone();
            let rule = self.core.rule;
            env.send_msg(
                self.core.engine_endpoint.clone(),
                ToEngine::Register { service, kind: FtimKind::OpcClient, rule },
            );
        }
        if self.core.engine_restart_pending {
            // Keep re-registering until the engine answers.
            let service = self.core.service_endpoint.service.clone();
            let rule = self.core.rule;
            env.send_msg(
                self.core.engine_endpoint.clone(),
                ToEngine::Register { service, kind: FtimKind::OpcClient, rule },
            );
        }

        // Watchdogs (checked at heartbeat granularity).
        if self.core.active {
            let expired = self.core.watchdogs.collect_expired(now);
            for name in expired {
                env.record(
                    TraceCategory::App,
                    format!("{}: watchdog {name:?} expired", env.self_endpoint()),
                );
                self.ctx_call(env, |app, ctx| app.on_watchdog(&name, ctx));
            }
        }
    }
}

impl<A: FtApplication> Process for FtProcess<A> {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        let me = env.self_endpoint();
        let node = me.node;
        let peer_node = self.core.config.pair.peer_of(node);
        self.core.service_endpoint = me.clone();
        self.core.engine_endpoint = crate::config::engine_endpoint(node);
        self.core.peer_endpoint = Endpoint::new(peer_node, me.service.clone());
        self.core.last_engine_heard = env.now();
        let rule = self.core.rule;
        env.send_msg(
            self.core.engine_endpoint.clone(),
            ToEngine::Register { service: me.service.clone(), kind: FtimKind::OpcClient, rule },
        );
        env.set_timer(self.core.config.heartbeat_period, HEARTBEAT_TICK);
        self.core.ckpt_tick =
            Some(env.set_timer(self.core.config.checkpoint_period, CHECKPOINT_TICK));
    }

    fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
        match token {
            HEARTBEAT_TICK => {
                self.heartbeat_tick(env);
                env.set_timer(self.core.config.heartbeat_period, HEARTBEAT_TICK);
            }
            CHECKPOINT_TICK => {
                self.ship_checkpoint(env);
                self.core.ckpt_tick =
                    Some(env.set_timer(self.core.config.checkpoint_period, CHECKPOINT_TICK));
            }
            RESTORE_TIMEOUT if self.core.pending_restore => {
                self.core.pending_restore = false;
                self.core.restore_timer = None;
                self.activate(env, None);
            }
            token if token < FTIM_TIMER_BASE && self.core.active => {
                self.ctx_call(env, |app, ctx| app.on_app_timer(token, ctx));
            }
            _ => {}
        }
    }

    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        let from = envelope.from.clone();
        if envelope.body.is::<FromEngine>() {
            match crate::messages::decode_body::<FromEngine>(envelope.body, &from) {
                Ok(msg) => self.handle_engine(msg, env),
                Err(err) => env.record(
                    TraceCategory::Engine,
                    format!("{}: dropped: {err}", env.self_endpoint()),
                ),
            }
        } else if envelope.body.is::<FtimPeerMsg>() {
            match crate::messages::decode_body::<FtimPeerMsg>(envelope.body, &from) {
                Ok(msg) => self.handle_peer(msg, from, env),
                Err(err) => env.record(
                    TraceCategory::Engine,
                    format!("{}: dropped: {err}", env.self_endpoint()),
                ),
            }
        } else if self.core.active {
            self.ctx_call(env, |app, ctx| app.on_app_message(envelope, ctx));
        }
    }
}

/// The stateless *OPC server FTIM* (paper §2.2.2): registers with the
/// engine and heartbeats, but takes no checkpoints — wrap any [`Process`].
pub struct ServerFtProcess<P: Process> {
    inner: P,
    config: OfttConfig,
    engine: Option<Endpoint>,
}

impl<P: Process> ServerFtProcess<P> {
    /// Wraps `inner` with registration + heartbeats.
    pub fn new(config: OfttConfig, inner: P) -> Self {
        ServerFtProcess { inner, config, engine: None }
    }
}

impl<P: Process> Process for ServerFtProcess<P> {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        let me = env.self_endpoint();
        let engine = crate::config::engine_endpoint(me.node);
        env.send_msg(
            engine.clone(),
            ToEngine::Register {
                service: me.service.clone(),
                kind: FtimKind::OpcServer,
                rule: RecoveryRule::LocalRestart { max_attempts: u32::MAX },
            },
        );
        self.engine = Some(engine);
        env.set_timer(self.config.heartbeat_period, HEARTBEAT_TICK);
        self.inner.on_start(env);
    }

    fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
        if token == HEARTBEAT_TICK {
            if let Some(engine) = &self.engine {
                let service = env.self_endpoint().service;
                env.send_msg(engine.clone(), ToEngine::Heartbeat { service });
            }
            env.set_timer(self.config.heartbeat_period, HEARTBEAT_TICK);
            return;
        }
        self.inner.on_timer(token, env);
    }

    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        if envelope.body.is::<FromEngine>() {
            return; // role changes don't affect a stateless server
        }
        self.inner.on_message(envelope, env);
    }
}
