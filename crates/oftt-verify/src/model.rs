//! The abstract pair-protocol model.
//!
//! One state of the model is everything protocol-relevant about the
//! redundant pair: each engine's role machine (driven by the *shared*
//! [`oftt::transition::role_transition`] table — the same function the
//! concrete engine executes, so the model cannot drift from the code),
//! its failure detector (driven by the shared [`oftt::detect`] rule, fed
//! from the model's tick counters), the two directed message channels,
//! the interconnect partition flag, and the remaining fault budgets.
//!
//! ## The abstraction map
//!
//! | concrete                              | abstract                        |
//! |---------------------------------------|---------------------------------|
//! | engine role/term/peer_role            | verbatim (term bounded)         |
//! | `last_peer_primary` clock             | `silence` tick counter          |
//! | `last_peer_any` clock                 | `any_silence` tick counter      |
//! | `detect::PeerWatch::step`             | verbatim (the same function)    |
//! | open suspicion + its window's timer   | `suspected` tick counter        |
//! | link reset / refused redial reported  | `Reset` (gate 6) / `Refuse` (7) |
//! | heartbeat/hello/reply/switchover msgs | [`AbsMsg`] with bounded age     |
//! | checkpoint data path                  | one [`Freshness`] per store     |
//! | FTIM deadman on the application       | `app_hung` + `WatchdogFire`     |
//! | link latency bounds                   | `max_age` forced delivery       |
//! | equal heartbeat periods on both nodes | `drift`-bounded tick counts     |
//!
//! Two timing facts of the concrete system are load-bearing and carried
//! as structural gates rather than left to schedule nondeterminism:
//!
//! * **Bounded delay** (`Bounds::max_age`): the simulated links deliver
//!   within a bounded latency, far under a heartbeat period. A raw
//!   message that has survived `max_age` ticks blocks *all* further
//!   ticks until it is delivered. Without this, a message could float
//!   for "seconds" of tick-time and arrive after promotions it would
//!   physically have preceded.
//! * **Bounded clock drift** (`Bounds::drift_max`): both engines tick at
//!   the same `heartbeat_period`, and `peer_timeout` spans several
//!   periods. A node may not run its tick counter more than `drift_max`
//!   ahead of a live peer. Without this, a backup could count itself to
//!   silence-promotion while the live primary never got a chance to
//!   heartbeat — a schedule real time cannot produce, and one that
//!   manufactures spurious same-term dual primaries.
//!
//! Everything else — message ordering, fault placement, who ticks first
//! — is explored exhaustively.

use ds_net::endpoint::NodeId;
use oftt::detect::{DetectAction, DetectEvent, PeerWatch};
use oftt::role::{Claim, Role};
use oftt::transition::{role_transition, Defects, RoleEvent, RoleOutcome, RoleView};

/// One side of the pair, positionally. `A` is the statically favored
/// node: it maps to the lower [`NodeId`], so it wins startup tie-breaks
/// and no-primary promotions — which is also why swapping the slots is
/// *not* a symmetry of this system (see `explore::swapped`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Slot {
    /// The favored node (`pair.a`, lower node id).
    A,
    /// The other node (`pair.b`).
    B,
}

/// Both slots, in canonical order.
pub const SLOTS: [Slot; 2] = [Slot::A, Slot::B];

impl Slot {
    /// Index into [`AbsState::nodes`].
    pub fn index(self) -> usize {
        match self {
            Slot::A => 0,
            Slot::B => 1,
        }
    }

    /// The peer slot.
    pub fn other(self) -> Slot {
        match self {
            Slot::A => Slot::B,
            Slot::B => Slot::A,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Slot::A => "a",
            Slot::B => "b",
        }
    }

    /// The node id the transition table sees for this slot. `A` is lower
    /// by construction.
    pub fn node_id(self) -> NodeId {
        NodeId(self.index() as u16)
    }

    /// The channel this slot sends into.
    pub fn outgoing(self) -> Dir {
        match self {
            Slot::A => Dir::AToB,
            Slot::B => Dir::BToA,
        }
    }
}

impl std::fmt::Display for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A directed channel between the pair nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Messages from `A` to `B`.
    AToB,
    /// Messages from `B` to `A`.
    BToA,
}

/// Both directions, in canonical order.
pub const DIRS: [Dir; 2] = [Dir::AToB, Dir::BToA];

impl Dir {
    /// Index into [`AbsState::chan`].
    pub fn index(self) -> usize {
        match self {
            Dir::AToB => 0,
            Dir::BToA => 1,
        }
    }

    /// The sending slot.
    pub fn sender(self) -> Slot {
        match self {
            Dir::AToB => Slot::A,
            Dir::BToA => Slot::B,
        }
    }

    /// The receiving slot.
    pub fn receiver(self) -> Slot {
        self.sender().other()
    }

    /// The opposite channel.
    pub fn reverse(self) -> Dir {
        match self {
            Dir::AToB => Dir::BToA,
            Dir::BToA => Dir::AToB,
        }
    }
}

impl std::fmt::Display for Dir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dir::AToB => f.write_str("a->b"),
            Dir::BToA => f.write_str("b->a"),
        }
    }
}

/// Coarse freshness of a node's checkpoint store relative to the current
/// primary's application state. Ordered: `Empty < Stale < Fresh`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Freshness {
    /// No checkpoint installed (cold store).
    Empty,
    /// An installed image the primary has since advanced past.
    Stale,
    /// The primary's newest shipped image.
    Fresh,
}

/// An abstract peer message. Role-bearing messages mirror
/// [`oftt::messages::PeerMsg`]; `Checkpoint` abstracts the whole FTIM
/// checkpoint transfer (which rides the reliable msgq path, so it is
/// exempt from raw-message aging and survives partitions queued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsMsg {
    /// Startup negotiation probe.
    Hello {
        /// Sender's advertised role.
        role: Role,
        /// Sender's advertised term.
        term: u8,
    },
    /// Response to a `Hello`, carrying the responder's *pre-transition*
    /// view (the engine replies before applying the table — mirrored
    /// exactly).
    HelloReply {
        /// Responder's role at receipt time.
        role: Role,
        /// Responder's term at receipt time.
        term: u8,
    },
    /// Periodic liveness claim.
    Heartbeat {
        /// Sender's role.
        role: Role,
        /// Sender's term.
        term: u8,
    },
    /// "You take over" — sent by a distressed or watchdog-fired primary.
    SwitchoverRequest {
        /// Requester's term at send time.
        term: u8,
    },
    /// A checkpoint image in flight to the peer's store.
    Checkpoint {
        /// Whether the image still matches the primary's state on
        /// arrival (an `Advance` in flight marks it stale).
        fresh: bool,
    },
}

impl AbsMsg {
    /// Raw engine datagrams age and are lost to partitions; checkpoint
    /// transfers are reliable.
    pub fn is_raw(self) -> bool {
        !matches!(self, AbsMsg::Checkpoint { .. })
    }
}

/// One queued message with its age in ticks (raw messages only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InFlight {
    /// The message.
    pub msg: AbsMsg,
    /// Ticks survived in the channel; bounded by [`Bounds::max_age`].
    pub age: u8,
}

/// Canonical sort key. Channels are *multisets* — [`Action::Deliver`]
/// picks an arbitrary index, so two channel orderings with the same
/// contents have identical futures; keeping each channel sorted merges
/// them into one state.
fn msg_key(m: &InFlight) -> (u8, u8, u8, u8) {
    fn role_key(r: Role) -> u8 {
        match r {
            Role::Negotiating => 0,
            Role::Primary => 1,
            Role::Backup => 2,
        }
    }
    match m.msg {
        AbsMsg::Hello { role, term } => (0, role_key(role), term, m.age),
        AbsMsg::HelloReply { role, term } => (1, role_key(role), term, m.age),
        AbsMsg::Heartbeat { role, term } => (2, role_key(role), term, m.age),
        AbsMsg::SwitchoverRequest { term } => (3, 0, term, m.age),
        AbsMsg::Checkpoint { fresh } => (4, 0, u8::from(fresh), m.age),
    }
}

/// One engine's abstract state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbsNode {
    /// Whether the node (and its engine) is running.
    pub up: bool,
    /// Engine role.
    pub role: Role,
    /// Engine term (bounded by [`Bounds::term_max`]).
    pub term: u8,
    /// The peer's last advertised role.
    pub peer_role: Option<Role>,
    /// Ticks since a primary heartbeat was heard (`last_peer_primary`).
    /// Meaningful only while `Backup`; normalized to 0 otherwise.
    pub silence: u8,
    /// Ticks since *any* peer message was heard (`last_peer_any`).
    pub any_silence: u8,
    /// Ticks since the open suspicion's window was armed, or `None` with
    /// no suspicion open: the model's clock for the engine's window timer.
    /// With `role`, it is the slot's [`PeerWatch`]; the window elapses
    /// [`SUSPICION_TICKS`] ticks after it was armed.
    pub suspected: Option<u8>,
    /// Freshness of the local checkpoint store.
    pub store: Freshness,
    /// Whether the FTIM-wrapped application has stopped heartbeating.
    pub app_hung: bool,
    /// Ticks the *peer* has taken since this node crashed (saturating;
    /// meaningful only while down). A repair takes seconds of real
    /// time, so the survivor's timers run through whole silence windows
    /// during the outage — [`Action::Repair`] is gated on this reaching
    /// [`Bounds::silence_limit`], which is what forces the survivor's
    /// silence-promotion to happen *before* the dead node returns, as
    /// it concretely must.
    pub down_ticks: u8,
}

impl AbsNode {
    /// A freshly booted (or rebooted) node.
    pub fn fresh() -> AbsNode {
        AbsNode {
            up: true,
            role: Role::Negotiating,
            term: 0,
            peer_role: None,
            silence: 0,
            any_silence: 0,
            suspected: None,
            store: Freshness::Empty,
            app_hung: false,
            down_ticks: 0,
        }
    }

    /// A crashed node: down, with all volatile state canonicalized so
    /// every way of crashing reaches the same abstract state.
    pub fn down() -> AbsNode {
        AbsNode { up: false, ..AbsNode::fresh() }
    }

    /// Silence counters track `Backup` promotion timers only; zeroing
    /// them in other roles is faithful (the detection rule reads them
    /// only in Backup) and collapses states that differ only in dead
    /// clocks.
    fn normalize(&mut self) {
        if self.role != Role::Backup {
            self.silence = 0;
            self.any_silence = 0;
        }
    }
}

/// How many of each fault the explorer may inject. Every fault strictly
/// decreases a budget, so fault actions can never sit on a cycle — which
/// is also what makes the liveness search's fairness argument work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Budgets {
    /// Hard node crashes (each implies one repair).
    pub crashes: u8,
    /// Interconnect partitions (each implies one heal).
    pub partitions: u8,
    /// Application distress calls into the engine.
    pub distress: u8,
    /// Primary state advances (checkpoint staleness events).
    pub advances: u8,
    /// Application hangs (FTIM deadman expiries).
    pub hangs: u8,
    /// Link resets reported to a backup (each needs a dead or cut-off
    /// peer; see [`Action::Reset`]).
    pub resets: u8,
}

impl Default for Budgets {
    fn default() -> Self {
        Budgets { crashes: 1, partitions: 1, distress: 1, advances: 1, hangs: 1, resets: 1 }
    }
}

/// Ticks from a link reset to its window's close: the window
/// ([`oftt::detect::window`]) is two heartbeat periods, so two of the
/// engine's ticks fall inside it.
pub const SUSPICION_TICKS: u8 = 2;

/// The finite bounds that make the state space exhaustible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Terms above this truncate the branch (counted, not explored).
    pub term_max: u8,
    /// Raw messages a channel holds before the sender's tick blocks.
    pub channel_cap: usize,
    /// Ticks a raw message may survive undelivered before all ticks
    /// block (the bounded-delay assumption).
    pub max_age: u8,
    /// Backup ticks without a primary heartbeat before the silence
    /// timer expires (abstracts `peer_timeout / heartbeat_period`).
    ///
    /// Soundness requires `silence_limit >= 2*drift_max + max_age + 1`:
    /// the drift gate lets a backup take at most `2*drift_max` silent
    /// ticks before a live peer must tick, and the peer's message can
    /// float for `max_age` more ticks before forced delivery resets the
    /// clock — so a live, whole-network peer caps the backup's silence
    /// at `2*drift_max + max_age`. A smaller limit lets the backup
    /// silence-promote past a peer that real time would have heard,
    /// manufacturing spurious dual primaries.
    pub silence_limit: u8,
    /// Maximum tick-count lead one live node may take over the other
    /// (abstracts equal heartbeat periods with bounded jitter).
    pub drift_max: i16,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds { term_max: 4, channel_cap: 3, max_age: 1, silence_limit: 4, drift_max: 1 }
    }
}

/// One global state of the abstract pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AbsState {
    /// The two engines, indexed by [`Slot::index`].
    pub nodes: [AbsNode; 2],
    /// The two channels, indexed by [`Dir::index`]; FIFO order is *not*
    /// assumed — delivery picks any queued message.
    pub chan: [Vec<InFlight>; 2],
    /// Whether the pair interconnect is partitioned.
    pub partitioned: bool,
    /// Remaining fault budgets.
    pub budgets: Budgets,
    /// Tick-count lead of `A` over `B` (bounded by
    /// [`Bounds::drift_max`]; reset when either node crashes/repairs).
    pub drift: i16,
}

impl AbsState {
    /// The initial state: both nodes freshly booted, channels empty,
    /// network whole.
    pub fn initial(budgets: Budgets) -> AbsState {
        AbsState {
            nodes: [AbsNode::fresh(), AbsNode::fresh()],
            chan: [Vec::new(), Vec::new()],
            partitioned: false,
            budgets,
            drift: 0,
        }
    }

    fn node(&self, slot: Slot) -> &AbsNode {
        &self.nodes[slot.index()]
    }

    fn node_mut(&mut self, slot: Slot) -> &mut AbsNode {
        &mut self.nodes[slot.index()]
    }

    fn raw_count(&self, dir: Dir) -> usize {
        self.chan[dir.index()].iter().filter(|m| m.msg.is_raw()).count()
    }

    fn has_overdue_raw(&self, bounds: &Bounds) -> bool {
        self.chan.iter().flatten().any(|m| m.msg.is_raw() && m.age >= bounds.max_age)
    }

    /// The [`RoleView`] the shared transition table reads for a slot.
    pub fn role_view(&self, slot: Slot) -> RoleView {
        let n = self.node(slot);
        RoleView {
            me: slot.node_id(),
            peer: slot.other().node_id(),
            role: n.role,
            term: u64::from(n.term),
            peer_role: n.peer_role,
        }
    }

    /// Both nodes up and serving as primary with the network whole —
    /// the condition the liveness search must prove transient.
    pub fn dual_primary_live(&self) -> bool {
        !self.partitioned && self.nodes.iter().all(|n| n.up && n.role == Role::Primary)
    }

    /// Any message a [`Action::Deliver`] could currently move (used by
    /// the liveness fairness automaton).
    pub fn has_deliverable(&self) -> bool {
        !self.partitioned
            && DIRS.iter().any(|d| !self.chan[d.index()].is_empty() && self.node(d.receiver()).up)
    }
}

/// One transition of the abstract system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// A node's heartbeat timer fires: age in-flight messages, send a
    /// hello (negotiating) or heartbeat (established), run the silence
    /// check.
    Tick(Slot),
    /// Deliver the message at an index of a channel.
    Deliver(Dir, u8),
    /// Hard-crash a node (budgeted).
    Crash(Slot),
    /// Reboot a crashed node fresh.
    Repair(Slot),
    /// Partition the interconnect (budgeted); queued raw messages die.
    Partition,
    /// Heal the partition.
    Heal,
    /// The application self-reports distress to its (primary) engine
    /// (budgeted): a switchover request goes out and the engine yields.
    Distress(Slot),
    /// The primary ships a checkpoint of its current state to the peer.
    Ship(Slot),
    /// The primary's application state advances, staling the peer's
    /// store and any image in flight (budgeted).
    Advance(Slot),
    /// The application stops heartbeating its FTIM (budgeted).
    Hang(Slot),
    /// The FTIM deadman expires on a hung application; a primary reacts
    /// as if distressed.
    WatchdogFire(Slot),
    /// The peer's transport sees this slot's end of the link close, and
    /// the peer — a backup — starts suspecting it (budgeted).
    Reset(Slot),
    /// The peer's redial to this slot is refused, and the peer — a backup
    /// with an open suspicion — promotes at once.
    Refuse(Slot),
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Tick(s) => write!(f, "tick {s}"),
            Action::Deliver(d, i) => write!(f, "deliver {d}[{i}]"),
            Action::Crash(s) => write!(f, "crash {s}"),
            Action::Repair(s) => write!(f, "repair {s}"),
            Action::Partition => f.write_str("partition"),
            Action::Heal => f.write_str("heal"),
            Action::Distress(s) => write!(f, "distress {s}"),
            Action::Ship(s) => write!(f, "ship {s}"),
            Action::Advance(s) => write!(f, "advance {s}"),
            Action::Hang(s) => write!(f, "hang {s}"),
            Action::WatchdogFire(s) => write!(f, "watchdog-fire {s}"),
            Action::Reset(s) => write!(f, "reset {s}"),
            Action::Refuse(s) => write!(f, "refuse {s}"),
        }
    }
}

/// A role announcement — the *observable* of the abstract system, and
/// what concrete traces are projected onto for refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Obs {
    /// Which engine announced.
    pub slot: Slot,
    /// The announced role (never `Negotiating`; the table never
    /// announces it).
    pub role: Role,
    /// The announced term.
    pub term: u8,
}

impl std::fmt::Display for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{:?}({})", self.slot, self.role, self.term)
    }
}

/// A safety breach found on one transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsViolation {
    /// Stable invariant name.
    pub invariant: &'static str,
    /// The offending values.
    pub detail: String,
}

/// The result of applying one enabled action.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The successor state, or `None` when the branch leaves the
    /// bounded space (term overflow) and is truncated instead.
    pub next: Option<AbsState>,
    /// The role announcement the action produced, if any.
    pub obs: Option<Obs>,
    /// Safety violations observed on this transition. Exploration
    /// *continues* through violating transitions (the liveness search
    /// needs the lasso behind a persistent violation), so these are
    /// reports, not terminators.
    pub violations: Vec<AbsViolation>,
}

/// Mutable bookkeeping while building one step.
struct Ctx {
    obs: Option<Obs>,
    violations: Vec<AbsViolation>,
    truncated: bool,
}

impl Ctx {
    fn new() -> Ctx {
        Ctx { obs: None, violations: Vec::new(), truncated: false }
    }
}

/// Applies a transition-table outcome to a slot, mirroring
/// `Engine::apply_outcome` (the detection rule hears of every
/// announcement) plus the promotion-time checkpoint restore.
fn apply_role_outcome(
    s: &mut AbsState,
    slot: Slot,
    outcome: RoleOutcome,
    defects: &Defects,
    bounds: &Bounds,
    ctx: &mut Ctx,
) {
    match outcome {
        RoleOutcome::Stay => {}
        RoleOutcome::AdoptTerm { term } => {
            if term > u64::from(bounds.term_max) {
                ctx.truncated = true;
                return;
            }
            s.node_mut(slot).term = term as u8;
        }
        RoleOutcome::ShutDown => {
            // §3.2 original fallback; unreachable under the modeled
            // scenarios (no startup-retry exhaustion) but kept faithful.
            *s.node_mut(slot) = AbsNode::down();
        }
        RoleOutcome::Announce { role, term, reason: _ } => {
            if term > u64::from(bounds.term_max) {
                ctx.truncated = true;
                return;
            }
            let was = s.node(slot).role;
            if role == Role::Primary && was != Role::Primary {
                // Promotion rehydrates the application from the local
                // store. The seeded stale_promotion defect restores the
                // previous image instead of the newest one.
                let store = s.node(slot).store;
                let restored = if cfg!(feature = "inject_bugs")
                    && defects.stale_promotion
                    && store == Freshness::Fresh
                {
                    Freshness::Stale
                } else {
                    store
                };
                if restored < store {
                    ctx.violations.push(AbsViolation {
                        invariant: "promotion-from-stale-image",
                        detail: format!(
                            "{slot} promoted to term {term} restoring {restored:?} \
                             while its store held {store:?}"
                        ),
                    });
                }
                // The promoted node's state is now the pair's reference.
                s.node_mut(slot).store = Freshness::Fresh;
            }
            detect(s, slot, DetectEvent::RoleChanged(role));
            let n = s.node_mut(slot);
            n.role = role;
            n.term = term as u8;
            debug_assert!(ctx.obs.is_none(), "one announcement per action");
            ctx.obs = Some(Obs { slot, role, term: term as u8 });
        }
    }
}

/// Feeds one event to a slot's [`PeerWatch`], rebuilt from its role and
/// open suspicion, and applies the action to the slot's tick clocks: a
/// restart zeroes a counter, arming the window starts `suspected` at 0,
/// and a suspicion the rule closed drops it.
fn detect(s: &mut AbsState, slot: Slot, event: DetectEvent) -> DetectAction {
    let n = s.node_mut(slot);
    let mut watch = PeerWatch::new(n.role, n.suspected.is_some());
    let action = watch.step(event);
    if let DetectAction::Restart { primary, any } | DetectAction::Clear { primary, any } = action {
        if primary {
            n.silence = 0;
        }
        if any {
            n.any_silence = 0;
        }
    }
    n.suspected = match action {
        DetectAction::Arm => Some(0),
        _ => n.suspected.filter(|_| watch.suspecting()),
    };
    action
}

/// [`detect`], then a verdict's pass through the shared table as
/// `PrimarySilenceExpired`, as `Engine` does.
fn observe(
    s: &mut AbsState,
    slot: Slot,
    event: DetectEvent,
    defects: &Defects,
    bounds: &Bounds,
    ctx: &mut Ctx,
) -> DetectAction {
    let action = detect(s, slot, event);
    if let DetectAction::Expired { verdict } = action {
        let expired = RoleEvent::PrimarySilenceExpired { peer_silent: verdict.peer_silent() };
        let outcome = role_transition(&s.role_view(slot), &expired, defects);
        apply_role_outcome(s, slot, outcome, defects, bounds, ctx);
    }
    action
}

/// Finalizes a successor: normalizes dead clocks, canonicalizes the
/// channel multisets, and wraps the result.
///
/// Note there is deliberately *no* "never two primaries" state
/// invariant here. The checker refuted that property with a
/// concretely feasible trace (see the `same_term_dual_primary_…` test
/// below): in a two-node pair without a quorum, a partition or an
/// ill-timed repair can always hand both nodes a primary claim —
/// even one with the *same term number*, because a negotiating node
/// derives `their_term + 1` from a backup's hello reply while that
/// backup's own next silence promotion independently derives the same
/// value. The protocol's real claim identity is the `(term, node)`
/// pair ordered by [`oftt::role::Claim::beats`], so the true safety
/// property is *resolution on contact* — a beaten primary yields the
/// moment it hears the winner (the `unyielded-beaten-primary`
/// transition invariant) — plus the liveness theorem that no fair
/// schedule keeps a dual primary alive forever.
fn finish(mut next: AbsState, ctx: Ctx) -> Step {
    if ctx.truncated {
        return Step { next: None, obs: None, violations: ctx.violations };
    }
    for n in &mut next.nodes {
        n.normalize();
    }
    for lane in &mut next.chan {
        lane.sort_unstable_by_key(msg_key);
    }
    Step { next: Some(next), obs: ctx.obs, violations: ctx.violations }
}

/// The switchover dance a distressed (or watchdog-fired) primary runs:
/// send the request, then yield through the shared table. Returns `None`
/// when the request cannot be sent for lack of channel space (the action
/// is postponed, not lossy — concretely the send always goes out).
fn yield_after_request(
    s: &AbsState,
    slot: Slot,
    bounds: &Bounds,
    defects: &Defects,
    mutate: impl FnOnce(&mut AbsState),
) -> Option<Step> {
    let out = slot.outgoing();
    let deliverable = !s.partitioned && s.node(slot.other()).up;
    if deliverable && s.raw_count(out) >= bounds.channel_cap {
        return None;
    }
    let mut next = s.clone();
    mutate(&mut next);
    if deliverable {
        let term = next.node(slot).term;
        next.chan[out.index()].push(InFlight { msg: AbsMsg::SwitchoverRequest { term }, age: 0 });
    }
    // A partitioned or peer-down send is simply lost — the very window
    // the SwitchoverYield term pre-allocation exists to survive.
    let mut ctx = Ctx::new();
    let outcome = role_transition(&next.role_view(slot), &RoleEvent::SwitchoverYield, defects);
    apply_role_outcome(&mut next, slot, outcome, defects, bounds, &mut ctx);
    Some(finish(next, ctx))
}

/// Applies one action if enabled. `None` means "not enabled here".
pub fn apply(s: &AbsState, action: Action, bounds: &Bounds, defects: &Defects) -> Option<Step> {
    match action {
        Action::Tick(slot) => {
            let me = s.node(slot);
            if !me.up || s.has_overdue_raw(bounds) {
                return None;
            }
            let peer_up = s.node(slot.other()).up;
            let lead = if slot == Slot::A { 1 } else { -1 };
            if peer_up && (s.drift + lead).abs() > bounds.drift_max {
                return None;
            }
            let send_dropped = s.partitioned || !peer_up;
            if !send_dropped && s.raw_count(slot.outgoing()) >= bounds.channel_cap {
                return None;
            }
            let mut next = s.clone();
            if peer_up {
                next.drift += lead;
            } else {
                // The outage clock starts once the dead node's dying
                // datagrams have landed (they do so within the latency
                // bound, effectively at the crash): only then do the
                // survivor's timers and the outage run in lockstep.
                let drained =
                    !s.chan[slot.other().outgoing().index()].iter().any(|m| m.msg.is_raw());
                if drained {
                    let peer = next.node_mut(slot.other());
                    peer.down_ticks = (peer.down_ticks + 1).min(bounds.silence_limit);
                }
            }
            for lane in &mut next.chan {
                for m in lane.iter_mut() {
                    if m.msg.is_raw() {
                        m.age = (m.age + 1).min(bounds.max_age);
                    }
                }
            }
            if !send_dropped {
                let n = next.node(slot);
                let msg = if n.role == Role::Negotiating {
                    AbsMsg::Hello { role: n.role, term: n.term }
                } else {
                    AbsMsg::Heartbeat { role: n.role, term: n.term }
                };
                next.chan[slot.outgoing().index()].push(InFlight { msg, age: 0 });
            }
            // The clocks advance one tick and become events. The window
            // elapses before the tick's own silence check, and the two
            // give one verdict per tick: a window verdict is
            // `peer_silent`, which promotes every backup, and the rule
            // ignores the tick of a primary.
            let limit = bounds.silence_limit;
            let n = next.node_mut(slot);
            n.silence = (n.silence + 1).min(limit);
            n.any_silence = (n.any_silence + 1).min(limit);
            n.suspected = n.suspected.map(|ticks| ticks + 1);
            let elapsed = n.suspected.is_some_and(|ticks| ticks >= SUSPICION_TICKS);
            let tick = DetectEvent::Tick {
                primary_silent: n.silence >= limit,
                any_silent: n.any_silence >= limit,
            };
            let mut ctx = Ctx::new();
            if elapsed {
                observe(&mut next, slot, DetectEvent::WindowElapsed, defects, bounds, &mut ctx);
            }
            observe(&mut next, slot, tick, defects, bounds, &mut ctx);
            Some(finish(next, ctx))
        }
        Action::Deliver(dir, i) => {
            let i = usize::from(i);
            if s.partitioned || i >= s.chan[dir.index()].len() {
                return None;
            }
            let to = dir.receiver();
            if !s.node(to).up {
                return None;
            }
            let InFlight { msg, age } = s.chan[dir.index()][i];
            // Bounded latency makes raw delivery age-ordered per
            // channel: a datagram that has survived a tick was sent a
            // full heartbeat period before an age-0 one, so it cannot
            // arrive after it. (Same-age messages left a node within
            // one period and may reorder under jitter.) Checkpoints
            // ride the separate msgq path and are unordered relative
            // to raw traffic.
            if msg.is_raw() {
                let oldest = s.chan[dir.index()]
                    .iter()
                    .filter(|m| m.msg.is_raw())
                    .map(|m| m.age)
                    .max()
                    .unwrap_or(0);
                if age < oldest {
                    return None;
                }
            }
            // A hello forces a reply; postpone delivery if the reverse
            // channel has no room for it.
            if matches!(msg, AbsMsg::Hello { .. })
                && s.node(dir.sender()).up
                && s.raw_count(dir.reverse()) >= bounds.channel_cap
            {
                return None;
            }
            let mut next = s.clone();
            next.chan[dir.index()].remove(i);
            let mut ctx = Ctx::new();
            match msg {
                AbsMsg::Checkpoint { fresh } => {
                    // msgq path: no engine clocks touched.
                    let store = &mut next.node_mut(to).store;
                    *store = if fresh { Freshness::Fresh } else { (*store).max(Freshness::Stale) };
                }
                raw => {
                    let primary = matches!(raw, AbsMsg::Heartbeat { role: Role::Primary, .. });
                    detect(&mut next, to, DetectEvent::Heard { primary });
                    match raw {
                        AbsMsg::Hello { role, term } => {
                            if next.node(dir.sender()).up {
                                let n = next.node(to);
                                let reply = AbsMsg::HelloReply { role: n.role, term: n.term };
                                next.chan[dir.reverse().index()]
                                    .push(InFlight { msg: reply, age: 0 });
                            }
                            next.node_mut(to).peer_role = Some(role);
                            let outcome = role_transition(
                                &next.role_view(to),
                                &RoleEvent::PeerHello { role, term: u64::from(term) },
                                defects,
                            );
                            apply_role_outcome(&mut next, to, outcome, defects, bounds, &mut ctx);
                        }
                        AbsMsg::HelloReply { role, term } => {
                            next.node_mut(to).peer_role = Some(role);
                            let outcome = role_transition(
                                &next.role_view(to),
                                &RoleEvent::PeerHelloReply { role, term: u64::from(term) },
                                defects,
                            );
                            apply_role_outcome(&mut next, to, outcome, defects, bounds, &mut ctx);
                        }
                        AbsMsg::Heartbeat { role, term } => {
                            next.node_mut(to).peer_role = Some(role);
                            let beaten = role == Role::Primary
                                && next.node(to).role == Role::Primary
                                && Claim::new(u64::from(term), dir.sender().node_id()).beats(
                                    &Claim::new(u64::from(next.node(to).term), to.node_id()),
                                );
                            let outcome = role_transition(
                                &next.role_view(to),
                                &RoleEvent::PeerHeartbeat { role, term: u64::from(term) },
                                defects,
                            );
                            apply_role_outcome(&mut next, to, outcome, defects, bounds, &mut ctx);
                            if beaten && next.node(to).role == Role::Primary {
                                ctx.violations.push(AbsViolation {
                                    invariant: "unyielded-beaten-primary",
                                    detail: format!(
                                        "{to} stayed primary (term {}) after a beating \
                                         claim at term {term} was delivered",
                                        next.node(to).term
                                    ),
                                });
                            }
                        }
                        AbsMsg::SwitchoverRequest { term } => {
                            let outcome = role_transition(
                                &next.role_view(to),
                                &RoleEvent::PeerSwitchoverRequest { term: u64::from(term) },
                                defects,
                            );
                            apply_role_outcome(&mut next, to, outcome, defects, bounds, &mut ctx);
                        }
                        AbsMsg::Checkpoint { .. } => unreachable!("matched above"),
                    }
                }
            }
            Some(finish(next, ctx))
        }
        Action::Crash(slot) => {
            if !s.node(slot).up || s.budgets.crashes == 0 {
                return None;
            }
            let mut next = s.clone();
            next.budgets.crashes -= 1;
            *next.node_mut(slot) = AbsNode::down();
            // Messages addressed to the dead node are lost.
            next.chan[slot.other().outgoing().index()].clear();
            next.drift = 0;
            Some(finish(next, Ctx::new()))
        }
        Action::Repair(slot) => {
            // A repaired node returns seconds after the crash; datagrams
            // its dead incarnation left in flight land (or die) within
            // the link-latency bound, milliseconds earlier. Repairing
            // over still-queued raw messages would let the old
            // incarnation's hellos and switchover requests interleave
            // with the new incarnation's negotiation — a cross-restart
            // confusion real time cannot produce — so those must drain
            // first.
            if s.node(slot).up || s.chan[slot.outgoing().index()].iter().any(|m| m.msg.is_raw()) {
                return None;
            }
            // And the outage spans seconds — whole silence windows of
            // the survivor's clock (see `AbsNode::down_ticks`).
            if s.node(slot.other()).up && s.node(slot).down_ticks < bounds.silence_limit {
                return None;
            }
            let mut next = s.clone();
            *next.node_mut(slot) = AbsNode::fresh();
            next.drift = 0;
            Some(finish(next, Ctx::new()))
        }
        Action::Partition => {
            if s.partitioned || s.budgets.partitions == 0 {
                return None;
            }
            let mut next = s.clone();
            next.budgets.partitions -= 1;
            next.partitioned = true;
            // Raw datagrams in flight die with the link; queued
            // checkpoint transfers are retried by msgq and survive.
            for lane in &mut next.chan {
                lane.retain(|m| !m.msg.is_raw());
            }
            Some(finish(next, Ctx::new()))
        }
        Action::Heal => {
            if !s.partitioned {
                return None;
            }
            let mut next = s.clone();
            next.partitioned = false;
            Some(finish(next, Ctx::new()))
        }
        Action::Distress(slot) => {
            let n = s.node(slot);
            if !n.up || n.role != Role::Primary || s.budgets.distress == 0 {
                return None;
            }
            yield_after_request(s, slot, bounds, defects, |next| {
                next.budgets.distress -= 1;
            })
        }
        Action::Ship(slot) => {
            let n = s.node(slot);
            let peer = s.node(slot.other());
            if !n.up
                || n.role != Role::Primary
                || !peer.up
                || peer.store == Freshness::Fresh
                || s.chan[slot.outgoing().index()]
                    .iter()
                    .any(|m| matches!(m.msg, AbsMsg::Checkpoint { .. }))
            {
                return None;
            }
            let mut next = s.clone();
            next.chan[slot.outgoing().index()]
                .push(InFlight { msg: AbsMsg::Checkpoint { fresh: true }, age: 0 });
            Some(finish(next, Ctx::new()))
        }
        Action::Advance(slot) => {
            let n = s.node(slot);
            if !n.up || n.role != Role::Primary || s.budgets.advances == 0 {
                return None;
            }
            let mut next = s.clone();
            next.budgets.advances -= 1;
            let peer = next.node_mut(slot.other());
            if peer.store == Freshness::Fresh {
                peer.store = Freshness::Stale;
            }
            for lane in &mut next.chan {
                for m in lane.iter_mut() {
                    if let AbsMsg::Checkpoint { fresh } = &mut m.msg {
                        *fresh = false;
                    }
                }
            }
            Some(finish(next, Ctx::new()))
        }
        Action::Hang(slot) => {
            let n = s.node(slot);
            if !n.up || n.app_hung || s.budgets.hangs == 0 {
                return None;
            }
            let mut next = s.clone();
            next.budgets.hangs -= 1;
            next.node_mut(slot).app_hung = true;
            Some(finish(next, Ctx::new()))
        }
        Action::Reset(slot) => {
            // Timing-soundness gate 6: a reset is the report of a dead
            // or cut-off peer. A live, connected peer is redialed at
            // once and heard within the window, so a reset there could
            // only raise a suspicion its next message clears.
            if s.budgets.resets == 0
                || (s.node(slot).up && !s.partitioned)
                || !s.node(slot.other()).up
            {
                return None;
            }
            // Enabled only where the rule acts on the report: a reset it
            // ignores would be a self-loop, counted as a transition.
            let mut next = s.clone();
            if detect(&mut next, slot.other(), DetectEvent::LinkReset) == DetectAction::Nothing {
                return None;
            }
            next.budgets.resets -= 1;
            Some(finish(next, Ctx::new()))
        }
        Action::Refuse(slot) => {
            // Timing-soundness gate 7: a refusal needs a live kernel with
            // nothing listening, so the refused slot is down — never
            // merely partitioned, where a cut path accepts or times out.
            // The rule heeds it only as the verdict on an open suspicion,
            // which it consumes, so it needs no budget of its own.
            if s.node(slot).up || !s.node(slot.other()).up {
                return None;
            }
            let mut next = s.clone();
            let mut ctx = Ctx::new();
            let refused = DetectEvent::RedialRefused;
            if observe(&mut next, slot.other(), refused, defects, bounds, &mut ctx)
                == DetectAction::Nothing
            {
                return None;
            }
            Some(finish(next, ctx))
        }
        Action::WatchdogFire(slot) => {
            let n = s.node(slot);
            if !n.up || !n.app_hung {
                return None;
            }
            if n.role == Role::Primary {
                let step = yield_after_request(s, slot, bounds, defects, |next| {
                    next.node_mut(slot).app_hung = false;
                })?;
                return Some(check_watchdog(s, slot, step));
            }
            let mut next = s.clone();
            next.node_mut(slot).app_hung = false;
            Some(check_watchdog(s, slot, finish(next, Ctx::new())))
        }
    }
}

/// The watchdog safety invariant: the deadman may only ever fire on a
/// hung application. Structurally guaranteed by `WatchdogFire`'s guard
/// today; checked anyway so a future edit to the guard cannot silently
/// turn the deadman into a false-positive killer.
fn check_watchdog(before: &AbsState, slot: Slot, mut step: Step) -> Step {
    if !before.node(slot).app_hung {
        step.violations.push(AbsViolation {
            invariant: "watchdog-fire-on-live-app",
            detail: format!("{slot} watchdog fired while its application was heartbeating"),
        });
    }
    step
}

/// Enumerates every enabled action with its step, in a fixed canonical
/// order (determinism of the explorer's state numbering depends on it).
pub fn successors(s: &AbsState, bounds: &Bounds, defects: &Defects) -> Vec<(Action, Step)> {
    let mut candidates: Vec<Action> = Vec::with_capacity(24);
    for slot in SLOTS {
        candidates.push(Action::Tick(slot));
    }
    for dir in DIRS {
        for i in 0..s.chan[dir.index()].len() {
            candidates.push(Action::Deliver(dir, i as u8));
        }
    }
    for slot in SLOTS {
        candidates.push(Action::Ship(slot));
        candidates.push(Action::Advance(slot));
        candidates.push(Action::Distress(slot));
        candidates.push(Action::Hang(slot));
        candidates.push(Action::WatchdogFire(slot));
    }
    candidates.push(Action::Partition);
    candidates.push(Action::Heal);
    for slot in SLOTS {
        candidates.push(Action::Crash(slot));
        candidates.push(Action::Repair(slot));
        candidates.push(Action::Reset(slot));
        candidates.push(Action::Refuse(slot));
    }
    candidates
        .into_iter()
        .filter_map(|a| apply(s, a, bounds, defects).map(|step| (a, step)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: Defects = Defects { dual_primary_window: false, stale_promotion: false };

    fn bounds() -> Bounds {
        Bounds::default()
    }

    fn run(s: &AbsState, action: Action) -> AbsState {
        apply(s, action, &bounds(), &CLEAN)
            .unwrap_or_else(|| panic!("{action} must be enabled"))
            .next
            .expect("not truncated")
    }

    /// Drives the happy-path startup: A ticks a hello, B receives it
    /// (announcing via tie-break and replying), A receives the reply.
    fn negotiated() -> AbsState {
        let s = AbsState::initial(Budgets::default());
        let s = run(&s, Action::Tick(Slot::A));
        let s = run(&s, Action::Deliver(Dir::AToB, 0));
        run(&s, Action::Deliver(Dir::BToA, 0))
    }

    #[test]
    fn startup_hello_exchange_elects_the_favored_node() {
        let s = AbsState::initial(Budgets::default());
        let t = apply(&s, Action::Tick(Slot::A), &bounds(), &CLEAN).unwrap();
        let after = t.next.unwrap();
        assert_eq!(after.chan[0].len(), 1);
        assert!(matches!(after.chan[0][0].msg, AbsMsg::Hello { role: Role::Negotiating, term: 0 }));
        // B receives the hello: tie-break makes it Backup(1) and a reply
        // (carrying B's pre-transition negotiating view) goes back.
        let d = apply(&after, Action::Deliver(Dir::AToB, 0), &bounds(), &CLEAN).unwrap();
        assert_eq!(d.obs, Some(Obs { slot: Slot::B, role: Role::Backup, term: 1 }));
        let after = d.next.unwrap();
        assert!(matches!(
            after.chan[1][0].msg,
            AbsMsg::HelloReply { role: Role::Negotiating, term: 0 }
        ));
        // A receives the negotiating-era reply: tie-break, A wins.
        let d = apply(&after, Action::Deliver(Dir::BToA, 0), &bounds(), &CLEAN).unwrap();
        assert_eq!(d.obs, Some(Obs { slot: Slot::A, role: Role::Primary, term: 1 }));
        assert!(d.violations.is_empty());
    }

    #[test]
    fn overdue_raw_messages_block_every_tick() {
        let s = AbsState::initial(Budgets::default());
        let s = run(&s, Action::Tick(Slot::A));
        let s = run(&s, Action::Tick(Slot::B));
        // A's hello aged to 1 under B's tick: all ticks block until a
        // delivery happens.
        assert!(apply(&s, Action::Tick(Slot::A), &bounds(), &CLEAN).is_none());
        assert!(apply(&s, Action::Tick(Slot::B), &bounds(), &CLEAN).is_none());
        let s = run(&s, Action::Deliver(Dir::AToB, 0));
        assert!(apply(&s, Action::Tick(Slot::B), &bounds(), &CLEAN).is_some());
    }

    #[test]
    fn drift_gate_keeps_live_nodes_in_near_lockstep() {
        let mut s = negotiated();
        s.chan = [Vec::new(), Vec::new()];
        s.drift = 0;
        // B may take a one-tick lead, then must wait for A.
        let s = run(&s, Action::Tick(Slot::B));
        assert_eq!(s.drift, -1);
        assert!(apply(&s, Action::Tick(Slot::B), &bounds(), &CLEAN).is_none());
        // With A crashed the gate lifts.
        let mut alone = s.clone();
        alone = run(&alone, Action::Crash(Slot::A));
        assert_eq!(alone.drift, 0);
        assert!(apply(&alone, Action::Tick(Slot::B), &bounds(), &CLEAN).is_some());
    }

    #[test]
    fn silence_promotion_needs_a_dead_or_split_peer() {
        // After a crash of the primary, the backup's own ticks carry it
        // to peer-silent promotion at term+1 (the drift gate lifts for
        // a dead peer).
        let mut s = negotiated();
        s = run(&s, Action::Crash(Slot::A));
        for _ in 1..Bounds::default().silence_limit {
            s = run(&s, Action::Tick(Slot::B));
        }
        let step = apply(&s, Action::Tick(Slot::B), &bounds(), &CLEAN).unwrap();
        assert_eq!(step.obs, Some(Obs { slot: Slot::B, role: Role::Primary, term: 2 }));
        assert!(step.violations.is_empty());
    }

    #[test]
    fn a_reset_needs_a_dead_or_cut_off_peer_and_two_silent_ticks_confirm_it() {
        let s = negotiated(); // A Primary(1), B Backup(1)
                              // Gate 6: A is up and the network whole, so no reset.
        assert!(apply(&s, Action::Reset(Slot::A), &bounds(), &CLEAN).is_none());
        let mut s = run(&s, Action::Crash(Slot::A));
        s = run(&s, Action::Reset(Slot::A));
        assert_eq!(s.nodes[1].suspected, Some(0));
        assert_eq!(s.budgets.resets, 0);
        s = run(&s, Action::Tick(Slot::B));
        assert_eq!(s.nodes[1].role, Role::Backup, "one silent tick is not a verdict");
        let step = apply(&s, Action::Tick(Slot::B), &bounds(), &CLEAN).unwrap();
        // The timeout needs `silence_limit` ticks; the suspicion needs two.
        assert!(SUSPICION_TICKS < Bounds::default().silence_limit);
        assert_eq!(step.obs, Some(Obs { slot: Slot::B, role: Role::Primary, term: 2 }));
        assert_eq!(step.next.unwrap().nodes[1].suspected, None);
    }

    /// The model's clock abstracts the product's defaults: one tick is one
    /// heartbeat period, the window is [`SUSPICION_TICKS`] of them and the
    /// peer timeout `silence_limit`.
    #[test]
    fn the_tick_counts_are_the_default_config_in_heartbeat_periods() {
        use oftt::config::{OfttConfig, Pair};
        let config = OfttConfig::new(Pair::new(Slot::A.node_id(), Slot::B.node_id()));
        let beat = config.heartbeat_period.as_micros();
        let window = oftt::detect::window(config.heartbeat_period, config.peer_timeout);
        assert_eq!(window.as_micros() % beat, 0);
        assert_eq!(u64::from(SUSPICION_TICKS), window.as_micros() / beat);
        assert_eq!(config.peer_timeout.as_micros() % beat, 0);
        assert_eq!(
            u64::from(Bounds::default().silence_limit),
            config.peer_timeout.as_micros() / beat
        );
    }

    #[test]
    fn any_peer_message_clears_a_suspicion() {
        let s = negotiated();
        let s = run(&s, Action::Partition);
        let s = run(&s, Action::Reset(Slot::A));
        assert_eq!(s.nodes[1].suspected, Some(0));
        let s = run(&s, Action::Heal);
        let s = run(&s, Action::Tick(Slot::B));
        assert_eq!(s.nodes[1].suspected, Some(1));
        let s = run(&s, Action::Tick(Slot::A)); // A's heartbeat goes out
        let hb = s.chan[Dir::AToB.index()]
            .iter()
            .position(|m| matches!(m.msg, AbsMsg::Heartbeat { .. }))
            .expect("the primary's heartbeat is on the wire");
        let s = run(&s, Action::Deliver(Dir::AToB, hb as u8));
        assert_eq!(s.nodes[1].suspected, None);
        let s = run(&s, Action::Deliver(Dir::BToA, 0)); // B's own, now overdue
        let s = run(&s, Action::Tick(Slot::B));
        assert_eq!(s.nodes[1].role, Role::Backup, "the second tick finds no suspicion");
    }

    #[test]
    fn a_refusal_confirms_an_open_suspicion_of_a_down_peer_at_once() {
        let s = negotiated(); // A Primary(1), B Backup(1)
                              // Gate 7: an up peer is never refused, connected or cut off, even
                              // while its backup suspects it.
        assert!(apply(&s, Action::Refuse(Slot::A), &bounds(), &CLEAN).is_none());
        let cut = run(&run(&s, Action::Partition), Action::Reset(Slot::A));
        assert_eq!(cut.nodes[1].suspected, Some(0));
        assert!(apply(&cut, Action::Refuse(Slot::A), &bounds(), &CLEAN).is_none());
        // A down peer with no suspicion open: nothing to confirm.
        let down = run(&s, Action::Crash(Slot::A));
        assert!(apply(&down, Action::Refuse(Slot::A), &bounds(), &CLEAN).is_none());
        // Suspected and down: the verdict, with no tick in between.
        let suspected = run(&down, Action::Reset(Slot::A));
        let step = apply(&suspected, Action::Refuse(Slot::A), &bounds(), &CLEAN).unwrap();
        assert_eq!(step.obs, Some(Obs { slot: Slot::B, role: Role::Primary, term: 2 }));
        assert!(step.violations.is_empty());
        let next = step.next.unwrap();
        assert_eq!(next.nodes[1].suspected, None, "the suspicion is consumed");
        assert_eq!(next.budgets, suspected.budgets, "a refusal spends no budget");
        assert!(apply(&next, Action::Refuse(Slot::A), &bounds(), &CLEAN).is_none());
    }

    #[test]
    fn distress_preallocates_the_granted_term() {
        let s = negotiated(); // A Primary(1), B Backup(1)
        let step = apply(&s, Action::Distress(Slot::A), &bounds(), &CLEAN).unwrap();
        // A yields into term 2 — the term its request grants the peer.
        assert_eq!(step.obs, Some(Obs { slot: Slot::A, role: Role::Backup, term: 2 }));
        let next = step.next.unwrap();
        assert!(next.chan[0]
            .iter()
            .any(|m| matches!(m.msg, AbsMsg::SwitchoverRequest { term: 1 })));
        // The peer's takeover on that request also lands on term 2 —
        // the yield pre-allocated it, so the two announcements agree.
        let step = apply(&next, Action::Deliver(Dir::AToB, 0), &bounds(), &CLEAN).unwrap();
        assert_eq!(step.obs, Some(Obs { slot: Slot::B, role: Role::Primary, term: 2 }));
        assert!(step.violations.is_empty());
    }

    #[test]
    fn checkpoints_survive_partitions_and_advances_stale_them() {
        let s = negotiated();
        let s = run(&s, Action::Ship(Slot::A));
        assert!(apply(&s, Action::Ship(Slot::A), &bounds(), &CLEAN).is_none(), "one in flight");
        let split = run(&s, Action::Partition);
        assert!(
            matches!(split.chan[0].as_slice(), [InFlight { msg: AbsMsg::Checkpoint { .. }, .. }]),
            "the queued checkpoint survives the partition: {:?}",
            split.chan[0]
        );
        // An advance in flight stales the image; installing it leaves
        // the store Stale, not Fresh.
        let s = run(&s, Action::Advance(Slot::A));
        let s = run(&s, Action::Deliver(Dir::AToB, 0));
        assert_eq!(s.nodes[1].store, Freshness::Stale);
        // A fresh re-ship upgrades it.
        let s = run(&s, Action::Ship(Slot::A));
        let s = run(&s, Action::Deliver(Dir::AToB, 0));
        assert_eq!(s.nodes[1].store, Freshness::Fresh);
    }

    #[test]
    fn watchdog_fire_needs_a_hung_app_and_triggers_switchover_on_the_primary() {
        let s = negotiated();
        assert!(apply(&s, Action::WatchdogFire(Slot::A), &bounds(), &CLEAN).is_none());
        let s = run(&s, Action::Hang(Slot::A));
        let step = apply(&s, Action::WatchdogFire(Slot::A), &bounds(), &CLEAN).unwrap();
        assert!(step.violations.is_empty());
        assert_eq!(step.obs, Some(Obs { slot: Slot::A, role: Role::Backup, term: 2 }));
        let next = step.next.unwrap();
        assert!(!next.nodes[0].app_hung, "the supervisor restarts the app");
        assert!(next.chan[0].iter().any(|m| matches!(m.msg, AbsMsg::SwitchoverRequest { .. })));
    }

    #[cfg(feature = "inject_bugs")]
    #[test]
    fn stale_promotion_defect_is_a_transition_violation() {
        let defects = Defects { dual_primary_window: false, stale_promotion: true };
        let s = negotiated();
        let s = run(&s, Action::Ship(Slot::A));
        let s = run(&s, Action::Deliver(Dir::AToB, 0)); // B store Fresh
        let mut s = run(&s, Action::Crash(Slot::A));
        for _ in 1..Bounds::default().silence_limit {
            let step = apply(&s, Action::Tick(Slot::B), &bounds(), &defects).unwrap();
            s = step.next.unwrap();
        }
        let step = apply(&s, Action::Tick(Slot::B), &bounds(), &defects).unwrap();
        assert!(
            step.violations.iter().any(|v| v.invariant == "promotion-from-stale-image"),
            "got {:?}",
            step.violations
        );
    }

    /// A finding the checker produced, pinned as a test: a same-term
    /// dual primary is reachable in the *clean* protocol, with timings
    /// every one of which is concretely satisfiable. B yields its
    /// primacy to a dead peer on distress (becoming `Backup(3)` via the
    /// term pre-allocation), the repair lands before B's next silence
    /// window completes, A promotes to `Primary(4)` — `their_term + 1`
    /// off B's hello reply — and a partition within one heartbeat of
    /// that promotion lets B silence-promote to the *same* term 4.
    /// Claims are really `(term, node)` pairs, so the pair still
    /// resolves on contact: the tail of the test heals the partition
    /// and watches B yield the moment the favored heartbeat arrives.
    #[test]
    fn same_term_dual_primary_is_reachable_and_resolves_on_contact() {
        let s = AbsState::initial(Budgets::default());
        let s = run(&s, Action::Tick(Slot::A));
        let s = run(&s, Action::Deliver(Dir::AToB, 0)); // B -> Backup(1), reply in flight
        let s = run(&s, Action::Crash(Slot::A)); // reply dies with A
        let mut s = s;
        for _ in 0..Bounds::default().silence_limit {
            s = run(&s, Action::Tick(Slot::B));
        }
        assert_eq!(s.nodes[1].role, Role::Primary, "silence promotion during the outage");
        assert_eq!(s.nodes[1].term, 2);
        let s = run(&s, Action::Distress(Slot::B)); // yields Backup(3) to a dead peer
        assert_eq!((s.nodes[1].role, s.nodes[1].term), (Role::Backup, 3));
        let s = run(&s, Action::Repair(Slot::A)); // repair beats B's next silence window
        let s = run(&s, Action::Tick(Slot::A));
        let s = run(&s, Action::Deliver(Dir::AToB, 0)); // B replies Backup(3)
        let s = run(&s, Action::Deliver(Dir::BToA, 0)); // A -> Primary(4) = their + 1
        assert_eq!((s.nodes[0].role, s.nodes[0].term), (Role::Primary, 4));
        let s = run(&s, Action::Partition); // cut within one heartbeat of the promotion
        let mut s = s;
        for _ in 0..Bounds::default().silence_limit {
            if apply(&s, Action::Tick(Slot::B), &bounds(), &CLEAN).is_none() {
                s = run(&s, Action::Tick(Slot::A)); // keep the drift gate satisfied
            }
            s = run(&s, Action::Tick(Slot::B));
        }
        assert_eq!(
            (s.nodes[1].role, s.nodes[1].term),
            (Role::Primary, 4),
            "the naive never-two-primaries state invariant is refuted"
        );
        assert!(s.nodes[0].role == Role::Primary && s.nodes[0].term == 4);

        // …and the true property holds: resolution on contact.
        let s = run(&s, Action::Heal);
        let s = run(&s, Action::Tick(Slot::A)); // favored heartbeat goes out
        let hb = s.chan[Dir::AToB.index()]
            .iter()
            .position(|m| matches!(m.msg, AbsMsg::Heartbeat { role: Role::Primary, term: 4 }))
            .expect("the winning claim is on the wire");
        let step = apply(&s, Action::Deliver(Dir::AToB, hb as u8), &bounds(), &CLEAN).unwrap();
        assert!(step.violations.is_empty(), "{:?}", step.violations);
        assert_eq!(step.obs, Some(Obs { slot: Slot::B, role: Role::Backup, term: 4 }));
    }
}
