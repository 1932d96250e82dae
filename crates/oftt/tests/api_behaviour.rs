//! End-to-end behaviour of the paper's API surface: `OFTTDistress` forces
//! a switchover, `OFTTSave` ships immediately (event-based checkpointing),
//! `OFTTSelSave` designation filters what travels, and misuse of the
//! watchdog and save calls is reported by the FTIM that owns the table.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ds_net::link::Link;
use ds_net::message::Envelope;
use ds_net::node::NodeConfig;
use ds_net::prelude::{ClusterSim, NodeId, SimDuration, SimTime};
use ds_net::process::{Process, ProcessEnv};
use oftt::checkpoint::{Checkpoint, CheckpointPayload, RejectReason, VarSet, VarStore};
use oftt::messages::FtimPeerMsg;
use oftt::prelude::*;
use parking_lot::Mutex;

/// An app scripted through external command messages.
struct Scripted {
    big: Vec<u8>, // a large variable, never written
    small: u64,   // a small variable
    /// `small` was written since the last incremental walkthrough.
    small_touched: bool,
    view: Arc<Mutex<(u64, bool)>>,
    /// Full walkthroughs ([`FtApplication::snapshot`] calls) so far.
    snapshots: Arc<AtomicUsize>,
    /// Watchdogs `on_deactivate` releases.
    held: Vec<&'static str>,
    /// `on_deactivate` calls `OFTTSave` (misuse: the node is backup by then).
    save_on_deactivate: bool,
}

impl Scripted {
    fn new(view: Arc<Mutex<(u64, bool)>>, snapshots: Arc<AtomicUsize>) -> Self {
        *view.lock() = (0, false);
        Scripted {
            big: vec![0xAB; 64 * 1024],
            small: 0,
            small_touched: false,
            view,
            snapshots,
            held: Vec::new(),
            save_on_deactivate: false,
        }
    }

    /// The image of an application whose `small` is `small`.
    fn image(small: u64) -> VarSet {
        [
            ("big".to_string(), comsim::buf::Bytes::from(vec![0xAB; 64 * 1024])),
            ("small".to_string(), comsim::marshal::to_shared(&small).unwrap()),
        ]
        .into_iter()
        .collect()
    }

    fn bump(&mut self) {
        self.small += 1;
        self.small_touched = true;
        *self.view.lock() = (self.small, true);
    }
}

impl FtApplication for Scripted {
    fn snapshot(&self) -> VarSet {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        [
            ("big".to_string(), comsim::buf::Bytes::copy_from_slice(&self.big)),
            ("small".to_string(), comsim::marshal::to_shared(&self.small).unwrap()),
        ]
        .into_iter()
        .collect()
    }
    fn snapshot_dirty(&mut self, store: &mut VarStore) {
        if std::mem::take(&mut self.small_touched) {
            store.set("small", comsim::marshal::to_shared(&self.small).unwrap());
        }
    }
    fn restore(&mut self, image: &VarSet) {
        if let Some(b) = image.get("big") {
            self.big = b.to_vec();
        }
        if let Some(b) = image.get("small") {
            self.small = comsim::marshal::from_bytes(b).unwrap();
        }
        *self.view.lock() = (self.small, false);
    }
    fn on_activate(&mut self, _ctx: &mut FtCtx<'_>) {
        let small = self.small;
        *self.view.lock() = (small, true);
    }
    fn on_deactivate(&mut self, ctx: &mut FtCtx<'_>) {
        let small = self.small;
        *self.view.lock() = (small, false);
        for name in self.held.drain(..) {
            let _ = ctx.watchdog_delete(name);
        }
        if self.save_on_deactivate {
            ctx.save_now();
        }
    }
    fn on_app_message(&mut self, envelope: Envelope, ctx: &mut FtCtx<'_>) {
        let Some(cmd) = envelope.body.downcast_ref::<String>() else { return };
        match cmd.as_str() {
            "bump-and-save" => {
                self.bump();
                // OFTTSave: event-based checkpoint, right now.
                oftt::api::oftt_save(ctx);
            }
            "bump" => {
                // Travels with the next periodic checkpoint.
                self.bump();
            }
            "designate-small" => {
                // OFTTSelSave: only `small` travels from here on.
                oftt::api::oftt_sel_save(ctx, &["small"]);
            }
            "distress" => {
                // OFTTDistress: ask the engine for a switchover.
                oftt::api::oftt_distress(ctx, "operator request");
            }
            "wd-lifecycle" => {
                // The legal lifecycle: create, set, reset, delete.
                let period = SimDuration::from_secs(5);
                assert_eq!(ctx.watchdog_create("wd", period), Ok(()));
                assert!(ctx.watchdog_set("wd").is_ok());
                assert!(ctx.watchdog_reset("wd").is_ok());
                assert_eq!(ctx.watchdog_delete("wd"), Ok(()));
            }
            "wd-keep" | "wd-rekeep" => {
                // After a restore the watchdog already exists: the duplicate
                // create is refused, and that is legal.
                let created = ctx.watchdog_create("kept", SimDuration::from_secs(30));
                if cmd == "wd-keep" {
                    assert_eq!(created, Ok(()));
                } else {
                    assert_eq!(created, Err(WatchdogError::AlreadyExists("kept".into())));
                }
                assert!(ctx.watchdog_set("kept").is_ok());
                self.held.push("kept");
            }
            "wd-misuse" => {
                let period = SimDuration::from_secs(5);
                assert_eq!(ctx.watchdog_create("wd", period), Ok(()));
                assert_eq!(ctx.watchdog_delete("wd"), Ok(()));
                // Reset after delete, then delete twice: both `NotFound`.
                assert!(ctx.watchdog_reset("wd").is_err());
                assert!(ctx.watchdog_delete("wd").is_err());
                // Held through the coming deactivation: a leak.
                assert_eq!(ctx.watchdog_create("leak", period), Ok(()));
                self.save_on_deactivate = true;
            }
            _ => {}
        }
    }
}

/// What the faulty last hop in front of each FTIM does to checkpoint
/// traffic. The `Next…` faults hit one message and disarm.
#[derive(Clone, Copy, PartialEq)]
enum HopFault {
    None,
    /// One bit of the next checkpoint's crc flips.
    FlipNextCrc,
    /// The next delta vanishes.
    DropNextDelta,
    /// The next delta loses this variable and stays *valid*:
    /// `Checkpoint::new` recomputes the payload crc, so the store installs
    /// it and the two images really diverge.
    ThinNextDelta(&'static str),
    /// Every ack vanishes, until disarmed.
    DropAcks,
}

/// Sits in front of an FTIM like a faulty last hop, applying whichever
/// [`HopFault`] the test armed.
struct FaultyHop<P> {
    inner: P,
    fault: Arc<Mutex<HopFault>>,
}

impl<P> FaultyHop<P> {
    /// The envelope as the FTIM behind this hop gets to see it, if at all.
    fn pass(&self, envelope: Envelope) -> Option<Envelope> {
        let mut fault = self.fault.lock();
        let hit = match (*fault, envelope.body.downcast_ref::<FtimPeerMsg>()) {
            (HopFault::DropAcks, Some(FtimPeerMsg::CkptAck { .. })) => return None,
            (HopFault::FlipNextCrc, Some(FtimPeerMsg::Ckpt(_))) => true,
            (HopFault::DropNextDelta | HopFault::ThinNextDelta(_), Some(FtimPeerMsg::Ckpt(c))) => {
                !c.payload.is_full()
            }
            _ => false,
        };
        if !hit {
            return Some(envelope);
        }
        let armed = std::mem::replace(&mut *fault, HopFault::None);
        let Ok(FtimPeerMsg::Ckpt(mut checkpoint)) = envelope.body.downcast() else {
            unreachable!("just matched a checkpoint")
        };
        match armed {
            HopFault::FlipNextCrc => checkpoint.crc ^= 1 << 7,
            HopFault::ThinNextDelta(var) => {
                let mut vars = checkpoint.payload.vars().clone();
                assert!(vars.remove(var).is_some(), "the delta carries {var:?}");
                checkpoint = Checkpoint::new(
                    checkpoint.term,
                    checkpoint.seq,
                    checkpoint.taken_at,
                    CheckpointPayload::Delta(vars),
                );
            }
            HopFault::DropNextDelta => return None,
            HopFault::None | HopFault::DropAcks => unreachable!("these hit no checkpoint"),
        }
        Some(Envelope::new(envelope.from, envelope.to, FtimPeerMsg::Ckpt(checkpoint)))
    }
}

impl<P: Process> Process for FaultyHop<P> {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        self.inner.on_start(env);
    }
    fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
        self.inner.on_timer(token, env);
    }
    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        if let Some(envelope) = self.pass(envelope) {
            self.inner.on_message(envelope, env);
        }
    }
}

struct Rig {
    cs: ClusterSim,
    a: NodeId,
    b: NodeId,
    probes: [Arc<Mutex<EngineProbe>>; 2],
    ftims: [Arc<Mutex<FtimProbe>>; 2],
    views: [Arc<Mutex<(u64, bool)>>; 2],
    snapshots: [Arc<AtomicUsize>; 2],
    /// Arms a [`HopFault`] in front of both FTIMs.
    hop: Arc<Mutex<HopFault>>,
}

fn rig(seed: u64) -> Rig {
    rig_in(seed, CheckpointMode::default())
}

fn rig_in(seed: u64, mode: CheckpointMode) -> Rig {
    let mut cs = ClusterSim::new(seed);
    let a = cs.add_node(NodeConfig::default());
    let b = cs.add_node(NodeConfig::default());
    cs.connect(a, b, Link::dual());
    let mut config = OfttConfig::new(Pair::new(a, b));
    config.checkpoint_mode = mode;
    let probes = [
        Arc::new(Mutex::new(EngineProbe::default())),
        Arc::new(Mutex::new(EngineProbe::default())),
    ];
    let ftims =
        [Arc::new(Mutex::new(FtimProbe::default())), Arc::new(Mutex::new(FtimProbe::default()))];
    let views = [Arc::new(Mutex::new((0, false))), Arc::new(Mutex::new((0, false)))];
    let snapshots: [Arc<AtomicUsize>; 2] = Default::default();
    let hop = Arc::new(Mutex::new(HopFault::None));
    for (idx, node) in [a, b].into_iter().enumerate() {
        let engine_config = config.clone();
        let probe = probes[idx].clone();
        cs.register_service(
            node,
            engine_service(),
            Box::new(move || Box::new(Engine::new(engine_config.clone(), probe.clone()))),
            true,
        );
        let app_config = config.clone();
        let ftim = ftims[idx].clone();
        let view = views[idx].clone();
        let walks = snapshots[idx].clone();
        let fault = hop.clone();
        cs.register_service(
            node,
            "scripted",
            Box::new(move || {
                Box::new(FaultyHop {
                    inner: FtProcess::new(
                        app_config.clone(),
                        RecoveryRule::default(),
                        Scripted::new(view.clone(), walks.clone()),
                        ftim.clone(),
                    ),
                    fault: fault.clone(),
                })
            }),
            true,
        );
    }
    Rig { cs, a, b, probes, ftims, views, snapshots, hop }
}

fn primary(rig: &Rig) -> (NodeId, usize) {
    if rig.probes[0].lock().current_role() == Some(Role::Primary) {
        (rig.a, 0)
    } else {
        (rig.b, 1)
    }
}

#[test]
fn oftt_save_ships_immediately() {
    let mut r = rig(701);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, idx) = primary(&r);
    let sent_before = r.ftims[idx].lock().ckpts_sent;
    // Two bumps within one checkpoint period: each must ship its own
    // event-based checkpoint.
    r.cs.post(
        SimTime::from_millis(10_100),
        ds_net::Endpoint::new(p, "scripted"),
        "bump-and-save".to_string(),
    );
    r.cs.post(
        SimTime::from_millis(10_300),
        ds_net::Endpoint::new(p, "scripted"),
        "bump-and-save".to_string(),
    );
    r.cs.run_until(SimTime::from_millis(10_600));
    let sent_after = r.ftims[idx].lock().ckpts_sent;
    assert!(
        sent_after >= sent_before + 2,
        "OFTTSave must not wait for the period: {sent_before} -> {sent_after}"
    );
}

#[test]
fn designation_filters_checkpoint_traffic() {
    let mut r = rig(702);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, idx) = primary(&r);
    // Baseline: one undesignated save carries the 64 KiB variable.
    r.cs.post(
        SimTime::from_secs(10),
        ds_net::Endpoint::new(p, "scripted"),
        "bump-and-save".to_string(),
    );
    r.cs.run_until(SimTime::from_secs(12));
    let (bytes_full, fulls_before) = {
        let probe = r.ftims[idx].lock();
        (probe.ckpt_bytes_sent, probe.fulls_sent)
    };
    assert!(bytes_full > 64 * 1024, "first save includes the big variable");
    // Designate only `small`; the next saves must be tiny.
    r.cs.post(
        SimTime::from_secs(12),
        ds_net::Endpoint::new(p, "scripted"),
        "designate-small".to_string(),
    );
    r.cs.post(
        SimTime::from_secs(13),
        ds_net::Endpoint::new(p, "scripted"),
        "bump-and-save".to_string(),
    );
    r.cs.run_until(SimTime::from_secs(15));
    let (bytes_after, fulls_after) = {
        let probe = r.ftims[idx].lock();
        (probe.ckpt_bytes_sent, probe.fulls_sent)
    };
    let delta = bytes_after - bytes_full;
    assert!(
        delta < 8 * 1024,
        "designated save must exclude the 64 KiB variable (shipped {delta} bytes)"
    );
    // The designation change owes exactly one full image: the save after it.
    assert_eq!(fulls_after - fulls_before, 1, "fulls across designate-and-save");
    // And the designated state still survives a switchover.
    ds_net::fault::inject(&mut r.cs, SimTime::from_secs(15), ds_net::fault::Fault::CrashNode(p));
    r.cs.run_until(SimTime::from_secs(30));
    let other = 1 - idx;
    let (small, active) = *r.views[other].lock();
    assert!(active);
    assert_eq!(small, 2, "both bumps survived via designated checkpoints");
}

#[test]
fn nacked_delta_triggers_full_resend_carrying_coalesced_state() {
    let mut r = rig(704);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, idx) = primary(&r);
    let scripted = ds_net::Endpoint::new(p, "scripted");
    // Two event saves land as deltas taken off the pending set.
    r.cs.post(SimTime::from_millis(10_100), scripted.clone(), "bump-and-save".to_string());
    r.cs.post(SimTime::from_millis(10_200), scripted.clone(), "bump-and-save".to_string());
    r.cs.run_until(SimTime::from_millis(10_400));
    let fulls_before = r.ftims[idx].lock().fulls_sent;
    // The backup rejects a delta as out of order and NACKs — simulate the
    // NACK arriving at the primary's FTIM directly.
    r.cs.post(
        SimTime::from_millis(10_500),
        scripted.clone(),
        oftt::messages::FtimPeerMsg::CkptNack,
    );
    r.cs.post(SimTime::from_millis(10_600), scripted, "bump-and-save".to_string());
    r.cs.run_until(SimTime::from_secs(12));
    let fulls_after = r.ftims[idx].lock().fulls_sent;
    assert!(
        fulls_after > fulls_before,
        "a NACK must force a full resend ({fulls_before} -> {fulls_after})"
    );
    // The resent full carries the whole coalesced image: every bump
    // survives a switchover.
    ds_net::fault::inject(&mut r.cs, SimTime::from_secs(12), ds_net::fault::Fault::CrashNode(p));
    r.cs.run_until(SimTime::from_secs(30));
    let other = 1 - idx;
    let (small, active) = *r.views[other].lock();
    assert!(active, "the backup took over");
    assert_eq!(small, 3, "all three bumps survived via the post-NACK full checkpoint");
}

/// The `(term=… seq=… crc=…)` tail of the newest trace line naming `what`.
fn last_ckpt_stamp(r: &Rig, what: &str) -> Option<String> {
    let entries = r.cs.trace().entries();
    let line = entries.iter().rev().find(|e| e.message.contains(what))?;
    line.message.split_once(" (term=").map(|(_, stamp)| stamp.to_string())
}

#[test]
fn corrupt_checkpoint_is_counted_nacked_and_healed_by_a_full_image() {
    let mut r = rig(705);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, idx) = primary(&r);
    let backup = 1 - idx;
    assert_eq!(r.ftims[backup].lock().ckpts_rejected, 0);
    assert_eq!(r.ftims[backup].lock().last_reject, None);
    let (sent_before, fulls_before) = {
        let probe = r.ftims[idx].lock();
        (probe.ckpts_sent, probe.fulls_sent)
    };
    let installed_before = r.ftims[backup].lock().ckpts_installed;

    // One event save ships a delta; one bit of its crc flips on the way.
    *r.hop.lock() = HopFault::FlipNextCrc;
    r.cs.post(
        SimTime::from_millis(10_100),
        ds_net::Endpoint::new(p, "scripted"),
        "bump-and-save".to_string(),
    );
    r.cs.run_until(SimTime::from_secs(12));

    // Refused, counted with its reason, and said so to the primary.
    {
        let probe = r.ftims[backup].lock();
        assert_eq!(probe.ckpts_rejected, 1);
        assert_eq!(probe.last_reject, Some(RejectReason::Corrupt));
    }
    assert!(r.cs.trace().entries().iter().any(|e| e.message.contains("unusable; requesting full")));
    // The NACK's only visible effect: the very next checkpoint shipped is a
    // full image, with nothing new to carry but the refused bump.
    {
        let probe = r.ftims[idx].lock();
        assert_eq!(probe.ckpts_sent, sent_before + 2, "the refused delta, then its replacement");
        assert_eq!(probe.fulls_sent, fulls_before + 1, "the replacement is a full image");
    }
    // It installed, and the pair's images agree again.
    assert_eq!(r.ftims[backup].lock().ckpts_installed, installed_before + 1);
    assert_eq!(r.ftims[backup].lock().ckpts_rejected, 1);
    let shipped = last_ckpt_stamp(&r, "ckpt shipped");
    assert!(shipped.is_some());
    assert_eq!(shipped, last_ckpt_stamp(&r, "ckpt installed"));
    // And the bump the refused delta carried survives a switchover.
    ds_net::fault::inject(&mut r.cs, SimTime::from_secs(12), ds_net::fault::Fault::CrashNode(p));
    r.cs.run_until(SimTime::from_secs(30));
    assert_eq!(*r.views[backup].lock(), (1, true));
}

/// `(term, seq, crc)` out of a [`last_ckpt_stamp`].
fn stamp_numbers(stamp: &str) -> (u64, u64, u32) {
    let (term, rest) = stamp.split_once(" seq=").expect("seq");
    let (seq, crc) = rest.split_once(" crc=").expect("crc");
    let number = |text: &str| text.trim_end_matches(')').parse::<u64>().expect("number");
    (number(term), number(seq), number(crc) as u32)
}

/// The default mode's patience: ship opportunities without a confirmation
/// before the whole image is resent.
fn refresh_every() -> u64 {
    match CheckpointMode::default() {
        CheckpointMode::Selective { refresh_every } => u64::from(refresh_every),
        CheckpointMode::Full => unreachable!("the default mode is selective"),
    }
}

/// A formed pair at `t = 10 s` whose application then changes one variable
/// in the middle of each of the next `periods` checkpoint periods, so every
/// periodic checkpoint has a delta to ship. Returns the primary's index.
fn formed_then_busy(r: &mut Rig, periods: u64) -> usize {
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, idx) = primary(r);
    for i in 0..periods {
        r.cs.post(
            SimTime::from_millis(10_500 + 1_000 * i),
            ds_net::Endpoint::new(p, "scripted"),
            "bump".to_string(),
        );
    }
    idx
}

fn mismatch_lines(r: &Rig) -> usize {
    r.cs.trace().entries().iter().filter(|e| e.message.contains("ckpt image mismatch")).count()
}

#[test]
fn healthy_pair_ships_one_full_image_per_term() {
    let mut r = rig(706);
    let idx = formed_then_busy(&mut r, 200);
    let sent_before = r.ftims[idx].lock().ckpts_sent;
    r.cs.run_until(SimTime::from_secs(211));
    let probe = r.ftims[idx].lock();
    assert_eq!(probe.ckpts_sent, sent_before + 200, "one delta per period");
    assert_eq!(probe.fulls_sent, 1, "every ack confirmed the image; nothing to refresh");
    assert_eq!(probe.unconfirmed_refreshes, 0);
    assert_eq!(probe.image_mismatches, 0);
    assert_eq!(probe.last_confirmed, probe.last_acked);
    let shipped = last_ckpt_stamp(&r, "ckpt shipped").expect("shipped");
    let (term, seq, _) = stamp_numbers(&shipped);
    assert_eq!(probe.last_confirmed, (term, seq), "the backup's image is current");
}

#[test]
fn lost_final_delta_is_repaired_while_the_application_is_idle() {
    let mut r = rig(707);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, idx) = primary(&r);
    let backup = 1 - idx;
    // The last thing the application does before going quiet is lost on
    // the way: no later delta arrives to be out of order, nothing NACKs.
    *r.hop.lock() = HopFault::DropNextDelta;
    r.cs.post(
        SimTime::from_millis(10_100),
        ds_net::Endpoint::new(p, "scripted"),
        "bump-and-save".to_string(),
    );
    r.cs.run_until(SimTime::from_secs(11));
    assert!(*r.hop.lock() == HopFault::None, "the delta was swallowed");
    assert_ne!(last_ckpt_stamp(&r, "ckpt shipped"), last_ckpt_stamp(&r, "ckpt installed"));
    let fulls_before = r.ftims[idx].lock().fulls_sent;

    // Idle periods are ship opportunities too: the unconfirmed delta runs
    // out of patience and the whole image goes again.
    r.cs.run_until(SimTime::from_millis(10_100 + 1_000 * (refresh_every() + 2)));
    {
        let probe = r.ftims[idx].lock();
        assert_eq!(probe.fulls_sent, fulls_before + 1);
        assert_eq!(probe.unconfirmed_refreshes, 1);
        assert_eq!(probe.last_confirmed, probe.last_acked);
    }
    let shipped = last_ckpt_stamp(&r, "ckpt shipped");
    assert!(shipped.is_some());
    assert_eq!(shipped, last_ckpt_stamp(&r, "ckpt installed"));
    // Confirmed, so the idle pair goes quiet again.
    r.cs.run_until(SimTime::from_secs(120));
    assert_eq!(r.ftims[idx].lock().fulls_sent, fulls_before + 1);

    ds_net::fault::inject(&mut r.cs, SimTime::from_secs(120), ds_net::fault::Fault::CrashNode(p));
    r.cs.run_until(SimTime::from_secs(135));
    assert_eq!(*r.views[backup].lock(), (1, true), "the swallowed bump survived");
}

#[test]
fn diverged_backup_image_is_detected_by_the_ack_and_healed_by_the_next_ship() {
    let mut r = rig(708);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, idx) = primary(&r);
    let backup = 1 - idx;
    let scripted = ds_net::Endpoint::new(p, "scripted");
    let (sent_before, fulls_before) = {
        let probe = r.ftims[idx].lock();
        (probe.ckpts_sent, probe.fulls_sent)
    };
    let installed_before = r.ftims[backup].lock().ckpts_installed;

    // The delta arrives valid but without the variable it was sent to
    // carry: the backup installs it, and its image is now wrong.
    *r.hop.lock() = HopFault::ThinNextDelta("small");
    r.cs.post(SimTime::from_millis(10_100), scripted.clone(), "bump-and-save".to_string());
    r.cs.run_until(SimTime::from_millis(10_150));
    assert_eq!(r.ftims[backup].lock().ckpts_installed, installed_before + 1);
    assert_eq!(r.ftims[backup].lock().ckpts_rejected, 0, "nothing for the store to refuse");
    // The ack said what the backup holds; the primary noticed.
    assert_eq!(r.ftims[idx].lock().image_mismatches, 1);
    assert_eq!(mismatch_lines(&r), 1);
    assert_ne!(last_ckpt_stamp(&r, "ckpt shipped"), last_ckpt_stamp(&r, "ckpt installed"));

    // The very next ship — the periodic one, with nothing new to carry — is
    // a full image, and the stamps agree again.
    r.cs.run_until(SimTime::from_millis(11_900));
    {
        let probe = r.ftims[idx].lock();
        assert_eq!(probe.ckpts_sent, sent_before + 2, "the thinned delta, then its repair");
        assert_eq!(probe.fulls_sent, fulls_before + 1);
        assert_eq!(probe.unconfirmed_refreshes, 0, "asked for, not timed out");
        assert_eq!(probe.last_confirmed, probe.last_acked);
    }
    let shipped = last_ckpt_stamp(&r, "ckpt shipped");
    assert!(shipped.is_some());
    assert_eq!(shipped, last_ckpt_stamp(&r, "ckpt installed"));

    // One divergence, one repair: later deltas confirm and nothing more is
    // resent or reported.
    for i in 0..40 {
        r.cs.post(SimTime::from_millis(12_500 + 1_000 * i), scripted.clone(), "bump".to_string());
    }
    r.cs.run_until(SimTime::from_secs(53));
    {
        let probe = r.ftims[idx].lock();
        assert_eq!(probe.ckpts_sent, sent_before + 42);
        assert_eq!(probe.fulls_sent, fulls_before + 1);
        assert_eq!(probe.image_mismatches, 1);
        assert_eq!(probe.last_confirmed, probe.last_acked);
    }
    assert_eq!(mismatch_lines(&r), 1);

    ds_net::fault::inject(&mut r.cs, SimTime::from_secs(53), ds_net::fault::Fault::CrashNode(p));
    r.cs.run_until(SimTime::from_secs(70));
    assert_eq!(*r.views[backup].lock(), (41, true), "the dropped variable survived");
}

#[test]
fn unacknowledged_ships_get_a_full_image_at_the_old_refresh_cadence() {
    let mut r = rig(709);
    let idx = formed_then_busy(&mut r, 100);
    let before = {
        let probe = r.ftims[idx].lock();
        (probe.ckpts_sent, probe.fulls_sent, probe.last_acked, probe.last_confirmed)
    };
    *r.hop.lock() = HopFault::DropAcks;
    // `ckpts_sent` at each full image shipped from here on, sampled more
    // often than anything ships.
    let mut fulls_at = Vec::new();
    let mut fulls_seen = before.1;
    for half_second in 0..=202 {
        r.cs.run_until(SimTime::from_millis(10_000 + 500 * half_second));
        let probe = r.ftims[idx].lock();
        if probe.fulls_sent > fulls_seen {
            fulls_seen = probe.fulls_sent;
            fulls_at.push(probe.ckpts_sent - before.0);
        }
    }
    // With no evidence either way the insurance is what it always was:
    // `refresh_every` deltas, then the whole image.
    let cycle = refresh_every() + 1;
    assert_eq!(fulls_at, [cycle + 1, 2 * cycle + 1, 3 * cycle + 1]);
    let probe = r.ftims[idx].lock();
    assert_eq!(probe.ckpts_sent, before.0 + 100);
    assert_eq!(probe.unconfirmed_refreshes, 3, "each counted as a timeout");
    assert_eq!(probe.image_mismatches, 0);
    assert_eq!((probe.last_acked, probe.last_confirmed), (before.2, before.3));
}

#[test]
fn acks_of_another_term_or_after_demotion_confirm_nothing() {
    let mut r = rig(710);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, idx) = primary(&r);
    let scripted = ds_net::Endpoint::new(p, "scripted");
    // One delta goes out and its ack is lost: an unconfirmed ship is
    // outstanding, and the hop lets acks through again.
    *r.hop.lock() = HopFault::DropAcks;
    r.cs.post(SimTime::from_millis(10_100), scripted.clone(), "bump-and-save".to_string());
    r.cs.run_until(SimTime::from_millis(10_400));
    *r.hop.lock() = HopFault::None;
    let (term, seq, crc) = stamp_numbers(&last_ckpt_stamp(&r, "ckpt shipped").expect("shipped"));
    let (acked, confirmed, fulls) = {
        let probe = r.ftims[idx].lock();
        (probe.last_acked, probe.last_confirmed, probe.fulls_sent)
    };
    assert!(confirmed < (term, seq), "the delta is unconfirmed");

    // Another term's ack neither confirms (right checksum) nor reports a
    // divergence (wrong checksum), whatever position it names.
    let other_term = term + 1;
    r.cs.post(
        SimTime::from_millis(10_500),
        scripted.clone(),
        FtimPeerMsg::CkptAck { term: other_term, seq, crc },
    );
    r.cs.post(
        SimTime::from_millis(10_600),
        scripted.clone(),
        FtimPeerMsg::CkptAck { term: other_term, seq, crc: !crc },
    );
    r.cs.run_until(SimTime::from_millis(10_900));
    {
        let probe = r.ftims[idx].lock();
        assert_eq!(probe.last_acked, (other_term, seq), "`last_acked` keeps its meaning");
        assert_eq!(probe.last_confirmed, confirmed);
        assert_eq!(probe.image_mismatches, 0);
        assert_eq!(probe.fulls_sent, fulls);
    }
    assert!(acked < (other_term, seq));

    // Demoted, the FTIM still holds that unconfirmed ship; an ack naming it
    // with a checksum that would have been a mismatch changes nothing.
    r.cs.post(SimTime::from_secs(11), scripted.clone(), "distress".to_string());
    r.cs.run_until(SimTime::from_secs(20));
    assert_ne!(primary(&r).0, p, "the distressed primary was demoted");
    let sent = r.ftims[idx].lock().ckpts_sent;
    r.cs.post(
        SimTime::from_millis(20_100),
        scripted,
        FtimPeerMsg::CkptAck { term, seq, crc: !crc },
    );
    r.cs.run_until(SimTime::from_secs(25));
    let probe = r.ftims[idx].lock();
    assert_eq!(probe.last_confirmed, confirmed);
    assert_eq!(probe.image_mismatches, 0);
    assert_eq!((probe.ckpts_sent, probe.fulls_sent), (sent, fulls));
    drop(probe);
    assert_eq!(mismatch_lines(&r), 0);
}

/// Full mode ships the whole image every period, but the walk that feeds
/// it is the application's write set: the complete snapshot is taken once,
/// to prime the shipping store at activation, and the backup's image still
/// equals the application's after every period.
#[test]
fn full_mode_walks_the_whole_application_once_per_activation() {
    let mut r = rig_in(711, CheckpointMode::Full);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, idx) = primary(&r);
    let scripted = ds_net::Endpoint::new(p, "scripted");
    let walks = || r.snapshots[idx].load(Ordering::Relaxed);
    let walks_at_formation = walks();
    for period in 0..30u64 {
        let at = SimTime::from_millis(10_500 + 1_000 * period);
        if period % 3 != 2 {
            r.cs.post(at, scripted.clone(), "bump".to_string());
        }
        r.cs.run_until(SimTime::from_millis(11_400 + 1_000 * period));
        let small = r.views[idx].lock().0;
        let mut app = VarStore::new();
        for (name, bytes) in Scripted::image(small) {
            app.set(name, bytes);
        }
        let installed = last_ckpt_stamp(&r, "ckpt installed").expect("installed");
        assert_eq!(
            stamp_numbers(&installed).2,
            app.image_crc(None),
            "period {period}: the backup's image is not the application's"
        );
    }
    let probe = r.ftims[idx].lock();
    assert_eq!(probe.fulls_sent, probe.ckpts_sent, "every ship is a full image");
    drop(probe);
    assert_eq!(walks_at_formation, 1, "the activation's priming walk");
    assert_eq!(walks(), walks_at_formation, "no period walks the whole application");

    // A second activation primes its own store with one more walk.
    r.cs.post(SimTime::from_secs(40), scripted, "distress".to_string());
    r.cs.run_until(SimTime::from_secs(50));
    let (_, new_idx) = primary(&r);
    assert_ne!(new_idx, idx, "distress moved primaryship");
    assert_eq!(r.snapshots[new_idx].load(Ordering::Relaxed), 1);
}

/// When `node`'s scripted FTIM recorded each trace line containing `what`.
fn instants(r: &Rig, node: NodeId, what: &str) -> Vec<SimTime> {
    let me = format!("{node}/scripted: ");
    let entries = r.cs.trace().entries();
    entries
        .iter()
        .filter(|e| e.message.starts_with(&me) && e.message.contains(what))
        .map(|e| e.at)
        .collect()
}

/// One link delay for the whole image of [`Scripted`] on the rig's paths:
/// latency plus jitter plus the image's bytes at the path's bandwidth.
fn image_link_delay() -> SimDuration {
    let path = ds_net::link::PathConfig::default();
    let image_bytes = 2 * 64 * 1024;
    path.base_latency
        + path.jitter
        + SimDuration::from_micros(image_bytes * 1_000_000 / path.bandwidth_bps)
}

/// A term's first image leaves when its primary goes ACTIVE, not at the
/// next checkpoint tick: at formation the backup installs it within one
/// link delay of the activation, and a survivor's first ship after a crash
/// carries its activation instant.
#[test]
fn the_first_image_of_a_term_ships_at_activation() {
    for mode in [CheckpointMode::default(), CheckpointMode::Full] {
        let mut r = rig_in(712, mode);
        r.cs.start();
        r.cs.run_until(SimTime::from_secs(10));
        let (p, idx) = primary(&r);
        let (backup, backup_idx) = if p == r.a { (r.b, 1) } else { (r.a, 0) };
        let activated = r.ftims[idx].lock().activations[0];
        let installed = instants(&r, backup, "ckpt installed")[0];
        assert!(
            installed >= activated && installed - activated <= image_link_delay(),
            "{mode:?}: activated at {activated}, first install at {installed}"
        );

        ds_net::fault::inject(
            &mut r.cs,
            SimTime::from_secs(10),
            ds_net::fault::Fault::CrashNode(p),
        );
        r.cs.run_until(SimTime::from_secs(15));
        let activations = r.ftims[backup_idx].lock().activations.clone();
        let took_over = *activations.last().expect("the survivor took over");
        assert!(took_over > SimTime::from_secs(10));
        let shipped = instants(&r, backup, "ckpt shipped");
        assert_eq!(shipped.first(), Some(&took_over), "{mode:?}: first ship at activation");
    }
}

#[test]
fn distress_hands_over_to_the_backup() {
    let mut r = rig(703);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, idx) = primary(&r);
    r.cs.post(SimTime::from_secs(10), ds_net::Endpoint::new(p, "scripted"), "distress".to_string());
    r.cs.run_until(SimTime::from_secs(20));
    let (new_p, new_idx) = primary(&r);
    assert_ne!(new_p, p, "distress must move primaryship");
    assert!(r.views[new_idx].lock().1, "the backup's app is active");
    assert!(!r.views[idx].lock().1, "the distressed app is deactivated");
    assert!(r.probes[idx].lock().switchover_requests >= 1);
}

/// Every `api misuse:` line `node`'s scripted FTIM recorded, without the
/// endpoint prefix.
fn misuse_lines(r: &Rig, node: NodeId) -> Vec<String> {
    let me = format!("{node}/scripted: api misuse: ");
    let entries = r.cs.trace().entries();
    entries.iter().filter_map(|e| e.message.strip_prefix(&me)).map(str::to_string).collect()
}

/// The application resets a deleted watchdog, deletes it twice, saves from
/// `on_deactivate` after its demotion, and deactivates holding a live
/// watchdog: the FTIM reports each misuse exactly once, in order.
#[test]
fn api_misuse_is_reported_once_per_call() {
    let mut r = rig(713);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, _) = primary(&r);
    let scripted = ds_net::Endpoint::new(p, "scripted");
    r.cs.post(SimTime::from_millis(10_100), scripted.clone(), "wd-misuse".to_string());
    r.cs.post(SimTime::from_secs(11), scripted, "distress".to_string());
    r.cs.run_until(SimTime::from_secs(20));
    assert_ne!(primary(&r).0, p, "the distressed primary was demoted");
    assert_eq!(
        misuse_lines(&r, p),
        [
            "watchdog_reset on unknown watchdog \"wd\"",
            "watchdog_delete on unknown watchdog \"wd\"",
            "save while backup",
            "deactivated holding live watchdogs [\"leak\"]",
        ]
    );
}

/// Create/set/reset/delete, and a restored watchdog created again after a
/// takeover, are legal: no misuse line on either node.
#[test]
fn legal_watchdog_lifecycle_reports_nothing() {
    let mut r = rig(714);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let (p, idx) = primary(&r);
    let scripted = ds_net::Endpoint::new(p, "scripted");
    r.cs.post(SimTime::from_millis(10_100), scripted.clone(), "wd-lifecycle".to_string());
    r.cs.post(SimTime::from_millis(10_200), scripted.clone(), "wd-keep".to_string());
    // The next periodic checkpoint carries the watchdog table to the backup.
    r.cs.post(SimTime::from_secs(12), scripted, "distress".to_string());
    r.cs.run_until(SimTime::from_secs(20));
    let (new_p, new_idx) = primary(&r);
    assert_ne!(new_p, p, "the distressed primary was demoted");
    assert_eq!(r.ftims[new_idx].lock().restores.len(), 1, "the backup restored its store");
    r.cs.post(
        SimTime::from_secs(20),
        ds_net::Endpoint::new(new_p, "scripted"),
        "wd-rekeep".to_string(),
    );
    r.cs.run_until(SimTime::from_secs(25));
    assert!(r.views[new_idx].lock().1, "the restored application is still active");
    assert_eq!(r.ftims[idx].lock().deactivations.len(), 1);
    assert_eq!(misuse_lines(&r, r.a), Vec::<String>::new());
    assert_eq!(misuse_lines(&r, r.b), Vec::<String>::new());
}
