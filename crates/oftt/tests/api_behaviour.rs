//! End-to-end behaviour of the paper's API surface: `OFTTDistress` forces
//! a switchover, `OFTTSave` ships immediately (event-based checkpointing),
//! and `OFTTSelSave` designation filters what travels.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ds_net::link::Link;
use ds_net::message::Envelope;
use ds_net::node::NodeConfig;
use ds_net::prelude::{ClusterSim, NodeId, SimTime};
use ds_net::process::{Process, ProcessEnv};
use oftt::checkpoint::{RejectReason, VarSet};
use oftt::messages::FtimPeerMsg;
use oftt::prelude::*;
use parking_lot::Mutex;

/// An app scripted through external command messages.
struct Scripted {
    big: Vec<u8>, // a large variable
    small: u64,   // a small variable
    view: Arc<Mutex<(u64, bool)>>,
}

impl Scripted {
    fn new(view: Arc<Mutex<(u64, bool)>>) -> Self {
        *view.lock() = (0, false);
        Scripted { big: vec![0xAB; 64 * 1024], small: 0, view }
    }
}

impl FtApplication for Scripted {
    fn snapshot(&self) -> VarSet {
        [
            ("big".to_string(), comsim::buf::Bytes::copy_from_slice(&self.big)),
            ("small".to_string(), comsim::marshal::to_shared(&self.small).unwrap()),
        ]
        .into_iter()
        .collect()
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
    fn on_deactivate(&mut self, _ctx: &mut FtCtx<'_>) {
        let small = self.small;
        *self.view.lock() = (small, false);
    }
    fn on_app_message(&mut self, envelope: Envelope, ctx: &mut FtCtx<'_>) {
        let Some(cmd) = envelope.body.downcast_ref::<String>() else { return };
        match cmd.as_str() {
            "bump-and-save" => {
                self.small += 1;
                *self.view.lock() = (self.small, true);
                // OFTTSave: event-based checkpoint, right now.
                oftt::api::oftt_save(ctx);
            }
            "designate-small" => {
                // OFTTSelSave: only `small` travels from here on.
                oftt::api::oftt_sel_save(ctx, &["small"]);
            }
            "distress" => {
                // OFTTDistress: ask the engine for a switchover.
                oftt::api::oftt_distress(ctx, "operator request");
            }
            _ => {}
        }
    }
}

/// Sits in front of an FTIM like a faulty last hop: while `armed`, the next
/// checkpoint delivered has one bit of its crc flipped (and disarms).
struct FlipNextCrc<P> {
    inner: P,
    armed: Arc<AtomicBool>,
}

impl<P: Process> Process for FlipNextCrc<P> {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        self.inner.on_start(env);
    }
    fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
        self.inner.on_timer(token, env);
    }
    fn on_message(&mut self, mut envelope: Envelope, env: &mut dyn ProcessEnv) {
        let is_ckpt = matches!(envelope.body.downcast_ref(), Some(FtimPeerMsg::Ckpt(_)));
        if is_ckpt && self.armed.swap(false, Ordering::SeqCst) {
            let Ok(FtimPeerMsg::Ckpt(mut checkpoint)) = envelope.body.downcast() else {
                unreachable!("just matched a checkpoint")
            };
            checkpoint.crc ^= 1 << 7;
            envelope = Envelope::new(envelope.from, envelope.to, FtimPeerMsg::Ckpt(checkpoint));
        }
        self.inner.on_message(envelope, env);
    }
}

struct Rig {
    cs: ClusterSim,
    a: NodeId,
    b: NodeId,
    probes: [Arc<Mutex<EngineProbe>>; 2],
    ftims: [Arc<Mutex<FtimProbe>>; 2],
    views: [Arc<Mutex<(u64, bool)>>; 2],
    /// Arms [`FlipNextCrc`] on whichever FTIM receives the next checkpoint.
    flip_next_crc: Arc<AtomicBool>,
}

fn rig(seed: u64) -> Rig {
    let mut cs = ClusterSim::new(seed);
    let a = cs.add_node(NodeConfig::default());
    let b = cs.add_node(NodeConfig::default());
    cs.connect(a, b, Link::dual());
    let config = OfttConfig::new(Pair::new(a, b));
    let probes = [
        Arc::new(Mutex::new(EngineProbe::default())),
        Arc::new(Mutex::new(EngineProbe::default())),
    ];
    let ftims =
        [Arc::new(Mutex::new(FtimProbe::default())), Arc::new(Mutex::new(FtimProbe::default()))];
    let views = [Arc::new(Mutex::new((0, false))), Arc::new(Mutex::new((0, false)))];
    let flip_next_crc = Arc::new(AtomicBool::new(false));
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
        let armed = flip_next_crc.clone();
        cs.register_service(
            node,
            "scripted",
            Box::new(move || {
                Box::new(FlipNextCrc {
                    inner: FtProcess::new(
                        app_config.clone(),
                        RecoveryRule::default(),
                        Scripted::new(view.clone()),
                        ftim.clone(),
                    ),
                    armed: armed.clone(),
                })
            }),
            true,
        );
    }
    Rig { cs, a, b, probes, ftims, views, flip_next_crc }
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
    let bytes_full = r.ftims[idx].lock().ckpt_bytes_sent;
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
    let bytes_after = r.ftims[idx].lock().ckpt_bytes_sent;
    let delta = bytes_after - bytes_full;
    assert!(
        delta < 8 * 1024,
        "designated save must exclude the 64 KiB variable (shipped {delta} bytes)"
    );
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
    r.flip_next_crc.store(true, Ordering::SeqCst);
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
