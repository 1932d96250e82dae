//! Dynamic recovery rules — the run-time decision the paper's §2.2.1
//! describes as future work ("the current implementation only supports
//! static decision"). The application flips its own rule mid-run and the
//! engine honours the change on the next failure.

use std::sync::Arc;

use ds_net::fault::{inject, Fault};
use ds_net::link::Link;
use ds_net::message::Envelope;
use ds_net::node::NodeConfig;
use ds_net::prelude::{ClusterSim, NodeId, SimTime};
use oftt::checkpoint::VarSet;
use oftt::prelude::*;
use parking_lot::Mutex;

/// An app that switches its recovery rule when told to.
struct RuleFlipper {
    view: Arc<Mutex<bool>>, // active?
}

impl FtApplication for RuleFlipper {
    fn snapshot(&self) -> VarSet {
        VarSet::new()
    }
    fn restore(&mut self, _image: &VarSet) {}
    fn on_activate(&mut self, _ctx: &mut FtCtx<'_>) {
        *self.view.lock() = true;
    }
    fn on_deactivate(&mut self, _ctx: &mut FtCtx<'_>) {
        *self.view.lock() = false;
    }
    fn on_app_message(&mut self, envelope: Envelope, ctx: &mut FtCtx<'_>) {
        if let Some(cmd) = envelope.body.downcast_ref::<String>() {
            if cmd == "go-switchover" {
                ctx.set_recovery_rule(RecoveryRule::Switchover);
            }
        }
    }
}

struct Rig {
    cs: ClusterSim,
    a: NodeId,
    b: NodeId,
    probes: [Arc<Mutex<EngineProbe>>; 2],
    views: [Arc<Mutex<bool>>; 2],
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
    let views = [Arc::new(Mutex::new(false)), Arc::new(Mutex::new(false))];
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
        let view = views[idx].clone();
        let ftim = Arc::new(Mutex::new(FtimProbe::default()));
        cs.register_service(
            node,
            "flipper",
            Box::new(move || {
                Box::new(FtProcess::new(
                    app_config.clone(),
                    // Statically configured: restart locally, twice.
                    RecoveryRule::LocalRestart { max_attempts: 2 },
                    RuleFlipper { view: view.clone() },
                    ftim.clone(),
                ))
            }),
            true,
        );
    }
    Rig { cs, a, b, probes, views }
}

fn primary(rig: &Rig) -> NodeId {
    if rig.probes[0].lock().current_role() == Some(Role::Primary) {
        rig.a
    } else {
        rig.b
    }
}

#[test]
fn static_rule_restarts_locally() {
    let mut r = rig(601);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let p = primary(&r);
    inject(&mut r.cs, SimTime::from_secs(10), Fault::KillService(p, "flipper".into()));
    r.cs.run_until(SimTime::from_secs(30));
    // Still primary on the same node; one local restart, no switchover.
    assert_eq!(primary(&r), p);
    let idx = if p == r.a { 0 } else { 1 };
    assert!(r.probes[idx].lock().restarts >= 1);
    assert_eq!(r.probes[idx].lock().switchover_requests, 0);
}

#[test]
fn dynamic_rule_change_switches_over_instead() {
    let mut r = rig(602);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(10));
    let p = primary(&r);
    // The application itself flips its rule at run time.
    r.cs.post(
        SimTime::from_secs(10),
        ds_net::Endpoint::new(p, "flipper"),
        "go-switchover".to_string(),
    );
    r.cs.run_until(SimTime::from_secs(12));
    inject(&mut r.cs, SimTime::from_secs(12), Fault::KillService(p, "flipper".into()));
    r.cs.run_until(SimTime::from_secs(40));
    // The failure now triggers an immediate switchover: the peer is
    // primary and its app is active.
    let new_primary = primary(&r);
    assert_ne!(new_primary, p, "rule change must route the failure to the backup");
    let idx = if p == r.a { 0 } else { 1 };
    assert!(r.probes[idx].lock().switchover_requests >= 1);
    let new_idx = 1 - idx;
    assert!(*r.views[new_idx].lock(), "backup app active after dynamic switchover");
}

#[test]
fn rule_change_on_unknown_component_is_ignored() {
    let mut r = rig(603);
    r.cs.start();
    r.cs.run_until(SimTime::from_secs(5));
    // Direct engine poke with a bogus service: no panic, no effect.
    r.cs.post(
        SimTime::from_secs(5),
        oftt::config::engine_endpoint(r.a),
        oftt::messages::ToEngine::SetRecoveryRule {
            service: "ghost".into(),
            rule: RecoveryRule::Switchover,
        },
    );
    r.cs.run_until(SimTime::from_secs(10));
    let first = r.probes[0].lock().current_role();
    let roles = (first, r.probes[1].lock().current_role());
    assert!(matches!(
        roles,
        (Some(Role::Primary), Some(Role::Backup)) | (Some(Role::Backup), Some(Role::Primary))
    ));
}
