//! `ckpt_sparse` and `ckpt_dense`: the real pair (engine + FTIM +
//! `LoadApp` on two `ClusterSim` nodes), one checkpoint period of virtual
//! time per operation.
//!
//! The load is closed-loop with one client: the next period is driven only
//! after the previous one has run to its horizon. Virtual time costs
//! nothing, so an operation's wall time is exactly the processor time the
//! application, FTIM, engine and simulator spend on one period.

use std::sync::Arc;
use std::time::{Duration, Instant};

use comsim::buf::Bytes;
use ds_net::prelude::*;
use oftt::checkpoint::{
    AcceptOutcome, Checkpoint, CheckpointPayload, CheckpointStore, VarSet, VarStore,
};
use oftt::config::{engine_service, CheckpointMode, OfttConfig, Pair, RecoveryRule};
use oftt::engine::{Engine, EngineProbe};
use oftt::ftim::{FtProcess, FtimProbe};
use oftt::role::Role;
use oftt_wire::app::{LoadApp, LoadConfig, LoadView};
use oftt_wire::harness::parse_ckpt_triple;
use parking_lot::Mutex;

use crate::procfs::{usage, Who};
use crate::spans::Tracer;
use crate::{stats, Outcome};

/// The name the FTIM-wrapped application is registered under.
const APP_SERVICE: &str = "app";

/// What distinguishes the two checkpoint workloads.
#[derive(Clone, Copy)]
pub struct Shape {
    pub mode: CheckpointMode,
    pub load: LoadConfig,
    /// Operations timed per second of `--seconds`, calibrated so the timed
    /// phase lasts about that long on the 2-vCPU reference box.
    pub ops_per_second: usize,
    /// Warm-up operations inside every set-up (≥ 1 s of the same work).
    pub warmup_ops: usize,
}

const TICK: Duration = Duration::from_millis(20);

/// 10,000 × 64 B, 1 % rewritten per period, shipped default mode: fixed
/// per-operation costs dominate. 33 operations make one refresh cycle
/// (32 deltas + 1 full), so counts are multiples of 33.
pub const SPARSE: Shape = Shape {
    mode: CheckpointMode::Selective { refresh_every: 32 },
    load: LoadConfig { vars: 10_000, var_bytes: 64, dirty_per_tick: 20, tick_period: TICK },
    ops_per_second: 33 * 48,
    warmup_ops: 33 * 72,
};

/// 2,000 × 256 B, all rewritten every period, full image every time:
/// image build, copy, checksum and install dominate.
pub const DENSE: Shape = Shape {
    mode: CheckpointMode::Full,
    load: LoadConfig { vars: 2_000, var_bytes: 256, dirty_per_tick: 400, tick_period: TICK },
    ops_per_second: 320,
    warmup_ops: 480,
};

/// The timers `oftt_wire::harness::pair_config` gives a deployed pair.
fn pair_timers(pair: Pair, mode: CheckpointMode) -> OfttConfig {
    let mut config = OfttConfig::new(pair);
    config.heartbeat_period = SimDuration::from_millis(50);
    config.component_timeout = SimDuration::from_millis(400);
    config.peer_timeout = SimDuration::from_millis(400);
    config.fail_safe_timeout = SimDuration::from_millis(250);
    config.checkpoint_period = SimDuration::from_millis(100);
    config.startup_timeout = SimDuration::from_millis(500);
    config.checkpoint_mode = mode;
    config
}

/// Two simulated nodes on a dual link, each hosting an engine and an
/// FTIM-wrapped [`LoadApp`].
pub struct SimPair {
    pub cs: ClusterSim,
    pub nodes: [NodeId; 2],
    engines: [Arc<Mutex<EngineProbe>>; 2],
    pub ftims: [Arc<Mutex<FtimProbe>>; 2],
    views: [Arc<Mutex<LoadView>>; 2],
    period: SimDuration,
}

impl SimPair {
    pub fn build(seed: u64, mode: CheckpointMode, load: LoadConfig) -> SimPair {
        let mut cs = ClusterSim::new(seed);
        let a = cs.add_node(NodeConfig { name: "A".into(), ..Default::default() });
        let b = cs.add_node(NodeConfig { name: "B".into(), ..Default::default() });
        cs.connect(a, b, Link::dual());
        let config = pair_timers(Pair::new(a, b), mode);
        let engines: [Arc<Mutex<EngineProbe>>; 2] = Default::default();
        let ftims: [Arc<Mutex<FtimProbe>>; 2] = Default::default();
        let views: [Arc<Mutex<LoadView>>; 2] = Default::default();
        for (i, node) in [a, b].into_iter().enumerate() {
            let (engine_config, probe) = (config.clone(), engines[i].clone());
            cs.register_service(
                node,
                engine_service(),
                Box::new(move || Box::new(Engine::new(engine_config.clone(), probe.clone()))),
                true,
            );
            let (app_config, ftim, view) = (config.clone(), ftims[i].clone(), views[i].clone());
            cs.register_service(
                node,
                APP_SERVICE,
                Box::new(move || {
                    Box::new(FtProcess::new(
                        app_config.clone(),
                        RecoveryRule::LocalRestart { max_attempts: 1 },
                        LoadApp::new(load, view.clone()),
                        ftim.clone(),
                    ))
                }),
                true,
            );
        }
        cs.start();
        SimPair { cs, nodes: [a, b], engines, ftims, views, period: config.checkpoint_period }
    }

    /// Index of the node whose engine is primary while the other is backup.
    pub fn primary(&self) -> Option<usize> {
        let roles = [0, 1].map(|i| self.engines[i].lock().current_role());
        match roles {
            [Some(Role::Primary), Some(Role::Backup)] => Some(0),
            [Some(Role::Backup), Some(Role::Primary)] => Some(1),
            _ => None,
        }
    }

    /// Advances one checkpoint period of virtual time.
    pub fn step(&mut self) {
        let horizon = self.cs.now() + self.period;
        self.cs.run_until(horizon);
    }

    /// Steps until roles are settled and the backup has installed its first
    /// checkpoint; returns the primary's index.
    pub fn form(&mut self) -> usize {
        for _ in 0..600 {
            self.step();
            if let Some(p) = self.primary() {
                if self.ftims[1 - p].lock().ckpts_installed > 0 {
                    return p;
                }
            }
        }
        panic!("pair never formed within 60 virtual seconds");
    }
}

/// A pair that has formed and run its warm-up.
pub struct Ready {
    shape: Shape,
    pair: SimPair,
    primary: usize,
}

pub fn setup(shape: Shape, seed: u64, warmup_ops: usize) -> Ready {
    let mut pair = SimPair::build(seed, shape.mode, shape.load);
    let primary = pair.form();
    for _ in 0..warmup_ops {
        pair.step();
    }
    Ready { shape, pair, primary }
}

/// Counters read off the pair before and after the timed phase.
struct Counters {
    sent: u64,
    bytes: u64,
    fulls: u64,
    installed: u64,
    msgs: u64,
    trace_entries: usize,
}

impl Ready {
    fn counters(&self) -> Counters {
        let p = self.pair.ftims[self.primary].lock();
        Counters {
            sent: p.ckpts_sent,
            bytes: p.ckpt_bytes_sent,
            fulls: p.fulls_sent,
            installed: self.pair.ftims[1 - self.primary].lock().ckpts_installed,
            msgs: self.pair.cs.cluster().counters().sent,
            trace_entries: self.pair.cs.trace().entries().len(),
        }
    }

    /// The newest `(term, seq, crc)` a trace line containing `what` carries.
    fn last_triple(&self, what: &str) -> Option<(u64, u64, u32)> {
        let entries = self.pair.cs.trace().entries();
        entries
            .iter()
            .rev()
            .find(|e| e.message.contains(what))
            .and_then(|e| parse_ckpt_triple(&e.message))
    }

    /// Lets the checkpoint in flight land, then checks that the backup
    /// holds exactly what the primary last shipped.
    fn check(&mut self, problems: &mut Vec<String>) {
        let settled = |r: &Ready| {
            let p = r.pair.ftims[r.primary].lock();
            let installed = r.pair.ftims[1 - r.primary].lock().ckpts_installed;
            let shipped = r.last_triple("ckpt shipped").map(|(t, s, _)| (t, s));
            p.ckpts_sent == installed && Some(p.last_acked) == shipped
        };
        for _ in 0..200 {
            if settled(self) {
                break;
            }
            let horizon = self.pair.cs.now() + SimDuration::from_millis(1);
            self.pair.cs.run_until(horizon);
        }
        if !settled(self) {
            problems.push("checkpoints sent, installed and acknowledged disagree".into());
        }
        let (shipped, installed) =
            (self.last_triple("ckpt shipped"), self.last_triple("ckpt installed"));
        if shipped.is_none() || shipped != installed {
            problems.push(format!(
                "backup store {installed:?} differs from the primary's image {shipped:?}"
            ));
        }
        if self.pair.primary() != Some(self.primary) {
            problems.push("roles changed during the run".into());
        }
    }
}

/// Runs `ops` checkpoint periods. With tracing on, every period is
/// followed by a shadow of the layer calls the FTIM made inside it, on the
/// same variables, with a span around each.
pub fn timed(mut ready: Ready, ops: usize, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut shadow = tracer.enabled().then(|| Shadow::new(&ready));
    let before = ready.counters();
    let mut refresh_op_ms = Vec::new();
    out.mark_cpu(0, ops, false);
    let start = Instant::now();
    for op in 0..ops as u64 {
        let began = start.elapsed().as_nanos() as u64;
        let span = tracer.begin("op", op);
        ready.pair.step();
        tracer.end(span);
        let real_ns = start.elapsed().as_nanos() as u64 - began;
        if let Some(shadow) = shadow.as_mut() {
            let fulls = ready.pair.ftims[ready.primary].lock().fulls_sent;
            if fulls > shadow.fulls_seen {
                shadow.fulls_seen = fulls;
                refresh_op_ms.push(real_ns as f64 / 1e6);
            }
            let ticks = ready.pair.views[ready.primary].lock().ticks;
            shadow.period(ticks, op, tracer);
        }
        out.op_ns.push(real_ns);
        out.done_ns.push(start.elapsed().as_nanos() as u64);
        out.mark_cpu(out.done_ns.len(), ops, false);
    }
    let after = ready.counters();
    ready.check(&mut out.problems);
    out.peak_rss_mb = usage(Who::Process).peak_rss_mb;
    out.attempted = ops as u64;
    out.failed = (ops as u64).saturating_sub(after.installed - before.installed);

    if let Some(shadow) = shadow {
        let per_op = |x: u64| x as f64 / ops.max(1) as f64;
        let sent = (after.sent - before.sent).max(1) as f64;
        let mut set = |name: &'static str, value: f64| out.layers.insert(name, value);
        let in_path = [
            ("varstore.set_us", "varstore.set"),
            ("varstore.take_dirty_us", "varstore.take_dirty"),
            ("varstore.crc_us", "varstore.crc"),
            ("varstore.image_us", "varstore.image"),
            ("checkpoint.build_us", "checkpoint.build"),
            ("store.offer_us", "store.offer"),
        ];
        let mut in_path_us = 0.0;
        for (metric, span) in in_path {
            let us = tracer.self_us_per_op(span, ops);
            in_path_us += us;
            set(metric, us);
        }
        // `offer` verifies internally, so the stand-alone verify span is
        // not part of the in-path sum.
        set("checkpoint.verify_us", tracer.self_us_per_op("checkpoint.verify", ops));
        set("varstore.sets_per_op", per_op(shadow.sets));
        set("varstore.set_elided_share", shadow.elided as f64 / shadow.sets.max(1) as f64);
        set("store.restore_image_us", shadow.restore_image_us());
        set("store.rejected_share", 1.0 - (after.installed - before.installed) as f64 / sent);
        set("ftim.ckpt_bytes_per_op", per_op(after.bytes - before.bytes));
        set("ftim.fulls_share", (after.fulls - before.fulls) as f64 / sent);
        set("ftim.refresh_op_ms", stats::median(&refresh_op_ms));
        set(
            "ftim.trace_entries_per_op",
            per_op((after.trace_entries - before.trace_entries) as u64),
        );
        set("sim.msgs_per_op", per_op(after.msgs - before.msgs));
        let op_us = out.op_ns.iter().sum::<u64>() as f64 / 1e3 / ops.max(1) as f64;
        set("sim.residual_us", op_us - in_path_us);
        if !shadow.consistent() {
            out.problems.push("shadow backup store diverged from the shadow ship store".into());
        }
    }
    out
}

/// The FTIM's ship path and the peer's install path, replayed by the
/// benchmark on its own stores so that each layer call can carry a span.
/// It tracks the real application tick for tick, so every call sees the
/// variables the FTIM saw.
struct Shadow {
    shape: Shape,
    names: Vec<String>,
    versions: Vec<u64>,
    ticks: u64,
    pending: Vec<usize>,
    ship: VarStore,
    backup: CheckpointStore,
    seq: u64,
    deltas_since_full: u32,
    fulls_seen: u64,
    sets: u64,
    elided: u64,
}

impl Shadow {
    fn new(ready: &Ready) -> Shadow {
        let vars = ready.shape.load.vars;
        let mut shadow = Shadow {
            shape: ready.shape,
            names: (0..vars).map(|i| format!("v{i:05}")).collect(),
            versions: vec![0; vars],
            ticks: 0,
            pending: Vec::new(),
            ship: VarStore::new(),
            backup: CheckpointStore::new(),
            seq: 0,
            deltas_since_full: 0,
            fulls_seen: ready.pair.ftims[ready.primary].lock().fulls_sent,
            sets: 0,
            elided: 0,
        };
        // Catch up with the warm-up, then prime both stores with a full
        // image, outside any span.
        shadow.advance(ready.pair.views[ready.primary].lock().ticks);
        shadow.ship(true, 0, &mut Tracer::new(false));
        shadow.sets = 0;
        shadow.elided = 0;
        shadow
    }

    /// `LoadApp`'s variable layout: version in the first 8 bytes, filler
    /// after.
    fn var(&self, i: usize) -> Bytes {
        let mut buf = vec![(i & 0xFF) as u8; self.shape.load.var_bytes.max(8)];
        buf[..8].copy_from_slice(&self.versions[i].to_le_bytes());
        Bytes::from(buf)
    }

    /// Replays the application's ticks up to `ticks`.
    fn advance(&mut self, ticks: u64) {
        let per_tick = self.shape.load.dirty_per_tick as u64;
        for k in self.ticks * per_tick..ticks * per_tick {
            let i = (k % self.versions.len() as u64) as usize;
            self.versions[i] += 1;
            self.pending.push(i);
        }
        self.ticks = ticks;
    }

    fn period(&mut self, ticks: u64, op: u64, tracer: &mut Tracer) {
        let span = tracer.begin("shadow", op);
        self.advance(ticks);
        let full = match self.shape.mode {
            CheckpointMode::Full => true,
            CheckpointMode::Selective { refresh_every } => self.deltas_since_full >= refresh_every,
        };
        self.ship(full, op, tracer);
        tracer.end(span);
    }

    fn ship(&mut self, full: bool, op: u64, tracer: &mut Tracer) {
        let touched = std::mem::take(&mut self.pending);
        let indices: Vec<usize> = if full { (0..self.names.len()).collect() } else { touched };
        let mut writes: Vec<(String, Bytes)> =
            indices.into_iter().map(|i| (self.names[i].clone(), self.var(i))).collect();
        writes.push(("ticks".into(), Bytes::from(self.ticks.to_le_bytes().to_vec())));

        let span = tracer.begin("varstore.set", op);
        for (name, bytes) in writes {
            self.sets += 1;
            if !self.ship.set(name, bytes) {
                self.elided += 1;
            }
        }
        tracer.end(span);

        let span = tracer.begin("varstore.crc", op);
        let image_crc = self.ship.image_crc(None);
        tracer.end(span);

        let (payload, crc) = if full {
            let span = tracer.begin("varstore.image", op);
            let image = self.ship.image(None);
            self.ship.clear_dirty();
            tracer.end(span);
            self.deltas_since_full = 0;
            (CheckpointPayload::Full(image), image_crc)
        } else {
            let span = tracer.begin("varstore.take_dirty", op);
            let delta: VarSet = self.ship.take_dirty(None);
            tracer.end(span);
            let span = tracer.begin("varstore.crc", op);
            let crc = self.ship.crc_of(&delta);
            tracer.end(span);
            self.deltas_since_full += 1;
            (CheckpointPayload::Delta(delta), crc)
        };

        let span = tracer.begin("checkpoint.build", op);
        self.seq += 1;
        let ckpt = Checkpoint::with_crc(1, self.seq, SimTime::from_millis(self.seq), payload, crc);
        std::hint::black_box(ckpt.wire_size());
        tracer.end(span);

        let span = tracer.begin("checkpoint.verify", op);
        let verified = std::hint::black_box(ckpt.verify());
        tracer.end(span);

        let span = tracer.begin("store.offer", op);
        let outcome = self.backup.offer(&ckpt);
        tracer.end(span);
        assert!(verified && outcome == AcceptOutcome::Installed, "shadow checkpoint refused");
    }

    /// Median cost of taking the restore image off the backup store.
    fn restore_image_us(&self) -> f64 {
        let samples: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.backup.to_restore_image());
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        stats::median(&samples)
    }

    fn consistent(&self) -> bool {
        self.backup.image_crc() == self.ship.image_crc(None)
    }
}
