//! `failover_kill`: two real `oftt-node` processes per cycle; the primary
//! is SIGKILLed and the clock stops when the survivor's application is
//! ACTIVE.
//!
//! Closed loop with one client: a cycle starts when the previous one has
//! ended. Every cycle uses fresh processes, ports and seeds, so each kill
//! is an independent sample. The nodes are observed through their stdout,
//! which `oftt-node` flushes every 25 ms; that grain is part of every wall
//! time measured here, and the stages that need better are taken from the
//! survivor's own trace timestamps.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ds_net::fault::{inject, Fault};
use ds_net::prelude::*;
use oftt::config::CheckpointMode;
use oftt_wire::app::LoadConfig;
use oftt_wire::harness::{free_port, pair_config, parse_ckpt_triple, write_config, ChildNode};

use crate::ckpt::SimPair;
use crate::procfs::{usage, Who};
use crate::spans::Tracer;
use crate::{stats, Outcome};

/// Cycles timed per second of `--seconds` (a cycle takes about 0.5 s).
pub const OPS_PER_SECOND: usize = 2;
/// Warm-up cycles inside every set-up.
pub const WARMUP_OPS: usize = 3;
/// A survivor not ACTIVE this long after the kill has failed.
const LIMIT: Duration = Duration::from_secs(10);
const APP_VARS: usize = 200;
const POLL: Duration = Duration::from_micros(500);

/// Where the node configs of this run live: beside the binaries, inside
/// the build directory.
pub struct Ready {
    dir: PathBuf,
    seed: u64,
    next_cycle: u64,
}

/// What one kill cycle measured; times in ms.
#[derive(Default)]
struct Cycle {
    pair_form: f64,
    first_install: f64,
    /// Kill → survivor prints `role=primary`.
    detect: f64,
    /// Kill → survivor prints `application ACTIVE`.
    kill_to_active: f64,
    restore: f64,
    activate: f64,
    first_ship: f64,
    restored_vars: f64,
}

pub fn setup(seed: u64, warmup_ops: usize) -> Ready {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe
        .parent()
        .expect("binary has a directory")
        .join(format!("failover-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("config directory");
    let mut ready = Ready { dir, seed, next_cycle: 0 };
    for _ in 0..warmup_ops {
        ready.cycle(false, &mut Tracer::new(false)).expect("warm-up cycle");
    }
    ready
}

impl Drop for Ready {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Polls `probe` until it yields something or `timeout` passes.
fn poll<T>(timeout: Duration, mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        if let Some(found) = probe() {
            return Some(found);
        }
        if start.elapsed() > timeout {
            return None;
        }
        std::thread::sleep(POLL);
    }
}

/// Waits for a line of `child`'s scraped stdout that satisfies `pred`.
fn wait_line(child: &ChildNode, pred: impl Fn(&str) -> bool, timeout: Duration) -> Option<String> {
    poll(timeout, || child.find_line(&pred))
}

/// The node's own clock on a trace line (`[12.300000s   ckpt] ...`), in ms.
fn line_ms(line: &str) -> Option<f64> {
    let secs = line.strip_prefix('[')?.split('s').next()?;
    Some(secs.trim().parse::<f64>().ok()? * 1e3)
}

/// `N` out of `... restored N vars (...)`.
fn restored_vars(line: &str) -> Option<f64> {
    let rest = line.split("restored ").nth(1)?;
    rest.split(' ').next()?.parse().ok()
}

fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

impl Ready {
    fn node_config(&self, node: NodeId, ports: [u16; 2], seed: u64) -> PathBuf {
        let (me, peer) = (node.0 as usize, 1 - node.0 as usize);
        let text = pair_config(
            node,
            ports[me],
            NodeId(peer as u16),
            ports[peer],
            NodeId(0),
            APP_VARS,
            seed,
        );
        write_config(&self.dir, &format!("n{}-{seed}.toml", node.0), &text)
    }

    /// Forms a pair, kills its primary and watches the survivor take over.
    /// With `stages`, also waits for the survivor's first shipped
    /// checkpoint and reads the stage timestamps off its trace.
    fn cycle(&mut self, stages: bool, tracer: &mut Tracer) -> Result<Cycle, String> {
        let op = self.next_cycle;
        self.next_cycle += 1;
        let result = self.try_cycle(op, stages, tracer);
        tracer.close_open(); // a failed cycle leaves its spans open
        result
    }

    fn try_cycle(&self, op: u64, stages: bool, tracer: &mut Tracer) -> Result<Cycle, String> {
        let seed = self.seed.wrapping_mul(10_000).wrapping_add(op * 2);
        let ports = [free_port(), free_port()];
        tracer.begin("cycle", op);
        let spawned = Instant::now();
        let stage = tracer.begin("runtime.pair_form", op);
        let mut nodes = Vec::new();
        for i in 0..2u16 {
            let config = self.node_config(NodeId(i), ports, seed + u64::from(i));
            nodes.push(ChildNode::spawn(NodeId(i), &config).map_err(|e| format!("spawn: {e}"))?);
        }
        let said = |i: usize, what: &str| nodes[i].find_line(|l| l.contains(what)).is_some();
        let primary = poll(Duration::from_secs(15), || {
            (0..2).find(|&i| said(i, "role=primary") && said(1 - i, "role=backup"))
        })
        .ok_or("the pair never formed")?;
        let backup = 1 - primary;
        tracer.end(stage);
        let formed = Instant::now();
        let stage = tracer.begin("runtime.first_install", op);
        wait_line(&nodes[backup], |l| l.contains("ckpt installed"), Duration::from_secs(10))
            .ok_or("checkpoint flow never established")?;
        tracer.end(stage);
        let installed = Instant::now();
        let mut cycle = Cycle {
            pair_form: ms(formed - spawned),
            first_install: ms(installed - formed),
            ..Cycle::default()
        };

        let stage = tracer.begin("engine.detect", op);
        let killed = Instant::now();
        nodes[primary].kill();
        let survivor = &nodes[backup];
        let role_line = wait_line(survivor, |l| l.contains("role=primary"), LIMIT)
            .ok_or("survivor never promoted")?;
        cycle.detect = ms(killed.elapsed());
        tracer.end(stage);
        let active_line = wait_line(survivor, |l| l.contains("application ACTIVE"), LIMIT)
            .filter(|_| killed.elapsed() <= LIMIT)
            .ok_or("survivor not ACTIVE within the limit")?;
        cycle.kill_to_active = ms(killed.elapsed());

        // Restore integrity: the image the survivor restored is the one it
        // last installed, which is the one the dead primary shipped.
        let restore_line = survivor
            .find_line(|l| l.contains("ckpt restore position"))
            .ok_or("survivor activated without a restore position")?;
        let (term, seq, restored_crc) =
            parse_ckpt_triple(&restore_line).ok_or("unparsable restore line")?;
        let position = format!("(term={term} seq={seq} ");
        let crc_of = |node: &ChildNode, what: &str| {
            node.find_line(|l| l.contains(what) && l.contains(&position))
                .and_then(|l| parse_ckpt_triple(&l))
                .map(|(_, _, crc)| crc)
        };
        if crc_of(survivor, "ckpt installed") != Some(restored_crc) {
            return Err(format!(
                "restored crc {restored_crc} was never installed at t{term}.s{seq}"
            ));
        }
        // The primary may die before its stdout pump prints the ship line.
        if crc_of(&nodes[primary], "ckpt shipped").is_some_and(|shipped| shipped != restored_crc) {
            return Err(format!("restored crc {restored_crc} differs from the shipped one"));
        }

        if stages {
            let after = |line: &str, t: f64| line_ms(line).is_some_and(|at| at >= t);
            let t_role = line_ms(&role_line).ok_or("role line has no timestamp")?;
            let restored = survivor
                .find_line(|l| l.contains(": restored ") && after(l, t_role))
                .ok_or("no restore line after promotion")?;
            let t_restored = line_ms(&restored).ok_or("restore line has no timestamp")?;
            let t_active = line_ms(&active_line).ok_or("ACTIVE line has no timestamp")?;
            let stage = tracer.begin("ftim.first_ship", op);
            let shipped = wait_line(
                survivor,
                |l| l.contains("ckpt shipped") && after(l, t_active),
                Duration::from_secs(5),
            )
            .ok_or("survivor never shipped a checkpoint")?;
            tracer.end(stage);
            cycle.restore = t_restored - t_role;
            cycle.activate = t_active - t_restored;
            cycle.first_ship = line_ms(&shipped).ok_or("ship line has no timestamp")? - t_active;
            cycle.restored_vars = restored_vars(&restored).ok_or("unparsable restore line")?;
        }
        drop(nodes); // SIGKILLs and reaps the survivor
        Ok(cycle)
    }
}

pub fn timed(mut ready: Ready, ops: usize, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut cycles = Vec::new();
    out.mark_cpu(0, ops, true);
    let start = Instant::now();
    for _ in 0..ops {
        match ready.cycle(tracer.enabled(), tracer) {
            Ok(cycle) => {
                out.op_ns.push((cycle.kill_to_active * 1e6) as u64);
                cycles.push(cycle);
            }
            Err(why) => {
                out.failed += 1;
                out.problems.push(format!("cycle {}: {why}", ready.next_cycle - 1));
                if out.failed >= 3 {
                    break; // every further cycle could cost the whole limit
                }
            }
        }
        out.done_ns.push(start.elapsed().as_nanos() as u64);
        out.mark_cpu(out.done_ns.len(), ops, true);
    }
    out.attempted = ops as u64;
    // The nodes are where the system's memory is; every one of them has
    // been waited for by now.
    out.peak_rss_mb = usage(Who::Process).peak_rss_mb.max(usage(Who::Children).peak_rss_mb);

    if tracer.enabled() {
        let med = |f: fn(&Cycle) -> f64| stats::median(&cycles.iter().map(f).collect::<Vec<_>>());
        let mut set = |name: &'static str, value: f64| out.layers.insert(name, value);
        set("runtime.pair_form_ms", med(|c| c.pair_form));
        set("runtime.first_install_ms", med(|c| c.first_install));
        set("engine.detect_ms", med(|c| c.detect));
        set("ftim.restore_ms", med(|c| c.restore));
        set("ftim.activate_ms", med(|c| c.activate));
        set("ftim.first_ship_ms", med(|c| c.first_ship));
        set("ftim.restored_vars", med(|c| c.restored_vars));
        set("engine.sim_failover_ms", sim_failover_ms());
        let gap = cycles
            .iter()
            .map(|c| (c.kill_to_active - c.detect - c.restore - c.activate).abs())
            .fold(0.0, f64::max);
        if gap > 35.0 {
            out.problems.push(format!("stages miss kill-to-ACTIVE by {gap:.1} ms"));
        }
    }
    out
}

/// The same kill with the same timers on the simulator, seeds 1..=20:
/// crash the primary's node, read the survivor's activation off its probe.
/// Virtual time, so the figure repeats exactly.
fn sim_failover_ms() -> f64 {
    let load = LoadConfig {
        vars: APP_VARS,
        var_bytes: 64,
        dirty_per_tick: 4,
        tick_period: Duration::from_millis(20),
    };
    let samples: Vec<f64> = (1..=20)
        .map(|seed| {
            let mut pair = SimPair::build(seed, CheckpointMode::default(), load);
            let primary = pair.form();
            let crash_at = pair.cs.now() + SimDuration::from_millis(137);
            inject(&mut pair.cs, crash_at, Fault::CrashNode(pair.nodes[primary]));
            for _ in 0..100 {
                pair.step();
                if let Some(at) = pair.ftims[1 - primary].lock().activations.first() {
                    return at.saturating_since(crash_at).as_micros() as f64 / 1e3;
                }
            }
            panic!("simulated survivor never activated (seed {seed})");
        })
        .collect();
    stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_lines_yield_their_timestamp_and_restore_count() {
        let line = "[12.300000s   ckpt] node1/app: restored 201 vars (local store)";
        assert_eq!(line_ms(line), Some(12_300.0));
        assert_eq!(restored_vars(line), Some(201.0));
        assert_eq!(line_ms("READY node=0 listen=127.0.0.1:1"), None);
        assert_eq!(restored_vars("no such thing"), None);
    }
}
