//! `wire-smoke`: the end-to-end proof for the socket backend.
//!
//! Spawns a real two-process OFTT pair on loopback, waits for the pair
//! to form and checkpoints to flow, then SIGKILLs the primary and
//! asserts:
//!
//! 1. the backup promotes itself within 200 ms, and says it did so on
//!    the peer's closed link and refused redial (the kernel's reset of a
//!    dead process's sockets, then its refusal of the survivor's dial to
//!    an address nothing listens at);
//! 2. the application resumes (ACTIVE) on the survivor, and the
//!    survivor's own gap from the link going down to ACTIVE is printed
//!    from its trace timestamps;
//! 3. the restored image's crc equals the crc the backup logged when it
//!    installed that checkpoint **and** the crc the dead primary logged
//!    when it shipped it — restore integrity across a real process
//!    boundary, asserted purely from the trace.
//!
//! Each pair, once formed, must show the primary's first `ckpt shipped`
//! within 5 ms of its `application ACTIVE` on its own trace clock, and
//! prints the backup's gap from `role=backup` to its first install.
//!
//! Then it forms a second pair and SIGSTOPs its primary: a frozen
//! process keeps its sockets open, so no reset arrives and the backup
//! must wait out the peer timeout — the fast paths may not become the
//! only path.
//!
//! Exit 0 with a `PASS` line on success; exit 1 with both nodes' output
//! tails otherwise.

use std::path::Path;
use std::time::{Duration, Instant};

use ds_net::endpoint::NodeId;
use oftt_wire::harness::{free_port, pair_config, parse_ckpt_triple, write_config, ChildNode};

/// Promotion must land within this wall budget after the kill. The
/// refused redial confirms it within a millisecond, and the node prints
/// the role line as soon as it is recorded; the rest is this binary's
/// polling and slack for a loaded host. A promotion by the 100 ms
/// suspicion window alone would still pass, which is why the reason is
/// checked too.
const KILL_BUDGET: Duration = Duration::from_millis(200);

/// Promotion must land within this wall budget after the freeze:
/// `pair_config`'s 400 ms peer timeout, with slack for a loaded host.
const FREEZE_BUDGET: Duration = Duration::from_secs(3);

/// The earliest a frozen primary's backup may promote: the peer timeout
/// less one heartbeat period of tick phase (400 ms − 50 ms).
const FREEZE_FLOOR: Duration = Duration::from_millis(350);

/// A primary's first checkpoint must follow its application going ACTIVE
/// by at most this, on its own trace clock: the first image of a term
/// ships at activation, not at the next checkpoint tick.
const FIRST_SHIP_BUDGET_MS: f64 = 5.0;

/// What a promotion on a suspicion appends to its reason, however the
/// suspicion was confirmed.
const RESET_DETAIL: &str = "link closed by peer";

/// What a promotion on a refused redial appends to its reason.
const REFUSAL_DETAIL: &str = "link closed by peer, redial refused";

/// Prints both nodes' output tails, kills them (exiting skips `Drop`,
/// and a frozen node would otherwise stay stopped), and exits 1.
fn fail(children: &mut [ChildNode], why: &str) -> ! {
    eprintln!("wire-smoke: FAIL: {why}");
    for child in children {
        let out = child.output();
        let tail = out.iter().rev().take(40).collect::<Vec<_>>();
        eprintln!("--- node{} output tail ---", child.node.0);
        for line in tail.iter().rev() {
            eprintln!("{line}");
        }
        child.kill();
    }
    std::process::exit(1);
}

fn count(child: &ChildNode, needle: &str) -> usize {
    child.output().iter().filter(|l| l.contains(needle)).count()
}

/// The node's own clock on a trace line (`[12.300000s   ckpt] ...`), in s.
fn trace_secs(line: &str) -> Option<f64> {
    line.strip_prefix('[')?.split('s').next()?.trim().parse().ok()
}

/// Spawns a pair, waits for one primary and one backup with checkpoints
/// flowing between them, and returns it with (primary, backup) indices.
fn form_pair(dir: &Path, tag: &str, seeds: [u64; 2]) -> (Vec<ChildNode>, usize, usize) {
    let (na, nb) = (NodeId(0), NodeId(1));
    let (port_a, port_b) = (free_port(), free_port());
    let config_a = pair_config(na, port_a, nb, port_b, na, 200, seeds[0]);
    let config_b = pair_config(nb, port_b, na, port_a, na, 200, seeds[1]);
    let config_a = write_config(dir, &format!("{tag}-a.toml"), &config_a);
    let config_b = write_config(dir, &format!("{tag}-b.toml"), &config_b);

    let mut children = vec![
        ChildNode::spawn(na, &config_a).expect("spawn node a"),
        ChildNode::spawn(nb, &config_b).expect("spawn node b"),
    ];

    for idx in 0..2 {
        if children[idx]
            .wait_for_line(|l| l.starts_with("READY"), Duration::from_secs(10))
            .is_none()
        {
            let node = children[idx].node.0;
            fail(&mut children, &format!("node{node} never reported READY"));
        }
    }

    // The pair forms: one primary, one backup.
    let deadline = Duration::from_secs(15);
    let primary_idx =
        if children[0].wait_for_line(|l| l.contains("role=primary"), deadline).is_some() {
            0
        } else if children[1].find_line(|l| l.contains("role=primary")).is_some() {
            1
        } else {
            fail(&mut children, "no node ever became primary");
        };
    let backup_idx = 1 - primary_idx;
    if children[backup_idx].wait_for_line(|l| l.contains("role=backup"), deadline).is_none() {
        fail(&mut children, "the other node never became backup");
    }
    println!(
        "wire-smoke: {tag} pair formed (primary=node{}, backup=node{})",
        children[primary_idx].node.0, children[backup_idx].node.0
    );

    // Checkpoints flow over TCP: shipped, installed, acked.
    let flow = Duration::from_secs(10);
    let start = Instant::now();
    while start.elapsed() < flow {
        if count(&children[primary_idx], "ckpt shipped") >= 3
            && count(&children[primary_idx], "ckpt acked") >= 1
            && count(&children[backup_idx], "ckpt installed") >= 3
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    if count(&children[backup_idx], "ckpt installed") < 3
        || count(&children[primary_idx], "ckpt acked") < 1
    {
        fail(&mut children, "checkpoint flow never established");
    }

    // Protected at activation, measured on each node's own trace clock.
    let first = |idx: usize, needle: &str| {
        children[idx].find_line(|l| l.contains(needle)).as_deref().and_then(trace_secs)
    };
    let gap_ms = |idx: usize, from: &str, to: &str| {
        first(idx, from).zip(first(idx, to)).map(|(from, to)| (to - from) * 1e3)
    };
    let ship_ms = gap_ms(primary_idx, "application ACTIVE", "ckpt shipped");
    let install_ms = gap_ms(backup_idx, "role=backup", "ckpt installed");
    let (Some(ship_ms), Some(install_ms)) = (ship_ms, install_ms) else {
        fail(&mut children, "no timestamped ACTIVE/ship or role=backup/install lines");
    };
    if !(0.0..=FIRST_SHIP_BUDGET_MS).contains(&ship_ms) {
        fail(
            &mut children,
            &format!("first ship {ship_ms:.3} ms after ACTIVE, over {FIRST_SHIP_BUDGET_MS} ms"),
        );
    }
    println!(
        "wire-smoke: {tag} first ship {ship_ms:.3} ms after ACTIVE, \
         backup's first install {install_ms:.3} ms after role=backup"
    );
    (children, primary_idx, backup_idx)
}

/// Waits for the backup's promotion after a fault at `since`; returns the
/// promotion line and how long after the fault it was seen, which must be
/// within `budget`.
fn await_promotion(
    children: &mut [ChildNode],
    backup_idx: usize,
    since: Instant,
    budget: Duration,
) -> (String, Duration) {
    // Wait past either budget, so a late promotion reports how late.
    let promoted =
        children[backup_idx].wait_for_line(|l| l.contains("role=primary"), FREEZE_BUDGET * 2);
    let detection = since.elapsed();
    let Some(promoted) = promoted else {
        fail(children, "backup never promoted");
    };
    if detection > budget {
        fail(children, &format!("promotion took {detection:?}, over the {budget:?} budget"));
    }
    (promoted, detection)
}

/// SIGKILL: the reset path, plus the survivor's restore integrity.
fn kill_case(dir: &Path) {
    let (mut children, primary_idx, backup_idx) = form_pair(dir, "kill", [11, 22]);

    // SIGKILL the primary mid-flight.
    let primary_lines_before = children[primary_idx].output();
    let killed_at = Instant::now();
    children[primary_idx].kill();

    let (promoted, detection) = await_promotion(&mut children, backup_idx, killed_at, KILL_BUDGET);
    if !promoted.contains(REFUSAL_DETAIL) {
        fail(
            &mut children,
            &format!("a killed primary's refused redial did not drive the promotion: {promoted}"),
        );
    }
    let active = children[backup_idx]
        .wait_for_line(|l| l.contains("application ACTIVE"), Duration::from_secs(5));
    let Some(active) = active else {
        fail(&mut children, "application never went ACTIVE on the survivor");
    };
    // The survivor's own view, free of the stdout grain: from its link to
    // the dead primary going down to its application serving.
    let down = children[backup_idx].output().into_iter().rev().find(|l| l.contains(": down ("));
    let gap_ms = down.as_deref().and_then(trace_secs).zip(trace_secs(&active));
    let Some(gap_ms) = gap_ms.map(|(down, active)| (active - down) * 1e3) else {
        fail(&mut children, "no timestamped link-down line before ACTIVE on the survivor");
    };

    // Restore integrity: the takeover's restored image crc must match
    // both the backup's install log and the dead primary's ship log for
    // the same (term, seq).
    let restore_line = children[backup_idx]
        .wait_for_line(|l| l.contains("ckpt restore position"), Duration::from_secs(5));
    let Some(restore_line) = restore_line else {
        fail(&mut children, "no 'ckpt restore position' line on the survivor");
    };
    let Some((term, seq, restored_crc)) = parse_ckpt_triple(&restore_line) else {
        fail(&mut children, &format!("unparsable restore line: {restore_line}"));
    };
    let needle = format!("ckpt installed (term={term} seq={seq}");
    let Some(installed) = children[backup_idx].find_line(|l| l.contains(&needle)) else {
        fail(&mut children, &format!("no install log for restored position t{term}.s{seq}"));
    };
    let installed_crc = parse_ckpt_triple(&installed).map(|(_, _, c)| c);
    if installed_crc != Some(restored_crc) {
        fail(
            &mut children,
            &format!(
                "restore-integrity violation: restored crc {restored_crc} vs installed {installed_crc:?}"
            ),
        );
    }
    let ship_needle = format!("ckpt shipped (term={term} seq={seq}");
    let shipped_crc = primary_lines_before
        .iter()
        .find(|l| l.contains(&ship_needle))
        .and_then(|l| parse_ckpt_triple(l))
        .map(|(_, _, c)| c);
    if let Some(shipped) = shipped_crc {
        if shipped != restored_crc {
            fail(
                &mut children,
                &format!(
                    "restore-integrity violation: restored crc {restored_crc} vs shipped {shipped}"
                ),
            );
        }
    }

    println!(
        "wire-smoke: kill PASS detection_ms={} survivor_down_to_active_ms={gap_ms:.3} \
         restored=t{term}.s{seq} crc={restored_crc} shipped_crc_checked={}",
        detection.as_millis(),
        shipped_crc.is_some(),
    );
}

/// SIGSTOP: no reset, so the backup must wait out the peer timeout.
fn freeze_case(dir: &Path) {
    let (mut children, primary_idx, backup_idx) = form_pair(dir, "freeze", [33, 44]);
    let frozen_at = Instant::now();
    if let Err(e) = children[primary_idx].freeze() {
        fail(&mut children, &format!("could not freeze the primary: {e}"));
    }
    let (promoted, detection) =
        await_promotion(&mut children, backup_idx, frozen_at, FREEZE_BUDGET);
    // Neither a reset nor a refusal: both details start with this.
    if promoted.contains(RESET_DETAIL) {
        fail(&mut children, &format!("a frozen primary produced a reset: {promoted}"));
    }
    if detection < FREEZE_FLOOR {
        fail(
            &mut children,
            &format!("a frozen primary was replaced after {detection:?}, before the timeout"),
        );
    }
    println!("wire-smoke: freeze PASS detection_ms={}", detection.as_millis());
    children[primary_idx].kill();
}

fn main() {
    let dir = std::env::temp_dir().join(format!("wire-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    kill_case(&dir);
    freeze_case(&dir);
    println!("wire-smoke: PASS");
    let _ = std::fs::remove_dir_all(&dir);
}
