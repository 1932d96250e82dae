//! `oftt-node`: hosts one node of an OFTT pair as a real OS process.
//!
//! ```text
//! oftt-node --config a.toml
//! ```
//!
//! Services hosted: the OFTT engine (subscribed to transport events, so
//! a peer's closed link makes a backup suspect it), one checkpointing
//! FTIM wrapping the synthetic [`LoadApp`], a store-and-forward queue
//! manager (subscribed to transport events for reconnect retries), and —
//! on the node named by `monitor_node` — the System Monitor. The node's trace streams to
//! stdout, one line per entry in trace order, which is what the smoke test
//! and the failover bench scrape. The print loop sleeps in
//! [`LiveNet::trace_wait_since`] and is woken by the record that grows the
//! trace, so a role change is on stdout as soon as it is traced, not up to
//! a print period later; each batch is flushed once.
//!
//! [`LiveNet::trace_wait_since`]: ds_net::live::LiveNet::trace_wait_since

use std::sync::Arc;
use std::time::Duration;

use ds_net::endpoint::Endpoint;
use msgq::manager::{manager_endpoint, QueueConfig, QueueManager, QueueStats};
use oftt::config::{engine_endpoint, RecoveryRule};
use oftt::engine::{Engine, EngineProbe};
use oftt::ftim::{FtProcess, FtimProbe};
use oftt::monitor::{MonitorTable, SystemMonitor};
use oftt_wire::app::{LoadApp, LoadView};
use oftt_wire::codec::WireCodec;
use oftt_wire::config::{NodeConfig, APP_SERVICE, MONITOR_SERVICE};
use oftt_wire::runtime::WireNet;
use parking_lot::Mutex;

/// Longest the print loop waits for the trace to grow before it checks
/// `run_for_ms` again; a record wakes it at once.
const DEADLINE_CHECK: Duration = Duration::from_millis(25);

fn usage() -> ! {
    eprintln!("usage: oftt-node --config <path>");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut config_path = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => config_path = args.next(),
            _ => usage(),
        }
    }
    let Some(config_path) = config_path else { usage() };
    let config = match NodeConfig::load(&config_path) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("oftt-node: {e}");
            std::process::exit(2);
        }
    };
    let oftt_config = match config.to_oftt_config() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("oftt-node: {e}");
            std::process::exit(2);
        }
    };

    let codec = Arc::new(WireCodec::standard());
    let mut net = match WireNet::new(config.seed, config.to_wire_config(), codec) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("oftt-node: socket layer failed to start: {e}");
            std::process::exit(1);
        }
    };
    let node = config.node;

    // Engine.
    let engine_probe = Arc::new(Mutex::new(EngineProbe::default()));
    {
        let engine_config = oftt_config.clone();
        let probe = Arc::clone(&engine_probe);
        net.register(
            engine_endpoint(node),
            Box::new(move || Box::new(Engine::new(engine_config.clone(), probe.clone()))),
        );
        net.subscribe_transport_events(engine_endpoint(node));
    }

    // Synthetic application under a checkpointing FTIM.
    let view = Arc::new(Mutex::new(LoadView::default()));
    let load_config = config.to_load_config();
    {
        let app_config = oftt_config.clone();
        let view = Arc::clone(&view);
        let ftim = Arc::new(Mutex::new(FtimProbe::default()));
        net.register(
            Endpoint::new(node, APP_SERVICE),
            Box::new(move || {
                Box::new(FtProcess::new(
                    app_config.clone(),
                    RecoveryRule::LocalRestart { max_attempts: 1 },
                    LoadApp::new(load_config, view.clone()),
                    ftim.clone(),
                ))
            }),
        );
    }

    // Store-and-forward queue manager, retrying on reconnect.
    {
        let stats = Arc::new(Mutex::new(QueueStats::default()));
        net.register(
            manager_endpoint(node),
            Box::new(move || Box::new(QueueManager::new(QueueConfig::default(), stats.clone()))),
        );
        net.subscribe_transport_events(manager_endpoint(node));
    }

    // System Monitor, if this node hosts it.
    let monitor_table = Arc::new(Mutex::new(MonitorTable::default()));
    if config.monitor_node == Some(node) {
        let table = Arc::clone(&monitor_table);
        let stale_after = oftt_config.peer_timeout;
        net.register(
            Endpoint::new(node, MONITOR_SERVICE),
            Box::new(move || Box::new(SystemMonitor::new(stale_after, table.clone()))),
        );
    }

    net.start(&engine_endpoint(node));
    net.start(&Endpoint::new(node, APP_SERVICE));
    net.start(&manager_endpoint(node));
    if config.monitor_node == Some(node) {
        net.start(&Endpoint::new(node, MONITOR_SERVICE));
    }
    if let Some(monitor) = oftt_config.monitor.clone() {
        let period = Duration::from_micros(oftt_config.status_period.as_micros());
        net.start_transport_reporter(monitor, period);
    }

    let listen = net.listen_addr().map(|a| a.to_string()).unwrap_or_else(|| "?".into());
    println!("READY node={} listen={listen}", node.0);

    // Stream the trace to stdout; the harness scrapes these lines.
    use std::io::Write;
    let deadline =
        config.run_for_ms.map(|ms| std::time::Instant::now() + Duration::from_millis(ms));
    let mut printed = 0usize;
    loop {
        let entries = net.trace_wait_since(printed, DEADLINE_CHECK);
        if !entries.is_empty() {
            let mut stdout = std::io::stdout().lock();
            for entry in &entries {
                let _ = writeln!(stdout, "{entry}");
            }
            drop(stdout);
            // Flush on a fresh handle: same underlying buffer, but no
            // guard pinned across the (blocking) flush syscall.
            let _ = std::io::stdout().flush();
            printed += entries.len();
        }
        if let Some(deadline) = deadline {
            if std::time::Instant::now() >= deadline {
                break;
            }
        }
    }
    net.shutdown();
}
