//! The `oftt-node` config-file format: flat `key = value` lines.
//!
//! ```text
//! # one node of the pair
//! node = 0
//! listen = "127.0.0.1:7101"
//! peer = "1@127.0.0.1:7102"
//! monitor_node = 0
//! heartbeat_ms = 50
//! peer_timeout_ms = 400
//! checkpoint_ms = 100
//! app_vars = 200
//! ```
//!
//! Quotes are optional, `#` starts a comment, unknown keys are errors
//! (config typos must not silently fall back to defaults on a system
//! whose purpose is failure detection).

use std::time::Duration;

use ds_net::endpoint::{Endpoint, NodeId};
use ds_sim::prelude::SimDuration;
use oftt::config::{OfttConfig, Pair};

use crate::app::LoadConfig;
use crate::supervisor::WireConfig;

/// Conventional service name for the System Monitor.
pub const MONITOR_SERVICE: &str = "oftt-monitor";
/// Conventional service name for the node's hosted application FTIM.
pub const APP_SERVICE: &str = "app";

/// Everything one `oftt-node` process needs.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id.
    pub node: NodeId,
    /// TCP listen address.
    pub listen: String,
    /// Peer node ids and addresses.
    pub peers: Vec<(NodeId, String)>,
    /// Engine heartbeat period (ms).
    pub heartbeat_ms: u64,
    /// Component (FTIM) failure-detection timeout (ms).
    pub component_timeout_ms: u64,
    /// Peer engine failure-detection timeout (ms).
    pub peer_timeout_ms: u64,
    /// Fail-safe self-demotion timeout (ms).
    pub fail_safe_ms: u64,
    /// Checkpoint period (ms).
    pub checkpoint_ms: u64,
    /// Startup negotiation timeout (ms).
    pub startup_ms: u64,
    /// Status-report / transport-report period (ms).
    pub status_ms: u64,
    /// Which node hosts the System Monitor, if any.
    pub monitor_node: Option<NodeId>,
    /// Synthetic application: variable count.
    pub app_vars: usize,
    /// Synthetic application: bytes per variable.
    pub app_var_bytes: usize,
    /// Synthetic application: variables mutated per tick.
    pub app_dirty_per_tick: usize,
    /// Synthetic application: tick period (ms).
    pub app_tick_ms: u64,
    /// RNG seed for the node.
    pub seed: u64,
    /// Exit after this long, if set (ms).
    pub run_for_ms: Option<u64>,
    /// Reactor I/O threads serving all connections.
    pub io_threads: usize,
}

impl NodeConfig {
    /// Defaults matching the live-runtime test timings.
    pub fn template(node: NodeId) -> Self {
        NodeConfig {
            node,
            listen: "127.0.0.1:0".into(),
            peers: Vec::new(),
            heartbeat_ms: 50,
            component_timeout_ms: 400,
            peer_timeout_ms: 400,
            fail_safe_ms: 250,
            checkpoint_ms: 100,
            startup_ms: 500,
            status_ms: 200,
            monitor_node: None,
            app_vars: 64,
            app_var_bytes: 64,
            app_dirty_per_tick: 4,
            app_tick_ms: 20,
            seed: 1,
            run_for_ms: None,
            io_threads: 2,
        }
    }

    /// Parses the flat `key = value` format.
    pub fn parse(text: &str) -> Result<NodeConfig, String> {
        let mut config = NodeConfig::template(NodeId(0));
        let mut node_seen = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected key = value", lineno + 1));
            };
            let key = key.trim();
            let value = value.trim().trim_matches('"').trim();
            let bad = |what: &str| format!("line {}: {key}: {what}", lineno + 1);
            let num = || value.parse::<u64>().map_err(|_| bad("not a number"));
            match key {
                "node" => {
                    config.node = NodeId(num()? as u16);
                    node_seen = true;
                }
                "listen" => config.listen = value.to_string(),
                "peer" => {
                    let Some((id, addr)) = value.split_once('@') else {
                        return Err(bad("expected id@host:port"));
                    };
                    let id =
                        id.trim().parse::<u16>().map_err(|_| bad("peer id is not a number"))?;
                    config.peers.push((NodeId(id), addr.trim().to_string()));
                }
                "heartbeat_ms" => config.heartbeat_ms = num()?,
                "component_timeout_ms" => config.component_timeout_ms = num()?,
                "peer_timeout_ms" => config.peer_timeout_ms = num()?,
                "fail_safe_ms" => config.fail_safe_ms = num()?,
                "checkpoint_ms" => config.checkpoint_ms = num()?,
                "startup_ms" => config.startup_ms = num()?,
                "status_ms" => config.status_ms = num()?,
                "monitor_node" => config.monitor_node = Some(NodeId(num()? as u16)),
                "app_vars" => config.app_vars = num()? as usize,
                "app_var_bytes" => config.app_var_bytes = num()? as usize,
                "app_dirty_per_tick" => config.app_dirty_per_tick = num()? as usize,
                "app_tick_ms" => config.app_tick_ms = num()?,
                "seed" => config.seed = num()?,
                "run_for_ms" => config.run_for_ms = Some(num()?),
                "io_threads" => config.io_threads = (num()? as usize).max(1),
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
        }
        if !node_seen {
            return Err("missing required key: node".into());
        }
        if config.peers.is_empty() {
            return Err("at least one peer = id@host:port is required".into());
        }
        Ok(config)
    }

    /// Reads and parses a config file.
    pub fn load(path: &str) -> Result<NodeConfig, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        NodeConfig::parse(&text)
    }

    /// The toolkit configuration for the hosted OFTT services.
    ///
    /// The pair is this node plus its first peer. A configuration
    /// [`OfttConfig::check`] refuses (a zero period, a timeout not longer
    /// than the heartbeat) is returned as its error, not run.
    pub fn to_oftt_config(&self) -> Result<OfttConfig, String> {
        let (peer, _) = *self.peers.first().ok_or("no peer configured")?;
        if peer == self.node {
            return Err("peer id equals this node's id".into());
        }
        let mut config = OfttConfig::new(Pair::new(self.node.min(peer), self.node.max(peer)));
        config.heartbeat_period = SimDuration::from_millis(self.heartbeat_ms);
        config.component_timeout = SimDuration::from_millis(self.component_timeout_ms);
        config.peer_timeout = SimDuration::from_millis(self.peer_timeout_ms);
        config.fail_safe_timeout = SimDuration::from_millis(self.fail_safe_ms);
        config.checkpoint_period = SimDuration::from_millis(self.checkpoint_ms);
        config.startup_timeout = SimDuration::from_millis(self.startup_ms);
        config.status_period = SimDuration::from_millis(self.status_ms);
        config.monitor = self.monitor_node.map(|node| Endpoint::new(node, MONITOR_SERVICE));
        config.check()?;
        Ok(config)
    }

    /// The socket-layer configuration.
    pub fn to_wire_config(&self) -> WireConfig {
        let mut wire = WireConfig::loopback(self.node);
        wire.listen = self.listen.clone();
        wire.peers = self.peers.clone();
        wire.seed = self.seed;
        wire.io_threads = self.io_threads;
        wire
    }

    /// The synthetic application's shape.
    pub fn to_load_config(&self) -> LoadConfig {
        LoadConfig {
            vars: self.app_vars,
            var_bytes: self.app_var_bytes,
            dirty_per_tick: self.app_dirty_per_tick,
            tick_period: Duration::from_millis(self.app_tick_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_config() {
        let text = r#"
            # node A
            node = 0
            listen = "127.0.0.1:7101"
            peer = "1@127.0.0.1:7102"
            monitor_node = 0
            heartbeat_ms = 50
            checkpoint_ms = 100
            app_vars = 128
            seed = 7
            io_threads = 3
        "#;
        let config = NodeConfig::parse(text).unwrap();
        assert_eq!(config.node, NodeId(0));
        assert_eq!(config.listen, "127.0.0.1:7101");
        assert_eq!(config.peers, vec![(NodeId(1), "127.0.0.1:7102".to_string())]);
        assert_eq!(config.monitor_node, Some(NodeId(0)));
        assert_eq!(config.app_vars, 128);
        assert_eq!(config.seed, 7);
        assert_eq!(config.io_threads, 3);
        assert_eq!(config.to_wire_config().io_threads, 3);
        let oftt = config.to_oftt_config().unwrap();
        assert_eq!(oftt.pair, Pair::new(NodeId(0), NodeId(1)));
        assert_eq!(oftt.monitor, Some(Endpoint::new(NodeId(0), MONITOR_SERVICE)));
    }

    #[test]
    fn rejects_typos_and_incomplete_configs() {
        assert!(NodeConfig::parse("node = 0\npeer = 1@x\nhartbeat_ms = 50")
            .unwrap_err()
            .contains("unknown key"));
        assert!(NodeConfig::parse("listen = x").unwrap_err().contains("node"));
        assert!(NodeConfig::parse("node = 0").unwrap_err().contains("peer"));
        assert!(NodeConfig::parse("node = 0\npeer = oops").unwrap_err().contains("id@host"));
    }

    #[test]
    fn refuses_configs_the_toolkit_cannot_run() {
        let node = |extra: &str| NodeConfig::parse(&format!("node = 0\npeer = 1@x\n{extra}"));
        // A timeout shorter than the heartbeat would panic in `validate()`.
        let inverted = node("heartbeat_ms = 500\npeer_timeout_ms = 400").unwrap();
        assert!(inverted.to_oftt_config().unwrap_err().contains("must exceed the heartbeat"));
        // Zero periods would re-arm their timers at one instant forever.
        let busy = node("heartbeat_ms = 0\ncheckpoint_ms = 0").unwrap();
        assert_eq!(busy.to_oftt_config().unwrap_err(), "heartbeat period must be positive");
        let busy = node("checkpoint_ms = 0").unwrap();
        assert_eq!(busy.to_oftt_config().unwrap_err(), "checkpoint period must be positive");
    }
}
