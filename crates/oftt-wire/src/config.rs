//! The `oftt-node` config-file format: flat `key = value` lines.
//!
//! ```text
//! # one node of the pair
//! node = 0
//! listen = "127.0.0.1:7101"
//! peer = "1@127.0.0.1:7102"
//! monitor_node = 0
//! heartbeat_period_ms = 50
//! peer_timeout_ms = 400
//! checkpoint_period_ms = 100
//! startup_fallback = "shut-down"
//! app_vars = 200
//! ```
//!
//! Any key that is not the node's own is a toolkit tunable, parsed by
//! [`OfttConfig::set`] under the names a campaign file's overrides use.
//! Quotes are optional, `#` starts a comment, unknown keys are errors
//! (config typos must not silently fall back to defaults on a system
//! whose purpose is failure detection).

use std::time::Duration;

use ds_net::endpoint::{Endpoint, NodeId};
use ds_sim::prelude::SimDuration;
use oftt::config::{OfttConfig, OverrideError, OverrideValue, Pair};

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
    /// The toolkit's tunables, as the file's [`OfttConfig::KEYS`] lines
    /// left them; [`NodeConfig::to_oftt_config`] fills in its `pair` and
    /// `monitor`.
    pub oftt: OfttConfig,
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
        let mut oftt = OfttConfig::new(Pair::new(NodeId(0), NodeId(1)));
        oftt.heartbeat_period = SimDuration::from_millis(50);
        oftt.component_timeout = SimDuration::from_millis(400);
        oftt.peer_timeout = SimDuration::from_millis(400);
        oftt.fail_safe_timeout = SimDuration::from_millis(250);
        oftt.checkpoint_period = SimDuration::from_millis(100);
        oftt.startup_timeout = SimDuration::from_millis(500);
        oftt.status_period = SimDuration::from_millis(200);
        NodeConfig {
            node,
            listen: "127.0.0.1:0".into(),
            peers: Vec::new(),
            oftt,
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
            let id = |text: &str| {
                text.trim().parse().map(NodeId).map_err(|_| bad("not a node id in [0, 65535]"))
            };
            match key {
                "node" => {
                    config.node = id(value)?;
                    node_seen = true;
                }
                "listen" => config.listen = value.to_string(),
                "peer" => {
                    let Some((peer, addr)) = value.split_once('@') else {
                        return Err(bad("expected id@host:port"));
                    };
                    config.peers.push((id(peer)?, addr.trim().to_string()));
                }
                "monitor_node" => config.monitor_node = Some(id(value)?),
                "app_vars" => config.app_vars = num()? as usize,
                "app_var_bytes" => config.app_var_bytes = num()? as usize,
                "app_dirty_per_tick" => config.app_dirty_per_tick = num()? as usize,
                "app_tick_ms" => match num()? {
                    0 => return Err(bad("a zero tick re-arms at one instant forever")),
                    ms => config.app_tick_ms = ms,
                },
                "seed" => config.seed = num()?,
                "run_for_ms" => config.run_for_ms = Some(num()?),
                "io_threads" => match num()? {
                    0 => return Err(bad("needs at least one reactor thread")),
                    n => config.io_threads = n as usize,
                },
                tunable => {
                    config.oftt.set(tunable, &table_value(value)).map_err(|err| match err {
                        OverrideError::BadValue { detail, .. } => bad(&detail),
                        _ => format!("line {}: unknown key {tunable:?}", lineno + 1),
                    })?
                }
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
    /// [`OfttConfig::check`] refuses (a timeout not longer than the
    /// heartbeat, a fail-safe that does not beat peer takeover) is
    /// returned as its error, not run.
    pub fn to_oftt_config(&self) -> Result<OfttConfig, String> {
        let (peer, _) = *self.peers.first().ok_or("no peer configured")?;
        if peer == self.node {
            return Err("peer id equals this node's id".into());
        }
        let mut config = self.oftt.clone();
        config.pair = Pair::new(self.node.min(peer), self.node.max(peer));
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

/// A node file's value as [`OfttConfig::set`] reads it: a number if it
/// parses as one, `true` / `false` as a flag, anything else as text.
fn table_value(value: &str) -> OverrideValue {
    match value {
        "true" => OverrideValue::Flag(true),
        "false" => OverrideValue::Flag(false),
        _ => {
            value.parse().map_or_else(|_| OverrideValue::Text(value.into()), OverrideValue::Number)
        }
    }
}

#[cfg(test)]
mod tests {
    use oftt::config::{CheckpointMode, StartupFallback};

    use super::*;

    #[test]
    fn parses_a_full_config() {
        let text = r#"
            # node A
            node = 0
            listen = "127.0.0.1:7101"
            peer = "1@127.0.0.1:7102"
            monitor_node = 0
            heartbeat_period_ms = 50
            checkpoint_period_ms = 100
            startup_fallback = "become-primary"
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
        assert_eq!(oftt.startup_fallback, StartupFallback::BecomePrimary);
    }

    #[test]
    fn rejects_typos_and_incomplete_configs() {
        let node = |extra: &str| NodeConfig::parse(&format!("node = 0\npeer = 1@x\n{extra}"));
        assert!(node("hartbeat_ms = 50").unwrap_err().contains("unknown key"));
        assert!(NodeConfig::parse("listen = x").unwrap_err().contains("node"));
        assert!(NodeConfig::parse("node = 0").unwrap_err().contains("peer"));
        assert!(NodeConfig::parse("node = 0\npeer = oops").unwrap_err().contains("id@host"));
        // Ids past a `u16` and a zero thread count are errors naming the
        // key, not a wrapped id or a clamped count.
        let wrapped = NodeConfig::parse("node = 65537\npeer = 1@x").unwrap_err();
        assert!(wrapped.starts_with("line 1: node:"), "{wrapped}");
        let wrapped = node("monitor_node = 65536").unwrap_err();
        assert!(wrapped.starts_with("line 3: monitor_node:"), "{wrapped}");
        let idle = node("io_threads = 0").unwrap_err();
        assert!(idle.starts_with("line 3: io_threads:"), "{idle}");
        let busy = node("app_tick_ms = 0").unwrap_err();
        assert!(busy.starts_with("line 3: app_tick_ms:"), "{busy}");
        // A tunable's value is range-checked by the table, naming the key.
        let zero = node("status_period_ms = 0").unwrap_err();
        assert!(zero.starts_with("line 3: status_period_ms: expected milliseconds"), "{zero}");
        let fallback = node("startup_fallback = sometimes").unwrap_err();
        assert!(fallback.contains("\"shut-down\" or \"become-primary\""), "{fallback}");
        // The names the node file used before the shared table are gone.
        for retired in ["heartbeat_ms", "fail_safe_ms", "checkpoint_ms", "startup_ms", "status_ms"]
        {
            let err = node(&format!("{retired} = 50")).unwrap_err();
            assert_eq!(err, format!("line 3: unknown key {retired:?}"));
        }
    }

    #[test]
    fn refuses_configs_the_toolkit_cannot_run() {
        let node = |extra: &str| NodeConfig::parse(&format!("node = 0\npeer = 1@x\n{extra}"));
        // A timeout shorter than the heartbeat would panic in `validate()`.
        let inverted = node("heartbeat_period_ms = 500\npeer_timeout_ms = 400").unwrap();
        assert!(inverted.to_oftt_config().unwrap_err().contains("must exceed the heartbeat"));
        // The whole file is checked, not each line: a fail-safe past the
        // template's 400 ms peer timeout is fine once the peer timeout
        // that follows it is longer still.
        let raised = node("fail_safe_timeout_ms = 1500\npeer_timeout_ms = 2000").unwrap();
        assert_eq!(raised.to_oftt_config().unwrap().peer_timeout, SimDuration::from_secs(2));
        // Zero periods would re-arm their timers at one instant forever.
        for zero in ["heartbeat_period_ms = 0", "checkpoint_period_ms = 0"] {
            assert!(node(zero).unwrap_err().contains("expected milliseconds in (0,"), "{zero}");
        }
    }

    /// The toolkit configuration the deployed pair runs, written out
    /// field by field rather than read back from the template.
    fn deployed(pair: Pair, monitor: NodeId) -> OfttConfig {
        OfttConfig {
            pair,
            heartbeat_period: SimDuration::from_millis(50),
            component_timeout: SimDuration::from_millis(400),
            peer_timeout: SimDuration::from_millis(400),
            fail_safe_timeout: SimDuration::from_millis(250),
            checkpoint_period: SimDuration::from_millis(100),
            startup_timeout: SimDuration::from_millis(500),
            startup_retries: 3,
            startup_fallback: StartupFallback::ShutDown,
            checkpoint_mode: CheckpointMode::Selective { refresh_every: 32 },
            monitor: Some(Endpoint::new(monitor, MONITOR_SERVICE)),
            status_period: SimDuration::from_millis(200),
            defects: Default::default(),
        }
    }

    #[test]
    fn the_example_pair_runs_the_deployed_timers() {
        let files = [
            include_str!("../../../examples/wire-a.toml"),
            include_str!("../../../examples/wire-b.toml"),
        ];
        for (text, node) in files.into_iter().zip([NodeId(0), NodeId(1)]) {
            let config = NodeConfig::parse(text).unwrap();
            assert_eq!(config.node, node);
            let expected = deployed(Pair::new(NodeId(0), NodeId(1)), NodeId(0));
            assert_eq!(config.to_oftt_config().unwrap(), expected);
        }
    }

    /// wire-smoke's and the failover benchmark's pairs come from
    /// `pair_config`, which leaves the timers and the application's shape
    /// to the template.
    #[test]
    fn pair_config_runs_the_deployed_timers() {
        let (a, b) = (NodeId(3), NodeId(4));
        let text = crate::harness::pair_config(b, 7102, a, 7101, a, 200, 9);
        let config = NodeConfig::parse(&text).unwrap();
        assert_eq!(config.to_oftt_config().unwrap(), deployed(Pair::new(a, b), a));
        let load = config.to_load_config();
        assert_eq!(
            (load.vars, load.var_bytes, load.dirty_per_tick, load.tick_period),
            (200, 64, 4, Duration::from_millis(20))
        );
        assert_eq!((config.node, config.seed), (b, 9));
    }
}
