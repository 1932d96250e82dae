//! One parameter vocabulary: a campaign file's override table and an
//! `oftt-node` config file name the toolkit's tunables alike, because both
//! parse them through `OfttConfig::set`; each keeps its own keys to itself.

use ds_net::endpoint::NodeId;
use oftt::config::{OfttConfig, OverrideError, OverrideValue};
use oftt_harness::overrides;
use oftt_harness::ScenarioParams;
use oftt_wire::config::NodeConfig;

/// The keys only a node file knows.
const NODE_KEYS: &[&str] = &[
    "node",
    "listen",
    "peer",
    "monitor_node",
    "app_vars",
    "app_var_bytes",
    "app_dirty_per_tick",
    "app_tick_ms",
    "seed",
    "run_for_ms",
    "io_threads",
];

fn node_file(key: &str, text: &str) -> Result<NodeConfig, String> {
    NodeConfig::parse(&format!("node = 0\npeer = 1@x\n{key} = {text}"))
}

#[test]
fn every_tunable_writes_the_same_field_from_either_file() {
    let template = NodeConfig::template(NodeId(0)).oftt;
    // One value per key that the table accepts and the template does not
    // already hold, in a campaign file's and a node file's spelling.
    let candidates = [
        (OverrideValue::Number(7.0), "7"),
        (OverrideValue::Text("become-primary".into()), "become-primary"),
    ];
    for &key in OfttConfig::KEYS {
        let (value, text) = candidates
            .iter()
            .find(|(value, _)| template.clone().set(key, value).is_ok())
            .unwrap_or_else(|| panic!("no candidate value for {key:?}"));
        let mut params = ScenarioParams { config: template.clone(), ..Default::default() };
        overrides::set(&mut params, key, value).unwrap();
        let node = node_file(key, text).unwrap();
        assert_ne!(node.oftt, template, "{key} = {text} wrote nothing");
        assert_eq!(params.config, node.oftt, "{key} = {text} wrote different fields");
    }
}

#[test]
fn each_file_keeps_its_own_keys_to_itself() {
    for &key in overrides::KEYS {
        let err = node_file(key, "1").unwrap_err();
        assert_eq!(err, format!("line 3: unknown key {key:?}"));
    }
    for &key in NODE_KEYS {
        let text = if key == "peer" { "2@y" } else { "1" };
        node_file(key, text).unwrap_or_else(|err| panic!("{key} is not a node key: {err}"));
        let value = OverrideValue::Number(1.0);
        let err = overrides::set(&mut ScenarioParams::default(), key, &value).unwrap_err();
        assert!(matches!(err, OverrideError::UnknownKey { .. }), "{key}: {err}");
    }
}
