//! The OPC server: a COM class serving reads/writes/browse/group
//! management, hosted by a process that also runs the device layer
//! (fieldbus polling) and pushes subscription callbacks.
//!
//! Per the paper (§2.2.2), "an OPC server is simply responsible for
//! converting data from different types of I/O devices into the standard
//! format — in this aspect, it is stateless": everything here is rebuilt
//! from device polls after a restart, which is why the server-side FTIM
//! takes no checkpoints.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use comsim::guid::{Clsid, Iid};
use comsim::hresult::{ComError, ComResult, HResult};
use comsim::marshal;
use comsim::object::{ComClass, ComObject};
use comsim::rpc::{RpcRequest, RpcResponse};
use ds_net::endpoint::Endpoint;
use ds_net::message::Envelope;
use ds_net::process::{Process, ProcessEnv, ProcessEnvExt};
use ds_sim::prelude::{SimDuration, SimTime, TraceCategory};
use parking_lot::Mutex;
use plant::fieldbus::{PollRequest, PollResponse, WriteRequest};
use serde::{Deserialize, Serialize};

use crate::address_space::{AddressSpace, BrowseEntry};
use crate::item::{ItemId, ItemValue, Value};

/// `IOPCServer` — status.
pub fn iid_opc_server() -> Iid {
    Iid::from_name("IOPCServer")
}

/// `IOPCSyncIO` — synchronous read/write.
pub fn iid_opc_sync_io() -> Iid {
    Iid::from_name("IOPCSyncIO")
}

/// `IOPCBrowseServerAddressSpace` — namespace browsing.
pub fn iid_opc_browse() -> Iid {
    Iid::from_name("IOPCBrowseServerAddressSpace")
}

/// `IOPCGroupMgt` — group/subscription management.
pub fn iid_opc_group_mgt() -> Iid {
    Iid::from_name("IOPCGroupMgt")
}

/// `IOPCAsyncIO2` — asynchronous read (completion via callback message).
pub fn iid_opc_async_io() -> Iid {
    Iid::from_name("IOPCAsyncIO2")
}

/// The OPC server CLSID used by activation.
pub fn clsid_opc_server() -> Clsid {
    Clsid::from_name("OFTT.OpcServer")
}

/// Method ordinals, per interface.
pub mod methods {
    /// `IOPCServer::GetStatus`.
    pub const GET_STATUS: u32 = 0;
    /// `IOPCSyncIO::Read`.
    pub const READ: u32 = 0;
    /// `IOPCSyncIO::Write`.
    pub const WRITE: u32 = 1;
    /// `IOPCBrowseServerAddressSpace::Browse`.
    pub const BROWSE: u32 = 0;
    /// `IOPCGroupMgt::AddGroup`.
    pub const ADD_GROUP: u32 = 0;
    /// `IOPCGroupMgt::RemoveGroup`.
    pub const REMOVE_GROUP: u32 = 1;
    /// `IOPCGroupMgt::AddItems`.
    pub const ADD_ITEMS: u32 = 2;
    /// `IOPCAsyncIO2::Read`.
    pub const ASYNC_READ: u32 = 0;
}

/// Server run state (OPC `OPCSERVERSTATE`, reduced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerState {
    /// Normal operation.
    Running,
    /// No device data yet.
    NoConfig,
}

/// `GetStatus` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStatus {
    /// Run state.
    pub state: ServerState,
    /// Process start time.
    pub start_time: SimTime,
    /// Server clock at the call.
    pub current_time: SimTime,
    /// Number of groups.
    pub group_count: u32,
    /// Number of items in the address space.
    pub item_count: u32,
}

/// A subscription group id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(pub u32);

/// `AddGroup` arguments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddGroupArgs {
    /// Group name (client-chosen).
    pub name: String,
    /// Callback cadence.
    pub update_rate: SimDuration,
    /// Percent deadband filtering.
    pub deadband_percent: f64,
    /// Where `OnDataChange` pushes go.
    pub subscriber: Endpoint,
}

/// `AddItems` arguments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddItemsArgs {
    /// Target group.
    pub group: GroupId,
    /// Item ids to add.
    pub items: Vec<String>,
}

/// `IOPCAsyncIO2::Read` arguments: the RPC returns immediately with the
/// accepted transaction id; results arrive later as an [`AsyncReadComplete`]
/// callback message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncReadArgs {
    /// Client-chosen transaction id echoed in the completion.
    pub transaction_id: u32,
    /// Item ids to read.
    pub items: Vec<String>,
    /// Where the completion callback goes.
    pub callback: Endpoint,
}

/// The `OnReadComplete` callback for an asynchronous read.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncReadComplete {
    /// Echoes [`AsyncReadArgs::transaction_id`].
    pub transaction_id: u32,
    /// Per-item results.
    pub items: Vec<(String, ItemValue)>,
}

/// The asynchronous `OnDataChange` callback (a plain message, as DCOM
/// connection-point callbacks were).
#[derive(Debug, Clone, PartialEq)]
pub struct DataChange {
    /// Source group.
    pub group: GroupId,
    /// Changed items with fresh values.
    pub items: Vec<(String, ItemValue)>,
}

struct Group {
    update_rate: SimDuration,
    deadband_percent: f64,
    subscriber: Endpoint,
    items: BTreeSet<ItemId>,
    last_sent: HashMap<ItemId, ItemValue>,
    next_due: SimTime,
}

/// State shared between the COM class (RPC dispatch) and the hosting
/// process (device polls, group pushes).
pub struct SharedServer {
    space: AddressSpace,
    groups: BTreeMap<GroupId, Group>,
    next_group: u32,
    started_at: SimTime,
    /// Writes accepted via `IOPCSyncIO::Write`, pending forwarding to the
    /// owning device.
    pending_writes: Vec<(ItemId, Value)>,
    /// Async reads accepted via `IOPCAsyncIO2::Read`, pending completion
    /// callbacks (sent by the hosting process after the invoke returns).
    pending_async_reads: Vec<AsyncReadArgs>,
}

impl SharedServer {
    fn new() -> Self {
        SharedServer {
            space: AddressSpace::new(),
            groups: BTreeMap::new(),
            next_group: 0,
            started_at: SimTime::ZERO,
            pending_writes: Vec::new(),
            pending_async_reads: Vec::new(),
        }
    }

    /// Read-only view of the address space (tests/examples).
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }
}

/// The OPC server COM class: dispatches the four interfaces against the
/// shared state.
pub struct OpcServerClass {
    shared: Arc<Mutex<SharedServer>>,
}

impl OpcServerClass {
    /// Creates the class over shared server state.
    pub fn new(shared: Arc<Mutex<SharedServer>>) -> Self {
        OpcServerClass { shared }
    }
}

impl ComClass for OpcServerClass {
    fn clsid(&self) -> Clsid {
        clsid_opc_server()
    }

    fn interfaces(&self) -> Vec<Iid> {
        vec![
            iid_opc_server(),
            iid_opc_sync_io(),
            iid_opc_browse(),
            iid_opc_group_mgt(),
            iid_opc_async_io(),
        ]
    }

    fn invoke(&mut self, iid: Iid, method: u32, args: &[u8], now: SimTime) -> ComResult<Vec<u8>> {
        let mut shared = self.shared.lock();
        if iid == iid_opc_server() && method == methods::GET_STATUS {
            let status = ServerStatus {
                state: if shared.space.is_empty() {
                    ServerState::NoConfig
                } else {
                    ServerState::Running
                },
                start_time: shared.started_at,
                current_time: now,
                group_count: shared.groups.len() as u32,
                item_count: shared.space.len() as u32,
            };
            return Ok(marshal::to_bytes(&status)?);
        }
        if iid == iid_opc_sync_io() {
            match method {
                methods::READ => {
                    let ids: Vec<String> = marshal::from_bytes(args)?;
                    let out: Vec<(String, ItemValue)> = ids
                        .into_iter()
                        .map(|raw| {
                            let value = shared.space.read(&ItemId::new(raw.clone()), now);
                            (raw, value)
                        })
                        .collect();
                    return Ok(marshal::to_bytes(&out)?);
                }
                methods::WRITE => {
                    let writes: Vec<(String, Value)> = marshal::from_bytes(args)?;
                    let results: Vec<HResult> = writes
                        .into_iter()
                        .map(|(raw, value)| {
                            let id = ItemId::new(raw);
                            shared.pending_writes.push((id, value));
                            HResult::S_OK
                        })
                        .collect();
                    return Ok(marshal::to_bytes(&results)?);
                }
                _ => {}
            }
        }
        if iid == iid_opc_async_io() && method == methods::ASYNC_READ {
            let args: AsyncReadArgs = marshal::from_bytes(args)?;
            let transaction_id = args.transaction_id;
            shared.pending_async_reads.push(args);
            // The synchronous reply only acknowledges acceptance.
            return Ok(marshal::to_bytes(&transaction_id)?);
        }
        if iid == iid_opc_browse() && method == methods::BROWSE {
            let position: String = marshal::from_bytes(args)?;
            let entries: Vec<BrowseEntry> = shared.space.browse(&position);
            return Ok(marshal::to_bytes(&entries)?);
        }
        if iid == iid_opc_group_mgt() {
            match method {
                methods::ADD_GROUP => {
                    let spec: AddGroupArgs = marshal::from_bytes(args)?;
                    if !(0.0..=100.0).contains(&spec.deadband_percent) {
                        return Err(ComError::new(
                            HResult::E_INVALIDARG,
                            format!("deadband {} out of range", spec.deadband_percent),
                        ));
                    }
                    let id = GroupId(shared.next_group);
                    shared.next_group += 1;
                    shared.groups.insert(
                        id,
                        Group {
                            update_rate: spec.update_rate,
                            deadband_percent: spec.deadband_percent,
                            subscriber: spec.subscriber,
                            items: BTreeSet::new(),
                            last_sent: HashMap::new(),
                            next_due: now + spec.update_rate,
                        },
                    );
                    return Ok(marshal::to_bytes(&id)?);
                }
                methods::REMOVE_GROUP => {
                    let id: GroupId = marshal::from_bytes(args)?;
                    let existed = shared.groups.remove(&id).is_some();
                    return Ok(marshal::to_bytes(&existed)?);
                }
                methods::ADD_ITEMS => {
                    let spec: AddItemsArgs = marshal::from_bytes(args)?;
                    let group = shared.groups.get_mut(&spec.group).ok_or_else(|| {
                        ComError::new(HResult::E_INVALIDARG, format!("no group {:?}", spec.group))
                    })?;
                    let results: Vec<HResult> = spec
                        .items
                        .into_iter()
                        .map(|raw| {
                            group.items.insert(ItemId::new(raw));
                            HResult::S_OK
                        })
                        .collect();
                    return Ok(marshal::to_bytes(&results)?);
                }
                _ => {}
            }
        }
        Err(ComError::new(HResult::E_INVALIDARG, format!("no method {iid}#{method}")))
    }
}

/// Configuration for the hosting process.
#[derive(Clone)]
pub struct OpcServerConfig {
    /// PLCs to poll: (item-id prefix, fieldbus endpoint).
    pub devices: Vec<(String, Endpoint)>,
    /// Device poll cadence.
    pub poll_period: SimDuration,
    /// Mark a device's items `Uncertain` after this long without a poll
    /// response.
    pub degrade_after: SimDuration,
    /// Group push scheduling granularity.
    pub group_tick: SimDuration,
}

impl Default for OpcServerConfig {
    fn default() -> Self {
        OpcServerConfig {
            devices: Vec::new(),
            poll_period: SimDuration::from_millis(500),
            degrade_after: SimDuration::from_secs(3),
            group_tick: SimDuration::from_millis(100),
        }
    }
}

const POLL_TOKEN: u64 = 1;
const GROUP_TOKEN: u64 = 2;

/// The OPC server process: hosts the COM object for RPC, polls devices,
/// pushes group callbacks.
pub struct OpcServerProcess {
    config: OpcServerConfig,
    shared: Arc<Mutex<SharedServer>>,
    object: ComObject,
    next_poll: u64,
    last_response: HashMap<Endpoint, SimTime>,
}

impl OpcServerProcess {
    /// Creates the server process; `shared` may be externally held for
    /// inspection (tests) or created fresh via [`OpcServerProcess::spawn`].
    pub fn new(config: OpcServerConfig, shared: Arc<Mutex<SharedServer>>) -> Self {
        let object = ComObject::new(Box::new(OpcServerClass::new(shared.clone())));
        OpcServerProcess { config, shared, object, next_poll: 0, last_response: HashMap::new() }
    }

    /// Creates the server process with self-owned state.
    pub fn spawn(config: OpcServerConfig) -> Self {
        OpcServerProcess::new(config, Arc::new(Mutex::new(SharedServer::new())))
    }

    fn poll_devices(&mut self, env: &mut dyn ProcessEnv) {
        let me = env.self_endpoint();
        let now = env.now();
        for (prefix, device) in &self.config.devices {
            env.send_msg(
                device.clone(),
                PollRequest { reply_to: me.clone(), poll_id: self.next_poll },
            );
            self.next_poll += 1;
            // Degrade quality for silent devices.
            let last = self.last_response.get(device).copied().unwrap_or(SimTime::ZERO);
            if now.saturating_since(last) > self.config.degrade_after {
                let mut shared = self.shared.lock();
                let stale: Vec<ItemId> = shared
                    .space
                    .iter()
                    .filter(|(id, v)| id.is_under(prefix) && v.quality.is_good())
                    .map(|(id, _)| id.clone())
                    .collect();
                for id in stale {
                    let mut v = shared.space.read(&id, now);
                    v.quality =
                        crate::item::Quality::Uncertain(crate::item::UncertainSub::LastUsable);
                    shared.space.update(id, v);
                }
            }
        }
    }

    fn push_groups(&mut self, env: &mut dyn ProcessEnv) {
        let now = env.now();
        let mut pushes: Vec<(Endpoint, DataChange, u64)> = Vec::new();
        {
            let mut shared = self.shared.lock();
            let shared = &mut *shared;
            for (id, group) in shared.groups.iter_mut() {
                if group.next_due > now {
                    continue;
                }
                group.next_due = now + group.update_rate;
                let mut changed = Vec::new();
                for item in &group.items {
                    let current = shared.space.read(item, now);
                    let send = match group.last_sent.get(item) {
                        None => true,
                        Some(prev) => {
                            prev.value.exceeds_deadband(&current.value, group.deadband_percent)
                                || prev.quality != current.quality
                        }
                    };
                    if send {
                        group.last_sent.insert(item.clone(), current.clone());
                        changed.push((item.as_str().to_string(), current));
                    }
                }
                if !changed.is_empty() {
                    let size = 64 + 40 * changed.len() as u64;
                    pushes.push((
                        group.subscriber.clone(),
                        DataChange { group: *id, items: changed },
                        size,
                    ));
                }
            }
        }
        for (subscriber, change, size) in pushes {
            env.send_sized(subscriber, change, size);
        }
    }
}

impl Process for OpcServerProcess {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        self.shared.lock().started_at = env.now();
        env.record(
            TraceCategory::App,
            format!(
                "{} OPC server up ({} devices)",
                env.self_endpoint(),
                self.config.devices.len()
            ),
        );
        env.set_timer(SimDuration::ZERO, POLL_TOKEN);
        env.set_timer(self.config.group_tick, GROUP_TOKEN);
    }

    fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
        match token {
            POLL_TOKEN => {
                self.poll_devices(env);
                env.set_timer(self.config.poll_period, POLL_TOKEN);
            }
            GROUP_TOKEN => {
                self.push_groups(env);
                env.set_timer(self.config.group_tick, GROUP_TOKEN);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        if envelope.body.is::<RpcRequest>() {
            let request = envelope.body.downcast::<RpcRequest>().expect("checked");
            let outcome = self.object.invoke(request.iid, request.method, &request.args, env.now());
            let size = 48 + outcome.as_ref().map(|b| b.len() as u64).unwrap_or(0);
            env.send(
                request.reply_to,
                ds_net::message::MsgBody::new(RpcResponse { call_id: request.call_id, outcome }),
                size,
            );
            // Complete async reads accepted during the invoke.
            let async_reads: Vec<AsyncReadArgs> =
                std::mem::take(&mut self.shared.lock().pending_async_reads);
            for read in async_reads {
                let now = env.now();
                let items: Vec<(String, ItemValue)> = {
                    let shared = self.shared.lock();
                    read.items
                        .iter()
                        .map(|raw| (raw.clone(), shared.space.read(&ItemId::new(raw.clone()), now)))
                        .collect()
                };
                let size = 64 + 40 * items.len() as u64;
                env.send_sized(
                    read.callback,
                    AsyncReadComplete { transaction_id: read.transaction_id, items },
                    size,
                );
            }
            // Forward writes accepted during the invoke to their devices.
            let writes: Vec<(ItemId, Value)> =
                std::mem::take(&mut self.shared.lock().pending_writes);
            for (id, value) in writes {
                if let Some((prefix, device)) =
                    self.config.devices.iter().find(|(prefix, _)| id.is_under(prefix))
                {
                    let tag = id.as_str()[prefix.len() + 1..].to_string();
                    let pv = match value {
                        Value::Bool(b) => plant::value::PlantValue::Discrete(b),
                        other => plant::value::PlantValue::Analog(other.as_f64()),
                    };
                    env.send_msg(device.clone(), WriteRequest { tag, value: pv });
                }
            }
        } else if envelope.body.is::<PollResponse>() {
            let response = envelope.body.downcast::<PollResponse>().expect("checked");
            let from = envelope.from;
            let now = env.now();
            self.last_response.insert(from.clone(), now);
            let prefix = self
                .config
                .devices
                .iter()
                .find(|(_, device)| *device == from)
                .map(|(prefix, _)| prefix.clone());
            if let Some(prefix) = prefix {
                let mut shared = self.shared.lock();
                for (tag, value) in response.tags.iter() {
                    shared.space.update(
                        ItemId::new(format!("{prefix}.{tag}")),
                        ItemValue::good(Value::from(value), now),
                    );
                }
            }
        }
    }
}
