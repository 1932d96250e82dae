//! Body codec: maps the in-process `MsgBody` (a `dyn Any`) to and from
//! tagged wire bodies.
//!
//! The sim and live runtimes move message bodies by pointer, so any
//! `Any + Send` type works. A socket cannot — every type that crosses a
//! node boundary must be registered here with a stable numeric tag. The
//! [`WireCodec::standard`] registry covers the whole OFTT protocol
//! surface; applications with their own cross-node message types extend
//! it with [`WireCodec::register_type`].
//!
//! Two entries are hand-written rather than generic:
//!
//! - [`PeerMsg`] heartbeats are classed [`FrameClass::Heartbeat`] so the
//!   supervisor's backpressure can shed them first;
//! - [`FtimPeerMsg::Ckpt`] splits into a marshaled *skeleton* (term, seq,
//!   crc, variable names and lengths) plus the variable windows appended
//!   as shared [`Bytes`] — the delta bytes the FTIM handed over are the
//!   same allocations the socket writes (and on receive, windows of the
//!   single read buffer). That is the zero-copy checkpoint data path.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::any::Any;
use std::collections::HashMap;

use comsim::buf::Bytes;
use comsim::marshal::{from_bytes, from_bytes_prefix, to_bytes, to_bytes_into};
use ds_net::endpoint::Endpoint;
use ds_net::message::{Envelope, MsgBody};
use ds_net::transport::{TransportEvent, TransportReport};
use ds_sim::prelude::SimTime;
use oftt::checkpoint::{Checkpoint, CheckpointPayload, VarSet};
use oftt::messages::{FromEngine, FtimPeerMsg, PeerMsg, RoleReport, StatusReport, ToEngine};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::frame::{Frame, FrameClass, WireError};

/// Marshaled frame meta block: addressing plus the body's codec tag.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameMeta {
    /// Sending endpoint.
    pub from: Endpoint,
    /// Destination endpoint.
    pub to: Endpoint,
    /// Body codec tag.
    pub tag: u32,
    /// The envelope's modeled size (kept so receiver-side accounting
    /// matches the sender's).
    pub size_bytes: u64,
}

/// An encoded body ready for [`crate::frame::write_frame`]: a contiguous
/// `head` plus zero or more borrowed shared windows.
#[derive(Debug, Clone)]
pub struct FramePayload {
    /// Scheduling class for the supervisor.
    pub class: FrameClass,
    /// Contiguous prefix of the body.
    pub head: Vec<u8>,
    /// Shared suffix windows, written after `head` without copying.
    pub shared: Vec<Bytes>,
}

impl FramePayload {
    fn plain(head: Vec<u8>) -> Self {
        FramePayload { class: FrameClass::Data, head, shared: Vec::new() }
    }
}

/// One registered body type.
pub struct CodecEntry {
    /// Stable wire tag.
    pub tag: u32,
    /// Human-readable name for diagnostics.
    pub name: &'static str,
    /// Returns `None` if the body is not this entry's type.
    pub encode: fn(&MsgBody) -> Option<Result<FramePayload, WireError>>,
    /// Rebuilds a body from received bytes.
    pub decode: fn(&Bytes) -> Result<MsgBody, WireError>,
}

fn encode_serde<T: Any + Serialize>(body: &MsgBody) -> Option<Result<FramePayload, WireError>> {
    let value = body.downcast_ref::<T>()?;
    Some(to_bytes(value).map(FramePayload::plain).map_err(WireError::from))
}

fn decode_serde<T: Any + Send + DeserializeOwned>(bytes: &Bytes) -> Result<MsgBody, WireError> {
    let value: T = from_bytes(bytes.as_slice())?;
    Ok(MsgBody::new(value))
}

/// Echo probe used by the latency bench and the pair tests: `pad` rides
/// as a shared window, exercising the vectored write path at any size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WirePing {
    /// Echoed sequence number.
    pub seq: u64,
    /// Arbitrary payload padding.
    pub pad: Bytes,
}

const FTIM_WHOLE: u8 = 0;
const FTIM_CKPT: u8 = 1;

/// The skeleton of a checkpoint: everything except the variable bytes,
/// which follow as raw windows in `names` order.
#[derive(Debug, Serialize, Deserialize)]
struct CkptSkeleton {
    term: u64,
    seq: u64,
    taken_at: SimTime,
    full: bool,
    crc: u32,
    names: Vec<String>,
    lens: Vec<u32>,
}

fn encode_ftim(body: &MsgBody) -> Option<Result<FramePayload, WireError>> {
    let msg = body.downcast_ref::<FtimPeerMsg>()?;
    Some(try_encode_ftim(msg))
}

fn try_encode_ftim(msg: &FtimPeerMsg) -> Result<FramePayload, WireError> {
    if let FtimPeerMsg::Ckpt(ckpt) = msg {
        let vars = ckpt.payload.vars();
        let mut skeleton = CkptSkeleton {
            term: ckpt.term,
            seq: ckpt.seq,
            taken_at: ckpt.taken_at,
            full: ckpt.payload.is_full(),
            crc: ckpt.crc,
            names: Vec::with_capacity(vars.len()),
            lens: Vec::with_capacity(vars.len()),
        };
        let mut shared = Vec::with_capacity(vars.len());
        for (name, bytes) in vars {
            skeleton.names.push(name.clone());
            skeleton.lens.push(u32::try_from(bytes.len()).map_err(|_| {
                WireError::BodyMismatch { expected: u32::MAX as u64, actual: bytes.len() as u64 }
            })?);
            // An Arc refcount bump, not a byte copy.
            shared.push(bytes.clone());
        }
        let mut head = vec![FTIM_CKPT];
        head.extend_from_slice(&to_bytes(&skeleton)?);
        Ok(FramePayload { class: FrameClass::Data, head, shared })
    } else {
        let mut head = vec![FTIM_WHOLE];
        head.extend_from_slice(&to_bytes(msg)?);
        Ok(FramePayload::plain(head))
    }
}

fn decode_ftim(bytes: &Bytes) -> Result<MsgBody, WireError> {
    let raw = bytes.as_slice();
    let (&subtag, rest) = raw
        .split_first()
        .ok_or(WireError::Marshal(comsim::marshal::MarshalError::UnexpectedEof))?;
    match subtag {
        FTIM_WHOLE => {
            let msg: FtimPeerMsg = from_bytes(rest)?;
            Ok(MsgBody::new(msg))
        }
        FTIM_CKPT => {
            let (skeleton, consumed) = from_bytes_prefix::<CkptSkeleton>(rest)?;
            let data = bytes.slice(1 + consumed..);
            if skeleton.names.len() != skeleton.lens.len() {
                return Err(WireError::BodyMismatch {
                    expected: skeleton.names.len() as u64,
                    actual: skeleton.lens.len() as u64,
                });
            }
            let claimed: u64 = skeleton.lens.iter().map(|&l| l as u64).sum();
            if claimed != data.len() as u64 {
                return Err(WireError::BodyMismatch {
                    expected: claimed,
                    actual: data.len() as u64,
                });
            }
            let mut vars = VarSet::new();
            let mut offset = 0usize;
            for (name, len) in skeleton.names.into_iter().zip(skeleton.lens) {
                let len = len as usize;
                // Windows of the single receive buffer — no per-var copy.
                vars.insert(name, data.slice(offset..offset + len));
                offset += len;
            }
            let payload = if skeleton.full {
                CheckpointPayload::Full(vars)
            } else {
                CheckpointPayload::Delta(vars)
            };
            // Built literally, keeping the sender's crc as-is: a forged or
            // corrupted crc must surface as the FTIM's verify/nack path,
            // not as a codec panic.
            let ckpt = Checkpoint {
                term: skeleton.term,
                seq: skeleton.seq,
                taken_at: skeleton.taken_at,
                payload,
                crc: skeleton.crc,
            };
            Ok(MsgBody::new(FtimPeerMsg::Ckpt(ckpt)))
        }
        other => Err(WireError::UnknownTag(other as u32)),
    }
}

fn encode_peer_msg(body: &MsgBody) -> Option<Result<FramePayload, WireError>> {
    let msg = body.downcast_ref::<PeerMsg>()?;
    Some(to_bytes(msg).map_err(WireError::from).map(|head| FramePayload {
        class: if matches!(msg, PeerMsg::Heartbeat { .. }) {
            FrameClass::Heartbeat
        } else {
            FrameClass::Data
        },
        head,
        shared: Vec::new(),
    }))
}

/// The tag registry.
pub struct WireCodec {
    entries: Vec<CodecEntry>,
    by_tag: HashMap<u32, usize>,
}

impl WireCodec {
    /// An empty codec (no types cross the wire).
    pub fn empty() -> Self {
        WireCodec { entries: Vec::new(), by_tag: HashMap::new() }
    }

    /// The standard OFTT registry: engine negotiation, checkpoints,
    /// status reporting, store-and-forward queueing, transport health,
    /// plus `String` and [`WirePing`] for tests and tools.
    pub fn standard() -> Self {
        let mut codec = WireCodec::empty();
        codec.register(CodecEntry {
            tag: 1,
            name: "PeerMsg",
            encode: encode_peer_msg,
            decode: decode_serde::<PeerMsg>,
        });
        codec.register(CodecEntry {
            tag: 2,
            name: "FtimPeerMsg",
            encode: encode_ftim,
            decode: decode_ftim,
        });
        codec.register_type::<ToEngine>(3, "ToEngine");
        codec.register_type::<FromEngine>(4, "FromEngine");
        codec.register_type::<RoleReport>(5, "RoleReport");
        codec.register_type::<StatusReport>(6, "StatusReport");
        codec.register_type::<msgq::manager::ManagerMsg>(7, "ManagerMsg");
        codec.register_type::<msgq::manager::Push>(8, "Push");
        codec.register_type::<TransportEvent>(9, "TransportEvent");
        codec.register_type::<TransportReport>(10, "TransportReport");
        codec.register_type::<String>(11, "String");
        codec.register_type::<WirePing>(12, "WirePing");
        codec
    }

    /// Registers a hand-written entry.
    ///
    /// # Panics
    ///
    /// Panics if the tag is already taken (a configuration bug).
    pub fn register(&mut self, entry: CodecEntry) {
        let prev = self.by_tag.insert(entry.tag, self.entries.len());
        assert!(prev.is_none(), "wire tag {} registered twice", entry.tag);
        self.entries.push(entry);
    }

    /// Registers a marshal-serializable type under `tag`.
    pub fn register_type<T: Any + Send + Serialize + DeserializeOwned>(
        &mut self,
        tag: u32,
        name: &'static str,
    ) {
        self.register(CodecEntry {
            tag,
            name,
            encode: encode_serde::<T>,
            decode: decode_serde::<T>,
        });
    }

    /// Encodes a body, returning its tag and payload; `None` means the
    /// concrete type is not registered (the caller decides whether that
    /// is a drop or a bug).
    pub fn encode(&self, body: &MsgBody) -> Option<Result<(u32, FramePayload), WireError>> {
        for entry in &self.entries {
            if let Some(result) = (entry.encode)(body) {
                return Some(result.map(|payload| (entry.tag, payload)));
            }
        }
        None
    }

    /// Decodes a received body by tag.
    pub fn decode(&self, tag: u32, body: &Bytes) -> Result<MsgBody, WireError> {
        let idx = *self.by_tag.get(&tag).ok_or(WireError::UnknownTag(tag))?;
        // `by_tag` indexes into `entries` by construction; the checked
        // form turns a hypothetically stale index into a protocol error
        // instead of a panic on the reactor thread.
        let entry = self.entries.get(idx).ok_or(WireError::UnknownTag(tag))?;
        (entry.decode)(body)
    }

    /// Encodes a whole envelope into `(marshaled meta, payload)`.
    pub fn encode_envelope(
        &self,
        envelope: &Envelope,
    ) -> Option<Result<(Vec<u8>, FramePayload), WireError>> {
        let (tag, payload) = match self.encode(&envelope.body)? {
            Ok(ok) => ok,
            Err(e) => return Some(Err(e)),
        };
        let meta = FrameMeta {
            from: envelope.from.clone(),
            to: envelope.to.clone(),
            tag,
            size_bytes: envelope.size_bytes,
        };
        Some(match to_bytes(&meta) {
            Ok(meta) => Ok((meta, payload)),
            Err(e) => Err(WireError::from(e)),
        })
    }

    /// Like [`WireCodec::encode_envelope`], but marshals the meta block
    /// into a caller-provided (typically pooled) buffer, so the ship
    /// path pays no per-frame meta allocation. On error the buffer's
    /// contents are unspecified but it remains reusable after `clear`.
    pub fn encode_envelope_into(
        &self,
        envelope: &Envelope,
        meta_out: &mut Vec<u8>,
    ) -> Option<Result<FramePayload, WireError>> {
        let (tag, payload) = match self.encode(&envelope.body)? {
            Ok(ok) => ok,
            Err(e) => return Some(Err(e)),
        };
        let meta = FrameMeta {
            from: envelope.from.clone(),
            to: envelope.to.clone(),
            tag,
            size_bytes: envelope.size_bytes,
        };
        Some(match to_bytes_into(&meta, meta_out) {
            Ok(()) => Ok(payload),
            Err(e) => Err(WireError::from(e)),
        })
    }

    /// Decodes a received frame back into an envelope (vector clocks do
    /// not cross the wire; real transports have no global clock line).
    pub fn decode_frame(&self, frame: &Frame) -> Result<Envelope, WireError> {
        let meta: FrameMeta = from_bytes(frame.meta.as_slice())?;
        let body = self.decode(meta.tag, &frame.body)?;
        Ok(Envelope::sized(meta.from, meta.to, body, meta.size_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_net::endpoint::NodeId;
    use oftt::checkpoint::var_digest;

    fn codec() -> WireCodec {
        WireCodec::standard()
    }

    #[test]
    fn heartbeats_are_classed_for_shedding() {
        let codec = codec();
        let hb = MsgBody::new(PeerMsg::Heartbeat {
            node: NodeId(0),
            role: oftt::role::Role::Primary,
            term: 1,
        });
        let (tag, payload) = codec.encode(&hb).unwrap().unwrap();
        assert_eq!(tag, 1);
        assert_eq!(payload.class, FrameClass::Heartbeat);
        let hello = MsgBody::new(PeerMsg::Hello {
            node: NodeId(0),
            role: oftt::role::Role::Primary,
            term: 1,
        });
        let (_, payload) = codec.encode(&hello).unwrap().unwrap();
        assert_eq!(payload.class, FrameClass::Data);
    }

    #[test]
    fn checkpoint_body_round_trips_with_shared_windows() {
        let codec = codec();
        let mut vars = VarSet::new();
        vars.insert("alpha".into(), Bytes::from(vec![1u8, 2, 3]));
        vars.insert("beta".into(), Bytes::from(vec![4u8; 1000]));
        let crc =
            oftt::checkpoint::fold_digests(vars.iter().map(|(n, b)| var_digest(n, b.as_slice())));
        let ckpt = Checkpoint {
            term: 2,
            seq: 9,
            taken_at: SimTime::from_millis(1234),
            payload: CheckpointPayload::Delta(vars.clone()),
            crc,
        };
        let body = MsgBody::new(FtimPeerMsg::Ckpt(ckpt));
        let (tag, payload) = codec.encode(&body).unwrap().unwrap();
        assert_eq!(tag, 2);
        assert_eq!(payload.shared.len(), 2, "each var rides as a shared window");

        // Rebuild the wire bytes the way write_frame would.
        let mut wire = payload.head.clone();
        for b in &payload.shared {
            wire.extend_from_slice(b.as_slice());
        }
        let back = codec.decode(tag, &Bytes::from(wire)).unwrap();
        let back = back.downcast::<FtimPeerMsg>().unwrap();
        let FtimPeerMsg::Ckpt(back) = back else { panic!("wrong variant") };
        assert_eq!(back.term, 2);
        assert_eq!(back.seq, 9);
        assert_eq!(back.crc, crc);
        assert!(!back.payload.is_full());
        let got = back.payload.vars();
        assert_eq!(got.len(), 2);
        assert_eq!(got.get("alpha").unwrap().as_slice(), &[1, 2, 3]);
        assert_eq!(got.get("beta").unwrap().len(), 1000);
    }

    #[test]
    fn ckpt_with_mismatched_windows_is_rejected() {
        let codec = codec();
        let mut vars = VarSet::new();
        vars.insert("v".into(), Bytes::from(vec![7u8; 16]));
        let ckpt = Checkpoint {
            term: 1,
            seq: 1,
            taken_at: SimTime::from_millis(1),
            payload: CheckpointPayload::Full(vars),
            crc: 0,
        };
        let (tag, payload) = codec.encode(&MsgBody::new(FtimPeerMsg::Ckpt(ckpt))).unwrap().unwrap();
        let mut wire = payload.head.clone();
        for b in &payload.shared {
            wire.extend_from_slice(b.as_slice());
        }
        wire.truncate(wire.len() - 3);
        assert!(matches!(
            codec.decode(tag, &Bytes::from(wire)),
            Err(WireError::BodyMismatch { .. })
        ));
    }

    #[test]
    fn unknown_tags_and_unregistered_types_are_surfaced() {
        let codec = codec();
        assert!(matches!(
            codec.decode(999, &Bytes::from(vec![0u8])),
            Err(WireError::UnknownTag(999))
        ));
        struct NotWireable;
        assert!(codec.encode(&MsgBody::new(NotWireable)).is_none());
    }

    #[test]
    fn envelope_round_trips() {
        let codec = codec();
        let env = Envelope::new(
            Endpoint::new(NodeId(0), "a"),
            Endpoint::new(NodeId(1), "b"),
            "payload".to_string(),
        );
        let (meta, payload) = codec.encode_envelope(&env).unwrap().unwrap();
        let mut wire = Vec::new();
        crate::frame::write_frame(
            &mut wire,
            payload.class,
            5,
            &meta,
            &payload.head,
            &payload.shared,
        )
        .unwrap();
        let frame =
            crate::frame::read_frame(&mut wire.as_slice(), crate::frame::DEFAULT_MAX_FRAME_BYTES)
                .unwrap();
        let back = codec.decode_frame(&frame).unwrap();
        assert_eq!(back.from, env.from);
        assert_eq!(back.to, env.to);
        assert_eq!(back.size_bytes, env.size_bytes);
        assert_eq!(back.body.downcast::<String>().unwrap(), "payload");
    }

    #[test]
    fn transport_types_marshal_round_trip() {
        // Deferred here from ds-net (which cannot dev-depend on comsim).
        let report = TransportReport {
            node: NodeId(1),
            peers: vec![ds_net::transport::PeerHealth {
                peer: NodeId(2),
                state: ds_net::transport::LinkState::Connected,
                epoch: 4,
                reconnects: 1,
                bytes_in: 10,
                bytes_out: 20,
                queued: 0,
                dropped_heartbeats: 0,
                dropped_frames: 0,
                purged: 0,
            }],
            at: SimTime::from_millis(50),
        };
        let bytes = to_bytes(&report).unwrap();
        let back: TransportReport = from_bytes(&bytes).unwrap();
        assert_eq!(back, report);
        for event in [
            TransportEvent::PeerConnected { peer: NodeId(2), epoch: 4, reconnect: true },
            TransportEvent::PeerDown { peer: NodeId(2) },
            TransportEvent::PeerRefused { peer: NodeId(2) },
        ] {
            let bytes = to_bytes(&event).unwrap();
            let back: TransportEvent = from_bytes(&bytes).unwrap();
            assert_eq!(back, event);
        }
    }
}
