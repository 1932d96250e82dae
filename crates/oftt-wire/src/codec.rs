//! Body codec: maps the in-process `MsgBody` (a `dyn Any`) to and from
//! tagged wire bodies.
//!
//! The simulator and the actor host's local delivery move message bodies
//! by pointer, so any `Any + Send` type works. A socket cannot — every type that crosses a
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
//!   Encode marshals the skeleton straight into the head from the
//!   checkpoint's borrowed names, so a name is copied only into the wire
//!   bytes themselves; decode builds the [`VarSet`] in one `collect` over the
//!   `(name, window)` pairs. (Which of those windows the frame batch then
//!   copies into its gather buffer is [`crate::frame::FrameBatch`]'s rule.)

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
/// which follow as raw windows in `names` order. Decode reads it owned;
/// encode writes the same bytes from borrowed names (see
/// [`try_encode_ftim`]).
#[derive(Debug, Deserialize)]
#[cfg_attr(test, derive(Serialize))]
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

/// Marshals a checkpoint's skeleton straight into `head` from borrowed
/// names. The tuple has [`CkptSkeleton`]'s fields in order, and marshal
/// writes a struct as its fields in order, so the bytes are the same; the
/// offline serde derive takes no generic struct, hence the tuple.
fn try_encode_ftim(msg: &FtimPeerMsg) -> Result<FramePayload, WireError> {
    if let FtimPeerMsg::Ckpt(ckpt) = msg {
        let vars = ckpt.payload.vars();
        let mut names = Vec::with_capacity(vars.len());
        let mut lens = Vec::with_capacity(vars.len());
        let mut shared = Vec::with_capacity(vars.len());
        let mut name_bytes = 0usize;
        for (name, bytes) in vars {
            names.push(name.as_str());
            name_bytes += name.len();
            lens.push(u32::try_from(bytes.len()).map_err(|_| WireError::BodyMismatch {
                expected: u32::MAX as u64,
                actual: bytes.len() as u64,
            })?);
            // An Arc refcount bump, not a byte copy.
            shared.push(bytes.clone());
        }
        // Subtag, five scalars (8 + 8 + 8 + 1 + 4), two length prefixes,
        // and per variable a name prefix, the name and its length.
        let mut head = Vec::with_capacity(1 + 29 + 8 + 8 * vars.len() + name_bytes);
        head.push(FTIM_CKPT);
        let skeleton =
            (ckpt.term, ckpt.seq, ckpt.taken_at, ckpt.payload.is_full(), ckpt.crc, names, lens);
        to_bytes_into(&skeleton, &mut head)?;
        Ok(FramePayload { class: FrameClass::Data, head, shared })
    } else {
        let mut head = vec![FTIM_WHOLE];
        to_bytes_into(msg, &mut head)?;
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
            let mut offset = 0usize;
            // One bulk build: `collect` sorts the pairs and keeps the last
            // of equal names, as inserting them one by one would. Each
            // value is a window of the single receive buffer, not a copy.
            let vars: VarSet = skeleton
                .names
                .into_iter()
                .zip(skeleton.lens)
                .map(|(name, len)| {
                    let window = data.slice(offset..offset + len as usize);
                    offset += len as usize;
                    (name, window)
                })
                .collect();
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

    fn ckpt_of(vars: VarSet, full: bool) -> Checkpoint {
        Checkpoint {
            term: 3,
            seq: 17,
            taken_at: SimTime::from_micros(4_321),
            payload: if full {
                CheckpointPayload::Full(vars)
            } else {
                CheckpointPayload::Delta(vars)
            },
            crc: 0xDEAD_BEEF,
        }
    }

    fn skeleton_bytes(skeleton: &CkptSkeleton, data: &[u8]) -> Bytes {
        let mut wire = vec![FTIM_CKPT];
        wire.extend_from_slice(&to_bytes(skeleton).unwrap());
        wire.extend_from_slice(data);
        Bytes::from(wire)
    }

    /// The decode this codec had before its bulk build: the same checks,
    /// then one `insert` per variable.
    fn insert_loop_decode(bytes: &Bytes) -> Result<(CkptSkeleton, VarSet), ()> {
        let (skeleton, consumed) =
            from_bytes_prefix::<CkptSkeleton>(&bytes.as_slice()[1..]).map_err(|_| ())?;
        let data = bytes.slice(1 + consumed..);
        let claimed: u64 = skeleton.lens.iter().map(|&l| l as u64).sum();
        if skeleton.names.len() != skeleton.lens.len() || claimed != data.len() as u64 {
            return Err(());
        }
        let mut vars = VarSet::new();
        let mut offset = 0usize;
        for (name, &len) in skeleton.names.iter().zip(&skeleton.lens) {
            vars.insert(name.clone(), data.slice(offset..offset + len as usize));
            offset += len as usize;
        }
        Ok((skeleton, vars))
    }

    /// Decodes `bytes` both ways and asserts they agree; returns the vars.
    fn decodes_like_the_insert_loop(bytes: &Bytes) -> Option<VarSet> {
        let old = insert_loop_decode(bytes);
        match decode_ftim(bytes) {
            Err(e) => {
                assert!(matches!(e, WireError::BodyMismatch { .. }), "{e}");
                assert!(old.is_err(), "the insert loop accepted what the bulk build refused");
                None
            }
            Ok(body) => {
                let (skeleton, vars) = old.expect("the bulk build accepted a refused body");
                let FtimPeerMsg::Ckpt(ckpt) = body.downcast::<FtimPeerMsg>().unwrap() else {
                    panic!("wrong variant")
                };
                assert_eq!(
                    (ckpt.term, ckpt.seq, ckpt.taken_at, ckpt.crc, ckpt.payload.is_full()),
                    (skeleton.term, skeleton.seq, skeleton.taken_at, skeleton.crc, skeleton.full)
                );
                assert_eq!(ckpt.payload.vars(), &vars);
                Some(vars)
            }
        }
    }

    fn hostile(names: &[&str], lens: &[u32], data_len: usize) -> Bytes {
        let skeleton = CkptSkeleton {
            term: 1,
            seq: 2,
            taken_at: SimTime::from_millis(3),
            full: false,
            crc: 4,
            names: names.iter().map(|n| n.to_string()).collect(),
            lens: lens.to_vec(),
        };
        let data: Vec<u8> = (0..data_len as u8).collect();
        skeleton_bytes(&skeleton, &data)
    }

    #[test]
    fn hostile_skeletons_decode_as_the_insert_loop_did() {
        // Duplicate names: the last one wins.
        let vars = decodes_like_the_insert_loop(&hostile(&["b", "a", "b"], &[1, 2, 3], 6)).unwrap();
        assert_eq!(vars.len(), 2);
        assert_eq!(vars["b"].as_slice(), &[3, 4, 5]);
        assert_eq!(vars["a"].as_slice(), &[1, 2]);
        // Unsorted names come back in name order with their own windows.
        let vars = decodes_like_the_insert_loop(&hostile(&["z", "m", "a"], &[2, 0, 1], 3)).unwrap();
        assert_eq!(vars.keys().collect::<Vec<_>>(), ["a", "m", "z"]);
        assert_eq!(vars["z"].as_slice(), &[0, 1]);
        assert!(vars["m"].is_empty());
        assert_eq!(vars["a"].as_slice(), &[2]);
        // A names/lens length mismatch, either way round.
        assert!(decodes_like_the_insert_loop(&hostile(&["a", "b"], &[1], 1)).is_none());
        assert!(decodes_like_the_insert_loop(&hostile(&["a"], &[1, 0], 1)).is_none());
        // Lens that claim more or fewer bytes than follow.
        assert!(decodes_like_the_insert_loop(&hostile(&["a", "b"], &[1, 2], 2)).is_none());
        assert!(decodes_like_the_insert_loop(&hostile(&["a", "b"], &[1, 2], 4)).is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 64,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        #[test]
        fn borrowed_name_encode_matches_the_skeleton_struct(
            vars in proptest::prop::collection::vec(
                (
                    proptest::prop_oneof![".{0,6}", ".{0,300}", "[a-c]{0,2}"],
                    0..300usize,
                ),
                0..60,
            ),
            full in proptest::strategy::any::<bool>(),
        ) {
            let vars: VarSet = vars
                .into_iter()
                .map(|(name, len)| (name, Bytes::from(vec![len as u8; len])))
                .collect();
            let ckpt = ckpt_of(vars.clone(), full);
            let payload = try_encode_ftim(&FtimPeerMsg::Ckpt(ckpt)).unwrap();
            let skeleton = CkptSkeleton {
                term: 3,
                seq: 17,
                taken_at: SimTime::from_micros(4_321),
                full,
                crc: 0xDEAD_BEEF,
                names: vars.keys().cloned().collect(),
                lens: vars.values().map(|b| b.len() as u32).collect(),
            };
            let expected = skeleton_bytes(&skeleton, &[]);
            proptest::prop_assert_eq!(payload.head.as_slice(), expected.as_slice());
            // Sized exactly up front: the head is one allocation, never grown.
            proptest::prop_assert_eq!(payload.head.capacity(), payload.head.len());
            let mut wire = payload.head.clone();
            for window in &payload.shared {
                wire.extend_from_slice(window.as_slice());
            }
            let back = decodes_like_the_insert_loop(&Bytes::from(wire)).unwrap();
            proptest::prop_assert_eq!(back, vars);
        }

        #[test]
        fn any_skeleton_decodes_as_the_insert_loop_did(
            pairs in proptest::prop::collection::vec(("[a-d]{0,2}", 0..6u32), 0..24),
            drop_len in proptest::strategy::any::<bool>(),
            extra_bytes in 0..3usize,
        ) {
            let names: Vec<&str> = pairs.iter().map(|(n, _)| n.as_str()).collect();
            let mut lens: Vec<u32> = pairs.iter().map(|&(_, l)| l).collect();
            if drop_len {
                lens.pop();
            }
            let data_len = lens.iter().sum::<u32>() as usize + extra_bytes;
            let _ = decodes_like_the_insert_loop(&hostile(&names, &lens, data_len));
        }
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
