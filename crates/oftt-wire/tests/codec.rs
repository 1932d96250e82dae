//! Property-based tests for the wire frame codec: anything the sender
//! can encode must survive the socket byte-for-byte, and *no* sequence
//! of received bytes — truncated, oversized, or garbage — may panic the
//! receiver. A length-prefixed protocol lives or dies on this.

use std::io::Cursor;

use comsim::buf::Bytes;
use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::message::Envelope;
use oftt_wire::codec::{WireCodec, WirePing};
use oftt_wire::frame::{
    read_frame, write_frame, FrameClass, FrameHeader, ReadError, HEADER_LEN, MAX_META_BYTES,
};
use proptest::prelude::*;

const MAX_FRAME: u32 = 64 * 1024 * 1024;

fn class_strategy() -> impl Strategy<Value = FrameClass> {
    prop_oneof![Just(FrameClass::Data), Just(FrameClass::Heartbeat), Just(FrameClass::Handshake),]
}

proptest! {
    #[test]
    fn frames_round_trip_byte_exact(
        class in class_strategy(),
        epoch in any::<u32>(),
        meta in prop::collection::vec(any::<u8>(), 0..256),
        head in prop::collection::vec(any::<u8>(), 0..512),
        windows in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..2048), 0..5),
    ) {
        let shared: Vec<Bytes> = windows.iter().cloned().map(Bytes::from).collect();
        let mut wire = Vec::new();
        let written =
            write_frame(&mut wire, class, epoch, &meta, &head, &shared).unwrap();
        prop_assert_eq!(written as usize, wire.len());

        let frame = read_frame(&mut Cursor::new(&wire), MAX_FRAME).unwrap();
        prop_assert_eq!(frame.header.class, class);
        prop_assert_eq!(frame.header.epoch, epoch);
        prop_assert_eq!(frame.meta.as_slice(), &meta[..]);
        let mut body = head.clone();
        for w in &windows {
            body.extend_from_slice(w);
        }
        prop_assert_eq!(frame.body.as_slice(), &body[..]);
    }

    #[test]
    fn truncated_frames_error_and_never_panic(
        meta in prop::collection::vec(any::<u8>(), 0..64),
        head in prop::collection::vec(any::<u8>(), 1..128),
        cut_seed in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameClass::Data, 7, &meta, &head, &[]).unwrap();
        // Cut strictly inside the frame: every prefix must fail cleanly.
        let cut = (cut_seed as usize) % (wire.len() - 1).max(1);
        let result = read_frame(&mut Cursor::new(&wire[..cut]), MAX_FRAME);
        prop_assert!(matches!(result, Err(ReadError::Io(_))));
    }

    #[test]
    fn garbage_headers_error_and_never_panic(raw in prop::collection::vec(any::<u8>(), 0..64)) {
        // Arbitrary bytes: must come back as Err, never panic. (A lucky
        // prefix that happens to spell a valid empty frame is fine.)
        let _ = read_frame(&mut Cursor::new(&raw), MAX_FRAME);
    }

    #[test]
    fn oversized_length_prefixes_are_rejected(
        meta_len in any::<u32>(),
        body_len in any::<u32>(),
    ) {
        let header = FrameHeader {
            class: FrameClass::Data,
            epoch: 0,
            meta_len,
            body_len,
        };
        let small_max = 4096u32;
        let decoded = FrameHeader::decode(&header.encode(), small_max);
        let total = meta_len as u64 + body_len as u64;
        if meta_len > MAX_META_BYTES || total > small_max as u64 {
            prop_assert!(decoded.is_err());
        } else {
            prop_assert_eq!(decoded.unwrap(), header);
        }
    }

    #[test]
    fn ping_envelopes_survive_the_codec(
        seq in any::<u64>(),
        pad in prop::collection::vec(any::<u8>(), 0..4096),
        from_node in 0u16..8,
        to_node in 0u16..8,
    ) {
        let codec = WireCodec::standard();
        let envelope = Envelope::new(
            Endpoint::new(NodeId(from_node), "ping"),
            Endpoint::new(NodeId(to_node), "pong"),
            WirePing { seq, pad: Bytes::from(pad.clone()) },
        );
        let (meta, payload) = codec.encode_envelope(&envelope).unwrap().unwrap();
        let mut wire = Vec::new();
        write_frame(&mut wire, payload.class, 3, &meta, &payload.head, &payload.shared)
            .unwrap();
        let frame = read_frame(&mut Cursor::new(&wire), MAX_FRAME).unwrap();
        let back = codec.decode_frame(&frame).unwrap();
        prop_assert_eq!(back.from, envelope.from);
        prop_assert_eq!(back.to, envelope.to);
        let ping = back.body.downcast_ref::<WirePing>().unwrap();
        prop_assert_eq!(ping.seq, seq);
        prop_assert_eq!(ping.pad.as_slice(), &pad[..]);
    }
}

/// A multi-megabyte shared window crosses the frame layer without a
/// byte out of place — the zero-copy path at checkpoint-image scale.
#[test]
fn multi_megabyte_windows_round_trip() {
    let big: Vec<u8> = (0..3 * 1024 * 1024u32).map(|i| i.wrapping_mul(2654435761) as u8).collect();
    let shared = vec![Bytes::from(big.clone()), Bytes::from(vec![0xAB; 1024 * 1024])];
    let mut wire = Vec::new();
    write_frame(&mut wire, FrameClass::Data, 1, b"meta", b"head", &shared).unwrap();
    assert_eq!(wire.len(), HEADER_LEN + 4 + 4 + big.len() + 1024 * 1024);

    let frame = read_frame(&mut Cursor::new(&wire), MAX_FRAME).unwrap();
    assert_eq!(frame.meta.as_slice(), b"meta");
    assert_eq!(&frame.body.as_slice()[..4], b"head");
    assert_eq!(&frame.body.as_slice()[4..4 + big.len()], &big[..]);
    assert!(frame.body.as_slice()[4 + big.len()..].iter().all(|&b| b == 0xAB));
}

/// A multi-megabyte checkpoint through the *full* codec: envelope in,
/// bytes on the wire, envelope out, checksum intact.
#[test]
fn multi_megabyte_checkpoint_survives_the_codec() {
    use oftt::checkpoint::{fold_digests, var_digest, Checkpoint, CheckpointPayload, VarSet};
    use oftt::messages::FtimPeerMsg;

    let mut vars = VarSet::new();
    for i in 0..64 {
        let len = 64 * 1024 + i;
        vars.insert(format!("blk{i:03}"), Bytes::from(vec![(i & 0xFF) as u8; len]));
    }
    let crc = fold_digests(vars.iter().map(|(n, b)| var_digest(n, b.as_slice())));
    let total: usize = vars.values().map(|b| b.len()).sum();
    assert!(total > 4 * 1024 * 1024, "test must exercise multi-MB bodies");

    let codec = WireCodec::standard();
    let envelope = Envelope::new(
        Endpoint::new(NodeId(0), "oftt-engine"),
        Endpoint::new(NodeId(1), "oftt-engine"),
        FtimPeerMsg::Ckpt(Checkpoint {
            term: 5,
            seq: 40,
            taken_at: ds_sim::prelude::SimTime::ZERO,
            payload: CheckpointPayload::Full(vars.clone()),
            crc,
        }),
    );
    let (meta, payload) = codec.encode_envelope(&envelope).unwrap().unwrap();
    let mut wire = Vec::new();
    write_frame(&mut wire, payload.class, 9, &meta, &payload.head, &payload.shared).unwrap();
    let frame = read_frame(&mut Cursor::new(&wire), MAX_FRAME).unwrap();
    let back = codec.decode_frame(&frame).unwrap();
    let FtimPeerMsg::Ckpt(ckpt) = back.body.downcast_ref::<FtimPeerMsg>().unwrap() else {
        panic!("wrong variant");
    };
    assert_eq!(ckpt.term, 5);
    assert_eq!(ckpt.seq, 40);
    assert_eq!(ckpt.crc, crc);
    assert_eq!(ckpt.payload.vars().len(), vars.len());
    for (name, bytes) in ckpt.payload.vars() {
        assert_eq!(bytes.as_slice(), vars[name].as_slice(), "var {name}");
    }
}

/// Wire version 3's one change: the ack says what image the backup holds.
/// The checksum must come out of the codec as it went in, at the edges of
/// its range too.
#[test]
fn checkpoint_ack_carries_the_image_checksum_through_the_codec() {
    use oftt::messages::FtimPeerMsg;

    let codec = WireCodec::standard();
    for crc in [0, 1, u32::MAX] {
        let envelope = Envelope::new(
            Endpoint::new(NodeId(1), "app"),
            Endpoint::new(NodeId(0), "app"),
            FtimPeerMsg::CkptAck { term: 5, seq: 40, crc },
        );
        let (meta, payload) = codec.encode_envelope(&envelope).unwrap().unwrap();
        let mut wire = Vec::new();
        write_frame(&mut wire, payload.class, 9, &meta, &payload.head, &payload.shared).unwrap();
        let frame = read_frame(&mut Cursor::new(&wire), MAX_FRAME).unwrap();
        let back = codec.decode_frame(&frame).unwrap();
        let Some(&FtimPeerMsg::CkptAck { term, seq, crc: back_crc }) =
            back.body.downcast_ref::<FtimPeerMsg>()
        else {
            panic!("wrong variant");
        };
        assert_eq!((term, seq, back_crc), (5, 40, crc));
    }
}
