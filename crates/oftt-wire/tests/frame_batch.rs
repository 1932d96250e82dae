//! `FrameBatch`'s gather rule: segments shorter than 4 KiB are copied into
//! one reused buffer, longer ones are written from where they lie, and a
//! short write resumes at the next byte of the logical stream. Whatever a
//! socket accepts per call, the bytes must be exactly the frames'
//! concatenated wire forms; a large window must never be copied; and a
//! checkpoint of many small variables must leave in one `writev`.

use std::io::{self, IoSlice, Write};

use comsim::buf::Bytes;
use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::message::Envelope;
use ds_sim::prelude::SimTime;
use oftt::checkpoint::{Checkpoint, CheckpointPayload, VarSet};
use oftt::messages::FtimPeerMsg;
use oftt_wire::codec::WireCodec;
use oftt_wire::frame::{write_frame, FrameBatch, FrameClass, FrameHeader, OutFrame, HEADER_LEN};
use proptest::prelude::*;

/// The batch's cap on iovecs per call (Linux allows 1024).
const MAX_IOV: usize = 64;
/// The gather threshold the batch documents.
const GATHER_BELOW: usize = 4 * 1024;

/// Deterministic filler, so large windows cost no strategy draws.
fn filled(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add((i % 251) as u8)).collect()
}

/// The frame's wire form, built independently of `FrameBatch`.
fn reference_bytes(frame: &OutFrame, epoch: u32) -> Vec<u8> {
    let body_len = frame.head.len() + frame.shared.iter().map(Bytes::len).sum::<usize>();
    let header = FrameHeader {
        class: frame.class,
        epoch,
        meta_len: frame.meta.len() as u32,
        body_len: body_len as u32,
    };
    let mut out = header.encode().to_vec();
    out.extend_from_slice(&frame.meta);
    out.extend_from_slice(&frame.head);
    for window in &frame.shared {
        out.extend_from_slice(window.as_slice());
    }
    out
}

fn clone_frame(frame: &OutFrame) -> OutFrame {
    OutFrame {
        class: frame.class,
        meta: frame.meta.clone(),
        head: frame.head.clone(),
        shared: frame.shared.clone(),
    }
}

/// A socket that takes a random number of bytes per call and now and then
/// has no room at all.
struct ChoppyWriter {
    out: Vec<u8>,
    state: u64,
    max_take: usize,
}

impl ChoppyWriter {
    fn next(&mut self) -> u64 {
        // xorshift64
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }
}

impl Write for ChoppyWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        assert!(bufs.len() <= MAX_IOV, "{} iovecs in one call", bufs.len());
        if self.next().is_multiple_of(4) {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
        }
        let mut budget = 1 + (self.next() as usize) % self.max_take;
        let mut n = 0;
        for b in bufs {
            let take = budget.min(b.len());
            self.out.extend_from_slice(&b[..take]);
            budget -= take;
            n += take;
        }
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One window: mostly either side of the gather threshold, sometimes
/// right at it.
fn window_len() -> impl Strategy<Value = usize> {
    prop_oneof![0..2 * GATHER_BELOW, GATHER_BELOW - 2..GATHER_BELOW + 2, 0..64usize]
}

fn frame_strategy() -> impl Strategy<Value = OutFrame> {
    (
        prop_oneof![Just(FrameClass::Data), Just(FrameClass::Heartbeat)],
        0..80usize,
        prop_oneof![0..64usize, 0..3 * GATHER_BELOW],
        prop::collection::vec(window_len(), 0..201),
        any::<u8>(),
    )
        .prop_map(|(class, meta, head, windows, seed)| OutFrame {
            class,
            meta: filled(meta, seed),
            head: filled(head, seed ^ 0x55),
            shared: windows
                .iter()
                .enumerate()
                .map(|(i, &len)| Bytes::from(filled(len, seed.wrapping_add(i as u8))))
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn any_chopping_of_the_stream_yields_the_frames_wire_bytes(
        frames in prop::collection::vec(frame_strategy(), 1..4),
        max_take in prop_oneof![1..2_000usize, 1..20_000usize, 1..200_000usize],
        seed in 1..u64::MAX,
        epoch in any::<u32>(),
    ) {
        let mut expected = Vec::new();
        for frame in &frames {
            let reference = reference_bytes(frame, epoch);
            let mut blocking = Vec::new();
            write_frame(&mut blocking, frame.class, epoch, &frame.meta, &frame.head, &frame.shared)
                .unwrap();
            prop_assert_eq!(&blocking, &reference);
            expected.extend_from_slice(&reference);
        }

        let mut batch = FrameBatch::new();
        let mut w = ChoppyWriter { out: Vec::new(), state: seed, max_take };
        let mut queued = frames.iter();
        let mut popped = 0usize;
        // Frames join while earlier ones are mid-write, as on a socket.
        batch.push(clone_frame(queued.next().unwrap()), epoch).unwrap();
        loop {
            if w.next().is_multiple_of(3) {
                if let Some(frame) = queued.next() {
                    batch.push(clone_frame(frame), epoch).unwrap();
                }
            }
            if batch.is_empty() {
                match queued.next() {
                    Some(frame) => batch.push(clone_frame(frame), epoch).unwrap(),
                    None => break,
                }
            }
            match batch.write_once(&mut w) {
                Ok(n) => prop_assert!(n > 0),
                Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
            while batch.pop_written().is_some() {
                popped += 1;
            }
        }
        prop_assert_eq!(popped, frames.len());
        prop_assert_eq!(batch.pending_bytes(), 0);
        prop_assert_eq!(w.out.len(), expected.len());
        prop_assert!(w.out == expected, "stream differs from the frames' wire bytes");
    }
}

/// Accepts up to `per_call` bytes per call and records the address and
/// accepted length of every iovec.
struct RecordingWriter {
    per_call: usize,
    calls: usize,
    out: Vec<u8>,
    taken: Vec<(usize, usize)>,
}

impl Write for RecordingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.calls += 1;
        let mut budget = self.per_call;
        let mut n = 0;
        for b in bufs {
            let take = budget.min(b.len());
            if take > 0 {
                self.taken.push((b.as_ptr() as usize, take));
                self.out.extend_from_slice(&b[..take]);
            }
            budget -= take;
            n += take;
        }
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn drain(batch: &mut FrameBatch, w: &mut impl Write) {
    while !batch.is_empty() {
        batch.write_once(w).unwrap();
        while batch.pop_written().is_some() {}
    }
}

#[test]
fn windows_of_4_kib_or_more_reach_the_socket_uncopied() {
    let sizes = [64usize, 4095, 4096, 10, 70_000, 3, 8192, 4097, 0, 100_000];
    let shared: Vec<Bytes> =
        sizes.iter().enumerate().map(|(i, &n)| Bytes::from(filled(n, i as u8))).collect();
    let frame = OutFrame { class: FrameClass::Data, meta: vec![1; 40], head: vec![2; 300], shared };
    let expected = reference_bytes(&frame, 7);
    // Whole writes, and writes cut at awkward places, including inside the
    // large windows so a resume starts mid-window.
    for per_call in [usize::MAX, 5_000, 4_096, 777] {
        let mut batch = FrameBatch::new();
        batch.push(clone_frame(&frame), 7).unwrap();
        let mut w = RecordingWriter { per_call, calls: 0, out: Vec::new(), taken: Vec::new() };
        drain(&mut batch, &mut w);
        assert_eq!(w.out, expected, "per_call={per_call}");
        for window in frame.shared.iter().filter(|b| b.len() >= GATHER_BELOW) {
            let start = window.as_slice().as_ptr() as usize;
            let end = start + window.len();
            let by_pointer: usize =
                w.taken.iter().filter(|(at, _)| (start..end).contains(at)).map(|(_, n)| n).sum();
            assert_eq!(
                by_pointer,
                window.len(),
                "a {} B window was copied (per_call={per_call})",
                window.len()
            );
        }
    }
}

#[test]
fn a_100_variable_checkpoint_leaves_in_one_writev() {
    let vars: VarSet =
        (0..100).map(|v| (format!("v{v:04}"), Bytes::from(filled(64, v as u8)))).collect();
    let ckpt = Checkpoint {
        term: 1,
        seq: 9,
        taken_at: SimTime::from_micros(9),
        payload: CheckpointPayload::Delta(vars),
        crc: 0,
    };
    let envelope = Envelope::new(
        Endpoint::new(NodeId(1), "app"),
        Endpoint::new(NodeId(0), "echo"),
        FtimPeerMsg::Ckpt(ckpt),
    );
    let codec = WireCodec::standard();
    let mut meta = Vec::new();
    let payload = codec.encode_envelope_into(&envelope, &mut meta).unwrap().unwrap();
    assert_eq!(payload.shared.len(), 100, "each variable rides as its own window");
    let frame = OutFrame { class: payload.class, meta, head: payload.head, shared: payload.shared };
    let wire_len = frame.wire_len();
    assert!(wire_len > HEADER_LEN as u64 + 100 * 64);

    let mut batch = FrameBatch::new();
    batch.push(frame, 1).unwrap();
    let mut w =
        RecordingWriter { per_call: usize::MAX, calls: 0, out: Vec::new(), taken: Vec::new() };
    drain(&mut batch, &mut w);
    assert_eq!(w.calls, 1, "103 segments should leave in one write_vectored");
    assert_eq!(w.taken.len(), 1, "every segment is short, so all are one gathered iovec");
    assert_eq!(w.out.len() as u64, wire_len);
}
