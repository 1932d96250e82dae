//! The wire frame: an 18-byte header followed by a marshaled envelope
//! meta block and an opaque message body.
//!
//! ```text
//! +------+---------+-------+-----------+----------+----------+
//! | OFTW | version | class | epoch u32 | meta u32 | body u32 |  header
//! +------+---------+-------+-----------+----------+----------+
//! | meta bytes (marshal(FrameMeta))                          |
//! | body bytes (codec-tagged payload)                        |
//! +----------------------------------------------------------+
//! ```
//!
//! All integers are little-endian, matching `comsim::marshal`. Frames
//! leave through one writer, [`FrameBatch`]: it gathers segments shorter
//! than 4 KiB into a reused 32 KiB buffer and points an iovec at each
//! longer one, so a checkpoint delta of many small variables leaves in one
//! `writev` and a large variable's [`Bytes`] window reaches the socket
//! without being copied.

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

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;

use comsim::buf::Bytes;
use comsim::marshal::MarshalError;
use comsim::pool::BufPool;

/// Frame magic: `OFTW`.
pub const MAGIC: [u8; 4] = *b"OFTW";
/// Current protocol version. The framing has never changed; the number
/// names what travels inside checkpoint-channel bodies and both ends must
/// read alike. Version 3: `FtimPeerMsg::CkptAck` carries the backup's
/// image checksum, which the primary compares with what it shipped. A
/// version 2 peer's acks lack the field, so a mixed pair would form and
/// then never confirm an image. Version 2 named the checkpoint checksum
/// (`oftt::checkpoint::fold_digests`); version 1 peers folded digests
/// through Fletcher-32 in name order, and a pair mixing those would refuse
/// every checkpoint as corrupt. Either way the pair is refused here, at
/// the first header, instead.
pub const VERSION: u8 = 3;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 18;
/// Hard cap on the marshaled meta block.
pub const MAX_META_BYTES: u32 = 64 * 1024;
/// Default cap on `meta_len + body_len` (checkpoint images dominate).
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Scheduling class of a frame, carried in the header so backpressure can
/// shed the right traffic without decoding bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// Application/protocol data; queued and retried while connected.
    Data = 0,
    /// Periodic liveness traffic; first to be shed under backpressure and
    /// never queued across a disconnect (a late heartbeat is a lie).
    Heartbeat = 1,
    /// Connection-establishment exchange; never queued.
    Handshake = 2,
}

impl FrameClass {
    fn from_byte(b: u8) -> Option<FrameClass> {
        match b {
            0 => Some(FrameClass::Data),
            1 => Some(FrameClass::Heartbeat),
            2 => Some(FrameClass::Handshake),
            _ => None,
        }
    }
}

/// Protocol-level (non-IO) wire failures.
#[derive(Debug)]
pub enum WireError {
    /// The stream did not start with [`MAGIC`] — peer desync or garbage.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame class byte.
    BadClass(u8),
    /// Header advertises a frame larger than the configured cap.
    FrameTooLarge {
        /// Advertised meta + body length.
        len: u64,
        /// The receiver's cap.
        max: u32,
    },
    /// Header advertises a meta block over [`MAX_META_BYTES`].
    MetaTooLarge(u32),
    /// Meta or body failed to unmarshal.
    Marshal(MarshalError),
    /// The body's codec tag is not registered.
    UnknownTag(u32),
    /// A checkpoint body's declared variable windows do not tile its
    /// payload bytes.
    BodyMismatch {
        /// Bytes the skeleton claims.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The connection handshake was malformed.
    Handshake(String),
}

impl From<MarshalError> for WireError {
    fn from(e: MarshalError) -> Self {
        WireError::Marshal(e)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadClass(c) => write!(f, "unknown frame class {c}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap {max}")
            }
            WireError::MetaTooLarge(len) => write!(f, "meta block of {len} bytes exceeds cap"),
            WireError::Marshal(e) => write!(f, "unmarshal failed: {e}"),
            WireError::UnknownTag(t) => write!(f, "unregistered body tag {t}"),
            WireError::BodyMismatch { expected, actual } => {
                write!(f, "checkpoint body claims {expected} bytes, carries {actual}")
            }
            WireError::Handshake(why) => write!(f, "handshake rejected: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A frame-read failure: either the socket broke or the peer sent
/// something unframeable. The supervisor treats both as fatal for the
/// connection (a desynced length-prefixed stream cannot be resynced), but
/// the distinction drives what gets traced.
#[derive(Debug)]
pub enum ReadError {
    /// Socket-level failure (closed, reset, timeout).
    Io(io::Error),
    /// Framing-level failure.
    Protocol(WireError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "io: {e}"),
            ReadError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

/// Decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Scheduling class.
    pub class: FrameClass,
    /// Sender's connection epoch at write time.
    pub epoch: u32,
    /// Marshaled meta length.
    pub meta_len: u32,
    /// Body length.
    pub body_len: u32,
}

/// Reads the byte at `at`, or 0 past the end. The header layout only
/// ever asks for offsets below [`HEADER_LEN`], so the fallback is dead
/// code — it exists so the accessor cannot panic.
fn byte_at(raw: &[u8; HEADER_LEN], at: usize) -> u8 {
    raw.get(at).copied().unwrap_or(0)
}

/// Reads the little-endian u32 at `at` without indexing into `raw`.
fn word_at(raw: &[u8; HEADER_LEN], at: usize) -> u32 {
    let mut word = [0u8; 4];
    for (i, slot) in word.iter_mut().enumerate() {
        *slot = byte_at(raw, at + i);
    }
    u32::from_le_bytes(word)
}

impl FrameHeader {
    /// Encodes the header into its fixed wire form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        let bytes = MAGIC
            .into_iter()
            .chain([VERSION, self.class as u8])
            .chain(self.epoch.to_le_bytes())
            .chain(self.meta_len.to_le_bytes())
            .chain(self.body_len.to_le_bytes());
        for (slot, byte) in out.iter_mut().zip(bytes) {
            *slot = byte;
        }
        out
    }

    /// Decodes and validates a header against `max_frame`.
    pub fn decode(raw: &[u8; HEADER_LEN], max_frame: u32) -> Result<FrameHeader, WireError> {
        let mut magic = [0u8; 4];
        for (slot, byte) in magic.iter_mut().zip(raw.iter()) {
            *slot = *byte;
        }
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = byte_at(raw, 4);
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let class_byte = byte_at(raw, 5);
        let class = FrameClass::from_byte(class_byte).ok_or(WireError::BadClass(class_byte))?;
        let epoch = word_at(raw, 6);
        let meta_len = word_at(raw, 10);
        let body_len = word_at(raw, 14);
        if meta_len > MAX_META_BYTES {
            return Err(WireError::MetaTooLarge(meta_len));
        }
        let total = meta_len as u64 + body_len as u64;
        if total > max_frame as u64 {
            return Err(WireError::FrameTooLarge { len: total, max: max_frame });
        }
        Ok(FrameHeader { class, epoch, meta_len, body_len })
    }
}

/// A received frame. `meta` and `body` are zero-copy windows of one
/// receive allocation.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The validated header.
    pub header: FrameHeader,
    /// Marshaled [`crate::codec::FrameMeta`].
    pub meta: Bytes,
    /// Codec-tagged payload.
    pub body: Bytes,
}

/// Blocking-reads one frame. Any failure poisons the stream: a
/// length-prefixed protocol has no resync point, so the caller must drop
/// the connection on `Err` (it never panics — malformed input is an
/// ordinary error here).
#[expect(clippy::disallowed_methods, reason = "the dialer's handshake read, on its own thread")]
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Frame, ReadError> {
    let mut raw = [0u8; HEADER_LEN];
    r.read_exact(&mut raw).map_err(ReadError::Io)?;
    let header = FrameHeader::decode(&raw, max_frame).map_err(ReadError::Protocol)?;
    let mut payload = vec![0u8; header.meta_len as usize + header.body_len as usize];
    r.read_exact(&mut payload).map_err(ReadError::Io)?;
    let payload = Bytes::from(payload);
    let (meta, body) = split_payload(&payload, header.meta_len)?;
    Ok(Frame { header, meta, body })
}

/// Splits a frame payload into its meta and body windows without any
/// panic path: the windows are in bounds by construction (the payload
/// buffer is allocated from the same header fields), but this module's
/// panic lints must not rest on that invariant holding in a different
/// crate.
fn split_payload(payload: &Bytes, meta_len: u32) -> Result<(Bytes, Bytes), ReadError> {
    let meta_len = meta_len as usize;
    payload.try_slice(..meta_len).zip(payload.try_slice(meta_len..)).ok_or(ReadError::Protocol(
        WireError::BodyMismatch { expected: meta_len as u64, actual: payload.len() as u64 },
    ))
}

/// Blocking-writes one frame: header, meta, `head`, then each shared
/// [`Bytes`] window in order, through a one-frame [`FrameBatch`], so the
/// reactor's gather rule is the only one. Returns the total bytes written.
pub fn write_frame(
    w: &mut impl Write,
    class: FrameClass,
    epoch: u32,
    meta: &[u8],
    head: &[u8],
    shared: &[Bytes],
) -> io::Result<u64> {
    let frame =
        OutFrame { class, meta: meta.to_vec(), head: head.to_vec(), shared: shared.to_vec() };
    let mut batch = FrameBatch::new();
    batch
        .push(frame, epoch)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame body over 4GiB"))?;
    let total = batch.pending_bytes();
    while !batch.is_empty() {
        batch.write_once(w)?;
        batch.pop_written();
    }
    Ok(total)
}

/// One read-step outcome from a [`FrameAssembler`].
#[derive(Debug)]
pub enum ReadStep {
    /// A complete frame was assembled.
    Frame(Frame),
    /// The socket has no more bytes right now (`WouldBlock`); poll again
    /// on readability.
    NeedMore,
    /// The peer closed the stream cleanly on a frame boundary.
    Closed,
}

enum AsmState {
    Header { raw: [u8; HEADER_LEN], have: usize },
    Payload { header: FrameHeader, buf: Vec<u8>, have: usize },
}

/// Incremental frame parser for nonblocking sockets.
///
/// [`read_frame`] assumes a blocking stream and two `read_exact`s; a
/// reactor cannot block, and a readiness notification may deliver half a
/// header or a megabyte mid-body. The assembler carries the partial
/// state across calls: feed it the socket whenever it is readable and it
/// emits complete frames, [`ReadStep::NeedMore`] on `WouldBlock`, or
/// [`ReadStep::Closed`] on a clean EOF. Mid-frame EOF and framing errors
/// are real errors — a desynced length-prefixed stream has no resync
/// point, exactly as in the blocking path.
///
/// The payload staging buffer is drawn from the shared [`BufPool`] when
/// a header completes and returned when the frame is emitted, so the
/// steady-state read path performs no heap allocation beyond the single
/// shared-`Bytes` copy that makes every later hop zero-copy.
pub struct FrameAssembler {
    max_frame: u32,
    pool: Arc<BufPool>,
    state: AsmState,
}

impl FrameAssembler {
    /// An assembler enforcing `max_frame` as the meta+body cap, staging
    /// payload bytes through `pool`.
    pub fn new(max_frame: u32, pool: Arc<BufPool>) -> Self {
        FrameAssembler {
            max_frame,
            pool,
            state: AsmState::Header { raw: [0; HEADER_LEN], have: 0 },
        }
    }

    /// Advances the state machine with at most a few `read` calls,
    /// returning as soon as one frame is complete (call again — more may
    /// be buffered), the socket runs dry, or the stream ends.
    pub fn read_step(&mut self, r: &mut impl Read) -> Result<ReadStep, ReadError> {
        loop {
            match &mut self.state {
                AsmState::Header { raw, have } => {
                    if *have < HEADER_LEN {
                        let at_boundary = *have == 0;
                        let Some(dst) = raw.get_mut(*have..) else {
                            return Ok(ReadStep::NeedMore); // unreachable: have < HEADER_LEN
                        };
                        match r.read(dst) {
                            Ok(0) => {
                                return if at_boundary {
                                    Ok(ReadStep::Closed)
                                } else {
                                    Err(ReadError::Io(io::Error::new(
                                        io::ErrorKind::UnexpectedEof,
                                        "eof inside a frame header",
                                    )))
                                };
                            }
                            Ok(n) => {
                                *have += n;
                                continue;
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                return Ok(ReadStep::NeedMore);
                            }
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => return Err(ReadError::Io(e)),
                        }
                    }
                    let header =
                        FrameHeader::decode(raw, self.max_frame).map_err(ReadError::Protocol)?;
                    let total = header.meta_len as usize + header.body_len as usize;
                    let mut buf = self.pool.take(total);
                    buf.resize(total, 0);
                    self.state = AsmState::Payload { header, buf, have: 0 };
                }
                AsmState::Payload { header, buf, have } => {
                    if *have < buf.len() {
                        let Some(dst) = buf.get_mut(*have..) else {
                            return Ok(ReadStep::NeedMore); // unreachable: have < len
                        };
                        match r.read(dst) {
                            Ok(0) => {
                                return Err(ReadError::Io(io::Error::new(
                                    io::ErrorKind::UnexpectedEof,
                                    "eof inside a frame body",
                                )));
                            }
                            Ok(n) => {
                                *have += n;
                                continue;
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                return Ok(ReadStep::NeedMore);
                            }
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => return Err(ReadError::Io(e)),
                        }
                    }
                    let header = *header;
                    let staging = std::mem::take(buf);
                    self.state = AsmState::Header { raw: [0; HEADER_LEN], have: 0 };
                    // The one accepted copy per frame: wire bytes move
                    // into a shared `Bytes` so every later hop is
                    // zero-copy, and the staging buffer goes back to
                    // the pool instead of the allocator.
                    let payload = Bytes::copy_from_slice(&staging);
                    self.pool.give(staging);
                    let (meta, body) = split_payload(&payload, header.meta_len)?;
                    return Ok(ReadStep::Frame(Frame { header, meta, body }));
                }
            }
        }
    }
}

/// An encoded frame queued for a coalesced write: everything except the
/// header, which is stamped with the connection's epoch when the frame
/// joins a [`FrameBatch`] (frames queued across a reconnect must carry
/// the *new* connection's epoch).
#[derive(Debug)]
pub struct OutFrame {
    /// Scheduling class.
    pub class: FrameClass,
    /// Marshaled meta block.
    pub meta: Vec<u8>,
    /// Contiguous body prefix.
    pub head: Vec<u8>,
    /// Zero-copy body suffix windows.
    pub shared: Vec<Bytes>,
}

impl OutFrame {
    /// Total bytes this frame occupies on the wire, header included.
    pub fn wire_len(&self) -> u64 {
        HEADER_LEN as u64
            + self.meta.len() as u64
            + self.head.len() as u64
            + self.shared.iter().map(|b| b.len() as u64).sum::<u64>()
    }
}

struct BatchEntry {
    header: [u8; HEADER_LEN],
    frame: OutFrame,
    len: u64,
}

/// Hard cap on iovec segments per `write_vectored` call (Linux allows
/// 1024; staying far below keeps the per-call stack cost small).
const MAX_IOV: usize = 64;
/// Segments shorter than this are copied into the batch's gather buffer;
/// longer ones are written from where they lie.
const GATHER_BELOW: usize = 4 * 1024;
/// Cap on the gather buffer. Past it, short segments go by reference too.
const GATHER_CAP: usize = 32 * 1024;

/// One planned iovec: a range of the gather buffer or a borrowed segment.
#[derive(Clone, Copy)]
enum Piece<'a> {
    Gathered(usize, usize),
    Borrowed(&'a [u8]),
}

/// Coalesces queued frames into vectored mega-writes with partial-write
/// resumption.
///
/// The reactor pushes any number of encoded frames, then calls
/// [`FrameBatch::write_once`] whenever the socket is writable. Each call
/// walks the unwritten tail in order and copies every segment shorter
/// than 4 KiB into a gather buffer the batch owns and reuses, capped at
/// 32 KiB; each run of copied segments becomes one iovec, and a longer
/// segment, or one past the cap, is pointed at where it lies. So a
/// 100-variable checkpoint of 64-byte windows leaves in one `writev`,
/// while a large variable is never copied. One `write_vectored` spans as
/// many queued frames as fit in `MAX_IOV` iovecs, and a short write —
/// even one that splits a header — is resumed exactly where it stopped
/// on the next call, which gathers afresh from that byte. Fully written
/// frames are handed back through [`FrameBatch::pop_written`] so their
/// buffers can return to the pool.
#[derive(Default)]
pub struct FrameBatch {
    entries: VecDeque<BatchEntry>,
    /// Bytes of the front entry already written.
    offset: u64,
    /// Copies of the short segments of the current `write_once`; its
    /// capacity is [`GATHER_CAP`] from the first call on.
    gather: Vec<u8>,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> Self {
        FrameBatch::default()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Frames currently queued (including the partially written front).
    pub fn frames(&self) -> usize {
        self.entries.len()
    }

    /// Bytes not yet on the wire.
    pub fn pending_bytes(&self) -> u64 {
        let total: u64 = self.entries.iter().map(|e| e.len).sum();
        total.saturating_sub(self.offset)
    }

    /// Stamps `frame` with `epoch` and queues it.
    ///
    /// # Errors
    ///
    /// Rejects bodies over 4 GiB (the header's length field is `u32`).
    pub fn push(&mut self, frame: OutFrame, epoch: u32) -> Result<(), WireError> {
        let body_len =
            frame.head.len() as u64 + frame.shared.iter().map(|b| b.len() as u64).sum::<u64>();
        let body_len = u32::try_from(body_len)
            .map_err(|_| WireError::FrameTooLarge { len: body_len, max: u32::MAX })?;
        let header =
            FrameHeader { class: frame.class, epoch, meta_len: frame.meta.len() as u32, body_len };
        let len = HEADER_LEN as u64 + header.meta_len as u64 + body_len as u64;
        self.entries.push_back(BatchEntry { header: header.encode(), frame, len });
        Ok(())
    }

    /// Issues one `write_vectored` spanning the unwritten tail, starting
    /// mid-frame if the previous call stopped there. Returns the bytes
    /// accepted (0 only for an empty batch). `WouldBlock` propagates as
    /// an error for the caller to interpret; a 0-byte write on a
    /// non-empty batch is reported as `WriteZero`.
    pub fn write_once(&mut self, w: &mut impl Write) -> io::Result<u64> {
        // Both scratch arrays live on the stack (~2.5 KiB), and the gather
        // buffer is sized once, to its cap, so after the first call the
        // write path never touches the allocator.
        let mut plan = [Piece::Borrowed(&[]); MAX_IOV];
        let mut used = 0usize;
        let mut skip = self.offset;
        let gather = &mut self.gather;
        gather.clear();
        gather.reserve_exact(GATHER_CAP);
        'fill: for entry in &self.entries {
            let segments =
                [entry.header.as_slice(), entry.frame.meta.as_slice(), entry.frame.head.as_slice()];
            let shared = entry.frame.shared.iter().map(|b| b.as_slice());
            for seg in segments.into_iter().chain(shared) {
                let len = seg.len() as u64;
                if skip >= len {
                    skip -= len;
                    continue;
                }
                // `skip < len`, so the window is nonempty; `get` keeps
                // the path panic-free.
                let rest = seg.get(skip as usize..).unwrap_or(&[]);
                skip = 0;
                let start = gather.len();
                if seg.len() < GATHER_BELOW && start + rest.len() <= GATHER_CAP {
                    let end = start + rest.len();
                    match used.checked_sub(1).and_then(|last| plan.get_mut(last)) {
                        // Only gather runs grow the buffer, so a run just
                        // before this copy ends where it starts.
                        Some(Piece::Gathered(_, run_end)) => *run_end = end,
                        _ => {
                            let Some(slot) = plan.get_mut(used) else {
                                break 'fill; // used == MAX_IOV
                            };
                            *slot = Piece::Gathered(start, end);
                            used += 1;
                        }
                    }
                    gather.extend_from_slice(rest);
                } else {
                    let Some(slot) = plan.get_mut(used) else {
                        break 'fill; // used == MAX_IOV
                    };
                    *slot = Piece::Borrowed(rest);
                    used += 1;
                }
            }
        }
        if used == 0 {
            return Ok(0);
        }
        let mut iov = [IoSlice::new(&[]); MAX_IOV];
        for (slot, piece) in iov.iter_mut().zip(plan.iter().take(used)) {
            *slot = IoSlice::new(match *piece {
                Piece::Gathered(start, end) => self.gather.get(start..end).unwrap_or(&[]),
                Piece::Borrowed(seg) => seg,
            });
        }
        let n = w.write_vectored(iov.get(..used).unwrap_or(&[]))?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::WriteZero, "socket accepted 0 bytes"));
        }
        self.offset += n as u64;
        Ok(n as u64)
    }

    /// Pops the next fully written frame, if any, so its buffers can be
    /// recycled. Call repeatedly after [`FrameBatch::write_once`].
    pub fn pop_written(&mut self) -> Option<OutFrame> {
        let front_len = self.entries.front().map(|e| e.len)?;
        if self.offset < front_len {
            return None;
        }
        self.offset -= front_len;
        self.entries.pop_front().map(|e| e.frame)
    }

    /// Drains every queued frame (written or not) — used on teardown so
    /// the caller can count and recycle them.
    pub fn purge(&mut self) -> Vec<OutFrame> {
        self.offset = 0;
        self.entries.drain(..).map(|e| e.frame).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = FrameHeader { class: FrameClass::Data, epoch: 7, meta_len: 40, body_len: 1000 };
        let back = FrameHeader::decode(&h.encode(), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn frame_round_trips_through_a_pipe() {
        let meta = vec![1u8, 2, 3];
        let head = vec![9u8];
        let shared = vec![Bytes::from(vec![4u8; 10]), Bytes::from(vec![5u8; 5])];
        let mut wire = Vec::new();
        let n = write_frame(&mut wire, FrameClass::Heartbeat, 3, &meta, &head, &shared).unwrap();
        assert_eq!(n, wire.len() as u64);
        let frame = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(frame.header.class, FrameClass::Heartbeat);
        assert_eq!(frame.header.epoch, 3);
        assert_eq!(frame.meta.as_slice(), &meta[..]);
        let mut body = head.clone();
        body.extend_from_slice(&[4u8; 10]);
        body.extend_from_slice(&[5u8; 5]);
        assert_eq!(frame.body.as_slice(), &body[..]);
    }

    #[test]
    fn oversized_and_garbage_headers_are_rejected_not_panicked() {
        let mut h =
            FrameHeader { class: FrameClass::Data, epoch: 0, meta_len: 0, body_len: u32::MAX }
                .encode();
        assert!(matches!(FrameHeader::decode(&h, 1024), Err(WireError::FrameTooLarge { .. })));
        h[0] = b'X';
        assert!(matches!(FrameHeader::decode(&h, 1024), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn other_wire_versions_are_refused_at_the_header() {
        let mut h =
            FrameHeader { class: FrameClass::Handshake, epoch: 1, meta_len: 4, body_len: 0 }
                .encode();
        assert_eq!(h[4], VERSION);
        assert_eq!(VERSION, 3);
        for other in [0u8, 1, 2, 4] {
            h[4] = other;
            assert!(matches!(
                FrameHeader::decode(&h, DEFAULT_MAX_FRAME_BYTES),
                Err(WireError::BadVersion(v)) if v == other
            ));
        }
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameClass::Data, 0, &[1, 2], &[3, 4, 5], &[]).unwrap();
        wire.truncate(wire.len() - 2);
        let err = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap_err();
        assert!(matches!(err, ReadError::Io(_)));
    }

    /// Yields at most `chunk` bytes per read and interleaves WouldBlock
    /// between reads, like a socket drip-feeding under load.
    struct DribbleReader {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        starve_next: bool,
    }

    impl Read for DribbleReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.starve_next {
                self.starve_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "dry"));
            }
            self.starve_next = true;
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn sample_wire(frames: &[(FrameClass, u32, Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut wire = Vec::new();
        for (class, epoch, meta, body) in frames {
            write_frame(&mut wire, *class, *epoch, meta, body, &[]).unwrap();
        }
        wire
    }

    #[test]
    fn assembler_reassembles_dribbled_bytes() {
        let spec = vec![
            (FrameClass::Handshake, 1, vec![7u8; 30], vec![]),
            (FrameClass::Data, 2, vec![1u8, 2], vec![9u8; 300]),
            (FrameClass::Heartbeat, 2, vec![], vec![5u8]),
        ];
        for chunk in [1usize, 3, 17, 4096] {
            let mut r =
                DribbleReader { data: sample_wire(&spec), pos: 0, chunk, starve_next: false };
            let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES, Arc::new(BufPool::new()));
            let mut got = Vec::new();
            loop {
                match asm.read_step(&mut r).unwrap() {
                    ReadStep::Frame(f) => got.push(f),
                    ReadStep::NeedMore => continue,
                    ReadStep::Closed => break,
                }
            }
            assert_eq!(got.len(), spec.len(), "chunk={chunk}");
            for (frame, (class, epoch, meta, body)) in got.iter().zip(&spec) {
                assert_eq!(frame.header.class, *class);
                assert_eq!(frame.header.epoch, *epoch);
                assert_eq!(frame.meta.as_slice(), &meta[..]);
                assert_eq!(frame.body.as_slice(), &body[..]);
            }
        }
    }

    #[test]
    fn assembler_recycles_staging_buffers_through_the_pool() {
        let spec = vec![
            (FrameClass::Data, 1, vec![1u8, 2], vec![9u8; 300]),
            (FrameClass::Data, 2, vec![3u8], vec![8u8; 280]),
            (FrameClass::Data, 3, vec![4u8], vec![7u8; 310]),
        ];
        let pool = Arc::new(BufPool::new());
        let mut r = io::Cursor::new(sample_wire(&spec));
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES, Arc::clone(&pool));
        let mut frames = 0;
        loop {
            match asm.read_step(&mut r).unwrap() {
                ReadStep::Frame(_) => frames += 1,
                ReadStep::NeedMore => continue,
                ReadStep::Closed => break,
            }
        }
        assert_eq!(frames, spec.len());
        let stats = pool.stats();
        // One take+give per frame; every take after the first is served
        // from the shelf the previous frame's buffer went back to.
        assert_eq!(stats.takes, spec.len() as u64);
        assert_eq!(stats.gives, spec.len() as u64);
        assert_eq!(stats.hits, spec.len() as u64 - 1);
    }

    #[test]
    fn assembler_mid_frame_eof_is_an_error_and_boundary_eof_is_closed() {
        let wire = sample_wire(&[(FrameClass::Data, 1, vec![1], vec![2, 3])]);
        // Boundary EOF after a complete frame → Closed.
        let mut r = io::Cursor::new(wire.clone());
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES, Arc::new(BufPool::new()));
        assert!(matches!(asm.read_step(&mut r).unwrap(), ReadStep::Frame(_)));
        assert!(matches!(asm.read_step(&mut r).unwrap(), ReadStep::Closed));
        // EOF mid-header and mid-body → UnexpectedEof.
        for cut in [5usize, wire.len() - 1] {
            let mut r = io::Cursor::new(wire[..cut].to_vec());
            let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES, Arc::new(BufPool::new()));
            let err = asm.read_step(&mut r).unwrap_err();
            assert!(
                matches!(err, ReadError::Io(ref e) if e.kind() == io::ErrorKind::UnexpectedEof)
            );
        }
    }

    fn out_frame(class: FrameClass, meta: Vec<u8>, head: Vec<u8>, shared: Vec<Bytes>) -> OutFrame {
        OutFrame { class, meta, head, shared }
    }

    /// Accepts at most `per_call` bytes per write, so every frame (and
    /// most headers) is split across many calls.
    struct ThrottledWriter {
        out: Vec<u8>,
        per_call: usize,
    }

    impl Write for ThrottledWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.per_call.min(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn batch_resumes_partial_writes_split_mid_frame() {
        for per_call in [1usize, 3, 7] {
            let mut batch = FrameBatch::new();
            batch
                .push(
                    out_frame(
                        FrameClass::Data,
                        vec![1, 2, 3],
                        vec![4; 40],
                        vec![Bytes::from(vec![5u8; 100]), Bytes::from(vec![6u8; 9])],
                    ),
                    11,
                )
                .unwrap();
            batch.push(out_frame(FrameClass::Heartbeat, vec![7], vec![], vec![]), 11).unwrap();
            batch
                .push(
                    out_frame(
                        FrameClass::Data,
                        vec![],
                        vec![8; 5],
                        vec![Bytes::from(vec![9u8; 64])],
                    ),
                    12,
                )
                .unwrap();
            let expect_bytes = batch.pending_bytes();
            let mut w = ThrottledWriter { out: Vec::new(), per_call };
            let mut recycled = 0usize;
            while !batch.is_empty() {
                let n = batch.write_once(&mut w).unwrap();
                assert!(n > 0 && n <= per_call as u64);
                while batch.pop_written().is_some() {
                    recycled += 1;
                }
            }
            assert_eq!(recycled, 3);
            assert_eq!(w.out.len() as u64, expect_bytes, "per_call={per_call}");
            // The byte stream re-parses into exactly the pushed frames.
            let mut r = w.out.as_slice();
            let f1 = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(f1.header.epoch, 11);
            assert_eq!(f1.meta.as_slice(), &[1, 2, 3]);
            assert_eq!(f1.body.len(), 40 + 100 + 9);
            let f2 = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(f2.header.class, FrameClass::Heartbeat);
            let f3 = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(f3.header.epoch, 12);
            assert_eq!(f3.body.len(), 5 + 64);
            assert!(r.is_empty());
        }
    }

    /// Counts write calls while accepting everything offered.
    struct CountingWriter {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for b in bufs {
                self.out.extend_from_slice(b);
                n += b.len();
            }
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn batch_coalesces_many_frames_into_one_vectored_write() {
        let mut batch = FrameBatch::new();
        for i in 0..10u8 {
            batch.push(out_frame(FrameClass::Data, vec![i], vec![i; 8], vec![]), 1).unwrap();
        }
        let mut w = CountingWriter { out: Vec::new(), calls: 0 };
        while !batch.is_empty() {
            batch.write_once(&mut w).unwrap();
            while batch.pop_written().is_some() {}
        }
        assert_eq!(w.calls, 1, "10 frames should leave in one mega-write");
        let mut r = w.out.as_slice();
        for i in 0..10u8 {
            let f = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(f.meta.as_slice(), &[i]);
        }
    }

    #[test]
    fn batch_purge_returns_everything_and_resets() {
        let mut batch = FrameBatch::new();
        batch.push(out_frame(FrameClass::Data, vec![1], vec![2], vec![]), 1).unwrap();
        batch.push(out_frame(FrameClass::Heartbeat, vec![], vec![], vec![]), 1).unwrap();
        let mut w = ThrottledWriter { out: Vec::new(), per_call: 4 };
        batch.write_once(&mut w).unwrap();
        let purged = batch.purge();
        assert_eq!(purged.len(), 2);
        assert!(batch.is_empty());
        assert_eq!(batch.pending_bytes(), 0);
    }
}
