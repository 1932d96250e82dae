//! Reactor load behavior: backpressure shedding policy under a stalled
//! reader, the O(1)-thread guarantee under a thousand connections, and
//! the saturation floor under 128 streaming applications.
//! (Partial-write resumption is covered by unit tests in `frame.rs` and
//! `reactor.rs`, where the write path can be driven byte-by-byte.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use comsim::buf::Bytes;
use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::message::Envelope;
use ds_net::transport::TransportEvent;
use ds_sim::prelude::SimTime;
use ds_sim::trace::TraceCategory;
use oftt::checkpoint::{fold_digests, var_digest, Checkpoint, CheckpointPayload, VarSet};
use oftt::messages::FtimPeerMsg;
use oftt_wire::codec::{WireCodec, WirePing};
use oftt_wire::frame::FrameClass;
use oftt_wire::harness::RawPeer;
use oftt_wire::supervisor::{Supervisor, WireConfig, WireHandler};

struct Sink {
    delivered: Mutex<Vec<Envelope>>,
}

impl Sink {
    fn new() -> Arc<Self> {
        Arc::new(Sink { delivered: Mutex::new(Vec::new()) })
    }
}

impl WireHandler for Sink {
    fn deliver(&self, envelope: Envelope) {
        self.delivered.lock().unwrap().push(envelope);
    }
    fn peer_event(&self, _event: TransportEvent) {}
    fn record(&self, _category: TraceCategory, _message: String) {}
}

fn wait_for(cond: impl Fn() -> bool, timeout: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

fn data_envelope(to: NodeId, seq: u64, pad_bytes: usize) -> Envelope {
    Envelope::new(
        Endpoint::new(NodeId(0), "src"),
        Endpoint::new(to, "dst"),
        WirePing { seq, pad: Bytes::from(vec![0xAB; pad_bytes]) },
    )
}

fn heartbeat_envelope(to: NodeId) -> Envelope {
    Envelope::new(
        Endpoint::new(NodeId(0), "src"),
        Endpoint::new(to, "dst"),
        oftt::messages::PeerMsg::Heartbeat {
            node: NodeId(0),
            role: oftt::role::Role::Primary,
            term: 1,
        },
    )
}

/// A peer that handshakes and then stops reading jams the socket; the
/// bounded queue must shed heartbeats (oldest first) and only
/// heartbeats — every data frame still arrives once the peer resumes.
#[test]
fn backpressure_sheds_heartbeats_never_data() {
    const DATA_FRAMES: u64 = 40;
    const PAD: usize = 512 * 1024; // 40 x 512 KiB overflows loopback buffers
    const HEARTBEATS: usize = 400;

    let peer_id = NodeId(9);
    let mut config = WireConfig::loopback(NodeId(0));
    config.accept_unknown = true;
    config.queue_limit = 64;
    let sup = Supervisor::start(config, Arc::new(WireCodec::standard()), Sink::new()).unwrap();

    let mut peer = RawPeer::connect(&sup.local_addr().to_string(), peer_id, 1).unwrap();
    assert!(wait_for(|| sup.connected(peer_id), Duration::from_secs(3)));

    // The peer is not reading: data fills the kernel buffers and the
    // in-flight batch, heartbeats pile into the bounded queue behind it.
    for seq in 0..DATA_FRAMES {
        assert!(sup.send_envelope(peer_id, &data_envelope(peer_id, seq, PAD)));
    }
    for _ in 0..HEARTBEATS {
        sup.send_envelope(peer_id, &heartbeat_envelope(peer_id));
    }

    let health = &sup.health()[0];
    assert!(health.dropped_heartbeats > 0, "a stalled reader must shed heartbeats: {health:?}");
    assert_eq!(health.dropped_frames, 0, "data must never be shed: {health:?}");

    // Resume reading: every data frame arrives intact and in order.
    peer.set_read_timeout(Some(Duration::from_millis(800)));
    let (mut data_seen, mut hb_seen) = (0u64, 0u64);
    while let Ok(frame) = peer.recv() {
        match frame.header.class {
            FrameClass::Data => {
                data_seen += 1;
                if data_seen == DATA_FRAMES && hb_seen > 0 {
                    break;
                }
            }
            FrameClass::Heartbeat => hb_seen += 1,
            FrameClass::Handshake => {}
        }
        if data_seen == DATA_FRAMES && hb_seen > 0 {
            break;
        }
    }
    assert_eq!(data_seen, DATA_FRAMES, "all data frames must survive backpressure");
    assert!(hb_seen > 0, "the retained heartbeats still flow after the stall clears");
    assert_eq!(sup.health()[0].dropped_frames, 0, "still zero data sheds after drain");

    sup.shutdown();
}

/// One thousand handshaken connections are served by the same fixed
/// reactor thread count — the process grows zero threads per connection.
#[test]
fn thousand_connections_same_thread_count() {
    const CONNS: u16 = 1000;

    let mut config = WireConfig::loopback(NodeId(0));
    config.accept_unknown = true;
    config.io_threads = 2;
    let sup = Supervisor::start(config, Arc::new(WireCodec::standard()), Sink::new()).unwrap();
    let addr = sup.local_addr().to_string();
    assert_eq!(sup.io_threads(), 2);

    let threads_before = os_thread_count();
    let mut peers = Vec::with_capacity(CONNS as usize);
    for id in 1..=CONNS {
        let peer =
            RawPeer::connect(&addr, NodeId(id), 1).unwrap_or_else(|e| panic!("conn {id}: {e}"));
        assert!(peer.peer_epoch > 0, "handshake reply must carry a live epoch");
        peers.push(peer);
    }

    assert!(
        wait_for(|| sup.health().len() == CONNS as usize, Duration::from_secs(5)),
        "every handshake must install a link (got {})",
        sup.health().len()
    );
    assert_eq!(sup.io_threads(), 2, "reactor thread count is fixed");
    let threads_after = os_thread_count();
    assert!(
        threads_after <= threads_before + 1,
        "thread count must not scale with connections: {threads_before} -> {threads_after}"
    );

    drop(peers);
    sup.shutdown();
}

/// The delta every streaming client sends: 1 % of 10k variables × 64 B.
fn delta(fill: u8) -> VarSet {
    (0..100).map(|v| (format!("v{v:04}"), Bytes::from(vec![fill; 64]))).collect()
}

/// Acks every decoded checkpoint straight back to its sender.
struct AckHandler {
    sup: OnceLock<Arc<Supervisor>>,
    decode_misses: AtomicU64,
}

impl WireHandler for AckHandler {
    fn deliver(&self, envelope: Envelope) {
        let Some(FtimPeerMsg::Ckpt(ckpt)) = envelope.body.downcast_ref::<FtimPeerMsg>() else {
            self.decode_misses.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let from = envelope.from.node;
        if let Some(sup) = self.sup.get() {
            let ack = Envelope::new(
                Endpoint::new(NodeId(0), "ack"),
                Endpoint::new(from, "app"),
                WirePing { seq: ckpt.seq, pad: Bytes::from(Vec::new()) },
            );
            sup.send_envelope(from, &ack);
        }
    }
    fn peer_event(&self, _event: TransportEvent) {}
    fn record(&self, _category: TraceCategory, _message: String) {}
}

/// One simulated application: streams delta checkpoints at max rate with
/// `window` in flight, sending the next one per ack. Returns (acks,
/// errors).
fn stream_client(
    idx: usize,
    addr: &str,
    codec: &WireCodec,
    stop: &AtomicBool,
    window: usize,
) -> (u64, u64) {
    let node = NodeId(1 + idx as u16);
    let Ok(mut peer) = RawPeer::connect(addr, node, 1) else {
        return (0, 1);
    };
    peer.set_read_timeout(Some(Duration::from_millis(200)));

    let set = delta(idx as u8);
    let crc = fold_digests(set.iter().map(|(n, b)| var_digest(n, b.as_slice())));
    let send = |peer: &mut RawPeer, seq: u64| -> bool {
        let payload = CheckpointPayload::Delta(set.clone());
        let ckpt = Checkpoint::with_crc(1, seq, SimTime::from_millis(seq), payload, crc);
        let envelope = Envelope::new(
            Endpoint::new(node, "app"),
            Endpoint::new(NodeId(0), "ckpt"),
            FtimPeerMsg::Ckpt(ckpt),
        );
        peer.send_envelope(codec, &envelope).is_ok()
    };

    let mut seq = 0u64;
    while seq < window as u64 {
        if !send(&mut peer, seq) {
            return (0, 1);
        }
        seq += 1;
    }
    let mut acked = 0u64;
    while !stop.load(Ordering::Relaxed) {
        match peer.recv() {
            Ok(frame) if frame.header.class == FrameClass::Data => {
                acked += 1;
                if !send(&mut peer, seq) {
                    return (acked, 1);
                }
                seq += 1;
            }
            Ok(_) => {} // heartbeat or duplicate handshake: not an ack
            Err(oftt_wire::frame::ReadError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) => {}
            Err(_) => return (acked, 1),
        }
    }
    (acked, 0)
}

/// What one streaming cell measured.
struct Cell {
    io_threads: usize,
    bytes_per_sec: f64,
    protocol_errors: u64,
}

/// `conns` windowed checkpoint streams against one supervisor with a
/// fixed reactor thread count, for `run_for`.
fn stream_cell(conns: usize, window: usize, io_threads: usize, run_for: Duration) -> Cell {
    let codec = Arc::new(WireCodec::standard());
    let handler = Arc::new(AckHandler { sup: OnceLock::new(), decode_misses: AtomicU64::new(0) });
    let mut config = WireConfig::loopback(NodeId(0));
    config.accept_unknown = true;
    config.io_threads = io_threads;
    config.queue_limit = 4 * window.max(64);
    let sup = Arc::new(Supervisor::start(config, Arc::clone(&codec), handler.clone()).unwrap());
    let _ = handler.sup.set(Arc::clone(&sup));
    let addr = sup.local_addr().to_string();
    let ckpt_wire_bytes =
        Checkpoint::new(1, 0, SimTime::from_millis(0), CheckpointPayload::Delta(delta(0)))
            .wire_size();

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let clients: Vec<_> = (0..conns)
        .map(|idx| {
            let (addr, codec, stop) = (addr.clone(), Arc::clone(&codec), Arc::clone(&stop));
            std::thread::spawn(move || stream_client(idx, &addr, &codec, &stop, window))
        })
        .collect();
    std::thread::sleep(run_for);
    stop.store(true, Ordering::SeqCst);
    let elapsed = started.elapsed();

    let (mut acked, mut errors) = (0u64, 0u64);
    for client in clients {
        let (a, e) = client.join().unwrap();
        acked += a;
        errors += e;
    }
    // Backpressure sheds are protocol errors here (the bounded queues are
    // sized for the window); frames purged when a client hangs up at the
    // end of the run are not — that loss is the disconnect itself.
    errors += handler.decode_misses.load(Ordering::Relaxed);
    errors += sup.health().iter().map(|h| h.dropped_frames).sum::<u64>();
    let io_threads = sup.io_threads();
    sup.shutdown();
    Cell {
        io_threads,
        bytes_per_sec: acked as f64 * ckpt_wire_bytes as f64 / elapsed.as_secs_f64(),
        protocol_errors: errors,
    }
}

/// Acceptance-sized delta checkpoints streamed at max rate, acked per
/// checkpoint: first one link (the single-link ceiling), then 128
/// concurrent applications on 4 reactor threads. The reactor thread count
/// stays fixed, no frame is lost or undecodable, and the aggregate clears
/// 7.86 MB/s — 100× the rate the paced pair ships at (~78.6 KB/s).
#[test]
fn saturation_holds_the_floor_on_a_fixed_thread_count() {
    const SAT_CONNS: usize = 128;
    const SAT_IO_THREADS: usize = 4;
    const FLOOR_BYTES_PER_SEC: f64 = 7_860_000.0;

    let stream = stream_cell(1, 32, 2, Duration::from_secs(1));
    let sat = stream_cell(SAT_CONNS, 8, SAT_IO_THREADS, Duration::from_secs(2));
    assert_eq!(sat.io_threads, SAT_IO_THREADS, "reactor thread count must stay fixed under load");
    assert_eq!(
        stream.protocol_errors + sat.protocol_errors,
        0,
        "saturation must complete with zero protocol errors"
    );
    assert!(
        sat.bytes_per_sec >= FLOOR_BYTES_PER_SEC,
        "saturation {:.0} B/s below the {FLOOR_BYTES_PER_SEC:.0} B/s acceptance floor",
        sat.bytes_per_sec
    );
}

/// Thread count of this process, from /proc (Linux) or a safe fallback
/// that keeps the assertion trivially true elsewhere.
fn os_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}
