//! The reactor's many-connection saturation gate — the one wire
//! measurement `benchmark/` (one paced link, one killed pair) does not
//! make.
//!
//! ```text
//! cargo run -p bench --release --bin bench-wire
//! ```
//!
//! Simulated applications stream acceptance-sized delta checkpoints
//! (1 % of 10k variables × 64 B) at max rate with a send window, acked per
//! checkpoint, against one [`Supervisor`]: first one stream (the
//! single-link ceiling), then 128 concurrent streams on 4 reactor
//! threads. The gate asserts a fixed reactor thread count, zero protocol
//! errors, and an aggregate of at least 7.86 MB/s — 100× the rate the
//! paced pair ships at.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use comsim::buf::Bytes;
use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::message::Envelope;
use ds_net::transport::TransportEvent;
use ds_sim::prelude::SimTime;
use ds_sim::trace::TraceCategory;
use oftt::checkpoint::{fold_digests, var_digest};
use oftt::checkpoint::{Checkpoint, CheckpointPayload, VarSet};
use oftt::messages::FtimPeerMsg;
use oftt_wire::codec::{WireCodec, WirePing};
use oftt_wire::frame::FrameClass;
use oftt_wire::harness::RawPeer;
use oftt_wire::supervisor::{Supervisor, WireConfig, WireHandler};

/// The saturation cell: concurrent streaming applications, the reactor
/// threads serving them, and for how long.
const SAT_CONNS: usize = 128;
const SAT_IO_THREADS: usize = 4;
const SAT_RUN: Duration = Duration::from_secs(2);
/// The acceptance floor: ≥ 100× the paced pair's ship rate (~78.6 KB/s).
const FLOOR_BYTES_PER_SEC: f64 = 7_860_000.0;

/// The delta every client streams: 1 % of 10k variables × 64 B.
fn delta(fill: u8) -> VarSet {
    (0..100).map(|v| (format!("v{v:04}"), Bytes::from(vec![fill; 64]))).collect()
}

fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct SatStats {
    io_threads: usize,
    bytes_per_sec: f64,
    rtt_p50_us: f64,
    rtt_p99_us: f64,
    protocol_errors: u64,
}

/// Acks every decoded checkpoint straight back to its sender.
struct AckHandler {
    sup: OnceLock<Arc<Supervisor>>,
    decode_misses: AtomicU64,
}

impl WireHandler for AckHandler {
    fn deliver(&self, envelope: Envelope) {
        let seq = match envelope.body.downcast_ref::<FtimPeerMsg>() {
            Some(FtimPeerMsg::Ckpt(ckpt)) => ckpt.seq,
            _ => {
                self.decode_misses.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let from = envelope.from.node;
        if let Some(sup) = self.sup.get() {
            let ack = Envelope::new(
                Endpoint::new(NodeId(0), "ack"),
                Endpoint::new(from, "app"),
                WirePing { seq, pad: Bytes::from(Vec::new()) },
            );
            sup.send_envelope(from, &ack);
        }
    }
    fn peer_event(&self, _event: TransportEvent) {}
    fn record(&self, _category: TraceCategory, _message: String) {}
}

#[derive(Default)]
struct ClientResult {
    acked: u64,
    rtts_ns: Vec<u64>,
    errors: u64,
}

/// One simulated application: stream windowed delta checkpoints at max
/// rate, timing each checkpoint's ack. Acks come back in send order
/// (per-link FIFO end to end), so a timestamp queue matches them up.
fn stream_client(
    idx: usize,
    addr: &str,
    codec: &WireCodec,
    stop: &AtomicBool,
    window: usize,
) -> ClientResult {
    let node = NodeId(1 + idx as u16);
    let mut result = ClientResult::default();
    let mut peer = match RawPeer::connect(addr, node, 1) {
        Ok(peer) => peer,
        Err(_) => {
            result.errors += 1;
            return result;
        }
    };
    peer.set_read_timeout(Some(Duration::from_millis(200)));

    let set = delta(idx as u8);
    let crc = fold_digests(set.iter().map(|(n, b)| var_digest(n, b.as_slice())));
    let mut seq = 0u64;
    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(window);
    let send_next = |peer: &mut RawPeer, seq: u64| -> bool {
        let ckpt = Checkpoint::with_crc(
            1,
            seq,
            SimTime::from_millis(seq),
            CheckpointPayload::Delta(set.clone()),
            crc,
        );
        let envelope = Envelope::new(
            Endpoint::new(node, "app"),
            Endpoint::new(NodeId(0), "ckpt"),
            FtimPeerMsg::Ckpt(ckpt),
        );
        peer.send_envelope(codec, &envelope).is_ok()
    };

    for _ in 0..window {
        if !send_next(&mut peer, seq) {
            result.errors += 1;
            return result;
        }
        in_flight.push_back(Instant::now());
        seq += 1;
    }
    while !stop.load(Ordering::Relaxed) {
        match peer.recv() {
            Ok(frame) if frame.header.class == FrameClass::Data => {
                if let Some(sent_at) = in_flight.pop_front() {
                    result.rtts_ns.push(sent_at.elapsed().as_nanos() as u64);
                }
                result.acked += 1;
                if !send_next(&mut peer, seq) {
                    result.errors += 1;
                    break;
                }
                in_flight.push_back(Instant::now());
                seq += 1;
            }
            Ok(_) => {} // heartbeat or duplicate handshake: not an ack
            Err(oftt_wire::frame::ReadError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) => {}
            Err(_) => {
                result.errors += 1;
                break;
            }
        }
    }
    result
}

/// `conns` windowed checkpoint streams against one supervisor with a
/// fixed reactor thread count. With `conns == 1` this is the single-link
/// ceiling; with hundreds it is the saturation cell.
fn bench_saturation(conns: usize, window: usize, io_threads: usize, run_for: Duration) -> SatStats {
    let codec = Arc::new(WireCodec::standard());
    let handler = Arc::new(AckHandler { sup: OnceLock::new(), decode_misses: AtomicU64::new(0) });
    let mut config = WireConfig::loopback(NodeId(0));
    config.accept_unknown = true;
    config.io_threads = io_threads;
    config.queue_limit = 4 * window.max(64);
    let sup = Arc::new(
        Supervisor::start(config, Arc::clone(&codec), handler.clone()).expect("supervisor"),
    );
    let _ = handler.sup.set(Arc::clone(&sup));
    let addr = sup.local_addr().to_string();

    // The wire size of one checkpoint, for the bytes/s aggregate.
    let ckpt_wire_bytes =
        Checkpoint::new(1, 0, SimTime::from_millis(0), CheckpointPayload::Delta(delta(0)))
            .wire_size();

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let clients: Vec<_> = (0..conns)
        .map(|idx| {
            let addr = addr.clone();
            let codec = Arc::clone(&codec);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || stream_client(idx, &addr, &codec, &stop, window))
        })
        .collect();
    std::thread::sleep(run_for);
    stop.store(true, Ordering::SeqCst);
    let elapsed = started.elapsed();

    let mut acked = 0u64;
    let mut errors = 0u64;
    let mut rtts: Vec<u64> = Vec::new();
    for client in clients {
        let result = client.join().expect("client thread");
        acked += result.acked;
        errors += result.errors;
        rtts.extend(result.rtts_ns);
    }
    // Backpressure sheds are protocol errors here (the bounded queues are
    // sized for the window); frames purged when a client hangs up at the
    // end of the run are not — that loss is the disconnect itself.
    errors += handler.decode_misses.load(Ordering::Relaxed);
    errors += sup.health().iter().map(|h| h.dropped_frames).sum::<u64>();
    let fixed_threads = sup.io_threads();
    sup.shutdown();

    rtts.sort_unstable();
    SatStats {
        io_threads: fixed_threads,
        bytes_per_sec: acked as f64 * ckpt_wire_bytes as f64 / elapsed.as_secs_f64(),
        rtt_p50_us: percentile(&rtts, 50.0) as f64 / 1000.0,
        rtt_p99_us: percentile(&rtts, 99.0) as f64 / 1000.0,
        protocol_errors: errors,
    }
}

fn main() {
    println!("bench-wire: saturation smoke — 1 link at max rate");
    let stream = bench_saturation(1, 32, 2, Duration::from_secs(1));
    println!(
        "bench-wire: stream {:.2} MB/s, ack p50={:.0}us p99={:.0}us, {} protocol errors",
        stream.bytes_per_sec / (1024.0 * 1024.0),
        stream.rtt_p50_us,
        stream.rtt_p99_us,
        stream.protocol_errors
    );
    println!("bench-wire: saturation smoke — {SAT_CONNS} streaming apps ({SAT_RUN:?})");
    let sat = bench_saturation(SAT_CONNS, 8, SAT_IO_THREADS, SAT_RUN);
    println!(
        "bench-wire: saturation {:.2} MB/s over {} conns / {} io threads, {} protocol errors",
        sat.bytes_per_sec / (1024.0 * 1024.0),
        SAT_CONNS,
        sat.io_threads,
        sat.protocol_errors
    );

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
    println!("bench-wire: saturation smoke passed");
}
