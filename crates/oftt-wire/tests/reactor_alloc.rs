//! Heap allocations on the reactor threads, counted.
//!
//! A counting global allocator attributes every allocation to the thread
//! that makes it, and only `wire-reactor-*` threads count. One supervisor
//! dials a raw peer, so the two directions stay apart: the test thread
//! writes pre-encoded frames into the raw socket (the reactor reads,
//! assembles and decodes them, and the handler only counts), then sends
//! envelopes through [`Supervisor::send_envelope`] (the encode runs on the
//! test thread; the reactor pulls, stamps and writes) while a plain reader
//! thread drains the raw socket. Each direction first runs an unpaced
//! warm-up: its bursts fill the buffer pool and grow every reused vector
//! past what one frame at a time needs. The measured phase is then paced,
//! one frame at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use comsim::buf::Bytes;
use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::message::Envelope;
use ds_net::transport::TransportEvent;
use ds_sim::prelude::TraceCategory;
use oftt_wire::codec::{WireCodec, WirePing};
use oftt_wire::frame::{read_frame, write_frame, FrameClass, DEFAULT_MAX_FRAME_BYTES};
use oftt_wire::supervisor::{Supervisor, WireConfig, WireHandler};

/// Ceiling on reactor-thread allocations per received frame: the
/// assembler's one copy of the frame into a shared [`Bytes`], the meta's
/// two endpoint names, and the decoded body's buffer and box. A sent
/// frame's ceiling is zero: the write path reuses every buffer it touches.
const ALLOCS_PER_RECEIVED_FRAME: u64 = 5;

static REACTOR_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread is a reactor thread; decided at its first
    /// allocation.
    static ON_REACTOR: Cell<Option<bool>> = const { Cell::new(None) };
    /// Set while deciding, since reading the thread's name may itself
    /// allocate.
    static DECIDING: Cell<bool> = const { Cell::new(false) };
}

fn count_allocation() {
    let on_reactor = ON_REACTOR.try_with(|on| match on.get() {
        Some(known) => known,
        None => {
            if DECIDING.try_with(|d| d.replace(true)).unwrap_or(true) {
                return false;
            }
            let known =
                std::thread::current().name().is_some_and(|name| name.starts_with("wire-reactor-"));
            on.set(Some(known));
            let _ = DECIDING.try_with(|d| d.set(false));
            known
        }
    });
    if on_reactor == Ok(true) {
        REACTOR_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; counting touches only
// an atomic and this thread's own cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Counts deliveries and nothing else.
#[derive(Default)]
struct CountingSink {
    delivered: AtomicU64,
}

impl WireHandler for CountingSink {
    fn deliver(&self, _envelope: Envelope) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
    fn peer_event(&self, _event: TransportEvent) {}
    fn record(&self, _category: TraceCategory, _message: String) {}
}

fn wait_for(cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < Duration::from_secs(10), "timed out");
        std::thread::sleep(Duration::from_millis(1));
    }
}

const PACE: Duration = Duration::from_micros(500);
const WARM_UP: u64 = 100;
const MEASURED: u64 = 200;

#[test]
fn reactor_threads_allocate_a_pinned_count_per_frame() {
    let me = NodeId(0);
    let peer = NodeId(1);
    let codec = Arc::new(WireCodec::standard());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let sink = Arc::new(CountingSink::default());
    let mut config = WireConfig::loopback(me);
    config.peers = vec![(peer, listener.local_addr().unwrap().to_string())];
    config.io_threads = 1;
    let sup = Supervisor::start(config, Arc::clone(&codec), sink.clone()).unwrap();

    // The raw peer answers the dial's handshake with epoch 1.
    let (mut raw, _) = listener.accept().unwrap();
    let hello = read_frame(&mut raw, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(hello.header.class, FrameClass::Handshake);
    // The handshake meta, `Hello { node }`, marshals as its one field.
    let reply_meta = comsim::marshal::to_bytes(&peer).unwrap();
    write_frame(&mut raw, FrameClass::Handshake, 1, &reply_meta, &[], &[]).unwrap();
    wait_for(|| sup.connected(peer));

    let ping = |from: NodeId, to: NodeId, seq: u64| {
        Envelope::new(
            Endpoint::new(from, "probe"),
            Endpoint::new(to, "probe"),
            WirePing { seq, pad: Bytes::from(vec![7u8; 64]) },
        )
    };

    // Inbound: frames the reactor reads, encoded up front.
    let inbound: Vec<Vec<u8>> = (0..WARM_UP + MEASURED)
        .map(|seq| {
            let (meta, payload) = codec.encode_envelope(&ping(peer, me, seq)).unwrap().unwrap();
            let mut wire = Vec::new();
            write_frame(&mut wire, payload.class, 1, &meta, &payload.head, &payload.shared)
                .unwrap();
            wire
        })
        .collect();
    let mut measure_inbound = |frames: &[Vec<u8>], done: u64, pace: Option<Duration>| {
        let before = REACTOR_ALLOCS.load(Ordering::Relaxed);
        for wire in frames {
            raw.write_all(wire).unwrap();
            if let Some(pace) = pace {
                std::thread::sleep(pace);
            }
        }
        wait_for(|| sink.delivered.load(Ordering::Relaxed) == done);
        REACTOR_ALLOCS.load(Ordering::Relaxed) - before
    };
    let (warm, measured) = inbound.split_at(WARM_UP as usize);
    measure_inbound(warm, WARM_UP, None);
    let received = measure_inbound(measured, WARM_UP + MEASURED, Some(PACE));

    // Outbound: envelopes the reactor writes, drained by a plain thread.
    let read_back = Arc::new(AtomicU64::new(0));
    let reader = {
        let mut stream: TcpStream = raw.try_clone().unwrap();
        let read_back = Arc::clone(&read_back);
        std::thread::spawn(move || {
            while read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).is_ok() {
                read_back.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let outbound: Vec<Envelope> = (0..WARM_UP + MEASURED).map(|seq| ping(me, peer, seq)).collect();
    let measure_outbound = |envelopes: &[Envelope], done: u64, pace: Option<Duration>| {
        let before = REACTOR_ALLOCS.load(Ordering::Relaxed);
        for envelope in envelopes {
            assert!(sup.send_envelope(peer, envelope));
            if let Some(pace) = pace {
                std::thread::sleep(pace);
            }
        }
        wait_for(|| read_back.load(Ordering::Relaxed) == done);
        REACTOR_ALLOCS.load(Ordering::Relaxed) - before
    };
    let (warm, measured) = outbound.split_at(WARM_UP as usize);
    measure_outbound(warm, WARM_UP, None);
    let sent = measure_outbound(measured, WARM_UP + MEASURED, Some(PACE));

    sup.shutdown();
    drop(raw);
    reader.join().unwrap();
    eprintln!(
        "reactor allocations over {MEASURED} frames: {received} received, {sent} sent \
         ({:.2} and {:.2} per frame)",
        received as f64 / MEASURED as f64,
        sent as f64 / MEASURED as f64
    );
    assert!(
        received <= ALLOCS_PER_RECEIVED_FRAME * MEASURED,
        "{received} allocations for {MEASURED} received frames"
    );
    assert_eq!(sent, 0, "allocations for {MEASURED} sent frames");
}
