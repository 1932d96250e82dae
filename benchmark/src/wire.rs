//! `wire_paced`: acceptance-sized delta checkpoints through one
//! `Supervisor` over loopback TCP, sent on a clock.
//!
//! Open loop: one generator thread sends checkpoint `k` at `k × 250 µs`
//! (4,000/s, about a quarter of this box's closed-loop ceiling) whether or
//! not earlier echoes have come back, and times each echo from the moment
//! its checkpoint was *due*, so a stall is charged to every checkpoint it
//! delays. The supervisor runs one reactor thread; its handler re-ships
//! each decoded checkpoint to the sender, so one operation crosses the
//! read path and the write path once each.
//!
//! The generator speaks through the same pieces the supervisor's send path
//! uses (codec, pool, shard queue, `FrameBatch`, `FrameAssembler`), which
//! is where the traced run hangs its spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use comsim::buf::Bytes;
use comsim::pool::BufPool;
use ds_net::prelude::*;
use msgq::shard::ShardedQueues;
use oftt::checkpoint::{fold_digests, var_digest, Checkpoint, CheckpointPayload, VarSet};
use oftt::messages::FtimPeerMsg;
use oftt_wire::codec::{FrameMeta, WireCodec};
use oftt_wire::frame::{
    FrameAssembler, FrameBatch, FrameClass, OutFrame, ReadStep, DEFAULT_MAX_FRAME_BYTES,
};
use oftt_wire::harness::RawPeer;
use oftt_wire::supervisor::{Supervisor, WireConfig, WireHandler};

use crate::spans::Tracer;
use crate::{procfs, stats, Outcome};

/// One checkpoint every 250 µs.
pub const INTERVAL: Duration = Duration::from_micros(250);
pub const OPS_PER_SECOND: usize = 4_000;
/// Warm-up inside every set-up: 1.25 s by the clock.
pub const WARMUP_OPS: usize = 5_000;
/// An echo later than this after its due time counts as failed: the
/// pair's `peer_timeout`, past which the sender would be declared dead.
const LIMIT: Duration = Duration::from_millis(400);
/// Closed-loop window of the ungated saturation burst.
const SAT_WINDOW: u64 = 32;
const VARS: usize = 100;
const VAR_BYTES: usize = 64;
const SERVER: NodeId = NodeId(0);
const CLIENT: NodeId = NodeId(1);
const DEST: u64 = 0;

/// Re-ships every decoded checkpoint to the node it came from.
struct Echo {
    sup: OnceLock<Arc<Supervisor>>,
    decode_misses: AtomicU64,
}

impl WireHandler for Echo {
    fn deliver(&self, envelope: Envelope) {
        let Envelope { from, to, body, .. } = envelope;
        match (body.downcast::<FtimPeerMsg>(), self.sup.get()) {
            (Ok(msg @ FtimPeerMsg::Ckpt(_)), Some(sup)) => {
                sup.send_envelope(from.node, &Envelope::new(to, from, msg));
            }
            _ => {
                self.decode_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    fn peer_event(&self, _event: TransportEvent) {}
    fn record(&self, _category: TraceCategory, _message: String) {}
}

/// How the generator decides when the next checkpoint goes out.
#[derive(Clone, Copy)]
enum Pacing {
    /// Checkpoint `k` is due `k × interval` after the start.
    Open(Duration),
    /// Send whenever fewer than this many echoes are outstanding.
    Window(u64),
}

/// What one generator phase observed.
#[derive(Default)]
struct Burst {
    /// Due-to-verified latency of each echo, in arrival (= send) order.
    latency_ns: Vec<u64>,
    /// When each echo was verified, ns since the phase started.
    done_ns: Vec<u64>,
    sent: u64,
    late: u64,
    /// Echoes that failed `verify()` or arrived out of sequence.
    bad: u64,
    /// `write_vectored` calls issued by the generator's `FrameBatch`.
    writes: u64,
    /// `read` calls of the generator's `FrameAssembler` that returned bytes.
    reads: u64,
    wire_bytes: u64,
    queued_max: u64,
    /// Echoes per segment, and the system's CPU at the start and after
    /// every segment.
    segment_ops: usize,
    cpu_marks: Vec<f64>,
}

/// Counts the reads that return data, so polls of an empty socket do not
/// pass for work.
struct CountingReader<'a> {
    stream: &'a std::net::TcpStream,
    reads: &'a mut u64,
}

impl std::io::Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        *self.reads += u64::from(n > 0);
        Ok(n)
    }
}

/// A supervisor with one connected generator, warmed up.
pub struct Ready {
    sup: Arc<Supervisor>,
    handler: Arc<Echo>,
    codec: Arc<WireCodec>,
    peer: RawPeer,
    pool: Arc<BufPool>,
    queues: ShardedQueues<OutFrame>,
    batch: FrameBatch,
    asm: FrameAssembler,
    pulled: Vec<OutFrame>,
    vars: VarSet,
    crc: u32,
    next_seq: u64,
}

pub fn setup(seed: u64, warmup_ops: usize) -> Ready {
    let codec = Arc::new(WireCodec::standard());
    let handler = Arc::new(Echo { sup: OnceLock::new(), decode_misses: AtomicU64::new(0) });
    let mut config = WireConfig::loopback(SERVER);
    config.accept_unknown = true;
    config.io_threads = 1;
    config.seed = seed;
    let sup = Arc::new(
        Supervisor::start(config, Arc::clone(&codec), handler.clone()).expect("supervisor starts"),
    );
    let _ = handler.sup.set(Arc::clone(&sup));
    let peer = RawPeer::connect(&sup.local_addr().to_string(), CLIENT, 1).expect("handshake");
    peer.stream().set_nonblocking(true).expect("nonblocking stream");

    // Variable contents come from the seed; sizes and names do not.
    let mut rng = SimRng::seed_from(seed);
    let vars: VarSet = (0..VARS)
        .map(|v| {
            let bytes: Vec<u8> = (0..VAR_BYTES).map(|_| rng.uniform_u64(0..256) as u8).collect();
            (format!("v{v:04}"), Bytes::from(bytes))
        })
        .collect();
    let crc = fold_digests(vars.iter().map(|(n, b)| var_digest(n, b.as_slice())));
    let pool = Arc::new(BufPool::new());
    let mut ready = Ready {
        sup,
        handler,
        codec,
        peer,
        asm: FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES, Arc::clone(&pool)),
        pool,
        queues: ShardedQueues::new(1),
        batch: FrameBatch::new(),
        pulled: Vec::new(),
        vars,
        crc,
        next_seq: 0,
    };
    let warm = ready.burst(warmup_ops, Pacing::Open(INTERVAL), &mut Tracer::new(false));
    assert_eq!(warm.latency_ns.len(), warmup_ops, "warm-up echoes went missing");
    ready
}

impl Ready {
    /// Encodes checkpoint `seq` and queues it the way the supervisor's
    /// send path does: pooled meta buffer, shard queue, pull, stamp.
    fn enqueue(&mut self, seq: u64, burst: &mut Burst, tracer: &mut Tracer) {
        let ckpt = Checkpoint::with_crc(
            1,
            seq,
            SimTime::from_micros(seq),
            CheckpointPayload::Delta(self.vars.clone()),
            self.crc,
        );
        let envelope = Envelope::new(
            Endpoint::new(CLIENT, "app"),
            Endpoint::new(SERVER, "echo"),
            FtimPeerMsg::Ckpt(ckpt),
        );
        if tracer.enabled() {
            // The meta block's marshaling on its own (`encode` repeats it);
            // 2 is the standard registry's tag for `FtimPeerMsg`.
            let meta = FrameMeta {
                from: envelope.from.clone(),
                to: envelope.to.clone(),
                tag: 2,
                size_bytes: envelope.size_bytes,
            };
            let span = tracer.begin("marshal.to_bytes", seq);
            std::hint::black_box(comsim::marshal::to_bytes(&meta).expect("meta marshals"));
            tracer.end(span);
        }
        let span = tracer.begin("pool.take_give", seq);
        let mut meta = self.pool.take(64);
        tracer.end(span);
        let span = tracer.begin("codec.encode", seq);
        let payload = self
            .codec
            .encode_envelope_into(&envelope, &mut meta)
            .expect("checkpoints are wire-registered")
            .expect("checkpoint encodes");
        tracer.end(span);
        let frame =
            OutFrame { class: payload.class, meta, head: payload.head, shared: payload.shared };
        burst.wire_bytes += frame.wire_len();
        let span = tracer.begin("shard.push_drain", seq);
        self.queues.push(DEST, frame);
        self.queues.drain_into(DEST, 128, &mut self.pulled);
        tracer.end(span);
        for frame in self.pulled.drain(..) {
            self.batch.push(frame, self.peer.epoch).expect("frame fits the header");
        }
    }

    /// Writes as much of the batch as the socket takes right now.
    fn flush(&mut self, op: u64, burst: &mut Burst, tracer: &mut Tracer) {
        let span = tracer.begin("frame.batch_write", op);
        while !self.batch.is_empty() {
            match self.batch.write_once(&mut self.peer.stream()) {
                Ok(_) => burst.writes += 1,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("generator write failed: {e}"),
            }
            while let Some(frame) = self.batch.pop_written() {
                let inner = tracer.begin("pool.take_give", op);
                self.pool.give(frame.meta);
                self.pool.give(frame.head);
                tracer.end(inner);
            }
        }
        tracer.end(span);
    }

    /// Assembles, decodes and verifies every echo the socket holds.
    fn drain_echoes(
        &mut self,
        start: Instant,
        due: &[u64],
        burst: &mut Burst,
        tracer: &mut Tracer,
    ) {
        loop {
            let op = burst.latency_ns.len() as u64;
            let began = tracer.now_ns();
            let mut reader = CountingReader { stream: self.peer.stream(), reads: &mut burst.reads };
            let frame = match self.asm.read_step(&mut reader).expect("generator read") {
                ReadStep::Frame(frame) if frame.header.class == FrameClass::Data => frame,
                ReadStep::Frame(_) => continue,
                ReadStep::NeedMore => return,
                ReadStep::Closed => panic!("supervisor closed the generator's connection"),
            };
            // Only a step that completed a frame is a span; the spin of
            // empty polls around it is the generator waiting.
            tracer.push("frame.assemble", op, began, tracer.now_ns());
            if tracer.enabled() {
                let span = tracer.begin("marshal.from_bytes", op);
                let meta = comsim::marshal::from_bytes::<FrameMeta>(frame.meta.as_slice());
                std::hint::black_box(meta.expect("meta unmarshals"));
                tracer.end(span);
            }
            let span = tracer.begin("codec.decode", op);
            let envelope = self.codec.decode_frame(&frame).expect("echo decodes");
            tracer.end(span);
            let span = tracer.begin("checkpoint.verify", op);
            let ok = match envelope.body.downcast_ref::<FtimPeerMsg>() {
                Some(FtimPeerMsg::Ckpt(c)) => c.verify() && c.seq == self.next_seq + op,
                _ => false,
            };
            tracer.end(span);
            burst.bad += u64::from(!ok);
            let now = start.elapsed().as_nanos() as u64;
            burst.latency_ns.push(now.saturating_sub(due[op as usize]));
            burst.done_ns.push(now);
            if burst.done_ns.len().is_multiple_of(burst.segment_ops) {
                burst.cpu_marks.push(crate::system_cpu_us(true));
            }
        }
    }

    /// Sends `ops` checkpoints under `pacing` and collects their echoes.
    fn burst(&mut self, ops: usize, pacing: Pacing, tracer: &mut Tracer) -> Burst {
        let mut burst = Burst {
            segment_ops: crate::segment_ops(ops),
            cpu_marks: vec![crate::system_cpu_us(true)],
            ..Burst::default()
        };
        let mut due: Vec<u64> = Vec::with_capacity(ops);
        let start = Instant::now();
        let mut give_up_at = u64::MAX;
        while burst.latency_ns.len() < ops {
            let now = start.elapsed().as_nanos() as u64;
            let sent = burst.sent;
            if (sent as usize) < ops {
                let next_due = match pacing {
                    Pacing::Open(interval) => Some(sent * interval.as_nanos() as u64),
                    Pacing::Window(w) => {
                        (sent - (burst.latency_ns.len() as u64) < w).then_some(now)
                    }
                };
                if let Some(next_due) = next_due.filter(|&d| d <= now) {
                    if let Pacing::Open(interval) = pacing {
                        burst.late += u64::from(now - next_due > interval.as_nanos() as u64);
                    }
                    due.push(next_due);
                    let span = tracer.begin("send", sent);
                    self.enqueue(self.next_seq + sent, &mut burst, tracer);
                    self.flush(sent, &mut burst, tracer);
                    tracer.end(span);
                    burst.sent += 1;
                    if burst.sent.is_multiple_of(1_000) {
                        let queued = self.sup.health().iter().map(|h| h.queued).max();
                        burst.queued_max = burst.queued_max.max(queued.unwrap_or(0));
                    }
                    if burst.sent as usize == ops {
                        give_up_at = next_due + LIMIT.as_nanos() as u64;
                    }
                }
            } else if now > give_up_at {
                break; // the missing echoes are counted as failed
            }
            if !self.batch.is_empty() {
                self.flush(sent, &mut burst, tracer);
            }
            self.drain_echoes(start, &due, &mut burst, tracer);
        }
        self.next_seq += ops as u64;
        burst
    }
}

pub fn timed(mut ready: Ready, ops: usize, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let health_before = ready.sup.health();
    let reactor_cpu_before = procfs::threads_cpu_us("wire-reactor-");
    let mut burst = ready.burst(ops, Pacing::Open(INTERVAL), tracer);
    out.cpu_marks = std::mem::take(&mut burst.cpu_marks);
    let reactor_cpu = procfs::threads_cpu_us("wire-reactor-") - reactor_cpu_before;
    let health = ready.sup.health();

    let sum = |rows: &[PeerHealth], f: fn(&PeerHealth) -> u64| rows.iter().map(f).sum::<u64>();
    let delta = |f: fn(&PeerHealth) -> u64| sum(&health, f) - sum(&health_before, f);
    let dropped = delta(|h| h.dropped_frames);
    let misses = ready.handler.decode_misses.load(Ordering::Relaxed);
    let over_limit =
        burst.latency_ns.iter().filter(|&&ns| ns > LIMIT.as_nanos() as u64).count() as u64;
    let missing = ops as u64 - burst.latency_ns.len() as u64;
    out.attempted = ops as u64;
    out.failed = (missing + over_limit + burst.bad).min(ops as u64);
    if burst.bad > 0 {
        out.problems.push(format!("{} echoes failed verify() or arrived out of order", burst.bad));
    }
    if missing > 0 {
        out.problems.push(format!("{missing} echoes never arrived"));
    }
    if dropped + misses > 0 {
        out.problems.push(format!("{dropped} frames dropped, {misses} decode misses"));
    }
    let late_share = burst.late as f64 / ops.max(1) as f64;
    if late_share >= 0.02 {
        // The load was not the one specified, but the system's outputs are
        // what they are: a warning, not a failure.
        eprintln!("wire_paced: generator ran late on {:.2} % of sends", late_share * 100.0);
    }
    out.op_ns = burst.latency_ns;
    out.done_ns = burst.done_ns;

    if tracer.enabled() {
        let per_op = |x: u64| x as f64 / ops.max(1) as f64;
        let mut set = |name: &'static str, value: f64| out.layers.insert(name, value);
        let spans = [
            ("marshal.to_bytes_us", "marshal.to_bytes"),
            ("marshal.from_bytes_us", "marshal.from_bytes"),
            ("codec.encode_us", "codec.encode"),
            ("codec.decode_us", "codec.decode"),
            ("pool.take_give_us", "pool.take_give"),
            ("shard.push_drain_us", "shard.push_drain"),
            ("frame.batch_write_us", "frame.batch_write"),
            ("frame.assemble_us", "frame.assemble"),
            ("checkpoint.verify_us", "checkpoint.verify"),
        ];
        // The generator's own share of an operation. The stand-alone
        // marshal spans repeat work done inside encode and decode, so they
        // stay out of the sum.
        let mut generator_us = 0.0;
        for (metric, span) in spans {
            let us = tracer.self_us_per_op(span, ops);
            if !metric.starts_with("marshal.") {
                generator_us += us;
            }
            set(metric, us);
        }
        let op_us = stats::median(&out.op_ns.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
        set("reactor.residual_us", op_us - generator_us);
        set("reactor.cpu_us_per_op", reactor_cpu / ops.max(1) as f64);
        set("reactor.bytes_in_per_op", per_op(delta(|h| h.bytes_in)));
        set("reactor.bytes_out_per_op", per_op(delta(|h| h.bytes_out)));
        set("reactor.dropped_frames", dropped as f64);
        set("reactor.shed_heartbeats", delta(|h| h.dropped_heartbeats) as f64);
        set("reactor.purged", delta(|h| h.purged) as f64);
        set("reactor.queued_max", burst.queued_max as f64);
        set("frame.writes_per_op", per_op(burst.writes));
        set("frame.reads_per_op", per_op(burst.reads));
        set("frame.bytes_per_op", per_op(burst.wire_bytes));
        let pool = ready.sup.pool_stats();
        set("pool.hit_share", pool.hits as f64 / pool.takes.max(1) as f64);
        set("loadgen.late_share", late_share);

        // Ungated: the closed-loop ceiling the paced rate is a fraction of.
        let sat_ops = ops.max(SAT_WINDOW as usize);
        let sat = ready.burst(sat_ops, Pacing::Window(SAT_WINDOW), &mut Tracer::new(false));
        let sat_secs = sat.done_ns.last().copied().unwrap_or(1) as f64 / 1e9;
        set("reactor.sat_ckpts_per_s", sat.latency_ns.len() as f64 / sat_secs);
    }
    out.peak_rss_mb = procfs::usage(procfs::Who::Process).peak_rss_mb;
    out
}

impl Drop for Ready {
    /// The handler and the supervisor hold each other, so the reactor and
    /// dialer threads end only when told to.
    fn drop(&mut self) {
        self.sup.shutdown();
    }
}
