//! Readiness-driven I/O core for the wire runtime.
//!
//! The first-generation transport spent two OS threads per peer link (a
//! blocking reader and a condvar-paced writer), which is fine for a
//! two-node OFTT pair and hopeless for a node serving hundreds of
//! monitored applications. The reactor inverts that: a **fixed, small**
//! set of threads each runs an epoll/poll loop (via the offline `mio`
//! shim) over nonblocking sockets, so the thread count is O(1) in the
//! number of connections.
//!
//! Each connection owned by a reactor thread carries exactly two pieces
//! of transport state: a [`FrameAssembler`] that turns readiness-sized
//! reads back into frames, and a [`FrameBatch`] that coalesces queued
//! frames into vectored mega-writes with partial-write resumption.
//! Everything *protocol* — epoch handshakes, dial/accept race
//! resolution, backpressure policy — lives in the [`ReactorHandler`]
//! installed by the supervisor; the reactor is a transport swap, not a
//! protocol change.
//!
//! Threading contract: every callback for a given connection fires on
//! the one reactor thread that owns it, strictly serialized. Handlers
//! may call [`Reactor::flush`], [`Reactor::close`], or
//! [`Reactor::attach`] from inside callbacks — commands are queued and
//! the command lock is never held across a callback, so re-entry cannot
//! deadlock.

use std::collections::HashMap;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use comsim::pool::BufPool;
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;

use crate::frame::{Frame, FrameAssembler, FrameBatch, OutFrame, ReadError, ReadStep, WireError};

/// Identifies one TCP connection for the life of the reactor. Ids are
/// never reused, so a late command aimed at a closed connection is
/// silently dropped rather than hitting a successor.
pub type ConnId = u64;

/// What the handler wants done with a connection after a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// Keep reading.
    Continue,
    /// Close the connection (the handler saw a protocol violation or a
    /// duplicate link losing the dial/accept race).
    Close,
}

/// An encoded frame plus the connection epoch to stamp into its header.
/// The epoch travels alongside rather than inside [`OutFrame`] because
/// frames are queued per *peer* and stamped per *connection* at pull
/// time — a frame queued across a reconnect must carry the new epoch.
#[derive(Debug)]
pub struct StampedFrame {
    /// The encoded frame.
    pub frame: OutFrame,
    /// Connection epoch for the header.
    pub epoch: u32,
}

/// Protocol-side callbacks. All methods for one connection run on its
/// owning reactor thread, serialized; methods for different connections
/// may run concurrently on different reactor threads.
pub trait ReactorHandler: Send + Sync + 'static {
    /// An inbound connection was accepted and registered. Runs before
    /// any [`ReactorHandler::on_frame`] for the connection.
    fn on_accept(&self, conn: ConnId, addr: SocketAddr);

    /// A complete frame arrived.
    fn on_frame(&self, conn: ConnId, frame: Frame) -> Directive;

    /// The connection's write batch has room: move queued frames into
    /// `out`. Called whenever the socket is writable or a flush was
    /// requested; returning nothing simply disarms write interest.
    ///
    /// This is the write path's only input and it holds
    /// [`StampedFrame`]s, so every frame that leaves carries the epoch of
    /// the connection it leaves on:
    ///
    /// ```
    /// # use std::{io, net::SocketAddr, sync::Mutex};
    /// # use oftt_wire::frame::{Frame, OutFrame};
    /// # use oftt_wire::reactor::{ConnId, Directive, ReactorHandler, StampedFrame};
    /// struct Pump {
    ///     queued: Mutex<Vec<OutFrame>>,
    ///     epoch: u32,
    /// }
    ///
    /// impl ReactorHandler for Pump {
    ///     fn next_frames(&self, _conn: ConnId, out: &mut Vec<StampedFrame>) {
    ///         let pulled = std::mem::take(&mut *self.queued.lock().unwrap());
    ///         out.extend(pulled.into_iter().map(|frame| StampedFrame { frame, epoch: self.epoch }));
    ///     }
    /// #   fn on_accept(&self, _: ConnId, _: SocketAddr) {}
    /// #   fn on_frame(&self, _: ConnId, _: Frame) -> Directive { Directive::Continue }
    /// #   fn on_closed(&self, _: ConnId, _: Option<&io::Error>, _: Vec<OutFrame>) {}
    /// }
    /// ```
    ///
    /// Frames forwarded without a stamp — which a receiver would drop as
    /// stale after any reconnect — are `E0271`, a type mismatch:
    ///
    /// ```compile_fail,E0271
    /// # use std::{io, net::SocketAddr, sync::Mutex};
    /// # use oftt_wire::frame::{Frame, OutFrame};
    /// # use oftt_wire::reactor::{ConnId, Directive, ReactorHandler, StampedFrame};
    /// struct Pump {
    ///     queued: Mutex<Vec<OutFrame>>,
    ///     epoch: u32,
    /// }
    ///
    /// impl ReactorHandler for Pump {
    ///     fn next_frames(&self, _conn: ConnId, out: &mut Vec<StampedFrame>) {
    ///         let pulled = std::mem::take(&mut *self.queued.lock().unwrap());
    ///         out.extend(pulled);
    ///     }
    /// #   fn on_accept(&self, _: ConnId, _: SocketAddr) {}
    /// #   fn on_frame(&self, _: ConnId, _: Frame) -> Directive { Directive::Continue }
    /// #   fn on_closed(&self, _: ConnId, _: Option<&io::Error>, _: Vec<OutFrame>) {}
    /// }
    /// ```
    fn next_frames(&self, conn: ConnId, out: &mut Vec<StampedFrame>);

    /// `bytes` of this connection's queue hit the socket.
    fn on_wrote(&self, conn: ConnId, bytes: u64) {
        let _ = (conn, bytes);
    }

    /// A frame's bytes are fully on the wire; its buffers may be
    /// recycled.
    fn recycle(&self, frame: OutFrame) {
        let _ = frame;
    }

    /// The connection is gone. `error` is `None` for a clean peer EOF or
    /// an explicit [`Reactor::close`]/shutdown; `unsent` returns every
    /// frame that never (fully) reached the wire.
    fn on_closed(&self, conn: ConnId, error: Option<&io::Error>, unsent: Vec<OutFrame>);

    /// Periodic tick (at least every poll timeout, ~25 ms). Push
    /// connection ids into `close` to have them torn down — used for
    /// handshake deadlines.
    fn on_tick(&self, close: &mut Vec<ConnId>) {
        let _ = close;
    }
}

/// Commands posted from other threads to a reactor shard.
enum Cmd {
    /// `accepted` distinguishes listener-accepted connections (the
    /// handler gets an `on_accept`) from attached, already-handshaken
    /// ones (the caller registered its own state before attaching).
    Add {
        conn: ConnId,
        stream: TcpStream,
        accepted: bool,
    },
    Flush(ConnId),
    Close(ConnId),
    Shutdown,
}

/// One reactor thread's shared half: the poll instance (registration is
/// thread-safe), its waker, and the inbound command queue.
struct Shard {
    poll: Poll,
    waker: Waker,
    cmds: Mutex<Vec<Cmd>>,
}

impl Shard {
    fn post(&self, cmd: Cmd) {
        {
            self.cmds.lock().push(cmd);
        }
        // Outside the lock: the wake write must not serialize senders.
        let _ = self.waker.wake();
    }
}

const WAKER_TOKEN: Token = Token(usize::MAX);
const LISTENER_TOKEN: Token = Token(usize::MAX - 1);
/// Frames delivered per readiness visit before yielding to other
/// connections (level-triggered polling re-arms leftovers).
const READ_FRAME_BUDGET: usize = 64;
/// Poll timeout, which bounds handshake-deadline sweep latency.
const TICK: Duration = Duration::from_millis(25);

/// A fixed pool of readiness-driven I/O threads serving any number of
/// framed TCP connections.
pub struct Reactor {
    shards: Vec<Arc<Shard>>,
    next_conn: AtomicU64,
    shutting_down: AtomicBool,
    joiners: Mutex<Vec<JoinHandle<()>>>,
}

impl Reactor {
    /// Starts `io_threads` reactor threads (clamped to at least 1). If a
    /// `listener` is given it is served by the first thread and accepted
    /// connections are spread across all threads round-robin.
    ///
    /// Every connection's frame assembler stages payload bytes through
    /// `pool`, so the caller can share one arena between its encode path
    /// and the reactor's read path.
    pub fn start(
        handler: Arc<dyn ReactorHandler>,
        listener: Option<TcpListener>,
        io_threads: usize,
        max_frame: u32,
        pool: Arc<BufPool>,
    ) -> io::Result<Arc<Reactor>> {
        let n = io_threads.max(1);
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let poll = Poll::new()?;
            let waker = Waker::new(&poll, WAKER_TOKEN)?;
            shards.push(Arc::new(Shard { poll, waker, cmds: Mutex::new(Vec::new()) }));
        }
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
            shards[0].poll.register(l, LISTENER_TOKEN, Interest::READABLE)?;
        }
        let reactor = Arc::new(Reactor {
            shards,
            next_conn: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            joiners: Mutex::new(Vec::new()),
        });
        let mut joiners = Vec::with_capacity(n);
        let mut listener = listener;
        for idx in 0..n {
            let mut run = ShardRun {
                idx,
                shard: Arc::clone(&reactor.shards[idx]),
                reactor: Arc::clone(&reactor),
                handler: Arc::clone(&handler),
                listener: if idx == 0 { listener.take() } else { None },
                conns: HashMap::new(),
                max_frame,
                pool: Arc::clone(&pool),
            };
            joiners.push(
                thread::Builder::new()
                    .name(format!("wire-reactor-{idx}"))
                    .spawn(move || run.run())?,
            );
        }
        *reactor.joiners.lock() = joiners;
        Ok(reactor)
    }

    /// The fixed thread count — O(1) in connections, asserted by the
    /// 1k-connection smoke test.
    pub fn io_threads(&self) -> usize {
        self.shards.len()
    }

    /// Reserves a connection id without attaching a socket yet, so the
    /// caller can index its own state by id *before* the first callback
    /// can fire.
    pub fn reserve_conn(&self) -> ConnId {
        self.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    /// Hands an established (already connected, e.g. freshly dialed)
    /// stream to the reactor under a previously reserved id.
    pub fn attach(&self, conn: ConnId, stream: TcpStream) -> io::Result<()> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(io::Error::new(ErrorKind::NotConnected, "reactor shutting down"));
        }
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        self.shard_for(conn).post(Cmd::Add { conn, stream, accepted: false });
        Ok(())
    }

    /// Asks the owning thread to drain the connection's outbound queue
    /// (via [`ReactorHandler::next_frames`]). Cheap and idempotent;
    /// callers should still dedupe with a per-link flag to avoid a
    /// syscall per queued frame.
    pub fn flush(&self, conn: ConnId) {
        self.shard_for(conn).post(Cmd::Flush(conn));
    }

    /// Asks the owning thread to tear the connection down. The handler's
    /// [`ReactorHandler::on_closed`] fires with `error: None`.
    pub fn close(&self, conn: ConnId) {
        self.shard_for(conn).post(Cmd::Close(conn));
    }

    /// Stops every reactor thread, closing all connections (each gets an
    /// `on_closed` with `error: None`), and joins them.
    pub fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        for shard in &self.shards {
            shard.post(Cmd::Shutdown);
        }
        let joiners = std::mem::take(&mut *self.joiners.lock());
        for j in joiners {
            let _ = j.join();
        }
    }

    fn shard_for(&self, conn: ConnId) -> &Shard {
        &self.shards[conn as usize % self.shards.len()]
    }
}

/// Per-connection transport state owned by one reactor thread.
struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    batch: FrameBatch,
    /// Write interest currently armed (batch has unwritten bytes the
    /// socket would not take).
    want_write: bool,
}

/// The thread-private half of a reactor shard.
struct ShardRun {
    idx: usize,
    shard: Arc<Shard>,
    reactor: Arc<Reactor>,
    handler: Arc<dyn ReactorHandler>,
    listener: Option<TcpListener>,
    conns: HashMap<ConnId, Conn>,
    max_frame: u32,
    pool: Arc<BufPool>,
}

impl ShardRun {
    fn run(&mut self) {
        let mut events = Events::with_capacity(256);
        let mut sweep = Vec::new();
        loop {
            if self.shard.poll.poll(&mut events, Some(TICK)).is_err() {
                // A failed poll means the epoll fd itself is broken;
                // spinning would burn a core, so bail out.
                break;
            }
            let cmds = std::mem::take(&mut *self.shard.cmds.lock());
            let mut shutdown = false;
            for cmd in cmds {
                match cmd {
                    Cmd::Add { conn, stream, accepted } => self.add_conn(conn, stream, accepted),
                    Cmd::Flush(conn) => self.drain_writes(conn),
                    Cmd::Close(conn) => self.close_conn(conn, None),
                    Cmd::Shutdown => shutdown = true,
                }
            }
            if shutdown {
                let ids: Vec<ConnId> = self.conns.keys().copied().collect();
                for id in ids {
                    self.close_conn(id, None);
                }
                return;
            }
            for ev in events.iter() {
                match ev.token() {
                    WAKER_TOKEN => self.shard.waker.drain(),
                    LISTENER_TOKEN => self.accept_ready(),
                    Token(t) => {
                        let id = t as ConnId;
                        if ev.is_error() {
                            let err = io::Error::new(ErrorKind::ConnectionReset, "socket error");
                            self.close_conn(id, Some(err));
                            continue;
                        }
                        if ev.is_readable() {
                            self.read_ready(id);
                        }
                        if ev.is_writable() {
                            self.drain_writes(id);
                        }
                    }
                }
            }
            sweep.clear();
            self.handler.on_tick(&mut sweep);
            for &id in &sweep {
                self.close_conn(
                    id,
                    Some(io::Error::new(ErrorKind::TimedOut, "handshake deadline")),
                );
            }
        }
    }

    /// Accepts until the listener runs dry, spreading connections across
    /// all shards by id.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let conn = self.reactor.reserve_conn();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let target = conn as usize % self.reactor.shards.len();
                    if target == self.idx {
                        self.add_conn(conn, stream, true);
                    } else {
                        self.reactor.shards[target].post(Cmd::Add { conn, stream, accepted: true });
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (e.g. the
                // peer reset before we got to it): keep listening.
                Err(_) => return,
            }
        }
    }

    fn add_conn(&mut self, conn: ConnId, stream: TcpStream, accepted: bool) {
        let addr = stream.peer_addr().ok();
        if self.shard.poll.register(&stream, Token(conn as usize), Interest::READABLE).is_err() {
            self.handler.on_closed(
                conn,
                Some(&io::Error::other("poll registration failed")),
                Vec::new(),
            );
            return;
        }
        self.conns.insert(
            conn,
            Conn {
                stream,
                asm: FrameAssembler::new(self.max_frame, Arc::clone(&self.pool)),
                batch: FrameBatch::new(),
                want_write: false,
            },
        );
        // Attached (dialed) connections registered their own protocol
        // state before attaching; only fresh accepts get announced.
        if accepted {
            self.handler
                .on_accept(conn, addr.unwrap_or_else(|| SocketAddr::from(([0, 0, 0, 0], 0))));
        }
        // A dialed connection may already have queued traffic (frames
        // buffered while reconnecting).
        self.drain_writes(conn);
    }

    // oftt-lint: reactor-root
    fn read_ready(&mut self, id: ConnId) {
        let mut delivered = 0usize;
        loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            match conn.asm.read_step(&mut conn.stream) {
                Ok(ReadStep::Frame(frame)) => {
                    match self.handler.on_frame(id, frame) {
                        Directive::Continue => {}
                        Directive::Close => {
                            self.close_conn(id, None);
                            return;
                        }
                    }
                    delivered += 1;
                    if delivered >= READ_FRAME_BUDGET {
                        // Yield to other connections; level-triggered
                        // polling re-reports the leftover bytes.
                        break;
                    }
                }
                Ok(ReadStep::NeedMore) => break,
                Ok(ReadStep::Closed) => {
                    self.close_conn(id, None);
                    return;
                }
                Err(ReadError::Io(e)) => {
                    self.close_conn(id, Some(e));
                    return;
                }
                Err(ReadError::Protocol(e)) => {
                    self.close_conn(
                        id,
                        Some(io::Error::new(ErrorKind::InvalidData, format!("{e}"))),
                    );
                    return;
                }
            }
        }
        // Frames often demand replies (handshakes, pings): give the
        // handler an immediate chance to ship them.
        if delivered > 0 {
            self.drain_writes(id);
        }
    }

    /// Pulls queued frames and writes until the socket pushes back or
    /// there is nothing left, arming/disarming write interest to match.
    // oftt-lint: reactor-root
    fn drain_writes(&mut self, id: ConnId) {
        let mut pulled = Vec::new();
        loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if conn.batch.is_empty() {
                pulled.clear();
                self.handler.next_frames(id, &mut pulled);
                let Some(conn) = self.conns.get_mut(&id) else { return };
                if pulled.is_empty() {
                    if conn.want_write {
                        conn.want_write = false;
                        let _ = self.shard.poll.reregister(
                            &conn.stream,
                            Token(id as usize),
                            Interest::READABLE,
                        );
                    }
                    return;
                }
                for StampedFrame { frame, epoch } in pulled.drain(..) {
                    if let Err(WireError::FrameTooLarge { .. }) = conn.batch.push(frame, epoch) {
                        // A >4 GiB body cannot be framed; drop it rather
                        // than poison the stream.
                        continue;
                    }
                }
            }
            let Some(conn) = self.conns.get_mut(&id) else { return };
            match conn.batch.write_once(&mut conn.stream) {
                Ok(n) => {
                    while let Some(done) = conn.batch.pop_written() {
                        self.handler.recycle(done);
                    }
                    self.handler.on_wrote(id, n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self.shard.poll.reregister(
                            &conn.stream,
                            Token(id as usize),
                            Interest::READABLE.add(Interest::WRITABLE),
                        );
                    }
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.close_conn(id, Some(e));
                    return;
                }
            }
        }
    }

    /// Runs once per connection teardown, not per frame — declared off
    /// the reactor hot path (it may format the close reason and drain
    /// the batch for recycling).
    // oftt-lint: cold-path
    fn close_conn(&mut self, id: ConnId, error: Option<io::Error>) {
        let Some(mut conn) = self.conns.remove(&id) else { return };
        let _ = self.shard.poll.deregister(&conn.stream);
        let unsent = conn.batch.purge();
        self.handler.on_closed(id, error.as_ref(), unsent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{write_frame, FrameClass, DEFAULT_MAX_FRAME_BYTES, HEADER_LEN};
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// Echo handler: every data frame is bounced back with the same
    /// epoch; handshakes establish; records closures.
    struct Echo {
        outbox: Mutex<HashMap<ConnId, Vec<StampedFrame>>>,
        frames_seen: AtomicUsize,
        accepted: AtomicUsize,
        closed_tx: Mutex<Option<mpsc::Sender<ConnId>>>,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                outbox: Mutex::new(HashMap::new()),
                frames_seen: AtomicUsize::new(0),
                accepted: AtomicUsize::new(0),
                closed_tx: Mutex::new(None),
            }
        }
    }

    impl ReactorHandler for Echo {
        fn on_accept(&self, _conn: ConnId, _addr: SocketAddr) {
            self.accepted.fetch_add(1, Ordering::Relaxed);
        }
        fn on_frame(&self, conn: ConnId, frame: Frame) -> Directive {
            self.frames_seen.fetch_add(1, Ordering::Relaxed);
            let reply = StampedFrame {
                frame: OutFrame {
                    class: frame.header.class,
                    meta: frame.meta.as_slice().to_vec(),
                    head: frame.body.as_slice().to_vec(),
                    shared: Vec::new(),
                },
                epoch: frame.header.epoch,
            };
            self.outbox.lock().entry(conn).or_default().push(reply);
            Directive::Continue
        }
        fn next_frames(&self, conn: ConnId, out: &mut Vec<StampedFrame>) {
            if let Some(q) = self.outbox.lock().get_mut(&conn) {
                out.append(q);
            }
        }
        fn on_closed(&self, conn: ConnId, _error: Option<&io::Error>, _unsent: Vec<OutFrame>) {
            if let Some(tx) = self.closed_tx.lock().as_ref() {
                let _ = tx.send(conn);
            }
        }
    }

    #[test]
    fn echoes_frames_over_real_sockets_with_fixed_threads() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handler = Arc::new(Echo::new());
        let reactor = Reactor::start(
            handler.clone(),
            Some(listener),
            2,
            DEFAULT_MAX_FRAME_BYTES,
            Arc::new(BufPool::new()),
        )
        .unwrap();
        assert_eq!(reactor.io_threads(), 2);

        let mut clients = Vec::new();
        for i in 0..8u32 {
            let mut c = TcpStream::connect(addr).unwrap();
            write_frame(&mut c, FrameClass::Data, i, &[1, 2], &i.to_le_bytes(), &[]).unwrap();
            clients.push((i, c));
        }
        for (i, c) in &mut clients {
            c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let frame = crate::frame::read_frame(c, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(frame.header.epoch, *i);
            assert_eq!(frame.body.as_slice(), &i.to_le_bytes());
        }
        assert_eq!(handler.accepted.load(Ordering::Relaxed), 8);
        reactor.shutdown();
    }

    #[test]
    fn close_notifies_handler_and_returns_unsent_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handler = Arc::new(Echo::new());
        let (tx, rx) = mpsc::channel();
        *handler.closed_tx.lock() = Some(tx);
        let reactor = Reactor::start(
            handler.clone(),
            Some(listener),
            1,
            DEFAULT_MAX_FRAME_BYTES,
            Arc::new(BufPool::new()),
        )
        .unwrap();

        let mut c = TcpStream::connect(addr).unwrap();
        write_frame(&mut c, FrameClass::Data, 9, &[], &[42], &[]).unwrap();
        // Wait for the echo so the conn id is known to be registered.
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let echoed = crate::frame::read_frame(&mut c, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(echoed.body.as_slice(), &[42]);
        drop(c);
        let closed = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(closed >= 1);
        reactor.shutdown();
    }

    #[test]
    fn half_written_frames_resume_across_readiness() {
        // A tiny kernel send buffer forces WouldBlock mid-mega-write;
        // the echo of a large body must still arrive intact.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handler = Arc::new(Echo::new());
        let reactor = Reactor::start(
            handler.clone(),
            Some(listener),
            1,
            DEFAULT_MAX_FRAME_BYTES,
            Arc::new(BufPool::new()),
        )
        .unwrap();

        let mut c = TcpStream::connect(addr).unwrap();
        let body = vec![0xABu8; 4 * 1024 * 1024];
        write_frame(&mut c, FrameClass::Data, 1, &[], &body, &[]).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut got = vec![0u8; HEADER_LEN + body.len()];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got[HEADER_LEN..], &body[..]);
        reactor.shutdown();
        let _ = c.flush();
    }
}
