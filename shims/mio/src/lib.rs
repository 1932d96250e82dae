//! Offline stand-in for the readiness-polling subset of `mio`.
//!
//! The workspace builds with no registry access, so external crates
//! resolve to local shims implementing exactly the API subset the
//! workspace uses. `oftt-wire`'s reactor needs four things from mio:
//! a [`Poll`] that multiplexes nonblocking sockets, [`Interest`] flags,
//! an [`Events`] buffer, and a [`Waker`] for cross-thread wakeups.
//!
//! On Linux this is a thin wrapper over `epoll(7)` via hand-declared
//! `extern "C"` prototypes (std already links libc, so they resolve
//! without a build script). On other Unixes it falls back to `poll(2)`.
//! Registration is **level-triggered**: a readable socket keeps
//! reporting readable until drained, so a reactor that stops reading
//! mid-burst for fairness is re-notified on the next poll.
//!
//! Divergences from real mio, on purpose (documented so a future swap
//! to the real crate knows what to reconcile):
//!
//! - `register` takes `&impl AsRawFd` directly instead of going through
//!   a `Registry` and `event::Source`.
//! - The waker is a `UnixStream` self-pipe and is level-triggered; the
//!   owner must call [`Waker::drain`] when its token fires.

use std::io;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Identifies one registered file descriptor in poll results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// Readiness interest flags for registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub const READABLE: Interest = Interest(0b01);
    /// Wake when the fd is writable.
    pub const WRITABLE: Interest = Interest(0b10);

    /// Combines two interests (named `add` for drop-in parity with the
    /// real mio API).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// `true` if this interest includes readability.
    pub fn is_readable(self) -> bool {
        self.0 & 0b01 != 0
    }

    /// `true` if this interest includes writability.
    pub fn is_writable(self) -> bool {
        self.0 & 0b10 != 0
    }
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    error: bool,
}

impl Event {
    /// The token supplied at registration.
    pub fn token(&self) -> Token {
        self.token
    }

    /// The fd is readable (includes peer hangup, which reads as EOF).
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// The fd is writable.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// The fd is in an error state (`EPOLLERR`); read/write it to
    /// surface the concrete `io::Error`.
    pub fn is_error(&self) -> bool {
        self.error
    }
}

/// Reusable buffer of poll results.
#[derive(Debug, Default)]
pub struct Events {
    inner: Vec<Event>,
    capacity: usize,
}

impl Events {
    /// A buffer that accepts up to `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events { inner: Vec::with_capacity(capacity), capacity: capacity.max(1) }
    }

    /// Iterates the events from the last poll.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.inner.iter()
    }

    /// `true` if the last poll returned nothing (timeout).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

/// Readiness selector over registered file descriptors.
#[derive(Debug)]
pub struct Poll {
    sys: sys::Selector,
}

impl Poll {
    /// Creates a selector.
    pub fn new() -> io::Result<Poll> {
        Ok(Poll { sys: sys::Selector::new()? })
    }

    /// Registers `source` under `token`. The fd should already be in
    /// nonblocking mode; registration is level-triggered.
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.sys.register(source.as_raw_fd(), token, interest)
    }

    /// Changes the interest set of an already registered fd.
    pub fn reregister(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.sys.reregister(source.as_raw_fd(), token, interest)
    }

    /// Removes an fd from the selector. Dropping the socket also
    /// removes it on Linux; the portable backend needs the explicit
    /// call, so the reactor always makes it.
    pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
        self.sys.deregister(source.as_raw_fd())
    }

    /// Blocks until readiness or `timeout`, filling `events`. A `None`
    /// timeout blocks indefinitely. Interrupted waits (`EINTR`) are
    /// retried internally.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.inner.clear();
        self.sys.select(&mut events.inner, events.capacity, timeout)
    }
}

/// Cross-thread wakeup handle: a nonblocking `UnixStream` self-pipe
/// whose read end is registered with the [`Poll`].
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// Creates the pipe and registers its read end under `token`.
    pub fn new(poll: &Poll, token: Token) -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        poll.register(&rx, token, Interest::READABLE)?;
        Ok(Waker { tx, rx })
    }

    /// Makes the next (or current) poll return with this waker's token.
    /// Idempotent while unconsumed: a full pipe means a wake is already
    /// pending, which is all a wake means.
    pub fn wake(&self) -> io::Result<()> {
        match io::Write::write(&mut &self.tx, &[1u8]) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Consumes pending wakeups; call when the waker token fires (the
    /// registration is level-triggered, so an undrained pipe would spin
    /// the poll loop).
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            match io::Read::read(&mut (&self.rx), &mut sink) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(_) => return,
            }
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! `epoll(7)` backend. The prototypes are declared by hand — std
    //! links libc, so they resolve at link time without a `libc` crate.

    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    use super::{Event, Interest, Token};

    // x86_64 Linux declares `struct epoll_event` packed; matching the C
    // layout exactly is what makes the calls below sound.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// Events one `epoll_wait` returns at most. The buffer lives on the
    /// stack, so a poll never allocates; a larger [`super::Events`]
    /// capacity is served this many at a time, and readiness is
    /// level-triggered, so the rest come back on the next poll.
    const MAX_EVENTS: usize = 256;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    #[derive(Debug)]
    pub struct Selector {
        epfd: RawFd,
    }

    fn mask_of(interest: Interest) -> u32 {
        let mut mask = EPOLLRDHUP;
        if interest.is_readable() {
            mask |= EPOLLIN;
        }
        if interest.is_writable() {
            mask |= EPOLLOUT;
        }
        mask
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            // SAFETY: epoll_create1 takes a flag word and returns an fd
            // or -1; no pointers cross the boundary.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Selector { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, mask: u32, token: usize) -> io::Result<()> {
            let mut ev = EpollEvent { events: mask, data: token as u64 };
            // SAFETY: `ev` outlives the call and matches the kernel's
            // expected (packed) layout; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, mask_of(interest), token.0)
        }

        pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, mask_of(interest), token.0)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn select(
            &self,
            out: &mut Vec<Event>,
            capacity: usize,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let timeout_ms = match timeout {
                None => -1,
                Some(t) => i32::try_from(t.as_millis()).unwrap_or(i32::MAX),
            };
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let capacity = capacity.min(MAX_EVENTS);
            loop {
                // SAFETY: `buf` is a live, writable array of MAX_EVENTS >=
                // `capacity` EpollEvents; the kernel fills at most
                // `capacity`.
                let n =
                    unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), capacity as i32, timeout_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(err);
                }
                for ev in buf.iter().take(n as usize) {
                    // Copy out of the packed struct before use.
                    let mask = ev.events;
                    let data = ev.data;
                    out.push(Event {
                        token: Token(data as usize),
                        readable: mask & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0,
                        writable: mask & EPOLLOUT != 0,
                        error: mask & EPOLLERR != 0,
                    });
                }
                return Ok(());
            }
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            // SAFETY: closing an fd we own exactly once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! Portable `poll(2)` backend for non-Linux Unixes. Keeps the
    //! registration table in userspace; O(fds) per wait, which is fine
    //! for the fallback platforms.

    use std::io;
    use std::os::unix::io::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    use super::{Event, Interest, Token};

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[derive(Debug)]
    pub struct Selector {
        registered: Mutex<Vec<(RawFd, Token, Interest)>>,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            Ok(Selector { registered: Mutex::new(Vec::new()) })
        }

        fn table(&self) -> std::sync::MutexGuard<'_, Vec<(RawFd, Token, Interest)>> {
            self.registered.lock().unwrap_or_else(|e| e.into_inner())
        }

        pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            let mut table = self.table();
            if table.iter().any(|(f, _, _)| *f == fd) {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd registered"));
            }
            table.push((fd, token, interest));
            Ok(())
        }

        pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            let mut table = self.table();
            for entry in table.iter_mut() {
                if entry.0 == fd {
                    *entry = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut table = self.table();
            let before = table.len();
            table.retain(|(f, _, _)| *f != fd);
            if table.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub fn select(
            &self,
            out: &mut Vec<Event>,
            capacity: usize,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let snapshot = self.table().clone();
            let mut fds: Vec<PollFd> = snapshot
                .iter()
                .map(|(fd, _, interest)| PollFd {
                    fd: *fd,
                    events: if interest.is_readable() { POLLIN } else { 0 }
                        | if interest.is_writable() { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let timeout_ms = match timeout {
                None => -1,
                Some(t) => i32::try_from(t.as_millis()).unwrap_or(i32::MAX),
            };
            loop {
                // SAFETY: `fds` is a live array of matching C layout;
                // the kernel writes only `revents` within it.
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(err);
                }
                for (pfd, (_, token, _)) in fds.iter().zip(snapshot.iter()) {
                    if pfd.revents == 0 {
                        continue;
                    }
                    if out.len() >= capacity {
                        break;
                    }
                    out.push(Event {
                        token: *token,
                        readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                        writable: pfd.revents & POLLOUT != 0,
                        error: pfd.revents & POLLERR != 0,
                    });
                }
                return Ok(());
            }
        }
    }
}

#[cfg(not(unix))]
compile_error!("the mio shim supports Unix targets only (epoll on Linux, poll(2) elsewhere)");

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn listener_becomes_readable_on_connect() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poll.register(&listener, Token(7), Interest::READABLE).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        let tokens: Vec<Token> = events.iter().map(|e| e.token()).collect();
        assert!(tokens.contains(&Token(7)));
        assert!(events.iter().any(|e| e.token() == Token(7) && e.is_readable()));
    }

    #[test]
    fn connected_stream_reports_writable_and_then_readable() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nonblocking(true).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        poll.register(&client, Token(1), Interest::READABLE.add(Interest::WRITABLE)).unwrap();

        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token() == Token(1) && e.is_writable()));

        server_side.write_all(b"x").unwrap();
        // Narrow to readability so the writable side can't mask it.
        poll.reregister(&client, Token(1), Interest::READABLE).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut saw_readable = false;
        while Instant::now() < deadline && !saw_readable {
            poll.poll(&mut events, Some(Duration::from_millis(100))).unwrap();
            saw_readable = events.iter().any(|e| e.token() == Token(1) && e.is_readable());
        }
        assert!(saw_readable);
        let mut byte = [0u8; 1];
        (&client).read_exact(&mut byte).unwrap();
        assert_eq!(byte[0], b'x');
    }

    #[test]
    fn waker_wakes_a_blocked_poll_and_drains() {
        let poll = Poll::new().unwrap();
        let waker = Waker::new(&poll, Token(99)).unwrap();
        waker.wake().unwrap();
        waker.wake().unwrap(); // coalesces, no error
        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token() == Token(99) && e.is_readable()));
        waker.drain();
        // Drained: a short poll now times out quietly.
        poll.poll(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn deregistered_fd_is_silent() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poll.register(&listener, Token(3), Interest::READABLE).unwrap();
        poll.deregister(&listener).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::from_millis(100))).unwrap();
        assert!(events.is_empty());
    }
}
