//! A loopback TCP fault proxy: point a node's peer address at the proxy
//! and the proxy forwards bytes to the real target, injecting delay,
//! loss, and partitions per direction.
//!
//! TCP is a reliable stream, so "loss" cannot drop individual frames
//! without desyncing the length-prefixed protocol; instead, a loss event
//! kills the proxied connection — which is exactly how packet loss
//! manifests to an application on real networks once retransmission
//! gives up: resets and stalls. Partitions refuse new connections and
//! sever established ones.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ds_sim::prelude::SimRng;
use parking_lot::Mutex;

/// Impairments for one direction of the proxied link.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultSpec {
    /// Added before forwarding each chunk.
    pub delay: Duration,
    /// Probability (0–1) per forwarded chunk of killing the connection.
    pub drop_pct: f64,
    /// `true` severs the link entirely.
    pub partitioned: bool,
}

/// Index of the client → target spec in [`ProxyShared::specs`].
const FORWARD: usize = 0;
/// Index of the target → client spec.
const BACKWARD: usize = 1;

struct ProxyShared {
    /// Both directions' impairments under one lock, so a partition or a
    /// heal is never seen half-applied.
    specs: Mutex<[FaultSpec; 2]>,
    /// Live proxied sockets, so a partition can sever idle links whose
    /// pumps are parked in blocking reads.
    conns: Mutex<Vec<TcpStream>>,
    shutdown: AtomicBool,
    target: SocketAddr,
    seed: u64,
}

impl ProxyShared {
    /// Severs every tracked connection; their pumps exit via read errors.
    fn sever_all(&self) {
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// The proxy: accepts on its own port, connects to the target per
/// client, pumps bytes both ways through the configured impairments.
pub struct FaultProxy {
    shared: Arc<ProxyShared>,
    addr: SocketAddr,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    specs: &Mutex<[FaultSpec; 2]>,
    dir: usize,
    shutdown: &AtomicBool,
    rng: &mut SimRng,
) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let spec = specs.lock()[dir];
        if spec.partitioned || (spec.drop_pct > 0.0 && rng.chance(spec.drop_pct)) {
            break;
        }
        if !spec.delay.is_zero() {
            std::thread::sleep(spec.delay);
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

impl FaultProxy {
    /// Starts a proxy on `listen` (e.g. `127.0.0.1:0`) forwarding to
    /// `target`.
    pub fn start(listen: &str, target: SocketAddr, seed: u64) -> std::io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            specs: Mutex::new([FaultSpec::default(); 2]),
            conns: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            target,
            seed,
        });
        let proxy =
            FaultProxy { shared: Arc::clone(&shared), addr, threads: Mutex::new(Vec::new()) };
        let accept_shared = shared;
        let handle = std::thread::spawn(move || {
            let mut conn_seq = 0u64;
            while !accept_shared.shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((client, _)) => {
                        conn_seq += 1;
                        if accept_shared.specs.lock().iter().any(|spec| spec.partitioned) {
                            let _ = client.shutdown(Shutdown::Both);
                            continue;
                        }
                        let Ok(upstream) = TcpStream::connect_timeout(
                            &accept_shared.target,
                            Duration::from_secs(1),
                        ) else {
                            let _ = client.shutdown(Shutdown::Both);
                            continue;
                        };
                        let (Ok(c2), Ok(u2)) = (client.try_clone(), upstream.try_clone()) else {
                            continue;
                        };
                        {
                            let mut conns = accept_shared.conns.lock();
                            if let (Ok(c3), Ok(u3)) = (client.try_clone(), upstream.try_clone()) {
                                conns.push(c3);
                                conns.push(u3);
                            }
                        }
                        let fwd = Arc::clone(&accept_shared);
                        let seq = conn_seq;
                        std::thread::spawn(move || {
                            let mut rng = SimRng::seed_from(fwd.seed ^ (seq << 1));
                            pump(client, upstream, &fwd.specs, FORWARD, &fwd.shutdown, &mut rng);
                        });
                        let bwd = Arc::clone(&accept_shared);
                        std::thread::spawn(move || {
                            let mut rng = SimRng::seed_from(bwd.seed ^ ((seq << 1) | 1));
                            pump(u2, c2, &bwd.specs, BACKWARD, &bwd.shutdown, &mut rng);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });
        proxy.threads.lock().push(handle);
        Ok(proxy)
    }

    /// The proxy's own listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the client→target impairments.
    pub fn set_forward(&self, spec: FaultSpec) {
        self.shared.specs.lock()[FORWARD] = spec;
    }

    /// Replaces the target→client impairments.
    pub fn set_backward(&self, spec: FaultSpec) {
        self.shared.specs.lock()[BACKWARD] = spec;
    }

    /// Severs the link in both directions (and refuses new connections)
    /// until [`FaultProxy::heal`].
    pub fn partition(&self) {
        for spec in self.shared.specs.lock().iter_mut() {
            spec.partitioned = true;
        }
        self.shared.sever_all();
    }

    /// Clears all impairments.
    pub fn heal(&self) {
        *self.shared.specs.lock() = [FaultSpec::default(); 2];
    }

    /// Stops accepting and severs existing proxied connections.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.sever_all();
        let handles: Vec<JoinHandle<()>> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}
