//! Child-process plumbing for the smoke test and the failover bench:
//! spawn real `oftt-node` processes, scrape their stdout traces, and
//! kill them the honest way (SIGKILL — no cleanup, no goodbye) or freeze
//! them (SIGSTOP — alive to its kernel, silent to its peer).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_net::endpoint::NodeId;
use parking_lot::Mutex;

/// Binds port 0 on loopback, returns the allocated port, releases it.
/// (Racy by nature; fine for tests that immediately rebind.)
pub fn free_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    listener.local_addr().expect("local addr").port()
}

/// Path to the `oftt-node` binary: a sibling of the currently running
/// test/bench binary in the same cargo target directory.
pub fn oftt_node_bin() -> PathBuf {
    let mut path = std::env::current_exe().expect("current_exe");
    path.pop();
    // Test binaries live in target/<profile>/deps/.
    if path.ends_with("deps") {
        path.pop();
    }
    path.push("oftt-node");
    path
}

/// Renders a node config file for a two-node pair.
#[allow(clippy::too_many_arguments)]
pub fn pair_config(
    node: NodeId,
    listen_port: u16,
    peer: NodeId,
    peer_port: u16,
    monitor_node: NodeId,
    app_vars: usize,
    seed: u64,
) -> String {
    format!(
        "node = {}\n\
         listen = \"127.0.0.1:{listen_port}\"\n\
         peer = \"{}@127.0.0.1:{peer_port}\"\n\
         monitor_node = {}\n\
         heartbeat_ms = 50\n\
         component_timeout_ms = 400\n\
         peer_timeout_ms = 400\n\
         fail_safe_ms = 250\n\
         checkpoint_ms = 100\n\
         startup_ms = 500\n\
         status_ms = 200\n\
         app_vars = {app_vars}\n\
         app_var_bytes = 64\n\
         app_dirty_per_tick = 4\n\
         app_tick_ms = 20\n\
         seed = {seed}\n",
        node.0, peer.0, monitor_node.0
    )
}

/// A spawned `oftt-node` with its stdout scraped into memory.
pub struct ChildNode {
    /// The node's id (for diagnostics).
    pub node: NodeId,
    child: Child,
    lines: Arc<Mutex<Vec<String>>>,
}

impl ChildNode {
    /// Spawns `oftt-node --config <path>` with piped, scraped stdout.
    pub fn spawn(node: NodeId, config_path: &std::path::Path) -> std::io::Result<ChildNode> {
        let mut child = Command::new(oftt_node_bin())
            .arg("--config")
            .arg(config_path)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        std::thread::spawn(move || {
            let reader = BufReader::new(stdout);
            for line in reader.lines() {
                match line {
                    Ok(line) => sink.lock().push(line),
                    Err(_) => break,
                }
            }
        });
        Ok(ChildNode { node, child, lines })
    }

    /// Snapshot of everything the node has printed so far.
    pub fn output(&self) -> Vec<String> {
        self.lines.lock().clone()
    }

    /// Waits until some line satisfies `pred`, returning that line.
    pub fn wait_for_line(&self, pred: impl Fn(&str) -> bool, timeout: Duration) -> Option<String> {
        let start = Instant::now();
        loop {
            if let Some(line) = self.lines.lock().iter().find(|l| pred(l)) {
                return Some(line.clone());
            }
            if start.elapsed() > timeout {
                return None;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The first line satisfying `pred`, if any.
    pub fn find_line(&self, pred: impl Fn(&str) -> bool) -> Option<String> {
        self.lines.lock().iter().find(|l| pred(l)).cloned()
    }

    /// SIGKILL — the process gets no chance to flush, say goodbye, or
    /// close sockets gracefully. This is the failure model.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// SIGSTOP — the process stops running but its kernel keeps its
    /// sockets open, so the peer sees silence and no reset: the failure
    /// model of a hung OS or a lost power supply, not of a crash. Sent
    /// with `kill -STOP`; [`ChildNode::kill`] still works afterwards.
    pub fn freeze(&mut self) -> std::io::Result<()> {
        let status = Command::new("kill").arg("-STOP").arg(self.child.id().to_string()).status()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!("kill -STOP exited with {status}")))
        }
    }

    /// `true` if the process has exited.
    pub fn is_dead(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }
}

impl Drop for ChildNode {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A minimal frame-speaking peer for tests and benches: one blocking
/// socket, a real epoch handshake, and no supervision on top. Lets a
/// test or bench pose as a whole fleet of application nodes without
/// paying for a [`crate::supervisor::Supervisor`] per identity.
pub struct RawPeer {
    stream: std::net::TcpStream,
    /// The node id this peer claimed in its hello.
    pub node: NodeId,
    /// Epoch stamped on our outgoing frames.
    pub epoch: u32,
    /// Epoch the remote end stamped on its handshake reply.
    pub peer_epoch: u32,
    max_frame: u32,
}

impl RawPeer {
    /// Connects, sends a hello as `node`, and blocks for the reply.
    pub fn connect(addr: &str, node: NodeId, epoch: u32) -> Result<RawPeer, String> {
        let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).ok();
        RawPeer::handshake(stream, node, epoch)
    }

    /// Runs the hello exchange over an already-connected stream.
    pub fn handshake(
        mut stream: std::net::TcpStream,
        node: NodeId,
        epoch: u32,
    ) -> Result<RawPeer, String> {
        use crate::frame::{read_frame, write_frame, FrameClass, DEFAULT_MAX_FRAME_BYTES};
        let hello = comsim::marshal::to_bytes(&crate::supervisor::Hello { node })
            .map_err(|e| format!("marshal hello: {e}"))?;
        write_frame(&mut stream, FrameClass::Handshake, epoch, &hello, &[], &[])
            .map_err(|e| format!("send hello: {e}"))?;
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
            .map_err(|e| format!("hello reply: {e}"))?;
        if reply.header.class != FrameClass::Handshake {
            return Err(format!("expected handshake reply, got {:?}", reply.header.class));
        }
        stream.set_read_timeout(None).ok();
        Ok(RawPeer {
            stream,
            node,
            epoch,
            peer_epoch: reply.header.epoch,
            max_frame: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Writes one frame, blocking until it is fully on the wire.
    pub fn send(
        &mut self,
        class: crate::frame::FrameClass,
        meta: &[u8],
        body: &[u8],
    ) -> std::io::Result<u64> {
        crate::frame::write_frame(&mut self.stream, class, self.epoch, meta, body, &[])
    }

    /// Encodes an envelope with `codec` and writes it as one frame,
    /// exactly as the supervisor's send path would.
    ///
    /// The harness is a blocking single-threaded test peer and is never
    /// registered as a reactor callback, so its send path is declared
    /// off the reactor hot path.
    // oftt-lint: cold-path
    pub fn send_envelope(
        &mut self,
        codec: &crate::codec::WireCodec,
        envelope: &ds_net::message::Envelope,
    ) -> Result<u64, String> {
        let (meta, payload) = codec
            .encode_envelope(envelope)
            .ok_or("body type not wire-registered")?
            .map_err(|e| format!("encode: {e}"))?;
        crate::frame::write_frame(
            &mut self.stream,
            payload.class,
            self.epoch,
            &meta,
            &payload.head,
            &payload.shared,
        )
        .map_err(|e| format!("send: {e}"))
    }

    /// Blocking-reads the next frame.
    pub fn recv(&mut self) -> Result<crate::frame::Frame, crate::frame::ReadError> {
        crate::frame::read_frame(&mut self.stream, self.max_frame)
    }

    /// Sets (or clears) the read timeout on the underlying socket.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) {
        self.stream.set_read_timeout(timeout).ok();
    }

    /// The underlying stream, for tests that need to stop reading or
    /// shrink socket buffers to provoke backpressure.
    pub fn stream(&self) -> &std::net::TcpStream {
        &self.stream
    }
}

/// Writes `content` to `dir/name` and returns the path.
pub fn write_config(dir: &std::path::Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create config");
    f.write_all(content.as_bytes()).expect("write config");
    path
}

/// Parses `(term=T seq=S crc=C)` out of a checkpoint trace line.
pub fn parse_ckpt_triple(line: &str) -> Option<(u64, u64, u32)> {
    let term = field(line, "term=")?;
    let seq = field(line, "seq=")?;
    let crc = field(line, "crc=")?;
    Some((term, seq, crc as u32))
}

fn field(line: &str, key: &str) -> Option<u64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ckpt_triples_parse_from_trace_lines() {
        let line = "[12.300000s   ckpt] node1/app: ckpt installed (term=3 seq=17 crc=123456)";
        assert_eq!(parse_ckpt_triple(line), Some((3, 17, 123456)));
        assert_eq!(parse_ckpt_triple("no triple here"), None);
    }
}
