//! The real TCP front of the endpoint: blocking reader threads feeding
//! one world thread that wakes when a record arrives or the world's next
//! deadline falls due.
//!
//! std-only by design (no async runtime, no polling crate). One accept
//! thread at a time blocks in `accept`; once it has a connection it hands
//! the world a write half over a bounded channel and becomes that
//! connection's reader, sending whole reassembled records on the same
//! channel. The world thread owns the [`Endpoint`]: it waits on the
//! channel no longer than the world's next deadline, handles each record
//! at the clock's "now", pumps, and writes the replies itself under a
//! write timeout. So a call is answered as soon as it arrives, and
//! gather-window expiries and disk completions fire on the wall clock.
//! DESIGN.md §15 ("Serve loop") gives the reasons for each choice.

use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nfsproto::{frame_record, RecordReader};
use simcore::SimTime;

use crate::clock::Clock;
use crate::endpoint::Endpoint;

/// Longest the world thread waits before it looks at the stop flag.
const STOP_POLL: Duration = Duration::from_millis(10);
/// Longest one reply may take to reach the socket. A peer that stops
/// reading stalls the world thread this long, then it is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);
/// Records the readers may queue ahead of the world thread; a full
/// channel blocks them, which stops reading from their sockets.
const INGRESS_DEPTH: usize = 64;
/// Reader buffer size.
const READ_CHUNK: usize = 64 * 1024;

/// What the accept/reader threads tell the world thread.
enum Ingress {
    /// A new connection, carrying the world's write half.
    Accepted(TcpStream),
    /// One whole record from connection `.0`.
    Record(usize, Vec<u8>),
    /// Connection `.0` hung up, failed, or violated record framing.
    Closed(usize),
}

/// Serves `endpoint` on `listener` until `stop` goes true, returning the
/// endpoint (with its final books) when the loop exits.
///
/// Every accepted connection becomes one external client of the world.
/// Connections that hang up, violate record framing, or leave a reply
/// unread for longer than the write timeout are dropped; the endpoint
/// keeps running. All threads `serve` starts are joined before it
/// returns.
pub fn serve(
    listener: TcpListener,
    mut endpoint: Endpoint,
    clock: impl Clock,
    stop: Arc<AtomicBool>,
) -> Endpoint {
    let local = listener.local_addr();
    let ports = Ports {
        listener: Arc::new(listener),
        port: local.as_ref().map_or(0, SocketAddr::port),
        stop,
    };
    let (tx, rx) = sync_channel(INGRESS_DEPTH);
    let mut threads = vec![ports.accept_thread(0, tx.clone())];
    // The world's write half per connection id; `None` once dropped.
    let mut conns: Vec<Option<TcpStream>> = Vec::new();
    // The newest connection's accept thread is now its reader, and no
    // thread is accepting yet.
    let mut need_acceptor = false;
    let mut out = Vec::new();

    while !ports.stop.load(Ordering::Relaxed) {
        let wait = match endpoint.next_deadline() {
            Some(t) => Duration::from_nanos(t.as_nanos().saturating_sub(clock.now().as_nanos())),
            None => STOP_POLL,
        };
        let mut next = match rx.recv_timeout(wait.min(STOP_POLL)) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => unreachable!("the world holds a sender"),
        };
        // A quiet wake or an answered call: the next spawn delays no reply.
        let mut spawn_ok = next.is_none();
        while let Some(msg) = next {
            match msg {
                Ingress::Accepted(stream) => {
                    let id = endpoint.connect();
                    debug_assert_eq!(id, conns.len());
                    conns.push(Some(stream));
                    need_acceptor = true;
                }
                Ingress::Record(id, record) => {
                    if conns[id].is_some() {
                        for reply in endpoint.handle_record(clock.now(), id, &record) {
                            send(&mut conns, id, &reply, &mut out);
                        }
                    }
                    spawn_ok = true;
                }
                Ingress::Closed(id) => conns[id] = None,
            }
            next = rx.try_recv().ok();
        }
        for (id, reply) in endpoint.pump(clock.now()) {
            send(&mut conns, id, &reply, &mut out);
        }
        if need_acceptor && spawn_ok {
            threads.push(ports.accept_thread(conns.len(), tx.clone()));
            need_acceptor = false;
        }
    }

    // Teardown: wake the accept thread, hang up on every peer, drain the
    // channel until every thread has dropped its sender, then join.
    drop(tx);
    if let Ok(addr) = local {
        drop(TcpStream::connect(loopback(addr)));
    }
    for stream in conns.iter().flatten() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for msg in rx {
        if let Ingress::Accepted(stream) = msg {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
    for t in threads {
        let _ = t.join();
    }

    // Final pump so books are settled when the caller reads them.
    endpoint.pump(clock.now().max(SimTime::from_nanos(1)));
    endpoint
}

/// What every accept/reader thread shares.
#[derive(Clone)]
struct Ports {
    listener: Arc<TcpListener>,
    /// The listener's port, which names the threads.
    port: u16,
    stop: Arc<AtomicBool>,
}

impl Ports {
    /// Starts the thread that accepts connection `id` and then reads it.
    fn accept_thread(&self, id: usize, tx: SyncSender<Ingress>) -> JoinHandle<()> {
        let ports = self.clone();
        std::thread::Builder::new()
            .name(format!("nfsd:{}", self.port))
            .spawn(move || ports.accept_then_read(id, &tx))
            .expect("spawn an nfsd accept thread")
    }

    fn accept_then_read(&self, id: usize, tx: &SyncSender<Ingress>) {
        let mut stream = loop {
            let accepted = self.listener.accept();
            if self.stop.load(Ordering::Relaxed) {
                return; // the teardown's wake-up, or a peer that came too late
            }
            match accepted.and_then(|(s, _)| prepare(s)) {
                Ok((read, write)) => {
                    if tx.send(Ingress::Accepted(write)).is_err() {
                        return;
                    }
                    break read;
                }
                // A persistent failure (out of descriptors) must not spin.
                Err(_) => std::thread::sleep(STOP_POLL),
            }
        };
        let mut reader = RecordReader::new();
        let mut buf = vec![0u8; READ_CHUNK];
        while !self.stop.load(Ordering::Relaxed) {
            let n = match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if reader.push(&buf[..n]).is_err() {
                break; // framing violation: drop the peer
            }
            while let Some(record) = reader.next_record() {
                if tx.send(Ingress::Record(id, record)).is_err() {
                    return;
                }
            }
        }
        let _ = tx.send(Ingress::Closed(id));
    }
}

/// Sets up an accepted stream, returning its read and write halves.
fn prepare(stream: TcpStream) -> std::io::Result<(TcpStream, TcpStream)> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let write = stream.try_clone()?;
    Ok((stream, write))
}

/// Frames `reply` and writes it to connection `id`, dropping the
/// connection if the write fails or outlasts [`WRITE_TIMEOUT`].
fn send(conns: &mut [Option<TcpStream>], id: usize, reply: &[u8], out: &mut Vec<u8>) {
    let Some(stream) = conns.get_mut(id).and_then(Option::as_mut) else {
        return;
    };
    out.clear();
    frame_record(reply, out);
    if write_within(stream, out).is_err() {
        // Hanging up wakes the reader, whose `Closed` comes later; the
        // world ignores the connection from here on.
        let _ = stream.shutdown(Shutdown::Both);
        conns[id] = None;
    }
}

/// Writes all of `bytes` or fails. The socket's write timeout bounds each
/// call; the deadline stops a peer that drains a little at a time from
/// stretching one reply across many of them.
fn write_within(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + WRITE_TIMEOUT;
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if !bytes.is_empty() && Instant::now() >= deadline {
            return Err(ErrorKind::TimedOut.into());
        }
    }
    Ok(())
}

/// The address a local connect reaches `addr`'s listener on.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// Binds a listener on `addr` (port 0 = ephemeral), returning it with the
/// actual bound address.
pub fn bind(addr: &str) -> std::io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    Ok((listener, local))
}
