//! `serve` over real sockets, against peers that misbehave at the
//! connection level: one that never sends, one that pipelines calls and
//! never reads its replies, one that breaks record framing, and idle
//! connections still open at shutdown. Every peer socket carries a read
//! timeout, so a server that stops answering fails a test instead of
//! hanging it.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nfsd::{bind, build_world, serve, wire, Endpoint, ExportSpec, WallClock, EXPORT_PATH};
use nfsproto::{frame_record, FileHandle, NfsCall, RecordReader, MAX_FRAGMENT};
use nfssim::WorldConfig;

/// How long any peer waits for a reply before the test fails.
const PEER_TIMEOUT: Duration = Duration::from_secs(10);
/// The server drops a peer that leaves a reply unwritten for 1 s; allow
/// that plus scheduling slack.
const DROP_BOUND: Duration = Duration::from_secs(4);

struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Endpoint>,
}

impl Server {
    fn start() -> Server {
        let endpoint = Endpoint::new(
            build_world(WorldConfig::default(), 5),
            ExportSpec {
                files: 2,
                file_size: 16 * 8_192,
            },
        );
        let (listener, addr) = bind("127.0.0.1:0").expect("bind loopback");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread =
            std::thread::spawn(move || serve(listener, endpoint, WallClock::start(), flag));
        Server { addr, stop, thread }
    }

    /// Sets the stop flag and waits for `serve` to return.
    fn stop(self) -> Endpoint {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("serve panicked")
    }
}

/// A raw peer connection that speaks one call at a time.
struct Peer {
    stream: TcpStream,
    reader: RecordReader,
    xid: u32,
}

impl Peer {
    fn connect(addr: SocketAddr) -> Peer {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(PEER_TIMEOUT))
            .expect("timeout");
        stream
            .set_write_timeout(Some(PEER_TIMEOUT))
            .expect("timeout");
        stream.set_nodelay(true).expect("nodelay");
        Peer {
            stream,
            reader: RecordReader::new(),
            xid: 0,
        }
    }

    fn next_xid(&mut self) -> u32 {
        self.xid += 1;
        self.xid
    }

    fn send(&mut self, call: &[u8]) {
        let mut framed = Vec::new();
        frame_record(call, &mut framed);
        self.stream.write_all(&framed).expect("send a call");
    }

    /// The next reply record; panics on EOF or timeout.
    fn recv(&mut self) -> Vec<u8> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(record) = self.reader.next_record() {
                return record;
            }
            let n = self.stream.read(&mut buf).expect("a reply in time");
            assert!(n > 0, "server hung up");
            self.reader.push(&buf[..n]).expect("well-framed reply");
        }
    }

    fn ping(&mut self) {
        let xid = self.next_xid();
        self.send(&wire::encode_null_call(
            xid,
            nfsproto::NFS_PROGRAM,
            nfsproto::NFS_VERSION,
        ));
        self.recv();
    }

    fn mount(&mut self) -> FileHandle {
        let xid = self.next_xid();
        self.send(&wire::encode_mnt_call(xid, EXPORT_PATH));
        let (got, root) = wire::decode_mnt_reply(&self.recv()).expect("MNT reply");
        assert_eq!(got, xid);
        root
    }

    fn lookup(&mut self, dir: FileHandle, name: &str) -> FileHandle {
        let xid = self.next_xid();
        let name = name.to_string();
        self.send(&NfsCall::Lookup { dir, name }.encode(xid));
        let (got, fh, _) = wire::decode_lookup_reply(&self.recv()).expect("LOOKUP reply");
        assert_eq!(got, xid);
        fh
    }

    fn getattr(&mut self, fh: FileHandle) -> u64 {
        let xid = self.next_xid();
        self.send(&NfsCall::Getattr { fh }.encode(xid));
        let (got, attr) = wire::decode_getattr_reply(&self.recv()).expect("GETATTR reply");
        assert_eq!(got, xid);
        attr.size
    }

    /// Ping, MOUNT, LOOKUP of `f0` and a GETATTR of it.
    fn mount_and_getattr(&mut self) {
        self.ping();
        let root = self.mount();
        let fh = self.lookup(root, "f0");
        assert_eq!(self.getattr(fh), 16 * 8_192);
    }

    /// Reads until the server hangs up, returning the whole records read;
    /// panics if the connection is still open after `PEER_TIMEOUT`.
    fn records_until_hangup(&mut self) -> usize {
        let mut buf = [0u8; 64 * 1024];
        let mut records = 0;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return records,
                Ok(n) => {
                    if self.reader.push(&buf[..n]).is_err() {
                        return records;
                    }
                    while self.reader.next_record().is_some() {
                        records += 1;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    panic!("the server still holds the connection open")
                }
                Err(_) => return records, // reset: hung up hard
            }
        }
    }
}

#[test]
fn a_silent_connection_does_not_delay_another() {
    let server = Server::start();
    let silent = Peer::connect(server.addr);
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    Peer::connect(server.addr).mount_and_getattr();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "second peer took {took:?}");
    drop(silent);
    let ep = server.stop();
    assert_eq!(ep.stats().calls, 4);
}

#[test]
fn a_peer_that_never_reads_is_dropped_and_others_are_served() {
    let server = Server::start();
    let mut stuck = Peer::connect(server.addr);
    stuck.ping();
    let root = stuck.mount();

    // Pipeline LOOKUPs without reading a reply until the server stops
    // taking calls: its send buffer and our receive buffer are full, so
    // the world thread is blocked writing to us. The endpoint answers
    // LOOKUP itself, so no call is left queued in the simulated server
    // for the second peer to wait behind.
    stuck
        .stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    let mut batch = Vec::new();
    let mut sent = 0usize;
    let stalled = loop {
        assert!(sent < 1_000_000, "the server never stopped taking calls");
        batch.clear();
        for _ in 0..64 {
            let xid = stuck.next_xid();
            let name = "f0".to_string();
            frame_record(&NfsCall::Lookup { dir: root, name }.encode(xid), &mut batch);
        }
        match stuck.stream.write_all(&batch) {
            Ok(()) => sent += 64,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                break Instant::now();
            }
            Err(e) => panic!("pipelining failed early: {e}"),
        }
    };

    // Another peer is answered once the stuck one is dropped.
    Peer::connect(server.addr).mount_and_getattr();
    let took = stalled.elapsed();
    assert!(took < DROP_BOUND, "second peer answered after {took:?}");

    // The stuck peer finds the connection closed after some of its
    // replies, not all of them.
    let replies = stuck.records_until_hangup();
    assert!(replies < sent, "{replies} replies to {sent} calls");
    server.stop();
}

#[test]
fn a_framing_violation_drops_only_that_peer() {
    let server = Server::start();
    let mut good = Peer::connect(server.addr);
    good.mount_and_getattr();

    let mut bad = Peer::connect(server.addr);
    bad.ping();
    let marker = 0x8000_0000 | (MAX_FRAGMENT + 1);
    bad.stream
        .write_all(&marker.to_be_bytes())
        .expect("send the marker");
    assert_eq!(bad.records_until_hangup(), 0);

    let root = good.mount();
    let fh = good.lookup(root, "f1");
    assert_eq!(good.getattr(fh), 16 * 8_192);
    server.stop();
}

#[test]
fn stop_returns_promptly_with_idle_peers_and_joins_every_thread() {
    let server = Server::start();
    let port = server.addr.port();
    let silent = Peer::connect(server.addr);
    let mut mounted = Peer::connect(server.addr);
    mounted.mount_and_getattr();
    let mut partial = Peer::connect(server.addr);
    partial.ping();
    // A fragment marker promising 100 bytes, then only 10 of them.
    let mut half = (0x8000_0000u32 | 100).to_be_bytes().to_vec();
    half.extend_from_slice(&[0; 10]);
    partial.stream.write_all(&half).expect("send half a record");
    std::thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    server.stop();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "serve took {took:?} to stop");

    for mut peer in [silent, mounted, partial] {
        peer.records_until_hangup();
    }
    assert_eq!(server_threads(port), 0, "a serve thread outlived serve");
}

/// Threads of this process named after the listener's port, as `serve`
/// names its accept/reader threads. A joined thread can linger in
/// `/proc` for a moment before the kernel reaps it, so this waits up to
/// 1 s for the count to reach zero.
#[cfg(target_os = "linux")]
fn server_threads(port: u16) -> usize {
    let name = format!("nfsd:{port}");
    let count = || {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter_map(Result::ok)
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|comm| comm.trim_end() == name)
            })
            .count()
    };
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let n = count();
        if n == 0 || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[cfg(not(target_os = "linux"))]
fn server_threads(_port: u16) -> usize {
    0
}
