//! A synchronous NFSv3/MOUNT test client speaking real TCP.
//!
//! This is the measuring half of the differential harness: it mounts the
//! endpoint's export, resolves file handles with LOOKUP, replays a
//! [`nfstrace`] workload one RPC at a time, and collects per-operation
//! wall-clock latency into a [`LogHist`] — the same histogram type the
//! simulator uses, so real and simulated latency distributions print and
//! fingerprint identically.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use nfsproto::{frame_record, Fattr3, FileHandle, NfsCall, RecordReader, StableHow, XdrError};
use nfstrace::{TraceOp, TraceRecord};
use simcore::LogHist;

use crate::endpoint::EXPORT_PATH;
use crate::wire;

/// A client-side RPC failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The reply did not parse, or the server rejected the call.
    Proto(nfsproto::XdrError),
    /// Record framing violated by the server.
    Framing(nfsproto::RecordError),
    /// The server replied to a different xid than the one in flight.
    XidMismatch {
        /// What we sent.
        sent: u32,
        /// What came back.
        got: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Framing(e) => write!(f, "framing: {e}"),
            ClientError::XidMismatch { sent, got } => {
                write!(f, "xid mismatch: sent {sent}, got {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<nfsproto::XdrError> for ClientError {
    fn from(e: nfsproto::XdrError) -> Self {
        ClientError::Proto(e)
    }
}

/// Per-op latency books from a replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// READ latencies.
    pub read: LogHist,
    /// WRITE latencies.
    pub write: LogHist,
    /// GETATTR (and COMMIT) latencies.
    pub meta: LogHist,
    /// RPCs sent.
    pub calls: u64,
    /// Replies with a non-OK NFS status.
    pub nfs_errors: u64,
}

/// A blocking NFSv3 client over one TCP connection.
pub struct NfsClient {
    stream: TcpStream,
    reader: RecordReader,
    next_xid: u32,
}

impl NfsClient {
    /// Connects and performs the RPC NULL ping.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut c = NfsClient {
            stream,
            reader: RecordReader::new(),
            next_xid: 1,
        };
        let xid = c.fresh_xid();
        c.call_raw(&wire::encode_null_call(
            xid,
            nfsproto::NFS_PROGRAM,
            nfsproto::NFS_VERSION,
        ))?;
        Ok(c)
    }

    fn fresh_xid(&mut self) -> u32 {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1).max(1);
        xid
    }

    /// Sends one framed call and blocks for the matching reply record.
    fn call_raw(&mut self, msg: &[u8]) -> Result<Vec<u8>, ClientError> {
        let mut framed = Vec::with_capacity(msg.len() + 4);
        frame_record(msg, &mut framed);
        self.stream.write_all(&framed)?;
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(record) = self.reader.next_record() {
                return Ok(record);
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed connection",
                )));
            }
            self.reader.push(&buf[..n]).map_err(ClientError::Framing)?;
        }
    }

    /// Sends the call `encode` builds under a fresh xid and decodes the
    /// reply with `decode`, which returns the reply's xid beside the value.
    fn rpc<T>(
        &mut self,
        encode: impl FnOnce(u32) -> Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Result<(u32, T), XdrError>,
    ) -> Result<T, ClientError> {
        let sent = self.fresh_xid();
        let reply = self.call_raw(&encode(sent))?;
        let (got, value) = decode(&reply)?;
        if sent != got {
            return Err(ClientError::XidMismatch { sent, got });
        }
        Ok(value)
    }

    /// MOUNTs the export, returning the root directory handle.
    pub fn mount(&mut self) -> Result<FileHandle, ClientError> {
        self.rpc(
            |xid| wire::encode_mnt_call(xid, EXPORT_PATH),
            wire::decode_mnt_reply,
        )
    }

    /// LOOKUPs `name` under `dir`.
    pub fn lookup(&mut self, dir: FileHandle, name: &str) -> Result<FileHandle, ClientError> {
        let call = NfsCall::Lookup {
            dir,
            name: name.to_string(),
        };
        self.rpc(
            |xid| call.encode(xid),
            |r| wire::decode_lookup_reply(r).map(|(xid, fh, _)| (xid, fh)),
        )
    }

    /// GETATTR.
    pub fn getattr(&mut self, fh: FileHandle) -> Result<Fattr3, ClientError> {
        self.rpc(
            |xid| NfsCall::Getattr { fh }.encode(xid),
            wire::decode_getattr_reply,
        )
    }

    /// READ `count` bytes at `offset`.
    pub fn read(
        &mut self,
        fh: FileHandle,
        offset: u64,
        count: u32,
    ) -> Result<wire::ReadReply, ClientError> {
        self.rpc(
            |xid| NfsCall::Read { fh, offset, count }.encode(xid),
            |r| wire::decode_read_reply(r).map(|r| (r.xid, r)),
        )
    }

    /// WRITE `count` (zero-filled) bytes at `offset` — sent in the full
    /// RFC 1813 form, payload included.
    pub fn write(
        &mut self,
        fh: FileHandle,
        offset: u64,
        count: u32,
        stable: StableHow,
    ) -> Result<wire::WriteReply, ClientError> {
        self.rpc(
            |xid| wire::encode_write_call(xid, &fh, offset, count, stable),
            |r| wire::decode_write_reply(r).map(|r| (r.xid, r)),
        )
    }

    /// COMMIT the whole file, returning `(status, verf)`.
    pub fn commit(&mut self, fh: FileHandle) -> Result<(u32, u64), ClientError> {
        let call = NfsCall::Commit {
            fh,
            offset: 0,
            count: 0,
        };
        self.rpc(
            |xid| call.encode(xid),
            |r| wire::decode_commit_reply(r).map(|(xid, status, verf)| (xid, (status, verf))),
        )
    }

    /// Mounts, resolves every `f{i}` the trace touches, and replays the
    /// trace synchronously. Trace handles (`0x1000 + i` from the
    /// synthesizers) map to export file `f{i}`.
    ///
    /// With `paced`, the client honours the trace's inter-arrival gaps
    /// (sleeping to each record's `time_us`); without it, the replay is
    /// closed-loop: each call is issued the moment the previous reply
    /// lands — the server-visible *order* is the same either way, which
    /// is what the differential harness depends on.
    pub fn replay(
        &mut self,
        trace: &[TraceRecord],
        stable: StableHow,
        paced: bool,
    ) -> Result<ReplayStats, ClientError> {
        let root = self.mount()?;
        let max_file = trace
            .iter()
            .map(|r| r.fh.saturating_sub(0x1000))
            .max()
            .unwrap_or(0);
        let mut handles = Vec::with_capacity(max_file as usize + 1);
        for i in 0..=max_file {
            handles.push(self.lookup(root, &format!("f{i}"))?);
        }

        let mut stats = ReplayStats::default();
        let epoch = Instant::now();
        for rec in trace {
            if paced {
                let target = Duration::from_micros(rec.time_us);
                if let Some(gap) = target.checked_sub(epoch.elapsed()) {
                    std::thread::sleep(gap);
                }
            }
            let fh = handles[rec.fh.saturating_sub(0x1000) as usize];
            let start = Instant::now();
            let (hist, status) = match rec.op {
                TraceOp::Read => {
                    let r = self.read(fh, rec.offset, rec.len)?;
                    (&mut stats.read, r.status)
                }
                TraceOp::Write => {
                    let r = self.write(fh, rec.offset, rec.len, stable)?;
                    (&mut stats.write, r.status)
                }
                TraceOp::Getattr => {
                    self.getattr(fh)?;
                    (&mut stats.meta, 0)
                }
                TraceOp::Lookup | TraceOp::Readdir => {
                    // Not `TraceRecord::to_call`: the endpoint answers LOOKUP
                    // itself and refuses READDIR, so only a GETATTR reaches the
                    // world as the one non-READ call `sim_replay` counts.
                    self.getattr(fh)?;
                    (&mut stats.meta, 0)
                }
            };
            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            hist.add(us);
            stats.calls += 1;
            if status != 0 {
                stats.nfs_errors += 1;
            }
        }
        Ok(stats)
    }
}
