//! NFS v3 message subset (RFC 1813) over SUN RPC (RFC 1831) headers.
//!
//! Only what the paper's workloads exercise: READ (the star of the show),
//! WRITE and GETATTR/LOOKUP (for the mixed-workload extension), and
//! READDIR/READDIRPLUS (for the metadata-heavy tree-walk workloads). Data
//! payloads — write bytes, read bytes, directory entry lists — are carried
//! as *lengths*, not bytes: the simulator transfers time, not content. But
//! every header field is really encoded and decoded, and
//! `wire_bytes() == encode().len() + elided payload` holds for every
//! variant (a property test pins it), so wire sizes are honest.

use crate::rpc::{AcceptStat, CallHeader, ReplyHeader};
use crate::xdr::{XdrDecoder, XdrEncoder, XdrError};

/// The NFS program number.
pub const NFS_PROGRAM: u32 = 100_003;
/// Protocol version modelled (v3; v2 differs only in widths we don't rely on).
pub const NFS_VERSION: u32 = 3;
/// Size of a SUN RPC call header with AUTH_UNIX, as we encode it.
pub const RPC_CALL_HEADER_BYTES: u64 = 40;
/// Size of a SUN RPC accepted-reply header.
pub const RPC_REPLY_HEADER_BYTES: u64 = 24;

/// An NFS file handle: opaque to clients, meaningful to the server.
///
/// Ours carries the file-system id and inode number — enough for the
/// `nfsheur` hash, which in FreeBSD is computed from exactly these fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileHandle {
    /// File-system identifier.
    pub fsid: u32,
    /// Inode number.
    pub ino: u64,
    /// Generation number (guards against stale handles).
    pub generation: u32,
}

impl FileHandle {
    /// Encodes as a fixed 16-byte NFS3 handle.
    pub fn encode(&self, e: &mut XdrEncoder) {
        let mut bytes = [0u8; 16];
        bytes[0..4].copy_from_slice(&self.fsid.to_be_bytes());
        bytes[4..12].copy_from_slice(&self.ino.to_be_bytes());
        bytes[12..16].copy_from_slice(&self.generation.to_be_bytes());
        e.put_opaque(&bytes);
    }

    /// Decodes a handle encoded by [`FileHandle::encode`].
    pub fn decode(d: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let raw = d.get_opaque()?;
        if raw.len() != 16 {
            return Err(XdrError::BadLength(raw.len() as u32));
        }
        Ok(FileHandle {
            fsid: u32::from_be_bytes(raw[0..4].try_into().expect("len checked")),
            ino: u64::from_be_bytes(raw[4..12].try_into().expect("len checked")),
            generation: u32::from_be_bytes(raw[12..16].try_into().expect("len checked")),
        })
    }
}

/// NFS procedure numbers (RFC 1813 §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NfsProc {
    /// Fetch attributes.
    Getattr,
    /// Name lookup.
    Lookup,
    /// Read file data.
    Read,
    /// Write file data.
    Write,
    /// Read directory entries.
    Readdir,
    /// Read directory entries with attributes and handles.
    Readdirplus,
    /// Commit cached writes to stable storage.
    Commit,
}

impl NfsProc {
    /// RFC 1813 procedure number.
    pub fn number(self) -> u32 {
        match self {
            NfsProc::Getattr => 1,
            NfsProc::Lookup => 3,
            NfsProc::Read => 6,
            NfsProc::Write => 7,
            NfsProc::Readdir => 16,
            NfsProc::Readdirplus => 17,
            NfsProc::Commit => 21,
        }
    }

    /// Inverse of [`NfsProc::number`].
    pub fn from_number(n: u32) -> Option<Self> {
        match n {
            1 => Some(NfsProc::Getattr),
            3 => Some(NfsProc::Lookup),
            6 => Some(NfsProc::Read),
            7 => Some(NfsProc::Write),
            16 => Some(NfsProc::Readdir),
            17 => Some(NfsProc::Readdirplus),
            21 => Some(NfsProc::Commit),
            _ => None,
        }
    }
}

/// WRITE stability level (RFC 1813 §3.3.7 `stable_how`).
///
/// `Unstable` is the async-write trap: the server may reply before the
/// data reaches stable storage, and the client must hold the data for
/// rewrite until a COMMIT whose verifier matches the WRITE replies'.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StableHow {
    /// Server may cache the data and reply immediately.
    Unstable,
    /// Data (not necessarily metadata) on stable storage before reply.
    DataSync,
    /// Data and metadata on stable storage before reply.
    FileSync,
}

impl StableHow {
    /// RFC 1813 enum value.
    pub fn code(self) -> u32 {
        match self {
            StableHow::Unstable => 0,
            StableHow::DataSync => 1,
            StableHow::FileSync => 2,
        }
    }

    /// Inverse of [`StableHow::code`].
    pub fn from_code(c: u32) -> Option<Self> {
        match c {
            0 => Some(StableHow::Unstable),
            1 => Some(StableHow::DataSync),
            2 => Some(StableHow::FileSync),
            _ => None,
        }
    }
}

/// Derives a server write verifier (RFC 1813 `writeverf3`) from a server
/// instance id and its boot epoch (restart count).
///
/// The verifier is an opaque 8-byte cookie that must change whenever the
/// server may have lost cached-but-uncommitted write data — in practice,
/// on every reboot. A client comparing the verifier in a COMMIT (or
/// later WRITE) reply against the one it saw at WRITE time detects the
/// crash window and rewrites. splitmix64 finalization makes distinct
/// epochs map to distinct cookies for any fixed instance.
pub fn write_verf(instance: u64, boot_epoch: u64) -> u64 {
    let mut z = instance
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(boot_epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// NFS status codes we use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfsStatus {
    /// Success.
    Ok,
    /// No such file.
    NoEnt,
    /// Stale file handle.
    Stale,
    /// I/O error.
    Io,
    /// Invalid argument (a byte range that overflows).
    Inval,
    /// No space left on the device.
    NoSpc,
}

impl NfsStatus {
    /// RFC 1813 `nfsstat3` value.
    pub fn code(self) -> u32 {
        match self {
            NfsStatus::Ok => 0,
            NfsStatus::NoEnt => 2,
            NfsStatus::Io => 5,
            NfsStatus::Inval => 22,
            NfsStatus::NoSpc => 28,
            NfsStatus::Stale => 70,
        }
    }

    fn from_code(c: u32) -> Option<Self> {
        match c {
            0 => Some(NfsStatus::Ok),
            2 => Some(NfsStatus::NoEnt),
            5 => Some(NfsStatus::Io),
            22 => Some(NfsStatus::Inval),
            28 => Some(NfsStatus::NoSpc),
            70 => Some(NfsStatus::Stale),
            _ => None,
        }
    }
}

/// An NFS call (client to server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsCall {
    /// GETATTR.
    Getattr {
        /// Target file.
        fh: FileHandle,
    },
    /// LOOKUP of `name` in directory `dir`.
    Lookup {
        /// Directory handle.
        dir: FileHandle,
        /// Component name.
        name: String,
    },
    /// READ of `count` bytes at `offset`.
    Read {
        /// Target file.
        fh: FileHandle,
        /// Byte offset.
        offset: u64,
        /// Bytes requested.
        count: u32,
    },
    /// WRITE of `count` bytes at `offset` (payload carried as length only).
    Write {
        /// Target file.
        fh: FileHandle,
        /// Byte offset.
        offset: u64,
        /// Bytes written.
        count: u32,
        /// Requested stability level.
        stable: StableHow,
    },
    /// READDIR of `dir`, continuing from `cookie`.
    Readdir {
        /// Directory handle.
        dir: FileHandle,
        /// Resume cookie (0 = start of directory).
        cookie: u64,
        /// Cookie verifier from the previous reply (0 on the first call).
        cookieverf: u64,
        /// Maximum reply bytes the client will accept.
        count: u32,
    },
    /// READDIRPLUS of `dir`: entries plus attributes and handles.
    Readdirplus {
        /// Directory handle.
        dir: FileHandle,
        /// Resume cookie (0 = start of directory).
        cookie: u64,
        /// Cookie verifier from the previous reply (0 on the first call).
        cookieverf: u64,
        /// Maximum bytes of directory information (names and cookies).
        dircount: u32,
        /// Maximum total reply bytes, attributes included.
        maxcount: u32,
    },
    /// COMMIT of the byte range `[offset, offset + count)` (`count` 0 =
    /// everything) to stable storage.
    Commit {
        /// Target file.
        fh: FileHandle,
        /// Byte offset.
        offset: u64,
        /// Bytes to commit (0 means to EOF).
        count: u32,
    },
}

impl NfsCall {
    /// The procedure this call invokes.
    pub fn proc(&self) -> NfsProc {
        match self {
            NfsCall::Getattr { .. } => NfsProc::Getattr,
            NfsCall::Lookup { .. } => NfsProc::Lookup,
            NfsCall::Read { .. } => NfsProc::Read,
            NfsCall::Write { .. } => NfsProc::Write,
            NfsCall::Readdir { .. } => NfsProc::Readdir,
            NfsCall::Readdirplus { .. } => NfsProc::Readdirplus,
            NfsCall::Commit { .. } => NfsProc::Commit,
        }
    }

    /// The file handle the call targets.
    pub fn fh(&self) -> FileHandle {
        match self {
            NfsCall::Getattr { fh }
            | NfsCall::Read { fh, .. }
            | NfsCall::Write { fh, .. }
            | NfsCall::Commit { fh, .. } => *fh,
            NfsCall::Lookup { dir, .. }
            | NfsCall::Readdir { dir, .. }
            | NfsCall::Readdirplus { dir, .. } => *dir,
        }
    }

    /// Encodes the call with its RPC header.
    pub fn encode(&self, xid: u32) -> Vec<u8> {
        self.encode_into(xid, Vec::new())
    }

    /// Encodes the call into a recycled buffer, reusing its capacity.
    ///
    /// The buffer is cleared first. This is the allocation-free path the
    /// simulator's hot loop uses: once a buffer has grown to the size of
    /// the largest message, re-encoding into it touches no allocator.
    pub fn encode_into(&self, xid: u32, buf: Vec<u8>) -> Vec<u8> {
        let mut e = XdrEncoder::into_buf(buf);
        CallHeader {
            xid,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc_num: self.proc().number(),
        }
        .encode(&mut e);
        debug_assert_eq!(e.len() as u64, RPC_CALL_HEADER_BYTES + 8);
        match self {
            NfsCall::Getattr { fh } => fh.encode(&mut e),
            NfsCall::Lookup { dir, name } => {
                dir.encode(&mut e);
                e.put_string(name);
            }
            NfsCall::Read { fh, offset, count } => {
                fh.encode(&mut e);
                e.put_u64(*offset);
                e.put_u32(*count);
            }
            NfsCall::Write {
                fh,
                offset,
                count,
                stable,
            } => {
                fh.encode(&mut e);
                e.put_u64(*offset);
                e.put_u32(*count);
                e.put_u32(stable.code());
                e.put_u32(*count); // opaque data length (bytes elided)
            }
            NfsCall::Readdir {
                dir,
                cookie,
                cookieverf,
                count,
            } => {
                dir.encode(&mut e);
                e.put_u64(*cookie);
                e.put_u64(*cookieverf);
                e.put_u32(*count);
            }
            NfsCall::Readdirplus {
                dir,
                cookie,
                cookieverf,
                dircount,
                maxcount,
            } => {
                dir.encode(&mut e);
                e.put_u64(*cookie);
                e.put_u64(*cookieverf);
                e.put_u32(*dircount);
                e.put_u32(*maxcount);
            }
            NfsCall::Commit { fh, offset, count } => {
                fh.encode(&mut e);
                e.put_u64(*offset);
                e.put_u32(*count);
            }
        }
        e.finish()
    }

    /// Decodes a call, returning `(xid, call)`.
    pub fn decode(buf: &[u8]) -> Result<(u32, NfsCall), XdrError> {
        let mut d = XdrDecoder::new(buf);
        let hdr = CallHeader::decode(&mut d)?;
        let proc_ = NfsProc::from_number(hdr.proc_num).ok_or(XdrError::BadEnum {
            what: "NFS procedure",
            value: hdr.proc_num,
        })?;
        let call = NfsCall::decode_args(proc_, &mut d)?;
        Ok((hdr.xid, call))
    }

    /// Decodes just the procedure arguments, the decoder already
    /// positioned past an RPC call header.
    ///
    /// This is the piece the real-socket endpoint shares: it decodes the
    /// [`CallHeader`] itself (it must route on program/version before
    /// trusting the body), then hands the argument bytes here. The WRITE
    /// arm reads the payload's declared length and skips any carried
    /// bytes, so both the simulator's length-only encoding and a real
    /// client's full payload parse identically.
    pub fn decode_args(proc_: NfsProc, d: &mut XdrDecoder<'_>) -> Result<NfsCall, XdrError> {
        let call = match proc_ {
            NfsProc::Getattr => NfsCall::Getattr {
                fh: FileHandle::decode(d)?,
            },
            NfsProc::Lookup => {
                let dir = FileHandle::decode(d)?;
                let name = d.get_string()?.to_string();
                NfsCall::Lookup { dir, name }
            }
            NfsProc::Read => NfsCall::Read {
                fh: FileHandle::decode(d)?,
                offset: d.get_u64()?,
                count: d.get_u32()?,
            },
            NfsProc::Write => {
                let fh = FileHandle::decode(d)?;
                let offset = d.get_u64()?;
                let count = d.get_u32()?;
                let stable_code = d.get_u32()?;
                let stable = StableHow::from_code(stable_code).ok_or(XdrError::BadEnum {
                    what: "stable_how",
                    value: stable_code,
                })?;
                // Payload: the simulator encodes the length word only; a
                // real client's WRITE3args carries the bytes too. Accept
                // both by skipping whatever of the declared payload is
                // actually present.
                let len = d.get_u32()?;
                if len > crate::xdr::MAX_OPAQUE {
                    return Err(XdrError::BadLength(len));
                }
                let carried = (len as usize).min(d.remaining());
                d.get_opaque_fixed(carried).ok();
                NfsCall::Write {
                    fh,
                    offset,
                    count,
                    stable,
                }
            }
            NfsProc::Readdir => NfsCall::Readdir {
                dir: FileHandle::decode(d)?,
                cookie: d.get_u64()?,
                cookieverf: d.get_u64()?,
                count: d.get_u32()?,
            },
            NfsProc::Readdirplus => NfsCall::Readdirplus {
                dir: FileHandle::decode(d)?,
                cookie: d.get_u64()?,
                cookieverf: d.get_u64()?,
                dircount: d.get_u32()?,
                maxcount: d.get_u32()?,
            },
            NfsProc::Commit => NfsCall::Commit {
                fh: FileHandle::decode(d)?,
                offset: d.get_u64()?,
                count: d.get_u32()?,
            },
        };
        Ok(call)
    }

    /// Wire size in bytes, data payload included for writes.
    pub fn wire_bytes(&self) -> u64 {
        let body = match self {
            NfsCall::Getattr { .. } => 20,
            NfsCall::Lookup { name, .. } => 20 + 4 + name.len().div_ceil(4) as u64 * 4,
            NfsCall::Read { .. } => 20 + 12,
            NfsCall::Write { count, .. } => 20 + 20 + u64::from(*count),
            NfsCall::Readdir { .. } => 20 + 20,
            NfsCall::Readdirplus { .. } => 20 + 24,
            NfsCall::Commit { .. } => 20 + 12,
        };
        RPC_CALL_HEADER_BYTES + 8 + body
    }
}

/// Minimal file attributes (enough for GETATTR and post-op attrs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fattr3 {
    /// File size in bytes.
    pub size: u64,
    /// File id (inode number).
    pub fileid: u64,
}

/// An NFS reply (server to client).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsReply {
    /// Reply to GETATTR.
    Getattr {
        /// Status.
        status: NfsStatus,
        /// Attributes when `status` is `Ok`.
        attrs: Option<Fattr3>,
    },
    /// Reply to LOOKUP.
    Lookup {
        /// Status.
        status: NfsStatus,
        /// Resolved handle when `status` is `Ok`.
        fh: Option<FileHandle>,
    },
    /// Reply to READ; data carried as a length.
    Read {
        /// Status.
        status: NfsStatus,
        /// Bytes returned.
        count: u32,
        /// Whether EOF was reached.
        eof: bool,
    },
    /// Reply to WRITE.
    Write {
        /// Status.
        status: NfsStatus,
        /// Bytes accepted.
        count: u32,
        /// Stability actually achieved (a server may commit harder than
        /// asked, never softer).
        committed: StableHow,
        /// Write verifier: changes iff the server rebooted and may have
        /// lost unstable data (RFC 1813 §3.3.7).
        verf: u64,
    },
    /// Reply to READDIR or READDIRPLUS; the entry list is carried as a
    /// count and a byte length, the way READ carries its data.
    Readdir {
        /// Status.
        status: NfsStatus,
        /// Whether this reply answers READDIRPLUS (entries carried
        /// attributes and handles) rather than plain READDIR.
        plus: bool,
        /// Cookie verifier to present on the next continuation call.
        cookieverf: u64,
        /// Directory entries returned.
        entries: u32,
        /// Encoded size of the entry list (names, cookies, and — for
        /// READDIRPLUS — attributes and handles), carried as a length.
        bytes: u32,
        /// Whether the end of the directory was reached.
        eof: bool,
    },
    /// Reply to COMMIT.
    Commit {
        /// Status.
        status: NfsStatus,
        /// Write verifier, compared against the WRITE-time one.
        verf: u64,
    },
}

impl NfsReply {
    /// Encodes the reply with its RPC header.
    pub fn encode(&self, xid: u32) -> Vec<u8> {
        self.encode_into(xid, Vec::new())
    }

    /// Encodes the reply into a recycled buffer, reusing its capacity.
    ///
    /// See [`NfsCall::encode_into`]; same contract.
    pub fn encode_into(&self, xid: u32, buf: Vec<u8>) -> Vec<u8> {
        let mut e = XdrEncoder::into_buf(buf);
        ReplyHeader::success(xid).encode(&mut e);
        debug_assert_eq!(e.len() as u64, RPC_REPLY_HEADER_BYTES);
        match self {
            NfsReply::Getattr { status, attrs } => {
                e.put_u32(status.code());
                if let Some(a) = attrs {
                    e.put_u64(a.size);
                    e.put_u64(a.fileid);
                }
            }
            NfsReply::Lookup { status, fh } => {
                e.put_u32(status.code());
                if let Some(fh) = fh {
                    fh.encode(&mut e);
                }
            }
            NfsReply::Read { status, count, eof } => {
                e.put_u32(status.code());
                e.put_u32(*count);
                e.put_bool(*eof);
                e.put_u32(*count); // opaque data length (bytes elided)
            }
            NfsReply::Write {
                status,
                count,
                committed,
                verf,
            } => {
                e.put_u32(status.code());
                e.put_u32(*count);
                e.put_u32(committed.code());
                e.put_u64(*verf);
            }
            NfsReply::Readdir {
                status,
                plus: _, // implied by the procedure, not encoded
                cookieverf,
                entries,
                bytes,
                eof,
            } => {
                e.put_u32(status.code());
                e.put_u64(*cookieverf);
                e.put_u32(*entries);
                e.put_bool(*eof);
                e.put_u32(*bytes); // entry-list length (bytes elided)
            }
            NfsReply::Commit { status, verf } => {
                e.put_u32(status.code());
                e.put_u64(*verf);
            }
        }
        e.finish()
    }

    /// Decodes a reply to the given procedure, returning `(xid, reply)`.
    pub fn decode(proc_: NfsProc, buf: &[u8]) -> Result<(u32, NfsReply), XdrError> {
        let mut d = XdrDecoder::new(buf);
        let hdr = ReplyHeader::decode(&mut d)?;
        if hdr.stat != AcceptStat::Success {
            return Err(XdrError::BadEnum {
                what: "accept_stat (expected SUCCESS)",
                value: hdr.stat.code(),
            });
        }
        let xid = hdr.xid;
        let status_code = d.get_u32()?;
        let status = NfsStatus::from_code(status_code).ok_or(XdrError::BadEnum {
            what: "nfsstat3",
            value: status_code,
        })?;
        let reply = match proc_ {
            NfsProc::Getattr => NfsReply::Getattr {
                status,
                attrs: if status == NfsStatus::Ok {
                    Some(Fattr3 {
                        size: d.get_u64()?,
                        fileid: d.get_u64()?,
                    })
                } else {
                    None
                },
            },
            NfsProc::Lookup => NfsReply::Lookup {
                status,
                fh: if status == NfsStatus::Ok {
                    Some(FileHandle::decode(&mut d)?)
                } else {
                    None
                },
            },
            NfsProc::Read => {
                let count = d.get_u32()?;
                let eof = d.get_bool()?;
                let _len = d.get_u32()?;
                NfsReply::Read { status, count, eof }
            }
            NfsProc::Write => {
                let count = d.get_u32()?;
                let committed_code = d.get_u32()?;
                let committed = StableHow::from_code(committed_code).ok_or(XdrError::BadEnum {
                    what: "stable_how (committed)",
                    value: committed_code,
                })?;
                let verf = d.get_u64()?;
                NfsReply::Write {
                    status,
                    count,
                    committed,
                    verf,
                }
            }
            NfsProc::Readdir | NfsProc::Readdirplus => {
                let cookieverf = d.get_u64()?;
                let entries = d.get_u32()?;
                let eof = d.get_bool()?;
                let bytes = d.get_u32()?;
                NfsReply::Readdir {
                    status,
                    plus: proc_ == NfsProc::Readdirplus,
                    cookieverf,
                    entries,
                    bytes,
                    eof,
                }
            }
            NfsProc::Commit => NfsReply::Commit {
                status,
                verf: d.get_u64()?,
            },
        };
        Ok((xid, reply))
    }

    /// Wire size in bytes, elided payloads included: read data for READ,
    /// the encoded entry list for READDIR(PLUS). For every variant this
    /// equals `encode().len()` plus the elided payload — the honesty
    /// contract the codec property tests pin. (Real replies also carry
    /// post-op attributes / `wcc_data` this model elides entirely, on
    /// call and reply alike, so both directions are consistently lean.)
    pub fn wire_bytes(&self) -> u64 {
        let body = match self {
            NfsReply::Getattr { attrs, .. } => 4 + if attrs.is_some() { 16 } else { 0 },
            NfsReply::Lookup { fh, .. } => 4 + if fh.is_some() { 20 } else { 0 },
            NfsReply::Read { count, .. } => 4 + 12 + u64::from(*count),
            NfsReply::Write { .. } => 20,
            NfsReply::Readdir { bytes, .. } => 4 + 20 + u64::from(*bytes),
            NfsReply::Commit { .. } => 4 + 8,
        };
        RPC_REPLY_HEADER_BYTES + body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fh() -> FileHandle {
        FileHandle {
            fsid: 7,
            ino: 123_456,
            generation: 9,
        }
    }

    #[test]
    fn file_handle_roundtrip() {
        let mut e = XdrEncoder::new();
        fh().encode(&mut e);
        let buf = e.finish();
        let mut d = XdrDecoder::new(&buf);
        assert_eq!(FileHandle::decode(&mut d).unwrap(), fh());
    }

    #[test]
    fn read_call_roundtrip() {
        let call = NfsCall::Read {
            fh: fh(),
            offset: 65_536,
            count: 8_192,
        };
        let buf = call.encode(0xdead_beef);
        let (xid, decoded) = NfsCall::decode(&buf).unwrap();
        assert_eq!(xid, 0xdead_beef);
        assert_eq!(decoded, call);
    }

    #[test]
    fn lookup_call_roundtrip() {
        let call = NfsCall::Lookup {
            dir: fh(),
            name: "bench-256MB".to_string(),
        };
        let buf = call.encode(1);
        let (_, decoded) = NfsCall::decode(&buf).unwrap();
        assert_eq!(decoded, call);
    }

    #[test]
    fn write_call_roundtrip() {
        for stable in [
            StableHow::Unstable,
            StableHow::DataSync,
            StableHow::FileSync,
        ] {
            let call = NfsCall::Write {
                fh: fh(),
                offset: 0,
                count: 8_192,
                stable,
            };
            let (_, decoded) = NfsCall::decode(&call.encode(2)).unwrap();
            assert_eq!(decoded, call);
        }
    }

    #[test]
    fn commit_roundtrip_both_directions() {
        let call = NfsCall::Commit {
            fh: fh(),
            offset: 8_192,
            count: 65_536,
        };
        let (xid, dec) = NfsCall::decode(&call.encode(21)).unwrap();
        assert_eq!(xid, 21);
        assert_eq!(dec, call);
        let reply = NfsReply::Commit {
            status: NfsStatus::Ok,
            verf: 0xfeed_f00d_dead_beef,
        };
        let (_, dec) = NfsReply::decode(NfsProc::Commit, &reply.encode(21)).unwrap();
        assert_eq!(dec, reply);
        // COMMIT is a small metadata round trip either way.
        assert!(call.wire_bytes() < 120, "{}", call.wire_bytes());
        assert!(reply.wire_bytes() < 64, "{}", reply.wire_bytes());
    }

    #[test]
    fn write_verf_changes_iff_boot_epoch_changes() {
        for instance in [0u64, 1, 42, u64::MAX] {
            for epoch in 0u64..8 {
                assert_eq!(
                    write_verf(instance, epoch),
                    write_verf(instance, epoch),
                    "verifier must be a pure function"
                );
                assert_ne!(
                    write_verf(instance, epoch),
                    write_verf(instance, epoch + 1),
                    "a restart must change the verifier"
                );
            }
        }
    }

    #[test]
    fn getattr_roundtrip_both_directions() {
        let call = NfsCall::Getattr { fh: fh() };
        let (_, dec) = NfsCall::decode(&call.encode(3)).unwrap();
        assert_eq!(dec, call);
        let reply = NfsReply::Getattr {
            status: NfsStatus::Ok,
            attrs: Some(Fattr3 {
                size: 268_435_456,
                fileid: 42,
            }),
        };
        let (xid, dec) = NfsReply::decode(NfsProc::Getattr, &reply.encode(3)).unwrap();
        assert_eq!(xid, 3);
        assert_eq!(dec, reply);
    }

    #[test]
    fn read_reply_roundtrip() {
        let reply = NfsReply::Read {
            status: NfsStatus::Ok,
            count: 8_192,
            eof: false,
        };
        let (_, dec) = NfsReply::decode(NfsProc::Read, &reply.encode(9)).unwrap();
        assert_eq!(dec, reply);
    }

    #[test]
    fn error_reply_roundtrip() {
        let reply = NfsReply::Lookup {
            status: NfsStatus::NoEnt,
            fh: None,
        };
        let (_, dec) = NfsReply::decode(NfsProc::Lookup, &reply.encode(4)).unwrap();
        assert_eq!(dec, reply);
    }

    #[test]
    fn wire_bytes_match_an_8k_read() {
        // An 8 KB READ reply should be a little over 8 KB on the wire.
        let reply = NfsReply::Read {
            status: NfsStatus::Ok,
            count: 8_192,
            eof: false,
        };
        let wb = reply.wire_bytes();
        assert!((8_192..8_400).contains(&wb), "wire bytes {wb}");
        let call = NfsCall::Read {
            fh: fh(),
            offset: 0,
            count: 8_192,
        };
        assert!(
            call.wire_bytes() < 120,
            "READ call is small: {}",
            call.wire_bytes()
        );
    }

    #[test]
    fn write_wire_bytes_include_payload() {
        let call = NfsCall::Write {
            fh: fh(),
            offset: 0,
            count: 8_192,
            stable: StableHow::Unstable,
        };
        assert!(call.wire_bytes() > 8_192);
        // The stability level is content, not size: all three encode to
        // the same number of wire bytes.
        let sync = NfsCall::Write {
            fh: fh(),
            offset: 0,
            count: 8_192,
            stable: StableHow::FileSync,
        };
        assert_eq!(call.wire_bytes(), sync.wire_bytes());
        assert_eq!(call.encode(1).len(), sync.encode(1).len());
    }

    #[test]
    fn decode_rejects_reply_as_call() {
        let reply = NfsReply::Write {
            status: NfsStatus::Ok,
            count: 1,
            committed: StableHow::FileSync,
            verf: 7,
        };
        assert!(NfsCall::decode(&reply.encode(5)).is_err());
    }

    #[test]
    fn truncated_call_fails_cleanly() {
        let call = NfsCall::Read {
            fh: fh(),
            offset: 0,
            count: 8_192,
        };
        let buf = call.encode(6);
        assert!(NfsCall::decode(&buf[..buf.len() - 4]).is_err());
    }

    #[test]
    fn encode_into_recycled_buffer_matches_fresh_encode() {
        let call = NfsCall::Read {
            fh: fh(),
            offset: 65_536,
            count: 8_192,
        };
        let reply = NfsReply::Read {
            status: NfsStatus::Ok,
            count: 8_192,
            eof: true,
        };
        // Recycle one buffer through several encodes; each must be
        // byte-identical to a fresh encode and must not grow capacity
        // after the first pass.
        let mut buf = Vec::new();
        for xid in [1u32, 77, 0xdead_beef] {
            buf = call.encode_into(xid, buf);
            assert_eq!(buf, call.encode(xid));
            let cap = buf.capacity();
            buf = reply.encode_into(xid, buf);
            assert_eq!(buf, reply.encode(xid));
            assert!(buf.capacity() <= cap.max(buf.len()));
        }
    }

    #[test]
    fn proc_numbers_are_rfc1813() {
        assert_eq!(NfsProc::Getattr.number(), 1);
        assert_eq!(NfsProc::Lookup.number(), 3);
        assert_eq!(NfsProc::Read.number(), 6);
        assert_eq!(NfsProc::Write.number(), 7);
        assert_eq!(NfsProc::Readdir.number(), 16);
        assert_eq!(NfsProc::Readdirplus.number(), 17);
        assert_eq!(NfsProc::Commit.number(), 21);
        for p in [
            NfsProc::Getattr,
            NfsProc::Lookup,
            NfsProc::Read,
            NfsProc::Write,
            NfsProc::Readdir,
            NfsProc::Readdirplus,
            NfsProc::Commit,
        ] {
            assert_eq!(NfsProc::from_number(p.number()), Some(p));
        }
        assert_eq!(NfsProc::from_number(99), None);
    }

    #[test]
    fn readdir_roundtrip_both_directions() {
        let call = NfsCall::Readdir {
            dir: fh(),
            cookie: 128,
            cookieverf: 0xabad_cafe,
            count: 4_096,
        };
        let (xid, dec) = NfsCall::decode(&call.encode(16)).unwrap();
        assert_eq!(xid, 16);
        assert_eq!(dec, call);
        let reply = NfsReply::Readdir {
            status: NfsStatus::Ok,
            plus: false,
            cookieverf: 0xabad_cafe,
            entries: 93,
            bytes: 3_720,
            eof: false,
        };
        let (_, dec) = NfsReply::decode(NfsProc::Readdir, &reply.encode(16)).unwrap();
        assert_eq!(dec, reply);
        // The entry list rides in the wire size, elided from the encoding.
        assert_eq!(reply.wire_bytes(), reply.encode(16).len() as u64 + 3_720);
    }

    #[test]
    fn readdirplus_roundtrip_sets_plus() {
        let call = NfsCall::Readdirplus {
            dir: fh(),
            cookie: 0,
            cookieverf: 0,
            dircount: 1_024,
            maxcount: 8_192,
        };
        let (_, dec) = NfsCall::decode(&call.encode(17)).unwrap();
        assert_eq!(dec, call);
        let reply = NfsReply::Readdir {
            status: NfsStatus::Ok,
            plus: true,
            cookieverf: 7,
            entries: 20,
            bytes: 4_480,
            eof: true,
        };
        let (_, dec) = NfsReply::decode(NfsProc::Readdirplus, &reply.encode(17)).unwrap();
        assert_eq!(dec, reply, "plus flag is implied by the procedure");
    }

    #[test]
    fn write_reply_wire_bytes_match_the_encoding() {
        // Regression: the WRITE reply used to claim 8 body bytes on the
        // wire while encoding 20 (status + count + committed + verf).
        let reply = NfsReply::Write {
            status: NfsStatus::Ok,
            count: 8_192,
            committed: StableHow::FileSync,
            verf: 0xfeed_f00d,
        };
        assert_eq!(reply.wire_bytes(), reply.encode(1).len() as u64);
    }

    #[test]
    fn stable_how_codes_are_rfc1813() {
        assert_eq!(StableHow::Unstable.code(), 0);
        assert_eq!(StableHow::DataSync.code(), 1);
        assert_eq!(StableHow::FileSync.code(), 2);
        for s in [
            StableHow::Unstable,
            StableHow::DataSync,
            StableHow::FileSync,
        ] {
            assert_eq!(StableHow::from_code(s.code()), Some(s));
        }
        assert_eq!(StableHow::from_code(3), None);
    }
}
