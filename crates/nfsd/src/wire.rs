//! The endpoint-only wire encodings: MOUNT v3 (RFC 1813 appendix I),
//! the NFS procedures the simulator does not model (NULL, ACCESS, FSINFO,
//! FSSTAT, PATHCONF), RPC error replies, and the call encoders and reply
//! decoders `nfsd-client` and the differential harness use.
//!
//! GETATTR, LOOKUP, READ, WRITE and COMMIT replies have one codec,
//! [`nfsproto::NfsReply`], which the simulated server and the endpoint
//! both send. The `decode_*_reply` functions here are thin adapters over
//! [`NfsReply::decode`] for callers that want a flat result. Call
//! arguments need no second codec either: the simulator's `NfsCall`
//! encodings are wire-compatible with RFC 1813 call args (the WRITE
//! payload is declared by length; [`nfsproto::NfsCall::decode_args`]
//! skips any carried bytes).

use nfsproto::{
    CallHeader, Fattr3, FileHandle, NfsProc, NfsReply, NfsStatus, ReplyHeader, StableHow,
    XdrDecoder, XdrEncoder, XdrError, AUTH_UNIX,
};

/// The MOUNT program number.
pub const MOUNT_PROGRAM: u32 = 100_005;
/// MOUNT protocol version served (v3, paired with NFSv3).
pub const MOUNT_VERSION: u32 = 3;
/// MOUNTPROC3_NULL.
pub const MOUNTPROC_NULL: u32 = 0;
/// MOUNTPROC3_MNT.
pub const MOUNTPROC_MNT: u32 = 1;
/// MOUNTPROC3_UMNT.
pub const MOUNTPROC_UMNT: u32 = 3;

/// NFSPROC3_NULL.
pub const NFSPROC_NULL: u32 = 0;
/// NFSPROC3_ACCESS.
pub const NFSPROC_ACCESS: u32 = 4;
/// NFSPROC3_FSSTAT.
pub const NFSPROC_FSSTAT: u32 = 18;
/// NFSPROC3_FSINFO.
pub const NFSPROC_FSINFO: u32 = 19;
/// NFSPROC3_PATHCONF.
pub const NFSPROC_PATHCONF: u32 = 20;

/// `MNT3ERR_NOENT`.
pub const MNT_ERR_NOENT: u32 = 2;

/// ACCESS3 permission bits granted on every export (read-oriented world:
/// READ | LOOKUP | MODIFY | EXTEND).
pub const ACCESS_ALL: u32 = 0x1 | 0x2 | 0x4 | 0x8;

fn reply_encoder(xid: u32) -> XdrEncoder {
    let mut e = XdrEncoder::new();
    ReplyHeader::success(xid).encode(&mut e);
    e
}

/// `NFS3_OK` and the object's post-op attributes: the head of every
/// endpoint-only `*3resok`.
fn ok_encoder(xid: u32, a: &Fattr3) -> XdrEncoder {
    let mut e = reply_encoder(xid);
    e.put_u32(0);
    Fattr3::encode_post_op(Some(a), &mut e);
    e
}

/// A void reply (NFS NULL, MOUNT NULL, MOUNT UMNT).
pub fn void_res(xid: u32) -> Vec<u8> {
    reply_encoder(xid).finish()
}

/// An accepted-but-failed reply (PROG_UNAVAIL, PROC_UNAVAIL, GARBAGE_ARGS,
/// PROG_MISMATCH…) with no results body.
pub fn accept_error_res(xid: u32, stat: nfsproto::AcceptStat) -> Vec<u8> {
    let mut e = XdrEncoder::new();
    ReplyHeader { xid, stat }.encode(&mut e);
    e.finish()
}

/// ACCESS3resok.
pub fn access_res(xid: u32, a: &Fattr3, access: u32) -> Vec<u8> {
    let mut e = ok_encoder(xid, a);
    e.put_u32(access);
    e.finish()
}

/// FSINFO3resok advertising the endpoint's transfer geometry.
pub fn fsinfo_res(xid: u32, a: &Fattr3, rsize: u32) -> Vec<u8> {
    let mut e = ok_encoder(xid, a);
    e.put_u32(rsize) // rtmax
        .put_u32(rsize) // rtpref
        .put_u32(512) // rtmult
        .put_u32(rsize) // wtmax
        .put_u32(rsize) // wtpref
        .put_u32(512) // wtmult
        .put_u32(rsize) // dtpref
        .put_u64(u64::MAX) // maxfilesize
        .put_u32(0)
        .put_u32(1) // time_delta: 1ns
        .put_u32(0x0008 | 0x0010); // FSF3_HOMOGENEOUS | FSF3_CANSETTIME
    e.finish()
}

/// FSSTAT3resok (static free-space picture; the simulated fs does not
/// track it, so we advertise a roomy constant).
pub fn fsstat_res(xid: u32, a: &Fattr3) -> Vec<u8> {
    const TB: u64 = 1 << 40;
    let mut e = ok_encoder(xid, a);
    e.put_u64(TB) // tbytes
        .put_u64(TB / 2) // fbytes
        .put_u64(TB / 2) // abytes
        .put_u64(1 << 20) // tfiles
        .put_u64(1 << 19) // ffiles
        .put_u64(1 << 19) // afiles
        .put_u32(0); // invarsec
    e.finish()
}

/// PATHCONF3resok.
pub fn pathconf_res(xid: u32, a: &Fattr3) -> Vec<u8> {
    let mut e = ok_encoder(xid, a);
    e.put_u32(32_000) // linkmax
        .put_u32(255) // name_max
        .put_bool(true) // no_trunc
        .put_bool(false) // chown_restricted
        .put_bool(false) // case_insensitive: LOOKUP matches names exactly
        .put_bool(true); // case_preserving
    e.finish()
}

/// NFS3ERR_STALE for ACCESS, FSINFO, FSSTAT or PATHCONF: the status and
/// an absent `post_op_attr`, the whole failure body of each.
pub fn stale_res(xid: u32) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(NfsStatus::Stale.code()).put_bool(false);
    e.finish()
}

/// MOUNTPROC3_MNT success: file handle + auth flavor list.
pub fn mnt_res_ok(xid: u32, root: &FileHandle) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(0); // MNT3_OK
    root.encode(&mut e); // fhandle3: variable opaque
    e.put_u32(1).put_u32(AUTH_UNIX); // one supported flavor
    e.finish()
}

/// MOUNTPROC3_MNT failure.
pub fn mnt_res_err(xid: u32, status: u32) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(status);
    e.finish()
}

// ---------------------------------------------------------------------
// Client-side encode/decode (nfsd-client and the differential harness).
// ---------------------------------------------------------------------

fn call_encoder(xid: u32, prog: u32, vers: u32, proc_num: u32) -> XdrEncoder {
    let mut e = XdrEncoder::new();
    CallHeader {
        xid,
        prog,
        vers,
        proc_num,
    }
    .encode(&mut e);
    e
}

/// Encodes a MOUNTPROC3_MNT call for `dirpath`.
pub fn encode_mnt_call(xid: u32, dirpath: &str) -> Vec<u8> {
    let mut e = call_encoder(xid, MOUNT_PROGRAM, MOUNT_VERSION, MOUNTPROC_MNT);
    e.put_string(dirpath);
    e.finish()
}

/// Encodes a MOUNT/NFS NULL call.
pub fn encode_null_call(xid: u32, prog: u32, vers: u32) -> Vec<u8> {
    call_encoder(xid, prog, vers, 0).finish()
}

/// Encodes an FSINFO/FSSTAT/PATHCONF call (they all take one handle).
pub fn encode_fh_call(xid: u32, proc_num: u32, fh: &FileHandle) -> Vec<u8> {
    let mut e = call_encoder(xid, nfsproto::NFS_PROGRAM, nfsproto::NFS_VERSION, proc_num);
    fh.encode(&mut e);
    e.finish()
}

/// Encodes a full RFC 1813 WRITE3args with a real (zero-filled) payload —
/// what an OS client sends, as opposed to the simulator's length-only
/// form. The endpoint must accept both.
pub fn encode_write_call(
    xid: u32,
    fh: &FileHandle,
    offset: u64,
    count: u32,
    stable: StableHow,
) -> Vec<u8> {
    let mut e = call_encoder(xid, nfsproto::NFS_PROGRAM, nfsproto::NFS_VERSION, 7);
    fh.encode(&mut e);
    e.put_u64(offset).put_u32(count).put_u32(stable.code());
    e.put_zero_opaque(count);
    e.finish()
}

/// Decodes a MOUNTPROC3_MNT reply, returning the root handle.
pub fn decode_mnt_reply(buf: &[u8]) -> Result<(u32, FileHandle), XdrError> {
    let mut d = XdrDecoder::new(buf);
    let xid = ReplyHeader::decode_success(&mut d)?;
    let status = d.get_u32()?;
    if status != 0 {
        return Err(XdrError::BadEnum {
            what: "mountstat3",
            value: status,
        });
    }
    Ok((xid, FileHandle::decode(&mut d)?))
}

/// A failed reply where the caller wanted a successful one.
fn not_ok(reply: &NfsReply) -> XdrError {
    XdrError::BadEnum {
        what: "nfsstat3",
        value: reply.status().code(),
    }
}

/// Decodes a GETATTR3res; a failed one is an error.
pub fn decode_getattr_reply(buf: &[u8]) -> Result<(u32, Fattr3), XdrError> {
    match NfsReply::decode(NfsProc::Getattr, buf)? {
        (xid, NfsReply::Getattr { attrs: Some(a), .. }) => Ok((xid, a)),
        (_, r) => Err(not_ok(&r)),
    }
}

/// Decodes a LOOKUP3res, returning the object handle and attributes; a
/// failed one is an error.
pub fn decode_lookup_reply(buf: &[u8]) -> Result<(u32, FileHandle, Option<Fattr3>), XdrError> {
    match NfsReply::decode(NfsProc::Lookup, buf)? {
        (
            xid,
            NfsReply::Lookup {
                fh: Some(fh),
                obj_attrs,
                ..
            },
        ) => Ok((xid, fh, obj_attrs)),
        (_, r) => Err(not_ok(&r)),
    }
}

/// Decoded READ3res.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadReply {
    /// Echoed transaction id.
    pub xid: u32,
    /// `nfsstat3` (0 = ok).
    pub status: u32,
    /// Bytes returned.
    pub count: u32,
    /// EOF flag.
    pub eof: bool,
}

/// Decodes a READ3res (data bytes are length-checked, then discarded).
pub fn decode_read_reply(buf: &[u8]) -> Result<ReadReply, XdrError> {
    let (xid, reply) = NfsReply::decode(NfsProc::Read, buf)?;
    let NfsReply::Read {
        status, count, eof, ..
    } = reply
    else {
        unreachable!("a READ3res decodes as a READ reply")
    };
    Ok(ReadReply {
        xid,
        status: status.code(),
        count,
        eof,
    })
}

/// Decoded WRITE3res.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReply {
    /// Echoed transaction id.
    pub xid: u32,
    /// `nfsstat3` (0 = ok).
    pub status: u32,
    /// Bytes accepted.
    pub count: u32,
    /// Stability achieved.
    pub committed: StableHow,
    /// Write verifier.
    pub verf: u64,
}

/// Decodes a WRITE3res.
pub fn decode_write_reply(buf: &[u8]) -> Result<WriteReply, XdrError> {
    let (xid, reply) = NfsReply::decode(NfsProc::Write, buf)?;
    let NfsReply::Write {
        status,
        count,
        committed,
        verf,
        ..
    } = reply
    else {
        unreachable!("a WRITE3res decodes as a WRITE reply")
    };
    Ok(WriteReply {
        xid,
        status: status.code(),
        count,
        committed,
        verf,
    })
}

/// Decodes a COMMIT3res, returning `(xid, status, verf)`.
pub fn decode_commit_reply(buf: &[u8]) -> Result<(u32, u32, u64), XdrError> {
    let (xid, reply) = NfsReply::decode(NfsProc::Commit, buf)?;
    let NfsReply::Commit { status, verf, .. } = reply else {
        unreachable!("a COMMIT3res decodes as a COMMIT reply")
    };
    Ok((xid, status.code(), verf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fh() -> FileHandle {
        FileHandle {
            fsid: 1,
            ino: 42,
            generation: 1,
        }
    }

    fn attr() -> Fattr3 {
        Fattr3 {
            is_dir: false,
            size: 1 << 20,
            fileid: 42,
            fsid: 1,
        }
    }

    /// Decodes an endpoint-only `*3resok` up to its body: checks the
    /// header, `NFS3_OK` and the post-op attributes.
    fn ok_body(buf: &[u8]) -> XdrDecoder<'_> {
        let mut d = XdrDecoder::new(buf);
        ReplyHeader::decode(&mut d).unwrap();
        assert_eq!(d.get_u32(), Ok(0));
        assert_eq!(Fattr3::decode_post_op(&mut d), Ok(Some(attr())));
        d
    }

    #[test]
    fn read_reply_adapter_checks_the_payload() {
        for count in [0u32, 1, 5, 8192] {
            let reply = NfsReply::Read {
                status: NfsStatus::Ok,
                attrs: Some(attr()),
                count,
                eof: count == 0,
            };
            let buf = reply.encode(9);
            assert_eq!(buf.len() % 4, 0, "word aligned");
            let r = decode_read_reply(&buf).unwrap();
            assert_eq!(
                r,
                ReadReply {
                    xid: 9,
                    status: 0,
                    count,
                    eof: count == 0
                }
            );
            assert!(decode_read_reply(&buf[..buf.len() - 4]).is_err() || count == 0);
        }
    }

    #[test]
    fn write_and_commit_adapters() {
        let write = |status, count, verf| NfsReply::Write {
            status,
            attrs: Some(attr()),
            count,
            committed: StableHow::Unstable,
            verf,
        };
        let w = decode_write_reply(&write(NfsStatus::Ok, 8192, 0xfeed).encode(3)).unwrap();
        assert_eq!(
            (w.xid, w.count, w.committed, w.verf),
            (3, 8192, StableHow::Unstable, 0xfeed)
        );
        let commit = NfsReply::Commit {
            status: NfsStatus::Ok,
            attrs: None,
            verf: 0xbeef,
        };
        assert_eq!(
            decode_commit_reply(&commit.encode(4)).unwrap(),
            (4, 0, 0xbeef)
        );
        // Error forms decode too.
        let w = decode_write_reply(&write(NfsStatus::Io, 0, 0).encode(5)).unwrap();
        assert_eq!(
            (w.status, w.count, w.committed),
            (5, 0, StableHow::FileSync)
        );
    }

    #[test]
    fn mount_reply_roundtrip() {
        let buf = mnt_res_ok(1, &fh());
        let (xid, got) = decode_mnt_reply(&buf).unwrap();
        assert_eq!((xid, got), (1, fh()));
        assert!(decode_mnt_reply(&mnt_res_err(2, MNT_ERR_NOENT)).is_err());
    }

    #[test]
    fn lookup_and_getattr_adapters_and_endpoint_only_replies() {
        let lookup = NfsReply::Lookup {
            status: NfsStatus::Ok,
            fh: Some(fh()),
            obj_attrs: Some(attr()),
            dir_attrs: None,
        };
        let (xid, got, obj) = decode_lookup_reply(&lookup.encode(7)).unwrap();
        assert_eq!((xid, got, obj), (7, fh(), Some(attr())));
        let noent = NfsReply::Lookup {
            status: NfsStatus::NoEnt,
            fh: None,
            obj_attrs: None,
            dir_attrs: Some(attr()),
        };
        assert!(decode_lookup_reply(&noent.encode(7)).is_err());
        let getattr = NfsReply::Getattr {
            status: NfsStatus::Ok,
            attrs: Some(attr()),
        };
        assert_eq!(
            decode_getattr_reply(&getattr.encode(8)).unwrap(),
            (8, attr())
        );
        let access = access_res(9, &attr(), ACCESS_ALL);
        assert_eq!(ok_body(&access).get_u32(), Ok(ACCESS_ALL));
        let fsinfo = fsinfo_res(10, &attr(), 8192);
        assert_eq!(ok_body(&fsinfo).get_u32(), Ok(8192), "rtmax");
    }

    #[test]
    fn real_write_call_decodes_with_shared_codec() {
        // The full WRITE3args (payload bytes included) must decode with
        // the same codec the simulator uses.
        let buf = encode_write_call(6, &fh(), 8192, 4097, StableHow::Unstable);
        let (xid, call) = nfsproto::NfsCall::decode(&buf).unwrap();
        assert_eq!(xid, 6);
        assert_eq!(
            call,
            nfsproto::NfsCall::Write {
                fh: fh(),
                offset: 8192,
                count: 4097,
                stable: StableHow::Unstable
            }
        );
    }
}
