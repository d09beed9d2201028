//! Full RFC 1813 / RFC 1094 (MOUNT) wire encodings for the real-socket
//! endpoint.
//!
//! The simulator's [`nfsproto::NfsReply`] deliberately elides reply
//! attributes — it transfers *time*, not content. A real OS client will
//! not accept that: READ3res carries `post_op_attr` and actual data
//! bytes, WRITE3res carries `wcc_data`, LOOKUP3res carries two attribute
//! blocks. This module is the endpoint's outbound encoding layer (full
//! RFC shapes, zero-filled data payloads) plus the matching client-side
//! decoders used by `nfsd-client` and the differential harness.
//!
//! Call argument shapes need no second implementation: the simulator's
//! `NfsCall` encodings are wire-compatible with RFC 1813 call args (the
//! WRITE payload is declared by length; [`nfsproto::NfsCall::decode_args`]
//! skips any carried bytes), so the endpoint decodes real calls with the
//! shared codec.

use nfsproto::{
    CallHeader, FileHandle, ReplyHeader, StableHow, XdrDecoder, XdrEncoder, XdrError, AUTH_UNIX,
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
/// `MNT3ERR_ACCES`.
pub const MNT_ERR_ACCES: u32 = 13;

/// ACCESS3 permission bits granted on every export (read-oriented world:
/// READ | LOOKUP | MODIFY | EXTEND).
pub const ACCESS_ALL: u32 = 0x1 | 0x2 | 0x4 | 0x8;

/// What the endpoint knows about a file when building reply attributes.
#[derive(Debug, Clone, Copy)]
pub struct FileAttr {
    /// Inode / fileid.
    pub fileid: u64,
    /// Size in bytes.
    pub size: u64,
    /// File-system id.
    pub fsid: u64,
    /// Directory (the export root) vs regular file.
    pub is_dir: bool,
}

/// Encodes an RFC 1813 `fattr3` (84 bytes).
fn put_fattr3(e: &mut XdrEncoder, a: &FileAttr) {
    e.put_u32(if a.is_dir { 2 } else { 1 }) // type: NF3DIR / NF3REG
        .put_u32(if a.is_dir { 0o755 } else { 0o644 }) // mode
        .put_u32(1) // nlink
        .put_u32(0) // uid
        .put_u32(0) // gid
        .put_u64(a.size)
        .put_u64(a.size.next_multiple_of(4096)) // used
        .put_u32(0) // rdev major
        .put_u32(0) // rdev minor
        .put_u64(a.fsid)
        .put_u64(a.fileid)
        .put_u32(0)
        .put_u32(0) // atime
        .put_u32(0)
        .put_u32(0) // mtime
        .put_u32(0)
        .put_u32(0); // ctime
}

/// Encodes a `post_op_attr`.
fn put_post_op_attr(e: &mut XdrEncoder, a: Option<&FileAttr>) {
    match a {
        Some(a) => {
            e.put_bool(true);
            put_fattr3(e, a);
        }
        None => {
            e.put_bool(false);
        }
    }
}

/// Encodes a `wcc_data` (pre-op attrs elided, post-op as given).
fn put_wcc_data(e: &mut XdrEncoder, post: Option<&FileAttr>) {
    e.put_bool(false); // pre_op_attr: not recorded
    put_post_op_attr(e, post);
}

fn reply_encoder(xid: u32) -> XdrEncoder {
    let mut e = XdrEncoder::new();
    ReplyHeader::success(xid).encode(&mut e);
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

/// GETATTR3res (always has attributes on success).
pub fn getattr_res(xid: u32, a: &FileAttr) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(0);
    put_fattr3(&mut e, a);
    e.finish()
}

/// GETATTR3resfail (status only — GETATTR carries no fail body).
pub fn getattr_res_err(xid: u32, status: u32) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(status);
    e.finish()
}

/// LOOKUP3resok: object handle + object attrs + directory attrs.
pub fn lookup_res_ok(xid: u32, fh: &FileHandle, obj: &FileAttr, dir: &FileAttr) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(0);
    fh.encode(&mut e);
    put_post_op_attr(&mut e, Some(obj));
    put_post_op_attr(&mut e, Some(dir));
    e.finish()
}

/// LOOKUP3resfail: status + directory post-op attrs.
pub fn lookup_res_err(xid: u32, status: u32, dir: Option<&FileAttr>) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(status);
    put_post_op_attr(&mut e, dir);
    e.finish()
}

/// ACCESS3resok.
pub fn access_res(xid: u32, a: &FileAttr, access: u32) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(0);
    put_post_op_attr(&mut e, Some(a));
    e.put_u32(access);
    e.finish()
}

/// READ3resok with a zero-filled data payload of `count` bytes — the
/// simulated world carries no file contents, but the wire shape (and
/// size) is the real one.
pub fn read_res_ok(xid: u32, a: &FileAttr, count: u32, eof: bool) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(0);
    put_post_op_attr(&mut e, Some(a));
    e.put_u32(count).put_bool(eof);
    e.put_u32(count); // opaque length
    let padded = (count as usize).next_multiple_of(4);
    let mut buf = e.finish();
    buf.resize(buf.len() + padded, 0);
    buf
}

/// READ3resfail.
pub fn read_res_err(xid: u32, status: u32, a: Option<&FileAttr>) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(status);
    put_post_op_attr(&mut e, a);
    e.finish()
}

/// WRITE3res (ok or fail — a failed write carries `wcc_data` too).
pub fn write_res(
    xid: u32,
    status: u32,
    a: Option<&FileAttr>,
    count: u32,
    committed: StableHow,
    verf: u64,
) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(status);
    put_wcc_data(&mut e, a);
    if status == 0 {
        e.put_u32(count).put_u32(committed.code());
        e.put_opaque_fixed(&verf.to_be_bytes());
    }
    e.finish()
}

/// COMMIT3res.
pub fn commit_res(xid: u32, status: u32, a: Option<&FileAttr>, verf: u64) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(status);
    put_wcc_data(&mut e, a);
    if status == 0 {
        e.put_opaque_fixed(&verf.to_be_bytes());
    }
    e.finish()
}

/// FSINFO3resok advertising the endpoint's transfer geometry.
pub fn fsinfo_res(xid: u32, a: &FileAttr, rsize: u32) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(0);
    put_post_op_attr(&mut e, Some(a));
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
pub fn fsstat_res(xid: u32, a: &FileAttr) -> Vec<u8> {
    const TB: u64 = 1 << 40;
    let mut e = reply_encoder(xid);
    e.put_u32(0);
    put_post_op_attr(&mut e, Some(a));
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
pub fn pathconf_res(xid: u32, a: &FileAttr) -> Vec<u8> {
    let mut e = reply_encoder(xid);
    e.put_u32(0);
    put_post_op_attr(&mut e, Some(a));
    e.put_u32(32_000) // linkmax
        .put_u32(255) // name_max
        .put_bool(true) // no_trunc
        .put_bool(false) // chown_restricted
        .put_bool(true) // case_insensitive = false? (false: case matters)
        .put_bool(true); // case_preserving
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

/// Attributes as a client sees them in a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAttr {
    /// Inode / fileid.
    pub fileid: u64,
    /// Size in bytes.
    pub size: u64,
}

fn get_fattr3(d: &mut XdrDecoder<'_>) -> Result<DecodedAttr, XdrError> {
    let _ftype = d.get_u32()?;
    let _mode = d.get_u32()?;
    let _nlink = d.get_u32()?;
    let _uid = d.get_u32()?;
    let _gid = d.get_u32()?;
    let size = d.get_u64()?;
    let _used = d.get_u64()?;
    let _rdev = (d.get_u32()?, d.get_u32()?);
    let _fsid = d.get_u64()?;
    let fileid = d.get_u64()?;
    for _ in 0..6 {
        let _t = d.get_u32()?; // atime/mtime/ctime
    }
    Ok(DecodedAttr { fileid, size })
}

fn get_post_op_attr(d: &mut XdrDecoder<'_>) -> Result<Option<DecodedAttr>, XdrError> {
    if d.get_bool()? {
        Ok(Some(get_fattr3(d)?))
    } else {
        Ok(None)
    }
}

fn get_wcc_data(d: &mut XdrDecoder<'_>) -> Result<Option<DecodedAttr>, XdrError> {
    if d.get_bool()? {
        // pre_op_attr present: size(u64) + mtime + ctime.
        let _sz = d.get_u64()?;
        for _ in 0..4 {
            let _t = d.get_u32()?;
        }
    }
    get_post_op_attr(d)
}

/// Encodes a MOUNTPROC3_MNT call for `dirpath`.
pub fn encode_mnt_call(xid: u32, dirpath: &str) -> Vec<u8> {
    let mut e = XdrEncoder::new();
    CallHeader {
        xid,
        prog: MOUNT_PROGRAM,
        vers: MOUNT_VERSION,
        proc_num: MOUNTPROC_MNT,
    }
    .encode(&mut e);
    e.put_string(dirpath);
    e.finish()
}

/// Encodes a MOUNT/NFS NULL call.
pub fn encode_null_call(xid: u32, prog: u32, vers: u32) -> Vec<u8> {
    let mut e = XdrEncoder::new();
    CallHeader {
        xid,
        prog,
        vers,
        proc_num: 0,
    }
    .encode(&mut e);
    e.finish()
}

/// Encodes an FSINFO/FSSTAT/PATHCONF call (they all take one handle).
pub fn encode_fh_call(xid: u32, proc_num: u32, fh: &FileHandle) -> Vec<u8> {
    let mut e = XdrEncoder::new();
    CallHeader {
        xid,
        prog: nfsproto::NFS_PROGRAM,
        vers: nfsproto::NFS_VERSION,
        proc_num,
    }
    .encode(&mut e);
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
    let mut e = XdrEncoder::new();
    CallHeader {
        xid,
        prog: nfsproto::NFS_PROGRAM,
        vers: nfsproto::NFS_VERSION,
        proc_num: 7,
    }
    .encode(&mut e);
    fh.encode(&mut e);
    e.put_u64(offset).put_u32(count).put_u32(stable.code());
    e.put_u32(count);
    let padded = (count as usize).next_multiple_of(4);
    let mut buf = e.finish();
    buf.resize(buf.len() + padded, 0);
    buf
}

/// Decodes a MOUNTPROC3_MNT reply, returning the root handle.
pub fn decode_mnt_reply(buf: &[u8]) -> Result<(u32, FileHandle), XdrError> {
    let mut d = XdrDecoder::new(buf);
    let hdr = ReplyHeader::decode(&mut d)?;
    expect_success(&hdr)?;
    let status = d.get_u32()?;
    if status != 0 {
        return Err(XdrError::BadEnum {
            what: "mountstat3",
            value: status,
        });
    }
    let fh = FileHandle::decode(&mut d)?;
    Ok((hdr.xid, fh))
}

/// Decodes a GETATTR3res.
pub fn decode_getattr_reply(buf: &[u8]) -> Result<(u32, DecodedAttr), XdrError> {
    let mut d = XdrDecoder::new(buf);
    let hdr = ReplyHeader::decode(&mut d)?;
    expect_success(&hdr)?;
    nfs_ok(&mut d)?;
    Ok((hdr.xid, get_fattr3(&mut d)?))
}

/// Decodes a LOOKUP3res, returning the object handle and attributes.
pub fn decode_lookup_reply(buf: &[u8]) -> Result<(u32, FileHandle, Option<DecodedAttr>), XdrError> {
    let mut d = XdrDecoder::new(buf);
    let hdr = ReplyHeader::decode(&mut d)?;
    expect_success(&hdr)?;
    nfs_ok(&mut d)?;
    let fh = FileHandle::decode(&mut d)?;
    let obj = get_post_op_attr(&mut d)?;
    let _dir = get_post_op_attr(&mut d)?;
    Ok((hdr.xid, fh, obj))
}

/// Decodes an ACCESS3res, returning the granted bits.
pub fn decode_access_reply(buf: &[u8]) -> Result<(u32, u32), XdrError> {
    let mut d = XdrDecoder::new(buf);
    let hdr = ReplyHeader::decode(&mut d)?;
    expect_success(&hdr)?;
    nfs_ok(&mut d)?;
    let _attr = get_post_op_attr(&mut d)?;
    Ok((hdr.xid, d.get_u32()?))
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
    let mut d = XdrDecoder::new(buf);
    let hdr = ReplyHeader::decode(&mut d)?;
    expect_success(&hdr)?;
    let status = d.get_u32()?;
    let _attr = get_post_op_attr(&mut d)?;
    if status != 0 {
        return Ok(ReadReply {
            xid: hdr.xid,
            status,
            count: 0,
            eof: false,
        });
    }
    let count = d.get_u32()?;
    let eof = d.get_bool()?;
    let data = d.get_opaque()?;
    if data.len() != count as usize {
        return Err(XdrError::BadLength(count));
    }
    Ok(ReadReply {
        xid: hdr.xid,
        status,
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
    let mut d = XdrDecoder::new(buf);
    let hdr = ReplyHeader::decode(&mut d)?;
    expect_success(&hdr)?;
    let status = d.get_u32()?;
    let _wcc = get_wcc_data(&mut d)?;
    if status != 0 {
        return Ok(WriteReply {
            xid: hdr.xid,
            status,
            count: 0,
            committed: StableHow::FileSync,
            verf: 0,
        });
    }
    let count = d.get_u32()?;
    let code = d.get_u32()?;
    let committed = StableHow::from_code(code).ok_or(XdrError::BadEnum {
        what: "stable_how (committed)",
        value: code,
    })?;
    let verf_bytes = d.get_opaque_fixed(8)?;
    let verf = u64::from_be_bytes(verf_bytes.try_into().expect("8 bytes"));
    Ok(WriteReply {
        xid: hdr.xid,
        status,
        count,
        committed,
        verf,
    })
}

/// Decodes a COMMIT3res, returning `(xid, status, verf)`.
pub fn decode_commit_reply(buf: &[u8]) -> Result<(u32, u32, u64), XdrError> {
    let mut d = XdrDecoder::new(buf);
    let hdr = ReplyHeader::decode(&mut d)?;
    expect_success(&hdr)?;
    let status = d.get_u32()?;
    let _wcc = get_wcc_data(&mut d)?;
    if status != 0 {
        return Ok((hdr.xid, status, 0));
    }
    let verf_bytes = d.get_opaque_fixed(8)?;
    let verf = u64::from_be_bytes(verf_bytes.try_into().expect("8 bytes"));
    Ok((hdr.xid, status, verf))
}

/// Decodes an FSINFO3res, returning `(xid, rtmax)`.
pub fn decode_fsinfo_reply(buf: &[u8]) -> Result<(u32, u32), XdrError> {
    let mut d = XdrDecoder::new(buf);
    let hdr = ReplyHeader::decode(&mut d)?;
    expect_success(&hdr)?;
    nfs_ok(&mut d)?;
    let _attr = get_post_op_attr(&mut d)?;
    Ok((hdr.xid, d.get_u32()?))
}

fn expect_success(hdr: &ReplyHeader) -> Result<(), XdrError> {
    if hdr.stat != nfsproto::AcceptStat::Success {
        return Err(XdrError::BadEnum {
            what: "accept_stat (expected SUCCESS)",
            value: hdr.stat.code(),
        });
    }
    Ok(())
}

fn nfs_ok(d: &mut XdrDecoder<'_>) -> Result<(), XdrError> {
    let status = d.get_u32()?;
    if status != 0 {
        return Err(XdrError::BadEnum {
            what: "nfsstat3",
            value: status,
        });
    }
    Ok(())
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

    fn attr() -> FileAttr {
        FileAttr {
            fileid: 42,
            size: 1 << 20,
            fsid: 1,
            is_dir: false,
        }
    }

    #[test]
    fn fattr3_is_84_bytes() {
        let mut e = XdrEncoder::new();
        put_fattr3(&mut e, &attr());
        assert_eq!(e.len(), 84);
    }

    #[test]
    fn read_reply_roundtrip_with_payload() {
        for count in [0u32, 1, 5, 8192] {
            let buf = read_res_ok(9, &attr(), count, count == 0);
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
        }
    }

    #[test]
    fn write_and_commit_replies_roundtrip() {
        let buf = write_res(3, 0, Some(&attr()), 8192, StableHow::Unstable, 0xfeed);
        let w = decode_write_reply(&buf).unwrap();
        assert_eq!(
            (w.xid, w.count, w.committed, w.verf),
            (3, 8192, StableHow::Unstable, 0xfeed)
        );
        let buf = commit_res(4, 0, Some(&attr()), 0xbeef);
        assert_eq!(decode_commit_reply(&buf).unwrap(), (4, 0, 0xbeef));
        // Error forms decode too.
        let buf = write_res(5, 5, None, 0, StableHow::FileSync, 0);
        assert_eq!(decode_write_reply(&buf).unwrap().status, 5);
    }

    #[test]
    fn mount_reply_roundtrip() {
        let buf = mnt_res_ok(1, &fh());
        let (xid, got) = decode_mnt_reply(&buf).unwrap();
        assert_eq!((xid, got), (1, fh()));
        assert!(decode_mnt_reply(&mnt_res_err(2, MNT_ERR_NOENT)).is_err());
    }

    #[test]
    fn lookup_getattr_access_fsinfo_roundtrip() {
        let buf = lookup_res_ok(7, &fh(), &attr(), &attr());
        let (xid, got, obj) = decode_lookup_reply(&buf).unwrap();
        assert_eq!((xid, got), (7, fh()));
        assert_eq!(obj.unwrap().size, 1 << 20);
        let (_, a) = decode_getattr_reply(&getattr_res(8, &attr())).unwrap();
        assert_eq!(
            a,
            DecodedAttr {
                fileid: 42,
                size: 1 << 20
            }
        );
        let (_, bits) = decode_access_reply(&access_res(9, &attr(), ACCESS_ALL)).unwrap();
        assert_eq!(bits, ACCESS_ALL);
        let (_, rtmax) = decode_fsinfo_reply(&fsinfo_res(10, &attr(), 8192)).unwrap();
        assert_eq!(rtmax, 8192);
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
