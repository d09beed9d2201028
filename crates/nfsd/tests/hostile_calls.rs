//! Well-framed but hostile NFS calls through `Endpoint::handle_record` and
//! `pump`: each gets an RFC 1813 answer instead of reaching a file-system
//! assert (or, for a zero-count UNSTABLE WRITE, spinning forever).

use nfsd::{build_world, wire, Endpoint, ExportSpec};
use nfsproto::{
    AcceptStat, Fattr3, FileHandle, NfsCall, NfsReply, NfsStatus, ReplyHeader, StableHow,
    XdrDecoder,
};
use nfssim::WorldConfig;
use simcore::SimTime;

const FILE_SIZE: u64 = 16 * 8_192;
const NFS3ERR_STALE: u32 = 70;

fn endpoint() -> (Endpoint, usize, FileHandle) {
    let mut ep = Endpoint::new(
        build_world(WorldConfig::default(), 11),
        ExportSpec {
            files: 1,
            file_size: FILE_SIZE,
        },
    );
    let conn = ep.connect();
    let fh = ep.exports()[0];
    (ep, conn, fh)
}

/// Sends one record and pumps until its single reply surfaces.
fn call(ep: &mut Endpoint, conn: usize, record: &[u8]) -> Vec<u8> {
    assert!(
        ep.handle_record(SimTime::ZERO, conn, record).is_empty(),
        "data-path calls route through the world"
    );
    let out = ep.pump(SimTime::from_nanos(60_000_000_000));
    assert_eq!(out.len(), 1, "exactly one reply per call");
    assert_eq!(out[0].0, conn);
    out.into_iter().next().expect("one reply").1
}

fn read(
    ep: &mut Endpoint,
    conn: usize,
    fh: FileHandle,
    offset: u64,
    count: u32,
) -> wire::ReadReply {
    let rec = NfsCall::Read { fh, offset, count }.encode(1);
    wire::decode_read_reply(&call(ep, conn, &rec)).expect("READ3res")
}

#[test]
fn calls_on_an_unknown_handle_are_stale() {
    let (mut ep, conn, fh) = endpoint();
    let bogus = FileHandle {
        ino: fh.ino + 1_000,
        ..fh
    };
    let r = read(&mut ep, conn, bogus, 0, 8_192);
    assert_eq!((r.status, r.count, r.eof), (NFS3ERR_STALE, 0, false));
    let rec = wire::encode_write_call(2, &bogus, 0, 8_192, StableHow::Unstable);
    let w = wire::decode_write_reply(&call(&mut ep, conn, &rec)).expect("WRITE3res");
    assert_eq!((w.status, w.count), (NFS3ERR_STALE, 0));
    let rec = NfsCall::Commit {
        fh: bogus,
        offset: 0,
        count: 0,
    }
    .encode(3);
    let (_, status, _) = wire::decode_commit_reply(&call(&mut ep, conn, &rec)).expect("COMMIT3res");
    assert_eq!(status, NFS3ERR_STALE);
    let s = ep.world().server_stats();
    assert_eq!((s.unstable_writes, s.dirty_blocks_stashed), (0, 0));
    assert_eq!(s.replies, s.reads + s.other_calls);
}

#[test]
fn fsinfo_fsstat_and_pathconf_on_an_unknown_handle_are_stale() {
    let (mut ep, conn, fh) = endpoint();
    let bogus = FileHandle {
        ino: fh.ino + 1_000,
        ..fh
    };
    for proc_num in [
        wire::NFSPROC_FSINFO,
        wire::NFSPROC_FSSTAT,
        wire::NFSPROC_PATHCONF,
    ] {
        let rec = wire::encode_fh_call(9, proc_num, &bogus);
        let replies = ep.handle_record(SimTime::ZERO, conn, &rec);
        assert_eq!(replies.len(), 1, "answered at the endpoint");
        let mut d = XdrDecoder::new(&replies[0]);
        let hdr = ReplyHeader::decode(&mut d).expect("reply header");
        assert_eq!((hdr.xid, hdr.stat), (9, AcceptStat::Success));
        // The status, then an absent `post_op_attr`, and nothing else.
        let body = (d.get_u32(), d.get_bool(), d.remaining());
        assert_eq!(body, (Ok(NFS3ERR_STALE), Ok(false), 0), "proc {proc_num}");
    }
}

#[test]
fn reads_at_or_past_eof_are_short_with_eof() {
    let (mut ep, conn, fh) = endpoint();
    for offset in [FILE_SIZE, FILE_SIZE + 8_192, u64::MAX - 1] {
        let r = read(&mut ep, conn, fh, offset, 8_192);
        assert_eq!((r.status, r.count, r.eof), (0, 0, true), "offset {offset}");
    }
    // A read straddling EOF shrinks to what the file holds.
    let r = read(&mut ep, conn, fh, FILE_SIZE - 4_096, 65_536);
    assert_eq!((r.status, r.count, r.eof), (0, 4_096, true));
    // Zero bytes asked: no data. At EOF that is the end of the file; inside
    // it, RFC 1813 defines eof by offset + count, so it stays clear.
    let r = read(&mut ep, conn, fh, FILE_SIZE, 0);
    assert_eq!((r.status, r.count, r.eof), (0, 0, true));
    let r = read(&mut ep, conn, fh, 0, 0);
    assert_eq!((r.status, r.count, r.eof), (0, 0, false));
    assert_eq!(
        ep.world().fs().stats().sync_reads,
        1,
        "only the straddling read hit ffs"
    );
}

#[test]
fn zero_count_writes_are_no_ops() {
    let (mut ep, conn, fh) = endpoint();
    for (xid, stable) in [(1, StableHow::Unstable), (2, StableHow::FileSync)] {
        let rec = wire::encode_write_call(xid, &fh, 0, 0, stable);
        let w = wire::decode_write_reply(&call(&mut ep, conn, &rec)).expect("WRITE3res");
        assert_eq!((w.xid, w.status, w.count), (xid, 0, 0));
    }
    let s = ep.world().server_stats();
    assert_eq!((s.unstable_writes, s.dirty_blocks_stashed), (0, 0));
    assert_eq!(ep.world().server_dirty_blocks(), 0);
    assert_eq!(ep.world().fs().stats().writes, 0, "no disk I/O");
    assert_eq!(ep.world().server_attr_version(fh.ino), 0, "nothing changed");
}

#[test]
fn write_ranges_past_any_file_are_refused() {
    let (mut ep, conn, fh) = endpoint();
    let rec = wire::encode_write_call(1, &fh, u64::MAX - 100, 8_192, StableHow::Unstable);
    let w = wire::decode_write_reply(&call(&mut ep, conn, &rec)).expect("WRITE3res");
    assert_eq!((w.status, w.count), (22, 0), "NFS3ERR_INVAL");
    // In range, but far past what the partition can hold.
    let rec = wire::encode_write_call(2, &fh, 1 << 50, 8_192, StableHow::FileSync);
    let w = wire::decode_write_reply(&call(&mut ep, conn, &rec)).expect("WRITE3res");
    assert_eq!((w.status, w.count), (28, 0), "NFS3ERR_NOSPC");
    assert_eq!(ep.world().server_dirty_blocks(), 0);
    assert_eq!(
        ep.world().fs().inode(fh.ino).map(|i| i.size),
        Some(FILE_SIZE)
    );
}

#[test]
fn pipelined_xids_sharing_their_low_bits_each_get_their_own_reply() {
    // Xids `k << 16` agree in their low 16 bits, so a fixed integer hash
    // would chain them together in the server's call map. READs of an
    // uncached block stay in service in the world until the disk
    // answers.
    const CALLS: u32 = 1 << 16;
    let (mut ep, conn, fh) = endpoint();
    for k in 0..CALLS {
        let xid = k << 16;
        let rec = if k % 2 == 0 {
            NfsCall::Getattr { fh }.encode(xid)
        } else {
            NfsCall::Read {
                fh,
                offset: 0,
                count: 8_192,
            }
            .encode(xid)
        };
        assert!(ep.handle_record(SimTime::ZERO, conn, &rec).is_empty());
    }
    let out = ep.pump(SimTime::from_nanos(3_600_000_000_000));
    assert_eq!(out.len(), CALLS as usize, "exactly one reply per call");
    let mut xids: Vec<u32> = out
        .iter()
        .map(|(c, reply)| {
            assert_eq!(*c, conn);
            // The reply's xid leads the record; even `k` sent a GETATTR.
            let k = u32::from_be_bytes(reply[..4].try_into().expect("xid")) >> 16;
            if k % 2 == 0 {
                let (xid, attr) = wire::decode_getattr_reply(reply).expect("GETATTR3res");
                assert_eq!(attr.fileid, fh.ino, "xid {xid:#x}");
                xid
            } else {
                let r = wire::decode_read_reply(reply).expect("READ3res");
                assert_eq!((r.status, r.count), (0, 8_192), "xid {:#x}", r.xid);
                r.xid
            }
        })
        .collect();
    xids.sort_unstable();
    assert!(xids.iter().copied().eq((0..CALLS).map(|k| k << 16)));
}

#[test]
fn a_reused_xid_is_answered_with_the_first_calls_attributes() {
    // The peer reuses xid 7 for a READ of another file while the first is
    // still in service. The server drops the second call as a duplicate,
    // and the one reply carries the file the first call read.
    let mut ep = Endpoint::new(
        build_world(WorldConfig::default(), 11),
        ExportSpec {
            files: 2,
            file_size: FILE_SIZE,
        },
    );
    let conn = ep.connect();
    let (f0, f1) = (ep.exports()[0], ep.exports()[1]);
    for fh in [f0, f1] {
        let rec = NfsCall::Read {
            fh,
            offset: 0,
            count: 8_192,
        }
        .encode(7);
        assert!(ep.handle_record(SimTime::ZERO, conn, &rec).is_empty());
    }
    let out = ep.pump(SimTime::from_nanos(60_000_000_000));
    assert_eq!(out.len(), 1, "one reply for the one call served");
    assert_eq!(ep.world().server_stats().duplicates_dropped, 1);
    let f0_read = NfsReply::Read {
        status: NfsStatus::Ok,
        attrs: Some(Fattr3 {
            is_dir: false,
            size: FILE_SIZE,
            fileid: f0.ino,
            fsid: u64::from(f0.fsid),
        }),
        count: 8_192,
        eof: false,
    };
    assert_eq!(out[0].0, conn);
    assert!(
        out[0].1 == f0_read.encode(7),
        "the reply must carry f0's post-op attributes (fileid {})",
        f0.ino
    );
}

#[test]
fn connects_share_the_export_and_allocate_no_disk() {
    // Connections share one export, so a peer that reconnects in a loop
    // cannot fill the partition and crash the server.
    let mut ep = Endpoint::new(
        build_world(WorldConfig::default(), 1),
        ExportSpec::default(),
    );
    let free = ep.world().fs().free_bytes();
    for _ in 0..10_000 {
        ep.connect();
    }
    assert_eq!(ep.world().fs().free_bytes(), free);
}
