//! Pins the bytes the endpoint sends: one `Endpoint` under a
//! `ManualClock` answers a scripted session, and each reply's FNV-1a hash
//! is an `endpoint_replies.*` line of `pins.txt`. A routed call is pumped
//! to completion before the next call goes in, so every reply's post-op
//! attributes are read with no other call in flight.

use nfsd::{build_world, wire, Clock, Endpoint, ExportSpec, ManualClock, EXPORT_PATH};
use nfsproto::{FileHandle, NfsCall, StableHow};
use nfssim::WorldConfig;
use simcore::{fnv1a, FNV_BASIS};

const FILE_SIZE: u64 = 16 * 8_192;

struct Session {
    ep: Endpoint,
    clock: ManualClock,
    conn: usize,
    xid: u32,
    pins: Vec<(String, String)>,
}

impl Session {
    /// Sends `record`, waits for its one reply, pins it as `case` and
    /// returns it.
    fn send(&mut self, case: &str, record: &[u8]) -> Vec<u8> {
        let mut replies = self.ep.handle_record(self.clock.now(), self.conn, record);
        while replies.is_empty() {
            let out = self.ep.pump(self.clock.now());
            if out.is_empty() {
                let at = self.ep.next_deadline().expect("a routed call has work");
                self.clock.advance_to(at);
                continue;
            }
            assert_eq!(out.len(), 1, "{case}: one call in flight");
            assert_eq!(out[0].0, self.conn);
            replies = out.into_iter().map(|(_, r)| r).collect();
        }
        assert_eq!(replies.len(), 1, "{case}: one reply");
        let h = fnv1a(FNV_BASIS, &replies[0]);
        self.pins.push((case.to_string(), pins::hex(h)));
        replies.pop().expect("one reply")
    }

    fn next_xid(&mut self) -> u32 {
        self.xid += 1;
        self.xid
    }

    fn nfs(&mut self, case: &str, call: NfsCall) {
        let xid = self.next_xid();
        self.send(case, &call.encode(xid));
    }

    fn write(&mut self, case: &str, fh: FileHandle, offset: u64, count: u32, stable: StableHow) {
        let xid = self.next_xid();
        self.send(
            case,
            &wire::encode_write_call(xid, &fh, offset, count, stable),
        );
    }

    /// ACCESS (with every permission bit asked) or an FSINFO, FSSTAT or
    /// PATHCONF call: a handle and, for ACCESS, the bits.
    fn fh_call(&mut self, case: &str, proc_num: u32, fh: FileHandle) {
        let xid = self.next_xid();
        let mut record = wire::encode_fh_call(xid, proc_num, &fh);
        if proc_num == wire::NFSPROC_ACCESS {
            record.extend_from_slice(&0x3fu32.to_be_bytes());
        }
        self.send(case, &record);
    }
}

#[test]
fn endpoint_replies() {
    let ep = Endpoint::new(
        build_world(WorldConfig::default(), 5),
        ExportSpec {
            files: 2,
            file_size: FILE_SIZE,
        },
    );
    let fh = ep.exports()[0];
    let stale = FileHandle {
        ino: fh.ino + 1_000,
        ..fh
    };
    let mut s = Session {
        conn: 0,
        ep,
        clock: ManualClock::new(),
        xid: 0,
        pins: Vec::new(),
    };
    s.conn = s.ep.connect();

    let xid = s.next_xid();
    let mnt = s.send("mnt_ok", &wire::encode_mnt_call(xid, EXPORT_PATH));
    let (_, root) = wire::decode_mnt_reply(&mnt).expect("MNT3res");
    let xid = s.next_xid();
    s.send("mnt_noent", &wire::encode_mnt_call(xid, "/elsewhere"));
    let xid = s.next_xid();
    let null = wire::encode_null_call(xid, nfsproto::NFS_PROGRAM, nfsproto::NFS_VERSION);
    s.send("null", &null);

    s.fh_call("access_ok", wire::NFSPROC_ACCESS, fh);
    s.fh_call("access_stale", wire::NFSPROC_ACCESS, stale);
    let lookup = |dir, name: &str| NfsCall::Lookup {
        dir,
        name: name.to_string(),
    };
    s.nfs("lookup_ok", lookup(root, "f1"));
    s.nfs("lookup_noent", lookup(root, "F1"));
    s.nfs("lookup_notdir", lookup(fh, "f1"));

    s.nfs("getattr_root", NfsCall::Getattr { fh: root });
    s.nfs("getattr_file", NfsCall::Getattr { fh });
    s.nfs("getattr_stale", NfsCall::Getattr { fh: stale });

    let read = |fh, offset| NfsCall::Read {
        fh,
        offset,
        count: 8_192,
    };
    s.nfs("read_ok", read(fh, 0));
    s.nfs("read_eof", read(fh, FILE_SIZE - 4_096));
    s.nfs("read_stale", read(stale, 0));

    s.write("write_unstable", fh, FILE_SIZE, 8_192, StableHow::Unstable);
    s.write("write_file_sync", fh, 0, 8_192, StableHow::FileSync);
    s.write("write_zero_count", fh, 0, 0, StableHow::Unstable);
    s.write(
        "write_inval",
        fh,
        u64::MAX - 100,
        8_192,
        StableHow::Unstable,
    );
    s.write("write_nospc", fh, 1 << 50, 8_192, StableHow::FileSync);
    s.nfs(
        "commit",
        NfsCall::Commit {
            fh,
            offset: 0,
            count: 0,
        },
    );

    s.fh_call("fsinfo", wire::NFSPROC_FSINFO, root);
    s.fh_call("fsstat", wire::NFSPROC_FSSTAT, root);
    s.fh_call("pathconf", wire::NFSPROC_PATHCONF, root);
    s.fh_call("fsinfo_stale", wire::NFSPROC_FSINFO, stale);
    s.fh_call("fsstat_stale", wire::NFSPROC_FSSTAT, stale);
    s.fh_call("pathconf_stale", wire::NFSPROC_PATHCONF, stale);

    pins::check("endpoint_replies", s.pins);
}
