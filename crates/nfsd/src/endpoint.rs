//! The protocol brain of the real-socket server: decodes ONC RPC records,
//! answers MOUNT and NFS metadata immediately, and routes data-path calls
//! (GETATTR / READ / WRITE / COMMIT) through the simulated server stack.
//!
//! [`Endpoint`] is transport-agnostic: `server.rs` feeds it reassembled
//! records off real TCP connections and a wall clock, the loopback tests
//! feed it the same records with a [`crate::ManualClock`], and both get
//! byte-identical replies. Each TCP connection maps to one *external
//! client* of the [`NfsWorld`] — it shares the one export (as every
//! NFSv3 mount of a server does), `nfsd` pool, duplicate request cache,
//! `nfsheur` table, write-gathering dirty pool, and disk with any
//! simulated traffic, which is what makes the sim-vs-real differential
//! harness meaningful.

use ffs::{FileSystem, FsConfig};
use iosched::SchedulerKind;
use nfsproto::{AcceptStat, CallHeader, FileHandle, NfsCall, NfsReply, NfsStatus, XdrDecoder};
use nfssim::{NfsWorld, WorldConfig};
use simcore::{SimRng, SimTime};

use crate::wire;

/// Inode sentinel for the export root directory. The directory is
/// synthetic — the simulated file system has no namespace — so the
/// endpoint answers for it directly and never routes its handle into the
/// world.
pub const ROOT_INO: u64 = u64::MAX;

/// The export path the MOUNT program answers for.
pub const EXPORT_PATH: &str = "/export";

/// Shape of the export every connection sees.
#[derive(Debug, Clone, Copy)]
pub struct ExportSpec {
    /// Files in the export, named `f0`, `f1`, ….
    pub files: usize,
    /// Size of each file in bytes.
    pub file_size: u64,
}

impl Default for ExportSpec {
    fn default() -> Self {
        ExportSpec {
            files: 8,
            file_size: 256 * 8_192,
        }
    }
}

/// Endpoint-level counters (RPC layer, above the world's own books).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Well-formed calls received.
    pub calls: u64,
    /// Replies answered at the endpoint without touching the world
    /// (MOUNT, NULL, ACCESS, LOOKUP, FSINFO, FSSTAT, PATHCONF).
    pub immediate_replies: u64,
    /// Calls routed into the simulated server stack.
    pub routed_calls: u64,
    /// RPC-level error replies sent (prog/proc unavailable, garbage args).
    pub rpc_errors: u64,
}

/// Builds the standard benchmarking world the endpoint serves: the
/// paper's WD WD200BB IDE disk, the second quarter partition, an elevator
/// scheduler, and the given [`WorldConfig`]. The differential harness
/// calls this twice with the same seed — once under the endpoint, once
/// for the pure-virtual replay — so both sides see the same disk layout.
pub fn build_world(config: WorldConfig, seed: u64) -> NfsWorld {
    let disk = diskmodel::DriveModel::WdWd200bbIde.build(SimRng::new(seed));
    let part = diskmodel::PartitionTable::quarters(disk.geometry()).get(1);
    let fs = FileSystem::format(disk, part, SchedulerKind::Elevator, FsConfig::default());
    NfsWorld::new(config, fs, seed)
}

/// The record-in, records-out NFSv3 endpoint over a simulated world.
pub struct Endpoint {
    world: NfsWorld,
    /// Export files, index `i` answering to name `f{i}`.
    exports: Vec<FileHandle>,
    /// Root directory handle handed out by MOUNT.
    root: FileHandle,
    stats: EndpointStats,
}

impl Endpoint {
    /// Wraps a world and creates the export in it. The world may
    /// already carry simulated clients; external connections ride
    /// alongside them.
    pub fn new(mut world: NfsWorld, spec: ExportSpec) -> Self {
        let exports: Vec<FileHandle> = (0..spec.files)
            .map(|_| world.create_server_file(spec.file_size))
            .collect();
        let root = FileHandle {
            fsid: exports.first().map_or(0, |fh| fh.fsid),
            ino: ROOT_INO,
            generation: 1,
        };
        Endpoint {
            world,
            exports,
            root,
            stats: EndpointStats::default(),
        }
    }

    /// Registers a new TCP connection on the shared export. It allocates
    /// nothing in the world but the connection's contention books.
    /// Returns the connection id used by [`Endpoint::handle_record`].
    pub fn connect(&mut self) -> usize {
        self.world.register_external_client()
    }

    /// Handles one reassembled RPC record from connection `conn` arriving
    /// at `now`, returning any replies ready immediately. Replies for
    /// routed calls surface later from [`Endpoint::pump`].
    pub fn handle_record(&mut self, now: SimTime, conn: usize, record: &[u8]) -> Vec<Vec<u8>> {
        let mut d = XdrDecoder::new(record);
        let hdr = match CallHeader::decode(&mut d) {
            Ok(h) => h,
            Err(_) => {
                // Not even an RPC call header — nothing to address a
                // reply to. Drop the record; the framing layer already
                // guarantees it was a complete record, so this is a
                // protocol error by the peer.
                self.stats.rpc_errors += 1;
                return Vec::new();
            }
        };
        self.stats.calls += 1;
        match hdr.prog {
            wire::MOUNT_PROGRAM => vec![self.handle_mount(&hdr, &mut d)],
            nfsproto::NFS_PROGRAM => self
                .handle_nfs(now, conn, &hdr, &mut d)
                .map_or_else(Vec::new, |r| vec![r]),
            _ => {
                self.stats.rpc_errors += 1;
                vec![wire::accept_error_res(hdr.xid, AcceptStat::ProgUnavail)]
            }
        }
    }

    fn handle_mount(&mut self, hdr: &CallHeader, d: &mut XdrDecoder<'_>) -> Vec<u8> {
        if hdr.vers != wire::MOUNT_VERSION {
            self.stats.rpc_errors += 1;
            return wire::accept_error_res(
                hdr.xid,
                AcceptStat::ProgMismatch {
                    low: wire::MOUNT_VERSION,
                    high: wire::MOUNT_VERSION,
                },
            );
        }
        match hdr.proc_num {
            wire::MOUNTPROC_NULL | wire::MOUNTPROC_UMNT => {
                self.stats.immediate_replies += 1;
                wire::void_res(hdr.xid)
            }
            wire::MOUNTPROC_MNT => match d.get_string() {
                Ok(path) if path == EXPORT_PATH => {
                    self.stats.immediate_replies += 1;
                    wire::mnt_res_ok(hdr.xid, &self.root)
                }
                Ok(_) => {
                    self.stats.immediate_replies += 1;
                    wire::mnt_res_err(hdr.xid, wire::MNT_ERR_NOENT)
                }
                Err(_) => {
                    self.stats.rpc_errors += 1;
                    wire::accept_error_res(hdr.xid, AcceptStat::GarbageArgs)
                }
            },
            _ => {
                self.stats.rpc_errors += 1;
                wire::accept_error_res(hdr.xid, AcceptStat::ProcUnavail)
            }
        }
    }

    /// NFS program dispatch. `None` means the call was routed into the
    /// world and will reply via [`Endpoint::pump`].
    fn handle_nfs(
        &mut self,
        now: SimTime,
        conn: usize,
        hdr: &CallHeader,
        d: &mut XdrDecoder<'_>,
    ) -> Option<Vec<u8>> {
        if hdr.vers != nfsproto::NFS_VERSION {
            self.stats.rpc_errors += 1;
            return Some(wire::accept_error_res(
                hdr.xid,
                AcceptStat::ProgMismatch {
                    low: nfsproto::NFS_VERSION,
                    high: nfsproto::NFS_VERSION,
                },
            ));
        }
        match hdr.proc_num {
            wire::NFSPROC_NULL => {
                self.stats.immediate_replies += 1;
                Some(wire::void_res(hdr.xid))
            }
            wire::NFSPROC_ACCESS => {
                let (fh, bits) = match (FileHandle::decode(d), d.get_u32()) {
                    (Ok(fh), Ok(bits)) => (fh, bits),
                    _ => return Some(self.garbage(hdr.xid)),
                };
                self.stats.immediate_replies += 1;
                match self.attr_for(&fh) {
                    Some(a) => Some(wire::access_res(hdr.xid, &a, bits & wire::ACCESS_ALL)),
                    None => Some(wire::read_res_err(hdr.xid, 70, None)), // same shape as ACCESS3resfail
                }
            }
            wire::NFSPROC_FSINFO | wire::NFSPROC_FSSTAT | wire::NFSPROC_PATHCONF => {
                let fh = match FileHandle::decode(d) {
                    Ok(fh) => fh,
                    Err(_) => return Some(self.garbage(hdr.xid)),
                };
                self.stats.immediate_replies += 1;
                let a = self.attr_for(&fh).unwrap_or_else(|| self.root_attr());
                Some(match hdr.proc_num {
                    wire::NFSPROC_FSINFO => wire::fsinfo_res(hdr.xid, &a, 8_192),
                    wire::NFSPROC_FSSTAT => wire::fsstat_res(hdr.xid, &a),
                    _ => wire::pathconf_res(hdr.xid, &a),
                })
            }
            // Procedures the shared codec models.
            1 | 3 | 6 | 7 | 21 => {
                let proc_ = nfsproto::NfsProc::from_number(hdr.proc_num).expect("modelled proc");
                let call = match NfsCall::decode_args(proc_, d) {
                    Ok(c) => c,
                    Err(_) => return Some(self.garbage(hdr.xid)),
                };
                self.dispatch_call(now, conn, hdr.xid, call)
            }
            _ => {
                self.stats.rpc_errors += 1;
                Some(wire::accept_error_res(hdr.xid, AcceptStat::ProcUnavail))
            }
        }
    }

    fn dispatch_call(
        &mut self,
        now: SimTime,
        conn: usize,
        xid: u32,
        call: NfsCall,
    ) -> Option<Vec<u8>> {
        match call {
            // LOOKUP resolves against the synthetic export namespace —
            // answered here; the simulated world has no directories.
            NfsCall::Lookup { dir, name } => {
                self.stats.immediate_replies += 1;
                if dir.ino != ROOT_INO {
                    return Some(wire::lookup_res_err(xid, 20, None)); // NFS3ERR_NOTDIR
                }
                let idx = name
                    .strip_prefix('f')
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|&i| i < self.exports.len());
                match idx {
                    Some(i) => {
                        let fh = self.exports[i];
                        let obj = self.attr_for(&fh).unwrap_or(wire::FileAttr {
                            fileid: fh.ino,
                            size: 0,
                            fsid: u64::from(fh.fsid),
                            is_dir: false,
                        });
                        let dir_attr = self.root_attr();
                        Some(wire::lookup_res_ok(xid, &fh, &obj, &dir_attr))
                    }
                    None => Some(wire::lookup_res_err(
                        xid,
                        2, // NFS3ERR_NOENT
                        Some(&self.root_attr()),
                    )),
                }
            }
            // GETATTR on the synthetic root is also endpoint business.
            NfsCall::Getattr { fh } if fh.ino == ROOT_INO => {
                self.stats.immediate_replies += 1;
                Some(wire::getattr_res(xid, &self.root_attr()))
            }
            // Everything else is the data path: into the world, sharing
            // nfsds, the heuristic table, and the disk.
            NfsCall::Getattr { .. }
            | NfsCall::Read { .. }
            | NfsCall::Write { .. }
            | NfsCall::Commit { .. } => {
                self.stats.routed_calls += 1;
                self.world.external_call(now, conn, xid, call);
                None
            }
            // The export namespace is flat and resolved at the endpoint
            // (LOOKUP by name above); directory enumeration is not served
            // over the real socket. Real mounts list via the same error
            // they would get from a pre-READDIR server.
            NfsCall::Readdir { .. } | NfsCall::Readdirplus { .. } => {
                self.stats.rpc_errors += 1;
                Some(wire::accept_error_res(xid, AcceptStat::ProcUnavail))
            }
        }
    }

    /// Advances the world to `now` and drains finished external calls as
    /// `(connection, encoded reply)` pairs, in server completion order.
    pub fn pump(&mut self, now: SimTime) -> Vec<(usize, Vec<u8>)> {
        self.world.advance(now);
        let replies = self.world.take_external_replies();
        replies
            .into_iter()
            .map(|r| (r.ext, self.encode_reply(r.xid, r.fh, &r.reply)))
            .collect()
    }

    /// The next instant the world has work scheduled (disk completion,
    /// gather-window expiry). The serve loop waits no longer than this.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.world.next_event()
    }

    fn encode_reply(&self, xid: u32, fh: FileHandle, reply: &NfsReply) -> Vec<u8> {
        let attr = self.attr_for(&fh);
        match *reply {
            NfsReply::Getattr { status, attrs } => match (status, attrs) {
                (NfsStatus::Ok, Some(a)) => {
                    let full = wire::FileAttr {
                        fileid: a.fileid,
                        size: a.size,
                        fsid: u64::from(fh.fsid),
                        is_dir: false,
                    };
                    wire::getattr_res(xid, &full)
                }
                _ => wire::getattr_res_err(xid, status.code()),
            },
            NfsReply::Read { status, count, eof } => match (status, &attr) {
                (NfsStatus::Ok, Some(a)) => wire::read_res_ok(xid, a, count, eof),
                _ => wire::read_res_err(xid, status.code(), attr.as_ref()),
            },
            NfsReply::Write {
                status,
                count,
                committed,
                verf,
            } => wire::write_res(xid, status.code(), attr.as_ref(), count, committed, verf),
            NfsReply::Commit { status, verf } => {
                wire::commit_res(xid, status.code(), attr.as_ref(), verf)
            }
            // The world never answers LOOKUP for external calls (the
            // endpoint resolves names), but encode it defensively.
            NfsReply::Lookup { status, fh: obj } => match obj {
                Some(obj) if status == NfsStatus::Ok => {
                    let a = self.attr_for(&obj).unwrap_or(wire::FileAttr {
                        fileid: obj.ino,
                        size: 0,
                        fsid: u64::from(obj.fsid),
                        is_dir: false,
                    });
                    wire::lookup_res_ok(xid, &obj, &a, &self.root_attr())
                }
                _ => wire::lookup_res_err(xid, status.code(), None),
            },
            // Never produced for external calls (READDIR is refused at
            // dispatch), but encode defensively as the same refusal.
            NfsReply::Readdir { .. } => wire::accept_error_res(xid, AcceptStat::ProcUnavail),
        }
    }

    fn attr_for(&self, fh: &FileHandle) -> Option<wire::FileAttr> {
        if fh.ino == ROOT_INO {
            return Some(self.root_attr());
        }
        let inode = self.world.fs().inode(fh.ino)?;
        Some(wire::FileAttr {
            fileid: fh.ino,
            size: inode.size,
            fsid: u64::from(fh.fsid),
            is_dir: false,
        })
    }

    fn root_attr(&self) -> wire::FileAttr {
        wire::FileAttr {
            fileid: ROOT_INO,
            size: 4_096,
            fsid: u64::from(self.root.fsid),
            is_dir: true,
        }
    }

    fn garbage(&mut self, xid: u32) -> Vec<u8> {
        self.stats.rpc_errors += 1;
        wire::accept_error_res(xid, AcceptStat::GarbageArgs)
    }

    /// Endpoint-level counters.
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// The export files (what LOOKUP `f{i}` resolves to on every
    /// connection).
    pub fn exports(&self) -> &[FileHandle] {
        &self.exports
    }

    /// The world under the endpoint (heuristic books, server stats).
    pub fn world(&self) -> &NfsWorld {
        &self.world
    }

    /// Mutable world access (tests enable the server event log with it).
    pub fn world_mut(&mut self) -> &mut NfsWorld {
        &mut self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsproto::StableHow;

    fn endpoint() -> Endpoint {
        Endpoint::new(
            build_world(WorldConfig::default(), 7),
            ExportSpec {
                files: 2,
                file_size: 64 * 8_192,
            },
        )
    }

    #[test]
    fn mount_lookup_read_through_records() {
        let mut ep = endpoint();
        let conn = ep.connect();
        // MNT.
        let rec = wire::encode_mnt_call(1, EXPORT_PATH);
        let replies = ep.handle_record(SimTime::ZERO, conn, &rec);
        let (_, root) = wire::decode_mnt_reply(&replies[0]).unwrap();
        assert_eq!(root.ino, ROOT_INO);
        // LOOKUP f1.
        let call = NfsCall::Lookup {
            dir: root,
            name: "f1".into(),
        };
        let replies = ep.handle_record(SimTime::ZERO, conn, &call.encode(2));
        let (_, fh, attr) = wire::decode_lookup_reply(&replies[0]).unwrap();
        assert_eq!(fh, ep.exports()[1]);
        assert_eq!(attr.unwrap().size, 64 * 8_192);
        // READ routes into the world; the reply surfaces from pump().
        let call = NfsCall::Read {
            fh,
            offset: 0,
            count: 8_192,
        };
        assert!(ep
            .handle_record(SimTime::ZERO, conn, &call.encode(3))
            .is_empty());
        let out = ep.pump(SimTime::from_nanos(u64::MAX / 2));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, conn);
        let r = wire::decode_read_reply(&out[0].1).unwrap();
        assert_eq!((r.xid, r.status, r.count), (3, 0, 8_192));
        assert_eq!(ep.world().server_stats().reads, 1);
    }

    #[test]
    fn ejections_are_charged_to_the_connection_that_read_last() {
        // A one-slot table: any READ of another file ejects the entry.
        let mut config = WorldConfig::default();
        config.heur.slots = 1;
        config.heur.probes = 1;
        let spec = ExportSpec {
            files: 2,
            file_size: 64 * 8_192,
        };
        let mut ep = Endpoint::new(build_world(config, 7), spec);
        let (a, b) = (ep.connect(), ep.connect());
        let (f0, f1) = (ep.exports()[0], ep.exports()[1]);
        // B reads f0 first, A reads it last, then B's read of f1 ejects it.
        for (i, (conn, fh)) in [(b, f0), (a, f0), (b, f1)].into_iter().enumerate() {
            let at = SimTime::from_nanos(i as u64 * 10_000_000_000);
            let call = NfsCall::Read {
                fh,
                offset: 0,
                count: 8_192,
            };
            ep.handle_record(at, conn, &call.encode(i as u32 + 1));
            let out = ep.pump(at + simcore::SimDuration::from_secs(5));
            assert_eq!(out.len(), 1, "READ {i} answered");
        }
        let w = ep.world();
        assert_eq!(w.server_stats().heur_ejections, 1);
        let (sa, sb) = (
            w.contention_stats(w.n_clients() + a),
            w.contention_stats(w.n_clients() + b),
        );
        assert_eq!(sa.heur_ejections_suffered, 1, "A read f0 last: {sa:?}");
        assert_eq!(sa.heur_ejections_caused, 0, "{sa:?}");
        assert_eq!(sb.heur_ejections_suffered, 0, "{sb:?}");
        assert_eq!(sb.heur_ejections_caused, 1, "{sb:?}");
        assert_eq!(sb.cross_client_ejections, 1, "{sb:?}");
    }

    #[test]
    fn unknown_program_and_proc_get_rpc_errors() {
        let mut ep = endpoint();
        let conn = ep.connect();
        let rec = wire::encode_null_call(5, 100_099, 1);
        let replies = ep.handle_record(SimTime::ZERO, conn, &rec);
        assert_eq!(replies.len(), 1);
        assert!(wire::decode_mnt_reply(&replies[0]).is_err());
        let rec = wire::encode_fh_call(6, 17, &ep.exports()[0]); // READDIRPLUS-ish: unmodelled
        let replies = ep.handle_record(SimTime::ZERO, conn, &rec);
        assert_eq!(replies.len(), 1);
        assert_eq!(ep.stats().rpc_errors, 2);
    }

    #[test]
    fn unstable_write_then_commit_reuses_gather_machinery() {
        let mut ep = endpoint();
        let conn = ep.connect();
        let fh = ep.exports()[0];
        let w = NfsCall::Write {
            fh,
            offset: 0,
            count: 8_192,
            stable: StableHow::Unstable,
        };
        ep.handle_record(SimTime::ZERO, conn, &w.encode(10));
        let out = ep.pump(SimTime::from_nanos(1_000_000_000));
        let w = wire::decode_write_reply(&out[0].1).unwrap();
        assert_eq!(w.committed, StableHow::Unstable);
        let c = NfsCall::Commit {
            fh,
            offset: 0,
            count: 0,
        };
        ep.handle_record(SimTime::from_nanos(1_000_000_000), conn, &c.encode(11));
        let out = ep.pump(SimTime::from_nanos(60_000_000_000));
        let (_, status, verf) = wire::decode_commit_reply(&out[0].1).unwrap();
        assert_eq!(status, 0);
        assert_eq!(verf, w.verf, "write and commit verifiers must match");
        let s = ep.world().server_stats();
        assert_eq!(s.unstable_writes, 1);
        assert_eq!(s.commits, 1);
        assert!(s.gather_flushes >= 1);
    }
}
