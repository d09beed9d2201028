//! The client/server world: nfsiods, the wire, nfsds, and the file system,
//! wired into one deterministic event loop.
//!
//! Request reordering is *emergent* here, not injected: a process-context
//! READ and the `nfsiod`-issued read-aheads behind it have independently
//! jittered marshalling times, so their transmissions overlap and swap —
//! "this reordering is due most frequently to queuing issues in the client
//! nfsiod daemon" (§6). A busy client (the paper's four infinite-loop
//! processes) inflates the jitter and the reorder rate with it.
//!
//! The server side reproduces the FreeBSD structure: a fixed pool of
//! `nfsd`s (each handles one RPC at a time, *including* its disk wait), a
//! shared CPU, and the `nfsheur` table consulted on every READ to choose a
//! seqcount for the file system's read-ahead machinery.
//!
//! # Multiple client hosts
//!
//! The world is a *cluster*: N independent client hosts (each with its own
//! `nfsiod` pool, block cache, link, and RNG stream) share one server, one
//! `nfsheur` table, one duplicate-request cache, and one disk. RPCs are
//! keyed by `(client, xid)` so the shared server can attribute contention —
//! cross-client `nfsheur` ejections, probe collisions, duplicate-cache
//! hits — to the host that caused or suffered it. The classic single-client
//! constructor builds a 1-host cluster whose event and RNG schedules are
//! bit-identical to the historical single-client world (client 0's RNG
//! stream label *is* the old world stream).

use std::collections::VecDeque;

use ffs::{BufferCache, FileSystem, LocalFd};
use netsim::{TcpEvent, TcpStats, Transport, TransportKind, TxOutcome};
use nfsproto::{
    write_verf, CallHeader, Fattr3, FileHandle, NfsCall, NfsReply, NfsStatus, StableHow, XdrDecoder,
};
use readahead_core::NfsHeur;
use simcore::{EventQueue, IdWindow, SimDuration, SimRng, SimTime};

use crate::books::{InService, ServerInodes, ServiceTable};
use crate::client_books::{
    AttrEntry, CloseState, FileTable, ReaddirPending, Rpc, RpcBook, WbState, NONE,
};
use crate::config::{ClientHostConfig, CpuModel, WorldConfig, NFSDS, RSIZE};

/// RNG stream label of client 0 — the historical single-client world
/// stream ("NFSIM"), so a 1-host cluster replays the exact old schedule.
const CLIENT_STREAM_BASE: u64 = 0x4E46_5349_4D00;
/// Per-client stream spacing (the splitmix64 golden-ratio increment), so
/// host streams are decorrelated but purely seed-and-index derived.
const CLIENT_STREAM_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// RNG stream label for the server's own draws (file-extension layout on
/// aged file systems). Separate from every client stream so arming the
/// async write path never perturbs client schedules.
const SERVER_STREAM: u64 = 0x4E46_5352_5600; // "NFSRV"

/// High bit of a file-system routing tag marking a server-initiated dirty
/// flush (write gathering / COMMIT). Any other tag is the service slot of
/// the call the I/O serves, which is far below bit 63.
const FLUSH_KEY_BIT: u64 = 1 << 63;

/// Bit 62 of a routing key marks a call injected by an *external* ingress
/// (the real-socket `nfsd` endpoint) rather than a simulated client host.
/// External calls take the same admission step, nfsd pool, `nfsheur`
/// table, dirty pool, disk, and reply builder as simulated ones; only
/// delivery differs — their replies land in
/// [`NfsWorld::take_external_replies`] instead of a simulated transport.
const EXT_KEY_BIT: u64 = 1 << 62;

/// Round-trip estimate the transports start from (retransmission
/// penalties on TCP).
const CLIENT_RTT: SimDuration = SimDuration::from_micros(200);

/// Retransmissions of one UDP call before the mount is declared dead and
/// the call fails with [`OpOutcome::RpcTimedOut`].
const MAX_RETRIES: u32 = 8;

/// Server dirty-pool ceiling in blocks; above it the written file is
/// flushed immediately instead of waiting out the gather window.
const SERVER_DIRTY_MAX_BLOCKS: u64 = 512;

/// Client write-behind ceiling in blocks; above it dirty runs are pushed
/// in process context even when every nfsiod is busy.
const CLIENT_DIRTY_MAX_BLOCKS: usize = 64;

/// Modeled wire bytes per plain READDIR entry: fileid + padded name +
/// cookie (RFC 1813 `entry3`; names average a dozen bytes padded to 4).
const READDIR_ENTRY_BYTES: u32 = 32;

/// Additional wire bytes per READDIRPLUS entry: the post-op attributes
/// and post-op file handle (`entryplus3` over `entry3`).
const READDIRPLUS_EXTRA_BYTES: u32 = 44;

/// Packs a client index and an RPC xid into one event routing key (the
/// file system sees the call's service slot instead).
fn call_key(client: usize, xid: u32) -> u64 {
    ((client as u64) << 32) | u64::from(xid)
}

fn key_client(key: u64) -> usize {
    debug_assert_eq!(key & EXT_KEY_BIT, 0, "external key routed as client");
    (key >> 32) as usize
}

fn key_xid(key: u64) -> u32 {
    key as u32
}

/// Routing key for an external-ingress call.
fn ext_key(ext: usize, xid: u32) -> u64 {
    EXT_KEY_BIT | ((ext as u64) << 32) | u64::from(xid)
}

/// Whether a (non-flush) routing key belongs to an external ingress.
fn is_ext(key: u64) -> bool {
    key & EXT_KEY_BIT != 0
}

/// External-connection index of an external key.
fn ext_index(key: u64) -> usize {
    ((key >> 32) & ((1 << 30) - 1)) as usize
}

/// Identifies a process-level operation (one `read()` system call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// How a process-level operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// Completed normally.
    Ok,
    /// An RPC this operation depended on exhausted its retransmissions
    /// (`max_retries`); the operation failed the way a soft-mounted NFS
    /// read fails with `ETIMEDOUT`. `xid` is the hung RPC.
    RpcTimedOut {
        /// The transaction id that gave up.
        xid: u32,
    },
    /// The server replied with `NFS3ERR_IO`: its disk failed the request
    /// unrecoverably (the bio layer's retries and remap already ran). The
    /// operation fails the way `read()` fails with `EIO`.
    Eio {
        /// The transaction id whose reply carried the error.
        xid: u32,
    },
}

impl OpOutcome {
    /// True for [`OpOutcome::Ok`].
    pub fn is_ok(self) -> bool {
        self == OpOutcome::Ok
    }
}

/// A completed process-level operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDone {
    /// The id returned by [`NfsWorld::read_from`] (or any other op).
    pub id: OpId,
    /// The client host that issued the operation.
    pub client: usize,
    /// Caller routing tag.
    pub tag: u64,
    /// Issue time.
    pub issued_at: SimTime,
    /// Completion time.
    pub done_at: SimTime,
    /// Success or typed failure.
    pub outcome: OpOutcome,
}

/// A reply produced for an external-ingress call (the real-socket
/// endpoint): the server half finished the work and this is what would
/// go on the wire. Collected via [`NfsWorld::take_external_replies`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtReply {
    /// External connection index (from
    /// [`NfsWorld::register_external_client`]).
    pub ext: usize,
    /// RPC transaction id of the call this answers.
    pub xid: u32,
    /// Simulated instant the reply left the server.
    pub at: SimTime,
    /// The reply body.
    pub reply: NfsReply,
}

/// One entry of the server-side event log (see
/// [`NfsWorld::enable_server_event_log`]): the order-sensitive actions
/// the clock-adapter tests compare between virtual-clock and wall-clock
/// drivers. Recording is off by default and the log is behind an
/// `Option`, so worlds that never enable it are bit-identical to
/// historical behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerEvent {
    /// A READ probed the `nfsheur` table.
    HeurRead {
        /// File probed.
        ino: u64,
        /// Whether the probe hit a live cursor.
        hit: bool,
        /// Whether the probe ejected a victim cursor.
        ejected: bool,
    },
    /// The dirty pool for `ino` flushed (gather window, pressure, or
    /// COMMIT), writing `blocks` gathered blocks to disk.
    GatherFlush {
        /// File flushed.
        ino: u64,
        /// Dirty blocks in the flush.
        blocks: u64,
    },
    /// A reply left the server (any origin — simulated or external).
    Reply {
        /// Transaction id answered.
        xid: u32,
    },
}

/// State of one client-cache block, for external invariant checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Present in the client cache.
    Cached,
    /// An RPC for it is in flight.
    Pending,
    /// Neither cached nor requested.
    Absent,
}

simcore::counters! {
    /// Server-side counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServerStats {
        /// READ calls received (retransmissions included).
        pub reads: u64,
        /// Non-READ calls received.
        pub other_calls: u64,
        /// READ calls that arrived out of client submission order.
        pub reordered: u64,
        /// RPC replies sent.
        pub replies: u64,
        /// Duplicate calls dropped on arrival while the original was still in
        /// service (the duplicate-request-cache behaviour of real NFS servers).
        pub duplicates_dropped: u64,
        /// Accepted calls dropped *after* acceptance because the client had
        /// already retired the RPC (its reply raced a retransmission, or the
        /// client timed out). Counted against `reads`/`other_calls`, so at
        /// quiescence `replies + stale_drops == reads + other_calls`.
        pub stale_drops: u64,
        /// Calls that arrived for an RPC the client had already abandoned
        /// entirely (post-timeout retransmissions). Never counted in
        /// `reads`/`other_calls`.
        pub orphan_calls: u64,
        /// `nfsheur` lookups that found the file's live entry.
        pub heur_hits: u64,
        /// `nfsheur` lookups that found no entry (first access or ejected).
        pub heur_misses: u64,
        /// Live `nfsheur` entries ejected to make room — each one a file whose
        /// sequentiality state the server forgot (§6.3).
        pub heur_ejections: u64,
        /// Live `nfsheur` entries right now (a gauge).
        #[level]
        pub heur_occupancy: u64,
        /// Replies sent with `NFS3ERR_IO` because the disk failed the request.
        pub disk_eios: u64,
        /// UNSTABLE WRITE calls stashed in the dirty pool (no disk wait).
        pub unstable_writes: u64,
        /// COMMIT calls received.
        pub commits: u64,
        /// Dirty-pool flushes submitted to the disk (one per coalesced run).
        pub gather_flushes: u64,
        /// Blocks that entered the dirty pool (a block re-dirtied after a
        /// flush counts again; a block dirtied twice before flushing doesn't).
        pub dirty_blocks_stashed: u64,
        /// Blocks the dirty pool submitted to disk.
        pub dirty_blocks_flushed: u64,
        /// Blocks dropped from the dirty pool by a server restart — the data
        /// a crash loses, which clients must detect via the verifier.
        pub dirty_blocks_lost: u64,
        /// Server restarts (each one changes the write verifier).
        pub restarts: u64,
        /// GETATTR calls served.
        pub getattrs: u64,
        /// LOOKUP calls served.
        pub lookups: u64,
        /// READDIR and READDIRPLUS calls served.
        pub readdirs: u64,
    }
}

impl ServerStats {
    /// Fraction of READs that arrived out of order.
    pub fn reorder_fraction(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.reordered as f64 / self.reads as f64
        }
    }
}

simcore::counters! {
    /// Client-side counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ClientStats {
        /// Process-level reads issued.
        pub ops: u64,
        /// Blocks served from the client cache.
        pub cache_hits: u64,
        /// READ RPCs sent (first transmissions).
        pub rpcs: u64,
        /// Read-ahead RPCs among them.
        pub readahead_rpcs: u64,
        /// RPC retransmissions.
        pub retransmits: u64,
        /// Read-aheads skipped because no nfsiod was free.
        pub iod_starved: u64,
        /// RPCs abandoned after `max_retries` retransmissions.
        pub rpc_timeouts: u64,
        /// Messages handed to the client→server transport (first transmissions
        /// plus retransmissions; equals the c2s link's `messages` counter).
        pub transmissions: u64,
        /// Replies that retired an outstanding RPC.
        pub replies_received: u64,
        /// Replies for RPCs already retired (a retransmission's extra reply).
        pub duplicate_replies: u64,
        /// Replies that carried `NFS3ERR_IO` and failed the waiting operation.
        pub eio_replies: u64,
        /// UNSTABLE WRITE RPCs sent by the write-behind machinery (first
        /// transmissions; zero outside the async write path).
        pub write_rpcs: u64,
        /// COMMIT RPCs sent (first transmissions).
        pub commit_rpcs: u64,
        /// `close()` operations issued.
        pub closes: u64,
        /// COMMIT replies whose verifier did not match the one stored with
        /// the uncommitted blocks — each one a detected server crash window.
        pub verifier_mismatches: u64,
        /// Blocks re-dirtied and rewritten after a verifier mismatch.
        pub blocks_rewritten: u64,
        /// TCP segment-engine books for the client→server stream (all zero
        /// on UDP mounts).
        pub tcp_c2s: TcpStats,
        /// TCP segment-engine books for the server→client stream (all zero
        /// on UDP mounts).
        pub tcp_s2c: TcpStats,
        /// GETATTR RPCs sent (first transmissions: cache misses,
        /// revalidations, and — with the cache off — every getattr op).
        pub getattr_rpcs: u64,
        /// LOOKUP RPCs sent (first transmissions).
        pub lookup_rpcs: u64,
        /// READDIR/READDIRPLUS RPCs sent (first transmissions).
        pub readdir_rpcs: u64,
        /// getattr() ops answered from the attribute cache — no RPC. Always
        /// zero with the cache off.
        pub attr_cache_hits: u64,
        /// getattr() ops that found no cache entry and fetched over the wire.
        /// Always zero with the cache off.
        pub attr_cache_misses: u64,
        /// GETATTRs sent to revalidate an expired entry or at open()
        /// (close-to-open consistency). Always zero with the cache off.
        pub attr_revalidations: u64,
        /// Revalidations whose reply showed the server's attributes had
        /// changed under a live entry — the staleness window closing.
        pub attr_stale_detected: u64,
        /// Attribute entries dropped by this client's own writes and closes.
        pub attr_invalidations: u64,
    }
}

simcore::counters! {
    /// Per-client contention at the shared server, attributable by client id.
    ///
    /// All counters are maintained by the server as it serves calls, so the
    /// contention experiment reads straight off the stats instead of ad-hoc
    /// probes of the table.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ContentionStats {
        /// `nfsheur` ejections this client's READs caused (any victim).
        pub heur_ejections_caused: u64,
        /// Live `nfsheur` entries this client read last that some READ (its
        /// own or another client's) ejected.
        pub heur_ejections_suffered: u64,
        /// Of the ejections this client caused, how many evicted an entry
        /// *another* client read last — the cross-client interference the
        /// paper's enlarged table is meant to eliminate.
        pub cross_client_ejections: u64,
        /// Probe-window scans by this client's READs that walked over a live
        /// entry a different client read last (hash-neighbourhood sharing).
        pub cross_client_probe_collisions: u64,
        /// Duplicate calls from this client dropped by the server's
        /// duplicate-request cache while the original was in service.
        pub duplicate_cache_hits: u64,
        /// `NFS3ERR_IO` replies this client received — disk faults are a
        /// shared-server phenomenon too: one client's remap storm is another
        /// client's latency, so the books attribute every EIO to its victim.
        pub disk_eios_suffered: u64,
    }
}

/// Timer lanes of [`NfsWorld`]'s event queue (see
/// [`EventQueue::schedule_in_lane`]). Each family is scheduled a constant
/// after a non-decreasing instant, so it arrives already sorted.
const LANE_RETRANSMIT: usize = 0;
const LANE_GATHER: usize = 1;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Client marshalling finished; hand the call to the transport.
    Send { key: u64 },
    /// Call delivered to the server.
    CallArrive { key: u64 },
    /// Reply delivered to the client; `eio` marks an `NFS3ERR_IO` reply.
    /// `verf` is the write verifier for WRITE/COMMIT replies (0 otherwise).
    ReplyArrive { key: u64, eio: bool, verf: u64 },
    /// UDP retransmission check.
    Retransmit { key: u64, attempt: u32 },
    /// A TCP stream's earliest retransmission deadline fell due; fire the
    /// segment engine's timers (`c2s` picks the direction).
    TcpTick { client: usize, c2s: bool },
    /// The server's write-gathering window for `ino` expired: flush its
    /// dirty pool to disk. Stale events (already-flushed pools) no-op.
    GatherExpire { ino: u64 },
}

#[derive(Debug)]
struct OpState {
    client: usize,
    tag: u64,
    issued_at: SimTime,
    outstanding_blocks: usize,
    /// Set when an RPC this op depended on timed out (holds the xid).
    timed_out: Option<u32>,
    /// Set when a reply this op depended on carried `NFS3ERR_IO`.
    eio: Option<u32>,
}

impl OpState {
    /// Records that the RPC `xid` this op depended on ended in `end` (a
    /// reply records nothing).
    fn fail(&mut self, xid: u32, end: RpcEnd) {
        match end {
            RpcEnd::Reply { .. } => {}
            RpcEnd::Eio => self.eio = Some(xid),
            RpcEnd::TimedOut => self.timed_out = Some(xid),
        }
    }
}

/// How an outstanding RPC ended for the client that sent it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RpcEnd {
    /// A successful reply; `verf` is its write verifier (0 unless the
    /// call was a WRITE or COMMIT).
    Reply { verf: u64 },
    /// A reply carrying `NFS3ERR_IO`.
    Eio,
    /// Retransmissions exhausted, or the TCP stream gave up on it.
    TimedOut,
}

/// Hot per-client state, split out of [`ClientHost`] into a packed
/// parallel array (`NfsWorld::hot`): every RPC issue touches the xid
/// counter and RNG, and the TCP tick guards are read on every timer, so
/// packing them structure-of-arrays keeps the per-call working set to one
/// cache line per client instead of striding over the ~full [`ClientHost`]
/// (transports, caches, maps).
#[derive(Debug)]
struct ClientHot {
    rng: SimRng,
    next_xid: u32,
    /// Earliest [`Ev::TcpTick`] currently scheduled per direction
    /// (`SimTime::MAX` = none), so redundant ticks stay bounded.
    c2s_tick: SimTime,
    s2c_tick: SimTime,
}

impl ClientHot {
    fn marshal_delay(&mut self, cpu: CpuModel) -> SimDuration {
        let jitter = self.rng.exponential(cpu.client_jitter_mean);
        SimDuration::from_secs_f64(cpu.client_marshal + jitter)
    }
}

/// One client host's cold bulk: mount state, caches, daemons, links.
/// The per-call hot fields live in [`ClientHot`]; the configuration is
/// the world's.
#[derive(Debug)]
struct ClientHost {
    c2s: Transport,
    s2c: Transport,
    cache: BufferCache,
    /// Mounted files, attribute cache and write-behind cache (the last
    /// two always empty with the cache off and on FILE_SYNC mounts).
    files: FileTable,
    rpcs: RpcBook,
    iod_free: Vec<SimTime>,
    stats: ClientStats,
    /// TCP only: queued c2s segment seq → call key, resolved by the
    /// segment engine's deferred [`TcpEvent`]s.
    c2s_seq: IdWindow<u64>,
    /// TCP only: queued s2c segment seq → (call key, eio flag, verifier).
    s2c_seq: IdWindow<(u64, bool, u64)>,
    /// LOOKUP name buffers whose RPCs retired, for the next LOOKUPs.
    names: Vec<String>,
}

impl ClientHost {
    /// Returns `Some(now)` iff an nfsiod slot is free at `now`. (A slot
    /// whose busy-until time has passed is usable immediately; there is no
    /// future reservation, so the acquisition instant is always `now`.)
    fn acquire_iod(&self, now: SimTime) -> Option<SimTime> {
        self.iod_free.iter().any(|&t| t <= now).then_some(now)
    }

    fn set_iod_busy_until(&mut self, until: SimTime) {
        if let Some(slot) = self
            .iod_free
            .iter_mut()
            .filter(|t| **t <= until)
            .min_by_key(|t| **t)
        {
            *slot = until;
        }
    }

    fn set_nfsiods(&mut self, count: usize) {
        while self.iod_free.len() > count {
            let idlest = self
                .iod_free
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .map(|(i, _)| i)
                .expect("len > count >= 0");
            self.iod_free.swap_remove(idlest);
        }
        while self.iod_free.len() < count {
            self.iod_free.push(SimTime::ZERO);
        }
    }
}

/// The shared server: one nfsd pool, one CPU, one `nfsheur` table, one
/// duplicate-request cache, one disk — the contended half of the cluster.
#[derive(Debug)]
struct ServerHost {
    fs: FileSystem,
    fsid: u32,
    heur: NfsHeur,
    nfsd_total: usize,
    nfsd_busy: usize,
    /// Admitted calls waiting for an nfsd: arrival instant and service
    /// slot.
    call_queue: VecDeque<(SimTime, u32)>,
    /// Calls accepted and not yet replied to, by service slot, with the
    /// duplicate-request check.
    in_service: ServiceTable,
    cpu_free: SimTime,
    stats: ServerStats,
    /// Debug builds only: the one buffer every simulated call and every
    /// reply is XDR-encoded into for the codec check in
    /// [`NfsWorld::server_call_arrive`] and [`NfsWorld::server_reply`].
    /// Release builds never touch it; only wire sizes travel.
    wire_scratch: Vec<u8>,
    /// Test hook: number of upcoming replies to count but not transmit.
    sabotage_drop_replies: u32,
    /// Server identity folded into the write verifier.
    instance: u64,
    /// Boot count; a restart bumps it and with it the verifier.
    boot_epoch: u64,
    /// Current RFC 1813 write verifier (pure function of instance+epoch).
    verf: u64,
    /// Layout draws for file extension (aging only; fresh fs never draws).
    alloc_rng: SimRng,
    /// Per-file books (reorder and contention accounting, attribute
    /// version, dirty pool, flushes, parked COMMITs, durable blocks).
    inodes: ServerInodes,
    /// Blocks in every file's dirty pool, kept as a running count for the
    /// UNSTABLE WRITE path's pressure check.
    dirty_blocks: u64,
    /// In-flight dirty flush spans, by flush tag (sans [`FLUSH_KEY_BIT`]).
    flushing: IdWindow<FlushSpan>,
    next_flush: u64,
}

#[derive(Debug, Clone, Copy)]
struct FlushSpan {
    ino: u64,
    first_blk: u64,
    nblocks: u64,
}

/// The whole simulated NFS installation: N client hosts, one server.
#[derive(Debug)]
pub struct NfsWorld {
    config: WorldConfig,
    /// The transport's CPU costs, with the client marshalling jitter
    /// already scaled by the busy loops competing for the client CPU.
    cpu: CpuModel,
    queue: EventQueue<Ev>,
    /// Latest event instant processed by [`NfsWorld::advance`]. The RPC
    /// event queue alone is not enough: file-system completions advance
    /// simulated time without popping the queue.
    clock: SimTime,
    clients: Vec<ClientHost>,
    /// Hot per-client fields (RNG, xid, TCP tick guards), parallel to
    /// `clients` and packed contiguously — see [`ClientHot`].
    hot: Vec<ClientHot>,
    server: ServerHost,
    /// Process-level operations across every client (OpIds are global),
    /// by `OpId`.
    ops: IdWindow<OpState>,
    ready: Vec<OpDone>,
    /// The earliest `done_at` on `ready` (`None` when it is empty).
    ready_next: Option<SimTime>,
    /// Scratch for the file system's completions in `advance_into`.
    fs_done: Vec<ffs::OpDone>,
    next_op: u64,
    /// Per-client contention counters, indexed by client id; external
    /// connections append entries after the simulated hosts (the index
    /// `ServerInode::last_reader` records).
    contention: Vec<ContentionStats>,
    /// Number of external-ingress connections registered.
    ext_clients: usize,
    /// Replies to external calls awaiting collection.
    ext_outbox: Vec<ExtReply>,
    /// Order-sensitive server action log; `None` (the default) records
    /// nothing.
    server_events: Option<Vec<ServerEvent>>,
}

impl NfsWorld {
    /// Builds a classic single-client world around an already-formatted
    /// server file system: a 1-host cluster.
    pub fn new(config: WorldConfig, fs: FileSystem, seed: u64) -> Self {
        Self::build(config, 1, fs, seed)
    }

    /// Builds a cluster: one host per entry of `hosts`, all sharing the
    /// server described by `config` (nfsd pool, `nfsheur` geometry, policy,
    /// transport) and the given file system. Every host is configured by
    /// `config`; the entries only count the hosts.
    ///
    /// Each host gets its own RNG stream derived from `seed` and its index
    /// (splitmix-style: stream `BASE + i·GAMMA`), so adding a host never
    /// perturbs another host's draws, and host 0's stream is the historical
    /// single-client stream.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty, or if an entry is not
    /// [`ClientHostConfig::from_world`] of `config`.
    pub fn new_cluster(
        config: WorldConfig,
        hosts: &[ClientHostConfig],
        fs: FileSystem,
        seed: u64,
    ) -> Self {
        let world_host = ClientHostConfig::from_world(&config);
        assert!(
            hosts.iter().all(|h| *h == world_host),
            "every host must be ClientHostConfig::from_world(&config)"
        );
        Self::build(config, hosts.len(), fs, seed)
    }

    fn build(config: WorldConfig, n_clients: usize, fs: FileSystem, seed: u64) -> Self {
        assert!(n_clients > 0, "a cluster needs at least one client");
        let mut clients: Vec<ClientHost> = Vec::with_capacity(n_clients);
        let mut hot: Vec<ClientHot> = Vec::with_capacity(n_clients);
        for i in 0..n_clients {
            let mut rng = SimRng::from_seed_and_stream(
                seed,
                CLIENT_STREAM_BASE.wrapping_add(CLIENT_STREAM_GAMMA.wrapping_mul(i as u64)),
            );
            let c2s = Transport::new(config.transport, config.link, CLIENT_RTT, rng.derive(1));
            let s2c = Transport::new(config.transport, config.link, CLIENT_RTT, rng.derive(2));
            hot.push(ClientHot {
                rng,
                next_xid: 1,
                c2s_tick: SimTime::MAX,
                s2c_tick: SimTime::MAX,
            });
            clients.push(ClientHost {
                c2s,
                s2c,
                cache: BufferCache::new(config.client_cache_blocks),
                files: FileTable::default(),
                rpcs: RpcBook::default(),
                iod_free: vec![SimTime::ZERO; config.nfsiods],
                stats: ClientStats::default(),
                c2s_seq: IdWindow::default(),
                s2c_seq: IdWindow::default(),
                names: Vec::new(),
            });
        }
        // Busy loops stretch the marshalling jitter of every client call.
        let mut cpu = CpuModel::for_transport(config.transport);
        cpu.client_jitter_mean *= 1.0 + f64::from(config.busy_loops) * 0.9;
        let contention = vec![ContentionStats::default(); clients.len()];
        let inodes = ServerInodes::with_files(fs.file_count());
        NfsWorld {
            cpu,
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            clients,
            hot,
            server: ServerHost {
                fs,
                fsid: 1,
                heur: NfsHeur::new(config.heur),
                nfsd_total: NFSDS,
                nfsd_busy: 0,
                call_queue: VecDeque::new(),
                in_service: ServiceTable::default(),
                cpu_free: SimTime::ZERO,
                stats: ServerStats::default(),
                wire_scratch: Vec::new(),
                sabotage_drop_replies: 0,
                instance: seed,
                boot_epoch: 0,
                verf: write_verf(seed, 0),
                alloc_rng: SimRng::from_seed_and_stream(seed, SERVER_STREAM),
                inodes,
                dirty_blocks: 0,
                flushing: IdWindow::default(),
                next_flush: 0,
            },
            ops: IdWindow::default(),
            ready: Vec::new(),
            ready_next: None,
            fs_done: Vec::new(),
            next_op: 0,
            contention,
            ext_clients: 0,
            ext_outbox: Vec::new(),
            server_events: None,
            config,
        }
    }

    /// Number of client hosts in the cluster.
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// Approximate resident bytes of per-client state across the cluster:
    /// each host's fixed-size state, hot and cold, and its heap (block
    /// cache, RPC books, file table, TCP sequence windows, name
    /// buffers). Estimated from `capacity()`, so this is scale
    /// accounting, not allocator truth.
    pub fn client_state_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = self.hot.capacity() * size_of::<ClientHot>()
            + self.clients.capacity() * size_of::<ClientHost>();
        for cl in &self.clients {
            total += cl.cache.approx_heap_bytes()
                + cl.iod_free.capacity() * size_of::<SimTime>()
                + cl.rpcs.heap_bytes()
                + cl.files.heap_bytes()
                + cl.c2s_seq.capacity() * size_of::<Option<u64>>()
                + cl.s2c_seq.capacity() * size_of::<Option<(u64, bool, u64)>>()
                + cl.names.capacity() * size_of::<String>()
                + cl.names.iter().map(String::capacity).sum::<usize>();
        }
        total
    }

    /// Approximate resident bytes of the server half's growing state: the
    /// file system's inode table, block maps and buffer cache, the
    /// server's per-file books, its in-service table and its call queue.
    /// Estimated from capacities, like [`NfsWorld::client_state_bytes`].
    pub fn server_state_bytes(&self) -> usize {
        let s = &self.server;
        s.fs.approx_heap_bytes()
            + s.inodes.heap_bytes()
            + s.in_service.heap_bytes()
            + s.call_queue.capacity() * std::mem::size_of::<(SimTime, u32)>()
    }

    /// Creates a file on the server and "mounts" it on client 0,
    /// returning the handle processes read through.
    pub fn create_file(&mut self, size: u64) -> FileHandle {
        self.create_file_for(0, size)
    }

    /// Creates a file on the server and "mounts" it on the given client.
    /// Layout draws come from that client's RNG stream, so each host's
    /// file placement is independent of the others'.
    pub fn create_file_for(&mut self, client: usize, size: u64) -> FileHandle {
        let mut alloc_rng = self.hot[client].rng.derive(0xA110C);
        let ino = self
            .server
            .fs
            .create_file(size, &mut alloc_rng)
            .expect("the server's partition holds the file");
        self.server.inodes.add_file(ino);
        self.clients[client].files.mount(ino, size);
        FileHandle {
            fsid: self.server.fsid,
            ino,
            generation: 1,
        }
    }

    // ------------------------------------------------------------------
    // External ingress (real-socket endpoint).
    //
    // The `nfsd` crate feeds calls decoded off real TCP connections into
    // the simulated server half through these hooks. External calls take
    // the same admission step and reply builder as simulated ones and
    // share the nfsd pool, duplicate cache, `nfsheur` table, dirty pool,
    // and disk with simulated traffic; they never touch a simulated
    // client host, so a world that registers no external connection
    // behaves bit-identically to one built before these hooks existed.
    // ------------------------------------------------------------------

    /// Registers an external connection (one real TCP client), returning
    /// its connection index. Contention books for it live at index
    /// `n_clients() + ext` of [`NfsWorld::contention_stats`].
    pub fn register_external_client(&mut self) -> usize {
        let ext = self.ext_clients;
        self.ext_clients += 1;
        self.contention.push(ContentionStats::default());
        ext
    }

    /// Creates a server-level file no host owns, returning its handle.
    /// Layout draws come from the server's own RNG stream, so the export
    /// never perturbs simulated client schedules.
    pub fn create_server_file(&mut self, size: u64) -> FileHandle {
        let mut alloc_rng = self.server.alloc_rng.derive(0xE4_90_27);
        let ino = self
            .server
            .fs
            .create_file(size, &mut alloc_rng)
            .expect("the server's partition holds the file");
        self.server.inodes.add_file(ino);
        FileHandle {
            fsid: self.server.fsid,
            ino,
            generation: 1,
        }
    }

    /// Injects a call from external connection `ext` arriving at the
    /// server at `now`. The reply appears in
    /// [`NfsWorld::take_external_replies`] once the server half finishes
    /// (immediately for metadata, UNSTABLE writes, and calls answered
    /// without I/O; after disk I/O for reads, sync writes, and COMMITs).
    /// A retransmitted xid still in service is dropped, as the duplicate
    /// request cache would. Any decodable call gets an RFC 1813 answer: an
    /// unknown handle is `NFS3ERR_STALE`, a READ at or past EOF is a short
    /// read with `eof` set, a zero-count WRITE is a no-op `NFS3_OK`, and a
    /// WRITE range that overflows or outgrows the partition is
    /// `NFS3ERR_INVAL` or `NFS3ERR_NOSPC`.
    pub fn external_call(&mut self, now: SimTime, ext: usize, xid: u32, call: NfsCall) {
        assert!(ext < self.ext_clients, "unregistered external connection");
        self.admit(now, ext_key(ext, xid), call, None);
    }

    /// Drains the replies produced for external calls, in the order the
    /// server finished them.
    pub fn take_external_replies(&mut self) -> Vec<ExtReply> {
        std::mem::take(&mut self.ext_outbox)
    }

    /// The server's attributes for `fh`, as a reply about it carries
    /// them; `None` for an inode the server does not hold.
    #[inline]
    pub fn file_attrs(&self, fh: FileHandle) -> Option<Fattr3> {
        self.server.fs.inode(fh.ino).map(|i| Fattr3 {
            is_dir: false,
            size: i.size,
            fileid: fh.ino,
            fsid: u64::from(fh.fsid),
        })
    }

    /// Turns on the server-side event log ([`ServerEvent`]). Worlds that
    /// never call this record nothing and pay nothing.
    pub fn enable_server_event_log(&mut self) {
        if self.server_events.is_none() {
            self.server_events = Some(Vec::new());
        }
    }

    /// Drains the server event log (empty if logging is off).
    pub fn take_server_events(&mut self) -> Vec<ServerEvent> {
        self.server_events.take().map_or_else(Vec::new, |v| {
            self.server_events = Some(Vec::new());
            v
        })
    }

    /// Server counters. The `nfsheur` table counters are folded in from
    /// the live table, so contention experiments read straight off this.
    pub fn server_stats(&self) -> ServerStats {
        let h = self.server.heur.stats();
        ServerStats {
            heur_hits: h.hits,
            heur_misses: h.misses,
            heur_ejections: h.ejections,
            heur_occupancy: h.occupancy,
            ..self.server.stats
        }
    }

    /// Counters for one client host. On TCP mounts the segment engine's
    /// live books are folded in (like the `nfsheur` counters in
    /// [`NfsWorld::server_stats`]); on UDP they stay zeroed.
    pub fn client_stats_for(&self, client: usize) -> ClientStats {
        let cl = &self.clients[client];
        ClientStats {
            tcp_c2s: cl.c2s.tcp_stats().unwrap_or_default(),
            tcp_s2c: cl.s2c.tcp_stats().unwrap_or_default(),
            ..cl.stats
        }
    }

    /// TCP segment-engine books for one host as `(c2s, s2c)`, or `None`
    /// on a UDP mount — the handle simtest's TCP oracles check.
    pub fn tcp_stats_for(&self, client: usize) -> Option<(TcpStats, TcpStats)> {
        let cl = &self.clients[client];
        Some((cl.c2s.tcp_stats()?, cl.s2c.tcp_stats()?))
    }

    /// Server-side contention attributed to one client host.
    pub fn contention_stats(&self, client: usize) -> ContentionStats {
        self.contention[client]
    }

    /// Live attribute-cache entries on one client host (a gauge; always
    /// zero with the cache disabled). Oracles use this to prove cache-off
    /// dormancy and to bound cache-on growth.
    pub fn attr_cache_entries(&self, client: usize) -> usize {
        self.clients[client].files.attr_entries()
    }

    /// The server's attribute version for `ino` (0 if never written).
    /// Test oracles compare this against what a client acted on to bound
    /// staleness by the configured timeout.
    pub fn server_attr_version(&self, ino: u64) -> u64 {
        self.server.inodes.get(ino).map_or(0, |i| i.attr_seq)
    }

    /// The server file system (disk and cache statistics).
    pub fn fs(&self) -> &FileSystem {
        &self.server.fs
    }

    /// The server's `nfsheur` table.
    pub fn heur(&self) -> &NfsHeur {
        &self.server.heur
    }

    /// Installs (or clears, with `None`) a fault model on the server's
    /// drive. Fault kinds and plans live outside this crate — anything
    /// implementing [`diskmodel::FaultModel`] plugs in here.
    pub fn set_disk_fault_model(&mut self, model: Option<Box<dyn diskmodel::FaultModel>>) {
        self.server.fs.set_fault_model(model);
    }

    /// Whether a disk fault model is currently installed on the server.
    pub fn disk_fault_active(&self) -> bool {
        self.server.fs.bio().device().fault_model_active()
    }

    /// Block-I/O retry / error-propagation counters for the server's disk.
    pub fn bio_stats(&self) -> ffs::BioStats {
        self.server.fs.bio().stats()
    }

    /// Raw drive counters (service-time breakdown, media errors, remaps).
    ///
    /// # Panics
    ///
    /// Panics if the server's device is not a spinning disk; generic code
    /// uses [`NfsWorld::device_report`].
    pub fn disk_stats(&self) -> diskmodel::DiskStats {
        self.server.fs.bio().disk().stats()
    }

    /// Device-agnostic statistics for the server's storage device (HDD
    /// seek/rotation or SSD GC-stall/die-wait breakdowns alike).
    pub fn device_report(&self) -> diskmodel::DeviceReport {
        self.server.fs.bio().device().report()
    }

    // ------------------------------------------------------------------
    // Runtime tuning knobs (the autotune controller's actuation surface).
    // ------------------------------------------------------------------

    /// Switches the server's kernel disk scheduler at runtime.
    pub fn set_scheduler(&mut self, kind: iosched::SchedulerKind) {
        self.server.fs.set_scheduler(kind);
    }

    /// The server's active kernel disk scheduler.
    pub fn scheduler_kind(&self) -> iosched::SchedulerKind {
        self.server.fs.bio().scheduler_kind()
    }

    /// Adjusts the server file system's read-ahead window ceiling at
    /// runtime (blocks).
    pub fn set_server_readahead_blocks(&mut self, blocks: u64) {
        self.server.fs.set_max_readahead_blocks(blocks);
    }

    /// Rebuilds the server's `nfsheur` table with a new geometry — the
    /// runtime analogue of patching `NFS_HEURISTIC_SLOTS` and rebooting.
    /// As on a real reboot, accumulated table state (entries and their
    /// hit/miss/ejection counters) is lost; per-handle sequentiality is
    /// re-learned from the next READ on.
    pub fn resize_heur(&mut self, config: readahead_core::NfsHeurConfig) {
        self.server.heur = NfsHeur::new(config);
    }

    /// The LBA span holding everything allocated on the server's file
    /// system — the region fault plans should target.
    pub fn allocated_span(&self) -> (diskmodel::Lba, u64) {
        self.server.fs.allocated_span()
    }

    /// Drops every data cache — client blocks on every host, server buffer
    /// cache, drive segments — the §4.3.1 discipline between benchmark
    /// runs. Heuristic state survives (the real server is not rebooted
    /// between runs).
    pub fn flush_all_caches(&mut self) {
        for cl in &mut self.clients {
            cl.cache.flush();
        }
        self.server.fs.flush_caches();
    }

    /// Resets per-file client sequentiality state on every host (fresh
    /// `open()`s).
    pub fn reset_client_heuristics(&mut self) {
        for cl in &mut self.clients {
            for f in cl.files.mounted_files() {
                f.fd = LocalFd::new();
            }
        }
    }

    // ------------------------------------------------------------------
    // Runtime fault injection and introspection (simtest harness hooks).
    // ------------------------------------------------------------------

    /// Replaces both link directions' profiles on *every* host at runtime:
    /// degradation, loss bursts, recovery. In-flight messages keep their
    /// scheduled delivery; only future transmissions see the new
    /// parameters.
    pub fn set_link_profile(&mut self, profile: netsim::LinkProfile) {
        for client in 0..self.clients.len() {
            self.set_link_profile_for(client, profile);
        }
    }

    /// Replaces one host's link profile (both directions).
    pub fn set_link_profile_for(&mut self, client: usize, profile: netsim::LinkProfile) {
        let cl = &mut self.clients[client];
        cl.c2s.set_profile(profile);
        cl.s2c.set_profile(profile);
    }

    /// One host's current link profile (directions are kept symmetric).
    pub fn link_profile_for(&self, client: usize) -> netsim::LinkProfile {
        self.clients[client].c2s.profile()
    }

    /// Stalls the server CPU until at least `now + dur`: nothing is
    /// accepted, processed, or replied to in the window (a GC pause, a
    /// periodic sync, a competing job — the §9.2 "quiet workload" trap).
    pub fn stall_server(&mut self, now: SimTime, dur: SimDuration) {
        self.server.cpu_free = self.server.cpu_free.max(now + dur);
    }

    /// Resizes the `nfsd` pool at runtime. Growing the pool immediately
    /// drains queued calls; shrinking lets busy daemons finish and simply
    /// stops refilling above the new cap. Zero is legal and models a total
    /// server outage: every arriving call queues and nothing is served
    /// until the pool is grown again (UDP clients retransmit and time out;
    /// TCP clients wait indefinitely).
    pub fn set_nfsds(&mut self, now: SimTime, count: usize) {
        self.server.nfsd_total = count;
        self.drain_call_queue(now);
    }

    /// Current `nfsd` pool size.
    pub fn nfsds(&self) -> usize {
        self.server.nfsd_total
    }

    /// Resizes the client `nfsiod` pool on *every* host at runtime. Zero
    /// is legal (it disables client read-ahead, the `vfs.nfs.iodmax=0`
    /// configuration). Shrinking retires the most-idle slots first;
    /// read-aheads already marshalling keep their scheduled sends.
    pub fn set_nfsiods(&mut self, count: usize) {
        for cl in &mut self.clients {
            cl.set_nfsiods(count);
        }
    }

    /// One host's current `nfsiod` pool size.
    pub fn nfsiods_for(&self, client: usize) -> usize {
        self.clients[client].iod_free.len()
    }

    /// Where one host's cache block stands, without touching LRU state.
    pub fn block_state_for(&self, client: usize, fh: FileHandle, blk: u64) -> BlockState {
        let key = (fh.ino, blk);
        let cache = &self.clients[client].cache;
        if cache.peek(key) {
            BlockState::Cached
        } else if cache.is_pending(key) {
            BlockState::Pending
        } else {
            BlockState::Absent
        }
    }

    /// Operations issued and not yet surfaced through [`NfsWorld::advance`]
    /// (sorted; empty at quiescence).
    pub fn outstanding_ops(&self) -> Vec<OpId> {
        self.ops.ids().map(OpId).collect()
    }

    /// RPCs not yet retired by a reply or a timeout, as `(client, xid)`
    /// pairs (sorted; empty at quiescence).
    pub fn outstanding_xids(&self) -> Vec<(usize, u32)> {
        let mut v: Vec<(usize, u32)> = self
            .clients
            .iter()
            .enumerate()
            .flat_map(|(i, cl)| cl.rpcs.xids().map(move |x| (i, x)))
            .collect();
        v.sort_unstable();
        v
    }

    /// One host's client→server link counters.
    pub fn c2s_stats_for(&self, client: usize) -> netsim::LinkStats {
        self.clients[client].c2s.stats()
    }

    /// One host's server→client link counters.
    pub fn s2c_stats_for(&self, client: usize) -> netsim::LinkStats {
        self.clients[client].s2c.stats()
    }

    /// Test hook for the simtest mutation check: the next `n` replies are
    /// counted in [`ServerStats::replies`] but never put on the wire,
    /// deliberately breaking the reply-conservation invariant.
    #[doc(hidden)]
    pub fn sabotage_drop_next_replies(&mut self, n: u32) {
        self.server.sabotage_drop_replies += n;
    }

    /// Crashes and reboots the server: the write verifier changes (RFC
    /// 1813 §4.7 — clients comparing it learn their UNSTABLE data may be
    /// gone), every block still in the dirty pool is lost, async-error
    /// latches clear, and the server's caches come up cold. In-flight
    /// disk I/O completes (it had left RAM), queued RPCs survive (they
    /// live on the wire, not in server memory), and the `nfsd` pool size
    /// is untouched — pair with [`NfsWorld::set_nfsds`] to model the
    /// outage window itself.
    pub fn restart_server(&mut self, _now: SimTime) {
        self.server.boot_epoch += 1;
        self.server.verf = write_verf(self.server.instance, self.server.boot_epoch);
        self.server.stats.restarts += 1;
        debug_assert_eq!(self.server.dirty_blocks, self.server_dirty_blocks());
        for writes in self
            .server
            .inodes
            .iter_mut()
            .filter_map(|i| i.writes.as_mut())
        {
            self.server.stats.dirty_blocks_lost += writes.dirty.len() as u64;
            writes.dirty.clear();
            writes.flush_error = false;
        }
        self.server.dirty_blocks = 0;
        self.server.fs.flush_caches();
    }

    /// The server's current write verifier (changes iff it restarts).
    pub fn server_write_verf(&self) -> u64 {
        self.server.verf
    }

    /// Whether a file block is known to be on the server's stable
    /// storage — the crash-consistency oracle's ground truth. A block
    /// becomes durable when a FILE_SYNC/DATA_SYNC write or a dirty-pool
    /// flush covering it completes without error.
    pub fn is_durable(&self, fh: FileHandle, blk: u64) -> bool {
        self.server
            .inodes
            .get(fh.ino)
            .is_some_and(|i| i.is_durable(blk))
    }

    /// Blocks currently sitting in the server's dirty pool (a gauge; the
    /// dirty books balance as `stashed == flushed + lost + this`). Sums the
    /// pool itself, independent of the running count the server keeps.
    pub fn server_dirty_blocks(&self) -> u64 {
        self.server
            .inodes
            .iter()
            .filter_map(|i| i.writes.as_ref())
            .map(|w| w.dirty.len() as u64)
            .sum()
    }

    /// Blocks in one client's write-behind cache not yet known committed
    /// (dirty, in flight, or acked only UNSTABLE).
    pub fn client_uncommitted_blocks(&self, client: usize) -> u64 {
        self.clients[client].files.uncommitted_blocks()
    }

    /// Issues a process-level read of `len` bytes at `offset` on the given
    /// client host.
    ///
    /// # Panics
    ///
    /// Panics on an unknown handle or a read beyond EOF.
    pub fn read_from(
        &mut self,
        client: usize,
        now: SimTime,
        fh: FileHandle,
        offset: u64,
        len: u64,
        tag: u64,
    ) -> OpId {
        assert!(len > 0, "zero-length read");
        let rsize = u64::from(RSIZE);
        let cpu = self.cpu;
        let ino = fh.ino;
        let file = *self.clients[client]
            .files
            .mounted(ino)
            .expect("read of unmounted file");
        assert!(offset + len <= file.size, "read beyond EOF");
        let id = self.begin_op(client, now, tag, 0);

        let first_blk = offset / rsize;
        let last_blk = (offset + len - 1) / rsize;
        let mut outstanding = 0;
        for blk in first_blk..=last_blk {
            let key = (ino, blk);
            let cl = &mut self.clients[client];
            if cl.cache.lookup(key) {
                cl.stats.cache_hits += 1;
                continue;
            }
            outstanding += 1;
            // A pending block's tag is the xid of the READ fetching it.
            let xid = match cl.cache.pending_tag(key) {
                Some(xid) => xid,
                None => {
                    // Demand RPC, marshalled in process context.
                    let send_at = now + self.hot[client].marshal_delay(cpu);
                    self.issue_read(client, send_at, fh, blk, false)
                }
            };
            let rpc = self.clients[client].rpcs.get_mut(xid);
            rpc.expect("a pending block's READ is outstanding").wait(id);
        }

        // Client-side sequential heuristic drives client read-ahead
        // through the nfsiod pool.
        let cl = &mut self.clients[client];
        let f = cl.files.mounted(ino).expect("checked above");
        let seqcount = f.fd.observe(offset, len);
        if seqcount >= 2 {
            let window = u64::from(seqcount).min(self.config.client_readahead_blocks);
            let max_blk = (file.size - 1) / rsize;
            for blk in (last_blk + 1)..=(last_blk + window).min(max_blk) {
                let key = (ino, blk);
                let cl = &mut self.clients[client];
                if cl.cache.holds(key) {
                    continue;
                }
                // Read-ahead needs a free nfsiod; otherwise it is skipped.
                let Some(iod) = cl.acquire_iod(now) else {
                    cl.stats.iod_starved += 1;
                    break;
                };
                let send_at = iod + self.hot[client].marshal_delay(cpu);
                cl.set_iod_busy_until(send_at);
                self.issue_read(client, send_at, fh, blk, true);
            }
        }

        if outstanding == 0 {
            self.finish_op(id, self.local_done(now));
        } else {
            self.ops
                .get_mut(id.0)
                .expect("just begun")
                .outstanding_blocks = outstanding;
        }
        id
    }

    /// Issues a process-level write of `len` bytes at `offset` on the given
    /// client host (data content is elided, sizes are real). A write past
    /// EOF extends the file, as real NFS clients do.
    ///
    /// On a FILE_SYNC mount (the default) this is the historical
    /// synchronous write-through path: one WRITE RPC, the op completes
    /// when the server's disk acks. With [`StableHow::Unstable`]
    /// configured, the write lands in the client's write-behind cache and
    /// the op completes locally; dirty runs are pushed to the server as
    /// UNSTABLE WRITEs through the `nfsiod` pool and only
    /// [`NfsWorld::close_from`] guarantees durability.
    ///
    /// # Panics
    ///
    /// Panics on an unknown handle.
    pub fn write_from(
        &mut self,
        client: usize,
        now: SimTime,
        fh: FileHandle,
        offset: u64,
        len: u64,
        tag: u64,
    ) -> OpId {
        assert!(len > 0, "zero-length write");
        let cl = &mut self.clients[client];
        let file = cl.files.mounted(fh.ino).expect("write to unmounted file");
        // Extending write: grow the client's view; the server extends the
        // inode when the WRITE arrives.
        file.size = file.size.max(offset + len);
        // Either way the cached attributes (size, mtime stand-in) are
        // stale, and so are the written blocks' cached contents: drop them
        // so the next getattr and read refetch.
        if cl.files.drop_attr(fh.ino) {
            cl.stats.attr_invalidations += 1;
        }
        let rsize = u64::from(RSIZE);
        let (first, last) = (offset / rsize, (offset + len - 1) / rsize);
        for blk in first..=last {
            cl.cache.invalidate((fh.ino, blk));
        }
        if self.config.stable_how != StableHow::Unstable {
            // FILE_SYNC / DATA_SYNC: one write-through RPC; the op waits
            // for the server's disk ack.
            let count = u32::try_from(len).expect("write fits u32");
            let stable = self.config.stable_how;
            return self
                .rpc_op(
                    client,
                    now,
                    tag,
                    NfsCall::Write {
                        fh,
                        offset,
                        count,
                        stable,
                    },
                )
                .0;
        }
        // Async write path: dirty the blocks and return immediately;
        // durability waits for close(). A block overwritten while a WRITE
        // for it is in flight drops back to Dirty — the old in-flight ack
        // must not mark the new data clean.
        cl.files.write(fh, first, last);
        let id = self.begin_op(client, now, tag, 0);
        self.finish_op(id, self.local_done(now));
        self.wb_push(client, now, fh.ino);
        id
    }

    /// Closes `fh` on the given client host: close-to-open consistency.
    ///
    /// On the async write path this flushes every dirty block as UNSTABLE
    /// WRITEs, then COMMITs and compares the returned verifier against
    /// the one each block was acked under. A mismatch means the server
    /// restarted while the data sat in its dirty pool — those blocks are
    /// re-dirtied, rewritten, and re-COMMITted until the verifier holds.
    /// The op completes `Ok` only once every block written to this file
    /// is on the server's stable storage; a WRITE/COMMIT error fails it
    /// (`Eio`/`RpcTimedOut`) and drops the file's write-behind tracking,
    /// as a soft mount does. On a FILE_SYNC mount every write was already
    /// stable, so close completes immediately.
    ///
    /// # Panics
    ///
    /// Panics on an unknown handle.
    pub fn close_from(&mut self, client: usize, now: SimTime, fh: FileHandle, tag: u64) -> OpId {
        assert!(
            self.clients[client].files.is_mounted(fh.ino),
            "close of unmounted file"
        );
        let id = self.begin_op(client, now, tag, 0);
        let cl = &mut self.clients[client];
        cl.stats.closes += 1;
        // Close-to-open: the closing side discards its attribute trust so
        // the next open revalidates against whatever this close flushed.
        if cl.files.drop_attr(fh.ino) {
            cl.stats.attr_invalidations += 1;
        }
        match cl.files.wb_mut(fh.ino) {
            Some(wb) if wb.len() > 0 => {
                assert!(
                    wb.close.is_none(),
                    "two concurrent closes of one file on one client"
                );
                wb.close = Some(CloseState {
                    op: id,
                    commit_xid: None,
                });
                self.close_step(client, now, fh.ino);
            }
            _ => {
                // Nothing outstanding: close is a local no-op.
                cl.files.release(fh.ino);
                self.finish_op(id, self.local_done(now));
            }
        }
        id
    }

    /// Issues a GETATTR on the given client host (a metadata round trip;
    /// no data transfer).
    ///
    /// With the attribute cache armed ([`WorldConfig::attr_cache_enabled`])
    /// a live cache entry answers locally — no RPC, no RNG draw; an
    /// expired or missing entry goes to the wire and the reply refreshes
    /// the cache. With the cache off (the default) every getattr is a
    /// wire round trip, exactly the pre-cache path.
    ///
    /// # Panics
    ///
    /// Panics on an unknown handle.
    pub fn getattr_from(&mut self, client: usize, now: SimTime, fh: FileHandle, tag: u64) -> OpId {
        let cl = &mut self.clients[client];
        assert!(cl.files.is_mounted(fh.ino), "getattr on unmounted file");
        if self.config.attr_cache_enabled() {
            match cl.files.attr(fh.ino) {
                Some(e) if now < e.valid_until => {
                    // Served from the cache: the op completes locally.
                    cl.stats.attr_cache_hits += 1;
                    let id = self.begin_op(client, now, tag, 0);
                    self.finish_op(id, self.local_done(now));
                    return id;
                }
                Some(_) => cl.stats.attr_revalidations += 1,
                None => cl.stats.attr_cache_misses += 1,
            }
        }
        self.getattr_rpc(client, now, fh, tag)
    }

    /// Opens `fh` on the given client host: close-to-open consistency's
    /// other half. The open always revalidates over the wire — a forced
    /// GETATTR that bypasses any live cache entry, so changes another
    /// client closed are observed before this one reads (RFC 1813's
    /// recommended CTO discipline). With the cache armed the reply
    /// refreshes the entry and a changed version counts as detected
    /// staleness.
    ///
    /// # Panics
    ///
    /// Panics on an unknown handle.
    pub fn open_from(&mut self, client: usize, now: SimTime, fh: FileHandle, tag: u64) -> OpId {
        let cl = &mut self.clients[client];
        assert!(cl.files.is_mounted(fh.ino), "open of unmounted file");
        if self.config.attr_cache_enabled() {
            cl.stats.attr_revalidations += 1;
        }
        self.getattr_rpc(client, now, fh, tag)
    }

    /// The shared wire half of getattr/open: one GETATTR RPC, op completes
    /// on the reply.
    fn getattr_rpc(&mut self, client: usize, now: SimTime, fh: FileHandle, tag: u64) -> OpId {
        self.clients[client].stats.getattr_rpcs += 1;
        self.rpc_op(client, now, tag, NfsCall::Getattr { fh }).0
    }

    /// Issues a LOOKUP of a `name_len`-byte component in directory `dir`
    /// on the given client host (a metadata round trip; the simulated
    /// namespace lives in the workload layer, so the name itself is
    /// synthetic).
    ///
    /// # Panics
    ///
    /// Panics on an unknown directory handle.
    pub fn lookup_from(
        &mut self,
        client: usize,
        now: SimTime,
        dir: FileHandle,
        name_len: u32,
        tag: u64,
    ) -> OpId {
        let cl = &mut self.clients[client];
        assert!(
            cl.files.is_mounted(dir.ino),
            "lookup in unmounted directory"
        );
        cl.stats.lookup_rpcs += 1;
        // The name is synthetic; its buffer comes back when the RPC retires.
        let mut name = cl.names.pop().unwrap_or_default();
        name.clear();
        name.extend(std::iter::repeat_n('x', name_len.max(1) as usize));
        self.rpc_op(client, now, tag, NfsCall::Lookup { dir, name })
            .0
    }

    /// Issues a READDIR chunk on directory `dir`: `entries` entries
    /// starting at resume cookie `cookie`, `eof` marking the directory's
    /// last chunk. The caller (the workload layer, which owns the
    /// namespace) declares the chunk shape; the server's reply carries it
    /// back with a wire size proportional to `entries`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown directory handle.
    #[allow(clippy::too_many_arguments)]
    pub fn readdir_from(
        &mut self,
        client: usize,
        now: SimTime,
        dir: FileHandle,
        cookie: u64,
        entries: u32,
        eof: bool,
        tag: u64,
    ) -> OpId {
        let call = NfsCall::Readdir {
            dir,
            cookie,
            cookieverf: 0,
            count: RSIZE,
        };
        self.readdir_op(client, now, call, entries, eof, Vec::new(), tag)
    }

    /// Issues a READDIRPLUS chunk on directory `dir`. Like
    /// [`NfsWorld::readdir_from`], but the reply also carries each child's
    /// attributes and handle — with the attribute cache armed, arriving
    /// children prefill it (the stat-flood killer READDIRPLUS exists for).
    ///
    /// # Panics
    ///
    /// Panics on an unknown directory handle.
    #[allow(clippy::too_many_arguments)]
    pub fn readdirplus_from(
        &mut self,
        client: usize,
        now: SimTime,
        dir: FileHandle,
        cookie: u64,
        children: &[FileHandle],
        eof: bool,
        tag: u64,
    ) -> OpId {
        let entries = u32::try_from(children.len()).expect("chunk fits u32");
        let count = RSIZE;
        let call = NfsCall::Readdirplus {
            dir,
            cookie,
            cookieverf: 0,
            dircount: count.min(4_096),
            maxcount: count,
        };
        self.readdir_op(client, now, call, entries, eof, children.to_vec(), tag)
    }

    /// The shared half of readdir/readdirplus: one RPC whose chunk shape
    /// is parked for the server's reply builder.
    #[allow(clippy::too_many_arguments)]
    fn readdir_op(
        &mut self,
        client: usize,
        now: SimTime,
        call: NfsCall,
        entries: u32,
        eof: bool,
        children: Vec<FileHandle>,
        tag: u64,
    ) -> OpId {
        let cl = &mut self.clients[client];
        assert!(
            cl.files.is_mounted(call.fh().ino),
            "readdir on unmounted directory"
        );
        cl.stats.readdir_rpcs += 1;
        let (id, xid) = self.rpc_op(client, now, tag, call);
        let shape = ReaddirPending {
            entries,
            eof,
            children,
        };
        self.clients[client].rpcs.declare_shape(xid, shape);
        id
    }

    /// The current simulated time (the event queue is monotone, so reruns
    /// on one world must measure elapsed time relative to this).
    pub fn now(&self) -> SimTime {
        self.clock.max(self.queue.now())
    }

    /// Earliest instant at which [`NfsWorld::advance`] has work.
    pub fn next_event(&self) -> Option<SimTime> {
        let mut t = self.queue.peek_time();
        if let Some(f) = self.server.fs.next_event() {
            t = Some(t.map_or(f, |q| q.min(f)));
        }
        debug_assert_eq!(self.ready_next, self.ready.iter().map(|d| d.done_at).min());
        if let Some(r) = self.ready_next {
            t = Some(t.map_or(r, |q| q.min(r)));
        }
        t
    }

    /// Processes everything scheduled at or before `now`, returning the
    /// process-level operations that completed (see
    /// [`NfsWorld::advance_into`]).
    pub fn advance(&mut self, now: SimTime) -> Vec<OpDone> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Processes everything scheduled at or before `now` and appends the
    /// process-level operations that completed to `out`, in
    /// `(done_at, id)` order. A caller that reuses `out` does not allocate
    /// here once warm.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<OpDone>) {
        let mut fs_done = std::mem::take(&mut self.fs_done);
        loop {
            // The queue goes first when its next event is due and strictly
            // earlier than the file system's; on a tie the file system wins.
            let fnext = self.server.fs.next_event();
            if let Some((at, ev)) = self
                .queue
                .pop_if(|q| q <= now && fnext.is_none_or(|f| q < f))
            {
                self.clock = self.clock.max(at);
                self.handle(at, ev);
                continue;
            }
            let Some(t) = fnext.filter(|&f| f <= now) else {
                break;
            };
            self.clock = self.clock.max(t);
            self.server.fs.advance_into(t, &mut fs_done);
            for d in fs_done.drain(..) {
                let eio = !d.status.is_ok();
                if d.tag & FLUSH_KEY_BIT != 0 {
                    // A gathered-write flush the server issued on its
                    // own behalf: no nfsd or reply is involved.
                    self.server_flush_done(d.tag, d.done_at, eio);
                } else {
                    let slot = u32::try_from(d.tag).expect("a service slot");
                    self.server_reply(slot, d.done_at, io_status(eio));
                }
            }
        }
        self.fs_done = fs_done;
        if self.ready_next.is_some_and(|t| t <= now) {
            let first = out.len();
            out.extend(self.ready.extract_if(.., |d| d.done_at <= now));
            out[first..].sort_by_key(|d| (d.done_at, d.id));
            self.ready_next = self.ready.iter().map(|d| d.done_at).min();
        }
    }

    // ------------------------------------------------------------------
    // Client internals.
    // ------------------------------------------------------------------

    /// Starts a process-level op on `client`: allocates its (global) id,
    /// counts it, and records it as waiting on `outstanding` blocks.
    fn begin_op(&mut self, client: usize, now: SimTime, tag: u64, outstanding: usize) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        self.clients[client].stats.ops += 1;
        self.ops.insert(
            id.0,
            OpState {
                client,
                tag,
                issued_at: now,
                outstanding_blocks: outstanding,
                timed_out: None,
                eio: None,
            },
        );
        id
    }

    /// Starts an op that waits on exactly one RPC: `call` is marshalled
    /// in process context and the op completes on its reply. Returns the
    /// op and the call's xid.
    fn rpc_op(&mut self, client: usize, now: SimTime, tag: u64, call: NfsCall) -> (OpId, u32) {
        let id = self.begin_op(client, now, tag, 1);
        let send_at = now + self.hot[client].marshal_delay(self.cpu);
        let xid = self.issue_call(client, send_at, call);
        let rpc = self.clients[client].rpcs.get_mut(xid).expect("issued");
        rpc.wait(id);
        (id, xid)
    }

    /// When an op whose last dependency resolved at `at` returns to its
    /// process: the client's completion cost later.
    fn local_done(&self, at: SimTime) -> SimTime {
        at + self.cpu.client_complete
    }

    /// Sends a READ of block `blk` of `fh` (a read-ahead if `ra`) and
    /// marks the block pending, tagged with the READ's xid, which it
    /// returns.
    fn issue_read(
        &mut self,
        client: usize,
        send_at: SimTime,
        fh: FileHandle,
        blk: u64,
        ra: bool,
    ) -> u32 {
        let cl = &mut self.clients[client];
        cl.stats.rpcs += 1;
        if ra {
            cl.stats.readahead_rpcs += 1;
        }
        let offset = blk * u64::from(RSIZE);
        let call = NfsCall::Read {
            fh,
            offset,
            count: RSIZE,
        };
        let xid = self.issue_call(client, send_at, call);
        let cache = &mut self.clients[client].cache;
        cache.mark_pending_tagged((fh.ino, blk), xid);
        xid
    }

    fn issue_call(&mut self, client: usize, send_at: SimTime, call: NfsCall) -> u32 {
        let hot = &mut self.hot[client];
        let xid = hot.next_xid;
        hot.next_xid = hot.next_xid.wrapping_add(1).max(1);
        let cl = &mut self.clients[client];
        let f = cl.files.mounted(call.fh().ino).expect("mounted");
        f.submit_counter += 1;
        let submit_seq = f.submit_counter;
        let rpc = Rpc {
            call,
            submit_seq,
            attempt: 0,
            waiters: None,
            shape: NONE,
        };
        cl.rpcs.insert(xid, rpc);
        self.queue.schedule_at(
            send_at,
            Ev::Send {
                key: call_key(client, xid),
            },
        );
        xid
    }

    // ------------------------------------------------------------------
    // Client write-behind (async write path).
    // ------------------------------------------------------------------

    /// Sends one UNSTABLE WRITE covering blocks `first..=last` of `ino`,
    /// marking them in flight. `send_at` already includes marshalling.
    fn wb_issue_write(&mut self, client: usize, send_at: SimTime, ino: u64, first: u64, last: u64) {
        let rsize = u64::from(RSIZE);
        let cl = &mut self.clients[client];
        let fh = cl.files.wb(ino).expect("write-behind file present").fh;
        cl.stats.write_rpcs += 1;
        let count = u32::try_from((last - first + 1) * rsize).expect("run fits u32");
        let xid = self.issue_call(
            client,
            send_at,
            NfsCall::Write {
                fh,
                offset: first * rsize,
                count,
                stable: StableHow::Unstable,
            },
        );
        self.clients[client].files.send(ino, first, last, xid);
    }

    /// Pushes dirty runs of `ino` toward the server. Each run rides a
    /// free nfsiod like read-ahead does; once the client's dirty total
    /// exceeds its ceiling the runs go out in process context instead
    /// (the writing process throttles itself).
    fn wb_push(&mut self, client: usize, now: SimTime, ino: u64) {
        let cpu = self.cpu;
        loop {
            let cl = &mut self.clients[client];
            let pressure = cl.files.dirty_blocks() > CLIENT_DIRTY_MAX_BLOCKS;
            let Some((first, last)) = cl.files.first_dirty_run(ino) else {
                return;
            };
            let base = if pressure {
                now
            } else if let Some(iod) = cl.acquire_iod(now) {
                iod
            } else {
                cl.stats.iod_starved += 1;
                return;
            };
            let send_at = base + self.hot[client].marshal_delay(cpu);
            if !pressure {
                self.clients[client].set_iod_busy_until(send_at);
            }
            self.wb_issue_write(client, send_at, ino, first, last);
        }
    }

    /// Advances an active close: push remaining dirty runs (process
    /// context — close blocks its caller), wait out in-flight WRITEs,
    /// COMMIT once everything is merely uncommitted, and finish when the
    /// file's write-behind books empty.
    fn close_step(&mut self, client: usize, now: SimTime, ino: u64) {
        let cpu = self.cpu;
        let cl = &mut self.clients[client];
        let Some(wb) = cl.files.wb(ino) else { return };
        let Some(close) = wb.close else { return };
        if close.commit_xid.is_some() {
            return; // The COMMIT reply re-enters here.
        }
        if wb.len() == 0 {
            cl.files.release(ino);
            self.finish_op(close.op, self.local_done(now));
            return;
        }
        while let Some((first, last)) = self.clients[client].files.first_dirty_run(ino) {
            let send_at = now + self.hot[client].marshal_delay(cpu);
            self.wb_issue_write(client, send_at, ino, first, last);
        }
        let cl = &mut self.clients[client];
        let wb = cl.files.wb(ino).expect("checked above");
        if wb.in_flight() {
            return; // WRITE replies drive the next step.
        }
        // Everything acked UNSTABLE: commit, remembering exactly which
        // (block, verifier) pairs this COMMIT may retire.
        let fh = wb.fh;
        cl.files.take_snapshot(ino);
        let send_at = now + self.hot[client].marshal_delay(cpu);
        cl.stats.commit_rpcs += 1;
        let xid = self.issue_call(
            client,
            send_at,
            NfsCall::Commit {
                fh,
                offset: 0,
                count: 0,
            },
        );
        let wb = self.clients[client]
            .files
            .wb_mut(ino)
            .expect("checked above");
        wb.close.as_mut().expect("active close").commit_xid = Some(xid);
    }

    /// Fails an active close (soft-mount semantics) and drops the file's
    /// write-behind books.
    fn fail_close(&mut self, client: usize, at: SimTime, ino: u64, xid: u32, end: RpcEnd) {
        let Some(Some(close)) = self.clients[client].files.release(ino) else {
            return;
        };
        if let Some(op) = self.ops.get_mut(close.op.0) {
            op.fail(xid, end);
            self.finish_op(close.op, self.local_done(at));
        }
    }

    /// An UNSTABLE WRITE ended. Acked: blocks still in flight under this
    /// xid become uncommitted-under-`verf`. Failed (EIO or timeout): with
    /// a close active the close fails soft-mount style; otherwise the
    /// blocks drop back to dirty so the eventual close retries them (and
    /// surfaces the error if it persists).
    #[allow(clippy::too_many_arguments)]
    fn wb_write_done(
        &mut self,
        at: SimTime,
        client: usize,
        xid: u32,
        ino: u64,
        offset: u64,
        count: u32,
        end: RpcEnd,
    ) {
        let rsize = u64::from(RSIZE);
        let files = &mut self.clients[client].files;
        let Some(wb) = files.wb(ino) else {
            return;
        };
        let closing = wb.close.is_some();
        let next = match end {
            RpcEnd::Reply { verf } => WbState::Uncommitted { verf },
            _ if closing => {
                self.fail_close(client, at, ino, xid, end);
                return;
            }
            _ => WbState::Dirty,
        };
        let (first, last) = (offset / rsize, (offset + u64::from(count) - 1) / rsize);
        files.write_ended(ino, first, last, xid, next);
        if closing {
            self.close_step(client, at, ino);
        }
    }

    /// A COMMIT ended. A failure fails the close it served. On a reply,
    /// snapshot blocks whose ack verifier matches the server's are durable
    /// and leave the write-behind books; a mismatch means the server
    /// rebooted with the data in its dirty pool — those blocks re-dirty,
    /// count as rewrites, and the close loops.
    fn wb_commit_done(&mut self, at: SimTime, client: usize, xid: u32, ino: u64, end: RpcEnd) {
        let cl = &mut self.clients[client];
        let Some(close) = cl.files.wb_mut(ino).and_then(|wb| wb.close.as_mut()) else {
            return;
        };
        if close.commit_xid != Some(xid) {
            return;
        }
        close.commit_xid = None;
        let RpcEnd::Reply { verf } = end else {
            self.fail_close(client, at, ino, xid, end);
            return;
        };
        let rewrites = cl.files.commit(ino, verf);
        if rewrites > 0 {
            cl.stats.verifier_mismatches += 1;
            cl.stats.blocks_rewritten += rewrites;
        }
        self.close_step(client, at, ino);
    }

    fn handle(&mut self, at: SimTime, ev: Ev) {
        match ev {
            Ev::Send { key } => self.do_send(at, key),
            Ev::CallArrive { key } => self.server_call_arrive(at, key),
            Ev::ReplyArrive { key, eio, verf } => self.client_reply_arrive(at, key, eio, verf),
            Ev::Retransmit { key, attempt } => self.check_retransmit(at, key, attempt),
            Ev::TcpTick { client, c2s } => self.tcp_tick(at, client, c2s),
            Ev::GatherExpire { ino } => self.server_flush_ino(at, ino),
        }
    }

    /// Schedules an [`Ev::TcpTick`] at the direction's earliest armed
    /// retransmission deadline, unless an earlier tick is already in the
    /// queue. (A stale later tick fires as a harmless no-op.)
    fn schedule_tcp_tick(&mut self, client: usize, c2s: bool) {
        let cl = &self.clients[client];
        let hot = &mut self.hot[client];
        let (transport, tick) = if c2s {
            (&cl.c2s, &mut hot.c2s_tick)
        } else {
            (&cl.s2c, &mut hot.s2c_tick)
        };
        let Some(at) = transport.next_timer() else {
            return;
        };
        if at < *tick {
            *tick = at;
            self.queue.schedule_at(at, Ev::TcpTick { client, c2s });
        }
    }

    /// Fires one direction's due TCP retransmission timers and routes the
    /// resulting segment events: deliveries become `CallArrive` /
    /// `ReplyArrive` (the same events an immediate delivery schedules),
    /// aborts fail the RPC with soft-mount timeout semantics — TCP's
    /// connection-drop proxy.
    fn tcp_tick(&mut self, at: SimTime, client: usize, c2s: bool) {
        if c2s {
            self.hot[client].c2s_tick = SimTime::MAX;
        } else {
            self.hot[client].s2c_tick = SimTime::MAX;
        }
        let cl = &mut self.clients[client];
        let transport = if c2s { &mut cl.c2s } else { &mut cl.s2c };
        let events = transport.on_timer(at);
        for ev in events {
            let cl = &mut self.clients[client];
            match ev {
                TcpEvent::Delivered { seq, at: t } => {
                    if c2s {
                        let key = cl.c2s_seq.remove(seq).expect("queued seq mapped");
                        self.queue.schedule_at(t, Ev::CallArrive { key });
                    } else {
                        let (key, eio, verf) = cl.s2c_seq.remove(seq).expect("queued seq mapped");
                        self.queue
                            .schedule_at(t, Ev::ReplyArrive { key, eio, verf });
                    }
                }
                TcpEvent::Aborted { seq } => {
                    // The stream gave up on the segment (the call never
                    // reached the server, or the reply never reached the
                    // client). Either way the RPC can make no further
                    // progress: fail it like an exhausted UDP retry
                    // ladder, if the client still has it outstanding.
                    let key = if c2s {
                        cl.c2s_seq.remove(seq).expect("queued seq mapped")
                    } else {
                        cl.s2c_seq.remove(seq).expect("queued seq mapped").0
                    };
                    if cl.rpcs.get(key_xid(key)).is_some() {
                        self.rpc_timed_out(at, key);
                    }
                }
            }
        }
        self.schedule_tcp_tick(client, c2s);
    }

    fn do_send(&mut self, at: SimTime, key: u64) {
        let cl = &mut self.clients[key_client(key)];
        let Some(rpc) = cl.rpcs.get(key_xid(key)) else {
            return; // Completed while a retransmission was marshalling.
        };
        let wire = rpc.call.wire_bytes();
        let attempt = rpc.attempt;
        cl.stats.transmissions += 1;
        match cl.c2s.send(at, wire) {
            TxOutcome::Delivered(t) => self.queue.schedule_at(t, Ev::CallArrive { key }),
            TxOutcome::Lost => {} // UDP: the retransmit ladder covers it.
            TxOutcome::Queued(seq) => {
                // TCP took custody: the segment engine delivers or aborts
                // it later, from a timer tick.
                cl.c2s_seq.insert(seq, key);
                self.schedule_tcp_tick(key_client(key), true);
            }
        }
        if self.config.transport == TransportKind::Udp {
            let timeo = self
                .config
                .retransmit_timeout
                .saturating_mul(1 << attempt.min(6));
            let ev = Ev::Retransmit { key, attempt };
            if attempt == 0 {
                // `at` is the popped Send's instant and the timeout is
                // fixed: first checks arrive in time order.
                self.queue.schedule_in_lane(LANE_RETRANSMIT, at + timeo, ev);
            } else {
                self.queue.schedule_at(at + timeo, ev);
            }
        }
    }

    fn check_retransmit(&mut self, at: SimTime, key: u64, attempt: u32) {
        let cpu = self.cpu;
        let cl = &mut self.clients[key_client(key)];
        let Some(rpc) = cl.rpcs.get_mut(key_xid(key)) else {
            return;
        };
        if rpc.attempt != attempt {
            return;
        }
        if attempt >= MAX_RETRIES {
            // Soft-mount semantics: give up and fail the waiting
            // operations with a typed outcome instead of panicking.
            self.rpc_timed_out(at, key);
            return;
        }
        rpc.attempt += 1;
        cl.stats.retransmits += 1;
        let send_at = at + self.hot[key_client(key)].marshal_delay(cpu);
        self.queue.schedule_at(send_at, Ev::Send { key });
    }

    /// An RPC exhausted its retries: count it and retire it as failed.
    fn rpc_timed_out(&mut self, at: SimTime, key: u64) {
        self.clients[key_client(key)].stats.rpc_timeouts += 1;
        self.rpc_done(at, key, RpcEnd::TimedOut);
    }

    fn client_reply_arrive(&mut self, at: SimTime, key: u64, eio: bool, verf: u64) {
        let cl = &mut self.clients[key_client(key)];
        if cl.rpcs.get(key_xid(key)).is_none() {
            // Duplicate reply after a retransmission raced, or the client
            // already gave up on this xid.
            cl.stats.duplicate_replies += 1;
            return;
        }
        cl.stats.replies_received += 1;
        if eio {
            cl.stats.eio_replies += 1;
        }
        let end = if eio {
            RpcEnd::Eio
        } else {
            RpcEnd::Reply { verf }
        };
        self.rpc_done(at, key, end);
    }

    /// The one client-side path that retires an outstanding RPC, however
    /// it ended, and settles what waited on it: the op awaiting it
    /// directly, the write-behind state it carried, or the cache block
    /// it fetched (filled on a reply; released on a failure, so a later
    /// read can retry it) and every read blocked on that block.
    fn rpc_done(&mut self, at: SimTime, key: u64, end: RpcEnd) {
        let client = key_client(key);
        let xid = key_xid(key);
        let done = self.local_done(at);
        let cl = &mut self.clients[client];
        let (mut rpc, shape) = cl.rpcs.remove(xid).expect("outstanding rpc");
        if let NfsCall::Lookup { name, .. } = &mut rpc.call {
            cl.names.push(std::mem::take(name));
        }
        let waiters = rpc.waiters.take();
        let (fh, offset, count) = match rpc.call {
            NfsCall::Read { fh, offset, count } => (fh, offset, count),
            NfsCall::Write {
                fh,
                offset,
                count,
                stable: StableHow::Unstable,
            } => return self.wb_write_done(at, client, xid, fh.ino, offset, count, end),
            NfsCall::Commit { fh, .. } => return self.wb_commit_done(at, client, xid, fh.ino, end),
            _ => {
                // A metadata call or a sync WRITE: its one op completes.
                let id = waiters
                    .into_iter()
                    .flatten()
                    .next()
                    .expect("an op awaits it");
                match end {
                    RpcEnd::Reply { .. } => self.attr_reply_install(client, at, &rpc.call, shape),
                    _ => self.ops.get_mut(id.0).expect("awaited op").fail(xid, end),
                }
                self.finish_op(id, done);
                return;
            }
        };
        let ok = matches!(end, RpcEnd::Reply { .. });
        let hot = &mut self.hot[client];
        let busy_loops = self.config.busy_loops;
        let wake_jitter = if ok && busy_loops > 0 {
            SimDuration::from_secs_f64(hot.rng.uniform01() * 60e-6 * f64::from(busy_loops))
        } else {
            SimDuration::ZERO
        };
        let rsize = u64::from(RSIZE);
        let cache = &mut self.clients[client].cache;
        for blk in offset / rsize..=(offset + u64::from(count) - 1) / rsize {
            if ok {
                cache.fill((fh.ino, blk));
            } else {
                cache.discard((fh.ino, blk));
            }
        }
        for id in waiters.into_iter().flatten() {
            let Some(op) = self.ops.get_mut(id.0) else {
                continue;
            };
            op.fail(xid, end);
            op.outstanding_blocks = op.outstanding_blocks.saturating_sub(1);
            if op.outstanding_blocks == 0 {
                self.finish_op(id, done + wake_jitter);
            }
        }
    }

    /// Folds a successful metadata reply into the attribute cache: a
    /// GETATTR refreshes its file's entry, a READDIRPLUS prefills one per
    /// child it carried. A no-op with the cache disabled — the cache-off
    /// world touches none of this state.
    ///
    /// The server's attribute version is peeked at reply-arrival time
    /// (the sim owns both ends, so this is the value the reply carried);
    /// `Ev::ReplyArrive` stays layout-compatible with the pre-cache world.
    fn attr_reply_install(
        &mut self,
        client: usize,
        at: SimTime,
        call: &NfsCall,
        shape: Option<ReaddirPending>,
    ) {
        if !self.config.attr_cache_enabled() {
            return;
        }
        match *call {
            NfsCall::Getattr { fh } => self.attr_refresh(client, at, fh.ino),
            NfsCall::Readdirplus { .. } => {
                let children = shape.map(|p| p.children).unwrap_or_default();
                let min = self.config.attr_timeo_min;
                for FileHandle { ino, .. } in children {
                    let version = self.server_attr_version(ino);
                    // Prefill only: an existing entry (live or mid-decay)
                    // keeps its adaptive state.
                    let files = &mut self.clients[client].files;
                    if files.attr(ino).is_none() {
                        let entry = AttrEntry {
                            version,
                            valid_until: at + min,
                            timeo: min,
                        };
                        files.set_attr(ino, entry);
                    }
                }
            }
            _ => {}
        }
    }

    /// Installs the post-fetch attribute entry for `ino`: an unchanged
    /// version doubles the trust window toward `attr_timeo_max`, a changed
    /// one is detected staleness and resets it to `attr_timeo_min`.
    fn attr_refresh(&mut self, client: usize, at: SimTime, ino: u64) {
        let version = self.server_attr_version(ino);
        let cl = &mut self.clients[client];
        let timeo = match cl.files.attr(ino) {
            Some(e) if e.version == version => {
                e.timeo.saturating_mul(2).min(self.config.attr_timeo_max)
            }
            Some(_) => {
                cl.stats.attr_stale_detected += 1;
                self.config.attr_timeo_min
            }
            None => self.config.attr_timeo_min,
        };
        let entry = AttrEntry {
            version,
            valid_until: at + timeo,
            timeo,
        };
        cl.files.set_attr(ino, entry);
    }

    fn finish_op(&mut self, id: OpId, done_at: SimTime) {
        let op = self.ops.remove(id.0).expect("op completed twice");
        // A timeout outranks an EIO: if any dependency hung past its
        // retries the process saw ETIMEDOUT first.
        let outcome = match (op.timed_out, op.eio) {
            (Some(xid), _) => OpOutcome::RpcTimedOut { xid },
            (None, Some(xid)) => OpOutcome::Eio { xid },
            (None, None) => OpOutcome::Ok,
        };
        self.ready.push(OpDone {
            id,
            client: op.client,
            tag: op.tag,
            issued_at: op.issued_at,
            done_at,
            outcome,
        });
        self.ready_next = Some(self.ready_next.map_or(done_at, |t| t.min(done_at)));
    }

    // ------------------------------------------------------------------
    // Server internals.
    // ------------------------------------------------------------------

    /// A simulated call reached the server: admit the server's own copy
    /// ([`server_copy`]). Debug builds first encode the call to XDR in
    /// `wire_scratch` and check that it decodes to the same xid and call,
    /// so every debug test and simtest sweep checks the codec on every
    /// simulated call.
    fn server_call_arrive(&mut self, at: SimTime, key: u64) {
        let xid = key_xid(key);
        let Some(rpc) = self.clients[key_client(key)].rpcs.get(xid) else {
            // The client abandoned this xid (RPC timeout) before the call
            // arrived; a real server would execute it and get no thanks.
            self.server.stats.orphan_calls += 1;
            return;
        };
        if cfg!(debug_assertions) {
            let scratch = std::mem::take(&mut self.server.wire_scratch);
            let wire = rpc.call.encode_into(xid, scratch);
            check_call_decodes(&wire, xid, &rpc.call);
            self.server.wire_scratch = wire;
        }
        let call = server_copy(&rpc.call);
        let submit_seq = rpc.submit_seq;
        self.admit(at, key, call, Some(submit_seq));
    }

    /// The one admission step every call takes, simulated or external:
    /// the duplicate-request cache, the read/other books (plus reorder
    /// accounting when the caller stamped a per-file `submit_seq`), then a
    /// free nfsd or the call queue.
    fn admit(&mut self, at: SimTime, key: u64, call: NfsCall, submit_seq: Option<u64>) {
        let read_ino = match &call {
            NfsCall::Read { fh, .. } => Some(fh.ino),
            _ => None,
        };
        let Some(slot) = self.server.in_service.admit(key, call) else {
            // A retransmission of a call we are still working on: drop it
            // (RFC 1813 duplicate request cache behaviour) and charge the
            // caller that burned the slot.
            self.server.stats.duplicates_dropped += 1;
            let caller = self.caller_index(key);
            self.contention[caller].duplicate_cache_hits += 1;
            return;
        };
        if let Some(ino) = read_ino {
            self.server.stats.reads += 1;
            // Only simulated clients stamp a sequence, and they read only
            // files the server holds.
            if let Some((seq, inode)) = submit_seq.zip(self.server.inodes.get_mut(ino)) {
                if seq < inode.arrived_seq {
                    self.server.stats.reordered += 1;
                } else {
                    inode.arrived_seq = seq;
                }
            }
        } else {
            self.server.stats.other_calls += 1;
        }
        if self.server.nfsd_busy >= self.server.nfsd_total {
            self.server.call_queue.push_back((at, slot));
            return;
        }
        self.server.nfsd_busy += 1;
        self.nfsd_process(at, slot);
    }

    /// Contention-book index of the caller behind `key`: simulated hosts
    /// by id, external connections after them.
    fn caller_index(&self, key: u64) -> usize {
        if is_ext(key) {
            self.clients.len() + ext_index(key)
        } else {
            key_client(key)
        }
    }

    /// Whether the simulated client behind `key` already retired the RPC
    /// (its reply raced a retransmission, or it timed out). An external
    /// ingress never retires a call early.
    fn call_retired(&self, key: u64) -> bool {
        !is_ext(key)
            && self.clients[key_client(key)]
                .rpcs
                .get(key_xid(key))
                .is_none()
    }

    /// An nfsd executes the call in service `slot`. A call the file system
    /// cannot serve as asked is answered from the server's own inodes and
    /// never reaches `ffs`: an unknown handle is stale, a READ at or past
    /// EOF returns no data, a READ running past the file's last block
    /// shrinks to a short read, a zero-count WRITE is a no-op, a WRITE
    /// range that overflows is invalid, and one whose new blocks the
    /// allocator cannot place gets no space. Simulated clients
    /// send none of these, so their schedules are untouched.
    fn nfsd_process(&mut self, at: SimTime, slot: u32) {
        let t1 = self.server.cpu_free.max(at) + self.cpu.server_call;
        self.server.cpu_free = t1;
        let held_call = self.server.in_service.get_mut(slot);
        let key = held_call.key;
        let call = &mut held_call.call;
        let Some((size, held)) = self
            .server
            .fs
            .inode(call.fh().ino)
            .map(|i| (i.size, i.num_blocks()))
        else {
            self.server_reply(slot, t1, NfsStatus::Stale);
            return;
        };
        if let NfsCall::Read { offset, count, .. } = call {
            // The server answers the call it executes: clip the in-service
            // copy. `ffs` serves whole allocated blocks, so a read may run
            // past the logical size into the last block.
            if *offset >= size {
                *count = 0;
            } else if *offset + u64::from(*count) > size.max(held * ffs::BLOCK_BYTES) {
                *count = u32::try_from(size - *offset).expect("less than the asked count");
            }
        }
        match *call {
            NfsCall::Read { count: 0, .. } => self.server_reply(slot, t1, NfsStatus::Ok),
            NfsCall::Read { fh, offset, count } => {
                let client = self.caller_index(key);
                let reader = u32::try_from(client).expect("fewer than 2^32 callers");
                self.server.inodes.file(fh.ino).last_reader = Some(reader);
                let policy = self.config.policy;
                // Every live `nfsheur` entry was put there by a READ, which
                // recorded its reader.
                let inodes = &self.server.inodes;
                let reader_of = |ino: u64| {
                    let reader = inodes.get(ino).and_then(|i| i.last_reader);
                    reader.expect("a READ recorded the reader") as usize
                };
                let contention = &mut self.contention;
                let (seqcount, probe) = self.server.heur.observe_traced(
                    fh.ino,
                    offset,
                    u64::from(count),
                    &policy,
                    |scanned| {
                        if reader_of(scanned) != client {
                            contention[client].cross_client_probe_collisions += 1;
                        }
                    },
                );
                if let Some(victim) = probe.ejected {
                    self.contention[client].heur_ejections_caused += 1;
                    let reader = reader_of(victim);
                    self.contention[reader].heur_ejections_suffered += 1;
                    if reader != client {
                        self.contention[client].cross_client_ejections += 1;
                    }
                }
                if let Some(log) = &mut self.server_events {
                    log.push(ServerEvent::HeurRead {
                        ino: fh.ino,
                        hit: probe.hit,
                        ejected: probe.ejected.is_some(),
                    });
                }
                self.server.fs.read(
                    t1,
                    fh.ino,
                    offset,
                    u64::from(count),
                    seqcount,
                    u64::from(slot),
                );
            }
            NfsCall::Write { count: 0, .. } => self.server_reply(slot, t1, NfsStatus::Ok),
            NfsCall::Write {
                fh,
                offset,
                count,
                stable,
            } => {
                let Some(end) = offset.checked_add(u64::from(count)) else {
                    self.server_reply(slot, t1, NfsStatus::Inval);
                    return;
                };
                // A WRITE past EOF extends the file (RFC 1813 §3.3.7); the
                // allocator alone decides whether the new blocks fit.
                let grown = self
                    .server
                    .fs
                    .extend_file(fh.ino, end, &mut self.server.alloc_rng);
                if grown.is_err() {
                    self.server_reply(slot, t1, NfsStatus::NoSpc);
                    return;
                }
                // Every WRITE advances the file's attribute version — the
                // signal revalidating clients compare against (mtime).
                let inode = self.server.inodes.file(fh.ino);
                inode.attr_seq += 1;
                if stable == StableHow::Unstable {
                    // Async write: stash the blocks in the dirty pool and
                    // reply immediately — that early reply *is* the NFSv3
                    // async win. The data reaches disk when the gather
                    // window expires, the pool hits its ceiling, or a
                    // COMMIT forces it.
                    let bs = u64::from(RSIZE);
                    let stashed = inode.writes_mut().stash_dirty(offset / bs, (end - 1) / bs);
                    self.server.stats.unstable_writes += 1;
                    self.server.stats.dirty_blocks_stashed += stashed;
                    self.server.dirty_blocks += stashed;
                    if self.server.dirty_blocks > SERVER_DIRTY_MAX_BLOCKS {
                        self.server_flush_ino(t1, fh.ino);
                    } else {
                        // `t1` is the server CPU's free time, which never
                        // decreases: expiries arrive in time order.
                        self.queue.schedule_in_lane(
                            LANE_GATHER,
                            t1 + self.config.gather_window,
                            Ev::GatherExpire { ino: fh.ino },
                        );
                    }
                    self.server_reply(slot, t1, NfsStatus::Ok);
                } else {
                    // FILE_SYNC / DATA_SYNC: write through to disk; the
                    // reply waits for the platter, as NFSv2 always did.
                    self.server
                        .fs
                        .write(t1, fh.ino, offset, u64::from(count), u64::from(slot));
                }
            }
            NfsCall::Commit { fh, .. } => {
                self.server.stats.commits += 1;
                self.server_flush_ino(t1, fh.ino);
                let writes = self.server.inodes.file(fh.ino).writes_mut();
                if writes.flush_outstanding == 0 {
                    let eio = std::mem::take(&mut writes.flush_error);
                    self.server_reply(slot, t1, io_status(eio));
                } else {
                    // The nfsd parks on the in-flight flush, exactly as a
                    // sync WRITE parks on the disk.
                    writes.pending_commits.push(slot);
                }
            }
            NfsCall::Getattr { .. } => {
                // Metadata served from in-core state: reply immediately.
                self.server.stats.getattrs += 1;
                self.server_reply(slot, t1, NfsStatus::Ok);
            }
            NfsCall::Lookup { .. } => {
                self.server.stats.lookups += 1;
                self.server_reply(slot, t1, NfsStatus::Ok);
            }
            NfsCall::Readdir { .. } | NfsCall::Readdirplus { .. } => {
                // Directory pages are in-core too; the reply's wire size
                // carries the chunk's entry payload.
                self.server.stats.readdirs += 1;
                self.server_reply(slot, t1, NfsStatus::Ok);
            }
        }
    }

    /// Flushes `ino`'s gathered dirty blocks to disk as coalesced runs
    /// (write gathering: adjacent UNSTABLE writes become one disk write).
    fn server_flush_ino(&mut self, at: SimTime, ino: u64) {
        let writes = self.server.inodes.file(ino).writes_mut();
        if writes.dirty.is_empty() {
            return; // Already flushed (stale gather timer) or restarted.
        }
        let mut blocks = std::mem::take(&mut writes.dirty);
        self.server.dirty_blocks -= blocks.len() as u64;
        debug_assert_eq!(self.server.dirty_blocks, self.server_dirty_blocks());
        let bs = u64::from(RSIZE);
        if let Some(log) = &mut self.server_events {
            log.push(ServerEvent::GatherFlush {
                ino,
                blocks: blocks.len() as u64,
            });
        }
        let mut runs = 0;
        let mut i = 0;
        while i < blocks.len() {
            let mut j = i;
            while j + 1 < blocks.len() && blocks[j + 1] == blocks[j] + 1 {
                j += 1;
            }
            let first_blk = blocks[i];
            let nblocks = (j - i + 1) as u64;
            let tag = self.server.next_flush;
            self.server.next_flush += 1;
            self.server.flushing.insert(
                tag,
                FlushSpan {
                    ino,
                    first_blk,
                    nblocks,
                },
            );
            runs += 1;
            self.server.stats.gather_flushes += 1;
            self.server.stats.dirty_blocks_flushed += nblocks;
            self.server
                .fs
                .write(at, ino, first_blk * bs, nblocks * bs, FLUSH_KEY_BIT | tag);
            i = j + 1;
        }
        // Hand the emptied pool back, so the next stash reuses its buffer.
        blocks.clear();
        let writes = self.server.inodes.file(ino).writes_mut();
        writes.flush_outstanding += runs;
        writes.dirty = blocks;
    }

    /// A server-initiated flush finished: mark its span durable (or latch
    /// the error for the next COMMIT) and, once the inode has no flushes
    /// left in flight, release any COMMITs parked on it. With none parked
    /// the error stays latched for the next COMMIT to report.
    fn server_flush_done(&mut self, key: u64, at: SimTime, eio: bool) {
        let tag = key & !FLUSH_KEY_BIT;
        let span = self.server.flushing.remove(tag).expect("unknown flush tag");
        let writes = self.server.inodes.file(span.ino).writes_mut();
        if eio {
            writes.flush_error = true;
        } else {
            writes.mark_durable(span.first_blk, span.nblocks);
        }
        writes.flush_outstanding -= 1;
        if writes.flush_outstanding > 0 || writes.pending_commits.is_empty() {
            return;
        }
        let mut parked = std::mem::take(&mut writes.pending_commits);
        let e = std::mem::take(&mut writes.flush_error);
        for &slot in &parked {
            self.server_reply(slot, at, io_status(e));
        }
        // Hand the buffer back unless a COMMIT parked anew meanwhile.
        parked.clear();
        let writes = self.server.inodes.file(span.ino).writes_mut();
        if writes.pending_commits.is_empty() {
            writes.pending_commits = parked;
        }
    }

    /// The one reply path, for every caller: builds the answer to the
    /// call in service `slot` from the server's own state, books it, and
    /// hands it to the caller's sink — the simulated s2c transport or the
    /// external outbox.
    fn server_reply(&mut self, slot: u32, at: SimTime, status: NfsStatus) {
        let t = self.server.cpu_free.max(at) + self.cpu.server_reply;
        self.server.cpu_free = t;
        let InService { key, call, .. } = self.server.in_service.remove(slot);
        if self.call_retired(key) {
            // This execution was wasted work. Nothing to send.
            self.server.stats.stale_drops += 1;
            self.release_nfsd(at);
            return;
        }
        let xid = key_xid(key);
        let reply = self.build_reply(key, &call, status);
        if let NfsCall::Write {
            fh,
            offset,
            count: count @ 1..,
            stable,
        } = call
        {
            if status == NfsStatus::Ok && stable != StableHow::Unstable {
                // The platter acked a sync write: stable storage.
                let bs = u64::from(RSIZE);
                let (first, last) = (offset / bs, (offset + u64::from(count) - 1) / bs);
                self.server
                    .inodes
                    .file(fh.ino)
                    .writes_mut()
                    .mark_durable(first, last - first + 1);
            }
        }
        self.server.stats.replies += 1;
        if let Some(log) = &mut self.server_events {
            log.push(ServerEvent::Reply { xid });
        }
        let eio = status == NfsStatus::Io;
        if eio {
            self.server.stats.disk_eios += 1;
            let caller = self.caller_index(key);
            self.contention[caller].disk_eios_suffered += 1;
        }
        if cfg!(debug_assertions) {
            // The codec check on the way back (see `server_call_arrive`):
            // release builds send only the reply's wire size.
            let scratch = std::mem::take(&mut self.server.wire_scratch);
            let wire = reply.encode_into(xid, scratch);
            let (wire_xid, decoded) = NfsReply::decode(call.proc(), &wire).expect("reply");
            assert_eq!((wire_xid, &decoded), (xid, &reply));
            self.server.wire_scratch = wire;
        }
        if self.server.sabotage_drop_replies > 0 {
            // Mutation-check hook: the books say "replied" but the wire
            // never sees it.
            self.server.sabotage_drop_replies -= 1;
        } else if is_ext(key) {
            self.ext_outbox.push(ExtReply {
                ext: ext_index(key),
                xid,
                at: t,
                reply,
            });
        } else {
            let client = key_client(key);
            // A failed WRITE or COMMIT sends no verifier on the wire; the
            // event carries the server's for every WRITE and COMMIT, so
            // the simulated client's books do not depend on reply shapes.
            let verf = match call {
                NfsCall::Write { .. } | NfsCall::Commit { .. } => self.server.verf,
                _ => 0,
            };
            match self.clients[client].s2c.send(t, reply.wire_bytes()) {
                TxOutcome::Delivered(arrive) => self
                    .queue
                    .schedule_at(arrive, Ev::ReplyArrive { key, eio, verf }),
                TxOutcome::Lost => {} // UDP: client will retransmit the call.
                TxOutcome::Queued(seq) => {
                    self.clients[client].s2c_seq.insert(seq, (key, eio, verf));
                    self.schedule_tcp_tick(client, false);
                }
            }
        }
        self.release_nfsd(t);
    }

    /// The reply to `call` with `status`, read off the server's state:
    /// attributes from its inodes, verifiers from its boot epoch, and a
    /// READDIR chunk's shape from what a simulated caller declared
    /// ([`RpcBook::shape`]; an external caller declares none and gets an
    /// empty, final chunk — a real server's answer for an empty
    /// directory). A failed reply carries only its status and attributes.
    fn build_reply(&self, key: u64, call: &NfsCall, status: NfsStatus) -> NfsReply {
        let ok = status == NfsStatus::Ok;
        let attrs = |fh| self.file_attrs(fh);
        let verf = if ok { self.server.verf } else { 0 };
        match *call {
            NfsCall::Read { fh, offset, count } => {
                let attrs = attrs(fh);
                let size = attrs.map_or(0, |a| a.size);
                NfsReply::Read {
                    status,
                    attrs,
                    count: if ok { count } else { 0 },
                    eof: ok && offset + u64::from(count) >= size,
                }
            }
            NfsCall::Write {
                fh, count, stable, ..
            } => NfsReply::Write {
                status,
                attrs: attrs(fh),
                count: if ok { count } else { 0 },
                committed: if ok && stable == StableHow::Unstable {
                    StableHow::Unstable
                } else {
                    StableHow::FileSync
                },
                verf,
            },
            NfsCall::Commit { fh, .. } => NfsReply::Commit {
                status,
                attrs: attrs(fh),
                verf,
            },
            NfsCall::Getattr { fh } => NfsReply::Getattr {
                status,
                attrs: attrs(fh).filter(|_| ok),
            },
            NfsCall::Lookup { dir, .. } => {
                // The world has no namespace: a LOOKUP resolves to its
                // directory handle.
                let dir_attrs = attrs(dir);
                NfsReply::Lookup {
                    status,
                    fh: ok.then_some(dir),
                    obj_attrs: dir_attrs.filter(|_| ok),
                    dir_attrs,
                }
            }
            NfsCall::Readdir { dir, .. } | NfsCall::Readdirplus { dir, .. } => {
                let plus = matches!(call, NfsCall::Readdirplus { .. });
                let pend = (!is_ext(key))
                    .then(|| self.clients[key_client(key)].rpcs.shape(key_xid(key)))
                    .flatten()
                    .filter(|_| ok);
                let entries = pend.map_or(0, |p| p.entries);
                let per = READDIR_ENTRY_BYTES + if plus { READDIRPLUS_EXTRA_BYTES } else { 0 };
                NfsReply::Readdir {
                    status,
                    dir_attrs: attrs(dir),
                    plus,
                    cookieverf: verf,
                    entries,
                    bytes: entries * per,
                    eof: ok && pend.is_none_or(|p| p.eof),
                }
            }
        }
    }

    fn release_nfsd(&mut self, at: SimTime) {
        self.server.nfsd_busy = self.server.nfsd_busy.saturating_sub(1);
        self.drain_call_queue(at);
    }

    /// Starts queued calls while the pool has capacity, dropping queue
    /// entries whose RPC the client already retired.
    fn drain_call_queue(&mut self, at: SimTime) {
        while self.server.nfsd_busy < self.server.nfsd_total {
            let Some((arrived, slot)) = self.server.call_queue.pop_front() else {
                return;
            };
            if self.call_retired(self.server.in_service.get(slot).key) {
                self.server.stats.stale_drops += 1;
                self.server.in_service.remove(slot);
                continue;
            }
            self.server.nfsd_busy += 1;
            self.nfsd_process(at.max(arrived), slot);
        }
    }
}

/// The server's copy of a simulated call: the call itself, except that a
/// LOOKUP's copy carries no name. The server never reads the name (the
/// world has no namespace), and copying it would allocate.
fn server_copy(call: &NfsCall) -> NfsCall {
    match *call {
        NfsCall::Lookup { dir, .. } => NfsCall::Lookup {
            dir,
            name: String::new(),
        },
        ref other => other.clone(),
    }
}

/// Checks that `wire` decodes to `call` under `xid`. A LOOKUP's name is
/// compared where it lies in `wire`, so the check allocates nothing for
/// it.
fn check_call_decodes(wire: &[u8], xid: u32, call: &NfsCall) {
    let mut d = XdrDecoder::new(wire);
    let header = CallHeader::decode(&mut d).expect("well-formed call header");
    assert_eq!((header.xid, header.proc_num), (xid, call.proc().number()));
    if let NfsCall::Lookup { dir, name } = call {
        assert_eq!(FileHandle::decode(&mut d).as_ref(), Ok(dir));
        assert_eq!(d.get_string(), Ok(name.as_str()));
    } else {
        let decoded = NfsCall::decode_args(call.proc(), &mut d).expect("well-formed call");
        assert_eq!(&decoded, call);
    }
}

/// The reply status for an I/O that did (`true`) or did not fail.
fn io_status(eio: bool) -> NfsStatus {
    if eio {
        NfsStatus::Io
    } else {
        NfsStatus::Ok
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use diskmodel::{DriveModel, PartitionTable};
    use ffs::FsConfig;
    use iosched::SchedulerKind;
    use readahead_core::{NfsHeurConfig, ReadaheadPolicy};

    fn ide_fs(seed: u64) -> FileSystem {
        let disk = DriveModel::WdWd200bbIde.build(SimRng::new(seed));
        let part = PartitionTable::quarters(disk.geometry()).get(1);
        FileSystem::format(disk, part, SchedulerKind::Elevator, FsConfig::default())
    }

    fn make_world(config: WorldConfig, seed: u64) -> NfsWorld {
        NfsWorld::new(config, ide_fs(seed), seed)
    }

    fn make_cluster(config: WorldConfig, n: usize, seed: u64) -> NfsWorld {
        NfsWorld::build(config, n, ide_fs(seed), seed)
    }

    #[test]
    #[should_panic(expected = "ClientHostConfig::from_world")]
    fn new_cluster_rejects_hosts_whose_configs_differ() {
        let config = WorldConfig::default();
        let host = ClientHostConfig::from_world(&config);
        let odd = ClientHostConfig { nfsiods: 2, ..host };
        let _ = NfsWorld::new_cluster(config, &[host, odd], ide_fs(1), 1);
    }

    /// Reads a file sequentially, one 8 KB block at a time, returning MB/s.
    fn sequential_read(world: &mut NfsWorld, fh: FileHandle, size: u64) -> f64 {
        let mut now = SimTime::ZERO;
        let mut offset = 0;
        while offset < size {
            world.read_from(0, now, fh, offset, 8_192, 0);
            let mut done = Vec::new();
            while done.is_empty() {
                let t = world.next_event().expect("pending read must progress");
                done = world.advance(t);
                now = now.max(t);
            }
            now = done[0].done_at;
            offset += 8_192;
        }
        size as f64 / 1e6 / now.as_secs_f64()
    }

    #[test]
    fn single_sequential_reader_gets_reasonable_throughput() {
        let mut w = make_world(WorldConfig::default(), 1);
        let fh = w.create_file(8 * 1024 * 1024);
        let mbs = sequential_read(&mut w, fh, 8 * 1024 * 1024);
        assert!(
            (8.0..49.0).contains(&mbs),
            "NFS sequential read at {mbs:.1} MB/s"
        );
        assert_eq!(w.client_stats_for(0).retransmits, 0, "clean LAN");
    }

    #[test]
    fn client_readahead_generates_async_rpcs() {
        let mut w = make_world(WorldConfig::default(), 2);
        let fh = w.create_file(4 * 1024 * 1024);
        sequential_read(&mut w, fh, 4 * 1024 * 1024);
        let s = w.client_stats_for(0);
        assert!(s.readahead_rpcs > 0, "{s:?}");
        assert!(
            s.cache_hits > 0,
            "read-ahead should produce cache hits: {s:?}"
        );
    }

    #[test]
    fn every_block_is_read_exactly_once_without_loss() {
        let mut w = make_world(WorldConfig::default(), 3);
        let size = 2 * 1024 * 1024u64;
        let fh = w.create_file(size);
        sequential_read(&mut w, fh, size);
        let s = w.client_stats_for(0);
        // 256 blocks, each fetched by exactly one RPC (demand or
        // read-ahead; pending blocks are never re-requested).
        assert_eq!(s.rpcs, 256, "{s:?}");
    }

    #[test]
    fn reordering_emerges_with_concurrency() {
        let mut w = make_world(WorldConfig::default(), 4);
        let size = 1024 * 1024u64;
        let fhs: Vec<FileHandle> = (0..8).map(|_| w.create_file(size)).collect();
        // Drive 8 interleaved sequential readers.
        let mut now = SimTime::ZERO;
        let mut offsets = [0u64; 8];
        let mut pending: HashMap<u64, usize> = HashMap::new();
        for (i, fh) in fhs.iter().enumerate() {
            w.read_from(0, now, *fh, 0, 8_192, i as u64);
            pending.insert(i as u64, i);
            offsets[i] = 8_192;
        }
        let mut remaining = 8 * (size / 8_192 - 1);
        while remaining > 0 || !pending.is_empty() {
            let Some(t) = w.next_event() else { break };
            now = now.max(t);
            for d in w.advance(t) {
                let i = d.tag as usize;
                pending.remove(&d.tag);
                if offsets[i] < size {
                    w.read_from(0, d.done_at, fhs[i], offsets[i], 8_192, d.tag);
                    pending.insert(d.tag, i);
                    offsets[i] += 8_192;
                    remaining -= 1;
                }
            }
        }
        let st = w.server_stats();
        assert!(st.reads > 500);
        assert!(
            st.reordered > 0,
            "jittered nfsiods must reorder some requests: {st:?}"
        );
        assert!(
            st.reorder_fraction() < 0.25,
            "reordering should be a small fraction: {}",
            st.reorder_fraction()
        );
    }

    #[test]
    fn udp_retransmits_on_lossy_link() {
        let mut cfg = WorldConfig {
            link: netsim::LinkProfile {
                frame_loss: 0.02,
                ..netsim::LinkProfile::gigabit_lan()
            },
            retransmit_timeout: SimDuration::from_millis(50),
            ..WorldConfig::default()
        };
        cfg.client_readahead_blocks = 0;
        let mut w = make_world(cfg, 5);
        let size = 512 * 1024u64;
        let fh = w.create_file(size);
        sequential_read(&mut w, fh, size);
        assert!(
            w.client_stats_for(0).retransmits > 0,
            "2% frame loss must trigger RPC retransmission: {:?}",
            w.client_stats_for(0)
        );
    }

    #[test]
    fn tcp_never_retransmits_rpcs() {
        let cfg = WorldConfig {
            transport: TransportKind::Tcp,
            link: netsim::LinkProfile {
                frame_loss: 0.02,
                ..netsim::LinkProfile::gigabit_lan()
            },
            ..WorldConfig::default()
        };
        let mut w = make_world(cfg, 6);
        let size = 512 * 1024u64;
        let fh = w.create_file(size);
        sequential_read(&mut w, fh, size);
        assert_eq!(
            w.client_stats_for(0).retransmits,
            0,
            "TCP handles loss below the RPC layer"
        );
    }

    #[test]
    fn tcp_is_slower_than_udp_for_one_reader() {
        let size = 8 * 1024 * 1024u64;
        let mut wu = make_world(WorldConfig::default(), 7);
        let fu = wu.create_file(size);
        let udp = sequential_read(&mut wu, fu, size);
        let mut wt = make_world(
            WorldConfig {
                transport: TransportKind::Tcp,
                ..WorldConfig::default()
            },
            7,
        );
        let ft = wt.create_file(size);
        let tcp = sequential_read(&mut wt, ft, size);
        assert!(
            udp > tcp * 1.2,
            "UDP {udp:.1} MB/s should beat TCP {tcp:.1} MB/s for one reader"
        );
    }

    #[test]
    fn flush_forces_server_disk_again() {
        let mut w = make_world(WorldConfig::default(), 8);
        let fh = w.create_file(1024 * 1024);
        sequential_read(&mut w, fh, 1024 * 1024);
        let before = w.fs().stats().sync_reads + w.fs().stats().readahead_reads;
        w.flush_all_caches();
        w.reset_client_heuristics();
        sequential_read(&mut w, fh, 1024 * 1024);
        let after = w.fs().stats().sync_reads + w.fs().stats().readahead_reads;
        assert!(after > before, "second pass must hit the disk again");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let mut w = make_world(WorldConfig::default(), seed);
            let fh = w.create_file(2 * 1024 * 1024);
            sequential_read(&mut w, fh, 2 * 1024 * 1024)
        };
        assert_eq!(run(42).to_bits(), run(42).to_bits());
        assert_ne!(run(42).to_bits(), run(43).to_bits());
    }

    #[test]
    fn one_host_cluster_is_bit_identical_to_classic_world() {
        // The tentpole invariant: NfsWorld::new is literally a 1-host
        // cluster, and an explicitly-constructed 1-host cluster replays
        // the identical event and RNG schedule.
        let run = |cluster: bool| {
            let mut w = if cluster {
                make_cluster(WorldConfig::default(), 1, 42)
            } else {
                make_world(WorldConfig::default(), 42)
            };
            let fh = w.create_file(2 * 1024 * 1024);
            let mbs = sequential_read(&mut w, fh, 2 * 1024 * 1024);
            (mbs.to_bits(), format!("{:?}", w.client_stats_for(0)))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn improved_heur_table_records_no_ejections_for_few_files() {
        let cfg = WorldConfig {
            heur: NfsHeurConfig::improved(),
            policy: ReadaheadPolicy::slowdown(),
            ..WorldConfig::default()
        };
        let mut w = make_world(cfg, 9);
        let fh = w.create_file(1024 * 1024);
        sequential_read(&mut w, fh, 1024 * 1024);
        assert_eq!(w.heur().stats().ejections, 0);
        assert!(w.heur().stats().hits > 0);
        // The same counters surface through ServerStats.
        let s = w.server_stats();
        assert_eq!(s.heur_ejections, 0);
        assert!(s.heur_hits > 0);
        assert_eq!(s.heur_occupancy, 1, "one live file");
    }

    #[test]
    #[should_panic(expected = "beyond EOF")]
    fn read_past_eof_panics() {
        let mut w = make_world(WorldConfig::default(), 10);
        let fh = w.create_file(8_192);
        w.read_from(0, SimTime::ZERO, fh, 8_192, 8_192, 0);
    }

    fn drain_one(w: &mut NfsWorld) -> OpDone {
        loop {
            let t = w.next_event().expect("op pending");
            let done = w.advance(t);
            if let Some(d) = done.first() {
                return *d;
            }
        }
    }

    #[test]
    fn busy_client_reorders_more_matching_the_paper_band() {
        // The paper measured up to ~6% reordering on UDP with a busy
        // client. Our rate is emergent (nfsiod jitter); assert it lands in
        // a plausible band and grows with the busy-client knob.
        let measure = |busy: u32| {
            let cfg = WorldConfig {
                busy_loops: busy,
                ..WorldConfig::default()
            };
            let mut w = make_world(cfg, 21);
            let size = 1024 * 1024u64;
            let fhs: Vec<FileHandle> = (0..8).map(|_| w.create_file(size)).collect();
            let mut offsets = [0u64; 8];
            for (i, fh) in fhs.iter().enumerate() {
                w.read_from(0, SimTime::ZERO, *fh, 0, 8_192, i as u64);
                offsets[i] = 8_192;
            }
            let mut active = 8;
            while active > 0 {
                let Some(t) = w.next_event() else { break };
                for d in w.advance(t) {
                    let i = d.tag as usize;
                    if offsets[i] >= size {
                        active -= 1;
                        continue;
                    }
                    w.read_from(0, d.done_at, fhs[i], offsets[i], 8_192, d.tag);
                    offsets[i] += 8_192;
                }
            }
            w.server_stats().reorder_fraction()
        };
        let idle = measure(0);
        let busy = measure(4);
        assert!(busy > idle, "busy {busy:.4} should exceed idle {idle:.4}");
        assert!(
            (0.001..0.15).contains(&busy),
            "busy reorder rate {busy:.4} outside the plausible band"
        );
    }

    #[test]
    fn write_completes_and_invalidates_client_cache() {
        let mut w = make_world(WorldConfig::default(), 11);
        let fh = w.create_file(1024 * 1024);
        // Prime the client cache with block 0.
        w.read_from(0, SimTime::ZERO, fh, 0, 8_192, 0);
        let d1 = drain_one(&mut w);
        // Write block 0, then re-read: the read must go to the server.
        w.write_from(0, d1.done_at, fh, 0, 8_192, 1);
        let d2 = drain_one(&mut w);
        assert!(d2.done_at > d1.done_at);
        let rpcs_before = w.client_stats_for(0).rpcs;
        w.read_from(0, d2.done_at, fh, 0, 8_192, 2);
        let d3 = drain_one(&mut w);
        assert!(d3.done_at > d2.done_at, "no client-cache hit after write");
        assert!(w.client_stats_for(0).rpcs > rpcs_before);
        assert_eq!(w.fs().stats().writes, 1);
    }

    #[test]
    fn getattr_is_a_fast_metadata_round_trip() {
        let mut w = make_world(WorldConfig::default(), 12);
        let fh = w.create_file(1024 * 1024);
        w.getattr_from(0, SimTime::ZERO, fh, 0);
        let d = drain_one(&mut w);
        // No disk access: just network + CPU, well under a millisecond.
        assert!(d.done_at.as_secs_f64() < 2e-3, "getattr took {}", d.done_at);
        assert_eq!(w.server_stats().other_calls, 1);
        assert_eq!(w.fs().stats().sync_reads, 0);
    }

    fn drain_all(w: &mut NfsWorld) -> Vec<OpDone> {
        let mut out = Vec::new();
        let mut guard = 0u64;
        while let Some(t) = w.next_event() {
            guard += 1;
            assert!(guard < 10_000_000, "event loop stuck");
            out.extend(w.advance(t));
        }
        out
    }

    #[test]
    fn dead_link_times_out_with_typed_outcome() {
        let mut cfg = WorldConfig {
            link: netsim::LinkProfile {
                frame_loss: 1.0,
                ..netsim::LinkProfile::gigabit_lan()
            },
            retransmit_timeout: SimDuration::from_millis(20),
            ..WorldConfig::default()
        };
        cfg.client_readahead_blocks = 0;
        let mut w = make_world(cfg, 31);
        let fh = w.create_file(64 * 1024);
        w.read_from(0, SimTime::ZERO, fh, 0, 8_192, 7);
        let done = drain_all(&mut w);
        assert_eq!(done.len(), 1, "{done:?}");
        let d = done[0];
        assert!(
            matches!(d.outcome, OpOutcome::RpcTimedOut { .. }),
            "dead link must surface a typed timeout: {d:?}"
        );
        assert_eq!(d.tag, 7);
        let s = w.client_stats_for(0);
        assert_eq!(s.rpc_timeouts, 1, "{s:?}");
        assert_eq!(s.retransmits, u64::from(MAX_RETRIES), "{s:?}");
        // The timed-out block is not wedged pending: a later read can
        // request it afresh (and will itself time out, not hang).
        assert_eq!(w.block_state_for(0, fh, 0), BlockState::Absent);
        assert!(w.outstanding_xids().is_empty());
        assert!(w.outstanding_ops().is_empty());
        let now = w.now();
        w.read_from(0, now, fh, 0, 8_192, 8);
        let done = drain_all(&mut w);
        assert_eq!(done.len(), 1);
        assert!(matches!(done[0].outcome, OpOutcome::RpcTimedOut { .. }));
        assert_eq!(w.client_stats_for(0).rpc_timeouts, 2);
    }

    #[test]
    fn healthy_runs_report_ok_outcomes() {
        let mut w = make_world(WorldConfig::default(), 13);
        let fh = w.create_file(256 * 1024);
        for i in 0..4u64 {
            w.read_from(0, SimTime::ZERO, fh, i * 8_192, 8_192, i);
        }
        let done = drain_all(&mut w);
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|d| d.outcome.is_ok()), "{done:?}");
        assert!(done.iter().all(|d| d.client == 0), "{done:?}");
        assert_eq!(w.client_stats_for(0).rpc_timeouts, 0);
    }

    /// What a run of UDP reads did when client 0's xids start at
    /// `first_xid`: each completion, and after every step the outstanding
    /// xids, raw and as offsets from `first_xid` along the lap.
    #[allow(clippy::type_complexity)]
    fn reads_from_xid(first_xid: u32) -> (Vec<(u64, SimTime, OpOutcome)>, Vec<Vec<(u32, u64)>>) {
        const SIZE: u64 = 128 * 1024;
        let cfg = WorldConfig {
            retransmit_timeout: SimDuration::from_millis(20),
            ..WorldConfig::default()
        };
        let mut w = make_world(cfg, 41);
        w.hot[0].next_xid = first_xid;
        let fh = [w.create_file(SIZE), w.create_file(SIZE)];
        // The first reply is lost, so its call goes out again 20 ms later.
        w.sabotage_drop_next_replies(1);
        for (r, &f) in fh.iter().enumerate() {
            w.read_from(0, SimTime::ZERO, f, 0, 8_192, r as u64);
        }
        let mut next = [8_192u64; 2];
        let (mut done, mut outstanding) = (Vec::new(), Vec::new());
        while let Some(t) = w.next_event() {
            for d in w.advance(t) {
                done.push((d.tag, d.done_at, d.outcome));
                let r = d.tag as usize;
                if next[r] < SIZE {
                    w.read_from(0, d.done_at, fh[r], next[r], 8_192, d.tag);
                    next[r] += 8_192;
                }
            }
            let mut xids: Vec<(u32, u64)> = w
                .outstanding_xids()
                .into_iter()
                .map(|(_, x)| {
                    let lap = u64::from(x.wrapping_sub(first_xid)) - u64::from(x < first_xid);
                    (x, lap)
                })
                .collect();
            xids.sort_unstable_by_key(|&(_, lap)| lap);
            outstanding.push(xids);
        }
        assert_eq!(w.client_stats_for(0).retransmits, 1);
        assert!(w.outstanding_xids().is_empty());
        (done, outstanding)
    }

    #[test]
    fn rpc_books_survive_the_xid_wrap() {
        let (done, outstanding) = reads_from_xid(1);
        let (wrapped_done, wrapped_outstanding) = reads_from_xid(u32::MAX - 4);
        assert_eq!(done.len(), 32);
        assert!(done.iter().all(|d| d.2.is_ok()), "{done:?}");
        assert_eq!(wrapped_done, done);
        let laps = |v: &[Vec<(u32, u64)>]| -> Vec<Vec<u64>> {
            v.iter().map(|s| s.iter().map(|x| x.1).collect()).collect()
        };
        assert_eq!(laps(&wrapped_outstanding), laps(&outstanding));
        // The lost call is retransmitted while xids past the wrap are out.
        assert!(
            wrapped_outstanding.iter().any(|s| {
                s.first().is_some_and(|x| x.0 == u32::MAX - 4)
                    && s.last().is_some_and(|x| x.0 < 100)
            }),
            "no step held xids from both sides of the wrap"
        );
    }

    #[test]
    fn nfsiod_acquisition_is_immediate_or_denied() {
        // Pins the semantics of `acquire_iod`: a slot whose busy-until
        // time has passed is granted *at the asked-for instant* (never in
        // the future); with every slot busy the caller is denied.
        let mut w = make_world(WorldConfig::default(), 32);
        let t1 = SimTime::from_nanos(1_000);
        let cl = &mut w.clients[0];
        assert_eq!(cl.acquire_iod(t1), Some(t1), "idle pool grants at now");
        let t2 = SimTime::from_nanos(5_000);
        for _ in 0..cl.iod_free.len() {
            cl.set_iod_busy_until(t2);
        }
        assert_eq!(cl.acquire_iod(t1), None, "all slots busy until t2");
        assert_eq!(cl.acquire_iod(t2), Some(t2), "freed exactly at t2");
        // Pool resize: zero slots means read-ahead is always denied.
        w.set_nfsiods(0);
        assert_eq!(w.nfsiods_for(0), 0);
        assert_eq!(w.clients[0].acquire_iod(t2), None);
        w.set_nfsiods(3);
        assert_eq!(w.nfsiods_for(0), 3);
        assert_eq!(w.clients[0].acquire_iod(t1), Some(t1));
    }

    #[test]
    fn server_stall_delays_replies() {
        let run = |stall: bool| {
            let mut w = make_world(WorldConfig::default(), 33);
            let fh = w.create_file(64 * 1024);
            if stall {
                w.stall_server(SimTime::ZERO, SimDuration::from_millis(250));
            }
            w.read_from(0, SimTime::ZERO, fh, 0, 8_192, 0);
            drain_one(&mut w).done_at
        };
        let base = run(false);
        let stalled = run(true);
        assert!(
            stalled.as_secs_f64() >= base.as_secs_f64() + 0.2,
            "stall must delay completion: base {base}, stalled {stalled}"
        );
    }

    #[test]
    fn link_degradation_mid_run_causes_retransmits() {
        let mut cfg = WorldConfig {
            retransmit_timeout: SimDuration::from_millis(50),
            ..WorldConfig::default()
        };
        cfg.client_readahead_blocks = 0;
        let mut w = make_world(cfg, 34);
        let fh = w.create_file(512 * 1024);
        let mut now = SimTime::ZERO;
        let read_blocks = |w: &mut NfsWorld, now: &mut SimTime, range: std::ops::Range<u64>| {
            for blk in range {
                w.read_from(0, *now, fh, blk * 8_192, 8_192, blk);
                let mut got = false;
                while !got {
                    let t = w.next_event().expect("progress");
                    got = !w.advance(t).is_empty();
                    *now = (*now).max(t);
                }
            }
        };
        read_blocks(&mut w, &mut now, 0..16);
        assert_eq!(w.client_stats_for(0).retransmits, 0, "clean first half");
        w.set_link_profile(netsim::LinkProfile {
            frame_loss: 0.5,
            ..netsim::LinkProfile::gigabit_lan()
        });
        read_blocks(&mut w, &mut now, 16..32);
        assert!(
            w.client_stats_for(0).retransmits > 0,
            "degraded second half must retransmit: {:?}",
            w.client_stats_for(0)
        );
        w.set_link_profile(netsim::LinkProfile::gigabit_lan());
        let before = w.client_stats_for(0).retransmits;
        read_blocks(&mut w, &mut now, 32..48);
        assert_eq!(w.client_stats_for(0).retransmits, before, "recovered link");
    }

    #[test]
    fn nfsd_pool_resize_mid_run_completes_everything() {
        let mut w = make_world(WorldConfig::default(), 35);
        let fhs: Vec<FileHandle> = (0..6).map(|_| w.create_file(256 * 1024)).collect();
        w.set_nfsds(SimTime::ZERO, 1);
        assert_eq!(w.nfsds(), 1);
        for (i, fh) in fhs.iter().enumerate() {
            w.read_from(0, SimTime::ZERO, *fh, 0, 8_192, i as u64);
        }
        let done = drain_all(&mut w);
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|d| d.outcome.is_ok()));
        // Grow the pool back and run a second wave.
        let now = w.now();
        w.set_nfsds(now, 8);
        for (i, fh) in fhs.iter().enumerate() {
            w.read_from(0, now, *fh, 8_192, 8_192, i as u64);
        }
        let done = drain_all(&mut w);
        assert_eq!(done.len(), 6);
        let s = w.server_stats();
        assert_eq!(s.replies + s.stale_drops, s.reads + s.other_calls);
    }

    #[test]
    fn zero_nfsds_is_a_total_outage_until_pool_restored() {
        // ROADMAP item: a zero-nfsd window queues everything and serves
        // nothing. On UDP the client retransmits into the void and times
        // out; restoring the pool drops the abandoned queue entries as
        // stale and serves fresh work normally.
        let mut cfg = WorldConfig {
            retransmit_timeout: SimDuration::from_millis(20),
            ..WorldConfig::default()
        };
        cfg.client_readahead_blocks = 0;
        let mut w = make_world(cfg, 41);
        let fh = w.create_file(256 * 1024);
        w.set_nfsds(SimTime::ZERO, 0);
        assert_eq!(w.nfsds(), 0);
        for i in 0..3u64 {
            w.read_from(0, SimTime::ZERO, fh, i * 8_192, 8_192, i);
        }
        let done = drain_all(&mut w);
        assert_eq!(done.len(), 3, "{done:?}");
        assert!(
            done.iter()
                .all(|d| matches!(d.outcome, OpOutcome::RpcTimedOut { .. })),
            "an outage window must surface typed timeouts: {done:?}"
        );
        assert_eq!(w.server_stats().replies, 0, "nothing may be served");
        assert!(w.outstanding_ops().is_empty());
        // Restore the pool: queued-but-abandoned calls drop as stale, and
        // a second wave completes normally.
        let now = w.now();
        w.set_nfsds(now, 4);
        let _ = drain_all(&mut w);
        let now = w.now();
        for i in 0..3u64 {
            w.read_from(0, now, fh, i * 8_192, 8_192, 10 + i);
        }
        let done = drain_all(&mut w);
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|d| d.outcome.is_ok()), "{done:?}");
        let s = w.server_stats();
        assert_eq!(s.replies + s.stale_drops, s.reads + s.other_calls);
    }

    #[test]
    fn rpc_accounting_identities_hold() {
        let mut w = make_world(WorldConfig::default(), 36);
        let fh = w.create_file(1024 * 1024);
        sequential_read(&mut w, fh, 1024 * 1024);
        let c = w.client_stats_for(0);
        assert_eq!(c.transmissions, w.c2s_stats_for(0).messages);
        assert_eq!(w.server_stats().replies, w.s2c_stats_for(0).messages);
        let delivered = w.s2c_stats_for(0).messages - w.s2c_stats_for(0).lost;
        assert_eq!(c.replies_received + c.duplicate_replies, delivered);
    }

    // ------------------------------------------------------------------
    // Cluster behaviour.
    // ------------------------------------------------------------------

    /// Drives `n` clients, each reading its own file sequentially,
    /// interleaved through the shared server until everything completes.
    fn run_cluster_readers(w: &mut NfsWorld, size: u64) {
        let n = w.n_clients();
        let fhs: Vec<FileHandle> = (0..n).map(|c| w.create_file_for(c, size)).collect();
        let mut offsets = vec![0u64; n];
        for (c, fh) in fhs.iter().enumerate() {
            w.read_from(c, SimTime::ZERO, *fh, 0, 8_192, c as u64);
            offsets[c] = 8_192;
        }
        let mut active = n;
        while active > 0 {
            let Some(t) = w.next_event() else { break };
            for d in w.advance(t) {
                let c = d.client;
                assert_eq!(d.tag, c as u64);
                if offsets[c] >= size {
                    active -= 1;
                    continue;
                }
                w.read_from(c, d.done_at, fhs[c], offsets[c], 8_192, d.tag);
                offsets[c] += 8_192;
            }
        }
    }

    #[test]
    fn cluster_clients_complete_and_account_separately() {
        let mut w = make_cluster(WorldConfig::default(), 4, 50);
        run_cluster_readers(&mut w, 512 * 1024);
        for c in 0..4 {
            let s = w.client_stats_for(c);
            assert_eq!(s.ops, 64, "client {c}: {s:?}");
            assert!(s.rpcs > 0, "client {c}: {s:?}");
        }
        assert!(w.outstanding_ops().is_empty());
        assert!(w.outstanding_xids().is_empty());
        let s = w.server_stats();
        assert_eq!(s.replies + s.stale_drops, s.reads + s.other_calls);
        // Per-direction link accounting holds per host.
        for c in 0..4 {
            assert_eq!(
                w.client_stats_for(c).transmissions,
                w.c2s_stats_for(c).messages
            );
        }
    }

    #[test]
    fn cluster_runs_are_deterministic_and_clients_decorrelated() {
        let run = |seed| {
            let mut w = make_cluster(WorldConfig::default(), 3, seed);
            run_cluster_readers(&mut w, 256 * 1024);
            (0..3)
                .map(|c| format!("{:?}", w.client_stats_for(c)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(60), run(60));
        assert_ne!(run(60), run(61));
    }

    #[test]
    fn tiny_table_shows_cross_client_ejections_big_table_does_not() {
        // The paper's contention effect in miniature: 8 clients × 1 file
        // each overflow the stock 8-slot nfsheur table (some slots are
        // unreachable for a given hash neighbourhood), so clients eject
        // each other's sequentiality state. The enlarged table ends it.
        let measure = |heur| {
            let cfg = WorldConfig {
                heur,
                ..WorldConfig::default()
            };
            let mut w = make_cluster(cfg, 8, 70);
            run_cluster_readers(&mut w, 256 * 1024);
            let cross: u64 = (0..8)
                .map(|c| w.contention_stats(c).cross_client_ejections)
                .sum();
            let caused: u64 = (0..8)
                .map(|c| w.contention_stats(c).heur_ejections_caused)
                .sum();
            let suffered: u64 = (0..8)
                .map(|c| w.contention_stats(c).heur_ejections_suffered)
                .sum();
            let s = w.server_stats();
            // Every table-level ejection is attributed to a causing client
            // and a suffering owner (every file here has an owner).
            assert_eq!(caused, s.heur_ejections);
            assert_eq!(suffered, s.heur_ejections);
            assert!(s.heur_occupancy <= cfg.heur.slots as u64);
            cross
        };
        let small = measure(NfsHeurConfig::freebsd_default());
        let big = measure(NfsHeurConfig::improved());
        assert!(
            small > 0,
            "8 clients on an 8-slot table must collide cross-client"
        );
        assert_eq!(big, 0, "1024-slot table fits 8 active files");
    }

    #[test]
    fn duplicate_cache_hits_are_attributed_to_the_offending_client() {
        // A retransmit timeout far below the service time makes every
        // client's retransmissions arrive while the original is still in
        // service: the server's duplicate cache absorbs them, charged to
        // the client that sent them.
        let mut cfg = WorldConfig {
            retransmit_timeout: SimDuration::from_micros(500),
            ..WorldConfig::default()
        };
        cfg.client_readahead_blocks = 0;
        let mut w = make_cluster(cfg, 2, 80);
        run_cluster_readers(&mut w, 64 * 1024);
        let s = w.server_stats();
        let attributed: u64 = (0..2)
            .map(|c| w.contention_stats(c).duplicate_cache_hits)
            .sum();
        assert!(s.duplicates_dropped > 0, "{s:?}");
        assert_eq!(attributed, s.duplicates_dropped);
    }

    /// Fails the first N disk commands with a scripted decision, then
    /// answers `Ok` forever. Decisions are consumed at dispatch.
    #[derive(Debug)]
    struct ScriptedFault(std::collections::VecDeque<diskmodel::FaultDecision>);

    impl diskmodel::FaultModel for ScriptedFault {
        fn decide(
            &mut self,
            _now: SimTime,
            _req: &diskmodel::DiskRequest,
        ) -> diskmodel::FaultDecision {
            self.0.pop_front().unwrap_or(diskmodel::FaultDecision::Ok)
        }
    }

    fn scripted_fail(kind: diskmodel::DiskErrorKind) -> Box<ScriptedFault> {
        Box::new(ScriptedFault(
            [diskmodel::FaultDecision::Fail {
                kind,
                stall: SimDuration::from_millis(30),
            }]
            .into(),
        ))
    }

    /// Issues one 8 KB read and drives the world until it completes.
    fn drive_one(w: &mut NfsWorld, now: SimTime, fh: FileHandle, offset: u64) -> OpDone {
        let id = w.read_from(0, now, fh, offset, 8_192, 0);
        loop {
            let t = w.next_event().expect("pending read must progress");
            for d in w.advance(t) {
                if d.id == id {
                    return d;
                }
            }
        }
    }

    #[test]
    fn hard_media_error_surfaces_as_eio_then_remap_recovers() {
        let cfg = WorldConfig {
            client_readahead_blocks: 0,
            ..WorldConfig::default()
        };
        let mut w = make_world(cfg, 9);
        let fh = w.create_file(256 * 1024);
        w.set_disk_fault_model(Some(scripted_fail(diskmodel::DiskErrorKind::HardMedia)));
        assert!(w.disk_fault_active());
        let d = drive_one(&mut w, SimTime::ZERO, fh, 0);
        assert!(
            matches!(d.outcome, OpOutcome::Eio { .. }),
            "hard media error must surface as EIO: {:?}",
            d.outcome
        );
        let s = w.server_stats();
        assert_eq!(s.disk_eios, 1);
        assert_eq!(w.client_stats_for(0).eio_replies, 1);
        assert_eq!(w.contention_stats(0).disk_eios_suffered, 1);
        let bio = w.bio_stats();
        assert_eq!(bio.hard_errors, 1, "{bio:?}");
        assert_eq!(bio.eio, 1, "{bio:?}");
        assert!(w.disk_stats().remapped_sectors > 0);
        // The drive remapped the bad range and both caches dropped the
        // poisoned block, so the same read now succeeds end to end.
        let d2 = drive_one(&mut w, d.done_at, fh, 0);
        assert!(d2.outcome.is_ok(), "after remap: {:?}", d2.outcome);
        assert_eq!(w.server_stats().disk_eios, 1, "no further EIOs");
    }

    #[test]
    fn transient_media_error_is_retried_below_nfs() {
        let cfg = WorldConfig {
            client_readahead_blocks: 0,
            ..WorldConfig::default()
        };
        let mut w = make_world(cfg, 10);
        let fh = w.create_file(256 * 1024);
        w.set_disk_fault_model(Some(scripted_fail(
            diskmodel::DiskErrorKind::TransientMedia,
        )));
        let d = drive_one(&mut w, SimTime::ZERO, fh, 0);
        assert!(
            d.outcome.is_ok(),
            "one transient error recovers: {:?}",
            d.outcome
        );
        let bio = w.bio_stats();
        assert_eq!(bio.retries, 1, "{bio:?}");
        assert_eq!(bio.recovered, 1, "{bio:?}");
        assert_eq!(w.server_stats().disk_eios, 0, "retry is invisible to NFS");
        assert_eq!(w.client_stats_for(0).eio_replies, 0);
    }

    #[test]
    fn empty_fault_model_changes_nothing() {
        // Installing a fault model that never fires must leave the world
        // bit-identical to one without it: `decide` is consulted on the
        // same schedule but draws nothing.
        let run = |faulty: bool| {
            let mut w = make_world(WorldConfig::default(), 11);
            if faulty {
                w.set_disk_fault_model(Some(Box::new(ScriptedFault(Default::default()))));
            }
            let fh = w.create_file(1024 * 1024);
            let mbs = sequential_read(&mut w, fh, 1024 * 1024);
            (mbs.to_bits(), format!("{:?}", w.client_stats_for(0)))
        };
        assert_eq!(run(false), run(true));
    }

    // ------------------------------------------------------------------
    // Async write path (UNSTABLE / COMMIT / write gathering).
    // ------------------------------------------------------------------

    fn async_config() -> WorldConfig {
        WorldConfig {
            stable_how: StableHow::Unstable,
            client_readahead_blocks: 0,
            ..WorldConfig::default()
        }
    }

    /// Drives the world until the given op completes.
    fn drive_op(w: &mut NfsWorld, id: OpId) -> OpDone {
        loop {
            let t = w.next_event().expect("pending op must progress");
            for d in w.advance(t) {
                if d.id == id {
                    return d;
                }
            }
        }
    }

    #[test]
    fn unstable_writes_complete_locally_and_gather_into_one_disk_write() {
        let mut w = make_world(async_config(), 20);
        let fh = w.create_file(512 * 1024);
        // Four adjacent 8 KB writes: four WRITE RPCs, but one disk write.
        for i in 0..4u64 {
            w.write_from(0, SimTime::ZERO, fh, i * 8_192, 8_192, i);
        }
        let done = w.advance(SimTime::ZERO + SimDuration::from_millis(200));
        assert_eq!(done.len(), 4);
        for d in &done {
            assert!(d.outcome.is_ok(), "{:?}", d.outcome);
            // The op returned from the local cache, not the wire: it never
            // waited on the server (a sync WRITE takes milliseconds).
            let lat = d.done_at.since(d.issued_at);
            assert!(
                lat < SimDuration::from_micros(100),
                "async write must complete locally, took {lat:?}"
            );
        }
        let s = w.server_stats();
        assert_eq!(s.unstable_writes, 4, "{s:?}");
        assert_eq!(s.commits, 0, "{s:?}");
        // Write gathering: the 30 ms window coalesced all four blocks into
        // a single contiguous flush.
        assert_eq!(s.gather_flushes, 1, "{s:?}");
        assert_eq!(s.dirty_blocks_stashed, 4, "{s:?}");
        assert_eq!(s.dirty_blocks_flushed, 4, "{s:?}");
        assert_eq!(s.dirty_blocks_lost, 0, "{s:?}");
        assert_eq!(w.server_dirty_blocks(), 0);
        for blk in 0..4 {
            assert!(w.is_durable(fh, blk), "block {blk} must be on disk");
        }
        assert_eq!(w.client_stats_for(0).write_rpcs, 4);
    }

    #[test]
    fn close_commits_uncommitted_data_and_books_balance() {
        let cfg = WorldConfig {
            // A window far beyond the test horizon: only COMMIT can flush.
            gather_window: SimDuration::from_secs(100),
            ..async_config()
        };
        let mut w = make_world(cfg, 21);
        let fh = w.create_file(512 * 1024);
        for i in 0..8u64 {
            w.write_from(0, SimTime::ZERO, fh, i * 8_192, 8_192, i);
        }
        let now = SimTime::ZERO + SimDuration::from_millis(50);
        w.advance(now);
        // All acked UNSTABLE, nothing flushed, nothing durable yet.
        assert_eq!(w.client_uncommitted_blocks(0), 8);
        assert_eq!(w.server_dirty_blocks(), 8);
        assert!(!w.is_durable(fh, 0));
        let id = w.close_from(0, now, fh, 99);
        let d = drive_op(&mut w, id);
        assert!(d.outcome.is_ok(), "{:?}", d.outcome);
        let c = w.client_stats_for(0);
        assert_eq!(c.closes, 1);
        assert_eq!(c.commit_rpcs, 1);
        assert_eq!(c.verifier_mismatches, 0);
        assert_eq!(w.client_uncommitted_blocks(0), 0);
        let s = w.server_stats();
        assert_eq!(s.commits, 1, "{s:?}");
        for blk in 0..8 {
            assert!(w.is_durable(fh, blk), "block {blk} must be on disk");
        }
        // Dirty-page conservation: every stashed block was flushed or lost
        // or still sits in the pool.
        assert_eq!(
            s.dirty_blocks_stashed,
            s.dirty_blocks_flushed + s.dirty_blocks_lost + w.server_dirty_blocks(),
            "{s:?}"
        );
    }

    #[test]
    fn server_restart_forces_verifier_mismatch_and_rewrite() {
        let cfg = WorldConfig {
            gather_window: SimDuration::from_secs(100),
            ..async_config()
        };
        let mut w = make_world(cfg, 22);
        let fh = w.create_file(512 * 1024);
        for i in 0..8u64 {
            w.write_from(0, SimTime::ZERO, fh, i * 8_192, 8_192, i);
        }
        let now = SimTime::ZERO + SimDuration::from_millis(50);
        w.advance(now);
        assert_eq!(w.client_uncommitted_blocks(0), 8);
        let verf_before = w.server_write_verf();
        // The server reboots with eight dirty blocks in its pool: they are
        // gone, and the verifier says so.
        w.restart_server(now);
        assert_ne!(w.server_write_verf(), verf_before);
        assert_eq!(w.server_dirty_blocks(), 0);
        let s = w.server_stats();
        assert_eq!(s.restarts, 1);
        assert_eq!(s.dirty_blocks_lost, 8, "{s:?}");
        assert!(!w.is_durable(fh, 0));
        // close(): COMMIT sees the new verifier, re-dirties every block,
        // rewrites, re-COMMITs, and still returns Ok — no data lost.
        let id = w.close_from(0, now, fh, 99);
        let d = drive_op(&mut w, id);
        assert!(d.outcome.is_ok(), "{:?}", d.outcome);
        let c = w.client_stats_for(0);
        assert_eq!(c.verifier_mismatches, 1, "{c:?}");
        assert_eq!(c.blocks_rewritten, 8, "{c:?}");
        assert_eq!(c.commit_rpcs, 2, "{c:?}");
        for blk in 0..8 {
            assert!(w.is_durable(fh, blk), "block {blk} must be on disk");
        }
        let s = w.server_stats();
        assert_eq!(
            s.dirty_blocks_stashed,
            s.dirty_blocks_flushed + s.dirty_blocks_lost + w.server_dirty_blocks(),
            "{s:?}"
        );
    }

    #[test]
    fn committed_data_survives_a_restart() {
        let mut w = make_world(async_config(), 23);
        let fh = w.create_file(512 * 1024);
        for i in 0..4u64 {
            w.write_from(0, SimTime::ZERO, fh, i * 8_192, 8_192, i);
        }
        let now = SimTime::ZERO + SimDuration::from_millis(50);
        w.advance(now);
        let id = w.close_from(0, now, fh, 99);
        let d = drive_op(&mut w, id);
        assert!(d.outcome.is_ok(), "{:?}", d.outcome);
        w.restart_server(d.done_at);
        // Nothing was in the dirty pool: a crash after a successful close
        // loses nothing.
        assert_eq!(w.server_stats().dirty_blocks_lost, 0);
        for blk in 0..4 {
            assert!(w.is_durable(fh, blk), "block {blk} survives the crash");
        }
    }

    #[test]
    fn flush_errors_are_latched_and_surface_at_commit() {
        let cfg = WorldConfig {
            gather_window: SimDuration::from_secs(100),
            ..async_config()
        };
        let mut w = make_world(cfg, 24);
        let fh = w.create_file(512 * 1024);
        w.write_from(0, SimTime::ZERO, fh, 0, 8_192, 0);
        let now = SimTime::ZERO + SimDuration::from_millis(50);
        w.advance(now);
        assert_eq!(w.client_uncommitted_blocks(0), 1);
        // The first disk command — the COMMIT-forced flush — fails hard.
        // The WRITE already succeeded (it only reached the pool), so the
        // error must be latched and reported by COMMIT, failing close().
        w.set_disk_fault_model(Some(scripted_fail(diskmodel::DiskErrorKind::HardMedia)));
        let id = w.close_from(0, now, fh, 99);
        let d = drive_op(&mut w, id);
        assert!(
            matches!(d.outcome, OpOutcome::Eio { .. }),
            "lost async write must surface at COMMIT: {:?}",
            d.outcome
        );
        assert!(w.client_stats_for(0).eio_replies >= 1);
        // Soft-mount semantics: the failed file's tracking is dropped.
        assert_eq!(w.client_uncommitted_blocks(0), 0);
    }

    #[test]
    fn a_failed_gather_flush_stays_latched_until_a_commit_reports_it() {
        // The gather window, not a COMMIT, flushes the block, and the
        // flush fails with no COMMIT parked on it. The error must wait
        // for the next COMMIT instead of vanishing with the flush.
        let cfg = WorldConfig {
            gather_window: SimDuration::from_millis(5),
            ..async_config()
        };
        let mut w = make_world(cfg, 26);
        let fh = w.create_file(512 * 1024);
        w.set_disk_fault_model(Some(scripted_fail(diskmodel::DiskErrorKind::HardMedia)));
        w.write_from(0, SimTime::ZERO, fh, 0, 8_192, 0);
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        w.advance(now);
        let s = w.server_stats();
        assert_eq!((s.gather_flushes, s.commits), (1, 0));
        assert_eq!(w.bio_stats().eio, 1, "the gather flush failed");
        assert!(!w.is_durable(fh, 0));
        assert_eq!(w.client_uncommitted_blocks(0), 1);
        let id = w.close_from(0, now, fh, 99);
        let d = drive_op(&mut w, id);
        assert!(
            matches!(d.outcome, OpOutcome::Eio { .. }),
            "a failed async flush must surface at the next COMMIT: {:?}",
            d.outcome
        );
        assert_eq!(w.client_uncommitted_blocks(0), 0);
        // Reported once: the latch is clear for the next COMMIT.
        w.write_from(0, d.done_at, fh, 8_192, 8_192, 0);
        let id = w.close_from(0, d.done_at, fh, 100);
        let d = drive_op(&mut w, id);
        assert!(d.outcome.is_ok(), "{:?}", d.outcome);
        assert!(w.is_durable(fh, 1));
    }

    #[test]
    fn unknown_inode_numbers_are_stale_and_grow_no_server_books() {
        let mut w = make_world(WorldConfig::default(), 27);
        let files = [w.create_file(64 * 1024), w.create_server_file(64 * 1024)];
        let past_last = files[1].ino + 1;
        let ext = w.register_external_client();
        let mut xid = 0;
        for ino in [0, 1, past_last, u64::MAX] {
            let fh = FileHandle {
                fsid: 1,
                ino,
                generation: 1,
            };
            let calls = [
                NfsCall::Getattr { fh },
                NfsCall::Read {
                    fh,
                    offset: 0,
                    count: 8_192,
                },
                NfsCall::Write {
                    fh,
                    offset: 0,
                    count: 8_192,
                    stable: StableHow::Unstable,
                },
                NfsCall::Write {
                    fh,
                    offset: 0,
                    count: 8_192,
                    stable: StableHow::FileSync,
                },
                NfsCall::Commit {
                    fh,
                    offset: 0,
                    count: 0,
                },
            ];
            for call in calls {
                xid += 1;
                w.external_call(w.now(), ext, xid, call);
            }
        }
        while let Some(t) = w.next_event() {
            w.advance(t);
        }
        let replies = w.take_external_replies();
        assert_eq!(replies.len(), 20);
        for r in &replies {
            assert_eq!(r.reply.status(), NfsStatus::Stale, "{r:?}");
        }
        assert_eq!(w.server.inodes.len(), files.len());
        assert_eq!(w.server.inodes.len(), w.fs().file_count());
        assert_eq!(w.server_dirty_blocks(), 0);
        assert_eq!(w.server_attr_version(past_last), 0);
        assert!(!w.is_durable(
            FileHandle {
                ino: u64::MAX,
                ..files[0]
            },
            0
        ));
    }

    #[test]
    fn extending_write_grows_the_file_on_both_ends() {
        // Regression: writes past EOF used to panic ("write beyond EOF");
        // NFSv3 WRITE extends the file instead (RFC 1813 §3.3.7).
        let cfg = WorldConfig {
            client_readahead_blocks: 0,
            ..WorldConfig::default()
        };
        let mut w = make_world(cfg, 25);
        let fh = w.create_file(64 * 1024);
        let id = w.write_from(0, SimTime::ZERO, fh, 64 * 1024, 8_192, 0);
        let d = drive_op(&mut w, id);
        assert!(d.outcome.is_ok(), "extending write: {:?}", d.outcome);
        // The sync write-through put the new block on disk.
        assert!(w.is_durable(fh, 8));
        // And the extended region is readable end to end.
        let id = w.read_from(0, d.done_at, fh, 64 * 1024, 8_192, 1);
        let d = drive_op(&mut w, id);
        assert!(d.outcome.is_ok(), "read of extension: {:?}", d.outcome);
        // On a FILE_SYNC mount close is a local no-op: no COMMIT traffic.
        let id = w.close_from(0, d.done_at, fh, 2);
        let d = drive_op(&mut w, id);
        assert!(d.outcome.is_ok(), "{:?}", d.outcome);
        let c = w.client_stats_for(0);
        assert_eq!(c.commit_rpcs, 0);
        assert_eq!(c.closes, 1);
        assert_eq!(w.server_stats().commits, 0);
    }

    #[test]
    fn async_write_worlds_are_deterministic() {
        let run = |seed| {
            let cfg = WorldConfig {
                gather_window: SimDuration::from_millis(5),
                ..async_config()
            };
            let mut w = make_world(cfg, seed);
            let fh = w.create_file(512 * 1024);
            for i in 0..16u64 {
                w.write_from(0, SimTime::ZERO, fh, i * 8_192, 8_192, i);
            }
            let now = SimTime::ZERO + SimDuration::from_millis(20);
            w.advance(now);
            w.restart_server(now);
            let id = w.close_from(0, now, fh, 99);
            let d = drive_op(&mut w, id);
            assert!(d.outcome.is_ok(), "{:?}", d.outcome);
            (
                d.done_at,
                format!("{:?}", w.client_stats_for(0)),
                format!("{:?}", w.server_stats()),
            )
        };
        assert_eq!(run(30), run(30));
        assert_ne!(run(30), run(31));
    }
}
