//! The file system proper: inodes + buffer cache + cluster read-ahead.
//!
//! The read path mirrors FreeBSD's: a read of file block *b* that misses
//! the buffer cache triggers a *cluster read* — one disk request covering
//! `b` and up to seven physically contiguous following blocks — and, when
//! the caller's sequentiality count (`seqcount`) is high enough,
//! asynchronous read-ahead of further clusters. How much read-ahead is
//! performed scales with `seqcount`, which is exactly the knob the NFS
//! server's `nfsheur` heuristics drive (§6 of the paper): the FreeBSD NFS
//! server passes its per-file-handle sequentiality estimate into `VOP_READ`
//! because stateless NFS has no open file descriptor to carry one.
//!
//! All operations are asynchronous: [`FileSystem::read`] returns a
//! [`ReadId`]; completions surface from [`FileSystem::advance_into`].
//!
//! The file system reports its next deadline rather than being polled for
//! it: every `&mut self` method that can move the deadline (`read`,
//! `write`, `advance_into`, `flush_caches`, `set_scheduler`, `set_tcq`,
//! `set_fault_model`) recomputes it at its end, and
//! [`FileSystem::next_event`] reads the cached value. Nothing outside the
//! file system can reach the drive mutably, so nothing can move the
//! deadline behind its back.

use diskmodel::{Completion, DeviceModel, Disk, DiskRequest, FaultModel, TcqConfig};
use iosched::SchedulerKind;
use simcore::{FastMap, IdWindow, SimRng, SimTime, Waitlist};

use crate::alloc::{Allocator, Inode, BLOCK_BYTES, BLOCK_SECTORS, CLUSTER_BLOCKS, FIRST_INO};
use crate::bcache::{BlockKey, BufferCache};
use crate::bio::BioLayer;

/// The ceiling the OS imposes on sequentiality counts (the paper: "seqCount
/// is never allowed to grow higher than 127, due to the implementation of
/// the lower levels of the operating system").
pub const SEQCOUNT_MAX: u32 = 127;

/// Minimum `seqcount` at which clustering and read-ahead kick in.
const READAHEAD_THRESHOLD: u32 = 2;

/// File-system tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct FsConfig {
    /// Ceiling on the read-ahead window, in blocks.
    pub max_readahead_blocks: u64,
    /// Buffer-cache capacity in blocks (sized from machine RAM).
    pub cache_blocks: usize,
    /// Fraction of cluster-sized allocation runs that get displaced, as
    /// on a file system aged by create/delete traffic; 0.0 = fresh.
    pub aging: f64,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            max_readahead_blocks: 32,
            cache_blocks: 20_000, // ~160 MB of a 256 MB server
            aging: 0.0,
        }
    }
}

/// Identifies an outstanding read or write operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReadId(pub u64);

/// How an operation's disk I/O ended. The bio layer has already retried
/// transient errors and remapped hard ones; by the time a status reaches
/// here it is terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoStatus {
    /// Every needed block arrived.
    Ok,
    /// At least one underlying disk request failed unrecoverably.
    Eio,
}

impl IoStatus {
    /// Whether the operation succeeded.
    pub fn is_ok(self) -> bool {
        self == IoStatus::Ok
    }
}

/// A finished operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDone {
    /// The id returned by `read`/`write`.
    pub id: ReadId,
    /// Caller-provided routing tag.
    pub tag: u64,
    /// When the operation was issued.
    pub issued_at: SimTime,
    /// When the last needed block arrived (or the last failure landed).
    pub done_at: SimTime,
    /// Terminal success/EIO status.
    pub status: IoStatus,
}

/// Running counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsStats {
    /// Synchronous (demand) disk reads issued.
    pub sync_reads: u64,
    /// Asynchronous read-ahead disk reads issued.
    pub readahead_reads: u64,
    /// Blocks delivered from the buffer cache without disk I/O.
    pub cache_hit_blocks: u64,
    /// Blocks that required disk I/O.
    pub miss_blocks: u64,
    /// Writes issued.
    pub writes: u64,
    /// Operations that completed with [`IoStatus::Eio`].
    pub io_errors: u64,
}

#[derive(Debug, Clone, Copy)]
struct IoSpan {
    ino: u64,
    first_blk: u64,
    nblocks: u64,
    /// The write operation this span belongs to; `None` for reads, whose
    /// waiters sit on each block in `waiters`.
    writer: Option<ReadId>,
}

#[derive(Debug)]
struct Ticket {
    tag: u64,
    issued_at: SimTime,
    outstanding: usize,
    /// Set when any block of the operation came back EIO.
    failed: bool,
}

/// The earlier of two optional instants.
fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// An FFS-like file system on one partition of one drive.
#[derive(Debug)]
pub struct FileSystem {
    config: FsConfig,
    bio: BioLayer,
    alloc: Allocator,
    /// Inode `ino` at index `ino - FIRST_INO` (numbers are dense).
    inodes: Vec<Inode>,
    cache: BufferCache,
    /// Disk I/Os in flight, by io tag.
    io_spans: IdWindow<IoSpan>,
    next_io_tag: u64,
    waiters: FastMap<BlockKey, Waitlist<ReadId>>,
    /// Unfinished operations, by `ReadId`.
    tickets: IdWindow<Ticket>,
    ready: Vec<OpDone>,
    next_read_id: u64,
    stats: FsStats,
    /// Scratch for the bio layer's completions in `advance_into`.
    bio_done: Vec<Completion>,
    /// `bio.next_event()` as of the last refresh.
    bio_next: Option<SimTime>,
    /// The earliest `done_at` on the ready list as of the last refresh.
    ready_next: Option<SimTime>,
    /// Set by `set_tcq`: the next `advance_into` must reach the bio layer
    /// even with nothing due, so it fills the slots a deeper queue opened.
    bio_kick: bool,
}

impl FileSystem {
    /// Formats a file system on `partition` of `disk`.
    pub fn format(
        disk: Disk,
        partition: diskmodel::Partition,
        sched: SchedulerKind,
        config: FsConfig,
    ) -> Self {
        Self::format_on(Box::new(disk), partition, sched, config)
    }

    /// Formats a file system on `partition` of any storage device.
    pub fn format_on(
        device: Box<dyn DeviceModel>,
        partition: diskmodel::Partition,
        sched: SchedulerKind,
        config: FsConfig,
    ) -> Self {
        FileSystem {
            bio: BioLayer::with_device(device, sched),
            alloc: Allocator::new(partition, config.aging),
            inodes: Vec::new(),
            cache: BufferCache::new(config.cache_blocks),
            io_spans: IdWindow::default(),
            next_io_tag: 0,
            waiters: FastMap::default(),
            tickets: IdWindow::default(),
            ready: Vec::new(),
            next_read_id: 0,
            config,
            stats: FsStats::default(),
            bio_done: Vec::new(),
            bio_next: None,
            ready_next: None,
            bio_kick: false,
        }
    }

    /// The index of `ino` in `inodes`, if it can be a file's number.
    #[inline]
    fn slot(ino: u64) -> Option<usize> {
        usize::try_from(ino.checked_sub(FIRST_INO)?).ok()
    }

    /// `(bio layer's next event, earliest ready completion)`, computed
    /// afresh.
    fn deadlines(&self) -> (Option<SimTime>, Option<SimTime>) {
        let ready = self.ready.iter().map(|d| d.done_at).min();
        (self.bio.next_event(), ready)
    }

    /// Recomputes the cached deadlines; every `&mut self` method that can
    /// move them ends with this call.
    fn refresh_deadline(&mut self) {
        (self.bio_next, self.ready_next) = self.deadlines();
    }

    /// Creates a file of `size` bytes and returns its inode number.
    pub fn create_file(&mut self, size: u64, rng: &mut SimRng) -> u64 {
        let inode = self.alloc.create_file(size, rng);
        let ino = inode.ino;
        assert_eq!(
            Self::slot(ino),
            Some(self.inodes.len()),
            "inode numbers are dense"
        );
        self.inodes.push(inode);
        ino
    }

    /// Extends `ino` to cover at least `new_size` bytes (an extending
    /// write): new blocks come from the allocation frontier, so a file
    /// grown after later allocations becomes fragmented, as on a real FFS.
    /// Growing to a size the file already covers is a no-op. `rng` drives
    /// aging decisions only; a fresh file system never consults it.
    ///
    /// # Panics
    ///
    /// Panics if the inode does not exist.
    pub fn extend_file(&mut self, ino: u64, new_size: u64, rng: &mut SimRng) {
        let inode = Self::slot(ino)
            .and_then(|i| self.inodes.get_mut(i))
            .expect("extend of unknown inode");
        self.alloc.extend_file(inode, new_size, rng);
    }

    /// Bytes still free for file data on the partition.
    pub fn free_bytes(&self) -> u64 {
        self.alloc.free_bytes()
    }

    /// Looks up an inode (`None` for a number no file has, 0 and 1
    /// included).
    #[inline]
    pub fn inode(&self, ino: u64) -> Option<&Inode> {
        self.inodes.get(Self::slot(ino)?)
    }

    /// Files created so far: their numbers run from [`FIRST_INO`] to
    /// `FIRST_INO + file_count() - 1`.
    pub fn file_count(&self) -> usize {
        self.inodes.len()
    }

    /// Counters.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    /// The absolute LBA span holding this file system's allocated data
    /// (see [`Allocator::allocated_span`]).
    pub fn allocated_span(&self) -> (diskmodel::Lba, u64) {
        self.alloc.allocated_span()
    }

    /// The block-I/O layer (scheduler and drive access).
    pub fn bio(&self) -> &BioLayer {
        &self.bio
    }

    /// Switches the kernel disk scheduler at runtime.
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.bio.set_scheduler(kind);
        self.refresh_deadline();
    }

    /// Installs (or clears, with `None`) the drive's fault model.
    pub fn set_fault_model(&mut self, model: Option<Box<dyn FaultModel>>) {
        self.bio.device_mut().set_fault_model(model);
        self.refresh_deadline();
    }

    /// The current tuning parameters.
    pub fn config(&self) -> FsConfig {
        self.config
    }

    /// Adjusts the read-ahead window ceiling at runtime (the `autotune`
    /// controller's server-side knob). In-flight read-ahead is unaffected;
    /// the new ceiling applies from the next read.
    pub fn set_max_readahead_blocks(&mut self, blocks: u64) {
        self.config.max_readahead_blocks = blocks;
    }

    /// Reconfigures the drive's tagged command queue. Queue slots a
    /// deeper queue opens are filled at the next [`FileSystem::advance_into`].
    pub fn set_tcq(&mut self, tcq: TcqConfig) {
        self.bio.set_tcq(tcq);
        self.bio_kick = true;
        self.refresh_deadline();
    }

    /// Drops all cached data, in the kernel and in the drive (§4.3.1's
    /// cache-defeating discipline between benchmark runs).
    pub fn flush_caches(&mut self) {
        self.cache.flush();
        self.bio.device_mut().flush_cache();
        self.refresh_deadline();
    }

    /// Starts a read of `bytes` at byte `offset` of `ino`.
    ///
    /// `seqcount` is the caller's sequentiality estimate (0..=127), which
    /// controls how much read-ahead is performed. `tag` is returned in the
    /// completion for routing.
    ///
    /// # Panics
    ///
    /// Panics if the inode does not exist or the range is beyond EOF.
    pub fn read(
        &mut self,
        now: SimTime,
        ino: u64,
        offset: u64,
        bytes: u64,
        seqcount: u32,
        tag: u64,
    ) -> ReadId {
        assert!(bytes > 0, "zero-length read");
        let inode = self.inode(ino).expect("read of unknown inode");
        assert!(
            offset + bytes <= inode.size.max(inode.num_blocks() * BLOCK_BYTES),
            "read beyond EOF: {offset}+{bytes} > {}",
            inode.size
        );
        let id = ReadId(self.next_read_id);
        self.next_read_id += 1;
        let first_blk = offset / BLOCK_BYTES;
        let last_blk = (offset + bytes - 1) / BLOCK_BYTES;

        let mut outstanding = 0usize;
        let mut blk = first_blk;
        while blk <= last_blk {
            let key = (ino, blk);
            if self.cache.lookup(key) {
                self.stats.cache_hit_blocks += 1;
                blk += 1;
                continue;
            }
            if self.cache.is_pending(key) {
                self.stats.miss_blocks += 1;
                Waitlist::push_to(&mut self.waiters, key, id);
                outstanding += 1;
                blk += 1;
                continue;
            }
            // Demand read. Only a caller that looks sequential earns a
            // cluster read; with no sequentiality evidence FreeBSD reads
            // the one block it was asked for — this is precisely the cost
            // of a collapsed seqcount (§6 of the paper).
            let max_run = if seqcount >= READAHEAD_THRESHOLD {
                CLUSTER_BLOCKS
            } else {
                1
            };
            let run = self
                .cluster_run(ino, blk, max_run)
                // Never split a multi-block request into single-block I/Os.
                .max(
                    self.cluster_run(ino, blk, last_blk - blk + 1)
                        .min(last_blk - blk + 1),
                );
            for b in blk..blk + run {
                self.cache.mark_pending((ino, b));
            }
            self.stats.miss_blocks += 1;
            Waitlist::push_to(&mut self.waiters, key, id);
            outstanding += 1;
            // Blocks of this cluster that the read also needs get waiters.
            for b in (blk + 1)..(blk + run).min(last_blk + 1) {
                self.stats.miss_blocks += 1;
                Waitlist::push_to(&mut self.waiters, (ino, b), id);
                outstanding += 1;
            }
            self.submit_io(now, ino, blk, run, false);
            blk += run;
        }

        // Read-ahead beyond the requested range, scaled by seqcount.
        if seqcount >= READAHEAD_THRESHOLD {
            let window =
                u64::from(seqcount.min(SEQCOUNT_MAX)).min(self.config.max_readahead_blocks);
            self.readahead(now, ino, last_blk + 1, window);
        }

        self.tickets.insert(
            id.0,
            Ticket {
                tag,
                issued_at: now,
                outstanding,
                failed: false,
            },
        );
        if outstanding == 0 {
            self.complete(id, now);
        }
        self.refresh_deadline();
        id
    }

    /// Starts a write of `bytes` at `offset` (write-through, no delayed
    /// write modelling; used by the mixed-workload extension).
    ///
    /// # Panics
    ///
    /// Panics if the inode does not exist or the range is beyond EOF.
    pub fn write(&mut self, now: SimTime, ino: u64, offset: u64, bytes: u64, tag: u64) -> ReadId {
        assert!(bytes > 0, "zero-length write");
        // Borrows only `inodes`: the loop below updates other fields.
        let inode = Self::slot(ino)
            .and_then(|i| self.inodes.get(i))
            .expect("write to unknown inode");
        assert!(
            offset + bytes <= inode.num_blocks() * BLOCK_BYTES,
            "write beyond EOF"
        );
        let id = ReadId(self.next_read_id);
        self.next_read_id += 1;
        let first_blk = offset / BLOCK_BYTES;
        let last_blk = (offset + bytes - 1) / BLOCK_BYTES;
        let mut outstanding = 0;
        let mut blk = first_blk;
        while blk <= last_blk {
            self.cache.invalidate((ino, blk));
            let run = self
                .contiguous_run(inode, blk)
                .min(last_blk - blk + 1)
                .min(CLUSTER_BLOCKS);
            let io_tag = self.next_io_tag;
            self.next_io_tag += 1;
            self.io_spans.insert(
                io_tag,
                IoSpan {
                    ino,
                    first_blk: blk,
                    nblocks: run,
                    writer: Some(id),
                },
            );
            outstanding += 1;
            self.bio.submit(
                now,
                DiskRequest::write(inode.lba_of(blk), run * BLOCK_SECTORS, io_tag),
            );
            self.stats.writes += 1;
            blk += run;
        }
        self.tickets.insert(
            id.0,
            Ticket {
                tag,
                issued_at: now,
                outstanding,
                failed: false,
            },
        );
        if outstanding == 0 {
            self.complete(id, now);
        }
        self.refresh_deadline();
        id
    }

    /// Earliest instant at which `advance_into` will produce a completion
    /// (a cached value; see the module docs).
    #[inline]
    pub fn next_event(&self) -> Option<SimTime> {
        debug_assert_eq!(
            (self.bio_next, self.ready_next),
            self.deadlines(),
            "cached deadline is stale"
        );
        earliest(self.bio_next, self.ready_next)
    }

    /// Delivers every operation that finishes at or before `now` into a
    /// fresh `Vec` (see [`FileSystem::advance_into`]).
    pub fn advance(&mut self, now: SimTime) -> Vec<OpDone> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Delivers every operation that finishes at or before `now`,
    /// appending them to `out` in `(done_at, id)` order.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<OpDone>) {
        // With nothing due below, the bio layer's advance would find no
        // completion, no due retry and no free slot to fill.
        if self.bio_kick || self.bio_next.is_some_and(|t| t <= now) {
            self.bio_kick = false;
            let mut done = std::mem::take(&mut self.bio_done);
            self.bio.advance_into(now, &mut done);
            for c in done.drain(..) {
                self.io_done(c);
            }
            self.bio_done = done;
        }
        if self.ready_next.is_some_and(|t| t <= now) {
            let first = out.len();
            out.extend(self.ready.extract_if(.., |d| d.done_at <= now));
            out[first..].sort_by_key(|d| (d.done_at, d.id));
        }
        self.refresh_deadline();
    }

    /// Routes one finished disk I/O to the operations waiting on it.
    fn io_done(&mut self, c: Completion) {
        let span = self
            .io_spans
            .remove(c.request.tag)
            .expect("completion for unknown io tag");
        let failed = !c.is_ok();
        match c.request.op {
            diskmodel::DiskOp::Read => {
                for b in span.first_blk..span.first_blk + span.nblocks {
                    let key = (span.ino, b);
                    if failed {
                        // No data arrived: release the pending marks so a
                        // later read can retry the disk (which now succeeds
                        // if the range was remapped).
                        self.cache.discard(key);
                    } else {
                        self.cache.fill(key);
                    }
                    if let Some(waiting) = self.waiters.remove(&key) {
                        for id in waiting {
                            self.block_arrived(id, c.completed_at, failed);
                        }
                    }
                }
            }
            diskmodel::DiskOp::Write => {
                if let Some(id) = span.writer {
                    self.block_arrived(id, c.completed_at, failed);
                }
            }
        }
    }

    /// Length of the physically contiguous, uncached, unpending run starting
    /// at block `blk` of `ino`, capped at `max` blocks and the file end.
    fn cluster_run(&self, ino: u64, blk: u64, max: u64) -> u64 {
        let inode = self.inode(ino).expect("known inode");
        let mut run = 1;
        while run < max
            && blk + run < inode.num_blocks()
            && inode.contiguous(blk + run - 1)
            && !self.cache.holds((ino, blk + run))
        {
            run += 1;
        }
        run
    }

    /// Length of the physically contiguous run starting at `blk` (ignores
    /// cache state; used by the write path).
    fn contiguous_run(&self, inode: &Inode, blk: u64) -> u64 {
        let mut run = 1;
        while blk + run < inode.num_blocks() && inode.contiguous(blk + run - 1) {
            run += 1;
        }
        run
    }

    /// Issues asynchronous read-ahead covering up to `window` blocks
    /// starting at `from`.
    ///
    /// Read-ahead is issued in cluster-aligned chunks (as FreeBSD's
    /// `cluster_read` does): a sliding 8 KB-granular window would otherwise
    /// degenerate into single-block I/Os at the frontier.
    fn readahead(&mut self, now: SimTime, ino: u64, from: u64, window: u64) {
        let end = (from + window).min(self.inode(ino).expect("known inode").num_blocks());
        let cluster = CLUSTER_BLOCKS;
        // First cluster boundary at or after `from`.
        let mut blk = from.div_ceil(cluster) * cluster;
        while blk < end {
            let key = (ino, blk);
            if self.cache.holds(key) {
                blk += cluster;
                continue;
            }
            let run = self.cluster_run(ino, blk, cluster);
            for b in blk..blk + run {
                self.cache.mark_pending((ino, b));
            }
            self.submit_io(now, ino, blk, run, true);
            blk += cluster;
        }
    }

    fn submit_io(&mut self, now: SimTime, ino: u64, first_blk: u64, nblocks: u64, ra: bool) {
        let lba = self.inode(ino).expect("known inode").lba_of(first_blk);
        let io_tag = self.next_io_tag;
        self.next_io_tag += 1;
        self.io_spans.insert(
            io_tag,
            IoSpan {
                ino,
                first_blk,
                nblocks,
                writer: None,
            },
        );
        if ra {
            self.stats.readahead_reads += 1;
        } else {
            self.stats.sync_reads += 1;
        }
        self.bio
            .submit(now, DiskRequest::read(lba, nblocks * BLOCK_SECTORS, io_tag));
    }

    fn block_arrived(&mut self, id: ReadId, at: SimTime, failed: bool) {
        let Some(t) = self.tickets.get_mut(id.0) else {
            return;
        };
        if failed {
            t.failed = true;
        }
        t.outstanding = t.outstanding.saturating_sub(1);
        if t.outstanding == 0 {
            self.complete(id, at);
        }
    }

    fn complete(&mut self, id: ReadId, at: SimTime) {
        let t = self.tickets.remove(id.0).expect("double completion");
        let status = if t.failed {
            self.stats.io_errors += 1;
            IoStatus::Eio
        } else {
            IoStatus::Ok
        };
        self.ready.push(OpDone {
            id,
            tag: t.tag,
            issued_at: t.issued_at,
            done_at: at,
            status,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::{DriveModel, PartitionTable};

    fn make_fs() -> FileSystem {
        let model = DriveModel::WdWd200bbIde;
        let disk = model.build(SimRng::new(11));
        let part = PartitionTable::quarters(disk.geometry()).get(1);
        FileSystem::format(disk, part, SchedulerKind::Elevator, FsConfig::default())
    }

    fn run_until(fs: &mut FileSystem, mut pending: usize) -> Vec<OpDone> {
        let mut done = Vec::new();
        let mut guard = 0;
        while pending > 0 {
            guard += 1;
            assert!(guard < 1_000_000, "event loop stuck");
            let t = fs.next_event().expect("no events while reads pending");
            for d in fs.advance(t) {
                pending -= 1;
                done.push(d);
            }
        }
        done
    }

    /// Fails the next `n` commands with a transient media error.
    #[derive(Debug)]
    struct FailNext(u32);

    impl FaultModel for FailNext {
        fn decide(&mut self, _now: SimTime, _req: &DiskRequest) -> diskmodel::FaultDecision {
            if self.0 == 0 {
                return diskmodel::FaultDecision::Ok;
            }
            self.0 -= 1;
            diskmodel::FaultDecision::Fail {
                kind: diskmodel::DiskErrorKind::TransientMedia,
                stall: simcore::SimDuration::from_millis(5),
            }
        }
    }

    #[track_caller]
    fn assert_fresh(fs: &FileSystem) {
        assert_eq!(
            (fs.bio_next, fs.ready_next),
            fs.deadlines(),
            "stale deadline"
        );
    }

    #[test]
    fn cached_deadline_tracks_every_state_change() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(4 * 1024 * 1024, &mut rng);
        assert_eq!(fs.next_event(), None);
        fs.set_fault_model(Some(Box::new(FailNext(2))));
        assert_fresh(&fs);
        // Six scattered single-block reads: one in the drive, five queued
        // in the kernel (no tagged queueing yet).
        for i in 0..6u64 {
            fs.read(SimTime::ZERO, ino, i * 64 * BLOCK_BYTES, BLOCK_BYTES, 0, i);
            assert_fresh(&fs);
        }
        assert_eq!(fs.bio().queued(), 5);

        // The first command fails transiently: its retry waits out its
        // backoff in the bio layer, and the deadline must include it.
        let mut done = Vec::new();
        let t1 = fs.next_event().expect("a read is in the drive");
        fs.advance_into(t1, &mut done);
        assert_fresh(&fs);
        assert!(done.is_empty());
        assert_eq!(fs.bio().deferred_retries(), 1);

        // A deeper tagged queue: the next advance fills it even though
        // nothing is due at `t1`.
        fs.set_tcq(TcqConfig {
            enabled: true,
            depth: 8,
            aging_factor: 0.0,
        });
        assert_fresh(&fs);
        fs.advance_into(t1, &mut done);
        assert_fresh(&fs);
        assert_eq!(
            fs.bio().queued(),
            0,
            "the kernel queue drained into the drive"
        );
        assert!(fs.bio().disk().outstanding() > 1);

        fs.flush_caches();
        assert_fresh(&fs);
        fs.set_scheduler(SchedulerKind::NCscan);
        assert_fresh(&fs);

        let mut steps = 0;
        while let Some(t) = fs.next_event() {
            steps += 1;
            assert!(steps < 1_000, "event loop stuck");
            fs.advance_into(t, &mut done);
            assert_fresh(&fs);
        }
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|d| d.status.is_ok()));
        assert_eq!(fs.bio().stats().retries, 2);
        assert_eq!(fs.bio().deferred_retries(), 0);
    }

    #[test]
    fn unknown_inode_numbers_are_absent() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let a = fs.create_file(8192, &mut rng);
        let b = fs.create_file(8192, &mut rng);
        assert_eq!((a, b), (2, 3), "numbers are dense from 2");
        assert_eq!(fs.inode(b).map(|i| i.ino), Some(b));
        for ino in [0, 1, 4, u64::MAX] {
            assert!(fs.inode(ino).is_none(), "ino {ino}");
        }
    }

    #[test]
    fn read_of_uncached_block_hits_disk() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(1024 * 1024, &mut rng);
        fs.read(SimTime::ZERO, ino, 0, 8192, 0, 7);
        let done = run_until(&mut fs, 1);
        assert_eq!(done[0].tag, 7);
        assert!(done[0].done_at > SimTime::ZERO);
        assert_eq!(fs.stats().sync_reads, 1);
    }

    #[test]
    fn cached_read_completes_at_issue_time() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(1024 * 1024, &mut rng);
        fs.read(SimTime::ZERO, ino, 0, 8192, 0, 0);
        let done = run_until(&mut fs, 1);
        let t1 = done[0].done_at;
        // Same block again: served from the buffer cache instantly.
        fs.read(t1, ino, 0, 8192, 0, 1);
        let done2 = run_until(&mut fs, 1);
        assert_eq!(done2[0].done_at, t1);
        assert_eq!(fs.stats().cache_hit_blocks, 1);
    }

    #[test]
    fn cluster_read_covers_following_blocks() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(1024 * 1024, &mut rng);
        // seqcount 2 = sequential evidence, so the demand read clusters.
        fs.read(SimTime::ZERO, ino, 0, 8192, 2, 0);
        let done = run_until(&mut fs, 1);
        // Blocks 1..8 arrived with the cluster; reading them is free.
        fs.read(done[0].done_at, ino, 7 * 8192, 8192, 0, 1);
        let done2 = run_until(&mut fs, 1);
        assert_eq!(done2[0].done_at, done[0].done_at);
        assert_eq!(fs.stats().sync_reads, 1, "no second disk read");
    }

    #[test]
    fn high_seqcount_triggers_readahead() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(4 * 1024 * 1024, &mut rng);
        fs.read(SimTime::ZERO, ino, 0, 8192, 127, 0);
        run_until(&mut fs, 1);
        assert!(
            fs.stats().readahead_reads >= 3,
            "window of 32 blocks should issue several RA clusters: {:?}",
            fs.stats()
        );
        // Drain the read-ahead I/O.
        while let Some(t) = fs.next_event() {
            fs.advance(t);
        }
        // Block 31 must now be cached.
        let t = SimTime::from_nanos(u64::MAX / 2);
        fs.read(t, ino, 31 * 8192, 8192, 0, 1);
        let done = run_until(&mut fs, 1);
        assert_eq!(done[0].done_at, t, "read-ahead data should be resident");
    }

    #[test]
    fn zero_seqcount_reads_no_ahead() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(1024 * 1024, &mut rng);
        fs.read(SimTime::ZERO, ino, 0, 8192, 0, 0);
        run_until(&mut fs, 1);
        assert_eq!(fs.stats().readahead_reads, 0);
    }

    #[test]
    fn concurrent_readers_of_same_block_share_one_io() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(1024 * 1024, &mut rng);
        fs.read(SimTime::ZERO, ino, 0, 8192, 0, 0);
        fs.read(SimTime::ZERO, ino, 0, 8192, 0, 1);
        let done = run_until(&mut fs, 2);
        assert_eq!(done.len(), 2);
        assert_eq!(fs.stats().sync_reads, 1, "second read piggybacks");
        assert_eq!(done[0].done_at, done[1].done_at);
    }

    #[test]
    fn multi_block_read_waits_for_all() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(1024 * 1024, &mut rng);
        // 64 KB read spanning 8 blocks.
        fs.read(SimTime::ZERO, ino, 0, 65_536, 0, 0);
        let done = run_until(&mut fs, 1);
        assert_eq!(done.len(), 1);
        assert_eq!(fs.stats().miss_blocks, 8);
    }

    #[test]
    fn flush_caches_forces_disk_again() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(1024 * 1024, &mut rng);
        fs.read(SimTime::ZERO, ino, 0, 8192, 0, 0);
        let done = run_until(&mut fs, 1);
        fs.flush_caches();
        fs.read(done[0].done_at, ino, 0, 8192, 0, 1);
        let done2 = run_until(&mut fs, 1);
        assert!(done2[0].done_at > done[0].done_at);
        assert_eq!(fs.stats().sync_reads, 2);
    }

    #[test]
    fn write_completes_and_invalidates() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(1024 * 1024, &mut rng);
        fs.read(SimTime::ZERO, ino, 0, 8192, 0, 0);
        let done = run_until(&mut fs, 1);
        fs.write(done[0].done_at, ino, 0, 8192, 1);
        let done2 = run_until(&mut fs, 1);
        assert!(done2[0].done_at > done[0].done_at);
        // Read after write goes to disk again (write-through invalidation).
        fs.read(done2[0].done_at, ino, 0, 8192, 0, 2);
        let done3 = run_until(&mut fs, 1);
        assert!(done3[0].done_at > done2[0].done_at);
    }

    #[test]
    fn write_into_extended_region_succeeds() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(64 * 1024, &mut rng); // 8 blocks
        fs.extend_file(ino, 128 * 1024, &mut rng);
        assert_eq!(fs.inode(ino).unwrap().size, 128 * 1024);
        // A write past the old EOF lands on the newly allocated blocks.
        fs.write(SimTime::ZERO, ino, 64 * 1024, 16_384, 1);
        let done = run_until(&mut fs, 1);
        assert_eq!(done[0].status, IoStatus::Ok);
        assert!(fs.stats().writes >= 1);
    }

    #[test]
    #[should_panic(expected = "beyond EOF")]
    fn write_past_eof_without_extend_panics() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(8192, &mut rng);
        fs.write(SimTime::ZERO, ino, 16_384, 8192, 0);
    }

    #[test]
    #[should_panic(expected = "beyond EOF")]
    fn read_past_eof_panics() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(8192, &mut rng);
        fs.read(SimTime::ZERO, ino, 16_384, 8192, 0, 0);
    }

    #[test]
    fn sequential_stream_is_mostly_cache_hits() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(2 * 1024 * 1024, &mut rng); // 256 blocks
        let mut now = SimTime::ZERO;
        let mut seq: u32 = 1;
        for b in 0..256u64 {
            fs.read(now, ino, b * 8192, 8192, seq, b);
            let done = run_until(&mut fs, 1);
            now = done[0].done_at;
            seq = (seq + 1).min(SEQCOUNT_MAX);
        }
        let s = fs.stats();
        let total_ios = s.sync_reads + s.readahead_reads;
        assert!(
            total_ios <= 45,
            "sequential stream should cluster into ~32 I/Os: {s:?}"
        );
        assert_eq!(s.cache_hit_blocks + s.miss_blocks, 256, "stats: {s:?}");
    }
}
