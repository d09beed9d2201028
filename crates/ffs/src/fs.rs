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
//! A read that finds a block busy waits on the I/O fetching it, as a
//! FreeBSD reader sleeps on a busy buffer: each disk I/O in flight holds
//! a slot in a slab, its slot is its bio tag, and the blocks it fetches
//! are pending in the buffer cache under that slot, so a read that finds
//! one pending joins that I/O's waiters. The I/O's completion fills its
//! blocks and then settles every waiter.
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
use simcore::{IdWindow, SimRng, SimTime, Slab};

use crate::alloc::{
    Allocator, Inode, NoSpace, BLOCK_BYTES, BLOCK_SECTORS, CLUSTER_BLOCKS, FIRST_INO,
};
use crate::bcache::BufferCache;
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

/// One disk I/O in flight. Its slot in [`FileSystem::io_spans`] is its
/// bio tag, and a read span's blocks are marked pending under that slot,
/// so a read that finds a block pending joins the span fetching it.
#[derive(Debug)]
struct IoSpan {
    ino: u64,
    first_blk: u64,
    nblocks: u64,
    /// The operations that complete when this I/O does, each once: a
    /// write span's one writer, or every read blocked on a block the span
    /// fetches. The buffer stays with the slot when the span retires.
    waiters: Vec<ReadId>,
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
    /// Disk I/Os in flight; a span's slot is its bio tag. Slots are
    /// reused, so tags stay below the most I/Os ever in flight at once.
    io_spans: Slab<IoSpan>,
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
            io_spans: Slab::default(),
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
    ///
    /// # Errors
    ///
    /// [`NoSpace`] if the partition cannot hold the file.
    pub fn create_file(&mut self, size: u64, rng: &mut SimRng) -> Result<u64, NoSpace> {
        let inode = self.alloc.create_file(size, rng)?;
        let ino = inode.ino;
        assert_eq!(
            Self::slot(ino),
            Some(self.inodes.len()),
            "inode numbers are dense"
        );
        self.inodes.push(inode);
        Ok(ino)
    }

    /// Extends `ino` to cover at least `new_size` bytes (an extending
    /// write): new blocks come from the allocation frontier, so a file
    /// grown after later allocations becomes fragmented, as on a real FFS.
    /// Growing to a size the file already covers is a no-op. `rng` drives
    /// aging decisions only; a fresh file system never consults it.
    ///
    /// # Errors
    ///
    /// [`NoSpace`] if the partition cannot hold the new blocks; the file
    /// keeps its old size and blocks.
    ///
    /// # Panics
    ///
    /// Panics if the inode does not exist.
    pub fn extend_file(
        &mut self,
        ino: u64,
        new_size: u64,
        rng: &mut SimRng,
    ) -> Result<(), NoSpace> {
        let inode = Self::slot(ino)
            .and_then(|i| self.inodes.get_mut(i))
            .expect("extend of unknown inode");
        self.alloc.extend_file(inode, new_size, rng)
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

    /// Approximate heap bytes of the inode table, the block maps and the
    /// buffer cache, estimated from capacities (scale accounting, not
    /// allocator truth).
    pub fn approx_heap_bytes(&self) -> usize {
        self.inodes.capacity() * std::mem::size_of::<Inode>()
            + self.inodes.iter().map(Inode::heap_bytes).sum::<usize>()
            + self.cache.approx_heap_bytes()
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
            if let Some(span) = self.cache.pending_tag(key) {
                self.stats.miss_blocks += 1;
                outstanding += self.join(span, id);
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
            let span = self.submit_io(now, ino, blk, run, false);
            // The read waits on every block of the cluster it needs.
            self.stats.miss_blocks += run.min(last_blk - blk + 1);
            outstanding += self.join(span, id);
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
            let run = (inode.run_end(blk) - blk)
                .min(last_blk - blk + 1)
                .min(CLUSTER_BLOCKS);
            let span = Self::new_span(&mut self.io_spans, ino, blk, run);
            self.io_spans[span].waiters.push(id);
            outstanding += 1;
            self.bio.submit(
                now,
                DiskRequest::write(inode.lba_of(blk), run * BLOCK_SECTORS, u64::from(span)),
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

    /// Settles one finished disk I/O: a read's blocks become valid (or,
    /// failed, re-readable), then every operation waiting on it learns.
    fn io_done(&mut self, c: Completion) {
        let slot = u32::try_from(c.request.tag).expect("a span slot is a bio tag");
        let failed = !c.is_ok();
        let span = &mut self.io_spans[slot];
        if c.request.op == diskmodel::DiskOp::Read {
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
            }
        }
        let mut waiters = std::mem::take(&mut span.waiters);
        for &id in &waiters {
            self.span_done(id, c.completed_at, failed);
        }
        waiters.clear();
        self.io_spans[slot].waiters = waiters;
        self.io_spans.release(slot);
    }

    /// Makes read `id` wait on the span in `slot`, once: returns 1, or 0
    /// if it waits on it already. A read scans its blocks in order and a
    /// span's blocks are consecutive, so a repeat join is the latest one.
    fn join(&mut self, slot: u32, id: ReadId) -> usize {
        let waiters = &mut self.io_spans[slot].waiters;
        if waiters.last() == Some(&id) {
            return 0;
        }
        waiters.push(id);
        1
    }

    /// A span slot for `nblocks` blocks of `ino` from `first_blk`, with no
    /// waiters; a reused slot keeps its waiter buffer.
    fn new_span(spans: &mut Slab<IoSpan>, ino: u64, first_blk: u64, nblocks: u64) -> u32 {
        spans.take(
            |s| (s.ino, s.first_blk, s.nblocks) = (ino, first_blk, nblocks),
            || IoSpan {
                ino,
                first_blk,
                nblocks,
                waiters: Vec::new(),
            },
        )
    }

    /// Length of the physically contiguous, uncached, unpending run starting
    /// at block `blk` of `ino`, capped at `max` blocks and the file end.
    fn cluster_run(&self, ino: u64, blk: u64, max: u64) -> u64 {
        let inode = self.inode(ino).expect("known inode");
        let end = inode.run_end(blk).min(blk.saturating_add(max));
        let mut run = 1;
        while blk + run < end && !self.cache.holds((ino, blk + run)) {
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
            self.submit_io(now, ino, blk, run, true);
            blk += cluster;
        }
    }

    /// Issues a disk read of `nblocks` blocks of `ino` from `first_blk`,
    /// marking them pending under the new span's slot, and returns it.
    fn submit_io(&mut self, now: SimTime, ino: u64, first_blk: u64, nblocks: u64, ra: bool) -> u32 {
        let lba = self.inode(ino).expect("known inode").lba_of(first_blk);
        let span = Self::new_span(&mut self.io_spans, ino, first_blk, nblocks);
        for b in first_blk..first_blk + nblocks {
            self.cache.mark_pending((ino, b), span);
        }
        if ra {
            self.stats.readahead_reads += 1;
        } else {
            self.stats.sync_reads += 1;
        }
        self.bio.submit(
            now,
            DiskRequest::read(lba, nblocks * BLOCK_SECTORS, u64::from(span)),
        );
        span
    }

    /// One of the spans `id` waits on finished.
    fn span_done(&mut self, id: ReadId, at: SimTime, failed: bool) {
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
        let ino = fs.create_file(4 * 1024 * 1024, &mut rng).unwrap();
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
        let a = fs.create_file(8192, &mut rng).unwrap();
        let b = fs.create_file(8192, &mut rng).unwrap();
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
        let ino = fs.create_file(1024 * 1024, &mut rng).unwrap();
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
        let ino = fs.create_file(1024 * 1024, &mut rng).unwrap();
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
        let ino = fs.create_file(1024 * 1024, &mut rng).unwrap();
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
        let ino = fs.create_file(4 * 1024 * 1024, &mut rng).unwrap();
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
        let ino = fs.create_file(1024 * 1024, &mut rng).unwrap();
        fs.read(SimTime::ZERO, ino, 0, 8192, 0, 0);
        run_until(&mut fs, 1);
        assert_eq!(fs.stats().readahead_reads, 0);
    }

    #[test]
    fn concurrent_readers_of_same_block_share_one_io() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(1024 * 1024, &mut rng).unwrap();
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
        let ino = fs.create_file(1024 * 1024, &mut rng).unwrap();
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
        let ino = fs.create_file(1024 * 1024, &mut rng).unwrap();
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
        let ino = fs.create_file(1024 * 1024, &mut rng).unwrap();
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
        let ino = fs.create_file(64 * 1024, &mut rng).unwrap(); // 8 blocks
        fs.extend_file(ino, 128 * 1024, &mut rng).unwrap();
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
        let ino = fs.create_file(8192, &mut rng).unwrap();
        fs.write(SimTime::ZERO, ino, 16_384, 8192, 0);
    }

    #[test]
    #[should_panic(expected = "beyond EOF")]
    fn read_past_eof_panics() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(8192, &mut rng).unwrap();
        fs.read(SimTime::ZERO, ino, 16_384, 8192, 0, 0);
    }

    #[test]
    fn a_read_joins_the_read_ahead_in_flight_and_completes_with_it() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(4 * 1024 * 1024, &mut rng).unwrap();
        fs.read(SimTime::ZERO, ino, 0, 8192, 127, 0);
        let key = (ino, 16);
        let span = fs
            .cache
            .pending_tag(key)
            .expect("read-ahead fetches block 16");
        let before = fs.stats();
        // Blocks 16 and 17 sit in one read-ahead cluster: one join.
        fs.read(SimTime::ZERO, ino, 16 * 8192, 2 * 8192, 0, 1);
        let after = fs.stats();
        assert_eq!(after.miss_blocks - before.miss_blocks, 2);
        assert_eq!(
            (after.sync_reads, after.readahead_reads),
            (before.sync_reads, before.readahead_reads),
            "the joining read issues no disk I/O"
        );
        assert_eq!(fs.io_spans[span].waiters, [ReadId(1)]);
        // Step until the read completes, noting when its span's blocks
        // arrived.
        let (mut done, mut arrived) = (Vec::new(), None);
        let d = loop {
            let t = fs.next_event().expect("the read is pending");
            fs.advance_into(t, &mut done);
            if arrived.is_none() && fs.cache.peek(key) {
                arrived = Some(t);
            }
            if let Some(&d) = done.iter().find(|d| d.tag == 1) {
                break d;
            }
        };
        assert_eq!((Some(d.done_at), d.status), (arrived, IoStatus::Ok));
    }

    #[test]
    fn a_failed_span_fails_every_waiter_and_its_blocks_read_again() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(1024 * 1024, &mut rng).unwrap();
        // The cluster read fails transiently until the retries run out.
        fs.set_fault_model(Some(Box::new(FailNext(crate::MAX_IO_RETRIES + 1))));
        fs.read(SimTime::ZERO, ino, 0, 8192, 2, 0);
        fs.read(SimTime::ZERO, ino, 3 * 8192, 8192, 0, 1);
        fs.read(SimTime::ZERO, ino, 5 * 8192, 3 * 8192, 0, 2);
        assert_eq!(
            fs.stats().sync_reads,
            1,
            "both later reads join the cluster"
        );
        let done = run_until(&mut fs, 3);
        assert!(done.iter().all(|d| d.status == IoStatus::Eio), "{done:?}");
        assert!(done.iter().all(|d| d.done_at == done[0].done_at));
        assert_eq!(fs.stats().io_errors, 3);
        assert!(
            (0..8).all(|b| !fs.cache.holds((ino, b))),
            "no block stays pending"
        );
        assert_eq!(fs.io_spans.live(), 0);
        fs.read(done[0].done_at, ino, 3 * 8192, 8192, 0, 3);
        let again = run_until(&mut fs, 1);
        assert_eq!(again[0].status, IoStatus::Ok);
        assert_eq!(
            fs.stats().sync_reads,
            2,
            "the block is read from disk again"
        );
    }

    /// A device that runs every command in parallel and finishes it
    /// 100 µs after submission, except the first, which it holds for an
    /// hour.
    #[derive(Debug, Default)]
    struct HoldFirst {
        queue: Vec<(SimTime, DiskRequest)>,
        submitted: u64,
        total_sectors: u64,
    }

    impl DeviceModel for HoldFirst {
        fn submit(&mut self, now: SimTime, req: DiskRequest) -> diskmodel::RequestId {
            let hold = if self.submitted == 0 {
                simcore::SimDuration::from_secs(3_600)
            } else {
                simcore::SimDuration::from_micros(100)
            };
            self.submitted += 1;
            self.queue.push((now + hold, req));
            diskmodel::RequestId(self.submitted)
        }

        fn next_completion(&self) -> Option<SimTime> {
            self.queue.iter().map(|&(t, _)| t).min()
        }

        fn advance_into(&mut self, now: SimTime, out: &mut Vec<Completion>) {
            for (t, request) in self.queue.extract_if(.., |(t, _)| *t <= now) {
                out.push(Completion {
                    id: diskmodel::RequestId(request.tag),
                    request,
                    submitted_at: t,
                    completed_at: t,
                    cache_hit: false,
                    outcome: diskmodel::DiskOutcome::Ok,
                });
            }
        }

        fn can_accept(&self) -> bool {
            true
        }

        fn outstanding(&self) -> usize {
            self.queue.len()
        }

        fn total_sectors(&self) -> u64 {
            self.total_sectors
        }

        fn flush_cache(&mut self) {}

        fn set_fault_model(&mut self, _model: Option<Box<dyn FaultModel>>) {}

        fn fault_model_active(&self) -> bool {
            false
        }

        fn remap(&mut self, _lba: diskmodel::Lba, _sectors: u64) {}

        fn report(&self) -> diskmodel::DeviceReport {
            diskmodel::DeviceReport::default()
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn one_span_held_in_flight_keeps_the_span_slab_at_the_in_flight_peak() {
        let disk = DriveModel::WdWd200bbIde.build(SimRng::new(11));
        let part = PartitionTable::quarters(disk.geometry()).get(1);
        let device = HoldFirst {
            total_sectors: disk.geometry().total_sectors(),
            ..HoldFirst::default()
        };
        let config = FsConfig::default();
        let mut fs = FileSystem::format_on(Box::new(device), part, SchedulerKind::Fcfs, config);
        let ino = fs.create_file(4_096 * 8192, &mut SimRng::new(1)).unwrap();
        fs.read(SimTime::ZERO, ino, 0, 8192, 0, 0);
        let mut now = SimTime::ZERO;
        for blk in 1..4_096u64 {
            fs.read(now, ino, blk * 8192, 8192, 0, blk);
            let done = run_until(&mut fs, 1);
            assert_eq!(done[0].tag, blk);
            now = done[0].done_at;
        }
        assert_eq!(fs.stats().sync_reads, 4_096);
        assert_eq!((fs.io_spans.live(), fs.io_spans.peak()), (1, 2));
        let held = run_until(&mut fs, 1);
        assert_eq!(held[0].tag, 0);
        assert_eq!(fs.io_spans.live(), 0);
    }

    #[test]
    fn sequential_stream_is_mostly_cache_hits() {
        let mut fs = make_fs();
        let mut rng = SimRng::new(1);
        let ino = fs.create_file(2 * 1024 * 1024, &mut rng).unwrap(); // 256 blocks
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
