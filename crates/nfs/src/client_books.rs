//! A client host's books: its outstanding RPCs and one record per file.
//!
//! Like the server's books in `books.rs`, they are indexed, not hashed.
//! RPCs sit in an [`IdWindow`] under a serial that keeps counting across
//! the xid wrap, and a READ holds the reads blocked on its block, which
//! the block's pending cache slot names by xid. Files sit in a dense
//! `Vec` reached through an inode → position index of 4 bytes per inode
//! number, and a file's attribute entry, write-behind blocks and active
//! close hang off its record.

use std::mem::size_of;

use ffs::LocalFd;
use nfsproto::{FileHandle, NfsCall};
use simcore::{IdWindow, SimDuration, SimTime, Waitlist};

use crate::world::OpId;

/// An outstanding RPC, as the client that sent it books it.
#[derive(Debug)]
pub(crate) struct Rpc {
    pub(crate) call: NfsCall,
    /// Per-file submission sequence, for server-side reorder accounting.
    pub(crate) submit_seq: u64,
    pub(crate) attempt: u32,
    /// The ops waiting on this RPC. A READ's are the reads blocked on
    /// its block, in the order they blocked; any other call's is the one
    /// op that completes on its reply (metadata, sync writes). `None` for
    /// write-behind and for a read-ahead no read has blocked on.
    pub(crate) waiters: Option<Waitlist<OpId>>,
    /// READDIR(PLUS) only: the slot in [`RpcBook::shapes`] of the chunk
    /// shape the caller declared; `NONE` otherwise. Kept out of line, so
    /// that every other RPC is 96 bytes, not 128.
    pub(crate) shape: u32,
}

impl Rpc {
    /// Makes `op` wait on this RPC.
    pub(crate) fn wait(&mut self, op: OpId) {
        match &mut self.waiters {
            Some(waiters) => waiters.push(op),
            None => self.waiters = Some(Waitlist::new(op)),
        }
    }
}

/// Caller-declared shape of an outstanding READDIR(PLUS) chunk, held
/// beside its [`Rpc`] in the [`RpcBook`]. The simulated namespace lives in the workload layer
/// (directories are ordinary handles), so the caller passes the chunk's
/// entry count and children down and the server's reply builder reads
/// them from here. An external caller declares no shape and gets an
/// empty, final chunk.
#[derive(Debug, Default)]
pub(crate) struct ReaddirPending {
    /// Directory entries in this chunk.
    pub(crate) entries: u32,
    /// Whether this chunk ends the directory.
    pub(crate) eof: bool,
    /// READDIRPLUS only: children whose attributes ride in the reply and
    /// prefill the attribute cache on arrival.
    pub(crate) children: Vec<FileHandle>,
}

/// One client's outstanding RPCs, indexed by xid.
///
/// Xids run 1, 2, …, `u32::MAX`, 1, … (0 is never issued), so each RPC
/// sits in an [`IdWindow`] under a serial that keeps counting across the
/// wrap. Live RPCs span far less than a lap, so the serial an xid maps
/// to is exact.
#[derive(Debug, Default)]
pub(crate) struct RpcBook {
    window: IdWindow<Rpc>,
    /// Serial and xid of the newest RPC booked.
    newest: u64,
    newest_xid: u32,
    /// Chunk shapes of the outstanding READDIR(PLUS) RPCs.
    shapes: Slab<ReaddirPending>,
}

impl RpcBook {
    /// Books `rpc` under `xid`, the xid issued after the newest one.
    pub(crate) fn insert(&mut self, xid: u32, rpc: Rpc) {
        // Counting up across the wrap skips xid 0.
        let lead = xid.wrapping_sub(self.newest_xid) - u32::from(xid < self.newest_xid);
        self.newest += u64::from(lead);
        self.newest_xid = xid;
        self.window.insert(self.newest, rpc);
    }

    fn serial(&self, xid: u32) -> Option<u64> {
        let lag = self.newest_xid.wrapping_sub(xid) - u32::from(xid > self.newest_xid);
        self.newest.checked_sub(u64::from(lag))
    }

    pub(crate) fn get(&self, xid: u32) -> Option<&Rpc> {
        self.window.get(self.serial(xid)?)
    }

    pub(crate) fn get_mut(&mut self, xid: u32) -> Option<&mut Rpc> {
        self.window.get_mut(self.serial(xid)?)
    }

    /// Retires `xid`, returning its RPC and, for a READDIR(PLUS), the
    /// chunk shape it declared.
    pub(crate) fn remove(&mut self, xid: u32) -> Option<(Rpc, Option<ReaddirPending>)> {
        let rpc = self.window.remove(self.serial(xid)?)?;
        let shape = (rpc.shape != NONE).then(|| {
            self.shapes.free.push(rpc.shape);
            std::mem::take(&mut self.shapes.slots[rpc.shape as usize])
        });
        Some((rpc, shape))
    }

    /// Declares the chunk shape of the outstanding READDIR(PLUS) `xid`.
    ///
    /// # Panics
    ///
    /// Panics if `xid` is not outstanding.
    pub(crate) fn declare_shape(&mut self, xid: u32, shape: ReaddirPending) {
        let slot = self.shapes.insert(shape);
        self.get_mut(xid).expect("an outstanding READDIR").shape = slot;
    }

    /// The chunk shape `xid` declared, if it is an outstanding
    /// READDIR(PLUS).
    pub(crate) fn shape(&self, xid: u32) -> Option<&ReaddirPending> {
        let slot = self.get(xid)?.shape;
        (slot != NONE).then(|| &self.shapes.slots[slot as usize])
    }

    /// The outstanding xids, oldest first.
    pub(crate) fn xids(&self) -> impl Iterator<Item = u32> + '_ {
        const LAP: u64 = u32::MAX as u64;
        self.window.ids().map(move |serial| {
            let lag = self.newest - serial;
            ((u64::from(self.newest_xid) + LAP - 1 - lag) % LAP + 1) as u32
        })
    }

    /// Heap bytes of the window and the shape slab, from capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.window.capacity() * size_of::<Option<Rpc>>() + self.shapes.heap_bytes()
    }
}

/// One client-side cached attribute record (NFS `acregmin/acregmax`
/// model). The entry is trusted until `valid_until`; a getattr after that
/// revalidates over the wire, and an unchanged answer doubles `timeo`
/// toward `attr_timeo_max` while a changed one resets it to the floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AttrEntry {
    /// Server attribute version (`ServerInode::attr_seq`) the entry was
    /// fetched under; a mismatch at revalidation is detected staleness.
    pub(crate) version: u64,
    /// Trusted strictly before this instant.
    pub(crate) valid_until: SimTime,
    /// Current adaptive timeout.
    pub(crate) timeo: SimDuration,
}

/// Where a write-behind block stands in the client's dirty cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WbState {
    /// Modified locally, not yet sent to the server.
    Dirty,
    /// An UNSTABLE WRITE carrying it is outstanding.
    InFlight { xid: u32 },
    /// The server acked it UNSTABLE under this verifier; it is safe only
    /// once a COMMIT returns the same verifier.
    Uncommitted { verf: u64 },
}

/// An active `close()` of a file with write-behind blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CloseState {
    pub(crate) op: OpId,
    /// COMMIT currently outstanding for this close, if any.
    pub(crate) commit_xid: Option<u32>,
}

/// One file's write-behind books (async write path only).
#[derive(Debug)]
pub(crate) struct WriteBehind {
    pub(crate) fh: FileHandle,
    /// Block number and state, sorted by block and distinct, so dirty
    /// runs coalesce deterministically. Files are written in order, so
    /// a new block almost always lands at the end.
    blocks: Vec<(u64, WbState)>,
    /// No block before this position is dirty.
    dirty_from: usize,
    /// Dirty and in-flight blocks among `blocks`.
    dirty: usize,
    in_flight: usize,
    /// Active `close()` flushing this file, if any.
    pub(crate) close: Option<CloseState>,
    /// `(blk, verf)` pairs the outstanding COMMIT covers, sorted by
    /// block. Only these may be retired by its reply: a block acked
    /// UNSTABLE *after* the COMMIT left may not be covered by the
    /// server's commit flush, and retiring it would fake durability.
    snapshot: Vec<(u64, u64)>,
}

impl WriteBehind {
    fn new(fh: FileHandle) -> Self {
        WriteBehind {
            fh,
            blocks: Vec::new(),
            dirty_from: 0,
            dirty: 0,
            in_flight: 0,
            close: None,
            snapshot: Vec::new(),
        }
    }

    /// Blocks not yet known committed (dirty, in flight, or acked only
    /// UNSTABLE).
    pub(crate) fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether an UNSTABLE WRITE of this file is outstanding.
    pub(crate) fn in_flight(&self) -> bool {
        self.in_flight > 0
    }

    /// Moves the block at position `i` to `state`, keeping the counts.
    fn set(&mut self, i: usize, state: WbState) {
        let old = std::mem::replace(&mut self.blocks[i].1, state);
        self.uncount(old);
        self.count(state, i);
    }

    fn count(&mut self, state: WbState, i: usize) {
        match state {
            WbState::Dirty => {
                self.dirty += 1;
                self.dirty_from = self.dirty_from.min(i);
            }
            WbState::InFlight { .. } => self.in_flight += 1,
            WbState::Uncommitted { .. } => {}
        }
    }

    fn uncount(&mut self, state: WbState) {
        match state {
            WbState::Dirty => self.dirty -= 1,
            WbState::InFlight { .. } => self.in_flight -= 1,
            WbState::Uncommitted { .. } => {}
        }
    }

    /// Marks blocks `first..=last` dirty.
    fn write(&mut self, first: u64, last: u64) {
        for blk in first..=last {
            let i = self.blocks.partition_point(|&(b, _)| b < blk);
            if self.blocks.get(i).is_some_and(|&(b, _)| b == blk) {
                self.set(i, WbState::Dirty);
            } else {
                self.blocks.insert(i, (blk, WbState::Dirty));
                self.count(WbState::Dirty, i);
            }
        }
    }

    /// The first run of consecutive dirty blocks, capped at 8 blocks
    /// (one 64 KB WRITE), as `(first, last)`. Starts from the cursor,
    /// not from the file's first block.
    fn first_dirty_run(&mut self) -> Option<(u64, u64)> {
        if self.dirty == 0 {
            return None;
        }
        let from = self.dirty_from;
        let i = from
            + self.blocks[from..]
                .iter()
                .position(|&(_, s)| s == WbState::Dirty)
                .expect("a dirty block at or past the cursor");
        self.dirty_from = i;
        let mut j = i;
        while j - i + 1 < 8
            && self
                .blocks
                .get(j + 1)
                .is_some_and(|&(b, s)| b == self.blocks[j].0 + 1 && s == WbState::Dirty)
        {
            j += 1;
        }
        Some((self.blocks[i].0, self.blocks[j].0))
    }

    /// Positions of the blocks in `first..=last`.
    fn span(&self, first: u64, last: u64) -> std::ops::Range<usize> {
        let from = self.blocks.partition_point(|&(b, _)| b < first);
        from..from + self.blocks[from..].partition_point(|&(b, _)| b <= last)
    }

    /// Moves every block of `first..=last` that is in flight under `xid`
    /// to `next`.
    fn settle(&mut self, first: u64, last: u64, xid: u32, next: WbState) {
        for i in self.span(first, last) {
            if self.blocks[i].1 == (WbState::InFlight { xid }) {
                self.set(i, next);
            }
        }
    }

    /// Records which `(block, verifier)` pairs a COMMIT sent now covers:
    /// every block, all acked UNSTABLE.
    fn take_snapshot(&mut self) {
        self.snapshot.clear();
        self.snapshot
            .extend(self.blocks.iter().map(|&(b, s)| match s {
                WbState::Uncommitted { verf } => (b, verf),
                _ => unreachable!("no dirty or in-flight blocks remain"),
            }));
    }

    /// Settles the snapshot against a COMMIT reply carrying `verf`: a
    /// snapshot block still acked under the verifier it was snapshotted
    /// with leaves if that verifier is `verf` and is dirty again if not.
    /// Returns the blocks re-dirtied.
    fn commit(&mut self, verf: u64) -> u64 {
        let (mut s, mut rewrites) = (0, 0u64);
        let snapshot = &self.snapshot;
        self.blocks.retain_mut(|(blk, state)| {
            while snapshot.get(s).is_some_and(|&(b, _)| b < *blk) {
                s += 1;
            }
            match snapshot.get(s) {
                Some(&(b, v)) if b == *blk && *state == (WbState::Uncommitted { verf: v }) => {
                    if v == verf {
                        return false;
                    }
                    *state = WbState::Dirty;
                    rewrites += 1;
                }
                // Re-dirtied since the COMMIT left; handled anew.
                _ => {}
            }
            true
        });
        self.snapshot.clear();
        self.dirty += rewrites as usize;
        self.dirty_from = 0;
        rewrites
    }

    /// Empties the books, keeping their buffers.
    fn clear(&mut self) {
        self.blocks.clear();
        self.snapshot.clear();
        self.dirty_from = 0;
        self.dirty = 0;
        self.in_flight = 0;
        self.close = None;
    }

    fn heap_bytes(&self) -> usize {
        self.blocks.capacity() * size_of::<(u64, WbState)>()
            + self.snapshot.capacity() * size_of::<(u64, u64)>()
    }
}

/// Marks an index entry or a file's attribute or write-behind slot as
/// unused.
pub(crate) const NONE: u32 = u32::MAX;

/// The write-behind slot of a record whose file the host has not
/// mounted. Such a record holds only an attribute entry a READDIRPLUS
/// prefilled, and an unmounted file is never written.
const UNMOUNTED: u32 = u32::MAX - 1;

/// One file as a client host sees it: 40 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClientFile {
    pub(crate) size: u64,
    /// The client's own sequentiality count for this file, which sizes
    /// its read-ahead window.
    pub(crate) fd: LocalFd,
    pub(crate) submit_counter: u64,
    /// Attribute entry slot in [`FileTable::attrs`], or `NONE`.
    attr: u32,
    /// Write-behind slot in [`FileTable::wbs`], `NONE`, or `UNMOUNTED`.
    wb: u32,
}

/// A slab: entries by slot, and the slots free for reuse.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// A free slot, reset by `reuse`, or a new one holding `fresh()`.
    fn take(&mut self, reuse: impl FnOnce(&mut T), fresh: impl FnOnce() -> T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                reuse(&mut self.slots[slot as usize]);
                slot
            }
            None => {
                self.slots.push(fresh());
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 slots")
            }
        }
    }

    /// Stores `value` in a free slot or a new one.
    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = value;
                slot
            }
            None => {
                self.slots.push(value);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 slots")
            }
        }
    }

    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<T>() + self.free.capacity() * size_of::<u32>()
    }
}

/// One client host's files, by inode number: the mount table, the
/// attribute cache, and the write-behind cache with its running dirty
/// count.
#[derive(Debug, Default)]
pub(crate) struct FileTable {
    /// Inode number of `index[0]`.
    base: u64,
    /// `ino - base` → position of the file's record in `files`, or
    /// `NONE`. A host's files are created together, so the span from
    /// its lowest inode number to its highest is narrow.
    index: Vec<u32>,
    files: Vec<ClientFile>,
    /// Live attribute entries sit in slots (always empty with the cache
    /// off), so a record pays 4 bytes for an entry it does not hold.
    attrs: Slab<AttrEntry>,
    /// Write-behind books by slot. A file holds a slot from its first
    /// UNSTABLE write until its close finishes or fails; a freed slot
    /// keeps its buffers for the next file.
    wbs: Slab<WriteBehind>,
    /// Dirty blocks over every file, for the write-behind pressure check.
    dirty: usize,
}

impl FileTable {
    fn position(&self, ino: u64) -> Option<usize> {
        let i = usize::try_from(ino.checked_sub(self.base)?).ok()?;
        let p = *self.index.get(i)?;
        (p != NONE).then_some(p as usize)
    }

    /// The record of `ino`, mounted or not.
    fn get(&self, ino: u64) -> Option<&ClientFile> {
        self.position(ino).map(|p| &self.files[p])
    }

    /// Whether the host has mounted `ino`.
    pub(crate) fn is_mounted(&self, ino: u64) -> bool {
        self.get(ino).is_some_and(|f| f.wb != UNMOUNTED)
    }

    /// The record of `ino` if the host has mounted it.
    pub(crate) fn mounted(&mut self, ino: u64) -> Option<&mut ClientFile> {
        let p = self.position(ino)?;
        Some(&mut self.files[p]).filter(|f| f.wb != UNMOUNTED)
    }

    /// The record of `ino`, created unmounted if there is none.
    ///
    /// # Panics
    ///
    /// Panics if `ino` lies 2³² or more inode numbers from the host's
    /// other files.
    fn record(&mut self, ino: u64) -> &mut ClientFile {
        if let Some(p) = self.position(ino) {
            return &mut self.files[p];
        }
        if self.index.is_empty() {
            self.base = ino;
        } else if ino < self.base {
            let grow = usize::try_from(self.base - ino).expect("inode span fits usize");
            self.index.splice(0..0, std::iter::repeat_n(NONE, grow));
            self.base = ino;
        }
        let i = usize::try_from(ino - self.base).expect("inode span fits usize");
        assert!(i < NONE as usize, "inode span fits u32");
        if i >= self.index.len() {
            self.index.resize(i + 1, NONE);
        }
        let p = u32::try_from(self.files.len()).expect("fewer than 2^32 files");
        self.index[i] = p;
        self.files.push(ClientFile {
            size: 0,
            fd: LocalFd::new(),
            submit_counter: 0,
            attr: NONE,
            wb: UNMOUNTED,
        });
        self.files.last_mut().expect("just pushed")
    }

    /// Mounts `ino` with `size` bytes: a fresh descriptor and submission
    /// count. Its attribute entry and write-behind books are kept.
    pub(crate) fn mount(&mut self, ino: u64, size: u64) {
        let f = self.record(ino);
        if f.wb == UNMOUNTED {
            f.wb = NONE;
        }
        f.size = size;
        f.fd = LocalFd::new();
        f.submit_counter = 0;
    }

    /// Every mounted file.
    pub(crate) fn mounted_files(&mut self) -> impl Iterator<Item = &mut ClientFile> {
        self.files.iter_mut().filter(|f| f.wb != UNMOUNTED)
    }

    /// `ino`'s attribute entry, if it has one.
    pub(crate) fn attr(&self, ino: u64) -> Option<AttrEntry> {
        let slot = self.get(ino)?.attr;
        (slot != NONE).then(|| self.attrs.slots[slot as usize])
    }

    /// Installs `entry` as `ino`'s attribute entry, creating an unmounted
    /// record if the host has none for `ino`.
    pub(crate) fn set_attr(&mut self, ino: u64, entry: AttrEntry) {
        let slot = self.record(ino).attr;
        if slot != NONE {
            self.attrs.slots[slot as usize] = entry;
            return;
        }
        let slot = self.attrs.insert(entry);
        self.record(ino).attr = slot;
    }

    /// Drops `ino`'s attribute entry, returning whether it had one.
    pub(crate) fn drop_attr(&mut self, ino: u64) -> bool {
        let Some(p) = self.position(ino) else {
            return false;
        };
        let slot = std::mem::replace(&mut self.files[p].attr, NONE);
        if slot != NONE {
            self.attrs.free.push(slot);
        }
        slot != NONE
    }

    /// Live attribute-cache entries.
    pub(crate) fn attr_entries(&self) -> usize {
        self.attrs.live()
    }

    /// Dirty blocks over every file (a running count).
    pub(crate) fn dirty_blocks(&self) -> usize {
        self.dirty
    }

    /// Blocks not yet known committed over every file.
    pub(crate) fn uncommitted_blocks(&self) -> u64 {
        self.files
            .iter()
            .filter(|f| f.wb < UNMOUNTED)
            .map(|f| self.wbs.slots[f.wb as usize].len() as u64)
            .sum()
    }

    fn wb_slot(&self, ino: u64) -> Option<usize> {
        let wb = self.get(ino)?.wb;
        (wb < UNMOUNTED).then_some(wb as usize)
    }

    /// `ino`'s write-behind books, if it has any.
    pub(crate) fn wb(&self, ino: u64) -> Option<&WriteBehind> {
        self.wb_slot(ino).map(|s| &self.wbs.slots[s])
    }

    /// Mutable access to `ino`'s write-behind books, if it has any.
    pub(crate) fn wb_mut(&mut self, ino: u64) -> Option<&mut WriteBehind> {
        self.wb_slot(ino).map(|s| &mut self.wbs.slots[s])
    }

    /// Runs `f` on `ino`'s write-behind books, if it has any, and keeps
    /// the running dirty count.
    fn with_wb<R>(&mut self, ino: u64, f: impl FnOnce(&mut WriteBehind) -> R) -> Option<R> {
        let slot = self.wb_slot(ino)?;
        let wb = &mut self.wbs.slots[slot];
        let before = wb.dirty;
        let r = f(wb);
        self.dirty = self.dirty + wb.dirty - before;
        Some(r)
    }

    /// Dirties blocks `first..=last` of the mounted file `fh`, starting
    /// its write-behind books (for `fh`) if it has none.
    pub(crate) fn write(&mut self, fh: FileHandle, first: u64, last: u64) {
        if self.wb_slot(fh.ino).is_none() {
            let slot = self.wbs.take(|wb| wb.fh = fh, || WriteBehind::new(fh));
            self.mounted(fh.ino).expect("write to unmounted file").wb = slot;
        }
        self.with_wb(fh.ino, |wb| wb.write(first, last));
    }

    /// The first dirty run of `ino`, capped at 8 blocks.
    pub(crate) fn first_dirty_run(&mut self, ino: u64) -> Option<(u64, u64)> {
        self.with_wb(ino, WriteBehind::first_dirty_run).flatten()
    }

    /// Marks blocks `first..=last` of `ino` in flight under `xid`.
    pub(crate) fn send(&mut self, ino: u64, first: u64, last: u64, xid: u32) {
        self.with_wb(ino, |wb| {
            let span = wb.span(first, last);
            debug_assert_eq!(span.len() as u64, last - first + 1);
            for i in span {
                wb.set(i, WbState::InFlight { xid });
            }
        });
    }

    /// An UNSTABLE WRITE under `xid` for `first..=last` of `ino` ended:
    /// its blocks still in flight under it move to `next`.
    pub(crate) fn write_ended(&mut self, ino: u64, first: u64, last: u64, xid: u32, next: WbState) {
        self.with_wb(ino, |wb| wb.settle(first, last, xid, next));
    }

    /// Records the `(block, verifier)` pairs a COMMIT of `ino` sent now
    /// covers.
    pub(crate) fn take_snapshot(&mut self, ino: u64) {
        self.with_wb(ino, WriteBehind::take_snapshot);
    }

    /// Settles `ino`'s snapshot against a COMMIT reply carrying `verf`,
    /// returning the blocks re-dirtied by a verifier mismatch.
    pub(crate) fn commit(&mut self, ino: u64, verf: u64) -> u64 {
        self.with_wb(ino, |wb| wb.commit(verf)).unwrap_or(0)
    }

    /// Drops `ino`'s write-behind books (its close finished or failed),
    /// returning the close they held. `None` if it had none.
    pub(crate) fn release(&mut self, ino: u64) -> Option<Option<CloseState>> {
        let slot = self.wb_slot(ino)?;
        let wb = &mut self.wbs.slots[slot];
        self.dirty -= wb.dirty;
        let close = wb.close;
        wb.clear();
        self.wbs.free.push(slot as u32);
        let p = self.position(ino).expect("a file with books has a record");
        self.files[p].wb = NONE;
        Some(close)
    }

    /// Heap bytes, from capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.index.capacity() * size_of::<u32>()
            + self.files.capacity() * size_of::<ClientFile>()
            + self.attrs.heap_bytes()
            + self.wbs.heap_bytes()
            + self
                .wbs
                .slots
                .iter()
                .map(WriteBehind::heap_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, HashMap};

    use simcore::SimRng;

    use super::*;

    /// What one file's books hold, kept the way the client kept them
    /// before the table: write-behind blocks in a `BTreeMap`.
    #[derive(Debug, Default)]
    struct ModelFile {
        mounted: bool,
        attr: Option<AttrEntry>,
        wb: Option<ModelWb>,
    }

    #[derive(Debug)]
    struct ModelWb {
        fh: FileHandle,
        blocks: BTreeMap<u64, WbState>,
        close: Option<CloseState>,
        snapshot: Vec<(u64, u64)>,
    }

    impl ModelWb {
        fn first_dirty_run(&self) -> Option<(u64, u64)> {
            let (&first, _) = self.blocks.iter().find(|(_, s)| **s == WbState::Dirty)?;
            let mut last = first;
            while last - first + 1 < 8 && self.blocks.get(&(last + 1)) == Some(&WbState::Dirty) {
                last += 1;
            }
            Some((first, last))
        }
    }

    fn fh(ino: u64) -> FileHandle {
        FileHandle {
            fsid: 1,
            ino,
            generation: 1,
        }
    }

    fn attr_entry(rng: &mut SimRng) -> AttrEntry {
        AttrEntry {
            version: rng.gen_range(0..3u64),
            valid_until: SimTime::from_nanos(rng.gen_range(0..1_000u64)),
            timeo: SimDuration::from_nanos(rng.gen_range(1..100u64)),
        }
    }

    /// Checks every inode of `inos` against the model, and the running
    /// dirty count against a fresh sum.
    fn check(table: &FileTable, model: &HashMap<u64, ModelFile>, inos: &[u64], what: &str) {
        for &ino in inos {
            let m = model.get(&ino);
            assert_eq!(
                table.is_mounted(ino),
                m.is_some_and(|m| m.mounted),
                "{what}: ino {ino}"
            );
            assert_eq!(table.attr(ino), m.and_then(|m| m.attr), "{what}: ino {ino}");
            let wb = table.wb(ino);
            let mwb = m.and_then(|m| m.wb.as_ref());
            assert_eq!(wb.is_some(), mwb.is_some(), "{what}: ino {ino}");
            let (Some(wb), Some(mwb)) = (wb, mwb) else {
                continue;
            };
            let blocks: Vec<(u64, WbState)> = mwb.blocks.iter().map(|(&b, &s)| (b, s)).collect();
            assert_eq!(wb.blocks, blocks, "{what}: ino {ino}");
            assert_eq!((wb.fh, wb.close), (mwb.fh, mwb.close), "{what}: ino {ino}");
            assert_eq!(wb.snapshot, mwb.snapshot, "{what}: ino {ino}");
            let count = |f: fn(&WbState) -> bool| wb.blocks.iter().filter(|(_, s)| f(s)).count();
            assert_eq!(wb.dirty, count(|s| *s == WbState::Dirty), "{what}");
            assert_eq!(
                wb.in_flight,
                count(|s| matches!(s, WbState::InFlight { .. })),
                "{what}"
            );
            assert!(
                wb.blocks[..wb.dirty_from]
                    .iter()
                    .all(|(_, s)| *s != WbState::Dirty),
                "{what}: a dirty block before the cursor"
            );
        }
        let dirty: usize = model
            .values()
            .filter_map(|m| m.wb.as_ref())
            .map(|w| w.blocks.values().filter(|s| **s == WbState::Dirty).count())
            .sum();
        assert_eq!(table.dirty_blocks(), dirty, "{what}: running dirty count");
        let uncommitted: usize = model
            .values()
            .filter_map(|m| m.wb.as_ref())
            .map(|w| w.blocks.len())
            .sum();
        assert_eq!(table.uncommitted_blocks(), uncommitted as u64, "{what}");
        let attrs = model.values().filter(|m| m.attr.is_some()).count();
        assert_eq!(table.attr_entries(), attrs, "{what}");
    }

    /// Drives the table through random mounts, writes, WRITE sends and
    /// replies (acked, failed, stale), COMMIT snapshots and replies
    /// (matching and mismatched verifiers), released books (a close that
    /// finished or failed) and attribute installs and drops, some on
    /// files the host has not mounted, against a map of `BTreeMap`s, the
    /// client's books before the table. After every step each file and
    /// the running dirty count must match.
    #[test]
    fn file_table_matches_a_keyed_model() {
        for seed in 0..30 {
            let mut rng = SimRng::new(seed);
            let mut table = FileTable::default();
            let mut model: HashMap<u64, ModelFile> = HashMap::new();
            // Inode numbers around 100, so some arrive below the first.
            let inos: Vec<u64> = (95..110).collect();
            // UNSTABLE WRITEs sent and not yet answered: ino, run, xid.
            let mut sent: Vec<(u64, u64, u64, u32)> = Vec::new();
            let mut next_xid = 1u32;
            for step in 0..3_000 {
                let ino = inos[rng.gen_range(0..inos.len())];
                let m = model.entry(ino).or_default();
                let what = format!("seed {seed} step {step}");
                match rng.gen_range(0..12u32) {
                    0 => {
                        table.mount(ino, rng.gen_range(0..100u64));
                        m.mounted = true;
                    }
                    1 | 2 if m.mounted => {
                        // Mostly appends, sometimes rewrites.
                        let top =
                            m.wb.as_ref()
                                .and_then(|w| w.blocks.keys().next_back().copied())
                                .unwrap_or(0);
                        let first = if rng.chance(0.7) {
                            top + rng.gen_range(0..3u64)
                        } else {
                            rng.gen_range(0..=top)
                        };
                        let last = first + rng.gen_range(0..4u64);
                        table.write(fh(ino), first, last);
                        let w = m.wb.get_or_insert_with(|| ModelWb {
                            fh: fh(ino),
                            blocks: BTreeMap::new(),
                            close: None,
                            snapshot: Vec::new(),
                        });
                        for blk in first..=last {
                            w.blocks.insert(blk, WbState::Dirty);
                        }
                    }
                    3 | 4 => {
                        // wb_issue_write: send the first dirty run, or
                        // find no free nfsiod and send nothing.
                        let want = m.wb.as_ref().and_then(ModelWb::first_dirty_run);
                        assert_eq!(table.first_dirty_run(ino), want, "{what}");
                        if let Some((first, last)) = want.filter(|_| rng.chance(0.8)) {
                            let xid = next_xid;
                            next_xid += 1;
                            table.send(ino, first, last, xid);
                            let w = m.wb.as_mut().expect("a run has books");
                            for blk in first..=last {
                                w.blocks.insert(blk, WbState::InFlight { xid });
                            }
                            sent.push((ino, first, last, xid));
                        }
                    }
                    5 | 6 if !sent.is_empty() => {
                        // A WRITE reply, acked under one of two verifiers,
                        // or a failure; its file may be gone or rewritten.
                        let (ino, first, last, xid) =
                            sent.swap_remove(rng.gen_range(0..sent.len()));
                        let next = match rng.gen_range(0..4u32) {
                            0 => WbState::Dirty,
                            v => WbState::Uncommitted {
                                verf: u64::from(v % 2),
                            },
                        };
                        table.write_ended(ino, first, last, xid, next);
                        if let Some(w) = model.get_mut(&ino).and_then(|m| m.wb.as_mut()) {
                            for blk in first..=last {
                                if w.blocks.get(&blk) == Some(&WbState::InFlight { xid }) {
                                    w.blocks.insert(blk, next);
                                }
                            }
                        }
                    }
                    7 => {
                        // close_step with nothing dirty or in flight: a
                        // COMMIT leaves with a snapshot.
                        let ready = m.wb.as_ref().is_some_and(|w| {
                            !w.blocks.is_empty()
                                && w.blocks
                                    .values()
                                    .all(|s| matches!(s, WbState::Uncommitted { .. }))
                        });
                        if ready {
                            table.take_snapshot(ino);
                            let w = m.wb.as_mut().expect("ready");
                            w.snapshot = w
                                .blocks
                                .iter()
                                .map(|(&b, s)| match s {
                                    WbState::Uncommitted { verf } => (b, *verf),
                                    _ => unreachable!(),
                                })
                                .collect();
                        }
                    }
                    8 => {
                        // The COMMIT reply (verifier 0 or 1).
                        let verf = rng.gen_range(0..2u64);
                        let rewrites = table.commit(ino, verf);
                        let mut want = 0;
                        if let Some(w) = m.wb.as_mut() {
                            for (blk, v) in std::mem::take(&mut w.snapshot) {
                                if w.blocks.get(&blk) != Some(&WbState::Uncommitted { verf: v }) {
                                    continue;
                                }
                                if v == verf {
                                    w.blocks.remove(&blk);
                                } else {
                                    w.blocks.insert(blk, WbState::Dirty);
                                    want += 1;
                                }
                            }
                        }
                        assert_eq!(rewrites, want, "{what}");
                    }
                    9 => {
                        // A close finished or failed.
                        let close = table.release(ino);
                        assert_eq!(close, m.wb.take().map(|w| w.close), "{what}");
                    }
                    10 => {
                        // A close begins.
                        if let Some(w) = table.wb_mut(ino) {
                            let close = CloseState {
                                op: OpId(step),
                                commit_xid: rng.chance(0.5).then_some(7),
                            };
                            w.close = Some(close);
                            m.wb.as_mut().expect("books agree").close = Some(close);
                        }
                    }
                    _ => {
                        if rng.chance(0.5) {
                            let e = attr_entry(&mut rng);
                            table.set_attr(ino, e);
                            m.attr = Some(e);
                        } else {
                            assert_eq!(table.drop_attr(ino), m.attr.take().is_some(), "{what}");
                        }
                    }
                }
                check(&table, &model, &inos, &what);
            }
            // Released slots are reused: the slabs never hold more than
            // the most books live at once.
            assert!(table.wbs.slots.len() <= inos.len());
            assert!(table.attrs.slots.len() <= inos.len());
        }
    }

    #[test]
    fn a_file_record_is_40_bytes() {
        assert_eq!(size_of::<ClientFile>(), 40);
    }

    #[test]
    fn unknown_inode_numbers_find_nothing_and_grow_nothing() {
        let mut table = FileTable::default();
        table.mount(10, 1);
        table.mount(12, 1);
        for ino in [0, 9, 11, 13, u64::MAX] {
            assert!(table.get(ino).is_none(), "ino {ino}");
            assert!(!table.is_mounted(ino));
            assert!(table.mounted(ino).is_none());
            assert!(table.attr(ino).is_none());
            assert!(!table.drop_attr(ino));
            assert!(table.wb(ino).is_none());
            assert_eq!(table.first_dirty_run(ino), None);
            assert_eq!(table.release(ino), None);
        }
        assert_eq!(
            (table.base, table.index.len(), table.files.len()),
            (10, 3, 2)
        );
    }
}
