//! The server half's books: the calls it holds in service and one record
//! per file.
//!
//! Both are indexed, not hashed. An admitted call gets a service slot,
//! and the slot, not the caller's routing key, travels through the nfsd
//! queue, the file system's routing tag and parked COMMITs. The one keyed
//! lookup left is admission's duplicate check, which hashes a call's key
//! once, when it arrives. Inode numbers are dense
//! from [`ffs::FIRST_INO`], so per-file state sits in a `Vec` the way the
//! file system's inodes do.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use nfsproto::NfsCall;

/// A call the server admitted and has not answered yet.
#[derive(Debug)]
pub(crate) struct InService {
    /// The caller's routing key: client host or external connection, and
    /// xid.
    pub(crate) key: u64,
    /// The server's own copy of the call, which it executes and answers.
    pub(crate) call: NfsCall,
    /// `key`'s hash in the duplicate check, kept so that taking the call
    /// out hashes nothing.
    hash: u64,
}

/// A routing key and its keyed hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HashedKey {
    key: u64,
    hash: u64,
}

impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands a [`HashedKey`]'s stored hash to the map unchanged.
#[derive(Debug, Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only a HashedKey is hashed here");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The calls in service, by slot, and the in-progress half of a
/// duplicate-request cache (reads are idempotent, so completed calls need
/// no replay cache in this model).
///
/// Slots are reused once their call is answered or dropped; which slot a
/// call gets never reaches an output.
#[derive(Debug, Default)]
pub(crate) struct ServiceTable {
    slots: Vec<Option<InService>>,
    /// Slots free for reuse.
    free: Vec<u32>,
    /// Routing key → slot of every call in service. External keys carry
    /// a peer's xid, so a key's bucket comes from std's keyed hasher (not
    /// `FastMap`), hashed once, when the call is admitted.
    by_key: HashMap<HashedKey, u32, BuildHasherDefault<StoredHash>>,
    keyed: RandomState,
}

impl ServiceTable {
    /// Admits `call` under `key` and returns its slot, or `None` when a
    /// call under `key` is still in service (a retransmission).
    pub(crate) fn admit(&mut self, key: u64, call: NfsCall) -> Option<u32> {
        let hash = self.keyed.hash_one(key);
        let Entry::Vacant(entry) = self.by_key.entry(HashedKey { key, hash }) else {
            return None;
        };
        let held = Some(InService { key, call, hash });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = held;
                slot
            }
            None => {
                self.slots.push(held);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 calls in service")
            }
        };
        entry.insert(slot);
        Some(slot)
    }

    /// The call in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no call.
    pub(crate) fn get(&self, slot: u32) -> &InService {
        self.slots[slot as usize].as_ref().expect("slot in service")
    }

    /// Mutable access to the call in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no call.
    pub(crate) fn get_mut(&mut self, slot: u32) -> &mut InService {
        self.slots[slot as usize].as_mut().expect("slot in service")
    }

    /// Takes the call out of `slot`, freeing the slot and its key.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no call.
    pub(crate) fn remove(&mut self, slot: u32) -> InService {
        let held = self.slots[slot as usize].take().expect("slot in service");
        self.by_key.remove(&HashedKey {
            key: held.key,
            hash: held.hash,
        });
        self.free.push(slot);
        held
    }

    /// Calls in service.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.by_key.len()
    }
}

/// What the server keeps per file beside the file system's inode. The
/// write-side books sit behind a box that the file's first WRITE or
/// COMMIT allocates, so a file that is only looked up and read costs 32
/// bytes.
#[derive(Debug, Default)]
pub(crate) struct ServerInode {
    /// The highest per-file submission sequence a READ has arrived with,
    /// for reorder accounting.
    pub(crate) arrived_seq: u64,
    /// Attribute version, bumped on every WRITE that reaches the server.
    /// Clients compare the version their cache entry was fetched under
    /// against this at revalidation time: the model's stand-in for
    /// mtime/ctime.
    pub(crate) attr_seq: u64,
    /// The contention-book index of the caller whose READ last reached
    /// the file: an `nfsheur` entry belongs to whoever read it last.
    pub(crate) last_reader: Option<u32>,
    /// Dirty pool, flushes, parked COMMITs and durable blocks; `None`
    /// until the file is first written or committed.
    pub(crate) writes: Option<Box<FileWrites>>,
}

impl ServerInode {
    /// The file's write-side books, created on first use.
    pub(crate) fn writes_mut(&mut self) -> &mut FileWrites {
        self.writes.get_or_insert_default()
    }

    /// Whether block `blk` is known to be on stable storage.
    pub(crate) fn is_durable(&self, blk: u64) -> bool {
        self.writes.as_ref().is_some_and(|w| w.is_durable(blk))
    }
}

/// The write side of a file's server books.
#[derive(Debug, Default)]
pub(crate) struct FileWrites {
    /// Dirty flushes in flight (COMMIT replies wait on zero).
    pub(crate) flush_outstanding: usize,
    /// An async flush of the file hit EIO. Latched until a COMMIT reports
    /// it (RFC 1813: async write errors surface at commit time) or the
    /// server restarts.
    pub(crate) flush_error: bool,
    /// Slots of COMMITs parked until the file's flushes complete.
    pub(crate) pending_commits: Vec<u32>,
    /// Dirty pool: blocks stashed by UNSTABLE WRITEs awaiting a
    /// gather-window flush, COMMIT or pressure, sorted and distinct, so
    /// flush coalescing is deterministic.
    pub(crate) dirty: Vec<u64>,
    /// Blocks known to be on stable storage, one bit per block: a block
    /// enters on a completed FILE_SYNC write or dirty flush and never
    /// leaves (the model carries no data contents).
    durable: Vec<u64>,
}

impl FileWrites {
    /// Adds blocks `first..=last` to the dirty pool, returning how many
    /// of them were not in it yet.
    pub(crate) fn stash_dirty(&mut self, first: u64, last: u64) -> u64 {
        let from = self.dirty.partition_point(|&b| b < first);
        let to = from + self.dirty[from..].partition_point(|&b| b <= last);
        let held = (to - from) as u64;
        if to == self.dirty.len() {
            // The common case: the run lands at or past the pool's end.
            self.dirty.truncate(from);
            self.dirty.extend(first..=last);
        } else {
            self.dirty.splice(from..to, first..=last);
        }
        last - first + 1 - held
    }

    /// Marks `count` blocks from `first` on as durable.
    pub(crate) fn mark_durable(&mut self, first: u64, count: u64) {
        for blk in first..first + count {
            let word = usize::try_from(blk / 64).expect("block index fits usize");
            if word >= self.durable.len() {
                self.durable.resize(word + 1, 0);
            }
            self.durable[word] |= 1 << (blk % 64);
        }
    }

    /// Whether block `blk` is known to be on stable storage.
    fn is_durable(&self, blk: u64) -> bool {
        usize::try_from(blk / 64)
            .ok()
            .and_then(|word| self.durable.get(word))
            .is_some_and(|w| w & (1 << (blk % 64)) != 0)
    }
}

/// One [`ServerInode`] per file, at index `ino - FIRST_INO`. A number no
/// file has (0, 1, past the last file, a peer's invention) finds nothing
/// and grows nothing.
#[derive(Debug, Default)]
pub(crate) struct ServerInodes {
    records: Vec<ServerInode>,
}

impl ServerInodes {
    /// Records for `files` files, numbered from [`ffs::FIRST_INO`].
    pub(crate) fn with_files(files: usize) -> Self {
        ServerInodes {
            records: (0..files).map(|_| ServerInode::default()).collect(),
        }
    }

    /// Adds the record of the file just created as number `ino`.
    pub(crate) fn add_file(&mut self, ino: u64) {
        debug_assert_eq!(Self::index(ino), Some(self.records.len()), "dense");
        self.records.push(ServerInode::default());
    }

    #[inline]
    fn index(ino: u64) -> Option<usize> {
        usize::try_from(ino.checked_sub(ffs::FIRST_INO)?).ok()
    }

    /// The record of file `ino`, if there is such a file.
    #[inline]
    pub(crate) fn get(&self, ino: u64) -> Option<&ServerInode> {
        self.records.get(Self::index(ino)?)
    }

    /// Mutable access to the record of file `ino`, if there is one.
    #[inline]
    pub(crate) fn get_mut(&mut self, ino: u64) -> Option<&mut ServerInode> {
        self.records.get_mut(Self::index(ino)?)
    }

    /// The record of a file the server has already checked it holds.
    ///
    /// # Panics
    ///
    /// Panics if there is no file `ino`.
    #[inline]
    pub(crate) fn file(&mut self, ino: u64) -> &mut ServerInode {
        self.get_mut(ino).expect("the server holds this file")
    }

    /// Every record, in inode order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ServerInode> {
        self.records.iter()
    }

    /// Every record, mutably, in inode order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut ServerInode> {
        self.records.iter_mut()
    }

    /// Files the table holds records for.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, VecDeque};

    use nfsproto::FileHandle;
    use simcore::SimRng;

    use super::*;

    fn call(ino: u64, offset: u64) -> NfsCall {
        NfsCall::Read {
            fh: FileHandle {
                fsid: 1,
                ino,
                generation: 1,
            },
            offset,
            count: 8_192,
        }
    }

    /// Drives the table through random admissions (fresh keys and
    /// retransmissions of keys in service), nfsd queueing, stale drops
    /// from the queue and replies in any order, against a plain map from
    /// routing key to call.
    #[test]
    fn service_table_matches_a_keyed_map() {
        for seed in 0..20 {
            let mut rng = SimRng::new(seed);
            let mut table = ServiceTable::default();
            let mut model: HashMap<u64, NfsCall> = HashMap::new();
            // Slots waiting for an nfsd, and slots an nfsd is executing.
            let mut queued: VecDeque<u32> = VecDeque::new();
            let mut running: Vec<u32> = Vec::new();
            let mut peak = 0;
            for step in 0..4_000u64 {
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        // Few clients and xids, an external bit now and
                        // then: retransmissions of live keys are common.
                        let ext = if rng.chance(0.2) { 1 << 62 } else { 0 };
                        let key = ext | rng.gen_range(0..4u64) << 32 | rng.gen_range(1..40u64);
                        let c = call(rng.gen_range(2..10u64), step);
                        let duplicate = model.contains_key(&key);
                        match table.admit(key, c.clone()) {
                            None => assert!(duplicate, "seed {seed}: fresh key {key:#x} refused"),
                            Some(slot) => {
                                assert!(!duplicate, "seed {seed}: duplicate {key:#x} admitted");
                                model.insert(key, c);
                                if rng.chance(0.5) {
                                    queued.push_back(slot);
                                } else {
                                    running.push(slot);
                                }
                            }
                        }
                    }
                    5 => {
                        // An nfsd frees up and takes the oldest queued call.
                        if let Some(slot) = queued.pop_front() {
                            running.push(slot);
                        }
                    }
                    6 => {
                        // The caller retired the call while it was queued.
                        if let Some(slot) = queued.pop_front() {
                            let held = table.remove(slot);
                            assert_eq!(model.remove(&held.key), Some(held.call));
                        }
                    }
                    _ => {
                        // An nfsd replies, in any order.
                        if !running.is_empty() {
                            let i = rng.gen_range(0..running.len());
                            let slot = running.swap_remove(i);
                            let held = table.remove(slot);
                            assert_eq!(model.remove(&held.key), Some(held.call));
                        }
                    }
                }
                assert_eq!(table.len(), model.len(), "seed {seed} step {step}");
                for &slot in queued.iter().chain(&running) {
                    let held = table.get(slot);
                    assert_eq!(model.get(&held.key), Some(&held.call));
                }
                // Slots are reused: the slab never outgrows the most
                // calls ever in service at once.
                peak = peak.max(model.len());
                assert_eq!(table.slots.len(), peak, "seed {seed} step {step}");
            }
            // Everything drains; the freed slots are all reusable.
            for slot in queued.drain(..).chain(running.drain(..)) {
                let held = table.remove(slot);
                assert_eq!(model.remove(&held.key), Some(held.call));
            }
            assert_eq!(table.len(), 0);
            assert_eq!(table.free.len(), table.slots.len());
        }
    }

    #[test]
    fn dirty_pool_stays_sorted_and_counts_new_blocks() {
        let mut inode = FileWrites::default();
        assert_eq!(inode.stash_dirty(4, 7), 4);
        assert_eq!(inode.stash_dirty(6, 9), 2);
        assert_eq!(inode.stash_dirty(0, 1), 2);
        assert_eq!(inode.stash_dirty(3, 3), 1);
        assert_eq!(inode.stash_dirty(0, 9), 1);
        assert_eq!(inode.dirty, (0..=9).collect::<Vec<_>>());
        assert_eq!(inode.stash_dirty(20, 20), 1);
        assert_eq!(inode.stash_dirty(12, 13), 2);
        assert_eq!(inode.dirty.len(), 13);
        assert!(inode.dirty.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn durable_bits_cover_exactly_the_marked_blocks() {
        let mut inode = ServerInode::default();
        assert!(!inode.is_durable(0));
        inode.writes_mut().mark_durable(62, 4);
        inode.writes_mut().mark_durable(200, 1);
        let marked: Vec<u64> = (0..300).filter(|&b| inode.is_durable(b)).collect();
        assert_eq!(marked, vec![62, 63, 64, 65, 200]);
        assert!(!inode.is_durable(u64::MAX));
    }

    #[test]
    fn a_file_record_costs_32_bytes_until_the_file_is_written() {
        assert_eq!(std::mem::size_of::<ServerInode>(), 32);
    }

    #[test]
    fn unknown_inode_numbers_find_nothing_and_grow_nothing() {
        let mut inodes = ServerInodes::with_files(3);
        inodes.add_file(ffs::FIRST_INO + 3);
        for ino in [0, 1, ffs::FIRST_INO + 4, u64::MAX] {
            assert!(inodes.get(ino).is_none());
            assert!(inodes.get_mut(ino).is_none());
        }
        assert!(inodes.get(ffs::FIRST_INO + 3).is_some());
        assert_eq!(inodes.len(), 4);
    }
}
