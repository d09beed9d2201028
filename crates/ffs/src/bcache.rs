//! The kernel buffer cache.
//!
//! An LRU cache of (inode, file-block) entries with a *pending* state:
//! a block whose disk read is in flight is pinned in the cache so
//! concurrent readers of the same block share one I/O instead of
//! duplicating it. Capacity is counted in blocks, sized from the machine's
//! RAM (the paper's server has 256 MB, which is why its 1.5 GB benchmark
//! working set defeats caching, §4.3.1).
//!
//! # Layout
//!
//! Eviction is the hot path of any run whose working set exceeds the
//! cache, which is every paper-faithful run (§4.3.1), so no block lookup
//! hashes a `(ino, blk)` key and no eviction scans anything:
//!
//! * **Slot arena.** Each cached block lives in a 16-byte [`Slot`] of one
//!   `Vec`, recycled through a free list threaded through the slots.
//! * **Per-file index.** A table from inode number to file number and,
//!   per file, a table from block number to slot. The file system hands
//!   out inode numbers densely, so the inode table is a plain `Vec`
//!   indexed by inode number; it grows only when a block of a new inode
//!   is inserted. A file's block table is inline up to [`INLINE`] blocks
//!   and a power-of-two heap table past that. File entries are never
//!   removed, so neither table churns.
//! * **Exact LRU as a list.** Valid slots form a doubly linked list, oldest
//!   at the head. A hit or a fill moves the slot to the tail, marking it
//!   pending unlinks it, and eviction pops the head. The list is therefore
//!   ordered by last use, and its head is the least recently used valid
//!   block: the victim a scan for the oldest use stamp would pick.

/// Cache key: inode number and file-block index.
pub type BlockKey = (u64, u64);

/// No slot: an empty index entry, or the end of a list.
const NIL: u32 = u32::MAX;
/// `Slot::prev` of a pending block (pinned, off the LRU list).
const PENDING: u32 = u32::MAX - 1;
/// `Slot::prev` of a free slot; its `next` chains the free list.
const FREE: u32 = u32::MAX - 2;

/// Files of up to this many blocks keep their index inline.
const INLINE: usize = 4;
/// Smallest heap index, in blocks.
const HEAP_MIN: usize = 16;

/// One cached block, or a free arena entry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// File number (index into `BufferCache::files`).
    file: u32,
    /// Block number within the file.
    blk: u32,
    /// Older neighbour on the LRU list, or [`PENDING`] / [`FREE`].
    prev: u32,
    /// Newer neighbour on the LRU list, or the next free slot.
    next: u32,
}

/// A file's block → slot table; [`NIL`] where the block is not cached.
#[derive(Debug)]
enum Index {
    Inline([u32; INLINE]),
    Heap(Vec<u32>),
}

impl Index {
    fn slots(&self) -> &[u32] {
        match self {
            Index::Inline(a) => a,
            Index::Heap(v) => v,
        }
    }

    fn slots_mut(&mut self) -> &mut [u32] {
        match self {
            Index::Inline(a) => a,
            Index::Heap(v) => v,
        }
    }

    /// The slot caching `blk`, if any.
    fn get(&self, blk: u32) -> Option<u32> {
        self.slots()
            .get(blk as usize)
            .copied()
            .filter(|&s| s != NIL)
    }

    /// The entry for `blk`, growing the table to the next power of two
    /// (at least [`HEAP_MIN`]) if it is too short.
    fn entry(&mut self, blk: u32) -> &mut u32 {
        let i = blk as usize;
        let len = self.slots().len();
        if i >= len {
            let want = (i + 1).next_power_of_two().max(HEAP_MIN);
            match self {
                Index::Inline(a) => {
                    let mut v = vec![NIL; want];
                    v[..INLINE].copy_from_slice(a);
                    *self = Index::Heap(v);
                }
                Index::Heap(v) => v.resize(want, NIL),
            }
        }
        &mut self.slots_mut()[i]
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Index::Inline(_) => 0,
            Index::Heap(v) => v.capacity() * std::mem::size_of::<u32>(),
        }
    }
}

/// A block number as a slot stores it.
///
/// # Panics
///
/// Panics if `blk` needs more than 32 bits. Peer input cannot reach this:
/// only `mark_pending` and `fill` call it, and a block reaches them only
/// inside a file's extent. The server checks every READ and WRITE against
/// EOF before it touches the cache, and a file lives on a partition of
/// fewer than 2³² blocks. A client caches blocks of files it reads within
/// their size, and those are server files.
fn slot_blk(blk: u64) -> u32 {
    u32::try_from(blk).expect("buffer cache block number exceeds 32 bits")
}

/// LRU buffer cache with pending-block pinning.
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    /// Resident blocks (valid + pending).
    len: usize,
    slots: Vec<Slot>,
    /// First free slot, or [`NIL`].
    free: u32,
    /// Least recently used valid slot, or [`NIL`].
    head: u32,
    /// Most recently used valid slot, or [`NIL`].
    tail: u32,
    /// File number by inode number; [`NIL`] for an inode with no file.
    inos: Vec<u32>,
    /// Block index per file number.
    files: Vec<Index>,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates a cache holding up to `capacity` blocks. Nothing is
    /// allocated until the first block arrives.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        BufferCache {
            capacity,
            len: 0,
            slots: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            inos: Vec::new(),
            files: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of resident blocks (valid + pending).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hit/miss counters (lookups only).
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Approximate heap bytes behind this cache: the slot arena (free
    /// slots included), the inode table, the file table and every heap
    /// index, all at capacity. Used for
    /// fleet-scale memory accounting; excludes `size_of::<BufferCache>()`
    /// itself.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<Slot>()
            + self.inos.capacity() * size_of::<u32>()
            + self.files.capacity() * size_of::<Index>()
            + self.files.iter().map(Index::heap_bytes).sum::<usize>()
    }

    /// Looks up a block for a read, bumping LRU on hit.
    /// Returns `true` if the block is valid in cache.
    pub fn lookup(&mut self, key: BlockKey) -> bool {
        match self.slot_of(key) {
            Some(s) if self.slots[s as usize].prev != PENDING => {
                if s != self.tail {
                    self.unlink(s);
                    self.push_tail(s);
                }
                self.hits += 1;
                true
            }
            _ => {
                self.misses += 1;
                false
            }
        }
    }

    /// Whether a read for this block is already in flight.
    pub fn is_pending(&self, key: BlockKey) -> bool {
        matches!(self.slot_of(key), Some(s) if self.slots[s as usize].prev == PENDING)
    }

    /// Whether the block is valid, without touching LRU or counters.
    pub fn peek(&self, key: BlockKey) -> bool {
        matches!(self.slot_of(key), Some(s) if self.slots[s as usize].prev != PENDING)
    }

    /// Whether the block is valid or pending (`peek || is_pending` in one
    /// index probe), without touching LRU or counters.
    pub fn holds(&self, key: BlockKey) -> bool {
        self.slot_of(key).is_some()
    }

    /// Marks a block as having a read in flight (pins it).
    pub fn mark_pending(&mut self, key: BlockKey) {
        let (file, blk) = (self.file_of(key.0), slot_blk(key.1));
        // A full cache makes room even when the block is already resident
        // (it may be the victim itself).
        self.evict_if_needed();
        let s = match self.files[file as usize].get(blk) {
            Some(s) if self.slots[s as usize].prev == PENDING => return,
            Some(s) => {
                self.unlink(s);
                s
            }
            None => self.insert(file, blk),
        };
        self.slots[s as usize].prev = PENDING;
    }

    /// Completes a pending read: the block becomes valid.
    /// Inserting a block that was never pending is also allowed (e.g.
    /// read-ahead data arriving for a block nobody asked about yet).
    pub fn fill(&mut self, key: BlockKey) {
        let (file, blk) = (self.file_of(key.0), slot_blk(key.1));
        let s = match self.files[file as usize].get(blk) {
            Some(s) => {
                if self.slots[s as usize].prev != PENDING {
                    self.unlink(s);
                }
                s
            }
            None => {
                self.evict_if_needed();
                self.insert(file, blk)
            }
        };
        self.push_tail(s);
    }

    /// Invalidates one block (e.g. overwritten by a write that bypasses the
    /// cache in our model). Pending blocks stay pending.
    pub fn invalidate(&mut self, key: BlockKey) {
        if let Some(s) = self.slot_of(key) {
            if self.slots[s as usize].prev != PENDING {
                self.unlink(s);
                self.release(s);
            }
        }
    }

    /// Removes a block regardless of state, releasing a pending mark whose
    /// fill will never come (the fetching RPC timed out). The block can be
    /// requested afresh afterwards.
    pub fn discard(&mut self, key: BlockKey) {
        if let Some(s) = self.slot_of(key) {
            if self.slots[s as usize].prev != PENDING {
                self.unlink(s);
            }
            self.release(s);
        }
    }

    /// Empties the cache of valid blocks (benchmark flush discipline);
    /// pending blocks survive because their I/O is still in flight.
    pub fn flush(&mut self) {
        let mut s = self.head;
        while s != NIL {
            let next = self.slots[s as usize].next;
            self.release(s);
            s = next;
        }
        self.head = NIL;
        self.tail = NIL;
    }

    /// The slot caching `key`, valid or pending. Never grows anything: an
    /// unknown or out-of-range inode misses.
    #[inline]
    fn slot_of(&self, (ino, blk): BlockKey) -> Option<u32> {
        let file = *self.inos.get(usize::try_from(ino).ok()?)?;
        if file == NIL {
            return None;
        }
        self.files[file as usize].get(u32::try_from(blk).ok()?)
    }

    /// The file number of `ino`, registering the file on first sight.
    ///
    /// # Panics
    ///
    /// Panics if `ino` needs more than 32 bits. The inode table is as long
    /// as the largest inode cached, which the file system keeps small by
    /// numbering inodes densely (see [`slot_blk`] for why peers cannot
    /// pick the keys).
    fn file_of(&mut self, ino: u64) -> u32 {
        let i = u32::try_from(ino).expect("buffer cache inode number exceeds 32 bits") as usize;
        if i >= self.inos.len() {
            self.inos.resize((i + 1).next_power_of_two(), NIL);
        }
        if self.inos[i] == NIL {
            let file = u32::try_from(self.files.len())
                .ok()
                .filter(|&f| f < NIL)
                .expect("buffer cache file count exceeds 32 bits");
            self.files.push(Index::Inline([NIL; INLINE]));
            self.inos[i] = file;
        }
        self.inos[i]
    }

    /// Takes a slot for `(file, blk)` and indexes it. The slot is returned
    /// off the list; the caller links it or marks it pending.
    fn insert(&mut self, file: u32, blk: u32) -> u32 {
        let slot = Slot {
            file,
            blk,
            prev: PENDING,
            next: NIL,
        };
        let s = if self.free != NIL {
            let s = self.free;
            self.free = self.slots[s as usize].next;
            self.slots[s as usize] = slot;
            s
        } else {
            let s = u32::try_from(self.slots.len())
                .ok()
                .filter(|&s| s < FREE)
                .expect("buffer cache slot count exceeds 32 bits");
            self.slots.push(slot);
            s
        };
        *self.files[file as usize].entry(blk) = s;
        self.len += 1;
        s
    }

    /// Unindexes slot `s` (already off the list) and frees it.
    fn release(&mut self, s: u32) {
        let slot = &mut self.slots[s as usize];
        self.files[slot.file as usize].slots_mut()[slot.blk as usize] = NIL;
        slot.prev = FREE;
        slot.next = self.free;
        self.free = s;
        self.len -= 1;
    }

    /// Takes valid slot `s` off the LRU list.
    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Links slot `s` at the tail, as the most recently used.
    fn push_tail(&mut self, s: u32) {
        let tail = self.tail;
        let slot = &mut self.slots[s as usize];
        slot.prev = tail;
        slot.next = NIL;
        if tail == NIL {
            self.head = s;
        } else {
            self.slots[tail as usize].next = s;
        }
        self.tail = s;
    }

    fn evict_if_needed(&mut self) {
        // When every resident block is pending the list is empty: allow
        // temporary overflow rather than dropping in-flight state.
        while self.len >= self.capacity && self.head != NIL {
            let s = self.head;
            self.unlink(s);
            self.release(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;

    impl BufferCache {
        /// Walks every structure and panics on the first broken
        /// invariant: the list is consistent in both directions and holds
        /// only valid, indexed slots; free slots are unindexed; every
        /// index entry points back at its own slot; `len` counts the
        /// indexed slots.
        fn check_invariants(&self) {
            let n = self.slots.len();
            let indexed = |s: u32| {
                let slot = self.slots[s as usize];
                self.files[slot.file as usize].get(slot.blk) == Some(s)
            };
            let mut linked = 0;
            let (mut prev, mut s) = (NIL, self.head);
            while s != NIL {
                assert!(linked < n, "LRU list has a cycle");
                let slot = self.slots[s as usize];
                assert_eq!(slot.prev, prev, "slot {s}: prev link broken");
                assert!(indexed(s), "linked slot {s} is not indexed");
                linked += 1;
                (prev, s) = (s, slot.next);
            }
            assert_eq!(self.tail, prev, "tail is not the last linked slot");
            let mut free = 0;
            let mut s = self.free;
            while s != NIL {
                assert!(free < n, "free list has a cycle");
                assert_eq!(
                    self.slots[s as usize].prev, FREE,
                    "slot {s} on the free list"
                );
                assert!(!indexed(s), "free slot {s} is indexed");
                free += 1;
                s = self.slots[s as usize].next;
            }
            let pending = self.slots.iter().filter(|x| x.prev == PENDING).count();
            assert_eq!(linked + free + pending, n, "slots lost or double-counted");
            let mut entries = 0;
            for (f, index) in self.files.iter().enumerate() {
                for (b, &s) in index.slots().iter().enumerate() {
                    if s == NIL {
                        continue;
                    }
                    let slot = self.slots[s as usize];
                    assert_eq!((slot.file as usize, slot.blk as usize), (f, b));
                    assert_ne!(slot.prev, FREE, "index points at free slot {s}");
                    entries += 1;
                }
            }
            assert_eq!(entries, self.len, "len is not the indexed count");
            assert_eq!(linked + pending, self.len);
            let mut numbers: Vec<u32> = self.inos.iter().copied().filter(|&f| f != NIL).collect();
            numbers.sort_unstable();
            assert_eq!(numbers.len(), self.files.len());
            assert!(numbers.iter().enumerate().all(|(i, &f)| f as usize == i));
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = BufferCache::new(8);
        assert!(!c.lookup((1, 0)));
        c.fill((1, 0));
        assert!(c.lookup((1, 0)));
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn pending_blocks_are_not_valid_yet() {
        let mut c = BufferCache::new(8);
        c.mark_pending((1, 0));
        assert!(!c.lookup((1, 0)));
        assert!(c.is_pending((1, 0)));
        c.fill((1, 0));
        assert!(c.lookup((1, 0)));
        assert!(!c.is_pending((1, 0)));
    }

    #[test]
    fn lru_evicts_oldest_valid() {
        let mut c = BufferCache::new(2);
        c.fill((1, 0));
        c.fill((1, 1));
        assert!(c.lookup((1, 0))); // Bump block 0.
        c.fill((1, 2)); // Evicts block 1.
        assert!(c.peek((1, 0)));
        assert!(!c.peek((1, 1)));
        assert!(c.peek((1, 2)));
    }

    #[test]
    fn pending_blocks_are_pinned() {
        let mut c = BufferCache::new(2);
        c.mark_pending((1, 0));
        c.mark_pending((1, 1));
        // Cache is full of pending blocks; a new fill overflows rather than
        // dropping in-flight state.
        c.fill((1, 2));
        assert!(c.is_pending((1, 0)));
        assert!(c.is_pending((1, 1)));
        assert!(c.peek((1, 2)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn flush_keeps_pending() {
        let mut c = BufferCache::new(8);
        c.fill((1, 0));
        c.mark_pending((1, 1));
        c.flush();
        assert!(!c.peek((1, 0)));
        assert!(c.is_pending((1, 1)));
    }

    #[test]
    fn invalidate_removes_valid_only() {
        let mut c = BufferCache::new(8);
        c.fill((1, 0));
        c.mark_pending((1, 1));
        c.invalidate((1, 0));
        c.invalidate((1, 1));
        assert!(!c.peek((1, 0)));
        assert!(c.is_pending((1, 1)));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = BufferCache::new(0);
    }

    #[test]
    #[should_panic(expected = "exceeds 32 bits")]
    fn a_block_number_past_32_bits_is_rejected() {
        BufferCache::new(8).fill((1, 1 << 32));
    }

    #[test]
    fn a_block_number_past_32_bits_is_never_cached() {
        let mut c = BufferCache::new(8);
        c.fill((1, 0));
        let key = (1, 1 << 32);
        assert!(!c.lookup(key) && !c.peek(key) && !c.is_pending(key));
        c.invalidate(key);
        c.discard(key);
        assert!(c.peek((1, 0)));
    }

    #[test]
    #[should_panic(expected = "inode number exceeds 32 bits")]
    fn an_inode_number_past_32_bits_is_rejected() {
        BufferCache::new(8).mark_pending((1 << 32, 0));
    }

    #[test]
    fn probes_of_unknown_inodes_miss_and_allocate_nothing() {
        let mut c = BufferCache::new(8);
        c.fill((3, 0));
        let bytes = c.approx_heap_bytes();
        for ino in [0, 2, 4, 1 << 20, 1 << 32, u64::MAX] {
            let key = (ino, 0);
            assert!(!c.lookup(key) && !c.peek(key) && !c.is_pending(key) && !c.holds(key));
            c.invalidate(key);
            c.discard(key);
        }
        assert_eq!(c.approx_heap_bytes(), bytes, "a probe grew the inode table");
        assert!(c.peek((3, 0)));
    }

    #[test]
    fn new_allocates_nothing() {
        let c = BufferCache::new(120_000);
        assert_eq!(c.approx_heap_bytes(), 0);
    }

    #[test]
    fn distinct_inodes_do_not_collide() {
        let mut c = BufferCache::new(8);
        c.fill((1, 5));
        assert!(!c.lookup((2, 5)));
        assert!(c.lookup((1, 5)));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = BufferCache::new(100);
        // Cyclically touch 150 blocks twice: second pass still misses.
        for pass in 0..2 {
            for b in 0..150u64 {
                if !c.lookup((1, b)) {
                    c.fill((1, b));
                }
            }
            let _ = pass;
        }
        let (hits, misses) = c.hit_miss();
        assert_eq!(hits, 0, "LRU cycling gives zero hits");
        assert_eq!(misses, 300);
    }

    /// A seeded op loop whose files range from one block (inline index) to
    /// 76 (heap index), checking every invariant after every op. Key
    /// shapes and the comparison with a reference cache are in
    /// `tests/bcache_lru_model.rs`.
    #[test]
    fn invariants_hold_after_every_op() {
        for capacity in [1, 7, 24, 64] {
            let mut rng = SimRng::new(capacity as u64);
            let mut c = BufferCache::new(capacity);
            for _ in 0..4_000 {
                let ino = rng.gen_range(0..6u64);
                let k = (ino, rng.gen_range(0..=3 * ino * ino));
                match rng.gen_range(0..100u32) {
                    0..=29 => {
                        c.lookup(k);
                    }
                    30..=54 => c.fill(k),
                    55..=79 => c.mark_pending(k),
                    80..=89 => c.invalidate(k),
                    90..=98 => c.discard(k),
                    _ => c.flush(),
                }
                c.check_invariants();
            }
        }
    }

    #[test]
    fn the_cache_is_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<BufferCache>();
    }
}
