//! The kernel buffer cache.
//!
//! An LRU cache of (inode, file-block) entries with a *pending* state:
//! a block whose disk read is in flight is pinned in the cache so
//! concurrent readers of the same block share one I/O instead of
//! duplicating it. Capacity is counted in blocks, sized from the machine's
//! RAM (the paper's server has 256 MB, which is why its 1.5 GB benchmark
//! working set defeats caching, §4.3.1).
//!
//! # Eviction
//!
//! Eviction is exact LRU: the victim is always the valid entry with the
//! smallest stamp. Every insert and every hit takes a fresh stamp from a
//! strictly increasing clock, so stamps are unique. Scanning the map for
//! that minimum on every eviction costs the whole map per evicted block,
//! and eviction is the hot path of any run whose working set exceeds the
//! cache, which is every paper-faithful run (§4.3.1).
//!
//! Instead, one scan collects a batch of candidates: the `k` oldest valid
//! `(stamp, key)` pairs, kept newest first so `pop` yields the oldest.
//! `k` is `capacity / 32`, clamped to `1..=1024`. The list is never
//! updated in place. A candidate is *stale* if its entry is gone, pending,
//! or carries a different stamp; eviction pops past stale candidates and
//! rescans only when the list runs dry.
//!
//! Why the first fresh candidate is the global minimum: a valid entry
//! outside the list either had a larger stamp than every listed one at
//! scan time, or was stamped after the scan and so is larger still. A
//! listed entry that went stale can only come back with a new, larger
//! stamp. In the worst case every candidate is stale and the cache
//! rescans once per eviction, which is the cost of the plain scan. The
//! list adds no per-block memory: it never holds more than `k` pairs.

use std::collections::BinaryHeap;

use simcore::FastMap;

/// Cache key: inode number and file-block index.
pub type BlockKey = (u64, u64);

/// State of a cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Contents valid.
    Valid,
    /// Disk read in flight; pinned (not evictable).
    Pending,
}

#[derive(Debug)]
struct Entry {
    state: State,
    stamp: u64,
}

/// A `(stamp, key)` eviction candidate.
type Victim = (u64, BlockKey);

/// LRU buffer cache with pending-block pinning.
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    map: FastMap<BlockKey, Entry>,
    /// The oldest valid entries as of the last scan, newest first; may
    /// hold stale candidates (see the module docs).
    victims: Vec<Victim>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates a cache holding up to `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        BufferCache {
            capacity,
            map: FastMap::default(),
            victims: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of resident blocks (valid + pending).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit/miss counters (lookups only).
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Approximate heap bytes behind this cache (hash-map backing store,
    /// estimated from its capacity, plus the eviction candidate list).
    /// Used for fleet-scale memory accounting; excludes
    /// `size_of::<BufferCache>()` itself.
    pub fn approx_heap_bytes(&self) -> usize {
        self.map.capacity()
            * (std::mem::size_of::<BlockKey>()
                + std::mem::size_of::<Entry>()
                + std::mem::size_of::<u64>())
            + self.victims.capacity() * std::mem::size_of::<Victim>()
    }

    /// Looks up a block for a read, bumping LRU on hit.
    /// Returns `true` if the block is valid in cache.
    pub fn lookup(&mut self, key: BlockKey) -> bool {
        self.clock += 1;
        match self.map.get_mut(&key) {
            Some(e) if e.state == State::Valid => {
                e.stamp = self.clock;
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
        matches!(self.map.get(&key), Some(e) if e.state == State::Pending)
    }

    /// Whether the block is valid, without touching LRU or counters.
    pub fn peek(&self, key: BlockKey) -> bool {
        matches!(self.map.get(&key), Some(e) if e.state == State::Valid)
    }

    /// Marks a block as having a read in flight (pins it).
    pub fn mark_pending(&mut self, key: BlockKey) {
        self.clock += 1;
        self.evict_if_needed();
        self.map.insert(
            key,
            Entry {
                state: State::Pending,
                stamp: self.clock,
            },
        );
    }

    /// Completes a pending read: the block becomes valid.
    /// Inserting a block that was never pending is also allowed (e.g.
    /// read-ahead data arriving for a block nobody asked about yet).
    pub fn fill(&mut self, key: BlockKey) {
        self.clock += 1;
        if !self.map.contains_key(&key) {
            self.evict_if_needed();
        }
        self.map.insert(
            key,
            Entry {
                state: State::Valid,
                stamp: self.clock,
            },
        );
    }

    /// Invalidates one block (e.g. overwritten by a write that bypasses the
    /// cache in our model). Pending blocks stay pending.
    pub fn invalidate(&mut self, key: BlockKey) {
        if let Some(e) = self.map.get(&key) {
            if e.state == State::Valid {
                self.map.remove(&key);
            }
        }
    }

    /// Removes a block regardless of state, releasing a pending mark whose
    /// fill will never come (the fetching RPC timed out). The block can be
    /// requested afresh afterwards.
    pub fn discard(&mut self, key: BlockKey) {
        self.map.remove(&key);
    }

    /// Empties the cache of valid blocks (benchmark flush discipline);
    /// pending blocks survive because their I/O is still in flight.
    pub fn flush(&mut self) {
        self.map.retain(|_, e| e.state == State::Pending);
    }

    fn evict_if_needed(&mut self) {
        while self.map.len() >= self.capacity {
            match self.pop_victim() {
                Some(k) => {
                    self.map.remove(&k);
                }
                // Everything is pending; allow temporary overflow rather
                // than dropping in-flight state.
                None => break,
            }
        }
    }

    /// The least recently used *valid* key, or `None` if every resident
    /// block is pending.
    fn pop_victim(&mut self) -> Option<BlockKey> {
        loop {
            while let Some((stamp, key)) = self.victims.pop() {
                if matches!(self.map.get(&key),
                    Some(e) if e.state == State::Valid && e.stamp == stamp)
                {
                    return Some(key);
                }
            }
            if !self.rescan_victims() {
                return None;
            }
        }
    }

    /// Refills the empty candidate list with the oldest valid entries in
    /// one pass over the map (a bounded max-heap on stamp). Returns
    /// whether any valid entry exists.
    fn rescan_victims(&mut self) -> bool {
        let k = (self.capacity / 32).clamp(1, 1_024);
        // The list is empty here; the heap reuses its allocation.
        let mut heap = BinaryHeap::from(std::mem::take(&mut self.victims));
        heap.reserve_exact(k);
        for (key, e) in &self.map {
            if e.state != State::Valid {
                continue;
            }
            if heap.len() < k {
                heap.push((e.stamp, *key));
            } else if let Some(mut newest) = heap.peek_mut() {
                if e.stamp < newest.0 {
                    *newest = (e.stamp, *key);
                }
            }
        }
        self.victims = heap.into_sorted_vec();
        self.victims.reverse();
        !self.victims.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
