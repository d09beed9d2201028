//! Shared cursor pool — the paper's §8 future-work item, implemented.
//!
//! "In our simplistic architecture, it is inefficient to increase the
//! number of cursors, because every file handle will reserve space for this
//! number of cursors (whether they are ever used or not). It would be
//! better to share a common pool of cursors among all file handles."
//!
//! [`SharedCursorPool`] does exactly that: a single, globally LRU-recycled
//! pool of cursors keyed by file handle. A lone sequential reader uses one
//! cursor; an MPI-style job can burn dozens on one file; the total memory
//! is fixed either way.

use crate::policy::CursorConfig;
use crate::record::{Cursor, SEQCOUNT_INIT};

/// Counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Observations that matched an existing cursor.
    pub matches: u64,
    /// Cursors allocated (pool not yet full).
    pub allocations: u64,
    /// Cursors recycled from other (or the same) file handles.
    pub recycles: u64,
}

/// A fixed-size cursor pool shared across every active file handle.
///
/// Stored structure-of-arrays: the scan that dominates
/// [`observe`](Self::observe) walks the packed `keys` array and only
/// touches a cursor when its key matches, instead of striding over
/// key+cursor pairs.
#[derive(Debug)]
pub struct SharedCursorPool {
    capacity: usize,
    window_bytes: u64,
    keys: Vec<u64>,
    cursors: Vec<Cursor>,
    clock: u64,
    stats: PoolStats,
}

impl SharedCursorPool {
    /// Creates a pool of `capacity` cursors with the given matching window.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, window_bytes: u64) -> Self {
        assert!(capacity > 0, "pool needs at least one cursor");
        SharedCursorPool {
            capacity,
            window_bytes,
            keys: Vec::with_capacity(capacity),
            cursors: Vec::with_capacity(capacity),
            clock: 0,
            stats: PoolStats::default(),
        }
    }

    /// Builds a pool sized for `handles` typical file handles using the
    /// per-handle cursor configuration as a guide.
    pub fn sized_for(handles: usize, cfg: CursorConfig) -> Self {
        Self::new(
            handles.max(1) * cfg.max_cursors.max(1) / 2 + 1,
            cfg.window_bytes,
        )
    }

    /// Counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Live cursors.
    pub fn live(&self) -> usize {
        self.cursors.len()
    }

    /// Observes a read on file `key`, returning the effective seqcount —
    /// the pooled equivalent of the per-handle cursor heuristic.
    pub fn observe(&mut self, key: u64, offset: u64, len: u64) -> u32 {
        self.clock += 1;
        let clock = self.clock;
        // One fused scan finds both the nearest same-file cursor within the
        // window (first minimum wins; an exact match can stop immediately)
        // and the global LRU victim needed if the lookup misses.
        let mut best: Option<(usize, u64)> = None;
        let mut lru = 0usize;
        let mut lru_use = u64::MAX;
        for (i, &k) in self.keys.iter().enumerate() {
            let c = &self.cursors[i];
            if c.last_use < lru_use {
                lru_use = c.last_use;
                lru = i;
            }
            if k == key {
                let diff = c.next_offset.abs_diff(offset);
                if diff <= self.window_bytes && best.is_none_or(|(_, d)| diff < d) {
                    best = Some((i, diff));
                    if diff == 0 {
                        break;
                    }
                }
            }
        }
        if let Some((i, _)) = best {
            self.stats.matches += 1;
            let c = &mut self.cursors[i];
            if offset == c.next_offset {
                c.grow();
                c.next_offset = offset + len;
            } else {
                c.next_offset = c.next_offset.max(offset + len);
            }
            c.last_use = clock;
            return c.seqcount;
        }
        // Allocate or recycle the globally least recently used cursor.
        let fresh = Cursor::fresh(offset + len, clock);
        if self.keys.len() < self.capacity {
            self.stats.allocations += 1;
            self.keys.push(key);
            self.cursors.push(fresh);
        } else {
            self.stats.recycles += 1;
            self.keys[lru] = key;
            self.cursors[lru] = fresh;
        }
        SEQCOUNT_INIT
    }

    /// Drops every cursor.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.cursors.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLK: u64 = 8_192;

    #[test]
    fn single_stream_grows() {
        let mut p = SharedCursorPool::new(8, 64 * 1024);
        let mut last = 0;
        for b in 0..20u64 {
            last = p.observe(1, b * BLK, BLK);
        }
        assert!(last >= 20);
        assert_eq!(p.live(), 1, "one stream, one cursor");
    }

    #[test]
    fn cursors_do_not_cross_file_handles() {
        let mut p = SharedCursorPool::new(8, 64 * 1024);
        p.observe(1, 0, BLK);
        // Same offsets, different file: must not match file 1's cursor.
        let c = p.observe(2, BLK, BLK);
        assert_eq!(c, SEQCOUNT_INIT);
        assert_eq!(p.live(), 2);
    }

    #[test]
    fn wide_stride_on_one_file_uses_many_cursors() {
        // 16 interleaved subcomponents — more than any per-handle limit —
        // all tracked because the pool is shared.
        let mut p = SharedCursorPool::new(64, 64 * 1024);
        let s = 16u64;
        let mut min_final = u32::MAX;
        for i in 0..12u64 {
            for k in 0..s {
                let c = p.observe(7, (k * 100_000 + i) * BLK, BLK);
                if i == 11 {
                    min_final = min_final.min(c);
                }
            }
        }
        assert_eq!(p.live(), s as usize);
        assert!(min_final >= 10, "all 16 subcomponents grew: {min_final}");
    }

    #[test]
    fn recycling_is_global_lru() {
        let mut p = SharedCursorPool::new(2, 64 * 1024);
        p.observe(1, 0, BLK); // Cursor A.
        p.observe(2, 0, BLK); // Cursor B.
        p.observe(1, BLK, BLK); // Touch A.
        p.observe(3, 0, BLK); // Recycles B (file 2's cursor).
        assert!(p.stats().recycles == 1);
        let c = p.observe(2, BLK, BLK);
        assert_eq!(c, SEQCOUNT_INIT, "file 2 lost its cursor to file 3");
    }

    #[test]
    fn idle_handles_consume_nothing() {
        // The §8 motivation: per-handle reservation wastes cursors. Here
        // 100 one-shot files plus one busy file fit a small pool.
        let mut p = SharedCursorPool::new(4, 64 * 1024);
        for f in 0..100u64 {
            p.observe(f, 0, BLK);
        }
        let mut last = 0;
        for b in 1..30u64 {
            last = p.observe(99, b * BLK, BLK);
        }
        assert!(last >= 29, "busy file unaffected by dead cursors: {last}");
    }

    #[test]
    fn clear_and_stats() {
        let mut p = SharedCursorPool::new(2, 64 * 1024);
        p.observe(1, 0, BLK);
        p.observe(1, BLK, BLK);
        assert_eq!(p.stats().matches, 1);
        assert_eq!(p.stats().allocations, 1);
        p.clear();
        assert_eq!(p.live(), 0);
    }

    #[test]
    fn sized_for_scales() {
        let p = SharedCursorPool::sized_for(32, CursorConfig::default());
        assert!(p.capacity >= 32);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_rejected() {
        let _ = SharedCursorPool::new(0, 1);
    }
}
