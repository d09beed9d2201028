//! The drive's segmented read cache with background prefetch.
//!
//! Every modern drive keeps a small RAM buffer divided into *segments*,
//! each caching a sliding window of a sequential stream. After a mechanical
//! read the head is already on track, so the drive keeps reading — for free
//! — advancing the segment's *frontier* at the media rate for as long as
//! the mechanics stay idle. The window is a ring: once more than a
//! segment's capacity has been prefetched, the oldest data is overwritten,
//! so a segment can follow an arbitrarily long sequential stream while
//! occupying constant space.
//!
//! This background prefetch is what lets a drive sustain media-rate
//! sequential reads even when the host issues small synchronous requests
//! with think-time between them, and it is the mechanism behind the
//! surprisingly high "default heuristic" stride-read numbers in §7 of the
//! paper: each stride stream monopolizes one cache segment.
//!
//! Key modelled behaviours:
//!
//! * prefetch proceeds at the media rate of the track being read;
//! * prefetch is **truncated** the instant the mechanics start servicing
//!   another request (the head leaves the track);
//! * a hit that lands beyond the current frontier is served when the fill
//!   reaches it (the host cannot outrun the media);
//! * data further than one segment capacity behind the frontier has been
//!   overwritten and misses;
//! * segment replacement is LRU or random, per drive model — drives with
//!   few segments and LRU thrash pathologically on cyclic access patterns.

use simcore::{SimRng, SimTime};

use crate::types::Lba;

/// Replacement policy for cache segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Evict the least recently used segment.
    Lru,
    /// Evict a uniformly random segment (models adaptive/unknown firmware).
    Random,
}

/// Configuration of the segmented cache.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of segments (0 disables the cache entirely).
    pub segments: usize,
    /// Capacity of each segment in sectors (the sliding-window size).
    pub segment_sectors: u64,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// A disabled cache.
    pub fn disabled() -> Self {
        CacheConfig {
            segments: 0,
            segment_sectors: 0,
            replacement: Replacement::Lru,
        }
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheOutcome {
    /// The full range is (or will be) in the buffer; data is complete at
    /// `ready_at` (equal to `now` if already buffered).
    Hit {
        /// Instant at which the last requested sector is in the buffer.
        ready_at: SimTime,
    },
    /// The range is not covered; the mechanics must service it.
    Miss,
}

#[derive(Debug, Clone)]
struct Segment {
    /// First sector the segment ever held.
    origin: Lba,
    /// Sectors present at `fill_start` (the synchronous part of the read).
    base: u64,
    /// When background fill began.
    fill_start: SimTime,
    /// Fill rate in sectors per second (media rate of the track).
    fill_rate: f64,
    /// If set, fill stopped at this instant (mechanics were taken away).
    truncated_at: Option<SimTime>,
    /// The eventual frontier while truncated, `Lba::MAX` while still
    /// filling: no request ending beyond it can ever hit. Kept beside
    /// `truncated_at` so a lookup rejects far requests without floating
    /// point.
    hi: Lba,
    /// Window capacity in sectors.
    cap: u64,
    /// LRU stamp.
    last_used: u64,
}

impl Segment {
    /// Exclusive upper bound of buffered data as of `t`.
    fn frontier(&self, t: SimTime) -> Lba {
        let effective = match self.truncated_at {
            Some(tr) if tr < t => tr,
            _ => t,
        };
        let filled = if effective <= self.fill_start {
            0
        } else {
            let dt = effective.since(self.fill_start).as_secs_f64();
            (dt * self.fill_rate) as u64
        };
        self.origin + self.base + filled
    }

    /// The frontier the segment will eventually reach (`None` = unbounded,
    /// still filling).
    fn eventual_frontier(&self) -> Option<Lba> {
        self.truncated_at
            .map(|tr| self.frontier(tr.max(self.fill_start)))
    }

    /// Stops the fill at `at`, fixing the segment's reach.
    fn truncate(&mut self, at: SimTime) {
        self.truncated_at = Some(at);
        self.hi = self.eventual_frontier().expect("just truncated");
    }

    /// Oldest sector still in the window as of `t`.
    fn coverage_lo(&self, t: SimTime) -> Lba {
        self.frontier(t).saturating_sub(self.cap).max(self.origin)
    }

    /// When `[lba, lba + sectors)` is fully buffered and not yet
    /// overwritten, evaluated for a request arriving at `now`.
    fn ready_time(&self, now: SimTime, lba: Lba, sectors: u64) -> Option<SimTime> {
        let end = lba + sectors;
        if lba < self.origin || end > self.hi || sectors == 0 || sectors > self.cap {
            return None;
        }
        debug_assert_eq!(self.hi, self.eventual_frontier().unwrap_or(Lba::MAX));
        // Instant the frontier reaches `end`.
        let already = self.origin + self.base;
        let t_fill = if end <= already {
            self.fill_start
        } else {
            if self.fill_rate <= 0.0 {
                return None;
            }
            let dt = (end - already) as f64 / self.fill_rate;
            self.fill_start + simcore::SimDuration::from_secs_f64(dt)
        };
        let ready = t_fill.max(now).max(self.fill_start);
        // Overwrite check: the start of the range must still be in the
        // window when the data is consumed.
        if lba < self.coverage_lo(ready) {
            return None;
        }
        Some(ready)
    }
}

/// The segmented prefetch cache.
#[derive(Debug)]
pub struct SegmentedCache {
    config: CacheConfig,
    segments: Vec<Segment>,
    /// Index of the segment currently being filled by the head, if any.
    filling: Option<usize>,
    clock: u64,
    rng: SimRng,
    hits: u64,
    misses: u64,
}

impl SegmentedCache {
    /// Creates a cache; `rng` drives random replacement only.
    pub fn new(config: CacheConfig, rng: SimRng) -> Self {
        SegmentedCache {
            config,
            segments: Vec::with_capacity(config.segments),
            filling: None,
            clock: 0,
            rng,
            hits: 0,
            misses: 0,
        }
    }

    /// Hit/miss counters (reads only).
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of live segments.
    pub fn live_segments(&self) -> usize {
        self.segments.len()
    }

    /// Non-mutating lookup: returns the instant at which the whole range
    /// will be buffered and the segment that serves it (the first of the
    /// segments with the earliest ready time), or `None` if the range is
    /// not covered. Used by the drive's internal scheduler to score queued
    /// requests without disturbing LRU state or counters; pass the slot to
    /// [`SegmentedCache::hit`] to record a hit without a second walk.
    pub fn peek_slot(&self, now: SimTime, lba: Lba, sectors: u64) -> Option<(SimTime, usize)> {
        if self.config.segments == 0 {
            return None;
        }
        // Most segments follow other streams: reject them on their sector
        // range before any timing arithmetic. Ties keep the first segment.
        let end = lba + sectors;
        let mut best: Option<(SimTime, usize)> = None;
        for (i, s) in self.segments.iter().enumerate() {
            if lba < s.origin || end > s.hi {
                continue;
            }
            if let Some(t) = s.ready_time(now, lba, sectors) {
                if best.is_none_or(|(b, _)| t < b) {
                    best = Some((t, i));
                }
            }
        }
        best
    }

    /// Records a hit served from segment `slot` (as returned by
    /// [`SegmentedCache::peek_slot`]): stamps it most recently used and
    /// counts the hit.
    pub fn hit(&mut self, slot: usize) {
        self.clock += 1;
        self.segments[slot].last_used = self.clock;
        self.hits += 1;
    }

    /// Looks up a read of `sectors` at `lba`, updating LRU and counters.
    pub fn lookup(&mut self, now: SimTime, lba: Lba, sectors: u64) -> CacheOutcome {
        if self.config.segments == 0 || sectors == 0 {
            self.misses += 1;
            return CacheOutcome::Miss;
        }
        match self.peek_slot(now, lba, sectors) {
            Some((ready_at, slot)) => {
                self.hit(slot);
                CacheOutcome::Hit { ready_at }
            }
            None => {
                self.clock += 1;
                self.misses += 1;
                CacheOutcome::Miss
            }
        }
    }

    /// Records a miss decided outside [`SegmentedCache::lookup`] (e.g. a
    /// paced hit the firmware rejected in favour of a seek).
    pub fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Called when the mechanics begin servicing a request: the head leaves
    /// its track, so any in-progress fill stops at `now`.
    pub fn on_mechanical_start(&mut self, now: SimTime) {
        if let Some(i) = self.filling.take() {
            if let Some(seg) = self.segments.get_mut(i) {
                if seg.truncated_at.is_none() {
                    seg.truncate(now.max(seg.fill_start));
                }
            }
        }
    }

    /// Installs the result of a mechanical read that finished at `now`,
    /// covering `[lba, lba + sectors)`; the drive then keeps prefetching
    /// beyond it at `fill_rate` sectors/second until truncated.
    ///
    /// A read that lands near an existing segment's window (the stream the
    /// segment was following) reuses that segment, so one sequential stream
    /// occupies exactly one segment no matter how long it runs.
    pub fn insert_after_read(&mut self, now: SimTime, lba: Lba, sectors: u64, fill_rate: f64) {
        if self.config.segments == 0 {
            return;
        }
        self.clock += 1;
        let reuse = self.segments.iter().position(|s| {
            // `coverage_lo(now)`, from the one frontier computed here.
            let f = s.frontier(now);
            let lo = f.saturating_sub(s.cap).max(s.origin);
            lba + sectors >= lo && lba <= f.saturating_add(s.cap)
        });
        let seg = Segment {
            origin: lba,
            base: sectors.min(self.config.segment_sectors),
            fill_start: now,
            fill_rate,
            truncated_at: None,
            hi: Lba::MAX,
            cap: self.config.segment_sectors,
            last_used: self.clock,
        };
        let idx = match reuse {
            Some(i) => i,
            None if self.segments.len() < self.config.segments => self.segments.len(),
            None => self.victim(),
        };
        if idx == self.segments.len() {
            self.segments.push(seg);
        } else {
            self.segments[idx] = seg;
        }
        self.filling = Some(idx);
    }

    /// Drops any segment whose window overlaps `[lba, lba + sectors)` as of
    /// `now` (host write).
    pub fn invalidate(&mut self, now: SimTime, lba: Lba, sectors: u64) {
        let end = lba + sectors;
        let filling_origin = self
            .filling
            .and_then(|i| self.segments.get(i))
            .map(|s| s.origin);
        self.segments
            .retain(|s| s.hi <= lba || s.coverage_lo(now) >= end);
        // Re-locate the filling segment if it survived.
        self.filling =
            filling_origin.and_then(|o| self.segments.iter().position(|s| s.origin == o));
    }

    /// Empties the cache (host-visible cache flush).
    pub fn flush(&mut self) {
        self.segments.clear();
        self.filling = None;
    }

    fn victim(&mut self) -> usize {
        match self.config.replacement {
            Replacement::Lru => self
                .segments
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .unwrap_or(0),
            Replacement::Random => self.rng.gen_range(0..self.segments.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn cache(segments: usize) -> SegmentedCache {
        SegmentedCache::new(
            CacheConfig {
                segments,
                segment_sectors: 1_000,
                replacement: Replacement::Lru,
            },
            SimRng::new(1),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn empty_cache_misses() {
        let mut c = cache(4);
        assert_eq!(c.lookup(t(0), 0, 16), CacheOutcome::Miss);
        assert_eq!(c.hit_miss(), (0, 1));
    }

    #[test]
    fn disabled_cache_always_misses() {
        let mut c = SegmentedCache::new(CacheConfig::disabled(), SimRng::new(1));
        c.insert_after_read(t(0), 0, 16, 1e6);
        assert_eq!(c.lookup(t(10), 0, 16), CacheOutcome::Miss);
    }

    #[test]
    fn base_range_hits_immediately() {
        let mut c = cache(4);
        c.insert_after_read(t(0), 100, 64, 100_000.0);
        match c.lookup(t(1), 100, 64) {
            CacheOutcome::Hit { ready_at } => assert_eq!(ready_at, t(1)),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn prefetch_grows_with_time() {
        let mut c = cache(4);
        // Fill rate 100 sectors/ms.
        c.insert_after_read(t(0), 0, 16, 100_000.0);
        // At 1 ms, 16 + 100 sectors are buffered; range 0..116 hits now.
        match c.lookup(t(1), 0, 100) {
            CacheOutcome::Hit { ready_at } => assert_eq!(ready_at, t(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hit_in_future_fill_waits_for_media() {
        let mut c = cache(4);
        c.insert_after_read(t(0), 0, 16, 100_000.0);
        // Sector 216 needs 200 more sectors = 2 ms of fill.
        match c.lookup(t(1), 200, 16) {
            CacheOutcome::Hit { ready_at } => {
                assert_eq!(ready_at, t(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn window_slides_beyond_capacity() {
        // The defining property of the rewrite: a sequential stream can be
        // followed far past one segment capacity.
        let mut c = cache(4);
        c.insert_after_read(t(0), 0, 16, 100_000.0);
        // Sector 5000 is five capacities ahead; fill reaches it at ~50 ms.
        match c.lookup(t(1), 5_000, 16) {
            CacheOutcome::Hit { ready_at } => {
                let expected_ms = (5_016 - 16) as f64 / 100.0;
                assert!(
                    (ready_at.as_secs_f64() * 1e3 - expected_ms).abs() < 0.5,
                    "ready at {ready_at}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn old_data_is_overwritten_by_the_sliding_window() {
        let mut c = cache(4);
        c.insert_after_read(t(0), 0, 16, 100_000.0);
        // At 50 ms the frontier is ~5016; the window holds ~[4016, 5016).
        assert_eq!(c.lookup(t(50), 0, 16), CacheOutcome::Miss, "overwritten");
        assert!(matches!(
            c.lookup(t(50), 4_500, 16),
            CacheOutcome::Hit { .. }
        ));
    }

    #[test]
    fn truncation_stops_fill() {
        let mut c = cache(4);
        c.insert_after_read(t(0), 0, 16, 100_000.0);
        c.on_mechanical_start(t(1));
        // Only 16 + 100 sectors were ever buffered; beyond that misses.
        assert_eq!(c.lookup(t(10), 200, 16), CacheOutcome::Miss);
        // Within the truncated range still hits.
        assert!(matches!(c.lookup(t(10), 0, 116), CacheOutcome::Hit { .. }));
    }

    #[test]
    fn oversized_request_misses() {
        let mut c = cache(4);
        c.insert_after_read(t(0), 0, 16, 1e9);
        // A request larger than the window can never be fully buffered.
        assert_eq!(c.lookup(t(100), 0, 1_001), CacheOutcome::Miss);
    }

    #[test]
    fn sequential_extension_reuses_segment() {
        let mut c = cache(4);
        c.insert_after_read(t(0), 0, 16, 100_000.0);
        c.on_mechanical_start(t(1));
        // Next sequential read lands at the old segment's frontier.
        c.insert_after_read(t(2), 116, 16, 100_000.0);
        assert_eq!(c.live_segments(), 1);
    }

    #[test]
    fn far_jump_allocates_new_segment() {
        let mut c = cache(4);
        c.insert_after_read(t(0), 0, 16, 100_000.0);
        c.on_mechanical_start(t(1));
        c.insert_after_read(t(2), 1_000_000, 16, 100_000.0);
        assert_eq!(c.live_segments(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = cache(2);
        c.insert_after_read(t(0), 0, 16, 0.0);
        c.on_mechanical_start(t(1));
        c.insert_after_read(t(1), 1_000_000, 16, 0.0);
        c.on_mechanical_start(t(2));
        // Touch the first segment so the second becomes LRU.
        let _ = c.lookup(t(2), 0, 16);
        c.insert_after_read(t(3), 2_000_000, 16, 0.0);
        assert!(matches!(c.lookup(t(4), 0, 16), CacheOutcome::Hit { .. }));
        assert_eq!(c.lookup(t(4), 1_000_000, 16), CacheOutcome::Miss);
    }

    #[test]
    fn lru_thrashes_on_cyclic_pattern() {
        // Classic pathology: 3 streams, 2 segments, round-robin access.
        let mut c = cache(2);
        let bases = [0u64, 1_000_000, 2_000_000];
        let mut misses = 0;
        let mut clock = 0;
        for round in 0..10u64 {
            for &b in bases.iter() {
                clock += 1;
                let lba = b + round * 16;
                if c.lookup(t(clock), lba, 16) == CacheOutcome::Miss {
                    misses += 1;
                    c.on_mechanical_start(t(clock));
                    c.insert_after_read(t(clock), lba, 16, 0.0);
                }
            }
        }
        assert_eq!(misses, 30, "every access should miss under LRU cycling");
    }

    #[test]
    fn random_replacement_breaks_cycling() {
        let mut c = SegmentedCache::new(
            CacheConfig {
                segments: 2,
                segment_sectors: 1_000,
                replacement: Replacement::Random,
            },
            SimRng::new(7),
        );
        let bases = [0u64, 1_000_000, 2_000_000];
        let mut hits = 0;
        let mut clock = 0;
        for _round in 0..200u64 {
            for &b in &bases {
                clock += 1;
                match c.lookup(t(clock), b, 16) {
                    CacheOutcome::Hit { .. } => hits += 1,
                    CacheOutcome::Miss => {
                        c.on_mechanical_start(t(clock));
                        c.insert_after_read(t(clock), b, 16, 0.0);
                    }
                }
            }
        }
        assert!(
            hits > 100,
            "random replacement should get some hits: {hits}"
        );
    }

    #[test]
    fn invalidate_drops_overlapping() {
        let mut c = cache(4);
        c.insert_after_read(t(0), 0, 100, 0.0);
        c.on_mechanical_start(t(1));
        c.insert_after_read(t(1), 1_000_000, 100, 0.0);
        c.on_mechanical_start(t(2));
        c.invalidate(t(2), 50, 10);
        assert_eq!(c.lookup(t(2), 0, 16), CacheOutcome::Miss);
        assert!(matches!(
            c.lookup(t(2), 1_000_000, 16),
            CacheOutcome::Hit { .. }
        ));
    }

    #[test]
    fn flush_empties() {
        let mut c = cache(4);
        c.insert_after_read(t(0), 0, 100, 0.0);
        c.flush();
        assert_eq!(c.live_segments(), 0);
        assert_eq!(c.lookup(t(1), 0, 16), CacheOutcome::Miss);
    }

    #[test]
    fn zero_sector_lookup_misses_harmlessly() {
        let mut c = cache(4);
        assert_eq!(c.lookup(t(0), 5, 0), CacheOutcome::Miss);
    }

    #[test]
    fn a_tied_hit_is_served_by_the_first_segment() {
        let mut c = cache(4);
        c.insert_after_read(t(0), 0, 64, 0.0);
        c.on_mechanical_start(t(0));
        // A second segment holding the same sectors, so both are ready now.
        let twin = c.segments[0].clone();
        c.segments.push(twin);
        assert_eq!(c.peek_slot(t(1), 0, 16), Some((t(1), 0)));
        assert_eq!(c.lookup(t(1), 0, 16), CacheOutcome::Hit { ready_at: t(1) });
        assert!(c.segments[0].last_used > c.segments[1].last_used);
    }

    #[test]
    fn peek_matches_lookup_without_counting() {
        let mut c = cache(4);
        c.insert_after_read(t(0), 0, 16, 100_000.0);
        let peeked = c.peek_slot(t(1), 0, 16);
        assert!(peeked.is_some());
        let (h, m) = c.hit_miss();
        assert_eq!((h, m), (0, 0), "peek must not count");
    }
}
