//! The drive itself: queue, internal scheduler, and service model.
//!
//! [`Disk`] is a passive state machine driven by explicit times: the host
//! calls [`Disk::submit`] when a request arrives, asks
//! [`Disk::next_completion`] when something will finish, and calls
//! [`Disk::advance`] to collect completions. This keeps the drive free of
//! any event-loop dependency and makes it directly unit-testable.
//!
//! Two host-visible behaviours from §5.2 of the paper are modelled:
//!
//! * **Tagged command queues.** With tags enabled the drive accepts many
//!   outstanding requests and services them in its own order — a
//!   shortest-positioning-time-first policy with an aging credit, which is
//!   *more fair* (and therefore, for concurrent sequential readers, slower)
//!   than the kernel's elevator. With tags disabled the drive takes one
//!   request at a time in host order.
//! * **Background prefetch** into the segmented cache (see
//!   [`crate::cache`]), truncated whenever the mechanics start a new
//!   request.

use simcore::{SimDuration, SimRng, SimTime};

use crate::cache::{CacheConfig, SegmentedCache};
use crate::fault::{DiskError, DiskOutcome, FaultDecision, FaultModel};
use crate::geometry::{Chs, DiskGeometry};
use crate::seek::SeekModel;
use crate::types::{Completion, DiskOp, DiskRequest, Lba, RequestId, SECTOR_BYTES};

/// Mechanical and interface overheads not captured by seek/rotation.
#[derive(Debug, Clone, Copy)]
pub struct MechParams {
    /// Fixed per-command controller/firmware overhead, seconds.
    pub command_overhead: f64,
    /// Host interface bandwidth, bytes per second.
    pub interface_rate: f64,
    /// Cost of each track boundary crossed during a media transfer, seconds.
    pub track_switch: f64,
    /// Extra settle time for writes, seconds.
    pub write_settle: f64,
}

/// Tagged-command-queue configuration.
#[derive(Debug, Clone, Copy)]
pub struct TcqConfig {
    /// Whether the host may queue multiple commands in the drive.
    pub enabled: bool,
    /// Maximum outstanding commands when enabled.
    pub depth: usize,
    /// Fairness knob of the internal scheduler: seconds of positioning
    /// "credit" granted per second a request has waited. 0 is pure SPTF;
    /// larger values approach FIFO.
    pub aging_factor: f64,
}

impl TcqConfig {
    /// Tags off: the drive takes one command at a time in host order.
    pub fn disabled() -> Self {
        TcqConfig {
            enabled: false,
            depth: 1,
            aging_factor: 0.0,
        }
    }
}

/// Cumulative decomposition of command service time, so fault cost is
/// attributable: a fail-slow drive shows up in `fault_stall`, a fragmented
/// workload in `seek`/`rotation`. Command overhead, write settle, and the
/// cache-hit fast path are not bucketed, so the four buckets need not sum
/// to [`DiskStats::busy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceBreakdown {
    /// Head movement.
    pub seek: SimDuration,
    /// Rotational positioning after the seek.
    pub rotation: SimDuration,
    /// Media + host-interface transfer.
    pub transfer: SimDuration,
    /// Time injected by the fault model: internal retry loops of failed
    /// commands, stuck-tag and firmware stalls, fail-slow re-read passes.
    pub fault_stall: SimDuration,
}

/// Running counters exposed for instrumentation and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    /// Read commands completed.
    pub reads: u64,
    /// Write commands completed.
    pub writes: u64,
    /// Reads served from the segmented cache.
    pub cache_hits: u64,
    /// Mechanical (media) reads.
    pub media_reads: u64,
    /// Sectors transferred to/from media.
    pub media_sectors: u64,
    /// Number of seeks with non-zero distance.
    pub seeks: u64,
    /// Total seek distance in cylinders.
    pub seek_cylinders: u64,
    /// Total time the drive spent servicing commands.
    pub busy: SimDuration,
    /// Where the service time went (see [`ServiceBreakdown`]).
    pub breakdown: ServiceBreakdown,
    /// Commands completed with a check condition.
    pub media_errors: u64,
    /// Sectors reallocated to spares by host remap commands.
    pub remapped_sectors: u64,
    /// Queued commands the tagged-queue scheduler scored (SPTF).
    pub sptf_scores: u64,
    /// Cache segments examined to decide whether the cache can serve a
    /// read (every live segment per decision).
    pub cache_probes: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: RequestId,
    req: DiskRequest,
    arrived: SimTime,
    seq: u64,
    /// Where `req.lba` sits, and its angle within the track: fixed for the
    /// request's life, so scoring it on every dispatch maps it only once.
    chs: Chs,
    angle: f64,
}

impl Pending {
    fn new(
        geometry: &DiskGeometry,
        id: RequestId,
        req: DiskRequest,
        arrived: SimTime,
        seq: u64,
    ) -> Self {
        let chs = geometry.lba_to_chs(req.lba);
        Pending {
            id,
            req,
            arrived,
            seq,
            chs,
            angle: geometry.angle_of(chs),
        }
    }
}

/// Whether the cache serves a queued read sooner than the mechanics:
/// the ready time and the serving segment, or `None` for a mechanical
/// access (see [`Disk::cache_beats_mechanical`]).
type CacheVerdict = Option<(SimTime, usize)>;

#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: RequestId,
    req: DiskRequest,
    arrived: SimTime,
    completes: SimTime,
    cache_hit: bool,
    error: Option<DiskError>,
}

/// A disk drive: geometry + mechanics + cache + command queue.
#[derive(Debug)]
pub struct Disk {
    geometry: DiskGeometry,
    seek: SeekModel,
    mech: MechParams,
    tcq: TcqConfig,
    cache: SegmentedCache,
    head_cyl: u64,
    pending: Vec<Pending>,
    in_flight: Option<InFlight>,
    next_id: u64,
    next_seq: u64,
    stats: DiskStats,
    fault: Option<Box<dyn FaultModel>>,
}

impl Disk {
    /// Assembles a drive. `rng` is used only by the cache's random
    /// replacement policy (if configured).
    pub fn new(
        geometry: DiskGeometry,
        seek: SeekModel,
        mech: MechParams,
        tcq: TcqConfig,
        cache: CacheConfig,
        rng: SimRng,
    ) -> Self {
        Disk {
            geometry,
            seek,
            mech,
            tcq,
            cache: SegmentedCache::new(cache, rng),
            head_cyl: 0,
            pending: Vec::new(),
            in_flight: None,
            next_id: 0,
            next_seq: 0,
            stats: DiskStats::default(),
            fault: None,
        }
    }

    /// Installs (or clears) the drive's fault model. A healthy drive keeps
    /// `None` and pays nothing; with an empty plan installed the decisions
    /// are all [`FaultDecision::Ok`] and timings are unchanged.
    pub fn set_fault_model(&mut self, model: Option<Box<dyn FaultModel>>) {
        self.fault = model;
    }

    /// Whether a fault model is currently installed.
    pub fn fault_model_active(&self) -> bool {
        self.fault.is_some()
    }

    /// Host remap: `[lba, lba + sectors)` is reallocated to spare sectors.
    /// Faults covering the range stop firing; subsequent I/O succeeds.
    pub fn remap(&mut self, lba: Lba, sectors: u64) {
        self.stats.remapped_sectors += sectors;
        if let Some(f) = self.fault.as_mut() {
            f.remap(lba, sectors);
        }
    }

    /// The drive's geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// The drive's TCQ configuration.
    pub fn tcq(&self) -> TcqConfig {
        self.tcq
    }

    /// Enables or disables tagged queueing (the paper toggles this with a
    /// kernel setting between benchmark runs).
    pub fn set_tcq(&mut self, tcq: TcqConfig) {
        self.tcq = tcq;
    }

    /// Counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Cache hit/miss counters.
    pub fn cache_hit_miss(&self) -> (u64, u64) {
        self.cache.hit_miss()
    }

    /// Number of requests in the drive (queued + in service).
    pub fn outstanding(&self) -> usize {
        self.pending.len() + usize::from(self.in_flight.is_some())
    }

    /// Whether the host may send another command: depth 1 without tags,
    /// `tcq.depth` with tags.
    pub fn can_accept(&self) -> bool {
        let depth = if self.tcq.enabled { self.tcq.depth } else { 1 };
        self.outstanding() < depth
    }

    /// Discards all cached data (benchmark cache-flush discipline, §4.3.1).
    pub fn flush_cache(&mut self) {
        self.cache.flush();
    }

    /// Submits a request at time `now`, returning its drive-assigned id.
    ///
    /// The drive accepts the command even if `can_accept` is false (real
    /// drives would make the host wait; our integration layers respect
    /// `can_accept`, and tests may intentionally overqueue).
    pub fn submit(&mut self, now: SimTime, req: DiskRequest) -> RequestId {
        assert!(req.sectors > 0, "zero-length disk request");
        assert!(
            req.end() <= self.geometry.total_sectors(),
            "request beyond end of drive"
        );
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let p = Pending::new(&self.geometry, id, req, now, self.next_seq);
        self.next_seq += 1;
        self.pending.push(p);
        if self.in_flight.is_none() {
            self.start_next(now);
        }
        id
    }

    /// When the current command will finish, if one is in service.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.in_flight.map(|f| f.completes)
    }

    /// Completes every command that finishes at or before `now`, starting
    /// follow-on commands as the mechanics free up.
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        let mut done = Vec::new();
        self.advance_into(now, &mut done);
        done
    }

    /// [`Disk::advance`] into a caller-owned buffer: the completions are
    /// appended to `done`.
    pub fn advance_into(&mut self, now: SimTime, done: &mut Vec<Completion>) {
        while let Some(f) = self.in_flight {
            if f.completes > now {
                break;
            }
            self.in_flight = None;
            self.finish(done, f);
            self.start_next(f.completes);
        }
    }

    fn finish(&mut self, done: &mut Vec<Completion>, f: InFlight) {
        match f.req.op {
            DiskOp::Read => self.stats.reads += 1,
            DiskOp::Write => self.stats.writes += 1,
        }
        if f.cache_hit {
            self.stats.cache_hits += 1;
        }
        if f.error.is_some() {
            self.stats.media_errors += 1;
        }
        done.push(Completion {
            id: f.id,
            request: f.req,
            submitted_at: f.arrived,
            completed_at: f.completes,
            cache_hit: f.cache_hit,
            outcome: match f.error {
                None => DiskOutcome::Ok,
                Some(e) => DiskOutcome::Error(e),
            },
        });
    }

    /// Picks and starts the next pending command at time `at`.
    fn start_next(&mut self, at: SimTime) {
        if self.pending.is_empty() {
            return;
        }
        // Candidates are commands that have arrived by `at`; if none have,
        // the drive sits idle until the earliest arrival.
        let mut start = at;
        let earliest = self
            .pending
            .iter()
            .map(|p| p.arrived)
            .min()
            .expect("non-empty");
        if earliest > at {
            start = earliest;
        }
        let (idx, verdict) = self.choose(start);
        let p = self.pending.swap_remove(idx);
        let begin = start.max(p.arrived);
        debug_assert!(verdict.is_none() || begin == start, "scored before arrival");
        let decision = match self.fault.as_mut() {
            Some(f) => f.decide(begin, &p.req),
            None => FaultDecision::Ok,
        };
        let (completes, cache_hit, error) = match decision {
            FaultDecision::Ok => {
                let (done, hit) = self.service(begin, &p, verdict);
                (done, hit, None)
            }
            FaultDecision::Slow { stall } => {
                let (done, hit) = self.service(begin, &p, verdict);
                self.stats.breakdown.fault_stall += stall;
                (done + stall, hit, None)
            }
            FaultDecision::Fail { kind, stall } => {
                let done = self.fail_service(begin, &p.req, stall);
                let error = DiskError {
                    kind,
                    lba: p.req.lba,
                };
                (done, false, Some(error))
            }
        };
        self.stats.busy += completes.since(begin);
        self.in_flight = Some(InFlight {
            id: p.id,
            req: p.req,
            arrived: p.arrived,
            completes,
            cache_hit,
            error,
        });
    }

    /// Chooses which arrived command to service next at time `t`, with the
    /// cache verdict it was scored on, if it was scored.
    ///
    /// Only a choice among two or more arrived commands with tags on
    /// needs scores: a lone arrived command, or the earliest future one
    /// when none has arrived, is taken unscored. Every candidate is
    /// scored once, and the winner's verdict goes to
    /// [`Disk::service`]: it starts at `t`, so the verdict still holds.
    fn choose(&mut self, t: SimTime) -> (usize, Option<CacheVerdict>) {
        let n = self.pending.len();
        if !self.tcq.enabled {
            // Host order: FIFO by submission sequence.
            let fifo = (0..n)
                .filter(|&i| self.pending[i].arrived <= t)
                .min_by_key(|&i| self.pending[i].seq);
            return (fifo.unwrap_or_else(|| self.earliest_arrival()), None);
        }
        // SPTF with aging: minimize estimated positioning time minus a
        // credit proportional to how long the command has waited, folded
        // as `min_by` folds: the first minimum wins, and ties or NaN
        // scores break on `seq`.
        let mut lone = None;
        let mut best: Option<(usize, f64, CacheVerdict)> = None;
        for i in 0..n {
            if self.pending[i].arrived > t {
                continue;
            }
            let Some(first) = lone else {
                lone = Some(i);
                continue;
            };
            let held = match best {
                Some(held) => held,
                None => self.score(t, first),
            };
            let candidate = self.score(t, i);
            let replaces = held
                .1
                .partial_cmp(&candidate.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(self.pending[held.0].seq.cmp(&self.pending[i].seq))
                .is_gt();
            best = Some(if replaces { candidate } else { held });
        }
        match (best, lone) {
            (Some((i, _, verdict)), _) => (i, Some(verdict)),
            (None, Some(i)) => (i, None),
            (None, None) => (self.earliest_arrival(), None),
        }
    }

    /// The pending command that arrives first (FIFO among equal arrivals).
    fn earliest_arrival(&self) -> usize {
        (0..self.pending.len())
            .min_by_key(|&i| (self.pending[i].arrived, self.pending[i].seq))
            .expect("non-empty")
    }

    /// Scores pending command `i` at `t`, counting the work.
    fn score(&mut self, t: SimTime, i: usize) -> (usize, f64, CacheVerdict) {
        let p = self.pending[i];
        self.count_probe(&p);
        self.stats.sptf_scores += 1;
        let (score, verdict) = self.sptf_score(t, &p);
        (i, score, verdict)
    }

    /// Counts one cache verdict for `p`: a read's lookup examines every
    /// live segment, a write's none.
    fn count_probe(&mut self, p: &Pending) {
        if p.req.op == DiskOp::Read {
            self.stats.cache_probes += self.cache.live_segments() as u64;
        }
    }

    /// If the cache will satisfy `p` sooner than the mechanics could,
    /// returns the ready time and the cache segment serving it. A prefetch
    /// stream technically "reaches" any LBA ahead of it eventually; real
    /// firmware aborts the prefetch and seeks when that would be faster, so
    /// a paced hit only counts when it beats the mechanical estimate.
    fn cache_beats_mechanical(&self, t: SimTime, p: &Pending) -> CacheVerdict {
        let req = &p.req;
        if req.op != DiskOp::Read {
            return None;
        }
        let (ready, slot) = self.cache.peek_slot(t, req.lba, req.sectors)?;
        let seek = self.seek.seek_secs(self.head_cyl.abs_diff(p.chs.cylinder));
        let mech_estimate = self.mech.command_overhead
            + seek
            + self.geometry.revolution_secs()
            + req.sectors as f64 * self.geometry.sector_time_secs(p.chs.cylinder);
        if ready.saturating_since(t).as_secs_f64() <= mech_estimate {
            Some((ready, slot))
        } else {
            None
        }
    }

    /// The SPTF score of `p` at `t`, and the cache verdict it rests on.
    fn sptf_score(&self, t: SimTime, p: &Pending) -> (f64, CacheVerdict) {
        let verdict = self.cache_beats_mechanical(t, p);
        let positioning = if verdict.is_some() {
            0.0
        } else {
            let seek = self.seek.seek_secs(self.head_cyl.abs_diff(p.chs.cylinder));
            let after_seek = t + SimDuration::from_secs_f64(seek);
            seek + self.rotation_wait(after_seek, p.angle)
        };
        let wait = t.saturating_since(p.arrived).as_secs_f64();
        (positioning - self.tcq.aging_factor * wait, verdict)
    }

    /// Rotational delay until the sector at angle `target` (a request's
    /// [`Pending::angle`]) comes under the head at time `t`.
    fn rotation_wait(&self, t: SimTime, target: f64) -> f64 {
        let rev = self.geometry.revolution_secs();
        let rev_ns = rev * 1e9;
        let angle_now = (t.as_nanos() as f64 % rev_ns) / rev_ns;
        let mut delta = target - angle_now;
        if delta < 0.0 {
            delta += 1.0;
        }
        delta * rev
    }

    /// Computes the completion time of a request starting service at `t0`.
    /// `verdict` is the cache verdict `choose` scored `p` on at `t0`, if
    /// it did; otherwise the cache is asked here.
    fn service(
        &mut self,
        t0: SimTime,
        p: &Pending,
        verdict: Option<CacheVerdict>,
    ) -> (SimTime, bool) {
        let req = &p.req;
        let host_xfer = req.bytes() as f64 / self.mech.interface_rate;
        match req.op {
            DiskOp::Read => {
                let verdict = verdict.unwrap_or_else(|| {
                    self.count_probe(p);
                    self.cache_beats_mechanical(t0, p)
                });
                if let Some((ready_at, slot)) = verdict {
                    // Served from buffer; mechanics stay where they are and
                    // any background fill keeps running. Command decode and
                    // interface transfer overlap the fill (the drive streams
                    // data out as it comes off the media), so the completion
                    // is whichever finishes later.
                    self.cache.hit(slot);
                    let processed =
                        t0 + SimDuration::from_secs_f64(self.mech.command_overhead + host_xfer);
                    self.stats.breakdown.transfer += SimDuration::from_secs_f64(host_xfer);
                    return (ready_at.max(processed), true);
                }
                self.cache.note_miss();
                let done = self.mechanical(t0, p, 0.0);
                // The head parks at the end of the transfer and keeps
                // reading into the cache at that track's media rate.
                let fill_rate = self.geometry.media_rate(self.head_cyl) / SECTOR_BYTES as f64;
                self.cache
                    .insert_after_read(done, req.lba, req.sectors, fill_rate);
                (done, false)
            }
            DiskOp::Write => {
                self.cache.invalidate(t0, req.lba, req.sectors);
                let done = self.mechanical(t0, p, self.mech.write_settle);
                (done, false)
            }
        }
    }

    /// Seek + rotate + media transfer, updating head position and stats.
    fn mechanical(&mut self, t0: SimTime, p: &Pending, extra: f64) -> SimTime {
        let req = &p.req;
        self.cache.on_mechanical_start(t0);
        let dist = self.head_cyl.abs_diff(p.chs.cylinder);
        let seek = self.seek.seek_secs(dist);
        if dist > 0 {
            self.stats.seeks += 1;
            self.stats.seek_cylinders += dist;
        }
        let after_seek = t0 + SimDuration::from_secs_f64(self.mech.command_overhead + seek + extra);
        let rot = self.rotation_wait(after_seek, p.angle);
        // Media transfer: sector times along the way plus track switches.
        let mut media = 0.0;
        let mut lba = req.lba;
        let mut remaining = req.sectors;
        while remaining > 0 {
            let chs = self.geometry.lba_to_chs(lba);
            let spt = self.geometry.sectors_per_track(chs.cylinder);
            let in_track = (spt - chs.sector).min(remaining);
            media += in_track as f64 * self.geometry.sector_time_secs(chs.cylinder);
            lba += in_track;
            remaining -= in_track;
            if remaining > 0 {
                media += self.mech.track_switch;
            }
        }
        let host_xfer = req.bytes() as f64 / self.mech.interface_rate;
        self.stats.media_reads += u64::from(req.op == DiskOp::Read);
        self.stats.media_sectors += req.sectors;
        self.stats.breakdown.seek += SimDuration::from_secs_f64(seek);
        self.stats.breakdown.rotation += SimDuration::from_secs_f64(rot);
        self.stats.breakdown.transfer += SimDuration::from_secs_f64(media + host_xfer);
        self.head_cyl = self.geometry.lba_to_chs(req.end() - 1).cylinder;
        after_seek + SimDuration::from_secs_f64(rot + media + host_xfer)
    }

    /// An errored command: the drive still positions to the target, burns
    /// `stall` in its internal retry loop, and reports a check condition.
    /// No data moves, so the cache is untouched (beyond the prefetch abort
    /// every mechanical start implies).
    fn fail_service(&mut self, t0: SimTime, req: &DiskRequest, stall: SimDuration) -> SimTime {
        self.cache.on_mechanical_start(t0);
        if req.op == DiskOp::Read {
            self.cache.note_miss();
        }
        let target = self.geometry.lba_to_chs(req.lba);
        let dist = self.head_cyl.abs_diff(target.cylinder);
        let seek = self.seek.seek_secs(dist);
        if dist > 0 {
            self.stats.seeks += 1;
            self.stats.seek_cylinders += dist;
        }
        self.stats.breakdown.seek += SimDuration::from_secs_f64(seek);
        self.stats.breakdown.fault_stall += stall;
        self.head_cyl = target.cylinder;
        t0 + SimDuration::from_secs_f64(self.mech.command_overhead + seek) + stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Replacement;

    fn test_disk(tcq: TcqConfig, cache_segments: usize) -> Disk {
        // 1000 cylinders, 2 heads, 200/100 spt, 6000 rpm (10 ms/rev).
        let g = DiskGeometry::zoned(1_000, 2, 6_000.0, 200, 100, 4);
        let seek = SeekModel::from_datasheet(1_000, 0.001, 0.005, 0.010);
        let mech = MechParams {
            command_overhead: 0.0001,
            interface_rate: 100e6,
            track_switch: 0.0005,
            write_settle: 0.0005,
        };
        let cache = CacheConfig {
            segments: cache_segments,
            segment_sectors: 512,
            replacement: Replacement::Lru,
        };
        Disk::new(g, seek, mech, tcq, cache, SimRng::new(9))
    }

    fn ms(x: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(x)
    }

    #[test]
    fn single_read_completes_with_mechanical_latency() {
        let mut d = test_disk(TcqConfig::disabled(), 0);
        d.submit(SimTime::ZERO, DiskRequest::read(100_000, 16, 0));
        let t = d.next_completion().expect("in service");
        // Must include at least some seek + rotation; far more than overhead.
        assert!(t.as_secs_f64() > 0.001, "completion at {t}");
        let done = d.advance(t);
        assert_eq!(done.len(), 1);
        assert!(!done[0].cache_hit);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().seeks, 1);
    }

    #[test]
    fn sequential_reads_hit_prefetch_cache() {
        let mut d = test_disk(TcqConfig::disabled(), 4);
        d.submit(SimTime::ZERO, DiskRequest::read(0, 16, 0));
        let t1 = d.next_completion().unwrap();
        d.advance(t1);
        // Give the prefetch a little time, then read the next blocks.
        let later = t1 + SimDuration::from_millis(5);
        d.submit(later, DiskRequest::read(16, 16, 1));
        let t2 = d.next_completion().unwrap();
        let done = d.advance(t2);
        assert!(done[0].cache_hit, "sequential follow-up should hit cache");
        // The hit is far faster than a mechanical access.
        assert!(t2.since(later) < SimDuration::from_millis(1));
    }

    #[test]
    fn cache_hit_throughput_is_bounded_by_media_rate() {
        let mut d = test_disk(TcqConfig::disabled(), 4);
        d.submit(SimTime::ZERO, DiskRequest::read(0, 16, 0));
        let t1 = d.next_completion().unwrap();
        d.advance(t1);
        // Immediately ask far ahead in the fill: must wait for the media.
        d.submit(t1, DiskRequest::read(16, 400, 1));
        let t2 = d.next_completion().unwrap();
        let media_rate = d.geometry().media_rate(0); // bytes/s
        let min_time = 400.0 * 512.0 / media_rate * 0.9;
        assert!(
            t2.since(t1).as_secs_f64() >= min_time,
            "paced hit took {:?}, needs >= {min_time}s",
            t2.since(t1)
        );
    }

    #[test]
    fn fifo_order_without_tags() {
        let mut d = test_disk(TcqConfig::disabled(), 0);
        // Far-apart LBAs; FIFO must not reorder them.
        d.submit(SimTime::ZERO, DiskRequest::read(280_000, 16, 0));
        d.submit(SimTime::ZERO, DiskRequest::read(0, 16, 1));
        d.submit(SimTime::ZERO, DiskRequest::read(280_016, 16, 2));
        let mut tags = Vec::new();
        while let Some(t) = d.next_completion() {
            for c in d.advance(t) {
                tags.push(c.request.tag);
            }
        }
        assert_eq!(tags, vec![0, 1, 2]);
    }

    #[test]
    fn tcq_reorders_for_position() {
        let tcq = TcqConfig {
            enabled: true,
            depth: 64,
            aging_factor: 0.0,
        };
        let mut d = test_disk(tcq, 0);
        // Head starts at cylinder 0. Submit far-then-near; SPTF serves near
        // ones first even though they were submitted later.
        d.submit(SimTime::ZERO, DiskRequest::read(280_000, 16, 0));
        d.submit(SimTime::ZERO, DiskRequest::read(16, 16, 1));
        // Let the first decision already be made (far one is in flight), so
        // check the *queued* ones reorder around it.
        d.submit(SimTime::ZERO, DiskRequest::read(280_016, 16, 2));
        d.submit(SimTime::ZERO, DiskRequest::read(32, 16, 3));
        let mut tags = Vec::new();
        while let Some(t) = d.next_completion() {
            for c in d.advance(t) {
                tags.push(c.request.tag);
            }
        }
        // First submitted wins the initial idle dispatch; thereafter the
        // drive orders by positioning cost (seek + rotation), not arrival.
        assert_eq!(tags[0], 0);
        assert_eq!(tags.len(), 4, "all requests complete");
        assert_ne!(tags, vec![0, 1, 2, 3], "SPTF must deviate from host order");
    }

    #[test]
    fn aging_prevents_starvation() {
        let tcq = TcqConfig {
            enabled: true,
            depth: 64,
            aging_factor: 0.5,
        };
        let mut d = test_disk(tcq, 0);
        // One far request, then a stream of near requests submitted over
        // time; with aging the far one must complete before the stream ends.
        d.submit(SimTime::ZERO, DiskRequest::read(280_000, 16, 999));
        let mut now = SimTime::ZERO;
        let mut far_done_after = None;
        let mut near_done = 0u32;
        for i in 0..200u64 {
            d.submit(now, DiskRequest::read(i * 16, 16, i));
            now += SimDuration::from_millis(1);
            for c in d.advance(now) {
                if c.request.tag == 999 {
                    far_done_after = Some(near_done);
                } else {
                    near_done += 1;
                }
            }
        }
        let when = far_done_after.expect("far request starved entirely");
        assert!(when < 150, "far request served after {when} near ones");
    }

    #[test]
    fn write_invalidates_cache() {
        let mut d = test_disk(TcqConfig::disabled(), 4);
        d.submit(SimTime::ZERO, DiskRequest::read(0, 64, 0));
        let t1 = d.next_completion().unwrap();
        d.advance(t1);
        d.submit(t1, DiskRequest::write(0, 16, 1));
        let t2 = d.next_completion().unwrap();
        d.advance(t2);
        d.submit(t2, DiskRequest::read(0, 16, 2));
        let t3 = d.next_completion().unwrap();
        let done = d.advance(t3);
        assert!(!done[0].cache_hit, "write must invalidate cached range");
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn zcav_outer_faster_than_inner() {
        // Large sequential reads at cylinder 0 vs the last cylinder.
        let mut d = test_disk(TcqConfig::disabled(), 0);
        let inner_lba = d.geometry().total_sectors() - 4_000;
        d.submit(SimTime::ZERO, DiskRequest::read(0, 2_000, 0));
        let t1 = d.next_completion().unwrap();
        d.advance(t1);
        d.submit(t1, DiskRequest::read(inner_lba, 2_000, 1));
        let t2 = d.next_completion().unwrap();
        let outer = t1.since(SimTime::ZERO).as_secs_f64();
        let inner = t2.since(t1).as_secs_f64();
        // Inner transfer is ~2x slower (100 vs 200 spt), seek aside.
        assert!(
            inner > outer * 1.4,
            "ZCAV: inner {inner:.4}s should exceed outer {outer:.4}s by ~2x"
        );
    }

    #[test]
    fn can_accept_respects_depth() {
        let mut d = test_disk(TcqConfig::disabled(), 0);
        assert!(d.can_accept());
        d.submit(SimTime::ZERO, DiskRequest::read(0, 16, 0));
        assert!(!d.can_accept());
        let tcq = TcqConfig {
            enabled: true,
            depth: 2,
            aging_factor: 0.0,
        };
        d.set_tcq(tcq);
        assert!(d.can_accept());
        d.submit(SimTime::ZERO, DiskRequest::read(16, 16, 1));
        assert!(!d.can_accept());
    }

    #[test]
    fn advance_is_idempotent_when_nothing_due() {
        let mut d = test_disk(TcqConfig::disabled(), 0);
        d.submit(SimTime::ZERO, DiskRequest::read(0, 16, 0));
        assert!(d.advance(SimTime::from_nanos(1)).is_empty());
        assert_eq!(d.outstanding(), 1);
    }

    #[test]
    fn idle_gap_then_submit_starts_at_arrival() {
        let mut d = test_disk(TcqConfig::disabled(), 0);
        d.submit(ms(100), DiskRequest::read(0, 16, 0));
        let t = d.next_completion().unwrap();
        assert!(t >= ms(100));
    }

    #[test]
    #[should_panic(expected = "beyond end")]
    fn oversized_request_rejected() {
        let mut d = test_disk(TcqConfig::disabled(), 0);
        let total = d.geometry().total_sectors();
        d.submit(SimTime::ZERO, DiskRequest::read(total - 8, 16, 0));
    }

    /// `choose` as it was before it scored each candidate once: `min_by`
    /// over the arrived indices, scoring both sides of every comparison.
    fn choose_by_min_by(d: &Disk, t: SimTime) -> usize {
        let arrived: Vec<usize> = (0..d.pending.len())
            .filter(|&i| d.pending[i].arrived <= t)
            .collect();
        if arrived.is_empty() {
            return (0..d.pending.len())
                .min_by_key(|&i| (d.pending[i].arrived, d.pending[i].seq))
                .expect("non-empty");
        }
        if !d.tcq.enabled {
            return *arrived
                .iter()
                .min_by_key(|&&i| d.pending[i].seq)
                .expect("non-empty");
        }
        *arrived
            .iter()
            .min_by(|&&a, &&b| {
                let sa = d.sptf_score(t, &d.pending[a]).0;
                let sb = d.sptf_score(t, &d.pending[b]).0;
                sa.partial_cmp(&sb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(d.pending[a].seq.cmp(&d.pending[b].seq))
            })
            .expect("non-empty")
    }

    /// Checks `choose` at `t` against the `min_by` reference, and the
    /// verdict it hands to `service` against a fresh cache verdict at the
    /// instant service would begin. Returns how many commands had arrived.
    fn check_choice(d: &mut Disk, t: SimTime, what: &str) -> usize {
        let arrived = d.pending.iter().filter(|p| p.arrived <= t).count();
        let reference = choose_by_min_by(d, t);
        let scores = d.stats.sptf_scores;
        let (idx, verdict) = d.choose(t);
        assert_eq!(idx, reference, "{what}");
        let p = d.pending[idx];
        let begin = t.max(p.arrived);
        let scored = d.tcq.enabled && arrived >= 2;
        assert_eq!(verdict.is_some(), scored, "scored only to pick, {what}");
        let expect_scores = if scored { arrived as u64 } else { 0 };
        assert_eq!(d.stats.sptf_scores - scores, expect_scores, "{what}");
        if let Some(verdict) = verdict {
            assert_eq!(begin, t, "a scored command has arrived, {what}");
            assert_eq!(verdict, d.cache_beats_mechanical(begin, &p), "{what}");
        }
        arrived
    }

    #[test]
    fn choose_matches_the_min_by_reference() {
        let mut rng = SimRng::new(0x5F7F);
        // Arrived-candidate counts seen per TCQ setting: none, one, many.
        let mut seen = [[false; 3]; 2];
        // Infinite aging scores a command that arrived at `t` as NaN
        // (0 * inf) and every older one as -inf: the tie-break paths.
        for aging_factor in [0.0, 2.0, f64::INFINITY] {
            for enabled in [false, true] {
                for case in 0..200 {
                    let tcq = TcqConfig {
                        enabled,
                        depth: 64,
                        aging_factor,
                    };
                    let mut d = test_disk(tcq, 4);
                    // Move the head and fill cache segments, so some
                    // candidates score 0.0 as cache hits and tie.
                    let mut cached = Vec::new();
                    for tag in 0..rng.gen_range(1u64..4) {
                        let lba = rng.gen_range(0u64..280_000);
                        d.submit(SimTime::ZERO, DiskRequest::read(lba, 16, tag));
                        cached.push(lba + 16);
                        while let Some(done) = d.next_completion() {
                            d.advance(done);
                        }
                    }
                    let t = ms(200) + SimDuration::from_micros(rng.gen_range(0u64..10_000));
                    // Shallow queues often hold one arrived command, or none.
                    let depth = if rng.chance(0.3) {
                        rng.gen_range(1usize..=3)
                    } else {
                        rng.gen_range(1usize..=64)
                    };
                    let mut seqs: Vec<u64> = (0..depth as u64).collect();
                    rng.shuffle(&mut seqs);
                    d.pending.clear();
                    for (i, seq) in seqs.into_iter().enumerate() {
                        let lba = if rng.chance(0.3) {
                            *rng.choose(&cached).expect("primed")
                        } else {
                            rng.gen_range(0u64..280_000)
                        };
                        let arrived = match rng.gen_range(0u32..4) {
                            0 => t,
                            1 => t + SimDuration::from_micros(rng.gen_range(1u64..5_000)),
                            _ => ms(100) + SimDuration::from_micros(rng.gen_range(0u64..100_000)),
                        };
                        d.pending.push(Pending::new(
                            &d.geometry,
                            RequestId(i as u64),
                            DiskRequest::read(lba, 16, i as u64),
                            arrived,
                            seq,
                        ));
                    }
                    let what =
                        format!("aging {aging_factor}, tcq {enabled}, case {case}, depth {depth}");
                    let arrived = check_choice(&mut d, t, &what);
                    seen[usize::from(enabled)][arrived.min(2)] = true;
                }
            }
        }
        assert_eq!(seen, [[true; 3]; 2], "every case shape ran");
    }

    #[test]
    fn flush_cache_forces_mechanical_reads() {
        let mut d = test_disk(TcqConfig::disabled(), 4);
        d.submit(SimTime::ZERO, DiskRequest::read(0, 16, 0));
        let t1 = d.next_completion().unwrap();
        d.advance(t1);
        d.flush_cache();
        d.submit(t1, DiskRequest::read(0, 16, 1));
        let t2 = d.next_completion().unwrap();
        let done = d.advance(t2);
        assert!(!done[0].cache_hit);
    }
}
