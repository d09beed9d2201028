//! A flash (SSD) storage backend behind [`diskmodel::DeviceModel`].
//!
//! Where the 2003 spinning drive pays seek and rotation, flash pays a
//! completely different set of costs — the exact effects measured in the
//! HDFS-on-SSD study (PAPERS.md):
//!
//! * **Channel × die parallelism.** The controller stripes pages across
//!   `channels × dies_per_channel` NAND dies. Independent dies service
//!   pages concurrently; pages on the *same* die serialize, and every
//!   transfer shares its channel bus. Big sequential requests therefore
//!   scale with parallelism, while pile-ups on one die inflate latency.
//! * **FTL with write-amplification-driven GC.** Host overwrites
//!   invalidate previously programmed pages; when a die's free pool sinks
//!   below the low-water mark, garbage collection erases victim blocks and
//!   relocates their still-live pages — opening a *pause window* (erase +
//!   relocation, plus a seeded firmware jitter) during which the die
//!   serves nothing.
//! * **Read-on-die-busy inflation.** A read landing on a die that is
//!   programming or collecting garbage waits out the window; the wait is
//!   attributed to the `gc stall` / `die wait` report buckets, so
//!   experiments can see *why* p99 moved, not just that it did.
//!
//! The device is a passive, deterministic state machine like
//! [`diskmodel::Disk`]: all service times are computed at submit from
//! explicit [`SimTime`]s, the only randomness is the seeded GC jitter, and
//! [`diskmodel::FaultModel`] plans compose exactly as on the spinning
//! drive (decide per command, remap silences a range).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::collections::HashSet;

use diskmodel::{
    Completion, DeviceModel, DeviceReport, DiskError, DiskOp, DiskOutcome, DiskRequest, DriveModel,
    FaultDecision, FaultModel, Lba, RequestId, SsdParams,
};
use simcore::{SimDuration, SimRng, SimTime};

/// Fixed controller/firmware overhead per command, seconds (command
/// decode, FTL lookup). Far below NAND latencies; kept out of
/// [`SsdParams`] because no experiment tunes it.
const CMD_OVERHEAD_SECS: f64 = 10e-6;

/// Cumulative decomposition of command service time, the flash analogue
/// of [`diskmodel::ServiceBreakdown`]. Buckets need not sum to
/// [`SsdStats::busy`] — command overhead is unbucketed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SsdBreakdown {
    /// NAND array read time (tR).
    pub flash_read: SimDuration,
    /// NAND program time (tProg).
    pub program: SimDuration,
    /// Channel bus transfer time.
    pub transfer: SimDuration,
    /// Time spent waiting for dies busy with garbage collection.
    pub gc_stall: SimDuration,
    /// Time spent waiting for dies busy with other host commands.
    pub die_wait: SimDuration,
    /// Time injected by the fault model.
    pub fault_stall: SimDuration,
}

/// Running counters exposed for instrumentation and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SsdStats {
    /// Read commands completed.
    pub reads: u64,
    /// Write commands completed.
    pub writes: u64,
    /// Flash pages read from the NAND array.
    pub pages_read: u64,
    /// Flash pages programmed (host writes only, not GC relocation).
    pub pages_programmed: u64,
    /// Garbage-collection runs (each one pause window on one die).
    pub gc_runs: u64,
    /// Erase-block erasures performed by GC.
    pub gc_erases: u64,
    /// Still-live pages relocated by GC (the write-amplification cost).
    pub gc_pages_moved: u64,
    /// Commands that waited on a busy die at all.
    pub die_conflicts: u64,
    /// Total time the device spent servicing commands.
    pub busy: SimDuration,
    /// Where the service time went.
    pub breakdown: SsdBreakdown,
    /// Commands completed with a check condition.
    pub media_errors: u64,
    /// Sectors reallocated to spares by host remap commands.
    pub remapped_sectors: u64,
}

impl SsdStats {
    /// Host pages written vs pages physically programmed including GC
    /// relocation — the classic write-amplification factor (1.0 = none).
    pub fn write_amplification(&self) -> f64 {
        if self.pages_programmed == 0 {
            1.0
        } else {
            (self.pages_programmed + self.gc_pages_moved) as f64 / self.pages_programmed as f64
        }
    }
}

#[derive(Debug)]
struct Die {
    /// Instant the die finishes its current program/read/GC work.
    free_at: SimTime,
    /// End of the die's current GC pause window (≤ `free_at`); waits that
    /// fall before this instant are attributed to GC.
    gc_until: SimTime,
    /// Physical pages not holding live or stale data.
    free_pages: u64,
    /// Stale (invalidated, not yet erased) physical pages.
    garbage_pages: u64,
    /// Logical pages currently mapped on this die.
    live: HashSet<u64>,
    /// Total physical pages (logical share × (1 + over-provisioning)).
    physical_pages: u64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: RequestId,
    req: DiskRequest,
    arrived: SimTime,
    completes: SimTime,
    error: Option<DiskError>,
    seq: u64,
}

/// A flash drive: FTL + dies + channel buses behind [`DeviceModel`].
#[derive(Debug)]
pub struct Ssd {
    p: SsdParams,
    dies: Vec<Die>,
    chan_free: Vec<SimTime>,
    in_flight: Vec<InFlight>,
    /// Scratch for `advance_into`: the commands due in one call.
    due: Vec<InFlight>,
    next_id: u64,
    next_seq: u64,
    stats: SsdStats,
    fault: Option<Box<dyn FaultModel>>,
    rng: SimRng,
}

impl Ssd {
    /// Assembles a drive from a parameter set. `rng` drives only the
    /// seeded GC pause jitter, so two drives built from the same seed
    /// behave identically.
    pub fn new(p: SsdParams, rng: SimRng) -> Self {
        assert!(p.channels >= 1 && p.dies_per_channel >= 1, "need dies");
        assert!(p.page_sectors >= 1 && p.pages_per_block >= 1, "need pages");
        assert!(p.total_sectors >= p.page_sectors, "need capacity");
        let ndies = (p.channels * p.dies_per_channel) as u64;
        let logical_pages = p.total_sectors.div_ceil(p.page_sectors);
        let logical_per_die = logical_pages.div_ceil(ndies);
        let physical_per_die = (logical_per_die as f64 * (1.0 + p.overprovision)).ceil() as u64;
        let dies = (0..ndies)
            .map(|_| Die {
                free_at: SimTime::ZERO,
                gc_until: SimTime::ZERO,
                free_pages: physical_per_die,
                garbage_pages: 0,
                live: HashSet::new(),
                physical_pages: physical_per_die,
            })
            .collect();
        Ssd {
            chan_free: vec![SimTime::ZERO; p.channels as usize],
            dies,
            in_flight: Vec::new(),
            due: Vec::new(),
            next_id: 0,
            next_seq: 0,
            stats: SsdStats::default(),
            fault: None,
            rng,
            p,
        }
    }

    /// Builds one of the preset SSD models.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not an SSD preset.
    pub fn from_model(model: DriveModel, rng: SimRng) -> Self {
        let p = model
            .ssd_params()
            .unwrap_or_else(|| panic!("{} is not an SSD model", model.label()));
        Ssd::new(p, rng)
    }

    /// The parameter set this drive was built from.
    pub fn params(&self) -> SsdParams {
        self.p
    }

    /// Counters.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }

    /// Completes every command due at or before `now` into a fresh `Vec`
    /// (see [`DeviceModel::advance_into`]).
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    fn die_of(&self, page: u64) -> usize {
        (page % self.dies.len() as u64) as usize
    }

    fn channel_of(&self, die: usize) -> usize {
        die % self.p.channels as usize
    }

    fn bus_secs(&self) -> f64 {
        (self.p.page_sectors * diskmodel::SECTOR_BYTES) as f64 / (self.p.channel_mb_s * 1e6)
    }

    /// Attributes `ready → start` wait time on `die` to GC or plain die
    /// contention.
    fn attribute_wait(stats: &mut SsdStats, die: &Die, ready: SimTime, start: SimTime) {
        if start <= ready {
            return;
        }
        stats.die_conflicts += 1;
        let gc_end = die.gc_until.min(start).max(ready);
        stats.breakdown.gc_stall += gc_end.since(ready);
        stats.breakdown.die_wait += start.since(gc_end);
    }

    /// Services one page read; returns when its data is on the host bus.
    fn service_read_page(&mut self, arrival: SimTime, page: u64) -> SimTime {
        let die_i = self.die_of(page);
        let ch = self.channel_of(die_i);
        let bus = SimDuration::from_secs_f64(self.bus_secs());
        let read = SimDuration::from_micros_f64(self.p.read_us);
        let die = &mut self.dies[die_i];
        let start = arrival.max(die.free_at);
        Self::attribute_wait(&mut self.stats, die, arrival, start);
        let flash_end = start + read;
        die.free_at = flash_end;
        let bus_start = flash_end.max(self.chan_free[ch]);
        self.chan_free[ch] = bus_start + bus;
        self.stats.pages_read += 1;
        self.stats.breakdown.flash_read += read;
        self.stats.breakdown.transfer += bus;
        bus_start + bus
    }

    /// Services one page program; returns when the program completes.
    fn service_write_page(&mut self, arrival: SimTime, page: u64) -> SimTime {
        let die_i = self.die_of(page);
        let ch = self.channel_of(die_i);
        let bus = SimDuration::from_secs_f64(self.bus_secs());
        let prog = SimDuration::from_micros_f64(self.p.program_us);
        // Data crosses the channel first, then the die programs it.
        let bus_start = arrival.max(self.chan_free[ch]);
        self.chan_free[ch] = bus_start + bus;
        let ready = bus_start + bus;
        let die = &mut self.dies[die_i];
        let start = ready.max(die.free_at);
        Self::attribute_wait(&mut self.stats, die, ready, start);
        die.free_at = start + prog;
        self.stats.pages_programmed += 1;
        self.stats.breakdown.program += prog;
        self.stats.breakdown.transfer += bus;
        let done = die.free_at;
        self.ftl_write(die_i, page);
        done
    }

    /// FTL bookkeeping for a host page program, running GC if the die's
    /// free pool sank below the low-water mark.
    fn ftl_write(&mut self, die_i: usize, page: u64) {
        let low_water = self.p.gc_low_water_blocks * self.p.pages_per_block;
        let die = &mut self.dies[die_i];
        if !die.live.insert(page) {
            // Overwrite: the previous physical copy is now garbage.
            die.garbage_pages += 1;
        }
        die.free_pages = die.free_pages.saturating_sub(1);
        // GC: reclaim blocks until back above twice the low-water mark.
        // Victim blocks carry the die-average share of live data, so the
        // relocation cost (write amplification) grows as utilization does.
        while die.free_pages < 2 * low_water && die.garbage_pages > 0 {
            let used = die.physical_pages - die.free_pages;
            let live_frac = if used == 0 {
                0.0
            } else {
                (used - die.garbage_pages) as f64 / used as f64
            };
            let moved = ((self.p.pages_per_block as f64 * live_frac).round() as u64)
                .min(self.p.pages_per_block);
            let reclaimed = (self.p.pages_per_block - moved).min(die.garbage_pages);
            if reclaimed == 0 {
                break; // victim would be all-live; nothing to gain
            }
            let jitter = self.rng.uniform01() * self.p.gc_jitter_us;
            let pause = SimDuration::from_secs_f64(
                self.p.erase_ms * 1e-3
                    + moved as f64 * (self.p.read_us + self.p.program_us) * 1e-6
                    + jitter * 1e-6,
            );
            let gc_start = die.free_at;
            die.free_at = gc_start + pause;
            die.gc_until = die.free_at;
            die.free_pages += reclaimed;
            die.garbage_pages -= reclaimed;
            self.stats.gc_runs += 1;
            self.stats.gc_erases += 1;
            self.stats.gc_pages_moved += moved;
        }
    }

    /// Computes the completion time of a request arriving at `t0`.
    fn service(&mut self, t0: SimTime, req: &DiskRequest) -> SimTime {
        let arrival = t0 + SimDuration::from_secs_f64(CMD_OVERHEAD_SECS);
        let first = req.lba / self.p.page_sectors;
        let last = (req.end() - 1) / self.p.page_sectors;
        let mut done = arrival;
        for page in first..=last {
            let page_done = match req.op {
                DiskOp::Read => self.service_read_page(arrival, page),
                DiskOp::Write => self.service_write_page(arrival, page),
            };
            done = done.max(page_done);
        }
        done
    }

    /// An errored command: the target die still burns its retry loop, the
    /// host sees a check condition, no data moves.
    fn fail_service(&mut self, t0: SimTime, req: &DiskRequest, stall: SimDuration) -> SimTime {
        let arrival = t0 + SimDuration::from_secs_f64(CMD_OVERHEAD_SECS);
        let die_i = self.die_of(req.lba / self.p.page_sectors);
        let die = &mut self.dies[die_i];
        let start = arrival.max(die.free_at);
        Self::attribute_wait(&mut self.stats, die, arrival, start);
        let done = start + SimDuration::from_micros_f64(self.p.read_us) + stall;
        die.free_at = done;
        self.stats.breakdown.fault_stall += stall;
        done
    }
}

impl DeviceModel for Ssd {
    fn submit(&mut self, now: SimTime, req: DiskRequest) -> RequestId {
        assert!(req.sectors > 0, "zero-length ssd request");
        assert!(
            req.end() <= self.p.total_sectors,
            "request beyond end of drive"
        );
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let decision = match self.fault.as_mut() {
            Some(f) => f.decide(now, &req),
            None => FaultDecision::Ok,
        };
        let (completes, error) = match decision {
            FaultDecision::Ok => (self.service(now, &req), None),
            FaultDecision::Slow { stall } => {
                let done = self.service(now, &req);
                self.stats.breakdown.fault_stall += stall;
                (done + stall, None)
            }
            FaultDecision::Fail { kind, stall } => {
                let done = self.fail_service(now, &req, stall);
                (done, Some(DiskError { kind, lba: req.lba }))
            }
        };
        self.stats.busy += completes.since(now);
        self.in_flight.push(InFlight {
            id,
            req,
            arrived: now,
            completes,
            error,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        id
    }

    fn next_completion(&self) -> Option<SimTime> {
        self.in_flight.iter().map(|f| f.completes).min()
    }

    fn advance_into(&mut self, now: SimTime, out: &mut Vec<Completion>) {
        let due = &mut self.due;
        self.in_flight.retain(|f| {
            if f.completes <= now {
                due.push(*f);
                false
            } else {
                true
            }
        });
        due.sort_by_key(|f| (f.completes, f.seq));
        for f in due.drain(..) {
            match f.req.op {
                DiskOp::Read => self.stats.reads += 1,
                DiskOp::Write => self.stats.writes += 1,
            }
            if f.error.is_some() {
                self.stats.media_errors += 1;
            }
            out.push(Completion {
                id: f.id,
                request: f.req,
                submitted_at: f.arrived,
                completed_at: f.completes,
                cache_hit: false,
                outcome: match f.error {
                    None => DiskOutcome::Ok,
                    Some(e) => DiskOutcome::Error(e),
                },
            });
        }
    }

    fn can_accept(&self) -> bool {
        self.in_flight.len() < self.p.queue_depth
    }

    fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    fn total_sectors(&self) -> u64 {
        self.p.total_sectors
    }

    fn flush_cache(&mut self) {
        // No volatile read cache is modelled; flash reads are already
        // microseconds. Nothing to discard.
    }

    fn set_fault_model(&mut self, model: Option<Box<dyn FaultModel>>) {
        self.fault = model;
    }

    fn fault_model_active(&self) -> bool {
        self.fault.is_some()
    }

    fn remap(&mut self, lba: Lba, sectors: u64) {
        self.stats.remapped_sectors += sectors;
        if let Some(f) = self.fault.as_mut() {
            f.remap(lba, sectors);
        }
    }

    fn report(&self) -> DeviceReport {
        let s = &self.stats;
        DeviceReport {
            kind: "ssd",
            reads: s.reads,
            writes: s.writes,
            cache_hits: 0,
            busy: s.busy,
            media_errors: s.media_errors,
            remapped_sectors: s.remapped_sectors,
            buckets: vec![
                ("flash read", s.breakdown.flash_read),
                ("program", s.breakdown.program),
                ("transfer", s.breakdown.transfer),
                ("gc stall", s.breakdown.gc_stall),
                ("die wait", s.breakdown.die_wait),
                ("fault stall", s.breakdown.fault_stall),
            ],
            gauges: vec![
                ("gc runs", s.gc_runs),
                ("gc pages moved", s.gc_pages_moved),
                ("die conflicts", s.die_conflicts),
            ],
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small drive that can be filled quickly: 8 MB logical, 1 channel
    /// × 1 die unless overridden, 8 KB pages, 16-page blocks.
    fn tiny_params() -> SsdParams {
        SsdParams {
            channels: 1,
            dies_per_channel: 1,
            page_sectors: 16,
            pages_per_block: 16,
            total_sectors: 16 * 1024, // 8 MB
            overprovision: 0.25,
            read_us: 60.0,
            program_us: 600.0,
            erase_ms: 3.0,
            channel_mb_s: 400.0,
            gc_low_water_blocks: 2,
            gc_jitter_us: 100.0,
            queue_depth: 32,
        }
    }

    fn drain(d: &mut Ssd) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(t) = d.next_completion() {
            out.extend(d.advance(t));
        }
        out
    }

    #[test]
    fn single_read_pays_flash_and_bus_latency() {
        let mut d = Ssd::new(tiny_params(), SimRng::new(1));
        d.submit(SimTime::ZERO, DiskRequest::read(0, 16, 7));
        let t = d.next_completion().expect("in service");
        let us = t.since(SimTime::ZERO).as_secs_f64() * 1e6;
        // cmd overhead + tR + bus: ~10 + 60 + ~20 us; far below any HDD seek.
        assert!((80.0..200.0).contains(&us), "read took {us} us");
        let done = d.advance(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].request.tag, 7);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().pages_read, 1);
    }

    #[test]
    fn multi_die_reads_run_in_parallel() {
        let mut four = tiny_params();
        four.channels = 4;
        four.dies_per_channel = 1;
        let mut d4 = Ssd::new(four, SimRng::new(1));
        let mut d1 = Ssd::new(tiny_params(), SimRng::new(1));
        // 8 pages: striped over 4 dies vs serialized on 1.
        d4.submit(SimTime::ZERO, DiskRequest::read(0, 128, 0));
        d1.submit(SimTime::ZERO, DiskRequest::read(0, 128, 0));
        let t4 = d4.next_completion().unwrap().since(SimTime::ZERO);
        let t1 = d1.next_completion().unwrap().since(SimTime::ZERO);
        assert!(
            t4.as_secs_f64() * 2.0 < t1.as_secs_f64(),
            "4-die {t4} should be well under half of 1-die {t1}"
        );
    }

    #[test]
    fn same_die_requests_serialize_and_count_conflicts() {
        let mut d = Ssd::new(tiny_params(), SimRng::new(1));
        d.submit(SimTime::ZERO, DiskRequest::read(0, 16, 0));
        d.submit(SimTime::ZERO, DiskRequest::read(256, 16, 1));
        let done = drain(&mut d);
        assert_eq!(done.len(), 2);
        assert!(done[1].completed_at > done[0].completed_at);
        assert!(d.stats().die_conflicts >= 1);
        assert!(d.stats().breakdown.die_wait > SimDuration::ZERO);
    }

    #[test]
    fn overwrites_trigger_gc_pauses() {
        let mut d = Ssd::new(tiny_params(), SimRng::new(1));
        let total = tiny_params().total_sectors;
        let mut now = SimTime::ZERO;
        // Write the whole drive twice over: the second pass invalidates
        // the first and must push the die through garbage collection.
        for pass in 0..2u64 {
            let mut lba = 0;
            while lba < total {
                d.submit(now, DiskRequest::write(lba, 16, pass << 32 | lba));
                now = d.next_completion().unwrap();
                d.advance(now);
                lba += 16;
            }
        }
        let s = d.stats();
        assert!(s.gc_runs > 0, "two full overwrites must GC: {s:?}");
        assert!(s.gc_pages_moved > 0, "utilized die must relocate pages");
        assert!(s.breakdown.gc_stall == SimDuration::ZERO || s.gc_runs > 0);
        assert!(
            s.write_amplification() > 1.0,
            "WA {}",
            s.write_amplification()
        );
    }

    #[test]
    fn reads_behind_gc_wait_out_the_pause() {
        let mut d = Ssd::new(tiny_params(), SimRng::new(1));
        let total = tiny_params().total_sectors;
        // Fill the drive twice without draining between writes is fine —
        // but here we drain so `now` tracks real completion times.
        let mut now = SimTime::ZERO;
        for pass in 0..2u64 {
            let mut lba = 0;
            while lba < total {
                d.submit(now, DiskRequest::write(lba, 16, pass << 32 | lba));
                now = d.next_completion().unwrap();
                d.advance(now);
                if d.stats().gc_runs > 0 {
                    break;
                }
                lba += 16;
            }
            if d.stats().gc_runs > 0 {
                break;
            }
        }
        assert!(d.stats().gc_runs > 0, "setup must reach a GC window");
        // The die's free_at now sits at the end of a GC pause; a read
        // arriving *now* (inside the window) must be inflated and the
        // wait attributed to the gc bucket.
        let before = d.stats().breakdown.gc_stall;
        d.submit(now, DiskRequest::read(0, 16, 999));
        let t = d.next_completion().unwrap();
        drain(&mut d);
        assert!(
            t.since(now) > SimDuration::from_micros_f64(500.0),
            "read during GC finished in {:?}",
            t.since(now)
        );
        assert!(
            d.stats().breakdown.gc_stall > before,
            "wait goes to gc bucket"
        );
    }

    #[test]
    fn queue_depth_gates_can_accept() {
        let mut p = tiny_params();
        p.queue_depth = 2;
        let mut d = Ssd::new(p, SimRng::new(1));
        assert!(d.can_accept());
        d.submit(SimTime::ZERO, DiskRequest::read(0, 16, 0));
        assert!(d.can_accept());
        d.submit(SimTime::ZERO, DiskRequest::read(16, 16, 1));
        assert!(!d.can_accept());
        assert_eq!(d.outstanding(), 2);
        drain(&mut d);
        assert!(d.can_accept());
    }

    #[test]
    fn fault_model_composes_like_on_the_disk() {
        #[derive(Debug)]
        struct FailFirst(bool);
        impl FaultModel for FailFirst {
            fn decide(&mut self, _now: SimTime, _req: &DiskRequest) -> FaultDecision {
                if self.0 {
                    self.0 = false;
                    FaultDecision::Fail {
                        kind: diskmodel::DiskErrorKind::HardMedia,
                        stall: SimDuration::from_millis(20),
                    }
                } else {
                    FaultDecision::Ok
                }
            }
        }
        let mut d = Ssd::new(tiny_params(), SimRng::new(1));
        d.set_fault_model(Some(Box::new(FailFirst(true))));
        assert!(d.fault_model_active());
        d.submit(SimTime::ZERO, DiskRequest::read(0, 16, 0));
        let done = drain(&mut d);
        assert_eq!(done.len(), 1);
        assert!(!done[0].is_ok(), "first command fails");
        assert!(
            done[0].completed_at.since(SimTime::ZERO) >= SimDuration::from_millis(20),
            "stall is paid"
        );
        assert_eq!(d.stats().media_errors, 1);
        d.remap(0, 16);
        assert_eq!(d.stats().remapped_sectors, 16);
        d.submit(done[0].completed_at, DiskRequest::read(0, 16, 1));
        let done = drain(&mut d);
        assert!(done[0].is_ok(), "after remap the range reads cleanly");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| -> Vec<(u64, u64)> {
            let mut d = Ssd::new(tiny_params(), SimRng::new(seed));
            let total = tiny_params().total_sectors;
            let mut now = SimTime::ZERO;
            let mut trace = Vec::new();
            for pass in 0..2u64 {
                let mut lba = 0;
                while lba < total {
                    d.submit(now, DiskRequest::write(lba, 16, pass << 32 | lba));
                    now = d.next_completion().unwrap();
                    for c in d.advance(now) {
                        trace.push((c.request.tag, c.completed_at.as_nanos()));
                    }
                    lba += 16;
                }
            }
            trace
        };
        assert_eq!(run(42), run(42), "same seed, same completion trace");
        assert_ne!(
            run(42),
            run(43),
            "different seed shifts GC jitter somewhere"
        );
    }

    #[test]
    fn preset_models_build_and_serve() {
        for m in [DriveModel::ConsumerTlcSsd, DriveModel::DatacenterSsd] {
            let mut d = Ssd::from_model(m, SimRng::new(3));
            assert_eq!(d.total_sectors(), m.total_sectors());
            d.submit(SimTime::ZERO, DiskRequest::read(0, 128, 0));
            let t = d.next_completion().expect("busy");
            assert_eq!(d.advance(t).len(), 1);
            let r = d.report();
            assert_eq!(r.kind, "ssd");
            assert!(r.buckets.iter().any(|(n, _)| *n == "gc stall"));
        }
    }

    #[test]
    #[should_panic(expected = "beyond end")]
    fn oversized_request_rejected() {
        let mut d = Ssd::new(tiny_params(), SimRng::new(1));
        let total = d.total_sectors();
        d.submit(SimTime::ZERO, DiskRequest::read(total - 8, 16, 0));
    }
}
