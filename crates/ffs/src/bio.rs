//! The block-I/O layer: kernel scheduler in front of the drive.
//!
//! The kernel keeps its own request queue (ordered by the configured
//! [`IoScheduler`]) and feeds the drive as many commands as the drive will
//! accept: one at a time with tagged queueing off, up to the tag depth with
//! it on. This split is the crux of §5.2 — with tags on, scheduling
//! decisions migrate from the kernel's elevator into the drive's own
//! (fairer, and for this workload slower) SPTF policy, because the kernel
//! queue drains into the drive before the elevator has anything to sort.
//!
//! ## Error handling
//!
//! A drive completion now carries a [`DiskOutcome`]. The bio layer owns
//! the kernel's recovery policy:
//!
//! * **Transient** media errors are retried with exponential backoff (1,
//!   4, 16 ms) up to [`MAX_IO_RETRIES`] times. Retries re-enter the
//!   scheduler via [`IoScheduler::requeue`], keeping the same tag so the
//!   file system's span routing never sees the intermediate failures.
//! * **Hard** errors are not retried (the drive already exhausted its own
//!   heroics): the failed range is remapped to spares so subsequent I/O
//!   succeeds, and the completion propagates with its error — the caller
//!   gets EIO for this request and clean reads thereafter.
//!
//! Only the *final* completion of each request (success or EIO) leaves
//! this layer; callers never see a request twice.

use diskmodel::{
    Completion, DeviceModel, Disk, DiskErrorKind, DiskOutcome, DiskRequest, Lba, TcqConfig,
};
use iosched::{AnyScheduler, IoScheduler, QueuedRequest, SchedulerKind};
use simcore::{SimDuration, SimTime};

/// Most host-level retries of a transient media error before giving up
/// with EIO.
pub const MAX_IO_RETRIES: u32 = 3;

/// Backoff before retry `attempt` (1-based): 1 ms · 4^(attempt−1).
fn retry_backoff(attempt: u32) -> SimDuration {
    SimDuration::from_millis(1).saturating_mul(1u64 << (2 * (attempt - 1)))
}

/// Error-path counters of the block-I/O layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BioStats {
    /// Drive completions that carried an error.
    pub error_completions: u64,
    /// Host-level retries issued (each consumed one error completion).
    pub retries: u64,
    /// Requests that ultimately succeeded after at least one retry.
    pub recovered: u64,
    /// Hard (unrecoverable) errors seen.
    pub hard_errors: u64,
    /// Transient errors that exhausted [`MAX_IO_RETRIES`].
    pub transient_exhausted: u64,
    /// Requests that propagated EIO to the caller.
    pub eio: u64,
    /// Remap commands sent to the drive.
    pub remaps: u64,
    /// Highest retry count any single request reached.
    pub max_attempts: u32,
}

/// Kernel-side block I/O layer wrapping a storage device.
#[derive(Debug)]
pub struct BioLayer {
    device: Box<dyn DeviceModel>,
    sched: AnyScheduler,
    /// Kernel's idea of the head position: end of the last dispatched
    /// request (the kernel cannot see the drive's true state).
    head: Lba,
    next_seq: u64,
    dispatched: u64,
    /// `(tag, retries)` of each request that has failed at least once
    /// and not finished yet; empty on a fault-free drive.
    attempts: Vec<(u64, u32)>,
    /// Retries waiting out their backoff: `(due, request)`.
    deferred: Vec<(SimTime, DiskRequest)>,
    /// Scratch for the drive's completions in `advance_into`.
    drive_done: Vec<Completion>,
    stats: BioStats,
}

impl BioLayer {
    /// Wraps `disk` with a kernel scheduler of the given kind.
    pub fn new(disk: Disk, kind: SchedulerKind) -> Self {
        Self::with_device(Box::new(disk), kind)
    }

    /// Wraps any storage device with a kernel scheduler of the given kind.
    pub fn with_device(device: Box<dyn DeviceModel>, kind: SchedulerKind) -> Self {
        BioLayer {
            device,
            sched: kind.build(),
            head: 0,
            next_seq: 0,
            dispatched: 0,
            attempts: Vec::new(),
            deferred: Vec::new(),
            drive_done: Vec::new(),
            stats: BioStats::default(),
        }
    }

    /// Access to the underlying device.
    pub fn device(&self) -> &dyn DeviceModel {
        self.device.as_ref()
    }

    /// Mutable access to the underlying device (cache flushes, fault
    /// models, TCQ toggles).
    pub fn device_mut(&mut self) -> &mut dyn DeviceModel {
        self.device.as_mut()
    }

    /// Access to the underlying spinning drive.
    ///
    /// # Panics
    ///
    /// Panics if the device behind this layer is not a [`Disk`] — HDD-only
    /// probes (geometry, TCQ state) should stay with HDD rigs; generic
    /// code uses [`BioLayer::device`].
    pub fn disk(&self) -> &Disk {
        self.device
            .as_any()
            .downcast_ref::<Disk>()
            .expect("device behind this bio layer is not a spinning disk")
    }

    /// Mutable access to the underlying spinning drive.
    ///
    /// # Panics
    ///
    /// Panics if the device behind this layer is not a [`Disk`].
    pub fn disk_mut(&mut self) -> &mut Disk {
        self.device
            .as_any_mut()
            .downcast_mut::<Disk>()
            .expect("device behind this bio layer is not a spinning disk")
    }

    /// Switches the kernel scheduling algorithm at runtime.
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.sched.switch(kind);
    }

    /// The active scheduling algorithm.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.sched.kind()
    }

    /// Reconfigures the drive's tagged command queue (no-op on devices
    /// without a host-visible TCQ knob).
    pub fn set_tcq(&mut self, tcq: TcqConfig) {
        self.device.set_tcq(tcq);
    }

    /// Requests queued in the kernel (not yet in the drive).
    pub fn queued(&self) -> usize {
        self.sched.len()
    }

    /// Total requests dispatched to the drive.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Queues a request and pushes work to the drive if it will take it.
    pub fn submit(&mut self, now: SimTime, req: DiskRequest) {
        let qr = QueuedRequest {
            req,
            queued_at: now,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.sched.enqueue(qr);
        self.kick(now);
    }

    /// Error-path counters.
    pub fn stats(&self) -> BioStats {
        self.stats
    }

    /// Retries still waiting out their backoff (0 at quiescence).
    pub fn deferred_retries(&self) -> usize {
        self.deferred.len()
    }

    /// Earliest instant at which this layer has work: a drive completion
    /// or a deferred retry coming due.
    pub fn next_event(&self) -> Option<SimTime> {
        let retry = self.deferred.iter().map(|(due, _)| *due).min();
        match (self.device.next_completion(), retry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Collects final completions up to `now` into a fresh `Vec` (see
    /// [`BioLayer::advance_into`]).
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Collects final completions up to `now`, refilling the drive as
    /// commands retire, and appends them to `out`. Transient errors are
    /// consumed here and retried; only terminal outcomes (success or EIO)
    /// are delivered.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<Completion>) {
        let mut done = std::mem::take(&mut self.drive_done);
        loop {
            let released = self.release_due_retries(now);
            self.device.advance_into(now, &mut done);
            if done.is_empty() && !released {
                break;
            }
            for c in done.drain(..) {
                self.retire(c, out);
            }
            self.kick(now);
        }
        self.drive_done = done;
        // A final kick in case advance() freed queue slots without any new
        // completion (defensive; harmless when redundant).
        self.kick(now);
    }

    /// Moves due retries from the backoff list back into the scheduler in
    /// one pass. The list is appended in completion order, and extraction
    /// keeps that order, so the requeue order and `seq` stamps are
    /// deterministic.
    fn release_due_retries(&mut self, now: SimTime) -> bool {
        let mut released = false;
        for (due, req) in self.deferred.extract_if(.., |(due, _)| *due <= now) {
            let qr = QueuedRequest {
                req,
                queued_at: due,
                seq: self.next_seq,
            };
            self.next_seq += 1;
            self.sched.requeue(qr);
            released = true;
        }
        released
    }

    /// Applies the recovery policy to one drive completion.
    fn retire(&mut self, c: Completion, out: &mut Vec<Completion>) {
        match c.outcome {
            DiskOutcome::Ok => {
                if self.take_attempts(c.request.tag).is_some() {
                    self.stats.recovered += 1;
                }
                out.push(c);
            }
            DiskOutcome::Error(e) => {
                self.stats.error_completions += 1;
                let retried = self.take_attempts(c.request.tag).unwrap_or(0);
                match e.kind {
                    DiskErrorKind::TransientMedia if retried < MAX_IO_RETRIES => {
                        let n = retried + 1;
                        self.attempts.push((c.request.tag, n));
                        self.stats.max_attempts = self.stats.max_attempts.max(n);
                        self.stats.retries += 1;
                        self.deferred
                            .push((c.completed_at + retry_backoff(n), c.request));
                    }
                    DiskErrorKind::TransientMedia => {
                        self.stats.transient_exhausted += 1;
                        self.stats.eio += 1;
                        out.push(c);
                    }
                    DiskErrorKind::HardMedia => {
                        // Retrying is pointless; remap the range to spares
                        // so the next access succeeds, and let the EIO
                        // propagate for this one.
                        self.stats.hard_errors += 1;
                        self.stats.eio += 1;
                        self.stats.remaps += 1;
                        self.device.remap(c.request.lba, c.request.sectors);
                        out.push(c);
                    }
                }
            }
        }
    }

    /// Removes and returns the retries booked for `tag`, if it has failed
    /// before. On a fault-free drive the list is empty, so the search
    /// costs nothing.
    fn take_attempts(&mut self, tag: u64) -> Option<u32> {
        let i = self.attempts.iter().position(|&(t, _)| t == tag)?;
        Some(self.attempts.swap_remove(i).1)
    }

    fn kick(&mut self, now: SimTime) {
        while self.device.can_accept() && !self.sched.is_empty() {
            let Some(qr) = self.sched.dispatch(self.head) else {
                break;
            };
            self.head = qr.req.end();
            self.device.submit(now, qr.req);
            self.dispatched += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::{CacheConfig, DiskGeometry, MechParams, SeekModel};
    use simcore::{SimDuration, SimRng};

    fn mkdisk(tcq: TcqConfig) -> Disk {
        let g = DiskGeometry::zoned(2_000, 2, 7_200.0, 300, 200, 4);
        let seek = SeekModel::from_datasheet(2_000, 0.001, 0.005, 0.012);
        let mech = MechParams {
            command_overhead: 0.0002,
            interface_rate: 100e6,
            track_switch: 0.0008,
            write_settle: 0.0005,
        };
        Disk::new(g, seek, mech, tcq, CacheConfig::disabled(), SimRng::new(5))
    }

    fn drain(bio: &mut BioLayer) -> Vec<u64> {
        let mut tags = Vec::new();
        while let Some(t) = bio.next_event() {
            for c in bio.advance(t) {
                tags.push(c.request.tag);
            }
        }
        tags
    }

    #[test]
    fn without_tags_kernel_elevator_orders() {
        let mut bio = BioLayer::new(mkdisk(TcqConfig::disabled()), SchedulerKind::Elevator);
        // Submit out of LBA order while the drive is busy with the first.
        bio.submit(SimTime::ZERO, DiskRequest::read(500_000, 16, 0));
        bio.submit(SimTime::ZERO, DiskRequest::read(900_000, 16, 1));
        bio.submit(SimTime::ZERO, DiskRequest::read(600_000, 16, 2));
        let tags = drain(&mut bio);
        // After tag 0 (dispatched immediately), the elevator sorts 2 < 1.
        assert_eq!(tags, vec![0, 2, 1]);
    }

    #[test]
    fn with_tags_queue_drains_into_drive() {
        let tcq = TcqConfig {
            enabled: true,
            depth: 64,
            aging_factor: 0.0,
        };
        let mut bio = BioLayer::new(mkdisk(tcq), SchedulerKind::Elevator);
        for i in 0..10u64 {
            bio.submit(SimTime::ZERO, DiskRequest::read(i * 50_000, 16, i));
        }
        // All ten went straight to the drive; kernel queue is empty.
        assert_eq!(bio.queued(), 0);
        assert_eq!(bio.disk().outstanding(), 10);
        let tags = drain(&mut bio);
        assert_eq!(tags.len(), 10);
    }

    #[test]
    fn without_tags_one_outstanding() {
        let mut bio = BioLayer::new(mkdisk(TcqConfig::disabled()), SchedulerKind::Elevator);
        for i in 0..10u64 {
            bio.submit(SimTime::ZERO, DiskRequest::read(i * 50_000, 16, i));
        }
        assert_eq!(bio.disk().outstanding(), 1);
        assert_eq!(bio.queued(), 9);
    }

    #[test]
    fn completions_trigger_refill() {
        let mut bio = BioLayer::new(mkdisk(TcqConfig::disabled()), SchedulerKind::Fcfs);
        for i in 0..5u64 {
            bio.submit(SimTime::ZERO, DiskRequest::read(i * 10_000, 16, i));
        }
        let tags = drain(&mut bio);
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        assert_eq!(bio.dispatched(), 5);
    }

    #[test]
    fn scheduler_switch_mid_stream() {
        let mut bio = BioLayer::new(mkdisk(TcqConfig::disabled()), SchedulerKind::Elevator);
        for i in 0..6u64 {
            bio.submit(SimTime::ZERO, DiskRequest::read((6 - i) * 100_000, 16, i));
        }
        bio.set_scheduler(SchedulerKind::NCscan);
        assert_eq!(bio.scheduler_kind(), SchedulerKind::NCscan);
        let tags = drain(&mut bio);
        assert_eq!(tags.len(), 6, "switch must not lose requests");
    }

    /// A canned per-command verdict list; `Ok` once the script runs out.
    #[derive(Debug)]
    struct ScriptedFault(std::collections::VecDeque<diskmodel::FaultDecision>);

    impl diskmodel::FaultModel for ScriptedFault {
        fn decide(&mut self, _now: SimTime, _req: &DiskRequest) -> diskmodel::FaultDecision {
            self.0.pop_front().unwrap_or(diskmodel::FaultDecision::Ok)
        }
    }

    fn scripted(verdicts: Vec<diskmodel::FaultDecision>) -> Box<ScriptedFault> {
        Box::new(ScriptedFault(verdicts.into_iter().collect()))
    }

    fn fail(kind: DiskErrorKind) -> diskmodel::FaultDecision {
        diskmodel::FaultDecision::Fail {
            kind,
            stall: SimDuration::from_millis(30),
        }
    }

    #[test]
    fn transient_error_recovers_after_retries() {
        let mut bio = BioLayer::new(mkdisk(TcqConfig::disabled()), SchedulerKind::Elevator);
        bio.disk_mut().set_fault_model(Some(scripted(vec![
            fail(DiskErrorKind::TransientMedia),
            fail(DiskErrorKind::TransientMedia),
        ])));
        bio.submit(SimTime::ZERO, DiskRequest::read(1_000, 16, 42));
        let mut done = Vec::new();
        while let Some(t) = bio.next_event() {
            done.extend(bio.advance(t));
        }
        assert_eq!(done.len(), 1, "exactly one final completion");
        assert!(done[0].is_ok());
        assert_eq!(done[0].request.tag, 42);
        let s = bio.stats();
        assert_eq!(s.error_completions, 2);
        assert_eq!(s.retries, 2);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.eio, 0);
        assert_eq!(s.max_attempts, 2);
        assert_eq!(bio.deferred_retries(), 0);
    }

    #[test]
    fn transient_exhaustion_propagates_eio() {
        let mut bio = BioLayer::new(mkdisk(TcqConfig::disabled()), SchedulerKind::Elevator);
        bio.disk_mut().set_fault_model(Some(scripted(vec![
            fail(DiskErrorKind::TransientMedia);
            (MAX_IO_RETRIES + 1) as usize
        ])));
        bio.submit(SimTime::ZERO, DiskRequest::read(1_000, 16, 7));
        let mut done = Vec::new();
        while let Some(t) = bio.next_event() {
            done.extend(bio.advance(t));
        }
        assert_eq!(done.len(), 1);
        assert!(!done[0].is_ok());
        let s = bio.stats();
        assert_eq!(s.retries, u64::from(MAX_IO_RETRIES));
        assert_eq!(s.transient_exhausted, 1);
        assert_eq!(s.eio, 1);
        assert_eq!(s.error_completions, s.retries + s.eio);
    }

    #[test]
    fn hard_error_remaps_and_propagates_once() {
        let mut bio = BioLayer::new(mkdisk(TcqConfig::disabled()), SchedulerKind::Elevator);
        bio.disk_mut()
            .set_fault_model(Some(scripted(vec![fail(DiskErrorKind::HardMedia)])));
        bio.submit(SimTime::ZERO, DiskRequest::read(1_000, 16, 1));
        let mut done = Vec::new();
        while let Some(t) = bio.next_event() {
            done.extend(bio.advance(t));
        }
        assert_eq!(done.len(), 1);
        assert!(!done[0].is_ok(), "hard errors are not retried");
        let s = bio.stats();
        assert_eq!(s.retries, 0);
        assert_eq!(s.hard_errors, 1);
        assert_eq!(s.remaps, 1);
        assert_eq!(bio.disk().stats().remapped_sectors, 16);
        // The remapped range reads cleanly now.
        let t = done[0].completed_at;
        bio.submit(t, DiskRequest::read(1_000, 16, 2));
        let mut after = Vec::new();
        while let Some(t) = bio.next_event() {
            after.extend(bio.advance(t));
        }
        assert_eq!(after.len(), 1);
        assert!(after[0].is_ok());
    }

    #[test]
    fn retries_interleave_without_losing_healthy_completions() {
        let mut bio = BioLayer::new(mkdisk(TcqConfig::disabled()), SchedulerKind::Elevator);
        // The first two commands serviced each fail once; everything else
        // is healthy.
        bio.disk_mut().set_fault_model(Some(scripted(vec![
            fail(DiskErrorKind::TransientMedia),
            fail(DiskErrorKind::TransientMedia),
        ])));
        for i in 0..6u64 {
            bio.submit(SimTime::ZERO, DiskRequest::read(i * 10_000, 16, i));
        }
        let tags = drain(&mut bio);
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5], "no lost or duplicated tags");
        assert_eq!(bio.stats().recovered, 2);
    }

    #[test]
    fn late_submission_is_serviced() {
        let mut bio = BioLayer::new(mkdisk(TcqConfig::disabled()), SchedulerKind::Elevator);
        bio.submit(SimTime::ZERO, DiskRequest::read(0, 16, 0));
        let t1 = bio.next_event().unwrap();
        assert_eq!(bio.advance(t1).len(), 1);
        assert!(bio.next_event().is_none());
        let later = t1 + SimDuration::from_millis(10);
        bio.submit(later, DiskRequest::read(16, 16, 1));
        let t2 = bio.next_event().unwrap();
        assert!(t2 > t1);
        assert_eq!(bio.advance(t2).len(), 1);
    }
}
