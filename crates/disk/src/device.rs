//! The device abstraction: the submit/poll/advance surface every storage
//! backend presents to the block-I/O layer.
//!
//! [`crate::Disk`] (the 2003 spinning drive) and the `ssd` crate's flash
//! backend both implement [`DeviceModel`]; `ffs::bio`, the `iosched`
//! elevator, and the `diskfault` plans compose against this trait and never
//! name a concrete device. The trait mirrors the passive state-machine
//! style of the rest of the simulator: explicit [`SimTime`] arguments,
//! no event-loop dependency, and strictly deterministic behaviour.
//!
//! [`DeviceReport`] is the device-agnostic statistics surface: a handful
//! of universal counters plus *labelled* service-time buckets and gauges,
//! so an HDD can report seek/rotation and an SSD can report GC-stall and
//! die-conflict time through the same rendering code.

use std::any::Any;

use simcore::{SimDuration, SimTime};

use crate::fault::FaultModel;
use crate::types::{Completion, DiskRequest, Lba, RequestId};

/// A labelled slice of device busy time (`("seek", 1.2ms)`).
pub type ReportBucket = (&'static str, SimDuration);

/// A labelled device-specific counter (`("gc runs", 3)`).
pub type ReportGauge = (&'static str, u64);

/// Device-agnostic statistics snapshot.
///
/// The universal counters are what every layer above needs (commands,
/// busy time, error totals); everything mechanical or flash-specific goes
/// into the labelled `buckets` (durations, rendered as percentages of
/// busy) and `gauges` (plain counts). Buckets need not sum to `busy` —
/// devices may leave overheads unbucketed, exactly as
/// [`crate::DiskStats`] does.
#[derive(Debug, Clone, Default)]
pub struct DeviceReport {
    /// Short device-family label (`"disk"`, `"ssd"`).
    pub kind: &'static str,
    /// Read commands completed.
    pub reads: u64,
    /// Write commands completed.
    pub writes: u64,
    /// Reads served from a device-internal cache.
    pub cache_hits: u64,
    /// Total time the device spent servicing commands.
    pub busy: SimDuration,
    /// Commands completed with a check condition.
    pub media_errors: u64,
    /// Sectors reallocated to spares by host remap commands.
    pub remapped_sectors: u64,
    /// Labelled decomposition of `busy` (seek/rotation/... for an HDD,
    /// gc-stall/die-wait/... for an SSD).
    pub buckets: Vec<ReportBucket>,
    /// Labelled device-specific counters (seeks, GC runs, pages moved...).
    pub gauges: Vec<ReportGauge>,
}

impl DeviceReport {
    /// Total commands completed.
    pub fn commands(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A storage device: the passive submit/poll/advance state machine the
/// block-I/O layer drives.
///
/// The contract matches [`crate::Disk`]'s historical surface exactly — the
/// spinning drive behind this trait is bit-identical to the pre-trait
/// code, which the fingerprint pins enforce:
///
/// * `submit` accepts a request at an explicit time and returns the
///   device-assigned id; the device may internally queue and reorder.
/// * `next_completion` is the earliest instant `advance_into` would produce
///   a completion; `advance_into(now, out)` retires everything due at or
///   before `now` and appends it to the caller's buffer, so a steady-state
///   caller that reuses its buffer does not allocate.
/// * `can_accept` is the host-visible queue-slot gate; integration layers
///   respect it, tests may overqueue.
/// * `set_fault_model`/`remap` compose with `diskfault` plans: decisions
///   must be consulted per command, and remapped ranges stop failing.
pub trait DeviceModel: std::fmt::Debug + Send {
    /// Submits a request at time `now`, returning its device-assigned id.
    fn submit(&mut self, now: SimTime, req: DiskRequest) -> RequestId;

    /// When the next command will finish, if any is in service.
    fn next_completion(&self) -> Option<SimTime>;

    /// Completes every command that finishes at or before `now`, appending
    /// the completions to `out` in completion order.
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<Completion>);

    /// Whether the host may send another command.
    fn can_accept(&self) -> bool;

    /// Number of requests in the device (queued + in service).
    fn outstanding(&self) -> usize;

    /// Addressable capacity in sectors.
    fn total_sectors(&self) -> u64;

    /// Discards all cached data (benchmark cache-flush discipline, §4.3.1).
    fn flush_cache(&mut self);

    /// Installs (or clears) the device's fault model.
    fn set_fault_model(&mut self, model: Option<Box<dyn FaultModel>>);

    /// Whether a fault model is currently installed.
    fn fault_model_active(&self) -> bool;

    /// Host remap: `[lba, lba + sectors)` is reallocated to spares; faults
    /// covering the range stop firing.
    fn remap(&mut self, lba: Lba, sectors: u64);

    /// Reconfigures tagged queueing. Devices without a host-visible TCQ
    /// knob (an SSD's internal parallelism is not host-configurable)
    /// ignore this.
    fn set_tcq(&mut self, _tcq: crate::TcqConfig) {}

    /// Device-agnostic statistics snapshot.
    fn report(&self) -> DeviceReport;

    /// Downcast support, so HDD-only call sites (geometry probes, TCQ
    /// assertions) can reach the concrete device they constructed.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl DeviceModel for crate::Disk {
    fn submit(&mut self, now: SimTime, req: DiskRequest) -> RequestId {
        crate::Disk::submit(self, now, req)
    }

    fn next_completion(&self) -> Option<SimTime> {
        crate::Disk::next_completion(self)
    }

    fn advance_into(&mut self, now: SimTime, out: &mut Vec<Completion>) {
        crate::Disk::advance_into(self, now, out)
    }

    fn can_accept(&self) -> bool {
        crate::Disk::can_accept(self)
    }

    fn outstanding(&self) -> usize {
        crate::Disk::outstanding(self)
    }

    fn total_sectors(&self) -> u64 {
        self.geometry().total_sectors()
    }

    fn flush_cache(&mut self) {
        crate::Disk::flush_cache(self)
    }

    fn set_fault_model(&mut self, model: Option<Box<dyn FaultModel>>) {
        crate::Disk::set_fault_model(self, model)
    }

    fn fault_model_active(&self) -> bool {
        crate::Disk::fault_model_active(self)
    }

    fn remap(&mut self, lba: Lba, sectors: u64) {
        crate::Disk::remap(self, lba, sectors)
    }

    fn set_tcq(&mut self, tcq: crate::TcqConfig) {
        crate::Disk::set_tcq(self, tcq)
    }

    fn report(&self) -> DeviceReport {
        self.stats().report()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl crate::DiskStats {
    /// The spinning drive's counters as a device-agnostic report.
    pub fn report(&self) -> DeviceReport {
        DeviceReport {
            kind: "disk",
            reads: self.reads,
            writes: self.writes,
            cache_hits: self.cache_hits,
            busy: self.busy,
            media_errors: self.media_errors,
            remapped_sectors: self.remapped_sectors,
            buckets: vec![
                ("seek", self.breakdown.seek),
                ("rotation", self.breakdown.rotation),
                ("transfer", self.breakdown.transfer),
                ("fault stall", self.breakdown.fault_stall),
            ],
            gauges: vec![("seeks", self.seeks), ("media reads", self.media_reads)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::{Disk, DiskGeometry, MechParams, SeekModel, TcqConfig};
    use simcore::SimRng;

    fn boxed_disk() -> Box<dyn DeviceModel> {
        let g = DiskGeometry::zoned(1_000, 2, 6_000.0, 200, 100, 4);
        let seek = SeekModel::from_datasheet(1_000, 0.001, 0.005, 0.010);
        let mech = MechParams {
            command_overhead: 0.0001,
            interface_rate: 100e6,
            track_switch: 0.0005,
            write_settle: 0.0005,
        };
        Box::new(Disk::new(
            g,
            seek,
            mech,
            TcqConfig::disabled(),
            CacheConfig::disabled(),
            SimRng::new(9),
        ))
    }

    #[test]
    fn disk_drives_through_the_trait() {
        let mut d = boxed_disk();
        assert!(d.can_accept());
        d.submit(SimTime::ZERO, DiskRequest::read(0, 16, 7));
        assert!(!d.can_accept());
        assert_eq!(d.outstanding(), 1);
        let t = d.next_completion().expect("in service");
        let mut done = Vec::new();
        d.advance_into(t, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].request.tag, 7);
        let r = d.report();
        assert_eq!(r.kind, "disk");
        assert_eq!(r.commands(), 1);
        assert!(r.buckets.iter().any(|(name, _)| *name == "seek"));
    }

    #[test]
    fn downcast_reaches_the_concrete_disk() {
        let mut d = boxed_disk();
        let disk = d.as_any().downcast_ref::<Disk>().expect("is a Disk");
        assert!(disk.geometry().total_sectors() > 0);
        assert_eq!(d.total_sectors(), {
            let disk = d.as_any().downcast_ref::<Disk>().unwrap();
            disk.geometry().total_sectors()
        });
        let disk = d.as_any_mut().downcast_mut::<Disk>().expect("is a Disk");
        disk.flush_cache();
    }

    #[test]
    fn report_mirrors_disk_stats() {
        let mut d = boxed_disk();
        d.submit(SimTime::ZERO, DiskRequest::read(100_000, 16, 0));
        let t = d.next_completion().unwrap();
        d.advance_into(t, &mut Vec::new());
        let r = d.report();
        let stats = d.as_any().downcast_ref::<Disk>().unwrap().stats();
        assert_eq!(r.reads, stats.reads);
        assert_eq!(r.busy, stats.busy);
        let seek = r.buckets.iter().find(|(n, _)| *n == "seek").unwrap().1;
        assert_eq!(seek, stats.breakdown.seek);
    }
}
