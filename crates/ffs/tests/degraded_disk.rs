//! Degraded-disk recovery is scheduler-independent: under every I/O
//! scheduler, transient sector errors recover inside the bio layer's
//! bounded retries, hard errors surface exactly one `EIO` and are
//! remapped to spares, no completion is lost or duplicated, and a second
//! pass over the remapped range reads clean.

use diskfault::{ErrorCluster, FaultPlan, FaultState};
use diskmodel::{DiskErrorKind, DriveModel, PartitionTable};
use ffs::{FileSystem, FsConfig, IoStatus, OpDone, MAX_IO_RETRIES};
use iosched::SchedulerKind;
use simcore::{SimDuration, SimRng, SimTime};

const SCHEDULERS: [SchedulerKind; 5] = [
    SchedulerKind::Fcfs,
    SchedulerKind::Elevator,
    SchedulerKind::NCscan,
    SchedulerKind::Sstf,
    SchedulerKind::Scan,
];

const BLOCKS: u64 = 64;
const BS: u64 = 8_192;

fn make_fs(seed: u64, sched: SchedulerKind) -> FileSystem {
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(seed));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    FileSystem::format(disk, part, sched, FsConfig::default())
}

fn drain(fs: &mut FileSystem) -> Vec<OpDone> {
    let mut out = Vec::new();
    while let Some(t) = fs.next_event() {
        out.extend(fs.advance(t));
    }
    out
}

#[test]
fn every_scheduler_recovers_from_degraded_disk() {
    for sched in SCHEDULERS {
        let mut fs = make_fs(11, sched);
        let mut frng = SimRng::new(11);
        let ino = fs.create_file(BLOCKS * BS, &mut frng).unwrap();
        let transient_lba = fs.inode(ino).expect("created").lba_of(5);
        let hard_lba = fs.inode(ino).expect("created").lba_of(40);
        let plan = FaultPlan {
            sector_errors: vec![
                ErrorCluster {
                    start: transient_lba,
                    sectors: 16,
                    kind: DiskErrorKind::TransientMedia,
                    recovery_reads: 2,
                    stall: SimDuration::from_millis(30),
                },
                ErrorCluster {
                    start: hard_lba,
                    sectors: 16,
                    kind: DiskErrorKind::HardMedia,
                    recovery_reads: 0,
                    stall: SimDuration::from_millis(40),
                },
            ],
            ..FaultPlan::default()
        };
        fs.set_fault_model(Some(Box::new(FaultState::new(plan))));

        for blk in 0..BLOCKS {
            fs.read(SimTime::ZERO, ino, blk * BS, BS, 1, blk);
        }
        let done = drain(&mut fs);
        assert_eq!(
            done.len() as u64,
            BLOCKS,
            "{sched:?}: every read completes exactly once"
        );
        let eios: Vec<u64> = done
            .iter()
            .filter(|d| d.status == IoStatus::Eio)
            .map(|d| d.tag)
            .collect();
        assert!(
            eios.contains(&40),
            "{sched:?}: the hard cluster under block 40 must surface EIO (got {eios:?})"
        );
        assert!(
            !eios.contains(&5),
            "{sched:?}: the transient cluster must recover below the fs"
        );

        let bio = fs.bio().stats();
        assert!(bio.recovered >= 1, "{sched:?}: {bio:?}");
        assert!(bio.retries >= 2, "{sched:?}: {bio:?}");
        assert!(
            bio.max_attempts <= MAX_IO_RETRIES,
            "{sched:?}: retry cap exceeded: {bio:?}"
        );
        assert_eq!(
            bio.error_completions,
            bio.retries + bio.eio,
            "{sched:?}: error books must balance: {bio:?}"
        );
        assert_eq!(
            bio.eio,
            bio.hard_errors + bio.transient_exhausted,
            "{sched:?}: {bio:?}"
        );
        assert_eq!(fs.bio().deferred_retries(), 0, "{sched:?}: retries parked");
        assert!(
            fs.bio().disk().stats().remapped_sectors >= 16,
            "{sched:?}: hard cluster must be remapped"
        );

        // Second pass: the remapped range now reads clean under the same
        // scheduler, and no further errors accrue.
        fs.flush_caches();
        let t1 = done.iter().map(|d| d.done_at).max().expect("non-empty");
        for blk in 0..BLOCKS {
            fs.read(t1, ino, blk * BS, BS, 1, BLOCKS + blk);
        }
        let done2 = drain(&mut fs);
        assert_eq!(done2.len() as u64, BLOCKS, "{sched:?}");
        assert!(
            done2.iter().all(|d| d.status.is_ok()),
            "{sched:?}: remapped disk must read clean on the second pass"
        );
        assert_eq!(
            fs.bio().stats().eio,
            bio.eio,
            "{sched:?}: no new EIOs after remap"
        );
    }
}
