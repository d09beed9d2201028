//! Disk fault plans compose with the SSD backend exactly as with the
//! spinning drive: the same `FaultPlan` installed behind `ffs::BioLayer`
//! recovers transient clusters inside bounded retries, surfaces exactly
//! one `EIO` for the hard cluster, remaps it, and reads clean afterward —
//! with flash-scale service times underneath.

use diskfault::{ErrorCluster, FaultPlan, FaultState};
use diskmodel::{DeviceModel, DiskErrorKind, PartitionTable, SsdParams};
use ffs::{FileSystem, FsConfig, IoStatus, OpDone, MAX_IO_RETRIES};
use iosched::SchedulerKind;
use simcore::{SimDuration, SimRng, SimTime};
use ssd::Ssd;

const BLOCKS: u64 = 64;
const BS: u64 = 8_192;

fn small_ssd() -> SsdParams {
    SsdParams {
        channels: 2,
        dies_per_channel: 2,
        page_sectors: 16,
        pages_per_block: 16,
        total_sectors: 64 * 1024, // 32 MB
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

fn make_fs(seed: u64, sched: SchedulerKind) -> FileSystem {
    let ssd = Ssd::new(small_ssd(), SimRng::new(seed));
    let part = PartitionTable::quarters_of(ssd.total_sectors()).get(1);
    FileSystem::format_on(Box::new(ssd), part, sched, FsConfig::default())
}

fn drain(fs: &mut FileSystem) -> Vec<OpDone> {
    let mut out = Vec::new();
    while let Some(t) = fs.next_event() {
        out.extend(fs.advance(t));
    }
    out
}

#[test]
fn sector_error_plan_composes_on_flash() {
    for sched in [SchedulerKind::Fcfs, SchedulerKind::NCscan] {
        let mut fs = make_fs(17, sched);
        let mut frng = SimRng::new(17);
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
        assert_eq!(done.len() as u64, BLOCKS, "{sched:?}: all reads complete");
        let eios: Vec<u64> = done
            .iter()
            .filter(|d| d.status == IoStatus::Eio)
            .map(|d| d.tag)
            .collect();
        assert!(
            eios.contains(&40),
            "{sched:?}: hard cluster surfaces EIO (got {eios:?})"
        );
        assert!(
            !eios.contains(&5),
            "{sched:?}: transient cluster recovers below the fs"
        );
        let bio = fs.bio().stats();
        assert!(bio.recovered >= 1, "{sched:?}: {bio:?}");
        assert!(bio.max_attempts <= MAX_IO_RETRIES, "{sched:?}: {bio:?}");

        let rep = fs.bio().device().report();
        assert_eq!(rep.kind, "ssd", "{sched:?}: the device really is flash");
        assert!(rep.media_errors >= 1, "{sched:?}: {rep:?}");
        assert!(
            rep.remapped_sectors >= 16,
            "{sched:?}: hard cluster remapped"
        );

        // Second pass over the remapped range reads clean.
        fs.flush_caches();
        let t1 = done.iter().map(|d| d.done_at).max().expect("non-empty");
        for blk in 0..BLOCKS {
            fs.read(t1, ino, blk * BS, BS, 1, BLOCKS + blk);
        }
        let done2 = drain(&mut fs);
        assert_eq!(done2.len() as u64, BLOCKS, "{sched:?}");
        assert!(
            done2.iter().all(|d| d.status.is_ok()),
            "{sched:?}: remapped flash reads clean on the second pass"
        );
    }
}

#[test]
fn flash_reads_are_much_faster_than_a_seeking_disk_would_be() {
    // Not a comparison against the HDD (that's the `device_grid` experiment's job) —
    // just a sanity bound: 64 scattered 8 KB reads through the full fs
    // stack finish in well under a second of simulated time.
    let mut fs = make_fs(23, SchedulerKind::NCscan);
    let mut frng = SimRng::new(23);
    let ino = fs.create_file(BLOCKS * BS, &mut frng).unwrap();
    let mut order: Vec<u64> = (0..BLOCKS).collect();
    frng.shuffle(&mut order);
    for (i, blk) in order.iter().enumerate() {
        fs.read(SimTime::ZERO, ino, blk * BS, BS, 1, i as u64);
    }
    let done = drain(&mut fs);
    assert_eq!(done.len() as u64, BLOCKS);
    let last = done.iter().map(|d| d.done_at).max().expect("non-empty");
    assert!(
        last.since(SimTime::ZERO) < SimDuration::from_millis(100),
        "random flash reads took {:?}",
        last.since(SimTime::ZERO)
    );
}
