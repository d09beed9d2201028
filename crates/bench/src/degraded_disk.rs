//! Degraded-disk extension: throughput and recovery under latent sector
//! errors and fail-slow regions, for every kernel I/O scheduler.
//!
//! The paper benchmarks healthy drives only; real fleets spend a
//! meaningful fraction of their life with a drive that is *partly*
//! broken — a defect cluster that costs retries, or a region whose
//! transfer rate has silently collapsed. This matrix shows what each
//! scheduler does with that: aggregate MB/s for 4 concurrent readers,
//! plus the bio layer's recovery books (retries, EIOs, worst attempt
//! count) proving errors are absorbed below the file system within the
//! bounded retry budget (`MAX_IO_RETRIES`).

use crate::{Level, BASE_SEED, SCHEDULERS};
use diskfault::{FaultPlan, FaultState};
use diskmodel::{DriveModel, PartitionTable};
use ffs::{FileSystem, FsConfig, IoStatus, OpDone, BLOCK_BYTES, MAX_IO_RETRIES};
use iosched::SchedulerKind;
use simcore::{SimRng, SimTime};
use testbed::render_device_line;

const READERS: usize = 4;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Healthy,
    FailSlow,
    SectorErrors,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Healthy => "healthy",
            Mode::FailSlow => "fail-slow",
            Mode::SectorErrors => "sector-errors",
        }
    }
}

struct Cell {
    mbs: f64,
    retries: u64,
    recovered: u64,
    eio: u64,
    max_attempts: u32,
    disk_line: String,
}

fn run_cell(sched: SchedulerKind, mode: Mode, per_mb: u64) -> Cell {
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(BASE_SEED));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let mut fs = FileSystem::format(disk, part, sched, FsConfig::default());
    let mut rng = SimRng::from_seed_and_stream(BASE_SEED, 0xD15C);
    let blocks = per_mb * (1 << 20) / BLOCK_BYTES;
    let inos: Vec<u64> = (0..READERS)
        .map(|_| {
            fs.create_file(blocks * BLOCK_BYTES, &mut rng)
                .expect("the partition holds every file")
        })
        .collect();

    let plan = match mode {
        Mode::Healthy => FaultPlan::healthy(),
        Mode::FailSlow => {
            let (start, sectors) = fs.allocated_span();
            FaultPlan::seeded_fail_slow(&mut rng, start, sectors)
        }
        Mode::SectorErrors => {
            // Anchor the defect neighborhood inside the first reader's
            // extent so the sweep actually crosses it, and pin one hard
            // cluster three-quarters in so every cell also exercises the
            // EIO + spare-remap path, not just transient recovery.
            let ino = fs.inode(inos[0]).expect("created");
            let mut plan = FaultPlan::seeded_sector_errors(
                &mut rng,
                ino.lba_of(0),
                blocks * ffs::BLOCK_SECTORS,
            );
            plan.sector_errors.push(diskfault::ErrorCluster {
                start: ino.lba_of(blocks * 3 / 4),
                sectors: ffs::BLOCK_SECTORS,
                kind: diskmodel::DiskErrorKind::HardMedia,
                recovery_reads: 0,
                stall: simcore::SimDuration::from_millis(40),
            });
            plan
        }
    };
    if !plan.is_empty() {
        fs.set_fault_model(Some(Box::new(FaultState::new(plan))));
    }

    let mut tag = 0u64;
    for blk in 0..blocks {
        for (r, &ino) in inos.iter().enumerate() {
            fs.read(
                SimTime::ZERO,
                ino,
                blk * BLOCK_BYTES,
                BLOCK_BYTES,
                r as u32 + 1,
                tag,
            );
            tag += 1;
        }
    }
    let mut done: Vec<OpDone> = Vec::new();
    while let Some(t) = fs.next_event() {
        done.extend(fs.advance(t));
    }
    assert_eq!(
        done.len() as u64,
        blocks * READERS as u64,
        "lost completions"
    );
    let last = done.iter().map(|d| d.done_at).max().expect("non-empty run");
    let eio_ops = done.iter().filter(|d| d.status == IoStatus::Eio).count();
    let bytes = (blocks * READERS as u64 - eio_ops as u64) * BLOCK_BYTES;
    let bio = fs.bio().stats();
    assert!(
        bio.max_attempts <= MAX_IO_RETRIES,
        "{sched:?}/{}: retry budget exceeded",
        mode.label()
    );
    Cell {
        mbs: bytes as f64 / (1 << 20) as f64 / last.since(SimTime::ZERO).as_secs_f64(),
        retries: bio.retries,
        recovered: bio.recovered,
        eio: bio.eio,
        max_attempts: bio.max_attempts,
        disk_line: render_device_line(&fs.bio().device().report()),
    }
}

pub fn run(level: Level) {
    let per_mb = level.pick(2, 8);
    println!("degraded-disk matrix: ide1, {READERS} readers x {per_mb} MB, seed {BASE_SEED}");
    println!(
        "{:<10} {:<14} | {:>8} | {:>7} | {:>9} | {:>4} | {:>12}",
        "scheduler", "mode", "MB/s", "retries", "recovered", "eio", "max attempts"
    );
    let mut cells = Vec::new();
    for sched in SCHEDULERS {
        for mode in [Mode::Healthy, Mode::FailSlow, Mode::SectorErrors] {
            cells.push((sched, mode));
        }
    }
    let rows = simfleet::map_indexed(&cells, |&(sched, mode)| run_cell(sched, mode, per_mb));
    for ((sched, mode), cell) in cells.iter().zip(&rows) {
        println!(
            "{:<10} {:<14} | {:>8.2} | {:>7} | {:>9} | {:>4} | {:>12}",
            format!("{sched:?}"),
            mode.label(),
            cell.mbs,
            cell.retries,
            cell.recovered,
            cell.eio,
            cell.max_attempts,
        );
        if *mode == Mode::SectorErrors && *sched == SchedulerKind::Elevator {
            println!("  {}", cell.disk_line);
        }
    }
}
