//! Ablation: file-system aging (§3's explicit prediction).
//!
//! "We do not attempt to age the file system at all before we run our
//! benchmarks... fresh file systems are one of the worst cases. We are
//! attempting to measure the impact of various read-ahead heuristics, and
//! we believe that read-ahead heuristics increase in importance as file
//! systems age. Therefore, any benefit we see for a fresh file system
//! should be even more pronounced on an aged file system."
//!
//! The allocator's aging knob fragments file layouts the way months of
//! create/delete traffic would. This bench tests the paper's prediction:
//! the Always-vs-Default read-ahead gap should widen as aging increases.

use diskmodel::{DriveModel, PartitionTable};
use ffs::{FileSystem, FsConfig};
use iosched::SchedulerKind;
use nfs_bench::BASE_SEED;
use nfsproto::FileHandle;
use nfssim::{NfsWorld, WorldConfig};
use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
use simcore::{SimRng, SimTime};

fn run(aging: f64, policy: ReadaheadPolicy, readers: usize, total_mb: u64) -> f64 {
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(BASE_SEED));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let config = FsConfig {
        aging,
        ..FsConfig::default()
    };
    let fs = FileSystem::format(disk, part, SchedulerKind::Elevator, config);
    let cfg = WorldConfig {
        policy,
        heur: NfsHeurConfig::improved(),
        ..WorldConfig::default()
    };
    let mut world = NfsWorld::new(cfg, fs, BASE_SEED);
    let per = total_mb / readers as u64 * 1024 * 1024;
    let fhs: Vec<FileHandle> = (0..readers).map(|_| world.create_file(per)).collect();

    let mut offsets = vec![0u64; readers];
    for (i, fh) in fhs.iter().enumerate() {
        world.read_from(0, SimTime::ZERO, *fh, 0, 8_192, i as u64);
        offsets[i] = 8_192;
    }
    let mut end = SimTime::ZERO;
    let mut active = readers;
    while active > 0 {
        let t = world.next_event().expect("readers active");
        for d in world.advance(t) {
            let i = d.tag as usize;
            if offsets[i] >= per {
                end = end.max(d.done_at);
                active -= 1;
                continue;
            }
            world.read_from(0, d.done_at, fhs[i], offsets[i], 8_192, d.tag);
            offsets[i] += 8_192;
        }
    }
    (total_mb * 1024 * 1024) as f64 / 1e6 / end.as_secs_f64()
}

fn main() {
    let (readers, total_mb) = nfs_bench::by_scale((8, 32), (8, 128));
    println!("file-system aging ablation: ide1, NFS/UDP, {readers} readers");
    println!(
        "{:>8} | {:>12} | {:>12} | {:>12}",
        "aging", "default MB/s", "always MB/s", "RA benefit %"
    );
    let agings = [0.0, 0.1, 0.25, 0.5];
    let mut cells = Vec::new();
    for &aging in &agings {
        cells.push((aging, ReadaheadPolicy::Default));
        cells.push((aging, ReadaheadPolicy::Always));
    }
    let mbs = simfleet::map_indexed(&cells, |&(aging, policy)| {
        run(aging, policy, readers, total_mb)
    });
    for (i, &aging) in agings.iter().enumerate() {
        let (d, a) = (mbs[i * 2], mbs[i * 2 + 1]);
        let benefit = (a / d - 1.0) * 100.0;
        println!("{aging:>8.2} | {d:>12.2} | {a:>12.2} | {benefit:>12.1}");
    }
    println!();
    println!("The paper's (untested) §3 conjecture is that read-ahead matters");
    println!("MORE on aged file systems. In this model the opposite happens:");
    println!("fragmentation breaks up the physically contiguous runs that");
    println!("cluster reads and read-ahead both depend on, so aging hurts the");
    println!("Always-Read-ahead ceiling as much as the Default floor and the");
    println!("gap narrows. The conjecture would hold for a read-ahead");
    println!("implementation that issues discontiguous prefetch I/Os; FreeBSD's");
    println!("cluster-based one (modelled here) cannot.");
}
