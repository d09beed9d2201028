//! Property-based tests on the file system's invariants, driven by seeded
//! `SimRng` loops (offline-friendly; the case index reproduces the input
//! together with the fixed seed).

use diskmodel::{DriveModel, PartitionTable};
use ffs::{FileSystem, FsConfig, OpDone};
use iosched::SchedulerKind;
use simcore::{SimRng, SimTime};

const SCHEDULERS: [SchedulerKind; 5] = [
    SchedulerKind::Fcfs,
    SchedulerKind::Elevator,
    SchedulerKind::NCscan,
    SchedulerKind::Sstf,
    SchedulerKind::Scan,
];

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

/// Every read completes exactly once, regardless of pattern, seqcount, or
/// scheduler.
#[test]
fn reads_complete_exactly_once() {
    let mut rng = SimRng::new(0x000F_F501);
    for case in 0..32 {
        let sched = *rng.choose(&SCHEDULERS).expect("non-empty");
        let mut fs = make_fs(7, sched);
        let mut frng = SimRng::new(7);
        let ino = fs.create_file(128 * 8_192, &mut frng).unwrap();
        let n = rng.gen_range(1usize..80);
        for i in 0..n {
            let blk = rng.gen_range(0u64..128);
            let seq = rng.gen_range(0u32..=127);
            fs.read(SimTime::ZERO, ino, blk * 8_192, 8_192, seq, i as u64);
        }
        let done = drain(&mut fs);
        assert_eq!(done.len(), n, "case {case}: {sched:?}");
        let mut tags: Vec<u64> = done.iter().map(|d| d.tag).collect();
        tags.sort_unstable();
        let expected: Vec<u64> = (0..n as u64).collect();
        assert_eq!(tags, expected, "case {case}: {sched:?}");
    }
}

/// Reads and writes interleaved also conserve; writes always hit disk.
#[test]
fn mixed_ops_conserve() {
    let mut rng = SimRng::new(0x000F_F502);
    for case in 0..32 {
        let mut fs = make_fs(8, SchedulerKind::Elevator);
        let mut frng = SimRng::new(8);
        let ino = fs.create_file(64 * 8_192, &mut frng).unwrap();
        let n = rng.gen_range(1usize..60);
        let mut writes = 0u64;
        for i in 0..n {
            let blk = rng.gen_range(0u64..64);
            if rng.chance(0.5) {
                fs.write(SimTime::ZERO, ino, blk * 8_192, 8_192, i as u64);
                writes += 1;
            } else {
                fs.read(SimTime::ZERO, ino, blk * 8_192, 8_192, 0, i as u64);
            }
        }
        let done = drain(&mut fs);
        assert_eq!(done.len(), n, "case {case}");
        assert_eq!(fs.stats().writes, writes, "case {case}");
    }
}

/// The cache accounting always balances: hits + misses equals the number of
/// blocks requested.
#[test]
fn cache_accounting_balances() {
    let mut rng = SimRng::new(0x000F_F503);
    for case in 0..32 {
        let mut fs = make_fs(9, SchedulerKind::Elevator);
        let mut frng = SimRng::new(9);
        let ino = fs.create_file(64 * 8_192, &mut frng).unwrap();
        let n = rng.gen_range(1usize..80);
        let mut now = SimTime::ZERO;
        for i in 0..n {
            let blk = rng.gen_range(0u64..64);
            fs.read(now, ino, blk * 8_192, 8_192, 0, i as u64);
            // Serialize so hits are well-defined.
            for d in drain(&mut fs) {
                now = now.max(d.done_at);
            }
        }
        let s = fs.stats();
        assert_eq!(s.cache_hit_blocks + s.miss_blocks, n as u64, "case {case}");
    }
}

/// A read issued after a completed identical read at the same time base
/// completes no later than the first did (cache monotonicity).
#[test]
fn rereads_are_never_slower() {
    let mut rng = SimRng::new(0x000F_F504);
    for case in 0..32 {
        let blk = rng.gen_range(0u64..64);
        let seq = rng.gen_range(0u32..=127);
        let mut fs = make_fs(10, SchedulerKind::Elevator);
        let mut frng = SimRng::new(10);
        let ino = fs.create_file(64 * 8_192, &mut frng).unwrap();
        fs.read(SimTime::ZERO, ino, blk * 8_192, 8_192, seq, 0);
        let first = drain(&mut fs).pop().expect("completes");
        let d1 = first.done_at.since(first.issued_at);
        fs.read(first.done_at, ino, blk * 8_192, 8_192, seq, 1);
        let second = drain(&mut fs).pop().expect("completes");
        let d2 = second.done_at.since(second.issued_at);
        assert!(d2 <= d1, "case {case}: reread slower: {d2:?} vs {d1:?}");
    }
}
