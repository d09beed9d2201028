//! World-level eviction pin: the `read_stream` benchmark shape at 1/16
//! scale (16 readers, 8 KB UDP reads, stock `nfsheur`, 16 MB in all) over
//! a 1,250-block server buffer cache. The pass reads 2,048 blocks, so the
//! server's cache evicts on most fills from the middle of the pass on;
//! every other world-level suite reads less than the server cache holds.
//!
//! The `READ_STREAM_1_16` constants were captured while the buffer cache
//! still found each victim by scanning its whole map. Exact LRU must keep
//! every completion's tag and time.

use diskmodel::{DriveModel, PartitionTable};
use ffs::FsConfig;
use iosched::SchedulerKind;
use nfsproto::FileHandle;
use nfssim::{NfsWorld, WorldConfig};
use simcore::{SimDuration, SimRng};

const READERS: usize = 16;
const PASS_BYTES: u64 = 16 * 1024 * 1024;
const READ_BYTES: u64 = 8_192;
const SERVER_CACHE_BLOCKS: usize = 1_250;
/// Simulated CPU a reader process spends between reads.
const PROC_READ_CPU: SimDuration = SimDuration::from_micros(15);

/// `(seed, fingerprint over every completion's tag and time)`.
const READ_STREAM_1_16: [(u64, u64); 2] = [(1, 0xbd12_a420_69b2_5e44), (2, 0xec8a_30ad_cc12_9e91)];

fn fold(h: u64, x: u64) -> u64 {
    (h.rotate_left(23) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs the closed-loop pass and returns its completion fingerprint.
fn read_stream(seed: u64) -> u64 {
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(seed));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let config = FsConfig {
        cache_blocks: SERVER_CACHE_BLOCKS,
        ..FsConfig::default()
    };
    let fs = ffs::FileSystem::format(disk, part, SchedulerKind::Elevator, config);
    let mut world = NfsWorld::new(WorldConfig::default(), fs, seed);
    let per = PASS_BYTES / READERS as u64;
    let fhs: Vec<FileHandle> = (0..READERS).map(|_| world.create_file(per)).collect();

    let start = world.now();
    for (i, &fh) in fhs.iter().enumerate() {
        world.read_from(0, start, fh, 0, READ_BYTES, i as u64);
    }
    let mut next_offset = [READ_BYTES; READERS];
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    let mut completed = 0;
    let mut running = READERS;
    while running > 0 {
        let t = world.next_event().expect("readers running but no event");
        for d in world.advance(t) {
            assert!(d.outcome.is_ok(), "{:?}", d.outcome);
            completed += 1;
            fp = fold(fold(fp, d.tag), d.done_at.as_nanos());
            let i = d.tag as usize;
            if next_offset[i] >= per {
                running -= 1;
                continue;
            }
            let at = d.done_at + PROC_READ_CPU;
            world.read_from(0, at, fhs[i], next_offset[i], READ_BYTES, d.tag);
            next_offset[i] += READ_BYTES;
        }
    }
    assert_eq!(completed, PASS_BYTES / READ_BYTES);
    fp
}

#[test]
fn read_stream_over_an_evicting_server_cache_is_pinned() {
    assert!(PASS_BYTES / ffs::BLOCK_BYTES > SERVER_CACHE_BLOCKS as u64);
    for (seed, pinned) in READ_STREAM_1_16 {
        let fp = read_stream(seed);
        assert_eq!(fp, pinned, "seed {seed}: fingerprint {fp:#018x} moved");
    }
}
