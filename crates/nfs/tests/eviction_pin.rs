//! World-level eviction pins: the `read_stream` benchmark shape at 1/16
//! scale (16 readers, 8 KB UDP reads, stock `nfsheur`, 16 MB in all) over
//! a 1,250-block server buffer cache. The pass reads 2,048 blocks, so the
//! server's cache evicts on most fills from the middle of the pass on;
//! every other world-level suite reads less than the server cache holds.
//!
//! The `eviction_server_cache` values in `pins.txt` were captured while
//! the buffer cache still found each victim by scanning its whole map.
//! Exact LRU must keep every completion's tag and time.
//!
//! The client-side pins run the same pass through a client cache of 64
//! blocks with an 8-block read-ahead window. Sixteen sequential readers
//! keep up to 16 × (1 + 8) = 144 blocks pending at once, so the client
//! cache both evicts on most fills and overflows with pinned read-ahead.
//! The write variant rewrites every fourth block right after reading it,
//! so client (and server) `invalidate` drops blocks that are valid and
//! recently used. The `eviction_client_*` values were captured on the
//! stamp-and-candidate-list cache, before the cache indexed its blocks;
//! they fold every completion's tag and time plus the client's cache
//! hits, RPCs and read-ahead RPCs.

use diskmodel::{DriveModel, PartitionTable};
use ffs::FsConfig;
use iosched::SchedulerKind;
use nfsproto::FileHandle;
use nfssim::{NfsWorld, WorldConfig};
use pins::fold;
use simcore::{SimDuration, SimRng, FNV_BASIS};

const READERS: usize = 16;
const PASS_BYTES: u64 = 16 * 1024 * 1024;
const READ_BYTES: u64 = 8_192;
const SERVER_CACHE_BLOCKS: usize = 1_250;
const CLIENT_CACHE_BLOCKS: usize = 64;
const CLIENT_READAHEAD_BLOCKS: u64 = 8;
/// Simulated CPU a reader process spends between reads.
const PROC_READ_CPU: SimDuration = SimDuration::from_micros(15);
/// Tags at or above this mark a WRITE, not a reader's READ.
const WRITE_TAG: u64 = 1 << 32;

/// One world shape of the pinned pass.
#[derive(Clone, Copy)]
struct Shape {
    /// Client cache and read-ahead depth; `None` keeps the defaults
    /// (a 120,000-block cache that never evicts here).
    client: Option<(usize, u64)>,
    /// Rewrite every fourth block just after reading it.
    writes: bool,
}

/// Runs the closed-loop pass and returns its completion fingerprint.
fn read_stream(seed: u64, shape: Shape) -> u64 {
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(seed));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let config = FsConfig {
        cache_blocks: SERVER_CACHE_BLOCKS,
        ..FsConfig::default()
    };
    let fs = ffs::FileSystem::format(disk, part, SchedulerKind::Elevator, config);
    let mut wc = WorldConfig::default();
    if let Some((blocks, readahead)) = shape.client {
        wc.client_cache_blocks = blocks;
        wc.client_readahead_blocks = readahead;
    }
    let mut world = NfsWorld::new(wc, fs, seed);
    let per = PASS_BYTES / READERS as u64;
    let fhs: Vec<FileHandle> = (0..READERS).map(|_| world.create_file(per)).collect();

    let start = world.now();
    for (i, &fh) in fhs.iter().enumerate() {
        world.read_from(0, start, fh, 0, READ_BYTES, i as u64);
    }
    let mut next_offset = [READ_BYTES; READERS];
    let mut fp = FNV_BASIS;
    let mut completed = 0;
    let mut writes = 0;
    let mut running = READERS;
    while running > 0 {
        let t = world.next_event().expect("readers running but no event");
        for d in world.advance(t) {
            assert!(d.outcome.is_ok(), "{:?}", d.outcome);
            fp = fold(fold(fp, d.tag), d.done_at.as_nanos());
            if d.tag >= WRITE_TAG {
                continue;
            }
            completed += 1;
            let i = d.tag as usize;
            let at = d.done_at + PROC_READ_CPU;
            let just_read = next_offset[i] - READ_BYTES;
            if shape.writes && (just_read / READ_BYTES) % 4 == 3 {
                world.write_from(0, at, fhs[i], just_read, READ_BYTES, WRITE_TAG + d.tag);
                writes += 1;
            }
            if next_offset[i] >= per {
                running -= 1;
                continue;
            }
            world.read_from(0, at, fhs[i], next_offset[i], READ_BYTES, d.tag);
            next_offset[i] += READ_BYTES;
        }
    }
    assert_eq!(completed, PASS_BYTES / READ_BYTES);
    // Drain the WRITEs still in flight when the last read finished.
    while let Some(t) = world.next_event().filter(|_| shape.writes) {
        for d in world.advance(t) {
            assert!(d.outcome.is_ok(), "{:?}", d.outcome);
            fp = fold(fold(fp, d.tag), d.done_at.as_nanos());
        }
    }
    if shape.writes {
        assert_eq!(writes, PASS_BYTES / READ_BYTES / 4);
    }
    if shape.client.is_some() {
        let cs = world.client_stats_for(0);
        for x in [cs.cache_hits, cs.rpcs, cs.readahead_rpcs] {
            fp = fold(fp, x);
        }
    }
    fp
}

/// Pins seeds 1 and 2 of `shape`, each a fingerprint over every
/// completion's tag and time, as `seed<n>` in `suite`.
fn check(suite: &str, shape: Shape) {
    let fps = [1, 2].map(|seed| (format!("seed{seed}"), pins::hex(read_stream(seed, shape))));
    pins::check(suite, fps);
}

#[test]
fn read_stream_over_an_evicting_server_cache_is_pinned() {
    assert!(PASS_BYTES / ffs::BLOCK_BYTES > SERVER_CACHE_BLOCKS as u64);
    let shape = Shape {
        client: None,
        writes: false,
    };
    check("eviction_server_cache", shape);
}

#[test]
fn read_stream_over_an_evicting_client_cache_is_pinned() {
    assert!(READERS as u64 * (1 + CLIENT_READAHEAD_BLOCKS) > CLIENT_CACHE_BLOCKS as u64);
    let shape = Shape {
        client: Some((CLIENT_CACHE_BLOCKS, CLIENT_READAHEAD_BLOCKS)),
        writes: false,
    };
    check("eviction_client_cache", shape);
}

#[test]
fn rewrites_through_an_evicting_client_cache_are_pinned() {
    let shape = Shape {
        client: Some((CLIENT_CACHE_BLOCKS, CLIENT_READAHEAD_BLOCKS)),
        writes: true,
    };
    check("eviction_client_rewrites", shape);
}
