//! Differential write suite: the async write path (UNSTABLE + COMMIT +
//! write gathering) must be invisible on a FILE_SYNC mount — the default
//! configuration reproduces the pre-PR synchronous write path bit for
//! bit — and, when enabled, must end in exactly the same durable state
//! while finishing the workload sooner (the paper's sync-vs-async trap).
//!
//! The `PRE_ASYNC_SYNC_WRITE` constants were captured from the repo
//! *before* the async write path landed, so these tests pin the refactor
//! to the old write path exactly.

use diskmodel::{DriveModel, PartitionTable};
use ffs::FsConfig;
use iosched::SchedulerKind;
use nfsproto::{FileHandle, StableHow};
use nfssim::{NfsWorld, OpId, WorldConfig};
use simcore::{SimRng, SimTime};

/// Pre-PR baseline: 2 MB of sequential FILE_SYNC writes + 1 MB read-back
/// on the default world; `(seed, FNV over the client books + final sim
/// time)`. Captured at the commit preceding this suite.
const PRE_ASYNC_SYNC_WRITE: [(u64, u64); 3] = [
    (1, 0x1e92_623e_b36f_6d41),
    (2, 0x14fc_2fe3_cea5_52e7),
    (3, 0xcf59_8a68_aac9_5b10),
];

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn make_world(config: WorldConfig, seed: u64) -> NfsWorld {
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(seed));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let fs = ffs::FileSystem::format(disk, part, SchedulerKind::Elevator, FsConfig::default());
    NfsWorld::new(config, fs, seed)
}

fn drive_next(world: &mut NfsWorld, now: &mut SimTime) -> SimTime {
    loop {
        let t = world.next_event().expect("pending op must progress");
        let done = world.advance(t);
        *now = (*now).max(t);
        if let Some(d) = done.first() {
            return d.done_at;
        }
    }
}

fn drive_op(world: &mut NfsWorld, id: OpId) -> SimTime {
    loop {
        let t = world.next_event().expect("pending op must progress");
        if let Some(d) = world.advance(t).into_iter().find(|d| d.id == id) {
            assert!(d.outcome.is_ok(), "{:?}", d.outcome);
            return d.done_at;
        }
    }
}

/// 2 MB of sequential synchronous 8 KB writes into a 4 MB file, then a
/// 1 MB sequential read-back (exercising write-through invalidation),
/// folded into one FNV hash over the client books and the final time.
/// Byte-identical to the capture program that produced the baseline.
fn sync_write_run(seed: u64) -> u64 {
    let mut w = make_world(WorldConfig::default(), seed);
    let fh: FileHandle = w.create_file(4 * 1024 * 1024);
    let mut now = SimTime::ZERO;
    for i in 0..256u64 {
        w.write_from(0, now, fh, i * 8_192, 8_192, i);
        now = drive_next(&mut w, &mut now);
    }
    for i in 0..128u64 {
        w.read_from(0, now, fh, i * 8_192, 8_192, 1000 + i);
        now = drive_next(&mut w, &mut now);
    }
    let s = w.client_stats_for(0);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        s.ops,
        s.cache_hits,
        s.rpcs,
        s.readahead_rpcs,
        s.retransmits,
        s.iod_starved,
        s.rpc_timeouts,
        s.transmissions,
        s.replies_received,
        s.duplicate_replies,
        s.eio_replies,
        w.now().as_nanos(),
    ] {
        fnv(&mut h, v);
    }
    h
}

/// The same workload with UNSTABLE writes and a final close; returns the
/// world for state inspection plus the completion time of the close.
fn async_write_run(seed: u64) -> (NfsWorld, SimTime) {
    let cfg = WorldConfig {
        stable_how: StableHow::Unstable,
        ..WorldConfig::default()
    };
    let mut w = make_world(cfg, seed);
    let fh: FileHandle = w.create_file(4 * 1024 * 1024);
    let mut now = SimTime::ZERO;
    for i in 0..256u64 {
        w.write_from(0, now, fh, i * 8_192, 8_192, i);
        now = drive_next(&mut w, &mut now);
    }
    let id = w.close_from(0, now, fh, 9_999);
    let done = drive_op(&mut w, id);
    (w, done)
}

/// A FILE_SYNC world with the async machinery compiled in runs the write
/// workload bit-identically to the pre-PR repo: same books, same final
/// simulated time.
#[test]
fn file_sync_write_workload_matches_the_pre_async_baseline() {
    for (seed, books) in PRE_ASYNC_SYNC_WRITE {
        assert_eq!(
            sync_write_run(seed),
            books,
            "seed {seed}: FILE_SYNC write workload moved (async path became visible)"
        );
    }
}

/// On a FILE_SYNC mount every async-path counter stays at zero on both
/// ends of the wire: the new machinery is truly dormant.
#[test]
fn file_sync_mount_never_touches_the_async_machinery() {
    let mut w = make_world(WorldConfig::default(), 5);
    let fh = w.create_file(1024 * 1024);
    let mut now = SimTime::ZERO;
    for i in 0..64u64 {
        w.write_from(0, now, fh, i * 8_192, 8_192, i);
        now = drive_next(&mut w, &mut now);
    }
    let c = w.client_stats_for(0);
    assert_eq!(c.write_rpcs, 0, "{c:?}");
    assert_eq!(c.commit_rpcs, 0, "{c:?}");
    assert_eq!(c.verifier_mismatches, 0, "{c:?}");
    assert_eq!(c.blocks_rewritten, 0, "{c:?}");
    assert_eq!(w.client_uncommitted_blocks(0), 0);
    let s = w.server_stats();
    assert_eq!(s.unstable_writes, 0, "{s:?}");
    assert_eq!(s.commits, 0, "{s:?}");
    assert_eq!(s.gather_flushes, 0, "{s:?}");
    assert_eq!(s.dirty_blocks_stashed, 0, "{s:?}");
    assert_eq!(w.server_dirty_blocks(), 0);
}

/// UNSTABLE + close ends in exactly the durable state FILE_SYNC reaches
/// — every written block on stable storage, balanced dirty books — while
/// finishing the whole workload sooner. The speedup *is* the §2 trap: a
/// benchmark that does not force stability measures a different (and
/// faster) thing than one that does.
#[test]
fn async_run_reaches_the_same_durable_state_faster() {
    for seed in [1u64, 2, 3] {
        // Sync run: time the identical 256-block write phase.
        let mut sw = make_world(WorldConfig::default(), seed);
        let sfh = sw.create_file(4 * 1024 * 1024);
        let mut now = SimTime::ZERO;
        for i in 0..256u64 {
            sw.write_from(0, now, sfh, i * 8_192, 8_192, i);
            now = drive_next(&mut sw, &mut now);
        }
        let sync_done = now;
        let (aw, async_done) = async_write_run(seed);
        // Identical durable end state.
        for blk in 0..256u64 {
            assert!(
                aw.is_durable(sfh, blk),
                "seed {seed}: async block {blk} not durable after close"
            );
            assert!(
                sw.is_durable(sfh, blk),
                "seed {seed}: sync block {blk} not durable"
            );
        }
        assert_eq!(aw.client_uncommitted_blocks(0), 0, "seed {seed}");
        let s = aw.server_stats();
        assert_eq!(
            s.dirty_blocks_stashed,
            s.dirty_blocks_flushed + s.dirty_blocks_lost + aw.server_dirty_blocks(),
            "seed {seed}: dirty-page books must balance: {s:?}"
        );
        assert_eq!(s.dirty_blocks_lost, 0, "seed {seed}: no crash, no loss");
        // Gathering coalesced the flushes: far fewer disk writes than
        // WRITE RPCs arrived.
        assert!(
            s.gather_flushes * 4 < s.unstable_writes,
            "seed {seed}: write gathering must coalesce: {s:?}"
        );
        // And the async world got there sooner, durability included.
        assert!(
            async_done < sync_done,
            "seed {seed}: async {async_done:?} must beat sync {sync_done:?}"
        );
    }
}
