//! Differential write suite: the async write path (UNSTABLE + COMMIT +
//! write gathering) must be invisible on a FILE_SYNC mount — the default
//! configuration reproduces the pre-PR synchronous write path bit for
//! bit — and, when enabled, must end in exactly the same durable state
//! while finishing the workload sooner (the paper's sync-vs-async trap).
//!
//! The `write_diff_pre_async` values in `pins.txt` were captured from the
//! repo *before* the async write path landed, so these tests pin the
//! refactor to the old write path exactly.

use diskmodel::{DriveModel, PartitionTable};
use ffs::FsConfig;
use iosched::SchedulerKind;
use nfsproto::{FileHandle, StableHow};
use nfssim::{ClientHostConfig, NfsWorld, OpId, WorldConfig};
use simcore::{fnv1a, SimRng, SimTime, FNV_BASIS};

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
    let mut h = FNV_BASIS;
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
        h = fnv1a(h, &v.to_le_bytes());
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
/// simulated time. The baseline is 2 MB of sequential FILE_SYNC writes and
/// a 1 MB read-back on the default world, one FNV over the client books and
/// final sim time per seed, captured at the commit preceding this suite.
#[test]
fn file_sync_write_workload_matches_the_pre_async_baseline() {
    let books = [1u64, 2, 3].map(|seed| (format!("seed{seed}"), pins::hex(sync_write_run(seed))));
    pins::check("write_diff_pre_async", books);
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

/// Four hosts with one nfsiod each write 160 blocks apiece, 16 KB per host
/// every 5 µs, then close. A host dirties blocks faster than its lone
/// nfsiod (busy ~43 µs marshalling each 8-block WRITE) pushes them, so
/// its dirty total climbs past the client ceiling (64 blocks) and runs go
/// out in process context; together the hosts stash 640 blocks inside
/// one gather window, past the server's dirty ceiling (512), so the pool
/// flushes files early. Returns the fold of every completion's
/// `(tag, done_at)` and the server's gather flushes.
fn dirty_ceiling_burst(seed: u64) -> (u64, u64) {
    const HOSTS: usize = 4;
    const BLOCKS: u64 = 160;
    const WRITE: u64 = 2 * 8_192;
    let cfg = WorldConfig {
        stable_how: StableHow::Unstable,
        nfsiods: 1,
        ..WorldConfig::default()
    };
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(seed));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let fs = ffs::FileSystem::format(disk, part, SchedulerKind::Elevator, FsConfig::default());
    let hosts = [ClientHostConfig::from_world(&cfg); HOSTS];
    let mut w = NfsWorld::new_cluster(cfg, &hosts, fs, seed);
    let fhs: Vec<FileHandle> = (0..HOSTS)
        .map(|c| w.create_file_for(c, BLOCKS * 8_192))
        .collect();
    let (mut h, mut ops, mut done) = (FNV_BASIS, 0, 0);
    let mut run_to = |w: &mut NfsWorld, until: Option<SimTime>| {
        while let Some(t) = w.next_event().filter(|&t| until.is_none_or(|u| t <= u)) {
            for d in w.advance(t) {
                assert!(d.outcome.is_ok(), "seed {seed}: {d:?}");
                h = pins::fold(pins::fold(h, d.tag), d.done_at.as_nanos());
                done += 1;
            }
        }
    };
    let mut now = SimTime::ZERO;
    for step in 0..BLOCKS * 8_192 / WRITE {
        now = SimTime::from_nanos(step * 5_000);
        run_to(&mut w, Some(now));
        for (c, &fh) in fhs.iter().enumerate() {
            w.write_from(c, now, fh, step * WRITE, WRITE, c as u64 * 1_000 + step);
            ops += 1;
        }
    }
    for (c, &fh) in fhs.iter().enumerate() {
        w.close_from(c, now, fh, 9_000 + c as u64);
        ops += 1;
    }
    run_to(&mut w, None);
    assert_eq!(done, ops, "seed {seed}: every op completes");
    for (c, &fh) in fhs.iter().enumerate() {
        assert_eq!(w.client_uncommitted_blocks(c), 0, "seed {seed}");
        assert!((0..BLOCKS).all(|b| w.is_durable(fh, b)), "seed {seed}");
    }
    (h, w.server_stats().gather_flushes)
}

/// Pins a write burst in which both dirty ceilings bind, so a change to
/// either ceiling (or to what happens past it) moves a pin.
#[test]
fn a_write_burst_past_both_dirty_ceilings_is_pinned() {
    let mut pinned = Vec::new();
    for seed in [1u64, 2] {
        let (completions, flushes) = dirty_ceiling_burst(seed);
        pinned.push((format!("seed{seed}.completions"), pins::hex(completions)));
        pinned.push((format!("seed{seed}.gather_flushes"), flushes.to_string()));
    }
    pins::check("write_burst", pinned);
}
