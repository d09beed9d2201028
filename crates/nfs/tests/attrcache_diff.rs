//! Differential attribute-cache suite: the client attribute cache
//! (`acregmin`/`acregmax`-style trust windows, close-to-open
//! revalidation) must be invisible while disarmed — the all-zero-timeout
//! default reproduces the pre-cache metadata path bit for bit — and,
//! when armed, must cut GETATTR wire traffic hard while keeping the
//! attribute books balanced and staleness bounded by the trust window.
//!
//! The `attrcache_diff_cache_off` values in `pins.txt` were captured from
//! the repo at the commit that introduced the cache, with both timeouts
//! zero, so these tests pin every later change to the cache logic: if a
//! disarmed world ever draws differently, the cache leaked.

use diskmodel::{DriveModel, PartitionTable};
use ffs::FsConfig;
use iosched::SchedulerKind;
use nfsproto::{FileHandle, NfsCall, StableHow};
use nfssim::{NfsWorld, WorldConfig};
use simcore::{fnv1a, SimDuration, SimRng, SimTime, FNV_BASIS};

fn make_world(config: WorldConfig, seed: u64) -> NfsWorld {
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(seed));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let fs = ffs::FileSystem::format(disk, part, SchedulerKind::Elevator, FsConfig::default());
    NfsWorld::new(config, fs, seed)
}

fn armed(min_s: u64, max_s: u64) -> WorldConfig {
    WorldConfig {
        attr_timeo_min: SimDuration::from_secs(min_s),
        attr_timeo_max: SimDuration::from_secs(max_s),
        ..WorldConfig::default()
    }
}

fn drive_next(world: &mut NfsWorld, now: &mut SimTime) -> SimTime {
    loop {
        let t = world.next_event().expect("pending op must progress");
        let done = world.advance(t);
        *now = (*now).max(t);
        if let Some(d) = done.first() {
            assert!(d.outcome.is_ok(), "{:?}", d.outcome);
            return d.done_at;
        }
    }
}

/// Runs the world until the next external reply lands, returning its time.
fn drive_external(world: &mut NfsWorld) -> SimTime {
    loop {
        let replies = world.take_external_replies();
        if let Some(r) = replies.first() {
            return r.at;
        }
        let t = world.next_event().expect("external call must be answered");
        world.advance(t);
    }
}

/// The metadata storm: a directory of eight files walked six times.
/// Each round lists the directory in two READDIR chunks, then per file
/// LOOKUPs it, opens it (the CTO wire revalidation), stats it six times
/// around a write to file 0 (which invalidates that file's entry), reads
/// one block, and closes. Strictly closed-loop, so the operation order —
/// and with the cache off, every RNG draw — is seed-deterministic.
fn meta_storm(config: WorldConfig, seed: u64) -> (NfsWorld, Vec<FileHandle>) {
    let mut w = make_world(config, seed);
    let dir: FileHandle = w.create_file(8_192);
    let files: Vec<FileHandle> = (0..8).map(|_| w.create_file(8 * 8_192)).collect();
    let mut now = SimTime::ZERO;
    let mut tag = 0u64;
    let t = |x: &mut u64| {
        *x += 1;
        *x
    };
    for round in 0..6u64 {
        w.readdir_from(0, now, dir, 0, 8, false, t(&mut tag));
        now = drive_next(&mut w, &mut now);
        w.readdir_from(0, now, dir, 8, 8, true, t(&mut tag));
        now = drive_next(&mut w, &mut now);
        for (i, &fh) in files.iter().enumerate() {
            w.lookup_from(0, now, dir, 4 + i as u32, t(&mut tag));
            now = drive_next(&mut w, &mut now);
            w.open_from(0, now, fh, t(&mut tag));
            now = drive_next(&mut w, &mut now);
            for _ in 0..3 {
                w.getattr_from(0, now, fh, t(&mut tag));
                now = drive_next(&mut w, &mut now);
            }
            if i == 0 {
                w.write_from(0, now, fh, round * 8_192, 8_192, t(&mut tag));
                now = drive_next(&mut w, &mut now);
            }
            for _ in 0..3 {
                w.getattr_from(0, now, fh, t(&mut tag));
                now = drive_next(&mut w, &mut now);
            }
            w.read_from(0, now, fh, (round % 8) * 8_192, 8_192, t(&mut tag));
            now = drive_next(&mut w, &mut now);
            w.close_from(0, now, fh, t(&mut tag));
            now = drive_next(&mut w, &mut now);
        }
    }
    (w, files)
}

/// Folds the metadata-relevant books (client and server) plus the final
/// simulated time into one FNV hash. Byte-identical to the capture
/// program that produced the baseline.
fn storm_fingerprint(w: &NfsWorld) -> u64 {
    let c = w.client_stats_for(0);
    let s = w.server_stats();
    let mut h = FNV_BASIS;
    for v in [
        c.ops,
        c.cache_hits,
        c.rpcs,
        c.readahead_rpcs,
        c.retransmits,
        c.rpc_timeouts,
        c.transmissions,
        c.replies_received,
        c.duplicate_replies,
        c.eio_replies,
        c.closes,
        c.getattr_rpcs,
        c.lookup_rpcs,
        c.readdir_rpcs,
        c.attr_cache_hits,
        c.attr_cache_misses,
        c.attr_revalidations,
        c.attr_stale_detected,
        c.attr_invalidations,
        s.getattrs,
        s.lookups,
        s.readdirs,
        s.reads,
        s.other_calls,
        s.replies,
        w.now().as_nanos(),
    ] {
        h = fnv1a(h, &v.to_le_bytes());
    }
    h
}

/// A disarmed world (the default config) runs the metadata storm
/// bit-identically to the capture taken when the cache landed: same
/// books, same final simulated time, for every pinned seed. The capture
/// ran with `attr_timeo_min = attr_timeo_max = ZERO`.
#[test]
fn cache_off_metadata_storm_matches_the_baseline() {
    let books = [1u64, 2, 3].map(|seed| {
        let (w, _) = meta_storm(WorldConfig::default(), seed);
        (format!("seed{seed}"), pins::hex(storm_fingerprint(&w)))
    });
    pins::check("attrcache_diff_cache_off", books);
}

/// With the cache disarmed every attribute-cache counter stays at zero
/// and the cache itself stays empty: the machinery is truly dormant.
#[test]
fn cache_off_world_never_touches_the_attr_machinery() {
    let (w, _) = meta_storm(WorldConfig::default(), 5);
    let c = w.client_stats_for(0);
    assert_eq!(c.attr_cache_hits, 0, "{c:?}");
    assert_eq!(c.attr_cache_misses, 0, "{c:?}");
    assert_eq!(c.attr_revalidations, 0, "{c:?}");
    assert_eq!(c.attr_stale_detected, 0, "{c:?}");
    assert_eq!(c.attr_invalidations, 0, "{c:?}");
    assert_eq!(w.attr_cache_entries(0), 0);
    // Every getattr-class op (48 opens + 288 stats) went to the wire.
    assert_eq!(c.getattr_rpcs, 336, "{c:?}");
}

/// Arming the cache at the classic `acregmin=3,acregmax=60` defaults
/// cuts GETATTR wire traffic at least 5x on the storm while keeping the
/// books balanced — every getattr-class op is either a cache hit or a
/// wire RPC, and every wire RPC is a miss or a revalidation — and ends
/// in exactly the durable state the disarmed world reaches.
#[test]
fn armed_cache_cuts_getattr_wire_traffic_and_balances_the_books() {
    for seed in [1u64, 2, 3] {
        let (off, off_files) = meta_storm(WorldConfig::default(), seed);
        let (on, on_files) = meta_storm(armed(3, 60), seed);
        let co = off.client_stats_for(0);
        let cn = on.client_stats_for(0);
        // The payoff: >= 5x fewer GETATTR RPCs (the paper's stat-flood).
        assert!(
            cn.getattr_rpcs * 5 <= co.getattr_rpcs,
            "seed {seed}: armed cache must cut GETATTRs 5x: {} vs {}",
            cn.getattr_rpcs,
            co.getattr_rpcs
        );
        // Books: ops either hit the cache or went to the wire...
        assert_eq!(
            cn.attr_cache_hits + cn.getattr_rpcs,
            co.getattr_rpcs,
            "seed {seed}: getattr-class ops must all be accounted for"
        );
        // ...and every wire GETATTR was a miss or a revalidation.
        assert_eq!(
            cn.getattr_rpcs,
            cn.attr_cache_misses + cn.attr_revalidations,
            "seed {seed}: {cn:?}"
        );
        assert!(cn.attr_cache_hits > 0, "seed {seed}: {cn:?}");
        // Own writes and closes dropped entries.
        assert!(cn.attr_invalidations > 0, "seed {seed}: {cn:?}");
        // The cache changes no other op class.
        assert_eq!(cn.lookup_rpcs, co.lookup_rpcs, "seed {seed}");
        assert_eq!(cn.readdir_rpcs, co.readdir_rpcs, "seed {seed}");
        assert_eq!(cn.ops, co.ops, "seed {seed}");
        // Identical durable end state: all six blocks written to file 0
        // are on stable storage in both worlds.
        for blk in 0..6u64 {
            assert!(
                off.is_durable(off_files[0], blk),
                "seed {seed}: cache-off block {blk} not durable"
            );
            assert!(
                on.is_durable(on_files[0], blk),
                "seed {seed}: cache-on block {blk} not durable"
            );
        }
    }
}

/// Staleness is bounded by the trust window: a cached entry serves stale
/// attributes only until `valid_until`, and the first revalidation after
/// an external writer changed the file detects the change.
#[test]
fn staleness_is_bounded_by_the_trust_window() {
    // Fixed 2 s window (min == max: no adaptive doubling).
    let mut w = make_world(armed(2, 2), 42);
    let fh = w.create_file(8 * 8_192);
    let ext = w.register_external_client();
    let mut now = SimTime::ZERO;

    // Prime the cache: one wire GETATTR installs the entry.
    w.getattr_from(0, now, fh, 1);
    now = drive_next(&mut w, &mut now);
    assert_eq!(w.client_stats_for(0).attr_cache_misses, 1);
    assert_eq!(w.attr_cache_entries(0), 1);

    // An external writer changes the file behind the client's back.
    w.external_call(
        now,
        ext,
        7,
        NfsCall::Write {
            fh,
            offset: 0,
            count: 8_192,
            stable: StableHow::FileSync,
        },
    );
    now = drive_external(&mut w).max(now);
    assert_eq!(
        w.server_attr_version(fh.ino),
        1,
        "write must bump the version"
    );

    // Inside the window the client is *allowed* to be stale: the getattr
    // hits the cache and never sees the new version.
    w.getattr_from(0, now, fh, 2);
    now = drive_next(&mut w, &mut now);
    let c = w.client_stats_for(0);
    assert_eq!(
        c.attr_cache_hits, 1,
        "inside the window: served stale, {c:?}"
    );
    assert_eq!(c.attr_stale_detected, 0, "{c:?}");

    // Past the window the entry has expired: the getattr revalidates
    // over the wire and the staleness window closes.
    now += SimDuration::from_secs(3);
    w.getattr_from(0, now, fh, 3);
    let mut end = now;
    drive_next(&mut w, &mut end);
    let c = w.client_stats_for(0);
    assert_eq!(
        c.attr_revalidations, 1,
        "past the window: must revalidate, {c:?}"
    );
    assert_eq!(
        c.attr_stale_detected, 1,
        "revalidation must detect the external write, {c:?}"
    );
}

/// The trust window adapts: a revalidation that finds the file unchanged
/// doubles the timeout (toward `acregmax`), so a stable file earns a
/// longer window — the second probe after a doubling still hits where a
/// fixed `acregmin` window would have expired.
#[test]
fn unchanged_revalidation_doubles_the_trust_window() {
    let mut w = make_world(armed(1, 60), 9);
    let fh = w.create_file(8 * 8_192);
    let mut now = SimTime::ZERO;

    // Install (miss), window = 1 s.
    w.getattr_from(0, now, fh, 1);
    now = drive_next(&mut w, &mut now);
    // 1.5 s later: expired, revalidates, unchanged -> window doubles to 2 s.
    now += SimDuration::from_millis(1_500);
    w.getattr_from(0, now, fh, 2);
    now = drive_next(&mut w, &mut now);
    // 1.5 s later again: inside the doubled window -> cache hit.
    now += SimDuration::from_millis(1_500);
    w.getattr_from(0, now, fh, 3);
    let mut end = now;
    drive_next(&mut w, &mut end);

    let c = w.client_stats_for(0);
    assert_eq!(c.attr_cache_misses, 1, "{c:?}");
    assert_eq!(c.attr_revalidations, 1, "{c:?}");
    assert_eq!(
        c.attr_cache_hits, 1,
        "the doubled window must cover the third probe: {c:?}"
    );
}

/// READDIRPLUS prefills the cache: after one chunk carrying the
/// children's attributes, stat-ing every child is free — the stat-flood
/// killer the plus variant exists for.
#[test]
fn readdirplus_prefills_the_attribute_cache() {
    let mut w = make_world(armed(3, 60), 17);
    let dir = w.create_file(8_192);
    let children: Vec<FileHandle> = (0..8).map(|_| w.create_file(8_192)).collect();
    let mut now = SimTime::ZERO;

    w.readdirplus_from(0, now, dir, 0, &children, true, 1);
    now = drive_next(&mut w, &mut now);
    assert_eq!(w.attr_cache_entries(0), children.len());

    for (i, &child) in children.iter().enumerate() {
        w.getattr_from(0, now, child, 2 + i as u64);
        now = drive_next(&mut w, &mut now);
    }
    let c = w.client_stats_for(0);
    assert_eq!(c.attr_cache_hits, 8, "every child stat must hit: {c:?}");
    assert_eq!(c.getattr_rpcs, 0, "no GETATTR ever hit the wire: {c:?}");

    // The plain READDIR variant prefills nothing.
    let mut p = make_world(armed(3, 60), 17);
    let pdir = p.create_file(8_192);
    let _pchildren: Vec<FileHandle> = (0..8).map(|_| p.create_file(8_192)).collect();
    let mut pnow = SimTime::ZERO;
    p.readdir_from(0, pnow, pdir, 0, 8, true, 1);
    drive_next(&mut p, &mut pnow);
    assert_eq!(p.attr_cache_entries(0), 0);
}
