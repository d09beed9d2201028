//! Workspace-level property tests: arbitrary request patterns against the
//! full stack never panic, never lose operations, and never violate the
//! heuristics' bounds. Driven by seeded `SimRng` loops (offline-friendly).

use nfs_tricks::prelude::*;
use simcore::SimRng;

/// Any interleaving of reads across several files completes every
/// operation exactly once.
#[test]
fn arbitrary_read_interleavings_complete() {
    let mut rng = SimRng::new(0x92_09_01);
    for case in 0..16u64 {
        let seed = rng.gen_range(0u64..1_000);
        let n = rng.gen_range(1usize..80);
        let ops: Vec<(usize, u64)> = (0..n)
            .map(|_| (rng.gen_range(0usize..4), rng.gen_range(0u64..128)))
            .collect();
        let fs = Rig::scsi(1).build_fs(seed);
        let mut world = NfsWorld::new(WorldConfig::default(), fs, seed);
        let size = 128 * 8_192u64;
        let fhs: Vec<_> = (0..4).map(|_| world.create_file(size)).collect();
        let mut now = SimTime::ZERO;
        let mut issued = 0u64;
        for (i, &(f, blk)) in ops.iter().enumerate() {
            world.read_from(0, now, fhs[f], blk * 8_192, 8_192, i as u64);
            issued += 1;
            // Interleave: sometimes let the world progress before issuing.
            if i % 3 == 0 {
                if let Some(t) = world.next_event() {
                    for d in world.advance(t) {
                        let _ = d;
                        issued -= 1;
                    }
                    now = now.max(t);
                }
            }
        }
        let mut guard = 0;
        while issued > 0 {
            guard += 1;
            assert!(guard < 5_000_000, "case {case}: event loop stuck");
            let t = world.next_event().expect("ops pending");
            now = now.max(t);
            for _ in world.advance(t) {
                issued -= 1;
            }
        }
        // Drain stragglers (in-flight read-ahead, retransmit timers, and
        // any server work queued behind them) before checking books.
        let mut guard = 0;
        while let Some(t) = world.next_event() {
            guard += 1;
            assert!(guard < 5_000_000, "case {case}: drain stuck");
            world.advance(t);
        }
        // Conservation at the protocol level: every accepted call is
        // either replied to or dropped as stale after acceptance.
        let s = world.server_stats();
        assert_eq!(
            s.replies + s.stale_drops,
            s.reads + s.other_calls,
            "case {case}"
        );
    }
}

/// Mixed read/write/getattr sequences hold the same invariants.
#[test]
fn arbitrary_mixed_sequences_complete() {
    let mut rng = SimRng::new(0x92_09_02);
    for case in 0..16u64 {
        let seed = rng.gen_range(0u64..1_000);
        let n = rng.gen_range(1usize..60);
        let fs = Rig::ide(1).build_fs(seed);
        let mut world = NfsWorld::new(WorldConfig::default(), fs, seed);
        let size = 64 * 8_192u64;
        let fh = world.create_file(size);
        let mut pending = 0u64;
        let now = SimTime::ZERO;
        for i in 0..n {
            let blk = rng.gen_range(0u64..64);
            match rng.gen_range(0u8..3) {
                0 => {
                    world.read_from(0, now, fh, blk * 8_192, 8_192, i as u64);
                }
                1 => {
                    world.write_from(0, now, fh, blk * 8_192, 8_192, i as u64);
                }
                _ => {
                    world.getattr_from(0, now, fh, i as u64);
                }
            }
            pending += 1;
        }
        let mut guard = 0;
        while pending > 0 {
            guard += 1;
            assert!(guard < 5_000_000, "case {case}: event loop stuck");
            let t = world.next_event().expect("ops pending");
            for _ in world.advance(t) {
                pending -= 1;
            }
        }
    }
}

/// The end-to-end throughput of a sequential read is bounded by the
/// physics: never faster than the wire, never slower than
/// one-block-per-full-disk-access.
#[test]
fn throughput_respects_physical_bounds() {
    let mut rng = SimRng::new(0x92_09_03);
    for case in 0..8u64 {
        let seed = rng.gen_range(0u64..200);
        let mut b = NfsBench::new(Rig::ide(1), WorldConfig::default(), &[1], 4, seed);
        let t = b.run(1).throughput_mbs;
        assert!(t < 49.0, "case {case}: faster than the wire: {t}");
        assert!(t > 0.2, "case {case}: slower than worst-case disk: {t}");
    }
}
