//! Cross-crate integration tests: conservation, determinism, and
//! robustness of the full simulated installation.

use nfs_tricks::prelude::*;

fn read_whole_file(world: &mut NfsWorld, fh: nfsproto::FileHandle, size: u64) -> SimTime {
    let mut now = SimTime::ZERO;
    let mut offset = 0;
    while offset < size {
        world.read_from(0, now, fh, offset, 8_192, 0);
        loop {
            let t = world.next_event().expect("progress");
            if let Some(d) = world.advance(t).first() {
                now = d.done_at;
                break;
            }
        }
        offset += 8_192;
    }
    now
}

#[test]
fn every_transport_policy_combination_completes() {
    for transport in [TransportKind::Udp, TransportKind::Tcp] {
        for policy in [
            ReadaheadPolicy::Default,
            ReadaheadPolicy::Always,
            ReadaheadPolicy::slowdown(),
            ReadaheadPolicy::cursor(),
        ] {
            let config = WorldConfig {
                transport,
                policy,
                ..WorldConfig::default()
            };
            let fs = Rig::scsi(1).build_fs(5);
            let mut world = NfsWorld::new(config, fs, 5);
            let size = 1024 * 1024;
            let fh = world.create_file(size);
            let end = read_whole_file(&mut world, fh, size);
            assert!(end > SimTime::ZERO);
            assert_eq!(
                world.client_stats_for(0).retransmits,
                0,
                "{transport:?}/{} on a clean LAN",
                policy.label()
            );
            // Conservation: 128 blocks fetched exactly once each.
            assert_eq!(
                world.client_stats_for(0).rpcs,
                128,
                "{transport:?}/{}",
                policy.label()
            );
        }
    }
}

#[test]
fn identical_seeds_are_bit_identical_across_the_whole_stack() {
    let run = |seed: u64| {
        let config = WorldConfig {
            busy_loops: 4, // Exercise all jitter paths.
            ..WorldConfig::default()
        };
        let mut b = NfsBench::new(Rig::ide(1), config, &[4], 8, seed);
        b.run(4).throughput_mbs
    };
    assert_eq!(run(9).to_bits(), run(9).to_bits());
    assert_ne!(run(9).to_bits(), run(10).to_bits());
}

#[test]
fn local_and_nfs_account_for_every_block() {
    // 8 MB over 2 files = 1024 process reads of 8 KB each; at the file
    // system every one is either a buffer-cache hit or a miss, and the
    // same holds over NFS. (The drive's own prefetch is invisible here.)
    let mut local = LocalBench::new(Rig::ide(1), &[2], 8, 3);
    local.run(2);
    let s = local.fs_mut().stats();
    assert_eq!(s.cache_hit_blocks + s.miss_blocks, 1_024, "{s:?}");
    let mut nfs = NfsBench::new(Rig::ide(1), WorldConfig::default(), &[2], 8, 3);
    nfs.run(2);
    let c = nfs.world().client_stats_for(0);
    assert_eq!(c.rpcs, 1_024, "each block fetched exactly once: {c:?}");
}

#[test]
fn stride_and_sequential_read_the_same_bytes() {
    let cfg = WorldConfig {
        policy: ReadaheadPolicy::cursor(),
        heur: NfsHeurConfig::improved(),
        ..WorldConfig::default()
    };
    let mut b = StrideBench::new(Rig::scsi(1), cfg, 8, 4);
    let t_stride = b.run(4);
    let t_seq = b.run(1);
    assert!(t_stride > 0.0 && t_seq > 0.0);
    assert!(
        t_seq > t_stride,
        "sequential {t_seq:.2} should still beat stride {t_stride:.2}"
    );
}

#[test]
fn lossy_link_still_completes_via_retransmission() {
    let config = WorldConfig {
        link: LinkProfile {
            frame_loss: 0.01,
            ..LinkProfile::gigabit_lan()
        },
        retransmit_timeout: SimDuration::from_millis(40),
        ..WorldConfig::default()
    };
    let fs = Rig::ide(1).build_fs(6);
    let mut world = NfsWorld::new(config, fs, 6);
    let size = 512 * 1024;
    let fh = world.create_file(size);
    read_whole_file(&mut world, fh, size);
    assert!(
        world.client_stats_for(0).retransmits > 0,
        "loss must trigger retries"
    );
}

#[test]
fn heuristic_layer_consistent_with_world_observations() {
    // The nfsheur hit/miss totals must equal the number of READ calls the
    // server processed (every READ consults the table exactly once).
    let fs = Rig::ide(1).build_fs(7);
    let mut world = NfsWorld::new(WorldConfig::default(), fs, 7);
    let size = 1024 * 1024;
    let fh = world.create_file(size);
    read_whole_file(&mut world, fh, size);
    let h = world.heur().stats();
    let s = world.server_stats();
    assert_eq!(h.hits + h.misses, s.reads);
}

#[test]
fn mixed_workload_across_policies_is_stable() {
    for policy in [ReadaheadPolicy::Default, ReadaheadPolicy::cursor()] {
        let cfg = WorldConfig {
            policy,
            heur: NfsHeurConfig::improved(),
            ..WorldConfig::default()
        };
        let r = nfs_tricks::testbed::run_mixed(
            Rig::ide(1),
            cfg,
            2,
            4,
            100,
            nfs_tricks::testbed::MixRatios::default(),
            8,
        );
        assert!(r.ops_per_sec > 50.0, "{}: {r:?}", policy.label());
    }
}
