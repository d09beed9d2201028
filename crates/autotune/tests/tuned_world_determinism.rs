//! The tuned world is deterministic: the controller's decision log (and
//! the world's completion stream under it) is bit-identical run-to-run
//! and at any worker-thread count — jobs=1 ≡ jobs=4. The tuner's
//! decisions are folded into the fingerprint, so a single divergent
//! mutation draw or mis-ordered window would trip this suite.

use autotune::{Controller, Knobs, TuneConfig, WindowedTuner};
use diskmodel::{DeviceModel, PartitionTable, SsdParams};
use ffs::{FileSystem, FsConfig};
use nfssim::{NfsWorld, WorldConfig};
use simcore::{fnv1a, SimRng, SimTime, FNV_BASIS};
use ssd::Ssd;

/// A small, slow SSD: one channel, one die and 400 µs reads make the drive,
/// not the client, set the pace, so the knobs the tuner turns decide when
/// reads complete.
fn small_ssd() -> SsdParams {
    SsdParams {
        channels: 1,
        dies_per_channel: 1,
        page_sectors: 16,
        pages_per_block: 16,
        total_sectors: 64 * 1024, // 32 MB
        overprovision: 0.25,
        read_us: 400.0,
        program_us: 600.0,
        erase_ms: 3.0,
        channel_mb_s: 400.0,
        gc_low_water_blocks: 2,
        gc_jitter_us: 100.0,
        queue_depth: 32,
    }
}

/// Runs a mixed sequential-read workload over an SSD-backed world with
/// the tuner in the loop; returns (world fingerprint, tuner fingerprint,
/// decision count).
fn tuned_trace(seed: u64) -> (u64, u64, usize) {
    let ssd = Ssd::new(small_ssd(), SimRng::new(seed));
    let part = PartitionTable::quarters_of(ssd.total_sectors()).get(1);
    let fs = FileSystem::format_on(
        Box::new(ssd),
        part,
        iosched::SchedulerKind::Elevator,
        FsConfig::default(),
    );
    let mut w = NfsWorld::new(WorldConfig::default(), fs, seed);
    let size = 512 * 1024u64;
    let fhs: Vec<_> = (0..4).map(|_| w.create_file(size)).collect();

    // Short windows so a sub-second simulated run still closes dozens of
    // them and the climber gets real accept/revert traffic.
    let cfg = TuneConfig {
        window: simcore::SimDuration::from_millis(2),
        min_ops: 4,
    };
    let controller = Controller::new(cfg, Knobs::stock(), SimRng::from_seed_and_stream(seed, 0x7));
    let mut tuner = WindowedTuner::new(controller);

    let mut world_fp = FNV_BASIS;
    let mut now = SimTime::ZERO;
    let block = 8_192u64;
    let blocks = size / block;
    // The four streams read at once, each issuing its next block when
    // the last one completes, so read-ahead depth, the scheduler's order
    // and the nfsheur table all shape the completion stream.
    let tag = |i: usize, blk: u64| (i as u64) << 32 | blk;
    for (i, fh) in fhs.iter().enumerate() {
        w.read_from(0, now, *fh, 0, block, tag(i, 0));
    }
    let mut in_flight = fhs.len();
    while in_flight > 0 {
        let t = w.next_event().expect("reads in flight");
        now = now.max(t);
        for d in &w.advance(t) {
            in_flight -= 1;
            tuner.record(d);
            world_fp = fnv1a(world_fp, &d.tag.to_le_bytes());
            world_fp = fnv1a(world_fp, &d.done_at.as_nanos().to_le_bytes());
            let (i, blk) = ((d.tag >> 32) as usize, (d.tag & 0xffff_ffff) + 1);
            if blk < blocks {
                w.read_from(0, now, fhs[i], blk * block, block, tag(i, blk));
                in_flight += 1;
            }
        }
        tuner.poll(now, &mut w);
    }
    (
        world_fp,
        tuner.controller().fingerprint(),
        tuner.controller().decisions().len(),
    )
}

#[test]
fn tuner_changes_knobs_and_stays_deterministic() {
    let (w1, t1, n1) = tuned_trace(42);
    let (w2, t2, _) = tuned_trace(42);
    assert_eq!(w1, w2, "world trace must be seed-deterministic");
    assert_eq!(t1, t2, "decision log must be seed-deterministic");
    assert!(n1 > 4, "the run must close enough windows to tune ({n1})");
    let (w3, t3, _) = tuned_trace(43);
    assert!(w3 != w1 || t3 != t1, "a different seed must move something");
}

/// Pins two seeds' traces. The tests above only compare runs with each
/// other, so only a pin catches a changed tolerance, patience, cooldown,
/// knob bound or tail scale.
#[test]
fn tuned_traces_are_pinned() {
    let mut pinned = Vec::new();
    for seed in [42, 43] {
        let (world, tuner, decisions) = tuned_trace(seed);
        pinned.push((format!("seed{seed}.world"), pins::hex(world)));
        pinned.push((format!("seed{seed}.tuner"), pins::hex(tuner)));
        pinned.push((format!("seed{seed}.decisions"), decisions.to_string()));
    }
    pins::check("autotune_tuned_traces", pinned);
}

#[test]
fn jobs_1_equals_jobs_4() {
    let seeds: Vec<u64> = (0..6).collect();
    simfleet::set_jobs_override(Some(1));
    let serial = simfleet::map_indexed(&seeds, |&s| tuned_trace(s));
    simfleet::set_jobs_override(Some(4));
    let parallel = simfleet::map_indexed(&seeds, |&s| tuned_trace(s));
    simfleet::set_jobs_override(None);
    assert_eq!(serial, parallel, "tuned runs must not see thread count");
}
