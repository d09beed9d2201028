//! Ablations: one design choice of the paper swept at a time.

use diskmodel::{DriveModel, PartitionTable};
use ffs::{FileSystem, FsConfig};
use iosched::SchedulerKind;
use nfsproto::FileHandle;
use nfssim::{NfsWorld, WorldConfig};
use readahead_core::{
    CursorConfig, HeurRecord, NfsHeurConfig, ReadaheadPolicy, SharedCursorPool, SlowDownConfig,
};
use simcore::{SimRng, SimTime};
use testbed::{ClusterBench, ClusterConfig, LocalBench, Rig, StrideBench};

use crate::{Level, BASE_SEED, SCHEDULERS};

/// `ablation_aging`: file-system aging (§3's explicit prediction).
///
/// "We do not attempt to age the file system at all before we run our
/// benchmarks... fresh file systems are one of the worst cases. We are
/// attempting to measure the impact of various read-ahead heuristics, and
/// we believe that read-ahead heuristics increase in importance as file
/// systems age. Therefore, any benefit we see for a fresh file system
/// should be even more pronounced on an aged file system."
///
/// The allocator's aging knob fragments file layouts the way months of
/// create/delete traffic would. This bench tests the paper's prediction:
/// the Always-vs-Default read-ahead gap should widen as aging increases.
pub fn aging(level: Level) {
    let (readers, total_mb) = level.pick((8, 32), (8, 128));
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
        measure(aging, policy, readers, total_mb)
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

fn measure(aging: f64, policy: ReadaheadPolicy, readers: usize, total_mb: u64) -> f64 {
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

/// `ablation_cursors`: cursors per file handle vs stride width.
///
/// §8: "no file handle may have more than a small and constant number of
/// cursors ... access patterns such as those generated by Grid or MPI-like
/// cluster workloads can benefit from an arbitrary number of cursors."
/// Sweeping the limit against stride widths shows the cliff: a stride of
/// `s` needs at least `s` cursors.
pub fn cursors(level: Level) {
    let file_mb = level.pick(32, 256);
    println!("cursor-limit ablation: scsi1, NFS/UDP, {file_mb} MB stride reads");
    println!(
        "{:>12} | {:>8} {:>8} {:>8}",
        "max_cursors", "s=2", "s=4", "s=8"
    );
    let limits = [1usize, 2, 4, 8, 16];
    let strides = [2u64, 4, 8];
    let mut cells = Vec::new();
    for &max_cursors in &limits {
        for &s in &strides {
            cells.push((max_cursors, s));
        }
    }
    let mbs = simfleet::map_indexed(&cells, |&(max_cursors, s)| {
        let cfg = WorldConfig {
            policy: ReadaheadPolicy::Cursor(CursorConfig {
                max_cursors,
                ..CursorConfig::default()
            }),
            heur: NfsHeurConfig::improved(),
            ..WorldConfig::default()
        };
        let mut b = StrideBench::new(Rig::scsi(1), cfg, file_mb, BASE_SEED);
        b.run(s)
    });
    for (li, &max_cursors) in limits.iter().enumerate() {
        print!("{max_cursors:>12} |");
        for si in 0..strides.len() {
            print!(" {:>8.2}", mbs[li * strides.len() + si]);
        }
        println!();
    }
}

/// `ablation_nfsheur`: nfsheur table geometry (slots x probes).
///
/// DESIGN.md calls out the table geometry as the paper's highest-leverage
/// change; this sweep shows throughput at 16 concurrent readers as the
/// table grows, with the Default heuristic held fixed.
pub fn nfsheur(level: Level) {
    let readers = 16;
    let total_mb = level.pick(32, 256);
    println!("nfsheur geometry ablation: ide1, NFS/UDP, {readers} readers, Default heuristic");
    println!(
        "{:>7} {:>7} | {:>12} | {:>10}",
        "slots", "probes", "MB/s", "ejections"
    );
    let mut cells = Vec::new();
    for slots in [8usize, 16, 64, 256, 1024] {
        for probes in [1usize, 2, 4, 8] {
            if probes > slots {
                continue;
            }
            cells.push((slots, probes));
        }
    }
    let rows = simfleet::map_indexed(&cells, |&(slots, probes)| {
        let cfg = WorldConfig {
            heur: NfsHeurConfig { slots, probes },
            ..WorldConfig::default()
        };
        let cluster = ClusterConfig::uniform(cfg, 1);
        let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[readers], total_mb, BASE_SEED);
        let r = b.run(readers);
        (r.throughput_mbs, b.world().heur().stats().ejections)
    });
    for (&(slots, probes), &(mbs, ej)) in cells.iter().zip(&rows) {
        println!("{slots:>7} {probes:>7} | {mbs:>12.2} | {ej:>10}");
    }
}

/// `ablation_schedulers`: kernel disk scheduler matrix (local benchmark).
///
/// §5.3 laments that operating systems do not let administrators pick a
/// scheduler per workload. Here the full matrix: throughput and fairness
/// (last/first completion ratio) for 8 concurrent readers on each rig.
pub fn schedulers(level: Level) {
    let per_mb = level.pick(4, 32);
    let readers = 8;
    println!("scheduler matrix: local, {readers} readers x {per_mb} MB");
    println!(
        "{:<22} {:<10} | {:>10} | {:>14}",
        "rig", "scheduler", "MB/s", "last/first"
    );
    // Every (rig, scheduler) cell is an independent run: fan them through
    // the simfleet pool and print in the original serial order.
    let mut cells = Vec::new();
    for rig_base in [Rig::ide(1), Rig::scsi(1).no_tags(), Rig::scsi(1)] {
        for kind in SCHEDULERS {
            cells.push((rig_base, kind));
        }
    }
    let rows = simfleet::map_indexed(&cells, |(rig_base, kind)| {
        let rig = rig_base.with_scheduler(*kind);
        let mut b = LocalBench::new(rig, &[readers], per_mb * readers as u64, BASE_SEED);
        let r = b.run(readers);
        let spread = r.completion_secs[readers - 1] / r.completion_secs[0];
        let label = if rig_base.tagged_queues {
            format!("{} (tags)", rig.label())
        } else {
            rig.label()
        };
        (label, r.throughput_mbs, spread)
    });
    for ((_, kind), (label, mbs, spread)) in cells.iter().zip(&rows) {
        println!(
            "{:<22} {:<10} | {:>10.2} | {:>14.2}",
            label,
            format!("{kind:?}"),
            mbs,
            spread
        );
    }
}

/// `ablation_shared_pool`: shared cursor pool vs per-handle cursors (§8 future work).
///
/// A synthetic head-to-head on the heuristic layer itself: `H` file
/// handles each read an `s`-stride pattern; the per-handle scheme reserves
/// `max_cursors` per handle while the shared pool holds a single global
/// budget. The score is the fraction of observations that earned
/// read-ahead (effective seqcount >= 2).
pub fn shared_pool(_: Level) {
    println!("shared cursor pool vs per-handle cursors (synthetic stride streams)");
    println!(
        "{:>8} {:>8} {:>8} | {:>14} | {:>14} | {:>12}",
        "handles", "stride", "budget", "per-handle %", "shared-pool %", "pool size"
    );
    // (active handles, stride width, total handles sized for). The last
    // scenarios are the Section 8 motivation: one MPI-like job with a wide
    // stride on a server sized for 16 handles - the per-handle cap (8)
    // cannot follow 16 subcomponents, the shared pool can because the other
    // handles are idle.
    let scenarios = [
        (4u64, 2u64, 4u64),
        (4, 8, 4),
        (8, 8, 8),
        (16, 4, 16),
        (1, 16, 16),
        (2, 12, 16),
    ];
    let rows = simfleet::map_indexed(&scenarios, |&(handles, s, sized_for)| {
        // Equal total memory: per-handle reserves 8 cursors per handle.
        let per_handle_cfg = CursorConfig::default(); // 8 cursors each
        let budget = sized_for as usize * per_handle_cfg.max_cursors;
        let policy = ReadaheadPolicy::Cursor(per_handle_cfg);
        let mut records: Vec<HeurRecord> = (0..handles).map(|_| HeurRecord::fresh(0, 0)).collect();
        let mut pool = SharedCursorPool::new(budget, 64 * 1024);
        let per = 64;
        let offsets = stride_offsets(s, per);
        let (mut ph_hits, mut sp_hits, mut total) = (0u64, 0u64, 0u64);
        let mut clock = 0;
        for &off in &offsets {
            for h in 0..handles {
                clock += 1;
                total += 1;
                if policy.observe(&mut records[h as usize], off, BLK, clock) >= 2 {
                    ph_hits += 1;
                }
                if pool.observe(h, off, BLK) >= 2 {
                    sp_hits += 1;
                }
            }
        }
        (budget, ph_hits, sp_hits, total, pool.live())
    });
    for (&(handles, s, _), &(budget, ph_hits, sp_hits, total, live)) in scenarios.iter().zip(&rows)
    {
        println!(
            "{:>8} {:>8} {:>8} | {:>14.1} | {:>14.1} | {:>12}",
            handles,
            s,
            budget,
            100.0 * ph_hits as f64 / total as f64,
            100.0 * sp_hits as f64 / total as f64,
            live
        );
    }
}

const BLK: u64 = 8_192;

fn stride_offsets(s: u64, per: u64) -> Vec<u64> {
    let mut v = Vec::new();
    for i in 0..per {
        for k in 0..s {
            v.push((k * 1_000_000 + i) * BLK);
        }
    }
    v
}

/// `ablation_slowdown_window`: the SlowDown jitter window.
///
/// The paper fixes the window at 64 KB ("eight 8k NFS blocks"). Too small
/// and reordered requests still halve the count; too large and genuinely
/// random patterns keep their read-ahead. This sweep measures both sides:
/// sequential throughput under a busy client, and wasted read-ahead I/O on
/// a random workload.
pub fn slowdown_window(level: Level) {
    let readers = 16;
    let total_mb = level.pick(32, 256);
    println!("SlowDown window ablation: ide1, NFS/UDP, busy client, {readers} readers");
    println!("{:>12} | {:>12}", "window", "MB/s");
    let windows = [8u64, 16, 32, 64, 128, 256];
    let mbs = simfleet::map_indexed(&windows, |&window_kb| {
        let cfg = WorldConfig {
            policy: ReadaheadPolicy::SlowDown(SlowDownConfig {
                window_bytes: window_kb * 1024,
            }),
            heur: NfsHeurConfig::improved(),
            busy_loops: 4,
            ..WorldConfig::default()
        };
        let cluster = ClusterConfig::uniform(cfg, 1);
        let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[readers], total_mb, BASE_SEED);
        b.run(readers).throughput_mbs
    });
    for (&window_kb, &m) in windows.iter().zip(&mbs) {
        println!("{window_kb:>10}KB | {m:>12.2}");
    }
}
