//! Bit pins for every harness that drives an `NfsWorld`: `ClusterBench`
//! (with one host, the paper's §4.2 benchmark over NFS), `StrideBench`,
//! `replay`, `run_mixed` and `MixBench`. All of them run on the one event
//! loop in `testbed`; these constants were captured from the separate
//! per-harness loops it replaced, so a change to the process model (CPU
//! charge, issue order, arrival ties, reruns on one world) shows here as
//! a moved bit.

use netsim::TransportKind;
use nfssim::WorldConfig;
use nfstrace::synth;
use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
use simcore::SimRng;
use testbed::{
    replay, run_mixed, ClientWorkload, ClusterBench, ClusterConfig, MixBench, MixRatios, Rig,
    StrideBench,
};

const DEFAULT_R124: &[(u64, &[u64])] = &[
    (0x40360a008105ddc8, &[0x3fd85c2677f51552]),
    (
        0x4035c4b94995818a,
        &[0x3fd4b2b2fbfc766f, 0x3fd8a9ad0aee233c],
    ),
    (
        0x4031fa1e3f849b9c,
        &[
            0x3fdccd6ee167c20f,
            0x3fdd7e8d766d111d,
            0x3fdda9a115b13996,
            0x3fdddd41924f2b14,
        ],
    ),
];
const TCP_IMPROVED_R4: &[(u64, &[u64])] = &[(
    0x40294c527282d5d2,
    &[
        0x3fe4b3a78a1d24d4,
        0x3fe4e5a110fea254,
        0x3fe525862cb2ef09,
        0x3fe538c5461ac177,
    ],
)];
const SEEDS_100_103_JOBS1: [u64; 4] = [
    0x40355b0a7fec9ad1,
    0x403463f06ca0bdd9,
    0x40341b744e01d1b7,
    0x40337388e2757787,
];
const SEEDS_100_103_JOBS4: [u64; 4] = [
    0x40355b0a7fec9ad1,
    0x403463f06ca0bdd9,
    0x40341b744e01d1b7,
    0x40337388e2757787,
];
const THREE_HOSTS_TOTAL: u64 = 0x4033340cdbecf016;
const THREE_HOSTS_PER_HOST: &[u64] = &[0x4019b559b8732561, 0x40199abbcfe69573, 0x4019ecfab92a1cee];
const THREE_HOSTS_SERVER: &str = "ServerStats { reads: 3072, other_calls: 0, reordered: 17, replies: 3072, duplicates_dropped: 0, stale_drops: 0, orphan_calls: 0, heur_hits: 3066, heur_misses: 6, heur_ejections: 0, heur_occupancy: 6, disk_eios: 0, unstable_writes: 0, commits: 0, gather_flushes: 0, dirty_blocks_stashed: 0, dirty_blocks_flushed: 0, dirty_blocks_lost: 0, restarts: 0, getattrs: 0, lookups: 0, readdirs: 0 }";
const STRIDE_SCSI1_CURSOR_S4: u64 = 0x4027e42d7a6a79a9;
const STRIDE_SCSI1_CURSOR_RERUN_S2: u64 = 0x402840a3c6208e4a;
const STRIDE_IDE1_DEFAULT_S2: u64 = 0x4010da733a986aa8;
const REPLAY_NOISY_SEQUENTIAL: &str = "ReplayResult { ops: 310, mean_ms: 154.00705010322594, p50_ms: 175.9766125, p99_ms: 249.01397863000014, elapsed_secs: 0.287910237, getattr_rpcs: 30, attr_cache_hits: 0, lookup_rpcs: 0, readdir_rpcs: 0 }";
const REPLAY_MULTI_FILE: &str = "ReplayResult { ops: 240, mean_ms: 210.6663437374999, p50_ms: 196.40778749999998, p99_ms: 385.23473559, elapsed_secs: 0.401730999, getattr_rpcs: 22, attr_cache_hits: 0, lookup_rpcs: 0, readdir_rpcs: 0 }";
const REPLAY_OVERLOAD: &str = "ReplayResult { ops: 400, mean_ms: 513.2934340675, p50_ms: 520.919241, p99_ms: 1041.7567553, elapsed_secs: 1.062697807, getattr_rpcs: 0, attr_cache_hits: 0, lookup_rpcs: 0, readdir_rpcs: 0 }";
const MIXED_SLOWDOWN: (u64, u64) = (0x4082a232e87d0375, 0x400a3b12812b0b47);
const MIXED_ALWAYS: (u64, u64) = (0x408666da9979dad0, 0x40103f4a08f694b5);
const MIX_THREE_HOSTS_OPS: &[u64] = &[512, 256, 128];
const MIX_THREE_HOSTS_FINISHED: &[u64] =
    &[0x3fd56bd77445a221, 0x3fedc762be775abc, 0x3fbcfdca1229c599];
const MIX_THREE_HOSTS_ELAPSED: u64 = 0x3fedc762be775abc;
const MIX_THREE_HOSTS_SERVER: &str = "ServerStats { reads: 896, other_calls: 0, reordered: 14, replies: 896, duplicates_dropped: 0, stale_drops: 0, orphan_calls: 0, heur_hits: 891, heur_misses: 5, heur_ejections: 0, heur_occupancy: 5, disk_eios: 0, unstable_writes: 0, commits: 0, gather_flushes: 0, dirty_blocks_stashed: 0, dirty_blocks_flushed: 0, dirty_blocks_lost: 0, restarts: 0, getattrs: 0, lookups: 0, readdirs: 0 }";
const MIX_META_WALK_OPS: &[u64] = &[75, 128];
const MIX_META_WALK_FINISHED: &[u64] = &[0x3fa32939f9e5a377, 0x3fb20f8884da80fc];
const MIX_META_WALK_ELAPSED: u64 = 0x3fb20f8884da80fc;
const MIX_META_WALK_SERVER: &str = "ServerStats { reads: 128, other_calls: 57, reordered: 5, replies: 185, duplicates_dropped: 0, stale_drops: 0, orphan_calls: 0, heur_hits: 127, heur_misses: 1, heur_ejections: 0, heur_occupancy: 1, disk_eios: 0, unstable_writes: 0, commits: 0, gather_flushes: 0, dirty_blocks_stashed: 0, dirty_blocks_flushed: 0, dirty_blocks_lost: 0, restarts: 0, getattrs: 36, lookups: 18, readdirs: 3 }";
const MIX_PLUS_WALK_OPS: &[u64] = &[132];
const MIX_PLUS_WALK_FINISHED: &[u64] = &[0x3fa9e51e9708b473];
const MIX_PLUS_WALK_ELAPSED: u64 = 0x3fa9e51e9708b473;
const MIX_PLUS_WALK_SERVER: &str = "ServerStats { reads: 0, other_calls: 100, reordered: 0, replies: 100, duplicates_dropped: 0, stale_drops: 0, orphan_calls: 0, heur_hits: 0, heur_misses: 0, heur_ejections: 0, heur_occupancy: 0, disk_eios: 0, unstable_writes: 0, commits: 0, gather_flushes: 0, dirty_blocks_stashed: 0, dirty_blocks_flushed: 0, dirty_blocks_lost: 0, restarts: 0, getattrs: 64, lookups: 32, readdirs: 4 }";

fn improved(policy: ReadaheadPolicy) -> WorldConfig {
    WorldConfig {
        policy,
        heur: NfsHeurConfig::improved(),
        ..WorldConfig::default()
    }
}

/// Runs each reader count in turn on one one-host bench and compares
/// throughput and sorted completion-time bits with `pins`.
fn assert_one_host(
    config: WorldConfig,
    readers: &[usize],
    mb: u64,
    seed: u64,
    pins: &[(u64, &[u64])],
) {
    let cluster = ClusterConfig::uniform(config, 1);
    let mut b = ClusterBench::new(Rig::ide(1), &cluster, readers, mb, seed);
    for (&n, &(throughput, completions)) in readers.iter().zip(pins) {
        let r = b.run(n);
        assert_eq!(
            r.throughput_mbs.to_bits(),
            throughput,
            "readers={n} seed={seed}"
        );
        assert_eq!(r.clients[0].throughput_mbs.to_bits(), throughput);
        let bits: Vec<u64> = r.clients[0]
            .completion_secs
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(bits, completions, "readers={n} seed={seed}");
    }
}

#[test]
fn one_host_cluster_bench_reruns_on_one_world() {
    assert_one_host(WorldConfig::default(), &[1, 2, 4], 8, 7, DEFAULT_R124);
}

#[test]
fn one_host_cluster_bench_over_tcp_with_the_improved_table() {
    let config = WorldConfig {
        transport: TransportKind::Tcp,
        heur: NfsHeurConfig::improved(),
        ..WorldConfig::default()
    };
    assert_one_host(config, &[4], 8, 11, TCP_IMPROVED_R4);
}

#[test]
fn one_host_cluster_bench_across_seeds_and_job_widths() {
    for (jobs, pins) in [(1, SEEDS_100_103_JOBS1), (4, SEEDS_100_103_JOBS4)] {
        simfleet::set_jobs_override(Some(jobs));
        let cells = simfleet::run_indexed(4, |s| {
            let cluster = ClusterConfig::uniform(WorldConfig::default(), 1);
            ClusterBench::new(Rig::ide(1), &cluster, &[2], 4, 100 + s as u64)
                .run(2)
                .throughput_mbs
                .to_bits()
        });
        simfleet::set_jobs_override(None);
        assert_eq!(cells, pins, "jobs={jobs}");
    }
}

#[test]
fn three_host_cluster_bench() {
    let cluster = ClusterConfig::uniform(WorldConfig::default(), 3);
    let r = ClusterBench::new(Rig::ide(1), &cluster, &[2], 8, 17).run(2);
    assert_eq!(r.throughput_mbs.to_bits(), THREE_HOSTS_TOTAL);
    let per_host: Vec<u64> = r
        .clients
        .iter()
        .map(|c| c.throughput_mbs.to_bits())
        .collect();
    assert_eq!(per_host, THREE_HOSTS_PER_HOST);
    assert_eq!(format!("{:?}", r.server), THREE_HOSTS_SERVER);
}

#[test]
fn stride_bench() {
    let mut b = StrideBench::new(Rig::scsi(1), improved(ReadaheadPolicy::cursor()), 32, 11);
    assert_eq!(b.run(4).to_bits(), STRIDE_SCSI1_CURSOR_S4);
    assert_eq!(b.run(2).to_bits(), STRIDE_SCSI1_CURSOR_RERUN_S2);
    let mut b = StrideBench::new(Rig::ide(1), improved(ReadaheadPolicy::Default), 32, 11);
    assert_eq!(b.run(2).to_bits(), STRIDE_IDE1_DEFAULT_S2);
}

fn noisy_sequential(seed: u64, files: u32, blocks_per_file: u64) -> nfstrace::Trace {
    let mut rng = SimRng::new(seed);
    let trace = synth::sequential(
        synth::SequentialSpec {
            files,
            blocks_per_file,
            ..synth::SequentialSpec::default()
        },
        &mut rng,
    );
    synth::with_metadata_noise(trace, 0.2, &mut rng)
}

#[test]
fn replay_of_a_noisy_sequential_trace() {
    let trace = noisy_sequential(1, 4, 64);
    let r = replay(
        Rig::ide(1),
        improved(ReadaheadPolicy::slowdown()),
        &trace,
        1,
    );
    assert_eq!(format!("{r:?}"), REPLAY_NOISY_SEQUENTIAL);
}

#[test]
fn replay_of_a_multi_file_trace() {
    let trace = noisy_sequential(4, 12, 16);
    let r = replay(Rig::ide(1), improved(ReadaheadPolicy::Default), &trace, 4);
    assert_eq!(format!("{r:?}"), REPLAY_MULTI_FILE);
}

#[test]
fn replay_under_overload() {
    let mut rng = SimRng::new(3);
    let mut trace = synth::random(512, 400, 8_192, &mut rng);
    for r in &mut trace.records {
        r.time_us /= 50;
    }
    let r = replay(Rig::ide(1), improved(ReadaheadPolicy::Default), &trace, 3);
    assert_eq!(format!("{r:?}"), REPLAY_OVERLOAD);
}

#[test]
fn mixed_workload() {
    for (policy, ops, seed, (ops_per_sec, read_mbs)) in [
        (ReadaheadPolicy::slowdown(), 200, 3, MIXED_SLOWDOWN),
        (ReadaheadPolicy::Always, 300, 4, MIXED_ALWAYS),
    ] {
        let r = run_mixed(
            Rig::ide(1),
            improved(policy),
            4,
            8,
            ops,
            MixRatios::default(),
            seed,
        );
        assert_eq!(r.ops_per_sec.to_bits(), ops_per_sec, "seed {seed}");
        assert_eq!(r.read_mbs.to_bits(), read_mbs, "seed {seed}");
    }
}

fn assert_mix(
    workloads: &[ClientWorkload],
    seed: u64,
    ops: &[u64],
    finished: &[u64],
    elapsed: u64,
    server: &str,
) {
    let cluster = ClusterConfig::uniform(WorldConfig::default(), workloads.len());
    let r = MixBench::new(Rig::ide(1), &cluster, workloads, seed).run();
    let got_ops: Vec<u64> = r.clients.iter().map(|c| c.ops).collect();
    let got_finished: Vec<u64> = r
        .clients
        .iter()
        .map(|c| c.finished_secs.to_bits())
        .collect();
    assert_eq!(got_ops, ops);
    assert_eq!(got_finished, finished);
    assert_eq!(r.elapsed_secs.to_bits(), elapsed);
    assert_eq!(format!("{:?}", r.server), server);
}

#[test]
fn mix_bench_sequential_stride_and_replay_hosts() {
    let mut rng = SimRng::new(41);
    let trace = synth::sequential(
        synth::SequentialSpec {
            files: 2,
            blocks_per_file: 64,
            ..synth::SequentialSpec::default()
        },
        &mut rng,
    );
    let workloads = [
        ClientWorkload::Sequential { readers: 2, mb: 4 },
        ClientWorkload::Stride { s: 4, file_mb: 2 },
        ClientWorkload::Replay(trace),
    ];
    assert_mix(
        &workloads,
        42,
        MIX_THREE_HOSTS_OPS,
        MIX_THREE_HOSTS_FINISHED,
        MIX_THREE_HOSTS_ELAPSED,
        MIX_THREE_HOSTS_SERVER,
    );
}

#[test]
fn mix_bench_meta_walk_beside_a_reader() {
    let workloads = [
        ClientWorkload::MetaWalk {
            files: 6,
            rounds: 3,
            plus: false,
        },
        ClientWorkload::Sequential { readers: 1, mb: 1 },
    ];
    assert_mix(
        &workloads,
        19,
        MIX_META_WALK_OPS,
        MIX_META_WALK_FINISHED,
        MIX_META_WALK_ELAPSED,
        MIX_META_WALK_SERVER,
    );
}

#[test]
fn mix_bench_readdirplus_walk() {
    let workloads = [ClientWorkload::MetaWalk {
        files: 8,
        rounds: 4,
        plus: true,
    }];
    assert_mix(
        &workloads,
        23,
        MIX_PLUS_WALK_OPS,
        MIX_PLUS_WALK_FINISHED,
        MIX_PLUS_WALK_ELAPSED,
        MIX_PLUS_WALK_SERVER,
    );
}
