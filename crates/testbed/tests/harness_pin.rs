//! Bit pins for every harness that drives an `NfsWorld`: `ClusterBench`
//! (with one host, the paper's §4.2 benchmark over NFS), `StrideBench`,
//! `replay`, `run_mixed` and `MixBench`. All of them run on the one event
//! loop in `testbed`; their `harness_*` values in `pins.txt` were
//! captured from the separate per-harness loops it replaced, so a change
//! to the process model (CPU charge, issue order, arrival ties, reruns on
//! one world) shows here as a moved bit.

use netsim::TransportKind;
use nfssim::WorldConfig;
use nfstrace::synth;
use pins::hex;
use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
use simcore::SimRng;
use testbed::{
    replay, run_mixed, ClientWorkload, ClusterBench, ClusterConfig, MixBench, MixRatios, Rig,
    StrideBench,
};

fn improved(policy: ReadaheadPolicy) -> WorldConfig {
    WorldConfig {
        policy,
        heur: NfsHeurConfig::improved(),
        ..WorldConfig::default()
    }
}

/// Runs each reader count in turn on one one-host bench and pins
/// throughput and sorted completion-time bits as `readers<n>.*`.
fn one_host(suite: &str, config: WorldConfig, readers: &[usize], seed: u64) {
    let cluster = ClusterConfig::uniform(config, 1);
    let mut b = ClusterBench::new(Rig::ide(1), &cluster, readers, 8, seed);
    let mut pinned = Vec::new();
    for &n in readers {
        let r = b.run(n);
        assert_eq!(
            r.clients[0].throughput_mbs.to_bits(),
            r.throughput_mbs.to_bits()
        );
        pinned.push((
            format!("readers{n}.throughput"),
            hex(r.throughput_mbs.to_bits()),
        ));
        for (i, s) in r.clients[0].completion_secs.iter().enumerate() {
            pinned.push((format!("readers{n}.completion.{i}"), hex(s.to_bits())));
        }
    }
    pins::check(suite, pinned);
}

#[test]
fn one_host_cluster_bench_reruns_on_one_world() {
    one_host(
        "harness_one_host_reruns",
        WorldConfig::default(),
        &[1, 2, 4],
        7,
    );
}

#[test]
fn one_host_cluster_bench_over_tcp_with_the_improved_table() {
    let config = WorldConfig {
        transport: TransportKind::Tcp,
        heur: NfsHeurConfig::improved(),
        ..WorldConfig::default()
    };
    one_host("harness_one_host_tcp", config, &[4], 11);
}

#[test]
fn one_host_cluster_bench_across_seeds_and_job_widths() {
    let cells = |jobs| {
        simfleet::set_jobs_override(Some(jobs));
        let bits = simfleet::run_indexed(4, |s| {
            let cluster = ClusterConfig::uniform(WorldConfig::default(), 1);
            ClusterBench::new(Rig::ide(1), &cluster, &[2], 4, 100 + s as u64)
                .run(2)
                .throughput_mbs
                .to_bits()
        });
        simfleet::set_jobs_override(None);
        bits
    };
    let serial = cells(1);
    assert_eq!(serial, cells(4), "jobs=1 and jobs=4 differ");
    let pinned = serial
        .iter()
        .enumerate()
        .map(|(s, &bits)| (format!("seed{}", 100 + s), hex(bits)));
    pins::check("harness_one_host_seeds", pinned);
}

#[test]
fn three_host_cluster_bench() {
    let cluster = ClusterConfig::uniform(WorldConfig::default(), 3);
    let r = ClusterBench::new(Rig::ide(1), &cluster, &[2], 8, 17).run(2);
    let mut pinned = vec![
        ("total".to_string(), hex(r.throughput_mbs.to_bits())),
        ("server".to_string(), format!("{:?}", r.server)),
    ];
    for (i, c) in r.clients.iter().enumerate() {
        pinned.push((format!("host.{i}"), hex(c.throughput_mbs.to_bits())));
    }
    pins::check("harness_three_hosts", pinned);
}

#[test]
fn stride_bench() {
    let mut b = StrideBench::new(Rig::scsi(1), improved(ReadaheadPolicy::cursor()), 32, 11);
    let s4 = b.run(4);
    let rerun_s2 = b.run(2);
    let mut b = StrideBench::new(Rig::ide(1), improved(ReadaheadPolicy::Default), 32, 11);
    let ide_s2 = b.run(2);
    pins::check(
        "harness_stride",
        [
            ("scsi1_cursor.s4", hex(s4.to_bits())),
            ("scsi1_cursor.rerun_s2", hex(rerun_s2.to_bits())),
            ("ide1_default.s2", hex(ide_s2.to_bits())),
        ],
    );
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
    pins::check(
        "harness_replay_noisy_sequential",
        [("result", format!("{r:?}"))],
    );
}

#[test]
fn replay_of_a_multi_file_trace() {
    let trace = noisy_sequential(4, 12, 16);
    let r = replay(Rig::ide(1), improved(ReadaheadPolicy::Default), &trace, 4);
    pins::check("harness_replay_multi_file", [("result", format!("{r:?}"))]);
}

#[test]
fn replay_under_overload() {
    let mut rng = SimRng::new(3);
    let mut trace = synth::random(512, 400, 8_192, &mut rng);
    for r in &mut trace.records {
        r.time_us /= 50;
    }
    let r = replay(Rig::ide(1), improved(ReadaheadPolicy::Default), &trace, 3);
    pins::check("harness_replay_overload", [("result", format!("{r:?}"))]);
}

#[test]
fn mixed_workload() {
    let mut pinned = Vec::new();
    for (name, policy, ops, seed) in [
        ("slowdown_seed3", ReadaheadPolicy::slowdown(), 200, 3),
        ("always_seed4", ReadaheadPolicy::Always, 300, 4),
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
        pinned.push((format!("{name}.ops_per_sec"), hex(r.ops_per_sec.to_bits())));
        pinned.push((format!("{name}.read_mbs"), hex(r.read_mbs.to_bits())));
    }
    pins::check("harness_mixed", pinned);
}

/// Runs one `MixBench` and pins each host's op count and finish time,
/// the elapsed time and the server's books.
fn mix(suite: &str, workloads: &[ClientWorkload], seed: u64) {
    let cluster = ClusterConfig::uniform(WorldConfig::default(), workloads.len());
    let r = MixBench::new(Rig::ide(1), &cluster, workloads, seed).run();
    let mut pinned = vec![
        ("elapsed".to_string(), hex(r.elapsed_secs.to_bits())),
        ("server".to_string(), format!("{:?}", r.server)),
    ];
    for (i, c) in r.clients.iter().enumerate() {
        pinned.push((format!("ops.{i}"), c.ops.to_string()));
        pinned.push((format!("finished.{i}"), hex(c.finished_secs.to_bits())));
    }
    pins::check(suite, pinned);
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
    mix("harness_mix_three_hosts", &workloads, 42);
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
    mix("harness_mix_meta_walk", &workloads, 19);
}

#[test]
fn mix_bench_readdirplus_walk() {
    let workloads = [ClientWorkload::MetaWalk {
        files: 8,
        rounds: 4,
        plus: true,
    }];
    mix("harness_mix_plus_walk", &workloads, 23);
}
