//! End-to-end benchmarks: how fast the *simulator* runs.
//!
//! Wall-clock cost of simulating small instances of the paper's workloads;
//! useful for catching performance regressions in the event loop, the disk
//! model, or the NFS pipeline. (The figures themselves report *simulated*
//! throughput and live in the `fig*` binaries.)
//!
//! Hand-rolled harness (no external bench crate, so the workspace builds
//! offline). Run with `cargo bench -p nfs-bench --bench end_to_end`.
//! Flags: `--test` (one iteration), `--quick` (fewer iterations),
//! `--json PATH` (machine-readable report), `--baseline PATH` (attach
//! recorded numbers as `baseline_ns_per_op`), `--check PATH` (exit
//! non-zero if any case runs more than 3x slower than the report at
//! `PATH` — the CI fence for the simulator's own speed, `BENCH_e2e.json`
//! at the repo root).

use std::hint::black_box;
use std::time::Instant;

use nfs_bench::perf::{BenchResult, PerfReport};
use nfscluster::{ClusterBench, ClusterConfig, FleetConfig, FleetReport, FleetWorld};
use nfssim::WorldConfig;
use readahead_core::{NfsHeurConfig, ReadaheadPolicy};
use simtest::{Spec, Workload};
use testbed::{LocalBench, NfsBench, Rig, StrideBench};

fn bench(out: &mut Vec<BenchResult>, name: &str, iters: u64, mut f: impl FnMut()) {
    f(); // Warm-up.
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let ms = elapsed.as_secs_f64() * 1e3 / iters as f64;
    println!("{name:<32} {ms:>10.2} ms/run   ({iters} iters)");
    out.push(BenchResult {
        name: name.to_string(),
        ns_per_op: elapsed.as_nanos() as f64 / iters as f64,
        iters,
        baseline_ns_per_op: None,
    });
}

/// Every e2e case is gated by `--check`; the simulator has no cold paths
/// worth exempting here.
const GATED_PREFIXES: &[&str] = &[
    "simulate", "cluster", "degraded", "ssd", "autotune", "metadata", "attr",
];
const GATE_FACTOR: f64 = 3.0;

fn main() {
    let mut testing = false;
    let mut quick = false;
    let mut json_out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--test" => testing = true,
            "--quick" => quick = true,
            "--json" => json_out = args.next(),
            "--baseline" => baseline = args.next(),
            "--check" => check = args.next(),
            "--bench" => {}
            other => eprintln!("# ignoring unknown argument: {other}"),
        }
    }
    let iters = if testing {
        1
    } else if quick {
        3
    } else {
        10
    };

    let mut results = Vec::new();
    let out = &mut results;

    bench(out, "simulate_local/ide1_4_readers_8mb", iters, || {
        let mut b = LocalBench::new(Rig::ide(1), &[4], 8, 1);
        black_box(b.run(4).throughput_mbs);
    });

    bench(out, "simulate_nfs/udp_4_readers_8mb", iters, || {
        let mut b = NfsBench::new(Rig::ide(1), WorldConfig::default(), &[4], 8, 1);
        black_box(b.run(4).throughput_mbs);
    });

    let cfg = WorldConfig {
        policy: ReadaheadPolicy::cursor(),
        heur: NfsHeurConfig::improved(),
        ..WorldConfig::default()
    };
    bench(out, "simulate_stride/cursor_s4_8mb", iters, || {
        let mut b = StrideBench::new(Rig::scsi(1), cfg, 8, 1);
        black_box(b.run(4));
    });

    // The multi-client cluster: 8 hosts x 2 readers against one server,
    // on the stock table (heavy nfsheur thrash, the slow path through
    // ejection accounting) and the enlarged table (the clean path).
    for (name, heur) in [
        (
            "cluster_contention/stock_8_clients",
            NfsHeurConfig::freebsd_default(),
        ),
        (
            "cluster_contention/improved_8_clients",
            NfsHeurConfig::improved(),
        ),
    ] {
        let config = WorldConfig {
            heur,
            ..WorldConfig::default()
        };
        let cluster = ClusterConfig::uniform(config, 8);
        bench(out, name, iters, || {
            let mut b = ClusterBench::new(Rig::ide(1), &cluster, &[2], 4, 1);
            black_box(b.run(2).throughput_mbs);
        });
    }

    // Degraded-disk end-to-end: the full simtest fault schedule with the
    // four disk kinds shuffled in (sector errors, stuck tag, firmware
    // stall, fail-slow), oracles included — the cost of simulating a
    // cluster whose drive is partly broken. Seed 0 drives reads into a
    // defect cluster (one surfaced EIO), so the bio retry path and the
    // error propagation stack are on the measured path.
    bench(out, "degraded_simtest/disk_faults_seed0", iters, || {
        let spec = Spec {
            disk_faults: true,
            ..Spec::new(0)
        };
        black_box(spec.run().expect("oracles hold"));
    });

    bench(
        out,
        "degraded_cluster/overlap_2_clients_seed1",
        iters,
        || {
            let spec = Spec {
                clients: 2,
                overlap: true,
                disk_faults: true,
                ..Spec::new(1)
            };
            black_box(spec.run().expect("oracles hold"));
        },
    );

    // Crash-consistency end-to-end: the UNSTABLE-write workload with the
    // nfsd-outage batch turned into a mid-gather server crash — the cost
    // of simulating write-behind, gathering, the verifier-mismatch rewrite
    // loop, and the write-loss oracle set on top of the fault schedule.
    bench(out, "degraded_writeloss/crash_seed0", iters, || {
        let spec = Spec {
            workload: Workload::WriteLoss,
            ..Spec::new(0)
        };
        black_box(spec.run().expect("oracles hold"));
    });

    // Forced-TCP end-to-end: the full fault schedule (including the
    // TCP-only total-blackout window) against the timed segment engine —
    // the cost of simulating RTO backoff ladders, per-segment timers, and
    // blackout abort/recovery with all oracles on.
    bench(out, "degraded_tcp/tcp_blackout_seed0", iters, || {
        let spec = Spec {
            transport: Some(netsim::TransportKind::Tcp),
            ..Spec::new(0)
        };
        black_box(spec.run().expect("oracles hold"));
    });

    // Metadata end-to-end: the build-tree walk replayed through the full
    // installation with the attribute cache armed — the cost of the
    // READDIR/LOOKUP/GETATTR pipeline plus the cache's hit/revalidation
    // bookkeeping on the hot path.
    {
        use nfstrace::tree::{build_tree, tree_walk, BuildSpec};
        let spec = BuildSpec {
            depth: 2,
            dirs_per_dir: 3,
            files_per_dir: 4,
            clients: 8,
            inter_arrival_us: 4_000.0,
            ..BuildSpec::default()
        };
        let mut rng = simcore::SimRng::new(1);
        let tree = build_tree(&spec, &mut rng);
        let walk = tree_walk(&tree, &spec, &mut rng);
        let cfg = WorldConfig {
            attr_timeo_min: simcore::SimDuration::from_secs(3),
            attr_timeo_max: simcore::SimDuration::from_secs(60),
            ..WorldConfig::default()
        };
        bench(out, "metadata_walk/8_walkers_armed_cache", iters, || {
            let r = testbed::replay(Rig::ide(1), cfg, &walk, 1);
            assert!(r.attr_cache_hits > 0, "the armed cache must fire");
            black_box(r.ops);
        });
    }

    // The simtest meta-storm mode end-to-end: the full fault schedule
    // under the metadata-heavy workload with the attribute cache armed —
    // the cost of the storm mix plus the attrcache-books oracle set.
    bench(out, "attr_storm/simtest_seed0", iters, || {
        let spec = Spec {
            workload: Workload::MetaStorm,
            ..Spec::new(0)
        };
        black_box(spec.run().expect("oracles hold"));
    });

    // SSD end-to-end: the same NFS pipeline with the flash backend
    // underneath — the cost of the channel/die completion math on the
    // hot path.
    bench(out, "ssd_seq_read/tlc_4_readers_8mb", iters, || {
        let mut b = NfsBench::new(Rig::ssd(1), WorldConfig::default(), &[4], 8, 1);
        black_box(b.run(4).throughput_mbs);
    });

    // GC interference at the device layer: overwrite a small drive's LBA
    // space until the FTL runs out of free blocks and garbage-collects,
    // then read through the pause windows — the cost of the GC victim
    // scan and wait attribution.
    bench(out, "ssd_gc_interference/overwrite_8mb", iters, || {
        use diskmodel::{DeviceModel, DiskRequest, SsdParams};
        let params = SsdParams {
            channels: 2,
            dies_per_channel: 2,
            page_sectors: 16,
            pages_per_block: 16,
            total_sectors: 16 * 1024, // 8 MB
            overprovision: 0.25,
            read_us: 60.0,
            program_us: 600.0,
            erase_ms: 3.0,
            channel_mb_s: 400.0,
            gc_low_water_blocks: 2,
            gc_jitter_us: 100.0,
            queue_depth: 32,
        };
        let mut d = ssd::Ssd::new(params, simcore::SimRng::new(1));
        let mut now = simcore::SimTime::ZERO;
        let mut drive = |d: &mut ssd::Ssd, req: DiskRequest| {
            d.submit(now, req);
            while let Some(t) = d.next_completion() {
                now = t;
                black_box(d.advance(t));
            }
        };
        for pass in 0..3u64 {
            for lba in (0..params.total_sectors).step_by(16) {
                drive(&mut d, DiskRequest::write(lba, 16, pass << 32 | lba));
            }
        }
        for lba in (0..params.total_sectors).step_by(16) {
            drive(&mut d, DiskRequest::read(lba, 16, lba));
        }
        assert!(
            d.stats().gc_runs > 0,
            "the overwrite passes must trigger GC"
        );
    });

    // The online tuner in the loop: an SSD-backed world driven with the
    // hill-climber closing 2 ms windows — the cost of histogram windowing,
    // scoring, and knob re-actuation on top of the pipeline.
    bench(out, "autotune_converge/ssd_4_streams", iters, || {
        use autotune::{Controller, Knobs, TuneConfig, WindowedTuner};
        use diskmodel::{DeviceModel, PartitionTable, SsdParams};
        use ffs::{FileSystem, FsConfig};
        use nfssim::NfsWorld;
        use simcore::{SimDuration, SimRng, SimTime};
        let params = SsdParams {
            channels: 2,
            dies_per_channel: 2,
            page_sectors: 16,
            pages_per_block: 16,
            total_sectors: 64 * 1024, // 32 MB
            overprovision: 0.25,
            read_us: 60.0,
            program_us: 600.0,
            erase_ms: 3.0,
            channel_mb_s: 400.0,
            gc_low_water_blocks: 2,
            gc_jitter_us: 100.0,
            queue_depth: 32,
        };
        let drive = ssd::Ssd::new(params, SimRng::new(1));
        let part = PartitionTable::quarters_of(drive.total_sectors()).get(1);
        let fs = FileSystem::format_on(
            Box::new(drive),
            part,
            iosched::SchedulerKind::Elevator,
            FsConfig::default(),
        );
        let mut w = NfsWorld::new(WorldConfig::default(), fs, 1);
        let size = 512 * 1024u64;
        let fhs: Vec<_> = (0..4).map(|_| w.create_file(size)).collect();
        let cfg = TuneConfig {
            window: SimDuration::from_millis(2),
            min_ops: 4,
            ..TuneConfig::default()
        };
        let mut tuner = WindowedTuner::new(Controller::new(
            cfg,
            Knobs::stock(),
            SimRng::from_seed_and_stream(1, 0x7),
        ));
        let mut now = SimTime::ZERO;
        let block = 8_192u64;
        for blk in 0..(size / block) {
            for (i, fh) in fhs.iter().enumerate() {
                w.read_from(0, now, *fh, blk * block, block, (i as u64) << 32 | blk);
                while let Some(t) = w.next_event() {
                    let done = w.advance(t);
                    now = now.max(t);
                    for d in &done {
                        tuner.record(d);
                    }
                    tuner.poll(now, &mut w);
                    if !done.is_empty() {
                        break;
                    }
                }
            }
        }
        assert!(
            tuner.controller().decisions().len() > 4,
            "the tuner must close enough windows to converge"
        );
        black_box(tuner.controller().fingerprint());
    });

    // Fleet scale: the sharded world at real client counts. One
    // iteration per case — a 100k-client fleet is seconds of wall clock,
    // and the case exists to catch regressions in the SoA arena, the
    // barrier engine, and the streaming histograms, not micro-noise.
    // Test mode proves the path on a tiny fleet; quick mode (the CI
    // smoke) runs 10k; full mode records 10k and the headline 100k.
    let scale_cases: &[(&str, usize)] = if testing {
        &[("cluster_scale/1k_clients", 1_000)]
    } else if quick {
        &[("cluster_scale/10k_clients", 10_000)]
    } else {
        &[
            ("cluster_scale/10k_clients", 10_000),
            ("cluster_scale/100k_clients", 100_000),
        ]
    };
    for &(name, clients) in scale_cases {
        let cfg = FleetConfig::scale(clients);
        let mut last: Option<FleetReport> = None;
        bench(out, name, 1, || {
            let r = FleetWorld::new(&cfg, 1).run();
            assert!(r.shard_stats.completed, "fleet must quiesce");
            black_box(r.fingerprint);
            last = Some(r);
        });
        let r = last.expect("bench ran");
        println!(
            "#   {clients} clients: p50={:.2} ms  p99={:.2} ms  p99.9={:.2} ms  \
             {} B/client (full host: {} B, {:.0}x)  migrations={}",
            r.latency_ms(0.50).unwrap_or(0.0),
            r.latency_ms(0.99).unwrap_or(0.0),
            r.latency_ms(0.999).unwrap_or(0.0),
            r.mem.per_client_bytes,
            r.mem.full_host_bytes,
            r.mem.reduction,
            r.migrations,
        );
    }

    let mut report = PerfReport {
        suite: "e2e".to_string(),
        mode: if testing {
            "test"
        } else if quick {
            "quick"
        } else {
            "full"
        }
        .to_string(),
        benches: results,
    };
    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path).expect("read baseline report");
        let base = PerfReport::parse(&text).expect("parse baseline report");
        for b in &mut report.benches {
            b.baseline_ns_per_op = base.get(&b.name).map(|r| r.ns_per_op);
        }
    }
    if let Some(path) = &json_out {
        std::fs::write(path, report.to_json()).expect("write perf json");
        eprintln!("# wrote {path}");
    }
    if let Some(path) = &check {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read perf report {path}: {e}"));
        let recorded = PerfReport::parse(&text)
            .unwrap_or_else(|e| panic!("cannot parse perf report {path}: {e}"));
        let violations = report.regressions_vs(&recorded, GATED_PREFIXES, GATE_FACTOR);
        if violations.is_empty() {
            eprintln!("# perf gate ok vs {path} (prefixes {GATED_PREFIXES:?}, {GATE_FACTOR}x)");
        } else {
            for v in &violations {
                eprintln!("PERF REGRESSION: {v}");
            }
            std::process::exit(1);
        }
    }
}
