//! Micro-benchmarks of the hot data structures (ns/op of the Rust
//! implementation), distinct from the figure-regeneration binaries, which
//! measure *simulated* time.
//!
//! Hand-rolled harness (no external bench crate, so the workspace builds
//! offline): each case is warmed up, then timed over enough iterations to
//! smooth scheduler noise. Run with `cargo bench -p nfs-bench --bench micro`.
//! Under `cargo test` each case runs once as a smoke test.

use std::hint::black_box;
use std::time::Instant;

use diskmodel::{
    CacheConfig, DiskRequest, DriveModel, PartitionTable, Replacement, SegmentedCache,
};
use ffs::{BufferCache, FileSystem, FsConfig};
use iosched::{IoScheduler, QueuedRequest, SchedulerKind};
use nfs_bench::perf::{BenchResult, PerfReport};
use nfsproto::{FileHandle, NfsCall, NfsProc, NfsReply, NfsStatus};
use readahead_core::{HeurRecord, NfsHeur, NfsHeurConfig, ReadaheadPolicy, SharedCursorPool};
use simcore::{EventQueue, SimRng, SimTime};

/// Times `iters` runs of `f`, prints mean ns/op, and records the result.
fn bench(out: &mut Vec<BenchResult>, name: &str, iters: u64, mut f: impl FnMut()) {
    // Warm-up.
    for _ in 0..iters.min(1_000) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:<40} {ns:>12.1} ns/op   ({iters} iters)");
    out.push(BenchResult {
        name: name.to_string(),
        ns_per_op: ns,
        iters,
        baseline_ns_per_op: None,
    });
}

fn bench_heuristics(out: &mut Vec<BenchResult>, iters: u64) {
    for policy in [
        ReadaheadPolicy::Default,
        ReadaheadPolicy::Always,
        ReadaheadPolicy::slowdown(),
        ReadaheadPolicy::cursor(),
    ] {
        let mut rec = HeurRecord::fresh(0, 0);
        let mut off = 0u64;
        let mut clock = 0u64;
        bench(
            out,
            &format!("heuristic_observe/{}", policy.label()),
            iters,
            || {
                clock += 1;
                // Mostly sequential with a jump every 13 observations.
                off = if clock.is_multiple_of(13) {
                    off + (1 << 20)
                } else {
                    off + 8_192
                };
                black_box(policy.observe(&mut rec, off, 8_192, clock));
            },
        );
    }
}

fn bench_nfsheur(out: &mut Vec<BenchResult>, iters: u64) {
    let p = ReadaheadPolicy::slowdown();
    let mut t = NfsHeur::new(NfsHeurConfig::freebsd_default());
    t.observe(1, 0, 8_192, &p);
    let mut off = 8_192u64;
    bench(out, "nfsheur/hit_default_table", iters, || {
        off += 8_192;
        black_box(t.observe(1, off, 8_192, &p));
    });

    let mut t = NfsHeur::new(NfsHeurConfig::freebsd_default());
    let mut k = 0u64;
    bench(out, "nfsheur/thrash_default_table", iters, || {
        k += 1;
        black_box(t.observe(k % 64, 0, 8_192, &p));
    });

    let mut t = NfsHeur::new(NfsHeurConfig::improved());
    let mut k = 0u64;
    let mut off = 0u64;
    bench(out, "nfsheur/hit_improved_table", iters, || {
        k += 1;
        off += 8_192;
        black_box(t.observe(k % 32, off, 8_192, &p));
    });
}

fn bench_shared_pool(out: &mut Vec<BenchResult>, iters: u64) {
    let mut pool = SharedCursorPool::new(64, 64 * 1024);
    let mut k = 0u64;
    let mut off = 0u64;
    bench(out, "shared_pool_observe", iters, || {
        k += 1;
        off += 8_192;
        black_box(pool.observe(k % 8, off, 8_192));
    });
}

fn bench_schedulers(out: &mut Vec<BenchResult>, iters: u64) {
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::Elevator,
        SchedulerKind::NCscan,
        SchedulerKind::Sstf,
    ] {
        bench(
            out,
            &format!("iosched_enqueue_dispatch/{kind:?}"),
            iters,
            || {
                let mut s = kind.build();
                for i in 0..64u64 {
                    s.enqueue(QueuedRequest {
                        req: DiskRequest::read((i * 7_919) % 1_000_000, 16, i),
                        queued_at: SimTime::ZERO,
                        seq: i,
                    });
                }
                let mut head = 0;
                while let Some(q) = s.dispatch(head) {
                    head = q.req.end();
                    black_box(&q);
                }
            },
        );
    }
}

fn bench_event_queue(out: &mut Vec<BenchResult>, iters: u64) {
    bench(out, "event_queue_schedule_pop_64", iters, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..64u64 {
            q.schedule_at(SimTime::from_nanos((i * 2_654_435_761) % 1_000_000), i);
        }
        let mut acc = 0;
        while let Some((_, e)) = q.pop() {
            acc ^= e;
        }
        black_box(acc);
    });
}

fn bench_xdr(out: &mut Vec<BenchResult>, iters: u64) {
    let fh = FileHandle {
        fsid: 1,
        ino: 42,
        generation: 1,
    };
    let call = NfsCall::Read {
        fh,
        offset: 1 << 20,
        count: 8_192,
    };
    let encoded = call.encode(7);
    bench(out, "xdr_encode_read_call", iters, || {
        black_box(call.encode(black_box(7)));
    });
    bench(out, "xdr_decode_read_call", iters, || {
        black_box(NfsCall::decode(black_box(&encoded)).expect("valid"));
    });
    let reply = NfsReply::Read {
        status: NfsStatus::Ok,
        count: 8_192,
        eof: false,
    };
    let renc = reply.encode(7);
    bench(out, "xdr_decode_read_reply", iters, || {
        black_box(NfsReply::decode(NfsProc::Read, black_box(&renc)).expect("valid"));
    });
}

fn bench_buffer_cache(out: &mut Vec<BenchResult>, iters: u64, server_iters: u64) {
    let mut bc = BufferCache::new(4_096);
    for blk in 0..1_024u64 {
        bc.fill((1, blk));
    }
    let mut blk = 0u64;
    bench(out, "buffer_cache_hit", iters, || {
        blk = (blk + 1) % 1_024;
        black_box(bc.lookup((1, blk)));
    });

    let mut bc = BufferCache::new(256);
    let mut blk = 0u64;
    bench(out, "buffer_cache_evicting_fill", iters, || {
        blk += 1;
        bc.fill((1, blk));
    });

    // The server's cache size (`FsConfig::default`), full before timing,
    // so every timed fill evicts.
    let mut bc = BufferCache::new(20_000);
    let mut blk = 0u64;
    while blk < 20_000 {
        blk += 1;
        bc.fill((1, blk));
    }
    bench(out, "buffer_cache_evicting_fill_20k", server_iters, || {
        blk += 1;
        bc.fill((1, blk));
    });
}

fn bench_drive_cache(out: &mut Vec<BenchResult>, iters: u64) {
    let mut sc = SegmentedCache::new(
        CacheConfig {
            segments: 16,
            segment_sectors: 512,
            replacement: Replacement::Lru,
        },
        SimRng::new(1),
    );
    for s in 0..16u64 {
        sc.insert_after_read(SimTime::ZERO, s * 1_000_000, 128, 70_000.0);
    }
    let mut i = 0u64;
    bench(out, "segmented_cache_lookup", iters, || {
        i += 1;
        black_box(sc.lookup(SimTime::from_nanos(i), (i % 16) * 1_000_000, 16));
    });
}

fn bench_disk_service(out: &mut Vec<BenchResult>, iters: u64) {
    bench(out, "disk_submit_advance_sequential", iters, || {
        let mut d = DriveModel::IbmDdysScsi.build(SimRng::new(3));
        let mut lba = 0;
        for i in 0..32u64 {
            d.submit(SimTime::ZERO, DiskRequest::read(lba, 128, i));
            lba += 128;
        }
        while let Some(t) = d.next_completion() {
            black_box(d.advance(t));
        }
    });
}

fn bench_disk_sptf(out: &mut Vec<BenchResult>, iters: u64) {
    // A full depth-64 tag queue: each op completes one command, which
    // dispatches the next by SPTF over the queued ones, and refills it.
    let mut d = DriveModel::IbmDdysScsi.build(SimRng::new(3));
    let mut rng = SimRng::new(5);
    let span = d.geometry().total_sectors() - 16;
    let mut tag = 0u64;
    while d.can_accept() {
        d.submit(
            SimTime::ZERO,
            DiskRequest::read(rng.gen_range(0..span), 16, tag),
        );
        tag += 1;
    }
    bench(out, "disk_sptf_choose_64", iters, || {
        let t = d.next_completion().expect("queue is full");
        black_box(d.advance(t));
        d.submit(t, DiskRequest::read(rng.gen_range(0..span), 16, tag));
        tag += 1;
    });
}

fn bench_fs_read(out: &mut Vec<BenchResult>, iters: u64) {
    // One cached 8 KB READ of a 16 MB (2,048-block) file and the advance
    // that delivers it: the file system's per-call cost above the cache.
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(11));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let mut fs = FileSystem::format(disk, part, SchedulerKind::Elevator, FsConfig::default());
    let blocks = 2_048u64;
    let ino = fs.create_file(blocks * 8_192, &mut SimRng::new(1));
    fs.read(SimTime::ZERO, ino, 0, blocks * 8_192, 0, 0);
    let mut now = SimTime::ZERO;
    while let Some(t) = fs.next_event() {
        now = t;
        fs.advance(t);
    }
    let mut blk = 0u64;
    bench(out, "fs_read_2048_block_file", iters, || {
        blk = (blk + 1) % blocks;
        fs.read(now, ino, blk * 8_192, 8_192, 0, blk);
        black_box(fs.advance(now));
    });
}

/// Flags understood by this harness (all optional, combinable):
///
/// * `--test`   — one iteration per case (`cargo test` smoke mode);
/// * `--quick`  — 10x fewer iterations (CI perf-smoke mode);
/// * `--json P` — write the measurements to `P` as JSON;
/// * `--baseline P` — copy `ns_per_op` from the report at `P` into this
///   run's output as `baseline_ns_per_op` (before/after provenance);
/// * `--check P` — exit non-zero if any [`GATED_PREFIXES`] case runs
///   more than 3x slower than the report at `P` records, or is recorded
///   there but did not run.
struct Options {
    testing: bool,
    quick: bool,
    json_out: Option<String>,
    baseline: Option<String>,
    check: Option<String>,
}

fn parse_options() -> Options {
    let mut o = Options {
        testing: false,
        quick: false,
        json_out: None,
        baseline: None,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--test" => o.testing = true,
            "--quick" => o.quick = true,
            "--json" => o.json_out = args.next(),
            "--baseline" => o.baseline = args.next(),
            "--check" => o.check = args.next(),
            "--bench" => {} // passed through by `cargo bench`
            other => eprintln!("# ignoring unknown argument: {other}"),
        }
    }
    o
}

fn load_report(path: &str) -> PerfReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read perf report {path}: {e}"));
    PerfReport::parse(&text).unwrap_or_else(|e| panic!("cannot parse perf report {path}: {e}"))
}

/// Hot-path cases gated by `--check`. `buffer_cache_evicting` and
/// `fs_read` fence the server's eviction and per-READ costs: the old
/// whole-map victim scan ran `buffer_cache_evicting_fill_20k` ~320x
/// slower, and a per-READ inode copy ran `fs_read_2048_block_file` ~5x.
const GATED_PREFIXES: &[&str] = &["event_queue", "nfsheur", "buffer_cache_evicting", "fs_read"];
const GATE_FACTOR: f64 = 3.0;

fn main() {
    let o = parse_options();
    let (fast, slow) = if o.testing {
        (1, 1)
    } else if o.quick {
        (20_000, 200)
    } else {
        (200_000, 2_000)
    };
    let mut results = Vec::new();
    let out = &mut results;
    bench_heuristics(out, fast);
    bench_nfsheur(out, fast);
    bench_shared_pool(out, fast);
    bench_schedulers(out, slow);
    bench_event_queue(out, slow);
    bench_xdr(out, fast);
    bench_buffer_cache(out, fast, slow * 10);
    bench_drive_cache(out, fast);
    bench_disk_service(out, slow);
    bench_disk_sptf(out, slow * 10);
    bench_fs_read(out, fast);

    let mut report = PerfReport {
        suite: "micro".to_string(),
        mode: if o.testing {
            "test"
        } else if o.quick {
            "quick"
        } else {
            "full"
        }
        .to_string(),
        benches: results,
    };
    if let Some(path) = &o.baseline {
        let base = load_report(path);
        for b in &mut report.benches {
            b.baseline_ns_per_op = base.get(&b.name).map(|r| r.ns_per_op);
        }
    }
    if let Some(path) = &o.json_out {
        std::fs::write(path, report.to_json()).expect("write perf json");
        eprintln!("# wrote {path}");
    }
    if let Some(path) = &o.check {
        let recorded = load_report(path);
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
