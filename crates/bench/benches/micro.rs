//! Micro-benchmarks of the hot data structures (ns/op of the Rust
//! implementation), distinct from the figure-regeneration binaries, which
//! measure *simulated* time.
//!
//! Hand-rolled harness (no external bench crate, so the workspace builds
//! offline): each case is warmed up, then timed over enough iterations to
//! smooth scheduler noise. Run with `cargo bench -p nfs-bench --bench micro`.
//! Without the `--bench` flag that `cargo bench` passes (so under
//! `cargo test`) each case runs once as a smoke test.

use std::hint::black_box;
use std::time::Instant;

use diskmodel::{
    CacheConfig, DiskRequest, DriveModel, PartitionTable, Replacement, SegmentedCache,
};
use ffs::{BufferCache, FileSystem, FsConfig};
use iosched::{IoScheduler, QueuedRequest, SchedulerKind};
use nfs_bench::perf::{BenchResult, PerfReport};
use nfsproto::{Fattr3, FileHandle, NfsCall, NfsProc, NfsReply, NfsStatus, StableHow};
use nfssim::{ClientHostConfig, NfsWorld, WorldConfig};
use readahead_core::{HeurRecord, NfsHeur, NfsHeurConfig, ReadaheadPolicy, SharedCursorPool};
use simcore::{EventQueue, SimDuration, SimRng, SimTime};
use simfleet::{run_sharded, ShardWorld};

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
    // UDP's shape: every short event (a send) arms an 800 ms retransmit
    // check that will fire as a no-op. Four short events are in flight,
    // each re-armed 10-15 ms out, so about 256 timers stay resident in
    // the lane while the heap holds only the short events. One op is 64
    // pops, half short events and half expiring timers.
    const TIMER: u64 = u64::MAX;
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..4u64 {
        q.schedule_at(SimTime::from_nanos(i * 3_125_000), i);
    }
    let mut n = 0u64;
    bench(out, "event_queue_timer_lane_256", iters, || {
        for _ in 0..64 {
            let (now, e) = q.pop().expect("short events never run out");
            if e != TIMER {
                n += 1;
                let delay = 10_000_000 + n * 2_654_435_761 % 5_000_000;
                q.schedule_at(now + SimDuration::from_nanos(delay), n);
                q.schedule_in_lane(0, now + SimDuration::from_millis(800), TIMER);
            }
        }
        black_box(q.len());
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
        attrs: Some(Fattr3 {
            is_dir: false,
            size: 1 << 30,
            fileid: fh.ino,
            fsid: u64::from(fh.fsid),
        }),
        count: 8_192,
        eof: false,
    };
    let renc = reply.encode(7);
    bench(out, "xdr_decode_read_reply", iters, || {
        black_box(NfsReply::decode(NfsProc::Read, black_box(&renc)).expect("valid"));
    });
}

fn bench_buffer_cache(out: &mut Vec<BenchResult>, iters: u64, evict_iters: u64) {
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
    bench(out, "buffer_cache_evicting_fill", evict_iters, || {
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
    bench(out, "buffer_cache_evicting_fill_20k", evict_iters, || {
        blk += 1;
        bc.fill((1, blk));
    });

    // `read_stream`'s shape: 16 sequential readers of 2,048-block files
    // through the server's cache, full before timing. Each op marks the
    // next block of one reader pending (evicting the oldest), fills it and
    // reads it.
    let mut bc = BufferCache::new(20_000);
    let mut next = [0u64; 16];
    let mut reader = 0;
    let mut churn = || {
        let key = (reader as u64 + 1, next[reader]);
        bc.mark_pending(key, 0);
        bc.fill(key);
        black_box(bc.lookup(key));
        next[reader] = (next[reader] + 1) % 2_048;
        reader = (reader + 1) % next.len();
    };
    for _ in 0..20_000 {
        churn();
    }
    bench(
        out,
        "buffer_cache_evicting_churn_16_files",
        evict_iters,
        churn,
    );
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

/// A group with no work but its epoch budget: a run costs only the shard
/// runner's per-epoch overhead.
struct IdleGroup {
    epochs_left: u64,
}

impl ShardWorld for IdleGroup {
    type Msg = ();
    fn step(&mut self, _epoch: u64, _inbox: Vec<()>) -> Vec<(usize, ())> {
        self.epochs_left -= 1;
        Vec::new()
    }
    fn idle(&self) -> bool {
        self.epochs_left == 0
    }
}

fn bench_shard_epochs(out: &mut Vec<BenchResult>, iters: u64) {
    // One op is a whole run: 32 no-op groups for 1,000 epochs at width 2,
    // so the runner's barrier (or thread spawn) cost per epoch dominates.
    simfleet::set_shards_override(Some(2));
    bench(out, "shard_epochs_32_groups", iters, || {
        let mut groups: Vec<IdleGroup> =
            (0..32).map(|_| IdleGroup { epochs_left: 1_000 }).collect();
        black_box(run_sharded(&mut groups, u64::MAX));
    });
    simfleet::set_shards_override(None);
}

fn bench_fs_read(out: &mut Vec<BenchResult>, iters: u64) {
    // One cached 8 KB READ of a 16 MB (2,048-block) file and the advance
    // that delivers it: the file system's per-call cost above the cache.
    // The aged file (half its runs displaced, so ~130 runs in its block
    // map) must cost the same per call as the one-run fresh file.
    fs_read_case(out, "fs_read_2048_block_file", 0.0, iters);
    fs_read_case(out, "fs_read_aged_2048_block_file", 0.5, iters);
    fs_read_cold_case(out, iters);
}

/// A sequential 8 KB pass over an uncached aged 2,048-block file, each
/// read advanced through bio and the drive until it completes (which
/// costs simulated time only), with the caches flushed between passes so
/// that every pass is cold. This times the miss path the cached cases
/// skip: `cluster_run`, `lba_of`/`run_end`, issuing I/O, read-ahead, and
/// reads joining I/O in flight.
fn fs_read_cold_case(out: &mut Vec<BenchResult>, iters: u64) {
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(11));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let config = FsConfig {
        aging: 0.5,
        ..FsConfig::default()
    };
    let mut fs = FileSystem::format(disk, part, SchedulerKind::Elevator, config);
    let blocks = 2_048u64;
    let ino = fs
        .create_file(blocks * 8_192, &mut SimRng::new(1))
        .expect("the partition holds every file");
    let (mut now, mut blk, mut seqcount) = (SimTime::ZERO, 0u64, 1u32);
    let mut done = Vec::new();
    bench(out, "fs_read_cold_aged_2048_block_file", iters, || {
        if blk == blocks {
            // Let read-ahead past the end land, then start a cold pass.
            while let Some(t) = fs.next_event() {
                now = now.max(t);
                fs.advance_into(t, &mut done);
            }
            fs.flush_caches();
            (blk, seqcount) = (0, 1);
        }
        fs.read(now, ino, blk * 8_192, 8_192, seqcount, blk);
        done.clear();
        while done.is_empty() {
            let t = fs.next_event().expect("the read completes");
            now = now.max(t);
            fs.advance_into(t, &mut done);
        }
        black_box(&done);
        blk += 1;
        seqcount = (seqcount + 1).min(ffs::SEQCOUNT_MAX);
    });
}

fn fs_read_case(out: &mut Vec<BenchResult>, name: &str, aging: f64, iters: u64) {
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(11));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let config = FsConfig {
        aging,
        ..FsConfig::default()
    };
    let mut fs = FileSystem::format(disk, part, SchedulerKind::Elevator, config);
    let blocks = 2_048u64;
    let ino = fs
        .create_file(blocks * 8_192, &mut SimRng::new(1))
        .expect("the partition holds every file");
    fs.read(SimTime::ZERO, ino, 0, blocks * 8_192, 0, 0);
    let mut now = SimTime::ZERO;
    while let Some(t) = fs.next_event() {
        now = t;
        fs.advance(t);
    }
    let mut blk = 0u64;
    bench(out, name, iters, || {
        blk = (blk + 1) % blocks;
        fs.read(now, ino, blk * 8_192, 8_192, 0, blk);
        black_box(fs.advance(now));
    });
}

fn bench_world_step(out: &mut Vec<BenchResult>, iters: u64) {
    // One step of the simulator's event loop (`next_event`, then
    // `advance_into`, then reissuing each finished read) in a
    // `read_stream`-shaped world: one UDP client, 16 closed-loop
    // sequential 8 KB readers over 256 MB, more than the 20,000-block
    // server cache and the 4,096-block client cache, so both keep
    // evicting. Readers wrap to offset 0 at the end of their file, so
    // the loop never drains.
    const READERS: usize = 16;
    const PER_READER: u64 = 16 * 1024 * 1024;
    const READ: u64 = 8_192;
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(3));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let fs = FileSystem::format(disk, part, SchedulerKind::Elevator, FsConfig::default());
    let config = WorldConfig {
        client_cache_blocks: 4_096,
        ..WorldConfig::default()
    };
    let mut world = NfsWorld::new(config, fs, 3);
    let fhs: Vec<FileHandle> = (0..READERS)
        .map(|_| world.create_file(PER_READER))
        .collect();
    for (i, &fh) in fhs.iter().enumerate() {
        world.read_from(0, SimTime::ZERO, fh, 0, READ, i as u64);
    }
    let mut next_offset = [READ; READERS];
    let mut done = Vec::new();
    bench(out, "world_step_read_stream", iters, || {
        let t = world.next_event().expect("readers never drain");
        world.advance_into(t, &mut done);
        for d in done.drain(..) {
            let i = d.tag as usize;
            let offset = next_offset[i];
            next_offset[i] = (offset + READ) % PER_READER;
            let at = d.done_at + SimDuration::from_micros(15);
            world.read_from(0, at, fhs[i], offset, READ, d.tag);
        }
    });
}

fn bench_world_step_write_commit(out: &mut Vec<BenchResult>, iters: u64) {
    // One step of the event loop in a world whose server does write
    // gathering: one client on an UNSTABLE mount streams 8 KB writes
    // through a 4 MB file and closes it (one COMMIT) after every
    // `PER_COMMIT` blocks, wrapping to offset 0 at the end, so the loop
    // never drains. Each step touches the server's in-service table, dirty
    // pool, flush spans, parked COMMITs and durable blocks.
    const FILE: u64 = 4 * 1024 * 1024;
    const WRITE: u64 = 8_192;
    const PER_COMMIT: u64 = 8;
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(5));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let fs = FileSystem::format(disk, part, SchedulerKind::Elevator, FsConfig::default());
    let config = WorldConfig {
        stable_how: StableHow::Unstable,
        ..WorldConfig::default()
    };
    let mut world = NfsWorld::new(config, fs, 5);
    let fh = world.create_file(FILE);
    world.write_from(0, SimTime::ZERO, fh, 0, WRITE, 0);
    let mut written = 1u64;
    let mut done = Vec::new();
    bench(out, "world_step_write_commit", iters, || {
        let t = world.next_event().expect("the writer never drains");
        world.advance_into(t, &mut done);
        for d in done.drain(..) {
            let at = d.done_at + SimDuration::from_micros(15);
            if written.is_multiple_of(PER_COMMIT) && d.tag == 0 {
                world.close_from(0, at, fh, 1);
            } else {
                let offset = written * WRITE % FILE;
                world.write_from(0, at, fh, offset, WRITE, 0);
                written += 1;
            }
        }
    });
}

fn bench_world_step_metadata(out: &mut Vec<BenchResult>, iters: u64) {
    // One step of the event loop in a `build_tree`-shaped world: four
    // hosts on an UNSTABLE mount with the attribute cache on (3 s / 60 s),
    // each cycling LOOKUP, GETATTR, WRITE and CLOSE over its own six
    // files, closed loop, so the loop never drains. Each step touches the
    // client's file table (mount lookup, attribute entry, write-behind
    // blocks, close), its name buffers and the server's books.
    const HOSTS: usize = 4;
    const FILES: usize = 6;
    const FILE_BLOCKS: u64 = 8;
    const BLOCK: u64 = 8_192;
    let disk = DriveModel::WdWd200bbIde.build(SimRng::new(9));
    let part = PartitionTable::quarters(disk.geometry()).get(1);
    let fs = FileSystem::format(disk, part, SchedulerKind::Elevator, FsConfig::default());
    let config = WorldConfig {
        stable_how: StableHow::Unstable,
        attr_timeo_min: SimDuration::from_secs(3),
        attr_timeo_max: SimDuration::from_secs(60),
        ..WorldConfig::default()
    };
    let hosts = vec![ClientHostConfig::from_world(&config); HOSTS];
    let mut world = NfsWorld::new_cluster(config, &hosts, fs, 9);
    let files: Vec<Vec<FileHandle>> = (0..HOSTS)
        .map(|h| {
            (0..FILES)
                .map(|_| world.create_file_for(h, FILE_BLOCKS * BLOCK))
                .collect()
        })
        .collect();
    // Host `h`'s `n`th op: step `n % 4` of the cycle on file
    // `(n / 4) % FILES`, block `(n / 4) % FILE_BLOCKS`.
    let mut cursor = [0u64; HOSTS];
    let mut issue = |w: &mut NfsWorld, h: usize, at| {
        let n = cursor[h];
        cursor[h] += 1;
        let fh = files[h][(n / 4) as usize % FILES];
        let tag = h as u64;
        match n % 4 {
            0 => w.lookup_from(h, at, fh, 12, tag),
            1 => w.getattr_from(h, at, fh, tag),
            2 => w.write_from(h, at, fh, (n / 4) % FILE_BLOCKS * BLOCK, BLOCK, tag),
            _ => w.close_from(h, at, fh, tag),
        };
    };
    for h in 0..HOSTS {
        issue(&mut world, h, SimTime::ZERO);
    }
    let mut done = Vec::new();
    bench(out, "world_step_metadata", iters, || {
        let t = world.next_event().expect("the hosts never drain");
        world.advance_into(t, &mut done);
        for d in done.drain(..) {
            issue(
                &mut world,
                d.client,
                d.done_at + SimDuration::from_micros(15),
            );
        }
    });
}

/// Flags understood by this harness (all optional, combinable):
///
/// * `--bench`  — time the cases (`cargo bench` passes it); without it
///   each case runs once (`cargo test` smoke mode);
/// * `--quick`  — 10x fewer iterations (CI perf-smoke mode), except for
///   the scheduler cases, the evicting buffer-cache cases and the world
///   steps;
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
        testing: true,
        quick: false,
        json_out: None,
        baseline: None,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--bench" => o.testing = false,
            "--quick" => o.quick = true,
            "--json" => o.json_out = args.next(),
            "--baseline" => o.baseline = args.next(),
            "--check" => o.check = args.next(),
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
/// `world_step` fences the fixed cost of one event-loop step (deadline
/// polling, completion hand-off, per-id lookups). `iosched_enqueue_dispatch`
/// fences each kernel disk scheduler's queue (64 requests in, 64 out).
const GATED_PREFIXES: &[&str] = &[
    "iosched_enqueue_dispatch",
    "event_queue",
    "nfsheur",
    "buffer_cache_evicting",
    "fs_read",
    "world_step",
];
const GATE_FACTOR: f64 = 3.0;

fn main() {
    let o = parse_options();
    // `steady`: the sub-microsecond gated cases below keep their full
    // count in quick mode.
    let (fast, slow, steady) = if o.testing {
        (1, 1, 1)
    } else if o.quick {
        (20_000, 200, 200_000)
    } else {
        (200_000, 2_000, 200_000)
    };
    let mut results = Vec::new();
    let out = &mut results;
    bench_heuristics(out, fast);
    bench_nfsheur(out, fast);
    bench_shared_pool(out, fast);
    // A scheduler case takes 1–10 µs an op; 2,000 ops even in quick mode
    // (2–20 ms each) keep one preemption from tripling a gated case.
    bench_schedulers(out, if o.testing { 1 } else { 2_000 });
    bench_event_queue(out, slow);
    bench_xdr(out, fast);
    // The gated evicting cases take 30–45 ns an op, so they run 200,000
    // ops even in quick mode (6–9 ms each): one preemption on a shared
    // runner cannot triple them.
    bench_buffer_cache(out, fast, steady);
    bench_drive_cache(out, fast);
    bench_disk_service(out, slow);
    bench_disk_sptf(out, if o.testing { 1 } else { slow * 10 });
    bench_shard_epochs(out, (slow / 20).max(1));
    bench_fs_read(out, fast);
    // A step takes well under a microsecond: 200,000 steps even in quick
    // mode keep the gated loop far above timer and preemption noise.
    bench_world_step(out, steady);
    bench_world_step_write_commit(out, steady);
    bench_world_step_metadata(out, steady);

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
