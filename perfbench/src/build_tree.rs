//! `build_tree`: a software build over NFS, open loop at trace
//! timestamps on 8 client hosts of one cluster world (UNSTABLE mount,
//! attribute cache at the classic 3 s / 60 s timeouts).
//!
//! Each host builds its own seeded `nfstrace::tree` source tree. A pass
//! runs `tree_walk`, then `compile_burst`, then writes one object file per
//! source (sequential WRITEs, then `close`, which COMMITs). The benchmark
//! drives the world from its own loop rather than `testbed::replay`: files
//! are created in trace order and every record goes to its own host, so
//! the same seed always gives the same run (`testbed::replay` creates
//! files in `HashMap` order, which differs from run to run).

use std::collections::HashMap;
use std::time::Instant;

use nfsproto::{FileHandle, StableHow};
use nfssim::{ClientHostConfig, NfsWorld, OpDone, WorldConfig};
use nfstrace::{compile_burst, tree_walk, BuildSpec, TraceOp};
use simcore::{SimDuration, SimRng, SimTime};
use testbed::Rig;

use crate::metrics::{fold, world_layers, RepOut, Sim, FP_START};
use crate::reference::Kernel;
use crate::tracer::{Boundary, Tracer};
use crate::Workload;

const HOSTS: usize = 8;
/// Passes over the trees per rep; later passes find warm caches.
const PASSES: usize = 4;
const BLOCK: u64 = 8_192;
/// Gap between the phases of one host's pass, µs.
const PHASE_GAP_US: u64 = 1_000;

/// Each host's tree: depth 3, 4 subdirectories and 4 sources per
/// directory. Over 8 hosts that is 680 directories, 2,720 sources and
/// about 11k source blocks, well below the server's 20,000-block cache.
fn host_spec() -> BuildSpec {
    BuildSpec {
        depth: 3,
        dirs_per_dir: 4,
        files_per_dir: 4,
        mean_file_blocks: 4.0,
        block_len: BLOCK as u32,
        readdir_chunk: 64,
        inter_arrival_us: 30_000.0,
        clients: 1,
    }
}

/// An object file is a quarter of its source plus one block.
fn object_blocks(source_blocks: u64) -> u64 {
    1 + source_blocks / 4
}

/// Mean compile time before each object file is written, µs. Every
/// `close` COMMITs a small random write (about 12 ms on `ide1`), so 8
/// hosts closing an object each per 250 ms keep the disk under half busy.
const COMPILE_US: f64 = 250_000.0;

#[derive(Debug, Clone, Copy)]
enum Op {
    Readdir {
        cookie: u64,
        entries: u32,
        eof: bool,
    },
    Lookup {
        name_len: u32,
    },
    Getattr,
    Read {
        offset: u64,
    },
    Write {
        offset: u64,
    },
    Close,
}

/// One operation of a pass: due at `at_us` into the pass, on `host`,
/// against entry `file` of the file table.
#[derive(Debug, Clone, Copy)]
struct Step {
    at_us: u64,
    host: usize,
    file: usize,
    op: Op,
}

/// The `build_tree` workload.
pub struct BuildTree {
    seed: u64,
}

impl BuildTree {
    /// The workload for `seed` (trees, arrival times, disk layout).
    pub fn new(seed: u64) -> Self {
        BuildTree { seed }
    }
}

/// Builds one pass's steps for every host plus the file table they
/// index: `(host, size in bytes)` per file, in order of first use.
fn generate(seed: u64, tr: &mut Tracer) -> (Vec<Step>, Vec<(usize, u64)>) {
    let spec = host_spec();
    let mut steps = Vec::new();
    let mut files: Vec<(usize, u64)> = Vec::new();
    for host in 0..HOSTS {
        let mut rng = SimRng::from_seed_and_stream(seed, 0xB17D + host as u64);
        let tree = tr.span(Boundary::Generate, || nfstrace::build_tree(&spec, &mut rng));
        let walk = tr.span(Boundary::Generate, || tree_walk(&tree, &spec, &mut rng));
        let burst = tr.span(Boundary::Generate, || compile_burst(&tree, &spec, &mut rng));

        // Trace handle -> (size, entries) for directories and sources.
        let mut shape: HashMap<u64, (u64, u64)> = HashMap::new();
        for d in &tree.dirs {
            shape.insert(d.fh, (BLOCK, (d.subdirs.len() + d.files.len()) as u64));
            for f in &d.files {
                shape.insert(f.fh, (f.blocks * BLOCK, 0));
            }
        }
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut file_of = |fh: u64, size: u64| {
            *index.entry(fh).or_insert_with(|| {
                files.push((host, size));
                files.len() - 1
            })
        };

        let burst_at = walk.records.last().map_or(0, |r| r.time_us) + PHASE_GAP_US;
        for (r, base) in walk
            .records
            .iter()
            .map(|r| (r, 0))
            .chain(burst.records.iter().map(|r| (r, burst_at)))
        {
            let (size, entries) = shape[&r.fh];
            let op = match r.op {
                TraceOp::Readdir => Op::Readdir {
                    cookie: r.offset,
                    entries: (entries - r.offset).min(u64::from(r.len)) as u32,
                    eof: r.offset + u64::from(r.len) >= entries,
                },
                TraceOp::Lookup => Op::Lookup { name_len: r.len },
                TraceOp::Getattr => Op::Getattr,
                TraceOp::Read => Op::Read { offset: r.offset },
                TraceOp::Write => unreachable!("build traces carry no writes"),
            };
            steps.push(Step {
                at_us: base + r.time_us,
                host,
                file: file_of(r.fh, size),
                op,
            });
        }

        // Link phase: one object file per source, written sequentially
        // and closed, in tree order.
        let mut t =
            (burst_at + burst.records.last().map_or(0, |r| r.time_us) + PHASE_GAP_US) as f64;
        let mut obj_fh = u64::MAX;
        for f in tree.dirs.iter().flat_map(|d| d.files.iter()) {
            let blocks = object_blocks(f.blocks);
            let file = file_of(obj_fh, blocks * BLOCK);
            obj_fh -= 1;
            t += rng.exponential(COMPILE_US);
            for b in 0..blocks {
                t += rng.exponential(spec.inter_arrival_us);
                steps.push(Step {
                    at_us: t as u64,
                    host,
                    file,
                    op: Op::Write { offset: b * BLOCK },
                });
            }
            t += rng.exponential(spec.inter_arrival_us);
            steps.push(Step {
                at_us: t as u64,
                host,
                file,
                op: Op::Close,
            });
        }
    }
    // Stable: each host's own order survives ties.
    steps.sort_by_key(|s| (s.at_us, s.host));
    (steps, files)
}

/// Running books of the timed phase.
struct Books {
    lat_ns: Vec<u64>,
    fp: u64,
    failed: u64,
    outstanding: u64,
    closes_done: u64,
    end: SimTime,
}

impl Books {
    fn complete(&mut self, done: Vec<OpDone>, closes: &[bool]) {
        for d in done {
            self.lat_ns.push(d.done_at.since(d.issued_at).as_nanos());
            self.fp = fold(
                fold(self.fp, d.tag),
                d.done_at.as_nanos() ^ (d.client as u64) << 60,
            );
            if d.outcome.is_ok() {
                self.closes_done += u64::from(closes[d.tag as usize]);
            } else {
                self.failed += 1;
            }
            self.end = self.end.max(d.done_at);
            self.outstanding -= 1;
        }
    }
}

/// The pass's steps, and the cluster world with every file created in
/// the order the steps first use it.
fn setup(seed: u64, tr: &mut Tracer) -> (Vec<Step>, NfsWorld, Vec<FileHandle>) {
    let (steps, files) = generate(seed, tr);
    let config = WorldConfig {
        stable_how: StableHow::Unstable,
        attr_timeo_min: SimDuration::from_secs(3),
        attr_timeo_max: SimDuration::from_secs(60),
        ..WorldConfig::default()
    };
    let fs = tr.span(Boundary::Build, || Rig::ide(1).build_fs(seed));
    let hosts = vec![ClientHostConfig::from_world(&config); HOSTS];
    let mut world = tr.span(Boundary::Build, || {
        NfsWorld::new_cluster(config, &hosts, fs, seed)
    });
    let handles = files
        .iter()
        .map(|&(host, size)| tr.span(Boundary::Build, || world.create_file_for(host, size)))
        .collect();
    (steps, world, handles)
}

impl Workload for BuildTree {
    fn setup_only(&mut self) -> f64 {
        let t0 = Instant::now();
        let built = setup(self.seed, &mut Tracer::new(false));
        let setup_s = t0.elapsed().as_secs_f64();
        drop(built);
        setup_s
    }

    fn kernel(&self) -> Option<Kernel> {
        Some(Kernel::Churn)
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let t0 = Instant::now();
        let (steps, mut world, handles) = setup(self.seed, tr);
        let setup_s = t0.elapsed().as_secs_f64();
        let closes: Vec<bool> = steps.iter().map(|s| matches!(s.op, Op::Close)).collect();

        let t1 = Instant::now();
        let mut books = Books {
            lat_ns: Vec::with_capacity(steps.len() * PASSES),
            fp: FP_START,
            failed: 0,
            outstanding: 0,
            closes_done: 0,
            end: SimTime::ZERO,
        };
        let (mut bytes, mut getattrs) = (0u64, 0u64);
        let start = world.now();
        for _ in 0..PASSES {
            let base = world.now() + SimDuration::from_micros(PHASE_GAP_US);
            for (tag, s) in steps.iter().enumerate() {
                let at = base + SimDuration::from_micros(s.at_us);
                let done = tr.span(Boundary::Advance, || world.advance(at));
                books.complete(done, &closes);
                let (c, fh, tag) = (s.host, handles[s.file], tag as u64);
                tr.span(Boundary::Submit, || match s.op {
                    Op::Readdir {
                        cookie,
                        entries,
                        eof,
                    } => world.readdir_from(c, at, fh, cookie, entries, eof, tag),
                    Op::Lookup { name_len } => world.lookup_from(c, at, fh, name_len, tag),
                    Op::Getattr => world.getattr_from(c, at, fh, tag),
                    Op::Read { offset } => world.read_from(c, at, fh, offset, BLOCK, tag),
                    Op::Write { offset } => world.write_from(c, at, fh, offset, BLOCK, tag),
                    Op::Close => world.close_from(c, at, fh, tag),
                });
                books.outstanding += 1;
                match s.op {
                    Op::Read { .. } | Op::Write { .. } => bytes += BLOCK,
                    Op::Getattr => getattrs += 1,
                    _ => {}
                }
            }
            // Let the pass finish before the next one starts.
            while books.outstanding > 0 {
                let t = tr
                    .span(Boundary::NextEvent, || world.next_event())
                    .expect("ops outstanding but no event scheduled");
                let done = tr.span(Boundary::Advance, || world.advance(t));
                books.complete(done, &closes);
            }
        }
        // Quiescence: stale timers and gather windows run out.
        while let Some(t) = tr.span(Boundary::NextEvent, || world.next_event()) {
            let done = tr.span(Boundary::Advance, || world.advance(t));
            books.complete(done, &closes);
        }
        let timed_s = t1.elapsed().as_secs_f64();

        let attempted = (steps.len() * PASSES) as u64;
        let mut violations = check(
            &world,
            &books,
            attempted,
            getattrs,
            closes_expected(&closes),
        );
        if books.failed > 0 {
            violations.push(format!(
                "build_tree: {} ops did not complete Ok",
                books.failed
            ));
        }
        let sim_secs = books.end.since(start).as_secs_f64();
        let mut layers = Vec::new();
        world_layers(&world, sim_secs, &mut layers);
        RepOut {
            setup_s,
            timed_s,
            attempted,
            failed: books.failed,
            fingerprint: books.fp,
            sim: Sim::from_latencies(books.lat_ns, bytes, sim_secs),
            layers,
            violations,
        }
    }
}

fn closes_expected(closes: &[bool]) -> u64 {
    closes.iter().filter(|&&c| c).count() as u64 * PASSES as u64
}

/// The build's books at quiescence.
fn check(
    world: &NfsWorld,
    books: &Books,
    attempted: u64,
    getattrs: u64,
    closes: u64,
) -> Vec<String> {
    let mut v = Vec::new();
    if books.lat_ns.len() as u64 != attempted {
        v.push(format!(
            "build_tree: {} of {attempted} ops completed",
            books.lat_ns.len()
        ));
    }
    let s = world.server_stats();
    if s.replies + s.stale_drops != s.reads + s.other_calls {
        v.push(format!(
            "build_tree: server replies {} + stale drops {} != reads {} + other calls {}",
            s.replies, s.stale_drops, s.reads, s.other_calls
        ));
    }
    if books.closes_done != closes {
        v.push(format!(
            "build_tree: {} of {closes} closes returned Ok",
            books.closes_done
        ));
    }
    let uncommitted: u64 = (0..HOSTS).map(|c| world.client_uncommitted_blocks(c)).sum();
    if uncommitted > 0 || world.server_dirty_blocks() > 0 {
        v.push(format!(
            "build_tree: {uncommitted} client blocks uncommitted, {} server blocks dirty after every close",
            world.server_dirty_blocks()
        ));
    }
    let (hits, wire) = (0..HOSTS)
        .map(|c| world.client_stats_for(c))
        .fold((0, 0), |(h, w), c| {
            (h + c.attr_cache_hits, w + c.getattr_rpcs)
        });
    if hits + wire != getattrs {
        v.push(format!(
            "build_tree: attribute-cache hits {hits} + wire GETATTRs {wire} != {getattrs} getattr ops"
        ));
    }
    v
}
