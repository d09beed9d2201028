//! The one event loop every NFS harness runs on.
//!
//! A harness describes what each client host does as a host plan — closed
//! loop processes that reissue on completion, or an open-loop trace issued
//! at its own timestamps — and hands the plans to [`drive`], which steps
//! the world until every host is done and records what the harnesses
//! report: each process's finish instant, each host's last completion and
//! operation count, and per-op latencies for open-loop hosts.
//!
//! [`MixBench`] exposes the loop directly: one [`ClientWorkload`] per
//! host, all against the shared server, so the contention counters show
//! what each kind of neighbour costs the others. `ClusterBench`,
//! `StrideBench`, `replay` and `run_mixed` are plan construction, one
//! call to [`drive`], and code that shapes the result.

use std::collections::{BTreeMap, HashMap};

use nfsproto::FileHandle;
use nfssim::{ClientStats, ContentionStats, NfsWorld, OpDone, ServerStats};
use nfstrace::{Trace, TraceOp, TraceRecord};
use simcore::{SimDuration, SimRng, SimTime};

use crate::mixed::MixRatios;
use crate::rig::{ClusterConfig, Rig};
use crate::stride::stride_order;

/// Read size of every closed-loop process.
const READ_BYTES: u64 = nfssim::RSIZE as u64;

/// CPU a client process spends between one operation's completion and
/// its next issue.
pub const PROC_CPU: SimDuration = SimDuration::from_micros(15);

/// RNG stream of a [`ClientWorkload::Mixed`] host 0; host `c` draws from
/// `MIXED_STREAM + c`.
const MIXED_STREAM: u64 = 0x3B1D;

/// What one client host runs.
#[derive(Debug, Clone)]
pub enum ClientWorkload {
    /// `readers` closed-loop sequential reader processes splitting
    /// `mb` megabytes across `readers` private files (the §4.2 load).
    Sequential {
        /// Concurrent reader processes on this host.
        readers: usize,
        /// Total megabytes this host reads (must divide by `readers`).
        mb: u64,
    },
    /// One serial process reading a `file_mb`-megabyte file in an
    /// `s`-stride pattern (the §7 load).
    Stride {
        /// Number of interleaved sequential subcomponents.
        s: u64,
        /// File size in megabytes.
        file_mb: u64,
    },
    /// Open-loop replay of a captured or synthesized trace at its own
    /// timestamps.
    Replay(Trace),
    /// One serial process walking a directory of `files` files `rounds`
    /// times: list the directory (READDIRPLUS when `plus`), then LOOKUP,
    /// open, stat, and close each file — the metadata-heavy build-tree
    /// shape, all namespace traffic and no data.
    MetaWalk {
        /// Files in the walked directory.
        files: usize,
        /// Full walks of the directory.
        rounds: u32,
        /// Use READDIRPLUS (children's attributes ride the listing)
        /// instead of plain READDIR.
        plus: bool,
    },
    /// `readers` closed-loop processes over one `file_mb`-megabyte file
    /// each, `ops_per_proc` operations apiece, mostly sequential reads
    /// with 8 KB writes at random offsets and GETATTRs mixed in by `mix`
    /// (the §8 load).
    Mixed {
        /// Concurrent processes on this host.
        readers: usize,
        /// Size of each process's file in megabytes.
        file_mb: u64,
        /// Operations each process issues.
        ops_per_proc: u64,
        /// Share of writes and GETATTRs.
        mix: MixRatios,
    },
}

pub(crate) struct SeqProc {
    fh: FileHandle,
    size: u64,
    offset: u64,
}

struct MixedProc {
    fh: FileHandle,
    read_offset: u64,
    remaining: u64,
}

/// A [`ClientWorkload::Mixed`] host: its processes share one RNG.
pub(crate) struct MixedHost {
    procs: Vec<MixedProc>,
    size: u64,
    mix: MixRatios,
    rng: SimRng,
    /// Bytes of READ the processes issued.
    pub read_bytes: u64,
}

impl MixedHost {
    /// Issues process `i`'s next operation at `at`: a write at a random
    /// block, a GETATTR, or its next sequential read (wrapping at end of
    /// file), as one roll of the host's RNG decides.
    fn issue(&mut self, world: &mut NfsWorld, c: usize, at: SimTime, i: usize) {
        let p = &mut self.procs[i];
        let tag = i as u64;
        let roll = self.rng.gen_range(0u32..100);
        if roll < self.mix.write_pct {
            let blk = self.rng.gen_range(0..self.size / READ_BYTES);
            world.write_from(c, at, p.fh, blk * READ_BYTES, READ_BYTES, tag);
        } else if roll < self.mix.write_pct + self.mix.getattr_pct {
            world.getattr_from(c, at, p.fh, tag);
        } else {
            if p.read_offset >= self.size {
                p.read_offset = 0;
            }
            world.read_from(c, at, p.fh, p.read_offset, READ_BYTES, tag);
            p.read_offset += READ_BYTES;
            self.read_bytes += READ_BYTES;
        }
        p.remaining -= 1;
    }
}

/// One host's plan: its processes' state between operations.
pub(crate) enum Plan<'a> {
    Sequential(Vec<SeqProc>),
    Stride {
        fh: FileHandle,
        order: Vec<u64>,
        /// Index of the in-flight block.
        next: usize,
    },
    Replay {
        trace: &'a Trace,
        handles: HashMap<u64, FileHandle>,
        /// Index of the next record to issue.
        next: usize,
        outstanding: usize,
    },
    MetaWalk {
        dir: FileHandle,
        files: Vec<FileHandle>,
        plus: bool,
        rounds: u32,
        round: u32,
        /// 0 = the directory listing; `1 + 4i + k` = file `i`'s step `k`
        /// (lookup, open, getattr, close).
        step: usize,
    },
    Mixed(MixedHost),
}

/// What [`drive`] recorded for one host.
pub(crate) struct HostRun {
    /// Operations the host completed.
    pub ops: u64,
    /// The host's last completion (the start instant when it had none).
    pub last_done: SimTime,
    /// Each closed-loop process's finish instant, in process order.
    pub finished: Vec<Option<SimTime>>,
    /// Per-op latencies in milliseconds, in completion order (open-loop
    /// hosts only).
    pub latencies_ms: Vec<f64>,
}

impl<'a> Plan<'a> {
    /// Closed-loop sequential readers, one per handle, each reading
    /// `size` bytes of its file from offset 0.
    pub(crate) fn sequential(fhs: &[FileHandle], size: u64) -> Self {
        Plan::Sequential(
            fhs.iter()
                .map(|&fh| SeqProc {
                    fh,
                    size,
                    offset: 0,
                })
                .collect(),
        )
    }

    /// One serial process reading `fh` (`size` bytes) in an `s`-stride.
    pub(crate) fn stride(fh: FileHandle, size: u64, s: u64) -> Self {
        Plan::Stride {
            fh,
            order: stride_order(size / READ_BYTES, s),
            next: 0,
        }
    }

    /// Open-loop replay of `trace` on `client`, creating its files.
    pub(crate) fn replay(world: &mut NfsWorld, client: usize, trace: &'a Trace) -> Self {
        Plan::Replay {
            trace,
            handles: create_trace_files(world, client, trace),
            next: 0,
            outstanding: 0,
        }
    }

    /// Builds `workload`'s plan for `client`, creating its files.
    ///
    /// # Panics
    ///
    /// Panics when a workload's own invariants fail (readers not dividing
    /// megabytes, stride not dividing the block count, an empty walk, a
    /// mix above 100%).
    pub(crate) fn build(
        world: &mut NfsWorld,
        client: usize,
        workload: &'a ClientWorkload,
        seed: u64,
    ) -> Self {
        match *workload {
            ClientWorkload::Sequential { readers, mb } => {
                assert!(readers > 0 && mb.is_multiple_of(readers as u64));
                let per = mb / readers as u64 * 1024 * 1024;
                let fhs: Vec<FileHandle> = (0..readers)
                    .map(|_| world.create_file_for(client, per))
                    .collect();
                Plan::sequential(&fhs, per)
            }
            ClientWorkload::Stride { s, file_mb } => {
                let size = file_mb * 1024 * 1024;
                Plan::stride(world.create_file_for(client, size), size, s)
            }
            ClientWorkload::Replay(ref trace) => Plan::replay(world, client, trace),
            ClientWorkload::MetaWalk {
                files,
                rounds,
                plus,
            } => {
                assert!(files > 0 && rounds > 0, "an empty walk never finishes");
                let dir = world.create_file_for(client, 8_192);
                Plan::MetaWalk {
                    dir,
                    files: (0..files)
                        .map(|_| world.create_file_for(client, 8 * READ_BYTES))
                        .collect(),
                    plus,
                    rounds,
                    round: 0,
                    step: 0,
                }
            }
            ClientWorkload::Mixed {
                readers,
                file_mb,
                ops_per_proc,
                mix,
            } => {
                assert!(mix.write_pct + mix.getattr_pct <= 100);
                let size = file_mb * 1024 * 1024;
                Plan::Mixed(MixedHost {
                    procs: (0..readers)
                        .map(|_| MixedProc {
                            fh: world.create_file_for(client, size),
                            read_offset: 0,
                            remaining: ops_per_proc,
                        })
                        .collect(),
                    size,
                    mix,
                    rng: SimRng::from_seed_and_stream(seed, MIXED_STREAM + client as u64),
                    read_bytes: 0,
                })
            }
        }
    }

    /// Closed-loop processes in this plan (0 for an open-loop host).
    fn processes(&self) -> usize {
        match self {
            Plan::Sequential(procs) => procs.len(),
            Plan::Mixed(host) => host.procs.len(),
            Plan::Stride { .. } | Plan::MetaWalk { .. } => 1,
            Plan::Replay { .. } => 0,
        }
    }

    /// When the next open-loop arrival is due, if any.
    fn next_arrival(&self, start: SimTime) -> Option<SimTime> {
        match self {
            Plan::Replay { trace, next, .. } => trace
                .records
                .get(*next)
                .map(|r| start + SimDuration::from_micros(r.time_us)),
            _ => None,
        }
    }

    /// Issues every closed-loop process's first operation at `at`.
    fn kick_off(&mut self, world: &mut NfsWorld, c: usize, at: SimTime) {
        match self {
            Plan::Sequential(procs) => {
                for (i, p) in procs.iter_mut().enumerate() {
                    world.read_from(c, at, p.fh, 0, READ_BYTES, i as u64);
                    p.offset = READ_BYTES;
                }
            }
            Plan::Stride { fh, order, .. } => {
                let blk = order[0];
                world.read_from(c, at, *fh, blk * READ_BYTES, READ_BYTES, blk);
            }
            Plan::Replay { .. } => {}
            Plan::MetaWalk {
                dir, files, plus, ..
            } => issue_meta_step(world, c, at, *dir, files, *plus, 0),
            Plan::Mixed(host) => {
                for i in 0..host.procs.len() {
                    host.issue(world, c, at, i);
                }
            }
        }
    }

    /// Issues the next open-loop record at `at`.
    fn issue_arrival(&mut self, world: &mut NfsWorld, c: usize, at: SimTime) {
        if let Plan::Replay {
            trace,
            handles,
            next,
            outstanding,
        } = self
        {
            let r = &trace.records[*next];
            issue_record(world, c, at, handles[&r.fh], r, *next as u64);
            *next += 1;
            *outstanding += 1;
        }
    }

    /// Handles completion `d` of host `c`, reissuing where the plan is
    /// closed-loop. Returns true when it retires a process (recorded in
    /// `run`) or the last record of an open-loop host.
    fn complete(&mut self, world: &mut NfsWorld, c: usize, d: &OpDone, run: &mut HostRun) -> bool {
        let at = d.done_at + PROC_CPU;
        let p = d.tag as usize;
        match self {
            Plan::Sequential(procs) => {
                let proc_ = &mut procs[p];
                if proc_.offset >= proc_.size {
                    run.finished[p] = Some(d.done_at);
                    return true;
                }
                world.read_from(c, at, proc_.fh, proc_.offset, READ_BYTES, d.tag);
                proc_.offset += READ_BYTES;
            }
            Plan::Stride { fh, order, next } => {
                debug_assert_eq!(d.tag, order[*next], "stride host is serial");
                *next += 1;
                let Some(&blk) = order.get(*next) else {
                    run.finished[0] = Some(d.done_at);
                    return true;
                };
                world.read_from(c, at, *fh, blk * READ_BYTES, READ_BYTES, blk);
            }
            Plan::Replay {
                trace,
                next,
                outstanding,
                ..
            } => {
                run.latencies_ms
                    .push(d.done_at.since(d.issued_at).as_millis_f64());
                *outstanding -= 1;
                return *outstanding == 0 && *next >= trace.len();
            }
            Plan::MetaWalk {
                dir,
                files,
                plus,
                rounds,
                round,
                step,
            } => {
                debug_assert_eq!(d.tag, *step as u64, "meta walk is serial");
                *step += 1;
                if *step > 4 * files.len() {
                    *step = 0;
                    *round += 1;
                    if *round >= *rounds {
                        run.finished[0] = Some(d.done_at);
                        return true;
                    }
                }
                issue_meta_step(world, c, at, *dir, files, *plus, *step);
            }
            Plan::Mixed(host) => {
                if host.procs[p].remaining == 0 {
                    run.finished[p] = Some(d.done_at);
                    return true;
                }
                host.issue(world, c, at, p);
            }
        }
        false
    }
}

/// Runs every host's plan from `start` until all of them are done.
///
/// Closed-loop processes start at `start` and issue their next operation
/// [`PROC_CPU`] after the previous one completes. Open-loop records
/// arrive at `start` plus their trace timestamp; events due at or before
/// an arrival are processed first.
pub(crate) fn drive(world: &mut NfsWorld, start: SimTime, plans: &mut [Plan<'_>]) -> Vec<HostRun> {
    let mut runs: Vec<HostRun> = plans
        .iter()
        .map(|p| HostRun {
            ops: 0,
            last_done: start,
            finished: vec![None; p.processes()],
            latencies_ms: Vec::new(),
        })
        .collect();
    let open: Vec<usize> = (0..plans.len())
        .filter(|&c| plans[c].next_arrival(start).is_some())
        .collect();
    let mut pending = open.len() + runs.iter().map(|r| r.finished.len()).sum::<usize>();
    for (c, plan) in plans.iter_mut().enumerate() {
        plan.kick_off(world, c, start);
    }

    let mut done = Vec::new();
    let mut guard: u64 = 0;
    while pending > 0 {
        guard += 1;
        assert!(guard < 200_000_000, "harness event loop stuck");
        let arrival = open
            .iter()
            .filter_map(|&c| plans[c].next_arrival(start).map(|at| (at, c)))
            .min();
        let Some(t) = world
            .next_event()
            .filter(|&t| arrival.is_none_or(|(at, _)| t <= at))
        else {
            let (at, c) = arrival.expect("hosts pending but no events or arrivals");
            plans[c].issue_arrival(world, c, at);
            continue;
        };
        world.advance_into(t, &mut done);
        for d in done.drain(..) {
            let c = d.client;
            let run = &mut runs[c];
            run.ops += 1;
            run.last_done = run.last_done.max(d.done_at);
            if plans[c].complete(world, c, &d, run) {
                pending -= 1;
            }
        }
    }
    runs
}

/// Issues the metadata-walk op for `step` on client `c`. Serial: the
/// next step is issued when this one completes.
fn issue_meta_step(
    world: &mut NfsWorld,
    c: usize,
    at: SimTime,
    dir: FileHandle,
    files: &[FileHandle],
    plus: bool,
    step: usize,
) {
    let tag = step as u64;
    if step == 0 {
        if plus {
            world.readdirplus_from(c, at, dir, 0, files, true, tag);
        } else {
            let entries = u32::try_from(files.len()).expect("directory fits u32");
            world.readdir_from(c, at, dir, 0, entries, true, tag);
        }
        return;
    }
    let fh = files[(step - 1) / 4];
    match (step - 1) % 4 {
        0 => world.lookup_from(c, at, dir, 8, tag),
        1 => world.open_from(c, at, fh, tag),
        2 => world.getattr_from(c, at, fh, tag),
        _ => world.close_from(c, at, fh, tag),
    };
}

/// Creates one file on `client` per trace handle, each big enough for its
/// largest access rounded up to a whole 64 KB cluster, and returns the
/// trace-handle → world-handle map. Files are created in trace-handle
/// order, so the disk layout (and every result) is a function of the
/// trace and the seed alone.
fn create_trace_files(
    world: &mut NfsWorld,
    client: usize,
    trace: &Trace,
) -> HashMap<u64, FileHandle> {
    let mut max_end: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &trace.records {
        let end = r.offset + u64::from(r.len).max(1);
        let e = max_end.entry(r.fh).or_insert(0);
        *e = (*e).max(end);
    }
    max_end
        .into_iter()
        .map(|(fh, end)| {
            (
                fh,
                world.create_file_for(client, end.div_ceil(65_536) * 65_536),
            )
        })
        .collect()
}

/// Issues trace record `r` on `client` at `at` against `fh` (its world
/// handle). A zero `len` counts as one byte (or one entry). A READDIR
/// record stands alone: its `len` is the entries requested and the chunk
/// is its directory's last.
fn issue_record(
    world: &mut NfsWorld,
    client: usize,
    at: SimTime,
    fh: FileHandle,
    r: &TraceRecord,
    tag: u64,
) {
    let len = r.len.max(1);
    match r.op {
        TraceOp::Read => world.read_from(client, at, fh, r.offset, u64::from(len), tag),
        TraceOp::Write => world.write_from(client, at, fh, r.offset, u64::from(len), tag),
        TraceOp::Getattr => world.getattr_from(client, at, fh, tag),
        TraceOp::Lookup => world.lookup_from(client, at, fh, len, tag),
        TraceOp::Readdir => world.readdir_from(client, at, fh, r.offset, len, true, tag),
    };
}

/// Per-host outcome of a [`MixBench`] run.
#[derive(Debug, Clone)]
pub struct MixClientResult {
    /// Operations this host completed.
    pub ops: u64,
    /// Simulated time at which this host's last operation completed.
    pub finished_secs: f64,
    /// Client-side counters for the run.
    pub stats: ClientStats,
    /// Server-side contention attributed to this host.
    pub contention: ContentionStats,
}

/// Outcome of a [`MixBench`] run.
#[derive(Debug, Clone)]
pub struct MixResult {
    /// Per-host results, indexed by client id.
    pub clients: Vec<MixClientResult>,
    /// Shared-server counters for the run.
    pub server: ServerStats,
    /// Simulated seconds until the last host finished.
    pub elapsed_secs: f64,
}

/// A cluster with one workload assigned per host.
pub struct MixBench<'a> {
    world: NfsWorld,
    plans: Vec<Plan<'a>>,
}

impl<'a> MixBench<'a> {
    /// Builds the cluster world and creates every host's files. One
    /// workload per host, in client order.
    ///
    /// # Panics
    ///
    /// Panics when `workloads.len() != cluster.clients()`, or when a
    /// workload's own invariants fail (readers not dividing megabytes,
    /// stride not dividing the block count).
    pub fn new(
        rig: Rig,
        cluster: &ClusterConfig,
        workloads: &'a [ClientWorkload],
        seed: u64,
    ) -> Self {
        assert_eq!(
            workloads.len(),
            cluster.clients(),
            "one workload per client host"
        );
        let mut world = cluster.build_world(rig, seed);
        let plans = workloads
            .iter()
            .enumerate()
            .map(|(c, w)| Plan::build(&mut world, c, w, seed))
            .collect();
        MixBench { world, plans }
    }

    /// Runs every host's workload to completion and returns the results.
    pub fn run(mut self) -> MixResult {
        let start = self.world.now();
        let runs = drive(&mut self.world, start, &mut self.plans);
        let clients = runs
            .iter()
            .enumerate()
            .map(|(c, r)| MixClientResult {
                ops: r.ops,
                finished_secs: r.last_done.saturating_since(start).as_secs_f64(),
                stats: self.world.client_stats_for(c),
                contention: self.world.contention_stats(c),
            })
            .collect::<Vec<_>>();
        let elapsed_secs = clients
            .iter()
            .map(|r| r.finished_secs)
            .fold(0.0f64, f64::max);
        MixResult {
            clients,
            server: self.world.server_stats(),
            elapsed_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::ClusterConfig;
    use nfssim::WorldConfig;
    use nfstrace::synth;
    use simcore::SimRng;

    fn mixed_workloads() -> Vec<ClientWorkload> {
        let mut rng = SimRng::new(41);
        let trace = synth::sequential(
            synth::SequentialSpec {
                files: 2,
                blocks_per_file: 64,
                ..synth::SequentialSpec::default()
            },
            &mut rng,
        );
        vec![
            ClientWorkload::Sequential { readers: 2, mb: 4 },
            ClientWorkload::Stride { s: 4, file_mb: 2 },
            ClientWorkload::Replay(trace),
        ]
    }

    #[test]
    fn every_workload_kind_completes() {
        let workloads = mixed_workloads();
        let cluster = ClusterConfig::uniform(WorldConfig::default(), workloads.len());
        let r = MixBench::new(Rig::ide(1), &cluster, &workloads, 42).run();
        assert_eq!(r.clients.len(), 3);
        // Sequential host: 4 MB / 8 KB = 512 ops.
        assert_eq!(r.clients[0].ops, 512);
        // Stride host: 2 MB / 8 KB = 256 serial reads.
        assert_eq!(r.clients[1].ops, 256);
        // Replay host: one completion per trace record.
        assert_eq!(r.clients[2].ops, 2 * 64);
        for c in &r.clients {
            assert!(c.finished_secs > 0.0);
        }
        assert!(
            r.elapsed_secs
                >= r.clients
                    .iter()
                    .map(|c| c.finished_secs)
                    .fold(0.0, f64::max)
        );
        assert!(r.server.reads > 0);
    }

    #[test]
    fn mixed_runs_are_deterministic() {
        let workloads = mixed_workloads();
        let cluster = ClusterConfig::uniform(WorldConfig::default(), workloads.len());
        let a = MixBench::new(Rig::ide(1), &cluster, &workloads, 43).run();
        let b = MixBench::new(Rig::ide(1), &cluster, &workloads, 43).run();
        assert_eq!(format!("{:?}", a.server), format!("{:?}", b.server));
        for (x, y) in a.clients.iter().zip(&b.clients) {
            assert_eq!(x.ops, y.ops);
            assert_eq!(x.finished_secs.to_bits(), y.finished_secs.to_bits());
            assert_eq!(x.contention, y.contention);
        }
    }

    #[test]
    fn meta_walk_completes_with_the_expected_op_count() {
        let workloads = vec![
            ClientWorkload::MetaWalk {
                files: 6,
                rounds: 3,
                plus: false,
            },
            ClientWorkload::Sequential { readers: 1, mb: 1 },
        ];
        let cluster = ClusterConfig::uniform(WorldConfig::default(), workloads.len());
        let r = MixBench::new(Rig::ide(1), &cluster, &workloads, 19).run();
        // Each round: one listing + 4 ops per file.
        assert_eq!(r.clients[0].ops, 3 * (1 + 4 * 6));
        let c = &r.clients[0].stats;
        assert_eq!(c.readdir_rpcs, 3);
        assert_eq!(c.lookup_rpcs, 3 * 6);
        // Cache off: every open and stat hits the wire.
        assert_eq!(c.getattr_rpcs, 2 * 3 * 6);
        assert_eq!(c.closes, 3 * 6);
        assert!(r.server.readdirs == 3 && r.server.lookups == 18);
    }

    #[test]
    fn readdirplus_walk_with_armed_cache_cuts_getattr_wire_traffic() {
        let run = |plus: bool, armed: bool| {
            let workloads = vec![ClientWorkload::MetaWalk {
                files: 8,
                rounds: 4,
                plus,
            }];
            let world = WorldConfig {
                attr_timeo_min: if armed {
                    simcore::SimDuration::from_secs(3)
                } else {
                    simcore::SimDuration::ZERO
                },
                attr_timeo_max: if armed {
                    simcore::SimDuration::from_secs(60)
                } else {
                    simcore::SimDuration::ZERO
                },
                ..WorldConfig::default()
            };
            let cluster = ClusterConfig::uniform(world, 1);
            MixBench::new(Rig::ide(1), &cluster, &workloads, 23).run()
        };
        let cold = run(false, false);
        let warm = run(true, true);
        // Same walk either way.
        assert_eq!(cold.clients[0].ops, warm.clients[0].ops);
        // READDIRPLUS prefills and the cache holds entries across the
        // walk, so stats stop reaching the wire.
        assert!(
            warm.clients[0].stats.getattr_rpcs * 2 <= cold.clients[0].stats.getattr_rpcs,
            "plus+cache must cut GETATTRs: {} vs {}",
            warm.clients[0].stats.getattr_rpcs,
            cold.clients[0].stats.getattr_rpcs
        );
        assert!(warm.clients[0].stats.attr_cache_hits > 0);
        assert_eq!(cold.clients[0].stats.attr_cache_hits, 0);
    }

    #[test]
    #[should_panic(expected = "one workload per client host")]
    fn workload_count_must_match_cluster_width() {
        let cluster = ClusterConfig::uniform(WorldConfig::default(), 2);
        let _ = MixBench::new(
            Rig::ide(1),
            &cluster,
            &[ClientWorkload::Sequential { readers: 1, mb: 1 }],
            1,
        );
    }
}
