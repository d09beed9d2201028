//! Heterogeneous per-host workloads multiplexed on one cluster clock.
//!
//! Real racks are not uniform: one host runs the sequential benchmark,
//! another walks a stride pattern, a third replays last Tuesday's trace.
//! [`MixBench`] assigns one [`ClientWorkload`] per host and runs them all
//! against the shared server — closed-loop workloads reissue on
//! completion, trace replay issues open-loop at trace timestamps — so the
//! contention counters show what each kind of neighbour costs the others.

use std::collections::HashMap;

use nfsproto::FileHandle;
use nfssim::{ClientStats, ContentionStats, NfsWorld, ServerStats};
use nfstrace::Trace;
use simcore::{SimDuration, SimTime};
use testbed::{create_trace_files, issue_record, stride_order, Rig};

use crate::config::ClusterConfig;

const READ_BYTES: u64 = 8_192;
const PROC_READ_CPU: SimDuration = SimDuration::from_micros(15);

/// What one client host runs during a mixed cluster benchmark.
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
}

/// Per-host outcome of a mixed run.
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

/// Outcome of a mixed cluster run.
#[derive(Debug, Clone)]
pub struct MixResult {
    /// Per-host results, indexed by client id.
    pub clients: Vec<MixClientResult>,
    /// Shared-server counters for the run.
    pub server: ServerStats,
    /// Simulated seconds until the last host finished.
    pub elapsed_secs: f64,
}

struct SeqProc {
    fh: FileHandle,
    size: u64,
    offset: u64,
    finished: bool,
}

enum Plan {
    Seq {
        procs: Vec<SeqProc>,
        pending: usize,
    },
    Stride {
        fh: FileHandle,
        order: Vec<u64>,
        /// Index of the in-flight block; `order.len()` once finished.
        next: usize,
        done: bool,
    },
    Replay {
        trace: Trace,
        handles: HashMap<u64, FileHandle>,
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
        done: bool,
    },
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
        0 => {
            world.lookup_from(c, at, dir, 8, tag);
        }
        1 => {
            world.open_from(c, at, fh, tag);
        }
        2 => {
            world.getattr_from(c, at, fh, tag);
        }
        _ => {
            world.close_from(c, at, fh, tag);
        }
    }
}

impl Plan {
    fn finished(&self) -> bool {
        match self {
            Plan::Seq { pending, .. } => *pending == 0,
            Plan::Stride { done, .. } => *done,
            Plan::Replay {
                trace,
                next,
                outstanding,
                ..
            } => *next >= trace.len() && *outstanding == 0,
            Plan::MetaWalk { done, .. } => *done,
        }
    }
}

/// A cluster with one workload assigned per host.
pub struct MixBench {
    world: NfsWorld,
    plans: Vec<Plan>,
}

impl MixBench {
    /// Builds the cluster world and creates every host's files. One
    /// workload per host, in client order.
    ///
    /// # Panics
    ///
    /// Panics when `workloads.len() != cluster.clients()`, or when a
    /// workload's own invariants fail (readers not dividing megabytes,
    /// stride not dividing the block count).
    pub fn new(rig: Rig, cluster: &ClusterConfig, workloads: &[ClientWorkload], seed: u64) -> Self {
        assert_eq!(
            workloads.len(),
            cluster.clients(),
            "one workload per client host"
        );
        let fs = rig.build_fs(seed);
        let mut world = NfsWorld::new_cluster(cluster.world, &cluster.hosts, fs, seed);
        let plans = workloads
            .iter()
            .enumerate()
            .map(|(c, w)| match w {
                ClientWorkload::Sequential { readers, mb } => {
                    assert!(*readers > 0 && mb.is_multiple_of(*readers as u64));
                    let per = mb / *readers as u64 * 1024 * 1024;
                    let procs = (0..*readers)
                        .map(|_| SeqProc {
                            fh: world.create_file_for(c, per),
                            size: per,
                            offset: 0,
                            finished: false,
                        })
                        .collect();
                    Plan::Seq {
                        procs,
                        pending: *readers,
                    }
                }
                ClientWorkload::Stride { s, file_mb } => {
                    let size = file_mb * 1024 * 1024;
                    let fh = world.create_file_for(c, size);
                    Plan::Stride {
                        fh,
                        order: stride_order(size / READ_BYTES, *s),
                        next: 0,
                        done: false,
                    }
                }
                ClientWorkload::Replay(trace) => {
                    let handles = create_trace_files(&mut world, c, trace);
                    Plan::Replay {
                        trace: trace.clone(),
                        handles,
                        next: 0,
                        outstanding: 0,
                    }
                }
                ClientWorkload::MetaWalk {
                    files,
                    rounds,
                    plus,
                } => {
                    assert!(*files > 0 && *rounds > 0, "an empty walk never finishes");
                    let dir = world.create_file_for(c, 8_192);
                    let fhs = (0..*files)
                        .map(|_| world.create_file_for(c, 8 * READ_BYTES))
                        .collect();
                    Plan::MetaWalk {
                        dir,
                        files: fhs,
                        plus: *plus,
                        rounds: *rounds,
                        round: 0,
                        step: 0,
                        done: false,
                    }
                }
            })
            .collect();
        MixBench { world, plans }
    }

    /// Runs every host's workload to completion and returns the results.
    pub fn run(mut self) -> MixResult {
        let start = self.world.now();
        let mut ops = vec![0u64; self.plans.len()];
        let mut finished_at = vec![start; self.plans.len()];

        // Kick off the closed-loop hosts; replay hosts start from their
        // first timestamp inside the main loop.
        for c in 0..self.plans.len() {
            match &mut self.plans[c] {
                Plan::Seq { procs, .. } => {
                    for (i, p) in procs.iter_mut().enumerate() {
                        let fh = p.fh;
                        p.offset = READ_BYTES;
                        self.world.read_from(c, start, fh, 0, READ_BYTES, i as u64);
                    }
                }
                Plan::Stride { fh, order, .. } => {
                    let blk = order[0];
                    let fh = *fh;
                    self.world
                        .read_from(c, start, fh, blk * READ_BYTES, READ_BYTES, blk);
                }
                Plan::Replay { .. } => {}
                Plan::MetaWalk {
                    dir, files, plus, ..
                } => {
                    let (dir, plus) = (*dir, *plus);
                    let files = files.clone();
                    issue_meta_step(&mut self.world, c, start, dir, &files, plus, 0);
                }
            }
        }

        let mut guard: u64 = 0;
        while !self.plans.iter().all(Plan::finished) {
            guard += 1;
            assert!(guard < 200_000_000, "mixed benchmark event loop stuck");

            // Earliest pending open-loop arrival across replay hosts.
            let next_issue: Option<(SimTime, usize)> = self
                .plans
                .iter()
                .enumerate()
                .filter_map(|(c, p)| match p {
                    Plan::Replay { trace, next, .. } if *next < trace.len() => Some((
                        start + SimDuration::from_micros(trace.records[*next].time_us),
                        c,
                    )),
                    _ => None,
                })
                .min();
            let next_ev = self.world.next_event();

            let issue_now = match (next_issue, next_ev) {
                (Some((at, c)), Some(t)) if at <= t => Some((at, c)),
                (Some((at, c)), None) => Some((at, c)),
                (None, None) => panic!("workloads pending but no events or arrivals"),
                _ => None,
            };
            if let Some((at, c)) = issue_now {
                if let Plan::Replay {
                    trace,
                    handles,
                    next,
                    outstanding,
                } = &mut self.plans[c]
                {
                    let tag = *next as u64;
                    let r = &trace.records[*next];
                    *next += 1;
                    *outstanding += 1;
                    issue_record(&mut self.world, c, at, handles[&r.fh], r, tag);
                }
                continue;
            }

            let t = next_ev.expect("no arrival implies an event");
            for d in self.world.advance(t) {
                let c = d.client;
                ops[c] += 1;
                finished_at[c] = finished_at[c].max(d.done_at);
                match &mut self.plans[c] {
                    Plan::Seq { procs, pending } => {
                        let p = &mut procs[d.tag as usize];
                        if p.offset >= p.size {
                            p.finished = true;
                            *pending -= 1;
                            continue;
                        }
                        let (fh, offset) = (p.fh, p.offset);
                        p.offset += READ_BYTES;
                        self.world.read_from(
                            c,
                            d.done_at + PROC_READ_CPU,
                            fh,
                            offset,
                            READ_BYTES,
                            d.tag,
                        );
                    }
                    Plan::Stride {
                        fh,
                        order,
                        next,
                        done,
                    } => {
                        debug_assert_eq!(d.tag, order[*next], "stride host is serial");
                        *next += 1;
                        if *next >= order.len() {
                            *done = true;
                            continue;
                        }
                        let blk = order[*next];
                        let fh = *fh;
                        self.world.read_from(
                            c,
                            d.done_at + PROC_READ_CPU,
                            fh,
                            blk * READ_BYTES,
                            READ_BYTES,
                            blk,
                        );
                    }
                    Plan::Replay { outstanding, .. } => {
                        *outstanding -= 1;
                    }
                    Plan::MetaWalk {
                        dir,
                        files,
                        plus,
                        rounds,
                        round,
                        step,
                        done,
                    } => {
                        debug_assert_eq!(d.tag, *step as u64, "meta walk is serial");
                        *step += 1;
                        if *step > 4 * files.len() {
                            *step = 0;
                            *round += 1;
                            if *round >= *rounds {
                                *done = true;
                                continue;
                            }
                        }
                        let (dir, plus, step) = (*dir, *plus, *step);
                        let files = files.clone();
                        issue_meta_step(
                            &mut self.world,
                            c,
                            d.done_at + PROC_READ_CPU,
                            dir,
                            &files,
                            plus,
                            step,
                        );
                    }
                }
            }
        }

        let clients = (0..self.plans.len())
            .map(|c| MixClientResult {
                ops: ops[c],
                finished_secs: finished_at[c].saturating_since(start).as_secs_f64(),
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
